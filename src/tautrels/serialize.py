"""JSON round-tripping for series, graphs and relations.

Rational coefficients are stored as decimal strings so that arbitrarily
large numerators and denominators survive any JSON implementation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .graphs import json_int, json_int_text
from .series import Ring, Series, VarSpec


def series_to_dict(s: Series) -> dict:
    return {
        "ring": [
            {"var": v.name, "min": v.min_exponent, "max": v.trunc_order}
            for v in s.ring.specs
        ],
        "terms": [
            {
                "exp": list(e),
                "num": str(c.numerator),
                "den": str(c.denominator),
            }
            for e, c in sorted(s.coeffs.items())
        ],
    }


def series_from_dict(d: dict) -> Series:
    """The series of :func:`series_to_dict`; a float or a boolean where an
    integer belongs, or an exponent list given twice, raises
    ``ValueError``."""
    ring = Ring([VarSpec(v["var"], json_int(v["min"], "min"),
                         json_int(v["max"], "max")) for v in d["ring"]])
    terms = {}
    for t in d["terms"]:
        exps = tuple(json_int(e, "exp") for e in t["exp"])
        if exps in terms:
            raise ValueError(f"repeated exponent {list(exps)}")
        terms[exps] = Fraction(json_int_text(t["num"], "num"),
                               json_int_text(t["den"], "den"))
    return ring.series(terms)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
