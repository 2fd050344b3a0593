"""Outside-in tracer for tautrels.

The tracer wraps public functions and methods of the library from the
benchmark's side; nothing inside the library changes.  A wrapped function
is rebound in *every* ``tautrels`` module namespace and class that binds the
same object, so calls made through ``from .classes import normal_form`` in
``tautrels.relations`` or through the ``__rmul__ = __mul__`` alias in
``Series`` are seen as well.

Two kinds of target:

* span targets record calls, inclusive CPU seconds (outermost call of each
  name only, so recursion is not double counted) and self CPU seconds (a
  span's duration minus the part covered by its traced children);
* count targets only count calls; they are used where a span per call would
  swamp the measurement (hundreds of thousands of tiny calls).

A target may also add a work quantity computed from its arguments and
result, such as the number of coefficient pairs of a series product.
"""

from __future__ import annotations

import importlib
import sys
from functools import wraps
from time import thread_time

SPAN = "span"
COUNT = "count"


def _mul_pairs(args, result):
    """Product of the operands' term counts; a scalar counts as one term."""
    self, other = args[0], args[1]
    other_terms = len(other.coeffs) if hasattr(other, "coeffs") else 1
    return len(self.coeffs) * other_terms


def _length(args, result):
    return len(result)


# (module, attribute path, metric prefix, kind, (work metric, work function))
TARGETS = [
    ("tautrels.series", "Series.__mul__", "series.mul", SPAN,
     ("series.mul.pairs", _mul_pairs)),
    ("tautrels.series", "Series.exp", "series.exp", SPAN, None),
    ("tautrels.series", "Series.log", "series.log", SPAN, None),
    ("tautrels.series", "Series.inverse", "series.inverse", SPAN, None),
    ("tautrels.series", "Series.pow_fraction", "series.pow_fraction", SPAN, None),
    ("tautrels.series", "Series.substitute", "series.substitute", SPAN, None),
    ("tautrels.series", "Series.divide_exact", "series.divide_exact", SPAN, None),
    ("tautrels.catalog", "phi_family", "catalog.phi_family", SPAN, None),
    ("tautrels.catalog", "uy_expansion", "catalog.uy_expansion", SPAN, None),
    ("tautrels.catalog", "s_matrix", "catalog.s_matrix", SPAN, None),
    ("tautrels.catalog", "locality_series", "catalog.locality_series", SPAN, None),
    ("tautrels.catalog", "substitute_uy", "catalog.substitute_uy", SPAN, None),
    ("tautrels.catalog", "ionel_coefficient_pair",
     "catalog.ionel_coefficient_pair", SPAN, None),
    ("tautrels.graphs", "enumerate_graphs", "graphs.enumerate_graphs", SPAN,
     ("graphs.enumerate_graphs.kept", _length)),
    ("tautrels.graphs", "StableGraph.is_connected", "graphs.is_connected",
     COUNT, None),
    ("tautrels.graphs", "StableGraph.canonical", "graphs.canonical", SPAN, None),
    ("tautrels.graphs", "StableGraph.automorphism_order",
     "graphs.automorphism_order", SPAN, None),
    ("tautrels.graphs", "enumerate_colorings", "graphs.enumerate_colorings",
     COUNT, ("graphs.colourings", _length)),
    ("tautrels.relations", "DecoratedSeries.__mul__",
     "relations.DecoratedSeries.mul", SPAN, None),
    ("tautrels.relations", "DecoratedSeries.exp",
     "relations.DecoratedSeries.exp", SPAN, None),
    ("tautrels.relations", "DecoratedSeries.extract",
     "relations.DecoratedSeries.extract", SPAN, None),
    ("tautrels.relations", "bracket_kappa", "relations.bracket_kappa", SPAN, None),
    ("tautrels.relations", "bracket_D", "relations.bracket_D", SPAN, None),
    ("tautrels.relations", "fz_relation", "relations.fz_relation", SPAN, None),
    ("tautrels.classes", "normal_form", "classes.normal_form", SPAN, None),
    ("tautrels.classes", "canonical_term", "classes.canonical_term", SPAN, None),
    ("tautrels.classes", "multiply_smooth", "classes.multiply_smooth", SPAN, None),
    ("tautrels.classes", "pushforward_forget_small",
     "classes.pushforward_forget_small", SPAN, None),
    ("tautrels.classes", "chern_neg_Bd", "classes.chern_neg_Bd", SPAN, None),
    ("tautrels.classes", "to_vector", "classes.to_vector", SPAN, None),
    ("tautrels.classes", "matrix_rank", "classes.matrix_rank", SPAN, None),
    ("tautrels.classes", "TautClass.add_term", "classes.TautClass.add_term",
     COUNT, None),
    ("tautrels.serialize", "dumps", "serialize.dumps", SPAN, None),
    ("tautrels.cli", "main", "cli.main", SPAN, None),
]


def resolve(module: str, path: str):
    """The object a target names, as the library defines it."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _rebind(orig, wrapper) -> int:
    """Replace ``orig`` by ``wrapper`` wherever a tautrels module or one of
    its classes binds it; return the number of bindings replaced."""
    count = 0
    for name, mod in list(sys.modules.items()):
        if name != "tautrels" and not name.startswith("tautrels."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                count += 1
            elif isinstance(value, type):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, cattr, wrapper)
                        count += 1
    return count


class Stat:
    __slots__ = ("calls", "total", "self_s", "depth", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.work = 0


class Tracer:
    """Install with :meth:`install`; read results with :meth:`metrics`."""

    def __init__(self):
        self.stats: dict = {}
        self.bindings: dict = {}
        self._stack: list = []  # child seconds of each open span

    def install(self) -> None:
        importlib.import_module("tautrels.cli")  # loads every module
        for module, path, prefix, kind, work in TARGETS:
            orig = resolve(module, path)
            stat = self.stats[prefix] = Stat()
            make = self._span if kind == SPAN else self._count
            wrapper = make(orig, stat, work[1] if work else None)
            self.bindings[prefix] = _rebind(orig, wrapper)
            if not self.bindings[prefix]:
                raise RuntimeError(f"no binding of {module}.{path} found")

    def _span(self, fn, stat: Stat, work):
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            frame = [0.0]
            stack.append(frame)
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - start
                stack.pop()
                stat.depth -= 1
                stat.self_s += elapsed - frame[0]
                if not stat.depth:
                    stat.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if work is not None:
                stat.work += work(args, result)
            return result

        return wrapper

    def _count(self, fn, stat: Stat, work):
        if work is None:
            @wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
        else:
            @wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                result = fn(*args, **kwargs)
                stat.work += work(args, result)
                return result
        return wrapper

    def metrics(self) -> dict:
        """Every quantity the tracer holds, named ``<prefix>.<quantity>``."""
        out = {}
        for module, path, prefix, kind, work in TARGETS:
            stat = self.stats[prefix]
            out[f"{prefix}.calls"] = stat.calls
            if kind == SPAN:
                out[f"{prefix}.s"] = stat.total
                out[f"{prefix}.self_s"] = stat.self_s
            if work is not None:
                out[work[0]] = stat.work
        return out
