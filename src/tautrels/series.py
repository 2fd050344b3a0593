"""Truncated multivariate Laurent series with exact rational coefficients.

A :class:`Ring` fixes, once and for all, an ordered tuple of variables
together with a per-variable exponent window ``[min_exponent, trunc_order)``.
At most one variable may have a negative ``min_exponent`` (a Laurent
variable); all other variables are ordinary power-series variables.

A :class:`Series` is ``nums / den``: a positive int ``den`` and a sparse
dictionary ``nums`` mapping exponent tuples to nonzero int numerators, both
divided by ``gcd(den, *nums)``.  This stored form is canonical, so ``==``
and ``hash`` compare it directly, and ``den`` is the least common multiple
of the reduced coefficients' denominators.  The :class:`fractions.Fraction`
coefficients are read-only views (``coeffs``, ``terms()``,
``coefficient()``, ``constant_term()``), built on each read; fractions
enter only as scalars, through ``Series(ring, coeffs)`` (or its alias
:meth:`Ring.series`), which checks every exponent tuple against the window,
and the scalar operands of the arithmetic.  All arithmetic is exact:
products drop exponents at or above a variable's truncation order (which is
sound, because exponents only ever increase under multiplication by
ordinary terms), while any operation that would push an exponent *below* a
variable's floor raises :class:`FloorUnderflow` rather than silently losing
information.

Every operation runs on the numerators.  A sum brings both operands over
the lcm of their denominators; a product multiplies the denominators.  For
products each exponent tuple is packed into one int of biased bit fields
laid out per ring (:meth:`Ring._packed`), all keys with one bias, so that
``k1 - unit + k2`` for the key ``unit`` of exponents 0 adds the exponents
and sets a field's top bit exactly when that exponent reaches its
truncation order.  One kernel, :meth:`Ring._mul_into`, runs the truncated
pair loop of every product, the graded recurrence and ``substitute``: per
pair one int addition, one mask test and one int multiply-add; only the
output keys are unpacked (:meth:`Ring._unpacked`, with the floor check).
The decorated products of :mod:`tautrels.relations` pack a series'
numerators through the same ring and run their own pair loop on the same
keys.

``exp``, ``log`` and the geometric series inside ``inverse`` share one graded
online recurrence on the same packed keys (Brent and Kung, "Fast algorithms
for manipulating formal power series", J. ACM 1978): ``theta(log f) f =
theta f`` for the degree operator ``theta``, which multiplies the monomial of
exponents ``e`` by ``deg(e) = sum_i w_i e_i``.  The Laurent variable has
weight 1 and every other variable weight ``1 - floor``, so every term has
positive degree except the constant and the pure poles (negative powers of
the Laurent variable alone), whose powers fall below the floor and raise
:class:`FloorUnderflow`.  Each degree of the output is then a sum of products
of lower-degree output terms with input terms, accumulated on integer
numerators over one denominator per degree, instead of one full product per
power of the input; each degree stays packed for the degrees above it.  On
a ring with a negative floor, truncated products are not associative: near
the top of the Laurent window the recurrence and a sum of truncated powers
can both differ from the exact series.  With the Laurent top raised by
``|floor|`` times the sum of the other tops minus one, both are exact in
the original window, since no run of non-pure-pole terms lowers the
Laurent exponent by more than that; the catalog builds its Laurent series
in padded rings.

``substitute`` sums each group of terms that differ only in the last
assigned variable on packed integers, then multiplies the sum once by the
group's prefix; the truncated product is bilinear on every ring, so the
grouping is exact.  Image powers come from the ladder ``P^k = P^(k-1) P``,
equal to binary powering whenever each image has one Laurent exponent: each
term of ``P^j`` then has ``j`` times it, so no route drops a term ``P^k`` keeps.

``divide_exact`` runs its long division on the numerators too, and the
remainder's denominator grows only when the lead numerator does not divide
the numerator being reduced.

>>> R = Ring([VarSpec("t", 0, 6)])
>>> t = R.var("t")
>>> ((1 + t).log().exp() - (1 + t)).is_zero()
True
>>> x = Ring([VarSpec("x", 0, 4)]).var("x")
>>> (t + t ** 2).substitute({"t": x + x ** 2})
1*x + 2*x^2 + 2*x^3
>>> h = (t + t ** 2) * Fraction(2, 3)
>>> h.den, h.nums
(3, {(1,): 2, (2,): 2})
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import add, ge, lshift, mul, sub
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class SeriesError(Exception):
    """Base class for all series-arithmetic failures."""


class RingMismatch(SeriesError):
    """Operands live in different rings."""


class FloorUnderflow(SeriesError):
    """An exponent fell below a variable's Laurent floor."""


class NotDivisible(SeriesError):
    """Exact division left a nonzero remainder."""


class WindowError(SeriesError):
    """A requested exponent lies outside the ring's exponent window."""


@dataclass(frozen=True)
class VarSpec:
    """One formal variable: name plus exponent window [min_exponent, trunc_order)."""

    name: str
    min_exponent: int = 0
    trunc_order: int = 1

    def __post_init__(self) -> None:
        if self.min_exponent >= self.trunc_order:
            raise ValueError(
                f"empty exponent window for {self.name!r}: "
                f"[{self.min_exponent}, {self.trunc_order})"
            )


class Ring:
    """An ordered collection of :class:`VarSpec` defining a truncated series ring."""

    __slots__ = ("specs", "index", "laurent", "_unit_key", "_high",
                 "_shifts", "_fields")

    def __init__(self, specs: Iterable[VarSpec]):
        specs = tuple(specs)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        poles = sum(1 for s in specs if s.min_exponent < 0)
        if poles > 1:
            raise ValueError("at most one Laurent variable is allowed")
        self.specs = specs
        self.index = {s.name: i for i, s in enumerate(specs)}
        self.laurent = poles == 1  # a variable has a negative floor
        # the packed-key fields: see _packed
        shifts, fields = [], []
        unit = high = width = 0
        for s in specs:
            hi, lo = s.trunc_order, s.min_exponent
            w = max(hi - 2 * lo, hi).bit_length() + 1
            x = (1 << (w - 1)) - hi
            shifts.append(width)
            fields.append((width, (1 << w) - 1, x))
            unit += x << width
            high += 1 << (width + w - 1)
            width += w
        self._unit_key, self._high = unit, high
        self._shifts, self._fields = tuple(shifts), tuple(fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{s.name}[{s.min_exponent},{s.trunc_order})" for s in self.specs
        )
        return f"Ring({parts})"

    @property
    def nvars(self) -> int:
        return len(self.specs)

    def spec(self, name: str) -> VarSpec:
        return self.specs[self.index[name]]

    def zero(self) -> "Series":
        return Series.from_nums(self, 1, {})

    def const(self, c: Scalar) -> "Series":
        c = Fraction(c)
        return self.monomial(c) if c else self.zero()

    def one(self) -> "Series":
        return self.const(1)

    def exponents(self, **powers: int) -> tuple:
        """The exponent tuple with ``powers[name]`` at each named variable
        and 0 elsewhere."""
        exps = [0] * self.nvars
        for name, p in powers.items():
            exps[self.index[name]] = p
        return tuple(exps)

    def var(self, name: str, power: int = 1) -> "Series":
        return self.monomial(1, **{name: power})

    def monomial(self, coeff: Scalar, **powers: int) -> "Series":
        exps = self.exponents(**powers)
        self._check_window(exps)
        c = Fraction(coeff)
        if not c:
            return self.zero()
        return Series.from_nums(self, c.denominator, {exps: c.numerator})

    def _packed(self, nums) -> list:
        """``[(key, numerator), ...]`` for the ``(exponents, numerator)``
        pairs of ``nums``, in their order, each tuple packed into one int.

        Variable i with window ``[lo, hi)`` gets a field of ``w`` bits at
        shift ``_shifts[i]``, whose top bit ``T = 2**(w-1)`` exceeds
        ``hi - 2*lo`` and ``hi``.  A key holds ``e + X`` in the field, with
        ``X = T - hi``, so ``_unit_key`` (``X`` in every field) is the key
        of exponents 0.  For two keys of exponents inside the window,
        ``k1 - _unit_key + k2`` holds ``e1 + e2 + X`` in each field: it lies
        in ``[0, 2T)``, so no field borrows from or carries into the next,
        and its top bit (``_high`` masks them all) is set exactly when
        ``e1 + e2 >= hi``.  The fields themselves (``(shift, mask, X)`` per
        variable in ``_fields``) are read only here and by
        :meth:`_unpacked`.
        """
        shifts, unit = self._shifts, self._unit_key
        return [(unit + sum(map(lshift, e, shifts)), c) for e, c in nums]

    def _mul_into(self, acc: dict, terms1, terms2, scale: int = 1) -> None:
        """Add ``scale`` times the truncated product of two iterables of
        ``(packed key, numerator)`` into ``acc``, a map of packed keys to
        numerators (:meth:`_packed`): per pair one int addition, one mask
        test and one multiply-add, and a pair whose exponent reaches its
        truncation order is dropped.  ``terms2`` is read once per term of
        ``terms1``.  A key enters ``acc`` at its first pair, so the first
        key below a floor that :meth:`_unpacked` meets is the one the first
        offending pair produced."""
        unit, high = self._unit_key, self._high
        get = acc.get
        for k1, c1 in terms1:
            k1 -= unit
            c1 *= scale
            for k2, c2 in terms2:
                k = k1 + k2
                if not k & high:
                    acc[k] = get(k, 0) + c1 * c2

    def _unpacked(self, acc: dict, where: str) -> dict:
        """``{exponents: numerator}`` for packed keys (:meth:`_packed`)
        mapped to int numerators; zero numerators are dropped.  The
        first key, in the order of ``acc``, with an exponent below its floor
        raises :class:`FloorUnderflow` naming ``where``."""
        fields, laurent, specs = self._fields, self.laurent, self.specs
        out = {}
        for k, v in acc.items():
            exps = tuple(((k >> sh) & m) - x for sh, m, x in fields)
            if laurent:
                for e, s in zip(exps, specs):
                    if e < s.min_exponent:
                        raise FloorUnderflow(
                            f"exponent {e} of {s.name!r} below floor "
                            f"{s.min_exponent} in {where}"
                        )
            if v:
                out[exps] = v
        return out

    def _check_window(self, exps: tuple) -> None:
        if len(exps) != len(self.specs):
            raise WindowError(
                f"exponent tuple {exps} has {len(exps)} entries, "
                f"the ring has {len(self.specs)} variables"
            )
        for e, s in zip(exps, self.specs):
            if not (s.min_exponent <= e < s.trunc_order):
                raise WindowError(
                    f"exponent {e} of {s.name!r} outside window "
                    f"[{s.min_exponent}, {s.trunc_order})"
                )

    def series(self, terms: Mapping[tuple, Scalar]) -> "Series":
        """``Series(self, terms)``."""
        return Series(self, terms)


class Series:
    """A sparse truncated Laurent series ``nums / den``; treat instances as
    immutable."""

    __slots__ = ("ring", "den", "nums")

    def __init__(self, ring: Ring, coeffs: Mapping[tuple, Scalar]):
        """The series with coefficient ``c`` (an int or a ``Fraction``) at
        each exponent tuple of ``coeffs``; zero coefficients are dropped.  A
        nonzero one at a tuple outside the ring's window, or of another
        length than :attr:`Ring.nvars`, raises :class:`WindowError`."""
        coeffs = {e: Fraction(c) for e, c in coeffs.items() if c}
        for e in coeffs:
            ring._check_window(e)
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.ring = ring
        self.den = den
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in coeffs.items()}

    @classmethod
    def from_nums(cls, ring: Ring, den: int, nums: dict) -> "Series":
        """The series ``nums / den`` for a nonzero int ``den`` and nonzero
        int numerators, stored canonically: ``den`` and every numerator are
        divided by ``gcd(den, *nums)``, with the sign that makes ``den``
        positive.  ``nums`` is kept when nothing divides; the tuples are
        not checked."""
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
        s = cls.__new__(cls)
        s.ring = ring
        s.den = den
        s.nums = nums
        return s

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """``{exponents: Fraction}``, built on each read."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.ring.nvars, 0), self.den)

    def coefficient(self, **powers: int) -> Fraction:
        """Coefficient of a single fully specified monomial."""
        exps = self.ring.exponents(**powers)
        self.ring._check_window(exps)
        return Fraction(self.nums.get(exps, 0), self.den)

    def extract(self, **powers: int) -> "Series":
        """Fix the exponents of some variables; return a series in the rest.

        Raises :class:`WindowError` when a requested exponent lies outside the
        ring's window, so a caller can never silently read a truncated-away
        coefficient as zero.
        """
        ring = self.ring
        fixed = {}
        for name, p in powers.items():
            i = ring.index[name]
            s = ring.specs[i]
            if not (s.min_exponent <= p < s.trunc_order):
                raise WindowError(
                    f"exponent {p} of {name!r} outside window "
                    f"[{s.min_exponent}, {s.trunc_order})"
                )
            fixed[i] = p
        keep = [i for i in range(ring.nvars) if i not in fixed]
        sub = Ring([ring.specs[i] for i in keep])
        # distinct kept terms agree on the fixed exponents, so they differ
        # in the others: no two land on one key
        out = {tuple(exps[i] for i in keep): c
               for exps, c in self.nums.items()
               if all(exps[i] == p for i, p in fixed.items())}
        return Series.from_nums(sub, self.den, out)

    def terms(self):
        return self.coeffs.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ring == other.ring and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.ring, self.den, frozenset(self.nums.items())))

    def __repr__(self) -> str:
        if not self.nums:
            return "0"
        names = [s.name for s in self.ring.specs]
        coeffs = self.coeffs
        bits = []
        for exps in sorted(coeffs):
            mono = "*".join(
                f"{n}^{e}" if e != 1 else n for n, e in zip(names, exps) if e
            )
            bits.append(f"{coeffs[exps]}" + (f"*{mono}" if mono else ""))
        text = " + ".join(bits)
        return text if len(text) < 400 else text[:400] + " ..."

    # -- ring operations --------------------------------------------------

    def _coerce(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        if isinstance(other, Series):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        raise TypeError(f"cannot combine Series with {type(other).__name__}")

    def _sum(self, other: "Series", sign: int) -> "Series":
        """``self + sign * other`` over the lcm of the two denominators:
        ``self``'s keys in order, then ``other``'s new ones."""
        den = lcm(self.den, other.den)
        up = den // self.den
        out = {e: c * up for e, c in self.nums.items()} if up > 1 else dict(self.nums)
        up = sign * (den // other.den)
        get = out.get
        for e, c in other.nums.items():
            v = get(e, 0) + c * up
            if v:
                out[e] = v
            else:
                del out[e]
        return Series.from_nums(self.ring, den, out)

    def __add__(self, other) -> "Series":
        return self._sum(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series.from_nums(self.ring, self.den,
                                {e: -c for e, c in self.nums.items()})

    def __sub__(self, other) -> "Series":
        return self._sum(self._coerce(other), -1)

    def __rsub__(self, other) -> "Series":
        return self._coerce(other)._sum(self, -1)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.ring.zero()
            up = c.numerator
            return Series.from_nums(self.ring, self.den * c.denominator,
                                    {e: v * up for e, v in self.nums.items()})
        other = self._coerce(other)
        if not self.nums or not other.nums:
            return self.ring.zero()
        ring = self.ring
        acc: dict = {}
        ring._mul_into(acc, ring._packed(self.nums.items()),
                       ring._packed(other.nums.items()))
        return Series.from_nums(ring, self.den * other.den,
                                ring._unpacked(acc, "product"))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        if not isinstance(n, int):
            raise TypeError("use pow_fraction for non-integer exponents")
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    # -- transcendental operations ----------------------------------------

    def _graded(self, kind: str) -> "Series":
        """``exp(f)``, ``log(1 + f)`` or ``1/(1 + f)`` for ``f = self``, a
        series without constant term, by the graded online recurrence.

        With ``deg`` the grading of the module docstring and ``d = deg n``:

        * ``exp``: ``d g_n = sum_k deg(k) f_k g_(n-k)``, ``g_0 = 1``;
        * ``log``: ``d g_n = d f_n - sum_m deg(m) g_m f_(n-m)``, ``g_0 = 0``;
        * ``inverse``: ``g_n = -sum_k f_k g_(n-k)``, ``g_0 = 1``.

        The output is built one degree at a time: each degree's pairs of
        earlier output terms and terms of ``f`` are summed on packed keys
        as integer numerators over one common denominator, which is then
        divided by the gcd of it and the degree's numerators.  The packed
        sums enter the later degrees as they are; only the output is
        unpacked.  A pure pole in ``f`` (a term of degree <= 0) raises
        :class:`FloorUnderflow`, as its powers fall below the floor; so does
        any output key below a floor.
        """
        ring = self.ring
        specs = ring.specs
        lowest = min([0] + [s.min_exponent for s in specs])
        weights = [1 if s.min_exponent < 0 else 1 - lowest for s in specs]
        # terms of f by degree, as (packed key, numerator over self.den)
        f_parts: dict = {}
        for e, term in zip(self.nums, ring._packed(self.nums.items())):
            d = sum(map(mul, weights, e))
            if d <= 0:
                raise FloorUnderflow(
                    f"{kind} of the pure pole term {e} falls below the floor"
                )
            f_parts.setdefault(d, []).append(term)
        # output terms by degree, as (den, {exponents: numerator}) in parts
        # and (den, [(packed key, numerator)]) in g_parts
        parts: list = []
        g_parts: dict = {}
        if kind != "log":
            parts.append((1, ring.one().nums))
            g_parts[0] = (1, [(ring._unit_key, 1)])
        # the factor of a pair of an output term of degree j and a term of f,
        # for an output term of degree d
        weight = {
            "exp": lambda j, d: d - j,
            "log": lambda j, d: -j,
            "inverse": lambda j, d: -1,
        }[kind]
        top = sum(w * (s.trunc_order - 1) for w, s in zip(weights, specs))
        for d in range(1, top + 1):
            pairs = [
                (d - e, f_terms) for e, f_terms in f_parts.items() if d - e in g_parts
            ]
            own = f_parts.get(d, ()) if kind == "log" else ()
            if not pairs and not own:
                continue
            m = lcm(*(g_parts[j][0] for j, _ in pairs))
            acc: dict = {}
            for j, f_terms in pairs:
                den_g, g_terms = g_parts[j]
                ring._mul_into(acc, g_terms, f_terms,
                               (m // den_g) * weight(j, d))
            for k, c in own:
                acc[k] = acc.get(k, 0) + c * m * d
            new = ring._unpacked(acc, kind)
            if new:
                den = self.den * m * (1 if kind == "inverse" else d)
                g = gcd(den, *new.values())
                if g > 1:
                    den //= g
                    new = {e: c // g for e, c in new.items()}
                parts.append((den, new))
                g_parts[d] = (den, [(k, c // g if g > 1 else c)
                                    for k, c in acc.items() if c])
        den = lcm(*(part_den for part_den, _ in parts))
        out: dict = {}
        for part_den, new in parts:
            up = den // part_den
            out.update({e: c * up for e, c in new.items()} if up > 1 else new)
        return Series.from_nums(ring, den, out)

    def exp(self) -> "Series":
        """exp of a series with zero constant term."""
        if self.constant_term():
            raise SeriesError("exp requires zero constant term")
        return self._graded("exp")

    def log(self) -> "Series":
        """log of a series with constant term one."""
        if self.constant_term() != 1:
            raise SeriesError("log requires constant term 1")
        return (self - 1)._graded("log")

    def pow_fraction(self, e: Scalar) -> "Series":
        """Raise to an exact rational power via exp(e * log)."""
        e = Fraction(e)
        if e.denominator == 1:
            return self ** int(e)
        return (self.log() * e).exp()

    def inverse(self) -> "Series":
        """Multiplicative inverse of ``c * monomial * (1 + nilpotent)``.

        Factors out the componentwise-minimal exponent vector; the remaining
        series must have a nonzero constant term.

        The result is the inverse of ``self`` read as an exact polynomial.
        When a variable's minimal exponent ``m`` is positive, the truncated
        input fixes the unit factor only below ``trunc_order - m``, so the
        terms of the result at exponents ``>= trunc_order - 2m`` in that
        variable also depend on input terms the window dropped: they are the
        true inverse only when no such terms exist.
        """
        if self.is_zero():
            raise SeriesError("inverse of zero")
        ring = self.ring
        mins = [min(e[i] for e in self.nums) for i in range(ring.nvars)]
        shifted = {
            tuple(a - m for a, m in zip(e, mins)): c for e, c in self.nums.items()
        }
        c0 = shifted.get((0,) * ring.nvars, 0)
        if not c0:
            raise SeriesError("series is not invertible (no unit monomial factor)")
        # geometric series for (1 + n)^-1 where n = shifted/c0 - 1; the
        # result needs shifted exponents e with e - m < trunc_order
        big = Ring(
            [
                VarSpec(s.name, min(s.min_exponent, 0),
                        max(s.trunc_order + m, 1))
                for s, m in zip(ring.specs, mins)
            ]
        )
        # terms at or above big's truncation can only produce dropped
        # products, and products require exponents inside the window
        n = Series.from_nums(
            big,
            c0,
            {
                e: c
                for e, c in shifted.items()
                if any(e) and all(x < s.trunc_order for x, s in zip(e, big.specs))
            },
        )
        inv = n._graded("inverse")
        # the inverse is inv / (c0 / self.den)
        out: dict = {}
        for e, c in inv.nums.items():
            exps = tuple(a - m for a, m in zip(e, mins))
            if any(x >= s.trunc_order for x, s in zip(exps, ring.specs)):
                continue
            for x, s in zip(exps, ring.specs):
                if x < s.min_exponent:
                    raise FloorUnderflow(
                        f"inverse exponent {x} of {s.name!r} below floor"
                    )
            out[exps] = c * self.den
        return Series.from_nums(ring, inv.den * c0, out)

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Series":
        i = self.ring.index[name]
        floor = self.ring.specs[i].min_exponent
        out: dict = {}
        for e, c in self.nums.items():
            if e[i] == 0:
                continue
            exps = e[:i] + (e[i] - 1,) + e[i + 1 :]
            if exps[i] < floor:
                raise FloorUnderflow(f"derivative pushed {name!r} below floor")
            out[exps] = c * e[i]
        return Series.from_nums(self.ring, self.den, out)

    def x_d_dx(self, name: str) -> "Series":
        """The Euler operator x d/dx in the named variable."""
        i = self.ring.index[name]
        out = {e: c * e[i] for e, c in self.nums.items() if e[i]}
        return Series.from_nums(self.ring, self.den, out)

    def mul_var(self, name: str) -> "Series":
        """Multiply by the named variable, dropping what leaves the window."""
        i = self.ring.index[name]
        top = self.ring.specs[i].trunc_order
        out: dict = {}
        for e, c in self.nums.items():
            x = e[i] + 1
            if x < top:
                out[e[:i] + (x,) + e[i + 1 :]] = c
        return Series.from_nums(self.ring, self.den, out)

    # -- substitution -------------------------------------------------------

    def substitute(self, assignment: Mapping[str, Union["Series", int]]) -> "Series":
        """Substitute series (or a sign +/-1) for some of the variables.

        A sign ``z`` for ``t`` substitutes ``t -> z t``; when no sign is -1
        and no series is assigned, ``self`` is returned as it is; any other
        value, a ``bool`` too, raises :class:`SeriesError`.  All
        :class:`Series` values must share one target ring; variables that
        are not assigned must exist (same name) in the target ring.  Negative
        exponents of an assigned variable require the assigned series to be
        invertible.  The module docstring describes the grouped sum.
        """
        ring = self.ring
        flips, subs = [], {}
        for n, v in assignment.items():
            if isinstance(v, Series):
                subs[ring.index[n]] = v
            elif isinstance(v, int) and not isinstance(v, bool) and v in (1, -1):
                i = ring.index[n]
                if v == -1:
                    flips.append(i)
            else:
                raise SeriesError("assignments must be a Series or the int +1 or -1")
        cur = self.nums
        if flips:
            cur = {e: -c if sum(map(e.__getitem__, flips)) % 2 else c
                   for e, c in cur.items()}
        if not subs:
            return Series.from_nums(ring, self.den, cur) if flips else self
        target = next(iter(subs.values())).ring
        if any(v.ring != target for v in subs.values()):
            raise RingMismatch("assigned series live in different rings")
        keep = [i for i in range(ring.nvars) if i not in subs]
        names = [ring.specs[i].name for i in keep]
        missing = [name for name in names if name not in target.index]
        if missing:
            raise SeriesError(f"variable {missing[0]!r} missing from target ring")
        *head, last = subs

        def ladder(p: Series, exps: list) -> dict:
            """``{k: p**k}`` for each nonzero k from min to max of ``exps``:
            ``p**k = p**(k-1) * p`` and ``p**-k = p**(1-k) * p.inverse()``."""
            out: dict = {}
            for k in range(1, max(exps, default=0) + 1):
                out[k] = out[k - 1] * p if k > 1 else p
            for k in range(-1, min(exps, default=0) - 1, -1):
                out[k] = out[k + 1] * out[-1] if k < -1 else p.inverse()
            return out

        groups: dict = {}
        for e, c in cur.items():
            groups.setdefault(tuple(e[i] for i in keep + head), []).append((e[last], c))
        powers = {i: ladder(p, [e[i] for e in cur]) for i, p in subs.items()}
        packed = {b: (p.den, target._packed(p.nums.items()))
                  for b, p in powers[last].items()}
        packed[0] = (1, [(target._unit_key, 1)])
        # each group's sum and prefix, over den * self.den
        sums = []
        for key, terms in groups.items():
            prefix = target.monomial(1, **dict(zip(names, key)))
            for i, a in zip(head, key[len(keep):]):
                if a:
                    prefix = prefix * powers[i][a]
            den = lcm(*(packed[b][0] for b, _ in terms))
            acc: dict = {}
            for b, c in terms:
                den_b, pb = packed[b]
                scale = c * (den // den_b)
                for k, v in pb:
                    acc[k] = acc.get(k, 0) + scale * v
            sums.append((prefix.den * den, target._packed(prefix.nums.items()),
                         [kv for kv in acc.items() if kv[1]]))
        # one common denominator for the products of all groups
        den = lcm(*(d for d, _, _ in sums))
        acc = {}
        for d, pp, terms in sums:
            target._mul_into(acc, pp, terms, den // d)
        return Series.from_nums(target, den * self.den,
                                target._unpacked(acc, "substitution"))

    # -- exact division -----------------------------------------------------

    def divide_exact(self, den: "Series") -> "Series":
        """Exact long division; raises :class:`NotDivisible` on any remainder.

        Uses the lexicographically minimal term of the denominator as the lead
        term; lex order is compatible with exponent addition, so the remainder
        strictly increases and the loop terminates inside the finite window.
        Each remainder term is reduced once, so each quotient exponent is
        written once.

        The loop runs on the numerators: the divisor's ``dnum`` over
        ``dden``, the remainder's over one common denominator ``rden``, and
        the quotient term ``rem[r0] / dnum[d0]`` is kept over ``rden`` too,
        in units of ``dden``.  When the lead numerator does not divide a
        remainder numerator, ``rden`` and every remainder and quotient
        numerator are scaled up by the missing factor.
        """
        den = self._coerce(den)
        if den.is_zero():
            raise NotDivisible("division by zero series")
        ring = self.ring
        tops = [s.trunc_order for s in ring.specs]
        floors = [s.min_exponent for s in ring.specs]
        dnum, dden = den.nums, den.den
        d0 = min(dnum)
        dc = dnum[d0]
        rden = self.den
        rem = dict(self.nums)
        heap = sorted(rem)  # rem's keys as a heap; keys that left rem are stale
        quot: dict = {}
        while rem:
            r0 = heappop(heap)
            if r0 not in rem:
                continue
            q = tuple(map(sub, r0, d0))
            for x, lo, hi in zip(q, floors, tops):
                if x < lo or x >= hi:
                    raise NotDivisible(
                        f"remainder term {r0} not reducible by lead term {d0}"
                    )
            qc, miss = divmod(rem[r0], dc)
            if miss:
                f = abs(dc) // gcd(rem[r0], dc)
                rden *= f
                for e in rem:
                    rem[e] *= f
                for e in quot:
                    quot[e] *= f
                qc = rem[r0] // dc
            quot[q] = qc
            for e, c in dnum.items():
                exps = tuple(map(add, q, e))
                if any(map(ge, exps, tops)):
                    continue
                v = rem.pop(exps, 0)
                if not v:
                    heappush(heap, exps)
                v -= qc * c
                if v:
                    rem[exps] = v
        return Series.from_nums(ring, rden, {e: c * dden for e, c in quot.items()})


def embed(series: Series, target: Ring) -> Series:
    """Copy a series into a larger ring, matching variables by name.

    Exponents at or above the target truncation are dropped (exact
    truncation); exponents below the target floor raise.  Variable names
    are distinct, so no two terms land on one key.
    """
    cols = [target.index[s.name] for s in series.ring.specs]
    out: dict = {}
    for e, c in series.nums.items():
        exps = [0] * target.nvars
        for i, x in zip(cols, e):
            exps[i] += x
        drop = False
        for x, s in zip(exps, target.specs):
            if x >= s.trunc_order:
                drop = True
                break
            if x < s.min_exponent:
                raise FloorUnderflow(
                    f"embed: exponent {x} of {s.name!r} below floor"
                )
        if not drop:
            out[tuple(exps)] = c
    return Series.from_nums(target, series.den, out)
