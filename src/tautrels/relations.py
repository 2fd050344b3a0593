"""Relation families built from the series catalog and the strata algebra.

The constructions here expand formal exponentials whose coefficients are
classes on one vertex: decorations of a vertex of a given genus, which the
graph sum places at the vertices of each stable graph.  A bracket operator
turns a scalar series into such a decorated series:

* the kappa bracket sends ``t^k`` to ``kappa_k t^k`` (``k = 0`` gives the
  scalar ``2 g - 2`` of the vertex's genus, ``k < 0`` gives zero);
* the D bracket sends ``t^k`` to the diagonal generator ``D_{S, k} t^k``;
* the Delta bracket acts on series in ``t``, ``x`` and marking variables
  ``p_i``: a monomial without ``p``'s goes to minus its kappa bracket,
  and a monomial ``t^k x^m p^alpha`` goes to ``D_{supp(alpha), k}`` times
  the full scalar monomial.

Relations are extracted as ``TautClass`` values at a fixed multi-degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product
from math import factorial, lcm, prod
from operator import add

from .catalog import (
    delta_edge,
    edge_series_xy,
    log_hyper_A,
    phi_family,
    series_C,
    uy_expansion,
    uy_ring,
)
from .classes import (
    TautClass,
    _factor_decor,
    _from_numerators,
    _vertex_product,
    chern_neg_Bd,
    multiply_generator,
    normal_form,
    pushforward_forget,
    pushforward_forget_small,
)
from .graphs import (
    PreconditionError,
    StableGraph,
    WeightData,
    check_stable,
    enumerate_colorings,
    enumerate_graphs,
    smooth_graph,
)
from .series import Ring, Series, VarSpec

__all__ = [
    "PreconditionError",
    "normal_form",
    "DecoratedSeries",
    "open_sq_relation",
    "open_fz_relation",
    "fz_relation",
    "boundary_sq_relation",
    "extended_fz_relation",
    "verify_chain",
    "set_partitions",
]


def _check_subset(S: tuple, n: int) -> None:
    if any(not 1 <= i <= n for i in S):
        raise PreconditionError(
            "S ⊆ {1..n}", f"S={','.join(map(str, S))}, n={n}"
        )
    if len(set(S)) != len(S):
        raise PreconditionError(
            "S has distinct markings", f"S={','.join(map(str, S))}"
        )


def _check_fz_range(g: int, r: int, S: tuple, sigma: tuple = ()) -> None:
    """The size and parity conditions of the FZ-form relations.  With a
    nonempty ``sigma`` they are those of the relation that
    :func:`extended_fz_relation` builds first, of codimension ``r - k``
    with ``m`` more points in its subset, named in ``r``, ``S`` and
    ``sigma``: ``k`` sums ``floor(sigma_i/3)`` and ``m`` counts the parts
    congruent to 1 mod 3."""
    k = sum(part // 3 for part in sigma)
    m = sum(part % 3 == 1 for part in sigma)
    codim, size, extra = "r", "|S|", ""
    if sigma:
        codim, size = "(r-k)", "|S|+m"
        extra = (f", sigma={','.join(map(str, sigma))}, "
                 f"k=sum floor(sigma_i/3)={k}, m=#(sigma_i = 1 mod 3)={m}")
    if not 3 * (r - k) >= g + 1 + len(S) + m:
        raise PreconditionError(
            f"3{codim} >= g+1+{size}", f"r={r}, g={g}, |S|={len(S)}{extra}"
        )
    if (g - 1 + r - k + len(S) + m) % 2 != 0:
        raise PreconditionError(
            f"g-1+{codim}+{size} even", f"g={g}, r={r}, |S|={len(S)}{extra}"
        )


def set_partitions(items: tuple):
    """All partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(tuple(rest)):
        yield [[first]] + [list(b) for b in part]
        for i in range(len(part)):
            new = [list(b) for b in part]
            new[i].append(first)
            yield new


# ---------------------------------------------------------------------------
# Decorated series
# ---------------------------------------------------------------------------


def _accumulate(total: dict, den: int, part: dict, part_den: int) -> int:
    """Add ``part / part_den`` into ``total / den`` in place, both maps of
    integer numerators; returns the new denominator, the lcm of the two."""
    new = lcm(den, part_den)
    if new != den:
        up = new // den
        for key in total:
            total[key] *= up
    up = new // part_den
    get = total.get
    for key, c in part.items():
        total[key] = get(key, 0) + c * up
    return new


def _nonzero(rows: dict) -> dict:
    """``rows`` without zero numerators and empty rows; only a row that
    holds a zero is copied."""
    return {key: row for key, acc in rows.items()
            if (row := acc if acc and 0 not in acc.values()
                else {k: c for k, c in acc.items() if c})}


def _packed_rows(ring: Ring, den: int, terms) -> tuple:
    """``(den, rows)``: the int numerator ``coeff`` over ``den`` at
    ``(exps, decor)`` for each triple of ``terms``, as the rows of a
    :class:`DecoratedSeries` in ``ring`` keyed by ``decor``.

    An exponent below the floor 0 raises ``ValueError``; one at or above
    its truncation order drops the term.  The kept terms are packed in one
    call of ``Ring._packed``."""
    specs = ring.specs
    kept = []
    for exps, decor, coeff in terms:
        if any(e < 0 for e in exps):
            raise ValueError("exponent below ring floor")
        if coeff and all(e < s.trunc_order for e, s in zip(exps, specs)):
            kept.append((exps, decor, coeff))
    keyed = ring._packed([(e, c) for e, _, c in kept])
    rows: dict = {}
    for (_, decor, _), (key, c) in zip(kept, keyed):
        row = rows.setdefault(decor, {})
        row[key] = row.get(key, 0) + c
    return den, _nonzero(rows)


def _product(a: "DecoratedSeries", b: "DecoratedSeries") -> "DecoratedSeries":
    """``a * b``, where a factor that is a multiple of one scales the other
    instead of entering a product."""
    unit = a.ring._unit_key
    for x, y in ((a, b), (b, a)):
        if len(y.rows) == 1:
            row = y.rows.get(_ONE)
            if row and row.keys() == {unit}:
                out = x.scale(row[unit])
                out.den *= y.den
                return out
    return a * b


def _row_pairs(rows1: dict, rows2: dict, combine):
    """``(key, row1, row2)`` for each pair of a row of ``rows1`` and a row
    of ``rows2``, where ``key`` is ``combine`` of their two keys; a pair
    whose keys combine to ``None`` vanishes and is left out."""
    for k1, row1 in rows1.items():
        for k2, row2 in rows2.items():
            key = combine(k1, k2)
            if key is not None:
                yield key, row1, row2


def _rows_product(ring: Ring, rows1: dict, rows2: dict, combine) -> dict:
    """The rows of the truncated product of ``rows1`` and ``rows2``, maps of
    packed keys of ``ring`` to numerators, the product of each pair of rows
    keyed by ``combine`` of their keys (:func:`_row_pairs`).

    A key of ``rows1`` minus the key of exponents 0 plus a key of
    ``rows2`` is the packed key of the summed exponents, and a top bit set
    there marks an exponent that reached its truncation order
    (``Ring._packed``).  This is the loop of ``Ring._mul_into`` inline:
    one call per pair of rows costs more than the pair loop saves."""
    unit, high = ring._unit_key, ring._high
    rows: dict = {}
    for key, row1, row2 in _row_pairs(rows1, rows2, combine):
        acc = rows.get(key)
        for k1, c1 in row1.items():
            k1 -= unit
            for k2, c2 in row2.items():
                k = k1 + k2
                if not k & high:
                    if acc is None:
                        acc = rows[key] = {}
                    acc[k] = acc.get(k, 0) + c1 * c2
    return _nonzero(rows)


# the stored decoration of one at a vertex: no kappa, no blocks
_ONE = ((), ())


class DecoratedSeries:
    """Scalar power series whose coefficients are decorations of one vertex.

    A decoration is the stored form ``(kappa, blocks)`` of a class at one
    vertex of genus ``genus``, the per-vertex normal form used by
    :class:`TautClass`; the graph sum places it at a vertex of a graph, and
    :meth:`extract` on the smooth graph.  The series is ``rows / den``:
    ``rows`` maps each decoration to ``{key: numerator}``, an integer
    numerator per packed key, over the one integer ``den``.  A key packs
    the exponents, in the scalar ring's variable order, as
    ``Ring._packed`` writes them and ``Ring._unpacked`` reads them.  Rows
    hold no zero numerator and no empty row.  Terms enter packed, through
    :meth:`add_terms`; sums, scalings, products and exponentials stay
    packed, and only :meth:`extract` and the test view :attr:`terms` turn
    numerators into ``Fraction`` values.

    The ring must have floor 0 in every variable (``ValueError``
    otherwise): truncated products are then associative, and no product
    falls below a floor, so products and exponentials check no floors.
    """

    __slots__ = ("ring", "genus", "weights", "den", "rows")

    def __init__(self, ring: Ring, genus: int, weights: WeightData,
                 den: int = 1, rows: dict | None = None):
        if ring.laurent:
            raise ValueError(f"decorated series need floor 0: {ring}")
        self.ring = ring
        self.genus = genus
        self.weights = weights
        self.den = den
        self.rows = rows if rows is not None else {}

    @classmethod
    def one(cls, ring, genus, weights) -> "DecoratedSeries":
        """One: numerator 1 at the key of exponents 0."""
        return cls(ring, genus, weights, 1, {_ONE: {ring._unit_key: 1}})

    @property
    def terms(self) -> dict:
        """``{(exponents, decoration): Fraction}``, unpacked on each read."""
        unpacked, den = self.ring._unpacked, self.den
        return {(exps, decor): Fraction(c, den)
                for decor, row in self.rows.items()
                for exps, c in unpacked(row, "terms").items()}

    def add_terms(self, terms) -> None:
        """Add ``coeff`` (an int or a ``Fraction``) at ``(exps, decor)`` for
        each triple of ``terms``, as numerators over the lcm of the
        denominators."""
        terms = [(exps, decor, Fraction(c)) for exps, decor, c in terms]
        den = lcm(*(c.denominator for _, _, c in terms))
        self._add_rows(*_packed_rows(self.ring, den, [
            (exps, decor, c.numerator * (den // c.denominator))
            for exps, decor, c in terms]))

    def _add_rows(self, den: int, rows: dict) -> None:
        """Add the rows ``rows`` over ``den`` (:func:`_packed_rows`)."""
        total = self + DecoratedSeries(self.ring, self.genus, self.weights,
                                       den, rows)
        self.den, self.rows = total.den, total.rows

    def add_term(self, exps: tuple, decor: tuple, coeff) -> None:
        self.add_terms([(exps, decor, coeff)])

    def __add__(self, other: "DecoratedSeries") -> "DecoratedSeries":
        den = lcm(self.den, other.den)
        rows: dict = {}
        for ds in (self, other):
            up = den // ds.den
            for decor, row in ds.rows.items():
                acc = rows.setdefault(decor, {})
                for key, c in row.items():
                    acc[key] = acc.get(key, 0) + c * up
        return DecoratedSeries(self.ring, self.genus, self.weights, den,
                               _nonzero(rows))

    def scale(self, factor) -> "DecoratedSeries":
        """``factor`` (an int or a ``Fraction``) times the series."""
        up = factor.numerator
        return DecoratedSeries(
            self.ring, self.genus, self.weights, self.den * factor.denominator,
            {decor: {key: c * up for key, c in row.items()}
             for decor, row in self.rows.items()} if up else {})

    def __mul__(self, other: "DecoratedSeries") -> "DecoratedSeries":
        """The truncated product, each pair of decorations multiplied once
        by ``classes._vertex_product`` (:func:`_rows_product`)."""
        return DecoratedSeries(
            self.ring, self.genus, self.weights, self.den * other.den,
            _rows_product(self.ring, self.rows, other.rows,
                          partial(_vertex_product, weights=self.weights)))

    def exp(self) -> "DecoratedSeries":
        """Exponential, the sum of ``self^k / k!``.  Every term needs a
        positive scalar exponent (``ValueError`` otherwise, at the key of
        exponents 0): each factor then raises the scalar degree, so the
        powers reach the truncation orders and the sum is finite."""
        unit = self.ring._unit_key
        if any(unit in row for row in self.rows.values()):
            raise ValueError("exponential of a term of scalar degree zero")
        total = DecoratedSeries.one(self.ring, self.genus, self.weights)
        power, k = self, 1
        while power.rows:
            total = total + power.scale(Fraction(1, factorial(k)))
            power = power * self
            k += 1
        return total

    def extract(self, **powers: int) -> TautClass:
        """The class on the smooth graph at the exponents ``powers`` (0
        for a variable not named); zero outside the ring's window."""
        ring = self.ring
        exps = ring.exponents(**powers)
        acc = {}
        if all(0 <= e < s.trunc_order for e, s in zip(exps, ring.specs)):
            [(key, _)] = ring._packed([(exps, 1)])
            graph = smooth_graph(self.genus, self.weights.n)
            shape = graph.genera, graph.legs, graph.edges  # canonical as is
            acc = {shape + ((vd,),): row.get(key, 0)
                   for vd, row in self.rows.items()}
        return _from_numerators(self.genus, self.weights, acc, self.den)


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------


def _add_bracket(series: Series, ds: DecoratedSeries, var: str,
                 factor) -> None:
    """Add each term ``c m`` of ``series`` into ``ds`` as ``c`` times the
    raw factor ``factor(k, exps)``: the series' numerators over its
    ``den``, packed in one call of :func:`_packed_rows`.  ``k`` is the
    exponent of ``var`` in ``m`` (0 if ``series`` lacks it) and
    ``exps`` the list of ``m``'s exponents in ``ds.ring``, whose variables
    are matched by name; ``factor`` may raise, change ``exps``, or return
    ``None`` to skip the term."""
    ring = ds.ring
    slots = [ring.index[s.name] for s in series.ring.specs]
    at = series.ring.index.get(var)
    terms = []
    for src, c in series.nums.items():
        exps = [0] * ring.nvars
        for i, e in zip(slots, src):
            exps[i] = e
        raw = factor(0 if at is None else src[at], exps)
        single = raw and _factor_decor(raw, ds.genus, ds.weights)
        if single:
            terms.append((tuple(exps), single[1], c * single[0]))
    ds._add_rows(*_packed_rows(ring, series.den, terms))


def bracket_kappa(series: Series, ds: DecoratedSeries,
                  var: str = "t") -> None:
    """Add ``{series}_kappa`` into ``ds``.

    Scalar variables of ``series`` other than ``var`` are carried over by
    name; ``var``'s exponent becomes the kappa index and stays in the
    scalar grading.  A kappa with negative index vanishes.
    """
    _add_bracket(series, ds, var,
                 lambda k, exps: ("kappa", k) if k >= 0 else None)


def _add_diagonal(series: Series, ds: DecoratedSeries, name: str,
                  block: tuple, shift: dict) -> None:
    """Add ``{series}_{D_block}`` into ``ds``, each term first multiplied
    by ``prod_i p_i^shift[i]``."""
    size = len(block)

    def factor(k, exps):
        if k < size - 1:
            raise ValueError(
                f"{name} bracket needs t-order >= {size - 1}, got t^{k}")
        for i, e in shift.items():
            exps[ds.ring.index[f"p{i}"]] += e
        return "Dsa", block, k

    _add_bracket(series, ds, "t", factor)


def bracket_D(series: Series, ds: DecoratedSeries, block: tuple) -> None:
    """Add ``{series}_{D_block}`` into ``ds``."""
    _add_diagonal(series, ds, "D", tuple(block), {})


def bracket_Delta(series: Series, ds: DecoratedSeries, p_exponents: dict,
                  coeff=1) -> None:
    """Add ``coeff * {series * p^alpha}_Delta`` into ``ds``.

    ``p_exponents`` maps marking numbers to their exponent ``alpha_i``.
    With ``alpha = 0`` this is minus the kappa bracket; otherwise the
    generator is ``D_{supp(alpha), k}`` and the scalar monomial (including
    the ``p`` powers) is retained in full.
    """
    coeff = Fraction(coeff)
    alpha = {i: e for i, e in p_exponents.items() if e}
    if not alpha:
        bracket_kappa(series * -coeff, ds)
    else:
        _add_diagonal(series * coeff, ds, "Delta", tuple(sorted(alpha)),
                      alpha)


def _kappa_exp(series: Series, ring: Ring, genus: int, weights: WeightData,
               var: str = "t") -> DecoratedSeries:
    """``exp(-{series}_kappa)`` at a vertex of genus ``genus``."""
    ds = DecoratedSeries(ring, genus, weights)
    bracket_kappa(-series, ds, var)
    return ds.exp()


# ---------------------------------------------------------------------------
# Open (smooth-space) relations
# ---------------------------------------------------------------------------


def _sq_ring(r: int, d: int, a: tuple) -> Ring:
    specs = [VarSpec("t", 0, r + 1), VarSpec("x", 0, d + 1)]
    for i, ai in enumerate(a, start=1):
        specs.append(VarSpec(f"p{i}", 0, ai + 1))
    return Ring(specs)


def _boundary_vertex_factor(ring: Ring, genus: int, weights: WeightData,
                            markings: tuple, zeta: int, gamma: Series,
                            a: dict, half_sign: int,
                            pd_sign: int) -> DecoratedSeries:
    """The stable-quotient vertex factor ``zeta^(g+1) exp(E_v)`` at a
    vertex of genus ``g`` with the sorted ``markings``.

    The exponent is ``E_v = half_sign * (zeta/2) p_(v) + sum_i
    (pd_sign)^i / i! * {p_(v)^i D^i gamma(zeta t, x)}_Delta``, where
    ``p_(v)`` runs over the vertex's markings and ``D = t x d/dx``.
    """
    ds = DecoratedSeries(ring, genus, weights)
    for i in markings:
        ds.add_term(ring.exponents(**{f"p{i}": 1}), _ONE,
                    Fraction(half_sign * zeta, 2))
    f = gamma.substitute({"t": zeta})
    bracket_Delta(f, ds, {})
    for i_order in range(1, sum(a[i] for i in markings) + 1):
        f = f.x_d_dx("x").mul_var("t")
        # the exponent vectors alpha <= a of sum i_order, in lexicographic
        # order; (pd_sign p D)^i / i! expanded by the multinomial theorem
        for es in product(*(range(a[i] + 1) for i in markings)):
            if sum(es) == i_order:
                alpha = {i: e for i, e in zip(markings, es) if e}
                coeff = Fraction(pd_sign ** i_order,
                                 prod(factorial(e) for e in alpha.values()))
                bracket_Delta(f, ds, alpha, coeff=coeff)
    return ds.exp().scale(zeta ** (genus + 1))


def _check_sq_input(g: int, weights: WeightData, r: int, d: int,
                    a: tuple) -> None:
    if g < 0:
        raise PreconditionError("genus >= 0", f"genus={g}")
    if r < 0:
        raise PreconditionError("r >= 0", f"r={r}")
    if d < 0:
        raise PreconditionError("d >= 0", f"d={d}")
    if len(a) != weights.n:
        raise PreconditionError("len(a) == n",
                                f"len(a)={len(a)}, n={weights.n}")
    if any(ai < 0 for ai in a):
        raise PreconditionError("a_i >= 0", f"a={','.join(map(str, a))}")


def open_sq_relation(g: int, weights: WeightData, r: int, d: int,
                     a: tuple = (), half_sign: int = -1, pd_sign: int = -1,
                     enforce: bool = True) -> TautClass:
    """Stable-quotient relation on the smooth space.

    Expands ``sum_zeta zeta^(g+1) exp(half_sign * zeta p / 2 +
    {exp(pd_sign * p D) gamma(zeta t, x)}_Delta)`` and extracts
    ``[t^r x^d p^a]``: the smooth-graph term of the boundary construction,
    on the weights as given.  The default signs follow the proposition
    display, not the defaults of :func:`boundary_sq_relation`; with the
    same signs, this is that relation's part without edges.
    """
    _check_sq_input(g, weights, r, d, a)
    if enforce:
        if not r > g - 1 - 2 * d + sum(a):
            raise PreconditionError(
                "r > g-1-2d+|a|", f"r={r}, g={g}, d={d}, |a|={sum(a)}"
            )
        check_stable(g, weights)
    return _sq_graph_sum(g, weights, [smooth_graph(g, weights.n)], r, d, a,
                         half_sign, pd_sign)


def _partition_sum(ring: Ring, genus: int, weights: WeightData, S: tuple,
                   order: int, zeta: int) -> DecoratedSeries:
    """``sum_P prod_(b in P) {C_|b|(zeta t)}_(D_b)`` at a vertex of genus
    ``genus``, over the set partitions ``P`` of a nonempty ``S``.  A block whose bracket is
    a scalar (at t-order 0, a singleton's is -1) scales the product
    instead of entering it (:func:`_product`).  Every nonempty subset of
    ``S`` is a block of some partition, so each one's bracket is built once
    up front, from one series per block size; ``S`` is sorted."""
    brackets = {}
    for size in range(1, len(S) + 1):
        series = series_C(size, order).substitute({"t": zeta})
        for block in combinations(S, size):
            bds = brackets[block] = DecoratedSeries(ring, genus, weights)
            bracket_D(series, bds, block)
    part_sum = DecoratedSeries(ring, genus, weights)
    for partition in set_partitions(S):
        part_sum = part_sum + reduce(
            _product, [brackets[tuple(sorted(block))] for block in partition])
    return part_sum


def _fz_vertex_factor(ring: Ring, genus: int, weights: WeightData,
                      markings: tuple, zeta: int,
                      S: tuple) -> DecoratedSeries:
    """The FZ-form vertex factor ``zeta^(g+1+|S_v|) exp(-{log A(zeta
    t)}_kappa) sum_P prod {C_|b|(zeta t)}_(D_b)`` at a vertex of genus
    ``g`` with the ``markings``, with ``P`` running over the set partitions
    of the markings ``S_v`` of ``S`` at the vertex, expanded up to the top
    t-degree of ``ring``.

    Each p-degree-i diagonal term carries ``zeta^i``, so a block of size b
    contributes ``zeta^b`` beyond its t-degree: hence ``zeta^|S_v|``.
    """
    order = ring.spec("t").trunc_order - 1
    s_v = tuple(sorted(set(markings) & set(S)))
    ds = _kappa_exp(log_hyper_A(order).substitute({"t": zeta}), ring, genus,
                    weights)
    if s_v:
        ds = _product(ds, _partition_sum(ring, genus, weights, s_v, order,
                                         zeta))
    return ds.scale(zeta ** (genus + 1 + len(s_v)))


def open_fz_relation(g: int, weights: WeightData, r: int, S: tuple = (),
                     enforce: bool = True) -> TautClass:
    """FZ-form relation ``[exp(-{log A}_kappa) sum_P prod {C_|b|}_{D_b}]_{t^r}``:
    the smooth-graph term of :func:`fz_relation` at colour ``zeta = 1``."""
    if g < 0:
        raise PreconditionError("genus >= 0", f"genus={g}")
    S = tuple(sorted(S))
    _check_subset(S, weights.n)
    if enforce:
        _check_fz_range(g, r, S)
        check_stable(g, weights)
    ring = Ring([VarSpec("t", 0, r + 1)])
    return _fz_vertex_factor(ring, g, weights, tuple(range(1, weights.n + 1)),
                             1, S).extract(t=r)


# ---------------------------------------------------------------------------
# Boundary relations: graph-and-coloring sums
# ---------------------------------------------------------------------------


def _edge_kernel(ring: Ring, series: Series) -> tuple:
    """``(den, rows)``: an edge series in (t[, x], p1, p2) packed in
    ``ring``, its rows keyed by ``(p1 power, p2 power)``, the psi powers at
    the edge's sides 0 and 1."""
    names = [s.name for s in series.ring.specs]
    terms = []
    for src, c in series.nums.items():
        exps = [0] * ring.nvars
        powers = {"p1": 0, "p2": 0}
        for name, e in zip(names, src):
            if name in powers:
                powers[name] = e
            else:
                exps[ring.index[name]] = e
        terms.append((tuple(exps), (powers["p1"], powers["p2"]), c))
    return _packed_rows(ring, series.den, terms)


def _label_decor(graph: StableGraph, slots: list, labels: tuple) -> tuple:
    """The stored decoration of ``labels``, one per slot ``(v, e)`` of
    ``slots``: a vertex slot's (``e`` is ``None``) is a decoration at
    ``v``, an edge slot's the psi powers at the sides of edge ``e``.  Each
    vertex gets the kappa of its own decoration, and its blocks sorted
    together with the block ``((("h", e, s),), p)`` of each nonzero power
    ``p`` at a side ``s`` on it."""
    kappas = [()] * graph.n_vertices
    blocks = [[] for _ in range(graph.n_vertices)]
    for (v, e), label in zip(slots, labels):
        if e is None:
            kappas[v], vd_blocks = label
            blocks[v].extend(vd_blocks)
        else:
            for side, p in enumerate(label):
                if p:
                    blocks[graph.edges[e][side]].append(
                        ((("h", e, side),), p))
    return tuple((kappa, tuple(sorted(b))) for kappa, b in zip(kappas, blocks))


def _graph_sum(g: int, weights: WeightData, graphs, r: int, ring_of,
               vertex_factor, edge_series) -> TautClass:
    """``sum_G sum_zeta prod_v (vertex factor) prod_e (edge kernel) / |Aut G|``.

    ``G`` runs over ``graphs`` and ``zeta`` over the ±1 colourings of its
    vertices.  With ``order = r - #edges`` the product is expanded in
    ``ring_of(order)`` and read off at the ring's top corner, the highest
    retained exponent of every variable.
    ``vertex_factor(ring, genus, markings, zeta)`` is the one-vertex
    decorated factor (:class:`DecoratedSeries`) of a vertex of that genus,
    sorted markings and colour, and ``edge_series(z1, z2, order)`` the
    kernel of an edge whose ends have colours ``z1`` and ``z2``, in
    (t[, x], p1, p2).

    Each factor is built once per local type per relation, its rows keyed
    by labels that name no graph.  A vertex factor depends only on
    ``(order, g(v), legs at v, zeta)``, exactly the arguments it is built
    from the first time, each row labelled by its decoration.
    An edge kernel depends only on ``(order, z1, z2)``: it is packed once
    by :func:`_edge_kernel`, each row labelled by its psi powers at the
    edge's two sides.

    The factors are taken level by level: level ``v`` holds vertex ``v``'s
    factor and the edges whose later endpoint is ``v``, so it depends only
    on the colours of vertices ``0..v``.  A stack keeps the prefix
    products, each row keyed by the tuple of its factors' labels in slot
    order, so a product only concatenates tuples (:func:`_rows_product`);
    walking the colourings in the order of ``enumerate_colorings``, a
    colouring recomputes the stack only from the level of the first vertex
    whose colour changed.  The last factor is multiplied into the top
    corner only.  Every ring here has floor 0, as :class:`DecoratedSeries`
    enforces, so truncated products are associative and commutative; the
    order of the factors does not change the result.

    No two factors of a graph decorate the same point: a vertex factor
    holds kappas and blocks of the markings at its vertex, an edge kernel
    single blocks of its own half-edges.  So no blocks merge, no product
    of decorations vanishes, and distinct label tuples stand for distinct
    decorations.  The target numerators of all colourings are summed by
    label tuple, and each nonzero sum becomes its decoration once
    (:func:`_label_decor`), gets one ``Fraction`` and is relabelled to its
    canonical form once.
    """
    total = TautClass(g, weights)
    rings: dict = {}  # order: (ring, corner)
    # local type: (den, rows), rows keyed by the 1-tuple of their label; a
    # vertex type has four fields and an edge type three.  Every graph
    # shares these rows, so they are read-only: products build new rows.
    local: dict = {}
    for graph in graphs:
        order = r - graph.n_edges
        if order not in rings:
            # the corner's key, packed as add_terms packs every key, plus
            # the key of exponents 0: a prefix key k1 meets its partner
            # corner - k1, as a product pairs k1 - unit with k2
            ring = ring_of(order)
            [(target, _)] = ring._packed(
                [(tuple(s.trunc_order - 1 for s in ring.specs), 1)])
            rings[order] = ring, target + ring._unit_key
        ring, corner = rings[order]
        slots = []  # (vertex, edge or None) in level order
        starts = []  # starts[v]: the first slot of level v
        for v in range(graph.n_vertices):
            starts.append(len(slots))
            slots.append((v, None))
            slots.extend((v, e) for e, ends in enumerate(graph.edges)
                         if max(ends) == v)

        def factor(slot, coloring):
            v, e = slot
            if e is None:
                kind = (order, graph.genera[v], tuple(graph.legs_at(v)),
                        coloring[v])
                if kind not in local:
                    ds = vertex_factor(ring, *kind[1:])
                    local[kind] = ds.den, {(vd,): row for vd, row
                                           in ds.rows.items()}
            else:
                va, vb = graph.edges[e]
                kind = (order, coloring[va], coloring[vb])
                if kind not in local:
                    den, rows = _edge_kernel(
                        ring, edge_series(kind[1], kind[2], order))
                    local[kind] = den, {(p,): row for p, row in rows.items()}
            return local[kind]

        stack = [(1, {(): {ring._unit_key: 1}})]
        last = len(slots) - 1
        sums: dict = {}
        den = 1
        previous = None
        for coloring in enumerate_colorings(graph):
            changed = 0 if previous is None else next(
                v for v, (a, b) in enumerate(zip(previous, coloring))
                if a != b)
            previous = coloring
            del stack[starts[changed] + 1:]
            for slot in slots[starts[changed]:last]:
                (den1, rows1), (den2, rows2) = stack[-1], factor(slot,
                                                                 coloring)
                stack.append((den1 * den2,
                              _rows_product(ring, rows1, rows2, add)))
            # each term of the prefix looks up its one partner in the last
            # factor, ``corner`` minus its own key; on a floor-0 ring no
            # field of that key borrows from the next
            (den1, rows1), (den2, rows2) = stack[-1], factor(slots[last],
                                                             coloring)
            part = {}
            for labels, row1, row2 in _row_pairs(rows1, rows2, add):
                get = row2.get
                s = 0
                for k1, c1 in row1.items():
                    c2 = get(corner - k1)
                    if c2:
                        s += c1 * c2
                if s:
                    part[labels] = s
            den = _accumulate(sums, den, part, den1 * den2)
        den *= graph.automorphism_order()
        for labels, c in sums.items():
            if c:
                total.add_term(graph, _label_decor(graph, slots, labels),
                               Fraction(c, den))
    return total


def fz_relation(g: int, weights: WeightData, r: int,
                S: tuple = ()) -> TautClass:
    """FZ-type relation on the weighted space: graph-and-coloring sum.

    Vertex factor :func:`_fz_vertex_factor`, per-edge factor the edge
    series for the endpoint colors, coefficient ``1/|Aut|``, extracted at
    ``t^(r - #edges)``.  Graphs with more than ``r`` edges cannot
    contribute (the edge series has no poles in t).
    """
    S = tuple(sorted(S))
    _check_subset(S, weights.n)
    _check_fz_range(g, r, S)
    check_stable(g, weights)
    return _graph_sum(
        g, weights, enumerate_graphs(g, weights, r), r,
        lambda order: Ring([VarSpec("t", 0, order + 1)]),
        lambda ring, genus, markings, zeta: _fz_vertex_factor(
            ring, genus, weights, markings, zeta, S),
        delta_edge,
    )


def _sq_graph_sum(g: int, weights: WeightData, graphs, r: int, d: int,
                  a: tuple, half_sign: int, pd_sign: int) -> TautClass:
    """The stable-quotient graph sum: vertex factor
    :func:`_boundary_vertex_factor`, edge factor the two-variable edge
    series, extraction ``[t^(r-#edges) x^d p^a]``."""
    gamma = phi_family(r, d)["gamma"]
    a_map = {i: a[i - 1] for i in range(1, weights.n + 1)}
    return _graph_sum(
        g, weights, graphs, r,
        lambda order: _sq_ring(order, d, a),
        lambda ring, genus, markings, zeta: _boundary_vertex_factor(
            ring, genus, weights, markings, zeta, gamma, a_map, half_sign,
            pd_sign),
        lambda z1, z2, order: edge_series_xy(z1, z2, order, d, kind=4),
    )


def boundary_sq_relation(g: int, weights: WeightData, r: int, d: int,
                         a: tuple = (), half_sign: int = 1,
                         pd_sign: int = 1) -> TautClass:
    """Stable-quotient relation as a sum over stable graphs and colorings.

    Vertex factor ``zeta^(g(v)+1) exp(half_sign zeta p_(v)/2 +
    {exp(pd_sign p_(v) D) gamma(zeta t, x)}_Delta)``; edge factor the
    two-variable edge series; extraction ``[t^(r-#edges) x^d p^a]``.
    """
    _check_sq_input(g, weights, r, d, a)
    a_total = sum(a)
    if not r > g - 2 * d - 1 + a_total:
        raise PreconditionError(
            "r-|E| > g-2d-1+|a|", f"r={r}, g={g}, d={d}, |a|={a_total}"
        )
    check_stable(g, weights)
    cap = min(r, r - (g - 2 * d - 1 + a_total) - 1)
    return _sq_graph_sum(g, weights, enumerate_graphs(g, weights, cap), r, d,
                         a, half_sign, pd_sign)


def extended_fz_relation(g: int, weights: WeightData, r: int,
                         sigma: tuple = (), S: tuple = ()) -> TautClass:
    """Relations from adding weight-one points, multiplying by psi powers
    and pushing forward.

    For a partition ``sigma`` with no part congruent to 2 mod 3, builds
    the relation of codimension ``r - sum(floor(sigma_i/3))`` on the space
    with ``len(sigma)`` extra weight-one points, multiplies by
    ``prod psi_{n+i}^(floor(sigma_i/3)+1)`` and forgets the new points.
    The result is homogeneous of codimension ``r``.  The range of that
    first relation is checked up front, in terms of ``r``, ``S`` and
    ``sigma`` (:func:`_check_fz_range`).
    """
    parts = ",".join(map(str, sigma))
    if any(part < 1 for part in sigma):
        raise PreconditionError("sigma parts >= 1", f"sigma={parts}")
    if any(part % 3 == 2 for part in sigma):
        raise PreconditionError("no sigma part congruent to 2 mod 3",
                                f"sigma={parts}")
    n = weights.n
    _check_subset(S, n)
    ell = len(sigma)
    if ell == 0:
        return fz_relation(g, weights, r, S)
    check_stable(g, weights)
    _check_fz_range(g, r, S, sigma)
    inner_w = WeightData(weights.weights + tuple([Fraction(1)] * ell))
    inner_r = r - sum(part // 3 for part in sigma)
    inner_s = tuple(sorted(
        set(S) | {n + i for i, part in enumerate(sigma, start=1)
                  if part % 3 == 1}
    ))
    rel = fz_relation(g, inner_w, inner_r, inner_s)
    for i, part in enumerate(sigma, start=1):
        rel = multiply_generator(rel, ("psi", n + i, part // 3 + 1))
    return pushforward_forget(rel, ell)


# ---------------------------------------------------------------------------
# The evaluation chain
# ---------------------------------------------------------------------------


def verify_chain(g: int, r: int) -> list:
    """Checks tying the stable-quotient form to the FZ form.

    Returns ``[(name, ok, detail), ...]`` covering: (i) the coordinate
    change ``u = t/sqrt(1+4x), y = -x/(1+4x)`` turns the relation series
    into ``(1+4y)^e exp(-{c}_kappa)`` with ``e = (r+2d-1-g)/2``; (ii) the
    transformed exponent is triangular (y-degree <= u-degree); (iii) the
    extremal (diagonal) part is the FZ-form relation.
    """
    if g < 0:
        raise PreconditionError("genus >= 0", f"genus={g}")
    if r < 1:
        raise PreconditionError("codim >= 1", f"codim={r}")
    w0 = WeightData(())
    check_stable(g, w0)
    report = []

    # side 1: exp(-{gamma}_kappa) in the (t, x) chart
    fam = phi_family(r, r)
    ring_tx = Ring([VarSpec("t", 0, r + 1), VarSpec("x", 0, r + 1)])
    lhs = _kappa_exp(fam["gamma"], ring_tx, g, w0)

    # side 2: exp(-{c}_kappa) in the (u, y) chart with the (1+4y)^e factor
    uy = uy_expansion(1, r, r)
    rhs = _kappa_exp(uy["c_series"], uy_ring(r, r), g, w0, var="u")

    y_ring = Ring([VarSpec("y", 0, r + 1)])

    all_i = True
    detail_i = []
    for d in range(r + 1):
        left = lhs.extract(t=r, x=d)
        e = Fraction(r + 2 * d - 1 - g, 2)
        pref = (y_ring.one() + y_ring.var("y") * 4).pow_fraction(e)
        right = TautClass(g, w0)
        for (m,), coeff in pref.terms():
            if m <= d:
                right = right + rhs.extract(u=r, y=d - m).scale(
                    coeff * (-1) ** d)
        ok = left == right
        all_i = all_i and ok
        if not ok:
            diff = left - right
            detail_i.append(f"d={d}: mismatch {sorted(diff.terms.items())[:2]}")
    report.append((
        "coordinate-change identity",
        all_i,
        "; ".join(detail_i) if detail_i else f"d=0..{r} at t^{r}",
    ))

    tri = all(j <= k for k, j in uy["c_series"].nums)
    report.append(("triangularity of the transformed exponent", tri, ""))

    fz = open_fz_relation(g, w0, r, enforce=False)
    report.append((
        "extremal part equals the FZ form",
        rhs.extract(u=r, y=r) == fz,
        f"{len(fz.terms)} generators",
    ))
    return report


def pushforward_oracle(d_max: int = 3, t_order: int = 4,
                       g: int = 2) -> list:
    """Compare the push-forward of the point-bundle Chern classes against
    the closed exponential form.

    For each number of forgotten points ``d`` and sign ``zeta``, checks

        zeta^r eps_*(c_{r+d}(-B_d)) / d! = [exp(-{log Phi(zeta t)}_kappa)]
                                           at t^r x^d

    for all r up to ``t_order``.  The push-forward is linear and does not
    depend on ``zeta``, so ``eps_*(c_{r+d}(-B_d))`` is computed once per
    ``(d, r)`` and then scaled by ``1/d!``, on its few kappa terms rather
    than on the decorations upstairs; only its sign ``zeta^r`` is applied
    per ``zeta``, and the closed form is built for each ``zeta``.  Returns
    ``[(name, ok, detail), ...]``, all rows for ``zeta = +1`` first.
    """
    if d_max < 1:
        raise PreconditionError("d >= 1", f"d={d_max}")
    w0 = WeightData(())
    fam = phi_family(t_order, d_max)
    pushed = {}
    for d in range(1, d_max + 1):
        w = WeightData(tuple(Fraction(1, 1000) for _ in range(d)))
        cs = chern_neg_Bd(d, t_order + d, g, w)
        for r in range(t_order + 1):
            pushed[d, r] = pushforward_forget_small(cs[r + d], d).scale(
                Fraction(1, factorial(d)))
    rows = []
    ring = Ring([VarSpec("t", 0, t_order + 1), VarSpec("x", 0, d_max + 1)])
    for zeta in (1, -1):
        closed = _kappa_exp(fam["logPhi"].substitute({"t": zeta}), ring, g,
                            w0)
        for d in range(1, d_max + 1):
            ok = True
            detail = ""
            for r in range(t_order + 1):
                got = pushed[d, r] if zeta ** r == 1 else pushed[d, r].scale(-1)
                if got != closed.extract(t=r, x=d):
                    ok = False
                    detail = f"mismatch at t^{r} x^{d}"
                    break
            rows.append((f"push-forward closed form d={d} zeta={zeta:+d}",
                         ok, detail or f"r <= {t_order}"))
    return rows
