"""Relation families built from the series catalog and the strata algebra.

The constructions here expand formal exponentials whose coefficients are
classes on a stable graph.  A bracket operator turns a scalar series into
such a decorated series:

* the kappa bracket sends ``t^k`` to ``kappa_k t^k`` at a chosen vertex
  (``k = 0`` gives the scalar ``2 g(v) - 2``, ``k < 0`` gives zero);
* the D bracket sends ``t^k`` to the diagonal generator ``D_{S, k} t^k``;
* the Delta bracket acts on series in ``t``, ``x`` and marking variables
  ``p_i``: a monomial without ``p``'s goes to minus its kappa bracket,
  and a monomial ``t^k x^m p^alpha`` goes to ``D_{supp(alpha), k}`` times
  the full scalar monomial.

Relations are extracted as ``TautClass`` values at a fixed multi-degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, lcm, prod
from operator import mul

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
    _decor_product,
    _factor_decor,
    _hpsi_decor,
    chern_neg_Bd,
    multiply_generator,
    normal_form,
    pushforward_forget_small,
    pushforward_forget_weight1,
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


def _check_fz_range(g: int, r: int, S: tuple) -> None:
    """The size and parity conditions of the FZ-form relations."""
    if not 3 * r >= g + 1 + len(S):
        raise PreconditionError(
            "3r >= g+1+|S|", f"r={r}, g={g}, |S|={len(S)}"
        )
    if (g - 1 + r + len(S)) % 2 != 0:
        raise PreconditionError(
            "g-1+r+|S| even", f"g={g}, r={r}, |S|={len(S)}"
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


def _packed(ring: Ring, terms: dict, bias: int) -> tuple:
    """``(d, {decoration: {packed exponents: numerator}})`` for the terms of
    a decorated series, packed by ``Ring._packed`` with ``bias``; ``d`` is
    the lcm of their denominators."""
    d, keyed = ring._packed([(exps, c) for (exps, _), c in terms.items()],
                            bias)
    rows: dict = {}
    for (_, decor), (key, c) in zip(terms, keyed):
        rows.setdefault(decor, {})[key] = c
    return d, rows


def _packed_product(weights: WeightData, a: tuple, b: tuple,
                    high: int) -> tuple:
    """The product of packed operands ``a`` (left bias) and ``b`` (right
    bias), each pair of decorations multiplied once.  Its keys carry the
    left and the right bias; a key with a top bit set reached a truncation
    order and is dropped.  Rows may hold zero numerators."""
    da, ra = a
    db, rb = b
    out: dict = {}
    for d1, row1 in ra.items():
        for d2, row2 in rb.items():
            decor = _decor_product(weights, d1, d2)
            if decor is None:
                continue
            acc = out.get(decor)
            if acc is None:
                acc = out[decor] = {}
            get = acc.get
            for k1, c1 in row1.items():
                for k2, c2 in row2.items():
                    k = k1 + k2
                    if not k & high:
                        acc[k] = get(k, 0) + c1 * c2
    return da * db, out


def _rebiased(product: tuple, right: int) -> tuple:
    """A product of :func:`_packed_product` as a left operand: the right
    bias taken off every key, zero numerators and empty rows dropped."""
    den, rows = product
    out = {}
    for decor, row in rows.items():
        row = {k - right: c for k, c in row.items() if c}
        if row:
            out[decor] = row
    return den, out


def _target_product(weights: WeightData, a: tuple, b: tuple,
                    target: int) -> tuple:
    """``(d, {decoration: numerator})``: the coefficients at the single
    packed key ``target`` (left plus right bias) of the product of ``a``
    (left bias) and ``b`` (right bias).  Each term of ``a`` looks up its
    partner in ``b``: a key of ``a`` beyond ``target`` in some variable
    leaves a field below the right bias or wrapped above it, which no
    key of ``b`` holds."""
    da, ra = a
    db, rb = b
    out: dict = {}
    for d2, row2 in rb.items():
        get = row2.get
        for d1, row1 in ra.items():
            decor = _decor_product(weights, d1, d2)
            if decor is None:
                continue
            s = 0
            for k1, c1 in row1.items():
                c2 = get(target - k1)
                if c2:
                    s += c1 * c2
            if s:
                out[decor] = out.get(decor, 0) + s
    return da * db, out


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


class DecoratedSeries:
    """Scalar power series whose coefficients are vertex decorations.

    Terms are keyed by ``(exponents, decoration)`` where ``exponents``
    follows the scalar ring's variable order and ``decoration`` is the
    per-vertex normal form used by :class:`TautClass`.  Products and
    exponentials run on the packed form of :func:`_packed`: integer
    numerators over one denominator, exponents packed by ``Ring._packed``,
    multiplied by :func:`_packed_product`, the kernel that
    :func:`_graph_sum` also runs on.  Only the result is unpacked, by
    ``Ring._unpacked``, one ``Fraction`` per term.

    The ring must have floor 0 in every variable (``ValueError``
    otherwise): truncated products are then associative, and no product
    falls below a floor, so products and exponentials check no floors.
    """

    __slots__ = ("ring", "graph", "weights", "terms")

    def __init__(self, ring: Ring, graph: StableGraph, weights: WeightData,
                 terms: dict | None = None):
        if ring.laurent:
            raise ValueError(f"decorated series need floor 0: {ring}")
        self.ring = ring
        self.graph = graph
        self.weights = weights
        self.terms = terms if terms is not None else {}

    def _trivial_decor(self) -> tuple:
        return tuple(((), ()) for _ in range(self.graph.n_vertices))

    @classmethod
    def one(cls, ring, graph, weights) -> "DecoratedSeries":
        ds = cls(ring, graph, weights)
        exps = tuple(0 for _ in ring.specs)
        ds.terms[(exps, ds._trivial_decor())] = Fraction(1)
        return ds

    def add_term(self, exps: tuple, decor: tuple, coeff) -> None:
        coeff = Fraction(coeff)
        if coeff == 0:
            return
        for e, spec in zip(exps, self.ring.specs):
            if e < spec.min_exponent:
                raise ValueError("exponent below ring floor")
            if e >= spec.trunc_order:
                return
        key = (exps, decor)
        new = self.terms.get(key, Fraction(0)) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def add_factor_term(self, exps: tuple, vertex: int, factor, coeff) -> None:
        """Add ``coeff`` times one raw factor ``factor`` at ``vertex``."""
        single = _factor_decor(factor, self.graph.genera[vertex], self.weights)
        if single is not None:
            decor = self._trivial_decor()
            self.add_term(exps, decor[:vertex] + (single[1],)
                          + decor[vertex + 1:], coeff * single[0])

    def __add__(self, other: "DecoratedSeries") -> "DecoratedSeries":
        out = DecoratedSeries(self.ring, self.graph, self.weights,
                              dict(self.terms))
        for key, c in other.terms.items():
            new = out.terms.get(key, Fraction(0)) + c
            if new == 0:
                out.terms.pop(key, None)
            else:
                out.terms[key] = new
        return out

    def scale(self, factor) -> "DecoratedSeries":
        factor = Fraction(factor)
        out = DecoratedSeries(self.ring, self.graph, self.weights)
        if factor:
            out.terms = {k: c * factor for k, c in self.terms.items()}
        return out

    def _unpacked(self, den: int, rows: dict) -> "DecoratedSeries":
        """The series of packed rows whose keys carry the left and the right
        bias, one ``Fraction`` per nonzero numerator."""
        out = DecoratedSeries(self.ring, self.graph, self.weights)
        terms = out.terms
        unpacked = self.ring._unpacked
        for decor, row in rows.items():
            for exps, c in unpacked(row, den, "product").items():
                terms[exps, decor] = c
        return out

    def __mul__(self, other: "DecoratedSeries") -> "DecoratedSeries":
        """Pack both operands, multiply with :func:`_packed_product`,
        unpack."""
        ring = self.ring
        left, right, high = ring._product_layout()
        return self._unpacked(*_packed_product(
            self.weights, _packed(ring, self.terms, left),
            _packed(ring, other.terms, right), high))

    def exp(self) -> "DecoratedSeries":
        """Exponential; every term must have positive total degree.

        The base is packed once; each power stays packed, and the sum of
        ``power / k!`` is kept on integer numerators until the end."""
        if not self.terms:
            return DecoratedSeries.one(self.ring, self.graph, self.weights)
        for (exps, decor), _ in self.terms.items():
            grade = sum(exps) + sum(
                sum(kappa) + sum(a for _, a in blocks)
                for kappa, blocks in decor
            )
            if grade <= 0:
                raise ValueError("exponential of a term of degree zero")
        ring = self.ring
        left, right, high = ring._product_layout()
        base = _packed(ring, self.terms, right)
        power = _packed(ring, self.terms, left)
        # the sum, keyed (decoration, key with the left and the right bias)
        total = {(self._trivial_decor(), left + right): 1}
        den = 1
        k = 1
        while power[1]:
            den = _accumulate(
                total, den,
                {(decor, key + right): c
                 for decor, row in power[1].items() for key, c in row.items()},
                power[0] * factorial(k))
            power = _rebiased(
                _packed_product(self.weights, power, base, high), right)
            k += 1
        rows: dict = {}
        for (decor, key), c in total.items():
            rows.setdefault(decor, {})[key] = c
        return self._unpacked(den, rows)

    def extract(self, **powers: int) -> TautClass:
        target = self.ring.exponents(**powers)
        out = TautClass(self.graph.genus, self.weights)
        for (exps, decor), c in self.terms.items():
            if exps == target:
                out.add_term(self.graph, decor, c)
        return out


# ---------------------------------------------------------------------------
# Brackets
# ---------------------------------------------------------------------------


def _bracket_terms(series: Series, ring: Ring, var: str):
    """Yield ``(k, exps, c)`` for each term of ``series``: ``k`` is the
    exponent of ``var`` (0 if ``series`` lacks it) and ``exps`` the list of
    exponents in ``ring``, whose variables are matched by name."""
    slots = [ring.index[s.name] for s in series.ring.specs]
    at = series.ring.index.get(var)
    for src, c in series.terms():
        exps = [0] * ring.nvars
        for i, e in zip(slots, src):
            exps[i] = e
        yield (0 if at is None else src[at]), exps, c


def bracket_kappa(series: Series, ds: DecoratedSeries, vertex: int,
                  var: str = "t") -> None:
    """Add ``{series}_kappa`` at ``vertex`` into ``ds``.

    Scalar variables of ``series`` other than ``var`` are carried over by
    name; ``var``'s exponent becomes the kappa index and stays in the
    scalar grading.
    """
    for k, exps, c in _bracket_terms(series, ds.ring, var):
        if k < 0:
            continue  # kappa with negative index vanishes
        ds.add_factor_term(tuple(exps), vertex, ("kappa", k), c)


def bracket_D(series: Series, ds: DecoratedSeries, vertex: int,
              block: tuple) -> None:
    """Add ``{series}_{D_block}`` at ``vertex`` into ``ds``."""
    size = len(block)
    for k, exps, c in _bracket_terms(series, ds.ring, "t"):
        if k < size - 1:
            if c:
                raise ValueError(
                    f"D bracket needs t-order >= {size - 1}, got t^{k}"
                )
            continue
        ds.add_factor_term(tuple(exps), vertex, ("Dsa", tuple(block), k), c)


def bracket_Delta(series: Series, ds: DecoratedSeries, vertex: int,
                  p_exponents: dict, coeff=1) -> None:
    """Add ``coeff * {series * p^alpha}_Delta`` at ``vertex`` into ``ds``.

    ``p_exponents`` maps marking numbers to their exponent ``alpha_i``.
    With ``alpha = 0`` this is minus the kappa bracket; otherwise the
    generator is ``D_{supp(alpha), k}`` and the scalar monomial (including
    the ``p`` powers) is retained in full.
    """
    coeff = Fraction(coeff)
    alpha = {i: e for i, e in p_exponents.items() if e}
    if not alpha:
        bracket_kappa(series * -coeff, ds, vertex)
        return
    support = tuple(sorted(alpha))
    size = len(support)
    for k, exps, c in _bracket_terms(series, ds.ring, "t"):
        if k < size - 1:
            raise ValueError(
                f"Delta bracket needs t-order >= {size - 1}, got t^{k}"
            )
        for i, e in alpha.items():
            exps[ds.ring.index[f"p{i}"]] += e
        if any(
            e >= s.trunc_order for e, s in zip(exps, ds.ring.specs)
        ):
            continue
        ds.add_factor_term(tuple(exps), vertex, ("Dsa", support, k),
                           coeff * c)


def _kappa_exp(series: Series, ring: Ring, graph: StableGraph,
               weights: WeightData, vertex: int = 0,
               var: str = "t") -> DecoratedSeries:
    """``exp(-{series}_kappa)`` at ``vertex``."""
    ds = DecoratedSeries(ring, graph, weights)
    bracket_kappa(-series, ds, vertex, var)
    return ds.exp()


# ---------------------------------------------------------------------------
# Open (smooth-space) relations
# ---------------------------------------------------------------------------


def _sq_ring(r: int, d: int, a: tuple) -> Ring:
    specs = [VarSpec("t", 0, r + 1), VarSpec("x", 0, d + 1)]
    for i, ai in enumerate(a, start=1):
        specs.append(VarSpec(f"p{i}", 0, ai + 1))
    return Ring(specs)


def _boundary_vertex_factor(ring: Ring, graph: StableGraph,
                            weights: WeightData, vertex: int, zeta: int,
                            gamma: Series, a: dict, half_sign: int,
                            pd_sign: int) -> DecoratedSeries:
    """The stable-quotient vertex factor ``zeta^(g(v)+1) exp(E_v)``.

    The exponent is ``E_v = half_sign * (zeta/2) p_(v) + sum_i
    (pd_sign)^i / i! * {p_(v)^i D^i gamma(zeta t, x)}_Delta``, where
    ``p_(v)`` runs over the vertex's markings and ``D = t x d/dx``.
    """
    ds = DecoratedSeries(ring, graph, weights)
    markings = sorted(graph.legs_at(vertex))
    for i in markings:
        ds.add_term(ring.exponents(**{f"p{i}": 1}), ds._trivial_decor(),
                    Fraction(half_sign * zeta, 2))
    f = gamma.substitute({"t": zeta})
    bracket_Delta(f, ds, vertex, {})
    for i_order in range(1, sum(a[i] for i in markings) + 1):
        f = f.x_d_dx("x").mul_var("t")
        for alpha in _compositions(i_order, markings, a):
            # (pd_sign p D)^i / i! expanded by the multinomial theorem
            coeff = Fraction(pd_sign ** i_order,
                             prod(factorial(e) for e in alpha.values()))
            bracket_Delta(f, ds, vertex, alpha, coeff=coeff)
    return ds.exp().scale(zeta ** (graph.genera[vertex] + 1))


def _compositions(total: int, markings: list, cap: dict):
    """Exponent assignments ``alpha`` with ``sum = total``, ``alpha_i <= cap``."""
    if not markings:
        if total == 0:
            yield {}
        return
    first, rest = markings[0], markings[1:]
    for e in range(0, min(total, cap[first]) + 1):
        for tail in _compositions(total - e, rest, cap):
            out = dict(tail)
            if e:
                out[first] = e
            yield out


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
    display; the global sign ambiguity is reported by the smooth-graph
    comparison in the boundary construction.
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


def _partition_sum(ring: Ring, graph: StableGraph, weights: WeightData,
                   vertex: int, S: tuple, order: int,
                   zeta: int) -> DecoratedSeries:
    """``sum_P prod_(b in P) {C_|b|(zeta t)}_(D_b)`` at ``vertex``, over
    the set partitions ``P`` of a nonempty ``S``.  In a partition of
    several blocks, a block whose bracket is a scalar (at t-order 0, a
    singleton's is -1) scales the product instead of entering it."""
    part_sum = DecoratedSeries(ring, graph, weights)
    unit = (tuple(0 for _ in ring.specs), part_sum._trivial_decor())
    for partition in set_partitions(S):
        scalar, blocks = 1, []
        for block in partition:
            bds = DecoratedSeries(ring, graph, weights)
            bracket_D(series_C(len(block), order).substitute({"t": zeta}),
                      bds, vertex, tuple(sorted(block)))
            if len(partition) > 1 and bds.terms.keys() == {unit}:
                scalar *= bds.terms[unit]
            else:
                blocks.append(bds)
        if not blocks:
            part_sum.add_term(*unit, scalar)
            continue
        prod = reduce(mul, blocks)
        part_sum = part_sum + (prod if scalar == 1 else prod.scale(scalar))
    return part_sum


def _fz_vertex_factor(ring: Ring, graph: StableGraph, weights: WeightData,
                      vertex: int, zeta: int, S: tuple) -> DecoratedSeries:
    """The FZ-form vertex factor ``zeta^(g(v)+1+|S_v|) exp(-{log A(zeta
    t)}_kappa) sum_P prod {C_|b|(zeta t)}_(D_b)``, with ``P`` running over
    the set partitions of the markings ``S_v`` of ``S`` at ``vertex``,
    expanded up to the top t-degree of ``ring``.

    Each p-degree-i diagonal term carries ``zeta^i``, so a block of size b
    contributes ``zeta^b`` beyond its t-degree: hence ``zeta^|S_v|``.
    """
    order = ring.spec("t").trunc_order - 1
    s_v = tuple(sorted(set(graph.legs_at(vertex)) & set(S)))
    ds = _kappa_exp(log_hyper_A(order).substitute({"t": zeta}), ring, graph,
                    weights, vertex)
    if s_v:
        parts = _partition_sum(ring, graph, weights, vertex, s_v, order, zeta)
        # at t-order 0 the kappa exponential is one
        ds = ds * parts if order else parts
    return ds.scale(zeta ** (graph.genera[vertex] + 1 + len(s_v)))


def open_fz_relation(g: int, n: int, r: int, S: tuple = (),
                     weights: WeightData | None = None,
                     enforce: bool = True) -> TautClass:
    """FZ-form relation ``[exp(-{log A}_kappa) sum_P prod {C_|b|}_{D_b}]_{t^r}``:
    the smooth-graph term of :func:`fz_relation` at colour ``zeta = 1``."""
    if g < 0:
        raise PreconditionError("genus >= 0", f"genus={g}")
    S = tuple(sorted(S))
    _check_subset(S, n)
    if weights is None:
        weights = WeightData(tuple(Fraction(1, 2 * n + 2) for _ in range(n)))
    if enforce:
        _check_fz_range(g, r, S)
        check_stable(g, weights)
    ring = Ring([VarSpec("t", 0, r + 1)])
    return _fz_vertex_factor(ring, smooth_graph(g, n), weights, 0, 1,
                             S).extract(t=r)


# ---------------------------------------------------------------------------
# Boundary relations: graph-and-coloring sums
# ---------------------------------------------------------------------------


def _edge_to_ds(series: Series, ds: DecoratedSeries, edge: int) -> None:
    """Add an edge series in (t[, x], p1, p2) at ``edge`` into ``ds``: the
    powers of p1 and p2 become psi powers at the edge's sides 0 and 1."""
    names = [s.name for s in series.ring.specs]
    sides = {"p1": 0, "p2": 1}
    for src, c in series.terms():
        exps = [0] * ds.ring.nvars
        powers = {}
        for name, e in zip(names, src):
            if name in sides:
                powers[edge, sides[name]] = e
            else:
                exps[ds.ring.index[name]] = e
        if all(e < s.trunc_order for e, s in zip(exps, ds.ring.specs)):
            ds.add_term(tuple(exps), _hpsi_decor(ds.graph, powers), c)


def _graph_sum(g: int, weights: WeightData, graphs, r: int, ring_of,
               vertex_factor, edge_series) -> TautClass:
    """``sum_G sum_zeta prod_v (vertex factor) prod_e (edge kernel) / |Aut G|``.

    ``G`` runs over ``graphs`` and ``zeta`` over the ±1 colourings of its
    vertices.  With ``order = r - #edges`` the product is expanded in
    ``ring_of(order)`` and read off at the ring's top corner, the highest
    retained exponent of every variable.
    ``vertex_factor(ring, graph, v, zeta)`` is the decorated factor
    at vertex ``v``, and ``edge_series(z1, z2, order)`` the kernel of an
    edge whose ends have colours ``z1`` and ``z2``, in (t[, x], p1, p2).

    Each factor is built and packed (:func:`_packed`, right bias) once per
    graph: a vertex factor per ``(v, zeta)`` and an edge kernel per ``(e,
    z1, z2)``.  The factors are taken level by level: level ``v`` holds
    vertex ``v``'s factor and the edges whose later endpoint is ``v``, so
    it depends only on the colours of vertices ``0..v``.  A stack keeps the
    packed prefix products; walking the colourings in the order of
    ``enumerate_colorings``, a colouring recomputes the stack only from the
    level of the first vertex whose colour changed.  The last factor is
    multiplied into the target degree only (:func:`_target_product`).  Every
    ring here has floor 0, as :class:`DecoratedSeries` enforces, so
    truncated products are associative and commutative, and a vanishing
    decoration product stays vanishing; the order of the factors does not
    change the result.  The target coefficients of all colourings are
    summed on integer numerators, so each distinct decoration gets one
    ``Fraction`` and is relabelled to its canonical form once.
    """
    total = TautClass(g, weights)
    for graph in graphs:
        order = r - graph.n_edges
        ring = ring_of(order)
        left, right, high = ring._product_layout()
        top = tuple(spec.trunc_order - 1 for spec in ring.specs)
        _, [(target, _)] = ring._packed([(top, 1)], left + right)
        slots = []  # (vertex, edge or None) in level order
        starts = []  # starts[v]: the first slot of level v
        for v in range(graph.n_vertices):
            starts.append(len(slots))
            slots.append((v, None))
            slots.extend((v, e) for e, ends in enumerate(graph.edges)
                         if max(ends) == v)
        packed: dict = {}

        def factor(slot, coloring):
            v, e = slot
            if e is None:
                key = (v, coloring[v])
            else:
                va, vb = graph.edges[e]
                key = (v, e, coloring[va], coloring[vb])
            if key not in packed:
                if e is None:
                    ds = vertex_factor(ring, graph, v, key[1])
                else:
                    ds = DecoratedSeries(ring, graph, weights)
                    _edge_to_ds(edge_series(key[2], key[3], order), ds, e)
                packed[key] = _packed(ring, ds.terms, right)
            return packed[key]

        one = DecoratedSeries.one(ring, graph, weights)
        stack = [_packed(ring, one.terms, left)]
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
                stack.append(_rebiased(_packed_product(
                    weights, stack[-1], factor(slot, coloring), high), right))
            part_den, part = _target_product(
                weights, stack[-1], factor(slots[last], coloring), target)
            den = _accumulate(sums, den, part, part_den)
        den *= graph.automorphism_order()
        for decor, c in sums.items():
            total.add_term(graph, decor, Fraction(c, den))
    return total


def _ensure_generic(weights: WeightData) -> WeightData:
    if weights.is_generic():
        return weights
    return weights.perturbed()


def fz_relation(g: int, weights: WeightData, r: int, S: tuple = (),
                max_edges: int | None = None) -> TautClass:
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
    weights = _ensure_generic(weights)
    cap = r if max_edges is None else min(max_edges, r)
    return _graph_sum(
        g, weights, enumerate_graphs(g, weights, cap), r,
        lambda order: Ring([VarSpec("t", 0, order + 1)]),
        lambda ring, graph, v, zeta: _fz_vertex_factor(
            ring, graph, weights, v, zeta, S),
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
        lambda ring, graph, v, zeta: _boundary_vertex_factor(
            ring, graph, weights, v, zeta, gamma, a_map, half_sign, pd_sign),
        lambda z1, z2, order: edge_series_xy(z1, z2, order, d, kind=4),
    )


def boundary_sq_relation(g: int, weights: WeightData, r: int, d: int,
                         a: tuple = (), half_sign: int = 1, pd_sign: int = 1,
                         max_edges: int | None = None) -> TautClass:
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
    weights = _ensure_generic(weights)
    cap = min(r, r - (g - 2 * d - 1 + a_total) - 1)
    if max_edges is not None:
        cap = min(cap, max_edges)
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
    The result is homogeneous of codimension ``r``.
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
    inner_w = WeightData(weights.weights + tuple([Fraction(1)] * ell))
    inner_r = r - sum(part // 3 for part in sigma)
    inner_s = tuple(sorted(
        set(S) | {n + i for i, part in enumerate(sigma, start=1)
                  if part % 3 == 1}
    ))
    rel = fz_relation(g, inner_w, inner_r, inner_s)
    for i, part in enumerate(sigma, start=1):
        rel = multiply_generator(rel, ("psi", n + i, part // 3 + 1))
    for i in range(ell, 0, -1):
        rel = pushforward_forget_weight1(rel, n + i)
    return rel


# ---------------------------------------------------------------------------
# The evaluation chain
# ---------------------------------------------------------------------------


def verify_chain(g: int, r: int) -> list:
    """Checks tying the stable-quotient form to the FZ form.

    Returns ``[(name, ok, detail), ...]`` covering: (i) the coordinate
    change ``u = t/sqrt(1+4x), y = -x/(1+4x)`` turns the relation series
    into ``(1+4y)^e exp(-{c}_kappa)`` with ``e = (r+2d-1-g)/2``; (ii) the
    transformed exponent is triangular (y-degree <= u-degree); (iii) the
    extremal (diagonal) part is the FZ-form relation; (iv) the sign
    pairings for which the boundary stable-quotient form without edges is
    the open form.
    """
    if g < 0:
        raise PreconditionError("genus >= 0", f"genus={g}")
    if r < 1:
        raise PreconditionError("codim >= 1", f"codim={r}")
    w0 = WeightData(())
    check_stable(g, w0)
    report = []
    smooth = smooth_graph(g, 0)

    # side 1: exp(-{gamma}_kappa) in the (t, x) chart
    fam = phi_family(r, r)
    ring_tx = Ring([VarSpec("t", 0, r + 1), VarSpec("x", 0, r + 1)])
    lhs = _kappa_exp(fam["gamma"], ring_tx, smooth, w0)

    # side 2: exp(-{c}_kappa) in the (u, y) chart with the (1+4y)^e factor
    uy = uy_expansion(1, r, r)
    rhs = _kappa_exp(uy["c_series"], uy_ring(r, r), smooth, w0, var="u")

    y_ring = Ring([VarSpec("y", 0, r + 1)])

    all_i = True
    detail_i = []
    for d in range(r + 1):
        left = lhs.extract(t=r, x=d)
        e = Fraction(r + 2 * d - 1 - g, 2)
        pref = (y_ring.one() + y_ring.var("y") * 4).pow_fraction(e)
        right = TautClass(g, w0)
        for (exps,), coeff in pref.terms():
            m = exps
            if m > d:
                continue
            right = right + rhs.extract(u=r, y=d - m).scale(
                coeff * (-1) ** d
            )
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

    tri = all(
        j <= k
        for k, row in uy["c"].items()
        for j, cval in row.items()
        if cval
    )
    report.append(("triangularity of the transformed exponent", tri, ""))

    fz = open_fz_relation(g, 0, r, (), weights=w0, enforce=False)
    report.append((
        "extremal part equals the FZ form",
        rhs.extract(u=r, y=r) == fz,
        f"{len(fz.terms)} generators",
    ))

    # informational: the two printed sign conventions for the vertex
    # factor; report which pairings make the 0-edge boundary form match
    # the open form on a marked nonzero case
    probe_w = WeightData((Fraction(1, 10),))
    probe = dict(g=2, r=2, d=1, a=(1,))
    o = open_sq_relation(
        probe["g"], probe_w, probe["r"], probe["d"], probe["a"],
    )
    closing = []
    for hs in (1, -1):
        for ps in (1, -1):
            b = boundary_sq_relation(
                probe["g"], probe_w, probe["r"], probe["d"], probe["a"],
                half_sign=hs, pd_sign=ps, max_edges=0,
            )
            if b == o:
                closing.append(f"({hs:+d},{ps:+d})")
    report.append((
        "sign pairings closing the smooth-graph comparison",
        bool(closing),
        " ".join(closing),
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
    depend on ``zeta``, so ``eps_*(c_{r+d}(-B_d)) / d!`` is computed once
    per ``(d, r)`` and only its sign ``zeta^r`` is applied per ``zeta``;
    the closed form is built for each ``zeta``.  Returns
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
            pushed[d, r] = pushforward_forget_small(
                cs[r + d].scale(Fraction(1, factorial(d))), d
            )
    rows = []
    ring = Ring([VarSpec("t", 0, t_order + 1), VarSpec("x", 0, d_max + 1)])
    for zeta in (1, -1):
        closed = _kappa_exp(fam["logPhi"].substitute({"t": zeta}), ring,
                            smooth_graph(g, 0), w0)
        for d in range(1, d_max + 1):
            ok = True
            detail = ""
            for r in range(t_order + 1):
                if pushed[d, r].scale(zeta ** r) != closed.extract(t=r, x=d):
                    ok = False
                    detail = f"mismatch at t^{r} x^{d}"
                    break
            rows.append((f"push-forward closed form d={d} zeta={zeta:+d}",
                         ok, detail or f"r <= {t_order}"))
    return rows
