"""Decorated stable-graph classes in normal form.

A term is a stable graph together with a decoration at every vertex:

* a kappa monomial, stored as a sorted tuple of indices ``j >= 1`` (kappa_0
  is evaluated eagerly to the scalar ``2 g(v) - 2`` and kappa_{-1} is zero);
* a product of generators ``D_{S, a}`` over disjoint blocks ``S`` of
  markings, plus psi powers at half-edges (stored as singleton blocks).

The stored ``D_{S, a}`` is the signed normal-form generator: for a
singleton it is ``psi_i^a``, and for ``|S| >= 2`` it equals
``(-1)^{|S|-1} [D_S] psi_i^{a-|S|+1}`` where ``[D_S]`` is the class of the
locus where the markings of ``S`` collide.  With this normalisation the
multiplication rule is simply ``D_{S,a} D_{T,b} = D_{S u T, a+b}`` whenever
``S`` and ``T`` intersect, which makes the normal form confluent.  A block
of two or more markings is zero whenever the weights of its markings sum to
more than one.

A ``TautClass`` value is a finite rational linear combination of such
terms; a term with graph ``G`` and decoration monomial ``M`` stands for the
push-forward of ``M`` along the gluing map of ``G`` (no automorphism
factors are folded in; formulas that need ``1/|Aut|`` carry it in the
coefficient).

One rule merges blocks: :func:`_vertex_product` multiplies two stored
vertex decorations, with coefficient 1 and no product kept between calls.
:func:`_factor_decor` maps one raw factor to a stored decoration and a
scalar.  The brackets and ``multiply_generator`` place single factors.
The decorated series of ``relations`` live on one vertex: their products
multiply vertex decorations with :func:`_vertex_product` directly.  The
graph sum of ``relations`` does not multiply the decorations of its
factors: they never share a point, so it writes each term's blocks side
by side.  ``pushforward_forget`` forgets one weight-one marking, or a run
of light markings, per pass over the terms (:func:`_forget_pass`), which
rewrites each block that loses forgotten points once, by a closed rule
(:func:`_forget_block`), however many points it forgets, and
``chern_neg_Bd`` places its output blocks directly, each with its count
of pick configurations (:func:`_pick_counts`).  ``multiply_smooth``, the
forget pass and the extraction of a decorated series sum integer
numerators over one denominator (:func:`tautrels.series.numerators`) and
build their class once, with :func:`_from_numerators`.
:func:`normal_form`, the public word API, is the only code that reads a
raw word; class files are checked against the stored rules themselves
(:func:`_check_stored`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .graphs import (PreconditionError, StableGraph, WeightData, check_stable,
                     json_int, json_int_text, smooth_graph)
from .serialize import dumps
from .series import numerators

__all__ = [
    "TautClass",
    "normal_form",
    "canonical_term",
    "multiply_generator",
    "multiply_smooth",
    "pushforward_forget",
    "pushforward_forget_small",
    "chern_neg_Bd",
    "to_vector",
    "matrix_rank",
]


# ---------------------------------------------------------------------------
# Vertex decorations
# ---------------------------------------------------------------------------
#
# A point is ("m", i) for marking i (1-based) or ("h", e, s) for side s of
# edge e.  A block is (points, a) with points a sorted tuple of points.  A
# vertex decoration is (kappa, blocks); a full decoration is a tuple of
# vertex decorations indexed by vertex.


def _factor_decor(factor, genus: int, weights: WeightData) -> tuple | None:
    """``(scalar, vertex decoration)`` of one raw factor of
    :func:`normal_form` at a vertex of genus ``genus``, or ``None`` if the
    factor is zero.

    A block exponent below ``|S| - 1``, a negative psi power among them,
    raises ``ValueError``; so does an unknown factor kind.  A block of two
    or more markings that weighs more than one is zero.
    """
    kind = factor[0]
    if kind == "kappa":
        j = factor[1]
        if j > 0:
            return 1, ((j,), ())
        scalar = 2 * genus - 2 if j == 0 else 0
        return (scalar, ((), ())) if scalar else None
    scalar = 1
    if kind in ("psi", "hpsi"):
        _, at, a = factor
        pts = (("m", at),) if kind == "psi" else (("h", at[0], at[1]),)
    elif kind == "diag":
        a = len(factor[1]) - 1
        scalar = (-1) ** a
        pts = tuple(sorted({("m", i) for i in factor[1]}))
    elif kind == "Dsa":
        _, markings, a = factor
        pts = tuple(sorted({("m", i) for i in markings}))
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    if a < len(pts) - 1:
        raise ValueError("block exponent below |S| - 1")
    if a == 0:
        return scalar, ((), ())
    if len(pts) > 1 and weights.heavy(pts):
        return None
    return scalar, ((), ((pts, a),))


def normal_form(
    graph: StableGraph, weights: WeightData, vertex: int, word
) -> tuple | None:
    """Reduce a raw product of generators at one vertex.

    ``word`` is a sequence of factors:

    * ``("kappa", j)`` -- a kappa class (``j = 0`` gives the scalar
      ``2 g(v) - 2``; ``j = -1`` gives zero);
    * ``("psi", i, k)`` -- the k-th power of the cotangent class at
      marking i;
    * ``("hpsi", (e, s), k)`` -- the same at a half-edge;
    * ``("diag", S)`` -- the class of the locus where the markings of S
      collide (converted to ``(-1)^{|S|-1} D_{S, |S|-1}``);
    * ``("Dsa", S, a)`` -- a stored generator, with ``a >= |S| - 1``.

    Each factor becomes a stored decoration by :func:`_factor_decor`, and
    the decorations multiply by :func:`_vertex_product`, the one rule that
    merges blocks.  Returns ``(coefficient, kappa, blocks)`` or ``None``
    if the product is zero.  The result does not depend on the order of
    the factors.
    """
    genus = graph.genera[vertex]
    coeff = 1
    vd = ((), ())
    for factor in word:
        single = _factor_decor(factor, genus, weights)
        if single is None:
            return None
        coeff *= single[0]
        vd = _vertex_product(vd, single[1], weights)
        if vd is None:
            return None
    return (coeff,) + vd


def _vertex_product(vd1: tuple, vd2: tuple, weights: WeightData) -> tuple | None:
    """The product of two stored vertex decorations, or ``None`` if it
    vanishes.

    Intersecting blocks merge and add their exponents, and the kappa
    indices are concatenated.  Stored blocks satisfy ``a >= |S| - 1``, so
    two that merge satisfy ``a + b >= |S u T| - 1`` and the coefficient is
    always 1; a merged block of two or more markings vanishes when its
    weight exceeds one.  Stored blocks hold no half-edge next to another
    point, so every merged block of two or more points is a marking block.
    The weight test runs once per merged tuple of two or more points of
    ``weights`` (``WeightData.heavy``).
    """
    kappa1, blocks1 = vd1
    kappa2, blocks2 = vd2
    kappa = kappa1 + kappa2
    if kappa1 and kappa2:
        kappa = tuple(sorted(kappa))
    if not (blocks1 and blocks2):
        return kappa, blocks1 or blocks2
    blocks = list(blocks1)
    for pts, a in blocks2:
        union = set(pts)
        keep = []
        for other in blocks:
            if union.isdisjoint(other[0]):
                keep.append(other)
            else:
                union.update(other[0])
                a += other[1]
        if len(keep) < len(blocks):
            pts = tuple(sorted(union))
            if len(pts) > 1 and weights.heavy(pts):
                return None
        keep.append((pts, a))
        blocks = keep
    return kappa, tuple(sorted(blocks))


def _add_into(terms: dict, key: tuple, coeff: Fraction) -> None:
    """Add ``coeff`` at ``key`` of ``terms``, dropping the key at zero."""
    new = terms.get(key, 0) + coeff
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def _from_numerators(genus: int, weights: WeightData, acc: dict,
                     den: int) -> TautClass:
    """The class with coefficient ``acc[key] / den`` at each canonical key."""
    return TautClass(genus, weights,
                     {key: Fraction(v, den) for key, v in acc.items() if v})


def _check_stored(graph: StableGraph, weights: WeightData, decor: tuple) -> None:
    """Raise ``ValueError`` naming the first broken rule unless ``decor`` is
    a stored decoration of ``graph``, the normal form that
    :func:`_vertex_product` assumes: at every vertex each point sits there,
    the kappa indices are sorted and >= 1, the blocks are nonempty, sorted
    and disjoint with sorted distinct points and ``a >= max(|S| - 1, 1)``,
    and a block of two or more points holds markings of weight <= 1."""
    for v, (kappa, blocks) in enumerate(decor):
        here = set(_points_at(graph, v))
        points = [p for pts, _ in blocks for p in pts]
        if any(p not in here for p in points):
            raise ValueError(f"a block at vertex {v} names a point elsewhere")
        if list(kappa) != sorted(kappa) or any(j < 1 for j in kappa):
            rule = "kappa indices sorted and >= 1"
        elif any(not pts or list(pts) != sorted(set(pts)) for pts, _ in blocks):
            rule = "blocks nonempty with sorted distinct points"
        elif list(blocks) != sorted(blocks) or len(set(points)) < len(points):
            rule = "blocks sorted and disjoint"
        elif any(a < max(len(pts) - 1, 1) for pts, a in blocks):
            rule = "a >= max(|S| - 1, 1)"
        elif any(len(pts) > 1 and (any(p[0] != "m" for p in pts)
                                   or weights.heavy(pts))
                 for pts, _ in blocks):
            rule = "blocks of two or more points hold markings of weight <= 1"
        else:
            continue
        raise ValueError(
            f"decor is not in normal form: {rule} violated at vertex {v}")


def _decor_codim(edges: tuple, decor: tuple) -> int:
    total = len(edges)
    for kappa, blocks in decor:
        total += sum(kappa) + sum(a for _, a in blocks)
    return total


# ---------------------------------------------------------------------------
# Canonical form of a decorated term
# ---------------------------------------------------------------------------

def _map_points(points: tuple, hemap: dict) -> tuple:
    out = []
    for p in points:
        if p[0] == "h":
            e2, s2 = hemap[(p[1], p[2])]
            out.append(("h", e2, s2))
        else:
            out.append(p)
    return tuple(sorted(out))


def canonical_term(graph: StableGraph, decor: tuple) -> tuple:
    """Minimal representative of (graph, decoration) under relabelling.

    Returns the canonical graph's ``(genera, legs, edges)`` and the
    smallest image of ``decor`` under ``graph.relabellings``, the maps onto
    the canonical graph.  Only those maps minimise (legs, edges), so this
    is the minimum of the whole tuple over every relabelling, and equal
    terms compare equal.  Terms that share a graph object share its
    relabellings.  A one-vertex, edge-free term is returned as it is.
    """
    if not graph.edges and graph.n_vertices == 1:
        return graph.genera, graph.legs, graph.edges, decor

    def image(perm, hemap):
        out = [None] * graph.n_vertices
        for v, (kappa, blocks) in enumerate(decor):
            out[perm[v]] = (kappa, tuple(
                sorted((_map_points(pts, hemap), a) for pts, a in blocks)
            ))
        return tuple(out)

    canonical = graph.canonical()
    return (canonical.genera, canonical.legs, canonical.edges,
            min(image(perm, hemap) for perm, hemap in graph.relabellings))


# ---------------------------------------------------------------------------
# TautClass
# ---------------------------------------------------------------------------


class TautClass:
    """Finite rational combination of decorated stable-graph terms."""

    __slots__ = ("genus", "weights", "terms")

    def __init__(self, genus: int, weights: WeightData, terms: dict | None = None):
        self.genus = genus
        self.weights = weights
        self.terms = terms if terms is not None else {}

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, genus: int, weights: WeightData) -> "TautClass":
        return cls(genus, weights)

    @classmethod
    def one(cls, genus: int, weights: WeightData) -> "TautClass":
        c = cls(genus, weights)
        c.add_term(smooth_graph(genus, weights.n), (((), ()),), Fraction(1))
        return c

    def _check_compatible(self, other: "TautClass") -> None:
        if self.genus != other.genus or self.weights != other.weights:
            raise ValueError("classes live on different moduli spaces")

    def add_term(self, graph: StableGraph, decor: tuple, coeff) -> None:
        coeff = Fraction(coeff)
        if coeff:
            _add_into(self.terms, canonical_term(graph, decor), coeff)

    # -- ring-ish operations ------------------------------------------------

    def __add__(self, other: "TautClass") -> "TautClass":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _add_into(out, key, c)
        return TautClass(self.genus, self.weights, out)

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + other.scale(-1)

    def scale(self, factor) -> "TautClass":
        factor = Fraction(factor)
        if factor == 0:
            return TautClass(self.genus, self.weights)
        return TautClass(
            self.genus,
            self.weights,
            {k: c * factor for k, c in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TautClass)
            and self.genus == other.genus
            and self.weights == other.weights
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("TautClass is not hashable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def codims(self) -> set:
        return {_decor_codim(edges, decor) for _, _, edges, decor in self.terms}

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        rows = []
        for key in sorted(self.terms):
            genera, legs, edges, decor = key
            rows.append(
                {
                    "graph": StableGraph(genera, legs, edges).to_dict(),
                    "decor": [
                        {
                            "kappa": list(kappa),
                            "blocks": [
                                {"points": [list(p) for p in pts], "a": a}
                                for pts, a in blocks
                            ],
                        }
                        for kappa, blocks in decor
                    ],
                    "num": str(self.terms[key].numerator),
                    "den": str(self.terms[key].denominator),
                }
            )
        return {
            "genus": self.genus,
            "weights": [
                [str(w.numerator), str(w.denominator)] for w in self.weights.weights
            ],
            "terms": rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TautClass":
        """The class of a :meth:`to_dict` payload.  Integer fields hold
        integers, weights and coefficients integers or strings of integers,
        and every decoration is stored (:func:`_check_stored`)."""
        weights = WeightData.of(
            Fraction(json_int_text(a, "weights"), json_int_text(b, "weights"))
            for a, b in data["weights"]
        )
        out = cls(json_int(data["genus"], "genus"), weights)
        check_stable(out.genus, weights)
        for row in data["terms"]:
            graph = StableGraph.from_dict(row["graph"])
            graph.validate(weights, out.genus)
            if len(row["decor"]) != graph.n_vertices:
                raise ValueError("decor needs one entry per vertex")
            decor = tuple(
                (tuple(json_int(j, "kappa") for j in d["kappa"]),
                 tuple(sorted(
                     (tuple((*p[:1], *(json_int(x, "points") for x in p[1:]))
                            for p in b["points"]), json_int(b["a"], "a"))
                     for b in d["blocks"])))
                for d in row["decor"])
            _check_stored(graph, weights, decor)
            out.add_term(graph, decor,
                         Fraction(json_int_text(row["num"], "num"),
                                  json_int_text(row["den"], "den")))
        return out

    def dumps(self) -> str:
        return dumps(self.to_dict())


# ---------------------------------------------------------------------------
# Generator multiplication
# ---------------------------------------------------------------------------


def _generator_sites(graph: StableGraph, gen: tuple) -> list:
    """``(vertex, raw factor)`` for each vertex-local summand of ``gen``.

    A kappa class distributes over the vertices and the half-edges by the
    boundary pull-back rule ``kappa_j -> kappa_j^{(v)} + sum_h psi_h^j``.
    A ``D_{S, a}`` whose markings lie on several vertices has no summand:
    points on different components never collide.
    """
    kind = gen[0]
    if kind == "kappa":
        j = gen[1]
        return [
            site
            for v in range(graph.n_vertices)
            for site in [(v, gen)] + [
                (v, ("hpsi", he, j)) for he in graph.half_edges_at(v)]
        ]
    if kind == "psi":
        return [(graph.legs[gen[1] - 1], gen)]
    if kind == "Dsa":
        homes = {graph.legs[i - 1] for i in gen[1]}
        return [(homes.pop(), gen)] if len(homes) == 1 else []
    raise ValueError(f"unknown generator {gen!r}")


def multiply_generator(c: TautClass, gen: tuple) -> TautClass:
    """Multiply by a kappa class, a psi power, or a ``D_{S, a}`` generator.

    ``gen`` is ``("kappa", j)``, ``("psi", i, k)`` or ``("Dsa", S, a)``.
    Each summand of ``gen`` on a graph becomes a stored decoration once, by
    :func:`_factor_decor`, which rejects a malformed generator, and is then
    multiplied into every stored decoration by :func:`_vertex_product`.
    """
    out = TautClass(c.genus, c.weights)
    groups: dict = {}  # (genera, legs, edges): [(decoration, coefficient)]
    for key, coeff in c.terms.items():
        groups.setdefault(key[:3], []).append((key[3], coeff))
    # one graph at a time: each graph, with the relabellings that
    # add_term caches on it, is dropped after its last term
    for shape, terms in groups.items():
        graph = StableGraph(*shape)
        sites = [(v, single) for v, factor in _generator_sites(graph, gen)
                 if (single := _factor_decor(factor, shape[0][v], c.weights))
                 is not None]
        for decor, coeff in terms:
            for v, (scalar, factor_vd) in sites:
                vd = _vertex_product(decor[v], factor_vd, c.weights)
                if vd is not None:
                    out.add_term(graph, decor[:v] + (vd,) + decor[v + 1:],
                                 coeff * scalar)
    return out


def multiply_smooth(c1: TautClass, c2: TautClass) -> TautClass:
    """Product of two classes supported on the smooth (edge-free) graph.

    Coefficients are integer numerators over one denominator per factor.
    Products are keyed directly, as :func:`canonical_term` returns a
    one-vertex, edge-free term unchanged.
    """
    c1._check_compatible(c2)
    if any(key[2] for c in (c1, c2) for key in c.terms):
        raise ValueError("multiply_smooth needs edge-free terms")
    weights = c1.weights
    den1, left = numerators(c1.terms)
    den2, right = numerators(c2.terms)
    right = [(decor2[0], b) for (_, _, _, decor2), b in right.items()]
    acc: dict = {}
    get = acc.get
    for (genera, legs, edges, (vd1,)), a in left.items():
        for vd2, b in right:
            vd = _vertex_product(vd1, vd2, weights)
            if vd is not None:
                key = (genera, legs, edges, (vd,))
                acc[key] = get(key, 0) + a * b
    return _from_numerators(c1.genus, weights, acc, den1 * den2)


# ---------------------------------------------------------------------------
# Push-forwards
# ---------------------------------------------------------------------------


def _check_light(weights: WeightData, count: int) -> None:
    """Raise unless each of the last ``count`` markings, forgotten last one
    first, is light: no set ``S`` of the markings before ``n`` has
    ``w(S) <= 1 < w(S) + w_n``, so ``n`` can join every collision of
    the markings before it."""
    den, nums = weights._scaled
    for n in range(weights.n, weights.n - count, -1):
        for S in itertools.chain.from_iterable(
                itertools.combinations(range(1, n), k) for k in range(1, n)):
            if den - nums[n - 1] < sum(nums[i - 1] for i in S) <= den:
                raise PreconditionError("w(S) + w_n <= 1 whenever w(S) <= 1",
                                        f"n={n}, S={set(S)}")


def _forget_block(block: tuple, n: int, kappa0: int) -> tuple:
    """``(factor, lost, blocks, kappa)``: the rule of :func:`_forget_pass`
    for a block at a vertex where ``kappa_0`` is the scalar ``kappa0``
    once the markings above ``n`` are forgotten, ``lost`` of them in the
    block; a zero ``factor`` kills the term."""
    pts, a = block
    rest = tuple(p for p in pts if p[0] != "m" or p[1] <= n)
    lost = len(pts) - len(rest)
    if not lost:
        return 1, 0, (block,), ()
    a -= lost
    sign = (-1) ** lost
    if rest:  # (-1)^|F| D_{S\F, a-|F|}; a lone point with a = 0 is 1
        return sign, lost, ((rest, a),) if a else (), ()
    if a > 0:  # (-1)^(|F|-1) kappa_{a-|F|}
        return -sign, lost, (), (a,)
    return -sign * kappa0 if a == 0 else 0, lost, (), ()


def _points_at(graph: StableGraph, v: int) -> list:
    """The legs and the half-edges at vertex ``v``, as points."""
    return ([("m", i) for i in graph.legs_at(v)]
            + [("h",) + he for he in graph.half_edges_at(v)])


def _forget_pass(c: TautClass, count: int) -> TautClass:
    """Forget the last ``count`` markings, a run of light markings or one
    marking of weight one, in one pass over the terms.

    A block ``(S, a)`` that loses its forgotten markings ``F`` becomes
    ``(-1)^{|F|} D_{S\\F, a-|F|}`` when ``S\\F`` is nonempty (nothing
    when one point with exponent 0 is left), and ``(-1)^{|F|-1}
    kappa_{a-|F|}`` when ``S`` lies in ``F``, plus ``sum_{p in B}
    psi_p^{a-1}`` for the points ``B`` that the forgotten point bubbles
    off at (``kappa_0 = 2 g(v) - 2 + |B|``, ``kappa_{-1} = 0``); a term
    dies if a forgotten marking is in no block.  ``B`` is empty for light
    markings.  A weight-one point bubbles off at the other legs and the
    half-edges at its vertex, and it joins no diagonal, so no correction
    between psi classes upstairs and downstairs arises; a block of it and
    other points raises ``ValueError``.  For light markings this composes
    the one-marking rules, last marking first.

    Each block's rule is computed once per call, each term is rewritten
    once on integer numerators over one denominator, and each output term
    is relabelled once.  Every input graph without the forgotten legs is
    validated against the final weights, even if its terms die.  A graph
    that fails raises, unless a weight-one point is forgotten: then the
    term is contracted (:func:`_contract_point`).  A target space that
    does not exist raises before any term is read.
    """
    n = c.weights.n - count
    weights = WeightData(c.weights.weights[:n])
    check_stable(c.genus, weights)
    one = c.weights.weights[n:] == (1,)
    den, nums = numerators(c.terms)
    acc: dict = {}
    valid: dict = {}  # (genera, legs, edges): (its graph, its ValueError)
    rules: dict = {}  # (block, kappa_0 at v): _forget_block(block, n, kappa_0)
    for (genera, legs, edges, decor), num in nums.items():
        shape = (genera, legs[:n], edges)
        if (known := valid.get(shape)) is None:
            graph, error = StableGraph(*shape), None
            try:
                graph.validate(weights, c.genus)
            except ValueError as exc:
                if not one:
                    raise
                error = exc
            known = valid[shape] = graph, error
        graph, error = known
        if error is not None:
            contracted = _contract_point(genera, legs, edges, decor, error)
            if contracted:
                key = canonical_term(*contracted)
                acc[key] = acc.get(key, 0) + num
            continue
        out = list(decor)
        lost = 0
        psis = []  # (v, p, j): psi_p^j for each p in B in place of kappa_j
        touched = set(legs[n:])
        for v in touched:
            kappa, blocks = decor[v]
            bubbles = _points_at(graph, v) if one else ()  # B
            kappa0 = 2 * genera[v] - 2 + len(bubbles)
            kept = ()
            for block in blocks:
                if (rule := rules.get((block, kappa0))) is None:
                    rule = rules[block, kappa0] = _forget_block(block, n,
                                                                kappa0)
                num *= rule[0]
                lost += rule[1]
                kept += rule[2]
                kappa += rule[3]
                if bubbles:  # only a weight-one point has B, and no diagonal
                    if rule[1] and len(block[0]) > 1:
                        raise ValueError(
                            "weight-one point sits on a diagonal block")
                    psis += [(v, p, j) for j in rule[3] for p in bubbles]
            out[v] = kappa, kept
        if not num or lost < count:  # kappa_{-1}, or a marking in no block
            continue
        for v in touched:
            out[v] = tuple(sorted(out[v][0])), tuple(sorted(out[v][1]))
        key = canonical_term(graph, tuple(out))
        acc[key] = acc.get(key, 0) + num
        for v, p, j in psis:  # only one block loses a weight-one point
            vd = _vertex_product((decor[v][0], out[v][1]), ((), (((p,), j),)),
                                 weights)
            key = canonical_term(graph, tuple(out[:v]) + (vd,)
                                 + tuple(out[v + 1:]))
            acc[key] = acc.get(key, 0) + num
    return _from_numerators(c.genus, weights, acc, den)


def pushforward_forget_small(c: TautClass, count: int = 1) -> TautClass:
    """Forget the last ``count`` markings, all light, in one pass of
    :func:`_forget_pass`.  Heavy markings raise (:func:`_check_light`),
    and so does a target space that does not exist."""
    if not 0 <= count <= c.weights.n:
        raise PreconditionError("0 <= count <= n",
                                f"count={count}, n={c.weights.n}")
    _check_light(c.weights, count)
    return _forget_pass(c, count)


def _contract_edge(graph: StableGraph, e: int):
    """Contract edge ``e``; return (graph, vertex map, half-edge map)."""
    a, b = graph.edges[e]
    nv = graph.n_vertices
    if a == b:
        vmap = list(range(nv))
        genera = list(graph.genera)
        genera[a] += 1
    else:
        vmap = []
        genera = []
        for v in range(nv):
            if v == b:
                vmap.append(None)
            else:
                vmap.append(len(genera))
                genera.append(graph.genera[v])
        genera[vmap[a]] += graph.genera[b]
        vmap[b] = vmap[a]
    legs = tuple(vmap[v] for v in graph.legs)
    raw = []
    for idx, (va, vb) in enumerate(graph.edges):
        if idx == e:
            continue
        na, nb = vmap[va], vmap[vb]
        if na <= nb:
            raw.append(((na, nb), idx, (0, 1)))
        else:
            raw.append(((nb, na), idx, (1, 0)))
    raw.sort(key=lambda r: (r[0], r[1]))
    hemap = {}
    edges = []
    for new_idx, (pair, idx, sides) in enumerate(raw):
        edges.append(pair)
        hemap[(idx, 0)] = (new_idx, sides[0])
        hemap[(idx, 1)] = (new_idx, sides[1])
    return StableGraph(tuple(genera), legs, tuple(edges)), vmap, hemap


def _contract_point(genera: tuple, legs: tuple, edges: tuple, decor: tuple,
                    error: ValueError) -> tuple | None:
    """``(graph, decor)`` of a term once its last marking, of weight one,
    is forgotten from a vertex that it leaves unstable, or ``None`` if the
    term dies.

    Covers the case of a genus-zero vertex carrying the forgotten point
    and exactly two other special points: its moduli factor is a single
    point, the forgetful map restricts to an isomorphism of strata, and
    the vertex is contracted away (two half-edges: the incident edges
    merge; one half-edge and a leg: the leg moves to the neighbour).  The
    vertex has a neighbour and no loop: alone it would be the whole curve,
    and the target space does not exist.  Any other case raises
    ``NotImplementedError`` naming ``error``, the failed validation.
    """
    g0 = StableGraph(genera, legs, edges)
    marking, v = len(legs), legs[-1]
    legs_v = g0.legs_at(v)
    hes_v = g0.half_edges_at(v)
    if genera[v] != 0 or len(legs_v) + len(hes_v) != 3:
        raise NotImplementedError(
            "forgetting this point contracts a component: " + str(error)
        ) from error
    kappa_v, blocks_v = decor[v]
    if kappa_v or blocks_v:
        return None  # positive-degree classes vanish on the point factor
    e, s = hes_v[0]
    graph, vmap, hemap = _contract_edge(g0, e)
    point_map = {he: ("h",) + img for he, img in hemap.items()}
    # the neighbour's branch point goes to the other edge, whose side at v
    # now sits at the neighbour, or to the leg that moves over
    if len(hes_v) == 2:
        point_map[(e, 1 - s)] = ("h",) + hemap[hes_v[1]]
    else:
        point_map[(e, 1 - s)] = ("m", next(m for m in legs_v if m != marking))
    new_graph = StableGraph(graph.genera, graph.legs[:-1], graph.edges)
    # v carries no class, so every other vertex keeps its decoration with
    # its points renamed; a renamed point is a singleton block and meets
    # no other block
    new_decor = [((), ())] * new_graph.n_vertices
    for w, (kappa, blocks) in enumerate(decor):
        if w != v:
            new_decor[vmap[w]] = (kappa, tuple(sorted(
                (tuple(point_map[p[1:]] if p[0] == "h" else p for p in pts), a)
                for pts, a in blocks)))
    return new_graph, tuple(new_decor)


def pushforward_forget(c: TautClass, count: int = 1) -> TautClass:
    """Forget the last ``count`` markings, last one first, in passes of
    :func:`_forget_pass`: one pass for a weight-one marking, and one for
    each run of other markings, which must be light (:func:`_check_light`).
    The count and the final target space, and with it every space on the
    way, are checked before any term is read."""
    weights = c.weights.weights
    n = len(weights)
    if not 0 <= count <= n:
        raise PreconditionError("0 <= count <= n", f"count={count}, n={n}")
    stop = n - count
    check_stable(c.genus, WeightData(weights[:stop]))
    while n > stop:
        top = n
        if weights[n - 1] == 1:
            n -= 1
        else:
            while n > stop and weights[n - 1] != 1:
                n -= 1
            _check_light(c.weights, top - n)
        c = _forget_pass(c, top - n)
    return c


# ---------------------------------------------------------------------------
# Chern classes of the dual of the restriction bundle
# ---------------------------------------------------------------------------


def _pick_counts(s_max: int, a_max: int) -> tuple:
    """``(T, N)`` of :func:`chern_neg_Bd` for ``s <= s_max`` and
    ``a <= a_max``, with ``N[1][0] = 1`` for a lone point."""
    T = [[1] + [0] * a_max]
    for s in range(1, s_max + 1):
        row = [1]
        for a in range(1, a_max + 1):
            row.append(T[s - 1][a] + s * row[a - 1])
        T.append(row)
    N = [[0] * (a_max + 1)]
    for s in range(1, s_max + 1):
        N.append([T[s][a] - sum(comb(s - 1, k - 1) * N[k][b] * T[s - k][a - b]
                                for k in range(1, s) for b in range(a + 1))
                  for a in range(a_max + 1)])
    return T, N


def chern_neg_Bd(
    d: int, t_order: int, genus: int, weights: WeightData
) -> dict:
    """Graded pieces ``c_j`` of ``prod_i 1/(1 - psi_{n+i} - sum_{j<i} D_{ji})``.

    Here ``D_{ji}`` is the normal-form generator ``D_{{j,i},1}``, minus
    the class of the diagonal.  The last ``d`` markings of ``weights`` carry
    the bundle.  Returns ``{j: TautClass}`` for ``j <= t_order``, on the
    smooth graph with integer coefficients.

    A monomial of the expansion picks for each point ``i`` a sequence of
    partners ``j <= i`` (``psi_i`` for ``j = i``, ``D_{ji}`` for
    ``j < i``).  Each connected component ``S`` of the picks, with ``a``
    picks, is the block ``D_{S,a}``.  So ``c_j`` sums ``prod N(|S_k|, a_k)``
    over sets of disjoint blocks with ``sum a_k = j``, where ``N(s, a)``
    counts the connected configurations of ``a`` picks on ``s`` ordered
    points.  All configurations number ``T(s, a) = h_a(1..s) = S(s+a, s)``
    (Stirling, second kind), ``T(s, a) = T(s-1, a) + s T(s, a-1)``, and
    splitting off the first point's component gives ``N(s, a) = T(s, a) -
    sum_{k<s} C(s-1, k-1) sum_b N(k, b) T(s-k, a-b)``.  A block of two or
    more markings that weighs more than one is zero, and a product only
    grows blocks, so a configuration survives exactly when no block is
    that heavy: heavy blocks are skipped.  Each output term is placed once.
    """
    if not 0 <= d <= weights.n:
        raise PreconditionError("0 <= d <= n", f"d={d}, n={weights.n}")
    if t_order < 0:
        raise PreconditionError("t_order >= 0", f"t_order={t_order}")
    check_stable(genus, weights)
    n = weights.n - d
    _, count = _pick_counts(d, t_order)
    # every light block once, as (bit mask, [((points, a), N), ...]) under
    # the index of its first point, so its terms share its tuples
    starts = [[] for _ in range(d)]
    for mask in range(1, 1 << d):
        pts = tuple(("m", n + k + 1) for k in range(d) if mask >> k & 1)
        if len(pts) == 1 or not weights.heavy(pts):
            starts[(mask & -mask).bit_length() - 1].append((mask, [
                ((pts, a), count[len(pts)][a])
                for a in range(max(len(pts) - 1, 1), t_order + 1)]))
    graph = smooth_graph(genus, weights.n)
    shape = (graph.genera, graph.legs, graph.edges)
    total = [{} for _ in range(t_order + 1)]
    # (free points, first start allowed, blocks, degree, count): the next
    # block starts at a free point after every earlier start, so blocks
    # come sorted and each set of blocks comes once.  A stack, not a
    # recursive closure: that would be a reference cycle holding ``total``
    # until the cyclic collector runs, which raised the peak RSS of
    # repeated calls.
    stack = [((1 << d) - 1, 0, (), 0, 1)]
    while stack:
        free, start, blocks, degree, coeff = stack.pop()
        total[degree][shape + ((((), blocks),),)] = Fraction(coeff)
        for k in range(start, d):
            for mask, choices in starts[k]:
                if mask & free == mask:
                    for block, c in choices:
                        if degree + block[1] > t_order:
                            break
                        stack.append((free & ~mask, k + 1, blocks + (block,),
                                      degree + block[1], coeff * c))
    return {j: TautClass(genus, weights, terms)
            for j, terms in enumerate(total)}


# ---------------------------------------------------------------------------
# Exact linear algebra over the generator basis
# ---------------------------------------------------------------------------


def to_vector(classes: list) -> tuple:
    """Coordinates of homogeneous classes in the shared generator basis.

    Returns ``(basis, rows)`` where ``basis`` is the sorted list of term
    keys and ``rows`` the coefficient vectors.  All classes must be
    homogeneous of the same codimension on the same space.
    """
    if not classes:
        return [], []
    first = classes[0]
    codims = set()
    for c in classes:
        first._check_compatible(c)
        codims |= c.codims()
    if len(codims) > 1:
        raise ValueError("mixed codimension")
    basis = sorted({k for c in classes for k in c.terms})
    rows = [
        [c.terms.get(k, Fraction(0)) for k in basis] for c in classes
    ]
    return basis, rows


def matrix_rank(rows: list) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    if not rows:
        return 0
    mat = []
    for row in rows:
        nums = numerators(dict(enumerate(row)))[1]
        mat.append([nums.get(j, 0) for j in range(len(row))])
    m, n = len(mat), len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(row + 1, m):
            for c2 in range(col + 1, n):
                mat[r][c2] = (
                    mat[row][col] * mat[r][c2] - mat[r][col] * mat[row][c2]
                ) // prev
            mat[r][col] = 0
        prev = mat[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank
