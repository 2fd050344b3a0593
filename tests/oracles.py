"""Test-only reference code shared by several test files.

* ``oracle_normal_form`` reduces a raw word by merging one generator at a
  time into a block list and cleaning the list at the end.  The library
  reduces a word by multiplying stored decorations
  (``classes._vertex_product``); this older route is kept here so that the
  word oracles stay independent of it.
* ``decor_words`` rebuilds raw words from a stored decoration, so that
  the word oracles can multiply stored decorations too.
* ``oracle_check_stored`` checks a stored decoration by the round trip the
  library used before ``classes._check_stored`` stated the rules itself:
  rebuild its words and reduce them again.
* ``relabelled`` applies a vertex relabelling to a stable graph.
* ``oracle_substitute`` substitutes series term by term: one product per
  source term and image power, each power by binary powering.  The library
  groups the terms and sums the powers of the last image on packed integers
  (``Series.substitute``); this older route is its reference.
* ``restrict_codim`` and ``max_edges_part`` keep the terms of a class up to
  a codimension and up to a number of edges.
* ``graph_isos`` lists every isomorphism between two stable graphs, from
  the relabellings that ``StableGraph.vertex_maps`` and
  ``StableGraph.half_edge_maps`` yield, and ``iso_set`` puts a list of
  isomorphisms in a comparable order.
* ``divisor_product`` multiplies two boundary divisors decorated by
  half-edge psi powers by excess intersection, and ``divisor_exp_check``
  compares the boundary exponential expanded with it against the graph sum
  with the per-edge factor ``_edge_factor``.  The library reaches the
  boundary through graph sums with edge kernels only; this second route is
  their reference.
* ``edge_series_uy`` is the edge kernel in the ``(u, y)`` chart, built from
  ``catalog.uy_expansion``; its coefficients are a golden digest.
* ``_hpsi_decor`` places half-edge psi powers into the stored decoration
  of a whole graph, and ``edge_terms`` turns an edge kernel into terms on
  a whole graph, term by term, through it.  The library packs each kernel
  once per local type, its rows labelled by their two psi powers
  (``relations._edge_kernel``), and writes a term's half-edge blocks only
  when the graph sum is done (``relations._label_decor``); the reference
  graph sum builds every kernel term by term instead.
* ``oracle_decor_product`` multiplies two stored decorations of a whole
  graph, ``classes._vertex_product`` vertex by vertex.  The library's
  decorated series live on one vertex and multiply with
  ``_vertex_product`` directly; the reference graph sum places every
  factor in the whole graph and multiplies with this product.
* ``oracle_packed`` and ``oracle_unpacked`` pack exponent tuples into
  keys one field at a time, and read the fields of the keys back with the
  floor check, as ``Series.__mul__`` and ``Series._graded`` once did
  inline.  The library packs and unpacks through ``Ring._packed`` and
  ``Ring._unpacked``.
* ``oracle_divide_exact`` is exact long division with ``Fraction``
  arithmetic, one multiply and subtract per divisor term.  The library
  divides on integer numerators over one common denominator
  (``Series.divide_exact``).
* ``oracle_locality_series`` builds ``P^{ij}``, ``E^{ij}`` and their
  numerators with one numerator, two products and one division per sign
  pair.  The library builds them from two products and two divisions by
  the sign and swap symmetry (``catalog.locality_series``).
* ``oracle_chern_recurrence`` builds the point-bundle Chern classes one
  factor at a time by the recurrence ``c_j += base * c_{j-1}``, one
  stored vertex product per term and single factor.  The library places
  the output blocks directly with their counts (``classes.chern_neg_Bd``).
* ``weight_reduce`` restricts a class to lower weights by dropping the
  terms whose graphs become unstable.  No command of the library reduces
  weights.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush

from tautrels.catalog import (ZETA, _edge_quotient, _exp_of_minus_sum,
                              phi_family, uy_expansion)
from tautrels.classes import (TautClass, _contract_edge, _decor_codim,
                              _factor_decor, _from_numerators,
                              _vertex_product)
from tautrels.graphs import (StableGraph, WeightData, enumerate_graphs,
                             smooth_graph)
from tautrels.series import (FloorUnderflow, NotDivisible, Ring, Series,
                             VarSpec, embed)


def _merge_block(blocks: list, points: tuple, a: int) -> None:
    """Merge the generator D_{points, a} into the running block list."""
    points = set(points)
    keep = []
    for other_points, b in blocks:
        if points & set(other_points):
            points |= set(other_points)
            a += b
        else:
            keep.append((other_points, b))
    keep.append((tuple(sorted(points)), a))
    blocks[:] = keep


def oracle_normal_form(graph, weights, vertex, word):
    """``(coefficient, kappa, blocks)`` of a raw word at one vertex, or
    ``None`` if it is zero; the factors are those of
    ``classes.normal_form``."""
    coeff = Fraction(1)
    kappa: list = []
    blocks: list = []
    for factor in word:
        kind = factor[0]
        if kind == "kappa":
            j = factor[1]
            if j < 0:
                return None
            if j == 0:
                coeff *= 2 * graph.genera[vertex] - 2
                if coeff == 0:
                    return None
                continue
            kappa.append(j)
        elif kind == "psi":
            _, i, k = factor
            if k:
                _merge_block(blocks, (("m", i),), k)
        elif kind == "hpsi":
            _, he, k = factor
            if k:
                _merge_block(blocks, (("h", he[0], he[1]),), k)
        elif kind == "diag":
            s = tuple(sorted(factor[1]))
            coeff *= (-1) ** (len(s) - 1)
            _merge_block(blocks, tuple(("m", i) for i in s), len(s) - 1)
        elif kind == "Dsa":
            _, s, a = factor
            _merge_block(blocks, tuple(("m", i) for i in sorted(s)), a)
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    cleaned = []
    for points, a in blocks:
        if a == 0 and len(points) == 1:
            continue
        n_half = sum(1 for p in points if p[0] == "h")
        if n_half and len(points) > 1:
            raise ValueError("half-edge psi classes cannot join a diagonal block")
        if a < len(points) - 1:
            raise ValueError("block exponent below |S| - 1")
        markings = [p[1] for p in points if p[0] == "m"]
        if len(markings) >= 2 and weights.subset_weight(markings) > 1:
            return None
        cleaned.append((points, a))
    return coeff, tuple(sorted(kappa)), tuple(sorted(cleaned))


def oracle_words_normal_form(graph, weights, words, coeff):
    """``(decoration, coefficient)`` of one raw word per vertex, reduced
    with ``oracle_normal_form``, or ``None`` if the product is zero."""
    coeff = Fraction(coeff)
    decor = []
    for v in range(graph.n_vertices):
        nf = oracle_normal_form(graph, weights, v, words[v])
        if nf is None:
            return None
        c, kappa, blocks = nf
        coeff *= c
        decor.append((kappa, blocks))
    return tuple(decor), coeff


def oracle_add_words(c, graph, words, coeff) -> None:
    """Add ``coeff`` times the raw words ``words`` on ``graph`` to the
    class ``c``, reduced with ``oracle_normal_form``."""
    reduced = oracle_words_normal_form(graph, c.weights, words, coeff)
    if reduced is not None:
        c.add_term(graph, *reduced)


def decor_words(decor: tuple) -> list:
    """Rebuild raw words from a stored decoration: per vertex its kappa
    factors, then a half-edge psi power for a half-edge singleton and
    ``D_{S, a}`` for every other block."""
    return [
        [("kappa", j) for j in kappa] + [
            ("hpsi", pts[0][1:], a) if len(pts) == 1 and pts[0][0] == "h"
            else ("Dsa", tuple(p[1] for p in pts), a)
            for pts, a in blocks
        ]
        for kappa, blocks in decor
    ]


def oracle_check_stored(graph, weights, decor) -> bool:
    """Whether ``decor`` is a stored decoration of ``graph``: every point
    sits at its own vertex, and reducing the decoration's words with
    ``oracle_words_normal_form`` gives the decoration back with
    coefficient 1."""
    for v, (_, blocks) in enumerate(decor):
        here = {("m", i) for i in graph.legs_at(v)}
        here.update(("h",) + he for he in graph.half_edges_at(v))
        if any(p not in here for pts, _ in blocks for p in pts):
            return False
    try:
        reduced = oracle_words_normal_form(graph, weights, decor_words(decor),
                                           1)
    except ValueError:  # a block exponent below |S| - 1
        return False
    return reduced == (decor, 1)


def relabelled(graph, perm: tuple):
    """``graph`` with vertex v relabelled ``perm[v]``."""
    genera = [0] * graph.n_vertices
    for v, g in enumerate(graph.genera):
        genera[perm[v]] = g
    legs = tuple(perm[v] for v in graph.legs)
    edges = tuple(
        sorted(tuple(sorted((perm[a], perm[b]))) for a, b in graph.edges)
    )
    return StableGraph(tuple(genera), legs, edges)


def oracle_substitute(f, assignment: dict):
    """``f.substitute(assignment)`` for an assignment of series and the
    signs +1 and -1, summed term by term in the target ring."""
    ring = f.ring
    coeffs = dict(f.coeffs)
    subs = {}
    for name, v in assignment.items():
        if isinstance(v, Series):
            subs[ring.index[name]] = v
        elif v == -1:
            i = ring.index[name]
            coeffs = {e: -c if e[i] % 2 else c for e, c in coeffs.items()}
    if not subs:
        return Series(ring, coeffs)
    target = next(iter(subs.values())).ring
    keep = [i for i in range(ring.nvars) if i not in subs]
    total = target.zero()
    for e, c in coeffs.items():
        piece = target.monomial(c, **{ring.specs[i].name: e[i] for i in keep})
        for i, image in subs.items():
            if e[i]:
                piece = piece * image ** e[i]
        total = total + piece
    return total


def restrict_codim(c, max_codim: int):
    """The terms of ``c`` of codimension at most ``max_codim``."""
    out = {}
    for key, coeff in c.terms.items():
        _, _, edges, decor = key
        if _decor_codim(edges, decor) <= max_codim:
            out[key] = coeff
    return TautClass(c.genus, c.weights, out)


def max_edges_part(c, max_edges: int):
    """The terms of ``c`` whose graphs have at most ``max_edges`` edges."""
    out = {k: coeff for k, coeff in c.terms.items() if len(k[2]) <= max_edges}
    return TautClass(c.genus, c.weights, out)


def graph_isos(g1: StableGraph, g2: StableGraph) -> list:
    """All isomorphisms g1 -> g2 as (vertex map, half-edge map) pairs."""
    return [
        (perm, hemap)
        for perm in g1.vertex_maps(g2.genera)
        if tuple(perm[v] for v in g1.legs) == g2.legs
        for edges, hemap in g1.half_edge_maps(perm)
        if edges == g2.edges
    ]


def iso_set(isos) -> list:
    """``(vertex map, half-edge map)`` pairs as a sorted list, so that two
    lists of isomorphisms compare equal when they hold the same maps."""
    return sorted((perm, sorted(hemap.items())) for perm, hemap in isos)


def _edge_decor(term_key: tuple) -> dict:
    """psi powers at the two half-edges of a one-edge term."""
    genera, legs, edges, decor = term_key
    powers = {}
    for v, (kappa, blocks) in enumerate(decor):
        if kappa:
            raise ValueError("divisor-shaped input cannot carry kappa classes")
        for pts, a in blocks:
            if len(pts) != 1 or pts[0][0] != "h":
                raise ValueError(
                    "divisor-shaped input may only carry half-edge psi powers"
                )
            powers[(pts[0][1], pts[0][2])] = a
    return powers


def _hpsi_decor(graph: StableGraph, powers: dict) -> tuple:
    """The stored decoration of the half-edge psi powers ``{(e, s): p}``,
    each at the vertex that half-edge ``(e, s)`` lies on."""
    blocks = [[] for _ in range(graph.n_vertices)]
    for (e, s), p in sorted(powers.items()):
        if p:
            blocks[graph.edges[e][s]].append(((("h", e, s),), p))
    return tuple(((), tuple(b)) for b in blocks)


def divisor_product(ca: TautClass, cb: TautClass, graph_pool=None) -> TautClass:
    """Product of two boundary-divisor classes decorated by half-edge psi's.

    Implements the excess-intersection rule: for each two-edge graph and
    each ordered pair of its edges whose one-edge contractions match the
    factors, a transversal term weighted by ``1/|Aut|`` summed over all
    matching isomorphisms; and for coinciding one-edge supports an excess
    term with the extra factor ``-(psi_1 + psi_2)``, likewise summed over
    isomorphisms with weight ``1/|Aut|``.
    """
    ca._check_compatible(cb)
    if graph_pool is None:
        graph_pool = enumerate_graphs(ca.genus, ca.weights, 2)
    two_edge = [g for g in graph_pool if g.n_edges == 2]
    contractions = []
    for graph in two_edge:
        aut = graph.automorphism_order()
        for e_keep, e_con in ((0, 1), (1, 0)):
            contracted, vmap, hemap = _contract_edge(graph, e_con)
            contractions.append((graph, aut, e_keep, contracted, hemap))
    out = TautClass(ca.genus, ca.weights)
    for key_a, coeff_a in ca.terms.items():
        graph_a = StableGraph(key_a[0], key_a[1], key_a[2])
        if graph_a.n_edges != 1:
            raise ValueError("divisor_product needs one-edge inputs")
        pow_a = _edge_decor(key_a)
        for key_b, coeff_b in cb.terms.items():
            graph_b = StableGraph(key_b[0], key_b[1], key_b[2])
            if graph_b.n_edges != 1:
                raise ValueError("divisor_product needs one-edge inputs")
            pow_b = _edge_decor(key_b)
            coeff = coeff_a * coeff_b
            # transversal structures
            for graph, aut, e_keep, con_a, hemap_a in contractions:
                isos_a = graph_isos(graph_a, con_a)
                if not isos_a:
                    continue
                e_other = 1 - e_keep
                con_b, _, hemap_b = _contract_edge(graph, e_keep)
                isos_b = graph_isos(graph_b, con_b)
                if not isos_b:
                    continue
                inv_a = {v: k for k, v in hemap_a.items()}
                inv_b = {v: k for k, v in hemap_b.items()}
                for _, hm_a in isos_a:
                    for _, hm_b in isos_b:
                        word = {}
                        for (e, s), a_pow in pow_a.items():
                            he = inv_a[hm_a[(e, s)]]
                            word[he] = word.get(he, 0) + a_pow
                        for (e, s), b_pow in pow_b.items():
                            he = inv_b[hm_b[(e, s)]]
                            word[he] = word.get(he, 0) + b_pow
                        out.add_term(
                            graph, _hpsi_decor(graph, word), coeff / aut
                        )
            # excess structures
            isos = graph_isos(graph_a, graph_b)
            if isos:
                aut_b = graph_b.automorphism_order()
                isos_bb = graph_isos(graph_b, graph_b)
                for _, hm_ab in isos:
                    for _, hm_bb in isos_bb:
                        powers = {}
                        for (e, s), a_pow in pow_a.items():
                            t = hm_ab[(e, s)]
                            powers[t] = powers.get(t, 0) + a_pow
                        for (e, s), b_pow in pow_b.items():
                            t = hm_bb[(e, s)]
                            powers[t] = powers.get(t, 0) + b_pow
                        for excess_side in (0, 1):
                            ep = dict(powers)
                            ep[(0, excess_side)] = ep.get((0, excess_side), 0) + 1
                            out.add_term(
                                graph_b, _hpsi_decor(graph_b, ep),
                                -coeff / aut_b
                            )
    return out


def _edge_factor(f_poly: dict, max_codim: int) -> Series:
    """The per-edge factor ``(exp(-f s) - 1) / (-s)`` of
    :func:`divisor_exp_check`, with ``s = p1 + p2``, in ``p1`` and ``p2`` up
    to ``max_codim``; ``p1`` and ``p2`` stand for the psi classes at the two
    sides of an edge.

    Dividing the truncated exponential by ``-s`` is exact below total degree
    ``T - 1`` for the truncation order ``T``, so the division runs in a ring
    padded by ``max_codim + 1`` layers in each variable and the quotient is
    cut back to exponents up to ``max_codim``.
    """
    padded = Ring([VarSpec("p1", 0, 2 * max_codim + 2),
                   VarSpec("p2", 0, 2 * max_codim + 2)])
    ring = Ring([VarSpec("p1", 0, max_codim + 1),
                 VarSpec("p2", 0, max_codim + 1)])
    f = padded.series(f_poly)
    minus_s = -(padded.var("p1") + padded.var("p2"))
    return embed(((f * minus_s).exp() - 1).divide_exact(minus_s), ring)


def divisor_exp_check(
    genus: int,
    weights: WeightData,
    f_poly: dict,
    max_codim: int = 2,
) -> tuple:
    """Compare the two sides of the boundary-exponential identity.

    ``f_poly`` maps ``(i, j)`` to the rational coefficient of
    ``psi_1^i psi_2^j`` in a symmetric polynomial ``f``.  The left side is
    ``exp(sum_D 1/|Aut D| xi_D*(f))`` expanded with ``divisor_product``,
    the right side the graph sum with per-edge factor
    ``(exp(-f (psi_1+psi_2)) - 1)/(-(psi_1+psi_2))``, both truncated to
    codimension ``max_codim`` (which keeps at most two edges).

    Returns ``(lhs, rhs)`` as TautClass values.
    """
    if max_codim > 2:
        raise ValueError("truncation beyond codimension 2 is not supported")
    # a term of psi-degree above max_codim has codimension above it
    f_poly = {k: c for k, c in f_poly.items() if sum(k) <= max_codim}
    pool = enumerate_graphs(genus, weights, 2)

    big = TautClass(genus, weights)
    for graph in pool:
        if graph.n_edges == 1:
            weight = Fraction(1, graph.automorphism_order())
            for (i, j), coeff in f_poly.items():
                big.add_term(graph, _hpsi_decor(
                    graph, {(0, 0): i, (0, 1): j}), coeff * weight)
    big = restrict_codim(big, max_codim)
    lhs = TautClass.one(genus, weights) + big
    square = divisor_product(big, big, graph_pool=pool)
    lhs = lhs + restrict_codim(square, max_codim).scale(Fraction(1, 2))

    edge_factor = list(_edge_factor(f_poly, max_codim).terms())
    rhs = TautClass.one(genus, weights)
    for graph in pool:
        if graph.n_edges == 0:
            continue
        weight = Fraction(1, graph.automorphism_order())
        for combo in itertools.product(edge_factor, repeat=graph.n_edges):
            if graph.n_edges + sum(i + j for (i, j), _ in combo) > max_codim:
                continue
            coeff = weight
            powers = {}
            for e, ((i, j), c) in enumerate(combo):
                coeff *= c
                powers[e, 0], powers[e, 1] = i, j
            rhs.add_term(graph, _hpsi_decor(graph, powers), coeff)
    return lhs, restrict_codim(rhs, max_codim)


@lru_cache(maxsize=None)
def edge_series_uy(z1: int, z2: int, u_order: int, y_order: int) -> Series:
    """The (u, y)-chart edge series (kind 5), from the triangular c-table
    and delta_1."""

    def build(work: int) -> tuple:
        exp_data = uy_expansion(1, work, y_order)
        return exp_data["c_series"], _exp_of_minus_sum, exp_data["delta"][1]

    return _edge_quotient(z1, z2, "u", u_order,
                          (VarSpec("y", 0, y_order + 1),), build)


def edge_terms(series: Series, ring: Ring, graph: StableGraph,
               edge: int) -> dict:
    """``{(exponents, decoration): Fraction}``: an edge series in (t[, x],
    p1, p2) at ``edge`` of ``graph``, its exponents in ``ring``, the powers
    of p1 and p2 psi powers at the edge's sides 0 and 1."""
    names = [s.name for s in series.ring.specs]
    sides = {"p1": 0, "p2": 1}
    terms = {}
    for src, c in series.terms():
        exps = [0] * ring.nvars
        powers = {}
        for name, e in zip(names, src):
            if name in sides:
                powers[edge, sides[name]] = e
            else:
                exps[ring.index[name]] = e
        terms[tuple(exps), _hpsi_decor(graph, powers)] = c
    return terms


def oracle_decor_product(weights: WeightData, d1: tuple,
                         d2: tuple) -> tuple | None:
    """The product of two stored decorations of a whole graph, or ``None``
    if it vanishes: ``classes._vertex_product`` vertex by vertex."""
    out = []
    for vd1, vd2 in zip(d1, d2):
        if (vd := _vertex_product(vd1, vd2, weights)) is None:
            return None
        out.append(vd)
    return tuple(out)


def oracle_packed(ring, nums) -> list:
    """``ring._packed(nums)``: each exponent plus its field's bias shifted
    into its field, one field at a time, with the numerators as they are."""
    bias = sum(x << shift for shift, _, x in ring._fields)
    out = []
    for exps, c in nums:
        key = bias
        for e, (shift, _, _) in zip(exps, ring._fields):
            key += e << shift
        out.append((key, c))
    return out


def oracle_unpacked(ring, acc: dict, where: str) -> dict:
    """The unpack-and-floor-check loop that ``Series.__mul__`` and
    ``Series._graded`` each ran inline: fields read by shift, mask and
    bias, every key checked against the floors before a zero numerator is
    dropped."""
    shifts, fields = ring._shifts, ring._fields
    laurent = any(s.min_exponent < 0 for s in ring.specs)
    masks = [m for _, m, _ in fields]
    biases = [x for _, _, x in fields]
    out = {}
    for k, v in acc.items():
        exps = tuple(
            ((k >> sh) & m) - x for sh, m, x in zip(shifts, masks, biases)
        )
        if laurent:
            for e, s in zip(exps, ring.specs):
                if e < s.min_exponent:
                    raise FloorUnderflow(
                        f"exponent {e} of {s.name!r} below floor "
                        f"{s.min_exponent} in {where}"
                    )
        if v:
            out[exps] = v
    return out


def oracle_divide_exact(num: Series, den: Series) -> Series:
    """``num.divide_exact(den)`` by long division with one ``Fraction``
    multiply and subtract per divisor term, from the lex-minimal remainder
    term up."""
    den = num._coerce(den)
    if den.is_zero():
        raise NotDivisible("division by zero series")
    ring = num.ring
    d0 = min(den.coeffs)
    dc = den.coeffs[d0]
    rem = dict(num.coeffs)
    heap = sorted(rem)  # rem's keys as a heap; keys that left rem are stale
    quot: dict = {}
    while rem:
        r0 = heappop(heap)
        if r0 not in rem:
            continue
        q = tuple(a - b for a, b in zip(r0, d0))
        for x, s in zip(q, ring.specs):
            if x < s.min_exponent or x >= s.trunc_order:
                raise NotDivisible(
                    f"remainder term {r0} not reducible by lead term {d0}"
                )
        qc = rem[r0] / dc
        quot[q] = quot.get(q, Fraction(0)) + qc
        for e, c in den.coeffs.items():
            exps = tuple(a + b for a, b in zip(q, e))
            if any(x >= s.trunc_order for x, s in zip(exps, ring.specs)):
                continue
            if exps not in rem:
                heappush(heap, exps)
            v = rem.get(exps, Fraction(0)) - qc * c
            if v:
                rem[exps] = v
            else:
                rem.pop(exps, None)
    return Series(ring, {e: c for e, c in quot.items() if c})


def oracle_locality_series(t_order: int, x_order: int) -> dict:
    """``catalog.locality_series`` with one numerator per sign pair: each
    twisted ``Phi'`` and ``delta`` is substituted on its own, each
    numerator takes two products and is divided by ``t1 + t2`` with
    :func:`oracle_divide_exact`, and each ``P^{ij}`` takes one product."""
    work = t_order + 1
    fam = phi_family(work, x_order)
    phi_p = fam["PhiPrime"]
    delta = fam["delta"]
    ring2 = Ring([VarSpec("t1", 0, work + 1), VarSpec("t2", 0, work + 1),
                  VarSpec("x", 0, x_order + 1)])
    out2 = Ring([VarSpec("t1", 0, t_order + 1), VarSpec("t2", 0, t_order + 1),
                 VarSpec("x", 0, x_order + 1)])
    t1, t2 = ring2.var("t1"), ring2.var("t2")
    twisted = {
        (z, name): tuple(f.substitute({"t": z * ring2.var(name)})
                         for f in (phi_p, delta))
        for z in ZETA for name in ("t1", "t2")
    }
    out_p = Ring([VarSpec("t", 0, t_order + 1), VarSpec("x", 0, x_order + 1)])
    P, E, EN = {}, {}, {}
    for i, zi in enumerate(ZETA):
        for j, zj in enumerate(ZETA):
            p_ij = ((Fraction(1, 2) - zi * zj * delta) * phi_p).substitute({"t": zi})
            P[(i, j)] = embed(p_ij, out_p)
            (phi1, delta1), (phi2, delta2) = twisted[zi, "t1"], twisted[zj, "t2"]
            num = (ring2.const(Fraction(zi + zj, 2))
                   + phi1 * phi2 * (zi * delta1 + zj * delta2))
            EN[(i, j)] = embed(num, out2)
            E[(i, j)] = embed(oracle_divide_exact(num, t1 + t2), out2)
    return {"P": P, "E": E, "E_numerator": EN, "ring2": out2}


def weight_reduce(c: TautClass, w_new: WeightData) -> TautClass:
    """Restrict a class to reduced weights.

    Kills the terms whose graphs lose vertex stability.  Every stored block
    of two or more markings weighs at most 1, and lowering weights keeps it
    so, hence no decoration becomes forbidden.
    """
    if w_new.n != c.weights.n:
        raise ValueError("weight data has wrong length")
    if any(
        w_new.weights[i] > c.weights.weights[i] for i in range(w_new.n)
    ):
        raise ValueError("weights may only decrease")
    out = TautClass(c.genus, w_new)
    for key, coeff in c.terms.items():
        genera, legs, edges, _ = key
        try:
            StableGraph(genera, legs, edges).validate(w_new, c.genus)
        except ValueError:
            continue
        out.terms[key] = coeff
    return out


def oracle_chern_recurrence(d: int, t_order: int, genus: int,
                            weights: WeightData) -> dict:
    """``{j: c_j}`` of ``prod_i 1/(1 - psi_{n+i} - sum_{j<i} D_{ji})`` for
    ``j <= t_order``, as ``classes.chern_neg_Bd`` once built them.

    Each factor ``1/(1 - base)`` is applied by ``c_j += base * c_{j-1}``
    for ``j = 1..t_order`` in increasing ``j``, so ``c_{j-1}`` already
    includes the factor when ``c_j`` is updated.  Each ``c_j`` is a dict
    ``{vertex decoration: int}`` until the end.
    """
    n = weights.n - d
    graph = smooth_graph(genus, weights.n)
    shape = (graph.genera, graph.legs, graph.edges)
    total = [{((), ()): 1}] + [{} for _ in range(t_order)]
    for i in range(1, d + 1):
        factors = [("psi", n + i, 1)]
        factors += [("Dsa", (n + j, n + i), 1) for j in range(1, i)]
        base = [single for factor in factors
                if (single := _factor_decor(factor, genus, weights))
                is not None]
        for j in range(1, t_order + 1):
            acc = total[j]
            for scalar, factor_vd in base:
                for vd1, a in total[j - 1].items():
                    vd = _vertex_product(vd1, factor_vd, weights)
                    if vd is not None:
                        acc[vd] = acc.get(vd, 0) + a * scalar
    return {j: _from_numerators(genus, weights,
                                {shape + ((vd,),): a for vd, a in c.items()},
                                1)
            for j, c in enumerate(total)}
