"""Tests for the relation constructions and the evaluation chain."""

import importlib
import pkgutil
import random
import sys
from fractions import Fraction
from functools import partial, reduce
from math import comb, factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tautrels
from tautrels import classes, relations
from tautrels.catalog import hyper_A, phi_family, series_C
from tautrels.classes import (
    TautClass,
    chern_neg_Bd,
    matrix_rank,
    pushforward_forget_small,
    to_vector,
)
from tautrels.graphs import (
    StableGraph,
    WeightData,
    enumerate_colorings,
    enumerate_graphs,
)
from tautrels.relations import (
    DecoratedSeries,
    PreconditionError,
    boundary_sq_relation,
    bracket_kappa,
    extended_fz_relation,
    fz_relation,
    open_fz_relation,
    open_sq_relation,
    pushforward_oracle,
    verify_chain,
)
from tautrels.series import Ring, VarSpec

from oracles import (_hpsi_decor, decor_words, edge_terms, max_edges_part,
                     oracle_add_words, oracle_decor_product,
                     oracle_normal_form, weight_reduce)


def smooth(genus, n):
    return StableGraph((genus,), tuple(0 for _ in range(n)), ())


def kappa_class(genus, weights, *indices):
    c = TautClass(genus, weights)
    oracle_add_words(c, smooth(genus, weights.n),
                     [[("kappa", j) for j in indices]], 1)
    return c


W0 = WeightData(())


# ---------------------------------------------------------------------------
# Decorated series products
# ---------------------------------------------------------------------------


def add_word(ds, exps, word, coeff):
    """Add ``coeff`` times the raw word ``word`` at ``exps`` into the
    one-vertex series ``ds``, reduced with ``oracle_normal_form`` at a
    vertex of genus ``ds.genus``."""
    reduced = oracle_normal_form(smooth(ds.genus, 0), ds.weights, 0, word)
    if reduced is not None:
        c, kappa, blocks = reduced
        ds.add_term(exps, (kappa, blocks), c * coeff)


def oracle_mul(a, b):
    """Reference product: every pair of terms rebuilt as raw words and
    reduced with ``oracle_normal_form``."""
    out = DecoratedSeries(a.ring, a.genus, a.weights)
    specs = a.ring.specs
    right = [(e2, decor_words((vd2,))[0], c2)
             for (e2, vd2), c2 in b.terms.items()]
    for (e1, vd1), c1 in a.terms.items():
        left = decor_words((vd1,))[0]
        for e2, word2, c2 in right:
            exps = tuple(x + y for x, y in zip(e1, e2))
            if any(e >= s.trunc_order for e, s in zip(exps, specs)):
                continue
            add_word(out, exps, left + word2, c1 * c2)
    return out


# (1/2, 2/3) kills the block {1, 2} and (1/8, 1/8) keeps it; with a third
# point of weight 1/4 the blocks {1, 3} and {2, 3} live but merge to zero
PRODUCT_WEIGHTS = [
    WeightData((Fraction(1, 2), Fraction(2, 3))),
    WeightData((Fraction(1, 8), Fraction(1, 8))),
    WeightData((Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))),
    WeightData((Fraction(1, 8),) * 3),
]
PRODUCT_GRAPHS = [
    (g, w, graph)
    for w in PRODUCT_WEIGHTS
    for g in (1, 2)
    for graph in enumerate_graphs(g, w, 2)
]


@st.composite
def vertex_words(draw, graph, v):
    """A raw word at ``v``: kappa factors, psi powers at its markings and
    half-edges, and at most one diagonal block of its markings."""
    word = [("kappa", j) for j in draw(st.lists(st.integers(1, 2),
                                                max_size=2))]
    markings = graph.legs_at(v)
    for i in markings:
        word.append(("psi", i, draw(st.integers(0, 2))))
    for he in graph.half_edges_at(v):
        word.append(("hpsi", he, draw(st.integers(0, 2))))
    if len(markings) >= 2 and draw(st.booleans()):
        block = draw(st.lists(st.sampled_from(markings), min_size=2,
                              max_size=len(markings), unique=True))
        word.append(("Dsa", tuple(sorted(block)),
                     len(block) - 1 + draw(st.integers(0, 1))))
    return word


@st.composite
def product_operands(draw):
    """Two series at one vertex of a graph of ``PRODUCT_GRAPHS``, of its
    genus, with words in its markings and half-edges."""
    _, weights, graph = draw(st.sampled_from(PRODUCT_GRAPHS))
    v = draw(st.integers(0, graph.n_vertices - 1))
    ring = Ring([VarSpec("t", 0, draw(st.integers(1, 4))),
                 VarSpec("x", 0, draw(st.integers(1, 3)))])
    coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                             st.sampled_from([1, 2, 3, 4, 9]))

    def series():
        ds = DecoratedSeries(ring, graph.genera[v], weights)
        for _ in range(draw(st.integers(0, 5))):
            exps = tuple(draw(st.integers(0, s.trunc_order - 1))
                         for s in ring.specs)
            add_word(ds, exps, draw(vertex_words(graph, v)),
                     draw(coefficients))
        return ds

    a, b = series(), series()
    if draw(st.booleans()):
        # (a + b)(a - b): the cross terms a*b and -b*a cancel pairwise
        a, b = a + b, a + b.scale(-1)
    return a, b


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_product_matches_word_oracle(operands):
    a, b = operands
    assert (a * b).terms == oracle_mul(a, b).terms
    assert (b * a).terms == oracle_mul(b, a).terms


def test_product_memo_tells_weights_apart():
    # D_{13,1} D_{23,1} = D_{123,2}, which the weights (1/2, 2/3, 1/4) kill
    ring = Ring([VarSpec("t", 0, 2)])
    for weights in (PRODUCT_WEIGHTS[3], PRODUCT_WEIGHTS[2],
                    PRODUCT_WEIGHTS[3]):
        a = DecoratedSeries(ring, 1, weights)
        b = DecoratedSeries(ring, 1, weights)
        add_word(a, (0,), [("Dsa", (1, 3), 1)], Fraction(1, 3))
        add_word(b, (1,), [("Dsa", (2, 3), 1)], Fraction(3, 2))
        product = a * b
        assert product.terms == oracle_mul(a, b).terms
        assert bool(product.terms) == (weights == PRODUCT_WEIGHTS[3])


def test_decorated_series_rejects_a_negative_floor():
    ring = Ring([VarSpec("t", 0, 3), VarSpec("x", -1, 2)])
    with pytest.raises(ValueError, match="decorated series need floor 0"):
        DecoratedSeries(ring, 2, W0)


def oracle_exp(f):
    """``sum_k f^k / k!`` as a ``{(exps, decor): Fraction}`` dict, each
    power by ``oracle_mul``."""
    total = dict(DecoratedSeries.one(f.ring, f.genus, f.weights).terms)
    power, k = f, 1
    while power.terms:
        for key, c in power.terms.items():
            total[key] = total.get(key, 0) + c / factorial(k)
        power = oracle_mul(power, f)
        k += 1
    return {key: c for key, c in total.items() if c}


@settings(max_examples=150, deadline=None)
@given(product_operands())
def test_exp_matches_power_sum(operands):
    a, _ = operands
    f = DecoratedSeries(a.ring, a.genus, a.weights)
    f.add_terms((exps, decor, c) for (exps, decor), c in a.terms.items()
                if any(exps))
    assert f.exp().terms == oracle_exp(f)
    if f.terms != a.terms:
        # a term at t^0 x^0, of degree 0 or not, would never die out
        with pytest.raises(ValueError, match="scalar degree zero"):
            a.exp()


def test_exp_rejects_scalar_degree_zero():
    ring = Ring([VarSpec("t", 0, 3)])
    for vd in (((), ()), ((1,), ())):  # 1 and kappa_1 at t^0
        ds = DecoratedSeries(ring, 2, W0)
        ds.add_term((1,), ((), ()), 1)
        ds.add_term((0,), vd, 1)
        with pytest.raises(ValueError, match="scalar degree zero"):
            ds.exp()


def oracle_add_terms(ds, triples):
    """``ds.terms`` after adding ``triples`` on Fraction dicts, or the
    ValueError of an exponent below the floor."""
    if any(e < 0 for exps, _, _ in triples for e in exps):
        return ValueError
    out = dict(ds.terms)
    for exps, decor, c in triples:
        if all(e < s.trunc_order for e, s in zip(exps, ds.ring.specs)):
            out[exps, decor] = out.get((exps, decor), 0) + Fraction(c)
    return {key: c for key, c in out.items() if c}


@st.composite
def added_terms(draw):
    """A series and triples to add into it: repeated keys, triples that
    cancel, exponents at their truncation order and below the floor."""
    a, b = draw(product_operands())
    pool = list({**a.terms, **b.terms}) or [
        (tuple(0 for _ in a.ring.specs), ((), ()))]
    low = draw(st.sampled_from([0, 0, 0, -1]))
    triples = []
    for _ in range(draw(st.integers(0, 8))):
        exps, decor = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            exps = tuple(draw(st.integers(low, s.trunc_order))
                         for s in a.ring.specs)
        c = draw(st.builds(Fraction, st.integers(-4, 4),
                           st.sampled_from([1, 2, 3, 6])))
        triples.append((exps, decor, c))
        if draw(st.booleans()):
            triples.append((exps, decor, -c))
    return a, triples


@settings(max_examples=300, deadline=None)
@given(added_terms())
def test_add_terms_matches_fraction_oracle(case):
    ds, triples = case
    expected = oracle_add_terms(ds, triples)
    if expected is ValueError:
        with pytest.raises(ValueError, match="below ring floor"):
            ds.add_terms(triples)
        return
    ds.add_terms(triples)
    assert ds.terms == expected
    assert all(row and all(row.values()) for row in ds.rows.values())


@settings(max_examples=100, deadline=None)
@given(product_operands())
def test_terms_round_trip(operands):
    for ds in operands:
        again = DecoratedSeries(ds.ring, ds.genus, ds.weights)
        again.add_terms((exps, decor, c)
                        for (exps, decor), c in ds.terms.items())
        assert again.terms == ds.terms
        assert ds.rows.keys() == again.rows.keys()
        for decor, row in ds.rows.items():
            assert row.keys() == again.rows[decor].keys()


def test_extract_outside_the_window_is_zero():
    # t < 5, x < 3: the packed t field overflows at t = 16 and would read
    # as t^0 x^1 if the target were packed before the window check
    ring = Ring([VarSpec("t", 0, 5), VarSpec("x", 0, 3)])
    ds = DecoratedSeries(ring, 2, W0)
    for t in range(5):
        for x in range(3):
            ds.add_term((t, x), ((1,), ()), 1 + t + 5 * x)
    for t in range(5):
        for x in range(3):
            assert ds.extract(t=t, x=x) == kappa_class(2, W0, 1).scale(
                1 + t + 5 * x)
    for t, x in [(5, 0), (16, 0), (0, 3), (4, 3), (-1, 1), (1, -1)]:
        assert ds.extract(t=t, x=x).is_zero, (t, x)


def test_graph_sum_builds_each_factor_once(monkeypatch):
    """On fz g=2 r=3 with two 1/8 markings, both in S, each vertex factor
    is built once per local type (order, genus, legs, zeta) and each edge
    kernel once per (order, zeta_a, zeta_b), across the whole sum."""
    weights = WeightData((Fraction(1, 8),) * 2)
    expected = fz_relation(2, weights, 3, (1, 2))
    vertex_calls, kernel_calls = [], []
    build_vertex = relations._fz_vertex_factor
    edge_series = relations.delta_edge

    def vertex_factor(ring, genus, weights, markings, zeta, S):
        vertex_calls.append((ring.spec("t").trunc_order - 1, genus,
                             markings, zeta))
        return build_vertex(ring, genus, weights, markings, zeta, S)

    def kernel_series(z1, z2, order):
        kernel_calls.append((order, z1, z2))
        return edge_series(z1, z2, order)

    monkeypatch.setattr(relations, "_fz_vertex_factor", vertex_factor)
    monkeypatch.setattr(relations, "delta_edge", kernel_series)
    assert fz_relation(2, weights, 3, (1, 2)) == expected

    vertices, kernels = set(), set()
    for graph in enumerate_graphs(2, weights, 3):
        order = 3 - graph.n_edges
        for coloring in enumerate_colorings(graph):
            vertices |= {(order, graph.genera[v], tuple(graph.legs_at(v)), z)
                         for v, z in enumerate(coloring)}
            kernels |= {(order, coloring[va], coloring[vb])
                        for va, vb in graph.edges}
    # legs tell apart vertices of one genus, order and colour
    assert len(vertices) > len({(o, g, z) for o, g, _, z in vertices})
    assert kernels
    assert len(vertex_calls) == len(vertices)
    assert set(vertex_calls) == vertices
    assert len(kernel_calls) == len(kernels)
    assert set(kernel_calls) == kernels


def oracle_terms_product(ring, weights, a, b):
    """The truncated product of two ``{(exponents, decoration): Fraction}``
    dicts on a whole graph, each pair of decorations multiplied by
    ``oracle_decor_product``."""
    out = {}
    for (e1, d1), c1 in a.items():
        for (e2, d2), c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            decor = oracle_decor_product(weights, d1, d2)
            if decor is not None and all(
                    e < s.trunc_order for e, s in zip(exps, ring.specs)):
                out[exps, decor] = out.get((exps, decor), 0) + c1 * c2
    return out


def oracle_graph_sum(g, weights, graphs, r, ring_of, vertex_factor,
                     edge_series):
    """Reference graph sum: every colouring's vertex factors placed at
    their vertices and edge kernels at their edges, all multiplied from
    scratch on whole-graph decorations with ``oracle_terms_product`` and
    read off at the ring's top corner."""
    total = TautClass(g, weights)
    for graph in graphs:
        order = r - graph.n_edges
        ring = ring_of(order)
        target = tuple(spec.trunc_order - 1 for spec in ring.specs)
        one = (((), ()),) * graph.n_vertices
        sums = {}
        for coloring in enumerate_colorings(graph):
            factors = []
            for v, zeta in enumerate(coloring):
                ds = vertex_factor(ring, graph.genera[v],
                                   tuple(graph.legs_at(v)), zeta)
                factors.append({(exps, one[:v] + (vd,) + one[v + 1:]): c
                                for (exps, vd), c in ds.terms.items()})
            for e, (va, vb) in enumerate(graph.edges):
                factors.append(edge_terms(
                    edge_series(coloring[va], coloring[vb], order), ring,
                    graph, e))
            product = reduce(partial(oracle_terms_product, ring, weights),
                             factors)
            for (exps, decor), c in product.items():
                if exps == target:
                    sums[decor] = sums.get(decor, 0) + c
        scale = Fraction(1, graph.automorphism_order())
        for decor, c in sums.items():
            total.add_term(graph, decor, c * scale)
    return total


F = Fraction
# unmarked, unit, 1/8 and non-generic weights (which fz_relation perturbs)
FZ_WEIGHTS = [(), (1, 1), (F(1, 8),) * 2, (F(1, 8),) * 3, (F(1, 2),) * 2,
              (1, F(1, 2), F(1, 2)), (F(1, 3),) * 3]
SQ_WEIGHTS = [(), (F(1, 10),), (F(1, 10),) * 2, (F(1, 2), F(1, 3)),
              (F(1, 2),) * 2]


def stable_genera(weights):
    return [g for g in (0, 1, 2) if 2 * g - 2 + sum(weights) > 0]


@st.composite
def fz_cases(draw):
    weights = draw(st.sampled_from(FZ_WEIGHTS))
    g = draw(st.sampled_from(stable_genera(weights)))
    S = tuple(sorted(draw(st.sets(st.integers(1, len(weights)))
                          if weights else st.just(set()))))
    r = max(1, -(-(g + 1 + len(S)) // 3))
    r += (g - 1 + r + len(S)) % 2 + 2 * draw(st.integers(0, 1))
    return fz_relation, (g, WeightData(weights), r, S,
                         draw(st.integers(0, 3)))


@st.composite
def sq_cases(draw):
    weights = draw(st.sampled_from(SQ_WEIGHTS))
    g = draw(st.sampled_from(stable_genera(weights)))
    d = draw(st.integers(0, 1))
    a = tuple(draw(st.integers(0, 1)) for _ in weights)
    r = max(0, g - 2 * d + sum(a)) + draw(st.integers(0, 1))
    return boundary_sq_relation, (
        g, WeightData(weights), r, d, a, draw(st.sampled_from((1, -1))),
        draw(st.sampled_from((1, -1))), draw(st.integers(0, 3)))


def test_graph_sum_cases_have_loops_and_multi_edges():
    # the pinned fz example below runs over these graphs
    edges = [graph.edges for graph in enumerate_graphs(2, W0, 3)]
    assert any(va == vb for es in edges for va, vb in es)
    assert any(len(set(es)) < len(es) for es in edges)


def capped_relation(case):
    """The relation of ``case``, ``(build, (*args, max_edges))``, summed
    over the graphs of at most ``max_edges`` edges."""
    build, (*args, max_edges) = case

    def capped(g, weights, cap):
        return enumerate_graphs(g, weights, min(cap, max_edges))

    with mock.patch.object(relations, "enumerate_graphs", capped):
        return build(*args)


# fz with S on the markings of the genus-0 vertex of a loop, at genus 1 with
# 1/8 weights; fz on the non-generic weights (1, 1/2, 1/2) over graphs with
# a double edge; boundary-sq with a = (1, 1) over graphs with a loop
MEETING_CASES = [
    (fz_relation, (1, WeightData((F(1, 8),) * 2), 4, (1, 2), 1)),
    (fz_relation, (1, WeightData((1, F(1, 2), F(1, 2))), 4, (2, 3), 2)),
    (boundary_sq_relation,
     (1, WeightData((F(1, 10),) * 2), 4, 1, (1, 1), 1, -1, 2)),
]


@pytest.mark.parametrize("case", MEETING_CASES,
                         ids=["fz-loop", "fz-double-edge", "sq-loop"])
def test_meeting_cases_put_both_kinds_of_block_at_one_vertex(case):
    # a marking block and a half-edge block at a vertex on a loop or on a
    # double edge, in some term of the relation
    assert any(
        {p[0] for pts, _ in blocks for p in pts} == {"m", "h"}
        and any(edges.count(ends) > 1 or ends[0] == ends[1]
                for ends in edges if v in ends)
        for _, _, edges, decor in capped_relation(case).terms
        for v, (_, blocks) in enumerate(decor))


@settings(max_examples=40, deadline=None)
@given(st.one_of(fz_cases(), sq_cases()))
@example((fz_relation, (2, W0, 3, (), 3)))
@example((fz_relation, (2, WeightData((F(1, 8),) * 2), 3, (1, 2), 2)))
@example((boundary_sq_relation,
          (2, WeightData((F(1, 10),) * 2), 3, 1, (1, 1), 1, 1, 2)))
# a factor is shared between vertices of one local type, whose key holds
# the vertex's legs: S a proper subset of markings on different vertices,
# and p exponents on one marking only
@example((fz_relation, (1, WeightData((F(1, 8),) * 3), 3, (1,), 2)))
@example((boundary_sq_relation,
          (1, WeightData((F(1, 10),) * 2), 3, 1, (1, 0), 1, 1, 2)))
# marking blocks and half-edge psi blocks at one vertex
@example(MEETING_CASES[0])
@example(MEETING_CASES[1])
@example(MEETING_CASES[2])
def test_graph_sum_matches_per_colouring_oracle(case):
    """The prefix-product graph sum equals the sum that multiplies every
    colouring's factors from scratch: fz with and without S on unit, 1/8
    and non-generic weights, and boundary-sq, whose ring has t, x and p.
    The oracle builds every factor anew for each graph and colouring."""
    with mock.patch.object(relations, "_graph_sum", oracle_graph_sum):
        expected = capped_relation(case)
    assert capped_relation(case).terms == expected.terms


def vertex_labels(graph, v):
    """Stored decorations at ``v``: kappa monomials times sets of blocks of
    the markings at ``v``, singletons and, for two markings, their pair."""
    legs = graph.legs_at(v)
    sets = [()] + [(((("m", i),), a),) for i in legs for a in (1, 2)]
    if len(legs) > 1:
        i, j = legs[:2]
        sets += [(((("m", i),), 1), ((("m", j),), 2)),
                 (((("m", i), ("m", j)), 2),)]
    return [(kappa, blocks) for kappa in ((), (1,), (1, 2)) for blocks in sets]


def test_label_decor_is_the_folded_decor_product():
    """The graph sum builds each term's decoration from its label tuple
    (``relations._label_decor``) without multiplying decorations.  That
    equals ``oracle_decor_product`` folded over the factors placed in the
    graph, a vertex label at its vertex and an edge label through
    ``_hpsi_decor``, and distinct label tuples give distinct decorations:
    on every graph of genus 2 with two 1/8 markings and at most three
    edges, and on a graph whose marked vertex has a loop and a double
    edge."""
    weights = WeightData((F(1, 8),) * 2)
    graphs = enumerate_graphs(2, weights, 3) + [
        StableGraph((0, 1), (0, 0), ((0, 0), (0, 1), (0, 1)))]
    rng = random.Random(1)
    for graph in graphs:
        n = graph.n_vertices
        trivial = (((), ()),) * n
        slots = [(v, None) for v in range(n)] + [
            (max(ends), e) for e, ends in enumerate(graph.edges)]
        choices = [vertex_labels(graph, v) for v in range(n)] + [
            [(p1, p2) for p1 in range(3) for p2 in range(3)]] * graph.n_edges
        seen = {}
        for _ in range(60):
            labels = tuple(rng.choice(c) for c in choices)
            folded = trivial
            for (v, e), label in zip(slots, labels):
                placed = (trivial[:v] + (label,) + trivial[v + 1:]
                          if e is None else
                          _hpsi_decor(graph, {(e, 0): label[0],
                                              (e, 1): label[1]}))
                folded = oracle_decor_product(weights, folded, placed)
            assert relations._label_decor(graph, slots, labels) == folded
            classes._check_stored(graph, weights, folded)
            assert seen.setdefault(folded, labels) == labels


# ---------------------------------------------------------------------------
# Smooth-space relations
# ---------------------------------------------------------------------------


class TestOpenFZ:
    def test_genus3_codim2_value(self):
        rel = open_fz_relation(3, 0, 2)
        expected = kappa_class(3, W0, 1, 1).scale(Fraction(25, 72)) + kappa_class(
            3, W0, 2
        ).scale(-5)
        assert rel == expected

    def test_inequality_enforced(self):
        with pytest.raises(PreconditionError, match=r"3r >= g\+1\+\|S\|"):
            open_fz_relation(7, 0, 2)

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError, match=r"g-1\+r\+\|S\| even"):
            open_fz_relation(3, 0, 3)

    def test_marked_relation_is_homogeneous(self):
        w = WeightData((Fraction(1, 6), Fraction(1, 6)))
        rel = open_fz_relation(3, 2, 2, (1, 2), weights=w)
        assert not rel.is_zero
        assert rel.codims() == {2}

    def test_unenforced_call_allows_extremal_probe(self):
        # used by the evaluation chain; should not raise
        rel = open_fz_relation(3, 0, 3, enforce=False)
        assert rel.codims() <= {3}

    @pytest.mark.parametrize("enforce", [True, False])
    def test_weights_of_another_length_rejected(self, enforce):
        w = WeightData((Fraction(1, 2),))
        with pytest.raises(PreconditionError, match=r"len\(weights\) == n"):
            open_fz_relation(2, 3, 3, (), weights=w, enforce=enforce)

    @pytest.mark.parametrize("g, n, r", [(4, 3, 4), (2, 4, 3)])
    def test_each_block_bracket_built_once(self, g, n, r):
        # the set partitions of S hold every nonempty subset of S as a
        # block; each one's bracket is built once, from one C series per
        # block size
        S = tuple(range(1, n + 1))
        with mock.patch.object(relations, "bracket_D",
                               wraps=relations.bracket_D) as spy, \
                mock.patch.object(relations, "series_C",
                                  wraps=relations.series_C) as sizes:
            rel = open_fz_relation(g, n, r, S)
        assert not rel.is_zero
        assert spy.call_count == 2 ** len(S) - 1
        assert len({call.args[2] for call in spy.call_args_list}) == (
            spy.call_count)
        assert sizes.call_count == len(S)


class TestOpenSQ:
    def test_even_parity_vanishes(self):
        # g + r + |a| even forces the two summands to cancel exactly
        cases = [
            (2, 2, 0, ()),
            (2, 2, 1, ()),
            (3, 3, 0, ()),
            (3, 1, 1, ()),
            (2, 1, 1, (1,)),
            (3, 2, 1, (0, 1)),
        ]
        for g, r, d, a in cases:
            n = len(a)
            w = WeightData(tuple(Fraction(1, 10) for _ in range(n)))
            assert (g + r + sum(a)) % 2 == 0
            for half_sign in (1, -1):
                for pd_sign in (1, -1):
                    rel = open_sq_relation(
                        g, w, r, d, a, half_sign=half_sign, pd_sign=pd_sign
                    )
                    assert rel.is_zero, (g, r, d, a, half_sign, pd_sign)

    def test_odd_parity_nonzero(self):
        rel = open_sq_relation(3, W0, 2, 1, ())
        assert not rel.is_zero
        assert rel.codims() == {2}

    def test_size_condition_enforced(self):
        with pytest.raises(PreconditionError, match=r"r > g-1-2d\+\|a\|"):
            open_sq_relation(3, W0, 2, 0, ())


# ---------------------------------------------------------------------------
# Graph-sum relations
# ---------------------------------------------------------------------------


class TestFZ:
    def test_genus2_divisor_relation(self):
        # the unique divisor relation: kappa_1 = (1/5) delta_irr
        # + (7/5) delta_1, with the boundary push-forwards of degree two
        rel = fz_relation(2, W0, 1)
        coeffs = {}
        for (genera, legs, edges, decor), c in rel.terms.items():
            if not edges:
                coeffs["kappa1"] = c
            elif len(genera) == 1:
                coeffs["loop"] = c
            else:
                coeffs["sep"] = c
        scale = coeffs["kappa1"]
        # stored graph terms push forward with degree 2 gluing maps
        assert 2 * coeffs["loop"] / scale == Fraction(-1, 5)
        assert 2 * coeffs["sep"] / scale == Fraction(-7, 5)

    def test_zero_edge_part_doubles_open_form(self):
        for g, n, r, S in [(3, 0, 2, ()), (4, 0, 3, ()), (2, 2, 2, (2,)),
                           (3, 2, 2, (1, 2))]:
            w = WeightData(tuple(Fraction(1, 8) for _ in range(n)))
            part = max_edges_part(fz_relation(g, w, r, S), 0)
            open_part = open_fz_relation(g, n, r, S, weights=w)
            assert part == open_part.scale(2), (g, n, r, S)

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError, match="even"):
            fz_relation(2, W0, 2)

    def test_vertex_factor_multiplies_no_one(self, monkeypatch):
        """At t-order 0 the kappa exponential is one, and the partition sum
        scales by each singleton's bracket -1 instead of multiplying by it:
        no decorated product has a multiple of one as an operand."""
        products = []
        multiply = DecoratedSeries.__mul__

        def spy(a, b):
            products.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(DecoratedSeries, "__mul__", spy)
        for g, S in [(4, (1, 2)), (3, (1, 2, 3))]:
            products.clear()
            fz_relation(g, WeightData((Fraction(1, 8),) * len(S)), 3, S)
            assert products
            for a, b in products:
                (unit,) = DecoratedSeries.one(a.ring, a.genus, a.weights).terms
                assert a.terms.keys() != {unit} and b.terms.keys() != {unit}

    def test_relation_spans_known_rank_drop(self):
        # the codimension-2 relation on the genus-3 space restricts the
        # span of the generators it involves
        rel = fz_relation(3, W0, 2)
        assert not rel.is_zero
        _, rows = to_vector([rel])
        assert matrix_rank(rows) == 1


class TestWeightReductionNaturality:
    def test_same_chamber_pairs(self):
        rng = random.Random(20260826)
        for _ in range(10):
            g = rng.choice([2, 3])
            n = rng.choice([1, 2])
            r = 2 if (g - 1 + 2) % 2 == 0 else 3
            while (g - 1 + r) % 2 != 0:
                r += 1
            hi = [Fraction(rng.randrange(1, 6), 20) for _ in range(n)]
            lo = [w / 2 for w in hi]
            w_hi, w_lo = WeightData(tuple(hi)), WeightData(tuple(lo))
            a = fz_relation(g, w_hi, r)
            b = fz_relation(g, w_lo, r)
            assert weight_reduce(a, w_lo) == b, (g, n, hi)

    def test_cross_chamber_pair(self):
        # weights (1,1) forbid the diagonal and admit fewer graphs than
        # (1/4,1/4); restriction must land exactly on the small-weight sum
        w_hi = WeightData((Fraction(1), Fraction(1)))
        w_lo = WeightData((Fraction(1, 4), Fraction(1, 4)))
        a = fz_relation(3, w_hi, 2)
        b = fz_relation(3, w_lo, 2)
        assert len(a.terms) > len(b.terms)
        assert weight_reduce(a, w_lo) == b


class TestExtended:
    def test_empty_partition_degenerates(self):
        w = WeightData((Fraction(1, 10),))
        assert extended_fz_relation(3, w, 2, (), ()) == fz_relation(3, w, 2)

    def test_partition_part_one(self):
        rel = extended_fz_relation(2, W0, 2, (1,), ())
        assert not rel.is_zero
        assert rel.codims() == {2}

    def test_partition_part_three(self):
        rel = extended_fz_relation(2, W0, 2, (3,), ())
        assert not rel.is_zero
        assert rel.codims() == {2}

    def test_forbidden_part(self):
        with pytest.raises(ValueError, match="congruent to 2"):
            extended_fz_relation(2, W0, 2, (2,), ())


class TestBoundarySQ:
    def test_smooth_part_matches_open_form(self):
        # at zero edges the boundary construction reduces to the open one
        # for every sign pairing
        for hs in (1, -1):
            for ps in (1, -1):
                b = max_edges_part(boundary_sq_relation(
                    3, W0, 2, 1, (), half_sign=hs, pd_sign=ps
                ), 0)
                o = open_sq_relation(3, W0, 2, 1, (), half_sign=hs, pd_sign=ps)
                assert not b.is_zero
                assert b == o, (hs, ps)

    def test_full_relation_is_homogeneous(self):
        rel = boundary_sq_relation(3, W0, 2, 1, ())
        assert rel.codims() == {2}
        assert max_edges_part(rel, 0) == open_sq_relation(3, W0, 2, 1, ())

    def test_size_condition_enforced(self):
        with pytest.raises(PreconditionError, match=r"r-\|E\| > g-2d-1\+\|a\|"):
            boundary_sq_relation(6, W0, 2, 1, ())


# ---------------------------------------------------------------------------
# Edge series divisibility
# ---------------------------------------------------------------------------


class TestEdgeDivisibility:
    def test_two_variable_numerator_divisibility(self):
        # the combination defining the boundary edge series vanishes on
        # the antidiagonal, for each pair of endpoint signs
        order = 10
        ring = Ring([VarSpec("t1", 0, order), VarSpec("t2", 0, order)])
        a_inv = hyper_A(order).inverse()
        c1 = series_C(1, order)

        def at(f, z, var):
            return f.substitute({"t": z * ring.var(var)})

        for z1 in (1, -1):
            for z2 in (1, -1):
                num = (
                    Fraction(z1 + z2) * at(a_inv, z1, "t1") * at(a_inv, z2, "t2")
                    + z1 * at(c1, z1, "t1")
                    + z2 * at(c1, z2, "t2")
                )
                quotient = num.divide_exact(ring.var("t1") + ring.var("t2"))
                assert (num - quotient * (ring.var("t1") + ring.var("t2"))).is_zero()

    def test_x_refined_numerator_divisibility(self):
        order, x_order = 8, 3
        ring = Ring(
            [
                VarSpec("t1", 0, order),
                VarSpec("t2", 0, order),
                VarSpec("x", 0, x_order + 1),
            ]
        )
        fam = phi_family(order, x_order)

        def at(f, z, var):
            return f.substitute(
                {"t": z * ring.var(var), "x": ring.var("x")}
            )

        for z1 in (1, -1):
            for z2 in (1, -1):
                head = Fraction(z1 + z2, 2) * (
                    -at(fam["gammaPrime"], z1, "t1")
                    - at(fam["gammaPrime"], z2, "t2")
                ).exp()
                num = (
                    head
                    + z1 * at(fam["delta"], z1, "t1")
                    + z2 * at(fam["delta"], z2, "t2")
                )
                num.divide_exact(ring.var("t1") + ring.var("t2"))


# ---------------------------------------------------------------------------
# The evaluation chain
# ---------------------------------------------------------------------------


class TestChain:
    @pytest.mark.parametrize("g,r", [(3, 2), (4, 3)])
    def test_chain_closes(self, g, r):
        results = verify_chain(g, r)
        assert results
        for name, ok, detail in results:
            assert ok, (name, detail)

    def test_reduction_lemma(self):
        # If [(1/y + 4)^d F]_{y^0} = 0 for d = c+1, ..., c+deg+1 and F is a
        # polynomial of degree <= c+deg, then F = 0: no random nonzero F
        # has all these moments zero, and F = 0 has.
        c, deg = 4, 5
        rng = random.Random(11)

        def moments(coeffs):
            # [(1/y + 4)^d F]_{y^0} = sum_k binom(d, k) 4^(d-k) [y^k] F
            return [sum(comb(d, k) * 4 ** (d - k) * fk
                        for k, fk in enumerate(coeffs) if k <= d)
                    for d in range(c + 1, c + deg + 2)]

        for _ in range(25):
            coeffs = [rng.randint(-9, 9) for _ in range(c + deg + 1)]
            if not any(coeffs):
                coeffs[0] = 1
            assert any(moments(coeffs))
        assert not any(moments([0] * (c + deg + 1)))


# ---------------------------------------------------------------------------
# Push-forward oracle
# ---------------------------------------------------------------------------


def oracle_pushforward_rows(d_max, t_order, g):
    """Reference loop: the Chern classes and their push-forward per zeta."""
    w0 = WeightData(())
    fam = phi_family(t_order, d_max)
    rows = []
    for zeta in (1, -1):
        ring = Ring([VarSpec("t", 0, t_order + 1),
                     VarSpec("x", 0, d_max + 1)])
        ds = DecoratedSeries(ring, g, w0)
        bracket_kappa(-fam["logPhi"].substitute({"t": zeta}), ds)
        closed = ds.exp()
        for d in range(1, d_max + 1):
            w = WeightData(tuple(Fraction(1, 1000) for _ in range(d)))
            cs = chern_neg_Bd(d, t_order + d, g, w)
            ok = True
            detail = ""
            for r in range(t_order + 1):
                pushed = pushforward_forget_small(
                    cs[r + d].scale(Fraction(zeta ** r, factorial(d))), d
                )
                if pushed != closed.extract(t=r, x=d):
                    ok = False
                    detail = f"mismatch at t^{r} x^{d}"
                    break
            rows.append((f"push-forward closed form d={d} zeta={zeta:+d}",
                         ok, detail or f"r <= {t_order}"))
    return rows


@pytest.mark.parametrize("d_max, t_order, g", [(3, 4, 2), (2, 5, 3)])
def test_pushforward_oracle_matches_per_zeta_loop(d_max, t_order, g):
    rows = pushforward_oracle(d_max=d_max, t_order=t_order, g=g)
    assert rows == oracle_pushforward_rows(d_max, t_order, g)


# ---------------------------------------------------------------------------
# Graph sums keep no state and canonicalise each term once
# ---------------------------------------------------------------------------


def _module_container_sizes():
    """``{(module, name): len}`` for every module-level dict, list and set
    of the ``tautrels`` package."""
    for info in pkgutil.iter_modules(tautrels.__path__, "tautrels."):
        importlib.import_module(info.name)
    return {
        (module_name, name): len(value)
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "tautrels"
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_constructions_leave_module_containers_unchanged():
    # weights no other test uses, so nothing can already be stored for them
    w = WeightData((Fraction(1, 7), Fraction(1, 9)))
    before = _module_container_sizes()
    assert not fz_relation(2, w, 2, (1,)).is_zero
    rel = open_fz_relation(3, 2, 2, (1, 2), weights=w)
    assert not rel.is_zero
    pushforward_forget_small(rel, 2)
    assert _module_container_sizes() == before


@pytest.mark.parametrize("g, weights, r, S", [
    (3, W0, 2, ()),
    (2, WeightData((Fraction(1, 8),) * 2), 3, (1, 2)),
], ids=["fz-g3-r2", "fz-subset"])
def test_graph_sum_canonicalises_each_term_once(monkeypatch, g, weights, r,
                                                S):
    calls = []
    canonical_term = classes.canonical_term

    def counted(graph, decor):
        calls.append((graph, decor))
        return canonical_term(graph, decor)

    monkeypatch.setattr(classes, "canonical_term", counted)
    rel = fz_relation(g, weights, r, S)
    assert len(calls) == len(set(calls)) > 0
    assert set(rel.terms) <= {canonical_term(*call) for call in calls}
