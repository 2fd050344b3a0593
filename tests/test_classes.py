"""Tests for decorated stable-graph classes and their push-forwards."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tautrels import classes
from tautrels.classes import (
    TautClass,
    _check_stored,
    canonical_term,
    chern_neg_Bd,
    matrix_rank,
    multiply_generator,
    multiply_smooth,
    normal_form,
    pushforward_forget,
    pushforward_forget_small,
    to_vector,
)
from tautrels.catalog import bernoulli
from tautrels.relations import fz_relation
from tautrels.series import Ring, VarSpec
from tautrels.graphs import (
    PreconditionError,
    StableGraph,
    WeightData,
    check_stable,
    enumerate_graphs,
    smooth_graph,
)

from oracles import (
    decor_words,
    divisor_exp_check,
    divisor_product,
    graph_isos,
    iso_set,
    max_edges_part,
    oracle_add_words,
    oracle_check_stored,
    oracle_chern_recurrence,
    oracle_normal_form,
    oracle_words_normal_form,
    relabelled,
    weight_reduce,
)


def smooth(genus, n):
    return StableGraph((genus,), tuple(0 for _ in range(n)), ())


def eps_weights(n, eps=Fraction(1, 1000)):
    return WeightData(tuple(eps for _ in range(n)))


def kappa_class(genus, weights, *indices):
    c = TautClass(genus, weights)
    graph = smooth(genus, weights.n)
    oracle_add_words(c, graph, [[("kappa", j) for j in indices]], 1)
    return c


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------


class TestNormalForm:
    def test_psi_square_times_diagonal(self):
        # psi_1^2 . [D_{12}] = -D_{{1,2},3}
        graph = smooth(2, 2)
        w = eps_weights(2)
        coeff, kappa, blocks = normal_form(
            graph, w, 0, [("psi", 1, 2), ("diag", (1, 2))]
        )
        assert coeff == -1
        assert kappa == ()
        assert blocks == (((("m", 1), ("m", 2)), 3),)

    def test_two_diagonals_merge(self):
        # [D_{12}] . [D_{13}] = D_{{1,2,3},2}
        graph = smooth(2, 3)
        w = eps_weights(3)
        coeff, kappa, blocks = normal_form(
            graph, w, 0, [("diag", (1, 2)), ("diag", (1, 3))]
        )
        assert coeff == 1
        assert blocks == (((("m", 1), ("m", 2), ("m", 3)), 2),)

    def test_stored_generator_square(self):
        # D_{{1,2},1}^2 = D_{{1,2},2}
        graph = smooth(2, 2)
        w = eps_weights(2)
        coeff, _, blocks = normal_form(
            graph, w, 0, [("Dsa", (1, 2), 1), ("Dsa", (1, 2), 1)]
        )
        assert coeff == 1
        assert blocks == (((("m", 1), ("m", 2)), 2),)

    def test_kappa_zero_scalar(self):
        graph = smooth(3, 0)
        w = WeightData(())
        coeff, kappa, blocks = normal_form(graph, w, 0, [("kappa", 0)])
        assert (coeff, kappa, blocks) == (4, (), ())
        assert normal_form(graph, w, 0, [("kappa", -1)]) is None

    def test_heavy_diagonal_vanishes(self):
        graph = smooth(2, 2)
        w = WeightData((Fraction(3, 4), Fraction(3, 4)))
        assert normal_form(graph, w, 0, [("diag", (1, 2))]) is None

    def test_order_independence(self):
        graph = smooth(3, 4)
        w = eps_weights(4)
        factors = [
            ("psi", 1, 1),
            ("diag", (1, 2)),
            ("kappa", 2),
            ("diag", (2, 3)),
            ("psi", 4, 2),
            ("Dsa", (3, 4), 3),
        ]
        rng = random.Random(7)
        expected = normal_form(graph, w, 0, factors)
        for _ in range(20):
            shuffled = factors[:]
            rng.shuffle(shuffled)
            assert normal_form(graph, w, 0, shuffled) == expected


# every diagonal lives under the first weights; under the second {1, 2}
# is heavy, and {1, 3} and {2, 3} live but merge to a heavy block
NF_WEIGHTS = [
    WeightData((Fraction(1, 8),) * 3),
    WeightData((Fraction(1, 2), Fraction(2, 3), Fraction(1, 4))),
]
# genus one and two, with loops and multi-edges; kappa_0 is zero at a
# genus-one vertex
NF_GRAPHS = [
    (weights, graph)
    for weights in NF_WEIGHTS
    for g in (1, 2)
    for graph in enumerate_graphs(g, weights, 2)
]


@st.composite
def raw_words(draw):
    """A word of valid factors at one vertex of a graph in ``NF_GRAPHS``:
    kappa classes (including kappa_0 and kappa_-1), psi powers at its
    markings and half-edges, raw diagonals and generators ``D_{S, a}``
    with ``a >= |S| - 1``, where a set ``S`` may repeat a marking."""
    weights, graph = draw(st.sampled_from(NF_GRAPHS))
    v = draw(st.integers(0, graph.n_vertices - 1))
    marks = graph.legs_at(v)
    halves = graph.half_edges_at(v)
    factors = [st.tuples(st.just("kappa"), st.integers(-1, 3))]
    if marks:
        # a marking may repeat; it names the same point
        sets = st.lists(st.sampled_from(marks), min_size=1,
                        max_size=len(marks) + 1).map(tuple)
        factors += [
            st.tuples(st.just("psi"), st.sampled_from(marks),
                      st.integers(0, 3)),
            st.tuples(st.just("diag"), sets),
            sets.flatmap(lambda s: st.tuples(
                st.just("Dsa"), st.just(s),
                st.integers(len(set(s)) - 1, len(s) + 1))),
        ]
    if halves:
        factors.append(st.tuples(st.just("hpsi"), st.sampled_from(halves),
                                 st.integers(0, 2)))
    word = draw(st.lists(st.one_of(factors), max_size=6))
    return graph, weights, v, word


def test_normal_form_graphs_have_loops_and_multi_edges():
    edges = [graph.edges for _, graph in NF_GRAPHS]
    assert any(a == b for es in edges for a, b in es)
    assert any(len(set(es)) < len(es) for es in edges)
    assert any(0 in graph.genera and 1 in graph.genera
               for _, graph in NF_GRAPHS)


@settings(max_examples=500, deadline=None)
@given(raw_words())
def test_normal_form_matches_word_oracle(case):
    graph, weights, v, word = case
    assert (normal_form(graph, weights, v, word)
            == oracle_normal_form(graph, weights, v, word))


LOOP = StableGraph((1,), (0, 0), ((0, 0),))


@pytest.mark.parametrize("word,condition", [
    ([("psi", 1, -1)], "block exponent below"),
    ([("hpsi", (0, 1), -1)], "block exponent below"),
    ([("Dsa", (1, 2), 0)], "block exponent below"),
    # merging would lift the exponent to |S| - 1, but a factor is checked
    # on its own
    ([("Dsa", (1, 2), 0), ("psi", 1, 1)], "block exponent below"),
    ([("psi", 2, 2), ("Dsa", (1, 2), 0)], "block exponent below"),
    ([("kappa", 1), ("lambda", 1)], "unknown factor kind 'lambda'"),
])
def test_normal_form_rejects_malformed_factors(word, condition):
    with pytest.raises(ValueError, match=condition):
        normal_form(LOOP, eps_weights(2), 0, word)


def test_normal_form_single_factor_zeros():
    w = WeightData((Fraction(3, 4), Fraction(3, 4)))
    assert normal_form(LOOP, w, 0, [("Dsa", (1, 2), 1)]) is None
    assert normal_form(LOOP, w, 0, [("kappa", 0)]) is None
    assert normal_form(smooth(0, 3), w, 0, [("kappa", 0)]) == (-2, (), ())


# ---------------------------------------------------------------------------
# Stored decorations
# ---------------------------------------------------------------------------


def _points_at(graph, v):
    return ([("m", i) for i in graph.legs_at(v)]
            + [("h",) + he for he in graph.half_edges_at(v)])


@st.composite
def _stored_vertex(draw, graph, weights, v):
    """A stored decoration at ``v``: sorted kappa indices >= 1, marking
    blocks of weight at most 1 with ``a >= max(|S| - 1, 1)``, and half-edge
    psi powers."""
    kappa = tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=2))))
    marks = graph.legs_at(v)
    labels = draw(st.lists(st.integers(-1, 2), min_size=len(marks),
                           max_size=len(marks)))
    blocks = []
    for label in set(labels) - {-1}:
        S = [i for i, x in zip(marks, labels) if x == label]
        parts = [S] if weights.subset_weight(S) <= 1 else [[i] for i in S]
        for part in parts:
            blocks.append((tuple(("m", i) for i in part),
                           max(len(part) - 1, 1) + draw(st.integers(0, 1))))
    for he in graph.half_edges_at(v):
        if a := draw(st.integers(0, 2)):
            blocks.append(((("h",) + he,), a))
    return kappa, tuple(sorted(blocks))


def _light_pairs(graph, weights, v, light):
    return [(p, q) for p, q in itertools.combinations(graph.legs_at(v), 2)
            if (weights.subset_weight((p, q)) <= 1) == light]


def _mutation_sites(graph, weights, kind):
    """The vertices of ``graph`` where the mutation ``kind`` applies."""
    def applies(v):
        marks = graph.legs_at(v)
        if kind == "a < |S| - 1":
            return len(marks) >= 2
        if kind == "heavy block":
            return bool(_light_pairs(graph, weights, v, False))
        if kind == "unsorted points":
            return bool(_light_pairs(graph, weights, v, True))
        if kind == "half-edge in a block":
            return bool(marks and graph.half_edges_at(v))
        if kind == "point elsewhere":
            return graph.n_vertices > 1
        if kind == "unsorted blocks":
            return len(_points_at(graph, v)) >= 2
        return True
    return [v for v in range(graph.n_vertices) if applies(v)]


STORED_MUTATIONS = ("unsorted kappa", "kappa_0", "a = 0", "a < |S| - 1",
                    "overlapping blocks", "heavy block",
                    "half-edge in a block", "point elsewhere",
                    "unsorted points", "unsorted blocks")


def _replace_blocks(blocks, pts, a):
    """``blocks`` without those meeting ``pts``, plus the block ``(pts, a)``,
    sorted by their sorted points so that only ``pts`` may be unsorted."""
    keep = [b for b in blocks if not set(b[0]) & set(pts)]
    return tuple(sorted(keep + [(pts, a)], key=lambda b: (sorted(b[0]), b[1])))


@st.composite
def stored_decorations(draw):
    """``(graph, weights, decor, mutated)``: a stored decoration on a graph
    of ``NF_GRAPHS`` and, if ``mutated``, one rule of it broken at one
    vertex."""
    kind = draw(st.one_of(st.just("none"), st.sampled_from(STORED_MUTATIONS)))
    event(kind)
    weights, graph = draw(st.sampled_from(
        [(w, g) for w, g in NF_GRAPHS if _mutation_sites(g, w, kind)]))
    decor = [draw(_stored_vertex(graph, weights, v))
             for v in range(graph.n_vertices)]
    if kind == "none":
        return graph, weights, tuple(decor), False
    v = draw(st.sampled_from(_mutation_sites(graph, weights, kind)))
    kappa, blocks = decor[v]
    marks = graph.legs_at(v)
    if kind == "unsorted kappa":
        kappa = (2, 1) + kappa
    elif kind == "kappa_0":
        kappa = (0,) + kappa
    elif kind == "a = 0":
        pts = (draw(st.sampled_from(_points_at(graph, v))),)
        pts = next((b[0] for b in blocks if set(b[0]) & set(pts)), pts)
        blocks = _replace_blocks(blocks, pts, 0)
    elif kind == "a < |S| - 1":
        blocks = _replace_blocks(blocks, tuple(("m", i) for i in marks),
                                 len(marks) - 2)
    elif kind == "overlapping blocks":
        p = draw(st.sampled_from(_points_at(graph, v)))
        extra = [((p,), 1)] + [((p,), 2)] * all(p not in b[0] for b in blocks)
        blocks = tuple(sorted(blocks + tuple(extra)))
    elif kind in ("heavy block", "unsorted points"):
        i, j = draw(st.sampled_from(
            _light_pairs(graph, weights, v, kind == "unsorted points")))
        pts = (("m", j), ("m", i)) if kind == "unsorted points" else (
            ("m", i), ("m", j))
        blocks = _replace_blocks(blocks, pts, 1)
    elif kind == "half-edge in a block":
        pts = (("h",) + draw(st.sampled_from(graph.half_edges_at(v))),
               ("m", draw(st.sampled_from(marks))))
        blocks = _replace_blocks(blocks, pts, 1)
    elif kind == "point elsewhere":
        w = draw(st.sampled_from([w for w in range(graph.n_vertices)
                                  if w != v]))
        far = draw(st.sampled_from(_points_at(graph, w)))
        blocks = tuple(sorted(blocks + (((far,), 1),)))
    else:  # unsorted blocks: two singletons, then every block reversed
        p, q = _points_at(graph, v)[:2]
        blocks = _replace_blocks(_replace_blocks(blocks, (p,), 1), (q,), 1)
        blocks = blocks[::-1]
    decor[v] = (kappa, blocks)
    return graph, weights, tuple(decor), True


def _accepts(graph, weights, decor) -> bool:
    try:
        _check_stored(graph, weights, decor)
    except ValueError:
        return False
    return True


@settings(max_examples=600, deadline=None)
@given(stored_decorations())
def test_check_stored_matches_the_round_trip(case):
    """The stored rules accept exactly what the word round trip gives
    back unchanged, and a broken rule is always rejected."""
    graph, weights, decor, mutated = case
    accepted = _accepts(graph, weights, decor)
    assert accepted == oracle_check_stored(graph, weights, decor)
    assert accepted == (not mutated)


# weights (1/2, 2/3, 1/4): {1, 2} and {1, 2, 3} are heavy, {1, 3} is light
STORED_GRAPH = StableGraph((1, 1), (0, 0, 0), ((0, 1),))
M1, M2, M3, H0, H1 = ("m", 1), ("m", 2), ("m", 3), ("h", 0, 0), ("h", 0, 1)


@pytest.mark.parametrize("vd,condition", [
    (((2, 1), ()), "kappa indices sorted and >= 1"),
    (((0,), ()), "kappa indices sorted and >= 1"),
    (((), (((M1,), 0),)), "a >= max(|S| - 1, 1)"),
    (((), (((M1, M3), 0),)), "a >= max(|S| - 1, 1)"),
    (((), (((M1,), 1), ((M1, M3), 1))), "blocks sorted and disjoint"),
    (((), (((M3,), 1), ((M1,), 1))), "blocks sorted and disjoint"),
    (((), (((M1, M2), 1),)), "hold markings of weight <= 1"),
    (((), (((H0, M1), 1),)), "hold markings of weight <= 1"),
    (((), (((M3, M1), 1),)), "nonempty with sorted distinct points"),
    (((), (((M1, M1), 1),)), "nonempty with sorted distinct points"),
    (((), (((H1,), 1),)), "a block at vertex 0 names a point elsewhere"),
])
def test_check_stored_names_the_broken_rule(vd, condition):
    weights = NF_WEIGHTS[1]
    decor = (vd, ((), ()))
    assert not oracle_check_stored(STORED_GRAPH, weights, decor)
    with pytest.raises(ValueError, match=re.escape(condition)):
        _check_stored(STORED_GRAPH, weights, decor)


def test_check_stored_rejects_an_empty_block():
    """A block without points is no generator; the word round trip let it
    through unchanged."""
    decor = (((), (((), 1),)), ((), ()))
    assert oracle_check_stored(STORED_GRAPH, NF_WEIGHTS[1], decor)
    with pytest.raises(ValueError, match="nonempty"):
        _check_stored(STORED_GRAPH, NF_WEIGHTS[1], decor)


# ---------------------------------------------------------------------------
# Canonical terms
# ---------------------------------------------------------------------------


class TestCanonical:
    def test_vertex_swap(self):
        g1 = StableGraph((1, 2), (), ((0, 1),))
        g2 = StableGraph((2, 1), (), ((0, 1),))
        d1 = (((), (((("h", 0, 0),), 2),)), ((), ()))
        d2 = (((), ()), ((), (((("h", 0, 1),), 2),)))
        assert canonical_term(g1, d1) == canonical_term(g2, d2)

    def test_loop_side_flip(self):
        g = StableGraph((1,), (), ((0, 0),))
        d1 = (((), (((("h", 0, 0),), 3),)),)
        d2 = (((), (((("h", 0, 1),), 3),)),)
        assert canonical_term(g, d1) == canonical_term(g, d2)

    def test_parallel_edge_relabel(self):
        g = StableGraph((1, 1), (), ((0, 1), (0, 1)))
        d1 = (((), (((("h", 0, 0),), 1),)), ((), (((("h", 1, 1),), 2),)))
        d2 = (((), (((("h", 1, 0),), 1),)), ((), (((("h", 0, 1),), 2),)))
        assert canonical_term(g, d1) == canonical_term(g, d2)

    def test_distinct_terms_stay_distinct(self):
        g = StableGraph((1, 1), (), ((0, 1), (0, 1)))
        same_edge = (((), (((("h", 0, 0),), 1),)), ((), (((("h", 0, 1),), 2),)))
        cross_edge = (((), (((("h", 0, 0),), 1),)), ((), (((("h", 1, 1),), 2),)))
        assert canonical_term(g, same_edge) != canonical_term(g, cross_edge)


# ---------------------------------------------------------------------------
# Oracles: canonical terms and graph isomorphisms over all n! vertex
# permutations, each with its own parallel-edge renumbering and loop flips.
# ---------------------------------------------------------------------------


def _oracle_map_points(points, hemap):
    return tuple(sorted(
        ("h",) + hemap[p[1:]] if p[0] == "h" else p for p in points
    ))


def oracle_canonical_term(graph, decor):
    nv = graph.n_vertices
    best = None
    for perm in itertools.permutations(range(nv)):
        genera = [0] * nv
        for v, g in enumerate(graph.genera):
            genera[perm[v]] = g
        genera = tuple(genera)
        legs = tuple(perm[v] for v in graph.legs)
        groups = {}
        for idx, (a, b) in enumerate(graph.edges):
            pa, pb = perm[a], perm[b]
            pair = (pa, pb) if pa <= pb else (pb, pa)
            groups.setdefault(pair, []).append((idx, pa <= pb, a == b))
        new_pairs = sorted(groups)
        slot_base = {}
        new_edges = []
        for pair in new_pairs:
            slot_base[pair] = len(new_edges)
            new_edges.extend([pair] * len(groups[pair]))
        new_edges = tuple(new_edges)
        per_group = []
        for pair in new_pairs:
            opts = []
            for order in itertools.permutations(groups[pair]):
                n_loops = sum(1 for m in order if m[2])
                for flips in itertools.product((False, True), repeat=n_loops):
                    assign = []
                    fi = 0
                    for off, (idx, keep, loop) in enumerate(order):
                        if loop:
                            sides = (1, 0) if flips[fi] else (0, 1)
                            fi += 1
                        else:
                            sides = (0, 1) if keep else (1, 0)
                        assign.append((idx, slot_base[pair] + off, sides))
                    opts.append(assign)
            per_group.append(opts)
        for combo in itertools.product(*per_group):
            hemap = {}
            for assign in combo:
                for idx, slot, sides in assign:
                    hemap[(idx, 0)] = (slot, sides[0])
                    hemap[(idx, 1)] = (slot, sides[1])
            new_decor = [None] * nv
            for v in range(nv):
                kappa, blocks = decor[v]
                new_decor[perm[v]] = (kappa, tuple(sorted(
                    (_oracle_map_points(pts, hemap), a) for pts, a in blocks
                )))
            cand = (genera, legs, new_edges, tuple(new_decor))
            if best is None or cand < best:
                best = cand
    return best


def oracle_graph_isos(g1, g2):
    if (
        g1.n_vertices != g2.n_vertices
        or g1.n_edges != g2.n_edges
        or sorted(g1.genera) != sorted(g2.genera)
    ):
        return []
    slots = {}
    for idx2, pair in enumerate(g2.edges):
        slots.setdefault(pair, []).append(idx2)
    out = []
    for perm in itertools.permutations(range(g1.n_vertices)):
        if any(g1.genera[v] != g2.genera[perm[v]] for v in range(g1.n_vertices)):
            continue
        if tuple(perm[v] for v in g1.legs) != g2.legs:
            continue
        groups = {}
        for idx, (a, b) in enumerate(g1.edges):
            pa, pb = perm[a], perm[b]
            pair = (pa, pb) if pa <= pb else (pb, pa)
            groups.setdefault(pair, []).append((idx, pa <= pb, a == b))
        if {p: len(m) for p, m in groups.items()} != {
            p: len(m) for p, m in slots.items()
        }:
            continue
        per_group = []
        for pair, members in sorted(groups.items()):
            opts = []
            for order in itertools.permutations(members):
                n_loops = sum(1 for m in order if m[2])
                for flips in itertools.product((False, True), repeat=n_loops):
                    assign = []
                    fi = 0
                    for off, (idx, keep, loop) in enumerate(order):
                        if loop:
                            sides = (1, 0) if flips[fi] else (0, 1)
                            fi += 1
                        else:
                            sides = (0, 1) if keep else (1, 0)
                        assign.append((idx, slots[pair][off], sides))
                    opts.append(assign)
            per_group.append(opts)
        for combo in itertools.product(*per_group):
            hemap = {}
            for assign in combo:
                for idx, slot, sides in assign:
                    hemap[(idx, 0)] = (slot, sides[0])
                    hemap[(idx, 1)] = (slot, sides[1])
            out.append((tuple(perm), hemap))
    return out


def _test_decorations(graph, weights):
    """Decorations that tell half-edges, edges and vertices apart: psi
    powers at half-edges (loops and parallel edges included), kappa
    monomials, marking psi powers and diagonal blocks."""
    nv = graph.n_vertices
    halves = [(e, s) for e in range(graph.n_edges) for s in (0, 1)]

    def empty():
        return [[] for _ in range(nv)]

    def hpsi(words, he, k):
        words[graph.edges[he[0]][he[1]]].append(("hpsi", he, k))

    all_words = [empty()]
    for he in halves:
        words = empty()
        hpsi(words, he, 1)
        all_words.append(words)
    words = empty()
    for k, he in enumerate(halves):
        hpsi(words, he, k % 3 + 1)
    all_words.append(words)
    words = [[("kappa", v % 2 + 1)] * (v % 3 + 1) for v in range(nv)]
    if halves:
        hpsi(words, halves[-1], 2)
    all_words.append(words)
    if weights.n:
        words = empty()
        words[graph.legs[0]].append(("psi", 1, 2))
        if halves:
            hpsi(words, halves[0], 1)
        all_words.append(words)
    if weights.n == 2 and graph.legs[0] == graph.legs[1]:
        words = empty()
        words[graph.legs[0]].append(("diag", (1, 2)))
        words[0].append(("kappa", 1))
        if halves:
            hpsi(words, halves[len(halves) // 2], 1)
        all_words.append(words)
    out = []
    for words in all_words:
        reduced = oracle_words_normal_form(graph, weights, words, 1)
        if reduced is not None:
            out.append(reduced[0])
    return out


DECORATION_WEIGHTS = [
    WeightData(()),
    WeightData((Fraction(1),)),
    WeightData((Fraction(1, 3), Fraction(1, 4))),
    WeightData((Fraction(1), Fraction(1))),
]


def _oracle_graphs():
    for genus in range(4):
        for weights in DECORATION_WEIGHTS:
            for graph in enumerate_graphs(genus, weights, 3):
                yield genus, weights, graph


@pytest.mark.parametrize("genus", range(4))
def test_canonical_term_matches_oracle(genus):
    for g, weights, graph in _oracle_graphs():
        if g != genus:
            continue
        # a non-canonical labelling of the same graph as a second input
        flipped = relabelled(graph, tuple(reversed(range(graph.n_vertices))))
        for decor in _test_decorations(graph, weights):
            assert canonical_term(graph, decor) == oracle_canonical_term(
                graph, decor
            )
        for decor in _test_decorations(flipped, weights):
            assert canonical_term(flipped, decor) == oracle_canonical_term(
                flipped, decor
            )


def _labellings(monkeypatch, run) -> list:
    """Run ``run()`` and list ``(graph, vertex_maps calls on it)`` for each
    graph object with edges that reaches ``canonical_term``."""
    calls: dict = {}  # id: [graph, calls]; holding the graph keeps ids apart
    reached: dict = {}
    vertex_maps, term = StableGraph.vertex_maps, classes.canonical_term

    def counted(self, *args):
        calls.setdefault(id(self), [self, 0])[1] += 1
        return vertex_maps(self, *args)

    def seen(graph, decor):
        if graph.edges:
            reached[id(graph)] = graph
        return term(graph, decor)

    with monkeypatch.context() as m:
        m.setattr(StableGraph, "vertex_maps", counted)
        m.setattr(classes, "canonical_term", seen)
        run()
    return [(graph, calls.get(key, [graph, 0])[1])
            for key, graph in reached.items()]


def _several_terms_per_graph(genus, weights, graphs):
    c = TautClass(genus, weights)
    for graph in graphs:
        for decor in _test_decorations(graph, weights):
            c.add_term(graph, decor, 1)
    counts = Counter(key[:3] for key in c.terms if key[2])
    assert max(counts.values()) > 1
    return c


def test_each_graph_object_is_labelled_once(monkeypatch):
    unit = WeightData((Fraction(1),))
    marked = _several_terms_per_graph(2, unit, enumerate_graphs(2, unit, 2))
    # marking 2 (weight 1/4) added to every vertex of the graphs of
    # marking 1 (weight 1/3) alone, so forgetting it keeps them stable
    first = WeightData((Fraction(1, 3),))
    forgettable = multiply_generator(_several_terms_per_graph(
        2, DECORATION_WEIGHTS[2],
        [StableGraph(g.genera, g.legs + (v,), g.edges)
         for g in enumerate_graphs(2, first, 2) for v in range(g.n_vertices)]
    ), ("psi", 2, 1))
    for run in (lambda: fz_relation(3, WeightData(()), 2),
                lambda: multiply_generator(marked, ("psi", 1, 1)),
                lambda: pushforward_forget_small(forgettable)):
        labelled = _labellings(monkeypatch, run)
        assert labelled
        # one object per distinct graph, and one search per object
        assert len({graph for graph, _ in labelled}) == len(labelled)
        assert {count for _, count in labelled} == {1}


def test_graph_isos_match_oracle_and_automorphism_order():
    for _, _, graph in _oracle_graphs():
        flipped = relabelled(graph, tuple(reversed(range(graph.n_vertices))))
        autos = graph_isos(graph, graph)
        assert len(autos) == graph.automorphism_order()
        assert iso_set(autos) == iso_set(oracle_graph_isos(graph, graph))
        assert iso_set(graph_isos(graph, flipped)) == iso_set(
            oracle_graph_isos(graph, flipped)
        )


def test_graph_isos_reject_other_graphs():
    loop = StableGraph((0, 1), (), ((0, 0), (0, 1)))
    double = StableGraph((0, 1), (), ((0, 1), (0, 1)))
    other_genera = StableGraph((1, 1), (), ((0, 1), (0, 1)))
    for g1, g2 in ((loop, double), (double, other_genera)):
        assert graph_isos(g1, g2) == []
        assert oracle_graph_isos(g1, g2) == []


def _relabel_term(graph, decor, perm, keys, flips):
    """Relabel vertices by ``perm``, renumber edges by ``keys`` (parallel
    edges among themselves) and flip the loops marked in ``flips``."""
    images = []
    for idx, (a, b) in enumerate(graph.edges):
        swap = perm[a] > perm[b] or (a == b and flips[idx])
        ends = (perm[b], perm[a]) if swap else (perm[a], perm[b])
        images.append((ends, keys[idx], idx, (1, 0) if swap else (0, 1)))
    images.sort()
    hemap = {}
    for new, (_, _, idx, sides) in enumerate(images):
        hemap[(idx, 0)] = (new, sides[0])
        hemap[(idx, 1)] = (new, sides[1])
    genera = [0] * graph.n_vertices
    new_decor = [None] * graph.n_vertices
    for v, (kappa, blocks) in enumerate(decor):
        genera[perm[v]] = graph.genera[v]
        new_decor[perm[v]] = (kappa, tuple(sorted(
            (_oracle_map_points(pts, hemap), a) for pts, a in blocks
        )))
    relabelled = StableGraph(
        tuple(genera),
        tuple(perm[v] for v in graph.legs),
        tuple(ends for ends, *_ in images),
    )
    return relabelled, tuple(new_decor)


@st.composite
def relabelled_terms(draw):
    """A decorated term (graph not necessarily stable or connected) and a
    relabelling of it."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(0, n - 1)
    genera = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    legs = tuple(draw(st.lists(vertex, max_size=2)))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    edges = tuple(sorted(tuple(sorted(e)) for e in pairs))
    graph = StableGraph(genera, legs, edges)
    weights = WeightData(tuple(Fraction(1, 8) for _ in legs))
    words = [
        [("kappa", j) for j in draw(st.lists(st.integers(1, 3), max_size=2))]
        for _ in range(n)
    ]
    for e, (a, b) in enumerate(edges):
        for s, v in ((0, a), (1, b)):
            words[v].append(("hpsi", (e, s), draw(st.integers(0, 2))))
    for i, v in enumerate(legs, start=1):
        words[v].append(("psi", i, draw(st.integers(0, 2))))
    if len(legs) == 2 and legs[0] == legs[1] and draw(st.booleans()):
        words[legs[0]].append(("diag", (1, 2)))
    decor = oracle_words_normal_form(graph, weights, words, 1)[0]
    perm = tuple(draw(st.permutations(range(n))))
    keys = draw(st.permutations(range(len(edges))))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    return graph, decor, _relabel_term(graph, decor, perm, keys, flips)


@settings(max_examples=200, deadline=None)
@given(relabelled_terms())
def test_canonical_term_is_relabelling_invariant_property(case):
    graph, decor, (other, other_decor) = case
    assert canonical_term(other, other_decor) == canonical_term(graph, decor)
    assert canonical_term(graph, decor) == oracle_canonical_term(graph, decor)


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------


class TestMultiplication:
    def test_kappa_on_smooth(self):
        w = WeightData(())
        one = TautClass.one(3, w)
        k1 = multiply_generator(one, ("kappa", 1))
        k1k1 = multiply_generator(k1, ("kappa", 1))
        assert k1k1 == multiply_smooth(k1, k1)
        assert kappa_class(3, w, 1, 1) == k1k1

    def test_kappa_distributes_over_boundary(self):
        # kappa_1 times a boundary divisor picks up psi terms at both
        # half-edges.
        w = WeightData(())
        c = TautClass(2, w)
        graph = StableGraph((1, 1), (), ((0, 1),))
        oracle_add_words(c, graph, [[], []], 1)
        prod = multiply_generator(c, ("kappa", 1))
        # kappa at either vertex and psi at either half-edge; symmetry of
        # the graph merges each pair, with coefficient 2 apiece
        assert len(prod.terms) == 2
        assert sorted(prod.terms.values()) == [2, 2]

    def test_psi_merges_into_block(self):
        w = eps_weights(2)
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 2), [[("diag", (1, 2))]], 1)
        prod = multiply_generator(c, ("psi", 1, 2))
        ((key, coeff),) = prod.terms.items()
        assert coeff == -1
        assert key[3] == (((), (((("m", 1), ("m", 2)), 3),)),)

    def test_diagonal_needs_single_vertex(self):
        # markings on different components never collide: the product is
        # zero, not an error
        w = eps_weights(2)
        c = TautClass(2, w)
        graph = StableGraph((1, 1), (0, 1), ((0, 1),))
        oracle_add_words(c, graph, [[], []], 1)
        assert multiply_generator(c, ("Dsa", (1, 2), 1)).is_zero

    def test_diagonal_on_one_edge_strata(self):
        # D_{34,1} on the one-edge strata of M_{0,(1,1,1/8,1/8,1/8)}: zero
        # where markings 3 and 4 lie on different vertices, the stratum
        # with the block added where they share one
        w = WeightData((Fraction(1), Fraction(1)) + (Fraction(1, 8),) * 3)
        strata = [graph for graph in enumerate_graphs(0, w, 1)
                  if graph.n_edges == 1]
        assert len(strata) == 6
        split = 0
        for graph in strata:
            c = TautClass(0, w)
            oracle_add_words(c, graph, [[], []], 1)
            got = multiply_generator(c, ("Dsa", (3, 4), 1))
            if graph.legs[2] != graph.legs[3]:
                split += 1
                assert got.is_zero, graph
            else:
                words = [[], []]
                words[graph.legs[2]].append(("Dsa", (3, 4), 1))
                expected = TautClass(0, w)
                oracle_add_words(expected, graph, words, 1)
                assert not expected.is_zero
                assert got == expected, graph
        assert split == 4


# ---------------------------------------------------------------------------
# Push-forwards of small-weight points
# ---------------------------------------------------------------------------


class TestForgetSmall:
    def test_absent_marking_dies(self):
        w = eps_weights(1)
        one = TautClass.one(2, w)
        assert pushforward_forget_small(one).is_zero

    def test_psi_power_becomes_kappa(self):
        w = eps_weights(1)
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 1), [[("psi", 1, 3)]], 1)
        down = pushforward_forget_small(c)
        assert down == kappa_class(2, WeightData(()), 2)

    def test_single_psi_gives_euler_scalar(self):
        w = eps_weights(1)
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 1), [[("psi", 1, 1)]], 1)
        down = pushforward_forget_small(c)
        assert down == TautClass.one(2, WeightData(())).scale(2 * 2 - 2)

    def test_block_loses_marking_with_sign(self):
        w = eps_weights(2)
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 2), [[("Dsa", (1, 2), 2)]], 1)
        down = pushforward_forget_small(c)
        expected = TautClass(2, eps_weights(1))
        oracle_add_words(expected, smooth(2, 1), [[("psi", 1, 1)]], -1)
        assert down == expected

    def test_full_diagonal_pushforward(self):
        # forgetting d points off D_{{n+1..n+d}, r} leaves
        # (-1)^{d-1} kappa_{r-d}
        g, d, r = 2, 3, 5
        w = eps_weights(d)
        c = TautClass(g, w)
        oracle_add_words(
            c, smooth(g, d), [[("Dsa", tuple(range(1, d + 1)), r)]], 1
        )
        down = pushforward_forget_small(c, count=d)
        expected = kappa_class(g, WeightData(()), r - d).scale((-1) ** (d - 1))
        assert down == expected


# ---------------------------------------------------------------------------
# Stored-decoration kernels against the word-based oracles
# ---------------------------------------------------------------------------
#
# The oracles rebuild raw words from stored decorations and reduce every
# product with ``oracle_normal_form``, as the library did before its kernels
# multiplied stored decorations directly.


def oracle_multiply_generator(c, gen):
    out = TautClass(c.genus, c.weights)
    for key, coeff in c.terms.items():
        genera, legs, edges, decor = key
        graph = StableGraph(genera, legs, edges)
        base_words = decor_words(decor)
        if gen[0] == "kappa":
            j = gen[1]
            for v in range(graph.n_vertices):
                words = [list(w) for w in base_words]
                words[v].append(("kappa", j))
                oracle_add_words(out, graph, words, coeff)
                for he in graph.half_edges_at(v):
                    words = [list(w) for w in base_words]
                    words[v].append(("hpsi", he, j))
                    oracle_add_words(out, graph, words, coeff)
        elif gen[0] == "psi":
            _, i, k = gen
            v = graph.legs[i - 1]
            words = [list(w) for w in base_words]
            words[v].append(("psi", i, k))
            oracle_add_words(out, graph, words, coeff)
        elif gen[0] == "Dsa":
            _, s, a = gen
            homes = {graph.legs[i - 1] for i in s}
            if len(homes) != 1:
                continue  # points on different components never collide
            v = homes.pop()
            words = [list(w) for w in base_words]
            words[v].append(("Dsa", tuple(s), a))
            oracle_add_words(out, graph, words, coeff)
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return out


def oracle_multiply_smooth(c1, c2):
    c1._check_compatible(c2)
    if any(key[2] for c in (c1, c2) for key in c.terms):
        raise ValueError("multiply_smooth needs edge-free terms")
    out = TautClass(c1.genus, c1.weights)
    right = [(decor_words(key2[3]), b) for key2, b in c2.terms.items()]
    for key1, a in c1.terms.items():
        graph = StableGraph(key1[0], key1[1], key1[2])
        left = decor_words(key1[3])
        for words2, b in right:
            words = [w1 + w2 for w1, w2 in zip(left, words2)]
            oracle_add_words(out, graph, words, a * b)
    return out


def oracle_pushforward_forget_small(c, count=1):
    # every input graph must stay stable once all count legs are gone, even
    # if its terms die in an earlier pass
    final = WeightData(c.weights.weights[:c.weights.n - count])
    for genera, legs, edges, _ in c.terms:
        StableGraph(genera, legs[:final.n], edges).validate(final, c.genus)
    current = c
    for _ in range(count):
        n = current.weights.n
        weights = WeightData(current.weights.weights[:-1])
        target = TautClass(current.genus, weights)
        point = ("m", n)
        valid = set()
        for key, coeff in current.terms.items():
            genera, legs, edges, decor = key
            v_home = legs[n - 1]
            graph = StableGraph(genera, legs[:-1], edges)
            if graph not in valid:
                graph.validate(weights, current.genus)
                valid.add(graph)
            kappa, blocks = decor[v_home]
            rest = [b for b in blocks if point not in b[0]]
            if len(rest) == len(blocks):
                continue
            (pts, a), = (b for b in blocks if point in b[0])
            new_word = decor_words(((kappa, rest),))[0]
            if len(pts) == 1:
                new_word.append(("kappa", a - 1))
            else:
                coeff = -coeff
                new_word.append(
                    ("Dsa", tuple(p[1] for p in pts if p != point), a - 1)
                )
            words = decor_words(decor)
            words[v_home] = new_word
            oracle_add_words(target, graph, words, coeff)
        current = target
    return current


# weights whose sums make some merged diagonals heavy (forbidden)
KERNEL_WEIGHTS = (Fraction(1, 1000), Fraction(1, 2), Fraction(2, 5), Fraction(1))
# mixed denominators, both signs
KERNEL_COEFFICIENTS = st.sampled_from(
    [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(-3, 10)]
)
_KERNEL_GRAPHS: dict = {}


def _kernel_graphs(genus, weights):
    """The smooth graph and the graphs with at most two edges."""
    key = (genus, weights)
    if key not in _KERNEL_GRAPHS:
        _KERNEL_GRAPHS[key] = list(dict.fromkeys(
            [smooth_graph(genus, weights.n)]
            + enumerate_graphs(genus, weights, 2)
        ))
    return _KERNEL_GRAPHS[key]


@st.composite
def kernel_spaces(draw, min_points=1):
    genus = draw(st.integers(0, 2))
    n = draw(st.integers(min_points, 3))
    weights = draw(st.lists(st.sampled_from(KERNEL_WEIGHTS),
                            min_size=n, max_size=n))
    return genus, WeightData(tuple(weights))


@st.composite
def stored_classes(draw, genus, weights, smooth_only=False):
    """One to four terms, each a random word per vertex (kappa classes, psi
    powers at legs and half-edges, allowed diagonal generators) in normal
    form; a term whose diagonals merge into a heavy block is dropped."""
    graphs = _kernel_graphs(genus, weights)
    if smooth_only:
        graphs = graphs[:1]
    c = TautClass(genus, weights)
    for _ in range(draw(st.integers(1, 4))):
        graph = draw(st.sampled_from(graphs))
        words = []
        for v in range(graph.n_vertices):
            word = [("kappa", j)
                    for j in draw(st.lists(st.integers(1, 3), max_size=2))]
            marks = graph.legs_at(v)
            word += [("psi", i, draw(st.integers(0, 3))) for i in marks]
            word += [("hpsi", he, draw(st.integers(0, 2)))
                     for he in graph.half_edges_at(v)]
            if len(marks) >= 2:
                for _ in range(draw(st.integers(0, 2))):
                    s = draw(st.lists(st.sampled_from(marks), min_size=2,
                                      max_size=len(marks), unique=True))
                    if weights.subset_weight(s) <= 1:
                        word.append(("Dsa", tuple(s),
                                     len(s) - 1 + draw(st.integers(0, 1))))
            words.append(word)
        reduced = oracle_words_normal_form(graph, weights, words, 1)
        if reduced is not None:
            c.add_term(graph, reduced[0],
                       reduced[1] * draw(KERNEL_COEFFICIENTS))
    return c


def kernel_generators(n):
    marks = st.integers(1, n)
    diagonals = st.lists(marks, min_size=1, max_size=n, unique=True).flatmap(
        lambda s: st.tuples(st.just("Dsa"), st.just(tuple(s)),
                            st.integers(len(s) - 1, len(s) + 1)))
    return st.one_of(
        st.tuples(st.just("kappa"), st.integers(0, 3)),
        st.tuples(st.just("psi"), marks, st.integers(0, 3)),
        diagonals,
    )


def _outcome(f, *args, message=True):
    """The bytes of ``f(*args)``, or the ValueError it raises."""
    try:
        return f(*args).dumps()
    except ValueError as exc:
        return "ValueError", str(exc) if message else None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_multiply_smooth_matches_word_oracle(data):
    genus, weights = data.draw(kernel_spaces(min_points=3))
    c1 = data.draw(stored_classes(genus, weights, smooth_only=True))
    c2 = data.draw(stored_classes(genus, weights, smooth_only=True))
    assert (multiply_smooth(c1, c2).dumps()
            == oracle_multiply_smooth(c1, c2).dumps())


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_multiply_generator_matches_word_oracle(data):
    genus, weights = data.draw(kernel_spaces(min_points=2))
    c = data.draw(stored_classes(genus, weights))
    gen = data.draw(kernel_generators(weights.n))
    assert (_outcome(multiply_generator, c, gen)
            == _outcome(oracle_multiply_generator, c, gen))


def _forgets_a_heavy_point(weights, count):
    """Whether forgetting the last ``count`` markings, last one first,
    forgets some ``n`` with a set ``S`` of earlier markings such that
    ``w(S) <= 1 < w(S) + w_n``."""
    return any(
        weights.subset_weight(s) <= 1
        < weights.subset_weight(s) + weights.weight(n)
        for n in range(weights.n - count + 1, weights.n + 1)
        for k in range(1, n)
        for s in itertools.combinations(range(1, n), k)
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_pushforward_forget_small_matches_word_oracle(data):
    genus, weights = data.draw(kernel_spaces(min_points=2))
    c = data.draw(stored_classes(genus, weights))
    count = data.draw(st.integers(1, weights.n))
    if _forgets_a_heavy_point(weights, count):
        with pytest.raises(PreconditionError, match="w_n <= 1"):
            pushforward_forget_small(c, count)
        return
    if 2 * genus - 2 + sum(weights.weights[:weights.n - count]) <= 0:
        # the space the markings are forgotten down to does not exist
        with pytest.raises(PreconditionError, match=r"2g-2\+sum\(w\) > 0"):
            pushforward_forget_small(c, count)
        return
    assert (_outcome(pushforward_forget_small, c, count)
            == _outcome(oracle_pushforward_forget_small, c, count))


def _smooth_class(genus, weights, *terms):
    """``sum coeff * word`` on the smooth graph."""
    c = TautClass(genus, weights)
    for coeff, word in terms:
        oracle_add_words(c, smooth_graph(genus, weights.n), [word], coeff)
    return c


def test_kernels_cancel_to_zero():
    w = eps_weights(2)
    psi1, psi2 = ("psi", 1, 1), ("psi", 2, 1)
    minus = _smooth_class(2, w, (1, [psi1]), (-1, [psi2]))
    plus = _smooth_class(2, w, (1, [psi1]), (1, [psi2]))
    prod = multiply_smooth(minus, plus)
    assert prod == _smooth_class(2, w, (1, [("psi", 1, 2)]),
                                 (-1, [("psi", 2, 2)]))
    assert prod.dumps() == oracle_multiply_smooth(minus, plus).dumps()
    # psi_2^2 -> kappa_1 and kappa_1 psi_2 -> (2g - 2) kappa_1
    c = _smooth_class(2, w, (2, [("psi", 2, 2)]),
                      (-1, [("kappa", 1), ("psi", 2, 1)]))
    assert pushforward_forget_small(c).is_zero
    assert oracle_pushforward_forget_small(c).is_zero


def test_heavy_merged_diagonal_vanishes():
    # D_{12} and D_{23} are allowed, D_{123} weighs 1 + 1/1000
    w = WeightData((Fraction(1, 2), Fraction(1, 2), Fraction(1, 1000)))
    d12 = _smooth_class(2, w, (1, [("Dsa", (1, 2), 1)]))
    d23 = _smooth_class(2, w, (1, [("Dsa", (2, 3), 1)]))
    assert not d12.is_zero and not d23.is_zero
    assert multiply_smooth(d12, d23).is_zero
    assert oracle_multiply_smooth(d12, d23).is_zero
    assert multiply_generator(d12, ("Dsa", (2, 3), 1)).is_zero
    # marking 3 cannot join the collision of 1 and 2 (weight 1): not light
    with pytest.raises(PreconditionError, match="S={1, 2}"):
        pushforward_forget_small(d23)
    # a pair block losing the forgotten point leaves psi^0 = 1
    w = WeightData((Fraction(2, 5), Fraction(1, 2), Fraction(1, 1000)))
    d23 = _smooth_class(2, w, (1, [("Dsa", (2, 3), 1)]))
    down = pushforward_forget_small(d23)
    assert down == TautClass.one(2, WeightData(w.weights[:2])).scale(-1)
    assert down == oracle_pushforward_forget_small(d23)


def test_pushforward_forget_small_rejects_unstable_even_if_zero():
    # forgetting the light point leaves genus 0 and weight 2: no space
    w = WeightData((Fraction(2, 3),) * 3 + (Fraction(1, 1000),))
    one = TautClass.one(0, w)  # no block holds the point: every term dies
    with pytest.raises(PreconditionError, match=r"2g-2\+sum\(w\) > 0"):
        pushforward_forget_small(one)


@pytest.mark.parametrize("words", [
    [[], [("psi", 2, 1)], []],  # marking 3 is in no block: every term dies
    [[], [("psi", 2, 1), ("psi", 3, 1)], []],
])
def test_pushforward_forget_small_rejects_unstable_at_any_count(words):
    # forgetting markings 2 and 3 leaves the genus-0 vertex with only its
    # two half-edges, whether or not a term survives the first marking
    w = WeightData((Fraction(1, 2), Fraction(1, 10), Fraction(1, 10)))
    c = TautClass(2, w)
    oracle_add_words(c, StableGraph((1, 0, 1), (0, 1, 1), ((0, 1), (1, 2))),
                     words, 1)
    assert pushforward_forget_small(c) == oracle_pushforward_forget_small(c)
    for push in (pushforward_forget_small, oracle_pushforward_forget_small):
        with pytest.raises(ValueError, match="unstable"):
            push(c, 2)


def test_pushforward_forget_small_rejects_a_heavy_point():
    # on weights (1, 1) psi_2^2 pushes forward to kappa_1 + psi_1 (the
    # weight-one rule of pushforward_forget), not to the light-point kappa_1
    w = WeightData((Fraction(1), Fraction(1)))
    c = _smooth_class(2, w, (1, [("psi", 2, 2)]))
    assert pushforward_forget(c) == _smooth_class(
        2, WeightData(w.weights[:1]), (1, [("kappa", 1)]), (1, [("psi", 1, 1)]))
    with pytest.raises(PreconditionError,
                       match=r"w\(S\) \+ w_n <= 1 whenever w\(S\) <= 1 "
                             r"violated: n=2, S=\{1\}"):
        pushforward_forget_small(c)
    # a heavy point of a later pass raises before any pass runs
    w = WeightData((Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(PreconditionError, match="n=2, S={1}"):
        pushforward_forget_small(TautClass.one(2, w), count=2)


@pytest.mark.parametrize("gen,condition", [
    (("diag", (1, 2)), "unknown generator"),
    (("Dsa", (1, 2), 0), "block exponent below"),
    (("Dsa", (1, 2, 3), 1), "block exponent below"),
    (("psi", 1, -1), "block exponent below"),
])
def test_multiply_generator_rejects_bad_generator(gen, condition):
    w = eps_weights(3)
    c = _smooth_class(2, w, (1, [("Dsa", (1, 2), 1)]))
    with pytest.raises(ValueError, match=condition):
        multiply_generator(c, gen)


# ---------------------------------------------------------------------------
# Chern classes of the point bundle and the push-forward oracle
# ---------------------------------------------------------------------------


def untwisted_log_table(t_order, x_order):
    """``S[m][r] = m! [t^r x^m] log Psi`` for the untwisted vertex series
    ``Psi = 1 + sum_{d>=1} x^d/d! prod_{i<=d} (1 - i t)^{-1}``, over
    t in [0, t_order] and x in [0, x_order]."""
    ring = Ring([VarSpec("t", 0, t_order + 1), VarSpec("x", 0, x_order + 1)])
    psi = ring.one()
    poles = ring.one()
    for d in range(1, x_order + 1):
        poles = poles * (ring.one() - d * ring.var("t")).inverse()
        psi = psi + poles * ring.monomial(Fraction(1, _fact(d)), x=d)
    table = {}
    for (r, m), c in psi.log().coeffs.items():
        if m >= 1:
            table.setdefault(m, {})[r] = c * _fact(m)
    return table


class TestChernBundle:
    def test_d1_geometric_series(self):
        w = eps_weights(1)
        cs = chern_neg_Bd(1, 2, 2, w)
        for j in range(3):
            expected = TautClass(2, w)
            oracle_add_words(expected, smooth(2, 1), [[("psi", 1, j)]], 1)
            assert cs[j] == expected

    def test_d2_degree_one(self):
        w = eps_weights(2)
        cs = chern_neg_Bd(2, 1, 2, w)
        expected = TautClass(2, w)
        oracle_add_words(expected, smooth(2, 2), [[("psi", 1, 1)]], 1)
        oracle_add_words(expected, smooth(2, 2), [[("psi", 2, 1)]], 1)
        oracle_add_words(expected, smooth(2, 2), [[("Dsa", (1, 2), 1)]], 1)
        assert cs[1] == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pushforward_matches_exponential_formula(self, d):
        """Push the Chern classes of the point bundle down d times.

        Oracle: the answer is the x^d coefficient of
        exp(sum_m (-1)^(m-1)/m! sum_r S_m^r kappa_{r-m} t^r x^m)
        where the S_m^r are the coefficients of the logarithm of the
        untwisted vertex series.
        """
        g = 2
        t_order = 4
        w = eps_weights(d)
        cs = chern_neg_Bd(d, t_order, g, w)
        down = {
            j: pushforward_forget_small(cls.scale(Fraction(1, _fact(d))), d)
            for j, cls in cs.items()
        }
        table = untwisted_log_table(t_order, d)
        w0 = WeightData(())
        # assemble the exponential oracle as {t exponent: TautClass}
        terms = {}
        for m in range(1, d + 1):
            for r, s in table[m].items():
                idx = r - m
                if idx < -1 or r < 0 or r > t_order:
                    continue
                coeff = Fraction(s) * (-1) ** (m - 1) / _fact(m)
                if coeff == 0:
                    continue
                terms.setdefault((r, m), Fraction(0))
                terms[(r, m)] += coeff
        oracle = {j: TautClass.zero(g, w0) for j in range(t_order + 1)}
        oracle[0] = TautClass.one(g, w0)

        def kap(idx):
            if idx == -1:
                return TautClass.zero(g, w0)
            if idx == 0:
                return TautClass.one(g, w0).scale(2 * g - 2)
            return kappa_class(g, w0, idx)

        # expand exp over the finitely many (r, m) monomials, x-degree = d
        from itertools import combinations_with_replacement

        keys = sorted(terms)
        acc = {j: TautClass.zero(g, w0) for j in range(t_order + 1)}
        for size in range(0, d + 1):
            for combo in combinations_with_replacement(keys, size):
                if sum(k[1] for k in combo) != d:
                    continue
                r_tot = sum(k[0] for k in combo)
                if r_tot > t_order:
                    continue
                coeff = Fraction(1)
                # multiset multiplicity correction for the exponential
                from collections import Counter

                counts = Counter(combo)
                for k, mult in counts.items():
                    coeff *= terms[k] ** mult / _fact(mult)
                prod = TautClass.one(g, w0)
                ok = True
                for k in combo:
                    factor = kap(k[0] - k[1])
                    if factor.is_zero:
                        ok = False
                        break
                    prod = multiply_smooth(prod, factor)
                if ok:
                    acc[r_tot] = acc[r_tot] + prod.scale(coeff)
        for j in range(t_order + 1):
            assert down[j] == acc[j], f"degree {j} mismatch for d={d}"


def oracle_chern_neg_Bd(d, t_order, genus, weights):
    """Reference expansion: powers of each factor's base, then a convolution."""
    n = weights.n - d
    one = TautClass.one(genus, weights)
    total = {0: one}
    graph = StableGraph((genus,), tuple(0 for _ in range(weights.n)), ())
    for i in range(1, d + 1):
        base = TautClass(genus, weights)
        oracle_add_words(base, graph, [[("psi", n + i, 1)]], Fraction(1))
        for j in range(1, i):
            oracle_add_words(
                base, graph, [[("Dsa", (n + j, n + i), 1)]], Fraction(1)
            )
        powers = {0: one}
        for k in range(1, t_order + 1):
            powers[k] = multiply_smooth(powers[k - 1], base)
            if powers[k].is_zero:
                break
        new_total = {}
        for j1, c1 in total.items():
            for j2, c2 in powers.items():
                if j1 + j2 > t_order:
                    continue
                prod = multiply_smooth(c1, c2)
                if j1 + j2 in new_total:
                    new_total[j1 + j2] = new_total[j1 + j2] + prod
                else:
                    new_total[j1 + j2] = prod
        total = new_total
    return {
        j: total.get(j, TautClass.zero(genus, weights))
        for j in range(t_order + 1)
    }


def _bundle_weights(kind, d):
    """Weights whose last d markings carry the point bundle."""
    if kind == "eps":
        return eps_weights(d)
    if kind == "dead-pairs":  # every D block of two or more points is zero
        return WeightData(tuple(Fraction(2, 3) for _ in range(d)))
    # a leading marking outside the bundle; some blocks live, some die
    bundle = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 1000), Fraction(1, 2))
    return WeightData((Fraction(1, 2),) + bundle[:d])


# d = 5 on eps weights up to t_order 9 is the size the pushforward suite runs
@pytest.mark.parametrize("d, kind", [
    (d, kind) for d in (1, 2, 3, 4) for kind in ("dead-pairs", "eps", "mixed")
] + [(5, "eps")])
def test_chern_neg_Bd_matches_convolution_oracle(d, kind):
    w = _bundle_weights(kind, d)
    for t_order in range(10 if d == 5 else 7):
        got = chern_neg_Bd(d, t_order, 2, w)
        want = oracle_chern_neg_Bd(d, t_order, 2, w)
        assert sorted(got) == list(range(t_order + 1))
        for j in range(t_order + 1):
            assert got[j].dumps() == want[j].dumps(), (t_order, j)


def _brute_pick_counts(s, a):
    """``(all, connected)`` pick configurations on ``s`` ordered points with
    ``a`` picks in all: point ``i`` picks a sequence of partners ``j <= i``,
    counted by listing every sequence."""
    total = connected = 0
    for lengths in itertools.product(range(a + 1), repeat=s):
        if sum(lengths) != a:
            continue
        for picks in itertools.product(*(
                itertools.product(range(i + 1), repeat=k)
                for i, k in enumerate(lengths))):
            total += 1
            component = list(range(s))
            for i, seq in enumerate(picks):
                for j in seq:
                    old, new = component[i], component[j]
                    component = [new if c == old else c for c in component]
            connected += len(set(component)) == 1
    return total, connected


def _stirling2(m, k):
    table = [[1]]
    for row in range(1, m + 1):
        prev = table[-1] + [0]
        table.append([0] + [j * prev[j] + prev[j - 1]
                            for j in range(1, row + 1)])
    return table[m][k] if k <= m else 0


def test_pick_counts_match_brute_force_and_stirling_numbers():
    T, N = classes._pick_counts(4, 6)
    assert N[2][2] == 4
    for s in range(1, 5):
        for a in range(7):
            assert (T[s][a], N[s][a]) == _brute_pick_counts(s, a), (s, a)
            assert T[s][a] == _stirling2(s + a, s)
            assert (N[s][a] > 0) == (a >= s - 1)


_BUNDLE_WEIGHTS = [Fraction(1, 1000), Fraction(1, 3), Fraction(1, 2),
                   Fraction(2, 3)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_BUNDLE_WEIGHTS), max_size=4),
       st.none() | st.sampled_from(_BUNDLE_WEIGHTS + [Fraction(1)]),
       st.integers(0, 5))
def test_chern_neg_Bd_matches_convolution_oracle_property(bundle, lead,
                                                          t_order):
    w = WeightData(tuple(bundle) if lead is None else (lead, *bundle))
    got = chern_neg_Bd(len(bundle), t_order, 2, w)
    want = oracle_chern_neg_Bd(len(bundle), t_order, 2, w)
    assert sorted(got) == list(range(t_order + 1))
    for j in range(t_order + 1):
        assert got[j].dumps() == want[j].dumps(), j


def test_chern_neg_Bd_matches_the_recurrence_at_six_points():
    # equal term dicts serialize to equal dumps(); writing 34k terms out
    # twice would take longer than building them
    w = eps_weights(6)
    assert chern_neg_Bd(6, 8, 2, w) == oracle_chern_recurrence(6, 8, 2, w)


def test_chern_neg_Bd_makes_no_vertex_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("chern_neg_Bd called _vertex_product")

    monkeypatch.setattr(classes, "_vertex_product", refuse)
    assert not chern_neg_Bd(3, 5, 2, eps_weights(3))[5].is_zero


@pytest.mark.parametrize("d, t_order, genus, condition", [
    # two points cannot carry a bundle on three
    (3, 2, 2, r"0 <= d <= n violated: d=3, n=2"),
    (-1, 2, 2, r"0 <= d <= n violated: d=-1, n=2"),
    (2, -1, 2, r"t_order >= 0 violated: t_order=-1"),
    # genus 0 with two light points: no stable space
    (2, 2, 0, r"2g-2\+sum\(w\) > 0 violated: g=0"),
])
def test_chern_neg_Bd_rejects_bad_input(d, t_order, genus, condition):
    with pytest.raises(PreconditionError, match=condition):
        chern_neg_Bd(d, t_order, genus, eps_weights(2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pushforward_forget_small_is_linear(d):
    cs = chern_neg_Bd(d, 4 + d, 2, eps_weights(d))
    assert any(not pushforward_forget_small(c, d).is_zero for c in cs.values())
    for c in cs.values():
        assert pushforward_forget_small(c.scale(-1), d) == (
            pushforward_forget_small(c, d).scale(-1)
        )
        third = Fraction(1, 3)
        assert pushforward_forget_small(c.scale(third), d) == (
            pushforward_forget_small(c, d).scale(third)
        )


def test_pushforward_forget_small_equals_single_rounds():
    # light markings 2, 3, 4 of mixed weights; coefficients with
    # denominators; a block through marking 4 and a psi at it cancel after
    # the first round: D_{{3,4},2} -> -psi_3 and psi_3 psi_4 -> 2 psi_3
    w = WeightData((Fraction(1, 2), Fraction(1, 4), Fraction(1, 10),
                    Fraction(1, 12)))
    c = _smooth_class(
        2, w,
        (Fraction(2, 3), [("Dsa", (3, 4), 2)]),
        (Fraction(1, 3), [("psi", 3, 1), ("psi", 4, 1)]),
        (Fraction(-5, 7), [("Dsa", (2, 3, 4), 3), ("psi", 1, 1)]),
        (Fraction(3, 10), [("kappa", 1), ("psi", 2, 1), ("psi", 4, 3)]),
        (Fraction(1, 6), [("Dsa", (1, 4), 2), ("psi", 3, 2)]),
    )
    graph = StableGraph((1, 1), (0, 1, 0, 1), ((0, 1),))
    oracle_add_words(c, graph, [[("psi", i, 2) for i in graph.legs_at(v)]
                                for v in range(graph.n_vertices)],
                     Fraction(-1, 4))
    psi3 = (((), (((("m", 3),), 1),)),)
    assert psi3 not in [key[3] for key in pushforward_forget_small(c).terms]
    current = c
    for count in range(1, 4):
        current = pushforward_forget_small(current)
        assert pushforward_forget_small(c, count) == current
        assert (pushforward_forget_small(c, count).dumps()
                == oracle_pushforward_forget_small(c, count).dumps())
    assert not current.is_zero


@pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1, 3),
                                 Fraction(1, 2)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pushforward_forget_small_matches_oracle_on_chern_classes(d, eps):
    weights = eps_weights(d, eps)
    cs = chern_neg_Bd(d, 8, 2, weights)
    for c in cs.values():
        if _forgets_a_heavy_point(weights, d):
            with pytest.raises(PreconditionError, match="w_n <= 1"):
                pushforward_forget_small(c, d)
        else:
            assert (pushforward_forget_small(c, d).dumps()
                    == oracle_pushforward_forget_small(c, d).dumps())


@pytest.mark.parametrize("first", ["heavy", "light"])
def test_heavy_block_test_is_kept_per_weight_vector(first):
    # the pair {1, 2} weighs 4/3 under (2/3, 2/3) and 2/3 under (1/3, 1/3);
    # the kernel reads only the weight of the merged point tuple
    spaces = {"heavy": WeightData((Fraction(2, 3), Fraction(2, 3))),
              "light": WeightData((Fraction(1, 3), Fraction(1, 3)))}
    order = [first] + [k for k in spaces if k != first]
    for kind in order:
        w = spaces[kind]
        vd = classes._vertex_product(((), (((("m", 1),), 1),)),
                                     ((), (((("m", 1), ("m", 2)), 1),)), w)
        if kind == "heavy":
            assert vd is None
        else:
            assert vd == ((), (((("m", 1), ("m", 2)), 2),))
        assert w._heavy == {(("m", 1), ("m", 2)): kind == "heavy"}
    # equal weight vectors give equal answers, whichever object asks
    again = WeightData((Fraction(2, 3), Fraction(2, 3)))
    assert classes._vertex_product(((), (((("m", 1),), 1),)),
                                   ((), (((("m", 1), ("m", 2)), 1),)),
                                   again) is None


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ---------------------------------------------------------------------------
# Weight-one forgetful push-forward
# ---------------------------------------------------------------------------


class TestForgetWeightOne:
    def wts(self, n):
        return WeightData(tuple([Fraction(1)] * n))

    def test_pure_point_dies(self):
        c = TautClass.one(2, self.wts(1))
        assert pushforward_forget(c).is_zero

    def test_psi_power_gives_modified_kappa(self):
        c = TautClass(2, self.wts(1))
        oracle_add_words(c, smooth(2, 1), [[("psi", 1, 2)]], 1)
        down = pushforward_forget(c)
        assert down == kappa_class(2, WeightData(()), 1)

    def test_psi_one_counts_euler_characteristic(self):
        w = WeightData((Fraction(1), Fraction(1)))
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 2), [[("psi", 2, 1)]], 1)
        down = pushforward_forget(c)
        # 2g - 2 + (number of remaining legs) = 2 + 1
        expected = TautClass.one(2, WeightData((Fraction(1),))).scale(3)
        assert down == expected

    def test_modified_kappa_spreads_to_legs(self):
        w = WeightData((Fraction(1), Fraction(1)))
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 2), [[("psi", 2, 3)]], 1)
        down = pushforward_forget(c)
        w1 = WeightData((Fraction(1),))
        expected = kappa_class(2, w1, 2)
        extra = TautClass(2, w1)
        oracle_add_words(extra, smooth(2, 1), [[("psi", 1, 2)]], 1)
        assert down == expected + extra

    def test_boundary_half_edges_count(self):
        w = WeightData((Fraction(1),))
        graph = StableGraph((1, 1), (0,), ((0, 1),))
        c = TautClass(2, w)
        oracle_add_words(c, graph, [[("psi", 1, 1)], []], 1)
        down = pushforward_forget(c)
        # at vertex 0: 2 - 2 + one half-edge = 1
        w0 = WeightData(())
        expected = TautClass(2, w0)
        oracle_add_words(expected, StableGraph((1, 1), (), ((0, 1),)),
                         [[], []], 1)
        assert down == expected
        # a lone marking passes the light check, but its weight fixes the rule
        assert pushforward_forget_small(c) == expected

    def test_contraction_merges_parallel_edges(self):
        # forgetting the only point of a genus-0 vertex between two
        # parallel edges contracts it to a loop on the neighbour
        w = WeightData((Fraction(1),))
        graph = StableGraph((0, 2), (0,), ((0, 1), (0, 1)))
        c = TautClass(3, w)
        oracle_add_words(c, graph, [[], []], 1)
        pushed = pushforward_forget(c)
        assert len(pushed.terms) == 1
        ((genera, legs, edges, decor),) = pushed.terms
        assert genera == (2,) and legs == () and edges == ((0, 0),)
        assert pushed.terms[(genera, legs, edges, decor)] == 1

    def test_contraction_kills_positive_decor(self):
        # any positive-degree class on the contracted three-pointed
        # genus-0 factor vanishes
        w = WeightData((Fraction(1),))
        graph = StableGraph((0, 2), (0,), ((0, 1), (0, 1)))
        c = TautClass(3, w)
        oracle_add_words(c, graph, [[("psi", 1, 1)], []], 1)
        assert pushforward_forget(c).is_zero

    def test_contraction_moves_leg_to_neighbour(self):
        # one half-edge and a light leg: the leg moves to the attachment
        # point, and the neighbour's branch psi becomes the leg psi
        w = WeightData((Fraction(1, 10), Fraction(1)))
        graph = StableGraph((0, 2), (0, 0), ((0, 1),))
        c = TautClass(2, w)
        oracle_add_words(c, graph, [[], [("hpsi", (0, 1), 2)]], 1)
        pushed = pushforward_forget(c)
        expected = TautClass(2, WeightData((Fraction(1, 10),)))
        oracle_add_words(
            expected, StableGraph((2,), (0,), ()), [[("psi", 1, 2)]], 1
        )
        assert pushed == expected

    def test_contraction_joins_two_neighbours(self):
        # the two edges at the contracted vertex become one edge between
        # its neighbours, which keep their branch psi powers
        w = WeightData((Fraction(1),))
        graph = StableGraph((1, 0, 1), (1,), ((0, 1), (1, 2)))
        c = TautClass(3, w)
        oracle_add_words(
            c, graph, [[("hpsi", (0, 0), 1)], [], [("hpsi", (1, 1), 2)]], 3
        )
        pushed = pushforward_forget(c)
        expected = TautClass(3, WeightData(()))
        oracle_add_words(
            expected, StableGraph((1, 1), (), ((0, 1),)),
            [[("hpsi", (0, 0), 1)], [("hpsi", (0, 1), 2)]], 3,
        )
        assert pushed == expected

    def test_terms_sharing_a_graph_are_each_pushed(self):
        # each graph is validated once per call, a failed validation
        # included, and every term is still pushed: the push-forward of the
        # sum is the sum of the push-forwards of its terms
        w = WeightData((Fraction(1),))
        joins = StableGraph((1, 0, 1), (1,), ((0, 1), (1, 2)))
        split = StableGraph((1, 1), (0,), ((0, 1),))
        terms = [
            (joins, [[("hpsi", (0, 0), 1)], [], [("hpsi", (1, 1), 2)]], 3),
            (joins, [[("kappa", 1)], [], []], Fraction(-1, 2)),
            (joins, [[], [("hpsi", (0, 1), 1)], []], 5),
            (split, [[("psi", 1, 2)], []], Fraction(2, 3)),
            (split, [[("psi", 1, 1), ("kappa", 1)], [("hpsi", (0, 1), 1)]],
             7),
        ]
        c = TautClass(2, w)
        expected = TautClass(2, WeightData(()))
        for graph, words, coeff in terms:
            single = TautClass(2, w)
            oracle_add_words(single, graph, words, coeff)
            oracle_add_words(c, graph, words, coeff)
            expected = expected + pushforward_forget(single)
        assert len(c.terms) == len(terms)
        pushed = pushforward_forget(c)
        assert pushed == expected
        assert len(pushed.terms) == 4

    def test_lone_three_pointed_component_flagged(self):
        # forgetting a point of M_{0,(1,1,1)} leaves M_{0,(1,1)}, which
        # does not exist: the target is checked before any term is read
        c = TautClass.one(0, self.wts(3))
        with pytest.raises(PreconditionError,
                           match=r"2g-2\+sum\(w\) > 0 violated: g=0, "
                                 r"weights=1,1"):
            pushforward_forget(c)

    @pytest.mark.parametrize("weights,text", [
        ((Fraction(1), Fraction(1, 10)), "1,1/10"), ((), "()")])
    def test_last_point_must_weigh_one(self, weights, text):
        # a last point of weight below one takes the light rule, which
        # 1/10 after a point of weight one fails; with no point at all
        # there is nothing to forget
        message = {"1,1/10": "w(S) + w_n <= 1 whenever w(S) <= 1 violated: "
                             "n=2, S={1}",
                   "()": "0 <= count <= n violated: count=1, n=0"}[text]
        c = TautClass.one(2, WeightData(weights))
        with pytest.raises(PreconditionError, match=re.escape(message)):
            pushforward_forget(c)

    def test_destabilization_flagged(self):
        # a contracted component with moduli (two light legs) is out of
        # scope for the forgetful push-forward
        w = WeightData((Fraction(1, 10), Fraction(1, 10), Fraction(1)))
        graph = StableGraph((0, 2), (0, 0, 0), ((0, 1),))
        c = TautClass(2, w)
        oracle_add_words(c, graph, [[], []], 1)
        with pytest.raises(NotImplementedError,
                           match="forgetting this point contracts a "
                                 "component: vertex 0 unstable"):
            pushforward_forget(c)

    def test_point_on_a_diagonal_block_raises(self):
        # D_{{1,2},1} with w_2 = 1 weighs more than one, so no stored class
        # holds it; built by hand, it is not read by the light-point rule
        w = WeightData((Fraction(1, 10), Fraction(1)))
        graph = smooth_graph(2, 2)
        block = ((("m", 1), ("m", 2)), 1)
        c = TautClass(2, w, {canonical_term(graph, (((), (block,)),)):
                             Fraction(1)})
        with pytest.raises(ValueError,
                           match="weight-one point sits on a diagonal block"):
            pushforward_forget(c)


class TestForget:
    """``pushforward_forget`` picks each point's rule from its weight."""

    w = WeightData((Fraction(1, 10), Fraction(1, 10), Fraction(1)))

    def test_weight_one_point_then_a_light_run(self):
        c = _smooth_class(2, self.w, (1, [("psi", 3, 3)]),
                          (Fraction(1, 2), [("psi", 1, 1), ("psi", 3, 2)]))
        once = pushforward_forget(c)
        # psi_3^b -> kappa_{b-1} + psi_1^{b-1} + psi_2^{b-1}
        assert once == _smooth_class(
            2, WeightData(self.w.weights[:2]), (1, [("kappa", 2)]),
            (1, [("psi", 1, 2)]), (1, [("psi", 2, 2)]),
            (Fraction(1, 2), [("psi", 1, 1), ("kappa", 1)]),
            (Fraction(1, 2), [("psi", 1, 2)]),
            (Fraction(1, 2), [("psi", 1, 1), ("psi", 2, 1)]))
        assert pushforward_forget(c, 3) == pushforward_forget_small(once, 2)
        assert pushforward_forget(c, 0) == c

    def test_target_checked_before_any_term(self):
        # the weight-one pass would raise on the term, whose genus-0
        # vertex keeps two light legs; the genus-one target of no points
        # does not exist, and that is named first
        graph = StableGraph((0, 1), (0, 0, 0), ((0, 1),))
        c = TautClass(1, self.w)
        oracle_add_words(c, graph, [[], []], 1)
        with pytest.raises(NotImplementedError):
            pushforward_forget(c)
        with pytest.raises(PreconditionError,
                           match=r"2g-2\+sum\(w\) > 0 violated: g=1, "
                                 r"weights=\(\)"):
            pushforward_forget(c, 3)
        for count in (-1, 4):
            with pytest.raises(PreconditionError, match="0 <= count <= n"):
                pushforward_forget(c, count)
        # a class with no marking has none to forget
        with pytest.raises(PreconditionError,
                           match=re.escape("0 <= count <= n violated: "
                                           "count=1, n=0")):
            pushforward_forget(TautClass.one(2, WeightData(())))


def oracle_forget_weight_one(c):
    """Forget the last marking, of weight one, word by word: ``psi_n^b`` at
    vertex ``v`` goes to ``kappa_{b-1} + sum_p psi_p^{b-1}`` over the other
    legs and the half-edges at ``v`` (``kappa_0`` the scalar ``2 g(v) - 2``,
    ``psi^0 = 1``), and a term dies if ``n`` is in no block.  A term whose
    graph the point leaves unstable is pushed alone by
    ``pushforward_forget``."""
    point = ("m", c.weights.n)
    weights = WeightData(c.weights.weights[:-1])
    out = TautClass(c.genus, weights)
    for key, coeff in c.terms.items():
        genera, legs, edges, decor = key
        graph = StableGraph(genera, legs[:-1], edges)
        try:
            graph.validate(weights, c.genus)
        except ValueError:
            out = out + pushforward_forget(
                TautClass(c.genus, c.weights, {key: coeff}))
            continue
        v = legs[-1]
        kappa, blocks = decor[v]
        powers = [a for pts, a in blocks if pts == (point,)]
        if not powers:
            continue
        words = decor_words(decor)
        rest = decor_words(
            ((kappa, [b for b in blocks if b[0] != (point,)]),))[0]
        j = powers[0] - 1
        for factor in ([("kappa", j)]
                       + [("psi", m, j) for m in graph.legs_at(v)]
                       + [("hpsi", he, j) for he in graph.half_edges_at(v)]):
            words[v] = rest + [factor]
            oracle_add_words(out, graph, words, coeff)
    return out


def _forget_outcome(push, c, count):
    """The bytes of ``push(c, count)``, which stores no zero coefficient,
    or the type and message of the exception it raises."""
    try:
        pushed = push(c, count)
    except (ValueError, NotImplementedError) as exc:
        return type(exc).__name__, str(exc)
    assert all(pushed.terms.values())
    return pushed.dumps()


def _forget_in_rounds(c, count):
    """``count`` rounds of ``pushforward_forget(., 1)``, each weight-one
    round checked against :func:`oracle_forget_weight_one`.  As in one
    call, the final target is checked first, and a run of light rounds
    first checks every graph it starts from against the weights at the
    run's end, even for terms that die on the way."""
    stop = c.weights.n - count
    check_stable(c.genus, WeightData(c.weights.weights[:stop]))
    light = False
    while c.weights.n > stop:
        w = c.weights.weights
        if w[-1] == 1:
            assert (_forget_outcome(pushforward_forget, c, 1)
                    == _forget_outcome(lambda d, _: oracle_forget_weight_one(d),
                                       c, 1))
        elif not light:
            end = len(w)
            while end > stop and w[end - 1] != 1:
                end -= 1
            for genera, legs, edges, _ in c.terms:
                StableGraph(genera, legs[:end], edges).validate(
                    WeightData(w[:end]), c.genus)
        light = w[-1] != 1
        c = pushforward_forget(c, 1)
    return c


# light points first, then weight-one points: a weight-one pass comes
# before a light run
FORGET_WEIGHTS = [WeightData(w) for w in (
    (Fraction(1, 10), Fraction(1, 10), Fraction(1)),
    (Fraction(1, 10), Fraction(1, 10), Fraction(1), Fraction(1)),
    (Fraction(1, 10), Fraction(1), Fraction(1)),
)]


@st.composite
def forget_cases(draw):
    """A class on weights of ``FORGET_WEIGHTS``, of edge-free terms or of
    terms with up to two edges, and a count of points to forget."""
    weights = draw(st.sampled_from(FORGET_WEIGHTS))
    genus = draw(st.integers(1, 2))
    smooth_only = draw(st.booleans())
    return (draw(stored_classes(genus, weights, smooth_only)),
            draw(st.integers(1, weights.n)))


def _bridge_case():
    """psi_1^2 psi_2^2 on a genus-one vertex, with the weight-one point 3
    on a genus-zero bridge to another genus-one vertex: forgetting point
    3 contracts the bridge, and the light run then forgets 1 and 2."""
    c = TautClass(2, FORGET_WEIGHTS[0])
    oracle_add_words(c, StableGraph((1, 0, 1), (0, 0, 1), ((0, 1), (1, 2))),
                     [[("psi", 1, 2), ("psi", 2, 2)], [], []], 1)
    return c, 3


@settings(max_examples=300, deadline=None)
@example(_bridge_case())
@given(forget_cases())
def test_pushforward_forget_equals_single_rounds(case):
    c, count = case
    assert (_forget_outcome(pushforward_forget, c, count)
            == _forget_outcome(_forget_in_rounds, c, count))


# ---------------------------------------------------------------------------
# Weight reduction
# ---------------------------------------------------------------------------


class TestWeightReduce:
    def test_plain_restriction_keeps_terms(self):
        w_old = eps_weights(2, Fraction(1, 10))
        w_new = eps_weights(2, Fraction(1, 20))
        c = TautClass(2, w_old)
        oracle_add_words(c, smooth(2, 2), [[("diag", (1, 2))]], 1)
        red = weight_reduce(c, w_new)
        expected = TautClass(2, w_new)
        oracle_add_words(expected, smooth(2, 2), [[("diag", (1, 2))]], 1)
        assert red == expected

    def test_unstable_vertex_dropped(self):
        # genus-0 vertex with one half-edge and two markings destabilizes
        # once the markings get too light.
        w_old = WeightData((Fraction(3, 4), Fraction(3, 4)))
        w_new = WeightData((Fraction(1, 4), Fraction(1, 4)))
        graph = StableGraph((0, 2), (0, 0), ((0, 1),))
        c = TautClass(2, w_old)
        oracle_add_words(c, graph, [[], []], 1)
        oracle_add_words(c, smooth(2, 2), [[("kappa", 1)]], 1)
        red = weight_reduce(c, w_new)
        expected = TautClass(2, w_new)
        oracle_add_words(expected, smooth(2, 2), [[("kappa", 1)]], 1)
        assert red == expected

    def test_increase_rejected(self):
        w_old = eps_weights(1, Fraction(1, 10))
        c = TautClass.one(2, w_old)
        with pytest.raises(ValueError):
            weight_reduce(c, eps_weights(1, Fraction(1, 2)))


# ---------------------------------------------------------------------------
# Divisor products and the boundary exponential identity
# ---------------------------------------------------------------------------


class TestDivisorProduct:
    def test_irreducible_divisor_square_excess(self):
        # the self-intersection part of (xi_* 1)^2 for the non-separating
        # divisor in genus 2 carries the excess factor -(psi_1 + psi_2)
        w = WeightData(())
        loop = StableGraph((1,), (), ((0, 0),))
        c = TautClass(2, w)
        oracle_add_words(c, loop, [[]], 1)
        prod = divisor_product(c, c)
        excess = max_edges_part(prod, 1)
        expected = TautClass(2, w)
        oracle_add_words(expected, loop, [[("hpsi", (0, 0), 1)]], -2)
        oracle_add_words(expected, loop, [[("hpsi", (0, 1), 1)]], -2)
        assert excess == expected
        assert max_edges_part(prod, 2) == prod  # two divisors meet in <= 2 edges
        two_edge = {
            k: v for k, v in prod.terms.items() if len(k[2]) == 2
        }
        assert two_edge  # transversal part is present

    def test_disjoint_supports_no_excess(self):
        w = WeightData(())
        loop = StableGraph((2,), (), ((0, 0),))
        sep = StableGraph((1, 2), (), ((0, 1),))
        a = TautClass(3, w)
        oracle_add_words(a, loop, [[]], 1)
        b = TautClass(3, w)
        oracle_add_words(b, sep, [[], []], 1)
        prod = divisor_product(a, b)
        assert all(len(k[2]) == 2 for k in prod.terms)

    @pytest.mark.parametrize("genus", [2, 3])
    def test_exponential_identity_constant_kernel(self, genus):
        lhs, rhs = divisor_exp_check(
            genus, WeightData(()), {(0, 0): Fraction(-1, 12)}
        )
        assert lhs == rhs

    @pytest.mark.parametrize("genus", [2, 3])
    def test_exponential_identity_bernoulli_kernel(self, genus):
        # truncation of -sum B_{2i}/(2i(2i-1)) (x^{2i-1}+y^{2i-1})/(x+y)
        f = {}
        for i in (1, 2):
            c = -Fraction(bernoulli(2 * i), 2 * i * (2 * i - 1))
            n = 2 * i - 1
            for k in range(n):
                key = (n - 1 - k, k)
                f[key] = f.get(key, Fraction(0)) + c * (-1) ** k
        lhs, rhs = divisor_exp_check(genus, WeightData(()), f)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


class TestRank:
    def test_proportional_classes(self):
        w = WeightData(())
        k2 = kappa_class(3, w, 2)
        basis, rows = to_vector([k2, k2.scale(Fraction(5, 7))])
        assert matrix_rank(rows) == 1

    def test_independent_classes(self):
        w = WeightData(())
        k2 = kappa_class(3, w, 2)
        k11 = kappa_class(3, w, 1, 1)
        basis, rows = to_vector([k2, k11])
        assert matrix_rank(rows) == 2

    def test_mixed_codim_rejected(self):
        w = WeightData(())
        with pytest.raises(ValueError):
            to_vector([kappa_class(3, w, 2), kappa_class(3, w, 1)])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_round_trip(self):
        w = WeightData((Fraction(1), Fraction(1, 3)))
        c = TautClass(2, w)
        oracle_add_words(c, smooth(2, 2), [[("kappa", 1), ("psi", 1, 2)]],
                         Fraction(3, 7))
        graph = StableGraph((1, 1), (0, 1), ((0, 1),))
        oracle_add_words(c, graph, [[("hpsi", (0, 0), 1)], []], -2)
        data = c.dumps()
        back = TautClass.from_dict(__import__("json").loads(data))
        assert back == c
        assert back.dumps() == data

    def test_deterministic_bytes(self):
        w = WeightData(())
        c1 = kappa_class(2, w, 1) + kappa_class(2, w, 1).scale(2)
        c2 = kappa_class(2, w, 1).scale(3)
        assert c1.dumps() == c2.dumps()
