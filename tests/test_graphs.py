"""Tests for stable-graph enumeration, canonical forms and automorphisms."""

from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrels.graphs import (
    PreconditionError,
    StableGraph,
    WeightData,
    enumerate_colorings,
    enumerate_graphs,
    smooth_graph,
)

from oracles import graph_isos, iso_set, relabelled


def W(*vals):
    return WeightData.of(vals)


# ---------------------------------------------------------------------------
# Brute-force oracle: every edge multiset, genus composition and leg
# placement, with the canonical form and |Aut| taken over all n! vertex
# permutations.
# ---------------------------------------------------------------------------


def _key(graph):
    return (graph.genera, graph.legs, graph.edges)


def brute_canonical(graph):
    perms = permutations(range(graph.n_vertices))
    return min((relabelled(graph, perm) for perm in perms), key=_key)


def brute_automorphism_order(graph):
    vertex_syms = sum(
        1
        for perm in permutations(range(graph.n_vertices))
        if _key(relabelled(graph, perm)) == _key(graph)
    )
    half_edge = 1
    for (a, b), m in Counter(graph.edges).items():
        half_edge *= factorial(m) * (2 ** m if a == b else 1)
    return vertex_syms * half_edge


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_enumerate_graphs(genus, weights, max_edges):
    found = {}
    for n_edges in range(max_edges + 1):
        for n_vertices in range(1, n_edges + 2):
            h1 = n_edges - n_vertices + 1
            if genus - h1 < 0:
                continue
            pairs = [
                (a, b) for a in range(n_vertices) for b in range(a, n_vertices)
            ]
            for edges in combinations_with_replacement(pairs, n_edges):
                for genera in _compositions(genus - h1, n_vertices):
                    for legs in product(range(n_vertices), repeat=weights.n):
                        g = StableGraph(genera, legs, edges)
                        try:
                            g.validate(weights, genus)
                        except ValueError:
                            continue
                        cg = brute_canonical(g)
                        found[_key(cg)] = cg
    return sorted(found.values(), key=lambda g: (g.n_edges,) + _key(g))


ORACLE_WEIGHTS = {
    "none": W(),
    "unit": W(1),
    "light": W(F(1, 3)),
    "unit-pair": W(1, 1),
    "light-pair": W(F(1, 3), F(1, 4)),
    "mixed-pair": W(1, F(2, 3)),
    "non-generic": W(F(1, 2), F(1, 2)),
    "perturbed": W(F(1, 2), F(1, 2)).perturbed(),
}

ORACLE_CASES = [
    (genus, name, 3) for genus in range(4) for name in ORACLE_WEIGHTS
] + [(5, "none", 4)]


@pytest.mark.parametrize("genus,name,max_edges", ORACLE_CASES)
def test_enumeration_matches_brute_force(genus, name, max_edges):
    weights = ORACLE_WEIGHTS[name]
    graphs = enumerate_graphs(genus, weights, max_edges)
    assert graphs == brute_enumerate_graphs(genus, weights, max_edges)
    for g in graphs:
        assert g.automorphism_order() == brute_automorphism_order(g)


@pytest.mark.parametrize("genus", range(4))
def test_relabellings_are_every_map_onto_the_canonical_form(genus):
    loops = multi_edges = 0
    for name in ("none", "unit-pair", "light-pair"):
        for graph in enumerate_graphs(genus, ORACLE_WEIGHTS[name], 3):
            loops += any(a == b for a, b in graph.edges)
            multi_edges += len(set(graph.edges)) < graph.n_edges
            n = graph.n_vertices
            shifted = tuple((v + 1) % n for v in range(n))
            for g in (graph, relabelled(graph, tuple(reversed(range(n)))),
                      relabelled(graph, shifted)):
                canonical = g.canonical()
                assert iso_set(g.relabellings) == iso_set(
                    graph_isos(g, canonical))
                assert len(g.relabellings) == brute_automorphism_order(g)
                assert g.automorphism_order() == len(g.relabellings)
                # the cached labelling changes neither equality, hash nor
                # the serialised graph
                fresh = StableGraph(g.genera, g.legs, g.edges)
                assert g == fresh and hash(g) == hash(fresh)
                assert g.to_dict() == fresh.to_dict()
                assert canonical == brute_canonical(fresh)
    if genus:
        assert loops and multi_edges


def test_enumeration_rejects_negative_genus_and_edge_cap():
    with pytest.raises(PreconditionError, match=r"genus >= 0"):
        enumerate_graphs(-1, W(), 2)
    with pytest.raises(PreconditionError, match=r"max_edges >= 0"):
        enumerate_graphs(1, W(), -1)


@st.composite
def relabelled_graphs(draw):
    """A graph, not necessarily stable or connected, and a relabelling."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    genera = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    legs = tuple(draw(st.lists(vertex, max_size=3)))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=5))
    edges = tuple(sorted(tuple(sorted(e)) for e in pairs))
    perm = tuple(draw(st.permutations(range(n))))
    return StableGraph(genera, legs, edges), perm


@settings(max_examples=200, deadline=None)
@given(relabelled_graphs())
def test_canonical_is_relabelling_invariant_property(case):
    graph, perm = case
    other = relabelled(graph, perm)
    assert other.canonical() == graph.canonical() == brute_canonical(graph)
    assert other.automorphism_order() == graph.automorphism_order()
    assert graph.automorphism_order() == brute_automorphism_order(graph)


weight_values = st.builds(
    F, st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6, 7, 8, 1000])
).filter(lambda w: w <= 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(weight_values, max_size=6), st.data())
def test_subset_weight_is_exact_sum_property(values, data):
    # markings may repeat; an empty weight list only has the empty subset
    markings = data.draw(
        st.lists(st.integers(1, len(values)), max_size=len(values))
        if values else st.just([])
    )
    w = WeightData.of(values)
    for _ in range(2):
        total = w.subset_weight(markings)
        assert type(total) is F
        assert total == sum((values[i - 1] for i in markings), F(0))
    assert w.subset_weight([]) == 0 and type(w.subset_weight([])) is F
    fresh = WeightData.of(values)
    assert w == fresh and hash(w) == hash(fresh)
    if values:
        assert w != WeightData.of(values[:-1])


def test_weight_data_basics():
    w = W(1, F(1, 2), F(1, 3))
    assert w.n == 3
    assert w.subset_weight([2, 3]) == F(5, 6)
    with pytest.raises(ValueError):
        W(0)
    with pytest.raises(PreconditionError, match=r"weights in \(0, 1\]"):
        W(F(3, 2))


def test_weight_genericity_and_perturbation():
    w = W(F(1, 2), F(1, 2), F(1, 3))
    assert not w.is_generic()  # 1/2 + 1/2 == 1
    p = w.perturbed()
    assert p.is_generic()
    assert all(a < b for a, b in zip(p.weights[:2], w.weights[:2]))
    # unit weights are never perturbed
    w2 = W(1, F(1, 2))
    assert w2.perturbed().weights[0] == 1


def test_graph_genus_and_validation():
    # two genus-1 vertices joined by an edge: total genus 2
    g = StableGraph((1, 1), (), ((0, 1),))
    assert g.genus == 2
    g.validate(W(), 2)
    # a loop adds one to the genus
    g2 = StableGraph((1,), (), ((0, 0),))
    assert g2.genus == 2
    g2.validate(W(), 2)


def test_validation_rejects_unstable_vertex():
    # genus-0 vertex with a single half-edge and no legs
    g = StableGraph((0, 2), (), ((0, 1),))
    with pytest.raises(ValueError):
        g.validate(W(), 2)


def test_validation_rejects_disconnected():
    g = StableGraph((1, 1), (), ())
    with pytest.raises(ValueError):
        g.validate(W(), 2)


def test_stability_depends_on_weights():
    # genus-0 vertex carrying both legs and one half-edge: needs w1 + w2 > 1
    g = StableGraph((1, 0), (1, 1), ((0, 1),))
    g.validate(W(1, 1), 1)
    with pytest.raises(ValueError):
        g.validate(W(F(1, 2), F(1, 2)), 1)


def test_canonical_form_is_relabelling_invariant():
    g = StableGraph((2, 0, 1), (1, 2), ((0, 1), (1, 2), (2, 2)))
    for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1)]:
        assert relabelled(g, perm).canonical() == g.canonical()


def test_automorphism_orders():
    # single loop: flip the half-edges
    assert StableGraph((1,), (), ((0, 0),)).automorphism_order() == 2
    # two genus-1 vertices joined by an edge: swap the vertices
    assert StableGraph((1, 1), (), ((0, 1),)).automorphism_order() == 2
    # genus-0 vertex with two loops: swap loops and flip each
    assert StableGraph((0,), (), ((0, 0), (0, 0))).automorphism_order() == 8
    # double edge between distinct genera: swap the parallel edges only
    assert StableGraph((1, 1), (), ((0, 1), (0, 1))).automorphism_order() == 4
    # a marking breaks the vertex swap
    assert StableGraph((1, 1), (1,), ((0, 1),)).automorphism_order() == 1


def test_enumerate_genus2_no_markings():
    graphs = enumerate_graphs(2, W(), 2)
    by_edges = {}
    for g in graphs:
        by_edges.setdefault(g.n_edges, []).append(g)
    assert len(by_edges.get(0, [])) == 1
    # irreducible (loop on genus 1) and separating (two genus-1 vertices)
    assert len(by_edges.get(1, [])) == 2
    # two loops on genus 0; loop vertex joined to a genus-1 vertex
    assert len(by_edges.get(2, [])) == 2


def test_enumerate_genus3_no_markings():
    graphs = enumerate_graphs(3, W(), 2)
    counts = {}
    for g in graphs:
        counts[g.n_edges] = counts.get(g.n_edges, 0) + 1
    assert counts == {0: 1, 1: 2, 2: 5}


def test_enumerate_pointed_genus1():
    # one marking of any weight: smooth vertex and the loop vertex
    for w in (1, F(1, 3)):
        graphs = enumerate_graphs(1, W(w), 1)
        assert len(graphs) == 2


def test_enumerate_respects_weights():
    heavy = enumerate_graphs(1, W(1, 1), 1)
    light = enumerate_graphs(1, W(F(1, 2), F(1, 2)), 1)
    # the graph with both legs on a genus-0 tail needs w1 + w2 > 1
    assert len(heavy) == len(light) + 1


def test_enumerate_all_validate_and_are_canonical():
    w = W(1, F(2, 3))
    for g in enumerate_graphs(2, w, 2):
        g.validate(w, 2)
        assert g == g.canonical()


def test_colorings():
    g = StableGraph((1, 1), (), ((0, 1),))
    cols = enumerate_colorings(g)
    assert len(cols) == 4
    assert (1, -1) in cols


def test_graph_json_roundtrip():
    g = StableGraph((2, 0), (1, 1, 0), ((0, 0), (0, 1)))
    assert StableGraph.from_dict(g.to_dict()) == g


def test_smooth_graph():
    g = smooth_graph(3, 2)
    assert g.genus == 3 and g.n_edges == 0
    g.validate(W(1, 1), 3)
