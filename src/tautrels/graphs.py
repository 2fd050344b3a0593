"""Stable graphs for weighted pointed curves.

A :class:`StableGraph` records vertex genera, a placement of numbered legs
(marked points) on vertices, and a multiset of edges (including loops).
Marked points carry rational weights in (0, 1]; a vertex is stable when

    2 g(v) - 2 + (number of half-edges at v) + sum of leg weights at v > 0.

Which relabellings of a graph exist is decided in one place.
``StableGraph.vertex_maps`` yields the vertex maps that send each genus
class onto the positions of equal genus in a target genus sequence, and
``StableGraph.half_edge_maps`` yields, for one vertex map, the image edges
with every half-edge map onto them: parallel edges are renumbered among
themselves and loops may flip sides.  The canonical representative of an
isomorphism class is the lexicographic minimum of (genera, legs, edges)
over vertex relabellings; it has sorted genera, so the genus-block maps
onto the sorted genera reach it.  ``StableGraph.relabellings`` lists,
once per graph object, every vertex and half-edge map onto it: a coset of
the automorphism group, so ``automorphism_order`` is their number, and
``classes.canonical_term`` takes a decorated term's minimum over them.

``enumerate_graphs`` generates graphs by degeneration, one edge at a time,
starting from the smooth graph: add a loop at a vertex of positive genus,
or split a vertex into two stable vertices joined by a new edge.  Every
stable graph with k + 1 edges arises this way from one with k edges,
because contracting an edge keeps a graph stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations, product
from math import lcm
from typing import Iterable


class PreconditionError(ValueError):
    """A named side condition of a request is violated."""

    def __init__(self, condition: str, detail: str):
        super().__init__(f"{condition} violated: {detail}")
        self.condition = condition


def json_int(value, field: str) -> int:
    """``value``, an integer read from a file; a float or a boolean raises
    ``ValueError`` naming ``field``."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {value!r}")
    return value


def json_int_text(value, field: str) -> int:
    """An integer written as a string, as rationals are written to files,
    or as a JSON integer."""
    return int(value) if type(value) is str else json_int(value, field)


def _is_stable(genus: int, half_edges: int, leg_weight: Fraction) -> bool:
    return 2 * genus - 2 + half_edges + leg_weight > 0


def check_stable(g: int, weights: WeightData) -> None:
    """The space of genus ``g`` curves with ``weights`` exists."""
    if g < 0:
        raise PreconditionError("genus >= 0", f"genus={g}")
    if not _is_stable(g, 0, sum(weights.weights)):
        raise PreconditionError(
            "2g-2+sum(w) > 0",
            f"g={g}, weights={','.join(map(str, weights.weights)) or '()'}"
        )


@dataclass(frozen=True)
class WeightData:
    """Marked-point weights: marking i (1-based) has weight weights[i]."""

    weights: tuple

    @classmethod
    def of(cls, values: Iterable) -> "WeightData":
        ws = tuple(Fraction(v) for v in values)
        if any(not (0 < w <= 1) for w in ws):
            raise PreconditionError(
                "weights in (0, 1]", f"weights={','.join(map(str, ws))}"
            )
        return cls(ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    def weight(self, marking: int) -> Fraction:
        return self.weights[marking - 1]

    @cached_property
    def _scaled(self) -> tuple:
        """``(den, nums)``: weight i is ``nums[i - 1] / den``, den the lcm."""
        den = lcm(*(w.denominator for w in self.weights))
        nums = tuple(w.numerator * (den // w.denominator) for w in self.weights)
        return den, nums

    @cached_property
    def _heavy(self) -> dict:
        """``{points: heavy}`` for the blocks of two or more markings met
        so far (:meth:`heavy`)."""
        return {}

    def heavy(self, points: tuple) -> bool:
        """Whether the block of ``points``, a sorted tuple of two or more
        markings ``("m", i)``, weighs more than one; worked out once per
        tuple (``_heavy``)."""
        heavy = self._heavy.get(points)
        if heavy is None:
            den, nums = self._scaled
            heavy = self._heavy[points] = (
                sum(nums[p[1] - 1] for p in points) > den)
        return heavy

    def subset_weight(self, markings: Iterable[int]) -> Fraction:
        den, nums = self._scaled
        return Fraction(sum(nums[i - 1] for i in markings), den)

    def is_generic(self) -> bool:
        """No subset of two or more markings has weight exactly one."""
        idx = range(1, self.n + 1)
        for size in range(2, self.n + 1):
            for s in combinations(idx, size):
                if self.subset_weight(s) == 1:
                    return False
        return True

    def perturbed(self) -> "WeightData":
        """Scale non-unit weights down so all non-singleton subset sums of
        weight exactly one become strictly smaller, without any subset sum
        crossing one from below or above."""
        sums = set()
        idx = [i for i in range(1, self.n + 1)]
        for size in range(1, self.n + 1):
            for s in combinations(idx, size):
                sums.add(self.subset_weight(s))
        gaps = [abs(v - 1) for v in sums if v != 1]
        margin = min(gaps, default=Fraction(1))
        eps = margin / (2 * max(sum(1 for w in self.weights if w != 1), 1) + 2)
        new = tuple(
            w if w == 1 else w * (1 - eps / max(w, Fraction(1, 2)) / self.n)
            for w in self.weights
        )
        out = WeightData(new)
        return out if out.is_generic() else out.perturbed()


@dataclass(frozen=True)
class StableGraph:
    """genera[v] is the genus of vertex v; legs[k] = vertex of marking k+1;
    edges is a sorted tuple of vertex pairs (v <= w), loops included."""

    genera: tuple
    legs: tuple
    edges: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def genus(self) -> int:
        h1 = self.n_edges - self.n_vertices + 1
        return sum(self.genera) + h1

    def legs_at(self, v: int) -> list:
        return [k + 1 for k, w in enumerate(self.legs) if w == v]

    def half_edges_at(self, v: int) -> list:
        """Half-edge ids (edge_index, side) incident to v."""
        out = []
        for idx, (a, b) in enumerate(self.edges):
            if a == v:
                out.append((idx, 0))
            if b == v:
                out.append((idx, 1))
        return out

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return False
        seen = {0}
        frontier = [0]
        adj: dict = {v: set() for v in range(self.n_vertices)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n_vertices

    def validate(self, weights: WeightData, genus: int) -> None:
        """Raise ValueError on any structural or stability defect."""
        if len(self.legs) != weights.n:
            raise ValueError("leg count does not match weight data")
        if any(not (0 <= v < self.n_vertices) for v in self.legs):
            raise ValueError("leg placed on a missing vertex")
        if any(
            not (0 <= a < self.n_vertices and 0 <= b < self.n_vertices and a <= b)
            for a, b in self.edges
        ):
            raise ValueError("malformed edge")
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("edges must be sorted")
        if any(g < 0 for g in self.genera):
            raise ValueError("negative genus")
        if not self.is_connected():
            raise ValueError("graph is not connected")
        if self.genus != genus:
            raise ValueError(f"total genus {self.genus} != {genus}")
        for v in range(self.n_vertices):
            nh = len(self.half_edges_at(v))
            wsum = weights.subset_weight(self.legs_at(v))
            if not _is_stable(self.genera[v], nh, wsum):
                raise ValueError(f"vertex {v} unstable")

    def vertex_maps(self, genera: tuple | None = None):
        """Vertex maps ``perm`` (vertex v goes to position perm[v]) that send
        every vertex to a position of equal genus in ``genera``.

        The default target is the sorted genera, where every lexicographic
        minimum over relabellings lies.  Nothing is yielded when the genus
        multisets differ.
        """
        if genera is None:
            genera = tuple(sorted(self.genera))
        if sorted(genera) != sorted(self.genera):
            return
        sources: dict = {}
        targets: dict = {}
        for v, g in enumerate(self.genera):
            sources.setdefault(g, []).append(v)
        for pos, g in enumerate(genera):
            targets.setdefault(g, []).append(pos)
        order = [v for members in sources.values() for v in members]
        blocks = [permutations(targets[g]) for g in sources]
        perm = [0] * self.n_vertices
        for images in product(*blocks):
            for v, image in zip(order, chain.from_iterable(images)):
                perm[v] = image
            yield tuple(perm)

    def half_edge_maps(self, perm: tuple):
        """The edges relabelled by the vertex map ``perm``, with every
        half-edge map onto them.

        Yields ``(edges, hemap)``: ``edges`` is the sorted image edge tuple
        and ``hemap`` sends half-edge ``(e, s)`` to ``(e2, s2)`` with
        ``edges[e2][s2] == perm[self.edges[e][s]]``.  Parallel edges are
        renumbered among themselves in every order and loops may flip
        sides.
        """
        groups: dict = {}
        for idx, (a, b) in enumerate(self.edges):
            pa, pb = perm[a], perm[b]
            if a == b:
                options = ((0, 1), (1, 0))
            else:
                options = ((0, 1),) if pa < pb else ((1, 0),)
            pair = (pa, pb) if pa <= pb else (pb, pa)
            groups.setdefault(pair, []).append((idx, options))
        edges = []
        per_group = []
        for pair in sorted(groups):
            members = groups[pair]
            slots = range(len(edges), len(edges) + len(members))
            edges.extend([pair] * len(members))
            per_group.append([
                tuple(
                    ((idx, s), (slot, sides[s]))
                    for slot, (idx, _), sides in zip(slots, order, flips)
                    for s in (0, 1)
                )
                for order in permutations(members)
                for flips in product(*(options for _, options in order))
            ])
        edges = tuple(edges)
        for combo in product(*per_group):
            yield edges, dict(chain.from_iterable(combo))

    @cached_property
    def _minimum(self) -> tuple:
        """``(canonical graph, vertex maps)``: the lexicographic minimum of
        (genera, legs, edges) over vertex relabellings and the list of
        vertex maps that reach it.  The minimum has sorted genera, so only
        ``vertex_maps`` onto the sorted genera are tried."""
        best, perms = None, []
        for perm in self.vertex_maps():
            key = (
                tuple(perm[v] for v in self.legs),
                tuple(sorted(
                    (perm[a], perm[b]) if perm[a] <= perm[b]
                    else (perm[b], perm[a])
                    for a, b in self.edges
                )),
            )
            if best is None or key < best:
                best, perms = key, [perm]
            elif key == best:
                perms.append(perm)
        return StableGraph(tuple(sorted(self.genera)), *best), perms

    @cached_property
    def relabellings(self) -> list:
        """Every ``(vertex map, half-edge map)`` onto the canonical form,
        built only when asked for: a coset of Aut, so |Aut| of them."""
        return [(perm, hemap) for perm in self._minimum[1]
                for _, hemap in self.half_edge_maps(perm)]

    def canonical(self) -> "StableGraph":
        return self._minimum[0]

    def automorphism_order(self) -> int:
        """|Aut|: the number of relabellings onto the canonical form."""
        return len(self.relabellings)

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.genera),
            "legs": [[k + 1, v] for k, v in enumerate(self.legs)],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StableGraph":
        genera = tuple(json_int(g, "vertices") for g in d["vertices"])
        legs_map = {json_int(m, "legs"): json_int(v, "legs")
                    for m, v in d["legs"]}
        if sorted(legs_map) != list(range(1, len(d["legs"]) + 1)):
            raise ValueError("legs must name the markings 1..n once each")
        legs = tuple(legs_map[k] for k in sorted(legs_map))
        edges = tuple(sorted(tuple(sorted(json_int(v, "edges") for v in e))
                             for e in d["edges"]))
        return cls(genera, legs, edges)


def smooth_graph(genus: int, n_markings: int) -> StableGraph:
    return StableGraph((genus,), tuple(0 for _ in range(n_markings)), ())


def _degenerations(graph: StableGraph, weights: WeightData):
    """Stable graphs with one more edge that contract back to ``graph``.

    Either a loop is added at a vertex of positive genus, or a vertex v is
    split into v and a new last vertex joined by a new edge; the split
    distributes the genus, the legs and the half-edges at v, and both new
    vertices must be stable.  Graphs may repeat up to isomorphism.
    """
    new = graph.n_vertices
    for v, g_v in enumerate(graph.genera):
        if g_v >= 1:
            genera = graph.genera[:v] + (g_v - 1,) + graph.genera[v + 1:]
            edges = tuple(sorted(graph.edges + ((v, v),)))
            yield StableGraph(genera, graph.legs, edges)
        legs = graph.legs_at(v)
        halves = graph.half_edges_at(v)
        for leg_sides in product((v, new), repeat=len(legs)):
            leg_weight = {v: Fraction(0), new: Fraction(0)}
            placed = list(graph.legs)
            for k, side in zip(legs, leg_sides):
                leg_weight[side] += weights.weight(k)
                placed[k - 1] = side
            new_legs = tuple(placed)
            for half_sides in product((v, new), repeat=len(halves)):
                at_new = sum(1 for side in half_sides if side == new)
                # one half of the new edge lies at each of v and new
                valence = {v: len(halves) - at_new + 1, new: at_new + 1}
                ends = [list(e) for e in graph.edges]
                for (idx, s), side in zip(halves, half_sides):
                    ends[idx][s] = side
                edges = tuple(sorted(
                    [tuple(sorted(e)) for e in ends] + [(v, new)]
                ))
                for g_a in range(g_v + 1):
                    genus = {v: g_a, new: g_v - g_a}
                    if all(
                        _is_stable(genus[u], valence[u], leg_weight[u])
                        for u in (v, new)
                    ):
                        genera = (
                            graph.genera[:v] + (g_a,) + graph.genera[v + 1:]
                            + (g_v - g_a,)
                        )
                        yield StableGraph(genera, new_legs, edges)


def enumerate_graphs(
    genus: int, weights: WeightData, max_edges: int
) -> list:
    """All isomorphism classes of stable graphs of the given total genus with
    at most ``max_edges`` edges, legs weighted by ``weights``.

    Graphs with k + 1 edges are the degenerations of those with k edges:
    contracting any edge of a stable graph leaves a stable graph, so every
    class is reached.  Each class is kept as its canonical representative;
    the list is sorted by (edge count, genera, legs, edges).
    """
    if genus < 0:
        raise PreconditionError("genus >= 0", f"genus={genus}")
    if max_edges < 0:
        raise PreconditionError("max_edges >= 0", f"max_edges={max_edges}")
    if not _is_stable(genus, 0, sum(weights.weights)):
        return []
    smooth = smooth_graph(genus, weights.n)
    found = [smooth]
    level = [smooth]
    for _ in range(max_edges):
        keyed = {}
        for graph in level:
            for candidate in _degenerations(graph, weights):
                c = candidate.canonical()
                keyed.setdefault((c.genera, c.legs, c.edges), c)
        level = list(keyed.values())
        found.extend(level)
    return sorted(
        found, key=lambda g: (g.n_edges, g.genera, g.legs, g.edges)
    )


def enumerate_colorings(graph: StableGraph) -> list:
    """All maps from vertices to {1, -1}."""
    return [tuple(c) for c in product((1, -1), repeat=graph.n_vertices)]
