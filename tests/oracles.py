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
"""

from fractions import Fraction

from tautrels.graphs import StableGraph
from tautrels.series import Series


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
