"""Tests for the relation constructions and the evaluation chain."""

import random
from fractions import Fraction
from math import factorial

import pytest

from tautrels.catalog import hyper_A, phi_family, series_C
from tautrels.classes import (
    TautClass,
    chern_neg_Bd,
    matrix_rank,
    pushforward_forget_small,
    to_vector,
    weight_reduce,
)
from tautrels.graphs import StableGraph, WeightData
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
    reduction_lemma_demo,
    verify_chain,
    zeta_twist,
)
from tautrels.series import Ring, VarSpec


def smooth(genus, n):
    return StableGraph((genus,), tuple(0 for _ in range(n)), ())


def kappa_class(genus, weights, *indices):
    c = TautClass(genus, weights)
    c.add_word_term(smooth(genus, weights.n), [[("kappa", j) for j in indices]], 1)
    return c


W0 = WeightData(())


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
            part = fz_relation(g, w, r, S, max_edges=0)
            open_part = open_fz_relation(g, n, r, S, weights=w)
            assert part == open_part.scale(2), (g, n, r, S)

    def test_parity_enforced(self):
        with pytest.raises(PreconditionError, match="even"):
            fz_relation(2, W0, 2)

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
                b = boundary_sq_relation(
                    3, W0, 2, 1, (), half_sign=hs, pd_sign=ps, max_edges=0
                )
                o = open_sq_relation(3, W0, 2, 1, (), half_sign=hs, pd_sign=ps)
                assert not b.is_zero
                assert b == o, (hs, ps)

    def test_full_relation_is_homogeneous(self):
        rel = boundary_sq_relation(3, W0, 2, 1, ())
        assert rel.codims() == {2}
        assert rel.max_edges_part(0) == open_sq_relation(3, W0, 2, 1, ())

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
        assert reduction_lemma_demo(seed=11, trials=25, deg=5, c=4)


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
        ds = DecoratedSeries(ring, StableGraph((g,), (), ()), w0, g)
        bracket_kappa(zeta_twist(fam["logPhi"], "t", zeta), ds, 0, sign=-1)
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
