"""Tests for the named-series catalog and its internal identities."""

import random
from fractions import Fraction as F
from math import factorial

import pytest

from tautrels.catalog import (
    ZETA,
    SeriesCatalog,
    bernoulli,
    bernoulli_kernel_coefficients,
    catalog_ring,
    delta_edge,
    edge_series_xy,
    hyper_A,
    hyper_B,
    identity_suite,
    ionel_coefficient_pair,
    locality_series,
    log_hyper_A,
    phi_family,
    s_matrix,
    s_matrix_ode_residuals,
    series_C,
    series_orders,
    substitute_uy,
    uy_expansion,
    uy_ring,
)
from tautrels.series import Ring, Series, VarSpec

from oracles import edge_series_uy, oracle_divide_exact, oracle_locality_series


# ---------------------------------------------------------------------------
# Independent routes to catalog quantities, used only as oracles here
# ---------------------------------------------------------------------------


def c_neg1_coefficients(x_order: int) -> dict:
    """The t^{-1} layer C_d^{-1} = d! [t^-1 x^d] log Phi, for d = 1..x_order."""
    log_phi = phi_family(1, x_order)["logPhi"]
    return {d: log_phi.coefficient(t=-1, x=d) * factorial(d)
            for d in range(1, x_order + 1)}


def full_product_ionel_pair(f: Series, r: int, d: int) -> tuple:
    """Both sides of the coefficient-comparison lemma, the right one read
    off the full product of f(u, y) with (1+4y)^{(r+2d-2)/2}."""
    src = f.ring
    t_floor = src.spec("t").min_exponent
    x_top = src.spec("x").trunc_order - 1
    target = Ring(
        [VarSpec("u", min(t_floor, 0), max(r, 1) + 1), VarSpec("y", 0, d + x_top + 1)]
    )
    g = substitute_uy(f, target)
    y = target.var("y")
    weight = (1 + 4 * y).pow_fraction(F(r + 2 * d - 2, 2))
    rhs = F((-1) ** d) * (weight * g).coefficient(u=r, y=d)
    lhs = f.coefficient(t=r, x=d)
    return lhs, rhs


def product_pole_factors(d: int, order: int) -> Series:
    """prod_{i=1}^{d} (1 - i t)^{-1} as a plain power series in t, one
    inverse and one product per factor."""
    ring = Ring([VarSpec("t", 0, order + 1)])
    out = ring.one()
    for i in range(1, d + 1):
        out = out * (ring.one() - i * ring.var("t")).inverse()
    return out


def delta_i_by_uy_recursion(i_max: int, u_order: int, y_order: int) -> dict:
    """Independent recomputation of delta_i directly in the (u, y) chart.

    Uses the transformed Euler operator
    ``D = u (1+4y)^{-1/2} (2y u d/du + (1+4y) y d/dy)``
    and ``delta_{i+1} = (1+4y)^{(i+1)/2} D [(1+4y)^{-i/2} delta_i]``.
    """
    exp = uy_expansion(1, u_order, y_order)
    target = exp["ring"]
    y = target.var("y")
    u = target.var("u")
    one4y = 1 + 4 * y
    half_inv = one4y.pow_fraction(F(-1, 2))
    out = {1: exp["delta"][1]}
    for i in range(1, i_max):
        inner = out[i] * one4y.pow_fraction(F(-i, 2))
        d_inner = u * half_inv * (
            2 * y * inner.x_d_dx("u") + one4y * inner.x_d_dx("y")
        )
        out[i + 1] = d_inner * one4y.pow_fraction(F(i + 1, 2))
    return out


def s_matrix_row_by_ode(i: int, t_order: int, x_order: int) -> dict:
    """Order-by-order ODE solution for row i of the frame matrix at y = 0.

    Writing ``S_i^j = exp(y_i/t) H_i^j(T)`` with ``T = x exp(w)``, the system
    reduces to ``h_m (2 t m + z_i - z_j) = 2 (h^0_{m-1} - h^1_{m-1})`` with
    ``H_i^j(0) = [i == j]``.  This reconstructs the matrix independently of
    the closed form and is used as an oracle.
    """
    # Laurent ring: H picks up a pole of depth m at the x^m layer, and each
    # exact division by t costs one layer of top padding.
    ring = Ring([VarSpec("t", -x_order, t_order + x_order + 1)])
    h = {0: [ring.one() if i == 0 else ring.zero()],
         1: [ring.one() if i == 1 else ring.zero()]}
    zi = ZETA[i]
    for m in range(1, x_order + 1):
        rhs = 2 * (h[0][m - 1] - h[1][m - 1])
        for j, zj in enumerate(ZETA):
            den_const = zi - zj
            if den_const:
                den = ring.const(den_const) + 2 * m * ring.var("t")
                h[j].append(rhs * den.inverse())
            else:
                h[j].append(rhs.divide_exact(2 * m * ring.var("t")))
    return {"ring": ring, "h": h}


def canonical_coordinate(i: int, x_order: int) -> Series:
    """u^i(0, x) = -z_i sum_{d>=1} C_d^{-1} x^d / d!."""
    ring = Ring([VarSpec("x", 0, x_order + 1)])
    cneg = c_neg1_coefficients(x_order)
    zi = ZETA[i]
    return ring.series(
        {(d,): -zi * cneg[d] / factorial(d) for d in range(1, x_order + 1)}
    )


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    assert bernoulli(7) == 0


def test_hyper_A_low_coefficients():
    # (6i)!/((3i)!(2i)!) / 72^i for i = 0, 1, 2 worked out by hand
    A = hyper_A(4)
    assert A.coefficient(t=0) == 1
    assert A.coefficient(t=1) == F(5, 6)
    assert A.coefficient(t=2) == F(385, 72)


def test_hyper_B_low_coefficients():
    B = hyper_B(4)
    assert B.coefficient(t=0) == -1
    assert B.coefficient(t=1) == F(5, 6) * F(7, 5)


def test_AB_antisymmetry():
    A, B = hyper_A(20), hyper_B(20)
    lhs = A * B.substitute({"t": -1}) + A.substitute({"t": -1}) * B + 2
    assert lhs.is_zero()


def test_C1_low_coefficients():
    # C_1 = B/A: constant term B_0/A_0 = -1; t-coefficient
    # B_1 - A_1 C_1(0) = 7/6 + 5/6 = 2, worked out by hand.
    c1 = series_C(1, 6)
    assert c1.coefficient(t=0) == -1
    assert c1.coefficient(t=1) == 2


def test_C_i_vanishing_order():
    for i in range(1, 6):
        ci = series_C(i, 8)
        for m in range(i - 1):
            assert ci.coefficient(t=m) == 0
        assert ci.coefficient(t=i - 1) != 0


def test_phi_pole_layer():
    # the t^{-1} layer of log Phi at x^1 is -1 for every d (hand computation:
    # log Phi|_{x^1} = -t^{-1} (1-t)^{-1})
    log_phi = phi_family(6, 3)["logPhi"]
    assert log_phi.coefficient(t=-1, x=1) * factorial(1) == -1
    assert log_phi.coefficient(t=3, x=1) * factorial(1) == -1
    assert c_neg1_coefficients(3)[1] == -1


@pytest.mark.parametrize("order", [1, 5, 30])
def test_phi_pole_factors_closed_form(order):
    # [t^(k-d) x^d] Phi = (-1)^d/d! [t^k] prod_{i<=d} (1 - i t)^{-1}
    phi = phi_family(order, 13)["Phi"]
    for d in range(1, 14):
        prod = product_pole_factors(d, order)
        for k in range(order + 1):
            assert phi.coefficient(t=k - d, x=d) == F(
                (-1) ** d, factorial(d)) * prod.coefficient(t=k)


def test_delta_riccati():
    fam = phi_family(10, 5)
    delta = fam["delta"]
    d_delta = delta.x_d_dx("x").mul_var("t")
    res = d_delta + delta * delta - fam["ring"].var("x") - F(1, 4)
    assert res.is_zero()


def test_phi_ode():
    fam = phi_family(10, 5)
    phi = fam["Phi"]

    def D(f):
        return f.x_d_dx("x").mul_var("t")

    assert (D(phi - D(phi)) + fam["ring"].var("x") * phi).is_zero()


def test_phi_prime_strips_only_pole_layer():
    fam = phi_family(8, 4)
    diff = fam["gamma"] - fam["gammaPrime"]
    assert all(e[0] == -1 for e in diff.coeffs)
    assert not diff.is_zero()


def test_uy_triangularity_and_diagonal():
    exp_data = uy_expansion(3, 8, 8)
    c = exp_data["c"]
    assert 0 not in c  # no k = 0 layer
    for k, row in c.items():
        for j in row:
            assert j <= k
    la = hyper_A(8).log()
    for k in range(1, 9):
        assert c.get(k, {}).get(k, F(0)) == la.coefficient(t=k)


def test_delta_i_shifted_triangularity():
    exp_data = uy_expansion(4, 7, 7)
    for i in range(1, 5):
        d_i = exp_data["delta"][i]
        for (k, j), _ in d_i.coeffs.items():
            assert k == i - 1 or k >= i
            if k >= i:
                assert j <= k  # j <= (k - i) + i


def test_delta_i_dual_route():
    """delta_i from (t, x)-differentiation + substitution must agree with the
    recursion using the transformed Euler operator directly in (u, y)."""
    route_a = uy_expansion(4, 7, 7)["delta"]
    route_b = delta_i_by_uy_recursion(4, 7, 7)
    for i in range(1, 5):
        assert (route_a[i] - route_b[i]).is_zero()


def test_extremal_coefficients_give_C():
    exp_data = uy_expansion(5, 12, 12)
    for i in range(1, 6):
        ci = series_C(i, 12)
        b, cc = exp_data["b"][i], exp_data["cc"][i]
        for m in range(13):
            stripe = F(0)
            if m == i - 1:
                stripe += b.get(i - 1, F(0))
            if m - i >= 0:
                stripe -= cc.get(m - i, {}).get(m, F(0))
            assert (2 ** i) * stripe == ci.coefficient(t=m)


def test_uy_coefficient_lemma_random():
    rng = random.Random(11)
    src = Ring([VarSpec("t", -2, 7), VarSpec("x", 0, 5)])
    for _ in range(30):
        f = src.zero()
        for _ in range(rng.randint(1, 6)):
            f = f + src.monomial(
                F(rng.randint(-9, 9), rng.randint(1, 5)),
                t=rng.randint(-2, 6),
                x=rng.randint(0, 4),
            )
        lhs, rhs = ionel_coefficient_pair(f, rng.randint(0, 6), rng.randint(0, 4))
        assert lhs == rhs


@pytest.mark.parametrize("t_floor, x_top", [(-3, 4), (-1, 2), (0, 5)])
def test_ionel_pair_matches_full_product(t_floor, x_top):
    rng = random.Random(17 + t_floor)
    src = Ring([VarSpec("t", t_floor, 8), VarSpec("x", 0, x_top + 1)])
    for _ in range(25):
        f = src.zero()
        for _ in range(rng.randint(0, 6)):
            f = f + src.monomial(
                F(rng.randint(-9, 9), rng.randint(1, 5)),
                t=rng.randint(t_floor, 7),
                x=rng.randint(0, x_top),
            )
        r, d = rng.randint(t_floor, 7), rng.randint(0, x_top)
        pair = ionel_coefficient_pair(f, r, d)
        assert pair == full_product_ionel_pair(f, r, d)
        assert pair[0] == pair[1]


def test_frame_matrix_identity_at_origin():
    sm = s_matrix(4, 3, 2)
    for i in range(2):
        for j in range(2):
            assert sm["S"][(i, j)].coefficient() == (1 if i == j else 0)


def test_frame_matrix_ode_residuals():
    sm = s_matrix(4, 3, 2)
    assert all(r.is_zero() for r in s_matrix_ode_residuals(sm))


def test_frame_matrix_against_ode_oracle():
    """Closed form at y = 0 equals the order-by-order ODE solution."""
    t_ord, x_ord = 5, 3
    sm = s_matrix(t_ord, x_ord, 1)
    for i in range(2):
        oracle = s_matrix_row_by_ode(i, t_ord, x_ord)
        for j in range(2):
            closed = sm["S"][(i, j)].extract(y0=0, y1=0)
            for m in range(x_ord + 1):
                col = closed.extract(x=m)
                h = oracle["h"][j][m]
                for r in range(-m, t_ord + 1):
                    assert col.coefficient(t=r) == h.coefficient(t=r), (i, j, m, r)


def test_canonical_coordinate_low_order():
    # u^0(x) = -sum C_d^{-1} x^d / d!, and C_1^{-1} = -1
    u0 = canonical_coordinate(0, 3)
    assert u0.coefficient(x=1) == 1
    u1 = canonical_coordinate(1, 3)
    assert (u0 + u1).is_zero()


def test_locality_series_divisibility_and_origin():
    loc = locality_series(12, 4)
    for i in range(2):
        for j in range(2):
            zi, zj = ZETA[i], ZETA[j]
            p = loc["P"][(i, j)]
            assert p.coefficient() == F(1 + zi * zj, 2)
            # E was produced by exact division; re-multiplying recovers it
            ring2 = loc["ring2"]
            back = loc["E"][(i, j)] * (ring2.var("t1") + ring2.var("t2"))
            assert (back - loc["E_numerator"][(i, j)]).is_zero()


@pytest.mark.parametrize("orders", [(6, 3), (12, 5)])
def test_locality_series_equals_the_per_sign_pair_oracle(orders):
    # two products and the sign and swap symmetry give every sign pair's
    # P, E and numerator exactly, with the quotient's terms in the same order
    got, want = locality_series(*orders), oracle_locality_series(*orders)
    assert got["ring2"] == want["ring2"]
    for name in ("P", "E", "E_numerator"):
        assert got[name].keys() == want[name].keys()
        for ij, s in got[name].items():
            assert s.ring == want[name][ij].ring
            assert s == want[name][ij], (name, ij)
    for ij, s in got["E"].items():
        assert list(s.coeffs) == list(want["E"][ij].coeffs)


def test_edge_kernels_equal_the_fraction_division(monkeypatch):
    # the edge kernels divide on integer numerators; the Fraction long
    # division gives the same quotients
    builders = [(delta_edge, (z1, z2, 15)) for z1 in ZETA for z2 in ZETA]
    builders += [(edge_series_xy, (z1, z2, 8, 4, kind))
                 for z1 in ZETA for z2 in ZETA for kind in (3, 4)]
    got = [f.__wrapped__(*args) for f, args in builders]
    monkeypatch.setattr(Series, "divide_exact", oracle_divide_exact)
    want = [f.__wrapped__(*args) for f, args in builders]
    assert got == want


def test_delta_edge_divisible_for_all_sign_pairs():
    for z1 in ZETA:
        for z2 in ZETA:
            d = delta_edge(z1, z2, 15)
            # the quotient is graded: t-degree equals total cotangent degree
            for (a, b, c), _ in d.coeffs.items():
                assert a == b + c


def test_delta_edge_symmetry():
    d12 = delta_edge(1, -1, 8)
    d21 = delta_edge(-1, 1, 8)
    ring = d12.ring
    swapped = d21.substitute(
        {"p1": ring.var("p2"), "p2": ring.var("p1")}
    )
    assert (d12 - swapped).is_zero()


def test_edge_series_mixed_signs_agree():
    # with opposite branch signs the two x-refined edge series coincide
    e3 = edge_series_xy(1, -1, 6, 3, kind=3)
    e4 = edge_series_xy(1, -1, 6, 3, kind=4)
    assert (e3 - e4).is_zero()


def test_edge_series_equal_signs_differ_by_kernel_correction():
    """Edge4 = Edge3 + (exp(-f*(a+b)) - 1)/(-(a+b)) * exp(-g'(a)-g'(b))
    where a, b are the twisted cotangent classes and f is the Bernoulli
    kernel -sum B_2i/(2i(2i-1)) (x1^{2i-1}+x2^{2i-1})/(x1+x2).

    (A sign-twist prefactor on the correction cancels against the
    orientation of the edge denominator t(psi1+psi2) = z(a+b); the form
    asserted here is the one that verifies identically for both signs.)"""
    t_ord, x_ord = 6, 3
    for z in ZETA:
        e3 = edge_series_xy(z, z, t_ord, x_ord, kind=3)
        e4 = edge_series_xy(z, z, t_ord, x_ord, kind=4)
        ring = e3.ring
        a = z * ring.var("t") * ring.var("p1")
        b = z * ring.var("t") * ring.var("p2")
        kern = ring.zero()
        i = 1
        while 2 * i - 1 <= 2 * t_ord:
            w = bernoulli_kernel_coefficients(i)[i]
            kern = kern - w * (a ** (2 * i - 1) + b ** (2 * i - 1)).divide_exact(a + b)
            i += 1
        corr = (
            ((-kern * (a + b)).exp() - 1).divide_exact(-(a + b))
        )
        fam = phi_family(t_ord, x_ord)
        gp = fam["gammaPrime"]
        ga = gp.substitute({"t": a})
        gb = gp.substitute({"t": b})
        corr = corr * (-ga - gb).exp()
        diff = e4 - e3 - corr
        # the in-test exact division is only determined below the top t-layer
        t_idx = ring.index["t"]
        assert all(e[t_idx] >= t_ord for e in diff.coeffs), diff
        assert any(
            e[t_idx] < t_ord for e in (e4 - e3).coeffs
        )  # the comparison is not vacuous


def test_edge_series_uy_divisible():
    for z1 in ZETA:
        for z2 in ZETA:
            edge_series_uy(z1, z2, 5, 5)


def test_substitute_uy_inverts():
    # substituting and un-substituting a plain polynomial is the identity
    src = Ring([VarSpec("t", 0, 5), VarSpec("x", 0, 4)])
    f = src.var("t") ** 2 * src.var("x") + 3 * src.var("x") ** 2
    target = uy_ring(8, 8)
    g = substitute_uy(f, target)
    back_ring = Ring([VarSpec("u", 0, 5), VarSpec("y", 0, 4)])
    # t = u(1+4y)^{-1/2}, x = -y/(1+4y)  <=>  u = t(1+4x)^{-1/2}, y = -x/(1+4x)
    big = Ring([VarSpec("t", 0, 12), VarSpec("x", 0, 12)])
    u_img = big.var("t") * (1 + 4 * big.var("x")).pow_fraction(F(-1, 2))
    y_img = -big.var("x") * (1 + 4 * big.var("x")).inverse()
    h = g.substitute({"u": u_img, "y": y_img})
    for (a, b), c in f.coeffs.items():
        assert h.coefficient(t=a, x=b) == c
    _ = back_ring


def test_identity_suite_quick_all_pass():
    rows = identity_suite(quick=True)
    assert all(ok for _, ok, _ in rows), rows


def test_identity_suite_passes_on_another_seed():
    rows = identity_suite(quick=True, seed=7)
    assert all(ok for _, ok, _ in rows), rows


def test_catalog_cache_and_audit(tmp_path):
    cat = SeriesCatalog(cache_dir=str(tmp_path))
    a1 = cat.get("A", t=8)
    files = list(tmp_path.glob("*.json"))
    assert files
    cat2 = SeriesCatalog(cache_dir=str(tmp_path), audit=True)
    a2 = cat2.get("A", t=8)
    assert a1 == a2
    # corrupt the cache and expect the audit to catch it
    import json

    blob = json.loads(files[0].read_text())
    blob["terms"][1]["num"] = str(int(blob["terms"][1]["num"]) + 1)
    files[0].write_text(json.dumps(blob))
    with pytest.raises(RuntimeError):
        SeriesCatalog(cache_dir=str(tmp_path), audit=True).get("A", t=8)


def test_log_hyper_A_is_memoised_log_of_A():
    assert log_hyper_A(8) is log_hyper_A(8)
    assert log_hyper_A(8) == hyper_A(8).log()


def test_catalog_ring_is_the_builders_ring():
    cat = SeriesCatalog(cache_dir=None)
    for name in cat.names():
        for given in ({"t": 0, "x": 0}, {"t": 3, "x": 2}, {"t": 1, "x": 3}):
            orders = {var: given[var] for var in series_orders(name)}
            assert catalog_ring(name, orders) == cat.get(name, **orders).ring


def test_catalog_rejects_an_unread_order_and_writes_nothing(tmp_path):
    with pytest.raises(ValueError, match="order x is not read by series A"):
        SeriesCatalog(cache_dir=str(tmp_path)).get("A", t=4, x=0)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("damage", ["truncated", "other ring", "not a series",
                                    "float numerator", "boolean exponent",
                                    "zero denominator", "long exponent list",
                                    "empty exponent list",
                                    "repeated exponent"])
@pytest.mark.parametrize("audit", [False, True])
def test_catalog_recomputes_a_bad_entry(tmp_path, damage, audit):
    import json

    fresh = SeriesCatalog(cache_dir=str(tmp_path)).get("A", t=4)
    path = tmp_path / "A_t4.json"
    good = path.read_text()
    if damage == "truncated":
        path.write_text(good[: len(good) // 2])
    elif damage == "other ring":
        SeriesCatalog(cache_dir=str(tmp_path)).get("A", t=3)
        path.write_text((tmp_path / "A_t3.json").read_text())
    elif damage == "not a series":
        path.write_text(json.dumps({"ring": 7}))
    else:
        blob = json.loads(good)
        # A_t4 = 1 + 5/6 t + ...: a numerator 7.9 read as 7 gives 7/6
        if damage == "float numerator":
            blob["terms"][1]["num"] = 7.9
        elif damage == "boolean exponent":
            blob["terms"][1]["exp"] = [True]
        elif damage == "long exponent list":
            blob["terms"][1]["exp"] = [1, 0]
        elif damage == "empty exponent list":
            blob["terms"][1]["exp"] = []
        elif damage == "repeated exponent":
            # read last-wins, t would get 999/6 instead of 5/6
            blob["terms"].append({"exp": [1], "num": "999", "den": "6"})
        else:
            blob["terms"][1]["den"] = "0"
        path.write_text(json.dumps(blob))
    got = SeriesCatalog(cache_dir=str(tmp_path), audit=audit).get("A", t=4)
    assert got == fresh and got.ring == fresh.ring
    assert path.read_text() == good
    assert not list(tmp_path.glob("*.tmp"))
