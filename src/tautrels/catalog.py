"""Named formal series used throughout the relation constructions.

Everything here is a finite, exactly truncated object built from the core
series ring:

* Bernoulli numbers (convention ``t/(exp(t)-1)``, so ``B_1 = -1/2``);
* the hypergeometric-type series ``A`` and ``B`` and the ladder ``C_i``
  obtained by repeatedly applying ``12 t^2 d/dt - 4 i t``;
* the two-variable series ``Phi(t, x)`` together with ``log Phi``, ``gamma``
  (``log Phi`` plus the Bernoulli tail), ``delta = D gamma - 1/2``
  (``D = t x d/dx``) and the modified series ``Phi'``/``gamma'`` with the
  ``t^-1`` layer of ``log Phi`` removed;
* the change of variables ``u = t (1+4y)^{-1/2}``, ``y = -x (1+4x)^{-1}``,
  the resulting triangular coefficient tables, and both sides of the
  coefficient-comparison lemma that checks it;
* a two-point frame matrix built from ``Phi`` that solves a first-order
  system in the flat coordinates (its order-by-order ODE solution is an
  oracle in the tests);
* the edge and vertex building blocks used by the relation generators.

All functions take the highest retained exponent per variable ("order", so
the ring truncates at ``order + 1``).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from typing import Callable

from .serialize import series_from_dict, series_to_dict
from .series import Ring, Series, SeriesError, VarSpec, embed

ZETA = (1, -1)  # square roots of one indexing the two branch points


# ---------------------------------------------------------------------------
# Bernoulli numbers and the one-variable hypergeometric ladder
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """B_n in the convention t/(exp(t)-1) = sum B_n t^n / n!."""
    if n == 0:
        return Fraction(1)
    # recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0
    total = Fraction(0)
    for k in range(n):
        total += comb(n + 1, k) * bernoulli(k)
    return -total / (n + 1)


def bernoulli_kernel_coefficients(i_max: int) -> dict:
    """The weights B_{2i} / (2i (2i-1)) of the point/edge Bernoulli tail."""
    return {
        i: bernoulli(2 * i) / (2 * i * (2 * i - 1)) for i in range(1, i_max + 1)
    }


@lru_cache(maxsize=None)
def hyper_A(order: int) -> Series:
    """A(t) = sum_i (6i)! / ((3i)!(2i)!) (t/72)^i."""
    ring = Ring([VarSpec("t", 0, order + 1)])
    terms = {}
    for i in range(order + 1):
        c = Fraction(factorial(6 * i), factorial(3 * i) * factorial(2 * i))
        terms[(i,)] = c * Fraction(1, 72) ** i
    return ring.series(terms)


@lru_cache(maxsize=None)
def hyper_B(order: int) -> Series:
    """B(t): as A(t) but with the extra factor (6i+1)/(6i-1)."""
    a = hyper_A(order)
    return a.ring.series(
        {(i,): c * Fraction(6 * i + 1, 6 * i - 1) for (i,), c in a.coeffs.items()}
    )


@lru_cache(maxsize=None)
def log_hyper_A(order: int) -> Series:
    """log A(t), truncated after t^order."""
    return hyper_A(order).log()


@lru_cache(maxsize=None)
def series_C(i: int, order: int) -> Series:
    """C_i(t): C_1 = B/A, C_{i+1} = (12 t^2 d/dt - 4 i t) C_i.

    C_i is a multiple of t^{i-1}.
    """
    if i < 1:
        raise ValueError("C_i defined for i >= 1")
    if i == 1:
        return hyper_B(order) * hyper_A(order).inverse()
    prev = series_C(i - 1, order)
    ring = prev.ring
    out = {}
    for (k,), c in prev.coeffs.items():
        if k + 1 <= order:
            out[(k + 1,)] = c * (12 * k - 4 * (i - 1))
    return ring.series(out)


# ---------------------------------------------------------------------------
# The two-variable family Phi, gamma, delta
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def phi_family(t_order: int, x_order: int) -> dict:
    """Phi(t,x) and derived series, over t in [-x_order, t_order], x in [0, x_order].

    Returns a dict with keys ``ring``, ``Phi``, ``logPhi``, ``gamma``,
    ``delta``, ``PhiPrime`` and ``gammaPrime``.
    """
    # Work in a t-padded ring: multiplying k factors with poles down to
    # t^{-x_order} can route through exponents up to t_order + x_order before
    # landing back inside the advertised window.
    pad = x_order
    top = t_order + pad
    ring = Ring([VarSpec("t", -x_order, top + 1), VarSpec("x", 0, x_order + 1)])
    out_ring = Ring(
        [VarSpec("t", -x_order, t_order + 1), VarSpec("x", 0, x_order + 1)]
    )
    phi_terms = {(0, 0): Fraction(1)}
    # h[k] = [t^k] prod_{i<=d} (1 - i t)^{-1} = S(k+d, d), updated per d
    h = [1] + [0] * (top + x_order)
    for d in range(1, x_order + 1):
        for k in range(1, len(h)):
            h[k] += d * h[k - 1]
        sign = Fraction((-1) ** d, factorial(d))
        for k in range(top + d + 1):
            phi_terms[(k - d, d)] = sign * h[k]
    phi = ring.series(phi_terms)
    log_phi = phi.log()

    tail = ring.series({
        (2 * i - 1, 0): w
        for i, w in bernoulli_kernel_coefficients((t_order + 1) // 2).items()
    })
    gamma = tail + log_phi
    delta = gamma.x_d_dx("x").mul_var("t") - Fraction(1, 2)

    # strip the t^{-1} layer of log Phi to form Phi' (log Phi has t-exponent >= -1)
    log_phi_prime = Series.from_nums(
        ring, log_phi.den, {e: c for e, c in log_phi.nums.items() if e[0] >= 0}
    )

    def restrict(f: Series) -> Series:
        return embed(f, out_ring)

    return {
        "ring": out_ring,
        "Phi": restrict(phi),
        "logPhi": restrict(log_phi),
        "gamma": restrict(gamma),
        "delta": restrict(delta),
        "PhiPrime": restrict(log_phi_prime.exp()),
        "gammaPrime": restrict(tail + log_phi_prime),
    }


# ---------------------------------------------------------------------------
# The (u, y) change of variables
# ---------------------------------------------------------------------------


def uy_ring(u_order: int, y_order: int) -> Ring:
    return Ring([VarSpec("u", 0, u_order + 1), VarSpec("y", 0, y_order + 1)])


@lru_cache(maxsize=None)
def _uy_images(target: Ring) -> tuple:
    """The images u (1+4y)^{-1/2} of t and -y (1+4y)^{-1} of x in ``target``."""
    y = target.var("y")
    u = target.var("u")
    one4y = 1 + 4 * y
    return u * one4y.pow_fraction(Fraction(-1, 2)), -y * one4y.inverse()


def substitute_uy(f: Series, target: Ring) -> Series:
    """Apply t = u (1+4y)^{-1/2}, x = -y (1+4y)^{-1} to a series in (t, x)."""
    t_img, x_img = _uy_images(target)
    return f.substitute({"t": t_img, "x": x_img})


@lru_cache(maxsize=None)
def uy_expansion(i_max: int, u_order: int, y_order: int) -> dict:
    """Gamma and D^{i-1} delta in the (u, y) chart, as series.

    Returns ``ring``; the triangular ``c_series`` (no ``u^k y^j`` with
    j > k), ``gamma - t^{-1} gamma_{-1}(x) - (1/4) log(1+4y)``; and
    ``delta[i] = (1+4y)^{i/2} (D^{i-1} delta)(u, y)`` for i = 1..i_max, of
    u-degree at least i - 1.  The paper's tables are their coefficients:
    ``c_{k,j}`` at ``u^k y^j`` of c_series, ``b_{i,j}`` at ``u^{i-1} y^j``
    of delta_i and ``c_{i,k,j}`` minus that at ``u^{k+i} y^j``.
    """
    fam = phi_family(u_order, y_order)
    ring = fam["ring"]
    target = uy_ring(u_order, y_order)
    one4y = 1 + 4 * target.var("y")

    gamma = fam["gamma"]
    gamma_red = Series.from_nums(
        ring, gamma.den, {e: c for e, c in gamma.nums.items() if e[0] != -1}
    )
    c_series = substitute_uy(gamma_red, target) - Fraction(1, 4) * one4y.log()

    deltas = {}
    cur = fam["delta"]
    for i in range(1, i_max + 1):
        deltas[i] = (substitute_uy(cur, target)
                     * one4y.pow_fraction(Fraction(i, 2)))
        cur = cur.x_d_dx("x").mul_var("t")  # apply D = t x d/dx
    return {"ring": target, "c_series": c_series, "delta": deltas}


def ionel_coefficient_pair(f: Series, r: int, d: int) -> tuple:
    """Both sides of the coefficient-comparison lemma for the (u, y) chart.

    For a Laurent polynomial ``f(t, x)`` returns
    ``([f]_{t^r x^d}, (-1)^d [(1+4y)^{(r+2d-2)/2} f(u,y)]_{u^r y^d})``.
    The weight has no u, so the right side is
    ``(-1)^d sum_j binom((r+2d-2)/2, j) 4^j [f(u,y)]_{u^r y^(d-j)}``, which
    reads f(u, y) only up to y^d.
    """
    t_floor = f.ring.spec("t").min_exponent
    target = Ring(
        [VarSpec("u", min(t_floor, 0), max(r, 1) + 1), VarSpec("y", 0, max(d, 1) + 1)]
    )
    g = substitute_uy(f, target)
    e = Fraction(r + 2 * d - 2, 2)
    rhs = Fraction(0)
    weight = Fraction((-1) ** d)  # (-1)^d binom(e, j) 4^j
    for j in range(d + 1):
        rhs += weight * g.coefficient(u=r, y=d - j)
        weight *= 4 * (e - j) / (j + 1)
    lhs = f.coefficient(t=r, x=d)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Frame matrix at the two branch points and its ODE oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def s_matrix(t_order: int, x_order: int, y_order: int) -> dict:
    """The 2x2 frame matrix S_i^j(t, x, y0, y1) built from Phi.

    ``S_i^j = exp(y_i/t) ((1 + z_i z_j)/2 - t x d/dx) Phi(-z_i t, x exp(w))``
    with ``w = y0 - y1`` and branch signs ``z_0 = 1, z_1 = -1``.  Returns
    ``ring`` and ``S`` keyed by (i, j).
    """
    floor = -(x_order + y_order)
    pad = x_order + y_order
    ring = Ring(
        [
            VarSpec("t", floor, t_order + pad + 1),
            VarSpec("x", 0, x_order + 1),
            VarSpec("y0", 0, y_order + 1),
            VarSpec("y1", 0, y_order + 1),
        ]
    )
    out_ring = Ring(
        [
            VarSpec("t", floor, t_order + 1),
            VarSpec("x", 0, x_order + 1),
            VarSpec("y0", 0, y_order + 1),
            VarSpec("y1", 0, y_order + 1),
        ]
    )
    fam = phi_family(t_order + pad, x_order)
    phi = fam["Phi"]
    d_phi = phi.x_d_dx("x").mul_var("t")
    t = ring.var("t")
    ew = (ring.var("y0") - ring.var("y1")).exp()
    x_img = ring.var("x") * ew
    tinv = ring.var("t", -1) if floor <= -1 else None

    S = {}
    for i, zi in enumerate(ZETA):
        e_pre = (ring.var(f"y{i}") * tinv).exp()
        base = {"t": -zi * t, "x": x_img}
        phi_sub = phi.substitute(base)
        d_phi_sub = d_phi.substitute(base)
        for j, zj in enumerate(ZETA):
            g = Fraction(1 + zi * zj, 2) * phi_sub - d_phi_sub
            S[(i, j)] = embed(e_pre * g, out_ring)
    return {"ring": out_ring, "S": S}


def s_matrix_ode_residuals(sm: dict) -> list:
    """Residuals of t dS = S dy_j + sum_k S_i^k z_k x e^w dw; zero iff S solves it."""
    ring = sm["ring"]
    S = sm["S"]
    ew = (ring.var("y0") - ring.var("y1")).exp()
    xew = ring.var("x") * ew
    # sum_k z_k x e^w S_i^k depends on i alone
    flow = [sum((zk * xew * S[(i, k)] for k, zk in enumerate(ZETA)), ring.zero())
            for i in range(2)]
    res = []
    for a in (0, 1):
        dwa = 1 if a == 0 else -1
        ia = ring.index[f"y{a}"]
        top = ring.specs[ia].trunc_order - 1
        for i in range(2):
            for j in range(2):
                lhs = S[(i, j)].derivative(f"y{a}").mul_var("t")
                rhs = (1 if a == j else 0) * S[(i, j)] + dwa * flow[i]
                diff = lhs - rhs
                # the derivative's top y-layer needs data beyond the window
                diff = Series.from_nums(
                    ring, diff.den,
                    {e: c for e, c in diff.nums.items() if e[ia] < top}
                )
                res.append(diff)
    return res


def locality_series(t_order: int, x_order: int) -> dict:
    """The series P^{ij} and E^{ij} controlling the local frame expansion.

    ``P^{ij}(t, x) = ((1/2 - z_i z_j delta) Phi')(z_i t, x)`` and ``E^{ij}``
    is the exact quotient by ``t1 + t2`` of
    ``(z_i + z_j)/2 + Phi'(z_i t1) Phi'(z_j t2) (z_i delta(z_i t1) + z_j delta(z_j t2))``.
    Returns ``P``, ``E`` and ``E_numerator`` keyed by (i, j).

    Two products serve all four sign pairs.  Let ``G1 = 1/2 + Phi'(t1)
    Phi'(t2) delta(t1)`` and ``G2`` be ``G1`` with ``t1`` and ``t2``
    swapped.  With ``u1 = z_i t1`` and ``u2 = z_j t2`` the numerator is
    ``z_i G1(u1, u2) + z_j G2(u1, u2)``, and ``t1 + t2 = z_i (u1 + u2)``
    when ``z_i = z_j``, ``z_i (u1 - u2)`` otherwise.  So the numerator is
    ``z_i (G1 + G2)`` or ``z_i (G1 - G2)`` at ``(u1, u2)``, and ``E^{ij}``
    is ``K+ = (G1 + G2) / (t1 + t2)`` or ``K- = (G1 - G2) / (t1 - t2)``
    there.  These are exact, not only up to truncation: truncated products
    commute with the swap (the ring is symmetric in ``t1`` and ``t2``) and
    with sign twists, and :meth:`Series.divide_exact` commutes with sign
    twists, which scale each monomial and the divisor by a sign and keep
    the lex order of the monomials.  Likewise ``P^{ij}`` needs only the two
    products ``(1/2 - s delta) Phi'`` for ``s = z_i z_j``.
    """
    work = t_order + 1
    fam = phi_family(work, x_order)
    phi_p = fam["PhiPrime"]
    delta = fam["delta"]
    ring2 = Ring(
        [
            VarSpec("t1", 0, work + 1),
            VarSpec("t2", 0, work + 1),
            VarSpec("x", 0, x_order + 1),
        ]
    )
    out2 = Ring(
        [
            VarSpec("t1", 0, t_order + 1),
            VarSpec("t2", 0, t_order + 1),
            VarSpec("x", 0, x_order + 1),
        ]
    )
    t1, t2 = ring2.var("t1"), ring2.var("t2")

    g1 = Fraction(1, 2) + (phi_p.substitute({"t": t1}) * phi_p.substitute({"t": t2})
                           * delta.substitute({"t": t1}))
    g2 = Series.from_nums(ring2, g1.den,
                          {(b, a, x): c for (a, b, x), c in g1.nums.items()})
    # the numerator and the quotient for z_i = z_j (key 1) and z_i != z_j (-1)
    num = {1: g1 + g2, -1: g1 - g2}
    quot = {s: embed(num[s].divide_exact(t1 + s * t2), out2) for s in ZETA}
    num = {s: embed(f, out2) for s, f in num.items()}
    out_p = Ring([VarSpec("t", 0, t_order + 1), VarSpec("x", 0, x_order + 1)])
    prod_p = {s: embed((Fraction(1, 2) - s * delta) * phi_p, out_p) for s in ZETA}
    P = {}
    E = {}
    EN = {}
    for i, zi in enumerate(ZETA):
        for j, zj in enumerate(ZETA):
            s = zi * zj
            P[(i, j)] = prod_p[s].substitute({"t": zi})
            signs = {"t1": zi, "t2": zj}
            EN[(i, j)] = zi * num[s].substitute(signs)
            E[(i, j)] = quot[s].substitute(signs)
    return {"P": P, "E": E, "E_numerator": EN, "ring2": out2}


# ---------------------------------------------------------------------------
# Edge and point series for the relation generators
# ---------------------------------------------------------------------------


def _edge_quotient(z1: int, z2: int, var: str, order: int, extra: tuple,
                   build: Callable) -> Series:
    """The edge kernel ``E`` with ``v (p1+p2) E = head + z1 f(z1 v p1)
    + z2 f(z2 v p2)``, ``head = (z1+z2)/2 pair(g(z1 v p1), g(z2 v p2))``.

    ``v`` is the variable ``var``, p1 and p2 are the two branch cotangent
    classes and ``extra`` holds the specs of the variables carried along
    unchanged.  ``build(work)`` returns ``(g, pair, f)`` with g and f
    truncated after ``v^work``.  The numerator is formed with one layer of
    v/p padding, because dividing by v (p1 + p2) costs the top layer.
    """
    work = order + 1

    def ring_to(top: int) -> Ring:
        return Ring([VarSpec(var, 0, top + 1), *extra,
                     VarSpec("p1", 0, top + 1), VarSpec("p2", 0, top + 1)])

    ring = ring_to(work)
    g, pair, f = build(work)

    def at(h: Series, z: int, p: str) -> Series:
        return h.substitute({var: z * ring.var(var) * ring.var(p)})

    num = (
        Fraction(z1 + z2, 2) * pair(at(g, z1, "p1"), at(g, z2, "p2"))
        + z1 * at(f, z1, "p1")
        + z2 * at(f, z2, "p2")
    )
    den = ring.var(var) * (ring.var("p1") + ring.var("p2"))
    return embed(num.divide_exact(den), ring_to(order))


def _exp_of_minus_sum(a: Series, b: Series) -> Series:
    return (-a - b).exp()


@lru_cache(maxsize=None)
def delta_edge(z1: int, z2: int, order: int) -> Series:
    """Delta_e with 2 t (p1+p2) Delta_e = (z1+z2) A^{-1}(z1 t p1) A^{-1}(z2 t p2)
    + z1 C_1(z1 t p1) + z2 C_1(z2 t p2); variables p1, p2 are the two branch
    cotangent classes."""

    def build(work: int) -> tuple:
        return (hyper_A(work).inverse(), lambda a, b: a * b,
                Fraction(1, 2) * series_C(1, work))

    return _edge_quotient(z1, z2, "t", order, (), build)


@lru_cache(maxsize=None)
def edge_series_xy(z1: int, z2: int, t_order: int, x_order: int, kind: int) -> Series:
    """The x-refined edge series (kind 3 or 4).

    kind 4: ``t(p1+p2) E = (z1+z2)/2 exp(-gamma'(z1 t p1) - gamma'(z2 t p2))
    + z1 delta(z1 t p1) + z2 delta(z2 t p2)``.
    kind 3: same with ``exp(-gamma' - gamma')`` replaced by the reciprocal of
    ``Phi'(z1 t p1) Phi'(z2 t p2)`` (no Bernoulli tail).
    """
    if kind not in (3, 4):
        raise ValueError("kind must be 3 or 4")

    def build(work: int) -> tuple:
        fam = phi_family(work, x_order)
        if kind == 4:
            return fam["gammaPrime"], _exp_of_minus_sum, fam["delta"]
        return fam["PhiPrime"], lambda a, b: (a * b).inverse(), fam["delta"]

    return _edge_quotient(z1, z2, "t", t_order,
                          (VarSpec("x", 0, x_order + 1),), build)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------


def identity_suite(quick: bool = False, seed: int = 20260826) -> list:
    """Run the formal-series identity checks; returns (name, ok, detail) rows."""
    rng = random.Random(seed)
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append((name, bool(ok), detail))

    # 1. A(t) B(-t) + A(-t) B(t) + 2 = 0
    n = 10 if quick else 20
    A, B = hyper_A(n), hyper_B(n)
    lhs = A * B.substitute({"t": -1}) + A.substitute({"t": -1}) * B + 2
    check("hyper-AB-antisymmetry", lhs.is_zero(), f"order {n}")

    # 2. D delta = -delta^2 + x + 1/4 and D(Phi - D Phi) = -x Phi
    t_ord, x_ord = (10, 5) if quick else (20, 10)
    fam = phi_family(t_ord, x_ord)
    ring = fam["ring"]
    delta = fam["delta"]
    d_delta = delta.x_d_dx("x").mul_var("t")
    x = ring.var("x")
    check(
        "delta-riccati",
        (d_delta + delta * delta - x - Fraction(1, 4)).is_zero(),
        f"orders t^{t_ord}, x^{x_ord}",
    )
    phi = fam["Phi"]

    def D(f: Series) -> Series:
        return f.x_d_dx("x").mul_var("t")

    check("phi-ode", (D(phi - D(phi)) + x * phi).is_zero(), f"orders t^{t_ord}, x^{x_ord}")

    # 3. the diagonal of c is log A; the diagonal of delta_i is 2^-i C_i
    # (b_{i,i-1} at u^{i-1}, -c_{i,m-i,m} at u^m for m >= i)
    u_ord = 6 if quick else 12
    i_max = 3 if quick else 5
    exp_data = uy_expansion(i_max, u_ord, u_ord)
    c = exp_data["c_series"]
    la = log_hyper_A(u_ord)
    diag_ok = all(c.coefficient(u=k, y=k) == la.coefficient(t=k)
                  for k in range(1, u_ord + 1))
    tri_ok = all(j <= k for k, j in c.nums)
    check("c-diagonal-is-logA", diag_ok and tri_ok, f"order u^{u_ord}")
    ext_ok = True
    for i in range(1, i_max + 1):
        ci, di = series_C(i, u_ord), exp_data["delta"][i]
        ext_ok &= all(2 ** i * di.coefficient(u=m, y=m) == ci.coefficient(t=m)
                      for m in range(u_ord + 1))
    check("delta-extremal-gives-C", ext_ok, f"i <= {i_max}, order t^{u_ord}")

    # 4. coefficient-comparison lemma on random Laurent polynomials
    trials = 20 if quick else 100
    ok = True
    src = Ring([VarSpec("t", -2, 7), VarSpec("x", 0, 5)])
    for _ in range(trials):
        f = src.zero()
        for _ in range(rng.randint(1, 6)):
            f = f + src.monomial(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                t=rng.randint(-2, 6),
                x=rng.randint(0, 4),
            )
        r = rng.randint(0, 6)
        d = rng.randint(0, 4)
        lhs_c, rhs_c = ionel_coefficient_pair(f, r, d)
        if lhs_c != rhs_c:
            ok = False
    check("uy-coefficient-lemma", ok, f"{trials} random Laurent polynomials")

    # 5. frame matrix: identity at the origin and ODE residuals
    sm = s_matrix(4 if quick else 8, 3 if quick else 5, 2)
    origin_ok = all(
        sm["S"][(i, j)].coefficient() == (1 if i == j else 0)
        for i in range(2)
        for j in range(2)
    )
    res = s_matrix_ode_residuals(sm)
    check("frame-matrix-ode", origin_ok and all(r.is_zero() for r in res), "")

    # 6. divisibility of the edge numerators: each edge quotient is graded
    # (t-degree equals the cotangent degree), each locality quotient times
    # t1 + t2 gives back its numerator, and P^{ij} starts at (1 + z_i z_j)/2
    try:
        graded = all(
            a == b + c
            for z1 in ZETA for z2 in ZETA
            for a, b, c in delta_edge(z1, z2, 8 if quick else 15).nums
        )
        loc = locality_series(6 if quick else 12, 3 if quick else 5)
        t12 = loc["ring2"].var("t1") + loc["ring2"].var("t2")
        local = all(
            loc["P"][i, j].coefficient() == Fraction(1 + zi * zj, 2)
            and loc["E"][i, j] * t12 == loc["E_numerator"][i, j]
            for i, zi in enumerate(ZETA) for j, zj in enumerate(ZETA)
        )
        check("edge-divisibility", graded and local, "all sign pairs")
    except Exception as exc:  # pragma: no cover - failure path
        check("edge-divisibility", False, str(exc))

    return results


# ---------------------------------------------------------------------------
# Disk-backed catalog
# ---------------------------------------------------------------------------

def _phi_part(key: str) -> Callable:
    return lambda orders: phi_family(orders["t"], orders["x"])[key]


# name -> (the orders it needs, builder)
_BUILDERS: dict = {
    "A": (("t",), lambda orders: hyper_A(orders["t"])),
    "B": (("t",), lambda orders: hyper_B(orders["t"])),
    **{
        f"C{i}": (("t",), lambda orders, i=i: series_C(i, orders["t"]))
        for i in range(1, 6)
    },
    "logA": (("t",), lambda orders: log_hyper_A(orders["t"])),
    **{
        key: (("t", "x"), _phi_part(key))
        for key in ("Phi", "logPhi", "gamma", "delta", "PhiPrime", "gammaPrime")
    },
}

_ARTICLE = {"t": "a", "x": "an"}


def series_orders(name: str) -> tuple:
    """The order variables the series ``name`` reads; ``KeyError`` for an
    unknown name."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown series {name!r}; known: {sorted(_BUILDERS)}")
    return _BUILDERS[name][0]


def check_orders(name: str, orders: dict, reads: tuple | None = None) -> None:
    """Raise ``ValueError`` when ``orders`` gives a variable the series
    ``name`` does not read or lacks one it needs, and ``KeyError`` for an
    unknown catalog name.

    A catalog series reads and needs ``series_orders(name)``.  A series
    outside the catalog, such as an edge kernel, passes the variables it
    ``reads`` and needs only its t order.
    """
    needs = series_orders(name) if reads is None else ("t",)
    for var in orders:
        if var not in (reads or needs):
            raise ValueError(f"order {var} is not read by series {name}")
    for var in needs:
        if var not in orders:
            raise ValueError(f"series {name} needs {_ARTICLE[var]} {var} order")


def catalog_ring(name: str, orders: dict) -> Ring:
    """The ring the builder of ``name`` returns: t in [0, t] for the
    one-variable series, t in [-x, t] and x in [0, x] for the Phi family."""
    if _BUILDERS[name][0] == ("t",):
        return Ring([VarSpec("t", 0, orders["t"] + 1)])
    return Ring(
        [
            VarSpec("t", -orders["x"], orders["t"] + 1),
            VarSpec("x", 0, orders["x"] + 1),
        ]
    )


def _read_entry(path: Path, ring: Ring) -> Series | None:
    """A stored series, or None when the file is missing, unreadable or holds
    a series in another ring."""
    try:
        stored = series_from_dict(json.loads(path.read_text()))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError,
            SeriesError):
        return None
    return stored if stored.ring == ring else None


def _write_entry(path: Path, value: Series) -> None:
    """Write through a temporary file and rename, so a reader never sees a
    partial entry."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(series_to_dict(value)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class SeriesCatalog:
    """The named series, persisted to disk when a cache directory is set;
    the builders memoise in memory.

    The cache directory defaults to the ``TAUTRELS_CACHE`` environment
    variable.  With ``audit=True`` every cache hit is recomputed from scratch
    and compared against the stored value; a mismatch raises.
    """

    def __init__(self, cache_dir: str | None = None, audit: bool = False):
        cache_dir = cache_dir or os.environ.get("TAUTRELS_CACHE")
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.audit = audit

    def names(self) -> list:
        return sorted(_BUILDERS)

    def get(self, name: str, **orders: int) -> Series:
        """The named series; a cache entry that cannot be read or holds
        another ring counts as a miss and is recomputed and rewritten."""
        check_orders(name, orders)
        fresh = None
        stored = None
        path = None
        if self.cache_dir is not None:
            tag = "_".join(f"{k}{v}" for k, v in sorted(orders.items()))
            path = self.cache_dir / f"{name}_{tag}.json"
            stored = _read_entry(path, catalog_ring(name, orders))
        if stored is None or self.audit:
            fresh = _BUILDERS[name][1](orders)
        if stored is not None and fresh is not None and stored != fresh:
            raise RuntimeError(f"cache audit failure for {name} {orders}")
        value = stored if stored is not None else fresh
        if path is not None and stored is None:
            _write_entry(path, value)
        return value
