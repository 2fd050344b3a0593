"""Unit tests for the truncated exact Laurent-series core."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tautrels.series import (
    FloorUnderflow,
    NotDivisible,
    Ring,
    RingMismatch,
    Series,
    SeriesError,
    VarSpec,
    WindowError,
    embed,
)
from tautrels.serialize import series_from_dict, series_to_dict

from oracles import (_edge_factor, oracle_divide_exact, oracle_packed,
                     oracle_substitute, oracle_unpacked)


def ring_t(order=10, floor=0):
    return Ring([VarSpec("t", floor, order)])


def test_basic_arithmetic():
    R = ring_t(8)
    t = R.var("t")
    s = (1 + t) * (1 - t)
    assert s == R.one() - t * t
    assert (s - s).is_zero()
    assert (3 * t - t * 3).is_zero()


def test_product_truncates_high_exponents_exactly():
    R = ring_t(4)
    t = R.var("t")
    s = (1 + t) ** 10
    # binomial coefficients below the truncation order survive exactly
    assert s.coefficient(t=3) == 120
    with pytest.raises(WindowError):
        s.coefficient(t=4)


def test_laurent_floor_underflow_raises():
    R = Ring([VarSpec("t", -2, 5)])
    tinv = R.var("t", -2)
    with pytest.raises(FloorUnderflow):
        tinv * R.var("t", -1)


def test_ring_mismatch():
    a = ring_t(5).var("t")
    b = ring_t(6).var("t")
    with pytest.raises(RingMismatch):
        a + b


def test_exp_log_roundtrip():
    R = Ring([VarSpec("t", 0, 9), VarSpec("x", 0, 5)])
    t, x = R.var("t"), R.var("x")
    a = t + 2 * x + t * x - 3 * t ** 2
    assert ((a.exp().log()) - a).is_zero()
    assert ((1 + t + x).log().exp() - (1 + t + x)).is_zero()


def test_exp_known_coefficients():
    R = ring_t(10)
    e = R.var("t").exp()
    for k in range(10):
        assert e.coefficient(t=k) == F(1, [1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880][k])


def test_exp_requires_zero_constant_term():
    R = ring_t(5)
    with pytest.raises(SeriesError):
        (1 + R.var("t")).exp()


def test_exp_with_laurent_pole_against_ordinary_grading():
    # exp(y/t) terminates because every pole carries a positive y-degree
    R = Ring([VarSpec("t", -4, 5), VarSpec("y", 0, 5)])
    a = R.var("y") * R.var("t", -1)
    e = a.exp()
    assert e.coefficient(t=-3, y=3) == F(1, 6)


def test_pow_fraction():
    R = ring_t(8)
    t = R.var("t")
    s = (1 + 4 * t).pow_fraction(F(1, 2))
    assert (s * s - (1 + 4 * t)).is_zero()
    assert (1 + t).pow_fraction(F(-3, 2)).coefficient(t=1) == F(-3, 2)


def test_inverse_of_unit_and_monomial_times_unit():
    R = Ring([VarSpec("t", -3, 6), VarSpec("y", 0, 4)])
    t, y = R.var("t"), R.var("y")
    s = t * (1 + 4 * y)
    inv = s.inverse()
    assert (s * inv - R.one()).is_zero()
    with pytest.raises(SeriesError):
        (t + y).inverse()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_inverse_keeps_every_window_term_after_a_positive_shift(m):
    # (t^m (1 + t))^-1 = sum_k (-1)^k t^(k - m): every exponent from -m up to
    # the truncation must be present, however far the shift m reaches.  The
    # terms at t^(5 - 2m) and above hold only because t^m + t^(m+1) is an
    # exact polynomial; the window alone does not fix them.
    R = Ring([VarSpec("t", -4, 5)])
    t = R.var("t")
    inv = (t ** m + t ** (m + 1)).inverse()
    assert inv.coeffs == {(k,): F((-1) ** (k + m)) for k in range(-m, 5)}


def test_inverse_positive_shift_with_a_second_variable():
    # (t^2 (1 + t + y))^-1 has coefficient (-1)^(a+b) C(a+b, a) at t^(a-2) y^b;
    # from t^1 up this holds only because the input is an exact polynomial
    R = Ring([VarSpec("t", -3, 5), VarSpec("y", 0, 3)])
    t, y = R.var("t"), R.var("y")
    inv = (t ** 2 * (1 + t + y)).inverse()
    assert inv.coeffs == {
        (a - 2, b): F((-1) ** (a + b) * math.comb(a + b, a))
        for a in range(7) for b in range(3)
    }


def test_geometric_series_inverse():
    R = ring_t(12)
    inv = (1 - R.var("t")).inverse()
    assert all(inv.coefficient(t=k) == 1 for k in range(12))


def test_derivative_and_euler_operator():
    R = Ring([VarSpec("t", 0, 6), VarSpec("x", 0, 6)])
    t, x = R.var("t"), R.var("x")
    s = t ** 2 * x ** 3
    assert s.derivative("x") == 3 * t ** 2 * x ** 2
    assert s.x_d_dx("x") == 3 * s


def test_substitute_sign_twist():
    R = ring_t(6)
    t = R.var("t")
    s = 1 + t + t ** 2 + t ** 3
    flipped = s.substitute({"t": -1})
    assert flipped == 1 - t + t ** 2 - t ** 3


def test_substitute_series_with_negative_exponents():
    # F(t) = t^-1 under t -> u(1+4y)^(-1/2) needs an invertible assignment
    src = Ring([VarSpec("t", -2, 3)])
    tgt = Ring([VarSpec("u", -2, 3), VarSpec("y", 0, 4)])
    u, y = tgt.var("u"), tgt.var("y")
    t_img = u * (1 + 4 * y).pow_fraction(F(-1, 2))
    out = src.var("t", -1).substitute({"t": t_img})
    expect = tgt.var("u", -1) * (1 + 4 * y).pow_fraction(F(1, 2))
    assert (out - expect).is_zero()


def test_substitute_composition_roundtrip():
    R = ring_t(7)
    t = R.var("t")
    f = t + 3 * t ** 2 - t ** 3
    g = t * (1 + t)
    h = f.substitute({"t": g})
    hand = g + 3 * g * g - g * g * g
    assert (h - hand).is_zero()


def test_divide_exact_difference_of_squares():
    R = Ring([VarSpec("p1", 0, 5), VarSpec("p2", 0, 5)])
    p1, p2 = R.var("p1"), R.var("p2")
    q = (p1 ** 2 - p2 ** 2).divide_exact(p1 + p2)
    assert q == p1 - p2


def test_divide_exact_detects_remainder():
    R = ring_t(6)
    t = R.var("t")
    with pytest.raises(NotDivisible):
        (1 + t).divide_exact(t)


def test_divide_exact_randomised_roundtrip():
    rng = random.Random(20260826)
    R = Ring([VarSpec("t", -2, 5), VarSpec("x", 0, 4)])
    for _ in range(25):
        num_terms = rng.randint(1, 5)
        a = R.zero()
        for _ in range(num_terms):
            a = a + R.monomial(
                F(rng.randint(-5, 5), rng.randint(1, 4)),
                t=rng.randint(-1, 3),
                x=rng.randint(0, 3),
            )
        b = R.one() + R.monomial(rng.randint(1, 3), t=rng.randint(0, 2), x=1)
        if a.is_zero():
            continue
        prod = a * b
        # quotient agrees with a on the window guaranteed by the product
        q = prod.divide_exact(b)
        assert ((q - a) * b).is_zero()


def test_extract_fixes_variables():
    R = Ring([VarSpec("t", -1, 4), VarSpec("x", 0, 3)])
    t, x = R.var("t"), R.var("x")
    s = 2 * t * x + 3 * x - t
    row = s.extract(x=1)
    assert row.coefficient(t=1) == 2
    assert row.coefficient(t=0) == 3
    with pytest.raises(WindowError):
        s.extract(x=7)


def test_series_rejects_an_exponent_tuple_of_another_length():
    R = Ring([VarSpec("t", -1, 4), VarSpec("x", 0, 3)])
    # unchecked, (7,) on S carried into the field of x, so that times x it
    # read t^-1 x^2, and (5, 0) times one gave 0
    S = Ring([VarSpec("t", 0, 3), VarSpec("x", 0, 3)])
    for ring, exps, match in [
            (R, (1,), "has 1 entries"), (R, (1, 0, 5), "has 3 entries"),
            (R, (), "has 0 entries"), (S, (7,), "has 1 entries"),
            (S, (5, 0), "exponent 5 of 't' outside window")]:
        for build in (ring.series, lambda terms: Series(ring, terms)):
            with pytest.raises(WindowError, match=match):
                build({exps: 1})
    assert R.series({(1, 0): 1}) == R.var("t")
    assert Series(S, {(5, 0): 0}) == S.zero()


def test_embed_into_larger_ring():
    small = ring_t(5)
    big = Ring([VarSpec("t", -1, 5), VarSpec("x", 0, 3)])
    s = embed((1 + small.var("t")) ** 2, big)
    assert s.coefficient(t=2, x=0) == 1


def test_serialization_roundtrip():
    R = Ring([VarSpec("t", -2, 6), VarSpec("x", 0, 4)])
    s = R.monomial(F(-7, 3), t=-2, x=3) + R.monomial(F(123456789, 2), t=5) + R.one()
    d = series_to_dict(s)
    assert all(isinstance(t["num"], str) for t in d["terms"])
    assert series_from_dict(d) == s


def test_at_most_one_laurent_variable():
    with pytest.raises(ValueError):
        Ring([VarSpec("t", -1, 3), VarSpec("u", -1, 3)])


# ---------------------------------------------------------------------------
# The integer product kernel against the pair-loop product it replaced
# ---------------------------------------------------------------------------


def oracle_mul(a, b):
    """Series product by one Fraction multiply-add per pair of terms."""
    specs = a.ring.specs
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if any(e >= s.trunc_order for e, s in zip(exps, specs)):
                continue
            for e, s in zip(exps, specs):
                if e < s.min_exponent:
                    raise FloorUnderflow(
                        f"exponent {e} of {s.name!r} below floor "
                        f"{s.min_exponent} in product"
                    )
            v = out.get(exps, F(0)) + c1 * c2
            if v:
                out[exps] = v
            else:
                del out[exps]
    return Series(a.ring, out)


def oracle_power_sum(f, a, what):
    """``sum_k a(k) f^k`` for a nilpotent ``f``, one full product per power,
    ending at the first power that truncates to zero."""
    ring = f.ring
    total = ring.const(a(0))
    power = ring.one()
    bound = 2 * sum(s.trunc_order - s.min_exponent for s in ring.specs) + 4
    for k in range(1, bound + 1):
        power = power * f
        if power.is_zero():
            return total
        total = total + power * a(k)
    raise SeriesError(f"{what} did not terminate within the truncation window")


def oracle_exp(f):
    return oracle_power_sum(f, lambda k: F(1, math.factorial(k)), "exp")


def oracle_log(f):
    return oracle_power_sum(
        f - 1, lambda k: F((-1) ** (k + 1), k) if k else F(0), "log")


def oracle_geometric(g):
    """``1 / (1 + g)`` for ``g`` without constant term."""
    return oracle_power_sum(g, lambda k: F((-1) ** k), "inverse")


@st.composite
def rings(draw, laurent=True, min_vars=0, max_vars=4, max_width=5):
    """min_vars..max_vars variables; with ``laurent``, at most one negative
    floor."""
    n = draw(st.integers(min_vars, max_vars))
    pole = draw(st.integers(-1, n - 1)) if laurent and n else -1
    specs = []
    for i in range(n):
        lo = -draw(st.integers(1, 3)) if i == pole else 0
        specs.append(VarSpec(f"v{i}", lo, lo + draw(st.integers(1, max_width))))
    return Ring(specs)


fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def series_in(draw, ring, max_terms=8):
    exps = st.tuples(
        *(st.integers(s.min_exponent, s.trunc_order - 1) for s in ring.specs)
    )
    terms = draw(st.dictionaries(exps, fractions, max_size=max_terms))
    return ring.series(terms)


@st.composite
def ring_and_series(draw, count, **ring_kw):
    ring = draw(rings(**ring_kw))
    return (ring,) + tuple(draw(series_in(ring)) for _ in range(count))


def product_or_error(a, b, mul):
    try:
        return mul(a, b)
    except FloorUnderflow as exc:
        return ("FloorUnderflow", str(exc))


@settings(max_examples=400, deadline=None)
@given(ring_and_series(2))
def test_product_matches_pair_loop_oracle(data):
    _, a, b = data
    got = product_or_error(a, b, lambda x, y: x * y)
    assert got == product_or_error(a, b, oracle_mul)
    if isinstance(got, Series):
        assert all(isinstance(c, F) and c for c in got.coeffs.values())


def test_product_raises_when_below_floor_pairs_cancel():
    # t^-2 x * t^-1 and t^-1 * (-t^-2 x) both land on t^-3 x and cancel;
    # every other pair is kept at the floor or truncated in x
    R = Ring([VarSpec("t", -2, 3), VarSpec("x", 0, 2)])
    a = R.monomial(1, t=-2, x=1) + R.var("t", -1)
    b = R.var("t", -1) - R.monomial(1, t=-2, x=1)
    with pytest.raises(FloorUnderflow, match="exponent -3 of 't' below floor -2"):
        oracle_mul(a, b)
    with pytest.raises(FloorUnderflow, match="exponent -3 of 't' below floor -2"):
        a * b


def test_product_truncates_at_each_window_edge():
    # a summed exponent at trunc_order - 1 survives, at trunc_order it drops,
    # below the floor it raises unless another variable drops the pair
    R = Ring([VarSpec("t", -3, 4), VarSpec("x", 0, 1), VarSpec("y", 0, 4)])
    for i, j, k, m in itertools.product(range(-3, 4), range(-3, 4), range(4), range(4)):
        a, b = R.monomial(2, t=i, y=k), R.monomial(F(1, 3), t=j, y=m)
        if i + j >= 4 or k + m >= 4:
            assert (a * b).is_zero()
        elif i + j < -3:
            with pytest.raises(FloorUnderflow):
                a * b
        else:
            assert (a * b).coeffs == {(i + j, 0, k + m): F(2, 3)}


def test_product_with_zero_operand_is_zero():
    R = Ring([VarSpec("t", -2, 3)])
    assert (R.zero() * R.var("t", -2)).is_zero()
    assert (R.var("t", -2) * R.zero()).is_zero()
    with pytest.raises(RingMismatch):
        R.zero() * ring_t(3).var("t")


# ---------------------------------------------------------------------------
# The packed-key codec against the pack and unpack loops it replaced
# ---------------------------------------------------------------------------


@st.composite
def packed_sums(draw):
    """A ring, the sums of pairs of exponent tuples inside its window that
    no variable truncates, in order of arrival, and the keys
    ``k1 - unit + k2`` of those sums mapped to integer numerators (zeros
    and repeats included)."""
    ring = draw(rings(laurent=draw(st.booleans())))
    unit, high = ring._unit_key, ring._high
    inside = st.tuples(
        *(st.integers(s.min_exponent, s.trunc_order - 1) for s in ring.specs))
    pairs = draw(st.lists(st.tuples(inside, inside, st.integers(-5, 5)),
                          max_size=8))
    ka = ring._packed([(a, 1) for a, _, _ in pairs])
    kb = ring._packed([(b, 1) for _, b, _ in pairs])
    assert ka == oracle_packed(ring, [(a, 1) for a, _, _ in pairs])
    assert kb == oracle_packed(ring, [(b, 1) for _, b, _ in pairs])
    assert high == sum(((m + 1) >> 1) << sh for sh, m, _ in ring._fields)
    sums, acc = [], {}
    for (a, b, v), (k1, _), (k2, _) in zip(pairs, ka, kb):
        k = k1 - unit + k2
        exps = tuple(x + y for x, y in zip(a, b))
        # each field holds e1 + e2 + X inside its own bits: nothing borrows
        # or carries, and its top bit is set exactly at the truncation order
        fields = [e + x for e, (_, _, x) in zip(exps, ring._fields)]
        assert all(0 <= f <= m for f, (_, m, _) in zip(fields, ring._fields))
        assert k == sum(f << sh for f, (sh, _, _) in zip(fields, ring._fields))
        for f, (_, m, _), e, s in zip(fields, ring._fields, exps, ring.specs):
            assert bool(f & ((m + 1) >> 1)) == (e >= s.trunc_order)
        assert bool(k & high) == any(
            e >= s.trunc_order for e, s in zip(exps, ring.specs))
        if not k & high:
            sums.append((exps, v))
            acc[k] = acc.get(k, 0) + v
    return ring, sums, acc


@settings(max_examples=400, deadline=None)
@given(packed_sums(), st.sampled_from(["product", "exp", "log", "inverse"]))
def test_unpacked_matches_the_inline_loop(data, where):
    ring, sums, acc = data

    def outcome(unpack):
        try:
            return unpack(ring, acc, where)
        except FloorUnderflow as exc:
            return ("FloorUnderflow", str(exc))

    got = outcome(Ring._unpacked)
    assert got == outcome(oracle_unpacked)
    # and against the sums themselves: the first sum below a floor raises
    want = {}
    for exps, v in sums:
        low = next(((e, s) for e, s in zip(exps, ring.specs)
                    if e < s.min_exponent), None)
        if low is not None:
            e, s = low
            assert got == ("FloorUnderflow", f"exponent {e} of {s.name!r} "
                           f"below floor {s.min_exponent} in {where}")
            return
        want[exps] = want.get(exps, 0) + v
    assert got == {e: v for e, v in want.items() if v}
    assert all(type(v) is int for v in got.values())


@settings(max_examples=200, deadline=None)
@given(ring_and_series(1))
def test_packed_round_trip(data):
    ring, a = data
    keyed = ring._packed(a.nums.items())
    assert keyed == oracle_packed(ring, a.nums.items())
    assert ring._packed([((0,) * ring.nvars, 1)]) == [(ring._unit_key, 1)]
    assert a.den == math.lcm(*(c.denominator for c in a.coeffs.values()))
    assert [c for _, c in keyed] == [c * a.den for c in a.coeffs.values()]
    assert ring._unpacked(dict(keyed), "product") == a.nums
    assert {e: F(c, a.den) for e, c in ring._unpacked(
        dict(keyed), "product").items()} == a.coeffs


def decoded(ring, acc):
    """The exponent tuples of the packed keys of ``acc``, in its order."""
    return [tuple(((k >> sh) & m) - x for sh, m, x in ring._fields)
            for k in acc]


@pytest.mark.parametrize("laurent", [False, True])
@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       scale=st.integers(-6, 6).filter(lambda c: c not in (0, 1)))
def test_mul_into_adds_a_scaled_product(laurent, data, scale):
    # acc starts with the numerators of c; the kernel adds scale times the
    # product of the numerators of a and b, against the tuple-keyed oracle
    ring, a, b, c = data.draw(ring_and_series(3, laurent=laurent))
    acc = dict(ring._packed(c.nums.items()))
    ring._mul_into(acc, ring._packed(a.nums.items()),
                   ring._packed(b.nums.items()), scale)
    # c's keys first, then each new key at its first pair
    order = list(c.nums)
    for e1 in a.nums:
        for e2 in b.nums:
            exps = tuple(map(sum, zip(e1, e2)))
            if (exps not in order and all(
                    e < s.trunc_order for e, s in zip(exps, ring.specs))):
                order.append(exps)
    assert decoded(ring, acc) == order

    def whole(x):
        return Series(ring, x.nums)

    try:
        got = ring._unpacked(acc, "product")
    except FloorUnderflow as exc:
        got = ("FloorUnderflow", str(exc))
    want = product_or_error(whole(a), whole(b), oracle_mul)
    if isinstance(want, Series):
        want = (whole(c) + want * scale).nums
    assert got == want


def test_floor_underflow_names_the_operation():
    # t^-2 x has degree 1 under the grading (weights 1 and 3); its square
    # t^-4 x^2 is the first output key below the floor
    R = Ring([VarSpec("t", -2, 3), VarSpec("x", 0, 3)])
    g = R.monomial(1, t=-2, x=1)
    for where, run in (("product", lambda: g * g),
                       ("exp", g.exp),
                       ("log", (1 + g).log),
                       ("inverse", lambda: g._graded("inverse"))):
        with pytest.raises(FloorUnderflow) as exc:
            run()
        assert str(exc.value) == f"exponent -4 of 't' below floor -2 in {where}"


@settings(max_examples=150, deadline=None)
@given(ring_and_series(3, laurent=False))
def test_ring_axioms_on_power_series(data):
    R, a, b, c = data
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * R.one() == a
    assert (a * 0).is_zero() and (a * F(3, 2)) == a + a + a * F(-1, 2)


@settings(max_examples=60, deadline=None)
@given(ring_and_series(1, laurent=False, min_vars=1, max_vars=3, max_width=4))
def test_exp_log_round_trips(data):
    R, a = data
    g = a - a.constant_term()  # zero constant term
    assume(not g.is_zero())
    assert g.exp().log() == g
    assert (1 + g).log().exp() == 1 + g


@settings(max_examples=60, deadline=None)
@given(ring_and_series(1, laurent=False, min_vars=1, max_vars=3, max_width=4),
       fractions)
def test_inverse_round_trip(data, c0):
    R, a = data
    assume(a != a.constant_term())
    if not c0:
        c0 = F(1)
    f = a - a.constant_term() + c0
    assert f * f.inverse() == R.one()
    assert f.inverse() * f == R.one()


# ---------------------------------------------------------------------------
# The graded exp, log and inverse against the power sums they replaced
# ---------------------------------------------------------------------------


def outcome(f, x):
    try:
        return f(x)
    except FloorUnderflow:
        return "FloorUnderflow"


def without_constant(a):
    return a - a.constant_term()


def has_constants(ring):
    return all(s.trunc_order > 0 for s in ring.specs)


def padded(ring):
    """``ring`` with the Laurent top raised by |floor| (sum of the other
    tops - 1), where truncated products of the series below agree with the
    exact ones."""
    lo = min([0] + [s.min_exponent for s in ring.specs])
    extra = -lo * sum(s.trunc_order - 1 for s in ring.specs if s.min_exponent >= 0)
    return Ring([
        VarSpec(s.name, s.min_exponent, s.trunc_order + extra)
        if s.min_exponent < 0 else s for s in ring.specs
    ])


@settings(max_examples=300, deadline=None)
@given(ring_and_series(1, laurent=False))
def test_exp_log_equal_the_power_sums_on_power_series(data):
    _, a = data
    g = without_constant(a)
    assert g.exp() == oracle_exp(g)
    assert (1 + g).log() == oracle_log(1 + g)


@settings(max_examples=300, deadline=None)
@given(ring_and_series(1, max_vars=3), fractions)
def test_inverse_equals_the_geometric_power_sum(data, c0):
    # the geometric series inside inverse, on every kind of ring: g has no
    # negative exponent, so no monomial is factored out
    R, a = data
    assume(has_constants(R))
    g = R.series({e: c for e, c in a.coeffs.items() if min(e, default=0) >= 0})
    g = without_constant(g)
    c0 = c0 or F(1)
    assert (c0 + g).inverse() == oracle_geometric(g * (1 / c0)) * (1 / c0)


@settings(max_examples=300, deadline=None)
@given(ring_and_series(1, max_vars=3, max_width=4))
def test_exp_log_equal_the_power_sums_in_a_padded_laurent_window(data):
    R, a = data
    assume(has_constants(R))
    big = padded(R)
    g = embed(without_constant(a), big)
    for kernel, oracle, x in ((Series.exp, oracle_exp, g),
                              (Series.log, oracle_log, 1 + g)):
        got, want = outcome(kernel, x), outcome(oracle, x)
        if got == "FloorUnderflow" or want == "FloorUnderflow":
            assert got == want
        else:
            assert embed(got, R) == embed(want, R)


@st.composite
def pure_pole_series(draw):
    """``(ring, g)``: a ring of one to three variables, one of them with a
    negative floor and every window holding the exponent 0, and a series
    without constant term whose pure pole at a drawn power has a nonzero
    coefficient."""
    n = draw(st.integers(1, 3))
    pole = draw(st.integers(0, n - 1))
    specs = []
    for i in range(n):
        lo = -draw(st.integers(1, 3)) if i == pole else 0
        specs.append(VarSpec(f"v{i}", lo, draw(st.integers(1, lo + 4))))
    R = Ring(specs)
    power = draw(st.integers(specs[pole].min_exponent, -1))
    terms = dict(without_constant(draw(series_in(R))).coeffs)
    terms[R.exponents(**{specs[pole].name: power})] = draw(st.builds(
        F, st.integers(1, 40) | st.integers(-40, -1), st.integers(1, 12)))
    return R, R.series(terms)


@settings(max_examples=150, deadline=None)
@given(pure_pole_series())
def test_a_pure_pole_raises_in_both_kernels(data):
    R, g = data
    assert has_constants(R)
    for kernel, oracle, x in ((Series.exp, oracle_exp, g),
                              (Series.log, oracle_log, 1 + g)):
        with pytest.raises(FloorUnderflow):
            kernel(x)
        with pytest.raises(FloorUnderflow):
            oracle(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_divisor_edge_factor_equals_the_power_sum_form(max_codim, draw):
    # (exp(-f s) - 1) / (-s) = sum_k (-f s)^k / (k+1)! * f with s = p1 + p2
    keys = [(i, j) for i in range(max_codim + 1) for j in range(max_codim + 1)
            if i + j <= max_codim]
    f_poly = draw.draw(st.dictionaries(st.sampled_from(keys), fractions))
    R = Ring([VarSpec("p1", 0, max_codim + 1), VarSpec("p2", 0, max_codim + 1)])
    f = R.series(f_poly)
    minus_fs = -(f * (R.var("p1") + R.var("p2")))
    want = oracle_power_sum(
        minus_fs, lambda k: F(1, math.factorial(k + 1)), "edge factor") * f
    assert _edge_factor(f_poly, max_codim) == want


# ---------------------------------------------------------------------------
# The grouped substitution kernel against the term-by-term loop
# ---------------------------------------------------------------------------


@st.composite
def substitutions(draw):
    """``(f, assignment)``: a series in one to three variables, one or two
    of them assigned image series (in a drawn order), each other one a
    sign or left out.  The target ring keeps the unassigned variables with
    their windows and adds ``u`` and ``y``; at most one of its variables is
    Laurent, and then every image has one exponent of it.  Each image is a
    scalar times a monomial times ``1 + g``, so it is invertible."""
    n = draw(st.integers(1, 3))
    pole = draw(st.integers(-1, n - 1))
    src = Ring([VarSpec(f"v{i}", -draw(st.integers(1, 2)) if i == pole else 0,
                        draw(st.integers(1, 4))) for i in range(n)])
    f = draw(series_in(src, max_terms=6))
    names = draw(st.permutations([s.name for s in src.specs]))
    n_images = draw(st.integers(1, min(2, len(names))))
    imaged, rest = names[:n_images], names[n_images:]
    kept = [s for s in src.specs if s.name in rest]
    laurent = any(s.min_exponent < 0 for s in kept)
    u_floor = 0 if laurent else -draw(st.integers(0, 2))
    target = Ring(kept + [VarSpec("u", u_floor, draw(st.integers(1, 4))),
                          VarSpec("y", 0, draw(st.integers(1, 4)))])
    pole = next((s.name for s in target.specs if s.min_exponent < 0), None)
    free = Ring([s for s in target.specs if s.name != pole])
    assignment = {}
    for name in imaged:
        mono = {s.name: draw(st.integers(s.min_exponent, s.trunc_order - 1))
                for s in target.specs}
        g = embed(draw(series_in(free, max_terms=3)), target)
        g = g - g.constant_term()
        scalar = draw(fractions.filter(bool))
        assignment[name] = target.monomial(scalar, **mono) * (1 + g)
    for name in rest:
        sign = draw(st.sampled_from([1, -1, None]))
        if sign is not None:
            assignment[name] = sign
    return f, assignment


def substitute_or_error(f, assignment, substitute):
    try:
        return substitute(f, assignment)
    except SeriesError as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitute_matches_the_term_by_term_oracle(data):
    f, assignment = data
    got = substitute_or_error(f, assignment, Series.substitute)
    assert got == substitute_or_error(f, assignment, oracle_substitute)
    if isinstance(got, Series):
        assert all(isinstance(c, F) and c for c in got.coeffs.values())


def test_substitute_checks_rings_windows_and_floors():
    src = Ring([VarSpec("t", -2, 3), VarSpec("x", 0, 3)])
    f = src.monomial(1, t=-2, x=2)
    tgt = Ring([VarSpec("u", -1, 3), VarSpec("x", 0, 3)])
    u = tgt.var("u")
    with pytest.raises(RingMismatch):
        f.substitute({"t": u, "x": Ring([VarSpec("x", 0, 3)]).var("x")})
    with pytest.raises(SeriesError, match="'x' missing from target ring"):
        f.substitute({"t": Ring([VarSpec("u", -1, 3)]).var("u")})
    narrow = Ring([VarSpec("u", -2, 3), VarSpec("x", 0, 2)])
    with pytest.raises(WindowError):
        f.substitute({"t": narrow.var("u")})
    # u^-2 in the ladder, and t^-1 x -> t^-2 in the grouped product
    with pytest.raises(FloorUnderflow):
        f.substitute({"t": u})
    with pytest.raises(FloorUnderflow):
        f.substitute({"t": 1, "x": Ring([VarSpec("t", -2, 3)]).var("t", -1)})


@pytest.mark.parametrize("flag", [True, False])
def test_substitute_rejects_boolean_signs(flag):
    t = ring_t(4).var("t")
    with pytest.raises(SeriesError, match="Series or the int"):
        (1 + t).substitute({"t": flag})


# ---------------------------------------------------------------------------
# The integer division kernel against the Fraction long division it replaced
# ---------------------------------------------------------------------------


def divide_or_error(num, den, divide):
    try:
        return divide(num, den)
    except NotDivisible as exc:
        return ("NotDivisible", str(exc))


@settings(max_examples=300, deadline=None)
@given(ring_and_series(2, max_vars=3),
       st.builds(F, st.integers(2, 40) | st.integers(-40, -1), st.integers(1, 12)),
       st.booleans())
def test_divide_exact_matches_the_fraction_long_division(data, lead, multiply):
    # the divisor's lex-minimal term gets a coefficient that is mostly
    # negative, fractional or not +-1, so that the remainder's denominator
    # grows inside the loop; half of the numerators are multiples of the
    # divisor
    R, a, b = data
    if not b.is_zero():
        b = b + R.monomial(lead - b.coeffs[min(b.coeffs)], **dict(
            zip((s.name for s in R.specs), min(b.coeffs))))
    num = a
    if multiply:
        try:
            num = a * b
        except FloorUnderflow:
            pass
    got = divide_or_error(num, b, Series.divide_exact)
    want = divide_or_error(num, b, oracle_divide_exact)
    assert got == want
    if isinstance(got, Series):
        assert list(got.coeffs) == list(want.coeffs)
        assert all(isinstance(c, F) and c for c in got.coeffs.values())


def test_divide_exact_by_a_unit_with_lead_coefficient_three():
    # 3 does not divide the numerators 1, so the remainder's denominator is
    # scaled up inside the loop; the quotient is the truncated series
    R = ring_t(6)
    t = R.var("t")
    q = (1 + t).divide_exact(3 - 2 * t)
    assert q == oracle_divide_exact(1 + t, 3 - 2 * t)
    assert q * (3 - 2 * t) == 1 + t
    assert q.coefficient(t=0) == F(1, 3)


# ---------------------------------------------------------------------------
# The stored form: integer numerators over one denominator, divided by gcd
# ---------------------------------------------------------------------------


def assert_canonical(s):
    assert type(s.den) is int and s.den >= 1
    assert all(type(c) is int and c for c in s.nums.values())
    assert math.gcd(s.den, *s.nums.values()) == 1
    again = s.ring.series(s.coeffs)
    assert again == s and hash(again) == hash(s)
    assert (again.den, again.nums) == (s.den, s.nums)


@settings(max_examples=200, deadline=None)
@given(ring_and_series(2), fractions, st.data())
def test_every_operation_stores_the_canonical_form(data, c, draw):
    ring, a, b = data
    names = [s.name for s in ring.specs]
    results = []

    def attempt(op):
        try:
            results.append(op())
        except SeriesError:
            pass

    for op in (lambda: a + b, lambda: a - b, lambda: -a, lambda: a + c,
               lambda: c - a, lambda: a * c, lambda: a * 6, lambda: a * b,
               lambda: without_constant(a).exp(),
               lambda: (1 + without_constant(a)).log(),
               lambda: a.inverse(), lambda: a.divide_exact(b),
               lambda: (a * b).divide_exact(b)):
        attempt(op)
    if names:
        i = draw.draw(st.integers(0, len(names) - 1))
        spec = ring.specs[i]
        e = draw.draw(st.integers(spec.min_exponent, spec.trunc_order - 1))
        attempt(lambda: a.extract(**{names[i]: e}))
        attempt(lambda: a.substitute({names[i]: -1}))
        attempt(lambda: a.substitute({names[i]: b}))
        attempt(lambda: a.derivative(names[i]))
        attempt(lambda: a.x_d_dx(names[i]))
        attempt(lambda: a.mul_var(names[i]))
    big = Ring([VarSpec(s.name, s.min_exponent, s.trunc_order + 1)
                for s in ring.specs] + [VarSpec("w", 0, 2)])
    attempt(lambda: embed(a, big))
    for s in [a, b] + results:
        assert_canonical(s)
