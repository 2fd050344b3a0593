"""End-to-end acceptance suite.

Each test pins one of the package-level guarantees: the formal-series
identities at full order, the extremal-coefficient theorems, the
coefficient-comparison lemma, the push-forward oracle, parity vanishing,
edge-series well-definedness, chain closure, boundary consistency, the
truncated divisor-exponential identity, the frame-matrix ODE,
byte-level determinism, the exact values of the edge kernels and of
a relation whose push-forward contracts components, and the exact values
of the series that exp and log build on padded Laurent rings.
"""

import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import tautrels
from tautrels import catalog
from tautrels.catalog import (
    bernoulli_kernel_coefficients,
    hyper_A,
    hyper_B,
    ionel_coefficient_pair,
    phi_family,
    s_matrix,
    s_matrix_ode_residuals,
    series_C,
    uy_expansion,
)
from tautrels.classes import TautClass
from tautrels.cli import main as cli_main
from tautrels.graphs import StableGraph, WeightData
from tautrels.relations import (
    extended_fz_relation,
    fz_relation,
    open_fz_relation,
    open_sq_relation,
    pushforward_oracle,
    verify_chain,
)
from tautrels.serialize import dumps, series_to_dict
from tautrels.series import Ring, VarSpec

from oracles import (
    divisor_exp_check,
    edge_series_uy,
    max_edges_part,
    oracle_add_words,
    weight_reduce,
)

W0 = WeightData(())


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"took {self.elapsed:.1f}s, limit {self.limit}s"
            )


def test_01_series_identity_suite():
    with Timer(10):
        A, B = hyper_A(20), hyper_B(20)
        combo = A * B.substitute({"t": -1}) + A.substitute({"t": -1}) * B + 2
        assert combo.is_zero()

        fam = phi_family(20, 10)
        ring = fam["ring"]

        def D(f):
            return f.x_d_dx("x").mul_var("t")

        delta = fam["delta"]
        residual = D(delta) + delta * delta - ring.var("x") - Fraction(1, 4)
        assert residual.is_zero()

        phi = fam["Phi"]
        assert (D(phi - D(phi)) + ring.var("x") * phi).is_zero()


def test_02_extremal_coefficient_theorems():
    with Timer(30):
        data = uy_expansion(5, 12, 12)
        log_a = hyper_A(12).log()
        for k in range(1, 13):
            assert data["c"].get(k, {}).get(k, Fraction(0)) == \
                log_a.coefficient(t=k)
        for i in range(1, 6):
            ci = series_C(i, 12)
            b = data["b"][i]
            cc = data["cc"][i]
            for m in range(13):
                value = Fraction(0)
                if m == i - 1:
                    value += b.get(i - 1, Fraction(0))
                k = m - i
                if k >= 0:
                    value -= cc.get(k, {}).get(k + i, Fraction(0))
                assert (2 ** i) * value == ci.coefficient(t=m), (i, m)


def test_03_coefficient_comparison_lemma():
    rng = random.Random(20260826)
    src = Ring([VarSpec("t", -3, 8), VarSpec("x", 0, 6)])
    for _ in range(100):
        f = src.zero()
        for _ in range(rng.randint(1, 7)):
            f = f + src.monomial(
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                t=rng.randint(-3, 7),
                x=rng.randint(0, 5),
            )
        for r in range(7):
            for d in range(5):
                lhs, rhs = ionel_coefficient_pair(f, r, d)
                assert lhs == rhs, (r, d)


def test_04_pushforward_oracle():
    with Timer(60):
        rows = pushforward_oracle(d_max=3)
        assert rows
        for name, ok, detail in rows:
            assert ok, (name, detail)


def test_05_parity_vanishing_grid():
    checked = 0
    for g in (1, 2, 3, 4):
        for d in range(3):
            for r in range(6):
                for a in [(), (0,), (1,), (2,), (1, 1)]:
                    n = len(a)
                    if 2 * g - 2 + n * Fraction(1, 10) <= 0:
                        continue
                    if (g + r + sum(a)) % 2 != 0:
                        continue
                    w = WeightData(tuple(Fraction(1, 10) for _ in range(n)))
                    rel = open_sq_relation(g, w, r, d, a, enforce=False)
                    assert rel.is_zero, (g, d, r, a)
                    checked += 1
    assert checked > 100


def test_06_edge_series_divisibility():
    # the two-variable numerator is divisible by 2(t1 + t2) to order 15
    order = 15
    ring = Ring([VarSpec("t1", 0, order + 1), VarSpec("t2", 0, order + 1)])
    a_inv = hyper_A(order + 1).inverse()
    c1 = series_C(1, order + 1)

    def at(f, z, var):
        return f.substitute({"t": z * ring.var(var)})

    for z1 in (1, -1):
        for z2 in (1, -1):
            numerator = (
                Fraction(z1 + z2) * at(a_inv, z1, "t1") * at(a_inv, z2, "t2")
                + z1 * at(c1, z1, "t1")
                + z2 * at(c1, z2, "t2")
            )
            divisor = (ring.var("t1") + ring.var("t2")) * 2
            quotient = numerator.divide_exact(divisor)
            assert (numerator - quotient * divisor).is_zero(), (z1, z2)

    # the x-refined bracket numerator is divisible by (t1 + t2) to order 12
    order, x_order = 12, 3
    ring = Ring(
        [
            VarSpec("t1", 0, order + 1),
            VarSpec("t2", 0, order + 1),
            VarSpec("x", 0, x_order + 1),
        ]
    )
    fam = phi_family(order, x_order)

    def at_xy(f, z, var):
        return f.substitute({"t": z * ring.var(var), "x": ring.var("x")})

    for z1 in (1, -1):
        for z2 in (1, -1):
            head = Fraction(z1 + z2, 2) * (
                -at_xy(fam["gammaPrime"], z1, "t1")
                - at_xy(fam["gammaPrime"], z2, "t2")
            ).exp()
            numerator = (
                head
                + z1 * at_xy(fam["delta"], z1, "t1")
                + z2 * at_xy(fam["delta"], z2, "t2")
            )
            numerator.divide_exact(ring.var("t1") + ring.var("t2"))


def test_07_chain_closure():
    for g, r in [(3, 2), (4, 3), (5, 4)]:
        for name, ok, detail in verify_chain(g, r):
            assert ok, (g, r, name, detail)
    # the (3, 2) relation is the classical two-generator combination
    rel = open_fz_relation(3, 0, 2)
    smooth = StableGraph((3,), (), ())
    expected = TautClass(3, W0)
    oracle_add_words(expected, smooth, [[("kappa", 1), ("kappa", 1)]],
                     Fraction(25, 72))
    oracle_add_words(expected, smooth, [[("kappa", 2)]], -5)
    key = min(rel.terms)
    scale = expected.terms[key] / rel.terms[key]
    assert rel.scale(scale) == expected


def test_08_boundary_consistency():
    # the 0-edge part of the graph sum doubles the open form (the two
    # colorings of the smooth graph contribute equally under the parity
    # condition)
    for g in (2, 3, 4):
        for r in (1, 2, 3, 4):
            for S in [(), (1,), (1, 2)]:
                if (g - 1 + r + len(S)) % 2 != 0:
                    continue
                if 3 * r < g + 1 + len(S):
                    continue
                n = len(S)
                w = WeightData(tuple(Fraction(1, 8) for _ in range(n)))
                zero_edge = max_edges_part(fz_relation(g, w, r, S), 0)
                open_form = open_fz_relation(g, n, r, S, weights=w)
                assert zero_edge == open_form.scale(2), (g, r, S)

    # weight-reduction naturality on ten seeded weight pairs
    rng = random.Random(20260826)
    for _ in range(10):
        g = rng.choice([2, 3])
        n = rng.choice([1, 2])
        r = g - 1 if (g - 1) % 2 == 0 else g
        while (g - 1 + r) % 2 != 0 or 3 * r < g + 1:
            r += 1
        hi = [Fraction(rng.randrange(1, 6), 20) for _ in range(n)]
        lo = [v / 2 for v in hi]
        w_hi, w_lo = WeightData(tuple(hi)), WeightData(tuple(lo))
        assert weight_reduce(fz_relation(g, w_hi, r), w_lo) == \
            fz_relation(g, w_lo, r), (g, n, hi)

    # the empty partition degenerates to the plain relation
    w = WeightData((Fraction(1, 10),))
    assert extended_fz_relation(3, w, 2, (), ()) == fz_relation(3, w, 2)


def test_09_divisor_exponential_truncations():
    for genus in (2, 3):
        for i_max in (1, 2):
            kernel = bernoulli_kernel_coefficients(i_max)
            f_poly = {(2 * i - 1, 2 * i - 1): -coeff
                      for i, coeff in kernel.items()}
            lhs, rhs = divisor_exp_check(genus, W0, f_poly, max_codim=2)
            assert lhs == rhs, (genus, i_max)


def test_10_frame_matrix():
    sm = s_matrix(8, 5, 2)
    for i in range(2):
        for j in range(2):
            assert sm["S"][(i, j)].coefficient() == (1 if i == j else 0)
    for residual in s_matrix_ode_residuals(sm):
        assert residual.is_zero()


def test_11_determinism(tmp_path, monkeypatch):
    # dict and set iteration order must not change the serialized relation
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(tautrels.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    argv = [sys.executable, "-m", "tautrels.cli", "relations", "gen",
            "--genus", "4", "--codim", "3", "--primitive"]
    payloads = set()
    for seed in ("0", "1", "2"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        payloads.add(done.stdout.splitlines()[0])
    assert len(payloads) == 1

    # the cold run writes the catalog entry, the warm run reads it instead
    # of building the series, and both emit byte-identical files
    monkeypatch.setenv("TAUTRELS_CACHE", str(tmp_path / "cache"))
    entry = tmp_path / "cache" / "Phi_t6_x3.json"

    def dump(tag):
        out = tmp_path / f"{tag}.json"
        assert cli_main(["series", "dump", "--name", "Phi",
                         "--orders", "t=6,x=3", "--out", str(out)]) == 0
        return out.read_bytes()

    assert not entry.exists()
    cold = dump("cold")
    assert entry.exists()

    def no_build(orders):
        raise AssertionError("Phi was built instead of read from the cache")

    monkeypatch.setitem(catalog._BUILDERS, "Phi", (("t", "x"), no_build))
    assert dump("warm") == cold
    entry.unlink()
    with pytest.raises(AssertionError, match="instead of read"):
        dump("rebuilt")


# sha256 of each payload: the other edge-kernel tests check properties, these
# pin the values.  The sigma relation forgets points whose vertices then
# destabilize, so it passes through the contraction in _forget_contract; the
# genus 4 one runs on graphs with loops and multi-edges, whose automorphism
# groups have order up to 48.  The fz, open-fz, open-sq and boundary-sq
# payloads pin each relation construction by value, on marked points with
# and without a diagonal.  The first two boundary-sq classes are empty; the
# one at weight 1/3 and a = 0 has 45 terms on graphs with up to 3 edges.
GOLDEN_DIGESTS = {
    "DeltaE t=8":
        "c128a1dbc83b0376585658c624ebe553fc15009cf674e317338edcb60b5ca421",
    "Edge3 t=6,x=3":
        "dad1c59b01a70cd60f495f317fc1d62c9d28ece82a2f86ed1590d0970864c800",
    "Edge4 t=6,x=3":
        "c58023bd11994950f2606de2936e36add6f9907846679f4bde1b03ecb9946dbc",
    "edge_series_uy 5,5":
        "803c07521ffa462fbad4bd4e0c4922b962eee94602a0c15acdf5405ea57e9880",
    "sigma 1,3 on weights 1/3":
        "a0646517fb0863920e02bff349b1dc3b4159005f2ac8c5a8cc477a79b56b4eca",
    "sigma 1,1 g4 r3":
        "55cab0fa23aff6e3552552b4370637e8d71d021b6c13810b0eac104c877e84fe",
    "open-fz g4 r3 1/5,1/5 S=1,2":
        "6df3f351438d7bfce4a973a1d30affd36a9df0eca05f94f01542aa63f3186dc7",
    "open-sq g2 r3 d1 1/10,1/10 a=1,1 signs +1,+1":
        "c09ccd1e64357f24c960d1021d0d4a5895282918f2ff1c2a03e8460ab58d48fb",
    "boundary-sq g2 r3 d1 1/10 a=1 half-sign -1":
        "34b527e28b51f1a475a8b28750e993eea9f69c74ff681ce447fda456893abfc1",
    "boundary-sq g1 r2 1/2,1/2 a=1,0":
        "e8961a51b7862949a3acccf3cf0cea7e78daa377cdbbf925e2bbfa8cdbcce15d",
    "boundary-sq g2 r3 d1 1/3":
        "b8cc196ad6c94e1b0c336a72399e70d2a236ff334e78237d342e215205ae017c",
    "fz g2 r3 1,1 S=1,2":
        "1965dee51e5034181e404e07c42c198c5ca284246375d367ec0f0cbba2371b8a",
}


def test_12_golden_digests():
    def cli_payload(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(list(argv)) == 0
        return buf.getvalue().splitlines()[0]

    def dump(name, orders):
        return cli_payload("series", "dump", "--name", name, "--orders", orders)

    def gen(*argv):
        return cli_payload("relations", "gen", *argv, "--primitive")

    payloads = {
        "DeltaE t=8": dump("DeltaE", "t=8"),
        "Edge3 t=6,x=3": dump("Edge3", "t=6,x=3"),
        "Edge4 t=6,x=3": dump("Edge4", "t=6,x=3"),
        "edge_series_uy 5,5": dumps([
            series_to_dict(edge_series_uy(z1, z2, 5, 5))
            for z1 in (1, -1) for z2 in (1, -1)
        ]),
        "sigma 1,3 on weights 1/3": gen(
            "--genus", "2", "--codim", "3", "--weights", "1/3",
            "--sigma", "1,3"),
        "sigma 1,1 g4 r3": gen(
            "--genus", "4", "--codim", "3", "--sigma", "1,1"),
        "open-fz g4 r3 1/5,1/5 S=1,2": gen(
            "--genus", "4", "--codim", "3", "--construction", "open-fz",
            "--weights", "1/5,1/5", "--subset", "1,2"),
        "open-sq g2 r3 d1 1/10,1/10 a=1,1 signs +1,+1": gen(
            "--genus", "2", "--codim", "3", "--construction", "open-sq",
            "--d", "1", "--weights", "1/10,1/10", "--a", "1,1",
            "--half-sign", "1", "--pd-sign", "1"),
        "boundary-sq g2 r3 d1 1/10 a=1 half-sign -1": gen(
            "--genus", "2", "--codim", "3", "--construction", "boundary-sq",
            "--d", "1", "--weights", "1/10", "--a", "1", "--half-sign", "-1"),
        "boundary-sq g1 r2 1/2,1/2 a=1,0": gen(
            "--genus", "1", "--codim", "2", "--construction", "boundary-sq",
            "--weights", "1/2,1/2", "--a", "1,0"),
        "boundary-sq g2 r3 d1 1/3": gen(
            "--genus", "2", "--codim", "3", "--construction", "boundary-sq",
            "--d", "1", "--weights", "1/3"),
        "fz g2 r3 1,1 S=1,2": gen(
            "--genus", "2", "--codim", "3", "--weights", "1,1",
            "--subset", "1,2"),
    }
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in payloads.items()
    }
    assert digests == GOLDEN_DIGESTS


# sha256 of the outputs of exp and log on padded Laurent rings (the Phi
# family, log A, C_1 and the (u, y) chart), recorded from the power-sum
# kernel that the graded recurrence replaced.
LAURENT_DIGESTS = {
    "logPhi t=8,x=4":
        "d358fc6571ad4d0a3e0ad90b4e15852dd940127671c5e7da0e2256f58ad08715",
    "gamma t=8,x=4":
        "fd363972def4a5f2e4913c654543262596824e36cf09155244a87df1f5e7e98b",
    "delta t=8,x=4":
        "f71702fc56265da5f80d35c2d96b56f8efb790c6fb494c0d9b34048774c7ac8a",
    "PhiPrime t=8,x=4":
        "9a054ba18a1b9f91d371a4c9d345b6a6c3dc847c34283bf0239f5d1a05fd52ac",
    "gammaPrime t=8,x=4":
        "bde7243a589a2fbb500d5b0e05c1998c221812c456766ec0317f8c7feeda05fd",
    "logA t=12":
        "998a9751053139bbf92980f9d3288100610b884920e1ad48ba7b77acf1d18bf9",
    "C1 t=10":
        "eaa5539a3b2780a891ec73fef3204d779fba0acab3b687f9108ea62dde4a07f6",
    "uy_expansion 5,12,12 c_series":
        "311fe82130d2137bd9e5f06284349cd79d911bbb2626e9c31ac115dc3e9b0fb1",
    "uy_expansion 5,12,12 delta[1]":
        "beae27c10f01df0c03ecd0ff0e6b0f8fd6da365f0b6735fff58549327b5e47e6",
    "uy_expansion 5,12,12 delta[2]":
        "2299358d8fc71ea736da4f6dbcb2e4a24b29d0a23624874ed11f92b4b97ee643",
    "uy_expansion 5,12,12 delta[3]":
        "c2ebcf061a23c1445b758c4b14b6837c1bf739b2c619663ee23cb17067a29f02",
    "uy_expansion 5,12,12 delta[4]":
        "34514c4980a9dcea9bfa076911818dfd91407a5c15505a3285ab951a82474aef",
    "uy_expansion 5,12,12 delta[5]":
        "be4017be375d12cac65e548c80bdcbe5e90a970f5b977b8aa1fab7c646ae9d6a",
}


def test_13_laurent_series_digests(monkeypatch):
    monkeypatch.delenv("TAUTRELS_CACHE", raising=False)  # build, never read

    def dump(name, orders, *extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["series", "dump", "--name", name,
                             "--orders", orders, *extra]) == 0
        return buf.getvalue().splitlines()[0]

    payloads = {
        f"{name} t=8,x=4": dump(name, "t=8,x=4")
        for name in ("logPhi", "gamma", "delta", "PhiPrime", "gammaPrime")
    }
    payloads["logA t=12"] = dump("logA", "t=12")
    payloads["C1 t=10"] = dump("C", "t=10", "--i", "1")
    uy = uy_expansion(5, 12, 12)
    payloads["uy_expansion 5,12,12 c_series"] = dumps(
        series_to_dict(uy["c_series"]))
    for i in range(1, 6):
        payloads[f"uy_expansion 5,12,12 delta[{i}]"] = dumps(
            series_to_dict(uy["delta"][i]))
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in payloads.items()
    }
    assert digests == LAURENT_DIGESTS
