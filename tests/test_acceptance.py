"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager
from math import sqrt

import pytest

from dlogwalk.bench import run_trials, summarize
from dlogwalk.cli import main
from dlogwalk.gf2m import BinaryFieldParams, gf_pow
from dlogwalk.linexpr import NoSolutionError, solve_linear
from dlogwalk.oracles import brute_force_dlog, bsgs_dlog
from dlogwalk.primefield import (PrimeGroupParams, legendre, legendre_euler,
                                 sqrt_mod_p)
from dlogwalk.selftest import CASES, replay
from dlogwalk.walk import WalkConfig, build_table_one, run_dlog

GF27 = BinaryFieldParams(7, 0x83)
GF213 = BinaryFieldParams(13, 0x201B)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_prime_example_one():
    with criterion("1 (worked example 1, p=103)"):
        params = PrimeGroupParams(103, 5)
        config = WalkConfig(choices=[1], trace=True)
        result = run_dlog(params, 84, config)
        assert result.n == 29
        trace = result.trace
        assert [rec.value for rec in trace] == [84, 58, 77]
        assert trace[0].result == 58
        assert trace[1].roots == (26, 77) and trace[1].chosen == 77
        assert trace[2].result == 36            # the Table I hit
        assert result.congruence.residue == 29
        assert result.congruence.modulus == 102
        # timing: best of five runs after a warm-up
        best = min(_timed_solve(params, config) for _ in range(5))
        assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"


def _timed_solve(params, config):
    t0 = time.perf_counter()
    result = run_dlog(params, 84, config)
    dt = time.perf_counter() - t0
    assert result.n == 29
    return dt


def test_criterion_2_prime_example_two():
    with criterion("2 (worked example 2, p=103)"):
        params = PrimeGroupParams(103, 5)
        config = WalkConfig(choices=[0, 1], trace=True)
        result = run_dlog(params, 99, config)
        chosen = [rec.chosen for rec in result.trace if rec.chosen is not None]
        assert chosen == [24, 56]               # the scripted root picks
        assert (result.congruence.residue, result.congruence.modulus,
                result.congruence.count) == (3, 34, 3)
        assert result.candidates == [3, 37, 71]
        assert result.n == 37


def test_criterion_3_gf2m_examples():
    with criterion("3 (GF(2^7) examples)"):
        for name, expected_n in (("gf2m1", 38), ("gf2m2", 41)):
            case = next(c for c in CASES if c.name == name)
            assert replay(case) is None         # row-exact against the reference tables
        r1 = run_dlog(GF27, 0x1D, WalkConfig(variant="char2",
                                             choices=[0, 1, 1, 1], trace=True))
        assert r1.n == 38
        assert [rec.result for rec in r1.trace] == [0x23, 0x50, 0x28, 0x14]
        r2 = run_dlog(GF27, 0x6B, WalkConfig(variant="char2",
                                             choices=[0, 1, 1, 0], trace=True))
        assert r2.n == 41
        assert r2.trace[-1].result == 0x6B      # self-collision with the start


def test_criterion_4_collatz_example():
    with criterion("4 (3x+1 example, p=101)"):
        params = PrimeGroupParams(101, 2)
        config = WalkConfig(variant="collatz", choices=[1, 0, 1],
                            trace=True)
        result = run_dlog(params, 72, config)
        chosen = [rec.chosen for rec in result.trace if rec.chosen is not None]
        assert chosen == [56, 37, 80]
        # final collision clears to 3n + 1 = 1024 = 24, i.e. 3n = 23 (mod 100)
        final = result.trace[-1].expr
        assert (final.A, final.B, final.k) == (3, 1, 4)
        assert (16 * 64 - final.B) % 100 == 23
        assert result.congruence.residue == 41 and result.congruence.modulus == 100
        assert result.n == 41


def test_criterion_5_oracle_equivalence():
    with criterion("5 (oracle equivalence over five primes)"):
        t0 = time.perf_counter()
        rng = random.Random(12345)
        plan = [(103, 5, None), (101, 2, None), (499, 7, None),
                (1009, 11, 500), (2003, 5, 500)]
        for p, a, sample in plan:
            params = PrimeGroupParams(p, a)
            if sample is None:
                targets = range(1, p)
            else:
                targets = [rng.randrange(1, p) for _ in range(sample)]
            table = build_table_one(params)
            for target in targets:
                result = run_dlog(params, target,
                                  WalkConfig(seed=rng.getrandbits(32)),
                                  table=table)
                assert result.success, (p, target)
                assert result.restarts <= 32
                assert result.n == brute_force_dlog(params, target).n % (p - 1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f} s"
        print(f"\n  criterion 5 runtime: {elapsed:.1f} s")


def test_criterion_6a_sqrt_roundtrip():
    with criterion("6a (square-root roundtrip, 1000 residues x 4 primes)"):
        for p, a in ((103, 5), (101, 2), (10007, 5), (100003, 2)):
            params = PrimeGroupParams(p, a)
            rng = random.Random(p)
            for _ in range(1000):
                x = rng.randrange(1, p)
                x = x * x % p
                lo, hi, _ = sqrt_mod_p(x, params)
                assert lo * lo % p == x and hi * hi % p == x
                assert lo + hi == p and lo < hi


def test_criterion_6b_jacobi_equals_euler():
    with criterion("6b (Jacobi = Euler, 1000 inputs x 4 primes)"):
        for p, a in ((103, 5), (101, 2), (10007, 5), (100003, 2)):
            params = PrimeGroupParams(p, a)
            rng = random.Random(p + 1)
            for _ in range(1000):
                x = rng.randrange(1, p)
                assert legendre(x, params) == legendre_euler(x, params)


def test_criterion_6c_gf27_exhaustive():
    with criterion("6c (GF(2^7) exhaustive field checks)"):
        from dlogwalk.gf2m import GENERATOR, gf_div_by_x, gf_mul, gf_sqrt
        elements = range(1, 128)
        for u in elements:
            r = gf_sqrt(u, GF27)
            assert gf_mul(r, r, GF27) == u
            assert gf_sqrt(gf_mul(u, u, GF27), GF27) == u
            assert gf_mul(GENERATOR, gf_div_by_x(u, GF27), GF27) == u
            assert gf_mul(u, gf_pow(u, 126, GF27), GF27) == 1
        rng = random.Random(6)
        for _ in range(1000):
            u, v, w = (rng.randrange(128) for _ in range(3))
            assert gf_mul(u, v, GF27) == gf_mul(v, u, GF27)
            assert gf_mul(gf_mul(u, v, GF27), w, GF27) == \
                gf_mul(u, gf_mul(v, w, GF27), GF27)
            assert gf_mul(u, v ^ w, GF27) == gf_mul(u, v, GF27) ^ gf_mul(u, w, GF27)


def test_criterion_6d_solve_linear_vs_scan():
    with criterion("6d (linear congruences vs brute-force scan)"):
        rng = random.Random(64)
        for order in range(1, 501):
            # full rhs grid for small moduli, sampled rhs above
            full = order <= 60
            for coef in range(order):
                buckets = {}
                v = 0
                for n in range(order):
                    buckets.setdefault(v, []).append(n)
                    v += coef
                    if v >= order:
                        v -= order
                if full:
                    rhs_values = range(order)
                else:
                    rhs_values = {0, 1, order - 1, rng.randrange(order),
                                  coef * rng.randrange(order) % order}
                for rhs in rhs_values:
                    expected = buckets.get(rhs, [])
                    if not expected:
                        with pytest.raises(NoSolutionError):
                            solve_linear(coef, rhs, order)
                        continue
                    sol = solve_linear(coef, rhs, order)
                    got = sorted((sol.residue + t * sol.modulus) % order
                                 for t in range(sol.count))
                    assert got == expected


def test_criterion_7_sqrt_scaling():
    with criterion("7 (step counts scale like sqrt(p))"):
        t0 = time.perf_counter()
        means = {}
        for p, a in ((1009, 11), (10007, 5), (100003, 2)):
            params = PrimeGroupParams(p, a)
            records = run_trials(params, WalkConfig(), 200,
                                 seed_base=20_000 + p)
            stats = summarize(records, params.order)
            assert stats.success_rate >= 0.95, (p, stats.success_rate)
            means[p] = stats.mean_steps
        ratio = means[100003] / means[1009]
        assert 2.5 <= ratio <= 40, f"ratio {ratio:.2f} outside band"
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"took {elapsed:.1f} s"
        print(f"\n  mean steps: {means}  ratio: {ratio:.2f}"
              f"  sqrt-law prediction: {sqrt(100003 / 1009):.2f}"
              f"  runtime: {elapsed:.1f} s")


def test_criterion_8_bench_csv_determinism(tmp_path):
    with criterion("8 (bench CSV byte-identical across runs)"):
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for path in paths:
            code = main(["bench", "--p", "1009", "--gen", "11",
                         "--variant", "inverse", "--trials", "100",
                         "--seed", "42", "--csv", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_criterion_9_char2_randomized():
    with criterion("9 (200 random GF(2^13) targets vs BSGS)"):
        t0 = time.perf_counter()
        rng = random.Random(8191)
        table = build_table_one(GF213)
        for i in range(200):
            n = rng.randrange(1, 8191)
            target = gf_pow(0b10, n, GF213)
            result = run_dlog(GF213, target,
                              WalkConfig(variant="char2", seed=rng.getrandbits(32)),
                              table=table)
            assert result.success
            assert result.n == n
            assert bsgs_dlog(GF213, target).n == n
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"took {elapsed:.1f} s"
        print(f"\n  criterion 9 runtime: {elapsed:.1f} s")
