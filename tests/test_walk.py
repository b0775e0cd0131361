import hashlib
import math
import random

import pytest

from dlogwalk import walk
from dlogwalk.gf2m import GENERATOR, BinaryFieldParams, gf_mul
from dlogwalk.primefield import (PrimeGroupParams, legendre_euler, sqrt_mod_p,
                                 sylow_log)
from dlogwalk.selftest import CASES, replay
from dlogwalk.linexpr import CongruenceSolution, LinExpr, collision_solve
from dlogwalk.oracles import bsgs_dlog
from dlogwalk.walk import (DecisionsExhaustedError, UnsupportedGroupError,
                           WalkConfig, _Walk, build_table_one,
                           default_max_steps, run_dlog)

P103 = PrimeGroupParams(103, 5)
P101 = PrimeGroupParams(101, 2)
P2003 = PrimeGroupParams(2003, 5)
P257 = PrimeGroupParams(257, 3)     # 256 = 2^8: 2-Sylow logs of 8 bits
P7340033 = PrimeGroupParams(7340033, 3)  # 7 * 2^20: logs of 20 bits
P16776899 = PrimeGroupParams(16776899, 2)  # 2 * 8388449: a safe prime
GF27 = BinaryFieldParams(7, 0x83)
GF213 = BinaryFieldParams(13, 0x201B)
GF219 = BinaryFieldParams(19, 0x80027)


def dlog_table(mul, order):
    """True discrete log of every group element, by accumulation."""
    table = {}
    acc = 1
    for e in range(order):
        table[acc] = e
        acc = mul(acc)
    return table

PRIME_DLOGS = dlog_table(lambda v: v * 5 % 103, 102)
GF_DLOGS = dlog_table(lambda v: gf_mul(v, GENERATOR, GF27), 127)


# -- Table I -------------------------------------------------------------

def test_table_one_known_values_prime():
    table = build_table_one(P103)
    assert table == {5: 1, 25: 2, 7: 4, 49: 8, 32: 16, 97: 32, 36: 64}
    # perfbench/ passes each variant's WalkConfig, which is not read
    assert build_table_one(P103, WalkConfig(variant="collatz")) == table


def test_table_one_known_values_gf2m():
    table = build_table_one(GF27)
    assert table[0x14] == 16
    assert table == {0x02: 1, 0x04: 2, 0x10: 4, 0x06: 8,
                     0x14: 16, 0x16: 32, 0x12: 64}


# -- config validation ----------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(variant="pollard")
    with pytest.raises(ValueError):
        WalkConfig(seed=1, choices=[0, 1])
    with pytest.raises(ValueError):
        WalkConfig(max_steps=0)
    with pytest.raises(ValueError):
        WalkConfig(max_restarts=-4)
    with pytest.raises(ValueError):
        WalkConfig(d_max=0)
    with pytest.raises(ValueError):
        WalkConfig(choices=[0, 2])


def test_variant_params_mismatch():
    # the group names the variants it runs; 3x+1 only where cubing is a
    # bijection, gcd(3, p - 1) = 1
    assert P103.variants == ("inverse",)  # 3 | 102
    assert P101.variants == ("inverse", "collatz")
    with pytest.raises(UnsupportedGroupError):
        run_dlog(GF27, 5, WalkConfig(variant="inverse"))
    with pytest.raises(UnsupportedGroupError):
        run_dlog(P103, 5, WalkConfig(variant="char2"))


def test_collatz_requires_order_coprime_to_three():
    with pytest.raises(UnsupportedGroupError):
        run_dlog(P103, 84, WalkConfig(variant="collatz"))  # 3 | 102


def test_target_must_be_nonzero():
    with pytest.raises(ValueError):
        run_dlog(P103, 0)
    with pytest.raises(ValueError):
        run_dlog(GF27, 0, WalkConfig(variant="char2"))


def test_walk_starts_from_reduced_target():
    # 187 = 84 + 103: the same element, so the same walk from the same value
    reduced = run_dlog(P103, 84, WalkConfig(seed=1, trace=True))
    unreduced = run_dlog(P103, 187, WalkConfig(seed=1, trace=True))
    assert unreduced.trace[0].value == 84
    assert unreduced.trace == reduced.trace
    assert (unreduced.n, unreduced.steps_taken) == (reduced.n, reduced.steps_taken)


# -- worked-example replays ------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_worked_examples_replay_exactly(case):
    assert replay(case) is None


def test_replay_detects_corruption(monkeypatch):
    import dlogwalk.walk as walk_mod
    real = walk_mod.build_table_one

    def corrupt(params, config=None):
        return {v: k + 1 for v, k in real(params, config).items()}

    monkeypatch.setattr(walk_mod, "build_table_one", corrupt)
    # k + 1 fails the candidate check, so the walk runs past its script;
    # a TypeError from the patched call would abort with another message
    assert replay(CASES[0]) == \
        "walk aborted: scripted choices exhausted after 1 decisions"


_BY_NAME = {case.name: case for case in CASES}


@pytest.mark.parametrize("name,changes,message", [
    ("gf2m1", lambda c: {"rows": c.rows + c.rows[-1:]},
     "row 5: walk ended early (expected value 0x28)"),
    ("prime1", lambda c: {"rows": c.rows[:2]}, "walk took 3 rows, expected 2"),
    ("prime1", lambda c: {"rows": c.rows[:2] + ((77, "div", 37, None, None,
                                                   None, (1, -3, 1)),)},
     "row 3: expected (77, 'div', 37, None, None, None, (1, -3, 1)),"
     " got (77, 'div', 36, None, None, None, (1, -3, 1))"),
    ("prime2", lambda c: {"congruence": CongruenceSolution(3, 34, 1)},
     "congruence CongruenceSolution(residue=3, modulus=34, count=3),"
     " expected CongruenceSolution(residue=3, modulus=34, count=1)"),
    ("prime2", lambda c: {"candidates": (3, 37)},
     "candidates [3, 37, 71], expected [3, 37]"),
    ("collatz", lambda c: {"n": 40}, "n = 41, expected 40"),
    # GF(2^m) elements print in hex, as the CLI prints them
    ("gf2m1", lambda c: {"rows": ((0x1D, "sqrt", 0x24, None, None, 0,
                                   (1, 0, 1)),) + c.rows[1:]},
     "row 1: expected (0x1d, 'sqrt', 0x24, None, None, 0, (1, 0, 1)),"
     " got (0x1d, 'sqrt', 0x23, None, None, 0, (1, 0, 1))"),
], ids=["extra-row", "dropped-row", "altered-row", "congruence", "candidates",
        "n", "altered-row-gf2m"])
def test_replay_names_each_divergence(name, changes, message):
    case = _BY_NAME[name]
    assert replay(case._replace(**changes(case))) == message


# -- solving behaviour -----------------------------------------------------

def test_immediate_table_hit():
    result = run_dlog(P103, 5, WalkConfig())
    assert result.n == 1
    assert result.steps_taken == 0
    # the target is the first segment's start: a Table I entry g^k there
    # is one collision, n + 0 = k, with the single candidate k mod N
    for params, variant in ((P103, "inverse"), (P257, "collatz"),
                            (GF27, "char2")):
        order = params.order
        config = WalkConfig(variant=variant, seed=0)
        for v, k in build_table_one(params).items():
            result = run_dlog(params, v, config)
            n = k % order
            assert (result.n, result.congruence, result.candidates) == \
                (n, CongruenceSolution(n, order, 1), [n])
            assert _counts(result) == (n, 0, 0, 1, 1)


def test_target_one_resolves_to_zero():
    for params, variant in ((P103, "inverse"), (GF27, "char2")):
        result = run_dlog(params, 1, WalkConfig(variant=variant, seed=3))
        assert result.n == 0


def test_char2_self_collision_at_one():
    # sqrt(1) = 1 collides with the stored start immediately
    result = run_dlog(GF27, 1, WalkConfig(variant="char2", choices=[0], trace=True))
    assert result.n == 0
    assert result.trace[0].result == 1


@pytest.mark.parametrize("params,variant,target", [
    (GF213, "char2", 0x1234),
    (P2003, "inverse", 777),
    (P2003, "collatz", 777),
    (P7340033, "inverse", 777),
])
def test_seeded_decisions_are_getrandbits_in_order(params, variant, target):
    # one PRNG bit per decision, drawn as Random(seed).getrandbits(1), so a
    # seed names the same walk whatever draws it; a restart draws its j from
    # the same PRNG, so the first segment's rows are compared
    for seed in range(5):
        result = run_dlog(params, target, WalkConfig(variant=variant, seed=seed,
                                                     trace=True))
        rows = [rec for rec in result.trace if rec.segment == 0]
        if variant == "char2":  # every step is a decision
            assert all(rec.decision is not None for rec in rows)
        else:  # a root step's, unless its roots collided first
            assert all(rec.decision is None for rec in rows
                       if rec.branch != "sqrt")
        decisions = [rec.decision for rec in rows if rec.decision is not None]
        assert len(decisions) >= 10
        rng = random.Random(seed)
        assert decisions == [rng.getrandbits(1) for _ in decisions]


def test_scripted_exhaustion_raises():
    with pytest.raises(DecisionsExhaustedError):
        run_dlog(P103, 99, WalkConfig(choices=[0]))
    # gf2m1 needs four decisions; the message counts the scripted ones
    with pytest.raises(DecisionsExhaustedError,
                       match="^scripted choices exhausted after 3 decisions$"):
        run_dlog(GF27, 0x1D, WalkConfig(variant="char2",
                                        choices=[0, 1, 1]))


def test_determinism_full_result():
    for seed in (0, 7, 123):
        runs = [run_dlog(P2003, 1234, WalkConfig(seed=seed, trace=True))
                for _ in range(2)]
        a, b = runs
        assert (a.n, a.steps_taken, a.restarts, a.collisions_tested,
                a.candidates_tried) == \
               (b.n, b.steps_taken, b.restarts, b.collisions_tested,
                b.candidates_tried)
        assert a.trace == b.trace


def test_seeds_change_walks():
    traces = {run_dlog(P2003, 1234, WalkConfig(seed=s)).steps_taken
              for s in range(12)}
    assert len(traces) > 1


def test_default_budget():
    assert default_max_steps(102) == 202   # ceil(20 * sqrt(102))
    assert default_max_steps(10000) == 2000


@pytest.mark.parametrize("params,variant,dlogs", [
    (P103, "inverse", PRIME_DLOGS),
    (P101, "collatz", None),
    (GF27, "char2", GF_DLOGS),
])
def test_solves_verify_against_truth(params, variant, dlogs):
    order = params.order
    rng = random.Random(order)
    if variant == "collatz":
        dlogs = dlog_table(lambda v: v * 2 % 101, 100)
    inverse = {e: v for v, e in dlogs.items()}
    for i in range(60):
        n = rng.randrange(order)
        target = inverse[n]
        result = run_dlog(params, target, WalkConfig(variant=variant, seed=i))
        assert result.success
        assert result.n == n


@pytest.mark.parametrize("params,variant,dlogs,order_half_shift", [
    (P103, "inverse", PRIME_DLOGS, True),
    (P101, "collatz", None, True),
    (GF27, "char2", GF_DLOGS, False),
])
def test_exponent_tracking_soundness(params, variant, dlogs, order_half_shift):
    """At every step 2^k * dlog(value) = A*n + B (mod N), for either root."""
    order = params.order
    if variant == "collatz":
        dlogs = dlog_table(lambda v: v * 2 % 101, 100)
    inverse = {e: v for v, e in dlogs.items()}
    rng = random.Random(3 * order)
    for i in range(40):
        n = rng.randrange(order)
        target = inverse[n]
        # small budgets force restart segments through the same invariant
        config = WalkConfig(variant=variant, seed=i, trace=True,
                            max_steps=12 if i % 3 == 0 else None)
        result = run_dlog(params, target, config)
        for rec in result.trace:
            values = [rec.result] if rec.roots is None else list(rec.roots)
            for v in values:
                lhs = (1 << rec.expr.k) * dlogs[v] % order
                assert lhs == (rec.expr.A * n + rec.expr.B) % order
        if result.success:
            assert result.n == n


def test_first_branch_matches_parity_for_p_3_mod_4():
    inverse = {e: v for v, e in PRIME_DLOGS.items()}
    for n in range(1, 102):
        result = run_dlog(P103, inverse[n], WalkConfig(seed=1, trace=True),
                          table={})
        first = result.trace[0]
        assert (first.branch == "div") == (n % 2 == 1)


@pytest.mark.parametrize("params,variant", [
    (P103, "inverse"), (P101, "inverse"), (P101, "collatz"),
    (P257, "inverse"), (P257, "collatz"),
])
def test_fallback_follows_a_non_residue_root(params, variant):
    # the walk knows every value's quadratic character, a segment's first
    # value included: a step takes a root exactly when its value is a
    # residue, and divides or cubes after a non-residue root
    rng = random.Random(params.p)
    fallbacks = starts = 0
    for seed in range(60):
        target = rng.randrange(1, params.p)
        trace = run_dlog(params, target, WalkConfig(
            variant=variant, seed=seed, max_steps=12, trace=True)).trace
        for prev, rec in zip([None] + trace, trace):
            non_residue = legendre_euler(rec.value, params) == -1
            assert (rec.branch != "sqrt") == non_residue
            if prev is None or prev.segment != rec.segment:
                starts += non_residue
            elif prev.branch == "sqrt":
                fallbacks += non_residue
    assert fallbacks > 50
    assert starts > 10


@pytest.mark.parametrize("params,variant", [
    (P103, "inverse"), (P101, "collatz"), (P257, "inverse"), (P257, "collatz"),
    (P7340033, "inverse"), (P7340033, "collatz"),
])
def test_roots_are_given_the_log_found_once_per_solve(
        params, variant, monkeypatch):
    # the walk searches for the 2-Sylow log once, on the target, and a
    # segment that restarts at target * g^j starts from it; every root step
    # is given its value's true log (x^s = c^e)
    roots, searches = [], []

    def spy_sqrt(x, params, e):
        assert pow(x, params.s, params.p) == pow(params.c, e, params.p)
        roots.append(x)
        return sqrt_mod_p(x, params, e)

    def spy_log(x, params):
        searches.append(x)
        return sylow_log(x, params)

    monkeypatch.setattr(walk, "sqrt_mod_p", spy_sqrt)
    monkeypatch.setattr(walk, "sylow_log", spy_log)
    rng = random.Random(params.p)
    restarts = 0
    for seed in range(40):
        roots.clear()
        searches.clear()
        target = rng.randrange(1, params.p)
        result = run_dlog(params, target, WalkConfig(
            variant=variant, seed=seed, max_steps=12, trace=True))
        assert searches == [target]
        assert roots == [rec.value for rec in result.trace
                         if rec.branch == "sqrt"]
        restarts += result.restarts
    assert restarts > 5


def test_restart_statistics_and_budget_invariant():
    solved_after_restart = 0
    for seed in range(30):
        config = WalkConfig(seed=seed, max_steps=8, max_restarts=16)
        result = run_dlog(P2003, 777, config)
        assert result.steps_taken <= 8 * (result.restarts + 1)
        assert result.restarts <= 16
        if result.success:
            assert pow(5, result.n, 2003) == 777
            if result.restarts:
                solved_after_restart += 1
    assert solved_after_restart > 0  # restart policy does recover walks


def test_failure_reports_statistics():
    result = run_dlog(P2003, 777, WalkConfig(seed=0, max_steps=1, max_restarts=2))
    assert not result.success
    assert result.n is None
    assert result.restarts == 2
    assert result.steps_taken >= 1


# (n, steps_taken, restarts, collisions_tested, candidates_tried) for seeds
# 0-9 with max_steps=8, max_restarts=16.  Every segment after the first
# starts at target * g^j and the history is kept, so every row solves; a
# start already in the history is a collision (inverse seeds 1, 6 and 7,
# collatz 2, 6 and 9, char2 6 here, and P257 inverse 7 and collatz 5).
GOLDEN_SHORT_SEGMENTS = {
    "inverse": [(1098, 72, 8, 1, 1), (1098, 16, 2, 1, 1), (1098, 45, 5, 1, 1),
                (1098, 24, 2, 1, 1), (1098, 28, 3, 1, 1), (1098, 10, 1, 1, 1),
                (1098, 84, 10, 4, 1), (1098, 32, 4, 1, 1), (1098, 20, 2, 1, 1),
                (1098, 39, 4, 1, 1)],
    "collatz": [(1098, 35, 4, 1, 1), (1098, 17, 2, 1, 8), (1098, 72, 9, 1, 1),
                (1098, 21, 2, 1, 1), (1098, 22, 2, 1, 1), (1098, 30, 3, 1, 1),
                (1098, 21, 2, 4, 2), (1098, 14, 1, 1, 1), (1098, 62, 7, 1, 1),
                (1098, 48, 6, 1, 4)],
    "char2": [(38, 17, 2, 1, 1), (38, 4, 0, 1, 1), (38, 7, 0, 1, 1), (38, 8, 0, 1, 1),
              (38, 31, 3, 4, 1), (38, 9, 1, 1, 1), (38, 25, 3, 2, 1),
              (38, 14, 1, 1, 1), (38, 7, 0, 1, 1), (38, 7, 0, 1, 1)],
}
# The same rows on P257 (r = 8, target 100 = 3^206), where every root step
# runs the table-driven Tonelli-Shanks.
GOLDEN_SHORT_SEGMENTS_P257 = {
    "inverse": [(206, 11, 1, 1, 1), (206, 10, 1, 1, 1), (206, 24, 2, 1, 1),
                (206, 13, 1, 1, 1), (206, 18, 2, 2, 1), (206, 20, 2, 1, 1),
                (206, 15, 1, 1, 1), (206, 24, 3, 1, 1), (206, 9, 1, 1, 1),
                (206, 9, 1, 1, 1)],
    "collatz": [(206, 26, 3, 1, 1), (206, 16, 1, 1, 1), (206, 24, 2, 1, 1),
                (206, 13, 1, 1, 1), (206, 13, 1, 1, 2), (206, 8, 1, 1, 1),
                (206, 28, 3, 4, 1), (206, 35, 4, 2, 1), (206, 15, 1, 1, 1),
                (206, 29, 3, 1, 1)],
}
GOLDEN_BENCH_CSV_SHA256 = (
    "4178afb3827719525082c794e7ac744993a16a45a80d15df2cdd07f9e50afa09")
# Long char2 segments on GF(2^13), where t = 2^k mod N wraps many times and
# B passes -N: seeds 0-19 at the default budget for target 0x1234, and the
# bench CSV of 200 trials with max_steps=60, which restart.
GOLDEN_LONG_CHAR2 = [
    (1507, 212, 0, 1, 1), (1507, 219, 0, 1, 1), (1507, 35, 0, 1, 1),
    (1507, 35, 0, 1, 1), (1507, 143, 0, 1, 1), (1507, 161, 0, 1, 1),
    (1507, 161, 0, 1, 1), (1507, 66, 0, 1, 1), (1507, 282, 0, 1, 1),
    (1507, 115, 0, 1, 1), (1507, 468, 0, 5, 1), (1507, 212, 0, 1, 1),
    (1507, 45, 0, 1, 1), (1507, 146, 0, 1, 1), (1507, 181, 0, 1, 1),
    (1507, 231, 0, 1, 1), (1507, 251, 0, 1, 1), (1507, 236, 0, 1, 1),
    (1507, 171, 0, 1, 1), (1507, 227, 0, 1, 1)]
GOLDEN_CHAR2_BENCH_CSV_SHA256 = (
    "b83fd684926ffe0141524256f97ecc9e764dcc4ceb882845aeebf9a16b0403f9")


def _counts(result):
    return (result.n, result.steps_taken, result.restarts,
            result.collisions_tested, result.candidates_tried)


def _short_segment_counts(params, target, variant):
    return [_counts(run_dlog(params, target, WalkConfig(
        variant=variant, seed=seed, max_steps=8, max_restarts=16)))
        for seed in range(10)]


@pytest.mark.parametrize("variant", sorted(GOLDEN_SHORT_SEGMENTS))
def test_golden_step_counts(variant):
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    assert _short_segment_counts(params, target, variant) == \
        GOLDEN_SHORT_SEGMENTS[variant]


@pytest.mark.parametrize("variant", sorted(GOLDEN_SHORT_SEGMENTS_P257))
def test_golden_step_counts_deep_r(variant):
    assert _short_segment_counts(P257, 100, variant) == \
        GOLDEN_SHORT_SEGMENTS_P257[variant]


# the first op of a segment: what its first trace row applied to the start,
# whose k = 0 gives t = 2^0 = 1
_BRANCH_OPS = {"div": lambda e, order: e.dec(1, order),
               "cube": lambda e, order: e.triple_plus_one(1, order),
               "sqrt": lambda e, order: e.halve()}


def _check_restart_starts(params, target, variant):
    """Every segment starts at target * g^j with exponent n + j, for j = 0
    in the first and the j its restart drew in each later one, the start is
    in the history, and the first row is one op from n + j; a last segment
    whose start was stored before solves there and has no row.  Returns
    the number of later starts."""
    starts = 0
    for seed in range(10):
        w = _Walk(params, target, WalkConfig(
            variant=variant, seed=seed, max_steps=8, max_restarts=16,
            trace=True), None)
        draws = []
        randrange = w.rng.randrange
        w.rng.randrange = lambda order: draws.append(randrange(order)) or draws[-1]
        result = w.run()
        trace = result.trace
        firsts = [rec for prev, rec in zip([None] + trace, trace)
                  if prev is None or rec.segment != prev.segment]
        if len(firsts) == len(draws):
            j = draws[-1]
            start = params.mul(target, params.pow(params.generator, j))
            assert result.success and trace[-1].segment == len(draws) - 1
            assert w.seen[start] != (1, j, 0)  # stored before
        else:
            assert len(firsts) == len(draws) + 1
        for segment, (j, rec) in enumerate(zip([0] + draws, firsts)):
            assert rec.segment == segment
            assert rec.value == params.mul(target, params.pow(params.generator, j))
            assert rec.value in w.seen
            assert rec.expr == _BRANCH_OPS[rec.branch](LinExpr(1, j, 0),
                                                       params.order)
        # the target (in no Table I here) is stored as n
        assert type(w.seen[target]) is tuple and w.seen[target] == (1, 0, 0)
        starts += len(draws)
    return starts


@pytest.mark.parametrize("variant", sorted(GOLDEN_SHORT_SEGMENTS))
def test_restart_starts_at_target_times_g_power(variant):
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    assert _check_restart_starts(params, target, variant) >= 10


@pytest.mark.parametrize("variant", sorted(GOLDEN_SHORT_SEGMENTS_P257))
def test_restart_starts_at_target_times_g_power_deep_r(variant):
    assert _check_restart_starts(P257, 100, variant) >= 10


@pytest.mark.parametrize("variant", ["inverse", "collatz", "char2"])
def test_history_survives_restarts(variant):
    # a restart keeps every value stored before it, and the target keeps
    # the exponent n it was stored with, (1, 0, 0)
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    earlier = 0
    for seed in range(10):
        w = _Walk(params, target, WalkConfig(
            variant=variant, seed=seed, max_steps=8, max_restarts=16,
            trace=True), None)
        result = w.run()
        for rec in result.trace:
            if rec.segment < w.restarts:
                for v in [rec.result] if rec.roots is None else rec.roots:
                    assert v in w.seen
                    earlier += 1
        assert type(w.seen[w.target]) is tuple
        assert w.seen[w.target] == (1, 0, 0)
    assert earlier > 50


@pytest.mark.parametrize("variant", ["inverse", "collatz", "char2"])
def test_table_one_seeds_the_history(variant):
    # the history is the one collision store: it starts with every Table I
    # entry g^k as the plain tuple (0, k mod N, 0), and no step or restart
    # overwrites one; the shared table itself is only read
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    table = build_table_one(params)
    before = dict(table)
    reached = 0
    for seed in range(10):
        w = _Walk(params, target, WalkConfig(
            variant=variant, seed=seed, max_steps=8, max_restarts=16,
            trace=True), table)
        for rec in w.run().trace:
            values = [rec.result] if rec.roots is None else rec.roots
            reached += any(v in table for v in values)
        for v, k in table.items():
            known = w.seen[v]
            assert type(known) is tuple and known == (0, k % params.order, 0)
    assert table == before
    assert reached > 0  # some steps land on Table I entries


@pytest.mark.parametrize("params,variant", [
    (P16776899, "inverse"), (P16776899, "collatz"), (GF219, "char2"),
    (P257, "inverse"),  # Table I's last entry g^(2^8) has exponent N = 256
])
def test_history_exponents_stay_within_the_order(params, variant):
    # unreduced, a division lowers B by 2^k and every root raises k, so
    # after t steps B has about 2t/3 bits; kept inside (-N, N), every stored
    # A and B has at most N's bits however long the walk.  A collatz
    # segment never subtracts, so its A and B stay inside [0, N); char2
    # divides and roots as the inverse walk does
    order = params.order
    steps = 0
    for seed in range(1, 4):
        n = random.Random(seed).randrange(order)
        w = _Walk(params, params.pow(params.generator, n),
                  WalkConfig(variant=variant, seed=seed), None)
        result = w.run()
        assert result.n == n
        steps += result.steps_taken
        assert max(max(abs(A).bit_length(), abs(B).bit_length())
                   for A, B, _ in w.seen.values()) <= order.bit_length()
        assert all(-order < A < order and -order < B < order
                   for A, B, _ in w.seen.values())
        if variant == "collatz":
            assert all(0 <= A < order and 0 <= B < order
                       for A, B, _ in w.seen.values())
        if variant == "char2":  # v^(2^k) = g^(A*n + B), 2^k taken mod N
            g = params.generator
            for v, (A, B, k) in w.seen.items():
                assert params.pow(v, pow(2, k, order)) == \
                    params.pow(g, (A * n + B) % order)
    assert steps > math.isqrt(order)


@pytest.mark.parametrize("variant", ["inverse", "collatz", "char2"])
def test_stored_restart_start_solves_without_a_step(variant):
    # a restart drawing j whose start target * g^j the first segment
    # already reached collides there: the answer comes before any step of
    # the second segment
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    order = params.order
    n = bsgs_dlog(params, target).n
    config = WalkConfig(variant=variant, seed=0, max_steps=4,
                        max_restarts=1, trace=True)
    first = run_dlog(params, target, config.replace(max_restarts=0))
    assert not first.success
    # a value reached after a root, whose exponent is not n + j for any j
    rec = [rec for rec in first.trace if rec.expr.k > 0][-1]
    reached = rec.result if rec.roots is None else rec.roots[0]
    j = (bsgs_dlog(params, reached).n - n) % order
    w = _Walk(params, target, config, None)
    w.rng.randrange = lambda _: j
    result = w.run()
    assert result.n == n
    assert (result.steps_taken, result.restarts) == (4, 1)
    assert result.collisions_tested == first.collisions_tested + 1
    assert result.trace == first.trace


def _solving_ops(params, variant, seed):
    """Solve a seeded instance; return the op that reached the solving
    collision's value and the op that stored it: "div", "cube", "sqrt",
    "start" (a segment start) or "table" (Table I)."""
    n = random.Random(seed).randrange(params.order)
    w = _Walk(params, params.pow(params.generator, n),
              WalkConfig(variant=variant, seed=seed, trace=True), None)
    origin = dict.fromkeys(w.seen, "table")
    hits = []
    attempt = w._attempt
    w._attempt = lambda v, expr, steps: hits.append((v, expr)) or \
        attempt(v, expr, steps)
    result = w.run()
    assert result.n == n
    # replay the stores in walk order: a value keeps its first op
    for prev, rec in zip([None] + result.trace, result.trace):
        if prev is None or rec.segment != prev.segment:
            origin.setdefault(rec.value, "start")
        for v in [rec.result] if rec.roots is None else rec.roots:
            origin.setdefault(v, rec.branch)
    assert set(w.seen) <= set(origin)
    # the solving collision: the last hit, whose congruence is the result's
    v, expr = hits[-1]
    assert collision_solve(LinExpr(*expr), LinExpr(*w.seen[v]),
                           params.order) == result.congruence
    last = result.trace[-1] if result.trace else None
    op = last.branch if last and last.segment == w.restarts else "start"
    return op, origin[v]


@pytest.mark.parametrize("params,variant", [
    (P2003, "inverse"), (P2003, "collatz"), (P257, "inverse"),
    (P257, "collatz"), (GF27, "char2"), (GF213, "char2"),
])
def test_solving_collisions_pair_different_ops(params, variant):
    # every step is injective once its op is chosen, so a value can meet
    # one stored by the same op only one step after their inputs met, with
    # the same congruence: a collision that solves pairs different ops
    fallback = {"inverse": "div", "collatz": "cube", "char2": "div"}[variant]
    pairs = [_solving_ops(params, variant, seed) for seed in range(200)]
    assert all(op != stored for op, stored in pairs)
    assert ("sqrt", fallback) in pairs and (fallback, "sqrt") in pairs


def test_golden_too_many_candidates_skipped():
    # d_max=1 makes every collision with two or more candidates one the
    # walk passes by without a restart; a later one with a single
    # candidate solves
    assert _counts(run_dlog(P2003, 777, WalkConfig(seed=0, d_max=1))) == \
        (1098, 88, 0, 7, 1)


def test_too_many_candidates_do_not_end_the_segment():
    # a too-many collision tells no more than a spurious one: with no
    # restart to spend, the walk still goes on within its step budget
    result = run_dlog(P2003, 777, WalkConfig(seed=0, d_max=1, max_restarts=0))
    assert result.n == 1098
    assert result.restarts == 0
    assert result.steps_taken < default_max_steps(P2003.order)


def test_golden_bench_csv():
    from dlogwalk.bench import records_to_csv, run_trials
    csv_text = records_to_csv(run_trials(P2003, WalkConfig(), 50, seed_base=9))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == GOLDEN_BENCH_CSV_SHA256


def test_golden_long_char2_segments():
    from dlogwalk.bench import records_to_csv, run_trials
    assert [_counts(run_dlog(GF213, 0x1234, WalkConfig(variant="char2",
                                                       seed=seed)))
            for seed in range(20)] == GOLDEN_LONG_CHAR2
    csv_text = records_to_csv(run_trials(
        GF213, WalkConfig(variant="char2", max_steps=60), 200, seed_base=5))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == \
        GOLDEN_CHAR2_BENCH_CSV_SHA256


def test_d_max_skips_collisions_but_still_solves():
    result = run_dlog(P2003, 777, WalkConfig(seed=2, d_max=1))
    assert result.success
    assert pow(5, result.n, 2003) == 777


def test_exhaustive_small_groups():
    for target in range(1, 103):
        result = run_dlog(P103, target, WalkConfig(seed=target))
        assert result.success and PRIME_DLOGS[target] == result.n
    for target in range(1, 128):
        result = run_dlog(GF27, target, WalkConfig(variant="char2", seed=target))
        assert result.success and GF_DLOGS[target] == result.n


def test_shared_table_across_runs():
    table = build_table_one(P2003)
    before = dict(table)
    for seed in range(10):
        result = run_dlog(P2003, 1500, WalkConfig(seed=seed), table=table)
        assert result.success
    assert table == before  # engine only reads Table I


@pytest.mark.parametrize("variant", ["inverse", "char2"])
def test_finished_walk_is_freed_without_gc(variant):
    # a walk in a reference cycle keeps its whole history alive until a full
    # collection; over many solves that shows up as peak memory
    import gc
    import weakref
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    gc.disable()
    try:
        walk = _Walk(params, target, WalkConfig(variant=variant, seed=0), None)
        assert walk.run().success
        ref = weakref.ref(walk)
        del walk
        assert ref() is None
    finally:
        gc.enable()


def test_trace_disabled_by_default():
    assert run_dlog(P103, 84, WalkConfig(seed=0)).trace is None


@pytest.mark.parametrize("variant", ["inverse", "collatz", "char2"])
def test_trace_does_not_change_the_walk(variant):
    # short segments force restarts, and d_max=1 walks past collisions
    # with too many candidates; each row must walk alike with the trace on
    # or off
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    restarted = 0
    for seed in range(10):
        for d_max in (65536, 1):
            config = WalkConfig(variant=variant, seed=seed, max_steps=8,
                                max_restarts=16, d_max=d_max)
            plain = run_dlog(params, target, config)
            traced = run_dlog(params, target, config.replace(trace=True))
            assert _counts(traced) == _counts(plain)
            assert len(traced.trace) == traced.steps_taken
            assert [r.index for r in traced.trace] == \
                list(range(1, traced.steps_taken + 1))
            restarted += plain.restarts > 0
    assert restarted >= 10


def test_scripted_config_is_reusable():
    config = WalkConfig(choices=[0, 1])
    assert run_dlog(P103, 99, config).n == 37
    assert run_dlog(P103, 99, config).n == 37  # choices not consumed in place


def test_scale_mersenne_prime():
    p = 2**31 - 1
    params = PrimeGroupParams(p, 7, factors_of_order=(2, 3, 7, 11, 31, 151, 331))
    n_true = 987654321
    result = run_dlog(params, pow(7, n_true, p), WalkConfig(seed=5))
    assert result.success
    assert result.n == n_true


def test_scale_gf2m_17():
    from dlogwalk.gf2m import gf_pow
    gf = BinaryFieldParams(17, 0x20009)   # x^17 + x^3 + 1, order 131071 prime
    target = gf_pow(GENERATOR, 100000, gf)
    result = run_dlog(gf, target, WalkConfig(variant="char2", seed=1))
    assert result.success
    assert result.n == 100000


def test_result_congruence_fields():
    result = run_dlog(P103, 99, WalkConfig(choices=[0, 1]))
    assert (result.congruence.residue, result.congruence.modulus,
            result.congruence.count) == (3, 34, 3)
    assert result.candidates == [3, 37, 71]
