import hashlib
import math
import random

import pytest

from dlogwalk import walk
from dlogwalk.gf2m import BinaryFieldParams
from dlogwalk.primefield import PrimeGroupParams, sqrt_mod_p, sylow_log
from dlogwalk.selftest import CASES, replay
from dlogwalk.linexpr import CongruenceSolution, LinExpr, collision_solve
from dlogwalk.oracles import bsgs_dlog
from dlogwalk.walk import (DecisionsExhaustedError, WalkConfig,
                           WalkInvariantError, _Walk, build_table_one,
                           default_max_steps, run_dlog)

P103 = PrimeGroupParams(103, 5)
P101 = PrimeGroupParams(101, 2)
P2003 = PrimeGroupParams(2003, 5)
P257 = PrimeGroupParams(257, 3)     # 256 = 2^8: 2-Sylow logs of 8 bits
P7340033 = PrimeGroupParams(7340033, 3)  # 7 * 2^20: logs of 20 bits
P1048571 = PrimeGroupParams(1048571, 2)  # 2 * 524285: r = 1
GF27 = BinaryFieldParams(7, 0x83)
GF213 = BinaryFieldParams(13, 0x201B)


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
    # the stored k + 1 is no log of g^k, so the true n does not solve the
    # first collision with it and the walk stops there; a TypeError from
    # the patched call would abort with another message
    assert replay(CASES[0]) == ("walk aborted: no candidate verified at 36:"
                                " (n-3)/2 against the stored 65")


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
    ("collatz", lambda c: {"n": 40}, "n = 41, expected 40"),
    # GF(2^m) elements print in hex, as the CLI prints them
    ("gf2m1", lambda c: {"rows": ((0x1D, "sqrt", 0x24, None, None, 0,
                                   (1, 0, 1)),) + c.rows[1:]},
     "row 1: expected (0x1d, 'sqrt', 0x24, None, None, 0, (1, 0, 1)),"
     " got (0x1d, 'sqrt', 0x23, None, None, 0, (1, 0, 1))"),
    ("prime1", lambda c: {"rows": c.rows[:1] + ((58, "sqrt", None, (26, 78),
                                                 77, 1, (1, -1, 1)),)},
     "row 2: expected (58, 'sqrt', None, (26, 78), 77, 1, (1, -1, 1)),"
     " got (58, 'sqrt', None, (26, 77), 77, 1, (1, -1, 1))"),
], ids=["extra-row", "dropped-row", "altered-row", "congruence", "n",
        "altered-row-gf2m", "altered-roots"])
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
            assert (result.n, result.congruence) == \
                (n, CongruenceSolution(n, order, 1))
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


def test_scripted_exhaustion_raises():
    with pytest.raises(DecisionsExhaustedError):
        run_dlog(P103, 99, WalkConfig(choices=[0]))
    # gf2m1 needs four decisions; the message counts the scripted ones
    with pytest.raises(DecisionsExhaustedError,
                       match="^scripted choices exhausted after 3 decisions$"):
        run_dlog(GF27, 0x1D, WalkConfig(variant="char2",
                                        choices=[0, 1, 1]))


def test_default_budget():
    assert default_max_steps(102) == 202   # ceil(20 * sqrt(102))
    assert default_max_steps(10000) == 2000


@pytest.mark.parametrize("params,variant", [
    (P103, "inverse"), (P101, "collatz"), (P257, "inverse"), (P257, "collatz"),
    (P7340033, "inverse"), (P7340033, "collatz"),
])
def test_roots_are_given_the_log_found_once_per_solve(
        params, variant, monkeypatch):
    # the walk searches for the 2-Sylow log once, on the target, and a
    # segment that restarts at target * g^j starts from it; that every root
    # gets its value's true log is checked by the reference walk, whose
    # sqrt_mod_p searches each log itself and raises on a wrong one
    searches = []

    def spy_log(x, params):
        searches.append(x)
        return sylow_log(x, params)

    monkeypatch.setattr(walk, "sylow_log", spy_log)
    rng = random.Random(params.p)
    restarts = 0
    for seed in range(40):
        searches.clear()
        target = rng.randrange(1, params.p)
        result = run_dlog(params, target, WalkConfig(
            variant=variant, seed=seed, max_steps=12))
        assert searches == [target]
        restarts += result.restarts
    assert restarts > 5


@pytest.mark.parametrize("params,target,wrong", [
    # 5^3 is a non-residue, log 1, walked as if in the odd part: the root
    # the segment computes itself
    (P2003, pow(5, 3, 2003), 0),
    # 3^(2 + 2^20) has log 2, walked as 4: sqrt_mod_p's windowed root
    (P7340033, pow(3, 2 + (1 << 20), 7340033), 4),
])
def test_a_wrong_log_raises_on_either_root_path(params, target, wrong,
                                                monkeypatch):
    # a root given a wrong log fails its R^2 = x check, in the segment as
    # in sqrt_mod_p: the walk never steps to a value that is not a root
    # outside Table I, so the walk's first step is a root of the target
    assert target not in build_table_one(params)
    assert sylow_log(target, params) != wrong
    with pytest.raises(ValueError) as expected:
        sqrt_mod_p(target, params, wrong)
    # either root fails as a broken walk: the segment's own with the
    # walk's message, sqrt_mod_p's with the text of its ValueError, which
    # the walk chains
    message = (f"the odd-part root of {target} mod {params.p} is wrong"
               if wrong == 0 else str(expected.value))
    monkeypatch.setattr(walk, "sylow_log", lambda x, params: wrong)
    with pytest.raises(WalkInvariantError) as raised:
        run_dlog(params, target, WalkConfig(seed=1))
    assert str(raised.value) == message
    if wrong:
        cause = raised.value.__cause__
        assert type(cause) is ValueError and str(cause) == message


def test_a_wrong_odd_part_scale_raises():
    # on r = 1 every root is the segment's own, scaled by w from sqrt_exp:
    # a wrong w fails the first root's check as a broken walk, which the
    # CLI reports as a solver failure
    params = PrimeGroupParams(1019, 2)
    assert params.r == 1
    params.sqrt_exp += 1
    with pytest.raises(WalkInvariantError,
                       match="^the odd-part root of 777 mod 1019 is wrong$"):
        run_dlog(params, 777, WalkConfig(seed=1))


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


@pytest.mark.parametrize("variant", ["inverse", "collatz", "char2"])
def test_stored_restart_start_solves_without_a_step(variant):
    # a restart drawing j whose start target * g^j the first segment
    # already reached collides there: the answer comes before any step of
    # the second segment
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    order = params.order
    n = bsgs_dlog(params, target)
    config = WalkConfig(variant=variant, seed=0, max_steps=4,
                        max_restarts=1, trace=True)
    first = run_dlog(params, target, config.replace(max_restarts=0))
    assert not first.success
    # a value reached after a root, whose exponent is not n + j for any j
    rec = [rec for rec in first.trace if rec.expr[2] > 0][-1]
    reached = rec.result if rec.roots is None else rec.roots[0]
    j = (bsgs_dlog(params, reached) - n) % order
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


@pytest.mark.parametrize("variant", ["inverse", "collatz"])
def test_mean_steps_lie_in_the_models_band(variant):
    # README's cross-op collision model gives 0.75 sqrt(pi N) = 1.329 sqrt(N)
    # steps on the prime walk.  The mean of 300 seeded solves has a standard
    # error of about 0.7/sqrt(300) = 0.04, under a fifth of the +-10% band's
    # width; a walk that stores only the root it takes reads 1.52 and 1.55
    # here.  r = 1, so every root is in the odd part
    params = P1048571
    steps = 0
    for seed in range(300):
        n = random.Random(seed).randrange(params.order)
        result = run_dlog(params, params.pow(params.generator, n),
                          WalkConfig(variant=variant, seed=seed))
        assert result.n == n
        steps += result.steps_taken
    model = 0.75 * math.sqrt(math.pi * params.order)
    assert abs(steps / 300 / model - 1) <= 0.10


def test_golden_too_many_candidates_skipped(monkeypatch):
    # D_MAX = 1 makes every collision with two or more candidates one the
    # walk passes by without a restart; a later one with a single
    # candidate solves
    monkeypatch.setattr(walk, "D_MAX", 1)
    assert _counts(run_dlog(P2003, 777, WalkConfig(seed=0))) == \
        (1098, 88, 0, 7, 1)


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
    # run_dlog's default config is WalkConfig(): seed 0, and no trace
    assert run_dlog(P103, 84) == run_dlog(P103, 84, WalkConfig(seed=0))
    assert run_dlog(P103, 84, WalkConfig(seed=0)).trace is None


@pytest.mark.parametrize("variant", ["inverse", "collatz", "char2"])
def test_trace_does_not_change_the_walk(variant, monkeypatch):
    # short segments force restarts, and D_MAX = 1 walks past collisions
    # with too many candidates; each row must walk alike with the trace on
    # or off
    params, target = (GF27, 0x1D) if variant == "char2" else (P2003, 777)
    restarted, default = 0, walk.D_MAX
    for seed in range(10):
        for d_max in (default, 1):
            monkeypatch.setattr(walk, "D_MAX", d_max)
            config = WalkConfig(variant=variant, seed=seed, max_steps=8,
                                max_restarts=16)
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


def test_scripted_choices_from_a_generator():
    # the bit check must not use up an iterator before the walk reads it
    config = WalkConfig(choices=(b for b in [1]))
    assert config.choices == [1]
    assert run_dlog(P103, 84, config).n == 29
    assert run_dlog(P103, 84, config).n == 29


def test_result_congruence_fields():
    result = run_dlog(P103, 99, WalkConfig(choices=[0, 1]))
    c = result.congruence
    assert (c.residue, c.modulus, c.count) == (3, 34, 3)
    # the congruence fixes every candidate: n = residue mod modulus, below N
    assert list(range(c.residue, P103.order, c.modulus)) == [3, 37, 71]
