import math

import pytest

from dlogwalk.bench import (CSV_COLUMNS, StepStats, TrialRecord, records_to_csv,
                            run_trials, stats_to_json, summarize, write_csv,
                            write_json)
from dlogwalk.gf2m import BinaryFieldParams
from dlogwalk.oracles import bsgs_dlog
from dlogwalk.primefield import PrimeGroupParams
from dlogwalk.walk import WalkConfig

P103 = PrimeGroupParams(103, 5)
P2003 = PrimeGroupParams(2003, 5)


def test_run_trials_all_solvable_small_prime():
    records = run_trials(P103, WalkConfig(), 100, seed_base=0)
    assert len(records) == 100
    assert all(r.success for r in records)
    for r in records[:10]:  # spot-check against an independent solver
        target = pow(5, r.n_true, 103) if r.n_true else 1
        assert bsgs_dlog(P103, target).n == r.n_true % 102


def test_trials_are_deterministic():
    a = run_trials(P2003, WalkConfig(), 50, seed_base=9)
    b = run_trials(P2003, WalkConfig(), 50, seed_base=9)
    assert a == b
    assert records_to_csv(a) == records_to_csv(b)


def test_same_seed_draws_same_exponent_across_variants():
    a = run_trials(P2003, WalkConfig(variant="inverse"), 30, seed_base=4)
    b = run_trials(P2003, WalkConfig(variant="collatz"), 30, seed_base=4)
    assert [r.n_true for r in a] == [r.n_true for r in b]
    assert [r.seed for r in a] == [r.seed for r in b]


def test_trial_budget_invariant():
    config = WalkConfig(max_steps=10, max_restarts=8)
    records = run_trials(P2003, config, 40, seed_base=2)
    for r in records:
        assert r.steps <= 10 * (r.restarts + 1)


def test_steps_metric_counts_walk_iterations():
    # the scripted worked example takes exactly 3 iterations, and the bench
    # steps column reports the same engine counter
    from dlogwalk.walk import run_dlog
    result = run_dlog(P103, 84, WalkConfig(choices=[1]))
    assert result.steps_taken == 3
    record = run_trials(P103, WalkConfig(), 1, seed_base=5)[0]
    target = pow(5, record.n_true, 103) if record.n_true else 1
    assert record.steps == run_dlog(P103, target, WalkConfig(seed=5)).steps_taken


def test_run_trials_argument_checks():
    with pytest.raises(ValueError):
        run_trials(P103, WalkConfig(), 0, seed_base=0)
    with pytest.raises(ValueError):
        run_trials(P103, WalkConfig(seed=3), 5, seed_base=0)


def test_summarize_basic():
    recs = [TrialRecord("inverse", "103", 1, i, s, 0, True, 0)
            for i, s in enumerate((4, 6, 8))]
    stats = summarize(recs, 102)
    assert stats.mean_steps == 6
    assert stats.median_steps == 6
    assert stats.trials == 3
    assert stats.success_rate == 1.0
    assert stats.ratio_mean_to_sqrt_order == pytest.approx(6 / math.sqrt(102))


def test_summarize_excludes_failures_from_steps():
    recs = [TrialRecord("inverse", "103", 1, 0, 10, 0, True, 0),
            TrialRecord("inverse", "103", 2, 1, 999, 5, False, 0)]
    stats = summarize(recs, 102)
    assert stats.success_rate == 0.5
    assert stats.mean_steps == 10
    assert stats.successes == 1


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([], 102)


def test_csv_format(tmp_path):
    records = run_trials(P103, WalkConfig(), 5, seed_base=1)
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    assert all(line.endswith(",0") for line in lines[1:])  # nanos 0 without timing
    path = tmp_path / "out.csv"
    write_csv(records, str(path))
    assert path.read_text() == text


def test_timing_flag_records_wall_time():
    records = run_trials(P103, WalkConfig(), 3, seed_base=1, timing=True)
    assert all(r.nanos > 0 for r in records)


def test_json_summary(tmp_path):
    import json
    records = run_trials(P103, WalkConfig(), 5, seed_base=1)
    stats = summarize(records, 102)
    path = tmp_path / "stats.json"
    write_json(stats, str(path))
    parsed = json.loads(path.read_text())
    assert parsed["trials"] == 5
    assert set(parsed) == set(StepStats._fields)
    assert stats_to_json(stats) == stats_to_json(summarize(records, 102))


def test_gf2m_trials():
    gf = BinaryFieldParams(7, 0x83)
    records = run_trials(gf, WalkConfig(variant="char2"), 25, seed_base=3)
    assert all(r.success for r in records)
    assert records[0].prime_or_field == "gf2^7/0x83"
    assert str(P103) == "103"
