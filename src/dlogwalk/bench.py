"""Step-count measurements for the walk variants.

Trial i solves for an n drawn from seed_base + i alone, so every variant
meets the same instances.  nanos is 0 unless `timing` is on, so identical
seeds give byte-identical CSV.
"""

import csv
import io
import json
import math
import random
import statistics
import time
from typing import NamedTuple

from .walk import WalkConfig, build_table_one, run_dlog

class TrialRecord(NamedTuple):
    variant: str
    prime_or_field: str
    n_true: int
    seed: int
    steps: int
    restarts: int
    success: bool
    nanos: int


CSV_COLUMNS = TrialRecord._fields


class StepStats(NamedTuple):
    trials: int
    successes: int
    success_rate: float
    mean_steps: float
    median_steps: float
    stddev_steps: float
    ratio_mean_to_sqrt_order: float


def run_trials(params, config: WalkConfig, trial_count: int, seed_base: int,
               timing: bool = False) -> list[TrialRecord]:
    """Run `trial_count` independent solves of `config.variant`, trial i
    with seed seed_base + i, so `config` sets neither seed nor choices.
    Unsolved trials are recorded, not raised; a variant the group does not run
    raises UnsupportedGroupError, a ValueError, before any step."""
    if trial_count < 1:
        raise ValueError("trial_count must be >= 1")
    if config.seed is not None or config.choices is not None:
        raise ValueError("per-trial seeds are derived from seed_base")
    order = params.order
    label = str(params)
    table = build_table_one(params)
    records = []
    for i in range(trial_count):
        seed = seed_base + i
        n_true = random.Random(seed).randrange(order)
        target = params.pow(params.generator, n_true)
        cfg = config.replace(seed=seed)
        t0 = time.perf_counter_ns()
        result = run_dlog(params, target, cfg, table=table)
        nanos = time.perf_counter_ns() - t0 if timing else 0
        records.append(TrialRecord(
            variant=config.variant, prime_or_field=label, n_true=n_true,
            seed=seed, steps=result.steps_taken, restarts=result.restarts,
            success=result.success, nanos=nanos))
    return records


def summarize(records: list[TrialRecord], order: int) -> StepStats:
    """Aggregate step statistics; only successful trials enter the step stats."""
    if not records:
        raise ValueError("no trial records to summarize")
    steps = [r.steps for r in records if r.success]
    successes = len(steps)
    if steps:
        mean = statistics.mean(steps)
        median = statistics.median(steps)
        stddev = statistics.stdev(steps) if len(steps) > 1 else 0.0
    else:
        mean = median = stddev = float("nan")
    return StepStats(
        trials=len(records),
        successes=successes,
        success_rate=successes / len(records),
        mean_steps=float(mean),
        median_steps=float(median),
        stddev_steps=float(stddev),
        ratio_mean_to_sqrt_order=float(mean) / order ** 0.5)


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r._replace(success=int(r.success)) for r in records)
    return buf.getvalue()


def write_csv(records: list[TrialRecord], path: str):
    with open(path, "w", newline="") as fh:
        fh.write(records_to_csv(records))


def stats_to_json(stats: StepStats) -> str:
    """Strict JSON: a step statistic with no successful trial (NaN) is null."""
    fields = {name: None if isinstance(v, float) and not math.isfinite(v) else v
              for name, v in stats._asdict().items()}
    return json.dumps(fields, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(stats: StepStats, path: str):
    with open(path, "w") as fh:
        fh.write(stats_to_json(stats))
