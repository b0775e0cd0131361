"""Closed-loop benchmark of dlogwalk's walk solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one caller: `walk.run_dlog` solves instance after
instance, the next solve starting when the last returns.  Instance i of seed
N uses the solver seed s = N * 1000000 + i and the exponent
n = random.Random(s).randrange(order), as `bench.run_trials` draws them;
every variant of the workload solves the same instances, each variant with
one Table I built at set-up.  Every answer is checked against n mod order:
a wrong answer fails the run (exit 1), a solve that gives up only counts.

--seconds sizes the run: the instance count is what this code solves in
about that time (see workloads.py), so a given seed always means the same
instances.  Every time reported is scaled to a nominal host speed by a
reference kernel timed around it (see hostspeed.py).  --trace 0 reports
the end-to-end metrics.  --trace 1 solves the first third of the instances
once with the span wrappers of tracer.py installed and once without, back
to back, then once with only its call counters, and reports the per-layer
metrics and the tracing overhead.  The step digests of the three passes must
agree, and the layer self times must add up to the traced solve time
measured outside the wrappers.  The untraced digest covers the same solves
as `step_digest` of the --trace 0 run of the same seed; the two are printed
for comparing, not compared here.

The last line of stdout is the result object; the line before it carries
the details (step digest, checks, environment).  Both are also written,
with the first spans of a traced run, under perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import NOMINAL_NS, reference_ns
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SEED_STRIDE = 1_000_000
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
# The traced solve time, timed around each solve, may exceed the time inside
# the wrappers by at most this share: the call into the outermost wrapper and
# the return from it.
SELF_SUM_TOLERANCE = 0.001

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "solves_per_s": "1/s",
    "us_per_step": "us",
    "steps_per_sqrt_order": "steps/sqrtN",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

_TIMED_LAYERS = (
    "primefield.legendre", "primefield.sqrt_mod_p", "primefield.mod_pow",
    "gf2m.gf_sqrt", "gf2m.gf_div_by_x", "gf2m.gf_pow",
    "linexpr.LinExpr.dec", "linexpr.LinExpr.halve",
    "linexpr.LinExpr.triple_plus_one",
    "linexpr.collision_solve", "linexpr.enumerate_candidates",
)
PER_LAYER = {
    "walk.run_dlog.calls": "count",
    "walk.run_dlog.s": "s",
    "walk.run_dlog.self_s": "s",
    "walk.build_table_one.s": "s",
    "walk.steps": "count",
    "walk.restarts": "count",
    "walk.collisions": "count",
    "walk.candidates": "count",
    "walk.useful_collision_ratio": "ratio",
    **{f"{layer}.{kind}": unit for layer in _TIMED_LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "gf2m.gf_mul.calls": "count",
    "primefield.PrimeGroupParams.s": "s",
    "gf2m.BinaryFieldParams.s": "s",
    "linexpr.collisions.table_one": "count",
    "linexpr.collisions.history": "count",
    "linexpr.outcome.spurious": "count",
    "linexpr.outcome.degenerate": "count",
    "linexpr.outcome.toomany": "count",
    "linexpr.outcome.solved": "count",
    "linexpr.outcome.unverified": "count",
    "trace.self_s": "s",
    "trace.overhead": "ratio",
}


@dataclass(frozen=True)
class Solve:
    variant: str
    seed: int
    n_true: int
    n: int | None
    steps: int
    restarts: int
    collisions: int
    candidates: int
    ns: int
    ref_ns: float  # host speed reference, mean of before and after

    @property
    def scaled_s(self) -> float:
        """Wall time at the nominal host speed."""
        return self.ns / self.ref_ns * NOMINAL_NS / 1e9


def load_dlogwalk():
    """Import dlogwalk from this checkout's src/, and from nowhere else."""
    if not (SRC / "dlogwalk" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dlogwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dlogwalk
    if Path(dlogwalk.__file__).resolve().parent != SRC / "dlogwalk":
        sys.exit(f"perfbench: imported dlogwalk from {dlogwalk.__file__}")
    return dlogwalk


def instance_list(workload, order, seed, count):
    """(solver seed, n, target) for the first `count` instances of `seed`."""
    out = []
    for s in range(seed * SEED_STRIDE, seed * SEED_STRIDE + count):
        n_true = random.Random(s).randrange(order)
        out.append((s, n_true, workload.target(n_true)))
    return out


def solve(dlogwalk, params, tables, variant, seed, n_true, target) -> Solve:
    config = dlogwalk.WalkConfig(variant=variant, seed=seed)
    before = reference_ns()
    t0 = time.perf_counter_ns()
    # Looked up on the module each time, so tracer wrappers apply.
    result = dlogwalk.walk.run_dlog(params, target, config,
                                    table=tables[variant])
    ns = time.perf_counter_ns() - t0
    ref = (before + reference_ns()) / 2
    return Solve(variant, seed, n_true, result.n, result.steps_taken,
                 result.restarts, result.collisions_tested,
                 result.candidates_tried, ns, ref)


def build_tables(dlogwalk, params, workload):
    return {v: dlogwalk.walk.build_table_one(
        params, dlogwalk.WalkConfig(variant=v)) for v in workload.variants}


def step_digest(records) -> str:
    """Hash of every solve's (variant, seed, steps, restarts): a check that
    step counts did not change, not a metric."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.variant},{r.seed},{r.steps},{r.restarts}\n".encode())
    return h.hexdigest()[:16]


def check_answers(records, order) -> tuple[int, list[str]]:
    failed = sum(r.n is None for r in records)
    wrong = [f"{r.variant} seed {r.seed}: got {r.n}, expected {r.n_true % order}"
             for r in records if r.n is not None and r.n != r.n_true % order]
    return failed, wrong


def high_percentile(values) -> tuple[float, float]:
    """p90 when at least 100 samples, else the highest percentile with ten
    samples beyond it, but never below the median; returns (value,
    percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = math.ceil(0.9 * n) - 1 if n >= 100 else max(n - 11, n // 2)
    return ordered[idx], 100 * (idx + 1) / n


def setup_seconds(workload) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        elapsed, before, after = out.stdout.split()
        samples.append(float(elapsed) * NOMINAL_NS * 2
                       / (int(before) + int(after)))
    return samples


def environment(solves: int) -> dict:
    revision = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            revision = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            revision = None
    src = hashlib.sha256()
    for path in sorted((SRC / "dlogwalk").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_revision": revision, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "nproc": nproc,
            "solves": solves}


def traced_count(workload, seconds) -> int:
    """Instances a traced run solves; the step digest covers these."""
    return math.ceil(workload.instance_count(seconds) / 3)


def host_speed(records) -> float:
    """Median host speed over the records, 1.0 being nominal."""
    return NOMINAL_NS / statistics.median(r.ref_ns for r in records)


def untraced_run(dlogwalk, workload, seed, seconds):
    setups = setup_seconds(workload)
    params = workload.make_params(dlogwalk)
    tables = build_tables(dlogwalk, params, workload)
    todo = instance_list(workload, params.order, seed,
                         workload.instance_count(seconds))
    records = [solve(dlogwalk, params, tables, v, *inst)
               for inst in todo for v in workload.variants]
    times = [r.scaled_s for r in records]
    total_s = sum(times)
    steps = sum(r.steps for r in records)
    p90, p90_rank = high_percentile(times)
    failed, wrong = check_answers(records, params.order)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s_p50": statistics.median(times),
        "solve_s_p90": p90,
        "solves_per_s": len(times) / total_s,
        "us_per_step": total_s * 1e6 / steps,
        "steps_per_sqrt_order": steps / len(records) / math.sqrt(params.order),
        "success_rate": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    digested = traced_count(workload, seconds) * len(workload.variants)
    details = {
        "instances": len(todo),
        "step_digest": step_digest(records[:digested]),
        "step_digest_all": step_digest(records),
        "solve_s_p90_percentile": p90_rank,
        "host_speed": host_speed(records),
        "us_per_step_unscaled": sum(r.ns for r in records) / 1e3 / steps,
        "setup_s_samples": setups,
        "wrong_answers": wrong,
    }
    return records, failed, not wrong, metrics, details


def traced_run(dlogwalk, workload, seed, seconds):
    # tracer imports dlogwalk, found once load_dlogwalk ran.
    from tracer import TRACE_SELF, Tracer

    tracer = Tracer()
    with tracer.installed():
        params = tracer.call(workload.params_span, workload.make_params,
                             dlogwalk)
        tables = build_tables(dlogwalk, params, workload)
    setup_self_ns = sum(tracer.self_ns.values())
    todo = instance_list(workload, params.order, seed,
                         traced_count(workload, seconds))
    # Each solve runs traced and untraced back to back, in alternating
    # order, so both see the same host load; then once more with only the
    # call counters, whose cost thus stays out of every time.
    traced, untraced, counted = [], [], []
    for k, inst in enumerate(todo):
        for variant in workload.variants:
            if k % 2:
                untraced.append(solve(dlogwalk, params, tables, variant, *inst))
            with tracer.installed():
                traced.append(solve(dlogwalk, params, tables, variant, *inst))
            if not k % 2:
                untraced.append(solve(dlogwalk, params, tables, variant, *inst))
            with tracer.counting():
                counted.append(solve(dlogwalk, params, tables, variant, *inst))

    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    records = traced + untraced + counted
    failed, wrong = check_answers(records, params.order)
    digests = {"traced": step_digest(traced), "untraced": step_digest(untraced),
               "counted": step_digest(counted)}
    # Every layer's self time plus the wrappers' own, over the solves only.
    self_sum_ns = sum(tracer.self_ns.values()) - setup_self_ns
    solve_ns = sum(r.ns for r in traced)
    # Span times are scaled by the run's median host speed.
    speed = host_speed(records)
    scale = speed / 1e9

    def us_per_step(rs):
        return sum(r.scaled_s for r in rs) * 1e6 / sum(r.steps for r in rs)

    calls, self_ns, total_ns, events = (
        tracer.calls, tracer.self_ns, tracer.total_ns, tracer.events)
    collisions = sum(r.collisions for r in traced)
    outcomes = {k: events[f"linexpr.outcome.{k}"]
                for k in ("spurious", "degenerate", "toomany", "solved")}
    metrics = {
        "walk.run_dlog.calls": calls["walk.run_dlog"],
        "walk.run_dlog.s": total_ns["walk.run_dlog"] * scale,
        "walk.run_dlog.self_s": self_ns["walk.run_dlog"] * scale,
        "walk.build_table_one.s": total_ns["walk.build_table_one"] * scale,
        "walk.steps": sum(r.steps for r in traced),
        "walk.restarts": sum(r.restarts for r in traced),
        "walk.collisions": collisions,
        "walk.candidates": sum(r.candidates for r in traced),
        "walk.useful_collision_ratio": (outcomes["solved"] / collisions
                                        if collisions else 0.0),
    }
    for layer in _TIMED_LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_ns[layer] * scale
    metrics["gf2m.gf_mul.calls"] = calls["gf2m.gf_mul"]
    for name in ("primefield.PrimeGroupParams", "gf2m.BinaryFieldParams"):
        metrics[f"{name}.s"] = total_ns[name] * scale
    for source in ("table_one", "history"):
        key = f"linexpr.collisions.{source}"
        metrics[key] = events[key]
    for kind, count in outcomes.items():
        metrics[f"linexpr.outcome.{kind}"] = count
    metrics["linexpr.outcome.unverified"] = collisions - sum(outcomes.values())
    metrics["trace.self_s"] = self_ns[TRACE_SELF] * scale
    metrics["trace.overhead"] = us_per_step(traced) / us_per_step(untraced) - 1

    checks = {
        "digests_equal": len(set(digests.values())) == 1,
        "self_times_add_up_to_solve_time":
            0 <= solve_ns - self_sum_ns <= SELF_SUM_TOLERANCE * solve_ns,
        "collisions_all_traced": collisions == calls["linexpr.collision_solve"],
        "answers_right": not wrong,
    }
    details = {
        "instances": len(todo),
        "step_digest": digests,
        "checks": checks,
        "self_sum_s": self_sum_ns * scale,
        "traced_solve_s": solve_ns * scale,
        "host_speed": speed,
        "spans_kept": len(tracer.spans),
        "wrong_answers": wrong,
    }
    return records, failed, all(checks.values()), metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    dlogwalk = load_dlogwalk()
    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    records, failed, correct, metrics, details = run(
        dlogwalk, workload, args.seed, args.seconds)

    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    details = {"workload": workload.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, **details,
               "env": environment(len(records))}
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
