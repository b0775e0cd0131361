"""Command-line front end: solve (alias solve-gf2m), oracle, bench, selftest.

`main` alone maps errors to the exit codes of README's "CLI": a ValueError
is bad input (2), a broken walk or used-up --choices a solver failure (1).
"""

import argparse
import os
import sys

from . import __version__
from .gf2m import BinaryFieldParams
from .linexpr import LinExpr
from .oracles import bsgs_dlog
from .primefield import PrimeGroupParams
from .walk import (VARIANTS, DecisionsExhaustedError, WalkConfig,
                   WalkInvariantError, check_variant, run_dlog)


def _parse_bits(text: str) -> list[int]:
    """Comma-separated ints; WalkConfig checks that each is a bit."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad choice list {text!r}")


def _add_group_flags(sub):
    """The group of solve, oracle and bench: --p with --gen, or --m with --poly."""
    sub.add_argument("--p", type=int, help="odd prime modulus")
    sub.add_argument("--gen", type=int, help="primitive root mod p")
    sub.add_argument("--m", type=int, help="GF(2^m) extension degree")
    sub.add_argument("--poly", help="modulus polynomial, hex (x^7+x+1 = 0x83)")


def _add_walk_flags(sub):
    """Walk tunables shared by solve and bench.  Each dest is a WalkConfig
    field, and a flag left out is absent from the parsed args, so the
    WalkConfig defaults are the only ones."""
    walk = sub.add_argument_group("walk", argument_default=argparse.SUPPRESS)
    walk.add_argument("--variant", choices=VARIANTS,
                      help="default: the group's first (inverse, or char2)")
    walk.add_argument("--max-steps", type=int)
    walk.add_argument("--max-restarts", type=int)


def _params(args):
    """The one group named whole: --p with --gen, or --m with --poly."""
    if (args.p is None) == (args.m is None):
        raise ValueError("give exactly one field: --p with --gen, or --m with --poly")
    if (args.p is None) != (args.gen is None):
        raise ValueError("--gen goes with --p, and only with it")
    if (args.m is None) != (args.poly is None):
        raise ValueError("--poly goes with --m, and only with it")
    if args.p is not None:
        return PrimeGroupParams(args.p, args.gen)
    return BinaryFieldParams(args.m, int(args.poly, 16))


def _target(args, params) -> int:
    try:
        return params.parse(args.target)
    except ValueError as exc:
        raise ValueError(f"bad target {args.target!r}: {exc}") from None


def _walk_config(args, params) -> WalkConfig:
    """The WalkConfig of every parsed flag whose dest is one of its fields,
    for a variant the group runs: refused here, before bench opens a file."""
    options = {k: v for k, v in vars(args).items() if k in WalkConfig._fields}
    options.setdefault("variant", params.variants[0])
    check_variant(params, options["variant"])
    return WalkConfig(**options)


def _print_trace(result, fmt):
    print("step  value          branch  result/roots        chosen      expr")
    for rec in result.trace or ():
        if rec.roots is not None:
            out = f"{fmt(rec.roots[0])},{fmt(rec.roots[1])}"
        else:
            out = fmt(rec.result)
        chosen = fmt(rec.chosen) if rec.chosen is not None else "-"
        print(f"{rec.index:>4}  {fmt(rec.value):<13}  {rec.branch:<6}"
              f"  {out:<18}  {chosen:<10}  {LinExpr(*rec.expr)}")


def cmd_solve(args) -> int:
    """One walk over the group the flags name."""
    params = _params(args)
    result = run_dlog(params, _target(args, params), _walk_config(args, params))
    if not result.success:
        print(f"no solution found: steps={result.steps_taken}"
              f" restarts={result.restarts}", file=sys.stderr)
        return 1
    print(result.n)
    print(f"steps={result.steps_taken} restarts={result.restarts}"
          f" collisions={result.collisions_tested}"
          f" candidates={result.candidates_tried}")
    if result.trace is not None:
        _print_trace(result, params.format)
    return 0


def cmd_oracle(args) -> int:
    params = _params(args)
    target = _target(args, params)
    try:
        print(bsgs_dlog(params, target))
    except ValueError as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    from . import bench  # only here: solve and the other commands skip it

    params = _params(args)
    config = _walk_config(args, params)
    try:  # refused before the first trial, leaving every file as it was
        for path in filter(None, (args.csv, args.json)):
            made = not os.path.exists(path)
            open(path, "a").close()
            if made:
                os.remove(path)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None
    records = bench.run_trials(params, config, args.trials, args.seed_base,
                               timing=args.timing)
    stats = bench.summarize(records, params.order)
    try:
        if args.csv:
            bench.write_csv(records, args.csv)
        if args.json:
            bench.write_json(stats, args.json)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"trials={stats.trials} success_rate={stats.success_rate:.3f}"
          f" mean_steps={stats.mean_steps:.2f}"
          f" mean/sqrt(N)={stats.ratio_mean_to_sqrt_order:.3f}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest  # only here: it builds three groups

    ok, lines = run_selftest(args.only)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlogwalk",
        description="Discrete logarithms by inverting square-and-multiply")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", aliases=["solve-gf2m"],
                            help="solve a prime-field or GF(2^m) discrete log")
    _add_group_flags(solve)
    solve.add_argument("--target", required=True,
                       help="decimal, or hex on GF(2^m)")
    _add_walk_flags(solve)
    decisions = solve.add_mutually_exclusive_group()
    decisions.add_argument("--seed", type=int,
                           help="PRNG seed for random decisions (default 0)")
    decisions.add_argument("--choices", type=_parse_bits, metavar="BITS",
                           help="scripted decision bits, e.g. 0,1,1,0")
    solve.add_argument("-v", "--verbose", dest="trace", action="store_true",
                       help="print the walk trace table")
    solve.set_defaults(run=cmd_solve)

    oracle = subs.add_parser("oracle", help="baby-step giant-step reference solver")
    _add_group_flags(oracle)
    oracle.add_argument("--target", required=True)
    oracle.set_defaults(run=cmd_oracle)

    b = subs.add_parser("bench", help="measure walk step counts over random targets")
    _add_group_flags(b)
    _add_walk_flags(b)
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--seed", dest="seed_base", metavar="SEED", type=int,
                   required=True, help="trial i walks with seed SEED + i")
    b.add_argument("--csv", help="write per-trial records here")
    b.add_argument("--json", help="write the summary here")
    b.add_argument("--timing", action="store_true",
                   help="record wall time (off by default so CSVs are reproducible)")
    b.set_defaults(run=cmd_bench)

    st = subs.add_parser("selftest", help="replay the five worked examples")
    st.add_argument("--only", default=None, metavar="NAME",
                    help="replay one example; an unknown name lists them")
    st.set_defaults(run=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # refused before the walk's first step
        parser.error(str(exc))
    except (DecisionsExhaustedError, WalkInvariantError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
