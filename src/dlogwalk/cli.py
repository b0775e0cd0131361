"""Command-line front end: solve, solve-gf2m, oracle, bench, selftest.

Exit codes: 0 success, 1 solver failure or selftest mismatch, 2 bad usage
or unwritable output.  Prime-field elements are decimal, binary-field
elements hex (bit 0 = constant term; the modulus includes bit m, so
x^7+x+1 is 0x83).
"""

import argparse
import sys

from . import __version__, bench
from .gf2m import BinaryFieldParams
from .oracles import brute_force_dlog, bsgs_dlog
from .primefield import PrimeGroupParams
from .selftest import CASE_NAMES, run_selftest
from .walk import DecisionsExhaustedError, WalkConfig, run_dlog


def _parse_bits(text: str) -> list[int]:
    try:
        bits = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad choice list {text!r}")
    if not bits or any(b not in (0, 1) for b in bits):
        raise argparse.ArgumentTypeError("choices must be a comma-separated bit list")
    return bits


def _add_walk_flags(sub):
    """Walk tunables shared by solve, solve-gf2m and bench."""
    sub.add_argument("--table-size", type=int, default=None,
                     help="Table I size B (default: bit length of group order)")
    sub.add_argument("--seq", choices=("pow2", "consec"), default="pow2",
                     help="Table I exponents: 2^j or consecutive")
    sub.add_argument("--max-steps", type=int, default=None)
    sub.add_argument("--max-restarts", type=int, default=32)
    sub.add_argument("--d-max", type=int, default=65536,
                     help="candidate-count limit before restarting")


def _add_solve_flags(sub):
    _add_walk_flags(sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None,
                       help="PRNG seed for random decisions (default 0)")
    group.add_argument("--choices", type=_parse_bits, default=None, metavar="BITS",
                       help="scripted decision bits, e.g. 0,1,1,0")
    sub.add_argument("-v", "--verbose", action="store_true",
                     help="print the walk trace table")


def _params(parser, args):
    """The group named by --p/--gen or by --m/--poly."""
    if (args.p is None) == (args.m is None):
        parser.error("give exactly one field: --p with --gen, or --m with --poly")
    if args.p is not None and args.gen is None:
        parser.error("--gen is required with --p")
    if args.m is not None and args.poly is None:
        parser.error("--poly is required with --m")
    try:
        if args.p is not None:
            return PrimeGroupParams(args.p, args.gen)
        return BinaryFieldParams(args.m, int(args.poly, 16))
    except ValueError as exc:
        parser.error(str(exc))


def _target(parser, args, params) -> int:
    try:
        return params.parse(args.target)
    except ValueError as exc:
        parser.error(f"bad target {args.target!r}: {exc}")


def _walk_config(parser, args, params, **solve_options) -> WalkConfig:
    variant = args.variant or params.variants[0]
    if variant not in params.variants:
        parser.error(f"variant {variant} does not run on {params};"
                     f" choose from {', '.join(params.variants)}")
    try:
        return WalkConfig(variant=variant, table_size=args.table_size,
                          sequence=args.seq, max_steps=args.max_steps,
                          max_restarts=args.max_restarts, d_max=args.d_max,
                          **solve_options)
    except ValueError as exc:
        parser.error(str(exc))


def _print_trace(result, fmt):
    print("step  value          branch  result/roots        chosen      expr")
    for rec in result.trace or ():
        if rec.roots is not None:
            out = f"{fmt(rec.roots[0])},{fmt(rec.roots[1])}"
        else:
            out = fmt(rec.result)
        chosen = fmt(rec.chosen) if rec.chosen is not None else "-"
        print(f"{rec.index:>4}  {fmt(rec.value):<13}  {rec.branch:<6}"
              f"  {out:<18}  {chosen:<10}  {rec.expr}")


def cmd_solve(parser, args) -> int:
    """solve and solve-gf2m: one walk over the group the flags name."""
    params = _params(parser, args)
    target = _target(parser, args, params)
    config = _walk_config(parser, args, params, seed=args.seed,
                          choices=args.choices, trace=args.verbose)
    try:
        result = run_dlog(params, target, config)
    except ValueError as exc:
        parser.error(str(exc))
    except DecisionsExhaustedError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
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


def cmd_oracle(parser, args) -> int:
    params = _params(parser, args)
    target = _target(parser, args, params)
    solver = brute_force_dlog if args.method == "brute" else bsgs_dlog
    try:
        print(solver(params, target).n)
    except ValueError as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(parser, args) -> int:
    params = _params(parser, args)
    config = _walk_config(parser, args, params)
    try:
        records = bench.run_trials(params, config.variant, args.trials, args.seed,
                                   config, timing=args.timing)
    except ValueError as exc:
        parser.error(str(exc))
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


def cmd_selftest(parser, args) -> int:
    try:
        ok, lines = run_selftest(args.only)
    except ValueError as exc:
        parser.error(str(exc))
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlogwalk",
        description="Discrete logarithms by inverting square-and-multiply")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve a prime-field discrete log")
    solve.add_argument("--p", type=int, required=True, help="odd prime modulus")
    solve.add_argument("--gen", type=int, required=True, help="primitive root")
    solve.add_argument("--target", required=True)
    solve.add_argument("--variant", choices=("inverse", "collatz"),
                       default="inverse")
    solve.set_defaults(m=None, poly=None)
    _add_solve_flags(solve)

    sgf = subs.add_parser("solve-gf2m", help="solve a GF(2^m) discrete log to base x")
    sgf.add_argument("--m", type=int, required=True, help="extension degree")
    sgf.add_argument("--poly", required=True,
                     help="modulus polynomial, hex (x^7+x+1 = 0x83)")
    sgf.add_argument("--target", required=True, help="target element, hex")
    sgf.set_defaults(p=None, gen=None, variant=None)
    _add_solve_flags(sgf)

    oracle = subs.add_parser("oracle", help="brute-force / BSGS reference solvers")
    oracle.add_argument("--method", choices=("brute", "bsgs"), required=True)
    oracle.add_argument("--p", type=int)
    oracle.add_argument("--gen", type=int, default=None)
    oracle.add_argument("--m", type=int)
    oracle.add_argument("--poly")
    oracle.add_argument("--target", required=True)

    b = subs.add_parser("bench", help="measure walk step counts over random targets")
    b.add_argument("--p", type=int)
    b.add_argument("--gen", type=int)
    b.add_argument("--m", type=int)
    b.add_argument("--poly")
    b.add_argument("--variant", choices=("inverse", "collatz", "char2"),
                   help="default: the field's first (inverse or char2)")
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--csv", help="write per-trial records here")
    b.add_argument("--json", help="write the summary here")
    _add_walk_flags(b)
    b.add_argument("--timing", action="store_true",
                   help="record wall time (off by default so CSVs are reproducible)")

    st = subs.add_parser("selftest", help="replay the five worked examples")
    st.add_argument("--only", choices=CASE_NAMES, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("solve", "solve-gf2m"):
        return cmd_solve(parser, args)
    if args.command == "oracle":
        return cmd_oracle(parser, args)
    if args.command == "bench":
        return cmd_bench(parser, args)
    return cmd_selftest(parser, args)


if __name__ == "__main__":
    sys.exit(main())
