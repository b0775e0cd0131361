import contextlib
import io
import itertools
import json
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlogwalk.cli import _params, _walk_config, build_parser, main
from dlogwalk.gf2m import BinaryFieldParams
from dlogwalk.primefield import (PrimeGroupParams, check_generator,
                                 prime_factors)
from dlogwalk.selftest import CASES
from dlogwalk.walk import WalkConfig
from reference_walk import brute_order


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_worked_example(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "84", "--choices", "1")
    assert code == 0
    assert out.splitlines()[0] == "29"
    # an empty entry in the choice list is skipped
    assert run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                   "--target", "84", "--choices", "1,") == (code, out, "")


def test_solve_immediate_hit(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "5")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_solve_verbose_trace(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "84", "--choices", "1", "-v")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "29"
    assert any("26,77" in line and "77" in line for line in lines)
    assert any("(n-3)/2" in line for line in lines)


def test_solve_verbose_prints_large_denominators_as_powers(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "2003", "--gen", "5",
                           "--target", "777", "--seed", "3", "-v")
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "(n-1754)/2^49"


def test_solve_collatz(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "101", "--gen", "2",
                           "--target", "72", "--variant", "collatz",
                           "--choices", "1,0,1")
    assert code == 0
    assert out.splitlines()[0] == "41"


def test_solve_gf2m_worked_example(capsys):
    # solve takes either group, and solve-gf2m is its alias
    argv = ("--m", "7", "--poly", "0x83", "--target", "0x1D",
            "--choices", "0,1,1,1")
    code, out, _ = run_cli(capsys, "solve", *argv)
    assert code == 0
    assert out.splitlines() == ["38", "steps=4 restarts=0 collisions=1 candidates=1"]
    assert run_cli(capsys, "solve-gf2m", *argv) == (code, out, "")


def test_solve_gf2m_verbose_rows_show_the_stored_exponent(capsys):
    # a char2 row shows the (A, B, k) the walk stored, as a prime row does,
    # also in the 20 rows here whose B lies outside (-N/2, N/2]
    code, out, _ = run_cli(capsys, "solve", "--m", "7", "--poly", "0x83",
                           "--target", "0x1D", "--seed", "4", "-v")
    assert code == 0
    assert out == """\
38
steps=40 restarts=0 collisions=2 candidates=1
step  value          branch  result/roots        chosen      expr
   1  0x1d           sqrt    0x23                -           n/2
   2  0x23           sqrt    0x5b                -           n/4
   3  0x5b           sqrt    0x3b                -           n/8
   4  0x3b           div     0x5c                -           (n-8)/8
   5  0x5c           sqrt    0x2a                -           (n-8)/16
   6  0x2a           sqrt    0x7e                -           (n-8)/32
   7  0x7e           sqrt    0x70                -           (n-8)/64
   8  0x70           sqrt    0x44                -           (n-8)/128
   9  0x44           sqrt    0xa                 -           (n-8)/256
  10  0xa            sqrt    0x36                -           (n-8)/512
  11  0x36           sqrt    0x5c                -           (n-8)/1024
  12  0x5c           div     0x2e                -           (n-16)/1024
  13  0x2e           div     0x17                -           (n-24)/1024
  14  0x17           sqrt    0x15                -           (n-24)/2^11
  15  0x15           div     0x4b                -           (n-40)/2^11
  16  0x4b           div     0x64                -           (n-56)/2^11
  17  0x64           div     0x32                -           (n-72)/2^11
  18  0x32           sqrt    0x5e                -           (n-72)/2^12
  19  0x5e           sqrt    0x38                -           (n-72)/2^13
  20  0x38           div     0x1c                -           (n-9)/2^13
  21  0x1c           div     0xe                 -           (n-73)/2^13
  22  0xe            sqrt    0x34                -           (n-73)/2^14
  23  0x34           sqrt    0x4e                -           (n-73)/2^15
  24  0x4e           div     0x27                -           (n-75)/2^15
  25  0x27           sqrt    0x59                -           (n-75)/2^16
  26  0x59           div     0x6d                -           (n-79)/2^16
  27  0x6d           sqrt    0x67                -           (n-79)/2^17
  28  0x67           sqrt    0x51                -           (n-79)/2^18
  29  0x51           sqrt    0xd                 -           (n-79)/2^19
  30  0xd            div     0x47                -           (n-111)/2^19
  31  0x47           div     0x62                -           (n-16)/2^19
  32  0x62           sqrt    0x52                -           (n-16)/2^20
  33  0x52           div     0x29                -           (n-80)/2^20
  34  0x29           div     0x55                -           (n-17)/2^20
  35  0x55           div     0x6b                -           (n-81)/2^20
  36  0x6b           sqrt    0x77                -           (n-81)/2^21
  37  0x77           div     0x7a                -           (n-82)/2^21
  38  0x7a           sqrt    0x72                -           (n-82)/2^22
  39  0x72           sqrt    0x56                -           (n-82)/2^23
  40  0x56           sqrt    0x1c                -           (n-82)/2^24
"""


@pytest.mark.parametrize("group", (["--p", "103", "--gen", "5"],
                                   ["--m", "7", "--poly", "0x83"]))
def test_walk_config_defaults_live_in_walk_config(group):
    # no walk flag given: every field but the group's variant is WalkConfig's
    # own default, for both commands that walk
    parser = build_parser()
    for argv in (["solve", *group, "--target", "3"],
                 ["bench", *group, "--trials", "1", "--seed", "0"]):
        args = parser.parse_args(argv)
        params = _params(args)
        assert (_walk_config(args, params)
                == WalkConfig(variant=params.variants[0]))


def _check_message(call, *args):
    """The ValueError message of call(*args), or None if it returns."""
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _cli_message(argv, capsys):
    """The last stderr line of main(argv) on exit 2, or None on exit 0."""
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return capsys.readouterr().err.splitlines()[-1]
    assert code == 0
    capsys.readouterr()
    return None


def test_one_generator_check_for_library_and_cli(capsys):
    # every g mod 41, 103 and 257, and x in GF(2^4) mod 0x13 (primitive)
    # and mod 0x1f (order 5): construction fails exactly when g's
    # brute-force order is not N, with the message the CLI prints, and a
    # factor list short of a prime of N verifies nothing; each order is at
    # most 256, so the CLI's BSGS answers at once
    groups = [(PrimeGroupParams, (p, g), p - 1,
               brute_order(lambda v, p=p, g=g: v * g % p),
               ["--p", str(p), "--gen", str(g)])
              for p in (41, 103, 257) for g in range(2, p)]
    groups += [(BinaryFieldParams, (4, poly), 15,
                brute_order(lambda v, poly=poly: v << 1 ^ poly * (v >> 3)),
                ["--m", "4", "--poly", hex(poly)])
               for poly in (0x13, 0x1F)]
    generators = 0
    for build, args, order, g_order, flags in groups:
        message = _check_message(build, *args)
        assert (message is None) == (g_order == order), flags
        assert message is None or "is not a generator" in message, flags
        generators += message is None
        cli = _cli_message(["oracle", *flags, "--target", "1"], capsys)
        assert cli == (None if message is None
                       else f"dlogwalk: error: {message}"), flags
        factors = prime_factors(order)
        for size in range(len(factors)):
            for short in itertools.combinations(factors, size):
                if build is PrimeGroupParams:
                    assert _check_message(build, *args, short), (flags, short)
                elif message is None:
                    assert _check_message(check_generator, build(*args),
                                          short), (flags, short)
    assert 0 < generators < len(groups)


def test_unsupported_variant_names_the_groups_variants(capsys):
    for argv, runs in (
        (["solve", "--p", "103", "--gen", "5", "--target", "84",
          "--variant", "char2"], "inverse"),                     # 3 | 102
        (["solve", "--m", "7", "--poly", "0x83", "--target", "0x1D",
          "--variant", "collatz"], "char2"),
        (["bench", "--p", "101", "--gen", "2", "--variant", "char2",
          "--trials", "3", "--seed", "0"], "inverse, collatz"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert f"it runs {runs}\n" in capsys.readouterr().err, argv


def test_solve_gf2m_verbose_hex_roundtrip(capsys):
    from dlogwalk.gf2m import BinaryFieldParams
    code, out, _ = run_cli(capsys, "solve-gf2m", "--m", "7", "--poly", "0x83",
                           "--target", "0x6B", "--choices", "0,1,1,0", "-v")
    assert code == 0
    params = BinaryFieldParams(7, 0x83)
    hex_tokens = [tok for line in out.splitlines()[2:]
                  for tok in line.split() if tok.startswith("0x")]
    assert hex_tokens
    for tok in hex_tokens:  # printed hex parses back to the identical element
        assert params.format(params.parse(tok)) == tok


def test_oracle_commands(capsys):
    assert run_cli(capsys, "oracle", "--p", "103", "--gen", "5",
                   "--target", "99")[1].strip() == "37"
    assert run_cli(capsys, "oracle", "--p", "101", "--gen", "2",
                   "--target", "72")[1].strip() == "41"
    assert run_cli(capsys, "oracle", "--m", "7", "--poly", "0x83",
                   "--target", "0x1D")[1].strip() == "38"
    # 2^4 - 1 = 15 is composite, and x generates GF(16)* mod x^4 + x + 1
    assert run_cli(capsys, "oracle", "--m", "4", "--poly", "0x13",
                   "--target", "0x3")[1].strip() == "4"
    # targets reduce mod p, as in solve
    assert run_cli(capsys, "oracle", "--p", "103", "--gen", "5",
                   "--target", "-1")[1].strip() == "51"


def test_oracle_failure_exits_one(capsys):
    # the group is valid, but its order 2^61 - 2 is past the BSGS limit
    code, out, err = run_cli(capsys, "oracle", "--p", "2305843009213693951",
                             "--gen", "37", "--target", "5")
    assert (code, out) == (1, "")
    assert err == ("oracle failed: group order 2305843009213693950 too large"
                   " for BSGS\n")
    # oracle builds its group as solve does, so an order that rho cannot
    # split is bad input: 2 * two 64-bit primes, or 2^256 - 1 with its
    # factor 2^128 + 1 (x^256 + x^10 + x^5 + x^2 + 1 is irreducible), which
    # rho would need about 2.4e8 iterations to split
    for flags in (["--p", "535535684741329881136887273182147286623",
                   "--gen", "3", "--target", "5"],
                  ["--m", "256", "--poly", hex(1 << 256 | 0x425),
                   "--target", "0x3"]):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(["oracle", *flags])
        assert time.perf_counter() - start < 1, flags
        assert info.value.code == 2, flags
        err = capsys.readouterr().err
        assert "dlogwalk: error: cannot factor " in err, flags
        assert " within 262144 iterations" in err, flags
        assert "Traceback" not in err, flags


def test_selftest_all(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "5/5 examples reproduced" in out


def test_selftest_only_collatz(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "collatz")
    assert code == 0
    assert "1/1 examples reproduced" in out
    assert "collatz: ok (n = 41)" in out


def test_selftest_unknown_example_is_usage_error(capsys):
    from dlogwalk.selftest import CASE_NAMES
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--only", "prime3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown example 'prime3'" in err
    assert all(name in err for name in CASE_NAMES)


def test_selftest_catches_corrupted_table(capsys, monkeypatch):
    import dlogwalk.bench as bench_mod
    import dlogwalk.walk as walk_mod
    real = walk_mod.build_table_one

    def corrupt(params, config=None):
        return {v: k + 1 for v, k in real(params, config).items()}

    # bench binds its own name for the table it shares across trials
    for module in (walk_mod, bench_mod):
        monkeypatch.setattr(module, "build_table_one", corrupt)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out
    # solve and bench report the broken walk as a solver failure
    for argv in (["solve", "--p", "103", "--gen", "5", "--target", "84"],
                 ["bench", "--p", "103", "--gen", "5", "--trials", "5",
                  "--seed", "1"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("solver failed: no candidate verified at ")
        assert "Traceback" not in err


def test_a_wrong_sylow_log_is_a_solver_failure(capsys, monkeypatch):
    # sqrt_mod_p refuses the wrong log 4 with its ValueError; the walk has
    # started, so solve and bench report a broken walk, not a usage error
    import dlogwalk.walk as walk_mod
    monkeypatch.setattr(walk_mod, "sylow_log", lambda x, params: 4)
    for argv in (["solve", "--p", "7340033", "--gen", "3",
                  "--target", "6971864"],
                 ["bench", "--p", "7340033", "--gen", "3", "--trials", "2",
                  "--seed", "1"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("solver failed: 4 is not the 2-Sylow log of "), argv
        assert "Traceback" not in err, argv


def test_solver_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--p", "2003", "--gen", "5",
                           "--target", "777", "--max-steps", "1",
                           "--max-restarts", "1")
    assert code == 1
    assert "no solution" in err


def test_give_up_counts_only_restarts_made(capsys):
    # one segment and no restart budget: the walk gives up without a restart
    code, _, err = run_cli(capsys, "solve", "--p", "1000000007", "--gen", "5",
                           "--target", "3", "--max-steps", "3",
                           "--max-restarts", "0")
    assert code == 1
    assert "no solution found: steps=3 restarts=0" in err


def test_scripted_exhaustion_is_solver_failure(capsys):
    code, _, err = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "99", "--choices", "0")
    assert code == 1
    assert "exhausted" in err


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["solve", "--p", "104", "--gen", "5", "--target", "84"],   # composite p
        ["solve-gf2m", "--m", "7", "--poly", "0x9B", "--target", "0x1D"],
        ["solve-gf2m", "--m", "33", "--poly", "0x200000001",
         "--target", "0x3"],                                       # reducible
        ["solve-gf2m", "--m", "3", "--poly=-0xb", "--target", "0x3"],  # negative
        ["oracle", "--target", "5"],                               # no field given
        ["oracle", "--p", "103", "--m", "7", "--poly", "0x83",
         "--target", "5"],                                         # both fields
        ["solve", "--p", "103", "--gen", "5", "--m", "7", "--poly", "0x83",
         "--target", "84"],                              # both groups, each whole
        ["bench", "--p", "103", "--gen", "5", "--trials", "3"],     # no --seed
        ["bench", "--p", "103", "--gen", "5", "--variant", "char2",
         "--trials", "3", "--seed", "0"],
        ["bench", "--p", "1009", "--gen", "11", "--variant", "collatz",
         "--trials", "3", "--seed", "0"],                          # 3 | 1008
        ["solve", "--p", "1009", "--gen", "11", "--target", "5",
         "--variant", "collatz"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--seed", "1", "--choices", "1"],                         # exclusive
        ["solve", "--p", "103", "--gen", "5", "--target", "84", "--max-steps", "0"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--d-max", "3"],                                          # removed flag
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--max-restarts", "-4"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84", "--workers", "2"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--seq", "pow2"],                                         # removed flag
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--table-size", "7"],                                     # removed flag
        ["solve-gf2m", "--m", "7", "--poly", "0x83", "--target", "0x1D",
         "--max-steps", "0"],
        ["bench", "--p", "103", "--gen", "5", "--trials", "3", "--seed", "0",
         "--table-size", "7"],                                     # removed flag
        ["bench", "--m", "7", "--poly", "0x83", "--trials", "3", "--seed", "0",
         "--d-max", "3"],                                          # removed flag
        ["solve", "--p", "1000003", "--gen", "4", "--target", "2"],  # square
        ["solve", "--p", "7340033", "--gen", "9", "--target", "5"],  # square
        ["solve", "--p", "13", "--gen", "5", "--target", "2"],       # order 4
        ["solve", "--p", "1000003", "--gen", "8", "--target", "2"],  # (p-1)/3
        ["oracle", "--p", "13", "--gen", "5", "--target", "2"],
        ["solve-gf2m", "--m", "4", "--poly", "0x1f", "--target", "0x3",
         "--max-restarts", "2"],                                   # x has order 5
        # no constant term: x^127 is not 1, so the order test refuses it
        ["solve", "--m", "7", "--poly", "0x82", "--target", "0x3"],
        # 29791 = 31^3 is a non-square, so the check's q = 2 test passes
        # it, and only q = 3 refuses it: its order divides 2013265920/3
        ["solve", "--p", "2013265921", "--gen", "29791", "--target", "31"],
        ["oracle", "--m", "6", "--poly", "0x49", "--target", "0x3"],  # x has order 9
        ["solve", "--p", "103", "--gen", "5", "--target", "0"],
        ["solve-gf2m", "--m", "7", "--poly", "0x83", "--target", "0x0"],
        ["oracle", "--p", "103", "--gen", "5", "--target", "0"],
        ["oracle", "--m", "7", "--poly", "0x83", "--target", "0"],
        ["oracle", "--m", "1", "--poly", "0x3", "--target", "0x1"],  # x not in GF(2)
        ["oracle", "--p", "103", "--gen", "5", "--target", "99",
         "--method", "bsgs"],                                      # removed flag
        ["bench", "--m", "7", "--poly", "0x83", "--variant", "collatz",
         "--trials", "3", "--seed", "0"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--variant", "char2"],
        ["solve", "--m", "7", "--poly", "0x83", "--target", "0x1D",
         "--variant", "collatz"],
        ["solve", "--target", "84"],                               # no field given
        ["solve", "--m", "7", "--poly", "0x83", "--gen", "5",
         "--target", "0x1D"],                                      # stray --gen
        ["solve", "--p", "103", "--gen", "5", "--poly", "0x83",
         "--target", "84"],                                        # stray --poly
        ["solve", "--p", "103", "--target", "84"],                 # no --gen
        ["solve", "--m", "7", "--target", "0x1D"],                 # no --poly
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--choices", "0,2"],                                      # not a bit
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--choices", "x"],                                        # not an int
        # oracle builds its group as solve does: a composite p and a
        # polynomial of the wrong degree, each far past the BSGS limit
        ["oracle", "--p", "10000000000000000", "--gen", "3", "--target", "5"],
        ["oracle", "--m", "64", "--poly", "0x3", "--target", "0x3"],
        # orders that rho cannot split within its bound: 2 * two 64-bit
        # primes, and 2^256 - 1 with its factor 2^128 + 1
        ["solve", "--p", "535535684741329881136887273182147286623",
         "--gen", "3", "--target", "5"],
        ["solve", "--m", "256", "--poly", hex(1 << 256 | 0x425),
         "--target", "0x3"],
    ):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert time.perf_counter() - start < 1, argv
        assert info.value.code == 2, argv
        capsys.readouterr()


def test_bench_writes_outputs(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "bench", "--p", "1009", "--gen", "11",
                           "--variant", "inverse", "--trials", "200",
                           "--seed", "7", "--csv", str(csv_path),
                           "--json", str(json_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 201
    assert lines[0].startswith("variant,prime_or_field")
    assert "success_rate=1.000" in out
    # the summary line prints the JSON's mean
    stats = json.loads(json_path.read_text())
    assert f" mean_steps={stats['mean_steps']:.2f} " in out


def test_bench_json_is_strict_when_no_trial_succeeds(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "bench", "--p", "1000003", "--gen", "2",
                           "--trials", "2", "--seed", "1", "--max-steps", "1",
                           "--max-restarts", "0", "--json", str(json_path))
    assert code == 0
    assert "mean_steps=nan" in out

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    stats = json.loads(json_path.read_text(), parse_constant=reject)
    assert stats["successes"] == 0 and stats["success_rate"] == 0.0
    assert stats["mean_steps"] is None
    assert stats["ratio_mean_to_sqrt_order"] is None

def test_bench_unwritable_path(tmp_path, capsys, monkeypatch):
    import dlogwalk.bench as bench_mod
    trials = []
    run_trials = bench_mod.run_trials
    monkeypatch.setattr(bench_mod, "run_trials",
                        lambda *a, **k: trials.append(a) or run_trials(*a, **k))
    # an unwritable --csv or --json is refused before the first trial
    for flag in ("--csv", "--json"):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--p", "103", "--gen", "5", "--trials", "300",
                  "--seed", "0", flag, str(tmp_path / "missing" / "out")])
        assert info.value.code == 2
        assert "cannot write output: " in capsys.readouterr().err
    assert trials == []
    # a run refused after the check leaves an existing output file as it was
    csv_path = tmp_path / "out.csv"
    csv_path.write_text("kept\n")
    with pytest.raises(SystemExit) as info:
        main(["bench", "--p", "103", "--gen", "5", "--trials", "0",
              "--seed", "0", "--csv", str(csv_path)])
    assert info.value.code == 2
    assert "trial_count must be >= 1" in capsys.readouterr().err
    assert len(trials) == 1
    assert csv_path.read_text() == "kept\n"


def test_bench_refuses_a_variant_before_opening_output(tmp_path, capsys):
    csv_path = tmp_path / "newout.csv"
    for flags, message in [
        # 3 | 1008, so collatz does not run on 1009: refused by the walk,
        # after the output check
        (["--p", "1009", "--gen", "11", "--variant", "collatz",
          "--trials", "3"], "does not run on 1009"),
        # refused by run_trials, after the output check
        (["--p", "103", "--gen", "5", "--trials", "0"],
         "trial_count must be >= 1"),
    ]:
        with pytest.raises(SystemExit) as info:
            main(["bench", *flags, "--seed", "0", "--csv", str(csv_path)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not csv_path.exists()


def test_bench_write_error_after_the_trials(tmp_path, capsys, monkeypatch):
    import dlogwalk.bench as bench_mod

    def full(stats, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(bench_mod, "write_json", full)
    csv_path = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["bench", "--p", "103", "--gen", "5", "--trials", "2",
              "--seed", "0", "--csv", str(csv_path),
              "--json", str(tmp_path / "out.json")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "dlogwalk: error: cannot write output: " in err
    assert "Traceback" not in err
    assert len(csv_path.read_text().splitlines()) == 3


def test_bench_refuses_one_path_for_csv_and_json(tmp_path, capsys,
                                                 monkeypatch):
    import dlogwalk.bench as bench_mod
    monkeypatch.setattr(bench_mod, "run_trials", None)  # no trial may run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for csv_name, json_name in [("out", "out"), ("out", "sub/../out")]:
        with pytest.raises(SystemExit) as info:
            main(["bench", "--p", "103", "--gen", "5", "--trials", "2",
                  "--seed", "0", "--csv", csv_name, "--json", json_name])
        assert info.value.code == 2
        assert "name the same file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_bench_gf2m(capsys, tmp_path):
    csv_path = tmp_path / "gf.csv"
    code, out, _ = run_cli(capsys, "bench", "--m", "7", "--poly", "0x83",
                           "--trials", "10", "--seed", "1",
                           "--csv", str(csv_path))
    assert code == 0
    assert "gf2^7/0x83" in csv_path.read_text()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_selftest_each_case_via_cli(capsys, case):
    code, out, _ = run_cli(capsys, "selftest", "--only", case.name)
    assert code == 0
    assert f"n = {case.n}" in out


def _readme_cli_lines():
    """Each `dlogwalk ...` command in README's `## CLI` sh block, with its
    backslash continuations joined and its comments dropped, as argv."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("\n```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in commands if argv and argv[0] == "dlogwalk"]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # bench writes out.csv and out.json here
    commands = _readme_cli_lines()
    assert len(commands) >= 10
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
        capsys.readouterr()


# argv for the fuzz test below: a command with what it requires (or not),
# maybe another group (valid, bad or partial), then walk flags, then maybe
# one bad flag; the bad pool holds bad values, stray and dangling tokens and
# the removed flags --d-max, --table-size, --seq and --method
_FUZZ_PROBLEMS = (
    ("--p", "103", "--gen", "5", "--target", "84"),
    ("--p", "101", "--gen", "2", "--target", "72"),
    ("--p", "2003", "--gen", "5", "--target", "777"),
    ("--m", "7", "--poly", "0x83", "--target", "0x1D"),
    ("--m", "13", "--poly", "0x201B", "--target", "0x1234"),
)
_FUZZ_REQUIRED = {
    "solve": ((), ("--target", "5"), *_FUZZ_PROBLEMS),
    "oracle": ((), *_FUZZ_PROBLEMS),
    "bench": ((), ("--trials", "2"),
              *(("--trials", "2", "--seed", "0", *problem[:4])
                for problem in _FUZZ_PROBLEMS)),
    "selftest": ((), ("--only", "prime1"), ("--only", "collatz")),
    "nope": ((),),
}
_FUZZ_REQUIRED["solve-gf2m"] = _FUZZ_REQUIRED["solve"]
_FUZZ_GROUPS = (
    ("--p", "103", "--gen", "5"), ("--m", "7", "--poly", "0x83"),
    ("--p", "104", "--gen", "5"), ("--p", "13", "--gen", "5"),
    ("--p", "103", "--gen", "25"), ("--m", "4", "--poly", "0x1f"),
    ("--m", "7", "--poly", "0x9B"), ("--m", "7", "--poly", "zz"),
)
# flags of solve or bench, then flags that are bad for every command or most
_FUZZ_WALK_FLAGS = (
    ("--variant", "inverse"), ("--variant", "collatz"), ("--variant", "char2"),
    ("--max-steps", "3"), ("--max-restarts", "1"), ("--seed", "1"),
    ("--choices", "1"), ("--choices", "0,1,1,1"), ("-v",), ("--timing",),
)
_FUZZ_BAD_FLAGS = (
    ("--target", "-3"), ("--target", "x"), ("--target",), ("--p", "101"),
    ("--gen", "4"), ("--m", "1"), ("--poly", "0x3"), ("--variant", "pollard"),
    ("--max-steps", "0"), ("--max-steps", "x"), ("--max-restarts", "-1"),
    ("--seed", "x"), ("--seed",), ("--choices", "0,2"), ("--choices", "x"),
    ("--trials", "0"), ("--only", "prime1"), ("--only", "nope"),
    ("--d-max", "3"), ("--table-size", "7"), ("--seq", "pow2"),
    ("--method", "bsgs"), ("--workers", "2"), ("--",), ("stray",),
)
# every solve and bench walks at most 3 segments of 60 steps: a drawn
# --max-steps or --max-restarts comes later, so it wins, and is smaller
_FUZZ_CAPS = ("--max-steps", "60", "--max-restarts", "2")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_FUZZ_REQUIRED)).flatmap(
           lambda c: st.tuples(st.just(c), st.sampled_from(_FUZZ_REQUIRED[c]))),
       st.one_of(st.just(()), st.sampled_from(_FUZZ_GROUPS)),
       st.lists(st.sampled_from(_FUZZ_WALK_FLAGS), max_size=3),
       st.one_of(st.just(()), st.sampled_from(_FUZZ_BAD_FLAGS)))
def test_cli_fuzz_exits_zero_one_or_two(command_required, group, walk_flags,
                                        bad_flag):
    command, required = command_required
    caps = _FUZZ_CAPS if command in ("solve", "solve-gf2m", "bench") else ()
    argv = [command, *caps, *required, *group,
            *itertools.chain.from_iterable(walk_flags), *bad_flag]
    out = io.StringIO()
    # any exception but SystemExit fails the test with its traceback
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if command.startswith("solve") and code == 0:
        # a solve that exits 0 prints a verified n first: g^n = target
        args = build_parser().parse_args(argv)
        params = _params(args)
        n = int(out.getvalue().splitlines()[0])
        assert params.pow(params.generator, n) == params.parse(args.target), argv
