import json
import time

import pytest

from dlogwalk.cli import main
from dlogwalk.selftest import CASES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_worked_example(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "84", "--table-size", "7",
                           "--seq", "pow2", "--choices", "1")
    assert code == 0
    assert out.splitlines()[0] == "29"


def test_solve_immediate_hit(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "5")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_solve_verbose_trace(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "103", "--gen", "5",
                           "--target", "84", "--table-size", "7",
                           "--choices", "1", "-v")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "29"
    assert any("26,77" in line and "77" in line for line in lines)
    assert any("(n-3)/2" in line for line in lines)


def test_solve_collatz(capsys):
    code, out, _ = run_cli(capsys, "solve", "--p", "101", "--gen", "2",
                           "--target", "72", "--variant", "collatz",
                           "--table-size", "7", "--choices", "1,0,1")
    assert code == 0
    assert out.splitlines()[0] == "41"


def test_solve_gf2m_worked_example(capsys):
    code, out, _ = run_cli(capsys, "solve-gf2m", "--m", "7", "--poly", "0x83",
                           "--target", "0x1D", "--choices", "0,1,1,1")
    assert code == 0
    assert out.splitlines()[0] == "38"


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
                   "--target", "99", "--method", "bsgs")[1].strip() == "37"
    assert run_cli(capsys, "oracle", "--p", "101", "--gen", "2",
                   "--target", "72", "--method", "brute")[1].strip() == "41"
    assert run_cli(capsys, "oracle", "--m", "7", "--poly", "0x83",
                   "--target", "0x1D", "--method", "bsgs")[1].strip() == "38"
    # 2^4 - 1 = 15 is composite, and x generates GF(16)* mod x^4 + x + 1
    assert run_cli(capsys, "oracle", "--m", "4", "--poly", "0x13",
                   "--target", "0x3", "--method", "bsgs")[1].strip() == "4"
    for method in ("brute", "bsgs"):  # targets reduce mod p, as in solve
        assert run_cli(capsys, "oracle", "--p", "103", "--gen", "5",
                       "--target", "-1", "--method", method)[1].strip() == "51"


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
    import dlogwalk.walk as walk_mod
    real = walk_mod.build_table_one

    def corrupt(params, config):
        return {v: k + 1 for v, k in real(params, config).items()}

    monkeypatch.setattr(walk_mod, "build_table_one", corrupt)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out


def test_solver_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--p", "2003", "--gen", "5",
                           "--target", "777", "--max-steps", "1",
                           "--max-restarts", "1", "--table-size", "0")
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
        ["oracle", "--method", "bsgs", "--target", "5"],           # no field given
        ["oracle", "--p", "103", "--m", "7", "--poly", "0x83",
         "--target", "5", "--method", "bsgs"],                     # both fields
        ["bench", "--p", "103", "--gen", "5", "--variant", "char2",
         "--trials", "3", "--seed", "0"],
        ["bench", "--p", "1009", "--gen", "11", "--variant", "collatz",
         "--trials", "3", "--seed", "0"],                          # 3 | 1008
        ["solve", "--p", "1009", "--gen", "11", "--target", "5",
         "--variant", "collatz"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--seed", "1", "--choices", "1"],                         # exclusive
        ["solve", "--p", "103", "--gen", "5", "--target", "84", "--max-steps", "0"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84", "--table-size", "-1"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84", "--d-max", "0"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84",
         "--max-restarts", "-4"],
        ["solve", "--p", "103", "--gen", "5", "--target", "84", "--workers", "2"],
        ["solve-gf2m", "--m", "7", "--poly", "0x83", "--target", "0x1D",
         "--max-steps", "0"],
        ["bench", "--p", "103", "--gen", "5", "--trials", "3", "--seed", "0",
         "--table-size", "-1"],
        ["bench", "--m", "7", "--poly", "0x83", "--trials", "3", "--seed", "0",
         "--d-max", "0"],
        ["solve", "--p", "1000003", "--gen", "4", "--target", "2"],  # square
        ["solve", "--p", "7340033", "--gen", "9", "--target", "5"],  # square
        ["solve", "--p", "13", "--gen", "5", "--target", "2"],       # order 4
        ["solve", "--p", "1000003", "--gen", "8", "--target", "2"],  # (p-1)/3
        ["oracle", "--method", "bsgs", "--p", "13", "--gen", "5", "--target", "2"],
        ["solve-gf2m", "--m", "4", "--poly", "0x1f", "--target", "0x3",
         "--max-restarts", "2"],                                   # x has order 5
        ["oracle", "--method", "bsgs", "--m", "6", "--poly", "0x49",
         "--target", "0x3"],                                       # x has order 9
        ["solve", "--p", "103", "--gen", "5", "--target", "0"],
        ["solve-gf2m", "--m", "7", "--poly", "0x83", "--target", "0x0"],
        ["oracle", "--p", "103", "--gen", "5", "--target", "0", "--method", "brute"],
        ["oracle", "--m", "7", "--poly", "0x83", "--target", "0", "--method", "bsgs"],
        ["oracle", "--m", "1", "--poly", "0x3", "--target", "0x1",
         "--method", "bsgs"],                                      # x not in GF(2)
        ["bench", "--m", "7", "--poly", "0x83", "--variant", "collatz",
         "--trials", "3", "--seed", "0"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


def test_table_size_beyond_the_order_fails_fast(capsys):
    # every Table I entry past the group order repeats one before it
    for argv in (
        ["solve", "--p", "103", "--gen", "5", "--target", "7",
         "--table-size", "20000"],
        ["solve-gf2m", "--m", "7", "--poly", "0x83", "--target", "0x1D",
         "--table-size", "3000"],
        ["bench", "--p", "103", "--gen", "5", "--trials", "2", "--seed", "0",
         "--table-size", "103"],
    ):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert time.perf_counter() - t0 < 1.0, argv
        assert info.value.code == 2, argv
        assert "exceeds the group order" in capsys.readouterr().err


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
    assert json_path.exists()


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

def test_bench_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bench", "--p", "103", "--gen", "5",
                           "--trials", "2", "--seed", "0",
                           "--csv", str(tmp_path / "missing" / "out.csv"))
    assert code == 2
    assert "cannot write" in err


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
