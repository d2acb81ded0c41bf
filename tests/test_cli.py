import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ln_kit import cli
from ln_kit.solver import ProofTrace


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_solve_json_lines(capsys):
    code, out = run_cli(
        capsys, "solve", "--k", "0", "--n-max", "30", "--x-max", "10000"
    )
    assert code == 0
    lines = parse_lines(out)
    sols = [l for l in lines if l["kind"] == "solution"]
    assert [(l["x"], l["y"], l["n"]) for l in sols] == [("9", "5", 2), ("559", "5", 7)]
    summary = lines[-1]
    assert summary["kind"] == "trace_summary"
    assert summary["oracle_checked"] is True


def test_solve_deterministic_bytes(capsys):
    _, first = run_cli(capsys, "solve", "--k", "0", "--n-max", "10", "--x-max", "1000")
    _, second = run_cli(capsys, "solve", "--k", "0", "--n-max", "10", "--x-max", "1000")
    assert first == second


def test_solve_trace_lines_replayable(capsys):
    for k in (0, 7):
        code, out = run_cli(capsys, "solve", "--k", str(k), "--skip-oracle", "--trace")
        assert code == 0
        lines = parse_lines(out)
        steps = [l for l in lines if l["kind"] == "trace_step"]
        trace = ProofTrace.from_jsonable({"k": k, "n_max": 30, "steps": steps})
        assert len(trace.steps) == lines[-1]["steps"]
        ops = {s.op for s in trace.steps}
        assert {"even_case", "bhv_gate", "no_19z2_solutions"} <= ops
        assert trace.replay() == []
    # at k = 7 the inputs X, Y exceed 2^53 and arrive as decimal strings
    assert any(isinstance(v, str) for s in trace.steps for v in s.inputs.values())


def test_solve_trace_bytes_pinned(capsys):
    # the same digest is recorded for this command in perfbench/golden.json
    code, out = run_cli(capsys, "solve", "--k", "7", "--skip-oracle", "--trace")
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "47468d440c430da9267636f7e35d9042ce047c6af48bd9018b0b0d51084fefe2"
    )


GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)

# the commands whose stdout digests perfbench/golden.json records
GOLDEN_COMMANDS = {
    "classnum": "classnum --disc -19",
    "lucas": "lucas --p 1 --q 5 --n 7",
    "primdiv": "primdiv --p 1 --q 5 --n 13",
    "family": "family --k 7 --kind all",
    "oracle": "oracle --d 7 --lam 1 --n-min 2 --n-max 15 --x-max 1000000",
    "solve": "solve --k 7 --skip-oracle --trace",
    "verify": "verify --k 1 --x-max 100000",
}


def test_golden_commands_cover_the_golden_file():
    assert set(GOLDEN_COMMANDS) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden_digest(capsys, name):
    code, out = run_cli(capsys, *GOLDEN_COMMANDS[name].split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("argv", ["solve --k 3000", "solve --k 0 --n-max 100000"])
def test_solve_over_step_budget_exit_2(capsys, argv):
    start = time.perf_counter()
    assert cli.main([*argv.split(), "--skip-oracle"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "step budget" in captured.err


def test_solve_has_no_budget_flag(capsys):
    # the factoring budget is solver-wide (lucas_engine.FACTORING_BUDGET)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--k", "0", "--budget", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_k3000_window_ends_in_seconds(capsys, command):
    # no y-window holds a candidate: the cost is the root work, plus the
    # theorem set for verify
    start = time.perf_counter()
    code, out = run_cli(capsys, command, "--k", "3000")
    assert code == 0
    assert time.perf_counter() - start < 10.0
    if command == "verify":
        assert parse_lines(out)[0]["ok"] is True
    else:
        assert out == ""


def test_verify_k10000_builds_no_member_above_x_max(capsys):
    # every n2 member has x >= 9 * 19^k, so none is built at this k
    start = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--k", "10000")
    assert code == 0
    assert time.perf_counter() - start < 10.0
    (report,) = parse_lines(out)
    assert report["ok"] is True
    assert report["oracle"] == report["theorem"] == []


def test_solve_skip_oracle(capsys):
    code, out = run_cli(capsys, "solve", "--k", "7", "--n-max", "7", "--skip-oracle")
    assert code == 0
    lines = parse_lines(out)
    assert lines[-1]["oracle_checked"] is False
    assert sum(1 for l in lines if l["kind"] == "solution") == 9


def test_oracle_command(capsys):
    code, out = run_cli(
        capsys, "oracle", "--k", "1", "--n-min", "2", "--n-max", "10", "--x-max", "10000"
    )
    assert code == 0
    sols = parse_lines(out)
    assert [(l["x"], l["n"]) for l in sols] == [("171", 2), ("3429", 2)]


def test_oracle_generalized(capsys):
    code, out = run_cli(
        capsys,
        "oracle", "--d", "2", "--lam", "1", "--n-min", "3", "--n-max", "3",
        "--x-max", "100",
    )
    assert code == 0
    assert parse_lines(out) == [
        {"kind": "triple", "d": 2, "lam": 1, "x": "5", "y": "3", "n": 3}
    ]


def test_oracle_requires_k_or_generalized_pair(capsys):
    for argv in (
        ["oracle", "--n-max", "5"],
        ["oracle", "--d", "7", "--n-max", "5"],
        ["oracle", "--k", "1", "--d", "7", "--lam", "1", "--n-max", "5"],
    ):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == "" and err_text.count("\n") == 1, argv


def test_family_command(capsys):
    code, out = run_cli(capsys, "family", "--k", "1", "--kind", "n2", "--t", "1")
    assert code == 0
    assert parse_lines(out)[0]["x"] == "171"
    code, out = run_cli(capsys, "family", "--k", "0", "--kind", "all")
    assert code == 0
    assert len(parse_lines(out)) == 2


def test_family_rejects_out_of_range_parameter(capsys):
    code = cli.main(["family", "--k", "0", "--kind", "n2", "--t", "5"])
    assert code == 2
    for args in (
        ["--k", "3", "--kind", "n7", "--m", "1"],
        ["--k", "3", "--kind", "n2", "--t", "-1"],
    ):
        assert cli.main(["family", *args]) == 2, args
    # a missing parameter is a usage error before any member is built
    for args in (["--k", "3", "--kind", "n1"], ["--k", "7", "--kind", "n7"]):
        with pytest.raises(SystemExit) as err:
            cli.main(["family", *args])
        assert err.value.code == 2, args
    assert capsys.readouterr().out == ""


def test_lucas_command(capsys):
    code, out = run_cli(capsys, "lucas", "--p", "1", "--q", "5", "--n", "7")
    assert code == 0
    assert parse_lines(out) == [
        {"kind": "lucas_u", "p": 1, "q": 5, "n": 7, "u_n": "1"}
    ]


def test_lucas_negative_index_exit_2(capsys):
    # u_{-3} = -u_3 / Q^3 = 4/125 for (P, Q) = (1, 5): not an integer
    assert cli.main(["lucas", "--p", "1", "--q", "5", "--n", "-3"]) == 2
    assert capsys.readouterr().out == ""


def test_lucas_past_the_digit_limit_exit_2(capsys):
    # refused by lucas_u itself, in the words the CLI's own check used
    assert cli.main(["lucas", "--p", "1", "--q", "5", "--n", str(10**12)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "ln-kit: u_n would have about 349485002168 digits, over the 4300-digit "
        "limit of int-to-str conversion (sys.get_int_max_str_digits())\n"
    )


def test_oracle_n_min_below_2_exit_2(capsys):
    # n = 1 has infinitely many solutions; without the check this scans ~10^14 y
    argv = ["oracle", "--d", "7", "--lam", "1", "--n-min", "1", "--n-max", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


def test_oracle_over_scan_budget_exit_2(capsys):
    argv = ["oracle", "--d", "7", "--lam", "2", "--n-min", "2", "--n-max", "2"]
    assert cli.main([*argv, "--x-max", str(10**12)]) == 2
    assert capsys.readouterr().out == ""
    code, out = run_cli(capsys, "oracle", "--d", "7", "--lam", "1",
                        "--n-min", "2", "--n-max", "2", "--x-max", str(10**12))
    assert code == 0
    assert out == '{"d":7,"kind":"triple","lam":1,"n":2,"x":"3","y":"4"}\n'


def test_verify_k7_default_window(capsys):
    # no member of k = 7 has x <= 10^7: both sides are empty and agree
    code, out = run_cli(capsys, "verify", "--k", "7")
    assert code == 0
    (report,) = parse_lines(out)
    assert report["ok"] is True
    assert report["oracle"] == [] and report["theorem"] == []


def test_primdiv_command(capsys):
    code, out = run_cli(capsys, "primdiv", "--p", "1", "--q", "5", "--n", "13")
    assert code == 0
    line = parse_lines(out)[0]
    assert line["exists"] is True
    assert line["witness"] == "15679"
    assert line["indeterminate"] is False


def test_primdiv_indeterminate_surfaced_exit_zero(capsys):
    code, out = run_cli(
        capsys, "primdiv", "--p", "2", "--q", "9", "--n", "61", "--budget", "0"
    )
    assert code == 0
    line = parse_lines(out)[0]
    assert line["indeterminate"] is True
    assert line["exists"] is False


def test_classnum_command(capsys):
    code, out = run_cli(capsys, "classnum", "--disc", "-19")
    assert code == 0
    line = parse_lines(out)[0]
    assert line["h"] == 1
    assert line["forms"] == [[1, 1, 5]]


@pytest.mark.parametrize(
    "disc, line",
    [
        (-23, '{"disc":-23,"forms":[[1,1,6],[2,-1,3],[2,1,3]],"h":3,"kind":"class_number"}'),
        (
            -47,
            '{"disc":-47,"forms":[[1,1,12],[2,-1,6],[2,1,6],[3,-1,4],[3,1,4]],'
            '"h":5,"kind":"class_number"}',
        ),
    ],
)
def test_classnum_rows_pinned(capsys, disc, line):
    code, out = run_cli(capsys, "classnum", "--disc", str(disc))
    assert code == 0
    assert out == line + "\n"


def test_verify_command_exit_codes(capsys, monkeypatch):
    code, out = run_cli(capsys, "verify", "--k", "0", "--x-max", "10000")
    assert code == 0
    assert parse_lines(out)[0]["ok"] is True

    import ln_kit.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "verify_solution_completeness", lambda k, w: (False, {"ok": False})
    )
    code, out = run_cli(capsys, "verify", "--k", "0", "--x-max", "1000")
    assert code == 1


def test_solve_oracle_mismatch_exit_1(capsys, monkeypatch):
    import ln_kit.solver as solver_mod

    brute_force = solver_mod.brute_force
    # the oracle loses (9, 5, 2), which the proof side still finds
    monkeypatch.setattr(solver_mod, "brute_force", lambda w: brute_force(w)[1:])
    code, out = run_cli(capsys, "solve", "--k", "0", "--x-max", "1000")
    assert code == 1
    assert parse_lines(out) == [
        {
            "k": 0,
            "kind": "oracle_mismatch",
            "oracle_only": [],
            "pipeline_only": [["9", "5", "2"]],
        }
    ]


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve"])  # missing --k
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_format_flag_is_gone(capsys):
    # JSON lines are the only output
    with pytest.raises(SystemExit) as err:
        cli.main(["--format", "text", "lucas", "--p", "1", "--q", "5", "--n", "7"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_classnum_bad_disc_exit_2(capsys):
    assert cli.main(["classnum", "--disc", "-5"]) == 2


def test_echoed_flags_are_strings_from_2_53(capsys):
    d, lam, p = str(2**60), str(2**60 + 1), str(10**20)
    # 1 + D = lam * 1^n: one triple for each n of the window
    _, out = run_cli(capsys, "oracle", "--d", d, "--lam", lam, "--x-max", "1")
    assert parse_lines(out)[0] == {
        "kind": "triple", "d": d, "lam": lam, "n": 2, "x": "1", "y": "1"
    }
    _, out = run_cli(capsys, "lucas", "--p", p, "--q", "1", "--n", "1")
    assert parse_lines(out) == [{"kind": "lucas_u", "p": p, "q": 1, "n": 1, "u_n": "1"}]
    # u_2 = P = 2^20 * 5^20; 2 divides P^2 - 4Q and 5 does not
    _, out = run_cli(capsys, "primdiv", "--p", p, "--q", "1", "--n", "2")
    (row,) = parse_lines(out)
    assert (row["p"], row["q"], row["witness"]) == (p, 1, "5")


def test_family_row_echoes_its_param_as_a_string_from_2_53(capsys):
    t = str(2**53 + 1)
    _, out = run_cli(capsys, "family", "--k", "0", "--kind", "n1", "--t", t)
    (row,) = parse_lines(out)
    assert (row["family"], row["param"], row["k"]) == ("n1", t, 0)


def test_verify_window_echoes_n_as_a_string_from_2_53(capsys):
    n = str(10**17)
    _, out = run_cli(capsys, "verify", "--k", "0", "--n-min", n, "--n-max", n)
    (row,) = parse_lines(out)
    assert row["window"] == {"n_min": n, "n_max": n, "x_max": "10000000"}
    assert row["ok"] is True


@pytest.mark.parametrize("form", [["--k", "0"], ["--d", "7", "--lam", "1"]])
def test_both_oracle_forms_refuse_a_bad_window_alike(capsys, form):
    assert cli.main(["oracle", *form, "--n-min", "1"]) == 2
    assert capsys.readouterr().err == "ln-kit: n_min must be at least 2, got 1\n"


def loaded_submodules(statement):
    """The ln_kit submodules a fresh interpreter holds after statement, a
    one-line statement whose own stdout is discarded."""
    code = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ln_kit.'))))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_only_what_is_named():
    # the package re-exports nothing, so a module loads only its own imports
    assert loaded_submodules("import ln_kit") == []
    assert loaded_submodules("import ln_kit.lucas_engine") == ["ln_kit.lucas_engine"]


def test_cli_import_loads_no_solver():
    assert loaded_submodules("import ln_kit.cli") == [
        "ln_kit.cli",
        "ln_kit.equation_model",
        "ln_kit.lucas_engine",
        "ln_kit.oracle",
        "ln_kit.quadratic_integers",
    ]


@pytest.mark.parametrize(
    "command",
    [
        "lucas --p 1 --q 5 --n 13",
        "primdiv --p 1 --q 5 --n 13",
        "classnum --disc -19",
        "family --k 0 --kind all",
        "oracle --d 7 --lam 1",
        "solve --k 0 --skip-oracle",
        "verify --k 0",
    ],
)
def test_only_solve_and_verify_load_the_solver(command):
    argv = command.split()
    loaded = set(loaded_submodules(f"from ln_kit.cli import main; main({argv!r})"))
    solver = {"ln_kit.solver", "ln_kit.caseworks"}
    if argv[0] in ("solve", "verify"):
        assert solver <= loaded
    else:
        assert not solver & loaded


def test_cli_has_only_the_solver_names_it_looks_up():
    import ln_kit.solver as solver_mod

    assert getattr(cli, "no_such_name", None) is None
    assert getattr(cli, "ProofTrace", None) is None
    assert cli.solve is solver_mod.solve


def test_solve_command_runs_a_stand_in_bound_on_the_module(capsys, monkeypatch):
    calls = []

    def stand_in(k, n_max, x_max, cross_check):
        calls.append((k, n_max, x_max, cross_check))
        return [], ProofTrace(k=k, n_max=n_max)

    monkeypatch.setattr(cli, "solve", stand_in)
    code, out = run_cli(capsys, "solve", "--k", "3", "--skip-oracle")
    assert code == 0
    assert calls == [(3, 30, 10**7, False)]
    assert parse_lines(out) == [
        {
            "k": 3,
            "kind": "trace_summary",
            "oracle_checked": False,
            "solutions": 0,
            "steps": 0,
        }
    ]
