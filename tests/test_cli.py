import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import get_problem, read_trace_header, run_f2ba

BIPEN = [sys.executable, "-m", "bipen"]


def run_cli(*args, env_extra=None, timeout=120):
    # conftest has cleared the caller's BIPEN_<KEY> settings from os.environ
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run(BIPEN + list(args), capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_list_problems_names_the_registry():
    r = run_cli("list-problems")
    assert r.returncode == 0
    for name in ("kernel_pl", "quadratic_sc", "hard_instance", "degenerate_penalty"):
        assert name in r.stdout


def test_list_problems_verbose_shows_constants():
    r = run_cli("list-problems", "--verbose")
    assert r.returncode == 0 and "mu=" in r.stdout


def test_run_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("run", "--problem", "kernel_pl", "--epsilon", "0.1",
            "--set", "T=25")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("# problem = kernel_pl\n")
    assert "t,hypergrad_norm_est" in text


def test_run_header_replays_the_run(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.07",
                "--set", "T=12", "--out", str(out1))
    assert r.returncode == 0
    header = read_trace_header(str(out1))
    sets = [f"{k}={header[k]}"
            for k in ("eta", "sigma", "tau", "K", "T", "B", "delta0",
                      "Delta", "R")]
    args = ["run", "--problem", header["problem"], "--epsilon",
            header["epsilon"], "--out", str(out2)]
    for s in sets:
        args += ["--set", s]
    assert run_cli(*args).returncode == 0
    # identical resolved plans give identical data rows
    data1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    data2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert data1 == data2


def test_run_summary_line_on_stdout():
    r = run_cli("run", "--problem", "quadratic_sc", "--epsilon", "0.1",
                "--set", "T=10")
    assert r.returncode == 0
    assert "quadratic_sc" in r.stdout and "f2ba" in r.stdout


def test_divergent_run_exits_three_with_a_witness():
    # tau = 5 makes both inner sequences grow geometrically; the run's fixed
    # divergence radius stops it instead of letting it finish at 8.7e9
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.1",
                "--set", "tau=5", "--set", "T=5")
    assert r.returncode == 3, r.stderr
    assert "error (convergence): outer step 3: z-sequence" in r.stderr
    assert "(norm 2.28e+06)" in r.stderr


def test_unknown_problem_is_a_config_error():
    r = run_cli("run", "--problem", "nope", "--epsilon", "0.1")
    assert r.returncode == 2 and "error (config)" in r.stderr


def test_bad_setting_key_is_a_config_error():
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.1",
                "--set", "bogus=3")
    assert r.returncode == 2 and "bogus" in r.stderr


@pytest.mark.parametrize("args,field", [
    (("--epsilon", "0.1", "--set", "eta=0"), "T"),
    (("--epsilon", "0.1", "--set", "eta=nan"), "T"),
    (("--epsilon", "0.1", "--set", "delta0=nan"), "T"),
    (("--epsilon", "0.1", "--set", "delta0=inf"), "T"),
    (("--epsilon", "0.1", "--set", "c_eta=1e-320"), "T"),
    (("--epsilon", "0.1", "--set", "sigma=1e-320"), "K"),
    (("--epsilon", "1e-170"), "T"),
    (("--algorithm", "f2bsa", "--epsilon", "0.1", "--set", "sigma=1e-200"), "B"),
    (("--algorithm", "f2bsa", "--epsilon", "1e-170", "--set", "T=1", "--set", "K=1",
      "--set", "B=1"), "K_t"),
])
def test_a_schedule_that_cannot_be_computed_exits_two(capsys, args, field):
    # exit 1 means a failed certification; these once exited 1 with a bare
    # ZeroDivisionError, ValueError or OverflowError
    from bipen.cli import main

    problem = "kernel_pl_fnoise" if "f2bsa" in args else "kernel_pl"
    assert main(["run", "--problem", problem, *args]) == 2
    err = capsys.readouterr().err
    # K_t is computed during the run, so its plan is announced first
    if field == "K_t":
        assert err.startswith("plan: epsilon=1e-170 T=1 K=1 B=1\n"), err
        err = err.split("\n", 1)[1]
    assert err.startswith(f"error (config): plan {field} is not computable from "), err
    assert err.count("\n") == 1, err


def test_run_announces_its_plan_before_the_run(capsys):
    # a plan of 9.2e11 fused calls (sin_sq_pl at eps 0.1) once ran silently
    from bipen.cli import main, plan_from_args

    suite = get_problem("kernel_pl")
    plan = plan_from_args(suite, 0.1, {})
    trace = run_f2ba(suite.problem, plan)
    assert (plan.T, plan.K, plan.B, trace.total_oracle_calls) == (150, 3, 0, 1350)
    assert main(["run", "--problem", "kernel_pl", "--epsilon", "0.1"]) == 0
    out = capsys.readouterr()
    assert out.err == "plan: epsilon=0.1 T=150 K=3 B=0, 1,350 fused calls\n"
    assert "calls=1350" in out.out
    # sweep-slope announces each epsilon's plan; f2bsa's calls depend on K_t
    assert main(["sweep-slope", "--problem", "kernel_pl_fnoise", "--algorithm", "f2bsa",
                 "--epsilons", "0.5,0.4,0.3", "--set", "T=2"]) == 0
    err = capsys.readouterr().err.splitlines()
    plans = [plan_from_args(get_problem("kernel_pl_fnoise"), eps, {"T": 2})
             for eps in (0.5, 0.4, 0.3)]
    assert err == [f"plan: epsilon={p.epsilon:g} T=2 K={p.K} B={p.B}" for p in plans]


def test_a_plan_that_skips_the_failing_formula_still_runs(capsys):
    from bipen.cli import main

    assert main(["run", "--problem", "kernel_pl", "--epsilon", "1e-170",
                 "--set", "T=1"]) == 0
    assert "kernel_pl f2ba eps=1e-170" in capsys.readouterr().out


def test_nonpositive_epsilon_is_a_config_error():
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "-0.1")
    assert r.returncode == 2


def test_degenerate_problem_exits_three_quickly():
    r = run_cli("run", "--problem", "degenerate_penalty", "--epsilon", "0.1",
                timeout=30)
    assert r.returncode == 3
    assert "unbounded below" in r.stderr


def test_discontinuous_problem_is_a_capability_refusal():
    r = run_cli("run", "--problem", "discontinuous", "--epsilon", "0.1")
    assert r.returncode == 5 and "error (capability)" in r.stderr


def test_env_var_sets_schedule_and_cli_flag_wins(tmp_path):
    out = tmp_path / "t.csv"
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.1",
                "--out", str(out), env_extra={"BIPEN_T": "5"})
    assert r.returncode == 0 and read_trace_header(str(out))["T"] == "5"
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.1",
                "--set", "T=7", "--out", str(out), env_extra={"BIPEN_T": "5"})
    assert r.returncode == 0 and read_trace_header(str(out))["T"] == "7"


def test_config_file_respected_and_validated(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nK = 4\n")
    out = tmp_path / "t.csv"
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.1",
                "--config", str(cfg), "--set", "T=6", "--out", str(out))
    assert r.returncode == 0 and read_trace_header(str(out))["K"] == "4"
    cfg.write_text("K = 4\nwhat = 9\n")
    r = run_cli("run", "--problem", "kernel_pl", "--epsilon", "0.1",
                "--config", str(cfg))
    assert r.returncode == 2 and "line 2" in r.stderr


def test_certify_hard_passes_and_probe_fails(tmp_path):
    out = tmp_path / "cert.csv"
    r = run_cli("certify-hard", "--T", "4", "--K", "3", "--out", str(out))
    assert r.returncode == 0 and "overall: PASS" in r.stdout
    assert "adapter,T,K,q" in out.read_text().splitlines()[0]
    r = run_cli("certify-hard", "--T", "4", "--K", "3", "--adapter", "probe")
    assert r.returncode == 1 and "overall: FAIL" in r.stdout


def test_sweep_slope_reports_a_slope():
    r = run_cli("sweep-slope", "--problem", "kernel_pl",
                "--epsilons", "0.5,0.4,0.3", "--set", "T=20")
    assert r.returncode == 0 and "slope" in r.stdout


def test_sweep_slope_needs_three_epsilons():
    r = run_cli("sweep-slope", "--problem", "kernel_pl",
                "--epsilons", "0.5,0.4")
    assert r.returncode == 2


def test_sweep_slope_refuses_a_single_epsilon_before_any_run():
    # a fit through one epsilon used to print "slope ... 1.5652" and exit 0
    r = run_cli("sweep-slope", "--problem", "kernel_pl",
                "--epsilons", "0.1,0.1,0.1", "--expect-slope", "1.5")
    assert r.returncode == 2 and "distinct epsilons" in r.stderr
    assert r.stdout == ""


def test_sweep_slope_rejects_zero_seeds():
    r = run_cli("sweep-slope", "--problem", "kernel_pl",
                "--epsilons", "0.5,0.4,0.3", "--seeds", "0")
    assert r.returncode == 2 and "--seeds" in r.stderr
    assert "Warning" not in r.stderr


def test_sweep_slope_expectation_gate():
    r = run_cli("sweep-slope", "--problem", "kernel_pl",
                "--epsilons", "0.5,0.4,0.3", "--set", "T=20",
                "--expect-slope", "9.0", "--slope-tol", "0.1")
    assert r.returncode == 1


@pytest.mark.parametrize("args", [
    ("run", "--problem", "kernel_pl", "--epsilon", "0.1", "--out", "{missing}/x.csv"),
    ("run", "--problem", "kernel_pl", "--epsilon", "0.1", "--out", "{tmp}"),
    ("certify-hard", "--T", "2", "--K", "2", "--out", "{missing}/x.csv"),
])
def test_an_unwritable_out_path_exits_two_before_the_run(tmp_path, args):
    # each used to finish its run, print it, then die with a traceback (exit 1)
    paths = {"missing": str(tmp_path / "missing"), "tmp": str(tmp_path)}
    r = run_cli(*(a.format(**paths) for a in args))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error (config): --out ") and r.stderr.count("\n") == 1


def test_an_out_dir_that_is_a_file_exits_two_before_the_sweep(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    r = run_cli("sweep-slope", "--problem", "kernel_pl", "--epsilons", "0.5,0.4,0.3",
                "--set", "T=20", "--out-dir", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error (config): --out-dir ") and r.stderr.count("\n") == 1


@pytest.mark.parametrize("option,value", [
    ("--slope-tol", "-1"), ("--slope-tol", "nan"), ("--slope-tol", "inf"),
    ("--expect-slope", "-2"), ("--expect-slope", "nan"), ("--expect-slope", "inf"),
])
def test_a_negative_or_non_finite_slope_gate_exits_two_before_the_sweep(option, value):
    # --expect-slope 2 --slope-tol -1 used to run the sweep and print
    # "expected 2 +/- -1: FAIL" (exit 1)
    gate = {"--expect-slope": "2", "--slope-tol": "0.5", option: value}
    r = run_cli("sweep-slope", "--problem", "kernel_pl", "--epsilons", "0.5,0.4,0.3",
                "--set", "T=20", *(a for kv in gate.items() for a in kv))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"error (config): {option} ") and r.stderr.count("\n") == 1


def test_a_write_that_fails_is_a_config_error_naming_the_option(tmp_path):
    from bipen import cli
    from bipen.errors import ConfigError

    # a write the path did not refuse beforehand: here a directory's
    with pytest.raises(ConfigError, match=f"^--out {tmp_path}: "):
        cli._os_call("--out", tmp_path, lambda: tmp_path.write_text("text"))


def test_diagnose_kernel_all_checks_pass():
    r = run_cli("diagnose", "--problem", "kernel_pl", "--probes", "20")
    assert r.returncode == 0
    assert "gradients" in r.stdout


def test_diagnose_smoothness_check():
    r = run_cli("diagnose", "--problem", "kernel_pl", "--checks", "smoothness")
    assert r.returncode == 0
    assert r.stdout.startswith("smoothness: ") and r.stdout.rstrip().endswith("[ok]")
    r = run_cli("diagnose", "--problem", "discontinuous", "--checks", "smoothness")
    assert r.returncode == 0 and r.stdout.startswith("smoothness: skipped (")


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_diagnose_rejects_fewer_than_one_probe(probes):
    r = run_cli("diagnose", "--problem", "kernel_pl", "--probes", probes)
    assert r.returncode == 2 and "--probes" in r.stderr
    assert r.stdout == ""


def test_diagnose_unknown_check_rejected():
    r = run_cli("diagnose", "--problem", "kernel_pl", "--checks", "nope")
    assert r.returncode == 2


def test_diagnose_unknown_check_runs_no_check():
    r = run_cli("diagnose", "--problem", "kernel_pl", "--checks", "gradients", "nope")
    assert r.returncode == 2 and r.stdout == ""


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_diagnose_rejects_a_negative_or_non_finite_sigma(sigma):
    r = run_cli("diagnose", "--problem", "kernel_pl", "--checks", "pl",
                "--sigma", sigma, "--probes", "20")
    assert r.returncode == 2 and "--sigma" in r.stderr
    assert r.stdout == ""


def test_missing_subcommand_uses_argparse_exit():
    r = run_cli()
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# trace rows are rendered with one %-format; the text must be what _fmt gives


def _render_by_fmt(trace):
    from bipen.cli import _CSV_COLUMNS, _fmt

    meta = [("problem", trace.problem_name), ("algorithm", trace.algorithm),
            ("seed", "-" if trace.seed is None else trace.seed)]
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta + trace.plan.header_items()]
    lines.append(",".join(_CSV_COLUMNS))
    for r in trace.rows:
        lines.append(",".join(map(_fmt, (r.t, r.grad_est_norm, r.grad_true_norm,
                                         r.phi_true, r.K_t, r.delta_t,
                                         r.oracle_calls, r.wall_ms))))
    return "\n".join(lines) + "\n"


_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     1e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7]))
_CSV_INTS = st.one_of(st.integers(0, 10**6), st.integers(0, 2**200))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_CSV_INTS, _CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS, _CSV_INTS,
                          _CSV_FLOATS, _CSV_FLOATS, _CSV_FLOATS, _CSV_INTS,
                          st.one_of(st.none(), _CSV_FLOATS)), max_size=6))
def test_csv_rows_match_the_per_field_formatter(rows):
    from bipen.cli import render_trace_csv
    from bipen.drivers import TraceRow

    plan = SimpleNamespace(header_items=lambda: [("eta", 0.1), ("K", 3), ("c", None)])
    trace = SimpleNamespace(
        problem_name="p", algorithm="f2ba", seed=None, plan=plan,
        rows=[TraceRow(*r[:9], (0.5, -0.0), r[9]) for r in rows])
    assert render_trace_csv(trace) == _render_by_fmt(trace)


# values that repeat from row to row, as in a converged run, with zeros of
# both signs and equal values of other types
_CSV_REPEATS = st.sampled_from([0.0, -0.0, 0.1, 1.0, 1, True, math.nan, np.float64(0.1)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_CSV_REPEATS, _CSV_REPEATS, _CSV_REPEATS, _CSV_REPEATS),
                max_size=12))
def test_csv_rows_with_repeated_values_match_the_per_field_formatter(cols):
    from bipen.cli import render_trace_csv
    from bipen.drivers import TraceRow

    plan = SimpleNamespace(header_items=lambda: [])
    trace = SimpleNamespace(
        problem_name="p", algorithm="f2ba", seed=None, plan=plan,
        rows=[TraceRow(t, a, b, c, 3, d, 0.5, 0.5, t, (0.5,)) for t, (a, b, c, d)
              in enumerate(cols)])
    assert render_trace_csv(trace) == _render_by_fmt(trace)


def test_csv_rows_of_real_runs_match_the_per_field_formatter():
    from bipen import build_schedule, run_f2bsa
    from bipen.cli import render_trace_csv

    for name, run, kw in (("kernel_pl", run_f2ba, {"timing": True}),
                          ("kernel_pl_fnoise", run_f2bsa, {"seed": 3})):
        prob = get_problem(name).problem
        plan = build_schedule(prob.constants, 0.1, 0.5, 0.25, overrides={"T": 4})
        trace = run(prob, plan, **kw)
        assert render_trace_csv(trace) == _render_by_fmt(trace)
