import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import read_trace_header

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


def test_csv_rows_of_real_runs_match_the_per_field_formatter():
    from bipen import build_schedule, get_problem, run_f2ba, run_f2bsa
    from bipen.cli import render_trace_csv

    for name, run, kw in (("kernel_pl", run_f2ba, {"timing": True}),
                          ("kernel_pl_fnoise", run_f2bsa, {"seed": 3})):
        prob = get_problem(name).problem
        plan = build_schedule(prob.constants, 0.1, 0.5, 0.25, overrides={"T": 4})
        trace = run(prob, plan, **kw)
        assert render_trace_csv(trace) == _render_by_fmt(trace)
