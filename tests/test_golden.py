"""Golden traces: every non-refused problem's CSV trace, pinned byte for byte.

Each case is one ``bipen run`` at epsilon = 0.1 with a small outer budget,
written with its replay header and without ``--timing``.  The stdout of
``bipen diagnose --problem P`` (all checks, default probes) is pinned the
same way for every problem but ``hard_instance``, whose PL check alone runs
for minutes.  A golden may change only in a change that says why in
CHANGES.md; regenerate them with

    PYTHONPATH=src python tests/test_golden.py

The property tests below pin the fused oracle-call accounting for any plan
and the replay contract: a trace's header alone reproduces it byte for byte.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import build_schedule, get_problem, list_problems, run_f2ba, run_f2bsa
from bipen.cli import main, read_trace_header
from bipen.drivers import _PLAN_CONSTANT_KEYS, _PLAN_OVERRIDE_KEYS

GOLDEN_DIR = Path(__file__).with_name("golden")
EPSILON = "0.1"
NOISY = ("kernel_pl_fnoise", "kernel_pl_gnoise", "kernel_pl_noisy")
NOISELESS = ("quadratic_sc", "kernel_pl", "sin_sq_pl", "degenerate_penalty_boxed",
             "hard_instance")


def _settings(problem):
    return ("T=2", "K=2") if problem == "hard_instance" else ("T=6",)


# (file name, problem, algorithm, seed) of every golden trace
CASES = [(f"{p}_f2ba.csv", p, "f2ba", 0) for p in NOISELESS + NOISY]
CASES += [(f"{p}_f2bsa_seed{s}.csv", p, "f2bsa", s) for p in NOISY for s in (0, 1)]
DIAGNOSED = [p for p in list_problems() if p != "hard_instance"]


def render(problem, algorithm, seed, out):
    args = ["run", "--problem", problem, "--algorithm", algorithm,
            "--epsilon", EPSILON, "--seed", str(seed), "--out", str(out)]
    for item in _settings(problem):
        args += ["--set", item]
    assert main(args) == 0


@pytest.mark.parametrize("fname,problem,algorithm,seed", CASES,
                         ids=[c[0][:-4] for c in CASES])
def test_trace_matches_golden(tmp_path, fname, problem, algorithm, seed):
    out = tmp_path / fname
    render(problem, algorithm, seed, out)
    assert out.read_bytes() == (GOLDEN_DIR / fname).read_bytes()


def render_diagnose(problem) -> bytes:
    """The stdout of ``bipen diagnose --problem <problem>``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["diagnose", "--problem", problem]) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("problem", DIAGNOSED)
def test_diagnose_matches_golden(problem):
    want = (GOLDEN_DIR / f"diagnose_{problem}.txt").read_bytes()
    assert render_diagnose(problem) == want


def test_an_exported_setting_does_not_reach_the_goldens():
    # conftest clears BIPEN_<KEY>: c_K = 0.5 would change every trace
    case = "test_trace_matches_golden[kernel_pl_f2ba]"
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::{case}"],
        cwd=Path(__file__).parents[1], env=dict(os.environ, BIPEN_C_K="0.5"),
        capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr


def test_every_golden_file_has_a_case():
    want = [c[0] for c in CASES] + [f"diagnose_{p}.txt" for p in DIAGNOSED]
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(want)


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(0, 6),
    K=st.integers(1, 5),
    B=st.integers(0, 4),
    seed=st.integers(0, 3),
)
def test_fused_calls_match_the_plan(T, K, B, seed):
    # per outer step: 2 K_t inner gradients plus 3 estimator terms, each a
    # batch of max(B, 1); with B = 0 the budget is K_t = K, so T (2K + 3)
    prob = get_problem("kernel_pl_noisy").problem
    plan = build_schedule(prob.constants, 0.1, Delta=0.5, R=0.25,
                          overrides={"T": T, "K": K, "B": B})
    for tr in (run_f2bsa(prob, plan, seed=seed), run_f2ba(prob, plan)):
        batch = max(B, 1) if tr.algorithm == "f2bsa" else 1
        want = sum(2 * r.K_t + 3 for r in tr.rows) * batch
        assert tr.final_state.oracle_calls == want
        assert tr.total_oracle_calls == want
        if tr.algorithm == "f2ba" or B == 0:
            assert want == T * (2 * K + 3)


def replay_args(header: dict, out) -> list:
    """``bipen run`` arguments that re-run a trace from its header alone.

    Every resolved plan field and ratio constant is passed with ``--set``.
    Delta and R are passed only when the header says they were overridden:
    otherwise the run derives them again, and its provenance lines match.
    """
    args = ["run", "--problem", header["problem"], "--algorithm",
            header["algorithm"], "--epsilon", header["epsilon"], "--out", str(out)]
    if header["seed"] != "-":
        args += ["--seed", header["seed"]]
    keys = list(_PLAN_OVERRIDE_KEYS + _PLAN_CONSTANT_KEYS)
    keys += [k for k in ("Delta", "R") if header[f"provenance.{k}"] == "override"]
    for key in keys:
        args += ["--set", f"{key}={header[key]}"]
    return args


@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(st.tuples(st.sampled_from(NOISELESS + NOISY), st.just("f2ba")),
                   st.tuples(st.sampled_from(NOISY), st.just("f2bsa"))),
    epsilon=st.sampled_from(["0.1", "0.05", "0.2"]),
    T=st.integers(0, 4),
    K=st.integers(1, 4),
    B=st.integers(0, 3),
    seed=st.integers(0, 3),
    extra=st.sampled_from([(), ("Delta=0.7",), ("R=0.3", "c_K=0.5"), ("c_eta=2",)]),
)
def test_any_trace_replays_from_its_own_header(tmp_path_factory, case, epsilon,
                                               T, K, B, seed, extra):
    problem, algorithm = case
    tmp = tmp_path_factory.mktemp("replay")
    first, again = tmp / "first.csv", tmp / "again.csv"
    args = ["run", "--problem", problem, "--algorithm", algorithm,
            "--epsilon", epsilon, "--seed", str(seed), "--out", str(first)]
    for item in (f"T={T}", f"K={K}", f"B={B}") + extra:
        args += ["--set", item]
    assert main(args) == 0
    assert main(replay_args(read_trace_header(first), again)) == 0
    assert again.read_bytes() == first.read_bytes()


if __name__ == "__main__":
    for key in [k for k in os.environ if k.startswith("BIPEN_")]:
        del os.environ[key]  # the goldens pin the defaults
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fname, problem, algorithm, seed in CASES:
        render(problem, algorithm, seed, GOLDEN_DIR / fname)
    for problem in DIAGNOSED:
        (GOLDEN_DIR / f"diagnose_{problem}.txt").write_bytes(render_diagnose(problem))
