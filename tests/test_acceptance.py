"""Acceptance gate: one test per shipped criterion, each printing a
pass/fail line (see conftest) with the measured numbers."""

import re
import subprocess
import sys
import time

import numpy as np

from bipen import (
    PenaltyObjective,
    StochasticOracle,
    build_schedule,
    descend_single,
    fit_complexity_slope,
    galet_residuals,
    get_problem,
    grid_hyper_objective,
    hypergradient_estimate,
    hypergradient_routes,
    penalized_hyperobjective_value,
    run_f2ba,
    run_f2bsa,
    set_lipschitz_check,
    stochastic_inner_count,
)

BIPEN = [sys.executable, "-m", "bipen"]


def run_cli(*args, timeout=300):
    # inherits the environment conftest has cleared of BIPEN_<KEY> settings
    return subprocess.run(BIPEN + list(args), capture_output=True, text=True,
                          timeout=timeout)


def test_c01_zero_respecting_certification(criterion):
    t0 = time.perf_counter()
    r = run_cli("certify-hard", "--T", "10", "--K", "10")
    wall = time.perf_counter() - t0
    ok = r.returncode == 0 and "overall: PASS" in r.stdout and wall < 5.0
    criterion(1, "zero-respecting certification T=K=10", ok,
              f"exit={r.returncode}, wall={wall:.2f}s (< 5s)")


def test_c02_brute_force_jump(criterion):
    t0 = time.perf_counter()
    prob = get_problem("discontinuous").problem
    jump = grid_hyper_objective(prob, [-1e-3]) - grid_hyper_objective(prob, [1e-3])
    wall = time.perf_counter() - t0
    ok = abs(jump - 1.0) <= 1e-5 and wall < 1.0
    criterion(2, "hyper-objective jump across x=0", ok,
              f"jump={jump!r} (want 1 +/- 1e-5), wall={wall:.2f}s (< 1s)")


def test_c03_deterministic_complexity_slope(criterion):
    t0 = time.perf_counter()
    s = get_problem("kernel_pl")
    pts, reached = [], True
    for eps in (1e-1, 3e-2, 1e-2, 3e-3):
        plan = build_schedule(s.problem.constants, eps, Delta=0.5, R=0.25)
        tr = run_f2ba(s.problem, plan)
        reached = reached and tr.min_grad_est <= eps
        pts.append((eps, tr.total_oracle_calls))
    slope = fit_complexity_slope(pts)
    wall = time.perf_counter() - t0
    ok = abs(slope - 2.0) <= 0.4 and reached and wall < 120.0
    criterion(3, "deterministic oracle-complexity slope", ok,
              f"slope={slope:.3f} (want 2.0 +/- 0.4), all runs reached their "
              f"target={reached}, wall={wall:.1f}s (< 120s)")


def test_c04_stochastic_complexity_and_noise_model(criterion):
    t0 = time.perf_counter()
    s = get_problem("kernel_pl_fnoise")
    c = s.problem.constants
    notes = []

    # (a) mean oracle complexity over 10 seeds at the planned budgets
    pts = []
    for eps in (1e-1, 5e-2, 2.5e-2):
        plan = build_schedule(c, eps, Delta=0.5, R=0.25)
        calls = [run_f2bsa(s.problem, plan, seed=sd).total_oracle_calls
                 for sd in range(10)]
        pts.append((eps, float(np.mean(calls))))
    slope = fit_complexity_slope(pts)
    slope_ok = abs(slope - 4.0) <= 1.0
    notes.append(f"slope={slope:.3f} (want 4.0 +/- 1.0)")

    # (b) the warm-start proxy recursion replays exactly from the trace
    plan = build_schedule(c, 1e-1, Delta=0.5, R=0.25, overrides={"T": 20})
    tr = run_f2bsa(s.problem, plan, seed=3)
    delta, recursion_ok = plan.delta0, True
    kap = c.L_g / c.mu
    for i, row in enumerate(tr.rows):
        recursion_ok = recursion_ok \
            and abs(row.delta_t - delta) <= 1e-12 * max(1.0, delta) \
            and row.K_t == stochastic_inner_count(plan, delta)
        x_next = (np.asarray(tr.rows[i + 1].x) if i + 1 < len(tr.rows)
                  else tr.final_state.x)
        move = float(np.linalg.norm(x_next - np.asarray(row.x)) ** 2)
        delta = (delta / 2 + 8 * kap ** 2 * move
                 + plan.c_delta * plan.sigma ** 2 * plan.epsilon ** 2 / c.L_g ** 2)
    notes.append(f"recursion replay={recursion_ok}")

    # (c) the three-term estimator is unbiased and its variance scales ~ 1/B
    x, y, z = np.array([0.3]), np.array([0.6, 0.2]), np.array([0.4, -0.1])
    pen = PenaltyObjective(s.problem, plan.sigma)
    exact = hypergradient_estimate(pen, x, y, z)
    oracle = StochasticOracle(s.problem, c.M_f, c.M_g, rng_seed=11)

    def draw(B):
        return hypergradient_estimate(pen, x, y, z, oracle, B)

    n = 4000
    d1 = np.array([draw(1)[0] for _ in range(n)])
    d4 = np.array([draw(4)[0] for _ in range(n)])
    mean_gap = abs(float(d1.mean()) - float(exact[0]))
    unbiased_ok = mean_gap <= 5 * c.M_f / np.sqrt(n)
    ratio = float(d1.var() / d4.var())
    variance_ok = 2.6 <= ratio <= 5.8  # want ~4
    notes.append(f"mean gap={mean_gap:.2e}, var ratio B1/B4={ratio:.2f}")

    wall = time.perf_counter() - t0
    ok = slope_ok and recursion_ok and unbiased_ok and variance_ok and wall < 600.0
    criterion(4, "stochastic complexity slope and noise model", ok,
              ", ".join(notes) + f", wall={wall:.1f}s (< 600s)")


def test_c05_three_route_hypergradient_agreement(criterion):
    t0 = time.perf_counter()
    worst, routes_seen = 0.0, set()
    for name, xs in (("kernel_pl", np.linspace(0.1, 1.9, 10)),
                     ("quadratic_sc", np.linspace(-1.2, 1.2, 10))):
        s = get_problem(name)
        for x in xs:
            out = hypergradient_routes(s, [float(x)])
            routes_seen |= set(out["routes"])
            worst = max(worst, max(out["disagreements"].values()))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-3 and {"analytic", "fd", "pinv"} <= routes_seen
    criterion(5, "independent hypergradient routes agree", ok,
              f"20 probes, routes={sorted(routes_seen)}, worst pairwise "
              f"gap={worst:.2e} (<= 1e-3), wall={wall:.1f}s")


def test_c06_penalty_gap_scales_linearly(criterion):
    t0 = time.perf_counter()
    prob = get_problem("kernel_pl").problem
    phi0 = 0.5  # phi(0) = (0-1)^2/2
    sigmas = (1e-1, 1e-2, 1e-3, 1e-4)
    gaps = []
    for sig in sigmas:
        val = penalized_hyperobjective_value(PenaltyObjective(prob, sig), [0.0])
        gaps.append(phi0 - val.value)
    pos = all(g > 0 for g in gaps)
    slope = float(np.polyfit(np.log(sigmas), np.log(np.maximum(gaps, 1e-300)), 1)[0])
    wall = time.perf_counter() - t0
    ok = pos and abs(slope - 1.0) <= 0.1
    criterion(6, "penalty bias is O(sigma)", ok,
              f"gap slope={slope:.3f} (want 1.0 +/- 0.1), gaps all "
              f"positive={pos}, wall={wall:.1f}s")


def test_c07_inner_loop_contraction_envelope(criterion):
    t0 = time.perf_counter()
    holds = True
    details = []
    for name, x, y0 in (("quadratic_sc", 0.3, (1.7, -0.9)),
                        ("sin_sq_pl", 0.3, (1.5,))):
        s = get_problem(name)
        c = s.problem.constants
        xv, y0v = np.array([x]), np.array(y0)

        def dist2(y):
            if s.project_y_star is not None:
                return float(np.linalg.norm(y - s.project_y_star(xv, y, 0.0)) ** 2)
            return float((y[0] - x) ** 2)

        d0 = dist2(y0v)
        for K in (1, 5, 25):
            yK, _, _ = descend_single(lambda v: s.problem.grad_g_y(xv, v),
                                      y0v, 1.0 / c.L_g, tol=0.0, exact_steps=K)
            bound = (1 - c.mu / c.L_g) ** K * (c.L_g / c.mu) * d0
            ok_k = dist2(yK) <= bound + 1e-12
            holds = holds and ok_k
            if K == 25:
                details.append(f"{name}: K=25 dist2={dist2(yK):.2e} <= {bound:.2e}")
    wall = time.perf_counter() - t0
    criterion(7, "inner loop satisfies the PL contraction envelope", holds,
              "; ".join(details) + f", wall={wall:.1f}s")


def test_c08_solution_set_stability(criterion):
    t0 = time.perf_counter()
    out = set_lipschitz_check(get_problem("kernel_pl"), n_pairs=100, seed=0)
    wall = time.perf_counter() - t0
    ok = out["violations"] == [] and out["checked"] == 100
    criterion(8, "solution-set Lipschitz bound over 100 pairs", ok,
              f"violations={len(out['violations'])}, worst "
              f"ratio={out['worst_ratio']:.3f} (<= 1), wall={wall:.1f}s")


def test_c09_stationarity_residuals_at_output(criterion):
    t0 = time.perf_counter()
    s = get_problem("kernel_pl")
    plan = build_schedule(s.problem.constants, 1e-3, Delta=0.5, R=0.25,
                          overrides={"T": 200})
    tr = run_f2ba(s.problem, plan)
    r = galet_residuals(s.problem, tr.final_state.x, tr.final_state.y)
    wall = time.perf_counter() - t0
    ok = r.R_x <= 1e-2 and r.R_w <= 1e-2 and r.R_y <= 1e-5 and wall < 30.0
    criterion(9, "independent residuals at the solver output", ok,
              f"R_x={r.R_x:.2e} (<= 1e-2), R_w={r.R_w:.2e} (<= 1e-2), "
              f"R_y={r.R_y:.2e} (<= 1e-5), wall={wall:.1f}s (< 30s)")


def test_c10_degenerate_refusal_is_witnessed(criterion):
    t0 = time.perf_counter()
    r = run_cli("run", "--problem", "degenerate_penalty", "--epsilon", "0.1")
    wall = time.perf_counter() - t0
    m = re.search(r"after (\d+) steps", r.stderr)
    steps = int(m.group(1)) if m else -1
    ok = (r.returncode == 3 and "unbounded below" in r.stderr
          and 0 < steps <= 1000 and wall < 1.0)
    criterion(10, "degenerate penalty refused with a witness", ok,
              f"exit={r.returncode}, witness steps={steps} (<= 1000), "
              f"wall={wall:.2f}s (< 1s)")


def test_c11_fully_stochastic_complexity_slope(criterion):
    # the third rate: with noise on g's gradients the batch grows as eps^-4
    # and the calls as eps^-6 (c03 gates eps^-2, c04 eps^-4).  The command
    # below took 6-7.5 s on a 2-vCPU Xeon VM; the wall bound leaves ~8x
    # that for slower runners while still catching a per-draw cost that
    # grows by an order of magnitude.
    t0 = time.perf_counter()
    r = run_cli("sweep-slope", "--problem", "kernel_pl_gnoise", "--algorithm", "f2bsa",
                "--epsilons", "0.1,0.07,0.05", "--seeds", "3")
    wall = time.perf_counter() - t0
    m = re.search(r"slope of log\(calls\) vs log\(1/epsilon\): (\S+)", r.stdout)
    slope = float(m.group(1)) if m else float("nan")
    ok = r.returncode == 0 and abs(slope - 6.0) <= 1.0 and wall < 60.0
    criterion(11, "fully stochastic complexity slope", ok,
              f"exit={r.returncode}, slope={slope:.3f} (want 6.0 +/- 1.0) on "
              f"kernel_pl_gnoise, eps 0.1-0.05, 3 seeds, wall={wall:.1f}s (< 60s)")
