import dataclasses
import math
import statistics
import warnings

import numpy as np
import pytest

from bipen import (
    ConfigError,
    DivergenceError,
    InnerConfig,
    InputError,
    NumericError,
    PenaltyObjective,
    ProblemConstants,
    StochasticOracle,
    build_schedule,
    fit_complexity_slope,
    get_problem,
    penalized_hyperobjective_value,
    run_f2ba,
    run_f2bsa,
    stochastic_inner_count,
)


def kernel_plan(eps=0.1, **overrides):
    s = get_problem("kernel_pl")
    return build_schedule(s.problem.constants, eps, Delta=0.5, R=0.25,
                          overrides=overrides or None)


class TestBuildSchedule:
    def test_kernel_plan_frozen_values(self):
        # all constants are 1 so the formulas collapse to hand-checkable
        # numbers: eta = 1, sigma = min(0.25, 0.1, 1, 1) = 0.1,
        # tau = 1/1.1, K = ceil(max(1, ln 10)) = 3,
        # T = ceil(2 (0.5 + 0.25) / 0.01) = 150, B = 0, delta0 = 0.25.
        p = kernel_plan()
        assert p.eta == 1.0
        assert p.sigma == 0.1
        assert p.tau == pytest.approx(1 / 1.1, rel=1e-15)
        assert p.K == 3
        assert p.T == 150
        assert p.B == 0
        assert p.delta0 == 0.25

    def test_sigma_skips_nonpositive_candidates(self):
        # R = 0 drops the R-based candidate; the eps-based one still binds
        p = build_schedule(get_problem("kernel_pl").problem.constants,
                           0.1, Delta=0.5, R=0.0)
        assert p.sigma == 0.1
        # rho_f > 0 adds the curvature-ratio candidate rho_g / rho_f
        c = ProblemConstants(C_f=1, L_f=1, L_g=1, rho_f=100.0, rho_g=1.0,
                             mu=1, sigma_bar=1)
        p = build_schedule(c, 0.5, Delta=0.5, R=100.0)
        assert p.sigma == pytest.approx(1.0 / 100.0)

    def test_sigma_bar_binds_at_loose_accuracy(self):
        c = ProblemConstants(C_f=1, L_f=0, L_g=1, rho_f=0, rho_g=1,
                             mu=1, sigma_bar=0.03)
        p = build_schedule(c, 10.0, Delta=0.5, R=100.0)
        assert p.sigma == 0.03

    def test_overrides_replace_resolved_fields(self):
        p = kernel_plan(sigma=0.05, T=7, B=2, eta=0.3)
        assert (p.sigma, p.T, p.B, p.eta) == (0.05, 7, 2, 0.3)
        # ratio-constant overrides feed the formulas instead
        p = kernel_plan(c_K=3.0)
        assert p.K == int(np.ceil(3.0 * max(1.0, np.log(10.0))))

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            kernel_plan(gamma=2.0)

    def test_invalid_plan_fields_rejected(self):
        with pytest.raises(ConfigError):
            kernel_plan(K=0)
        with pytest.raises(ConfigError):
            kernel_plan(sigma=-0.1)
        with pytest.raises(ConfigError):
            kernel_plan(sigma=5.0)  # above sigma_bar

    @pytest.mark.parametrize("value", [
        2.5, 1.9, 2.0, np.float64(2.0), True, False, "3", None,
        3, np.int64(3), np.int32(2), np.uint8(4)])
    def test_integer_fields_take_integers_only(self, value):
        # K, T and B of a plan and K and batch of an inner config: int and
        # np.integer are stored as int; bool, float and every other value are
        # refused, where int() once truncated 2.5 to 2 and True to 1
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            stored = [kernel_plan(K=value).K, kernel_plan(T=value).T,
                      kernel_plan(B=value).B, InnerConfig(tau=0.1, K=value).K,
                      InnerConfig(tau=0.1, K=3, batch=value).batch]
            assert stored == [int(value)] * 5
            assert all(type(v) is int for v in stored)
            return
        for name in ("K", "T", "B"):
            with pytest.raises(ConfigError, match=f"plan {name} must be an integer"):
                kernel_plan(**{name: value})
        with pytest.raises(ConfigError, match="inner step count K must be an integer"):
            InnerConfig(tau=0.1, K=value)
        with pytest.raises(ConfigError, match="batch must be an integer"):
            InnerConfig(tau=0.1, K=3, batch=value)

    def test_header_items_cover_plan_constants_and_provenance(self):
        s = get_problem("kernel_pl")
        p = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                           provenance={"Delta": "analytic"})
        keys = [k for k, _ in p.header_items()]
        for k in ("epsilon", "eta", "sigma", "tau", "K", "T", "B", "delta0",
                  "Delta", "R", "c_eta", "c_sigma", "c_K", "c_B", "c_delta",
                  "constants.mu", "constants.L_g", "constants.sigma_bar",
                  "provenance.Delta"):
            assert k in keys, k
        assert len(keys) == len(set(keys))


class TestDeterministicDriver:
    def test_quadratic_run_reaches_small_gradient(self):
        s = get_problem("quadratic_sc")
        plan = build_schedule(s.problem.constants, 0.05, Delta=0.25, R=2.0)
        tr = run_f2ba(s.problem, plan)
        assert len(tr.rows) == plan.T
        assert tr.mean_grad_true <= 0.05
        assert tr.final_state.t == plan.T

    def test_mean_analytic_norm_is_the_mean_over_iterates(self, kernel):
        tr = run_f2ba(kernel, kernel_plan(T=20))
        mean = statistics.fmean(r.grad_true_norm for r in tr.rows)
        assert tr.mean_grad_true == mean
        assert f"mean||grad_true||={mean:.4e}, " in tr.summary_line()
        # no analytic gradient: nan, and the summary leaves it out
        boxed = get_problem("degenerate_penalty_boxed")
        plan = build_schedule(boxed.problem.constants, 0.1, Delta=0.5, R=0.25,
                              overrides={"T": 6})
        tr = run_f2ba(boxed, plan)
        assert math.isnan(tr.mean_grad_true)
        assert "grad_true" not in tr.summary_line()

    def test_rows_record_pre_update_x_and_cumulative_calls(self, kernel):
        plan = kernel_plan(T=5)
        tr = run_f2ba(kernel.problem, plan)
        assert tr.rows[0].x == tuple(np.atleast_1d(kernel.problem.meta.x0))
        calls = [r.oracle_calls for r in tr.rows]
        assert calls == sorted(calls)
        # fused convention: 2K inner calls + 3 estimator calls per iteration
        per_iter = np.diff([0] + calls)
        assert all(d == 2 * plan.K + 3 for d in per_iter)
        assert tr.total_oracle_calls == plan.T * (2 * plan.K + 3)

    def test_kernel_estimator_matches_analytic_gradient(self, kernel):
        # with enough inner steps the estimator lands on grad phi_sigma,
        # which on this instance is grad phi shrunk by 1/(1 + sigma)
        plan = kernel_plan(T=3, K=200)
        tr = run_f2ba(kernel.problem, plan)
        for row in tr.rows:
            assert row.grad_est_norm == pytest.approx(
                row.grad_true_norm / (1 + plan.sigma), abs=1e-8)

    def test_runaway_x_stops_at_the_run_radius(self, kernel):
        # eta = 100 multiplies x - 1/2 by -199 per outer step; the radius
        # 1e6 (1 + largest start norm) = 1.5e6 is crossed by x at t = 3
        with pytest.raises(DivergenceError) as err:
            run_f2ba(kernel.problem, kernel_plan(eta=100.0, T=20))
        assert err.value.sequence == "x" and err.value.step == 3
        assert err.value.norm > 1.5e6
        assert "at outer step 3" in str(err.value)

    def test_trace_summary_and_argmin(self, kernel):
        tr = run_f2ba(kernel, kernel_plan(T=20))
        assert tr.argmin_grad_est is not None
        assert tr.rows[tr.argmin_grad_est].grad_est_norm == tr.min_grad_est
        line = tr.summary_line()
        assert "kernel_pl" in line and "f2ba" in line

    def test_penalty_gap_inequality_on_the_suite(self):
        # |phi_sigma - phi| <= sigma C_f^2 / (2 mu) inside the declared
        # x-window (C_f only bounds the upper gradient there); checked
        # through the certified numeric evaluator.
        grids = {"kernel_pl": (0.0, 0.7, 1.5), "quadratic_sc": (-0.5, 0.0, 0.7)}
        for name, xs in grids.items():
            s = get_problem(name)
            c = s.problem.constants
            for x in xs:
                for sig in (0.5, 0.1, 0.01):
                    val = penalized_hyperobjective_value(
                        PenaltyObjective(s.problem, sig), [x])
                    phi = s.phi_sigma([x], 0.0) if name == "kernel_pl" \
                        else 0.5 * (x - 1) ** 2 + 0.5 * x ** 2
                    gap = abs(val.value - phi)
                    bound = sig * c.C_f ** 2 / (2 * c.mu)
                    assert gap <= bound + val.error_bound + 1e-9, (name, x, sig)


class TestStochasticDriver:
    def test_noiseless_f2bsa_is_bitwise_f2ba(self, kernel):
        plan = kernel_plan()
        a = run_f2ba(kernel.problem, plan)
        b = run_f2bsa(kernel.problem, plan, seed=123)
        assert np.array_equal(a.final_state.x, b.final_state.x)
        assert np.array_equal(a.final_state.y, b.final_state.y)
        assert a.total_oracle_calls == b.total_oracle_calls
        assert all(ra.grad_est_norm == rb.grad_est_norm
                   for ra, rb in zip(a.rows, b.rows))

    def test_b0_override_on_noisy_problem_matches_f2ba(self):
        s = get_problem("kernel_pl_fnoise")
        plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                              overrides={"B": 0, "T": 30})
        a = run_f2ba(s.problem, plan)
        b = run_f2bsa(s.problem, plan, seed=7)
        assert np.array_equal(a.final_state.x, b.final_state.x)

    @pytest.mark.parametrize("seed", [None, 1.5, True])
    def test_a_seed_that_is_not_an_int_is_refused(self, seed):
        # None would run F2BA and drop the plan's B; 1.5 and True would run
        # seed 1's stream with another seed in the trace header
        s = get_problem("kernel_pl_fnoise")
        plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25)
        with pytest.raises(InputError, match="seed must be an int"):
            run_f2bsa(s.problem, plan, seed=seed)
        with pytest.raises(InputError, match="seed must be an int"):
            StochasticOracle(s.problem, 0.1, 0.0, rng_seed=seed)

    def test_positive_batch_needs_noise_model(self, kernel):
        plan = kernel_plan(B=4, T=5)
        with pytest.raises(ConfigError, match="M_f"):
            run_f2bsa(kernel.problem, plan, seed=0)

    def test_batched_steps_share_the_run_radius(self):
        # each outer step's inner config carries the radius fixed at the
        # start, 1.5e6, so a warm start far from it cannot widen it
        s = get_problem("kernel_pl_noisy")
        plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                              overrides={"tau": 2.5, "T": 20, "B": 2})
        with pytest.raises(DivergenceError) as err:
            run_f2bsa(s.problem, plan, seed=0)
        assert err.value.sequence == "y" and err.value.step == 16
        assert str(err.value).startswith(
            "outer step 1: y-sequence left the divergence radius 1.5e+06 ")

    def test_seed_reproducibility(self):
        s = get_problem("kernel_pl_noisy")
        plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                              overrides={"T": 12})
        assert plan.B > 0
        a = run_f2bsa(s.problem, plan, seed=5)
        b = run_f2bsa(s.problem, plan, seed=5)
        c = run_f2bsa(s.problem, plan, seed=6)
        assert np.array_equal(a.final_state.x, b.final_state.x)
        assert a.rows[-1].grad_est_norm == b.rows[-1].grad_est_norm
        assert not np.array_equal(a.final_state.x, c.final_state.x)

    def test_delta_recursion_replays_from_trace(self):
        s = get_problem("kernel_pl_noisy")
        plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                              overrides={"T": 15})
        tr = run_f2bsa(s.problem, plan, seed=3)
        c = plan.constants
        kap = c.L_g / c.mu
        delta = plan.delta0
        for i, row in enumerate(tr.rows):
            assert row.delta_t == pytest.approx(delta, rel=1e-12)
            assert row.K_t == stochastic_inner_count(plan, delta)
            x_now = np.asarray(row.x)
            x_next = (np.asarray(tr.rows[i + 1].x) if i + 1 < len(tr.rows)
                      else tr.final_state.x)
            move = float(np.linalg.norm(x_next - x_now) ** 2)
            delta = (delta / 2 + 8 * kap ** 2 * move
                     + plan.c_delta * plan.sigma ** 2 * plan.epsilon ** 2
                     / c.L_g ** 2)

    def test_inner_count_clamps_and_grows_with_delta(self):
        plan = kernel_plan(B=1)
        # tiny delta: the log argument clamps at e, so K_t = ceil(c_K kappa)
        assert stochastic_inner_count(plan, 0.0) == 1
        assert stochastic_inner_count(plan, 1e6) > stochastic_inner_count(plan, 1.0)


class TestSlopeFit:
    def test_exact_power_law_recovered(self):
        pts = [(e, 7.0 / e ** 3) for e in (0.1, 0.05, 0.02, 0.01)]
        assert fit_complexity_slope(pts) == pytest.approx(3.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(InputError):
            fit_complexity_slope([(0.1, 10.0), (0.05, 20.0)])
        with pytest.raises(InputError):
            fit_complexity_slope([(0.1, 10.0), (0.05, 20.0), (-0.01, 5.0)])


def test_trace_row_fields_order_and_defaults_are_fixed():
    from bipen import TraceRow

    assert TraceRow._fields == (
        "t", "grad_est_norm", "grad_true_norm", "phi_true", "K_t", "delta_t",
        "resid_y", "resid_z", "oracle_calls", "x", "wall_ms")
    assert TraceRow._field_defaults == {"wall_ms": None}
    row = TraceRow(0, 1.0, 2.0, 3.0, 4, 5.0, 6.0, 7.0, 8, (9.0,))
    assert row.wall_ms is None and row.x == (9.0,) and row.oracle_calls == 8
    with pytest.raises(AttributeError):
        row.t = 1


# ---------------------------------------------------------------------------
# The outer update x - eta * est is classified the same way in every numpy
# error state: an overflowing step is a non-finite x, and a finite runaway x
# is caught by the guard before f2bsa squares its step into delta.


def _outer_failure(run, state):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with np.errstate(over=state):
            try:
                run()
            except (NumericError, DivergenceError) as exc:
                point = getattr(exc, "point", None)
                return (type(exc), str(exc), getattr(exc, "norm", None),
                        None if point is None else np.asarray(point).tobytes())
    raise AssertionError("no failure raised")


@pytest.mark.parametrize("method", ["f2ba", "f2bsa"])
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
@pytest.mark.parametrize("eta, error", [(1e300, NumericError), (1e190, DivergenceError)])
def test_outer_step_overflow_is_classified_in_every_state(kernel, method, state,
                                                          eta, error):
    # est = 1e10: eta = 1e300 overflows the step to inf; eta = 1e190 steps x
    # to -1e200, whose square overflows in the f2bsa delta update
    prob = dataclasses.replace(kernel.problem,
                               grad_f_x=lambda x, y: np.full(1, 1e10))
    plan = kernel_plan(eta=eta, T=3)

    def run():
        if method == "f2ba":
            run_f2ba(prob, plan)
        else:
            run_f2bsa(prob, plan, seed=0)

    got = _outer_failure(run, state)
    which = "non-finite x-iterate" if error is NumericError else "x-sequence left"
    assert got[0] is error and which in got[1] and "outer step 0" in got[1]
    assert got == _outer_failure(run, "ignore")
