import collections
import contextlib
import dataclasses
import hashlib
import io
import math
import statistics
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import (
    BilevelProblem,
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
    inner_descend,
    penalized_hyperobjective_value,
    run_f2ba,
    run_f2bsa,
    stochastic_inner_count,
)
from bipen.drivers import _inner_counter


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

    @pytest.mark.parametrize("field", ["epsilon", "Delta", "R", "sigma", "tau", "eta",
                                       "delta0", "c_eta", "c_K"])
    @pytest.mark.parametrize("value", ["a", None, [0.1], 10 ** 400])
    def test_a_value_that_float_cannot_take_is_a_config_error(self, field, value):
        # numpy's bare TypeError once came out of np.isfinite for the
        # arguments, and float()'s own errors out of the overrides
        c = get_problem("kernel_pl").problem.constants
        args = {"epsilon": 0.1, "Delta": 0.5, "R": 0.25}
        if field in args:
            args[field] = value
        else:
            args["overrides"] = {field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be a number, got "):
            build_schedule(c, **args)

    def test_numeric_strings_are_taken_as_float_takes_them(self):
        c = get_problem("kernel_pl").problem.constants
        plan = build_schedule(c, "0.1", "0.5", "0.25", overrides={"sigma": "0.5"})
        assert plan == build_schedule(c, 0.1, 0.5, 0.25, overrides={"sigma": 0.5})

    @pytest.mark.parametrize("problem,eps,overrides,field", [
        ("kernel_pl", 0.1, {"eta": 0.0}, "T"),          # divides by 0
        ("kernel_pl", 0.1, {"eta": math.nan}, "T"),     # ceil of nan
        ("kernel_pl", 0.1, {"delta0": math.nan}, "T"),
        ("kernel_pl", 0.1, {"delta0": math.inf}, "T"),  # ceil of inf
        ("kernel_pl", 0.1, {"c_eta": 1e-320}, "T"),     # eta eps^2 underflows
        ("kernel_pl", 0.1, {"sigma": 1e-320}, "K"),     # mu sigma underflows
        ("kernel_pl", 1e-170, {}, "T"),                 # eps^2 underflows
        ("kernel_pl_fnoise", 0.1, {"sigma": 1e-200}, "B"),  # sigma^2 underflows
    ])
    def test_a_count_that_cannot_be_computed_is_a_config_error(self, problem, eps,
                                                               overrides, field):
        # each once escaped as a bare ZeroDivisionError, ValueError or
        # OverflowError
        c = get_problem(problem).problem.constants
        with pytest.raises(ConfigError, match=f"^plan {field} is not computable from "):
            build_schedule(c, eps, Delta=0.5, R=0.25, overrides=overrides)

    def test_an_inner_count_that_cannot_be_computed_is_a_config_error(self):
        # sigma^2 eps^2 underflows in K_t's formula, at run time; the same
        # plan runs on the deterministic path, which never computes K_t
        prob = get_problem("kernel_pl_fnoise").problem
        plan = build_schedule(prob.constants, 1e-170, Delta=0.5, R=0.25,
                              overrides={"T": 1, "K": 1, "B": 1})
        with pytest.raises(ConfigError, match="^plan K_t is not computable from "):
            run_f2bsa(prob, plan, seed=0)
        with pytest.raises(ConfigError, match="^plan K_t is not computable from "):
            stochastic_inner_count(plan, 0.25)
        assert len(run_f2ba(prob, plan).rows) == 1
        plan = kernel_plan(1e-170, T=1)  # accepted: T's formula is not used
        assert len(run_f2ba(get_problem("kernel_pl").problem, plan).rows) == 1

    @pytest.mark.parametrize("delta, want", [
        (0.0, 1), (5e-324, 1), (1e-300, 1), (1.0, 15), (1e300, 706),
        (1e308, None), (math.inf, None), (math.nan, None)])
    def test_the_runs_inner_count_is_stochastic_inner_count_at_its_edges(self, delta,
                                                                         want):
        # f2bsa_sweep's eps = 0.025 plan: the run's counter, with its plan
        # factors made once, gives stochastic_inner_count's K_t, and where
        # L_g^3 delta_t overflows both raise the ConfigError they raised
        # when K_t was one left-to-right expression
        c = get_problem("kernel_pl_fnoise").problem.constants
        plan = build_schedule(c, 0.025, Delta=0.5, R=0.25)
        count = _inner_counter(plan)
        if want is not None:
            assert count(delta) == stochastic_inner_count(plan, delta) == want
            return
        text = (f"plan K_t is not computable from sigma=0.025, epsilon=0.025, "
                f"delta_t={delta!r}: its formula divides by 0 or meets nan or inf")
        for fn in (count, lambda d: stochastic_inner_count(plan, d)):
            with pytest.raises(ConfigError) as err:
                fn(delta)
            assert str(err.value) == text

    @pytest.mark.parametrize("L_g, eps", [(1e103, 0.1), (1.0, 1e-170), (1.0, 0.1)])
    def test_an_inner_count_factor_that_overflows_still_raises_per_count(self, L_g,
                                                                         eps):
        # L_g^3 overflows at 1e103, and sigma^2 eps^2 underflows to 0 at eps
        # 1e-170: each count raises as the left-to-right expression does, and
        # only when a count is taken
        c = ProblemConstants(C_f=1.0, L_f=1.0, L_g=L_g, rho_f=0.0, rho_g=0.0, mu=1.0,
                             sigma_bar=1.0, M_f=1.0)
        plan = build_schedule(c, eps, Delta=0.5, R=0.25, overrides={
            "sigma": 0.5, "eta": 0.1, "K": 1, "T": 1, "B": 1})
        count = _inner_counter(plan)

        def ref(delta):
            return max(1, math.ceil(plan.c_K * (c.L_g / c.mu) * math.log(max(
                c.L_g ** 3 * delta / (c.mu * plan.sigma ** 2 * plan.epsilon ** 2),
                math.e))))

        for delta in (0.0, 1e-300, 0.25, 1e300, math.inf, math.nan):
            try:
                want = ref(delta)
            except (ZeroDivisionError, ValueError, OverflowError):
                with pytest.raises(ConfigError, match="^plan K_t is not computable"):
                    count(delta)
            else:
                assert count(delta) == want, delta

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
        tr = run_f2ba(kernel.problem, kernel_plan(T=20))
        mean = statistics.fmean(r.grad_true_norm for r in tr.rows)
        assert tr.mean_grad_true == mean
        assert f"mean||grad_true||={mean:.4e}, " in tr.summary_line()
        # no analytic gradient: nan, and the summary leaves it out
        boxed = get_problem("degenerate_penalty_boxed")
        plan = build_schedule(boxed.problem.constants, 0.1, Delta=0.5, R=0.25,
                              overrides={"T": 6})
        tr = run_f2ba(boxed.problem, plan)
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
        from bipen.cli import _run_once

        tr = _run_once(kernel, "f2ba", kernel_plan(T=20), 0, False)
        assert tr.argmin_grad_est is not None
        assert tr.rows[tr.argmin_grad_est].grad_est_norm == tr.min_grad_est
        line = tr.summary_line()
        assert "kernel_pl" in line and "f2ba" in line
        # a library run is named after its problem's type
        assert run_f2ba(kernel.problem, kernel_plan(T=1)).problem_name == "BilevelProblem"

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
        assert err.value.sequence == "y" and err.value.step == 15
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
        # one epsilon: polyfit's rank-deficient fit returned 1.13 with a warning
        with pytest.raises(InputError, match="distinct epsilons"):
            fit_complexity_slope([(0.1, 100.0), (0.1, 200.0), (0.1, 300.0)])


def _ref_min_row(rows, attr):
    # RunTrace._min_row as it stood with np.isfinite and min over (value, index)
    vals = [getattr(r, attr) for r in rows]
    finite = [(v, i) for i, v in enumerate(vals) if np.isfinite(v)]
    if not finite:
        return math.nan, None
    v, i = min(finite)
    return v, rows[i].t


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0, math.nan, math.inf, -math.inf]),
                max_size=8))
def test_the_one_pass_minimum_keeps_values_and_the_first_row_on_ties(values):
    from bipen import RunTrace, TraceRow

    rows = [TraceRow(t + 10, v, v, v, 1, v, v, v, t, (0.0,)) for t, v in enumerate(values)]
    tr = RunTrace("p", "f2ba", kernel_plan(), None, rows, None, 0.0)
    got, want = tr._min_row("grad_est_norm"), _ref_min_row(rows, "grad_est_norm")
    assert got[1] == want[1] and struct.pack("<d", got[0]) == struct.pack("<d", want[0])
    assert (tr.min_grad_est, tr.argmin_grad_est) == got or math.isnan(got[0])


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


# ---------------------------------------------------------------------------
# A converged run repeats x for most of its worst-case budget: the loop keeps
# the x object, the inner loop its arrays and the CSV its text where the bits
# do not change, and every oracle call and guard stays.

# sha256 of `bipen run --problem kernel_pl --epsilon 0.01` CSV, taken before
# the reuse existed; x repeats bit for bit on 14,992 of its 15,000 rows
_KERNEL_EPS_001_SHA256 = "c8af8b586db2ec50bced93371c3bcdd822d7ccaabd4da25f8a39830fae2851a2"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_converged_kernel_trace_is_pinned(tmp_path):
    from bipen.cli import main

    out = tmp_path / "kernel.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--problem", "kernel_pl", "--epsilon", "0.01",
                     "--out", str(out)]) == 0
    assert _sha256(out.read_text()) == _KERNEL_EPS_001_SHA256


@pytest.mark.parametrize("free", [-0.0, 0.0])
def test_the_free_coordinate_keeps_its_sign_at_the_fixed_point(kernel, free):
    from bipen.cli import plan_from_args, render_trace_csv

    tr = run_f2ba(kernel.problem, plan_from_args(kernel, 0.01, {}), y0=[0.5, free])
    tr.problem_name = kernel.name  # as the CLI names its trace
    assert _sha256(render_trace_csv(tr)) == _KERNEL_EPS_001_SHA256
    want = np.array([0.9999999999999994, free]).tobytes()
    assert tr.final_state.y.tobytes() == want and tr.final_state.z.tobytes() == want


def test_a_nan_start_raises_at_outer_step_0(kernel):
    with pytest.raises(NumericError, match="non-finite x-iterate at outer step 0"):
        run_f2ba(kernel.problem, kernel_plan(), x0=[math.nan])


def _counted(prob):
    """``prob`` with every first-order oracle and analytic reference counted;
    the references also record the x they were called at."""
    counts, seen = collections.Counter(), []

    def wrap(name, fn):
        def counted(*args):
            counts[name] += 1
            if name.startswith("analytic"):
                seen.append(tuple(args[0]))
            return fn(*args)
        return counted

    names = ("grad_f_x", "grad_f_y", "grad_g_x", "grad_g_y",
             "analytic_phi", "analytic_grad_phi")
    return dataclasses.replace(
        prob, **{n: wrap(n, getattr(prob, n)) for n in names}), counts, seen


def test_a_fixed_point_makes_every_oracle_call(kernel):
    # x = 1, y = z = (1, 0) is an exact fixed point of kernel_pl: no iterate
    # changes, and each outer step still calls f_y K times, g_y 2K times,
    # f_x once and g_x twice
    prob, counts, seen = _counted(kernel.problem)
    plan = kernel_plan(T=7)
    tr = run_f2ba(prob, plan, x0=[1.0], y0=[1.0, 0.0])
    assert {r.x for r in tr.rows} == {(1.0,)}
    assert {k: counts[k] for k in ("grad_f_y", "grad_g_y", "grad_f_x", "grad_g_x")} \
        == {"grad_f_y": 7 * plan.K, "grad_g_y": 14 * plan.K,
            "grad_f_x": 7, "grad_g_x": 14}
    assert counts["analytic_phi"] == counts["analytic_grad_phi"] == 1


def test_analytic_references_are_called_once_per_distinct_x(kernel):
    prob, counts, seen = _counted(kernel.problem)
    tr = run_f2ba(prob, kernel_plan(T=150))
    xs = [r.x for r in tr.rows]
    changes = 1 + sum(a != b for a, b in zip(xs, xs[1:]))
    assert changes < len(xs)  # the run converges, so x repeats
    assert counts["analytic_phi"] == counts["analytic_grad_phi"] == changes
    # each reference at the first row of each x, in row order
    firsts = [x for i, x in enumerate(xs) if i == 0 or x != xs[i - 1]]
    assert seen[::2] == seen[1::2] == firsts
    # and the rows of one x share its tuple and its columns
    assert all(a.x is b.x for a, b in zip(tr.rows, tr.rows[1:]) if a.x == b.x)


@pytest.mark.parametrize("method", ["f2ba", "f2bsa"])
@pytest.mark.parametrize("grad", [[0.1, 0.2], [0.1, 0.2, 0.3]])
def test_an_estimate_of_the_wrong_shape_is_refused_before_an_oracle_sees_it(
        kernel, method, grad):
    # the inner phase does not validate the x its run owns; the estimate's
    # x-gradients are refused at the oracle boundary, so no x of another
    # shape is ever made
    def shaped(fn):
        def checked(x, y):
            assert x.shape == (1,)
            return fn(x, y)
        return checked

    prob = dataclasses.replace(kernel.problem, grad_f_x=lambda x, y: np.array(grad),
                               grad_f_y=shaped(kernel.problem.grad_f_y),
                               grad_g_y=shaped(kernel.problem.grad_g_y))
    with pytest.raises(InputError, match=rf"^grad_x f must be a vector of length 1, got "
                                         rf"shape \({len(grad)},\)"):
        if method == "f2ba":
            run_f2ba(prob, kernel_plan(T=3))
        else:
            run_f2bsa(prob, kernel_plan(T=3), seed=0)


# ---------------------------------------------------------------------------
# The benchmark's hooks (perfbench/workloads.py `install_clock` and
# perfbench/tracing.py `install`) swap `drivers.inner_descend` and
# `drivers.hypergradient_estimate` for wrappers by name: the clock stamps each
# outer step at the inner phase's entry, and the tracer reads the phase's K_t
# from its sixth positional argument.  A driver that called a private phase
# directly would leave the clock timing whole solves.


@pytest.mark.parametrize("method", ["f2ba", "f2bsa"])
def test_each_outer_step_calls_the_inner_phase_and_estimator_by_name(method,
                                                                      monkeypatch):
    from bipen import drivers

    calls = []
    inner, estimate = drivers.inner_descend, drivers.hypergradient_estimate

    def inner_spy(*args, **kwargs):
        res = inner(*args, **kwargs)
        calls.append(("inner", args[5].K, res))
        return res

    def estimate_spy(*args, **kwargs):
        calls.append(("estimate",))
        return estimate(*args, **kwargs)

    monkeypatch.setattr(drivers, "inner_descend", inner_spy)
    monkeypatch.setattr(drivers, "hypergradient_estimate", estimate_spy)
    s = get_problem("kernel_pl" if method == "f2ba" else "kernel_pl_fnoise")
    plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                          overrides={"T": 12})
    tr = (run_f2ba(s.problem, plan) if method == "f2ba"
          else run_f2bsa(s.problem, plan, seed=3))
    assert [c[0] for c in calls] == ["inner", "estimate"] * len(tr.rows)
    phases = calls[::2]
    assert [k for _, k, _ in phases] == [r.K_t for r in tr.rows]
    if method == "f2bsa":
        assert plan.B > 0 and len({r.K_t for r in tr.rows}) > 1  # K_t adapts
    for _, k, res in phases:
        assert res.steps == k
        assert type(res.y) is np.ndarray and type(res.z) is np.ndarray
    assert phases[-1][2].y is tr.final_state.y and phases[-1][2].z is tr.final_state.z


# ---------------------------------------------------------------------------
# A prepared phase and the outer loop reuse a norm, or the kept x, only for
# inputs with the bytes of the last ones.  Against an outer loop that reuses
# nothing, every row, norm and final state must keep its bits.


def _ref_run(prob, plan, x0, y0, seed=None):
    """The outer loop of both methods with no reuse: each phase from the
    reference inner loop of tests/test_inner.py, each norm and step afresh."""
    from test_inner import _ref_inner_descend

    from bipen import hypergradient_estimate

    c = prob.constants
    pen = PenaltyObjective(prob, plan.sigma)
    x, y = np.array(x0, dtype=float), np.array(y0, dtype=float)
    z = y.copy()
    radius = 1e6 * (1.0 + max(np.linalg.norm(x), np.linalg.norm(y)))
    oracle = None if seed is None else StochasticOracle(prob, c.M_f, c.M_g, rng_seed=seed)
    B = 0 if oracle is None else plan.B
    delta = math.nan if oracle is None else plan.delta0
    rows, calls = [], 0
    for t in range(plan.T):
        k_t = stochastic_inner_count(plan, delta) if B > 0 else plan.K
        cfg = InnerConfig(tau=plan.tau, K=k_t, batch=B, divergence_radius=radius)
        res = _ref_inner_descend(prob, x, y, z, plan.sigma, cfg, oracle)
        est = hypergradient_estimate(pen, x, res.y, res.z, oracle, B)
        y, z = res.y, res.z
        calls += res.oracle_calls + 3 * max(B, 1)
        gt = float(np.linalg.norm(prob.analytic_grad_phi(x)))
        rows.append((t, float(np.linalg.norm(est)), gt, float(prob.analytic_phi(x)),
                     res.steps, delta, res.grad_norm_y, res.grad_norm_z, calls, tuple(x)))
        x_new = x - plan.eta * est
        if oracle is not None:
            step_sq = float(np.sum((x_new - x) ** 2))
            delta = (0.5 * delta + 8.0 * (c.L_g / c.mu) ** 2 * step_sq
                     + plan.c_delta * plan.sigma ** 2 * plan.epsilon ** 2 / c.L_g ** 2)
        x = x_new
    return rows, (x, y, z, delta, calls)


def _row_bits(row):
    return tuple(struct.pack("<d", v) if isinstance(v, float) else
                 tuple(struct.pack("<d", e) for e in v) if isinstance(v, tuple) else v
                 for v in row)


def _assert_matches_the_reference(make_prob, plan, x0, y0, seed=None):
    """Run the package and the reference on fresh copies of the problem
    (``make_prob`` resets any oracle state) and compare every bit."""
    if seed is None:
        tr = run_f2ba(make_prob(), plan, x0=x0, y0=y0)
    else:
        tr = run_f2bsa(make_prob(), plan, x0=x0, y0=y0, seed=seed)
    rows, (x, y, z, delta, calls) = _ref_run(make_prob(), plan, x0, y0, seed)
    got = [_row_bits(r[:10]) for r in tr.rows]
    assert got == [_row_bits(r) for r in rows]
    s = tr.final_state
    assert [v.tobytes() for v in (s.x, s.y, s.z)] == [v.tobytes() for v in (x, y, z)]
    assert struct.pack("<d", s.delta) == struct.pack("<d", delta)
    assert s.oracle_calls == calls
    return tr


def _zeros_flipped(prob, seed):
    """``prob`` whose first-order oracles return each exact zero as 0.0 or
    -0.0, drawn afresh on every call: a gradient that repeats its values
    while the signs of its zeros change."""
    rng = np.random.default_rng(seed)

    def flip(fn):
        def flipped(x, y):
            v = np.array(fn(x, y), dtype=float)
            zero = v == 0.0
            v[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
            return v
        return flipped

    return dataclasses.replace(prob, **{n: flip(getattr(prob, n)) for n in
                                        ("grad_f_x", "grad_f_y", "grad_g_x", "grad_g_y")})


def _zero_problem():
    """f = (x^2 + |y|^2) / 2 and g = |y - x 1|^2 / 2 with analytic phi: every
    gradient vanishes at x = 0, y = 0, with the signs of its zeros set by
    the signs of x and y."""
    return BilevelProblem(
        dim_x=1, dim_y=2,
        f=lambda x, y: 0.5 * (x[0] * x[0] + float(y.dot(y))),
        grad_f_x=lambda x, y: x.copy(),
        grad_f_y=lambda x, y: y.copy(),
        g=lambda x, y: 0.5 * float((y - x[0]).dot(y - x[0])),
        grad_g_x=lambda x, y: np.array([-(y - x[0]).sum()]),
        grad_g_y=lambda x, y: y - x[0],
        constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0,
                                   mu=1.0, sigma_bar=1.0),
        analytic_phi=lambda x: 1.5 * x[0] * x[0],
        analytic_grad_phi=lambda x: 3.0 * x,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("start", [([-0.0], [0.0, -0.0]), ([0.0], [-0.0, -0.0]),
                                   ([1.0], [1.0, -0.0])])
def test_gradients_whose_zeros_flip_sign_keep_the_reference_bits(kernel, seed, start):
    # kernel_pl's fixed point x = 1, y = (1, 0), and the zero problem's at
    # x = 0, y = 0: every gradient is zero, and a sign that flips can turn
    # -0.0 iterates into 0.0, which == does not see
    x0, y0 = start
    base = kernel.problem if x0 == [1.0] else _zero_problem()
    plan = build_schedule(base.constants, 0.1, Delta=0.5, R=0.25,
                          overrides={"T": 40, "K": 3})
    tr = _assert_matches_the_reference(lambda: _zeros_flipped(base, seed), plan, x0, y0)
    assert len({r.x for r in tr.rows}) <= 2


def _float32(prob):
    """``prob`` whose first-order oracles return float32 vectors."""
    return dataclasses.replace(prob, **{
        n: (lambda fn: lambda x, y: np.asarray(fn(x, y), dtype=np.float32))(
            getattr(prob, n))
        for n in ("grad_f_x", "grad_f_y", "grad_g_x", "grad_g_y")})


@pytest.mark.parametrize("x0, y0", [([1.0], [1.0, 0.0]), ([1.0], [1.0, -0.0]),
                                    (None, None)])
def test_float32_gradients_keep_the_reference_bits(kernel, x0, y0):
    # at kernel_pl's fixed point the float32 gradients repeat equal values;
    # from the default start the run converges to repeating ones
    plan = kernel_plan(T=60)
    x0, y0 = (x0, y0) if x0 is not None else kernel.problem.default_start()
    _assert_matches_the_reference(lambda: _float32(kernel.problem), plan, x0, y0)


def test_an_estimate_that_repeats_while_x_moves_keeps_the_reference_bits(kernel):
    # est = 0.25 on every step: x moves by eta / 4 each time, so the kept-x
    # reuse must not fire on a repeated estimate alone
    prob = dataclasses.replace(kernel.problem, grad_f_x=lambda x, y: np.array([0.25]),
                               grad_g_x=lambda x, y: np.zeros(1))
    plan = kernel_plan(T=30)
    tr = _assert_matches_the_reference(lambda: prob, plan, [1.0], [1.0, 0.0])
    assert len({r.grad_est_norm for r in tr.rows}) == 1
    assert len({r.x for r in tr.rows}) == len(tr.rows)


@pytest.mark.parametrize("method", ["f2ba", "f2bsa"])
def test_a_converging_run_keeps_the_reference_bits(method):
    # the reuse serves most of a converged f2ba run; f2bsa's noisy iterates
    # never repeat, and its phases change K_t
    s = get_problem("kernel_pl" if method == "f2ba" else "kernel_pl_fnoise")
    plan = build_schedule(s.problem.constants, 0.1, Delta=0.5, R=0.25,
                          overrides={"T": 300 if method == "f2ba" else 25})
    rng = np.random.default_rng(2207)
    x0, y0 = rng.uniform(0.0, 2.0, size=1), rng.uniform(0.0, 2.0, size=2)
    tr = _assert_matches_the_reference(lambda: s.problem, plan, x0, y0,
                                       None if method == "f2ba" else 5)
    if method == "f2ba":  # the run converges and its rows share their norms
        last = tr.rows[-1]
        assert tr.rows[-2].x is last.x
        assert tr.rows[-2].grad_est_norm is last.grad_est_norm
        assert tr.rows[-2].resid_y is last.resid_y and tr.rows[-2].resid_z is last.resid_z


@pytest.mark.parametrize("late", ["moved", "zeros flipped"])
@pytest.mark.parametrize("part", ["grad_f_y", "grad_g_y"])
@pytest.mark.parametrize("n", [3, 22, 41])
def test_an_oracle_that_changes_mid_run_at_a_fixed_point_keeps_the_reference_bits(
        kernel, late, part, n):
    # from kernel_pl's fixed point every inner step keeps z and y, and later
    # steps repeat the kept one, until the oracle's output changes after n
    # calls; each phase still makes K f_y and 2K g_y calls
    from test_inner import _LATE, _switched

    plan = kernel_plan(T=12, K=5)
    counts = []

    def make():
        prob, c = _switched(kernel.problem, part, n, _LATE[late])
        counts.append(c)
        return prob

    tr = _assert_matches_the_reference(make, plan, [1.0], [1.0, -0.0])
    assert counts[0] == counts[1] == {"grad_f_y": 60, "grad_g_y": 120}
    if late == "moved":
        assert len({r.x for r in tr.rows}) > 1


@pytest.mark.parametrize("late", ["moved", "zeros flipped"])
@pytest.mark.parametrize("part, n", [("grad_f_y", 20), ("grad_f_y", 45), ("grad_g_y", 40),
                                     ("grad_g_y", 41), ("grad_g_y", 90)])
@pytest.mark.parametrize("free", [0.0, -0.0])
def test_an_oracle_that_changes_at_the_first_step_of_a_phase_keeps_the_reference_bits(
        kernel, late, part, n, free):
    # K = 5: f_y call n = 5t and g_y calls n = 10t and 10t + 1 are the first
    # step of outer step t, which a converged run starts from the last
    # phase's kept step
    from test_inner import _LATE, _switched

    plan = kernel_plan(T=12, K=5)
    counts = []

    def make():
        prob, c = _switched(kernel.problem, part, n, _LATE[late])
        counts.append(c)
        return prob

    tr = _assert_matches_the_reference(make, plan, [1.0], [1.0, free])
    assert counts[0] == counts[1] == {"grad_f_y": 60, "grad_g_y": 120}
    if late == "moved":
        assert len({r.x for r in tr.rows}) > 1


def test_x_moving_while_the_inner_gradients_repeat_keeps_the_reference_bits(kernel):
    # y-gradients of 1e-20 keep y = z = (1, 0) whatever x is, while an
    # estimate of 0.25 moves x on every step: each phase starts from the
    # last one's kept step
    prob = dataclasses.replace(kernel.problem, grad_f_x=lambda x, y: np.array([0.25]),
                               grad_g_x=lambda x, y: np.zeros(1),
                               grad_f_y=lambda x, y: np.array([1e-20, 0.0]),
                               grad_g_y=lambda x, y: np.array([1e-20, 0.0]))
    tr = _assert_matches_the_reference(lambda: prob, kernel_plan(T=30), [1.0], [1.0, 0.0])
    assert len({r.x for r in tr.rows}) == len(tr.rows)
    assert tr.final_state.y.tobytes() == np.array([1.0, 0.0]).tobytes()


@pytest.mark.parametrize("K", [0, 1, 4])
@pytest.mark.parametrize("start", [[1.0, 0.0], [1.0, -0.0], [0.3, 0.7]])
@pytest.mark.parametrize("shared", [False, True])
def test_the_public_inner_loop_copies_and_never_writes_its_inputs(kernel, K, start,
                                                                  shared):
    # from kernel_pl's fixed point every float step keeps its iterates, and
    # the loop may return the arrays it holds: never the caller's own
    y0 = np.array(start)
    z0 = y0 if shared else np.array(start)
    before = (y0.tobytes(), z0.tobytes())
    for _ in range(2):  # a second call sees no state of the first
        res = inner_descend(kernel.problem, [1.0], y0, z0, 0.1,
                            InnerConfig(tau=0.5, K=K))
        assert res.y is not y0 and res.y is not z0
        assert res.z is not y0 and res.z is not z0 and res.y is not res.z
        assert (y0.tobytes(), z0.tobytes()) == before
