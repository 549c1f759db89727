import dataclasses

import numpy as np
import pytest

from bipen import (
    CapabilityError,
    ConfigError,
    InputError,
    NumericError,
    check_gradients,
    check_smoothness_constants,
    exact_hypergradient_pinv,
    fd_hypergradient,
    galet_residuals,
    get_problem,
    grid_hyper_objective,
    hausdorff_distance,
    hypergradient_routes,
    pl_ratio_certificate,
    set_lipschitz_check,
    smoothness_probe,
)
from bipen.core import as_bilevel, as_vector


class TestHausdorff:
    def test_frozen_hand_value(self):
        # directed distances: max(0.2, 0.8) one way, 0.2 the other
        assert hausdorff_distance([0.0, 1.0], [0.2]) == pytest.approx(0.8)

    def test_symmetry_and_zero_on_equal_sets(self):
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        b = np.array([[2.0, 0.1]])
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
        assert hausdorff_distance(a, a) == 0.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InputError):
            hausdorff_distance([], [0.0])
        with pytest.raises(InputError):
            hausdorff_distance(np.zeros((2, 2)), np.zeros((2, 3)))


class TestHypergradientRoutes:
    def test_fd_matches_frozen_value(self, kernel):
        # d/dx [ (x-1)^2 / (2 (1+sigma)) ] at x = 0.3, sigma = 1e-5
        grad = fd_hypergradient(kernel.problem, [0.3])
        assert grad[0] == pytest.approx(-0.69999300, abs=1e-4)

    def test_fd_tracks_analytic_penalized_gradient(self, kernel):
        for x in (-0.2, 0.5, 1.3):
            grad = fd_hypergradient(kernel.problem, [x])
            want = (x - 1.0) / (1.0 + 1e-5)  # d/dx (x-1)^2 / (2 (1+sigma))
            assert grad[0] == pytest.approx(want, abs=1e-4)

    def test_pinv_route_exact_on_kernel_and_quadratic(self, kernel, quadratic):
        for x in (-0.4, 0.0, 0.8):
            g = exact_hypergradient_pinv(kernel.problem, [x],
                                         np.array([x, 0.7]))
            assert g[0] == pytest.approx(x - 1.0, abs=1e-12)
            g = exact_hypergradient_pinv(quadratic.problem, [x],
                                         np.array([x, 0.0]))
            assert g[0] == pytest.approx(2.0 * x - 1.0, abs=1e-10)

    def test_pinv_requires_a_minimizer(self, kernel):
        with pytest.raises(InputError, match="minimiz"):
            exact_hypergradient_pinv(kernel.problem, [0.3],
                                     np.array([0.9, 0.0]))

    def test_pinv_requires_hessians(self):
        prob = get_problem("kernel_pl").problem
        stripped = dataclasses.replace(prob, hess_g_yy=None, hess_g_xy=None)
        with pytest.raises(CapabilityError):
            exact_hypergradient_pinv(stripped, [0.3], np.array([0.3, 0.0]))

    def test_routes_agree_pairwise(self, kernel, quadratic):
        for suite in (kernel, quadratic):
            for x in (-0.3, 0.2, 0.9):
                out = hypergradient_routes(suite, [x])
                assert {"fd", "pinv", "analytic"} <= set(out["routes"])
                for pair, gap in out["disagreements"].items():
                    assert gap <= 1e-3, (suite.name, x, pair)


class TestPLCertificate:
    def test_kernel_ratio_is_tight(self, kernel):
        cert = pl_ratio_certificate(kernel.problem, sigma=0.0, probes=60)
        assert cert.min_ratio == pytest.approx(1.0, rel=1e-6)
        assert cert.used > 0

    def test_sin_sq_certified_constant_holds(self, sin_sq):
        cert = pl_ratio_certificate(sin_sq.problem, sigma=0.0, probes=120,
                                    seed=2)
        assert cert.min_ratio >= sin_sq.problem.constants.mu

    def test_penalized_objective_keeps_pl_on_kernel(self, kernel):
        cert = pl_ratio_certificate(kernel.problem, sigma=0.2, probes=60)
        assert cert.min_ratio >= kernel.problem.constants.mu - 1e-9

    def test_input_validation(self, kernel):
        with pytest.raises(InputError):
            pl_ratio_certificate(kernel.problem, probes=0)
        with pytest.raises(ConfigError):
            pl_ratio_certificate(kernel.problem, sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_is_a_config_error(self, kernel, sigma):
        with pytest.raises(ConfigError):
            pl_ratio_certificate(kernel.problem, sigma=sigma, probes=20)


class TestGaletResiduals:
    def test_kernel_on_set_residuals(self, kernel):
        r = galet_residuals(kernel.problem, [0.7], [0.7, 1.3])
        assert r.R_x == pytest.approx(0.3, abs=1e-10)
        assert r.R_w == pytest.approx(0.0, abs=1e-10)
        assert r.R_y == pytest.approx(0.0, abs=1e-10)
        def stationary(eps):
            return r.R_x <= eps and r.R_w <= eps and r.R_y <= eps * eps

        assert stationary(0.31) and not stationary(0.1)

    def test_kernel_off_set_value_residual(self, kernel):
        # g(x, (x+d, t)) - g* = d^2 / 2 regardless of the kernel coordinate
        for d, t in ((0.2, 5.0), (0.05, -2.0)):
            r = galet_residuals(kernel.problem, [0.3], [0.3 + d, t])
            assert r.R_y == pytest.approx(d * d / 2.0, abs=1e-9)

    def test_boxed_discontinuous_hand_values(self):
        s = get_problem("discontinuous")
        r = galet_residuals(s.problem, [0.25], [0.5])
        # g(x, y) = x y on [0, 1]: g* = 0 at y = 0, so R_y = 0.125; f = y^2/2
        # has slope 0 in x and the Hessian chain h w picks w = 0
        assert r.R_x == pytest.approx(0.5, abs=1e-12)
        assert r.R_y == pytest.approx(0.125, abs=1e-9)
        assert np.allclose(r.w, 0.0)

    def test_negative_gap_is_a_numeric_error(self, kernel):
        # value and gradient disagree in sign, so the descent's certified
        # g* ends up above the queried value: the gap turns negative and
        # must be reported instead of clipped
        bad = dataclasses.replace(
            kernel.problem, g=lambda x, y: -0.5 * (y[0] - x[0]) ** 2)
        with pytest.raises(NumericError):
            galet_residuals(bad, [0.3], [0.5, 0.0])


class TestSmoothnessAndGradients:
    def test_declared_gradients_pass_fd_check(self):
        for name in ("kernel_pl", "quadratic_sc", "sin_sq_pl"):
            assert check_gradients(get_problem(name).problem,
                                   n_probes=25, seed=1) < 1e-6

    def test_gradient_check_catches_a_wrong_gradient(self, kernel):
        prob = kernel.problem
        bad = dataclasses.replace(
            prob, grad_f_y=lambda x, y: 1.1 * prob.grad_f_y(x, y))
        assert check_gradients(bad, n_probes=10, seed=0) > 1e-2

    def test_blockwise_constants_hold_on_suite(self):
        for name in ("kernel_pl", "quadratic_sc", "sin_sq_pl"):
            prob = get_problem(name).problem
            out = check_smoothness_constants(prob, n_pairs=60, seed=3)
            c = prob.constants
            for key, ratio in out.items():
                bound = c.L_f if key.startswith("grad_f") else c.L_g
                assert ratio <= bound * (1 + 1e-9), (name, key, ratio)

    def test_constant_check_catches_underdeclared_modulus(self, kernel):
        prob = kernel.problem
        c = prob.constants
        bad = dataclasses.replace(
            prob, constants=dataclasses.replace(c, L_g=0.5))
        out = check_smoothness_constants(bad, n_pairs=40, seed=0)
        assert any(r > 0.5 * (1 + 1e-9) for k, r in out.items()
                   if k.startswith("grad_g"))

    def test_hyper_smoothness_probe_on_kernel(self, kernel):
        pairs = [(np.array([a]), np.array([b]))
                 for a, b in ((0.1, 0.9), (0.2, 0.2), (1.4, 0.6))]
        est = smoothness_probe(kernel.problem, pairs)
        assert est.scale == 1.0  # ell = kappa = 1 on this instance
        assert est.max_ratio == pytest.approx(1.0, rel=1e-9)
        assert est.used == 2 and est.skipped == 1


class TestGridHyperObjective:
    def test_jump_of_the_discontinuous_instance(self):
        prob = get_problem("discontinuous").problem
        hi = grid_hyper_objective(prob, [-1e-3])
        lo = grid_hyper_objective(prob, [1e-3])
        assert hi - lo == pytest.approx(1.0, abs=1e-5)
        assert grid_hyper_objective(prob, [0.0]) == 0.0

    def test_smoothed_variant_approaches_analytic_value(self):
        s = get_problem("discontinuous_smoothed")
        for x in (-0.3, 0.2):
            got = grid_hyper_objective(s.problem, [x], n=20001)
            assert got == pytest.approx(s.problem.analytic_phi([x]), abs=2e-3)

    def test_requires_scalar_lower_level(self, quadratic):
        with pytest.raises(CapabilityError):
            grid_hyper_objective(quadratic.problem, [0.3])

    @pytest.mark.parametrize("name", ["sin_sq_pl", "discontinuous",
                                      "discontinuous_smoothed"])
    def test_matches_the_per_point_reference(self, name):
        prob = get_problem(name).problem
        lo, hi = prob.meta.x_window
        xs = [0.0, -1e-3, 1e-3] + list(np.random.default_rng(17).uniform(lo, hi, 5))
        for x in xs:
            got = grid_hyper_objective(prob, [x])
            ref = _ref_grid_hyper_objective(prob, [x])
            assert type(got) is float and got.hex() == ref.hex(), (name, x)


# the grid oracle as it stood when it built a fresh y vector per grid point,
# kept verbatim: the package's version must match it bit for bit
def _ref_grid_hyper_objective(problem, x, n: int = 5001, tie_tol: float = 1e-9) -> float:
    prob = as_bilevel(problem)
    x = as_vector(x, prob.dim_x, "x")
    if prob.dim_y != 1:
        raise CapabilityError("grid hyper-objective supports dim_y = 1 only")
    meta = prob.meta
    if meta is None:
        raise ConfigError("grid hyper-objective needs declared windows")
    lo, hi = meta.y_box[0] if meta.y_box is not None else meta.y_window
    ys = np.linspace(lo, hi, n)
    gv = np.array([prob.g(x, np.array([t])) for t in ys])
    ties = gv <= gv.min() + tie_tol * (1.0 + abs(float(gv.min())))
    fv = np.array([prob.f(x, np.array([t])) for t in ys[ties]])
    return float(fv.min())


class TestSetStability:
    def test_no_violations_on_kernel_and_quadratic(self, kernel, quadratic):
        for suite in (kernel, quadratic):
            out = set_lipschitz_check(suite, n_pairs=60, seed=4)
            assert out["violations"] == []
            assert out["checked"] == 60
            assert 0.0 < out["worst_ratio"] <= 1.0

    def test_needs_a_sampler(self, sin_sq):
        with pytest.raises(CapabilityError):
            set_lipschitz_check(sin_sq)


@pytest.mark.parametrize("n", [0, -3])
def test_every_sampling_check_refuses_fewer_than_one_probe(kernel, n):
    # a check that samples nothing would report a pass it never earned
    checks = [
        lambda: pl_ratio_certificate(kernel.problem, probes=n),
        lambda: check_gradients(kernel.problem, n_probes=n),
        lambda: check_smoothness_constants(kernel.problem, n_pairs=n),
        lambda: set_lipschitz_check(kernel, n_pairs=n),
    ]
    for check in checks:
        with pytest.raises(InputError, match="must be >= 1"):
            check()


def test_every_window_reading_check_refuses_a_windowless_problem(kernel, sin_sq):
    # meta=None must be refused by name, not surface as an AttributeError
    def bare(suite):
        return dataclasses.replace(suite, problem=dataclasses.replace(suite.problem,
                                                                      meta=None))
    k, s = bare(kernel), bare(sin_sq)
    checks = [
        lambda: pl_ratio_certificate(k.problem, probes=20),
        lambda: check_gradients(k.problem, n_probes=5),
        lambda: check_smoothness_constants(k.problem, n_pairs=5),
        lambda: grid_hyper_objective(s.problem, [0.3]),  # dim_y = 1 only
        lambda: set_lipschitz_check(k, n_pairs=5),
    ]
    for check in checks:
        with pytest.raises(ConfigError, match="needs a problem with probe windows"):
            check()
