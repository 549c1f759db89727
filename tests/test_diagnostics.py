import dataclasses
import math
import struct

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
    list_problems,
    pl_ratio_certificate,
    set_lipschitz_check,
    smoothness_probe,
)
from bipen import diagnostics, inner
from bipen.core import _GRID_ROUNDS, _grid_min, _h_rows, as_vector
from bipen.diagnostics import _TIE_TOL, _as_point_cloud, _vnorm, _windows


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

    @pytest.mark.parametrize("d", range(8))
    def test_matches_the_broadcast_reference_bitwise(self, d):
        # numpy adds fewer than 8 terms in sequence, as the package does;
        # points with no coordinates are all at distance 0.  The clouds
        # overflow and hold NaN on purpose, so both sides run without
        # numpy's warnings of it: any other warning still shows
        for A, B in _clouds(d, seed=d):
            with np.errstate(over="ignore", invalid="ignore"):
                want = _ref_hausdorff_distance(A, B)
                got = hausdorff_distance(A, B)
            assert _f64_bits(got) == _f64_bits(want), (A, B)

    @pytest.mark.parametrize("d", [8, 9, 16])
    def test_matches_the_broadcast_reference_to_rounding_from_8_coordinates(self, d):
        # from 8 terms numpy sums in pairwise blocks, so the last bits may
        # differ: d nonnegative terms summed in two orders agree to
        # (d - 1) ulps, and the square root halves that
        rel = 1e-14
        for A, B in _clouds(d, seed=d):
            # overflowing and NaN clouds on purpose, as above
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = hausdorff_distance(A, B), _ref_hausdorff_distance(A, B)
            if math.isnan(want) or math.isinf(want):
                assert _f64_bits(got) == _f64_bits(want)
            else:
                assert abs(got - want) <= rel * want, (got, want)


def _f64_bits(v) -> bytes:
    return struct.pack("<d", v)


_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])


def _clouds(d, seed):
    """Pairs of (n, d) and (m, d) clouds: one-point and unequal sizes, entries
    of one scale or across 400 decades (so some squares overflow), and some
    with NaN, +-inf and +-0.0 entries."""
    rng = np.random.default_rng(seed)
    for n, m in ((1, 1), (1, 7), (7, 1), (2, 3), (51, 51), (51, 37)):
        for trial in range(8):
            wide = 200.0 if trial >= 4 else 0.0
            A = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-wide, wide, (n, d))
            B = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-wide, wide, (m, d))
            if trial % 2:
                for C in (A, B):
                    hit = rng.random(C.shape) < 0.2
                    C[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
            yield A, B
    yield np.zeros((3, d)), -np.zeros((2, d))


# the distance as it stood when it broadcast an (n, m, d) array, kept
# verbatim: the package's version must match it bit for bit below 8
# coordinates
def _ref_hausdorff_distance(S1, S2) -> float:
    A, B = _as_point_cloud(S1), _as_point_cloud(S2)
    if A.shape[1] != B.shape[1]:
        raise InputError(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


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

    def test_boxed_problem_takes_h_star_from_the_box_grid(self):
        # g = x y on y in [0, 1]: the grid holds both endpoints, so h* =
        # min(x, 0) exactly and each ratio is x^2 / (2 (x y - min(x, 0)));
        # unconstrained pre-solves would run into the step cap instead
        prob = get_problem("discontinuous").problem
        cert = pl_ratio_certificate(prob, probes=40, seed=3)
        assert cert.used + cert.skipped == 40 and cert.used > 0
        x, y = cert.worst_x[0], cert.worst_y[0]
        want = x * x / (2.0 * (x * y - min(x, 0.0)))
        assert cert.min_ratio == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("name, per_x", [
        ("kernel_pl", 21), ("quadratic_sc", 21), ("sin_sq_pl", 21),
        ("degenerate_penalty_boxed", 0)])
    def test_presolves_once_per_start(self, monkeypatch, name, per_x):
        # h* folds one pre-solve per start, the default y0 and every y-probe
        # (1 + 20 at 20 y-probes per x-probe), or takes one box grid per
        # x-probe; counted as the benchmark counts its units of inner work
        solves, grids = [], []
        single, box = inner.descend_single, inner._box_min
        monkeypatch.setattr(inner, "descend_single",
                            lambda *a, **k: solves.append(1) or single(*a, **k))
        monkeypatch.setattr(inner, "_box_min", lambda *a: grids.append(1) or box(*a))
        for probes, n_x in ((20, 1), (40, 2)):
            solves.clear(), grids.clear()
            pl_ratio_certificate(get_problem(name).problem, probes=probes, seed=5)
            assert len(solves) == per_x * n_x
            assert len(grids) == (0 if per_x else n_x)


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

    def test_a_problem_without_a_hessian_is_refused(self, kernel):
        for block in ("hess_g_yy", "hess_g_xy"):
            bare = dataclasses.replace(kernel.problem, **{block: None})
            with pytest.raises(CapabilityError, match="need hess_g_yy and hess_g_xy"):
                galet_residuals(bare, [0.7], [0.7, 1.3])

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

    @pytest.mark.parametrize("x", [-8.259648357489269e-07, -2e-6])
    def test_a_g_of_scale_x_ties_on_its_own_scale(self, x):
        # g = x*y moves by |x| over the box: an absolute slack of 1e-9 tied
        # y down to 1 - 1e-9/|x| and read f = x^2 + y^2 there (0.9976 at the
        # first x, against phi = 1 + x^2)
        prob = get_problem("discontinuous").problem
        got = grid_hyper_objective(prob, [x])
        assert got == pytest.approx(prob.analytic_phi([x]), abs=1e-3)

    def test_smoothed_variant_approaches_analytic_value(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_GRID_POINTS", 20001)
        s = get_problem("discontinuous_smoothed")
        for x in (-0.3, 0.2):
            got = grid_hyper_objective(s.problem, [x])
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
def _ref_grid_hyper_objective(prob, x, n: int = 5001, tie_tol: float = 1e-9) -> float:
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


# the grid evaluators as they stood when each point went through a list
# comprehension and h_0 was a lambda, kept verbatim: the package's versions
# must match them bit for bit
def _ref_h(prob, x, sigma: float):
    if sigma == 0.0:
        return lambda y: prob.g(x, y)
    return lambda y: sigma * prob.f(x, y) + prob.g(x, y)


def _ref_grid_min(fn, box, n_per_dim: int):
    box = [tuple(map(float, b)) for b in box]
    dim = len(box)
    if dim > 2:
        raise CapabilityError(
            f"grid evaluation supports dim_y <= 2, got dim_y = {dim}"
        )
    best_pt, best_val = None, math.inf
    cur = list(box)
    for _ in range(_GRID_ROUNDS):
        axes = [np.linspace(lo, hi, n_per_dim) for lo, hi in cur]
        if dim == 1:
            pts = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
        vals = np.array([fn(p) for p in pts])
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_pt = pts[k].copy()
        nxt = []
        for d in range(dim):
            lo0, hi0 = box[d]
            span = (cur[d][1] - cur[d][0]) / (n_per_dim - 1) * 4
            c = best_pt[d]
            nxt.append((max(lo0, c - span), min(hi0, c + span)))
        cur = nxt
    spacing = max((hi - lo) / (n_per_dim - 1) for lo, hi in cur)
    return best_pt, best_val, spacing


def _ref_list_grid_hyper_objective(prob, x, n: int = 5001) -> float:
    x = as_vector(x, prob.dim_x, "x")
    if prob.dim_y != 1:
        raise CapabilityError("grid hyper-objective supports dim_y = 1 only")
    meta = _windows(prob, "grid hyper-objective")
    lo, hi = meta.y_box[0] if meta.y_box is not None else meta.y_window
    ys = np.linspace(lo, hi, n)[:, None]
    gv = np.array([prob.g(x, y) for y in ys])
    ties = gv <= gv.min() + _TIE_TOL * (1.0 + abs(float(gv.min())))
    fv = np.array([prob.f(x, y) for y in ys[ties]])
    return float(fv.min())


_GRID_PROBLEMS = ["sin_sq_pl", "discontinuous", "discontinuous_smoothed",
                  "degenerate_penalty_boxed"]
# the suite's problems that declare row oracles, in registry order
_ROW_PROBLEMS = ["sin_sq_pl", "discontinuous", "discontinuous_smoothed",
                 "degenerate_penalty", "degenerate_penalty_boxed"]


def _grid_xs(prob):
    lo, hi = prob.meta.x_window
    xs = (0.0, 0.37 * hi) if prob.dim_y == 2 else (lo, -1e-3, 0.0, 1e-3, 0.37 * hi)
    return [np.array([x]) for x in xs]


def _each_path(prob):
    """``prob`` with its row oracles, with g's alone (f per point) and with
    neither (one call per point)."""
    return (prob, dataclasses.replace(prob, f_rows=None),
            dataclasses.replace(prob, f_rows=None, g_rows=None))


def _grid_box(prob):
    """The declared box, or the probe window where none is declared, and the
    box path's point count per axis."""
    meta = prob.meta
    box = meta.y_box if meta.y_box is not None else [meta.y_window] * prob.dim_y
    return box, 201 if prob.dim_y == 2 else 4001


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", _GRID_PROBLEMS)
def test_grid_minimizer_matches_the_list_reference_bitwise(name, sigma):
    box, n = _grid_box(get_problem(name).problem)
    for prob in _each_path(get_problem(name).problem):
        for x in _grid_xs(prob):
            pt, val, spacing = _grid_min(_h_rows(prob, x, sigma), box, n)
            ref_pt, ref_val, ref_spacing = _ref_grid_min(_ref_h(prob, x, sigma), box, n)
            assert pt.dtype == ref_pt.dtype and pt.tobytes() == ref_pt.tobytes(), x
            assert type(val) is float and _f64_bits(val) == _f64_bits(ref_val), x
            assert _f64_bits(spacing) == _f64_bits(ref_spacing), x


@pytest.mark.parametrize("name", _GRID_PROBLEMS)
def test_grid_hyper_objective_matches_the_list_reference_bitwise(name):
    for prob in _each_path(get_problem(name).problem):
        if prob.dim_y != 1:
            for fn in (grid_hyper_objective, _ref_list_grid_hyper_objective):
                with pytest.raises(CapabilityError):
                    fn(prob, [0.3])
            continue
        for x in _grid_xs(prob):
            got = grid_hyper_objective(prob, x)
            want = _ref_list_grid_hyper_objective(prob, x)
            assert _f64_bits(got) == _f64_bits(want), x


def test_the_problems_that_reach_a_grid_declare_row_oracles():
    declared = [name for name in list_problems()
                if get_problem(name).problem.g_rows is not None]
    assert declared == _ROW_PROBLEMS
    assert all(get_problem(name).problem.f_rows is not None for name in declared)


def _recording(prob, grids):
    """``prob`` whose row oracles append each (x, Y) they are given to grids."""
    def record(rows):
        def wrapped(x, Y):
            grids.append((x.copy(), Y.copy()))
            return rows(x, Y)
        return wrapped
    return dataclasses.replace(prob, f_rows=record(prob.f_rows),
                               g_rows=record(prob.g_rows))


def _edge_rows(prob):
    """Rows of +-0.0, the box (or window) endpoints and magnitudes around
    1e150, up to where a square overflows, in every combination of two."""
    box, _ = _grid_box(prob)
    vals = sorted({0.0, 1e150, 3.3e149, 1.3e154, 1.35e154, 7e-200,
                   *(float(v) for b in box for v in b)})
    vals = [-0.0] + vals + [-v for v in vals if v]
    if prob.dim_y == 1:
        return np.array(vals)[:, None]
    return np.array([(a, b) for a in vals for b in vals])


@pytest.mark.parametrize("name", _ROW_PROBLEMS)
def test_row_oracles_have_the_bits_of_row_by_row_calls(name):
    # on every grid that the grid minimizer (sigma 0 and 0.5) and the grid
    # hyper-objective build at the pinned and at seeded random x, and on
    # rows of edge values
    prob = get_problem(name).problem
    lo, hi = prob.meta.x_window
    xs = _grid_xs(prob) + [np.array([-0.0])] + [
        np.array([x]) for x in np.random.default_rng(23).uniform(lo, hi, 4)]
    grids = []
    recorded = _recording(prob, grids)
    box, n = _grid_box(prob)
    for x in xs:
        for sigma in (0.0, 0.5):
            _grid_min(_h_rows(recorded, x, sigma), box, n)
        if prob.dim_y == 1:
            grid_hyper_objective(recorded, x)
    assert len(grids) == len(xs) * (9 + 2 * (prob.dim_y == 1))
    grids += [(x, _edge_rows(prob)) for x in xs]
    with np.errstate(over="ignore"):
        for x, Y in grids:
            for rows, point in ((prob.f_rows, prob.f), (prob.g_rows, prob.g)):
                got = rows(x, Y)
                want = np.fromiter((point(x, y) for y in Y), float, len(Y))
                assert got.dtype == np.float64 and got.shape == (len(Y),)
                assert got.tobytes() == want.tobytes(), (x, point)


@pytest.mark.parametrize("v", [
    [3.0, 4.0], [0.1] * 9, [-0.0], [1e-200, 3e-200], [1e155, 1e155],
    [1, 2, 2], [7], np.arange(-3, 4), np.array([5]), np.array([-2.5]),
    np.array([0.0]), np.random.default_rng(5).standard_normal(50),
])
def test_vector_norm_is_numpys_norm_bitwise(v):
    # lists, ints and length-1 inputs: numpy converts them to float64 too;
    # a norm that overflows is inf either way
    with np.errstate(over="ignore"):
        assert _f64_bits(_vnorm(v)) == _f64_bits(float(np.linalg.norm(v)))


def test_vector_norm_takes_float32_in_float64():
    # numpy keeps float32 and rounds its norm to float32; the helper takes
    # the float64 conversion, so the two agree to float32 rounding only
    v = np.random.default_rng(6).standard_normal(5).astype(np.float32)
    assert _f64_bits(_vnorm(v)) == _f64_bits(float(np.linalg.norm(v.astype(float))))
    assert abs(_vnorm(v) - float(np.linalg.norm(v))) <= 2.0 ** -23 * _vnorm(v)


class TestSetStability:
    def test_no_violations_on_kernel_and_quadratic(self, kernel, quadratic):
        for suite in (kernel, quadratic):
            out = set_lipschitz_check(suite, n_pairs=60, seed=4)
            assert out["violations"] == []
            assert out["checked"] == 60
            assert 0.0 < out["worst_ratio"] <= 1.0
            assert type(out["worst_ratio"]) is float

    def test_needs_a_sampler(self, sin_sq):
        with pytest.raises(CapabilityError):
            set_lipschitz_check(sin_sq)

    def test_every_violating_pair_is_recorded(self, kernel):
        # sets 100 x on both coordinates move 100 sqrt(2) per unit of x, far
        # beyond the declared bound: all 3 of 3 pairs at seed 0 violate it
        far = dataclasses.replace(
            kernel, sample_y_star=lambda x, s, n: np.full((n, 2), 100.0 * x))
        out = set_lipschitz_check(far, n_pairs=3, seed=0)
        assert out["checked"] == 3 and len(out["violations"]) == 3
        for x1, s1, x2, s2, d, bound in out["violations"]:
            # plain floats throughout, as the pair draws' tolist() gives them
            assert [type(v) for v in (x1, s1, x2, s2, d, bound)] == [float] * 6
            assert 0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0
            assert d == hausdorff_distance(np.full((51, 2), 100.0 * x1),
                                           np.full((51, 2), 100.0 * x2))
            assert d > bound + 1e-9
        assert out["worst_ratio"] == max(d / b for *_, d, b in out["violations"])
        assert type(out["worst_ratio"]) is float


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


@pytest.mark.parametrize("seed", [1.5, True, None])
@pytest.mark.parametrize("check", [pl_ratio_certificate, check_gradients,
                                   check_smoothness_constants, set_lipschitz_check])
def test_every_sampling_check_refuses_a_seed_that_is_not_an_int(kernel, check, seed):
    # int() used to turn 1.5 and True into seed 1's stream, and None into a
    # bare TypeError
    target = kernel if check is set_lipschitz_check else kernel.problem
    with pytest.raises(InputError, match="seed must be an int"):
        check(target, seed=seed)


def test_which_refusal_comes_first_when_two_arguments_are_bad(kernel, sin_sq):
    # the PL check refuses its sigma before its seed (the noise stream is
    # named by sigma), and the set check a suite without a set sampler
    # before a bad seed or count
    with pytest.raises(ConfigError, match="sigma must be finite"):
        pl_ratio_certificate(kernel.problem, sigma=math.nan, seed=1.5)
    no_sampler = dataclasses.replace(sin_sq, sample_y_star=None)
    for kwargs in ({"seed": 1.5}, {"n_pairs": 0}):
        with pytest.raises(CapabilityError, match="set sampler"):
            set_lipschitz_check(no_sampler, **kwargs)


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
