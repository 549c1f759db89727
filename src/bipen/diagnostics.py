"""Independent oracles and checkers.

Everything here deliberately avoids the estimator code paths it is used to
verify: hypergradients are recomputed by finite differences of the penalized
value function and by an explicit pseudoinverse formula; solution sets are
handled as explicit point clouds; the PL constant is estimated by brute
probing (a sampled estimate, not a bound); stationarity is measured through
the residual triplet of the gradient-based reformulation

    R_x = || grad_x f + hess_xy g . w ||,
    R_w = || hess_yy g (grad_y f + hess_yy g . w) ||,   w = -pinv(hess_yy g) grad_y f,
    R_y = g(x, y) - g*(x)            (floored at 0, g* from a certified pre-solve),

declared epsilon-stationary when R_x <= eps, R_w <= eps and R_y <= eps^2.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .core import (
    BilevelProblem,
    PenaltyObjective,
    ProblemMeta,
    _check_seed,
    _h,
    _h_grad,
    _h_lipschitz,
    _h_rows,
    _per_row,
    as_vector,
    penalized_hyperobjective_value,
)
from .errors import CapabilityError, ConfigError, InputError, NumericError
from .inner import _h_min, _norm, presolve
from .problems import SuiteProblem
from .rng import substream


def _vnorm(v) -> float:
    """Euclidean norm of a vector: ``inner._norm`` of its float64 conversion,
    the bits of ``np.linalg.norm`` on float64 input without its dispatch."""
    return _norm(np.asarray(v, dtype=float))


def _windows(prob, what: str) -> ProblemMeta:
    """The problem's meta, which holds its probe windows, or ConfigError."""
    if prob.meta is None:
        raise ConfigError(f"{what} needs a problem with probe windows")
    return prob.meta


def _sampling(prob, what: str, seed, count: int, count_name: str, *tags):
    """(meta, rng) for a sampling check: refuses a seed that is not an int
    and a count below one (a check that samples nothing would report a pass
    it never earned), requires the problem's probe windows, and opens the
    check's noise stream ``substream(seed, *tags)``."""
    _check_seed(seed)
    if count < 1:
        raise InputError(f"{count_name} must be >= 1, got {count}")
    return _windows(prob, what), substream(seed, *tags)


# ---------------------------------------------------------------------------
# solution-set point clouds


def _as_point_cloud(S) -> np.ndarray:
    arr = np.asarray(S, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InputError(f"expected a nonempty (n, d) point cloud, got shape {arr.shape}")
    return arr


def hausdorff_distance(S1, S2) -> float:
    """Symmetric Hausdorff distance between two finite point clouds."""
    A, B = _as_point_cloud(S1), _as_point_cloud(S2)
    if A.shape[1] != B.shape[1]:
        raise InputError(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    # squared distances summed one coordinate plane at a time, in coordinate
    # order: numpy's norm over a length-d axis adds its terms in that order
    # for d < 8, so these are its bits without the (n, m, d) temporary
    D = np.zeros((A.shape[0], B.shape[0]))
    for k in range(A.shape[1]):
        D += (A[:, k, None] - B[None, :, k]) ** 2
    # sqrt is monotone, so it commutes with min and max
    return math.sqrt(max(D.min(axis=1).max(), D.min(axis=0).max()))


# ---------------------------------------------------------------------------
# hypergradient routes


_FD_SIGMA = 1e-5  # penalty weight of the phi_sigma that fd_hypergradient differentiates
_FD_STEP = 1e-4  # central-difference step of fd_hypergradient


def _central_diff(fn, v, h: float) -> np.ndarray:
    """Central differences of the scalar function fn at v, one coordinate at a
    time: (fn(v + e) - fn(v - e)) / (2 h) with e = h along that coordinate."""
    out = np.zeros(v.size)
    for i in range(v.size):
        e = np.zeros(v.size)
        e[i] = h
        out[i] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return out


def fd_hypergradient(prob: BilevelProblem, x) -> np.ndarray:
    """Central finite differences of the penalized value function.

    Differentiates phi_sigma at sigma = ``_FD_SIGMA`` with step ``_FD_STEP``,
    entirely independently of the first-order estimator.  phi_sigma is an
    O(sigma)-accurate smoothing of phi, so the result carries that bias
    besides the difference error; no error estimate is reported.
    """
    x = as_vector(x, prob.dim_x, "x")
    p = PenaltyObjective(prob, _FD_SIGMA)
    return _central_diff(lambda v: penalized_hyperobjective_value(p, v).value, x, _FD_STEP)


def _pl_pinv(H: np.ndarray, cutoff: float) -> np.ndarray:
    """Symmetric pseudoinverse discarding eigenvalues below ``cutoff``."""
    vals, vecs = np.linalg.eigh(np.asarray(H, dtype=float))
    inv = np.where(vals >= cutoff, 1.0 / np.where(vals >= cutoff, vals, 1.0), 0.0)
    return (vecs * inv) @ vecs.T


_PINV_RESIDUAL_TOL = 1e-8  # ||grad_y g|| above which y_star is not a minimizer


def exact_hypergradient_pinv(prob: BilevelProblem, x, y_star) -> np.ndarray:
    """Implicit-function hypergradient at an (essentially) exact minimizer:

        grad phi = grad_x f - hess_xy g . pinv(hess_yy g) . grad_y f,

    with the pseudoinverse cut off at mu/2 so kernel directions are dropped
    rather than amplified.  Requires the problem's Hessian blocks and
    ||grad_y g(x, y_star)|| <= ``_PINV_RESIDUAL_TOL``.
    """
    x, y_star = prob.check_point(x, y_star)
    if prob.hess_g_yy is None or prob.hess_g_xy is None:
        raise CapabilityError("pseudoinverse hypergradient needs hess_g_yy and hess_g_xy")
    resid = _vnorm(prob.grad_g_y(x, y_star))
    if resid > _PINV_RESIDUAL_TOL:
        raise InputError(
            f"y_star is not a certified minimizer: ||grad_y g|| = {resid:.3e} "
            f"> {_PINV_RESIDUAL_TOL:g}"
        )
    pinv = _pl_pinv(prob.hess_g_yy(x, y_star), prob.constants.mu / 2.0)
    gfy = prob.grad_f_y(x, y_star)
    return prob.grad_f_x(x, y_star) - np.asarray(prob.hess_g_xy(x, y_star)) @ (pinv @ gfy)


def hypergradient_routes(suite: SuiteProblem, x) -> dict:
    """All available hypergradient routes at x, plus pairwise disagreements.

    Routes: 'fd' (always), 'pinv' (with Hessian blocks, at the suite's
    projection or else a pre-solve), 'analytic' (when the problem declares one).
    """
    prob = suite.problem
    x = as_vector(x, prob.dim_x, "x")
    routes = {"fd": fd_hypergradient(prob, x)}
    if prob.hess_g_yy is not None and prob.hess_g_xy is not None:
        y0 = prob.default_start()[1]
        if suite.project_y_star is not None:
            y_star = suite.project_y_star(x, y0, 0.0)
        else:
            y_star, _, _ = presolve(prob, x, 0.0, y0, 1e-10, label="pinv pre-solve")
        routes["pinv"] = exact_hypergradient_pinv(prob, x, y_star)
    if prob.analytic_grad_phi is not None:
        routes["analytic"] = np.asarray(prob.analytic_grad_phi(x), dtype=float)
    diffs = {}
    names = sorted(routes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            diffs[f"{a}~{b}"] = _vnorm(routes[a] - routes[b])
    return {"routes": routes, "disagreements": diffs}


# ---------------------------------------------------------------------------
# PL ratio estimate


class PLCertificate(NamedTuple):
    min_ratio: float
    worst_x: np.ndarray
    worst_y: np.ndarray
    used: int
    skipped: int


def pl_ratio_certificate(prob: BilevelProblem, sigma: float = 0.0, probes: int = 200,
                         seed: int = 0) -> PLCertificate:
    """Sampled estimate of the PL constant: min of ||grad h||^2 / (2 (h - h*)).

    The minimum over finitely many probes can only over-state the true
    infimum, so this is an estimate, not a bound.  h is g(x, .) for
    sigma = 0, otherwise h_sigma(x, .).  h*(x) is taken as the minimum over
    descents started from the default start *and* from every probe, so a
    probe stuck in a spurious basin would lower h* and depress the estimate
    instead of inflating it; on a problem with a declared ``y_box`` it is the
    box grid minimum of ``inner._h_min``, once per x-probe.  Probes come from
    the problem's windows; those with gap <= 1e-12 are skipped (0/0
    convention).
    """
    if not 0.0 <= sigma < math.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")
    meta, rng = _sampling(prob, "PL check", seed, probes, "probes",
                          "pl-ratio", round(sigma * 1e9))
    n_x = max(1, probes // 20)
    n_y = max(1, probes // n_x)
    min_ratio = math.inf
    worst = (np.zeros(prob.dim_x), np.zeros(prob.dim_y))
    used = skipped = 0
    for _ in range(n_x):
        x = rng.uniform(*meta.x_window, size=prob.dim_x)
        ys = [rng.uniform(*meta.y_window, size=prob.dim_y) for _ in range(n_y)]
        _, y0 = prob.default_start()
        h, grad_h = _h(prob, x, sigma), _h_grad(prob, x, sigma)
        starts = [y0] if meta.y_box is not None else [y0] + ys  # a box grid ignores its start
        h_star = min(math.inf, *(_h_min(prob, x, sigma, s, "PL pre-solve")[1]
                                 for s in starts))
        for y in ys:
            gap = h(y) - h_star
            if gap <= 1e-12:
                skipped += 1
                continue
            ratio = float(_vnorm(grad_h(y)) ** 2 / (2.0 * gap))
            used += 1
            if ratio < min_ratio:
                min_ratio = ratio
                worst = (x.copy(), y.copy())
    return PLCertificate(min_ratio, worst[0], worst[1], used, skipped)


# ---------------------------------------------------------------------------
# stationarity residuals


class GaletResiduals(NamedTuple):
    R_x: float
    R_w: float
    R_y: float
    w: np.ndarray


def galet_residuals(prob: BilevelProblem, x, y) -> GaletResiduals:
    """Residual triplet of the gradient-based stationarity reformulation.

    g*(x) comes from a certified pre-solve started at the queried point (the
    PL property makes any basin global); a certified minimum above the
    queried value by more than rounding noise raises NumericError.
    """
    x, y = prob.check_point(x, y)
    if prob.hess_g_yy is None or prob.hess_g_xy is None:
        raise CapabilityError("stationarity residuals need hess_g_yy and hess_g_xy")
    c = prob.constants
    H = np.asarray(prob.hess_g_yy(x, y), dtype=float)
    gfy = prob.grad_f_y(x, y)
    w = -_pl_pinv(H, c.mu / 2.0) @ gfy
    R_x = _vnorm(prob.grad_f_x(x, y) + np.asarray(prob.hess_g_xy(x, y)) @ w)
    R_w = _vnorm(H @ (gfy + H @ w))
    g_val = float(prob.g(x, y))
    g_star = float(_h_min(prob, x, 0.0, y, "g* pre-solve")[1])
    gap = g_val - g_star
    if gap < -1e-9 * (1.0 + abs(g_star)):
        raise NumericError(
            f"certified g* = {g_star:.6g} exceeds the queried value {g_val:.6g}; "
            "pre-solve is not trustworthy here", point=(x.copy(), y.copy()))
    return GaletResiduals(R_x, R_w, max(gap, 0.0), w)


# ---------------------------------------------------------------------------
# smoothness and constants checks


class SmoothnessEstimate(NamedTuple):
    max_ratio: float
    scale: float        # the worst-case envelope ell * kappa^3
    used: int
    skipped: int


def smoothness_probe(prob: BilevelProblem, x_pairs) -> SmoothnessEstimate:
    """Empirical Lipschitz ratio of the hyper-objective gradient.

    Uses the analytic gradient when declared, finite differences otherwise.
    Pairs closer than 1e-12 are skipped.
    """
    c = prob.constants

    if prob.analytic_grad_phi is not None:
        def grad(x):
            return np.asarray(prob.analytic_grad_phi(x), dtype=float)
    else:
        def grad(x):
            return fd_hypergradient(prob, x)

    max_ratio = 0.0
    used = skipped = 0
    for x1, x2 in x_pairs:
        x1 = as_vector(x1, prob.dim_x, "x1")
        x2 = as_vector(x2, prob.dim_x, "x2")
        gap = _vnorm(x1 - x2)
        if gap <= 1e-12:
            skipped += 1
            continue
        used += 1
        max_ratio = max(max_ratio, _vnorm(grad(x1) - grad(x2)) / gap)
    return SmoothnessEstimate(max_ratio, c.ell * c.kappa ** 3, used, skipped)


_FD_CHECK_STEP = 1e-6  # check_gradients' central-difference step at unit scale


def check_gradients(prob: BilevelProblem, n_probes: int = 100, seed: int = 0) -> float:
    """Max relative error of declared gradients against central differences.

    Probes are sampled inside the problem's declared windows; the step
    ``_FD_CHECK_STEP`` is scaled by the probe magnitude.  Returns the worst
    relative error over all four gradients.
    """
    meta, rng = _sampling(prob, "gradient check", seed, n_probes, "n_probes", "fd-check")
    worst = 0.0
    for _ in range(n_probes):
        x = rng.uniform(*meta.x_window, size=prob.dim_x)
        y = rng.uniform(*meta.y_window, size=prob.dim_y)
        scale = max(1.0, float(np.hypot(_vnorm(x), _vnorm(y))))
        h = _FD_CHECK_STEP * scale

        for fn, gx, gy in ((prob.f, prob.grad_f_x, prob.grad_f_y),
                           (prob.g, prob.grad_g_x, prob.grad_g_y)):
            fd_x = _central_diff(lambda v: fn(v, y), x, h)
            fd_y = _central_diff(lambda v: fn(x, v), y, h)
            for fd, grad in ((fd_x, gx(x, y)), (fd_y, gy(x, y))):
                err = _vnorm(fd - np.asarray(grad))
                worst = max(worst, err / (1.0 + _vnorm(grad)))
    return worst


def check_smoothness_constants(prob: BilevelProblem, n_pairs: int = 200, seed: int = 0) -> dict:
    """Empirical gradient-difference ratios against declared L_f and L_g.

    The declarations are block-wise -- L bounds each gradient block's
    Lipschitz modulus in each argument separately, which is how step sizes
    and estimator bounds consume them -- so each of the four blocks is
    probed separately against variation in x and in y.  Returns the max
    ratio per (block, argument); callers compare against declarations.
    """
    meta, rng = _sampling(prob, "smoothness check", seed, n_pairs, "n_pairs", "lip-check")
    blocks = (("grad_f_x", prob.grad_f_x), ("grad_f_y", prob.grad_f_y),
              ("grad_g_x", prob.grad_g_x), ("grad_g_y", prob.grad_g_y))
    out = {f"{name}/d{var}": 0.0 for name, _ in blocks for var in ("x", "y")}

    for _ in range(n_pairs):
        x = rng.uniform(*meta.x_window, size=prob.dim_x)
        y1 = rng.uniform(*meta.y_window, size=prob.dim_y)
        y2 = rng.uniform(*meta.y_window, size=prob.dim_y)
        x1 = rng.uniform(*meta.x_window, size=prob.dim_x)
        x2 = rng.uniform(*meta.x_window, size=prob.dim_x)
        y = rng.uniform(*meta.y_window, size=prob.dim_y)
        for var, a, b, step in (("y", (x, y1), (x, y2), y1 - y2),
                                ("x", (x1, y), (x2, y), x1 - x2)):
            gap = _vnorm(step)
            if gap > 1e-9:
                for name, fn in blocks:
                    d = _vnorm(np.asarray(fn(*a)) - np.asarray(fn(*b)))
                    key = f"{name}/d{var}"
                    out[key] = max(out[key], d / gap)
    return out


# ---------------------------------------------------------------------------
# grid value-function oracle and solution-set stability


_TIE_TOL = 1e-9  # relative gap in g within which grid points tie for argmin


_GRID_POINTS = 5001  # grid_hyper_objective's grid points over the box or window


def grid_hyper_objective(prob: BilevelProblem, x) -> float:
    """Brute-force phi(x): grid-minimize g, then minimize f over the tie set
    (the points within ``_TIE_TOL`` of the grid minimum, relative to
    1 + |min|, or to the largest |g| on the grid where that is smaller: a g
    of scale |x| << 1, as the bilinear g = x*y near x = 0, cannot resolve an
    absolute slack of 1e-9).

    One-dimensional lower levels only; the grid of ``_GRID_POINTS`` points
    covers the declared box (when present) or probe window, including the
    endpoints exactly.  g is taken over the grid and f over the tie set
    through the problem's row oracles when it declares them, else one call
    per point.
    """
    x = as_vector(x, prob.dim_x, "x")
    if prob.dim_y != 1:
        raise CapabilityError("grid hyper-objective supports dim_y = 1 only")
    meta = _windows(prob, "grid hyper-objective")
    lo, hi = meta.y_box[0] if meta.y_box is not None else meta.y_window
    ys = np.linspace(lo, hi, _GRID_POINTS)[:, None]  # one row per grid point, a y each
    gv = _h_rows(prob, x, 0.0)(ys)
    g_min = gv.min()
    scale = min(1.0 + abs(float(g_min)), float(np.abs(gv).max()))
    ties = ys[gv <= g_min + _TIE_TOL * scale]
    if prob.f_rows is not None:
        fv = prob.f_rows(x, ties)
    else:
        fv = _per_row(functools.partial(prob.f, x))(ties)
    return float(fv.min())


_SET_SAMPLES = 51  # points per sampled solution set
_SET_SLACK = 1e-9  # rounding allowance on the set-distance bound


def set_lipschitz_check(suite: SuiteProblem, n_pairs: int = 100, seed: int = 0) -> dict:
    """Stability of penalized solution sets in (x, sigma).

    For random pairs (x1, sigma1), (x2, sigma2) the Hausdorff distance of
    the sets, sampled at ``_SET_SAMPLES`` points each, must not exceed

        (C_f / mu) |sigma1 - sigma2|
        + ((max(sigma) L_f + L_g) / mu) ||x1 - x2||  (+ _SET_SLACK).

    Requires the suite's analytic set sampler.  Returns counts and the worst
    ratio distance / bound.
    """
    sampler = suite.sample_y_star
    if sampler is None:
        raise CapabilityError("set stability check needs an analytic set sampler")
    prob = suite.problem
    c = prob.constants
    meta, rng = _sampling(prob, "set stability check", seed, n_pairs, "n_pairs", "set-lip")
    violations = []
    worst_ratio = 0.0
    for _ in range(n_pairs):
        x1, x2 = rng.uniform(*meta.x_window, size=2).tolist()  # floats, the same bits
        s1, s2 = rng.uniform(0.0, c.sigma_bar, size=2).tolist()
        d = hausdorff_distance(sampler(x1, s1, _SET_SAMPLES),
                               sampler(x2, s2, _SET_SAMPLES))
        bound = (c.C_f / c.mu) * abs(s1 - s2) \
            + (_h_lipschitz(c, max(s1, s2)) / c.mu) * abs(x1 - x2)
        if bound > 0:
            worst_ratio = max(worst_ratio, d / bound)
        if d > bound + _SET_SLACK:
            violations.append((x1, s1, x2, s2, d, bound))
    return {"checked": n_pairs, "violations": violations, "worst_ratio": worst_ratio}
