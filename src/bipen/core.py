"""Problem abstraction, penalty objective and hypergradient estimation.

The bilevel problem treated throughout the package is

    min_x  phi(x),    phi(x) = min_{y in Y*(x)} f(x, y),
                      Y*(x)  = argmin_y g(x, y),

where the lower level g(x, .) satisfies a Polyak-Lojasiewicz (PL) inequality
with constant mu, so Y*(x) may be a nontrivial set.  The package works with
the additive penalty h_sigma = sigma*f + g and the penalized hyper-objective

    phi_sigma(x) = min_y { f(x, y) + (g(x, y) - g*(x)) / sigma }
                 = (min_y h_sigma(x, y) - g*(x)) / sigma,

which is an O(sigma)-accurate smoothing of phi.  Its gradient is available
from first-order information alone: with yK an approximate minimizer of
h_sigma(x, .) and zK an approximate minimizer of g(x, .),

    grad_est = grad_x f(x, yK) + (grad_x g(x, yK) - grad_x g(x, zK)) / sigma.

This module owns the callable bundle describing a problem, its constants
record, the penalty objective, the stochastic gradient oracle, and the
estimator/evaluation operations built on them.  Iterative drivers live in
``inner`` and ``drivers``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    CapabilityError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InputError,
    NumericError,
)
from .rng import substream

Array = np.ndarray
_FN = Callable[[Array, Array], float]
_GRAD = Callable[[Array, Array], Array]


# ---------------------------------------------------------------------------
# validation helpers


_FLOAT64 = np.dtype(float)
_ndarray = np.ndarray


def as_vector(v, dim: int, name: str) -> Array:
    """Coerce ``v`` to a float64 vector of length ``dim`` or raise InputError.

    A float64 ndarray of shape (dim,) is returned as it is, as the coercion
    below would return it; only other inputs take the coercion.
    """
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.shape == (dim,):
        return v
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise InputError(
            f"{name} must be a vector of length {dim}, got shape {arr.shape}"
        )
    return arr


def _require_finite(value, x: Array, y, what: str):
    """Return ``value`` as a float64 array or raise NumericError at (x, y).

    A 1-D float64 ndarray with a finite squared norm is returned as it is,
    as ``np.asarray`` would return it.  NaN, inf, a norm that overflows and
    every other input take the entrywise test; on overflow (entries beyond
    ~1.3e154) numpy warns of it in the dot (or raises, which is caught).
    """
    if type(value) is np.ndarray and value.dtype is _FLOAT64 and value.ndim == 1:
        try:
            if math.isfinite(value.dot(value)):
                return value
        except FloatingPointError:
            pass
    return _entrywise_finite(value, x, y, what)


def _entrywise_finite(value, x: Array, y, what: str):
    """``_require_finite``'s test of every entry, for what fails its fast test."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        pt = (np.array(x, copy=True), None if y is None else np.array(y, copy=True))
        raise NumericError(f"non-finite {what} encountered", point=pt)
    return arr


def _int_field(obj, name: str, label: str):
    """Store field ``name`` of a frozen dataclass as an int; refuse bool, float
    and every other non-integer with ConfigError (int and np.integer pass)."""
    v = getattr(obj, name)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ConfigError(f"{label} must be an integer, got {v!r}")
    object.__setattr__(obj, name, int(v))


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class ProblemConstants:
    """Regularity constants a problem declares about itself.

    All Lipschitz-type constants are understood block-wise: ``L_f`` bounds the
    Lipschitz moduli of grad_x f and grad_y f in either argument (likewise
    ``L_g``, ``rho_f``, ``rho_g`` for gradients/Hessian blocks of g and the
    Hessians of f), and ``C_f`` bounds ||grad_y f|| on the problem's stated
    probe window.  ``mu`` is the PL constant of g(x, .); ``sigma_bar`` is the
    largest penalty weight the problem certifies; ``M_f``/``M_g`` bound the
    standard deviation of stochastic gradient noise (0 = deterministic).
    """

    C_f: float
    L_f: float
    L_g: float
    rho_f: float
    rho_g: float
    mu: float
    sigma_bar: float
    M_f: float = 0.0
    M_g: float = 0.0

    def __post_init__(self):
        for name in ("C_f", "L_f", "L_g", "rho_f", "rho_g", "M_f", "M_g"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"constant {name} must be finite and >= 0, got {v}")
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ConfigError(f"constant mu must be finite and > 0, got {self.mu}")
        if not (np.isfinite(self.sigma_bar) and self.sigma_bar > 0):
            raise ConfigError(f"sigma_bar must be finite and > 0, got {self.sigma_bar}")

    @property
    def ell(self) -> float:
        """Aggregate smoothness scale max(C_f, L_f, L_g, rho_g)."""
        return max(self.C_f, self.L_f, self.L_g, self.rho_g)

    @property
    def kappa(self) -> float:
        """Condition-style ratio ell / mu."""
        return self.ell / self.mu

    @property
    def stochastic(self) -> bool:
        return self.M_f > 0 or self.M_g > 0


@dataclass(frozen=True)
class ProblemMeta:
    """Run-support metadata attached to a problem.

    ``x_window``/``y_window`` bound the region on which declared constants
    were taken and on which probes are sampled.  ``y_box`` (when set) is a
    hard per-coordinate box: value-function evaluations then use a grid
    minimizer over the box instead of unconstrained descent.
    """

    x0: tuple
    y0: tuple
    x_window: tuple  # (lo, hi), per-coordinate probe window for x
    y_window: tuple  # (lo, hi), per-coordinate probe window for y
    y_box: Optional[tuple] = None  # ((lo, hi), ...) one pair per y coordinate
    penalty_divergent: bool = False  # penalty descent runs away for some x
    penalty_refusal: Optional[str] = None  # reason to refuse penalty machinery
    divergence_radius: Optional[float] = None


@dataclass(frozen=True)
class BilevelProblem:
    """Callable bundle for one bilevel instance.

    All callables take ``(x, y)`` as float64 vectors of lengths ``dim_x`` and
    ``dim_y``.  Hessian blocks of g and the analytic hyper-objective are
    optional; they unlock the pseudoinverse/stationarity diagnostics and the
    analytic trace columns respectively.
    """

    dim_x: int
    dim_y: int
    f: _FN
    grad_f_x: _GRAD
    grad_f_y: _GRAD
    g: _FN
    grad_g_x: _GRAD
    grad_g_y: _GRAD
    constants: ProblemConstants
    hess_g_yy: Optional[Callable[[Array, Array], Array]] = None
    hess_g_xy: Optional[Callable[[Array, Array], Array]] = None  # dim_x x dim_y
    analytic_phi: Optional[Callable[[Array], float]] = None
    analytic_grad_phi: Optional[Callable[[Array], Array]] = None
    meta: Optional[ProblemMeta] = None

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise ConfigError("dim_x and dim_y must be at least 1")
        # the shapes check_point's fast test compares with, made once
        object.__setattr__(self, "_shape_x", (self.dim_x,))
        object.__setattr__(self, "_shape_y", (self.dim_y,))

    def check_point(self, x, y=None):
        """``as_vector`` of x (and y); float64 ndarrays of the problem's
        shapes come back as they are, as ``as_vector`` returns them, without
        its call."""
        if (type(x) is _ndarray and type(y) is _ndarray and x.dtype is _FLOAT64
                and y.dtype is _FLOAT64 and x.shape == self._shape_x
                and y.shape == self._shape_y):
            return x, y
        x = as_vector(x, self.dim_x, "x")
        if y is None:
            return x
        return x, as_vector(y, self.dim_y, "y")

    def default_start(self) -> tuple[Array, Array]:
        if self.meta is not None:
            return (
                np.array(self.meta.x0, dtype=float),
                np.array(self.meta.y0, dtype=float),
            )
        return np.zeros(self.dim_x), np.zeros(self.dim_y)


def as_bilevel(problem) -> BilevelProblem:
    """Accept either a BilevelProblem or a wrapper exposing ``.problem``."""
    if type(problem) is BilevelProblem:
        return problem
    inner = getattr(problem, "problem", None)
    return inner if isinstance(inner, BilevelProblem) else problem


# ---------------------------------------------------------------------------
# penalty objective


def _h(prob: BilevelProblem, x, sigma: float):
    """y -> h_sigma(x, y) = sigma f(x, y) + g(x, y), or g(x, y) when sigma = 0."""
    if sigma == 0.0:
        return functools.partial(prob.g, x)
    return lambda y: sigma * prob.f(x, y) + prob.g(x, y)


def _h_grad(prob: BilevelProblem, x, sigma: float):
    """y -> grad_y h_sigma(x, y), or grad_y g(x, y) when sigma = 0."""
    if sigma == 0.0:
        return lambda y: prob.grad_g_y(x, y)
    return lambda y: sigma * prob.grad_f_y(x, y) + prob.grad_g_y(x, y)


def _h_lipschitz(c: ProblemConstants, sigma: float) -> float:
    """sigma L_f + L_g, the smoothness constant of h_sigma(x, .)."""
    return sigma * c.L_f + c.L_g


class PenaltyValue(NamedTuple):
    """phi_sigma(x) together with an a-posteriori accuracy estimate.

    ``error_bound`` converts the final inner gradient norms into an estimate
    of the value error via PL quadratic growth: a residual r on an mu-PL
    function overestimates its minimum by at most r^2 / (2 mu).  It bounds
    the error only if h_sigma is mu-PL, which is assumed (h_sigma inherits
    g's constant up to O(sigma)), not proven; it is not a certificate.  On
    the box path it comes from the final grid spacing instead.
    """

    value: float
    error_bound: float


@dataclass(frozen=True)
class PenaltyObjective:
    """The penalty h_sigma = sigma*f + g for one problem and one weight.

    Construction validates 0 < sigma <= sigma_bar and refuses problems whose
    penalty descent is known to run away (detected by a bounded-budget probe
    of gradient descent on h_sigma from the problem's default start).
    """

    problem: BilevelProblem
    sigma: float

    def __post_init__(self):
        prob = as_bilevel(self.problem)
        if prob is not self.problem:
            object.__setattr__(self, "problem", prob)
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"penalty weight sigma must be > 0, got {self.sigma}")
        # the estimator's divisor, 0-d: cheaper per ufunc than a float
        object.__setattr__(self, "_sigma_0d", np.array(self.sigma, dtype=float))
        if self.sigma > prob.constants.sigma_bar:
            raise ConfigError(
                f"sigma={self.sigma} exceeds the certified range "
                f"(0, {prob.constants.sigma_bar}]"
            )
        meta = prob.meta
        if meta is not None and meta.penalty_refusal:
            raise CapabilityError(
                f"penalty formulation refused: {meta.penalty_refusal}"
            )
        if meta is not None and meta.penalty_divergent and meta.y_box is None:
            # The penalty is flagged as unbounded below; confirm dynamically so
            # the refusal reports observed divergence, not just a label.
            from .inner import probe_penalty_divergence

            x0 = np.array(meta.x0, dtype=float)
            probe = probe_penalty_divergence(prob, x0, self.sigma)
            if probe.diverged:
                raise DivergenceError(
                    "penalty objective is unbounded below: descent on h_sigma "
                    f"left radius {probe.radius:g} after {probe.steps} steps; "
                    "refusing construction",
                    step=probe.steps, norm=probe.final_norm, sequence="y",
                )
            raise ConvergenceError(
                "penalty objective is unbounded below for this problem "
                "(flagged degenerate); refusing construction"
            )


def hypergradient_estimate(p: PenaltyObjective, x, yK, zK,
                           oracle: Optional["StochasticOracle"] = None,
                           batch: int = 0) -> Array:
    """First-order hypergradient estimate from the two inner outputs.

    ``yK`` approximately minimizes h_sigma(x, .), ``zK`` approximately
    minimizes g(x, .).  Costs three x-gradient oracle calls, made in the
    order grad_x f at yK, grad_x g at yK, grad_x g at zK: exact ones when
    ``batch`` = 0, batch-``batch`` averages drawn from ``oracle`` otherwise.
    """
    prob = p.problem
    if batch == 0:
        x, yK = prob.check_point(x, yK)
        zK = as_vector(zK, prob.dim_y, "zK")
        gfx = _require_finite(prob.grad_f_x(x, yK), x, yK, "grad_x f")
        ggx_y = _require_finite(prob.grad_g_x(x, yK), x, yK, "grad_x g at yK")
        ggx_z = _require_finite(prob.grad_g_x(x, zK), x, zK, "grad_x g at zK")
    elif oracle is None:
        raise ConfigError("a batched hypergradient estimate needs a stochastic oracle")
    else:
        gfx = oracle.draw("f_x", x, yK, batch)
        ggx_y = oracle.draw("g_x", x, yK, batch)
        ggx_z = oracle.draw("g_x", x, zK, batch)
    try:
        return gfx + (ggx_y - ggx_z) / p._sigma_0d
    except FloatingPointError:  # overflow under np.errstate(over="raise")
        with np.errstate(over="ignore"):
            return gfx + (ggx_y - ggx_z) / p._sigma_0d


# ---------------------------------------------------------------------------
# stochastic oracle


_ORACLE_PARTS = ("f_x", "f_y", "g_x", "g_y")
_NOISE_BLOCK = 4096  # standard normals drawn per refill of an oracle's noise block
_AHEAD_NORMALS = 1 << 20  # most standard normals one announcement pre-reduces (8 MiB)


def _check_seed(seed):
    """Refuse a noise seed that is not an int (bool included): None, a float or
    True would otherwise run another method or another seed's stream."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an int, got {seed!r}")


@dataclass
class StochasticOracle:
    """Unbiased noisy gradient oracle over a deterministic base problem.

    Each draw returns the true gradient plus isotropic Gaussian noise with
    total variance M^2 (M = ``noise_std_f`` for f-gradients, ``noise_std_g``
    for g-gradients), so a batch-B average has variance M^2 / B.  Draws come
    from a counter-based stream: resetting the counter replays the exact
    noise sequence.  Noise is served from a block of standard normals drawn
    ahead from that stream; the stream does not depend on how it is chunked,
    so every draw has the bits a fresh ``standard_normal((batch, dim))``
    call would give.  The base gradients, noise levels and scales are looked
    up once, at construction; each scale is a float64 array of shape (1, 1).

    An inner phase announces its draws with ``_expect``, and each draw that
    matches the announcement takes its pre-computed row, with the same bits;
    any other draw drops the announcement.  Such a phase holds its
    K * P * B * dim_y normals at once (P noisy parts per step; ~64,000 on
    kernel_pl_gnoise at eps = 0.05, B = 1,600), at most ``_AHEAD_NORMALS``.
    The read position and ``counter`` still advance one draw at a time.  The
    noisy parts, dimension and (P, 1) scales of each announced parts tuple
    are worked out once per oracle.

    Every draw tests its point and its base gradient, taking the fast test of
    each without a call: float64 vectors of the problem's shapes pass
    ``check_point`` as they are, and a 1-D float64 gradient with a finite
    squared norm is used as it is.  Any other point goes through
    ``as_vector``, and any other gradient through ``_require_finite``'s
    entrywise test, with the same errors.
    """

    base: BilevelProblem
    noise_std_f: float
    noise_std_g: float
    rng_seed: int
    counter: int = field(default=0, init=False)  # raw draws taken from the stream

    def __post_init__(self):
        for std in (self.noise_std_f, self.noise_std_g):
            if not (math.isfinite(std) and std >= 0):
                raise ConfigError("noise standard deviations must be finite and >= 0, "
                                  f"got {self.noise_std_f} and {self.noise_std_g}")
        _check_seed(self.rng_seed)
        self._gen = substream(self.rng_seed, "oracle")
        self._buf, self._pos = np.empty(0), 0  # the noise block and its read position
        self._ahead, self._next = None, 0  # announced (parts, batch, rows), next row
        self._phases = {}  # announced parts -> (noisy parts, dim, their scales)
        base = self.base
        self._table = {
            which: (fn, std, dim, np.full((1, 1), std / math.sqrt(dim)), f"grad {which}")
            for which, fn, std, dim in (
                ("f_x", base.grad_f_x, self.noise_std_f, base.dim_x),
                ("f_y", base.grad_f_y, self.noise_std_f, base.dim_y),
                ("g_x", base.grad_g_x, self.noise_std_g, base.dim_x),
                ("g_y", base.grad_g_y, self.noise_std_g, base.dim_y),
            )
        }

    def reset(self):
        """Rewind the noise stream to its initial state."""
        self.counter = 0
        self._gen = substream(self.rng_seed, "oracle")
        self._buf, self._pos = np.empty(0), 0
        self._ahead = None

    def _expect(self, parts, batch, count: int):
        """Announce ``count`` rounds of draws of ``parts`` (selectors of one
        dimension, in draw order) at ``batch``, and compute their noise rows
        in one pass; rounds past the first ``_AHEAD_NORMALS`` normals are drawn
        one at a time."""
        self._ahead = None
        phase = self._phases.get(parts)
        if phase is None:
            noisy = tuple(which for which in parts if self._table[which][1] != 0.0)
            phase = (noisy, 0, None)
            if noisy:
                phase = (noisy, self._table[noisy[0]][2],
                         np.concatenate([self._table[which][3] for which in noisy]))
            self._phases[parts] = phase
        noisy, dim, scales = phase
        if not noisy or count < 1 or type(batch) is not int or batch < 1:
            return  # draw validates, and draws one at a time, every other batch
        count = min(count, max(1, _AHEAD_NORMALS // (len(noisy) * batch * dim)))
        rows = self._noise(scales, batch, dim, count).reshape(-1, dim)
        self._ahead, self._next = (noisy * count, batch, rows), 0

    def _noise(self, scales, batch, dim, count):
        """Noise of the next ``count`` rounds of ``len(scales)`` draws in the
        stream, shape (count, len(scales), dim), without moving the read
        position: per-draw covariance (M^2/dim) I, so E||noise||^2 = M^2 per
        call.  A batch mean is the sum and the division ndarray.mean performs;
        numpy sums axis 2 of (count, P, batch, dim) with the bits of axis 0 of
        each (batch, dim) block."""
        n = count * scales.shape[0] * batch * dim
        buf, pos = self._buf, self._pos
        if pos + n > buf.shape[0]:
            buf = self._buf = np.concatenate(
                (buf[pos:], self._gen.standard_normal(max(n, _NOISE_BLOCK))))
            pos = self._pos = 0
        noise = np.add.reduce(buf[pos:pos + n].reshape(count, -1, batch, dim), axis=2)
        noise /= np.array(float(batch))  # 0-d: cheaper than dividing by an int
        try:
            return noise * scales
        except FloatingPointError:  # overflow under np.errstate(over="raise")
            with np.errstate(over="ignore"):
                return noise * scales

    def draw(self, which: str, x, y, batch: int = 1) -> Array:
        # an exact int skips the isinstance tests, which refuse bool and float
        if (type(batch) is not int
                and (isinstance(batch, bool) or not isinstance(batch, (int, np.integer)))
                or batch < 1):
            raise InputError(f"batch must be a positive integer, got {batch!r}")
        part = self._table.get(which)
        if part is None:
            raise InputError(f"unknown gradient selector {which!r}; "
                             f"expected one of {_ORACLE_PARTS}")
        fn, std, dim, scale, what = part
        x, y = self.base.check_point(x, y)
        mean = fn(x, y)
        try:  # _require_finite's fast test, inlined
            fast = (type(mean) is _ndarray and mean.dtype is _FLOAT64 and mean.ndim == 1
                    and math.isfinite(mean.dot(mean)))
        except FloatingPointError:  # overflow under np.errstate(over="raise")
            fast = False
        if not fast:  # the rest of _require_finite, without a second dot
            mean = _entrywise_finite(mean, x, y, what)
        if std == 0.0:
            return mean
        ahead, i = self._ahead, self._next
        if ahead is not None and i < len(ahead[0]) and ahead[0][i] == which \
                and ahead[1] == batch:
            noise = ahead[2][i]
            self._next = i + 1
        else:
            self._ahead = None
            noise = self._noise(scale, batch, dim, 1)[0, 0]
        self._pos += batch * dim
        self.counter += batch
        try:
            return mean + noise
        except FloatingPointError:  # overflow under np.errstate(over="raise")
            with np.errstate(over="ignore"):
                return mean + noise


# ---------------------------------------------------------------------------
# penalized hyper-objective evaluation


_GSTAR_TOL = 1e-12  # gradient norm the value-function pre-solves descend to


_GRID_ROUNDS = 3  # zooms of the grid minimizer


def _grid_values(fn, rows) -> np.ndarray:
    """fn at each row of a 2-D array of grid points, as a float64 array."""
    return np.fromiter(map(fn, rows), float, len(rows))


def _grid_min(fn, box, n_per_dim: int):
    """Zooming grid minimizer over a per-coordinate box (dim <= 2).

    Grids always include the box endpoints, so minimizers sitting exactly at
    declared corners/kinks are found exactly.  Returns (argmin, min,
    spacing), the spacing being the widest axis step of the final grid.
    """
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
        vals = _grid_values(fn, pts)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_pt = pts[k].copy()
        # zoom around the incumbent, clipped to the original box
        nxt = []
        for d in range(dim):
            lo0, hi0 = box[d]
            span = (cur[d][1] - cur[d][0]) / (n_per_dim - 1) * 4
            c = best_pt[d]
            nxt.append((max(lo0, c - span), min(hi0, c + span)))
        cur = nxt
    spacing = max((hi - lo) / (n_per_dim - 1) for lo, hi in cur)
    return best_pt, best_val, spacing


def _box_min(prob: BilevelProblem, fn):
    """``_grid_min`` of fn(y) over the problem's ``y_box``, at 201 points per
    axis in two dimensions and 4001 in one."""
    return _grid_min(fn, prob.meta.y_box, 201 if prob.dim_y == 2 else 4001)


def penalized_hyperobjective_value(p: PenaltyObjective, x) -> PenaltyValue:
    """Evaluate phi_sigma(x) = (min_y h_sigma - g*(x)) / sigma.

    Unconstrained problems are solved by gradient descent on h_sigma, from
    the problem's default start, and on g to gradient norm ``_GSTAR_TOL``;
    box-constrained problems use the zooming grid minimizer over the
    declared box.  The returned ``error_bound`` estimates the value error from
    the achieved residuals via PL quadratic growth (or from the final grid
    spacing on the box path).
    The PL estimate uses g's constant mu for h_sigma as well, which holds
    only up to O(sigma) and is not proven, so the value is not certified.
    """
    from .inner import _h_min  # late import: inner depends on core types

    prob = p.problem
    x = prob.check_point(x)
    c = prob.constants
    yh, h_min, acc_h = _h_min(prob, x, p.sigma, prob.default_start()[1],
                              "penalty descent")
    # warm-start the lower-level solve at the penalty minimizer: the two
    # solution sets are O(sigma)-close under the PL assumption
    _, g_min, acc_g = _h_min(prob, x, 0.0, yh, "lower-level descent")
    value = (h_min - g_min) / p.sigma
    if prob.meta is not None and prob.meta.y_box is not None:
        # quadratic envelope around a grid-resolved minimizer
        bound = (_h_lipschitz(c, p.sigma) * acc_h**2 / 2 + c.L_g * acc_g**2 / 2) / p.sigma
        return PenaltyValue(value, bound)
    # h_sigma inherits the lower-level PL constant mu up to O(sigma)
    bound = (acc_h**2 / (2 * c.mu) + acc_g**2 / (2 * c.mu)) / p.sigma
    return PenaltyValue(float(value), float(bound))
