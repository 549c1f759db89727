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
from dataclasses import dataclass, field, fields
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
# entries up to which an inner step (``inner``) and a noisy draw
# (``StochasticOracle.draw``) run on Python floats; the inner step was faster
# through dim_y = 9 in every crossover run (README, Hot path)
_FLOAT_STEP_DIM = 8
# numpy's default error state, in which the loops that promise a witness (a
# run, ``inner.descend_single``, ``inner.inner_descend`` on a caller's config)
# run whatever state their caller set: an overflow gives inf there, and the
# guard its witness, never a bare FloatingPointError
_DEFAULT_ERRSTATE = {"all": "warn", "under": "ignore"}


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


def _as_gradient(value, dim: int, what: str, at):
    """(v, floats): a gradient oracle's output as the draw and the exact
    estimate take it, the one numeric contract at the oracle boundary.

    A float64 ndarray of shape (dim,) is v as it is; any other value is
    converted once by ``as_vector``, which refuses a wrong shape with
    InputError.  ``floats`` is v's entries when dim <= ``_FLOAT_STEP_DIM``
    and their hypot is below 1e150 (so v is finite), else None.  A v that
    is not finite raises NumericError at the point ``at`` = (x, y).
    """
    value = as_vector(value, dim, what)
    if dim <= _FLOAT_STEP_DIM:
        m = value.tolist()
        if math.hypot(*m) < 1e150:
            return value, m
    if not (math.isfinite(value.dot(value)) or np.isfinite(value).all()):
        raise NumericError(f"non-finite {what} encountered",
                           point=tuple(np.array(v) for v in at))
    return value, None


def _as_float(v, label: str) -> float:
    """float(v), or ConfigError naming ``label`` when float() cannot take v."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{label} must be a number, got {v!r}") from None


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
        for f in fields(self):  # each stored as a float, in declaration order
            v = _as_float(getattr(self, f.name), f"constant {f.name}")
            object.__setattr__(self, f.name, v)
            positive = f.name in ("mu", "sigma_bar")
            if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
                raise ConfigError(f"constant {f.name} must be finite and "
                                  f"{'> 0' if positive else '>= 0'}, got {v}")

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
    analytic trace columns respectively.  The analytic references
    (``analytic_phi``, ``analytic_grad_phi``) are taken to be pure functions
    of x: the penalty loop evaluates them only when x changes from one outer
    step to the next, and trace rows that repeat x share their values.

    ``f_rows`` and ``g_rows`` are optional row oracles: ``f_rows(x, Y)``
    returns a float64 array holding f(x, y) for each row y of an
    (n, dim_y) array Y, with the bits of n row-by-row calls of ``f`` (and
    likewise ``g_rows`` for g).  The grid minimizers and the grid
    hyper-objective evaluate a whole grid with one call of them; a problem
    that declares none is evaluated with one call of ``f`` or ``g`` per grid
    point, to the same values.
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
    f_rows: Optional[Callable[[Array, Array], Array]] = None  # f at each row of Y
    g_rows: Optional[Callable[[Array, Array], Array]] = None  # g at each row of Y

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


# ---------------------------------------------------------------------------
# penalty objective


def _h(prob: BilevelProblem, x, sigma: float):
    """y -> h_sigma(x, y) = sigma f(x, y) + g(x, y), or g(x, y) when sigma = 0."""
    if sigma == 0.0:
        return functools.partial(prob.g, x)
    return lambda y: sigma * prob.f(x, y) + prob.g(x, y)


def _per_row(fn):
    """Y -> fn(y) at each row y of a 2-D array Y, one call per row, as a
    float64 array."""
    return lambda Y: np.fromiter(map(fn, Y), float, len(Y))


def _h_rows(prob: BilevelProblem, x, sigma: float):
    """Y -> h_sigma(x, y) at each row y of a 2-D array Y, with ``_h``'s bits:
    ``g_rows`` at sigma = 0 and ``sigma * f_rows + g_rows`` otherwise, or one
    call of ``_h`` per row when the problem lacks the row oracles it needs."""
    f_rows, g_rows = prob.f_rows, prob.g_rows
    if g_rows is None or (sigma != 0.0 and f_rows is None):
        return _per_row(_h(prob, x, sigma))
    if sigma == 0.0:
        return functools.partial(g_rows, x)
    return lambda Y: sigma * f_rows(x, Y) + g_rows(x, Y)


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
        prob = self.problem
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"penalty weight sigma must be > 0, got {self.sigma}")
        # the estimator's divisor, 0-d: cheaper per ufunc than a float, and
        # as a float for the float combination
        object.__setattr__(self, "_sigma_0d", np.array(self.sigma, dtype=float))
        object.__setattr__(self, "_sigma_f", float(self._sigma_0d))
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
    Exact gradients with ``_as_gradient``'s floats are combined on Python
    floats in numpy's order; a result that is not finite, and any other
    gradients, take numpy's expression, whose overflow follows numpy's state.
    """
    prob = p.problem
    if batch == 0:
        x, yK = prob.check_point(x, yK)
        zK = as_vector(zK, prob.dim_y, "zK")
        gfx, a = _as_gradient(prob.grad_f_x(x, yK), prob.dim_x, "grad_x f", (x, yK))
        ggx_y, b = _as_gradient(prob.grad_g_x(x, yK), prob.dim_x, "grad_x g at yK", (x, yK))
        ggx_z, c = _as_gradient(prob.grad_g_x(x, zK), prob.dim_x, "grad_x g at zK", (x, zK))
        if a is not None and b is not None and c is not None:
            for i in range(len(a)):  # gfx + (ggx_y - ggx_z) / sigma, the same doubles
                a[i] += (b[i] - c[i]) / p._sigma_f
            if math.isfinite(sum(a)):  # so every entry is, and nothing overflowed
                return np.array(a)
    elif oracle is None:
        raise ConfigError("a batched hypergradient estimate needs a stochastic oracle")
    else:
        gfx = oracle.draw("f_x", x, yK, batch)
        ggx_y = oracle.draw("g_x", x, yK, batch)
        ggx_z = oracle.draw("g_x", x, zK, batch)
    return gfx + (ggx_y - ggx_z) / p._sigma_0d


# ---------------------------------------------------------------------------
# stochastic oracle


_ORACLE_PARTS = ("f_x", "f_y", "g_x", "g_y")
_NOISE_BLOCK = 4096  # least standard normals drawn per refill of an oracle's noise block


def _check_seed(seed):
    """Refuse a noise seed that is not an int (bool included): None, a float or
    True would otherwise run another method or another seed's stream."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an int, got {seed!r}")


@dataclass
class StochasticOracle:
    """Unbiased noisy gradient oracle over a deterministic base problem.

    Each call returns the true gradient plus isotropic Gaussian noise with
    covariance (M^2 / dim) I, so total variance M^2 (M = ``noise_std_f`` for
    f-gradients, ``noise_std_g`` for g-gradients).  A batch-B draw stands
    for B such calls and returns their mean, which is exactly
    N(gradient, (M^2 / dim) I / B) in law: it is taken from dim standard
    normals z as gradient + (z * M / sqrt(dim)) * (1 / sqrt(B)), and
    ``counter`` advances by B.  That identity holds because the noise is
    Gaussian; a non-Gaussian noise model would have to average B calls.
    At B = 1 the second factor is 1.0: the draw is gradient + z * M / sqrt(dim).

    Draws come from a counter-based stream: resetting the counter replays
    the exact noise sequence.  Normals are served from a block drawn ahead
    from that stream, at least ``_NOISE_BLOCK`` and at least dim at a time,
    keeping the unused tail across a refill; the stream does not depend on
    how it is chunked, so every draw has the bits a per-call
    ``standard_normal(dim)`` would give.  The base gradients, noise levels
    and scales (0-d float64 arrays and floats) are looked up once, at
    construction, and each validated (part, int batch) pair is kept as a
    plain tuple, so a repeated request skips its checks.  Every draw tests
    its point (``check_point``) and its base gradient (``_as_gradient``).
    """

    base: BilevelProblem
    noise_std_f: float
    noise_std_g: float
    rng_seed: int
    counter: int = field(default=0, init=False)  # raw draws taken from the stream

    def __post_init__(self):
        self.noise_std_f = _as_float(self.noise_std_f, "noise_std_f")
        self.noise_std_g = _as_float(self.noise_std_g, "noise_std_g")
        for std in (self.noise_std_f, self.noise_std_g):
            if not (math.isfinite(std) and std >= 0):
                raise ConfigError("noise standard deviations must be finite and >= 0, "
                                  f"got {self.noise_std_f} and {self.noise_std_g}")
        _check_seed(self.rng_seed)
        self.reset()
        base = self.base
        self._table = {
            which: (fn, std, dim, np.array(std / math.sqrt(dim)), std / math.sqrt(dim))
            for which, fn, std, dim in (
                ("f_x", base.grad_f_x, self.noise_std_f, base.dim_x),
                ("f_y", base.grad_f_y, self.noise_std_f, base.dim_y),
                ("g_x", base.grad_g_x, self.noise_std_g, base.dim_x),
                ("g_y", base.grad_g_y, self.noise_std_g, base.dim_y),
            )
        }
        # (which, int batch) -> (fn, std, dim, 0-d scale, scale, shrink, label):
        # plain tuples, so the oracle holds no closure and no reference cycle
        self._parts = {}

    def reset(self):
        """Rewind the noise stream to its initial state."""
        self.counter = 0
        self._gen = substream(self.rng_seed, "oracle")
        # the noise block, its read position and, once a float draw needs
        # them, its entries as Python floats
        self._buf, self._pos, self._bl = np.empty(0), 0, None

    def draw(self, which: str, x, y, batch: int = 1) -> Array:
        """One batch-``batch`` draw of gradient part ``which`` at (x, y).

        A base gradient with ``_as_gradient``'s floats gets its noise as
        a + b * scale * shrink per entry, in numpy's order, so the same
        doubles; a float result that is not finite, and any other gradient,
        take numpy's expression, whose overflow follows numpy's error state.
        """
        part = (self._parts.get((which, batch))
                if type(batch) is int and type(which) is str else None)
        if part is None:  # the checks; each part is kept at its int batch
            if (isinstance(batch, bool) or not isinstance(batch, (int, np.integer))
                    or batch < 1):
                raise InputError(f"batch must be a positive integer, got {batch!r}")
            batch = int(batch)  # so counter stays an int: a numpy integer would wrap it
            entry = self._table.get(which)
            if entry is None:
                raise InputError(f"unknown gradient selector {which!r}; "
                                 f"expected one of {_ORACLE_PARTS}")
            part = (*entry, 1.0 / math.sqrt(batch), f"grad {which}")  # shrink 1.0 at B = 1
            self._parts[which, batch] = part
        fn, std, dim, scale, s, shrink, what = part
        x, y = self.base.check_point(x, y)
        mean, m = _as_gradient(fn(x, y), dim, what, (x, y))
        if std == 0.0:
            return mean
        buf, pos = self._buf, self._pos
        if pos + dim > buf.shape[0]:  # refill, keeping the unused tail
            buf = self._buf = np.concatenate(
                (buf[pos:], self._gen.standard_normal(max(dim, _NOISE_BLOCK))))
            self._bl, pos = None, 0
        self._pos = pos + dim
        self.counter += batch
        if m is not None:
            bl = self._bl
            if bl is None:  # at most once per refill, and never for wide draws
                bl = self._bl = buf.tolist()
            for i in range(dim):  # a plain loop: a comprehension costs a call
                m[i] += bl[pos + i] * s * shrink
            if math.isfinite(sum(m)):  # so every entry is, and nothing overflowed
                return np.array(m)
        return mean + buf[pos:pos + dim] * scale * shrink


# ---------------------------------------------------------------------------
# penalized hyper-objective evaluation


_GSTAR_TOL = 1e-12  # gradient norm the value-function pre-solves descend to


_GRID_ROUNDS = 3  # zooms of the grid minimizer


def _grid_min(rows, box, n_per_dim: int):
    """Zooming grid minimizer over a per-coordinate box (dim <= 2).

    ``rows`` maps an (n, dim) array of grid points to their n values (as
    ``_h_rows`` and ``_per_row`` build it), and is called once per round.
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
        vals = rows(pts)
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


def _box_min(prob: BilevelProblem, rows):
    """``_grid_min`` of the row evaluator ``rows`` over the problem's
    ``y_box``, at 201 points per axis in two dimensions and 4001 in one."""
    return _grid_min(rows, prob.meta.y_box, 201 if prob.dim_y == 2 else 4001)


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
