"""Analytic benchmark suite.

Each instance is a :class:`~bipen.core.BilevelProblem` wrapped in a
:class:`SuiteProblem` that adds what closed-form analysis provides: the exact
hyper-objective, the penalized objective phi_sigma, projections onto (and
samples from) the lower-level solution set, and regime labels.  The suite
spans the behaviours the algorithms must handle:

* ``quadratic_sc``     -- strongly convex lower level, unique minimizers;
* ``kernel_pl``        -- PL but not strongly convex: Y*(x) is a line
                          (a "kernel" direction the lower level ignores);
* ``sin_sq_pl``        -- nonconvex single-variable PL lower level with a
                          grid-certified PL constant;
* ``hard_instance``    -- a chained construction on which zero-respecting
                          first-order methods provably make no progress in x;
* ``discontinuous``    -- convex-but-not-PL lower level whose hyper-objective
                          jumps at x = 0 (boxed and smoothed variants);
* ``degenerate_penalty`` -- PL lower level whose penalty h_sigma is unbounded
                          below, so penalty descent runs away (plus a boxed
                          variant where the value collapses to min(x, 0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import BilevelProblem, ProblemConstants, ProblemMeta, as_vector
from .errors import CapabilityError, ConfigError, InputError

REGIMES = (
    "strongly_convex",
    "kernel_pl",
    "sin_sq_pl",
    "hard_instance",
    "discontinuous",
    "degenerate_penalty",
)


@dataclass(frozen=True)
class SuiteProblem:
    """A registered benchmark instance plus its analytic side-information.

    ``phi_sigma`` takes a scalar (or length-1 vector) x and the penalty
    weight sigma.  ``project_y_star(x, y, sigma)`` returns the closest point
    of the penalized solution set Y*_sigma(x) to y (sigma=0 gives Y*(x));
    ``sample_y_star(x, sigma, n)`` returns an (m, dim_y) array of
    1 <= m <= n points covering the set on the problem's probe window; a set
    that is one point comes back as one row.
    """

    name: str
    problem: BilevelProblem
    regime: str
    notes: str
    phi_inf: Optional[float] = None
    phi_sigma: Optional[Callable] = None
    project_y_star: Optional[Callable] = None
    sample_y_star: Optional[Callable] = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")


def _sc(x) -> float:
    """Scalar view of a scalar-or-length-1-vector upper variable; InputError
    for any other shape."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (1,):
        raise InputError(f"x must be a scalar or a vector of length 1, got shape {arr.shape}")
    return float(arr[0])


def _pow2(v):
    """v ** 2 entrywise, with the bits of a float64 scalar's ``** 2`` (C pow),
    for the row oracles: an array's ``** 2`` is v * v, which can differ in
    the last bit."""
    return np.float_power(v, 2)


# ---------------------------------------------------------------------------
# strongly convex reference problem


def make_quadratic_sc() -> SuiteProblem:
    """f = (x-1)^2/2 + |y|^2/2,  g = |y - x e_1|^2 / 2  (dim_y = 2).

    Unique lower-level minimizer y*(x) = x e_1, so phi(x) =
    (x-1)^2/2 + x^2/2 with minimum 1/4 at x = 1/2.  Everything is available
    in closed form, which makes this the ground-truth instance for estimator
    and schedule tests.
    """

    def f(x, y):
        return 0.5 * (x[0] - 1.0) ** 2 + 0.5 * float(y @ y)

    def grad_f_x(x, y):
        return np.array([x[0] - 1.0])

    def grad_f_y(x, y):
        return y.copy()

    def g(x, y):
        return 0.5 * (y[0] - x[0]) ** 2 + 0.5 * y[1] ** 2

    def grad_g_x(x, y):
        return np.array([x[0] - y[0]])

    def grad_g_y(x, y):
        return np.array([y[0] - x[0], y[1]])

    constants = ProblemConstants(
        C_f=float(1.5 * math.sqrt(2.0)),  # sup ||y|| over the probe window
        L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0, mu=1.0, sigma_bar=2.0,
    )
    meta = ProblemMeta(
        x0=(0.0,), y0=(1.0, 1.0),
        x_window=(-1.5, 1.5), y_window=(-1.5, 1.5),
    )
    problem = BilevelProblem(
        dim_x=1, dim_y=2,
        f=f, grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        g=g, grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        constants=constants,
        hess_g_yy=lambda x, y: np.eye(2),
        hess_g_xy=lambda x, y: np.array([[-1.0, 0.0]]),
        analytic_phi=lambda x: 0.5 * (x[0] - 1.0) ** 2 + 0.5 * x[0] ** 2,
        analytic_grad_phi=lambda x: np.array([2.0 * x[0] - 1.0]),
        meta=meta,
    )
    return SuiteProblem(
        name="quadratic_sc",
        problem=problem,
        regime="strongly_convex",
        notes="strongly convex lower level; minimizer of phi at x = 1/2",
        phi_inf=0.25,
        phi_sigma=lambda x, s: 0.5 * (_sc(x) - 1.0) ** 2 + _sc(x) ** 2 / (2.0 * (1.0 + s)),
        project_y_star=lambda x, y, s: np.array([_sc(x) / (1.0 + s), 0.0]),
        sample_y_star=lambda x, s, n: np.array([[_sc(x) / (1.0 + s), 0.0]]),
    )


# ---------------------------------------------------------------------------
# PL-with-kernel problem: solution sets are lines


def make_kernel_pl(name: str = "kernel_pl", noise_f: float = 0.0,
                   noise_g: float = 0.0) -> SuiteProblem:
    """f = (y_1 - 1)^2/2,  g = (y_1 - x)^2/2  (dim_y = 2, y_2 free).

    g(x, .) is 1-PL but not strongly convex: Y*(x) = {(x, t)} is a line, and
    Y*_sigma(x) = {((x + sigma)/(1 + sigma), t)}.  phi(x) = (x-1)^2/2 and
    phi_sigma(x) = (x-1)^2 / (2(1+sigma)), so penalty bias and hypergradients
    are known exactly.  Declared constants hold on the probe window
    x, y_1 in [0, 2].  Optional ``noise_f``/``noise_g`` set the stochastic
    gradient noise scales M_f/M_g.
    """

    def f(x, y):
        return 0.5 * (y[0] - 1.0) ** 2

    def grad_f_x(x, y):
        return np.zeros(1)

    def grad_f_y(x, y):
        return np.array([y[0] - 1.0, 0.0])

    def g(x, y):
        return 0.5 * (y[0] - x[0]) ** 2

    def grad_g_x(x, y):
        return np.array([x[0] - y[0]])

    def grad_g_y(x, y):
        return np.array([y[0] - x[0], 0.0])

    constants = ProblemConstants(
        C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0, mu=1.0,
        sigma_bar=1.0, M_f=noise_f, M_g=noise_g,
    )
    meta = ProblemMeta(
        x0=(0.0,), y0=(0.5, 0.0),
        x_window=(0.0, 2.0), y_window=(0.0, 2.0),
    )

    def project(x, y, s):
        c0 = (_sc(x) + s) / (1.0 + s)
        return np.array([c0, float(np.atleast_1d(y)[1])])

    def sample(x, s, n):
        c0 = (_sc(x) + s) / (1.0 + s)
        ts = np.linspace(meta.y_window[0], meta.y_window[1], n)
        return np.column_stack([np.full(n, c0), ts])

    problem = BilevelProblem(
        dim_x=1, dim_y=2,
        f=f, grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        g=g, grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        constants=constants,
        hess_g_yy=lambda x, y: np.array([[1.0, 0.0], [0.0, 0.0]]),
        hess_g_xy=lambda x, y: np.array([[-1.0, 0.0]]),
        analytic_phi=lambda x: 0.5 * (x[0] - 1.0) ** 2,
        analytic_grad_phi=lambda x: np.array([x[0] - 1.0]),
        meta=meta,
    )
    noise_note = ""
    if noise_f or noise_g:
        noise_note = f"; stochastic oracle noise M_f={noise_f}, M_g={noise_g}"
    return SuiteProblem(
        name=name,
        problem=problem,
        regime="kernel_pl",
        notes="PL lower level with a one-dimensional kernel direction" + noise_note,
        phi_inf=0.0,
        phi_sigma=lambda x, s: (_sc(x) - 1.0) ** 2 / (2.0 * (1.0 + s)),
        project_y_star=project,
        sample_y_star=sample,
    )


# ---------------------------------------------------------------------------
# nonconvex PL problem with a grid-certified constant


def _sin_sq(u):
    return u * u + 3.0 * np.sin(u) ** 2


def _sin_sq_d1(u):
    return 2.0 * u + 3.0 * np.sin(2.0 * u)


def _sin_sq_d2(u):
    return 2.0 + 6.0 * np.cos(2.0 * u)


def certify_sin_sq_mu() -> float:
    """Grid estimate, with a safety factor, of the PL constant of u^2+3sin^2 u.

    Returns 0.95 times the minimum of the PL ratio |G'(u)|^2 / (2 G(u)) over
    4001 grid points of [-10, 10].  A grid minimum can only over-state the
    infimum over the range, so this bounds nothing: the factor is a margin
    for what the grid misses, not a proof.
    """
    u = np.linspace(-10.0, 10.0, 4001)
    u = u[np.abs(u) > 1e-9]
    ratio = _sin_sq_d1(u) ** 2 / (2.0 * _sin_sq(u))
    return float(0.95 * ratio.min())


def make_sin_sq_pl() -> SuiteProblem:
    """f = (y-1)^2/2 + x^2/2,  g = (y-x)^2 + 3 sin^2(y-x)  (scalar y).

    The lower level is nonconvex (its curvature reaches -4) yet PL; the PL
    constant is estimated on a grid of y - x in [-10, 10] at construction.
    Y*(x) = {x}, so phi(x) = (x-1)^2/2 + x^2/2 as in the strongly convex
    reference, reached through a much rougher landscape.
    """

    mu_cert = certify_sin_sq_mu()

    def f(x, y):
        return 0.5 * (y[0] - 1.0) ** 2 + 0.5 * x[0] ** 2

    def grad_f_x(x, y):
        return np.array([x[0]])

    def grad_f_y(x, y):
        return np.array([y[0] - 1.0])

    def g(x, y):
        return float(_sin_sq(y[0] - x[0]))

    def grad_g_y(x, y):
        return np.array([_sin_sq_d1(y[0] - x[0])])

    def grad_g_x(x, y):
        return np.array([-_sin_sq_d1(y[0] - x[0])])

    def f_rows(x, Y):
        return 0.5 * _pow2(Y[:, 0] - 1.0) + 0.5 * x[0] ** 2

    def g_rows(x, Y):
        u = Y[:, 0] - x[0]
        return u * u + 3.0 * _pow2(np.sin(u))

    constants = ProblemConstants(
        C_f=3.0,  # sup |y - 1| over the probe window
        L_f=1.0, L_g=8.0, rho_f=0.0, rho_g=12.0,
        mu=mu_cert, sigma_bar=0.25,
    )
    meta = ProblemMeta(
        x0=(0.0,), y0=(0.5,),
        x_window=(-1.0, 1.0), y_window=(-2.0, 2.0),
    )

    def project(x, y, s):
        if s != 0.0:
            raise CapabilityError(
                "sin_sq_pl has no closed-form penalized solution set; use sigma = 0"
            )
        return np.array([_sc(x)])

    problem = BilevelProblem(
        dim_x=1, dim_y=1,
        f=f, grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        g=g, grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        constants=constants,
        hess_g_yy=lambda x, y: np.array([[_sin_sq_d2(y[0] - x[0])]]),
        hess_g_xy=lambda x, y: np.array([[-_sin_sq_d2(y[0] - x[0])]]),
        analytic_phi=lambda x: 0.5 * (x[0] - 1.0) ** 2 + 0.5 * x[0] ** 2,
        analytic_grad_phi=lambda x: np.array([2.0 * x[0] - 1.0]),
        meta=meta, f_rows=f_rows, g_rows=g_rows,
    )
    return SuiteProblem(
        name="sin_sq_pl",
        problem=problem,
        regime="sin_sq_pl",
        notes=f"nonconvex PL lower level; grid-certified mu = {mu_cert:.6g} "
              f"(0.95 x grid minimum over y-x in [-10, 10])",
        phi_inf=0.25,
        project_y_star=project,
    )


# ---------------------------------------------------------------------------
# discontinuous hyper-objective (convex but not PL lower level)


def make_discontinuous_example(smoothed: bool = False) -> SuiteProblem:
    """f = x^2 + y^2 with a bilinear lower level g = x*y (scalar y).

    On the box y in [0, 1] the lower-level argmin flips from {1} (x < 0) to
    {0} (x > 0), so phi jumps: phi(0^-) -> 1, phi(0^+) -> 0, phi(0) = 0.
    The smoothed variant replaces the box by quadratic hinge walls
    (y-1)_+^2 + (-y)_+^2, stays unconstrained, and reproduces the same two
    one-sided limits.  Penalty machinery is refused on both variants: the
    lower level is not PL and no sigma_bar exists.
    """

    def f(x, y):
        return x[0] ** 2 + y[0] ** 2

    def grad_f_x(x, y):
        return np.array([2.0 * x[0]])

    def grad_f_y(x, y):
        return np.array([2.0 * y[0]])

    def f_rows(x, Y):
        return x[0] ** 2 + _pow2(Y[:, 0])

    if not smoothed:
        def g(x, y):
            return x[0] * y[0]

        def g_rows(x, Y):
            return x[0] * Y[:, 0]

        def grad_g_x(x, y):
            return np.array([y[0]])

        def grad_g_y(x, y):
            return np.array([x[0]])

        def hess_g_yy(x, y):
            return np.array([[0.0]])

        def analytic_phi(x):
            xv = x[0]
            return xv * xv + (1.0 if xv < 0 else 0.0)

        constants = ProblemConstants(
            C_f=2.0, L_f=2.0, L_g=1.0, rho_f=0.0, rho_g=0.0,
            mu=1.0,  # placeholder: the lower level is not PL, see refusal below
            sigma_bar=1.0,
        )
        meta = ProblemMeta(
            x0=(0.25,), y0=(0.5,),
            x_window=(-0.5, 0.5), y_window=(0.0, 1.0),
            y_box=((0.0, 1.0),),
            penalty_refusal="lower level is convex but not PL (bilinear on a box); "
                            "the hyper-objective jumps at x = 0",
        )
        name, note = "discontinuous", "boxed bilinear lower level; phi jumps at x = 0"
    else:
        def g(x, y):
            yv = y[0]
            return x[0] * yv + max(yv - 1.0, 0.0) ** 2 + max(-yv, 0.0) ** 2

        def g_rows(x, Y):
            yv = Y[:, 0]
            return (x[0] * yv + _pow2(np.maximum(yv - 1.0, 0.0))
                    + _pow2(np.maximum(-yv, 0.0)))

        def grad_g_x(x, y):
            return np.array([y[0]])

        def grad_g_y(x, y):
            yv = y[0]
            return np.array([x[0] + 2.0 * max(yv - 1.0, 0.0) - 2.0 * max(-yv, 0.0)])

        def hess_g_yy(x, y):
            yv = y[0]
            return np.array([[2.0 * float(yv > 1.0) + 2.0 * float(yv < 0.0)]])

        def analytic_phi(x):
            xv = x[0]
            if xv == 0.0:
                return 0.0
            if xv > 0:
                return 1.25 * xv * xv  # argmin of g is {-x/2}
            return xv * xv + (1.0 - 0.5 * xv) ** 2  # argmin is {1 - x/2}

        constants = ProblemConstants(
            C_f=6.0, L_f=2.0, L_g=2.0, rho_f=0.0, rho_g=0.0,
            mu=1.0,  # placeholder, see refusal
            sigma_bar=1.0,
        )
        meta = ProblemMeta(
            x0=(0.25,), y0=(0.5,),
            x_window=(-0.5, 0.5), y_window=(-2.0, 3.0),
            penalty_refusal="lower level is convex but not PL (hinge-walled "
                            "bilinear); the hyper-objective jumps at x = 0",
        )
        name = "discontinuous_smoothed"
        note = "hinge-walled bilinear lower level; same one-sided limits at x = 0"

    problem = BilevelProblem(
        dim_x=1, dim_y=1,
        f=f, grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        g=g, grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        constants=constants,
        hess_g_yy=hess_g_yy,
        hess_g_xy=lambda x, y: np.array([[1.0]]),
        analytic_phi=analytic_phi,
        analytic_grad_phi=None,  # phi is discontinuous at 0
        meta=meta, f_rows=f_rows, g_rows=g_rows,
    )
    return SuiteProblem(name=name, problem=problem, regime="discontinuous",
                        notes=note)


# ---------------------------------------------------------------------------
# degenerate penalty (h_sigma unbounded below)


def make_degenerate_penalty_example(boxed: bool = False) -> SuiteProblem:
    """f = x * y_1,  g = y_2^2 / 2  (dim_y = 2).

    g is 1-PL with Y*(x) = {(t, 0)}, but f is linear along that kernel, so
    h_sigma = sigma*x*y_1 + y_2^2/2 is unbounded below whenever x != 0 and
    penalty descent drifts away at rate tau*sigma*|x| per step.  The unboxed
    variant is flagged so construction of a penalty objective refuses it
    after confirming the runaway with a bounded probe.  On the box [0, 1]^2
    the penalized value collapses to min(x, 0) for every sigma.
    """

    def f(x, y):
        return x[0] * y[0]

    def grad_f_x(x, y):
        return np.array([y[0]])

    def grad_f_y(x, y):
        return np.array([x[0], 0.0])

    def g(x, y):
        return 0.5 * y[1] ** 2

    def grad_g_x(x, y):
        return np.zeros(1)

    def grad_g_y(x, y):
        return np.array([0.0, y[1]])

    def f_rows(x, Y):
        return x[0] * Y[:, 0]

    def g_rows(x, Y):
        return 0.5 * _pow2(Y[:, 1])

    constants = ProblemConstants(
        C_f=2.0,  # sup ||grad_y f|| = |x| over the probe window
        L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0, mu=1.0,
        # unboxed: nominal only, no admissible sigma_bar exists (see notes);
        # boxed: every sigma is benign, certify up to 1
        sigma_bar=1.0 if boxed else 0.1,
    )
    if boxed:
        meta = ProblemMeta(
            x0=(1.0,), y0=(0.0, 1.0),
            x_window=(-2.0, 2.0), y_window=(0.0, 1.0),
            y_box=((0.0, 1.0), (0.0, 1.0)),
        )
        name = "degenerate_penalty_boxed"
        note = ("boxed variant: phi_sigma(x) = min(x, 0) for every sigma; "
                "kink at x = 0")
        analytic_phi = lambda x: min(x[0], 0.0)
        phi_sigma = lambda x, s: min(_sc(x), 0.0)
    else:
        meta = ProblemMeta(
            x0=(1.0,), y0=(0.0, 1.0),
            x_window=(-2.0, 2.0), y_window=(-2.0, 2.0),
            penalty_divergent=True,
            # tight radius for the bounded-budget runaway detector: benign
            # descent from y0 stays well inside, the kernel drift does not
            divergence_radius=4.0,
        )
        name = "degenerate_penalty"
        note = ("penalty h_sigma unbounded below for x != 0: f is linear along "
                "the lower-level kernel; no admissible sigma_bar exists")
        analytic_phi = None
        phi_sigma = None

    problem = BilevelProblem(
        dim_x=1, dim_y=2,
        f=f, grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        g=g, grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        constants=constants,
        hess_g_yy=lambda x, y: np.array([[0.0, 0.0], [0.0, 1.0]]),
        hess_g_xy=lambda x, y: np.array([[0.0, 0.0]]),
        analytic_phi=analytic_phi,
        meta=meta, f_rows=f_rows, g_rows=g_rows,
    )
    return SuiteProblem(
        name=name, problem=problem, regime="degenerate_penalty", notes=note,
        phi_sigma=phi_sigma,
        project_y_star=(lambda x, y, s:
                        np.array([float(np.atleast_1d(y)[0]), 0.0])),
    )


# ---------------------------------------------------------------------------
# worst-case chain construction


def zero_chain_value_grad(q: int, z) -> tuple[float, np.ndarray]:
    """Value and gradient of the chain  (z_1-1)^2/8 + sum (z_{j+1}-z_j)^2/8.

    The gradient of a prefix-supported input is prefix-supported with at most
    one extra index, with exact floating-point zeros elsewhere -- the
    property the certification harness checks bitwise.
    """
    if q < 1:
        raise InputError(f"chain length q must be >= 1, got {q}")
    z = as_vector(z, q, "z")
    return _chain_value(z), _chain_grad(z, np.empty(q))


# The chain's value at a float64 vector z of length q >= 1, unchecked.
def _chain_value(z) -> float:
    d = np.diff(z)
    return float(0.125 * (z[0] - 1.0) ** 2 + 0.125 * float(d @ d))


_QUARTER, _ZERO = np.array(0.25), np.array(0.0)  # 0-d: cheaper per ufunc


# The chain's gradient at a float64 vector z of length q >= 1, unchecked,
# written into ``out`` (z itself may be passed) and returned.  With
# e = 0.25 * diff(z), entry j is (0.0 - e[j]) + e[j-1], the first entry
# 0.25 * (z[0] - 1.0) - e[0] and the last 0.0 + e[-1]: the operations of
# zeros(q) -= e, += e in that order, so signed zeros and NaN keep their bits.
def _chain_grad(z, out) -> np.ndarray:
    e = z[1:] - z[:-1]  # np.diff's subtraction
    np.multiply(e, _QUARTER, e)
    head = 0.25 * (z[0] - 1.0)
    out[-1] = 0.0
    np.subtract(_ZERO, e, out[:-1])
    tail = out[1:]
    np.add(tail, e, tail)
    out[0] = head - e[0] if e.size else head
    return out


def zero_chain_hessian(q: int) -> np.ndarray:
    """Dense Hessian of the chain (tridiagonal, free right end)."""
    if q < 1:
        raise InputError(f"chain length q must be >= 1, got {q}")
    A = np.zeros((q, q))
    np.fill_diagonal(A, 0.5)
    A[q - 1, q - 1] = 0.25
    idx = np.arange(q - 1)
    A[idx, idx + 1] = -0.25
    A[idx + 1, idx] = -0.25
    return A


def chain_min_eigenvalue(q: int) -> float:
    """Smallest eigenvalue of the chain Hessian, sin^2(pi / (2(2q+1))).

    Exact: the Hessian is 1/4 of the fixed-free path Laplacian, whose
    eigenvalues are 4 sin^2((2j-1) pi / (2(2q+1))), j = 1..q.
    """
    if q < 1:
        raise InputError(f"chain length q must be >= 1, got {q}")
    return float(np.sin(np.pi / (2.0 * (2.0 * q + 1.0))) ** 2)


def _hermite_p(u, b):
    return (-(u ** 5) / (2.0 * b ** 3) + 4.5 * u ** 4 / b ** 2
            - 15.5 * u ** 3 / b + 25.0 * u ** 2 - 18.0 * b * u + 5.0 * b ** 2)


def _hermite_p_d1(u, b):
    return (-2.5 * u ** 4 / b ** 3 + 18.0 * u ** 3 / b ** 2
            - 46.5 * u ** 2 / b + 50.0 * u - 18.0 * b)


def _hermite_p_d2(u, b):
    return -10.0 * u ** 3 / b ** 3 + 54.0 * u ** 2 / b ** 2 - 93.0 * u / b + 50.0


def _hermite_p_d3(u, b):
    return -30.0 * u ** 2 / b ** 3 + 108.0 * u / b ** 2 - 93.0 / b


def psi(t, beta: float):
    """Even bump: t^2/2 on |t| <= beta, a quintic blend on beta < |t| <= 2 beta,
    constant beta^2 beyond.  psi(0) = psi'(0) = 0 exactly in floating point.
    The blend is evaluated only on the entries where it applies."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.where(a <= beta, 0.5 * t * t, beta * beta)  # NaN -> beta^2
    bend = (a > beta) & (a <= 2.0 * beta)
    if bend.any():
        out[bend] = _hermite_p(a[bend], beta)
    return out if out.ndim else float(out)


def psi_prime(t, beta: float):
    """Derivative of :func:`psi` (odd; exactly zero at 0 and beyond 2 beta)."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    out = np.where(a <= beta, t, 0.0)  # NaN -> 0
    bend = (a > beta) & (a <= 2.0 * beta)
    if bend.any():
        out[bend] = np.sign(t[bend]) * _hermite_p_d1(a[bend], beta)
    return out if out.ndim else float(out)


def psi_envelopes() -> dict:
    """Numerical envelopes gamma_0..gamma_3 of psi and its derivatives.

    Scale-free: computed on the blend interval with beta = 1, they bound
    psi <= gamma_0 beta^2, |psi'| <= gamma_1 beta, |psi''| <= gamma_2,
    |psi'''| <= gamma_3 / beta for every beta.
    """
    u = np.linspace(1.0, 2.0, 40001)
    return {
        "gamma0": float(max(1.0, _hermite_p(u, 1.0).max())),
        "gamma1": float(max(1.0, np.abs(_hermite_p_d1(u, 1.0)).max())),
        "gamma2": float(max(1.0, np.abs(_hermite_p_d2(u, 1.0)).max())),
        "gamma3": float(np.abs(_hermite_p_d3(u, 1.0)).max()),
    }


@dataclass(frozen=True)
class HardInstanceSpec:
    """Sizing of the worst-case instance for a (T outer) x (K inner) budget."""

    T: int
    K: int

    def __post_init__(self):
        if self.T < 1 or self.K < 1:
            raise ConfigError(f"hard instance needs T >= 1 and K >= 1, got "
                              f"T={self.T}, K={self.K}")

    @property
    def q(self) -> int:
        return 2 * self.T * self.K

    @property
    def beta(self) -> float:
        return 1.0 / math.sqrt(self.q)


def make_hard_instance(spec: HardInstanceSpec) -> SuiteProblem:
    """f = 2 (x+1)^2 r(y) with r summing psi over the last q/2 coordinates;
    g = beta^2 * chain(y / beta), q = 2 T K, beta = 1/sqrt(q).

    The unique lower-level minimizer is beta * 1, where r = q/2 * beta^2/2 =
    1/4, so phi(x) = (x+1)^2 / 2 with gradient 1 at the start x = 0.  Yet a
    zero-respecting first-order method started at (0, 0) keeps every
    hypergradient estimate exactly zero for T outer iterations of K inner
    steps: the chain grows support once per lower-level gradient call, so the
    last q/2 coordinates -- the only ones f sees -- stay identically zero.
    """
    q, b = spec.q, spec.beta
    b_arr = np.array(b)  # 0-d: b's bits on float64 input, cheaper per ufunc
    half = q // 2
    env = psi_envelopes()

    def r_val(y):
        return float(np.sum(psi(y[half:], b)))

    def f(x, y):
        return 2.0 * (x[0] + 1.0) ** 2 * r_val(y)

    def grad_f_x(x, y):
        return np.array([4.0 * (x[0] + 1.0) * r_val(y)])

    def grad_f_y(x, y):
        out = np.zeros(q)
        o, t = out[half:], np.asarray(y[half:], dtype=float)
        c = 2.0 * (x[0] + 1.0) ** 2
        if np.maximum.reduce(np.abs(t, o)) <= b:  # psi' is t on its quadratic piece
            np.multiply(c, t, o)
        else:
            o[:] = c * psi_prime(t, b)
        return out

    def g(x, y):
        return b * b * _chain_value(as_vector(y / b, q, "z"))

    def grad_g_y(x, y):  # b * zero_chain_value_grad(q, y / b)[1], bit for bit
        z = y / b_arr
        _chain_grad(z, z)
        np.multiply(z, b_arr, z)
        return z

    def grad_g_x(x, y):
        return np.zeros(1)

    lam_min = chain_min_eigenvalue(q)
    g1, g2 = env["gamma1"], env["gamma2"]
    constants = ProblemConstants(
        C_f=float(math.sqrt(2.0) * g1),
        L_f=float(max(2.0 * env["gamma0"], 2.0 * math.sqrt(2.0) * g1, 2.0 * g2)),
        L_g=1.0,
        rho_f=float(2.0 * env["gamma3"] / b + 8.0 * g2),  # crude envelope bound
        rho_g=0.0,
        mu=lam_min,
        sigma_bar=1.0,  # nominal; the harness checks supports, not PL rates
    )
    meta = ProblemMeta(
        x0=(0.0,), y0=tuple(np.zeros(q)),
        x_window=(-2.0, 0.0), y_window=(-3.0 * b, 3.0 * b),
    )
    problem = BilevelProblem(
        dim_x=1, dim_y=q,
        f=f, grad_f_x=grad_f_x, grad_f_y=grad_f_y,
        g=g, grad_g_x=grad_g_x, grad_g_y=grad_g_y,
        constants=constants,
        hess_g_yy=lambda x, y: zero_chain_hessian(q),  # dense q x q, on demand
        hess_g_xy=lambda x, y: np.zeros((1, q)),
        analytic_phi=lambda x: 0.5 * (x[0] + 1.0) ** 2,
        analytic_grad_phi=lambda x: np.array([x[0] + 1.0]),
        meta=meta,
    )
    return SuiteProblem(
        name="hard_instance",
        problem=problem,
        regime="hard_instance",
        notes=(f"chained worst case: q={q}, beta={b:.6g}, chain lambda_min="
               f"{lam_min:.3e}, envelopes gamma0={env['gamma0']:.4g} "
               f"gamma1={env['gamma1']:.4g} gamma2={env['gamma2']:.4g} "
               f"gamma3={env['gamma3']:.4g}"),
        phi_inf=0.0,
        project_y_star=lambda x, y, s: np.full(q, b),
    )


# ---------------------------------------------------------------------------
# registry


_REGISTRY: dict[str, Callable[[], SuiteProblem]] = {
    "quadratic_sc": make_quadratic_sc,
    "kernel_pl": make_kernel_pl,
    "kernel_pl_fnoise": lambda: make_kernel_pl("kernel_pl_fnoise", noise_f=0.1),
    "kernel_pl_gnoise": lambda: make_kernel_pl("kernel_pl_gnoise", noise_g=0.1),
    "kernel_pl_noisy": lambda: make_kernel_pl("kernel_pl_noisy", 0.1, 0.1),
    "sin_sq_pl": make_sin_sq_pl,
    "discontinuous": make_discontinuous_example,
    "discontinuous_smoothed": lambda: make_discontinuous_example(smoothed=True),
    "degenerate_penalty": make_degenerate_penalty_example,
    "degenerate_penalty_boxed": lambda: make_degenerate_penalty_example(boxed=True),
    "hard_instance": lambda: make_hard_instance(HardInstanceSpec(T=5, K=5)),
}


def list_problems() -> list[str]:
    return list(_REGISTRY)


def get_problem(name: str) -> SuiteProblem:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown problem {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None
    return factory()
