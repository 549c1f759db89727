"""Inner loops: simultaneous penalty/lower-level descent.

One outer iteration of the penalty methods runs, from warm starts,

    z_{k+1} = z_k - tau * grad_y g(x, z_k)                (lower level)
    y_{k+1} = y_k - tau * (sigma * grad_y f(x, y_k) + grad_y g(x, y_k))

for K steps.  Under the PL assumption both sequences contract linearly to
the solution sets of g(x, .) and h_sigma(x, .).  The module also provides a
single-sequence descent, the certified pre-solve built on it (used for
value-function evaluation and by the diagnostics), and a bounded-budget probe
that detects penalties whose descent runs away (unbounded-below h_sigma).

Hot path: on 1-2 entry vectors numpy's per-call cost dominates, so scale
factors (tau, sigma, eta, noise scales) are float64 arrays made once -- a
Python-float operand costs ~0.4 us more per ufunc (numpy 2.4), for the same
bits -- oracles are called without closures, and trace rows are NamedTuples.
On the chain's q-length vectors allocation costs: a step writes its gradient
combination and both updates into the three arrays it allocates.

Small dimension: while dim_y <= _FLOAT_STEP_DIM, a step whose three
gradients are float64 vectors of shape (dim_y,) runs on Python floats.  It
takes them with tolist(), computes y - tau * (sigma * f + g) and
z - tau * a per coordinate, in numpy's order and so to the same IEEE
doubles, and builds the next y and z with one np.array each.  Any other
gradient hands the rest of the phase to the numpy step, which handles
broadcasting, float32 oracles and np.errstate(over="raise") as before.
Median us per step, oracles returning a stored gradient, K = 40, 15
interleaved repeats (2-vCPU Xeon VM, numpy 2.4.6, Python 3.11):

    dim_y    1     2     3     4     5     6     7     8
    numpy  10.2   7.2   5.8   5.6   7.3   6.7   6.1   6.9
    float   3.6   4.0   4.1   3.7   5.4   5.2   4.6   6.1

    dim_y    9    10    11    12    13    14    15    16
    numpy   7.6   7.2   7.8   7.9   7.6   7.5   7.5   7.5
    float   7.0   7.5   8.1   8.7   8.7   9.5   9.7   9.4

Guards and reported norms still go through _norm, numpy's own dot: BLAS
ddot fuses multiply-adds, and v.dot(v) differed in its last bit from
a*a + b*b on 126,837 of 800,000 standard-normal 2-vectors.  So a float
step passes the guard only while both iterates' math.hypot lies below the
radius by a relative 1e-9, which covers either rounding, and below 1e150,
where ddot cannot overflow; the numpy step redoes any other step, and its
guard decides.  The last h_sigma-gradient is rebuilt in numpy once per
phase for the reported norm.  Under np.errstate(under="raise") a float
step does not raise on a subnormal result, where numpy's would.

A float step that leaves both iterates unchanged, bit for bit, keeps the
current y and z arrays.  Unchanged is tested as == per coordinate while the
step is computed, then, since == does not tell 0.0 from -0.0, as equal
float64 bytes.  Its hypot test is skipped only for iterates that passed it
earlier in the same phase, so the first step of a phase is always tested.
On kernel_pl at eps = 0.01, 74,961 of the 75,000 inner steps are such steps.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (_FLOAT64, _GSTAR_TOL, BilevelProblem, StochasticOracle, _box_min, _h,
                   _h_grad, _h_lipschitz, _int_field, as_bilevel, as_vector)
from .errors import ConfigError, ConvergenceError, DivergenceError, NumericError

_ndarray = np.ndarray
# dim_y up to which an inner step runs on Python floats; the float step was
# faster through dim_y = 9 in every crossover run (module docstring)
_FLOAT_STEP_DIM = 8
# native float64 bytes of a float list, as ndarray.tobytes gives an array's
_PACK = [struct.Struct(f"{n}d").pack for n in range(_FLOAT_STEP_DIM + 1)]


@dataclass(frozen=True)
class InnerConfig:
    """Step size, step count and runaway radius for one inner phase.

    ``batch`` = 0 means full (deterministic) gradients; batch >= 1 draws that
    many noisy gradients per evaluation from the run's stochastic oracle.
    Every phase runs its K steps in full: worst-case budgets are not cut short.
    """

    tau: float
    K: int
    batch: int = 0
    divergence_radius: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"inner step size tau must be > 0, got {self.tau}")
        _int_field(self, "K", "inner step count K")
        _int_field(self, "batch", "batch")
        if self.K < 0:
            raise ConfigError(f"inner step count K must be >= 0, got {self.K}")
        if self.batch < 0:
            raise ConfigError(f"batch must be >= 0 (0 = full gradients), got {self.batch}")
        _check_radius(self.divergence_radius)


def _check_radius(radius):
    """A divergence radius is None (derived from the start) or > 0; inf turns
    the runaway test off on purpose, while NaN would turn it off silently."""
    if radius is not None and not radius > 0:
        raise ConfigError(f"divergence radius must be > 0 or inf, got {radius}")


class InnerResult(NamedTuple):
    y: np.ndarray
    z: np.ndarray
    grad_norm_y: float  # norm of the last h_sigma-gradient used (nan if no steps)
    grad_norm_z: float  # norm of the last g-gradient used (nan if no steps)
    oracle_calls: int   # 2 * max(batch, 1) per step
    steps: int


def _norm(v) -> float:
    """Euclidean norm of a 1-D float64 ndarray.

    The same dot product and square root as ``np.linalg.norm``, so the same
    bits, without its dispatch; callers holding anything else convert first.
    """
    try:
        return math.sqrt(v.dot(v))
    except FloatingPointError:  # overflow under np.errstate(over="raise")
        return math.inf


# v - scale * grad as the default error state computes it (inf on overflow),
# for _guard to classify: the slow path of a step that raised
# FloatingPointError under np.errstate(over="raise")
def _overflowed_step(v, scale, grad):
    with np.errstate(over="ignore"):
        return v - scale * grad


def _guard(vec, which: str, step: int, radius: float, loop: str = "inner"):
    n = _norm(vec)
    # A finite norm within the radius means a finite, in-radius iterate.  NaN,
    # inf and overflow all fail this test and are classified below.
    if n <= radius and n < math.inf:
        return
    if not np.isfinite(vec).all():
        raise NumericError(
            f"non-finite {which}-iterate at {loop} step {step}", point=np.array(vec)
        )
    if n > radius:
        raise DivergenceError(
            f"{which}-sequence left the divergence radius {radius:g} "
            f"at {loop} step {step} (norm {n:.3g})",
            step=step, norm=n, sequence=which,
        )


def inner_descend(
    problem,
    x,
    y0,
    z0,
    sigma: float,
    cfg: InnerConfig,
    oracle: Optional[StochasticOracle] = None,
) -> InnerResult:
    """Run K simultaneous descent steps on h_sigma(x, .) and g(x, .).

    Deterministic when ``cfg.batch`` == 0; otherwise every gradient is a
    batch average drawn from ``oracle``.  Oracle calls are counted in fused
    penalty-gradient units: two first-order calls per step, scaled by the
    batch size in the stochastic path -- and the loop makes exactly that many
    calls.  The reported gradient norms are those of the last gradients the
    loop consumed (no extra post-loop evaluations: on budget-sized worst-case
    instances a single spare gradient call would leak information the
    certification harness must account for).  tau and sigma are applied as
    0-d float64 arrays, which numpy 2 does not treat as weak scalars: a
    float32 oracle output is scaled in float64.  Up to ``_FLOAT_STEP_DIM``
    entries a step runs on Python floats, to the same bits.
    """
    prob = as_bilevel(problem)
    x = as_vector(x, prob.dim_x, "x")
    y = as_vector(y0, prob.dim_y, "y0").copy()
    z = as_vector(z0, prob.dim_y, "z0").copy()
    if not (math.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"inner descent needs sigma > 0, got {sigma}")
    batch = cfg.batch
    if batch > 0 and oracle is None:
        raise ConfigError("cfg.batch > 0 requires a stochastic oracle")

    radius = cfg.divergence_radius
    if radius is None:
        radius = 1e6 * (1.0 + max(_norm(y), _norm(z)))

    # 0-d: the same bits as Python floats, ~0.4 us cheaper per ufunc
    tau, sig = np.array(cfg.tau, dtype=float), np.array(sigma, dtype=float)
    grad_f, grad_g, draw = prob.grad_f_y, prob.grad_g_y, getattr(oracle, "draw", None)

    K, inf = cfg.K, math.inf
    # small dimension: steps on Python floats (module docstring)
    small = prob.dim_y <= _FLOAT_STEP_DIM
    if small:
        t, s = float(cfg.tau), float(sigma)
        shape, coords = (prob.dim_y,), range(prob.dim_y)
        r_pass = min(radius, 1e150) * (1.0 - 1e-9)
        zl, yl = z.tolist(), y.tolist()
        pack, passed = _PACK[prob.dim_y], False  # passed: z, y passed hypot here
    gy = None  # the last h_sigma-gradient, when a numpy step made it
    for k in range(K):
        if batch == 0:
            gz, fy, gg = grad_g(x, z), grad_f(x, y), grad_g(x, y)
        else:
            gz, fy, gg = (draw("g_y", x, z, batch), draw("f_y", x, y, batch),
                          draw("g_y", x, y, batch))
        if small:
            if (type(gz) is _ndarray and type(fy) is _ndarray and type(gg) is _ndarray
                    and gz.dtype is _FLOAT64 and fy.dtype is _FLOAT64
                    and gg.dtype is _FLOAT64 and gz.shape == shape
                    and fy.shape == shape and gg.shape == shape):
                a, b, c = gz.tolist(), fy.tolist(), gg.tolist()
                same = True
                for i in coords:
                    zi, yi = zl[i] - t * a[i], yl[i] - t * (s * b[i] + c[i])
                    if same and (zi != zl[i] or yi != yl[i]):
                        same = False
                    zl[i], yl[i] = zi, yi
                # a fixed point: equal floats, and bytes for the signs of zeros
                keep = same and pack(*zl) == z.tobytes() and pack(*yl) == y.tobytes()
                if (keep and passed) or (math.hypot(*zl) < r_pass
                                         and math.hypot(*yl) < r_pass):
                    if not keep:
                        z, y = np.array(zl), np.array(yl)
                    gy, passed = None, True
                    continue
            else:
                small = False
        # _guard's fast test, inlined; _guard classifies what fails it
        try:
            try:
                # the same operations in the same order as the broadcasting
                # form below, written into the three arrays they allocate
                gy = sig * fy
                gy += gg
                z_new, y_new = tau * gz, tau * gy
                np.subtract(z, z_new, z_new)
                np.subtract(y, y_new, y_new)
            except (TypeError, ValueError):  # a gradient that only broadcasts
                gy = sig * fy + gg
                z_new, y_new = z - tau * gz, y - tau * gy
            n_z, n_y = math.sqrt(z_new.dot(z_new)), math.sqrt(y_new.dot(y_new))
        except FloatingPointError:  # overflow under np.errstate(over="raise")
            with np.errstate(over="ignore"):
                gy = sig * fy + gg
                z_new, y_new = z - tau * gz, y - tau * gy
            n_z = n_y = inf
        z, y = z_new, y_new
        if not (n_z <= radius and n_y <= radius and n_z < inf and n_y < inf):
            _guard(z, "z", k, radius)
            _guard(y, "y", k, radius)
        if small:
            zl, yl, passed = z.tolist(), y.tolist(), False

    if K and gy is None:  # a float step: the same bits in numpy
        gy = sig * fy + gg
    ny, nz = (_norm(gy), _norm(gz)) if K else (math.nan, math.nan)
    # fused units: one h_sigma-gradient + one g-gradient per step
    return InnerResult(y, z, ny, nz, 2 * max(batch, 1) * K, K)


def descend_single(
    grad_fn,
    y0,
    tau: float,
    tol: float,
    max_iter: int = 500_000,
    radius: Optional[float] = None,
    label: str = "descent",
    exact_steps: Optional[int] = None,
):
    """Plain gradient descent on a single smooth function of y.

    Stops when ||grad|| <= tol (or after exactly ``exact_steps`` steps when
    given).  Raises ConvergenceError if the tolerance is not met within
    ``max_iter`` and DivergenceError/NumericError on runaway or non-finite
    iterates.  Returns (y, final_grad_norm, steps).  Gradients are taken as
    float64 arrays.
    """
    _check_radius(radius)
    y = np.array(y0, dtype=float).copy()
    if radius is None:
        radius = 1e6 * (1.0 + _norm(y))
    exact = exact_steps is not None
    for k in range(exact_steps if exact else max_iter):
        gv = np.asarray(grad_fn(y), dtype=float)
        if not exact:
            n = _norm(gv)  # inf also when a finite gradient's norm overflows
            if not math.isfinite(n) and not np.isfinite(gv).all():
                raise NumericError(f"non-finite gradient in {label}", point=y.copy())
            if n <= tol:
                return y, n, k
        try:
            y = y - tau * gv
        except FloatingPointError:  # overflow under np.errstate(over="raise")
            y = _overflowed_step(y, tau, gv)
        _guard(y, label, k, radius)
    if exact:
        return y, _norm(np.asarray(grad_fn(y), dtype=float)), exact_steps
    residual = _norm(np.asarray(grad_fn(y), dtype=float))
    raise ConvergenceError(
        f"{label} failed to reach tolerance {tol:g} within {max_iter} steps "
        f"(residual {residual:.3g})",
        residual=residual,
    )


def presolve(prob: BilevelProblem, x, sigma: float, y0, tol: float,
             label: str = "pre-solve"):
    """``descend_single`` on h_sigma(x, .), or on g(x, .) when sigma = 0, at
    the step 1 / (sigma L_f + L_g); returns its (y, final_grad_norm, steps)."""
    return descend_single(_h_grad(prob, x, sigma), y0,
                          1.0 / _h_lipschitz(prob.constants, sigma), tol, label=label)


def _h_min(prob: BilevelProblem, x, sigma: float, y0, label: str):
    """(argmin, min, accuracy) of h_sigma(x, .), or of g(x, .) when sigma = 0:
    ``_box_min`` and its grid spacing over a declared ``y_box``, otherwise
    ``presolve`` from y0 to ``_GSTAR_TOL`` and its final gradient norm."""
    h = _h(prob, x, sigma)
    if prob.meta is not None and prob.meta.y_box is not None:
        return _box_min(prob, h)
    y, residual, _ = presolve(prob, x, sigma, y0, _GSTAR_TOL, label)
    return y, h(y), residual


class DivergenceProbe(NamedTuple):
    diverged: bool
    steps: int
    final_norm: float
    radius: float


def probe_penalty_divergence(
    problem,
    x,
    sigma: float,
    max_steps: int = 1000,
    radius: Optional[float] = None,
) -> DivergenceProbe:
    """Bounded-budget detector for unbounded-below penalties.

    Runs ``max_steps`` steps of gradient descent on h_sigma(x, .) from the
    problem's default start with a deliberately tight radius: a penalty that
    is unbounded below in a linear direction drifts out of it within the step
    budget, while benign instances stay put.  A non-finite iterate, or one
    whose norm overflows, counts as diverged with norm inf.  Returns the
    observation; callers decide whether to raise.
    """
    prob = as_bilevel(problem)
    x = as_vector(x, prob.dim_x, "x")
    _, y0 = prob.default_start()
    c = prob.constants
    if radius is None:
        radius = getattr(prob.meta, "divergence_radius", None)
    if radius is None:
        radius = 10.0 * (1.0 + _norm(y0))
    grad_h = _h_grad(prob, x, sigma)
    calls = 0  # gradient evaluations: one per step, then one at the end

    def grad(y):
        nonlocal calls
        # _guard passes an iterate of overflowing norm when radius is inf
        if calls and _norm(y) == math.inf:
            raise DivergenceError("norm overflow", step=calls - 1, norm=math.inf)
        calls += 1
        return grad_h(y)

    try:
        y, _, _ = descend_single(grad, y0, 1.0 / _h_lipschitz(c, sigma), 0.0,
                                 radius=radius, label="penalty probe",
                                 exact_steps=max_steps)
    except DivergenceError as exc:
        return DivergenceProbe(True, exc.step + 1, exc.norm, radius)
    except NumericError:
        return DivergenceProbe(True, calls, math.inf, radius)
    return DivergenceProbe(False, max_steps, _norm(y), radius)
