"""Inner loops: simultaneous penalty/lower-level descent.

One outer iteration of the penalty methods runs, from warm starts,

    z_{k+1} = z_k - tau * grad_y g(x, z_k)                (lower level)
    y_{k+1} = y_k - tau * (sigma * grad_y f(x, y_k) + grad_y g(x, y_k))

for K steps.  Under the PL assumption both sequences contract linearly to
the solution sets of g(x, .) and h_sigma(x, .).  The module also provides a
single-sequence descent, the certified pre-solve built on it (used for
value-function evaluation and by the diagnostics), and a bounded-budget probe
that detects penalties whose descent runs away (unbounded-below h_sigma).

The loops take a float64 gradient of shape (dim_y,) as it is (tested
inline), convert any other through ``core.as_vector``, and run in numpy's
default error state, so an overflow ends in the guard's witness whatever
state the caller set.  On 1-2 entry vectors numpy's per-call cost
dominates, so scale factors are 0-d float64 arrays made once and oracles are
called without closures; on the chain's q-length vectors a step writes its
gradient combination and both updates into the three arrays it allocates.
While dim_y <= _FLOAT_STEP_DIM a step runs on Python floats:
y - tau * (sigma * f + g) and z - tau * a per coordinate, in numpy's order
and so to the same IEEE doubles (README, Hot path).

Guards and reported norms still go through _norm, numpy's own dot: BLAS
ddot fuses multiply-adds, so v.dot(v) can differ in its last bit from
a*a + b*b.  So a float step passes the guard only while both iterates'
math.hypot lies below the radius by a relative 1e-9, which covers either
rounding, and below 1e150, where ddot cannot overflow; the numpy step redoes
any other step, and its guard decides.  The last h_sigma-gradient is rebuilt
in numpy once per phase for the reported norm.

A float step that leaves both iterates unchanged, bit for bit, keeps the
current y and z arrays.  Unchanged is tested as == per coordinate while the
step is computed, then, since == does not tell 0.0 from -0.0, as equal
float64 bytes; the hypot test is skipped only for iterates that passed it.
A later float step whose three gradients have the kept step's bytes would
recompute its doubles and keep the same arrays, so it is skipped after its
oracle calls; a step that moves forgets those bytes.

A run prepares its phase once per K (``_prepare_phase``): the 0-d scale
factors, the radius, the float step's pass bound, the oracle entry points
and a record of its last kept step (gradient and iterate bytes, end norms).
A later phase from iterates of those bytes starts from that step, which
passed this bound, so 99.8% of f2ba_sweep's inner steps (seed 0) are
skipped; a phase that ends on the recorded gradients returns their norms.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (_DEFAULT_ERRSTATE, _FLOAT64, _FLOAT_STEP_DIM, _GSTAR_TOL, BilevelProblem,
                   StochasticOracle, _as_float, _box_min, _h, _h_grad, _h_lipschitz,
                   _h_rows, _int_field, as_vector)
from .errors import ConfigError, ConvergenceError, DivergenceError, NumericError

_ndarray = np.ndarray
_MAX_ITER = 500_000  # descend_single's step budget when it runs to a tolerance
_PROBE_STEPS = 1000  # probe_penalty_divergence's step budget


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
        object.__setattr__(self, "tau", _as_float(self.tau, "inner step size tau"))
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ConfigError(f"inner step size tau must be > 0, got {self.tau}")
        _int_field(self, "K", "inner step count K")
        _int_field(self, "batch", "batch")
        if self.K < 0:
            raise ConfigError(f"inner step count K must be >= 0, got {self.K}")
        if self.batch < 0:
            raise ConfigError(f"batch must be >= 0 (0 = full gradients), got {self.batch}")
        object.__setattr__(self, "divergence_radius", _check_radius(self.divergence_radius))


def _check_radius(radius):
    """A divergence radius as a float > 0, or None (derived from the start);
    inf turns the runaway test off on purpose, NaN would turn it off silently."""
    if radius is not None:
        radius = _as_float(radius, "divergence radius")
        if not radius > 0:
            raise ConfigError(f"divergence radius must be > 0 or inf, got {radius}")
    return radius


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
    A squared norm that overflows gives inf (numpy warns of it).
    """
    return math.sqrt(v.dot(v))


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


class _Phase(NamedTuple):
    """An inner phase's constants for one run and K (``_prepare_phase``);
    ``last`` records the float step that last ended a phase: its gradients'
    bytes, the z and y bytes it kept (None after a move) and its end norms."""

    K: int
    batch: int
    calls: int        # fused units: one h_sigma-gradient + one g-gradient per step
    radius: float
    tau: np.ndarray   # 0-d: the same bits as Python floats, ~0.4 us cheaper per ufunc
    sig: np.ndarray
    grad_f: object
    grad_g: object
    draw: object
    small: bool       # dim_y <= _FLOAT_STEP_DIM: steps on Python floats
    t: float
    s: float
    r_pass: float     # the float step's hypot bound for both iterates
    shape: tuple
    coords: range
    pack: object      # native float64 bytes of a float list, as tobytes gives
    last: list


def _prepare_phase(prob: BilevelProblem, sigma: float, cfg: InnerConfig,
                   oracle: Optional[StochasticOracle], radius: float) -> _Phase:
    """``cfg``'s phase on ``prob`` at ``sigma`` within ``radius``, unvalidated."""
    n = prob.dim_y
    return _Phase(cfg.K, cfg.batch, 2 * max(cfg.batch, 1) * cfg.K, radius,
                  np.array(cfg.tau, dtype=float), np.array(sigma, dtype=float),
                  prob.grad_f_y, prob.grad_g_y, getattr(oracle, "draw", None),
                  n <= _FLOAT_STEP_DIM, float(cfg.tau), float(sigma),
                  min(radius, 1e150) * (1.0 - 1e-9), (n,), range(n),
                  struct.Struct(f"{n}d").pack, [None, None, None])


def inner_descend(
    prob: BilevelProblem,
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
    certification harness must account for).  A gradient that is not a
    float64 vector of shape (dim_y,) is converted by ``as_vector``; up to
    ``_FLOAT_STEP_DIM`` entries a step runs on Python floats, to the same
    bits.

    A caller's ``InnerConfig`` is validated and prepared, and the phase runs
    in numpy's default error state.  The outer loop passes, as ``cfg``, the
    phase it prepared for the run (``_prepare_phase``), in that state, with
    x, y0 and z0 float64 vectors that it owns, which are then neither
    validated nor copied; the loop writes into none of them.
    """
    if type(cfg) is not _Phase:
        with np.errstate(**_DEFAULT_ERRSTATE):
            x = as_vector(x, prob.dim_x, "x")
            y = as_vector(y0, prob.dim_y, "y0").copy()
            z = as_vector(z0, prob.dim_y, "z0").copy()
            if not (math.isfinite(sigma) and sigma > 0):
                raise ConfigError(f"inner descent needs sigma > 0, got {sigma}")
            if cfg.batch > 0 and oracle is None:
                raise ConfigError("cfg.batch > 0 requires a stochastic oracle")
            radius = cfg.divergence_radius
            if radius is None:
                radius = 1e6 * (1.0 + max(_norm(y), _norm(z)))
            return inner_descend(prob, x, y, z, sigma,
                                 _prepare_phase(prob, sigma, cfg, oracle, radius), oracle)
    (K, batch, calls, radius, tau, sig, grad_f, grad_g, draw, small, t, s, r_pass,
     shape, coords, pack, last) = cfg
    y, z, inf = y0, z0, math.inf
    if small:
        # zl, yl: z and y as float lists, made when a step is computed;
        # passed: z and y passed the hypot test at r_pass; key: the
        # gradients' bytes at the last step, if it kept z and y.  Iterates
        # with the bytes of this prepared phase's last kept step carry both.
        zl, zy = None, last[1]
        passed = zy is not None and zy == (z.tobytes(), y.tobytes())
        key = last[0] if passed else None
    gy = None  # the last h_sigma-gradient, when a numpy step made it
    for k in range(K):
        if batch == 0:
            gz, fy, gg = grad_g(x, z), grad_f(x, y), grad_g(x, y)
        else:
            gz, fy, gg = (draw("g_y", x, z, batch), draw("f_y", x, y, batch),
                          draw("g_y", x, y, batch))
        if not (type(gz) is _ndarray and type(fy) is _ndarray and type(gg) is _ndarray
                and gz.dtype is _FLOAT64 and fy.dtype is _FLOAT64 and gg.dtype is _FLOAT64
                and gz.shape == shape and fy.shape == shape and gg.shape == shape):
            gz, fy, gg = (as_vector(v, shape[0], f"grad_y {what}") for v, what
                          in ((gz, "g at z"), (fy, "f at y"), (gg, "g at y")))
        if small:
            if key is not None and key == (gz.tobytes(), fy.tobytes(), gg.tobytes()):
                continue  # the kept step again: the same doubles, kept again
            if zl is None:
                zl, yl = z.tolist(), y.tolist()
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
                if keep:
                    key = (gz.tobytes(), fy.tobytes(), gg.tobytes())
                else:
                    z, y, key = np.array(zl), np.array(yl), None
                gy, passed = None, True
                continue
            zl, passed, key = None, False, None
        # _guard's fast test, inlined; _guard classifies what fails it.  The
        # same operations in the same order as y - tau * (sig * fy + gg),
        # written into the three arrays they allocate
        gy = sig * fy
        gy += gg
        z_new, y_new = tau * gz, tau * gy
        np.subtract(z, z_new, z_new)
        np.subtract(y, y_new, y_new)
        n_z, n_y = math.sqrt(z_new.dot(z_new)), math.sqrt(y_new.dot(y_new))
        z, y = z_new, y_new
        if not (n_z <= radius and n_y <= radius and n_z < inf and n_y < inf):
            _guard(z, "z", k, radius)
            _guard(y, "y", k, radius)

    if not K:
        ny = nz = math.nan
    elif gy is not None:
        ny, nz = _norm(gy), _norm(gz)
    else:  # a float step's gradients
        if key is None:  # the last step moved: nothing to carry
            key, zy = (gz.tobytes(), fy.tobytes(), gg.tobytes()), None
        elif key is not last[0]:  # else the carried step, kept throughout
            zy = (z.tobytes(), y.tobytes())
        if key != last[0]:  # the h_sigma-gradient in numpy, the same bits
            last[0], last[2] = key, (_norm(sig * fy + gg), _norm(gz))
        last[1] = zy
        ny, nz = last[2]
    return InnerResult(y, z, ny, nz, calls, K)


@np.errstate(**_DEFAULT_ERRSTATE)
def descend_single(
    grad_fn,
    y0,
    tau: float,
    tol: float,
    radius: Optional[float] = None,
    label: str = "descent",
    exact_steps: Optional[int] = None,
):
    """Plain gradient descent on a single smooth function of y.

    Stops when ||grad|| <= tol (or after exactly ``exact_steps`` steps when
    given).  Raises ConvergenceError if the tolerance is not met within
    ``_MAX_ITER`` steps and DivergenceError/NumericError on runaway or
    non-finite iterates.  Returns (y, final_grad_norm, steps).  A gradient
    that is not a float64 array of y's shape is converted by ``as_vector``.
    Runs in numpy's default error state.
    """
    radius = _check_radius(radius)
    if not (math.isfinite(tau) and tau > 0 and tol >= 0
            and (exact_steps is None or exact_steps >= 0)):
        raise ConfigError(f"{label} needs a finite tau > 0, tol >= 0 and exact_steps "
                          f">= 0 or None, got {tau}, {tol}, {exact_steps}")
    y = np.array(y0, dtype=float)  # a copy
    shape, last = y.shape, _MAX_ITER if exact_steps is None else exact_steps
    if radius is None:
        radius = 1e6 * (1.0 + _norm(y))
    for k in range(last + 1):  # the gradient at the last iterate too
        gv = grad_fn(y)
        if not (type(gv) is _ndarray and gv.dtype is _FLOAT64 and gv.shape == shape):
            gv = as_vector(gv, y.size, f"gradient in {label}")
        if k == last:
            break
        if exact_steps is None:
            n = _norm(gv)  # inf also when a finite gradient's norm overflows
            if not math.isfinite(n) and not np.isfinite(gv).all():
                raise NumericError(f"non-finite gradient in {label}", point=y.copy())
            if n <= tol:
                return y, n, k
        y = y - tau * gv
        _guard(y, label, k, radius)
    residual = _norm(gv)
    if exact_steps is not None:
        return y, residual, exact_steps
    raise ConvergenceError(
        f"{label} failed to reach tolerance {tol:g} within {_MAX_ITER} steps "
        f"(residual {residual:.3g})",
        residual=residual,
    )


def presolve(prob: BilevelProblem, x, sigma: float, y0, tol: float, label: str):
    """``descend_single`` on h_sigma(x, .), or on g(x, .) when sigma = 0, at
    the step 1 / (sigma L_f + L_g); returns its (y, final_grad_norm, steps)."""
    return descend_single(_h_grad(prob, x, sigma), y0,
                          1.0 / _h_lipschitz(prob.constants, sigma), tol, label=label)


def _h_min(prob: BilevelProblem, x, sigma: float, y0, label: str):
    """(argmin, min, accuracy) of h_sigma(x, .), or of g(x, .) when sigma = 0:
    ``_box_min`` of ``_h_rows`` and its grid spacing over a declared
    ``y_box``, otherwise ``presolve`` from y0 to ``_GSTAR_TOL`` and its final
    gradient norm."""
    if prob.meta is not None and prob.meta.y_box is not None:
        return _box_min(prob, _h_rows(prob, x, sigma))
    y, residual, _ = presolve(prob, x, sigma, y0, _GSTAR_TOL, label)
    return y, _h(prob, x, sigma)(y), residual


class DivergenceProbe(NamedTuple):
    diverged: bool
    steps: int
    final_norm: float
    radius: float


def probe_penalty_divergence(prob: BilevelProblem, x, sigma: float) -> DivergenceProbe:
    """Bounded-budget detector for unbounded-below penalties.

    Runs ``_PROBE_STEPS`` steps of gradient descent on h_sigma(x, .) from the
    problem's default start within a deliberately tight radius, the
    problem's ``meta.divergence_radius`` or else 10 (1 + ||y0||): a penalty
    that is unbounded below in a linear direction drifts out of it within
    the step budget, while benign instances stay put.  A non-finite iterate,
    or one whose norm overflows, counts as diverged with norm inf.  Returns
    the observation; callers decide whether to raise.
    """
    x = as_vector(x, prob.dim_x, "x")
    _, y0 = prob.default_start()
    c = prob.constants
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
                                 exact_steps=_PROBE_STEPS)
    except DivergenceError as exc:
        return DivergenceProbe(True, exc.step + 1, exc.norm, radius)
    except NumericError:
        return DivergenceProbe(True, calls, math.inf, radius)
    return DivergenceProbe(False, _PROBE_STEPS, _norm(y), radius)
