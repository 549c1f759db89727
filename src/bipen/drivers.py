"""Outer drivers: analysis-driven schedules and the two penalty methods.

``run_f2ba`` is the deterministic fully first-order method: per outer step it
warm-starts two inner descent sequences (on h_sigma and on g), forms the
hypergradient estimate

    grad_est = grad_x f(x, yK) + (grad_x g(x, yK) - grad_x g(x, zK)) / sigma,

and takes a gradient step in x.  ``run_f2bsa`` is its stochastic counterpart:
every gradient is a mini-batch average from an unbiased noisy oracle, and the
inner step count K_t adapts to a decaying proxy delta_t for the warm-start
distance.

``build_schedule`` resolves the worst-case parameter choices

    eta   ~ 1 / (ell kappa^3),
    sigma ~ min(R / kappa, eps / (ell kappa^3), L_g / L_f, rho_g / rho_f,
                sigma_bar),
    tau   = 1 / (sigma L_f + L_g),
    K     ~ (L_g / mu) log(L_g / (mu sigma)),
    T     = ceil(2 (Delta + delta0) / (eta eps^2)),
    B     ~ L_g (sigma^2 M_f^2 + M_g^2) / (mu sigma^2 eps^2),

with explicit constant knobs c_* and per-field overrides, so every run is
replayable from its recorded plan.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    _DEFAULT_ERRSTATE,
    BilevelProblem,
    PenaltyObjective,
    ProblemConstants,
    StochasticOracle,
    _as_float,
    _check_seed,
    _h_lipschitz,
    _int_field,
    as_vector,
    hypergradient_estimate,
)
from .errors import ConfigError, DivergenceError, InputError, NumericError
from .inner import InnerConfig, _guard, _norm, _prepare_phase, inner_descend

_PLAN_OVERRIDE_KEYS = ("eta", "sigma", "tau", "K", "T", "B", "delta0")
_PLAN_CONSTANT_KEYS = ("c_eta", "c_sigma", "c_K", "c_B", "c_delta")


@dataclass(frozen=True)
class SchedulePlan:
    """Fully resolved parameters of one run (sufficient to replay it)."""

    epsilon: float
    eta: float
    sigma: float
    tau: float
    K: int
    T: int
    B: int  # 0 = full gradients (deterministic path)
    delta0: float
    Delta: float
    R: float
    constants: ProblemConstants
    c_eta: float
    c_sigma: float
    c_K: float
    c_B: float
    c_delta: float
    provenance: dict

    def __post_init__(self):
        for name in ("epsilon", "eta", "sigma", "tau"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ConfigError(f"plan field {name} must be finite and > 0, got {v}")
        if self.sigma > self.constants.sigma_bar:
            raise ConfigError(
                f"plan sigma={self.sigma} exceeds sigma_bar={self.constants.sigma_bar}"
            )
        for name in ("K", "T", "B"):
            _int_field(self, name, f"plan {name}")
        if self.K < 1:
            raise ConfigError(f"plan K must be >= 1, got {self.K}")
        if self.T < 0:
            raise ConfigError(f"plan T must be >= 0, got {self.T}")
        if self.B < 0:
            raise ConfigError(f"plan B must be >= 0 (0 = full gradients), got {self.B}")
        for name in ("delta0", "Delta", "R"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ConfigError(f"plan field {name} must be finite and >= 0, got {v}")

    def header_items(self) -> list[tuple[str, object]]:
        """Flat (key, value) pairs recorded in every trace header.

        Plan fields in declaration order, then the declared constants, then
        the provenance notes sorted by key.
        """
        items = [(f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name not in ("constants", "provenance")]
        items += [(f"constants.{f.name}", getattr(self.constants, f.name))
                  for f in fields(self.constants)]
        items += [(f"provenance.{k}", v) for k, v in sorted(self.provenance.items())]
        return items


def _count(name: str, formula, **inputs) -> int:
    """max(1, ceil(formula())), the plan's count ``name``; ConfigError naming it
    and its ``inputs`` where the formula divides by 0 or meets nan or inf."""
    try:
        return max(1, math.ceil(formula()))
    except (ZeroDivisionError, ValueError, OverflowError):
        given = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
        raise ConfigError(f"plan {name} is not computable from {given}: its formula "
                          "divides by 0 or meets nan or inf") from None


def build_schedule(
    constants: ProblemConstants,
    epsilon: float,
    Delta: float,
    R: float,
    overrides: Optional[dict] = None,
    provenance: Optional[dict] = None,
) -> SchedulePlan:
    """Resolve the worst-case schedule for a target accuracy ``epsilon``.

    ``Delta`` is the initial hyper-objective gap, ``R`` the squared initial
    distance of y0 to Y*(x0); both enter sigma and the outer budget T.
    ``overrides`` may replace any ratio constant ``c_*`` or any resolved
    field (eta, sigma, tau, K, T, B, delta0); unknown keys are rejected.
    Nonpositive candidates in the sigma minimum (R = 0, rho_f = 0) are
    skipped rather than letting them collapse sigma to zero.
    """
    epsilon, Delta, R = _as_float(epsilon, "epsilon"), _as_float(Delta, "Delta"), _as_float(R, "R")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    for name, v in (("Delta", Delta), ("R", R)):
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {v}")

    ov = dict(overrides or {})
    unknown = set(ov) - set(_PLAN_OVERRIDE_KEYS) - set(_PLAN_CONSTANT_KEYS)
    if unknown:
        raise ConfigError(f"unknown schedule override(s): {sorted(unknown)}; "
                          f"allowed: {_PLAN_OVERRIDE_KEYS + _PLAN_CONSTANT_KEYS}")
    cs = {k: _as_float(ov.pop(k, 1.0), k) for k in _PLAN_CONSTANT_KEYS}
    for k, v in cs.items():
        if not (np.isfinite(v) and v > 0):
            raise ConfigError(f"{k} must be finite and > 0, got {v}")

    c = constants
    ell, kap = c.ell, c.kappa

    if "sigma" in ov:
        sigma = _as_float(ov.pop("sigma"), "sigma")
    else:
        candidates = [cs["c_sigma"] * epsilon / (ell * kap ** 3), c.sigma_bar]
        if R > 0:
            candidates.append(cs["c_sigma"] * R / kap)
        if c.L_f > 0:
            candidates.append(c.L_g / c.L_f)
        if c.rho_f > 0:
            candidates.append(c.rho_g / c.rho_f)
        sigma = min(x for x in candidates if np.isfinite(x) and x > 0)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"sigma must be finite and > 0, got {sigma}")

    tau = _as_float(ov.pop("tau"), "tau") if "tau" in ov else 1.0 / _h_lipschitz(c, sigma)
    eta = _as_float(ov.pop("eta"), "eta") if "eta" in ov else cs["c_eta"] / (ell * kap ** 3)
    if "K" in ov:
        K = ov.pop("K")
    else:
        K = _count("K", lambda: cs["c_K"] * (c.L_g / c.mu)
                   * max(1.0, math.log(c.L_g / (c.mu * sigma))), sigma=sigma)
    delta0 = _as_float(ov.pop("delta0"), "delta0") if "delta0" in ov else cs["c_delta"] * R
    if "T" in ov:
        T = ov.pop("T")
    else:
        T = _count("T", lambda: 2.0 * (Delta + delta0) / (eta * epsilon ** 2),
                   eta=eta, epsilon=epsilon, Delta=Delta, delta0=delta0)
    if "B" in ov:
        B = ov.pop("B")
    elif not c.stochastic:
        B = 0
    else:
        B = _count("B", lambda: cs["c_B"] * c.L_g * (sigma ** 2 * c.M_f ** 2 + c.M_g ** 2)
                   / (c.mu * sigma ** 2 * epsilon ** 2), sigma=sigma, epsilon=epsilon)

    return SchedulePlan(
        epsilon=epsilon, eta=eta, sigma=sigma, tau=tau, K=K, T=T, B=B,
        delta0=delta0, Delta=Delta, R=R, constants=c,
        c_eta=cs["c_eta"], c_sigma=cs["c_sigma"], c_K=cs["c_K"],
        c_B=cs["c_B"], c_delta=cs["c_delta"],
        provenance=dict(provenance or {}),
    )


# ---------------------------------------------------------------------------
# traces


class TraceRow(NamedTuple):
    t: int
    grad_est_norm: float
    grad_true_norm: float  # nan when the problem has no analytic gradient
    phi_true: float        # nan when the problem has no analytic value
    K_t: int
    delta_t: float         # nan on the deterministic path
    resid_y: float
    resid_z: float
    oracle_calls: int      # cumulative fused first-order calls
    x: tuple
    wall_ms: Optional[float] = None


@dataclass
class IterateState:
    """Carried state of one outer iteration (exposed for replay checks)."""

    t: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    delta: float
    oracle_calls: int
    rng_counter: int


@dataclass
class RunTrace:
    problem_name: str
    algorithm: str
    plan: SchedulePlan
    seed: Optional[int]
    rows: list
    final_state: IterateState
    wall_seconds: float

    @property
    def total_oracle_calls(self) -> int:
        return self.rows[-1].oracle_calls if self.rows else 0

    def _min_row(self, attr):
        """(smallest finite value of ``attr``, its row's t), the first row on
        ties; (nan, None) when no row has a finite value.  One pass."""
        best, at = math.nan, None
        isfinite = math.isfinite
        for r in self.rows:
            v = getattr(r, attr)
            if isfinite(v) and (at is None or v < best):
                best, at = v, r.t
        return best, at

    @property
    def min_grad_est(self) -> float:
        return self._min_row("grad_est_norm")[0]

    @property
    def argmin_grad_est(self) -> Optional[int]:
        return self._min_row("grad_est_norm")[1]

    @property
    def mean_grad_true(self) -> float:
        """Mean analytic ||grad phi|| over the iterates, the norm a uniformly
        drawn output iterate is judged by; nan without analytic values."""
        if not self.rows:
            return math.nan
        return math.fsum(r.grad_true_norm for r in self.rows) / len(self.rows)

    @property
    def final_grad_est(self) -> float:
        return self.rows[-1].grad_est_norm if self.rows else math.nan

    def summary_line(self) -> str:
        seed = "-" if self.seed is None else self.seed
        mean = self.mean_grad_true
        analytic = "" if math.isnan(mean) else f"mean||grad_true||={mean:.4e}, "
        low, at = self._min_row("grad_est_norm")
        return (
            f"{self.problem_name} {self.algorithm} eps={self.plan.epsilon:g} "
            f"seed={seed}: min||grad_est||={low:.4e} "
            f"@t={at}, final={self.final_grad_est:.4e}, "
            f"{analytic}calls={self.total_oracle_calls}, wall={self.wall_seconds:.2f}s"
        )


def _analytic_columns(prob, x):
    gt = pt = math.nan
    if prob.analytic_grad_phi is not None:
        gt = _norm(np.asarray(prob.analytic_grad_phi(x), dtype=float))
    if prob.analytic_phi is not None:
        pt = float(prob.analytic_phi(x))
    return gt, pt


def _resolve_starts(prob, x0, y0):
    dx0, dy0 = prob.default_start()
    x = as_vector(x0 if x0 is not None else dx0, prob.dim_x, "x0")
    y = as_vector(y0 if y0 is not None else dy0, prob.dim_y, "y0")
    return x.copy(), y.copy()


def run_f2ba(prob: BilevelProblem, plan: SchedulePlan, x0=None, y0=None,
             timing: bool = False) -> RunTrace:
    """Deterministic penalty method for T outer iterations of K inner steps.

    Warm-starts carry across outer iterations (z0 = y0 at t = 0).  The trace
    has exactly T rows; cumulative oracle calls follow the fused convention
    2*K_t + 3 per outer iteration.  The plan's B is ignored: every gradient
    is exact and ``delta_t`` is recorded as nan.
    """
    return _run_penalty(prob, plan, x0, y0, None, timing)


def stochastic_inner_count(plan: SchedulePlan, delta: float) -> int:
    """K_t = c_K (L_g/mu) log(L_g^3 delta_t / (mu sigma^2 eps^2)), clamped >= 1."""
    c = plan.constants
    return _count("K_t", lambda: plan.c_K * (c.L_g / c.mu) * math.log(max(
        c.L_g ** 3 * delta / (c.mu * plan.sigma ** 2 * plan.epsilon ** 2), math.e)),
        sigma=plan.sigma, epsilon=plan.epsilon, delta_t=delta)


def run_f2bsa(prob: BilevelProblem, plan: SchedulePlan, x0=None, y0=None, seed: int = 0,
              timing: bool = False) -> RunTrace:
    """Stochastic penalty method with adaptive inner budgets.

    Every gradient (inner updates and the three estimator terms) is a
    batch-B average from the problem's noisy oracle.  The warm-start proxy
    follows

        delta_{t+1} = delta_t / 2 + 8 (L_g/mu)^2 ||x_{t+1} - x_t||^2
                      + c_delta sigma^2 eps^2 / L_g^2,

    starting from delta_0 = c_delta * R.  The adaptive budget exists to track
    warm-start error under gradient noise, so it is engaged only when B > 0;
    with B = 0 (full gradients) the planned K is used and the run reproduces
    the deterministic method exactly, bit for bit.  ``seed`` must be an int.
    """
    _check_seed(seed)
    return _run_penalty(prob, plan, x0, y0, seed, timing)


@np.errstate(**_DEFAULT_ERRSTATE)
def _run_penalty(prob: BilevelProblem, plan: SchedulePlan, x0, y0, seed: Optional[int],
                 timing: bool) -> RunTrace:
    """The outer loop of both methods; ``seed`` None is the deterministic one.
    It runs in numpy's default error state, whatever state the caller set.

    One divergence radius, 1e6 (1 + the largest start norm), bounds x and both
    inner sequences for the whole run; a non-finite or runaway iterate raises
    NumericError or DivergenceError with the outer step in its message.

    A step that leaves x's bytes unchanged keeps the x object, and rows of
    one x object share its analytic columns and its tuple: a converged run
    repeats x for most of its worst-case budget.  Every x the loop holds has
    passed the guard once, x0 before outer step 0.  The inner phase is
    prepared once per run and K_t; an estimate with the bytes of the last
    one reuses its norm and, from the x that the last step kept, the kept x:
    the same bits from the same inputs.
    """
    pen = PenaltyObjective(prob, plan.sigma)  # validates sigma and refusals
    c = prob.constants
    x, y = _resolve_starts(prob, x0, y0)
    z = y.copy()
    # x0 is guarded here, within any radius it yields: a NaN x0 would make the
    # radius NaN; each later x is guarded when it changes
    _guard(x, "x", 0, math.inf, "outer")
    radius = 1e6 * (1.0 + max(_norm(x), _norm(y)))
    oracle = None if seed is None else StochasticOracle(prob, c.M_f, c.M_g, rng_seed=seed)
    B = 0 if oracle is None else plan.B
    if B > 0 and not c.stochastic:
        raise ConfigError("plan requests mini-batches but the problem declares "
                          "M_f = M_g = 0; use B = 0 for full gradients")
    cfgs = {}  # one prepared inner phase per distinct K_t
    eta = np.array(plan.eta, dtype=float)  # 0-d: cheaper than a float per step

    rows, calls = [], 0
    x_row = None  # the x object of the last row
    est_bytes = x_kept = None  # the last float64 estimate's bytes; x if it kept x
    delta = math.nan if oracle is None else plan.delta0
    # the delta recursion's constant factors, evaluated as its left-to-right
    # expression would evaluate them, so with the same bits
    drift = 8.0 * (c.L_g / c.mu) ** 2
    floor = plan.c_delta * plan.sigma ** 2 * plan.epsilon ** 2 / c.L_g ** 2
    t_start = time.perf_counter()
    for t in range(plan.T):
        t0 = time.perf_counter() if timing else None
        k_t = stochastic_inner_count(plan, delta) if B > 0 else plan.K
        phase = cfgs.get(k_t)
        if phase is None:
            cfg = InnerConfig(tau=plan.tau, K=k_t, batch=B, divergence_radius=radius)
            phase = cfgs[k_t] = _prepare_phase(prob, plan.sigma, cfg, oracle, radius)
        try:
            res = inner_descend(prob, x, y, z, plan.sigma, phase, oracle)
            est = hypergradient_estimate(pen, x, res.y, res.z, oracle, B)
        except (DivergenceError, NumericError) as exc:
            exc.args = (f"outer step {t}: {exc}",)
            raise
        y, z = res.y, res.z
        calls += res.oracle_calls + 3 * max(B, 1)
        if x is not x_row:  # rows of one x share its columns and tuple
            x_row, (gt, pt), x_tuple = x, _analytic_columns(prob, x), tuple(x)
        b = est.tobytes()  # a float64 vector of x's shape, by the oracle contract
        repeat = b == est_bytes
        if not repeat:
            est_bytes, est_norm = b, _norm(est)
        wall = (time.perf_counter() - t0) * 1e3 if timing else None
        rows.append(TraceRow(t, est_norm, gt, pt, res.steps, delta, res.grad_norm_y,
                             res.grad_norm_z, calls, x_tuple, wall))
        if repeat and x is x_kept:  # x - eta * est has x's bytes again
            x_new = x
        else:
            x_new = x - eta * est
            if x_new.tobytes() == x.tobytes():  # a fixed point: keep x, guarded already
                x_new = x_kept = x
            else:
                x_kept = None
                _guard(x_new, "x", t, radius, "outer")  # before its square feeds delta
        if oracle is not None:
            d = x_new - x  # np.sum(d ** 2)'s squares and reduction, minus its wrapper
            step_sq = float(np.add.reduce(d * d))
            delta = 0.5 * delta + drift * step_sq + floor
        x = x_new
    wall_s = time.perf_counter() - t_start
    state = IterateState(t=plan.T, x=x, y=y, z=z, delta=delta, oracle_calls=calls,
                         rng_counter=0 if oracle is None else oracle.counter)
    return RunTrace(problem_name=type(prob).__name__,
                    algorithm="f2ba" if oracle is None else "f2bsa",
                    plan=plan, seed=seed, rows=rows, final_state=state,
                    wall_seconds=wall_s)


def fit_complexity_slope(points) -> float:
    """Least-squares slope of log(total calls) against log(1/epsilon).

    ``points`` is an iterable of (epsilon, total_oracle_calls) pairs; at
    least three are required, at two or more distinct epsilons (spanning a
    decade or more of epsilon gives a meaningful exponent).
    """
    pts = [(float(e), float(n)) for e, n in points]
    if len(pts) < 3:
        raise InputError(f"need at least 3 (epsilon, calls) points, got {len(pts)}")
    if len({e for e, _ in pts}) < 2:
        raise InputError(f"need at least 2 distinct epsilons, got {pts[0][0]:g} only")
    for e, n in pts:
        if not (e > 0 and n > 0):
            raise InputError(f"epsilon and call counts must be positive, got {(e, n)}")
    xs = np.log([1.0 / e for e, _ in pts])
    ys = np.log([n for _, n in pts])
    return float(np.polyfit(xs, ys, 1)[0])
