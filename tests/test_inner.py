import dataclasses
import math
import struct
import warnings
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InnerConfig,
    InnerResult,
    NumericError,
    StochasticOracle,
    descend_single,
    get_problem,
    inner_descend,
    probe_penalty_divergence,
)
from bipen.core import as_bilevel, as_vector
from bipen.inner import DivergenceProbe, _norm
from test_core import _RefOracle, _oracle_problem


def test_config_validation():
    with pytest.raises(ConfigError):
        InnerConfig(tau=0.0, K=3)
    with pytest.raises(ConfigError):
        InnerConfig(tau=0.1, K=-1)
    with pytest.raises(ConfigError):
        InnerConfig(tau=0.1, K=3, batch=-2)
    InnerConfig(tau=0.1, K=0)  # zero steps allowed: a no-op descent


@pytest.mark.parametrize("radius", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_divergence_radius_must_be_positive(radius):
    with pytest.raises(ConfigError, match="divergence radius"):
        InnerConfig(tau=0.1, K=3, divergence_radius=radius)
    with pytest.raises(ConfigError, match="divergence radius"):
        descend_single(lambda v: v, np.array([1.0]), 0.5, tol=1e-12, radius=radius)
    # a NaN radius made the probe call a runaway penalty benign
    with pytest.raises(ConfigError, match="divergence radius"):
        probe_penalty_divergence(get_problem("degenerate_penalty").problem, [1.0],
                                 0.05, radius=radius)


def test_runaway_inner_loop_needs_an_explicit_inf_to_go_unguarded(kernel):
    # tau = 5 multiplies z - x by -4 per step: |z| reaches ~5e23 in 40 steps.
    # A NaN radius used to let that through without a word; now only inf does.
    x, y0 = [0.1], [0.5, 0.0]
    with pytest.raises(DivergenceError):
        inner_descend(kernel.problem, x, y0, y0, 0.5, InnerConfig(tau=5.0, K=40))
    with np.errstate(over="ignore"):
        res = inner_descend(kernel.problem, x, y0, y0, 0.5,
                            InnerConfig(tau=5.0, K=40, divergence_radius=math.inf))
    assert res.steps == 40 and abs(res.z[0]) > 1e23
    y, _, steps = descend_single(lambda v: v - 2.0, np.array([10.0]), 1.0,
                                 tol=1e-14, radius=math.inf)
    assert y[0] == 2.0 and steps == 1


def test_zero_steps_returns_inputs_unchanged(kernel):
    y0, z0 = np.array([0.7, -0.3]), np.array([0.2, 0.9])
    res = inner_descend(kernel.problem, [0.1], y0, z0, 0.5, InnerConfig(tau=0.5, K=0))
    assert np.array_equal(res.y, y0) and np.array_equal(res.z, z0)
    assert res.oracle_calls == 0 and res.steps == 0
    assert np.isnan(res.grad_norm_y) and np.isnan(res.grad_norm_z)


def test_kernel_inner_iterates_follow_closed_form(kernel):
    # On the kernel instance both sequences are scalar linear recursions:
    #   z1 - x           contracts by (1 - tau)        per step,
    #   y1 - (x+s)/(1+s) contracts by (1 - tau (1+s))  per step,
    # and the second coordinates never move.
    x, s = 0.4, 0.5
    tau = 1.0 / (s * 1.0 + 1.0)
    y0, z0 = np.array([1.9, 0.7]), np.array([-0.8, -0.2])
    for K in (1, 3, 10):
        res = inner_descend(kernel.problem, [x], y0, z0, s, InnerConfig(tau=tau, K=K))
        z_exp = x + (1 - tau) ** K * (z0[0] - x)
        c = (x + s) / (1 + s)
        y_exp = c + (1 - tau * (1 + s)) ** K * (y0[0] - c)
        assert res.z[0] == pytest.approx(z_exp, abs=1e-13)
        assert res.y[0] == pytest.approx(y_exp, abs=1e-13)
        assert res.y[1] == y0[1] and res.z[1] == z0[1]
        assert res.steps == K and res.oracle_calls == 2 * K


def test_pl_contraction_envelope():
    # dist^2 after K exact steps at tau = 1/L_g obeys the PL envelope
    #   dist_K^2 <= (1 - mu/L_g)^K (L_g/mu) dist_0^2   (+ tiny slack),
    # on both the strongly convex and the nonconvex-PL lower level.
    for name in ("quadratic_sc", "sin_sq_pl"):
        suite = get_problem(name)
        prob = suite.problem
        c = prob.constants
        x = np.array([0.3])
        y0 = np.array([1.7, -0.9][: prob.dim_y])
        d0 = float(np.linalg.norm(y0 - suite.project_y_star(x, y0, 0.0)) ** 2)
        for K in (1, 5, 25):
            yK, _, _ = descend_single(lambda v: prob.grad_g_y(x, v), y0,
                                      1.0 / c.L_g, tol=0.0, exact_steps=K)
            dK = float(np.linalg.norm(yK - suite.project_y_star(x, yK, 0.0)) ** 2)
            bound = (1 - c.mu / c.L_g) ** K * (c.L_g / c.mu) * d0
            assert dK <= bound + 1e-12, (name, K)


def test_oracle_call_accounting_with_batches():
    s = get_problem("kernel_pl_noisy")
    oracle = StochasticOracle(s.problem, 0.1, 0.1, rng_seed=0)
    res = inner_descend(s.problem, [0.1], [0.5, 0.0], [0.5, 0.0], 0.2,
                        InnerConfig(tau=0.5, K=4, batch=3), oracle=oracle)
    assert res.oracle_calls == 2 * 4 * 3
    assert oracle.counter == 4 * 3 * 3  # three raw draws per step, batch 3


def test_batch_requires_oracle(kernel):
    with pytest.raises(ConfigError):
        inner_descend(kernel.problem, [0.1], [0.5, 0.0], [0.5, 0.0], 0.2,
                      InnerConfig(tau=0.5, K=2, batch=2))


def test_descend_single_exact_quadratic():
    # (y-2)^2/2 with tau = 1/curvature lands on the minimizer in one step
    y, gnorm, steps = descend_single(lambda v: v - 2.0, np.array([10.0]),
                                     1.0, tol=1e-14)
    assert y[0] == 2.0 and gnorm == 0.0 and steps == 1


def test_descend_single_convergence_error_carries_residual():
    with pytest.raises(ConvergenceError) as err:
        descend_single(lambda v: v, np.array([1.0]), 1e-3, tol=1e-12, max_iter=5)
    assert err.value.residual is not None and err.value.residual > 0


def test_descend_single_divergence_and_nan_guards():
    with pytest.raises(DivergenceError) as err:
        descend_single(lambda v: -v, np.array([1.0]), 1.0, tol=1e-12,
                       max_iter=10_000, radius=100.0, label="runaway")
    assert err.value.norm > 100.0 and err.value.step is not None
    with pytest.raises(NumericError):
        descend_single(lambda v: np.array([np.nan]), np.array([1.0]), 1.0,
                       tol=1e-12, max_iter=10)


def test_inner_divergence_guard_names_the_sequence():
    s = get_problem("degenerate_penalty")
    with pytest.raises(DivergenceError) as err:
        inner_descend(s.problem, [1.0], [0.0, 1.0], [0.0, 1.0], 0.1,
                      InnerConfig(tau=0.9, K=100_000, divergence_radius=3.0))
    assert err.value.sequence == "y"  # only the penalty sequence drifts


def test_divergence_probe_detects_runaway_and_spares_benign():
    s = get_problem("degenerate_penalty")
    probe = probe_penalty_divergence(s.problem, [1.0], 0.05)
    assert probe.diverged and probe.steps <= 1000
    k = get_problem("kernel_pl")
    probe = probe_penalty_divergence(k.problem, [0.5], 0.5)
    assert not probe.diverged


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(0.0, 2.0),
    z0=st.floats(-5.0, 5.0),
    sigma=st.floats(0.01, 1.0),
    K=st.integers(1, 12),
)
def test_lower_level_gap_never_expands(x, z0, sigma, K):
    # property: at tau = 1/(sigma L_f + L_g) <= 1/L_g the distance of the
    # lower-level sequence to its solution set is non-increasing
    prob = get_problem("kernel_pl").problem
    tau = 1.0 / (sigma * 1.0 + 1.0)
    res = inner_descend(prob, [x], [z0, 0.0], [z0, 0.0], sigma,
                        InnerConfig(tau=tau, K=K))
    assert abs(res.z[0] - x) <= abs(z0 - x) + 1e-12


# ---------------------------------------------------------------------------
# reference loop: the inner loop as it stood before its norms became lazy and
# its guard a single dot product, kept verbatim but for the early-exit and
# path-recording options the package no longer has; the package's loop must
# match it bit for bit, failures included.


def _ref_norm(v) -> float:
    return float(np.linalg.norm(v))


def _ref_guard(vec, which: str, step: int, radius: float):
    if not np.all(np.isfinite(vec)):
        raise NumericError(
            f"non-finite {which}-iterate at inner step {step}", point=np.array(vec)
        )
    n = _ref_norm(vec)
    if n > radius:
        raise DivergenceError(
            f"{which}-sequence left the divergence radius {radius:g} "
            f"at inner step {step} (norm {n:.3g})",
            step=step, norm=n, sequence=which,
        )


def _ref_inner_descend(
    problem,
    x,
    y0,
    z0,
    sigma: float,
    cfg: InnerConfig,
    oracle: Optional[StochasticOracle] = None,
) -> InnerResult:
    prob = as_bilevel(problem)
    x = as_vector(x, prob.dim_x, "x")
    y = as_vector(y0, prob.dim_y, "y0").copy()
    z = as_vector(z0, prob.dim_y, "z0").copy()
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"inner descent needs sigma > 0, got {sigma}")
    if cfg.batch > 0 and oracle is None:
        raise ConfigError("cfg.batch > 0 requires a stochastic oracle")

    radius = cfg.divergence_radius
    if radius is None:
        radius = 1e6 * (1.0 + max(_ref_norm(y), _ref_norm(z)))

    if cfg.batch == 0:
        def grad_g(v):
            return prob.grad_g_y(x, v)

        def grad_h(v):
            return sigma * prob.grad_f_y(x, v) + prob.grad_g_y(x, v)
    else:
        def grad_g(v):
            return oracle.draw("g_y", x, v, cfg.batch)

        def grad_h(v):
            return (sigma * oracle.draw("f_y", x, v, cfg.batch)
                    + oracle.draw("g_y", x, v, cfg.batch))

    batch_eff = max(cfg.batch, 1)
    steps = 0
    calls = 0  # fused units: one h_sigma-gradient + one g-gradient per step
    ny = nz = float("nan")
    for k in range(cfg.K):
        gz = grad_g(z)
        gy = grad_h(y)
        calls += 2 * batch_eff
        ny, nz = _ref_norm(gy), _ref_norm(gz)
        z = z - cfg.tau * gz
        y = y - cfg.tau * gy
        _ref_guard(z, "z", k, radius)
        _ref_guard(y, "y", k, radius)
        steps += 1

    return InnerResult(y, z, ny, nz, calls, steps)


def _bits(v):
    if isinstance(v, float):
        return struct.pack("<d", v)
    return np.asarray(v).dtype.str, np.asarray(v).tobytes()


# a gradient oracle as declared, or cut to a shape that only broadcasts
# against y: its first entry as a length-1 array
_SHAPES = {
    "declared": lambda grad: grad,
    "length 1": lambda grad: lambda x, y: grad(x, y)[:1],
}


def _outcome(fn, name, seed, args, cfg, part, shape):
    # the oracle exists even when batch = 0 and goes unused, as in a run
    prob = get_problem(name).problem
    prob = dataclasses.replace(prob, **{part: _SHAPES[shape](getattr(prob, part))})
    oracle = StochasticOracle(prob, 0.1, 0.1, rng_seed=seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            res = fn(prob, *args, cfg, oracle)
    except (NumericError, DivergenceError) as exc:
        point = None if getattr(exc, "point", None) is None else _bits(exc.point)
        return ("raised", type(exc), str(exc), getattr(exc, "step", None),
                _bits(float(exc.norm)) if getattr(exc, "norm", None) is not None
                else None, getattr(exc, "sequence", None), point, oracle.counter)
    return ("returned", _bits(res.y), _bits(res.z), _bits(res.grad_norm_y),
            _bits(res.grad_norm_z), res.oracle_calls, res.steps, oracle.counter)


_INNER_PROBLEMS = {"kernel_pl": (1, 2), "quadratic_sc": (1, 2), "sin_sq_pl": (1, 1)}


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(_INNER_PROBLEMS)),
    coords=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
    sigma=st.floats(0.01, 1.0),
    tau=st.one_of(st.floats(1e-3, 25.0), st.sampled_from([1e3, 1e160, 1e300])),
    K=st.integers(0, 12),
    batch=st.sampled_from([0, 0, 1, 3]),
    radius=st.one_of(st.none(), st.floats(0.1, 50.0), st.just(math.inf)),
    seed=st.integers(0, 3),
    part=st.sampled_from(["grad_f_y", "grad_g_y"]),
    shape=st.sampled_from(["declared", "length 1"]),
)
def test_inner_descend_matches_the_reference_loop_bitwise(
        name, coords, sigma, tau, K, batch, radius, seed, part, shape):
    dim_x, dim_y = _INNER_PROBLEMS[name]
    x = np.array(coords[:dim_x])
    y0 = np.array(coords[1:1 + dim_y])
    z0 = np.array(coords[3:3 + dim_y])
    cfg = InnerConfig(tau=tau, K=K, batch=batch, divergence_radius=radius)
    args = (x, y0, z0, sigma)
    want = _outcome(_ref_inner_descend, name, seed, args, cfg, part, shape)
    got = _outcome(inner_descend, name, seed, args, cfg, part, shape)
    assert got == want


# Announced phases: inner_descend announces each phase's draws, and the oracle
# reduces their noise at once.  A run must leave what the reference loop on
# the per-call reference oracle leaves: the result or the error, the counter
# and the draws that follow.

_NOISE_LEVELS = [(0.3, 0.7), (0.3, 0.0), (0.0, 0.7)]


def _phase_run(descend, oracle_cls, prob, stds, seed, lead, phases, tail):
    """``lead`` draws, then each phase (x, y0, z0, sigma, cfg), then the
    estimator's three draws at ``tail``; what each leaves, bitwise."""
    oracle = oracle_cls(prob, *stds, rng_seed=seed)
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        for which, batch, x, y in lead:
            seen.append(_bits(oracle.draw(which, x, y, batch)))
        for x, y0, z0, sigma, cfg in phases:
            try:
                res = descend(prob, x, y0, z0, sigma, cfg, oracle)
            except (NumericError, DivergenceError) as exc:
                seen.append(("raised", type(exc), str(exc), oracle.counter))
            else:
                seen.append(("returned", _bits(res.y), _bits(res.z),
                             _bits(res.grad_norm_y), _bits(res.grad_norm_z),
                             res.oracle_calls, res.steps, oracle.counter))
        x, y, batch = tail
        for which in ("f_x", "g_x", "g_x"):
            seen.append(_bits(oracle.draw(which, x, y, batch)))
    seen.append(oracle.counter)
    return seen


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_INNER_PROBLEMS)),
    stds=st.sampled_from(_NOISE_LEVELS),
    coords=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
    sigma=st.floats(0.01, 1.0),
    Ks=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    batch=st.sampled_from([1, 3, 700]),
    lead=st.integers(0, 2000),
    seed=st.integers(0, 3),
)
def test_announced_inner_phases_match_the_per_call_reference(
        name, stds, coords, sigma, Ks, batch, lead, seed):
    # batch 700 asks 1,400-4,200 normals per step, so phases cross refills of
    # the 4096-normal block; the lead draw starts them inside one
    dim_x, dim_y = _INNER_PROBLEMS[name]
    prob = get_problem(name).problem
    x = np.array(coords[:dim_x])
    y0, z0 = np.array(coords[1:1 + dim_y]), np.array(coords[3:3 + dim_y])
    phases = [(x, y0, z0, sigma, InnerConfig(tau=0.5, K=K, batch=batch)) for K in Ks]
    args = (prob, stds, seed, [("f_x", lead, x, y0)] if lead else [], phases,
            (x, y0, batch))
    assert (_phase_run(inner_descend, StochasticOracle, *args)
            == _phase_run(_ref_inner_descend, _RefOracle, *args))


@pytest.mark.parametrize("stds", _NOISE_LEVELS)
@pytest.mark.parametrize("batch", [1, 700])
def test_a_nan_gradient_mid_phase_leaves_the_counter_and_later_draws(stds, batch):
    # f_y is NaN once y_1 > 4: y_1 climbs from 3.0 towards ~4.4, so an f_y
    # draw raises in the middle of a six-step phase; a second phase and the
    # estimator's draws follow
    prob = _oracle_problem()
    x = np.array([4.5, 0.0, 0.1])
    phases = [(x, np.array([3.0, 1.0]), np.array([0.0, 0.0]), 0.01,
               InnerConfig(tau=0.5, K=6, batch=batch, divergence_radius=math.inf)),
              (np.zeros(3), np.array([0.5, 0.5]), np.array([0.1, 0.1]), 0.01,
               InnerConfig(tau=0.5, K=3, batch=batch))]
    args = (prob, stds, 2, [], phases, (np.zeros(3), np.array([0.5, 0.5]), batch))
    got = _phase_run(inner_descend, StochasticOracle, *args)
    assert got[0][:3] == ("raised", NumericError, "non-finite grad f_y encountered")
    noisy_per_step = (stds[0] > 0) + 2 * (stds[1] > 0)
    assert 0 < got[0][3] < 6 * noisy_per_step * batch
    assert got == _phase_run(_ref_inner_descend, _RefOracle, *args)


# reference probe: the divergence probe's own descent loop as it stood before
# the probe became a wrapper around descend_single, kept verbatim; the wrapper
# must give the same observation, bit for bit.


def _ref_probe(problem, x, sigma, max_steps=1000, radius=None, y0=None):
    prob = as_bilevel(problem)
    x = as_vector(x, prob.dim_x, "x")
    if y0 is None:
        _, y0 = prob.default_start()
    y = as_vector(y0, prob.dim_y, "y0").copy()
    c = prob.constants
    if radius is None:
        meta = prob.meta
        radius = getattr(meta, "divergence_radius", None) if meta else None
    if radius is None:
        radius = 10.0 * (1.0 + _norm(y))
    tau = 1.0 / (sigma * c.L_f + c.L_g)
    for k in range(max_steps):
        gv = sigma * prob.grad_f_y(x, y) + prob.grad_g_y(x, y)
        y = y - tau * np.asarray(gv)
        n = _norm(y)
        if not np.isfinite(n):
            return DivergenceProbe(True, k + 1, float("inf"), radius)
        if n > radius:
            return DivergenceProbe(True, k + 1, n, radius)
    return DivergenceProbe(False, max_steps, _norm(y), radius)


def _probe_bits(fn, *args, **kwargs):
    with np.errstate(over="ignore", invalid="ignore"):
        p = fn(*args, **kwargs)
    return p.diverged, p.steps, _bits(float(p.final_norm)), _bits(float(p.radius))


@pytest.mark.parametrize("name", ["degenerate_penalty", "kernel_pl", "quadratic_sc",
                                  "sin_sq_pl"])
def test_divergence_probe_matches_the_reference_loop_bitwise(name):
    prob = get_problem(name).problem
    lo, hi = prob.meta.x_window
    for x in (lo, 0.5 * (lo + hi), hi, prob.meta.x0[0]):
        for sigma in (0.01, 0.05, 0.3, 1.0):
            for radius in (None, 0.5, 4.0, 1e3, math.inf):
                for max_steps in (1, 10, 1000):
                    args = (prob, [x], sigma, max_steps, radius)
                    want = _probe_bits(_ref_probe, *args)
                    assert _probe_bits(probe_penalty_divergence, *args) == want, \
                        (x, sigma, radius, max_steps)


@pytest.mark.parametrize("state", ["ignore", "raise"])
@pytest.mark.parametrize("grad_f_y, steps", [
    # y <- 3y: the norm overflows ~320 steps before any entry does, and an
    # infinite radius must not let such an iterate through
    (lambda x, y: -4.0 * y, 324),
    # a NaN gradient once |y| passes 10: a non-finite iterate
    (lambda x, y: np.where(np.abs(y) > 10.0, np.nan, -4.0 * y), 4),
])
def test_divergence_probe_counts_a_non_finite_norm_as_divergence(kernel, state,
                                                                 grad_f_y, steps):
    prob = dataclasses.replace(kernel.problem, grad_f_y=grad_f_y,
                               grad_g_y=lambda x, y: np.zeros(2))
    want = _probe_bits(_ref_probe, prob, [0.5], 1.0, radius=math.inf)
    assert want[:3] == (True, steps, _bits(math.inf))
    with np.errstate(over=state):
        got = probe_penalty_divergence(prob, [0.5], 1.0, radius=math.inf)
    assert (got.diverged, got.steps, _bits(got.final_norm), _bits(got.radius)) == want


@pytest.mark.parametrize("size", [1, 2, 800, 3200])
def test_norm_is_numpys_norm_bitwise(size):
    rng = np.random.default_rng(size)
    for scale in (1e-200, 1e-3, 1.0, 1e3, 1e150):
        v = scale * rng.standard_normal(size)
        assert _bits(_norm(v)) == _bits(float(np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# Norm overflow is classified the same under np.errstate(over="raise") as
# under numpy's default state: as an infinite norm, never as numpy's own
# FloatingPointError.


def _failure(fn, state):
    with np.errstate(over=state):
        try:
            fn()
        except (NumericError, DivergenceError) as exc:
            return (type(exc), str(exc), exc.step, exc.norm, exc.sequence)
    raise AssertionError("no failure raised")


@pytest.mark.parametrize("state", ["ignore", "raise"])
def test_descend_single_classifies_a_norm_overflow(state):
    # the gradient -1e160 is finite and its norm overflows: the step then
    # leaves the radius with norm inf
    def run():
        descend_single(lambda v: -v * 1e160, [1.0], 1.0, tol=1e-12, radius=1e300)

    got = _failure(run, state)
    assert got[0] is DivergenceError and got[3] == math.inf and got[4] == "descent"
    assert got == _failure(run, "ignore")


@pytest.mark.parametrize("sequence", ["z", "y"])
@pytest.mark.parametrize("state", ["ignore", "raise"])
def test_inner_guard_classifies_a_norm_overflow(kernel, sequence, state):
    # one sequence steps to ~1e160 per entry, whose squared norm overflows
    big, zero = (lambda x, v: np.ones(2)), (lambda x, v: np.zeros(2))
    grads = {"grad_g_y": big, "grad_f_y": zero} if sequence == "z" \
        else {"grad_g_y": zero, "grad_f_y": big}
    prob = dataclasses.replace(kernel.problem, **grads)

    def run():
        inner_descend(prob, [0.0], [0.0, 0.0], [0.0, 0.0], 1.0,
                      InnerConfig(tau=1e160, K=3, divergence_radius=50.0))

    got = _failure(run, state)
    assert got[:1] + got[2:] == (DivergenceError, 0, math.inf, sequence)
    assert got == _failure(run, "ignore")


# A step tau * grad that overflows is classified the same way: under
# over="raise" the step is recomputed as the default state computes it (inf)
# and the guard names the non-finite iterate, with the same message and point.


def _step_failure(fn, state):
    with np.errstate(over=state):
        try:
            fn()
        except NumericError as exc:
            return type(exc), str(exc), _bits(exc.point)
    raise AssertionError("no NumericError raised")


def _overflowing_step_runs(kernel):
    def big(v):  # tau = 1e300 times 1e10 overflows
        return np.full(1, 1e10)

    prob = dataclasses.replace(kernel.problem, grad_g_y=lambda x, v: np.full(2, 1e10))
    return {
        "inner_descend": lambda: inner_descend(
            prob, [0.0], [0.0, 0.0], [0.0, 0.0], 1.0,
            InnerConfig(tau=1e300, K=3, divergence_radius=50.0)),
        "descend_single": lambda: descend_single(big, [0.0], 1e300, tol=1e-12,
                                                 radius=50.0),
        "descend_single_exact": lambda: descend_single(
            big, [0.0], 1e300, tol=1e-12, radius=50.0, exact_steps=3),
    }


@pytest.mark.parametrize("site", ["inner_descend", "descend_single",
                                  "descend_single_exact"])
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_step_is_a_numeric_error_in_every_state(kernel, site, state):
    run = _overflowing_step_runs(kernel)[site]
    which = "z" if site == "inner_descend" else "descent"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = _step_failure(run, state)
    assert got[:2] == (NumericError, f"non-finite {which}-iterate at inner step 0")
    assert got == _step_failure(run, "ignore")


@pytest.mark.parametrize("batch", [0, 1])
@pytest.mark.parametrize("state", ["ignore", "raise"])
def test_an_overflowing_gradient_combination_is_a_numeric_error(kernel, state, batch):
    # sigma * grad_f = 1e310 overflows before the step is taken
    prob = dataclasses.replace(kernel.problem, grad_f_y=lambda x, v: np.full(2, 1e300))
    oracle = StochasticOracle(prob, 0.0, 0.0, rng_seed=0)

    def run():
        inner_descend(prob, [0.1], [0.5, 0.0], [0.5, 0.0], 1e10,
                      InnerConfig(tau=0.1, K=3, batch=batch, divergence_radius=50.0),
                      oracle)

    got = _step_failure(run, state)
    assert got[:2] == (NumericError, "non-finite y-iterate at inner step 0")
    assert got == _step_failure(run, "ignore")


# ---------------------------------------------------------------------------
# The hot path holds its scale factors as 0-d float64 arrays; numpy computes
# the same bits as with Python floats (and ints, for the batch divisor).

_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan])
_F64 = st.one_of(st.floats(), _SPECIAL)


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2, 50]), s=_F64, batch=st.integers(1, 10**6),
       data=st.data())
def test_zero_d_scale_factors_match_python_scalars_bitwise(dim, s, batch, data):
    v = np.array(data.draw(st.lists(_F64, min_size=dim, max_size=dim)))
    w = np.array(data.draw(st.lists(_F64, min_size=dim, max_size=dim)))
    s0 = np.array(s, dtype=float)
    with np.errstate(all="ignore"):
        assert (s0 * v).tobytes() == (s * v).tobytes()
        assert (w - s0 * v).tobytes() == (w - s * v).tobytes()
        assert (s0 * v + w).tobytes() == (s * v + w).tobytes()
        assert (v / s0).tobytes() == (v / s).tobytes()
        a, b = v.copy(), v.copy()
        a *= s0
        b *= s
        assert a.tobytes() == b.tobytes()
        a, b = v.copy(), v.copy()
        a /= np.array(float(batch))
        b /= batch
        assert a.tobytes() == b.tobytes()
