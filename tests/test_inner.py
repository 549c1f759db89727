import collections
import contextlib
import dataclasses
import math
import struct
import warnings
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bipen import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InnerConfig,
    InnerResult,
    InputError,
    NumericError,
    StochasticOracle,
    build_schedule,
    descend_single,
    get_problem,
    inner_descend,
    probe_penalty_divergence,
    run_f2ba,
)
from bipen import core, inner
from bipen.core import BilevelProblem, ProblemConstants, as_vector
from bipen.inner import _FLOAT_STEP_DIM, DivergenceProbe, _norm, _prepare_phase
from test_core import _RefOracle, _oracle_problem


def test_config_validation():
    with pytest.raises(ConfigError):
        InnerConfig(tau=0.0, K=3)
    with pytest.raises(ConfigError):
        InnerConfig(tau=0.1, K=-1)
    with pytest.raises(ConfigError):
        InnerConfig(tau=0.1, K=3, batch=-2)
    InnerConfig(tau=0.1, K=0)  # zero steps allowed: a no-op descent


@pytest.mark.parametrize("field, value", [
    ("tau", "a"), ("tau", None), ("tau", [0.1]), ("tau", 10 ** 400),
    ("divergence_radius", "x"), ("divergence_radius", object())])
def test_config_refuses_a_value_that_float_cannot_take(field, value):
    # numpy's bare TypeError used to come out of np.isfinite, or out of >
    name = {"tau": "inner step size tau", "divergence_radius": "divergence radius"}[field]
    with pytest.raises(ConfigError, match=f"^{name} must be a number, got "):
        InnerConfig(**{"tau": 0.1, "K": 3, field: value})


def test_config_stores_its_numbers_as_floats():
    cfg = InnerConfig(tau=np.float64(0.5), K=3, divergence_radius=np.float32(2.0))
    assert type(cfg.tau) is float and type(cfg.divergence_radius) is float
    assert (cfg.tau, cfg.divergence_radius) == (0.5, 2.0)


_BAD_SINGLE = "descent needs a finite tau > 0, tol >= 0 and exact_steps >= 0 or None, got "


@pytest.mark.parametrize("kwargs, match", [
    ({"tau": math.nan}, _BAD_SINGLE + "nan, 1e-12, None"),
    ({"tau": math.inf}, _BAD_SINGLE + "inf, 1e-12, None"),
    ({"tau": 0.0}, _BAD_SINGLE + "0.0, 1e-12, None"),
    ({"tau": -1.0}, _BAD_SINGLE + "-1.0, 1e-12, None"),
    ({"tol": math.nan}, _BAD_SINGLE + "0.5, nan, None"),
    ({"tol": -1e-12}, _BAD_SINGLE + "0.5, -1e-12, None"),
    ({"exact_steps": -1}, _BAD_SINGLE + "0.5, 1e-12, -1"),
])
def test_descend_single_refuses_bad_arguments_up_front(kwargs, match):
    # tol = nan used to run all 500,000 steps and raise a ConvergenceError,
    # and exact_steps = -1 to return a step count of -1; each is refused
    # before any gradient is taken
    calls = []

    def grad(v):
        calls.append(v)
        return v

    args = {"tau": 0.5, "tol": 1e-12, **kwargs}
    with pytest.raises(ConfigError, match=f"^{match}$"):
        descend_single(grad, np.array([1.0]), args.pop("tau"), args.pop("tol"), **args)
    assert not calls


def _with_radius(prob, radius):
    """``prob`` whose meta declares the divergence radius ``radius``."""
    return dataclasses.replace(prob, meta=dataclasses.replace(prob.meta,
                                                              divergence_radius=radius))


@pytest.mark.parametrize("radius", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_divergence_radius_must_be_positive(radius):
    with pytest.raises(ConfigError, match="divergence radius"):
        InnerConfig(tau=0.1, K=3, divergence_radius=radius)
    with pytest.raises(ConfigError, match="divergence radius"):
        descend_single(lambda v: v, np.array([1.0]), 0.5, tol=1e-12, radius=radius)
    # a NaN radius made the probe call a runaway penalty benign
    with pytest.raises(ConfigError, match="divergence radius"):
        probe_penalty_divergence(_with_radius(get_problem("degenerate_penalty").problem,
                                              radius), [1.0], 0.05)


def test_runaway_inner_loop_needs_an_explicit_inf_to_go_unguarded(kernel):
    # tau = 5 multiplies z - x by -4 per step: |z| reaches ~5e23 in 40 steps.
    # A NaN radius used to let that through without a word; now only inf does.
    x, y0 = [0.1], [0.5, 0.0]
    with pytest.raises(DivergenceError):
        inner_descend(kernel.problem, x, y0, y0, 0.5, InnerConfig(tau=5.0, K=40))
    with _quiet():
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


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
def test_inner_descent_refuses_a_sigma_that_is_not_positive(kernel, sigma):
    with pytest.raises(ConfigError, match=f"inner descent needs sigma > 0, got {sigma}"):
        inner_descend(kernel.problem, [0.1], [0.5, 0.0], [0.5, 0.0], sigma,
                      InnerConfig(tau=0.5, K=2))


def test_batch_requires_oracle(kernel):
    with pytest.raises(ConfigError):
        inner_descend(kernel.problem, [0.1], [0.5, 0.0], [0.5, 0.0], 0.2,
                      InnerConfig(tau=0.5, K=2, batch=2))


def test_descend_single_exact_quadratic():
    # (y-2)^2/2 with tau = 1/curvature lands on the minimizer in one step
    y, gnorm, steps = descend_single(lambda v: v - 2.0, np.array([10.0]),
                                     1.0, tol=1e-14)
    assert y[0] == 2.0 and gnorm == 0.0 and steps == 1


def test_descend_single_convergence_error_carries_residual(monkeypatch):
    monkeypatch.setattr(inner, "_MAX_ITER", 5)
    with pytest.raises(ConvergenceError, match="within 5 steps") as err:
        descend_single(lambda v: v, np.array([1.0]), 1e-3, tol=1e-12)
    assert err.value.residual is not None and err.value.residual > 0


def test_descend_single_divergence_and_nan_guards():
    with pytest.raises(DivergenceError) as err:
        descend_single(lambda v: -v, np.array([1.0]), 1.0, tol=1e-12,
                       radius=100.0, label="runaway")
    assert err.value.norm > 100.0 and err.value.step is not None
    with pytest.raises(NumericError):
        descend_single(lambda v: np.array([np.nan]), np.array([1.0]), 1.0,
                       tol=1e-12)


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
# path-recording options the package no longer has, and for the oracle
# contract: each gradient is as_vector's float64 vector of shape (dim_y,), a
# wrong shape refused with InputError, and tau and sigma are 0-d float64
# factors.  The package's loop must match it bit for bit, failures included.


@contextlib.contextmanager
def _quiet():
    """Overflow and invalid values without warnings: np.errstate for the
    reference loops, and a warnings filter for the package's loops, which run
    in numpy's default error state whatever state their caller set."""
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _ref_norm(v) -> float:
    return math.sqrt(v.dot(v))


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
    prob,
    x,
    y0,
    z0,
    sigma: float,
    cfg: InnerConfig,
    oracle: Optional[StochasticOracle] = None,
) -> InnerResult:
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
    tau, sigma = np.array(cfg.tau, dtype=float), np.array(sigma, dtype=float)

    if cfg.batch == 0:
        def grad_g(v):
            return prob.grad_g_y(x, v)

        def grad_f(v):
            return prob.grad_f_y(x, v)
    else:
        def grad_g(v):
            return oracle.draw("g_y", x, v, cfg.batch)

        def grad_f(v):
            return oracle.draw("f_y", x, v, cfg.batch)

    batch_eff = max(cfg.batch, 1)
    steps = 0
    calls = 0  # fused units: one h_sigma-gradient + one g-gradient per step
    ny = nz = float("nan")
    for k in range(cfg.K):
        gz, fy, gg = grad_g(z), grad_f(y), grad_g(y)
        gz, fy, gg = (as_vector(v, prob.dim_y, f"grad_y {what}")
                      for v, what in ((gz, "g at z"), (fy, "f at y"), (gg, "g at y")))
        gy = sigma * fy + gg
        calls += 2 * batch_eff
        ny, nz = _ref_norm(gy), _ref_norm(gz)
        z = z - tau * gz
        y = y - tau * gy
        _ref_guard(z, "z", k, radius)
        _ref_guard(y, "y", k, radius)
        steps += 1

    return InnerResult(y, z, ny, nz, calls, steps)


def _bits(v):
    if isinstance(v, float):
        return struct.pack("<d", v)
    return np.asarray(v).dtype.str, np.asarray(v).tobytes()


# a gradient oracle as declared, cut to a shape that only broadcasts against
# y (its first entry as a length-1 array), which the contract refuses, or
# returning float32, which it converts
_SHAPES = {
    "declared": lambda grad: grad,
    "length 1": lambda grad: lambda x, y: grad(x, y)[:1],
    "float32": lambda grad: lambda x, y: np.asarray(grad(x, y), dtype=np.float32),
}


def _quadratic(dim_y):
    """f = ||y - 1||^2 / 2 + x^2 / 2, g = sum_i a_i (y_i - x)^2 / 2 with a_i
    in [1, 2]: a lower level of any dimension, for the inner loop's choice
    between Python-float and numpy steps."""
    a = np.linspace(1.0, 2.0, dim_y)
    return BilevelProblem(
        dim_x=1, dim_y=dim_y,
        f=lambda x, y: 0.5 * float((y - 1.0).dot(y - 1.0)) + 0.5 * x[0] ** 2,
        grad_f_x=lambda x, y: x.copy(),
        grad_f_y=lambda x, y: y - 1.0,
        g=lambda x, y: 0.5 * float((a * (y - x[0])).dot(y - x[0])),
        grad_g_x=lambda x, y: np.array([-(a * (y - x[0])).sum()]),
        grad_g_y=lambda x, y: a * (y - x[0]),
        constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=2.0, rho_f=0.0, rho_g=0.0,
                                   mu=1.0, sigma_bar=1.0),
    )


# the suite's small problems, and quadratics on both sides of the dimension
# up to which inner steps run on Python floats
_INNER_PROBLEMS = {"kernel_pl": (1, 2), "quadratic_sc": (1, 2), "sin_sq_pl": (1, 1),
                   "float steps": (1, _FLOAT_STEP_DIM),
                   "numpy steps": (1, _FLOAT_STEP_DIM + 1)}


def _inner_problem(name):
    if name in ("float steps", "numpy steps"):
        return _quadratic(_INNER_PROBLEMS[name][1])
    return get_problem(name).problem


# x, y0 and z0 are read from one list of coordinates, as x = c[:dim_x],
# y0 = c[1:1 + dim_y] and z0 = c[3:3 + dim_y]
_COORDS = 3 + max(dim_y for _, dim_y in _INNER_PROBLEMS.values())


def _outcome(fn, name, seed, args, cfg, part, shape):
    # the oracle exists even when batch = 0 and goes unused, as in a run
    prob = _inner_problem(name)
    prob = dataclasses.replace(prob, **{part: _SHAPES[shape](getattr(prob, part))})
    oracle = StochasticOracle(prob, 0.1, 0.1, rng_seed=seed)
    try:
        with _quiet():
            res = fn(prob, *args, cfg, oracle)
    except (InputError, NumericError, DivergenceError) as exc:
        point = getattr(exc, "point", None)
        if isinstance(point, tuple):  # a draw's (x, y), as a float32 overflow gives
            point = tuple(map(_bits, point))
        elif point is not None:
            point = _bits(point)
        return ("raised", type(exc), str(exc), getattr(exc, "step", None),
                _bits(float(exc.norm)) if getattr(exc, "norm", None) is not None
                else None, getattr(exc, "sequence", None), point, oracle.counter)
    return ("returned", _bits(res.y), _bits(res.z), _bits(res.grad_norm_y),
            _bits(res.grad_norm_z), res.oracle_calls, res.steps, oracle.counter)


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(_INNER_PROBLEMS)),
    coords=st.lists(st.floats(-3.0, 3.0), min_size=_COORDS, max_size=_COORDS),
    sigma=st.floats(0.01, 1.0),
    tau=st.one_of(st.floats(1e-3, 25.0), st.sampled_from([1e3, 1e160, 1e300])),
    K=st.integers(0, 12),
    batch=st.sampled_from([0, 0, 1, 3]),
    radius=st.one_of(st.none(), st.floats(0.1, 50.0), st.just(math.inf)),
    seed=st.integers(0, 3),
    part=st.sampled_from(["grad_f_y", "grad_g_y"]),
    shape=st.sampled_from(["declared", "length 1", "float32"]),
)
# float32 oracles at coordinates whose float32 squares and norms are not
# exact, which the generated coordinates rarely give: the norm of a float32
# g-gradient, and a float32 f-gradient scaled by sigma in float64
@example(name="kernel_pl", coords=[0.3, 0.7, 0.2, 1.1, -0.4] + [0.0] * (_COORDS - 5),
         sigma=0.5, tau=0.3, K=3, batch=0, radius=None, seed=0, part="grad_g_y",
         shape="float32")
@example(name="kernel_pl", coords=[0.3, 0.7, 0.2, 1.1, -0.4] + [0.0] * (_COORDS - 5),
         sigma=0.3, tau=0.3, K=3, batch=0, radius=None, seed=0, part="grad_f_y",
         shape="float32")
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


# Fixed points: a float step that leaves both iterates unchanged, bit for
# bit, keeps the arrays it has.  From a fixed-point start every phase must
# still give the reference loop's bits, zero signs and errors.


def _signed_free_coordinate(prob):
    """kernel_pl with free-coordinate gradients 0.0 * y_2, which are -0.0 at
    y_2 = -0.0: a step turns -0.0 into 0.0, a change == does not see."""
    return dataclasses.replace(
        prob, grad_f_y=lambda x, y: np.array([y[0] - 1.0, 0.0 * y[1]]),
        grad_g_y=lambda x, y: np.array([y[0] - x[0], 0.0 * y[1]]))


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("free", [0.0, -0.0, 0.7])
@pytest.mark.parametrize("radius", [None, 0.5, 1.0000000001, math.inf])
def test_fixed_point_phases_match_the_reference_loop_bitwise(kernel, signed, free,
                                                             radius):
    # x = 1, y = z = (1, free) is a fixed point; at radius 1.0000000001 the
    # norm 1 fails the float step's hypot test and passes numpy's guard
    prob = _signed_free_coordinate(kernel.problem) if signed else kernel.problem
    start = np.array([1.0, free])
    cfg = InnerConfig(tau=0.5, K=4, divergence_radius=radius)
    outcomes = []
    for fn in (_ref_inner_descend, inner_descend):
        try:
            res = fn(prob, [1.0], start, start, 0.1, cfg)
        except DivergenceError as exc:
            outcomes.append(("raised", str(exc), exc.step, exc.sequence))
        else:
            assert res.y is not start and res.z is not start and res.y is not res.z
            outcomes.append(("returned", _bits(res.y), _bits(res.z),
                             _bits(res.grad_norm_y), _bits(res.grad_norm_z)))
    assert outcomes[0] == outcomes[1]
    if signed and radius != 0.5 and free != 0.7:  # -0.0 has turned into 0.0
        assert outcomes[1][1] == outcomes[1][2] == _bits(np.array([1.0, 0.0]))


def test_a_radius_below_a_fixed_point_start_raises_at_inner_step_0(kernel):
    # the start passed no guard in this phase: its first step is tested
    start = np.array([1.0, 0.0])
    with pytest.raises(DivergenceError, match="at inner step 0") as err:
        inner_descend(kernel.problem, [1.0], start, start, 0.1,
                      InnerConfig(tau=0.5, K=3, divergence_radius=0.5))
    assert err.value.step == 0 and err.value.sequence == "z"


# Repeats: a float step whose three gradients have the bytes of the last step
# that kept z and y is not computed again.  An oracle that changes at a point
# that has not moved -- in value, in the sign of a zero, or in its dtype with
# the same bytes -- must still give the reference loop's bits, errors and
# oracle calls.


def _switched(prob, part, n, late):
    """``prob`` whose ``part`` oracle returns ``late`` of its value after n
    calls, and a counter of its y-gradient calls."""
    counts = collections.Counter()

    def wrap(name, fn):
        def switched(x, y):
            counts[name] += 1
            v = fn(x, y)
            return late(v) if name == part and counts[name] > n else v
        return switched

    return dataclasses.replace(prob, **{name: wrap(name, getattr(prob, name))
                                        for name in ("grad_f_y", "grad_g_y")}), counts


_LATE = {
    "moved": lambda v: v + 2.0 ** -30,
    "zeros flipped": lambda v: -v,
    # 0.0s of the same 16 bytes, of a shape that the contract refuses
    "float32 bytes": lambda v: np.frombuffer(v.tobytes(), dtype=np.float32),
}


def _switched_outcome(fn, prob, counts, start, cfg):
    try:
        res = fn(prob, [1.0], start, start, 0.1, cfg)
    except InputError as exc:  # float32 bytes of the wrong shape
        return "raised", str(exc), dict(counts)
    assert dict(counts) == {"grad_f_y": cfg.K, "grad_g_y": 2 * cfg.K}
    return ("returned", _bits(res.y), _bits(res.z), _bits(res.grad_norm_y),
            _bits(res.grad_norm_z), res.oracle_calls, dict(counts))


@pytest.mark.parametrize("late", sorted(_LATE))
@pytest.mark.parametrize("part", ["grad_f_y", "grad_g_y"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("free", [0.0, -0.0])
def test_an_oracle_that_changes_at_a_kept_point_gets_no_stale_repeat(kernel, late, part,
                                                                    n, free):
    # x = 1, y = z = (1, free) is a fixed point whose gradients are 0.0, so
    # every step keeps z and y until the oracle changes, within K = 6 steps;
    # a g-gradient's flipped zero turns z's -0.0 into 0.0
    start = np.array([1.0, free])
    cfg = InnerConfig(tau=0.5, K=6)
    outcomes = [_switched_outcome(fn, *_switched(kernel.problem, part, n, _LATE[late]),
                                  start=start, cfg=cfg)
                for fn in (_ref_inner_descend, inner_descend)]
    assert outcomes[0] == outcomes[1]
    if late == "float32 bytes":  # four float32 entries where y has two
        assert outcomes[1][0] == "raised" and "got shape (4,)" in outcomes[1][1]
    elif late == "zeros flipped" and part == "grad_g_y" and free == -0.0:
        assert outcomes[1][2] == _bits(np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("part", ["grad_f_y", "grad_g_y"])
def test_float32_bytes_of_a_kept_dim_1_gradient_are_refused(part, n):
    # at dim_y = 1, 8 float32 zero bytes are a (2,) gradient, which used to
    # broadcast into (2,) iterates: the contract refuses it at once
    start = np.array([1.0])
    cfg = InnerConfig(tau=0.5, K=5)
    outcomes = [_switched_outcome(fn, *_switched(_quadratic(1), part, n,
                                                 _LATE["float32 bytes"]),
                                  start=start, cfg=cfg)
                for fn in (_ref_inner_descend, inner_descend)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == "raised" and "got shape (2,)" in outcomes[1][1]


def _scripted(start, default, script):
    """A problem of dim_y = len(start) whose g-gradient is ``script[i]`` at
    its i-th call and ``default`` otherwise, whatever the point, with f's
    y-gradient 0: its steps keep or move their iterate as the script says."""
    calls = [0]

    def grad_g_y(x, y):
        calls[0] += 1
        return np.array(script.get(calls[0] - 1, default))

    prob = _quadratic(len(start))
    return dataclasses.replace(prob, grad_f_y=lambda x, y: np.zeros(len(start)),
                               grad_g_y=grad_g_y)


@pytest.mark.parametrize("m", range(8))
@pytest.mark.parametrize("start, default, move, radius", [
    # g-gradients of 1e-20 keep 1.0; g-call m's 2.0 moves its iterate to 0.0,
    # where 1e-20 moves it again
    ([1.0], [1e-20], [2.0], None),
    # the move lands between the float step's hypot bound and the radius,
    # so a numpy step makes it, and 1e-50 then moves the first coordinate
    ([1e-30, 0.6], [1e-50, 0.0], [2e-30, -0.7999999999], 1.0000000001),
])
def test_a_step_that_moves_forgets_the_kept_gradients(m, start, default, move, radius):
    # after a move, gradients with the bytes of the last kept step are no
    # repeat: the step is computed at the new point
    cfg = InnerConfig(tau=0.5, K=4, divergence_radius=radius)
    outcomes = []
    for fn in (_ref_inner_descend, inner_descend):
        res = fn(_scripted(start, default, {m: move}), [1.0], np.array(start),
                 np.array(start), 0.1, cfg)
        outcomes.append((_bits(res.y), _bits(res.z), _bits(res.grad_norm_y),
                         _bits(res.grad_norm_z)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] != _bits(np.array(start)) or outcomes[1][1] != _bits(np.array(start))


# Carries: a prepared phase keeps its last kept step, and a later phase from
# iterates of that step's bytes starts from it, its hypot test passed.  Each
# phase must still give the reference loop's bits, errors and oracle calls.


def _phases(descend, prob, counts, cfgs, phases):
    """Each (x, y0, z0, i) of ``phases`` through ``cfgs[i]``: one prepared
    phase per config, as a run passes it, for ``inner_descend``, or the
    config itself for the reference loop.  A y0 of None continues from the
    last phase's y and z.  Per phase its bits, or its error, which ends the
    phases; each phase makes K f_y and 2K g_y calls."""
    if descend is inner_descend:
        cfgs = [_prepare_phase(prob, 0.1, c, None, c.divergence_radius) for c in cfgs]
    out, y, z = [], None, None
    for x, y0, z0, i in phases:
        if y0 is not None:
            y, z = np.array(y0), np.array(z0)
        before = collections.Counter(counts)
        try:
            res = descend(prob, np.array([x]), y, z, 0.1, cfgs[i])
        except (InputError, DivergenceError) as exc:  # float32 bytes; a radius
            out.append(("raised", type(exc).__name__, str(exc)))
            break  # as a run stops
        K = res.steps
        assert counts - before == {"grad_f_y": K, "grad_g_y": 2 * K}
        y, z = res.y, res.z
        out.append((_bits(y), _bits(z), _bits(res.grad_norm_y), _bits(res.grad_norm_z),
                    res.oracle_calls))
    return out


def _carried(prob, cfgs, phases, part="grad_f_y", n=math.inf, late=None):
    """``_phases`` through the package and the reference on fresh copies of
    ``prob``, whose ``part`` oracle turns ``late`` after n calls; both
    outcomes must match, and the package's is returned."""
    got, want = (_phases(fn, *_switched(prob, part, n, late), cfgs, phases)
                 for fn in (inner_descend, _ref_inner_descend))
    assert got == want
    return got


_K3 = InnerConfig(tau=0.5, K=3, divergence_radius=10.0)


@pytest.mark.parametrize("late", sorted(_LATE))
@pytest.mark.parametrize("part, n", [("grad_f_y", 3), ("grad_f_y", 6), ("grad_g_y", 6),
                                     ("grad_g_y", 7), ("grad_g_y", 12)])
@pytest.mark.parametrize("free", [0.0, -0.0])
def test_an_oracle_that_changes_at_a_later_phase_gets_no_stale_carry(kernel, late, part,
                                                                     n, free):
    # four chained K = 3 phases from kernel_pl's fixed point, each of which
    # keeps z and y until the oracle changes at the first step of phase 2 or
    # 3 (the z-call or the y-call of g)
    start = [1.0, free]
    got = _carried(kernel.problem, [_K3], [(1.0, start, start, 0)] + [(1.0, None, None, 0)] * 3,
                   part, n, _LATE[late])
    if late == "moved":
        assert got[-1][:2] != got[0][:2]


# y-gradients that ignore x: 1e-20 keeps an entry of 1.0 and moves an entry
# of 1e-20, whatever x is
_X_FREE = BilevelProblem(
    dim_x=1, dim_y=2, f=lambda x, y: 0.0, grad_f_x=lambda x, y: np.zeros(1),
    grad_f_y=lambda x, y: np.array([1e-20, 0.0]), g=lambda x, y: 0.0,
    grad_g_x=lambda x, y: np.zeros(1), grad_g_y=lambda x, y: np.array([1e-20, 0.0]),
    constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0, mu=1.0,
                               sigma_bar=1.0))


@pytest.mark.parametrize("xs", [[1.0, 2.0, -3.0, 1.0], [1.0, 1.0 + 2.0 ** -52, 0.5, 1.0]])
@pytest.mark.parametrize("name", ["x-free", "kernel_pl"])
def test_x_moving_between_phases_keeps_the_reference_bits(kernel, xs, name):
    # with gradients that ignore x, each phase repeats the kept step; on
    # kernel_pl a new x moves the iterates
    prob = _X_FREE if name == "x-free" else kernel.problem
    start = [1.0, 0.0]
    got = _carried(prob, [_K3], [(xs[0], start, start, 0)]
                   + [(x, None, None, 0) for x in xs[1:]])
    assert (len({g[:2] for g in got}) == 1) == (name == "x-free")


@pytest.mark.parametrize("flip", ["y", "z", "both"])
def test_a_kept_zero_whose_sign_flips_between_phases_is_not_carried(flip):
    # free-coordinate gradients of -0.0 keep 0.0 and move -0.0 to 0.0, a
    # change == does not see; the kept step's bytes repeat at -0.0
    prob = dataclasses.replace(_X_FREE, grad_f_y=lambda x, y: np.array([y[0] - 1.0, -0.0]),
                               grad_g_y=lambda x, y: np.array([y[0] - x[0], -0.0]))
    kept, flipped = [1.0, 0.0], [1.0, -0.0]
    y0 = flipped if flip != "z" else kept
    z0 = flipped if flip != "y" else kept
    got = _carried(prob, [_K3], [(1.0, kept, kept, 0), (1.0, y0, z0, 0)])
    assert got[1][:2] == got[0][:2]  # -0.0 moved to 0.0


@pytest.mark.parametrize("start", [[1.0, 0.0], [1.0, -0.0], [1.0, 0.7]])
def test_same_byte_copies_of_the_kept_iterates_keep_the_reference_bits(kernel, start):
    # new arrays of the kept bytes, then iterates of other bytes: a fixed
    # point that the hypot test refuses at radius 1.5, where numpy's guard
    # raises, and a point that moves under gradients of the kept bytes
    cfg = InnerConfig(tau=0.5, K=3, divergence_radius=1.5)
    got = _carried(kernel.problem, [cfg], [(1.0, start, start, 0), (1.0, start, start, 0),
                                           (1.0, [1.0, 1.2], [1.0, 1.2], 0)])
    assert got[0] == got[1] and got[2][0] == "raised"
    got = _carried(_X_FREE, [_K3], [(1.0, start, start, 0), (1.0, [1e-20, 0.0], start, 0)])
    assert got[1][0] != got[0][0]


def test_a_phase_that_ends_on_a_move_leaves_nothing_to_carry():
    # g-gradients of 1e-20 keep 1.0; in the second phase each g-gradient is
    # 2.0, which moves the iterates, and the third starts at 1.0 again with
    # gradients of the second phase's last bytes
    script = {i: [2.0] for i in range(6, 18)}
    got, want = (_phases(fn, *_switched(_scripted([1.0], [1e-20], script), "grad_f_y",
                                        math.inf, None), [_K3], [(1.0, [1.0], [1.0], 0)] * 3)
                 for fn in (inner_descend, _ref_inner_descend))
    assert got == want and got[2] == got[1] != got[0]


def test_a_new_prepared_phase_does_not_inherit_the_record(kernel):
    # a run prepares one phase per K_t: a second K whose radius is below
    # the kept fixed point's norm raises at its first step, and one of
    # another step size moves what the first keeps
    start = [1.0, 0.0]
    low = InnerConfig(tau=0.5, K=4, divergence_radius=0.5)
    got = _carried(kernel.problem, [_K3, low], [(1.0, start, start, 0), (1.0, None, None, 1)])
    assert got[1][0] == "raised" and "at inner step 0" in got[1][2]
    wide = InnerConfig(tau=2.0 ** 60, K=2, divergence_radius=10.0)
    got = _carried(_X_FREE, [_K3, wide], [(1.0, start, start, 0), (1.0, None, None, 1)])
    assert got[1][:2] != got[0][:2]


def test_a_public_call_with_a_plain_config_never_carries(kernel):
    # each call prepares its own phase, so a fixed point above a plain
    # config's radius raises at step 0 after a prepared phase kept it
    start = np.array([1.0, 0.0])
    phase = _prepare_phase(kernel.problem, 0.1, _K3, None, 10.0)
    inner_descend(kernel.problem, np.array([1.0]), start, start, 0.1, phase)
    for _ in range(2):
        with pytest.raises(DivergenceError, match="at inner step 0"):
            inner_descend(kernel.problem, [1.0], start, start, 0.1,
                          InnerConfig(tau=0.5, K=3, divergence_radius=0.5))
        res = inner_descend(kernel.problem, [1.0], start, start, 0.1, _K3)
        assert res.y is not start and res.z is not start


# Stochastic phases: a run must leave what the reference loop on the per-call
# reference oracle leaves: the result or the error, the counter and the
# draws that follow.

_NOISE_LEVELS = [(0.3, 0.7), (0.3, 0.0), (0.0, 0.7)]


def _phase_run(descend, oracle_cls, prob, stds, seed, lead, phases, tail):
    """``lead`` draws, then each phase (x, y0, z0, sigma, cfg), then the
    estimator's three draws at ``tail``; what each leaves, bitwise."""
    oracle = oracle_cls(prob, *stds, rng_seed=seed)
    seen = []
    with _quiet():
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
    coords=st.lists(st.floats(-3.0, 3.0), min_size=_COORDS, max_size=_COORDS),
    sigma=st.floats(0.01, 1.0),
    Ks=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    batch=st.sampled_from([1, 3, 700]),
    lead=st.integers(0, 5),
    seed=st.integers(0, 3),
    block=st.sampled_from([1, 3, 7, 4096]),
)
def test_stochastic_inner_phases_match_the_per_call_reference(
        name, stds, coords, sigma, Ks, batch, lead, seed, block):
    # blocks of 1-7 normals make phases cross refills, and up to 5 lead
    # draws start them at every offset inside a block
    dim_x, dim_y = _INNER_PROBLEMS[name]
    prob = _inner_problem(name)
    x = np.array(coords[:dim_x])
    y0, z0 = np.array(coords[1:1 + dim_y]), np.array(coords[3:3 + dim_y])
    phases = [(x, y0, z0, sigma, InnerConfig(tau=0.5, K=K, batch=batch)) for K in Ks]
    args = (prob, stds, seed, [("f_x", 2, x, y0)] * lead, phases, (x, y0, batch))
    with mock.patch.object(core, "_NOISE_BLOCK", block):
        got = _phase_run(inner_descend, StochasticOracle, *args)
    assert got == _phase_run(_ref_inner_descend, _RefOracle, *args)


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


def _ref_probe(prob, x, sigma, max_steps=1000, radius=None, y0=None):
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
    with _quiet():
        p = fn(*args, **kwargs)
    return p.diverged, p.steps, _bits(float(p.final_norm)), _bits(float(p.radius))


@pytest.mark.parametrize("name", ["degenerate_penalty", "kernel_pl", "quadratic_sc",
                                  "sin_sq_pl"])
def test_divergence_probe_matches_the_reference_loop_bitwise(name, monkeypatch):
    # the probe's radius is the meta's, so each radius is declared there, and
    # None leaves it to 10 (1 + ||y0||); the step budget is _PROBE_STEPS
    suite_prob = get_problem(name).problem
    lo, hi = suite_prob.meta.x_window
    for max_steps in (1, 10, 1000):
        monkeypatch.setattr(inner, "_PROBE_STEPS", max_steps)
        for radius in (None, 0.5, 4.0, 1e3, math.inf):
            prob = _with_radius(suite_prob, radius)
            for x in (lo, 0.5 * (lo + hi), hi, prob.meta.x0[0]):
                for sigma in (0.01, 0.05, 0.3, 1.0):
                    want = _probe_bits(_ref_probe, prob, [x], sigma, max_steps, radius)
                    assert _probe_bits(probe_penalty_divergence, prob, [x], sigma) == want, \
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
    # an infinite radius, declared by the meta, leaves only the overflow test
    prob = _with_radius(dataclasses.replace(kernel.problem, grad_f_y=grad_f_y,
                                            grad_g_y=lambda x, y: np.zeros(2)), math.inf)
    want = _probe_bits(_ref_probe, prob, [0.5], 1.0, radius=math.inf)
    assert want[:3] == (True, steps, _bits(math.inf))
    with warnings.catch_warnings(), np.errstate(over=state):
        warnings.simplefilter("ignore", RuntimeWarning)
        got = probe_penalty_divergence(prob, [0.5], 1.0)
    assert (got.diverged, got.steps, _bits(got.final_norm), _bits(got.radius)) == want


@pytest.mark.parametrize("size", [1, 2, 800, 3200])
def test_norm_is_numpys_norm_bitwise(size):
    rng = np.random.default_rng(size)
    for scale in (1e-200, 1e-3, 1.0, 1e3, 1e150):
        v = scale * rng.standard_normal(size)
        assert _bits(_norm(v)) == _bits(float(np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# The loops run in numpy's default error state whatever state the caller
# set: norm overflow is classified as under the default state, as an
# infinite norm, never as numpy's own FloatingPointError.


def _failure(fn, state):
    with warnings.catch_warnings(), np.errstate(over=state):
        warnings.simplefilter("ignore", RuntimeWarning)
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
    assert got == _failure(run, "warn")


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
    assert got == _failure(run, "warn")


def test_an_oracle_whose_own_arithmetic_overflows_gives_the_witness_in_every_state():
    # the oracle's a * (y - x) overflows at inner step 2; under over="raise"
    # numpy's bare FloatingPointError used to leave the loop
    a = np.linspace(1.0, 2.0, 3)
    prob = dataclasses.replace(_quadratic(3), grad_g_y=lambda x, y: a * (y - x[0]),
                               grad_f_y=lambda x, y: y - 1.0)
    x = np.array([-0.4097432270056438])
    y0 = np.array([-2.721809013297185, 1.7081473797527824, 2.4630432325381877])
    z0 = np.array([-0.4437387918741029, 2.973631384888172, -1.5193210398041141])
    cfg = InnerConfig(tau=2.9152096345394752e153, K=12, divergence_radius=math.inf)

    def run():
        inner_descend(prob, x, y0, z0, 0.671561768276956, cfg)

    got = {state: _step_failure(run, state) for state in ("warn", "ignore", "raise")}
    assert got["warn"][:2] == (NumericError, "non-finite z-iterate at inner step 2")
    assert got["ignore"] == got["raise"] == got["warn"]


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_a_loop_leaves_the_callers_error_state_as_it_was(kernel, state):
    # each loop sets numpy's default state for its own arithmetic only, also
    # when it ends in a witness: here inner_descend, descend_single and a run
    # whose x-step overflows
    prob = dataclasses.replace(kernel.problem, grad_f_x=lambda x, y: np.full(1, 1e10))
    plan = build_schedule(prob.constants, 0.1, Delta=0.5, R=0.25,
                          overrides={"T": 3, "eta": 1e300})
    runs = [*_overflowing_step_runs(kernel).values(), lambda: run_f2ba(prob, plan)]
    with warnings.catch_warnings(), np.errstate(over=state):
        warnings.simplefilter("ignore", RuntimeWarning)
        before = np.geterr()
        for run in runs:
            with pytest.raises(NumericError):
                run()
        assert np.geterr() == before and before["over"] == state


# A step tau * grad that overflows is classified the same way: the step is
# computed as the default state computes it (inf), and the guard names the
# non-finite iterate, with the same message and point.


def _step_failure(fn, state):
    with warnings.catch_warnings(), np.errstate(over=state):
        warnings.simplefilter("ignore", RuntimeWarning)
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
    got = _step_failure(run, state)
    assert got[:2] == (NumericError, f"non-finite {which}-iterate at inner step 0")
    assert got == _step_failure(run, "warn")


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
    assert got == _step_failure(run, "warn")


@pytest.mark.parametrize("dim_y", [2, _FLOAT_STEP_DIM + 1])
@pytest.mark.parametrize("batch", [0, 1])
def test_a_gradient_that_only_broadcasts_is_refused(dim_y, batch):
    # a (1,) gradient where y has dim_y entries used to broadcast into the
    # iterates; both step kinds and the draw now refuse it with InputError
    prob = _quadratic(dim_y)
    prob = dataclasses.replace(prob, grad_f_y=lambda x, y: (y - 1.0)[:1])
    oracle = StochasticOracle(prob, 0.0, 0.0, rng_seed=0)
    what = "grad_y f at y" if batch == 0 else "grad f_y"
    with pytest.raises(InputError, match=f"^{what} must be a vector of length {dim_y}"):
        inner_descend(prob, [0.1], np.zeros(dim_y), np.zeros(dim_y), 0.5,
                      InnerConfig(tau=0.1, K=2, batch=batch), oracle)


@pytest.mark.parametrize("dim_y", [2, _FLOAT_STEP_DIM + 1])
def test_float32_gradients_are_taken_in_float64(dim_y):
    # the iterates keep the bits of float32 gradients scaled in float64, and
    # the reported norms are now those of the float64 conversion
    prob = _quadratic(dim_y)
    f32 = dataclasses.replace(prob, **{
        n: (lambda fn: lambda x, y: fn(x, y).astype(np.float32))(getattr(prob, n))
        for n in ("grad_f_y", "grad_g_y")})
    y0 = np.linspace(0.3, 1.7, dim_y)
    cfg = InnerConfig(tau=0.3, K=3)
    got = inner_descend(f32, [0.1], y0, y0[::-1].copy(), 0.5, cfg)
    conv = dataclasses.replace(prob, **{
        n: (lambda fn: lambda x, y: fn(x, y).astype(np.float32).astype(float))(
            getattr(prob, n)) for n in ("grad_f_y", "grad_g_y")})
    want = inner_descend(conv, [0.1], y0, y0[::-1].copy(), 0.5, cfg)
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


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
