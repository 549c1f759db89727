import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import (
    BilevelProblem,
    CapabilityError,
    ConfigError,
    DivergenceError,
    InputError,
    NumericError,
    PenaltyObjective,
    ProblemConstants,
    StochasticOracle,
    get_problem,
    hypergradient_estimate,
    penalized_hyperobjective_value,
)
from bipen import core
from bipen.core import _grid_min, _require_finite, as_vector
from bipen.errors import ToolkitError
from bipen.rng import substream


class _Tagged(np.ndarray):
    pass


def test_as_vector_coerces_scalars_and_lists():
    assert np.array_equal(as_vector(1.5, 1, "x"), np.array([1.5]))
    assert np.array_equal(as_vector([1, 2], 2, "y"), np.array([1.0, 2.0]))
    assert as_vector([1, 2], 2, "y").dtype == np.float64
    ints = np.array([1, 2])
    f32 = np.array([0.1, 2.5], dtype=np.float32)
    sub = np.array([1.0, 2.0]).view(_Tagged)
    for v in (ints, f32, sub):
        out = as_vector(v, 2, "y")
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out is not v and np.array_equal(out, v.astype(float))
    v = np.array([0.3, -0.7])
    assert as_vector(v, 2, "y") is v  # a float64 vector comes back as it is


def test_as_vector_rejects_wrong_shapes():
    with pytest.raises(InputError):
        as_vector([1.0, 2.0], 3, "y")
    with pytest.raises(InputError):
        as_vector(np.zeros((2, 2)), 4, "y")
    with pytest.raises(InputError):
        as_vector(np.zeros((1, 1)), 1, "x")
    with pytest.raises(InputError):
        as_vector(np.zeros(3), 2, "y")


def test_constants_validation():
    with pytest.raises(ConfigError):
        ProblemConstants(C_f=1, L_f=1, L_g=1, rho_f=0, rho_g=0, mu=0.0, sigma_bar=1)
    with pytest.raises(ConfigError):
        ProblemConstants(C_f=-1, L_f=1, L_g=1, rho_f=0, rho_g=0, mu=1, sigma_bar=1)
    with pytest.raises(ConfigError):
        ProblemConstants(C_f=1, L_f=1, L_g=1, rho_f=0, rho_g=0, mu=1, sigma_bar=0.0)


def test_kernel_scale_constants(kernel):
    c = kernel.problem.constants
    assert c.ell == 1.0 and c.kappa == 1.0 and not c.stochastic


def test_penalty_objective_validates_sigma(kernel):
    with pytest.raises(ConfigError):
        PenaltyObjective(kernel.problem, 0.0)
    with pytest.raises(ConfigError):
        PenaltyObjective(kernel.problem, 1.5)  # sigma_bar = 1
    PenaltyObjective(kernel.problem, 1.0)  # boundary accepted


def test_penalty_objective_refuses_non_pl_lower_level():
    for name in ("discontinuous", "discontinuous_smoothed"):
        with pytest.raises(CapabilityError):
            PenaltyObjective(get_problem(name).problem, 0.5)


def test_penalty_objective_refuses_unbounded_penalty():
    with pytest.raises(DivergenceError) as err:
        PenaltyObjective(get_problem("degenerate_penalty").problem, 0.05)
    assert err.value.step is not None and err.value.step <= 1000


def test_boxed_degenerate_penalty_constructs():
    PenaltyObjective(get_problem("degenerate_penalty_boxed").problem, 0.5)


def test_hypergradient_estimate_hand_computed(kernel):
    # gfx = 0; ggx(y)-ggx(z) = (x-yK1)-(x-zK1) = zK1-yK1 = -0.1; /sigma = -0.2
    p = PenaltyObjective(kernel.problem, 0.5)
    est = hypergradient_estimate(p, [0.3], [0.2, 0.7], [0.1, -0.2])
    assert np.allclose(est, [-0.2], atol=1e-15)


def test_hypergradient_estimate_exact_at_inner_optima(kernel):
    # Feeding the exact inner minimizers must reproduce the closed-form
    # penalized gradient (x-1)/(1+sigma) to rounding.
    sigma = 0.25
    p = PenaltyObjective(kernel.problem, sigma)
    for x in (0.0, 0.4, 1.7):
        y_star = kernel.project_y_star([x], [9.0, 3.0], sigma)
        z_star = kernel.project_y_star([x], [9.0, 3.0], 0.0)
        est = hypergradient_estimate(p, [x], y_star, z_star)
        assert est[0] == pytest.approx((x - 1.0) / (1.0 + sigma), abs=1e-12)


def test_estimate_finiteness_guard(kernel):
    prob = dataclasses.replace(kernel.problem,
                               grad_g_x=lambda x, y: np.array([np.inf]))
    p = PenaltyObjective(prob, 0.5)
    with pytest.raises(NumericError):
        hypergradient_estimate(p, [0.0], [0.0, 0.0], [0.0, 0.0])


def test_oracle_noiseless_draw_is_exact_and_free():
    s = get_problem("kernel_pl")
    oracle = StochasticOracle(s.problem, 0.0, 0.0, rng_seed=7)
    x, y = np.array([0.3]), np.array([0.8, 0.1])
    d = oracle.draw("f_y", x, y, batch=5)
    assert np.array_equal(d, s.problem.grad_f_y(x, y))
    assert oracle.counter == 0  # no stream consumed without noise


def test_oracle_noise_mean_and_variance():
    # CLT bounds: over n draws the sample mean sits within 4 sigma_mean of the
    # true gradient and the per-draw total variance is M^2 within 10%.
    s = get_problem("kernel_pl_fnoise")
    M = s.problem.constants.M_f
    oracle = StochasticOracle(s.problem, M, 0.0, rng_seed=11)
    x, y = np.array([0.3]), np.array([0.8, 0.1])
    truth = s.problem.grad_f_y(x, y)
    n = 10_000
    draws = np.array([oracle.draw("f_y", x, y) for _ in range(n)])
    assert np.linalg.norm(draws.mean(axis=0) - truth) <= 4.0 * M / math.sqrt(n)
    total_var = draws.var(axis=0).sum()
    assert total_var == pytest.approx(M * M, rel=0.10)
    assert oracle.counter == n


def test_oracle_batching_reduces_variance():
    s = get_problem("kernel_pl_fnoise")
    oracle = StochasticOracle(s.problem, 0.1, 0.0, rng_seed=3)
    x, y = np.array([0.0]), np.array([0.5, 0.0])
    n = 4000
    v1 = np.array([oracle.draw("f_y", x, y, batch=1) for _ in range(n)]).var(axis=0).sum()
    v8 = np.array([oracle.draw("f_y", x, y, batch=8) for _ in range(n)]).var(axis=0).sum()
    assert v8 == pytest.approx(v1 / 8.0, rel=0.3)


def test_oracle_reset_replays_bitwise():
    s = get_problem("kernel_pl_noisy")
    oracle = StochasticOracle(s.problem, 0.1, 0.1, rng_seed=5)
    x, y = np.array([0.3]), np.array([0.8, 0.1])
    first = [oracle.draw(w, x, y, 2) for w in ("f_y", "g_y", "f_x", "g_x")]
    oracle.reset()
    second = [oracle.draw(w, x, y, 2) for w in ("f_y", "g_y", "f_x", "g_x")]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_oracle_rejects_bad_requests(kernel):
    oracle = StochasticOracle(kernel.problem, 0.1, 0.0, rng_seed=0)
    with pytest.raises(InputError):
        oracle.draw("f_q", [0.0], [0.0, 0.0])
    with pytest.raises(InputError):
        oracle.draw("f_y", [0.0], [0.0, 0.0], batch=0)
    # non-integer batches are refused even where the noise level is 0 and
    # the draw would return the exact gradient
    for which in ("f_y", "g_y"):
        for batch in (1.5, True, np.float64(2.0)):
            with pytest.raises(InputError, match="positive integer"):
                oracle.draw(which, [0.0], [0.0, 0.0], batch=batch)
    assert oracle.draw("g_y", [0.0], [0.0, 0.0], batch=np.int64(2)).shape == (2,)


@pytest.mark.parametrize("std", [math.nan, math.inf, -math.inf, -0.1])
def test_oracle_rejects_non_finite_or_negative_noise_levels(kernel, std):
    # a NaN or inf level used to construct and draw [nan nan] / [inf -inf]
    for stds in ((std, 0.0), (0.0, std)):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            StochasticOracle(kernel.problem, *stds, rng_seed=1)


def test_batched_estimate_draws_from_the_oracle(kernel):
    pen = PenaltyObjective(kernel.problem, 0.5)
    x, y, z = [0.3], [0.6, 0.2], [0.4, -0.1]
    exact = hypergradient_estimate(pen, x, y, z)
    noiseless = StochasticOracle(kernel.problem, 0.0, 0.0, rng_seed=0)
    assert np.array_equal(hypergradient_estimate(pen, x, y, z, noiseless, 3), exact)
    with pytest.raises(ConfigError, match="oracle"):
        hypergradient_estimate(pen, x, y, z, batch=2)


def test_penalized_value_kernel_closed_form(kernel):
    # phi_sigma(x) = (x-1)^2 / (2 (1+sigma)); at x=0, sigma=1/2 this is 1/3.
    p = PenaltyObjective(kernel.problem, 0.5)
    pv = penalized_hyperobjective_value(p, [0.0])
    assert pv.value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert pv.error_bound < 1e-9
    for x, sigma in ((0.7, 0.25), (1.9, 1.0), (0.0, 0.01)):
        pv = penalized_hyperobjective_value(PenaltyObjective(kernel.problem, sigma), [x])
        assert pv.value == pytest.approx(kernel.phi_sigma(x, sigma),
                                         abs=1e-9 + pv.error_bound)


def test_penalized_value_quadratic_closed_form(quadratic):
    for x, sigma in ((0.0, 0.5), (0.7, 0.3), (-1.2, 2.0)):
        pv = penalized_hyperobjective_value(PenaltyObjective(quadratic.problem, sigma), [x])
        assert pv.value == pytest.approx(quadratic.phi_sigma(x, sigma), abs=1e-8)


def test_penalized_value_boxed_grid_path():
    # On the box the degenerate instance has phi_sigma(x) = min(x, 0) exactly
    # (g* = 0 at y2 = 0; min_y h = sigma*min(x,0) at a box corner).
    s = get_problem("degenerate_penalty_boxed")
    for x, sigma in ((0.7, 0.5), (-0.8, 0.5), (0.0, 1.0), (-1.5, 0.1)):
        pv = penalized_hyperobjective_value(PenaltyObjective(s.problem, sigma), [x])
        assert pv.value == pytest.approx(min(x, 0.0), abs=pv.error_bound + 1e-12)


def test_grid_min_hits_interior_and_corner_minima():
    pt, val, _ = _grid_min(lambda y: (y[0] - 0.3) ** 2, [(0.0, 1.0)], 101)
    assert abs(pt[0] - 0.3) < 1e-4 and val < 1e-8
    pt, val, _ = _grid_min(lambda y: (y[0] + 1.0) ** 2, [(0.0, 1.0)], 101)
    assert pt[0] == 0.0 and val == 1.0  # endpoint on the grid exactly


def test_grid_min_dimension_cap():
    with pytest.raises(CapabilityError):
        _grid_min(lambda y: float(y @ y), [(0, 1)] * 3, 11)


def test_value_error_carries_offending_point(kernel):
    prob = dataclasses.replace(kernel.problem, grad_g_x=lambda x, y: np.array([np.nan]))
    p = PenaltyObjective(prob, 0.5)
    with pytest.raises(NumericError) as err:
        hypergradient_estimate(p, [0.1], [0.2, 0.3], [0.4, 0.5])
    x, y = err.value.point
    assert np.array_equal(x, [0.1]) and np.array_equal(y, [0.2, 0.3])


def test_problem_rejects_nonpositive_dims(kernel):
    with pytest.raises(ConfigError):
        BilevelProblem(
            dim_x=0, dim_y=1,
            f=lambda x, y: 0.0, grad_f_x=lambda x, y: np.zeros(1),
            grad_f_y=lambda x, y: np.zeros(1),
            g=lambda x, y: 0.0, grad_g_x=lambda x, y: np.zeros(1),
            grad_g_y=lambda x, y: np.zeros(1),
            constants=kernel.problem.constants,
        )


# ---------------------------------------------------------------------------
# reference oracle: the point and finiteness checks and the oracle as they
# stood before noise came from a pre-drawn block, kept verbatim; the
# package's versions must match them bit for bit, failures included.


def _ref_as_vector(v, dim: int, name: str):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise InputError(
            f"{name} must be a vector of length {dim}, got shape {arr.shape}"
        )
    return arr


def _ref_require_finite(value, x, y, what: str):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        pt = (np.array(x, copy=True), None if y is None else np.array(y, copy=True))
        raise NumericError(f"non-finite {what} encountered", point=pt)
    return arr


_ORACLE_PARTS = ("f_x", "f_y", "g_x", "g_y")


@dataclasses.dataclass
class _RefOracle:
    base: BilevelProblem
    noise_std_f: float
    noise_std_g: float
    rng_seed: int
    counter: int = 0

    def __post_init__(self):
        if self.noise_std_f < 0 or self.noise_std_g < 0:
            raise ConfigError("noise standard deviations must be >= 0")
        self._gen = substream(self.rng_seed, "oracle")
        base = self.base
        self._table = {
            "f_x": (base.grad_f_x, self.noise_std_f, base.dim_x),
            "f_y": (base.grad_f_y, self.noise_std_f, base.dim_y),
            "g_x": (base.grad_g_x, self.noise_std_g, base.dim_x),
            "g_y": (base.grad_g_y, self.noise_std_g, base.dim_y),
        }

    def reset(self):
        """Rewind the noise stream to its initial state."""
        self.counter = 0
        self._gen = substream(self.rng_seed, "oracle")

    def draw(self, which: str, x, y, batch: int = 1):
        if isinstance(batch, bool) or not isinstance(batch, (int, np.integer)) \
                or batch < 1:
            raise InputError(f"batch must be a positive integer, got {batch!r}")
        part = self._table.get(which)
        if part is None:
            raise InputError(f"unknown gradient selector {which!r}; "
                             f"expected one of {_ORACLE_PARTS}")
        fn, std, dim = part
        x = _ref_as_vector(x, self.base.dim_x, "x")
        y = _ref_as_vector(y, self.base.dim_y, "y")
        mean = _ref_require_finite(fn(x, y), x, y, f"grad {which}")
        if std == 0.0:
            return mean
        # per-draw covariance (M^2/dim) I so that E||noise||^2 = M^2 per call;
        # the batch mean is the sum and the division ndarray.mean performs
        noise = self._gen.standard_normal((batch, dim))
        noise = np.add.reduce(noise, axis=0) / batch
        self.counter += batch
        return mean + (std / math.sqrt(dim)) * noise


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(call):
    """What a call leaves behind: its value bitwise, or its exception."""
    try:
        out = call()
    except ToolkitError as err:
        point = getattr(err, "point", None)
        point = None if point is None else [None if v is None else _bits(v)
                                            for v in point]
        return "raised", type(err), str(err), point
    return "returned", type(out), _bits(out)


def _oracle_problem():
    """dim_x = 3, dim_y = 2; f_y is NaN for y_1 > 4 and finite with a squared
    norm that overflows for y_2 < -4, g_x is inf for x_1 > 4, f_x is float32
    for x_2 > 3, g_x has shape (1, 3) for x_3 < -3, and g_y comes back as a
    list: each but the plain vectors misses the oracle's fast test."""
    def grad_f_x(x, y):
        v = np.sin(x) * y.sum()
        return v.astype(np.float32) if x[1] > 3.0 else v

    def grad_g_x(x, y):
        v = np.cos(x) - (math.inf if x[0] > 4.0 else 0.0)
        return v[None, :] if x[2] < -3.0 else v

    return BilevelProblem(
        dim_x=3, dim_y=2,
        f=lambda x, y: 0.0,
        grad_f_x=grad_f_x,
        grad_f_y=lambda x, y: y * (math.nan if y[0] > 4.0 else
                                   1e200 if y[1] < -4.0 else 1.5),
        g=lambda x, y: 0.0,
        grad_g_x=grad_g_x,
        grad_g_y=lambda x, y: list(y - x[:2]),
        constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0,
                                   mu=1.0, sigma_bar=1.0),
    )


# how a draw's x and y are passed: the exact float64 vectors of the fast
# test, or another input, which as_vector coerces or refuses
_POINT_KINDS = {
    "array": np.array,
    "list": list,
    "float32": lambda v: np.array(v, dtype=np.float32),
    "tagged": lambda v: np.array(v).view(_Tagged),
    "short": lambda v: np.array(v[:-1]),
    "long": lambda v: np.array(v + [0.0]),
    "0-d": lambda v: np.array(v[0]),
    "2-d": lambda v: np.array([v]),
}


_BAD_BATCHES = (0, -3, 1.5, True, np.float64(2.0))
_point = st.floats(-5.0, 5.0)
_batch = st.tuples(st.integers(1, 2500), st.booleans()).map(
    lambda b: np.int64(b[0]) if b[1] else b[0])
_kind = st.sampled_from(("array",) * 6 + tuple(_POINT_KINDS))
_draw_op = st.tuples(
    st.sampled_from(_ORACLE_PARTS), _batch,
    st.lists(_point, min_size=3, max_size=3), st.lists(_point, min_size=2, max_size=2),
    _kind, _kind)
_bad_op = st.tuples(
    st.sampled_from(_ORACLE_PARTS + ("f_q",)), st.sampled_from(_BAD_BATCHES),
    st.just([0.1, 0.2, 0.3]), st.just([0.4, 0.5]))


def _replay(oracle, ops):
    seen = []
    for op in ops:
        if op == "reset":
            oracle.reset()
            seen.append(("reset", oracle.counter))
            continue
        if op[0] == "expect":  # an announcement; the reference draws per call
            expect = getattr(oracle, "_expect", None)
            if expect is not None:
                expect(*op[1:])
            continue
        which, batch, x, y, *kinds = op  # x's and y's kinds, "array" if not given
        as_x, as_y = (_POINT_KINDS[k] for k in (kinds or ("array", "array")))
        seen.append(_outcome(lambda: oracle.draw(which, as_x(x), as_y(y), batch)))
        seen.append(oracle.counter)
    return seen


# numpy's default error state, and overflow raised: the fast tests' dot
# product raises FloatingPointError on a squared norm that overflows
_OVER_STATES = [{}, {"over": "raise"}]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("state", _OVER_STATES, ids=["default", "over-raise"])
@settings(max_examples=300, deadline=None)
@given(
    stds=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (0.3, 0.7)]),
    seed=st.integers(0, 2**40),
    ops=st.lists(st.one_of(_draw_op, _draw_op, _draw_op, _bad_op, st.just("reset")),
                 min_size=1, max_size=14),
)
def test_oracle_draws_match_the_per_call_reference(state, stds, seed, ops):
    # batches up to 2500 on dim_x = 3 ask for more than a block (4096), so
    # refills happen mid-sequence, with and without an unused tail; points
    # and gradients that miss the fast tests take the reference's checks
    prob = _oracle_problem()
    want = _replay(_RefOracle(prob, *stds, rng_seed=seed), ops)
    with np.errstate(**state):
        assert _replay(StochasticOracle(prob, *stds, rng_seed=seed), ops) == want


def _checked(check, x, y):
    """check(x, y)'s vectors bitwise, or its InputError's message."""
    try:
        out = check(x, y)
    except InputError as err:
        return str(err)
    return [_bits(v) for v in (out if y is not None else (out,))]


def test_check_point_returns_exact_float64_vectors_as_they_are(kernel):
    # the fast test hands back the objects it was given; every other point
    # is as_vector's, coerced or refused, x before y
    for prob in (_oracle_problem(), kernel.problem):
        x, y = np.arange(1.0, prob.dim_x + 1), np.arange(prob.dim_y) - 0.5
        got = prob.check_point(x, y)
        assert got[0] is x and got[1] is y
        assert prob.check_point(x) is x

        def ref(a, b):
            a = _ref_as_vector(a, prob.dim_x, "x")
            return a if b is None else (a, _ref_as_vector(b, prob.dim_y, "y"))

        for kx in _POINT_KINDS:
            for ky in list(_POINT_KINDS) + [None]:
                xv = _POINT_KINDS[kx](x.tolist())
                yv = None if ky is None else _POINT_KINDS[ky](y.tolist())
                assert (_checked(prob.check_point, xv, yv)
                        == _checked(ref, xv, yv)), (kx, ky)


@pytest.mark.parametrize("state", _OVER_STATES, ids=["default", "over-raise"])
def test_a_draw_warns_of_an_overflowing_norm_as_require_finite_does(state):
    # the draw's inlined dot is the only one: a gradient that fails it takes
    # the entrywise test without a second dot, so a second warning
    prob = _oracle_problem()
    x, y = np.array([0.1, 0.2, 0.3]), np.array([0.3, -4.5])
    with warnings.catch_warnings(record=True) as want, np.errstate(**state):
        warnings.simplefilter("always")
        ref = _require_finite(prob.grad_f_y(x, y), x, y, "grad f_y")
    with warnings.catch_warnings(record=True) as got, np.errstate(**state):
        warnings.simplefilter("always")
        out = StochasticOracle(prob, 0.0, 0.0, rng_seed=0).draw("f_y", x, y)
    assert _bits(out) == _bits(ref) and np.abs(out).max() > 1e200
    assert [str(w.message) for w in got] == [str(w.message) for w in want]
    assert len(got) == (0 if state else 1)


def test_oracle_refill_keeps_the_unused_tail_and_reset_drops_the_block():
    # 1500 x 2 normals, then 1200 x 2 (a refill with 1096 left unused), then
    # a reset and the same again: the bits of per-call draws every time
    prob = get_problem("kernel_pl_noisy").problem
    ops = [("f_y", 1500, [0.3], [0.8, 0.1]), ("g_y", 1200, [0.3], [0.8, 0.1]),
           ("f_x", 7, [0.3], [0.8, 0.1]), "reset",
           ("g_y", 1500, [0.3], [0.8, 0.1]), ("f_y", 1200, [0.3], [0.8, 0.1]),
           ("g_x", 7, [0.3], [0.8, 0.1])]
    got = _replay(StochasticOracle(prob, 0.1, 0.1, rng_seed=9), ops)
    assert got == _replay(_RefOracle(prob, 0.1, 0.1, rng_seed=9), ops)
    assert got[-1] == 1500 + 1200 + 7


# an announced phase: ("expect", parts, batch, count), then the first `taken`
# of its count * len(parts) draws, in order, at batch `batch` or at another
# batch; y_1 cycles through the given values, so f_y can turn NaN mid-phase
_PHASE_PARTS = (("g_y", "f_y", "g_y"), ("f_x", "g_x", "g_x"), ("f_y",), ("g_y", "g_y"))


def _phase(parts, batch, count, taken, same_batch, y1s, x=(0.1, 0.2, 0.3), y2=0.5):
    draw_batch = batch if same_batch else 2
    ops = [("expect", parts, batch, count)]
    for j in range(taken):
        ops.append((parts[j % len(parts)], draw_batch, list(x),
                    [y1s[j % len(y1s)], y2]))
    return ops


_phase_ops = st.builds(
    _phase, st.sampled_from(_PHASE_PARTS),
    st.one_of(_batch, _batch, st.sampled_from(_BAD_BATCHES)), st.integers(0, 6),
    st.integers(0, 20), st.sampled_from([True, True, True, False]),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    # plain gradients, then float32 f_x, (1, 3) g_x, an overflowing norm of f_y
    st.sampled_from([(0.1, 0.2, 0.3)] * 3 + [(0.1, 3.5, 0.3), (0.1, 0.2, -3.5)]),
    st.sampled_from([0.5, 0.5, 0.5, -4.5]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("state", _OVER_STATES, ids=["default", "over-raise"])
@settings(max_examples=250, deadline=None)
@given(
    stds=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (0.3, 0.7)]),
    seed=st.integers(0, 2**40),
    chunks=st.lists(st.one_of(_draw_op.map(lambda op: [op]), _phase_ops, _phase_ops,
                              st.just(["reset"])), min_size=1, max_size=6),
)
def test_announced_phases_match_the_per_call_reference(state, stds, seed, chunks):
    # unequal noise levels use a per-part scale array; batches up to 2500
    # take phases across refills of the 4096-normal block; a NaN f_y, a bad
    # batch, a bad point, a draw off the announcement and a reset all leave
    # the counter and the later draws where per-call draws would
    ops = [op for chunk in chunks for op in chunk]
    prob = _oracle_problem()
    want = _replay(_RefOracle(prob, *stds, rng_seed=seed), ops)
    with np.errstate(**state):
        assert _replay(StochasticOracle(prob, *stds, rng_seed=seed), ops) == want


@pytest.mark.parametrize("interruption", [
    ("f_x", 4, [0.1, 0.2, 0.3], [0.3, 0.5]),   # another part
    ("g_y", 5, [0.1, 0.2, 0.3], [0.3, 0.5]),   # the next part at another batch
    ("f_y", 4, [0.1, 0.2, 0.3], [4.5, 0.5]),   # the next part, NaN: nothing taken
    "reset",
])
def test_a_phase_resumes_with_per_call_bits_after_an_interruption(interruption):
    # two draws of an announced phase, the interruption, then the phase's
    # remaining draws: each must have the bits of the stream where it reads
    ops = _phase(("g_y", "f_y", "g_y"), 4, 3, 9, True, [0.3])
    ops = ops[:3] + [interruption] + ops[3:]
    prob = _oracle_problem()
    got = _replay(StochasticOracle(prob, 0.3, 0.7, rng_seed=6), ops)
    assert got == _replay(_RefOracle(prob, 0.3, 0.7, rng_seed=6), ops)


def test_a_phase_longer_than_the_announcement_cap_draws_the_rest_per_call(
        monkeypatch):
    # 100 normals per round under a cap of 250: two rounds are pre-reduced,
    # the other three are drawn one at a time, with the same bits
    monkeypatch.setattr(core, "_AHEAD_NORMALS", 250)
    prob = _oracle_problem()
    ops = _phase(("g_y", "f_y"), 25, 5, 10, True, [0.3]) + [("f_x", 3, [0.1] * 3,
                                                             [0.2, 0.5])]
    oracle = StochasticOracle(prob, 0.3, 0.7, rng_seed=4)
    got = _replay(oracle, ops[:1])
    assert len(oracle._ahead[2]) == 4
    got += _replay(oracle, ops[1:])
    assert got == _replay(_RefOracle(prob, 0.3, 0.7, rng_seed=4), ops)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_phase_reduction_has_the_bits_of_per_draw_reductions(dim):
    # the oracle's phase noise relies on this: numpy sums axis 2 of
    # (K, P, B, dim) with the bits it gives axis 0 of each (B, dim) block
    for B in list(range(1, 70)) + [100, 128, 129, 200, 1600]:
        for K, P in ((1, 1), (11, 1), (11, 3), (3, 2)):
            normals = substream(B, dim, K, P).standard_normal(K * P * B * dim)
            phase = np.add.reduce(normals.reshape(K, P, B, dim), axis=2)
            per_draw = [np.add.reduce(block, axis=0)
                        for block in normals.reshape(K * P, B, dim)]
            assert phase.tobytes() == np.array(per_draw).tobytes(), (B, K, P)


_FINITE_CASES = [
    np.array([0.5, -2.0]),
    np.arange(6.0)[::2],                 # strided 1-D view
    np.array([1e200, -1e200]),           # finite, but the squared norm overflows
    np.empty(0),
    np.array(2.5),                       # 0-d
    np.float64(3.0),
    1.25,
    [1.0, 2.0],
    np.array([1.0, 2.0], dtype=np.float32),
    np.array([1, 2]),
    np.array([1.0], dtype=">f8"),
    np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.array([0.5, 1.5]).view(_Tagged),
]
_NON_FINITE_CASES = [
    np.array([math.nan, 1.0]),
    np.array([math.inf, 0.0]),
    np.array([-math.inf]),
    np.array([math.inf, -math.inf]),
    np.array(math.nan),
    math.inf,
    [1.0, math.nan],
    np.array([1.0, math.inf], dtype=np.float32),
    np.array([[1.0], [math.nan]]),
    np.array([0.5, math.nan]).view(_Tagged),
]


@pytest.mark.parametrize("value", _FINITE_CASES + _NON_FINITE_CASES)
def test_require_finite_matches_the_entrywise_reference(value):
    x, y = np.array([0.1]), np.array([0.2, 0.3])
    # numpy warns on the squared norm of 1e200 entries (as in inner._guard);
    # the vector then takes the entrywise test, which passes it
    with np.errstate(over="ignore"):
        got = _outcome(lambda: _require_finite(value, x, y, "grad f_y"))
        ref = _outcome(lambda: _ref_require_finite(value, x, y, "grad f_y"))
        assert got == ref
        if got[0] == "returned":
            same = _require_finite(value, x, y, "v") is value
            assert same == (_ref_require_finite(value, x, y, "v") is value)
    assert (got[0] == "returned") == any(value is v for v in _FINITE_CASES)
    if got[0] == "raised":
        assert got[1] is NumericError and got[2] == "non-finite grad f_y encountered"


@pytest.mark.parametrize("value", _FINITE_CASES + _NON_FINITE_CASES)
def test_require_finite_classifies_overflow_when_numpy_raises_it(value):
    # under over="raise" the squared norm of 1e200 entries raises in the dot;
    # the entrywise test still decides, as under the default state
    x, y = np.array([0.1]), np.array([0.2, 0.3])
    with np.errstate(over="ignore"):
        want = _outcome(lambda: _require_finite(value, x, y, "grad f_y"))
    with np.errstate(over="raise"):
        assert _outcome(lambda: _require_finite(value, x, y, "grad f_y")) == want


def test_require_finite_returns_a_finite_vector_whose_norm_overflows():
    big = np.array([1e200])
    for state in ("ignore", "raise"):
        with np.errstate(over=state):
            assert _require_finite(big, np.array([0.1]), None, "grad f_x") is big


# ---------------------------------------------------------------------------
# overflow in the estimator and the oracle: what numpy's error state does to
# the arithmetic must not change the result the drivers' guards classify


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_estimate_is_returned_as_the_default_state_computes_it(
        kernel, state):
    # (grad_x g(x, yK) - grad_x g(x, zK)) / sigma overflows
    pen = PenaltyObjective(kernel.problem, 1e-300)
    with np.errstate(over=state):
        est = hypergradient_estimate(pen, [0.1], [1e10, 0.0], [0.0, 0.0])
    assert est.tolist() == [-math.inf]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_draw_is_returned_as_the_default_state_computes_it(
        kernel, state):
    huge_mean = dataclasses.replace(
        kernel.problem, grad_f_y=lambda x, y: np.array([1.79e308, -1.79e308]))
    with np.errstate(over=state):
        first = StochasticOracle(huge_mean, 1e308, 0.0, rng_seed=1).draw(
            "f_y", [0.1], [0.0, 0.0])
    assert first.tolist() == [math.inf, -math.inf]  # mean + noise overflows
    # on the plain kernel noise * scale overflows instead, in some draws only
    ops = [("f_y", batch, [0.1], [0.0, 0.0]) for batch in (1, 1, 3, 1, 2)]
    for prob, std in ((huge_mean, 1e308), (kernel.problem, 1.79e308)):
        with np.errstate(over="ignore"):
            want = _replay(_RefOracle(prob, std, 0.0, rng_seed=1), ops)
        with np.errstate(over=state):
            assert _replay(StochasticOracle(prob, std, 0.0, rng_seed=1), ops) == want


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_phase_is_returned_as_the_default_state_computes_it(
        kernel, state):
    # the same overflows in announced phases: mean + row, and a block whose
    # scaling overflows in some rows only, recomputed as a whole
    huge_mean = dataclasses.replace(
        kernel.problem, grad_f_y=lambda x, y: np.array([1.79e308, -1.79e308]))
    ops = (_phase(("g_y", "f_y", "g_y"), 1, 8, 24, True, [0.0], x=[0.1])
           + _phase(("f_y",), 1, 5, 3, True, [0.0], x=[0.1])
           + [("f_y", 3, [0.1], [0.0, 0.0])])
    for prob, stds in ((huge_mean, (1e308, 0.5)), (kernel.problem, (1.79e308, 0.5)),
                       (kernel.problem, (0.0, 1.79e308))):
        with np.errstate(over="ignore"):
            want = _replay(_RefOracle(prob, *stds, rng_seed=1), ops)
        returned = [np.frombuffer(w[2][2]) for w in want
                    if isinstance(w, tuple) and w[0] == "returned"]
        assert any(np.isinf(v).any() for v in returned)  # some draws overflow
        with np.errstate(over=state):
            assert _replay(StochasticOracle(prob, *stds, rng_seed=1), ops) == want


def test_oracle_counter_is_not_a_constructor_argument(kernel):
    # a counter set at construction would disagree with the stream's position
    with pytest.raises(TypeError, match="counter"):
        StochasticOracle(kernel.problem, 0.1, 0.0, rng_seed=0, counter=5)
