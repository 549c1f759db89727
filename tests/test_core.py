import dataclasses
import gc
import math
import warnings
import weakref
from unittest import mock

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
from bipen.core import _as_gradient, _grid_min, _per_row, as_vector
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


_CONSTANTS = dict(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0, mu=1.0, sigma_bar=1.0)


@pytest.mark.parametrize("name, value", [
    ("C_f", "a"), ("mu", None), ("sigma_bar", [1.0]), ("M_f", object()), ("L_g", 10 ** 400)])
def test_constants_refuse_a_value_that_float_cannot_take(name, value):
    # numpy's bare TypeError ("ufunc 'isfinite' not supported ...") used to
    # come out of np.isfinite
    with pytest.raises(ConfigError, match=f"^constant {name} must be a number, got "):
        ProblemConstants(**{**_CONSTANTS, name: value})


def test_constants_are_stored_as_floats():
    c = ProblemConstants(**{**_CONSTANTS, "C_f": 2, "mu": np.float32(0.5),
                            "sigma_bar": "1", "M_g": np.int64(3)})
    assert all(type(getattr(c, f.name)) is float for f in dataclasses.fields(c))
    assert (c.C_f, c.mu, c.sigma_bar, c.M_g) == (2.0, 0.5, 1.0, 3.0)


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


def _assert_noise_law(B):
    """A batch-B draw's noise is N(0, s^2 I) with s^2 = M^2 / (dim B) per
    coordinate.  Over n = 10,000 draws, seed 11, each coordinate's sample
    mean has standard deviation s / sqrt(n) and is held within 4 of them;
    its sample variance has relative standard deviation sqrt(2 / (n - 1))
    = 1.41% and is held within 5 of them, 7.07%."""
    s = get_problem("kernel_pl_fnoise")
    M, dim = s.problem.constants.M_f, s.problem.dim_y
    oracle = StochasticOracle(s.problem, M, 0.0, rng_seed=11)
    x, y = np.array([0.3]), np.array([0.8, 0.1])
    truth = s.problem.grad_f_y(x, y)
    n = 10_000
    noise = np.array([oracle.draw("f_y", x, y, B) for _ in range(n)]) - truth
    var = M * M / (dim * B)
    assert np.all(np.abs(noise.mean(axis=0)) <= 4.0 * math.sqrt(var / n))
    assert np.all(np.abs(noise.var(axis=0, ddof=1) / var - 1.0)
                  <= 5.0 * math.sqrt(2.0 / (n - 1)))
    assert oracle.counter == n * B


def test_oracle_noise_mean_and_variance():
    # one call: covariance (M^2 / dim) I, so total variance M^2
    _assert_noise_law(1)


@pytest.mark.parametrize("B", [4, 16, 1600])
def test_oracle_batch_noise_mean_and_variance(B):
    # the mean of B calls: covariance (M^2 / dim) I / B
    _assert_noise_law(B)


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


@pytest.mark.parametrize("std", ["a", None, [0.1], 10 ** 400])
def test_oracle_refuses_a_noise_level_that_float_cannot_take(kernel, std):
    # "must be real number, not str" used to come out of math.isfinite
    for which, stds in (("noise_std_f", (std, 0.0)), ("noise_std_g", (0.0, std))):
        with pytest.raises(ConfigError, match=f"^{which} must be a number, got "):
            StochasticOracle(kernel.problem, *stds, rng_seed=1)


def test_oracle_stores_its_noise_levels_as_floats(kernel):
    oracle = StochasticOracle(kernel.problem, np.float32(0.5), 1, rng_seed=1)
    assert type(oracle.noise_std_f) is float and type(oracle.noise_std_g) is float
    assert (oracle.noise_std_f, oracle.noise_std_g) == (0.5, 1.0)


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
    pt, val, _ = _grid_min(_per_row(lambda y: (y[0] - 0.3) ** 2), [(0.0, 1.0)], 101)
    assert abs(pt[0] - 0.3) < 1e-4 and val < 1e-8
    pt, val, _ = _grid_min(_per_row(lambda y: (y[0] + 1.0) ** 2), [(0.0, 1.0)], 101)
    assert pt[0] == 0.0 and val == 1.0  # endpoint on the grid exactly


def test_grid_min_dimension_cap():
    with pytest.raises(CapabilityError):
        _grid_min(_per_row(lambda y: float(y @ y)), [(0, 1)] * 3, 11)


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
# reference oracle: the point and finiteness checks as they stood before
# their fast tests, the gradient taken as the oracle contract says (as_vector,
# then the finiteness test), and the oracle's law drawn per call; the
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


def _ref_gradient(value, dim: int, what: str, x, y):
    """``as_vector``'s vector of a gradient, its squared norm (of which numpy
    warns when it overflows), then the entrywise test if that is not finite."""
    v = _ref_as_vector(value, dim, what)
    if not math.isfinite(v.dot(v)):
        _ref_require_finite(v, x, y, what)
    return v


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
        batch = int(batch)
        part = self._table.get(which)
        if part is None:
            raise InputError(f"unknown gradient selector {which!r}; "
                             f"expected one of {_ORACLE_PARTS}")
        fn, std, dim = part
        x = _ref_as_vector(x, self.base.dim_x, "x")
        y = _ref_as_vector(y, self.base.dim_y, "y")
        mean = _ref_gradient(fn(x, y), dim, f"grad {which}", x, y)
        if std == 0.0:
            return mean
        # per-call covariance (M^2/dim) I so that E||noise||^2 = M^2 per call;
        # the mean of `batch` Gaussian calls has that covariance over batch.
        # The normals are counted before they are scaled, which may overflow
        z = self._gen.standard_normal(dim)
        self.counter += batch
        return mean + z * (std / math.sqrt(dim)) * (1.0 / math.sqrt(batch))


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
        which, batch, x, y, *kinds = op  # x's and y's kinds, "array" if not given
        as_x, as_y = (_POINT_KINDS[k] for k in (kinds or ("array", "array")))
        seen.append(_outcome(lambda: oracle.draw(which, as_x(x), as_y(y), batch)))
        seen.append(oracle.counter)
    return seen


def _replay_each(oracle, ops, state):
    """Per op of ``_replay`` under np.errstate(over=state): its outcome (numpy's
    FloatingPointError included), the counter after it, and its warnings."""
    seen = []
    with np.errstate(over=state):
        for op in ops:
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                try:
                    out = _replay(oracle, [op])
                except FloatingPointError as err:
                    out = [("raised", FloatingPointError, str(err)), oracle.counter]
            seen.append((*out, [(w.category, str(w.message)) for w in warned]))
    return seen


# numpy's default error state, and overflow raised: a direct draw then
# raises numpy's FloatingPointError where the default state warns
_OVER_STATES = ["warn", "raise"]


@pytest.mark.parametrize("state", _OVER_STATES, ids=["default", "over-raise"])
@settings(max_examples=300, deadline=None)
@given(
    stds=st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (0.3, 0.7)]),
    seed=st.integers(0, 2**40),
    ops=st.lists(st.one_of(_draw_op, _draw_op, _draw_op, _bad_op, st.just("reset")),
                 min_size=1, max_size=14),
    block=st.sampled_from([1, 2, 4, 5, 4096]),
)
def test_oracle_draws_match_the_per_call_reference(state, stds, seed, ops, block):
    # a draw takes dim (2 or 3) normals; blocks of 1-5 refill mid-sequence,
    # with and without an unused tail, and a block of 1 or 2 is narrower
    # than a draw; points and gradients that miss the fast tests take the
    # reference's checks
    prob = _oracle_problem()
    want = _replay_each(_RefOracle(prob, *stds, rng_seed=seed), ops, state)
    with mock.patch.object(core, "_NOISE_BLOCK", block):
        assert _replay_each(StochasticOracle(prob, *stds, rng_seed=seed), ops, state) == want


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
def test_a_draw_warns_once_of_an_overflowing_norm(state):
    # a finite gradient whose squared norm overflows: one dot, of whose
    # overflow numpy warns, or which raises under over="raise", and no second
    prob = _oracle_problem()
    x, y = np.array([0.1, 0.2, 0.3]), np.array([0.3, -4.5])
    oracle = StochasticOracle(prob, 0.0, 0.0, rng_seed=0)
    with warnings.catch_warnings(record=True) as got, np.errstate(over=state):
        warnings.simplefilter("always")
        if state == "raise":
            with pytest.raises(FloatingPointError, match="overflow encountered in dot"):
                oracle.draw("f_y", x, y)
        else:
            out = oracle.draw("f_y", x, y)
            assert _bits(out) == _bits(prob.grad_f_y(x, y)) and np.abs(out).max() > 1e200
    assert [str(w.message) for w in got] == (
        ["overflow encountered in dot"] if state == "warn" else [])


def test_oracle_refill_keeps_the_unused_tail_and_reset_drops_the_block():
    # 2047 f_y draws take 4094 normals of the first 4096-normal block and an
    # f_x draw one more; the next f_y draw refills, keeping the one unused
    # normal; a reset drops the block: the bits of per-call draws every time
    prob = get_problem("kernel_pl_noisy").problem
    point = ([0.3], [0.8, 0.1])
    ops = ([("f_y", 3, *point)] * 2047 + [("f_x", 1, *point), ("f_y", 1600, *point)]
           + [("g_x", 2, *point), "reset", ("g_y", 7, *point), ("f_x", 1, *point)])
    oracle = StochasticOracle(prob, 0.1, 0.1, rng_seed=9)
    got = _replay(oracle, ops[:2049])
    assert (oracle._buf.shape, oracle._pos) == ((4097,), 2)
    assert oracle._bl == oracle._buf.tolist()  # the float draw's mirror of the block
    got += _replay(oracle, ops[2049:])
    assert got == _replay(_RefOracle(prob, 0.1, 0.1, rng_seed=9), ops)
    assert got[-1] == 7 + 1


# a phase: the draws of `count` inner steps in the order inner_descend takes
# them, g_y, f_y, g_y, at batch `batch`; y_1 cycles through the given values,
# so f_y can turn NaN mid-phase
def _phase(count, batch, y1s, x=(0.1, 0.2, 0.3), y2=0.5):
    parts = ("g_y", "f_y", "g_y")
    return [(parts[j % 3], batch, list(x), [y1s[j % len(y1s)], y2])
            for j in range(3 * count)]


@pytest.mark.parametrize("interruption", [
    ("f_x", 4, [0.1, 0.2, 0.3], [0.3, 0.5]),   # another part
    ("g_y", 5, [0.1, 0.2, 0.3], [0.3, 0.5]),   # the next part at another batch
    ("f_y", 4, [0.1, 0.2, 0.3], [4.5, 0.5]),   # the next part, NaN: nothing taken
    "reset",
])
def test_a_phase_resumes_with_per_call_bits_after_an_interruption(interruption):
    # two draws of a phase, the interruption, then the phase's remaining
    # draws: each must have the bits of the stream where it reads; blocks of
    # 5 normals make the phase cross refills with a tail left over
    ops = _phase(3, 4, [0.3])
    ops = ops[:2] + [interruption] + ops[2:]
    prob = _oracle_problem()
    with mock.patch.object(core, "_NOISE_BLOCK", 5):
        got = _replay(StochasticOracle(prob, 0.3, 0.7, rng_seed=6), ops)
    assert got == _replay(_RefOracle(prob, 0.3, 0.7, rng_seed=6), ops)


def _wide_problem(dim_y: int):
    """dim_x = 1 and dim_y = ``dim_y``, with plain linear gradients."""
    return BilevelProblem(
        dim_x=1, dim_y=dim_y,
        f=lambda x, y: 0.0,
        grad_f_x=lambda x, y: x * 2.0,
        grad_f_y=lambda x, y: y - 1.0,
        g=lambda x, y: 0.0,
        grad_g_x=lambda x, y: x - y[:1],
        grad_g_y=lambda x, y: y - x[0],
        constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0,
                                   mu=1.0, sigma_bar=1.0),
    )


def test_a_draw_wider_than_the_block_matches_the_per_call_reference():
    # dim_y = 5000 > 4096: the first g_y draw refills with 5000 normals, the
    # f_x draw with a block of 4096, and the next g_y draw spans a refill
    # (4095 left, 5000 more); after the reset the same again
    prob = _wide_problem(5000)
    x, y = [0.4], np.linspace(-1.0, 1.0, 5000).tolist()
    ops = [("g_y", 1, x, y), ("f_x", 2, x, y), ("g_y", 9, x, y), ("f_y", 1, x, y),
           "reset", ("f_y", 4, x, y), ("g_x", 1, x, y), ("g_y", 1, x, y)]
    got = _replay(StochasticOracle(prob, 0.3, 0.7, rng_seed=12), ops)
    assert got == _replay(_RefOracle(prob, 0.3, 0.7, rng_seed=12), ops)
    assert [v for v in got if isinstance(v, tuple)][0][2][1] == (5000,)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_batch_draw_takes_the_normals_of_one_call(dim):
    # a batch-B draw takes the dim normals one call takes and scales them by
    # 1 / sqrt(B): where the gradients vanish its value is the one call's
    # times that factor, bit for bit, and the draws after it read the stream
    # where single calls would, across refills of 5-normal blocks
    prob = _wide_problem(dim)
    x, y = np.ones(1), np.ones(dim)  # grad_f_y, grad_g_x and grad_g_y vanish
    parts = ("g_y", "f_y", "g_y", "g_x") * 3
    batches = (1, 7, 1600, 2, 1, 25_600, 3, 1, 9, 4, 1, 5)
    with mock.patch.object(core, "_NOISE_BLOCK", 5):
        batched = StochasticOracle(prob, 0.3, 0.7, rng_seed=dim)
        single = StochasticOracle(prob, 0.3, 0.7, rng_seed=dim)
        for which, B in zip(parts, batches):
            one = single.draw(which, x, y)
            assert np.all(one != 0.0)
            want = (one * (1.0 / math.sqrt(B))).tobytes()
            assert batched.draw(which, x, y, B).tobytes() == want, (which, B)
    assert (batched.counter, single.counter) == (sum(batches), len(batches))


# ---------------------------------------------------------------------------
# the float draw: a float64 gradient of shape (dim,), dim <= _FLOAT_STEP_DIM,
# is taken on Python floats; bits, counter, warnings and errors must be the
# per-call reference's


def _copying_problem(dim_x: int, dim_y: int):
    """f's gradients copy the point and g's negate it, so a draw's mean holds
    whatever its point holds: +-1e150, NaN and inf included."""
    return BilevelProblem(
        dim_x=dim_x, dim_y=dim_y,
        f=lambda x, y: 0.0,
        grad_f_x=lambda x, y: x + 0.0,
        grad_f_y=lambda x, y: y + 0.0,
        g=lambda x, y: 0.0,
        grad_g_x=lambda x, y: -x,
        grad_g_y=lambda x, y: -y,
        constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0,
                                   mu=1.0, sigma_bar=1.0),
    )


_entry = st.one_of(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                   st.sampled_from([1e150, -1e150, 9e149, math.nan, math.inf, -math.inf]))
# zero noise, plain noise, and noise whose scaling overflows in some draws
_std = st.sampled_from([0.0, 0.3, 1.79e308])


@pytest.mark.parametrize("state", ["warn", "raise", "ignore"])
@settings(max_examples=150, deadline=None)
@given(dims=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       stds=st.tuples(_std, _std), seed=st.integers(0, 2**40),
       block=st.sampled_from([1, 2, 5, 9, 4096]), data=st.data())
def test_float_draws_match_the_per_call_reference(state, dims, stds, seed, block, data):
    # dims 1-9 straddle the float bound; batches from 1 to 25,600; blocks of
    # 1-9 normals refill mid-sequence.  Under over="raise" a draw whose
    # noise overflows raises numpy's FloatingPointError, after its normals
    prob = _copying_problem(*dims)
    draw_op = st.tuples(st.sampled_from(_ORACLE_PARTS),
                        st.sampled_from([1, 2, 4, 1600, 25_600]),
                        st.lists(_entry, min_size=dims[0], max_size=dims[0]),
                        st.lists(_entry, min_size=dims[1], max_size=dims[1]))
    ops = data.draw(st.lists(st.one_of(draw_op, draw_op, draw_op, st.just("reset")),
                             min_size=1, max_size=12))
    want = _replay_each(_RefOracle(prob, *stds, rng_seed=seed), ops, state)
    with mock.patch.object(core, "_NOISE_BLOCK", block):
        got = _replay_each(StochasticOracle(prob, *stds, rng_seed=seed), ops, state)
    assert got == want


# ---------------------------------------------------------------------------
# the exact estimate: three float64 x-gradients of shape (dim_x,), dim_x <=
# _FLOAT_STEP_DIM, are combined on Python floats; bits, errors and warnings
# must be those of the oracle contract's gradients and the numpy expression


def _estimate_problem(dim_x: int, gfx, ggx_y, ggx_z):
    """dim_y = 1: grad_x f is ``gfx``, and grad_x g is ``ggx_y`` at y = 0 and
    ``ggx_z`` elsewhere: a list as a fresh array, anything else as it is."""
    fresh = (lambda v: np.array(v) if isinstance(v, list) else v)
    return BilevelProblem(
        dim_x=dim_x, dim_y=1, f=lambda x, y: 0.0, g=lambda x, y: 0.0,
        grad_f_x=lambda x, y: fresh(gfx),
        grad_g_x=lambda x, y: fresh(ggx_y if y[0] == 0.0 else ggx_z),
        grad_f_y=lambda x, y: np.zeros(1), grad_g_y=lambda x, y: np.zeros(1),
        constants=ProblemConstants(C_f=1.0, L_f=1.0, L_g=1.0, rho_f=0.0, rho_g=0.0,
                                   mu=1.0, sigma_bar=1.0),
    )


def _ref_estimate(pen, x, yK, zK):
    """The estimate as numpy computes it from ``_ref_gradient``'s arrays."""
    prob = pen.problem
    x, yK = _ref_as_vector(x, prob.dim_x, "x"), _ref_as_vector(yK, prob.dim_y, "y")
    zK = _ref_as_vector(zK, prob.dim_y, "zK")
    n = prob.dim_x
    gfx = _ref_gradient(prob.grad_f_x(x, yK), n, "grad_x f", x, yK)
    ggx_y = _ref_gradient(prob.grad_g_x(x, yK), n, "grad_x g at yK", x, yK)
    ggx_z = _ref_gradient(prob.grad_g_x(x, zK), n, "grad_x g at zK", x, zK)
    return gfx + (ggx_y - ggx_z) / np.array(pen.sigma, dtype=float)


def _estimate_warned(fn, pen, state):
    """``_outcome`` of an estimate under np.errstate(over=state), numpy's
    FloatingPointError included, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as seen, np.errstate(over=state):
        warnings.simplefilter("always")
        try:
            out = _outcome(lambda: fn(pen, np.arange(pen.problem.dim_x, dtype=float),
                                      np.zeros(1), np.ones(1)))
        except FloatingPointError as err:
            out = "raised", FloatingPointError, str(err)
    return out, [(w.category, str(w.message)) for w in seen]


_estimate_entry = st.one_of(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
    st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e150, -1e150, 9.999999999999998e149,
                     -9.999999999999998e149, 1.0000000000000002e150, 1e200, math.nan,
                     math.inf, -math.inf]))


@pytest.mark.parametrize("state", ["warn", "raise", "ignore"])
@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 9), data=st.data(),
       sigma=st.sampled_from([1e-300, 1e-160, 1e-10, 0.3, 1.0]))
def test_the_float_estimate_matches_the_numpy_expression(state, dim, data, sigma):
    # entries near 1e150 straddle the hypot bound, and sigma down to 1e-300
    # makes the combination overflow: numpy then warns and the estimate
    # holds inf, or numpy raises under over="raise"
    grads = [data.draw(st.lists(_estimate_entry, min_size=dim, max_size=dim))
             for _ in range(3)]
    pen = PenaltyObjective(_estimate_problem(dim, *grads), sigma)
    want = _estimate_warned(_ref_estimate, pen, state)
    assert _estimate_warned(hypergradient_estimate, pen, state) == want


@pytest.mark.parametrize("state", ["warn", "raise", "ignore"])
@pytest.mark.parametrize("grads, sigma, overflows", [
    ([[0.0], [9.999999999999998e149], [-9.999999999999998e149]], 1e-160, True),
    ([[1.0, -0.0], [5.0, 9.999999999999998e149], [-5.0, 0.0]], 1e-300, True),
    ([[0.0] * 2, [1e10] * 2, [0.0] * 2], 1e-298, False),  # a sum of 2e308
])
def test_an_overflowing_float_estimate_is_recomputed_in_numpy(state, grads, sigma,
                                                              overflows):
    # gradients below the hypot bound whose combination overflows: numpy
    # warns of it and the estimate holds inf, or numpy raises under
    # over="raise"; or whose entries' sum overflows while each entry is finite
    pen = PenaltyObjective(_estimate_problem(len(grads[0]), *grads), sigma)
    got = _estimate_warned(hypergradient_estimate, pen, state)
    assert got == _estimate_warned(_ref_estimate, pen, state)
    if state == "raise" and overflows:
        assert got[0][:2] == ("raised", FloatingPointError)
    else:
        assert np.isinf(np.frombuffer(got[0][2][2])).any() == overflows
    assert bool(got[1]) == (overflows and state == "warn")


@pytest.mark.parametrize("odd", [
    np.zeros(2, dtype=np.float32), np.zeros((1, 2)), np.zeros(3), np.zeros(1),
    np.array([1e160, 0.0]), (0.5, 0.25)])
@pytest.mark.parametrize("at", range(3))
def test_other_gradients_are_converted_once_or_refused(odd, at):
    # a float32 or tuple gradient is converted by as_vector, once, and a 2-D
    # or wrong-length one refused with its InputError; one whose hypot passes
    # 1e150 is used as it is, and the estimate is the numpy expression's
    grads = [[0.5, -0.25], [2.0, 1.0], [1.0, 3.0]]
    plain = _estimate_problem(2, *grads)
    grads[at] = odd
    whats = ["grad_x f", "grad_x g at yK", "grad_x g at zK"]
    plain_vector = type(odd) is np.ndarray and odd.dtype == np.float64 and odd.shape == (2,)
    converted = [] if plain_vector else [whats[at]]
    for prob, checked in ((plain, []), (_estimate_problem(2, *grads), converted)):
        pen = PenaltyObjective(prob, 0.5)
        seen = []  # the names of the vectors as_vector did not return as they are

        def spy(v, dim, name, as_vector=core.as_vector):
            seen.append(name)  # before the call, so that a refusal counts
            out = as_vector(v, dim, name)
            if out is v:
                seen.pop()
            return out

        with mock.patch.object(core, "as_vector", spy):
            got = _estimate_warned(hypergradient_estimate, pen, "warn")
        assert got == _estimate_warned(_ref_estimate, pen, "warn")
        assert seen == checked
    assert (got[0][1] is InputError) == (np.shape(odd) != (2,))


def test_cached_parts_still_refuse_every_bad_batch():
    # valid draws at batch 4 and 1 cache their parts; 4.0 and True hash and
    # compare equal to 4 and 1, and 0 and np.int64(0) were never valid: each
    # is still refused, and later draws read the stream where they should
    prob = _copying_problem(2, 2)
    x, y = [0.1, 0.2], [0.3, 0.4]
    ops = [("f_y", 4, x, y), ("g_x", 1, x, y)]
    ops += [(w, b, x, y) for w in ("f_y", "g_x") for b in (4.0, True, 0, np.int64(0))]
    ops += [("f_y", np.int64(4), x, y), ("f_y", 4, x, y), ("g_x", 1, x, y)]
    oracle = StochasticOracle(prob, 0.3, 0.7, rng_seed=3)
    got = _replay(oracle, ops)
    assert got == _replay(_RefOracle(prob, 0.3, 0.7, rng_seed=3), ops)
    assert [v[1] for v in got[4:20:2]] == [InputError] * 8
    assert sorted(oracle._parts) == [("f_y", 4), ("g_x", 1)]


@pytest.mark.parametrize("cls", [StochasticOracle, _RefOracle])
@pytest.mark.parametrize("batch", [np.uint8(250), np.int64(250)])
def test_a_numpy_integer_batch_is_counted_as_an_int(cls, batch):
    # two draws at np.uint8(250) once left counter == np.uint8(244), with an
    # overflow warning; the draws keep the bits of an int batch
    prob, x, y = _copying_problem(2, 2), [0.1, 0.2], [0.3, 0.4]
    seen = []
    for b in (batch, 250):
        oracle = cls(prob, 0.3, 0.7, rng_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seen.append([oracle.draw(w, x, y, b).tobytes() for w in ("f_y", "g_x")])
        assert oracle.counter == 500 and type(oracle.counter) is int
    assert seen[0] == seen[1]


def test_an_oracle_is_freed_without_the_cycle_collector():
    # the cached parts are plain tuples, not closures over the oracle, so an
    # oracle that has drawn every part is freed by its reference count alone
    oracle = StochasticOracle(_copying_problem(2, 3), 0.3, 0.7, rng_seed=1)
    for which in _ORACLE_PARTS:
        for batch in (1, 4):
            oracle.draw(which, [0.1, 0.2], [0.3, 0.4, 0.5], batch)
    gone = weakref.ref(oracle)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del oracle
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


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


def _package_gradient(value, dim, x, y):
    """``_as_gradient``'s vector, its floats checked: the entries of a vector
    of at most ``_FLOAT_STEP_DIM`` whose hypot is below 1e150, else None."""
    v, floats = _as_gradient(value, dim, "grad f_y", (x, y))
    small = dim <= core._FLOAT_STEP_DIM and math.hypot(*v.tolist()) < 1e150
    assert floats == (v.tolist() if small else None)
    return v


def _gradient_outcomes(fn, value, state):
    """Per dim 1, 2 and 9, what ``fn(value, dim, x, y)`` gives under
    np.errstate(over=state): its ``_outcome``, numpy's FloatingPointError
    included, and whether it returned ``value`` itself."""
    x, y = np.array([0.1]), np.array([0.2, 0.3])
    seen = []
    for dim in (1, 2, 9):
        kept = []

        def call():
            v = fn(value, dim, x, y)
            kept.append(v is value)
            return v

        with np.errstate(over=state):
            try:
                out = _outcome(call)
            except FloatingPointError as err:
                out = "raised", FloatingPointError, str(err)
        seen.append((out, kept))
    return seen


def _ref_gradient_f_y(value, dim, x, y):
    return _ref_gradient(value, dim, "grad f_y", x, y)


@pytest.mark.parametrize("value", _FINITE_CASES + _NON_FINITE_CASES)
def test_as_gradient_matches_the_reference_contract(value):
    # a float64 vector of the right shape comes back as it is, anything else
    # converted by as_vector or refused with its InputError; numpy warns of
    # the squared norm of 1e200 entries, which the entrywise test then passes
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        got = _gradient_outcomes(_package_gradient, value, "warn")
        assert got == _gradient_outcomes(_ref_gradient_f_y, value, "warn")
    for (out, _), dim in zip(got, (1, 2, 9)):
        if out[1] is NumericError:
            assert out[2] == "non-finite grad f_y encountered"
        assert (out[0] == "returned") == (np.size(value) == dim and np.ndim(value) <= 1
                                          and any(value is v for v in _FINITE_CASES))


@pytest.mark.parametrize("value", _FINITE_CASES + _NON_FINITE_CASES)
def test_as_gradient_under_over_raise_raises_only_where_a_norm_overflows(value):
    # a direct call under over="raise": numpy's FloatingPointError from the
    # squared norm of a finite vector whose norm overflows, else as before
    got = _gradient_outcomes(_package_gradient, value, "raise")
    assert got == _gradient_outcomes(_ref_gradient_f_y, value, "raise")
    raised = [out[1] is FloatingPointError for out, _ in got]
    assert raised == [value is _FINITE_CASES[2] and dim == 2 for dim in (1, 2, 9)]


def test_as_gradient_returns_a_finite_vector_whose_norm_overflows():
    big = np.array([1e200])
    with np.errstate(over="ignore"):
        assert _as_gradient(big, 1, "grad f_x", (np.array([0.1]), None)) == (big, None)


# ---------------------------------------------------------------------------
# overflow in the estimator and the oracle, called directly: numpy's error
# state decides, so the default state returns inf (and warns), "ignore"
# returns inf, and "raise" raises numpy's FloatingPointError; the drivers
# call them in the default state


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_estimate_follows_numpys_error_state(kernel, state):
    # (grad_x g(x, yK) - grad_x g(x, zK)) / sigma overflows
    pen = PenaltyObjective(kernel.problem, 1e-300)
    with np.errstate(over=state):
        if state == "raise":
            with pytest.raises(FloatingPointError, match="overflow encountered in divide"):
                hypergradient_estimate(pen, [0.1], [1e10, 0.0], [0.0, 0.0])
        else:
            est = hypergradient_estimate(pen, [0.1], [1e10, 0.0], [0.0, 0.0])
            assert est.tolist() == [-math.inf]


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_draw_follows_numpys_error_state(kernel, state):
    huge_mean = dataclasses.replace(
        kernel.problem, grad_f_y=lambda x, y: np.array([1.79e308, -1.79e308]))
    first = _replay_each(StochasticOracle(huge_mean, 1e308, 0.0, rng_seed=1),
                         [("f_y", 1, [0.1], [0.0, 0.0])], state)[0]
    if state == "raise":
        assert first[0] == ("raised", FloatingPointError, "overflow encountered in dot")
    else:  # mean + noise overflows
        assert np.frombuffer(first[0][2][2]).tolist() == [math.inf, -math.inf]
    # on the plain kernel z * scale overflows instead, in some draws only
    ops = [("f_y", batch, [0.1], [0.0, 0.0]) for batch in (1, 1, 3, 1, 2)]
    for prob, std in ((huge_mean, 1e308), (kernel.problem, 1.79e308)):
        want = _replay_each(_RefOracle(prob, std, 0.0, rng_seed=1), ops, state)
        assert _replay_each(StochasticOracle(prob, std, 0.0, rng_seed=1), ops, state) == want


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_an_overflowing_phase_follows_numpys_error_state(kernel, state):
    # the same overflows in phases, on f's parts or g's: inner-loop order at
    # batches 1-3, then the estimator's draws, across refills of 5-normal
    # blocks
    huge_mean = dataclasses.replace(
        kernel.problem, grad_f_y=lambda x, y: np.array([1.79e308, -1.79e308]))
    ops = [(which, batch, [0.1], [0.0, 0.0]) for batch in (1, 1, 3, 1, 2)
           for which in ("g_y", "f_y", "g_y")]
    ops += [(which, 3, [0.1], [0.0, 0.0]) for which in ("f_x", "g_x", "g_x")]
    for prob, stds in ((huge_mean, (1e308, 0.0)), (huge_mean, (1e308, 0.5)),
                       (kernel.problem, (1.79e308, 0.0)),
                       (kernel.problem, (1.79e308, 0.5)),
                       (kernel.problem, (0.0, 1.79e308))):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with np.errstate(over="ignore"):
                returned = [np.frombuffer(w[2][2]) for w in
                            _replay(_RefOracle(prob, *stds, rng_seed=1), ops)
                            if isinstance(w, tuple) and w[0] == "returned"]
        assert any(np.isinf(v).any() for v in returned)  # some draws overflow
        assert any(np.isfinite(v).all() for v in returned)  # and some do not
        want = _replay_each(_RefOracle(prob, *stds, rng_seed=1), ops, state)
        with mock.patch.object(core, "_NOISE_BLOCK", 5):
            got = _replay_each(StochasticOracle(prob, *stds, rng_seed=1), ops, state)
        assert got == want


def test_oracle_counter_is_not_a_constructor_argument(kernel):
    # a counter set at construction would disagree with the stream's position
    with pytest.raises(TypeError, match="counter"):
        StochasticOracle(kernel.problem, 0.1, 0.0, rng_seed=0, counter=5)
