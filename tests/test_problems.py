import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import ConfigError, InputError, get_problem, list_problems
from bipen.core import as_vector
from bipen.problems import (
    HardInstanceSpec,
    _hermite_p,
    _hermite_p_d1,
    _sc,
    _sin_sq,
    _sin_sq_d1,
    certify_sin_sq_mu,
    chain_min_eigenvalue,
    make_hard_instance,
    psi,
    psi_envelopes,
    psi_prime,
    zero_chain_hessian,
    zero_chain_value_grad,
)
from bipen.rng import substream

from conftest import central_fd_grad

ALL_NAMES = (
    "quadratic_sc", "kernel_pl", "kernel_pl_fnoise", "kernel_pl_gnoise",
    "kernel_pl_noisy", "sin_sq_pl", "discontinuous", "discontinuous_smoothed",
    "degenerate_penalty", "degenerate_penalty_boxed", "hard_instance",
)


def test_registry_contents():
    assert tuple(list_problems()) == ALL_NAMES
    with pytest.raises(ConfigError) as err:
        get_problem("no_such_problem")
    assert "quadratic_sc" in str(err.value)


@pytest.mark.parametrize("name", [n for n in ALL_NAMES
                                  if get_problem(n).sample_y_star is not None])
def test_every_set_sampler_returns_1_to_n_finite_rows(name):
    # SuiteProblem's contract: an (m, dim_y) float array with 1 <= m <= n;
    # quadratic_sc's set is one point, which comes back as one row
    suite = get_problem(name)
    lo, hi = suite.problem.meta.x_window
    for x in (lo, 0.5 * (lo + hi), hi):
        for s in (0.0, 0.5 * suite.problem.constants.sigma_bar,
                  suite.problem.constants.sigma_bar):
            for n in (1, 2, 51):
                pts = suite.sample_y_star(x, s, n)
                assert type(pts) is np.ndarray and pts.dtype == float
                assert pts.ndim == 2 and pts.shape[1] == suite.problem.dim_y
                assert 1 <= pts.shape[0] <= n and np.isfinite(pts).all()
    assert (suite.sample_y_star(0.3, 0.0, 51).shape[0] == 1) == (name == "quadratic_sc")


@pytest.mark.parametrize("x", [0.3, np.float64(0.3), [0.3], np.array([0.3]),
                               np.array(0.3)])
def test_scalar_view_takes_a_scalar_or_a_length_1_vector(x):
    assert _sc(x) == 0.3


@pytest.mark.parametrize("x", [np.array([0.3, 0.7]), [0.3, 0.7], [], [[0.3]]])
def test_scalar_view_refuses_every_other_shape(x):
    # it used to return the first entry of a longer vector
    with pytest.raises(InputError, match="scalar or a vector of length 1"):
        _sc(x)
    s = get_problem("quadratic_sc")
    for ref in (lambda: s.phi_sigma(x, 0.5), lambda: s.project_y_star(x, [0.0, 0.0], 0.0),
                lambda: s.sample_y_star(x, 0.0, 1)):
        with pytest.raises(InputError):
            ref()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_declared_gradients_match_finite_differences(name):
    # Central differences of the declared objectives are the ground truth for
    # every gradient callable in the registry.
    suite = get_problem(name)
    prob = suite.problem
    meta = prob.meta
    rng = substream(101, "fd", name)
    for _ in range(12):
        x = rng.uniform(*meta.x_window, size=prob.dim_x)
        y = rng.uniform(*meta.y_window, size=prob.dim_y)
        for fn, gx, gy in ((prob.f, prob.grad_f_x, prob.grad_f_y),
                           (prob.g, prob.grad_g_x, prob.grad_g_y)):
            fd_x = central_fd_grad(lambda v: fn(v, y), x)
            fd_y = central_fd_grad(lambda v: fn(x, v), y)
            assert np.allclose(fd_x, gx(x, y), atol=5e-6), (name, "x-grad", x, y)
            assert np.allclose(fd_y, gy(x, y), atol=5e-6), (name, "y-grad", x, y)


@pytest.mark.parametrize("name", ("quadratic_sc", "kernel_pl", "sin_sq_pl",
                                  "discontinuous_smoothed", "degenerate_penalty"))
def test_declared_hessians_match_finite_differences(name):
    suite = get_problem(name)
    prob = suite.problem
    meta = prob.meta
    rng = substream(102, "fd-hess", name)
    for _ in range(6):
        x = rng.uniform(*meta.x_window, size=prob.dim_x)
        y = rng.uniform(*meta.y_window, size=prob.dim_y)
        fd_yy = np.column_stack([
            central_fd_grad(lambda v: float(prob.grad_g_y(x, v)[i]), y)
            for i in range(prob.dim_y)
        ]).T
        assert np.allclose(fd_yy, prob.hess_g_yy(x, y), atol=5e-5)
        fd_xy = np.array([
            central_fd_grad(lambda v: float(prob.grad_g_x(v, y)[i]), x)
            for i in range(prob.dim_x)
        ])
        # hess_g_xy rows are d(grad_x g)/dy
        fd_xy2 = np.array([
            central_fd_grad(lambda v: float(prob.grad_g_x(x, v)[i]), y)
            for i in range(prob.dim_x)
        ])
        assert np.allclose(fd_xy2, prob.hess_g_xy(x, y), atol=5e-5)
        del fd_xy


def test_kernel_penalized_facts(kernel):
    # phi_sigma(0; 1/4) = 1/(2*1.25) = 0.4 and d/dx phi_sigma(0; 1/4) = -0.8;
    # phi_sigma is quadratic in x, so a central difference is exact to rounding
    assert kernel.phi_sigma(0.0, 0.25) == pytest.approx(0.4, abs=1e-15)
    h = 1e-4
    slope = (kernel.phi_sigma(h, 0.25) - kernel.phi_sigma(-h, 0.25)) / (2 * h)
    assert slope == pytest.approx(-0.8, abs=1e-10)
    assert kernel.phi_inf == 0.0
    # projection lands on the penalized stationary line: grad_y h = 0 there
    prob = kernel.problem
    for x, s in ((0.2, 0.3), (1.5, 1.0)):
        y_star = kernel.project_y_star([x], [0.7, -2.0], s)
        gh = s * prob.grad_f_y([x], y_star) + prob.grad_g_y([x], y_star)
        assert np.allclose(gh, 0.0, atol=1e-15)
        assert y_star[1] == -2.0  # kernel coordinate untouched
    sampled = kernel.sample_y_star(0.4, 0.2, n=17)
    assert sampled.shape == (17, 2)
    assert np.allclose(sampled[:, 0], (0.4 + 0.2) / 1.2, atol=1e-15)


def test_quadratic_facts(quadratic):
    prob = quadratic.problem
    assert prob.analytic_phi([0.5]) == pytest.approx(0.25, abs=1e-15)  # = phi_inf
    assert quadratic.phi_inf == 0.25
    for x, s in ((0.3, 0.4), (-1.0, 1.7)):
        y_star = quadratic.project_y_star([x], None, s)
        gh = s * prob.grad_f_y([x], y_star) + prob.grad_g_y([x], y_star)
        assert np.allclose(gh, 0.0, atol=1e-15)


def test_sin_sq_certificate_and_nonconvexity(sin_sq):
    mu = sin_sq.problem.constants.mu
    assert 0.10 < mu < 0.20
    assert mu == certify_sin_sq_mu()
    # a finer grid cannot undercut the 0.95-margin certificate
    u = np.linspace(-10.0, 10.0, 8001)
    u = u[np.abs(u) > 1e-9]
    assert (_sin_sq_d1(u) ** 2 / (2.0 * _sin_sq(u))).min() >= mu
    # the lower level is genuinely nonconvex: curvature -4 at y - x = pi/2
    h = sin_sq.problem.hess_g_yy([0.0], [math.pi / 2])
    assert h[0, 0] == pytest.approx(-4.0, abs=1e-12)


def test_discontinuous_jump_in_closed_form():
    s = get_problem("discontinuous")
    phi = s.problem.analytic_phi
    assert phi([-1e-3]) - phi([1e-3]) == pytest.approx(1.0, abs=1e-5)
    assert phi([0.0]) == 0.0
    sm = get_problem("discontinuous_smoothed")
    assert sm.problem.analytic_phi([-1e-3]) == pytest.approx(1.0, abs=2e-3)
    assert sm.problem.analytic_phi([1e-3]) == pytest.approx(0.0, abs=2e-3)


def test_degenerate_variants():
    s = get_problem("degenerate_penalty")
    assert s.problem.meta.penalty_divergent
    b = get_problem("degenerate_penalty_boxed")
    assert b.phi_sigma(0.7, 0.5) == 0.0
    assert b.phi_sigma(-0.7, 0.5) == -0.7


# ---------------------------------------------------------------------------
# chain construction


def test_chain_value_and_gradient_at_zero():
    # value (0-1)^2/8 = 1/8; gradient supported on the first coordinate only,
    # with exact floating-point zeros elsewhere
    for q in (1, 2, 5, 64):
        val, grad = zero_chain_value_grad(q, np.zeros(q))
        assert val == 0.125
        assert grad[0] == -0.25
        assert all(v == 0.0 for v in grad[1:])


def test_chain_gradient_matches_finite_differences():
    rng = substream(7, "chain-fd")
    for q in (1, 2, 3, 9):
        z = rng.uniform(-2, 2, size=q)
        fd = central_fd_grad(lambda v: zero_chain_value_grad(q, v)[0], z)
        assert np.allclose(fd, zero_chain_value_grad(q, z)[1], atol=1e-6)


def test_chain_hessian_consistency():
    # the chain is quadratic: grad(z) = A z + grad(0) exactly
    rng = substream(8, "chain-hess")
    for q in (1, 2, 6):
        A = zero_chain_hessian(q)
        g0 = zero_chain_value_grad(q, np.zeros(q))[1]
        z = rng.uniform(-3, 3, size=q)
        assert np.allclose(zero_chain_value_grad(q, z)[1], A @ z + g0, atol=1e-12)
        assert np.allclose(A, A.T)


def test_chain_minimum_eigenvalue_closed_form():
    # dense eigensolve agrees with sin^2(pi / (2(2q+1))) for the fixed-free
    # tridiagonal chain; q=1 gives exactly 1/4
    assert chain_min_eigenvalue(1) == pytest.approx(0.25, abs=1e-14)
    for q in (2, 3, 10, 40):
        dense = float(np.linalg.eigvalsh(zero_chain_hessian(q))[0])
        formula = math.sin(math.pi / (2 * (2 * q + 1))) ** 2
        assert dense == pytest.approx(formula, abs=1e-12), q
    assert chain_min_eigenvalue(2) == pytest.approx(0.09549150281252627, abs=1e-12)


def test_bump_knot_values_and_exact_zeros():
    b = 0.125
    assert psi(0.0, b) == 0.0 and psi_prime(0.0, b) == 0.0  # bitwise
    assert psi(b, b) == pytest.approx(b * b / 2, abs=1e-16)
    assert psi(2 * b, b) == pytest.approx(b * b, rel=1e-12)
    assert psi(5 * b, b) == b * b  # constant branch, exact
    assert psi_prime(2.5 * b, b) == 0.0
    # continuity across both knots (quintic blend meets both quadratics)
    for t0 in (b, 2 * b):
        lo, hi = psi(t0 - 1e-9, b), psi(t0 + 1e-9, b)
        assert abs(hi - lo) < 1e-8
        dlo, dhi = psi_prime(t0 - 1e-9, b), psi_prime(t0 + 1e-9, b)
        assert abs(dhi - dlo) < 1e-6


def test_bump_symmetry_and_derivative():
    b = 0.2
    ts = np.linspace(-0.55, 0.55, 223)  # grid avoids the knots
    assert np.array_equal(psi(ts, b), psi(-ts, b))
    assert np.array_equal(psi_prime(ts, b), -psi_prime(-ts, b))
    for t in (-0.3, 0.05, 0.17, 0.33, 0.5):
        fd = (psi(t + 1e-7, b) - psi(t - 1e-7, b)) / 2e-7
        assert psi_prime(t, b) == pytest.approx(fd, abs=1e-6)


def test_bump_envelopes_are_in_expected_ranges():
    # ranges frozen from a direct enumeration of the quintic blend on [1, 2]
    env = psi_envelopes()
    assert 1.0 <= env["gamma0"] < 1.1
    assert 1.0 < env["gamma1"] < 1.1
    assert 1.5 < env["gamma2"] < 2.0
    assert 14.0 < env["gamma3"] < 16.0
    # the envelopes actually bound psi and psi' for an unrelated beta
    b = 0.37
    ts = np.linspace(-3 * b, 3 * b, 4001)
    assert float(psi(ts, b).max()) <= env["gamma0"] * b * b + 1e-15
    assert float(np.abs(psi_prime(ts, b)).max()) <= env["gamma1"] * b + 1e-15


def test_hard_instance_geometry():
    spec = HardInstanceSpec(T=3, K=4)
    assert spec.q == 24 and spec.beta == pytest.approx(1 / math.sqrt(24))
    with pytest.raises(ConfigError):
        HardInstanceSpec(T=0, K=5)
    s = make_hard_instance(spec)
    prob = s.problem
    q, b = spec.q, spec.beta
    y_star = np.full(q, b)
    # the chain's minimizer is the all-beta vector (zero gradient, exactly)
    assert np.all(prob.grad_g_y([0.0], y_star) == 0.0)
    assert prob.g([0.0], y_star) == 0.0
    # there the bump sum is q/2 * beta^2/2 = 1/4, so f = (x+1)^2 / 2 = phi
    for x in (-1.7, -0.5, 0.0):
        assert prob.f([x], y_star) == pytest.approx(0.5 * (x + 1) ** 2, rel=1e-12)
        assert prob.analytic_phi([x]) == pytest.approx(0.5 * (x + 1) ** 2)
    assert prob.g([0.0], np.zeros(q)) == pytest.approx(b * b * 0.125, rel=1e-14)


def test_hard_instance_upper_gradients_vanish_on_first_half():
    s = make_hard_instance(HardInstanceSpec(T=2, K=3))
    prob = s.problem
    q = prob.dim_y
    rng = substream(5, "hard-zeros")
    y = np.zeros(q)
    y[: q // 2] = rng.uniform(-1, 1, size=q // 2)
    assert np.all(prob.grad_f_y([0.0], y) == 0.0)  # bitwise
    assert prob.f([0.0], y) == 0.0
    assert np.all(prob.grad_f_x([0.0], y) == 0.0)


def test_hard_instance_gradient_bound_matches_declaration():
    s = make_hard_instance(HardInstanceSpec(T=2, K=4))
    prob = s.problem
    c = prob.constants
    meta = prob.meta
    rng = substream(6, "hard-cf")
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(*meta.x_window, size=1)
        y = rng.uniform(*meta.y_window, size=prob.dim_y)
        worst = max(worst, float(np.linalg.norm(prob.grad_f_y(x, y))))
    assert worst <= c.C_f * (1 + 1e-12)
    assert c.mu == pytest.approx(chain_min_eigenvalue(prob.dim_y), abs=1e-15)


def test_hard_instance_hessian_is_the_chain_hessian():
    spec = HardInstanceSpec(T=2, K=3)
    q = spec.q
    H = make_hard_instance(spec).problem.hess_g_yy([0.0], np.zeros(q))
    assert H.shape == (q, q) and np.array_equal(H, zero_chain_hessian(q))


def test_hard_instance_build_memory_is_linear_in_q():
    # q = 3200: a dense Hessian alone would take q^2 * 8 B = 82 MB
    tracemalloc.start()
    try:
        make_hard_instance(HardInstanceSpec(T=40, K=40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# reference bump: psi and psi' as they stood when the blend was evaluated on
# every entry, kept verbatim; the package's must match them bit for bit.


def _ref_psi(t, beta: float):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    safe = np.where((a > beta) & (a <= 2.0 * beta), a, 1.5 * beta)
    out = np.where(
        a <= beta, 0.5 * t * t,
        np.where(a <= 2.0 * beta, _hermite_p(safe, beta), beta * beta),
    )
    return out if out.ndim else float(out)


def _ref_psi_prime(t, beta: float):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    safe = np.where((a > beta) & (a <= 2.0 * beta), a, 1.5 * beta)
    out = np.where(
        a <= beta, t,
        np.where(a <= 2.0 * beta, np.sign(t) * _hermite_p_d1(safe, beta), 0.0),
    )
    return out if out.ndim else float(out)


def _bump_bits(v):
    if isinstance(v, float):
        return "float", np.float64(v).tobytes()
    return type(v).__name__, v.dtype.str, v.shape, v.tobytes()


def _special_points(b):
    knots = [b, 2.0 * b]
    near = [np.nextafter(k, d) for k in knots for d in (0.0, math.inf)]
    pts = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1.5 * b, 3.0 * b,
           0.5 * b] + knots + near
    return pts + [-p for p in pts]


@pytest.mark.parametrize("b", [0.125, 1.0 / math.sqrt(3200), 0.37, 2.0])
def test_bump_matches_the_reference_on_special_values(b):
    pts = _special_points(b)
    scalars = pts + [np.float64(b), 1, np.array(1.5 * b), np.array(math.nan)]
    arrays = (np.array(pts), np.array(pts).reshape(2, -1), np.zeros(0),
              np.zeros(3200), np.array(pts)[::3])
    for fn, ref in ((psi, _ref_psi), (psi_prime, _ref_psi_prime)):
        for t in scalars + list(arrays):
            assert _bump_bits(fn(t, b)) == _bump_bits(ref(t, b)), (fn.__name__, t)
    assert isinstance(psi(1.5 * b, b), float) and isinstance(psi_prime(0, b), float)


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(1e-3, 10.0),
    scaled=st.lists(st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=True),
                              st.sampled_from([1.0, 2.0, -1.0, -2.0, 0.0, -0.0])),
                    min_size=0, max_size=40),
)
def test_bump_matches_the_reference_on_random_arrays(b, scaled):
    # entries in [-3 beta, 3 beta] hit every branch; raw floats add NaN, inf
    # and huge values (whose squares overflow); the sampled multiples land on
    # the knots
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.array(scaled, dtype=float) * b
        for fn, ref in ((psi, _ref_psi), (psi_prime, _ref_psi_prime)):
            assert _bump_bits(fn(t, b)) == _bump_bits(ref(t, b))
            for v in t[:3]:
                assert _bump_bits(fn(float(v), b)) == _bump_bits(ref(float(v), b))


@pytest.mark.parametrize("q", [1, 50, 800])
def test_chain_minimum_eigenvalue_is_the_closed_form_for_every_q(q):
    lam = chain_min_eigenvalue(q)
    assert lam == float(np.sin(np.pi / (2.0 * (2.0 * q + 1.0))) ** 2)
    dense = float(np.linalg.eigvalsh(zero_chain_hessian(q))[0])
    assert lam == pytest.approx(dense, rel=1e-9, abs=1e-15)


def test_chain_minimum_eigenvalue_rejects_an_empty_chain():
    with pytest.raises(InputError):
        chain_min_eigenvalue(0)


# ---------------------------------------------------------------------------
# reference chain: zero_chain_value_grad as it stood before its gradient
# moved into a gradient-only helper, kept verbatim.  The package's chain and
# the hard instance's grad_g_y (which used to be b * this gradient at y / b)
# must match it bit for bit.


def _ref_zero_chain_value_grad(q: int, z):
    if q < 1:
        raise InputError(f"chain length q must be >= 1, got {q}")
    z = as_vector(z, q, "z")
    if q == 1:
        return 0.125 * (z[0] - 1.0) ** 2, np.array([0.25 * (z[0] - 1.0)])
    d = np.diff(z)
    val = 0.125 * (z[0] - 1.0) ** 2 + 0.125 * float(d @ d)
    grad = np.zeros(q)
    grad[0] = 0.25 * (z[0] - 1.0)
    grad[:-1] -= 0.25 * d
    grad[1:] += 0.25 * d
    return float(val), grad


@functools.lru_cache(maxsize=None)
def _hard_instance(q):
    return make_hard_instance(HardInstanceSpec(T=q // 2, K=1))


_CHAIN_ENTRIES = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                     1.7e308, math.inf, -math.inf, math.nan]),
)


@st.composite
def _chain_points(draw, q):
    """Prefix-supported points (what a zero-respecting run queries) or
    arbitrary ones."""
    if draw(st.booleans()):
        n = draw(st.integers(0, q))
        head = draw(st.lists(_CHAIN_ENTRIES, min_size=n, max_size=n))
        return np.array(head + [draw(st.sampled_from([0.0, -0.0]))] * (q - n))
    return np.array(draw(st.lists(_CHAIN_ENTRIES, min_size=q, max_size=q)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), half=st.integers(1, 32))
def test_chain_gradients_match_the_reference_bitwise(data, half):
    q = 2 * half
    y = data.draw(_chain_points(q))
    s, b = _hard_instance(q), HardInstanceSpec(T=half, K=1).beta
    with np.errstate(all="ignore"):
        want = b * _ref_zero_chain_value_grad(q, y / b)[1]
        got = s.problem.grad_g_y(np.zeros(1), y)
        assert got.dtype == want.dtype and got.shape == (q,)
        assert got.tobytes() == want.tobytes()
        for z, n in ((y, q), (y[:1], 1)):
            val, grad = zero_chain_value_grad(n, z)
            ref_val, ref_grad = _ref_zero_chain_value_grad(n, z)
            assert np.float64(val).tobytes() == np.float64(ref_val).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()


@settings(max_examples=300, deadline=None)
@given(b=st.floats(1e-3, 10.0),
       scaled=st.lists(st.one_of(st.floats(-1.0, 1.0),
                                 st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324,
                                                  np.nextafter(1.0, 0.0)])),
                       min_size=0, max_size=40))
def test_bump_derivative_inside_the_quadratic_zone_matches_the_reference(b, scaled):
    # every |t| <= beta (where psi' is t itself), with the knots +-beta, -0.0
    # and subnormal products; scalars keep returning a float
    t = np.array(scaled, dtype=float) * b  # |v| <= 1, so |v * b| <= b
    out = psi_prime(t, b)
    assert _bump_bits(out) == _bump_bits(_ref_psi_prime(t, b))
    assert not np.shares_memory(out, t)
    for v in list(t[:3]) + [b, -b, -0.0]:
        got = psi_prime(float(v), b)
        assert type(got) is float
        assert _bump_bits(got) == _bump_bits(_ref_psi_prime(float(v), b))


# reference upper y-gradient of the hard instance: its grad_f_y as it stood
# when psi' copied its input on the quadratic piece, kept verbatim (psi' is
# the reference bump above, which the package's matches bit for bit).


def _ref_hard_grad_f_y(q, b, x, y):
    half = q // 2
    out = np.zeros(q)
    out[half:] = 2.0 * (x[0] + 1.0) ** 2 * _ref_psi_prime(y[half:], b)
    return out


@st.composite
def _bump_points(draw, q, b):
    """Points whose last q/2 entries lie on psi's quadratic piece (every
    |t| <= beta), on one side of it (every t <= beta, or every t >= -beta) or
    anywhere: the blend, beyond 2 beta, the knots, +-0.0, subnormals, NaN and
    inf; the first q/2 entries are arbitrary."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, b, -b, np.nextafter(b, 0.0),
                np.nextafter(b, 1.0), 2.0 * b, -2.0 * b, np.nextafter(2.0 * b, 1.0)]
    inside = st.one_of(st.floats(-1.0, 1.0).map(lambda v: v * b),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, b, -b]))
    anywhere = st.one_of(st.floats(-3.0, 3.0).map(lambda v: v * b),
                         st.sampled_from(specials + [math.nan, math.inf, -math.inf,
                                                     1e300, -1e300]))
    below = st.floats(-3.0, 1.0).map(lambda v: v * b)  # every t <= beta
    above = st.floats(-1.0, 3.0).map(lambda v: v * b)  # every t >= -beta
    half = q // 2
    head = draw(st.lists(anywhere, min_size=half, max_size=half))
    tail = draw(st.lists(draw(st.sampled_from([inside, below, above, anywhere])),
                         min_size=half, max_size=half))
    return np.array(head + tail)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), half=st.integers(1, 32),
       x=st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([0.0, -0.0, -1.0, 1e200, 5e-324, math.nan,
                                    math.inf, -math.inf])))
def test_hard_instance_upper_y_gradient_matches_the_reference_bitwise(data, half, x):
    q = 2 * half
    s, b = _hard_instance(q), HardInstanceSpec(T=half, K=1).beta
    y = data.draw(_bump_points(q, b))
    xv = np.array([x])
    with np.errstate(all="ignore"):
        want = _ref_hard_grad_f_y(q, b, xv, y)
        got = s.problem.grad_f_y(xv, y)
    assert got.dtype == want.dtype and got.shape == (q,)
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, y)
