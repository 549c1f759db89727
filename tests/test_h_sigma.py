"""Every consumer of the penalty h_sigma = sigma f + g, pinned bit for bit.

The value, gradient, smoothness constant and minimum of h_sigma are each
defined once (``core._h``, ``core._h_grad``, ``core._h_lipschitz``,
``inner._h_min``); the figures below were recorded before those definitions
were shared and must not move by a single bit.  Floats are compared through
``float.hex``, so NaN and signed zeros are pinned too.
"""

import math

import numpy as np
import pytest

from bipen import (
    PenaltyObjective,
    build_schedule,
    galet_residuals,
    get_problem,
    penalized_hyperobjective_value,
    pl_ratio_certificate,
    set_lipschitz_check,
)
from bipen.inner import probe_penalty_divergence

nan = math.nan


def _bits(v):
    """Exact image of a result: floats by their hex, containers entrywise."""
    if isinstance(v, (tuple, list)):
        return tuple(_bits(e) for e in v)
    if isinstance(v, np.ndarray):
        return _bits(v.tolist())
    if isinstance(v, (bool, int, np.integer)):
        return v
    return float(v).hex()


@pytest.mark.parametrize("name, x, sigma, want", [
    ("kernel_pl", [0.3], 0.1,
     (0.22272727272727272, 9.62964972193618e-34, 1.3877787807814457e-17, 0.0)),
    ("kernel_pl", [0.3], 0.5, (0.16333333333333333, 0.0, 0.0, 0.0)),
    ("sin_sq_pl", [0.4], 0.05,
     (0.25888198371986665, 8.842392953132225e-31, 1.214306433183765e-16, 0.0)),
    ("sin_sq_pl", [0.4], 0.2,
     (0.25560952673742837, 2.4078283256005484e-25, 1.2673195826096162e-13, 0.0)),
    # the box path: grid minima and a grid-spacing envelope, no residuals
    ("degenerate_penalty_boxed", [0.6], 0.1, (0.0, 1.6800000000000002e-14, nan, nan)),
    ("degenerate_penalty_boxed", [0.6], 0.5, (0.0, 4e-15, nan, nan)),
])
def test_penalized_value(name, x, sigma, want):
    p = PenaltyObjective(get_problem(name).problem, sigma)
    assert _bits(tuple(penalized_hyperobjective_value(p, x))) == _bits(want)


@pytest.mark.parametrize("name, x, y, want", [
    ("kernel_pl", [0.3], [0.5, 5.0], (0.5, 0.0, 0.020000000000000004, [0.5, 0.0])),
    ("discontinuous", [0.25], [0.5], (0.5, 0.0, 0.125, [0.0])),  # g* on the box
])
def test_galet_residuals(name, x, y, want):
    r = galet_residuals(get_problem(name).problem, x, y)
    assert _bits(tuple(r)) == _bits(want)


@pytest.mark.parametrize("sigma, want", [
    (0.0, (1.0, [0.3482212957990807], [1.2612048690288111, 0.8949076172313937],
           60, 0)),
    (0.5, (1.4999999999999953, [1.392577374196349],
           [1.2360846683920659, 1.5452986874057417], 60, 0)),
])
def test_pl_ratio_certificate(kernel, sigma, want):
    cert = pl_ratio_certificate(kernel.problem, sigma=sigma, probes=60)
    assert _bits(tuple(cert)) == _bits(want)


def test_set_lipschitz_worst_ratio(kernel):
    out = set_lipschitz_check(kernel, n_pairs=60, seed=4)
    assert _bits(out["worst_ratio"]) == _bits(0.7816400703935176)


def test_divergence_probe():
    # the schedule's sigma at epsilon = 0.1, which `bipen run` refuses with
    probe = probe_penalty_divergence(get_problem("degenerate_penalty").problem,
                                     [1.0], 0.00625)
    assert _bits(tuple(probe)) == _bits((True, 645, 4.006211180124177, 4.0))


def test_schedule_step(kernel):
    plan = build_schedule(kernel.problem.constants, 0.1, Delta=0.5, R=0.25)
    assert _bits(plan.tau) == _bits(0.9090909090909091)
