import os

import numpy as np
import pytest

from bipen import get_problem


@pytest.fixture(autouse=True)
def _no_bipen_settings_from_the_environment(monkeypatch):
    """The CLI reads ``BIPEN_<KEY>`` as a settings layer; a caller's exported
    override must not change what a test runs or compares."""
    for key in [k for k in os.environ if k.startswith("BIPEN_")]:
        monkeypatch.delenv(key)


def central_fd_grad(fn, v, h=1e-6):
    """Independent derivative oracle: plain central differences, no reuse of
    any package gradient code."""
    v = np.asarray(v, dtype=float)
    g = np.zeros(v.shape)
    for i in range(v.size):
        e = np.zeros(v.shape)
        e[i] = h
        g[i] = (fn(v + e) - fn(v - e)) / (2.0 * h)
    return g


@pytest.fixture
def kernel():
    return get_problem("kernel_pl")


@pytest.fixture
def quadratic():
    return get_problem("quadratic_sc")


@pytest.fixture
def sin_sq():
    return get_problem("sin_sq_pl")


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion

ACCEPTANCE_RESULTS = []


@pytest.fixture
def criterion():
    def _record(num: int, name: str, ok: bool, detail: str):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
        ACCEPTANCE_RESULTS.append((num, line))
        assert ok, line

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
