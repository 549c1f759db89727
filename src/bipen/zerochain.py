"""Zero-respecting certification harness for the worst-case chain instance.

A first-order method is zero-respecting when every point it queries is
supported on coordinates already revealed by earlier gradient outputs.  On
the chained instance (``problems.make_hard_instance``) each lower-level
gradient call can reveal at most one new coordinate, the upper objective only
sees the last q/2 of them, and q = 2*T*K -- so a T x K budget provably leaves
every hypergradient estimate at exactly zero and the upper iterate never
moves, despite ||grad phi(x_0)|| = 1.

The harness wraps the instance's oracles with a support tracker and runs an
algorithm adapter against the wrapped problem, then checks, all bitwise:

  (i)   the upper iterate stays exactly 0.0 for all T outer iterations;
  (ii)  the protected coordinates (last q/2) of every queried point and of
        the final inner iterates are exactly zero;
  (iii) every query's support is contained in the explored set and every
        gradient output grows it by at most one coordinate.

Tracked call counts are cross-checked against the adapter's declared budget;
a mismatch means calls bypassed the tracker and raises InstrumentationError
rather than producing a hollow PASS.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .drivers import build_schedule, run_f2ba
from .errors import InputError, InstrumentationError
from .problems import HardInstanceSpec, SuiteProblem, make_hard_instance
from .rng import substream  # unused here; perfbench/tracing.py patches zerochain.substream

_ZERO = np.array(0.0)  # 0-d: compares as the literal 0 does, cheaper per ufunc


class CallRecord(NamedTuple):
    kind: str            # which oracle: f_x, f_y, g_x, g_y, f, g
    query_support: tuple  # sorted indices; range(n) for a prefix support
    new_indices: tuple   # y coordinates first revealed by this call's output
    query_ok: bool       # query support contained in the explored set
    growth_ok: bool      # at most one new coordinate


@dataclass
class SupportTracker:
    """Records, per oracle call, query supports and explored-set growth.

    A tracker starts with nothing explored.  A boolean mask mirrors
    ``explored``, so a call costs a few vector passes, and a prefix support
    -- what a zero-respecting run queries on the chain -- is stored as a
    ``range``: the records grow linearly in the call count.
    """

    dim_y: int

    def __post_init__(self):
        self.explored = set()  # the coordinates some y-gradient made nonzero
        self.calls = []        # one CallRecord per oracle call
        self._mask = np.zeros(self.dim_y, dtype=bool)
        self._prefix = 0  # mask[:_prefix] is all True, mask[_prefix] False

    def _grow_prefix(self):  # O(dim_y) over the tracker's life: the mask only gains
        mask, i = self._mask, self._prefix
        while i < mask.size and mask[i]:
            i += 1
        self._prefix = i

    def note(self, kind: str, y, out_y=None):
        mask = self._mask
        nz = np.not_equal(y, _ZERO)  # NaN counts
        n = np.count_nonzero(nz)
        # the n nonzeros fill y[:n] when y has no zero or its first zero is at n
        if n == nz.size or nz.argmin() == n:
            q_supp = range(n)
            query_ok = bool(n <= self._prefix)
        else:
            idx = nz.nonzero()[0]
            q_supp = tuple(idx.tolist())
            query_ok = bool(mask[idx].all())
        new = ()
        growth_ok = True
        if out_y is not None:
            fresh = np.greater(np.not_equal(out_y, _ZERO), mask)  # (out != 0) & ~mask
            if np.count_nonzero(fresh):
                idx = fresh.nonzero()[0]
                new = tuple(idx.tolist())
                growth_ok = len(new) <= 1
                mask[idx] = True
                self.explored.update(new)
                self._grow_prefix()
        self.calls.append(CallRecord(kind, q_supp, new, query_ok, growth_ok))

    def counts(self) -> dict:
        return dict(Counter(rec.kind for rec in self.calls))

    def max_query_index(self) -> int:
        return max((rec.query_support[-1] for rec in self.calls if rec.query_support),
                   default=-1)


def tracked_instance(instance: SuiteProblem, tracker: SupportTracker) -> SuiteProblem:
    """Clone of the instance whose oracles report to ``tracker``; row oracles
    are dropped, so every value call reaches ``f`` and ``g``."""
    prob = instance.problem

    def wrap_query(kind, fn):  # values and x-gradients reveal no y coordinate
        def wrapped(x, y):
            tracker.note(kind, y)
            return fn(x, y)
        return wrapped

    def wrap_y_grad(kind, fn):
        def wrapped(x, y):
            out = fn(x, y)
            tracker.note(kind, y, out_y=out)
            return out
        return wrapped

    tracked = dataclasses.replace(
        prob,
        f=wrap_query("f", prob.f),
        g=wrap_query("g", prob.g),
        grad_f_x=wrap_query("f_x", prob.grad_f_x),
        grad_g_x=wrap_query("g_x", prob.grad_g_x),
        grad_f_y=wrap_y_grad("f_y", prob.grad_f_y),
        grad_g_y=wrap_y_grad("g_y", prob.grad_g_y),
        f_rows=None, g_rows=None,  # every value call goes through f and g
    )
    return dataclasses.replace(instance, problem=tracked)


# ---------------------------------------------------------------------------
# adapters


class F2BAAdapter:
    """Runs the deterministic penalty method with a forced T x K budget."""

    name = "f2ba"
    sigma = 1.0
    eta = 0.1

    def run(self, instance: SuiteProblem, T: int, K: int):
        prob = instance.problem
        # Delta = phi(0) - inf phi and R = ||0 - beta*1||^2 = q beta^2 = 1
        plan = build_schedule(
            prob.constants, epsilon=0.1, Delta=0.5, R=1.0,
            overrides={"sigma": self.sigma, "eta": self.eta, "T": T, "K": K},
            provenance={"Delta": "analytic", "R": "analytic"},
        )
        return run_f2ba(prob, plan)

    def expected_counts(self, T: int, K: int) -> dict:
        return {"f_y": T * K, "g_y": 2 * T * K, "f_x": T, "g_x": 2 * T}


class CoordinateProbeAdapter(F2BAAdapter):
    """Deliberately non-zero-respecting: peeks at an unexplored coordinate.

    Before running the method it queries the lower-level gradient at a unit
    vector on the last coordinate, which no zero-respecting run could have
    revealed.  Used to show the detector is not vacuous.
    """

    name = "f2ba+probe"

    def run(self, instance: SuiteProblem, T: int, K: int):
        prob = instance.problem
        y_peek = np.zeros(prob.dim_y)
        y_peek[-1] = 1.0
        prob.grad_g_y(np.zeros(prob.dim_x), y_peek)
        return super().run(instance, T, K)

    def expected_counts(self, T: int, K: int) -> dict:
        out = super().expected_counts(T, K)
        out["g_y"] += 1
        return out


# ---------------------------------------------------------------------------
# certification


@dataclass
class CertificationReport:
    T: int
    K: int
    q: int
    adapter: str
    x_trajectory: list
    checks: dict
    violations: list
    counts: dict
    expected_counts: dict
    max_query_index: int
    explored_size: int
    grad_phi_at_start: float

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def render_text(self) -> str:
        lines = [
            f"zero-respecting certification: adapter={self.adapter} "
            f"T={self.T} K={self.K} (q={self.q})",
            f"  analytic ||grad phi(x_0)|| = {self.grad_phi_at_start:g} "
            f"(progress was available)",
        ]
        label = {
            "x_stays_zero":
                "(i)   upper iterate bitwise zero for all outer iterations",
            "protected_coords_zero":
                "(ii)  protected coordinates (last q/2) never touched",
            "support_growth":
                "(iii) queries contained in explored set; growth <= 1/call",
        }
        for key, ok in self.checks.items():
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label[key]}")
        for v in self.violations:
            lines.append(f"    - {v}")
        lines.append(
            f"  tracked first-order calls: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.counts.items())
                       if k in ("f_x", "f_y", "g_x", "g_y"))
            + " (matches the adapter budget)"
        )
        lines.append(
            f"  max queried y-coordinate: {self.max_query_index} "
            f"(protected range starts at {self.q // 2}); "
            f"explored {self.explored_size}/{self.q}"
        )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def summary_row(self) -> dict:
        return {
            "adapter": self.adapter, "T": self.T, "K": self.K, "q": self.q,
            **{k: int(v) for k, v in self.checks.items()},
            "passed": int(self.passed),
            "max_query_index": self.max_query_index,
            "explored_size": self.explored_size,
        }


def run_zero_respecting(adapter, T: int, K: int,
                        instance: Optional[SuiteProblem] = None) -> CertificationReport:
    """Certify an adapter on the (T, K)-sized chain instance.

    Builds the instance when not supplied (a supplied one must match the
    budget: q = 2*T*K).  Raises InstrumentationError when tracked call counts
    disagree with the adapter's declared budget, since the certification
    would then be vacuous.
    """
    if T < 1 or K < 1:
        raise InputError(f"certification needs T >= 1 and K >= 1, got T={T}, K={K}")
    if instance is None:
        instance = make_hard_instance(HardInstanceSpec(T=T, K=K))
    q = instance.problem.dim_y
    if q != 2 * T * K:
        raise InputError(
            f"instance has dim_y={q} but the (T={T}, K={K}) budget needs q={2 * T * K}"
        )
    tracker = SupportTracker(dim_y=q)
    tracked = tracked_instance(instance, tracker)
    trace = adapter.run(tracked, T, K)

    half = q // 2
    violations = []

    xs = [r.x for r in trace.rows] + [tuple(trace.final_state.x)]
    x_zero = all(all(v == 0.0 for v in xv) for xv in xs)
    if not x_zero:
        bad_t = next(i for i, xv in enumerate(xs) if any(v != 0.0 for v in xv))
        violations.append(f"check (i): x moved at outer iteration {bad_t}: "
                          f"{tuple(map(float, xs[bad_t]))}")

    touched = [rec for rec in tracker.calls
               if rec.query_support and rec.query_support[-1] >= half]
    tail_y = np.asarray(trace.final_state.y)[half:]
    tail_z = np.asarray(trace.final_state.z)[half:]
    protected = (not touched) and bool(np.all(tail_y == 0.0) and np.all(tail_z == 0.0))
    if touched:
        violations.append(
            f"check (ii): {len(touched)} call(s) queried protected coordinates, "
            f"first: {touched[0].kind} support={tuple(touched[0].query_support[-5:])}"
        )
    elif not protected:
        violations.append("check (ii): final inner iterates carry nonzeros in "
                          "the protected range")

    bad_calls = [(i, rec) for i, rec in enumerate(tracker.calls)
                 if not (rec.query_ok and rec.growth_ok)]
    growth = not bad_calls
    if bad_calls:
        i, rec = bad_calls[0]
        reason = "query outside explored set" if not rec.query_ok else \
                 f"output revealed {len(rec.new_indices)} coordinates at once"
        violations.append(f"check (iii): call #{i} ({rec.kind}): {reason}")

    counts = tracker.counts()
    expected = adapter.expected_counts(T, K)
    got = {k: counts.get(k, 0) for k in expected}
    if got != expected:
        raise InstrumentationError(
            f"tracked call counts {got} disagree with the adapter budget "
            f"{expected}; calls bypassed the tracker"
        )

    grad0 = float(np.linalg.norm(
        instance.problem.analytic_grad_phi(np.zeros(instance.problem.dim_x))))
    return CertificationReport(
        T=T, K=K, q=q, adapter=getattr(adapter, "name", type(adapter).__name__),
        x_trajectory=[xv[0] for xv in xs],
        checks={
            "x_stays_zero": x_zero,
            "protected_coords_zero": protected,
            "support_growth": growth,
        },
        violations=violations,
        counts=counts,
        expected_counts=expected,
        max_query_index=tracker.max_query_index(),
        explored_size=len(tracker.explored),
        grad_phi_at_start=grad0,
    )
