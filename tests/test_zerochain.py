import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipen import (
    CoordinateProbeAdapter,
    F2BAAdapter,
    HardInstanceSpec,
    InputError,
    InstrumentationError,
    SupportTracker,
    build_schedule,
    get_problem,
    grid_hyper_objective,
    make_hard_instance,
    run_f2ba,
    run_zero_respecting,
)
from bipen.problems import _chain_grad
from bipen.rng import substream
from bipen.zerochain import CallRecord, tracked_instance


@pytest.mark.parametrize("q", [1, 2, 7, 40])
def test_support_lemma_on_chain_gradients(q):
    # for every prefix length j = 0..q and 8 random fillings of that prefix
    # on [-2, 2], the chain gradient's support lies in the first j+1
    # coordinates: a prefix support grows by at most one index
    rng = substream(2024, "support-lemma", q)
    for j in range(q + 1):
        for _ in range(8):
            z = np.zeros(q)
            if j:
                z[:j] = rng.uniform(-2.0, 2.0, size=j)
            supp = _ref_support(_chain_grad(z, np.empty(q)))
            assert not supp or supp[-1] <= j, (j, supp)  # 0-based: index j may appear


def test_a_tracked_instance_carries_no_row_oracles():
    # a row oracle evaluates a whole grid in one call the tracker never sees
    suite = get_problem("discontinuous")
    assert suite.problem.f_rows is not None and suite.problem.g_rows is not None
    tracker = SupportTracker(dim_y=1)
    tracked = tracked_instance(suite, tracker).problem
    assert tracked.f_rows is None and tracked.g_rows is None
    value = grid_hyper_objective(tracked, [0.3])
    assert value.hex() == grid_hyper_objective(suite.problem, [0.3]).hex()
    assert tracker.counts() == {"g": 5001, "f": 1}  # one tie, at y = 0


def test_tracker_flags_query_outside_explored_set():
    tr = SupportTracker(dim_y=4)
    tr.note("g_y", np.array([0.0, 1.0, 0.0, 0.0]))  # queries coord 1 unseen
    assert tr.calls[-1].query_ok is False
    assert tr.max_query_index() == 1


def test_tracker_flags_two_coordinate_reveal():
    tr = SupportTracker(dim_y=4)
    tr.note("g_y", np.zeros(4), out_y=np.array([1.0, 1.0, 0.0, 0.0]))
    rec = tr.calls[-1]
    assert rec.query_ok is True and rec.growth_ok is False
    assert tr.explored == {0, 1}  # growth is still recorded


def test_tracker_single_reveal_chain():
    tr = SupportTracker(dim_y=4)
    tr.note("g_y", np.zeros(4), out_y=np.array([1.0, 0.0, 0.0, 0.0]))
    tr.note("g_y", np.array([1.0, 0.0, 0.0, 0.0]),
            out_y=np.array([1.0, 1.0, 0.0, 0.0]))
    assert all(r.query_ok and r.growth_ok for r in tr.calls)
    assert tr.explored == {0, 1}
    assert tr.counts() == {"g_y": 2}


def test_certification_passes_and_is_tight():
    T, K = 3, 2
    rep = run_zero_respecting(F2BAAdapter(), T, K)
    assert rep.passed
    assert rep.checks == {"x_stays_zero": True, "protected_coords_zero": True,
                          "support_growth": True}
    assert rep.x_trajectory == [0.0] * (T + 1)
    # the frontier is exactly exhausted: T*K coordinates explored out of
    # q = 2*T*K, and the largest queried index sits one short of the
    # protected half
    assert rep.explored_size == T * K
    assert rep.max_query_index == T * K - 1
    assert rep.q == 2 * T * K
    assert rep.grad_phi_at_start == 1.0
    assert rep.counts == {"f_x": T, "f_y": T * K, "g_x": 2 * T, "g_y": 2 * T * K}


def test_probe_adapter_fails_exactly_the_protected_checks():
    rep = run_zero_respecting(CoordinateProbeAdapter(), 3, 2)
    assert rep.checks == {"x_stays_zero": True, "protected_coords_zero": False,
                          "support_growth": False}
    assert not rep.passed
    assert rep.violations  # names at least one offending call


def test_a_moved_upper_iterate_fails_check_i_alone():
    # F2BA within the exact budget, started at x0 = 0.5 instead of 0: x moves,
    # and only check (i) can see it
    class FromHalf(F2BAAdapter):
        def run(self, instance, T, K):
            plan = build_schedule(instance.problem.constants, epsilon=0.1, Delta=0.5,
                                  R=1.0, overrides={"sigma": self.sigma, "eta": self.eta,
                                                    "T": T, "K": K})
            return run_f2ba(instance.problem, plan, x0=[0.5])

    rep = run_zero_respecting(FromHalf(), 3, 2)
    assert rep.checks == {"x_stays_zero": False, "protected_coords_zero": True,
                          "support_growth": True}
    assert rep.violations == ["check (i): x moved at outer iteration 0: (0.5,)"]
    assert "    - check (i): x moved at outer iteration 0: (0.5,)" in rep.render_text()


def test_render_text_shows_verdicts():
    txt = run_zero_respecting(F2BAAdapter(), 2, 2).render_text()
    assert "[PASS]" in txt and "overall: PASS" in txt
    txt = run_zero_respecting(CoordinateProbeAdapter(), 2, 2).render_text()
    assert "[FAIL]" in txt and "overall: FAIL" in txt


def test_summary_row_round_trip():
    row = run_zero_respecting(F2BAAdapter(), 2, 3).summary_row()
    assert row["passed"] == 1 and row["q"] == 12 and row["adapter"] == "f2ba"


def test_miscounted_budget_raises_instrumentation_error():
    class LyingAdapter(F2BAAdapter):
        def expected_counts(self, T, K):
            c = super().expected_counts(T, K)
            c["g_y"] += 1
            return c

    with pytest.raises(InstrumentationError):
        run_zero_respecting(LyingAdapter(), 2, 2)


def test_supplied_instance_must_match_budget():
    inst = make_hard_instance(HardInstanceSpec(T=2, K=2))
    with pytest.raises(InputError, match="q"):
        run_zero_respecting(F2BAAdapter(), 3, 2, instance=inst)
    rep = run_zero_respecting(F2BAAdapter(), 2, 2, instance=inst)
    assert rep.passed


def test_nonpositive_budget_rejected():
    with pytest.raises(InputError):
        run_zero_respecting(F2BAAdapter(), 0, 2)


def test_certification_memory_grows_linearly_in_q():
    # q = 2 T^2 quadruples from T = 20 to T = 40; records that hold every
    # query's full support would grow ~16x.  The instance is built outside
    # the measurement: at q <= 2048 its build runs a dense eigensolve for
    # lambda_min, and the build has its own test in test_problems.py.
    def peak(T):
        inst = make_hard_instance(HardInstanceSpec(T=T, K=T))
        tracemalloc.start()
        try:
            assert run_zero_respecting(F2BAAdapter(), T, T, instance=inst).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20), peak(40)
    assert large < 8 * small, (small, large)


# ---------------------------------------------------------------------------
# reference tracker: SupportTracker as it stood when every support was a
# tuple compared as a set, kept verbatim; the package's tracker must agree
# with it call for call.


def _ref_support(v) -> tuple:
    return tuple(np.nonzero(np.asarray(v))[0].tolist())


@dataclass
class _RefTracker:
    dim_y: int
    explored: set = field(default_factory=set)
    calls: list = field(default_factory=list)

    def note(self, kind: str, y, out_y=None):
        q_supp = _ref_support(y)
        query_ok = set(q_supp) <= self.explored
        new = ()
        growth_ok = True
        if out_y is not None:
            new = tuple(sorted(set(_ref_support(out_y)) - self.explored))
            growth_ok = len(new) <= 1
            self.explored.update(new)
        self.calls.append(CallRecord(kind, q_supp, new, query_ok, growth_ok))

    def counts(self) -> dict:
        out: dict = {}
        for rec in self.calls:
            out[rec.kind] = out.get(rec.kind, 0) + 1
        return out

    def max_query_index(self) -> int:
        m = -1
        for rec in self.calls:
            if rec.query_support:
                m = max(m, rec.query_support[-1])
        return m


_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, -2.5, 5e-324, math.nan, math.inf])


@st.composite
def _vectors(draw, dim):
    """Prefix-supported vectors (what a zero-respecting run queries) or
    arbitrary ones, with NaN, inf, -0.0 and subnormal entries."""
    if draw(st.booleans()):
        n = draw(st.integers(0, dim))
        head = draw(st.lists(st.sampled_from([1.0, -2.5, 5e-324, math.nan]),
                             min_size=n, max_size=n))
        return np.array(head + [draw(st.sampled_from([0.0, -0.0]))] * (dim - n))
    return np.array(draw(st.lists(_ENTRIES, min_size=dim, max_size=dim)))


@st.composite
def _call_sequences(draw):
    """A preset explored set, then calls whose outputs may also reveal
    nothing: all zeros of either sign, or an output already seen.  A tracker
    starts empty, so the preset is revealed by a first g_y call."""
    dim = draw(st.integers(1, 10))
    preset = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    calls, outs = [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["f", "g", "f_x", "g_x", "f_y", "g_y"]))
        out = None
        if kind in ("f_y", "g_y"):
            silent = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]),
                                            min_size=dim, max_size=dim)))
            out = draw(st.sampled_from([draw(_vectors(dim)), silent] + outs))
            outs.append(out)
        calls.append((kind, draw(_vectors(dim)), out))
    return dim, preset, calls


@settings(max_examples=300, deadline=None)
@given(_call_sequences())
def test_tracker_matches_the_set_based_reference(seq):
    dim, preset, calls = seq
    got, want = SupportTracker(dim_y=dim), _RefTracker(dim_y=dim)
    reveal = np.zeros(dim)
    reveal[sorted(preset)] = 1.0
    for kind, y, out in [("g_y", np.zeros(dim), reveal)] + calls:
        got.note(kind, y, out_y=out)
        want.note(kind, y, out_y=out)
        rec = got.calls[-1]
        assert rec._replace(query_support=tuple(rec.query_support)) \
            == want.calls[-1]
        assert type(rec.query_ok) is bool and type(rec.growth_ok) is bool
        assert got.explored == want.explored
        assert all(type(i) is int for i in got.explored)
        assert np.flatnonzero(got._mask).tolist() == sorted(got.explored)
    assert got.counts() == want.counts()
    assert got.max_query_index() == want.max_query_index()
    for rec in got.calls:  # what the harness and its tracing read
        assert len(rec.query_support) == len(tuple(rec.query_support))
        if rec.query_support:
            assert rec.query_support[-1] == tuple(rec.query_support)[-1]
        assert tuple(rec.query_support[-5:]) == tuple(rec.query_support)[-5:]


def test_call_record_fields_order_and_defaults_are_fixed():
    assert CallRecord._fields == ("kind", "query_support", "new_indices",
                                  "query_ok", "growth_ok")
    assert CallRecord._field_defaults == {}
    rec = CallRecord("g_y", range(2), (2,), True, True)
    assert rec.kind == "g_y" and rec.new_indices == (2,)
    with pytest.raises(AttributeError):
        rec.query_ok = False
