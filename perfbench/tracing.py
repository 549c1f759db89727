"""Spans around the package's public entry points, recorded from outside.

The traced run swaps entry points for timing wrappers at runtime; the package
itself is not modified.  Names are patched in the namespace that looks them
up: ``drivers`` imports ``inner_descend`` and ``hypergradient_estimate`` by
name, ``diagnostics`` imports ``descend_single`` and
``penalized_hyperobjective_value`` by name, and ``core`` imports
``descend_single`` late from ``inner``.  Oracle callables are swapped with
``dataclasses.replace``, the way ``zerochain.tracked_instance`` does it.

Each span records name, start, end, parent span and solve (unit) id in flat
arrays kept in memory; they are written out once, when the run ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import tracemalloc
from array import array

import numpy as np

ORACLES = (("f", "f"), ("g", "g"), ("f_x", "grad_f_x"), ("f_y", "grad_f_y"),
           ("g_x", "grad_g_x"), ("g_y", "grad_g_y"))
FIRST_ORDER = ("f_x", "f_y", "g_x", "g_y")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count: list[int] = []
        self.stack = [-1]
        self.solve_id = -1
        # raw first-order oracle calls, live, for per-outer-step reconciliation
        self.raw = dict.fromkeys(FIRST_ORDER, 0)
        self.validations = 0
        self.rng_normals = 0
        self.values: dict[str, list] = {}   # per-call quantities (steps, rows...)
        self.mismatches: list[str] = []
        self.failures: dict[str, int] = {}

    def zero_counters(self):
        """Forget live counts so far (set-up work is not a unit's work)."""
        for k in self.raw:
            self.raw[k] = 0
        self.validations = 0
        self.rng_normals = 0

    def reset(self):
        """Drop every span and count, keeping the installed wrappers."""
        for arr in (self.name, self.parent, self.solve, self.start, self.end):
            del arr[:]
        self.count[:] = [0] * len(self.count)
        self.zero_counters()
        self.values.clear()
        self.mismatches.clear()
        self.failures.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
        return self._ids[name]

    def note(self, key: str, value):
        self.values.setdefault(key, []).append(value)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records one span (and optional hooks)."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        names, parents, solves = self.name, self.parent, self.solve
        starts, ends, stack, count = self.start, self.end, self.stack, self.count

        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            solves.append(self.solve_id)
            starts.append(0)
            ends.append(0)
            count[nid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.failures[name] = self.failures.get(name, 0) + 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapped

    # -- oracle bundles ---------------------------------------------------

    def wrap_problem(self, prob, label):
        """Oracle bundle whose six callables record spans and raw counts."""
        suffix = ".q3200" if label == "q3200" else ""
        raw = self.raw
        repl = {}
        for kind, attr in ORACLES:
            fn = self.span(f"core.oracle.{kind}{suffix}", getattr(prob, attr))
            if kind in raw:
                fn = _counting(fn, raw, kind)
            repl[attr] = fn
        return dataclasses.replace(prob, **repl)

    # -- derived numbers --------------------------------------------------

    def arrays(self):
        n = len(self.name)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        solve = np.frombuffer(self.solve, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        dur = (end - start).astype(float)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        return {"name": name, "parent": parent, "solve": solve, "start": start,
                "end": end, "dur": dur, "self": dur - child}

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: a[k] for k in ("name", "parent", "solve", "start", "end")})


def _counting(fn, raw, kind):
    def counted(*args, **kwargs):
        raw[kind] += 1
        return fn(*args, **kwargs)
    return counted


def _count_calls(tracer, fn):
    def counted(*args, **kwargs):
        tracer.validations += 1
        return fn(*args, **kwargs)
    return counted


def install(tracer: Tracer, bp):
    """Swap the package's entry points for span-recording wrappers."""
    core, inner, drivers, zerochain, diagnostics = (
        bp.core, bp.inner, bp.drivers, bp.zerochain, bp.diagnostics)
    span = tracer.span

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, span(name, getattr(owner, attr), **hooks))

    # input validation: counted (a span per call would dwarf the call)
    for mod in (core, inner, drivers, diagnostics, bp.problems, zerochain):
        if hasattr(mod, "as_vector"):
            mod.as_vector = _count_calls(tracer, mod.as_vector)

    # drivers and the layers it calls by name
    outer_marks = []  # raw-count snapshots at each inner_descend entry

    def run_before(args, kwargs):
        outer_marks.clear()

    def run_after(trace, args, kwargs):
        tracer.note("drivers.rng_counter", trace.final_state.rng_counter)
        outer_marks.append((dict(tracer.raw), None))
        for (before, k_t), (after, _) in zip(outer_marks, outer_marks[1:]):
            delta = {k: after[k] - before[k] for k in FIRST_ORDER}
            want = {"f_x": 1, "f_y": k_t, "g_x": 2, "g_y": 2 * k_t}
            if delta != want:
                tracer.mismatches.append(
                    f"outer step with K_t={k_t}: raw counts {delta}, want {want}")
        if len(outer_marks) - 1 != len(trace.rows):
            tracer.mismatches.append(f"{len(outer_marks) - 1} inner phases for "
                                     f"{len(trace.rows)} trace rows")
        tracer.note("drivers.outer_steps", len(trace.rows))

    for owner in (bp, zerochain):
        patch(owner, "run_f2ba", "drivers.run", before=run_before, after=run_after)
    patch(bp, "run_f2bsa", "drivers.run", before=run_before, after=run_after)

    def inner_before(args, kwargs):
        outer_marks.append((dict(tracer.raw), args[5].K))

    patch(drivers, "inner_descend", "inner.descend", before=inner_before,
          after=lambda res, a, k: tracer.note("inner.steps", res.steps))
    patch(drivers, "hypergradient_estimate", "core.estimator")

    def draw_before(args, kwargs):
        oracle, which = args[0], args[1]
        batch = args[4] if len(args) > 4 else kwargs.get("batch", 1)
        std = oracle.noise_std_f if which.startswith("f") else oracle.noise_std_g
        if std != 0.0:
            tracer.rng_normals += batch

    patch(core.StochasticOracle, "draw", "core.draw", before=draw_before)

    for owner in (bp, zerochain):
        patch(owner, "build_schedule", "drivers.build_schedule")
    patch(bp, "get_problem", "problems.get_problem")
    patch(bp, "make_hard_instance", "problems.build",
          after=lambda s, a, k: tracer.note("problems.build_q", s.problem.dim_y))
    patch(bp, "render_trace_csv", "cli.render",
          after=lambda text, a, k: tracer.note("cli.render", (len(a[0].rows), len(text))))

    # zerochain: certification, adapter run and per-call support tracking
    patch(bp, "run_zero_respecting", "zerochain.certify")
    patch(zerochain.F2BAAdapter, "run", "zerochain.adapter")

    def note_after(out, args, kwargs):
        tracker = args[0]
        rec = tracker.calls[-1]
        tracer.note("zerochain.entries", len(rec.query_support) + len(rec.new_indices))
        tracer.values["zerochain.tracker"] = [tracker]
        tracer.note("zerochain.kind", rec.kind)

    patch(zerochain.SupportTracker, "note", "zerochain.note", after=note_after)

    # diagnostics and the tolerance-driven descent they run on raw callables
    for attr, name in (("hypergradient_routes", "diagnostics.routes"),
                       ("galet_residuals", "diagnostics.galet"),
                       ("set_lipschitz_check", "diagnostics.set_lipschitz"),
                       ("check_gradients", "diagnostics.check_gradients"),
                       ("pl_ratio_certificate", "diagnostics.pl_ratio"),
                       ("grid_hyper_objective", "diagnostics.grid")):
        patch(bp, attr, name)
    for owner in (bp, diagnostics):
        patch(owner, "penalized_hyperobjective_value", "core.penalty_value")
    single = span("inner.descend_single", inner.descend_single,
                  after=lambda out, a, k: tracer.note("inner.single_steps", out[2]))
    inner.descend_single = single
    diagnostics.descend_single = single
    for mod in (core, diagnostics, zerochain):
        patch(mod, "substream", "rng.substream")


def deep_size(tracker) -> int:
    """Bytes held by a SupportTracker's records (computed with getsizeof)."""
    total = sys.getsizeof(tracker.calls) + sys.getsizeof(tracker.explored)
    total += sum(sys.getsizeof(i) for i in tracker.explored)
    for rec in tracker.calls:
        total += sys.getsizeof(rec) + sys.getsizeof(rec.kind)
        for tup in (rec.query_support, rec.new_indices):
            total += sys.getsizeof(tup) + sum(sys.getsizeof(i) for i in tup)
    return total


def build_bytes(bp, T: int) -> int:
    """Peak bytes allocated while building the (T, T) chain (tracemalloc)."""
    tracemalloc.start()
    try:
        inst = bp.problems.make_hard_instance(bp.HardInstanceSpec(T=T, K=T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del inst
    return peak


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit); counts are per unit of work, times are per call unless noted.
# Which end-to-end number each should move, written down before measuring:
#   core.oracle_ns          fused_call_ns on the three solver workloads
#   core.validations_*      outer_step_us on f2ba/f2bsa; not verify_battery
#   core.estimator_us       outer_step_us on f2ba; not f2bsa (bypassed)
#   core.draw*, rng_normals outer_step_us on f2bsa only
#   core.penalty_value_us   solve_s on verify_battery
#   inner.descend*/steps    outer_step_us on f2ba, f2bsa, chain
#   inner.descend_single_*  solve_s on verify_battery only
#   inner.failures          the failed count
#   drivers.*               outer_step_us on f2ba (largest share), then f2bsa;
#                           build_schedule_us: setup_s
#   problems.*              setup_s; chain builds and chain_grad_us, and
#                           build_bytes (peak_rss_mb): chain_certify only
#   zerochain.*             solve_s and peak_rss_mb on chain_certify only
#   diagnostics.*           solve_s on verify_battery only
#   cli.import_s            setup_s everywhere; cli.render_*: solve_s on f2ba
#   rng.substream_us        solve_s on f2bsa
PER_LAYER = (
    ("core.calls.f", "count"), ("core.calls.g", "count"),
    ("core.calls.f_x", "count"), ("core.calls.f_y", "count"),
    ("core.calls.g_x", "count"), ("core.calls.g_y", "count"),
    ("core.oracle_ns", "ns"), ("core.validations_per_call", "ratio"),
    ("core.estimator_us", "us"), ("core.draws", "count"), ("core.draw_us", "us"),
    ("core.rng_normals", "count"), ("core.penalty_value_us", "us"),
    ("inner.descend_calls", "count"), ("inner.steps", "count"),
    ("inner.self_ns_per_step", "ns"), ("inner.descend_single_calls", "count"),
    ("inner.descend_single_steps", "count"), ("inner.descend_single_self_us", "us"),
    ("inner.failures", "count"),
    ("drivers.outer_steps", "count"), ("drivers.self_us_per_outer", "us"),
    ("drivers.build_schedule_us", "us"),
    ("problems.get_problem_ms", "ms"), ("problems.build_s.q800", "s"),
    ("problems.build_s.q3200", "s"), ("problems.build_bytes.q3200", "B"),
    ("problems.chain_grad_us", "us"),
    ("zerochain.tracked_calls", "count"), ("zerochain.note_us", "us"),
    ("zerochain.support_entries", "count"), ("zerochain.tracker_bytes", "B"),
    ("zerochain.checks_ms", "ms"),
    ("diagnostics.routes_ms", "ms"), ("diagnostics.galet_us", "us"),
    ("diagnostics.set_lipschitz_ms", "ms"), ("diagnostics.check_gradients_ms", "ms"),
    ("diagnostics.pl_ratio_ms", "ms"), ("diagnostics.grid_ms", "ms"),
    ("cli.import_s", "s"), ("cli.render_ms", "ms"), ("cli.render_ns_per_row", "ns"),
    ("cli.csv_bytes", "B"),
    ("rng.substream_us", "us"),
    ("trace.overhead_s", "s"), ("trace.layer_share", "ratio"),
)
_SCALE = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer numbers from the spans of ``units`` units (and their set-up).

    A value is None when the layer was not reached (nothing to divide by);
    counts are per unit and are never None.
    """
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    in_unit = a["solve"] >= 0
    k = len(tracer.names)

    def agg(weights, mask):
        return np.bincount(a["name"][mask], weights=weights[mask], minlength=k)

    n_unit = np.bincount(a["name"][in_unit], minlength=k)
    n_all = np.bincount(a["name"], minlength=k)
    dur_all = agg(a["dur"], np.ones_like(in_unit))
    dur_unit = agg(a["dur"], in_unit)
    self_unit = agg(a["self"], in_unit)
    vals = tracer.values

    def ids_of(*names):
        return [ids[n] for n in names if n in ids]

    def count(*names):
        return int(sum(n_unit[i] for i in ids_of(*names)))

    def per_call(unit, *names, self_time=True, setup=False):
        sel = ids_of(*names)
        n = sum((n_all if setup else n_unit)[i] for i in sel)
        if not n:
            return None
        src = dur_all if setup else (self_unit if self_time else dur_unit)
        return float(sum(src[i] for i in sel)) / n / _SCALE[unit]

    def per(total_ns, denom, unit):
        return total_ns / denom / _SCALE[unit] if denom else None

    def self_of(*names):
        return float(sum(self_unit[i] for i in ids_of(*names)))

    raw_names = [n for n in tracer.names if n.startswith("core.oracle.")]
    raw_n = count(*raw_names)
    steps = sum(vals.get("inner.steps", []))
    outer = sum(vals.get("drivers.outer_steps", []))
    renders = vals.get("cli.render", [])
    rows = sum(r for r, _ in renders)
    m = {f"core.calls.{kind}": (count(f"core.oracle.{kind}", f"core.oracle.{kind}.q3200")
                                / units) for kind, _ in ORACLES}
    m.update({
        "core.oracle_ns": per(self_of(*raw_names), raw_n, "ns"),
        "core.validations_per_call": tracer.validations / raw_n if raw_n else None,
        "core.estimator_us": per_call("us", "core.estimator"),
        "core.draws": count("core.draw") / units,
        "core.draw_us": per_call("us", "core.draw"),
        "core.rng_normals": tracer.rng_normals / units,
        "core.penalty_value_us": per_call("us", "core.penalty_value", self_time=False),
        "inner.descend_calls": count("inner.descend") / units,
        "inner.steps": steps / units,
        "inner.self_ns_per_step": per(self_of("inner.descend"), steps, "ns"),
        "inner.descend_single_calls": count("inner.descend_single") / units,
        "inner.descend_single_steps": sum(vals.get("inner.single_steps", [])) / units,
        "inner.descend_single_self_us": per_call("us", "inner.descend_single"),
        "inner.failures": sum(tracer.failures.get(n, 0)
                              for n in ("inner.descend", "inner.descend_single")),
        "drivers.outer_steps": outer / units,
        "drivers.self_us_per_outer": per(self_of("drivers.run"), outer, "us"),
        "drivers.build_schedule_us": per_call("us", "drivers.build_schedule", setup=True),
        "problems.get_problem_ms": per_call("ms", "problems.get_problem", setup=True),
        "problems.chain_grad_us": per_call("us", "core.oracle.g_y.q3200"),
        "zerochain.tracked_calls": count("zerochain.note") / units,
        "zerochain.note_us": per_call("us", "zerochain.note"),
        "zerochain.support_entries": sum(vals.get("zerochain.entries", [])) / units,
        "zerochain.tracker_bytes": (deep_size(vals["zerochain.tracker"][0])
                                    if "zerochain.tracker" in vals else None),
        "zerochain.checks_ms": per_call("ms", "zerochain.certify"),
        "cli.render_ms": per_call("ms", "cli.render", self_time=False),
        "cli.render_ns_per_row": per(sum(dur_unit[i] for i in ids_of("cli.render")),
                                     rows, "ns"),
        "cli.csv_bytes": sum(b for _, b in renders) / units,
        "rng.substream_us": per_call("us", "rng.substream", self_time=False),
    })
    for short, unit in (("routes", "ms"), ("galet", "us"), ("set_lipschitz", "ms"),
                        ("check_gradients", "ms"), ("pl_ratio", "ms"), ("grid", "ms")):
        m[f"diagnostics.{short}_{unit}"] = per_call(
            unit, f"diagnostics.{short}", self_time=False)
    builds = a["dur"][a["name"] == ids["problems.build"]] if "problems.build" in ids else []
    for q in (800, 3200):
        m[f"problems.build_s.q{q}"] = next(
            (float(d) / 1e9 for d, dim in zip(builds, vals.get("problems.build_q", []))
             if dim == q), None)

    # self time by layer inside the units; "bench" is the unit root's own time
    by_layer: dict[str, float] = {}
    for i, n in enumerate(tracer.names):
        layer = n.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + float(self_unit[i]) / 1e9
    unit_s = per_call("s", "bench.unit", self_time=False)
    total = (unit_s or 0.0) * units
    program = sum(v for layer, v in by_layer.items() if layer != "bench")
    m["trace.layer_share"] = program / total if total else None
    return {"metrics": m, "self_s_by_layer": by_layer, "traced_unit_s": unit_s}
