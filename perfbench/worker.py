"""One workload in a fresh interpreter (started by run.py, not run by hand).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes: ``setup`` imports the package, sets the workload up, prints READY and
exits; ``plain`` then runs units for S seconds with nothing wrapped; ``traced``
does the same with every entry point wrapped in spans (tracing.py), then runs
one short traced unit of every other workload so that each per-layer metric
is measured in every traced run.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import bipen

    if not Path(bipen.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bipen imported from {bipen.__file__}, not from the checkout")
    return bipen


PLATEAU_QUANTILE = 0.75


def plateau(values) -> float:
    """The 75th percentile of segment times: the core's common, contended
    rate.  Lower quantiles and the median follow how much of a run fell in
    fast phases, which varies from run to run; this one moves much less."""
    vals = sorted(values)
    return vals[int(PLATEAU_QUANTILE * (len(vals) - 1))]


def unit_seconds(segments: dict, remainders: list, units: int, reference) -> float:
    """Seconds of one unit at the reference's nominal speed.

    Per level, the plateau segment time times the level's segments per
    unit, plus the plateau of what no segment covers (glue between solves),
    scaled by REF_SECONDS over the plateau of the reference samples.
    """
    from workloads import REF_SECONDS

    raw = plateau(remainders) + sum(len(d) / units * plateau(d)
                                    for d in segments.values())
    return raw * REF_SECONDS / plateau(reference)


def run_units(wl, ctx, seconds, tracer=None):
    """Closed loop: run units until ``seconds`` have passed (and at least the
    fixed units); return per-unit results."""
    from checks import CHECKS, self_check

    solve = wl.solve if tracer is None else tracer.span("bench.unit", wl.solve)
    check = CHECKS[wl.name]
    clock = ctx["clock"]
    segments: dict = {}
    remainders = []
    res = {"unit_s": [], "outer_steps": 0, "fused_calls": [], "attempted": 0,
           "failed": 0, "messages": [], "self_check_missed": None}
    digest = hashlib.sha256()
    t_end = time.perf_counter() + seconds
    i = 0
    while i < wl.fixed_units or time.perf_counter() < t_end:
        inp = wl.inputs(ctx, i)
        if tracer is not None:
            tracer.solve_id = i
        t0 = time.perf_counter()
        out = solve(ctx, inp)
        wall = time.perf_counter() - t0
        res["unit_s"].append(wall)
        unit_segments, reference_s = clock.take()
        for level, durations in unit_segments.items():
            segments.setdefault(level, array("d")).extend(durations)
        remainders.append(wall - reference_s - sum(map(sum, unit_segments.values())))
        if tracer is not None:
            tracer.solve_id = -1
        summary, blob, outer, fused = wl.summarize(ctx, inp, out)
        attempted, failed, msgs = check(summary)
        if i == 0 and not failed:
            res["self_check_tried"], res["self_check_missed"] = self_check(
                wl.name, summary)
        if i < wl.fixed_units:
            digest.update(blob)
        res["outer_steps"] += outer
        res["fused_calls"].append(fused)
        res["attempted"] += attempted
        res["failed"] += failed
        res["messages"] += msgs[:5]
        i += 1
    res["digest"] = digest.hexdigest()
    res["fixed_fused_calls"] = sum(res["fused_calls"][:wl.fixed_units]) / wl.fixed_units
    res["solve_s"] = unit_seconds(segments, remainders, i, clock.reference)
    res["reference_samples"] = len(clock.reference)
    res["segments"] = {str(k): len(v) for k, v in segments.items()}
    res["messages"] = res["messages"][:20]
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--spans", help="file for the traced run's spans (.npz)")
    args = ap.parse_args(argv)

    bp = import_package()
    import_s = time.perf_counter() - T_START
    from workloads import WORKLOADS, Clock, install_clock, wrap_suites

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, bp)
    clock = Clock()
    if tracer is not None:
        clock.sample = tracer.span("bench.reference", clock.sample)
    install_clock(bp, clock)
    ctx = wl.setup(bp, args.seed)
    ctx["clock"] = clock
    if tracer is not None:
        wrap_suites(ctx, tracer.wrap_problem)
        tracer.zero_counters()
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({"import_s": import_s}))
        return 0

    res = run_units(wl, ctx, args.seconds, tracer)
    res["import_s"] = import_s
    if tracer is not None:
        res.update(traced_layers(tracing, tracer, bp, wl, args, res, clock))
    print(json.dumps(res))
    return 0


def traced_layers(tracing, tracer, bp, wl, args, res, clock):
    """Per-layer numbers of this workload, with fallbacks for layers it does
    not reach taken from one short traced unit of each other workload."""
    from checks import CHECKS
    from workloads import CHAIN_TK, WORKLOADS, wrap_suites

    units = len(res["unit_s"])
    own = tracing.layer_metrics(tracer, units)
    mismatches = list(tracer.mismatches)
    m = own["metrics"]
    rng_counters = sum(tracer.values.get("drivers.rng_counter", []))
    if tracer.rng_normals != rng_counters:
        mismatches.append(f"{tracer.rng_normals} noisy draws counted, trace rng "
                          f"counters sum to {rng_counters}")
    if m["core.draws"] and m["core.draws"] * units != sum(
            tracer.raw[k] for k in tracing.FIRST_ORDER):
        mismatches.append("raw first-order calls differ from noisy draws")
    if wl.name == "chain_certify":
        kinds = tracer.values.get("zerochain.kind", [])
        got = {k: kinds.count(k) for k in ("f_x", "f_y", "g_x", "g_y")}
        want = {k: units * sum(bp.F2BAAdapter().expected_counts(t, t)[k]
                               for t in CHAIN_TK) for k in got}
        if got != want:
            mismatches.append(f"tracked calls {got}, adapter budget {want}")
    if args.spans:
        tracer.save(args.spans)
    m["cli.import_s"] = res["import_s"]
    m["problems.build_bytes.q3200"] = tracing.build_bytes(bp, 40)
    source = {k: wl.name for k, v in m.items() if v is not None}
    for other in WORKLOADS.values():
        missing = [k for k, v in m.items() if v is None]
        if not missing:
            break
        if other.name == wl.name:
            continue
        tracer.reset()
        ctx = other.setup(bp, args.seed)
        ctx["clock"] = clock
        wrap_suites(ctx, tracer.wrap_problem)
        tracer.zero_counters()
        solve = tracer.span("bench.unit", other.solve)
        inp = other.inputs(ctx, 0)
        tracer.solve_id = 0
        out = solve(ctx, inp, short=True)
        tracer.solve_id = -1
        _, failed, msgs = CHECKS[other.name](other.summarize(ctx, inp, out)[0])
        if failed:
            mismatches += [f"calibration {other.name}: {x}" for x in msgs[:5]]
        got = tracing.layer_metrics(tracer, 1)["metrics"]
        for k in missing:
            if got.get(k) is not None:
                m[k] = got[k]
                source[k] = other.name
    return {"layers": m, "layer_source": source, "mismatches": mismatches[:20],
            "self_s_by_layer": own["self_s_by_layer"],
            "traced_unit_mean_s": own["traced_unit_s"]}


if __name__ == "__main__":
    sys.exit(main())
