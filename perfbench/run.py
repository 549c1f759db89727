"""bipen benchmark: one workload, end-to-end metrics or (with --trace 1) per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
f2ba_sweep, f2bsa_sweep, chain_certify, verify_battery.

Every workload is a closed loop from one process (worker.py), one unit after
the other, for S seconds.  Set-up is timed from the start of a fresh
interpreter to the moment the first solve could start, SETUPS times per run.
End-to-end metrics (tracing off):

  setup_s        median set-up time over the run's fresh interpreters
  solve_s        seconds of one unit (a sweep: three solves and their CSVs; a
                 certification pair; a battery pass): every outer iteration,
                 CSV rendering, solve head and tail and battery probe is
                 timed as a segment; per level the 75th-percentile segment
                 time is multiplied by the level's segments per unit, and
                 the sum is scaled to the nominal speed of a reference loop
                 timed between segments (Clock in workloads.py explains
                 why).  The median wall seconds per unit are printed with it.
  outer_step_us  solve seconds / outer iterations (battery: / probe points)
  fused_call_ns  solve seconds / fused oracle calls (battery: / gradient
                 evaluations inside descend_single, its inner unit of work)
  fused_calls    fused oracle calls per unit over the run's fixed first
                 units, so the same seed prints the same count; a change
                 is a behaviour change
  peak_rss_mb    ru_maxrss of the measuring worker process

failed_ratio (failed / attempted solves) is printed with them; it is 0 on a
sound commit, so the JSON carries it as ``failed`` and ``attempted``.
With --trace 1 the run measures solve_s untraced once more, then runs the
same workload and seed traced (tracing.py) and prints the per-layer metrics,
the tracing overhead and the self time of each layer.  Spans are written to
.perfbench-out/.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 7  # fresh interpreters timed per run (median reported)
END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("outer_step_us", "us"),
              ("fused_call_ns", "ns"), ("fused_calls", "count"),
              ("peak_rss_mb", "MB"))
RUN_LIMIT_S = 170  # the whole run, every worker included


class WorkerError(RuntimeError):
    pass


def spawn(workload, seed, seconds, mode, deadline, spans=None):
    """Start a worker; return (setup seconds, result dict, max RSS in MB).

    Set-up time runs from the start of the interpreter to its READY line.
    A worker still running at ``deadline`` (perf_counter) is killed.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, bufsize=0)
    out, setup_s, killed = b"", None, False
    try:
        fd = proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if setup_s is None and b"\n" in out:
                setup_s = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    if killed or proc.returncode != 0 or not lines or lines[0] != "READY":
        why = "timed out" if killed else f"exit {proc.returncode}"
        raise WorkerError(f"{mode} worker for {workload} failed ({why})")
    return setup_s, json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def summary(values):
    """Median, the highest percentile with ten samples beyond it, and n."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 20:
        p = int(100 * (1 - 10 / n))
        out[f"p{p}"] = vals[min(n - 1, int(n * p / 100))]
    return out


def environment(seed, load_start):
    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "seed": seed,
           "load_start": load_start, "load_end": os.getloadavg()}
    try:
        env["affinity"] = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name")), platform.processor())
    except OSError:
        env["cpu"] = platform.processor()
    env.update(blas_info(np))
    head = ROOT / ".git" / "HEAD"
    env["commit"] = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        env["commit"] = (ref_file.read_text().strip()
                         if ref_file is not None and ref_file.is_file() else ref)
    return env


def blas_info(np):
    import ctypes

    info = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return info
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(cdll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def end_to_end(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, 0.0, "setup", deadline)[0]
              for _ in range(SETUPS - 1)]
    setup_s, res, rss = spawn(workload, seed, seconds, "plain", deadline)
    setups.append(setup_s)
    units = len(res["unit_s"])
    solve_s = res["solve_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": solve_s,
        "outer_step_us": solve_s / (res["outer_steps"] / units) * 1e6,
        "fused_call_ns": solve_s / statistics.fmean(res["fused_calls"]) * 1e9,
        "fused_calls": res["fixed_fused_calls"],
        "peak_rss_mb": rss,
    }
    samples = {"setup_s": summary(setups), "solve_s": {
        "segments": sum(res["segments"].values()),
        "reference_samples": res["reference_samples"],
        "wall_per_unit": summary(res["unit_s"])}}
    return metrics, samples, res


def checked(res):
    """Failures of a worker result, including the checker's self-check."""
    problems = list(res["messages"])
    if res["self_check_missed"] is None:
        problems.append("self-check not run: the first unit already failed")
    elif res["self_check_missed"]:
        problems.append(f"checker missed corruptions: {res['self_check_missed']}")
    else:
        print(f"# self_check: checker flagged all {res['self_check_tried']} "
              "corrupted copies of the first unit's results")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bipen" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'bipen'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_LIMIT_S

    try:
        metrics, samples, res = end_to_end(args.workload, args.seed, args.seconds,
                                             deadline)
        traced = None
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-{args.seed}.npz"
            _, traced, _ = spawn(args.workload, args.seed, args.seconds, "traced",
                                deadline, spans)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = checked(res)
    attempted, failed = res["attempted"], res["failed"]
    report = {"workload": args.workload, "env": environment(args.seed, load_start),
              "units": len(res["unit_s"]), "digest": res["digest"],
              "failed_ratio": failed / attempted}
    if traced is not None:
        problems += checked(traced) + traced["mismatches"]
        attempted += traced["attempted"]
        failed += traced["failed"] + len(traced["mismatches"])
        if traced["digest"] != res["digest"]:
            problems.append("traced run changed the behaviour digest")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["solve_s"] - metrics["solve_s"]
        unmeasured = [k for k, _ in PER_LAYER if layers.get(k) is None]
        if unmeasured:
            problems.append(f"per-layer metrics not measured: {unmeasured}")
            layers.update(dict.fromkeys(unmeasured, 0.0))
        out = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
        report.update(traced_units=len(traced["unit_s"]),
                      self_s_by_layer=traced["self_s_by_layer"],
                      layer_source=traced["layer_source"])
    else:
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}

    for key, val in report.items():
        print(f"# {key}: {json.dumps(val)}")
    for k, u in END_TO_END:
        print(f"{args.workload} {k} = {metrics[k]:.6g} {u}"
              + (f"  {json.dumps(samples[k])}" if k in samples else ""))
    print(f"{args.workload} failed_ratio = {report['failed_ratio']:.6g} "
          f"({res['failed']}/{res['attempted']} solves)")
    if traced is not None:
        units = len(traced["unit_s"])
        by_layer = {k: v / units for k, v in traced["self_s_by_layer"].items() if v}
        print(f"{args.workload} traced solve_s = {traced['solve_s']:.6g} s (untraced "
              f"{metrics['solve_s']:.6g} s); self seconds per traced unit by layer: "
              + ", ".join(f"{k} {v:.4g}" for k, v in sorted(by_layer.items()))
              + f"; sum {sum(by_layer.values()):.4g} of "
              f"{traced['traced_unit_mean_s']:.4g} s mean traced unit wall")
        for k, u in PER_LAYER:
            src = traced["layer_source"].get(k, args.workload)
            tag = "" if src == args.workload else f"  [from {src}]"
            print(f"{args.workload} {k} = {layers[k]!r} {u}{tag}")
    for p in problems:
        print(f"FAIL: {p}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
