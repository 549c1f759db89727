"""Output checks on unit summaries, and the checker's own self-check.

A check takes the plain summary a workload produced for one unit and returns
``(attempted, failed, messages)`` counted in solves: one solver run, one
certification or one diagnostics call.  A raised ToolkitError arrives as an
``error`` entry and counts as a failed solve.  The tolerances are those of
the acceptance gate (tests/test_acceptance.py) unless noted.
"""

from __future__ import annotations

import copy
import math

import numpy as np

F2BA_SLOPE = (2.0, 0.4)   # c03
F2BSA_SLOPE = (4.0, 1.0)  # c04
ROUTE_GAP = 1e-3          # c05


def _slope(runs) -> float:
    """Least-squares slope of log(calls) against log(1/eps)."""
    xs = np.log([1.0 / r["eps"] for r in runs])
    ys = np.log([float(r["calls"]) for r in runs])
    return float(np.polyfit(xs, ys, 1)[0])


def _sweep(runs, slope_spec, run_problems):
    msgs = []
    failed = 0
    for r in runs:
        bad = [f"eps={r['eps']:g}: {r['error']}"] if "error" in r else run_problems(r)
        failed += bool(bad)
        msgs += bad
    if len(runs) >= 3 and not failed:
        want, tol = slope_spec
        slope = _slope(runs)
        if not abs(slope - want) <= tol:
            msgs.append(f"slope {slope:.3f} outside {want} +/- {tol}")
            failed = len(runs)
    return len(runs), failed, msgs


def check_f2ba(summary):
    def problems(r):
        out = []
        if not r["min_grad_est"] <= r["eps"]:
            out.append(f"eps={r['eps']:g}: target missed "
                       f"(min grad est {r['min_grad_est']:.3e})")
        if r["calls"] != r["T"] * (2 * r["K"] + 3) or r["rows"] != r["T"]:
            out.append(f"eps={r['eps']:g}: {r['calls']} fused calls in {r['rows']} "
                       f"rows, want T(2K+3) = {r['T'] * (2 * r['K'] + 3)} in {r['T']}")
        return out

    return _sweep(summary["runs"], F2BA_SLOPE, problems)


def check_f2bsa(summary):
    def problems(r):
        out = []
        if not r["min_grad_est"] <= r["eps"]:
            out.append(f"eps={r['eps']:g}: target missed "
                       f"(min grad est {r['min_grad_est']:.3e})")
        # fused accounting: 2 B per inner step plus 3 B for the estimator
        want = sum(2 * k * r["B"] + 3 * r["B"] for k in r["K_t"])
        if r["calls"] != want or r["rows"] != r["T"]:
            out.append(f"eps={r['eps']:g}: {r['calls']} fused calls in {r['rows']} "
                       f"rows, want {want} in {r['T']}")
        # only f is noisy on kernel_pl_fnoise: K_t f_y draws and one f_x draw
        want_rng = r["B"] * sum(k + 1 for k in r["K_t"])
        if r["rng_counter"] != want_rng:
            out.append(f"eps={r['eps']:g}: rng counter {r['rng_counter']}, "
                       f"want {want_rng}")
        return out

    return _sweep(summary["runs"], F2BSA_SLOPE, problems)


def check_chain(summary):
    msgs = []
    failed = 0
    for c in summary["certs"]:
        tag = f"T=K={c['T']}"
        if "error" in c:
            bad = [f"{tag}: {c['error']}"]
        else:
            bad = [] if c["passed"] else [f"{tag}: certification failed"]
            if c["counts"] != c["expected"]:
                bad.append(f"{tag}: tracked counts {c['counts']} != {c['expected']}")
        failed += bool(bad)
        msgs += bad
    return len(summary["certs"]), failed, msgs


def _close(a, b, tol) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _verify_item(it) -> list:
    call = it["call"]
    if "error" in it:
        return [it["error"]]
    if call == "routes":
        ok = all(g <= ROUTE_GAP for g in it["gaps"])
    elif call == "galet_on":
        # on the solution set: R_w and R_y vanish and R_x = ||grad phi||
        ok = it["R_w"] <= 1e-8 and 0.0 <= it["R_y"] <= 1e-10 and (
            it["grad_phi"] is None or _close(it["R_x"], it["grad_phi"], 1e-6))
    elif call == "galet_off":
        ok = all(math.isfinite(it[k]) for k in ("R_x", "R_w", "R_y")) \
            and it["R_y"] >= 0.0
        if "R_y_ref" in it:
            ok = ok and _close(it["R_y"], it["R_y_ref"], 1e-9 * (1 + abs(it["R_y_ref"])))
    elif call == "penalty":
        if "phi_sigma" in it:
            ok = _close(it["value"], it["phi_sigma"], 1e-8 + it["error_bound"])
        else:  # 0 <= phi - phi_sigma <= sigma C_f^2 / (2 mu)
            gap = it["phi"] - it["value"]
            ok = math.isfinite(gap) and -1e-9 <= gap <= it["bias_bound"] + 1e-9
    elif call == "set_lipschitz":
        ok = it["violations"] == 0 and it["checked"] > 0
    elif call == "check_gradients":
        ok = it["err"] <= 1e-6
    elif call == "pl_ratio":
        ok = it["used"] > 0 and it["min_ratio"] >= it["mu"] * (1.0 - 1e-6)
    elif call == "grid":
        ok = _close(it["value"], it["phi"], 1e-3)
    else:
        return [f"unknown call {call}"]
    return [] if ok else [f"{call} out of tolerance: {it}"]


def check_verify(summary):
    msgs = []
    failed = 0
    for it in summary["items"]:
        bad = [f"{it['problem']}: {m}" for m in _verify_item(it)]
        failed += bool(bad)
        msgs += bad
    return len(summary["items"]), failed, msgs


CHECKS = {"f2ba_sweep": check_f2ba, "f2bsa_sweep": check_f2bsa,
          "chain_certify": check_chain, "verify_battery": check_verify}


# ---------------------------------------------------------------------------
# self-check: corrupted results must raise the failed count


def _corruptions(workload, summary):
    """Yield (label, corrupted summary) pairs for one good summary."""
    def edit(fn):
        bad = copy.deepcopy(summary)
        fn(bad)
        return bad

    if workload in ("f2ba_sweep", "f2bsa_sweep"):
        yield "wrong call count", edit(lambda s: s["runs"][0].update(
            calls=s["runs"][0]["calls"] + 1))
        yield "missed target", edit(lambda s: s["runs"][-1].update(
            min_grad_est=2.0 * s["runs"][-1]["eps"]))
        yield "raised error", edit(lambda s: s["runs"][1].update(
            error="ConvergenceError: injected"))
        # every run a copy of the first (own epsilon kept): only the slope fails
        yield "flat slope", edit(lambda s: [r.update({k: v for k, v in s["runs"][0].items()
                                                      if k != "eps"})
                                            for r in s["runs"]])
    if workload == "f2bsa_sweep":
        yield "rng counter", edit(lambda s: s["runs"][0].update(
            rng_counter=s["runs"][0]["rng_counter"] - 1))
    if workload == "chain_certify":
        yield "failed certification", edit(lambda s: s["certs"][0].update(passed=False))
        yield "wrong call count", edit(lambda s: s["certs"][1]["counts"].update(
            g_y=s["certs"][1]["counts"]["g_y"] + 1))
    if workload == "verify_battery":
        for call, field, value in (("routes", "gaps", [1e-2]),
                                   ("set_lipschitz", "violations", 1),
                                   ("galet_on", "R_w", 1e-3),
                                   ("penalty", "value", 10.0),
                                   ("pl_ratio", "min_ratio", 0.0),
                                   ("grid", "value", 10.0),
                                   ("check_gradients", "err", 1.0)):
            idx = next(i for i, it in enumerate(summary["items"]) if it["call"] == call)
            yield f"{call} {field}", edit(
                lambda s, i=idx, f=field, v=value: s["items"][i].update({f: v}))


def self_check(workload, summary):
    """Feed the checker corrupted copies of a good summary.

    Returns (number tried, labels of those it failed to flag); a sound
    checker counts more failed solves on every corrupted copy.
    """
    check = CHECKS[workload]
    _, base_failed, _ = check(summary)
    tried, missed = 0, []
    for label, bad in _corruptions(workload, summary):
        tried += 1
        _, failed, _ = check(bad)
        if failed <= base_failed:
            missed.append(label)
    return tried, missed
