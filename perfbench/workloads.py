"""The four benchmark workloads.

Each workload is a closed loop of *units* run from one process: a unit starts
only after the previous one has finished.  A workload supplies

* ``setup(bp, seed)``      -> context; the work a user pays before the first
                              solve (registry lookups, chain builds, plans);
* ``inputs(ctx, i)``       -> the generated inputs of unit ``i`` (from the
                              workload seed; the program sees only these);
* ``solve(ctx, inputs)``   -> raw outputs; this is the timed region;
* ``summarize(...)``       -> plain numbers for the output checks in
                              ``checks.py`` plus the behaviour digest bytes.

Every run completes at least ``fixed_units`` units, whatever its length; the
behaviour digest and the ``fused_calls`` metric cover exactly those, so two
runs with the same seed print the same ones.

``bp`` is the imported ``bipen`` package.  Every call into it goes through an
attribute lookup at call time (``bp.run_f2ba``), so the traced run can swap
entry points without the workloads knowing.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

# The acceptance sweeps' budget inputs (c03/c04): phi(0) - inf phi and the
# squared distance of the default y0 to Y*(0) on kernel_pl.
BUDGET = {"Delta": 0.5, "R": 0.25}
EPS_F2BA = (1e-1, 3e-2, 1e-2)
EPS_F2BSA = (1e-1, 5e-2, 2.5e-2)
CHAIN_TK = (20, 40)  # T = K; q = 2 T K = 800 and 3200
SIGMAS = (1e-1, 1e-2, 1e-3, 1e-4)
BATTERY = ("kernel_pl", "quadratic_sc", "sin_sq_pl", "discontinuous")


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, int(i)])


def _solve_or_error(bp, out: list, fn, *args, **kwargs):
    """Run one solve; a raised ToolkitError is recorded, not propagated."""
    try:
        out.append(fn(*args, **kwargs))
    except bp.ToolkitError as exc:
        out.append(exc)


class Clock:
    """Timestamps inside a unit, so each unit splits into short segments.

    On a shared 2-vCPU Xeon virtual machine a core's speed was seen to flip
    between a common contended rate and one about twice as fast, in phases
    of seconds, so a multi-second solve cannot be timed steadily as a whole.
    A segment is one outer iteration of a solve (from one ``inner_descend``
    entry to the next, the last one ending when run_f2ba or run_f2bsa
    returns), a solve's head (before its first iteration) or tail (after
    that return, e.g. the certification checks), one CSV rendering, or one
    battery probe.  Segments are grouped by level, such as epsilon; with
    ``by_step`` each outer iteration index is a level of its own, for solves
    whose iterations grow in cost (the chain's supports do).

    The contended rate itself drifts with the machine's load.  So at a
    segment boundary, at most every REF_EVERY_S, the clock times one
    reference sample: a fixed loop of the same kind of tiny numpy calls the
    package makes, which slows down with the machine as the package does.
    Its time is left out of the segments, and solve times are reported at
    the reference's nominal speed (REF_SECONDS per sample).
    """

    def __init__(self):
        self.sample = reference_sample  # the traced run wraps it in a span
        self.level = None
        self.by_step = False
        self.t_start = 0.0
        self.stamps: list[float] = []
        self.skips: dict[int, float] = {}  # stamp index -> reference seconds after it
        self.unit: dict = {}  # level -> segment seconds, for the unit in progress
        self.reference: list[float] = []  # seconds of each reference sample
        self.reference_in_unit = 0.0
        self.last_reference = -REF_EVERY_S

    def start(self, level, by_step=False):
        self.level, self.by_step, self.stamps, self.skips = level, by_step, [], {}
        self.t_start = time.perf_counter()

    def stamp(self):
        now = time.perf_counter()
        self.stamps.append(now)
        if now - self.last_reference >= REF_EVERY_S:
            self.skips[len(self.stamps) - 1] = self._reference()

    def stop(self):
        t_stop, s, level = time.perf_counter(), self.stamps, self.level
        if not s:
            self._add(level, [t_stop - self.t_start])
        else:
            self._add(f"{level}/head", [s[0] - self.t_start])
            ends = s[1:] + [t_stop]
            steps = [b - a - self.skips.get(i, 0.0) for i, (a, b) in enumerate(zip(s, ends))]
            tail = steps.pop()
            if self.by_step:
                for t, d in enumerate(steps):
                    self._add(f"{level}/{t}", [d])
            else:
                self._add(level, steps)
            self._add(f"{level}/tail", [tail])
        self.stamps = []
        if t_stop - self.last_reference >= REF_EVERY_S:
            self._reference()

    def _reference(self) -> float:
        t0 = time.perf_counter()
        self.sample()
        self.last_reference = time.perf_counter()
        took = self.last_reference - t0
        self.reference.append(took)
        self.reference_in_unit += took
        return took

    def _add(self, level, durations):
        self.unit.setdefault(str(level), []).extend(durations)

    def take(self):
        """(segments by level, reference seconds) of the unit just run."""
        out = (self.unit, self.reference_in_unit)
        self.unit, self.reference_in_unit = {}, 0.0
        return out


REF_EVERY_S = 0.1
REF_SECONDS = 3e-3  # nominal time of one reference sample
_REF_A, _REF_B = np.array([0.3, 0.7]), np.array([0.1, -0.2])


def reference_sample():
    v = _REF_A
    for _ in range(300):
        v = v - 0.01 * _REF_B
        np.linalg.norm(v)
        np.all(np.isfinite(v))
    return v


def install_clock(bp, clock: Clock):
    """Stamp each outer iteration's start and each driver's return."""
    drivers = bp.drivers
    inner = drivers.inner_descend

    def stamped(*args, **kwargs):
        clock.stamp()
        return inner(*args, **kwargs)

    drivers.inner_descend = stamped

    def stamp_on_return(fn):
        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            clock.stamp()
            return out
        return run

    for owner in (bp, bp.zerochain):
        owner.run_f2ba = stamp_on_return(owner.run_f2ba)
    bp.run_f2bsa = stamp_on_return(bp.run_f2bsa)


def _final_iterates(trace) -> bytes:
    s = trace.final_state
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in (s.x, s.y, s.z))


# ---------------------------------------------------------------------------
# f2ba_sweep: deterministic sweep on kernel_pl, every trace rendered as CSV


class F2BASweep:
    name = "f2ba_sweep"
    fixed_units = 2
    stream = 1

    def setup(self, bp, seed):
        suite = bp.get_problem("kernel_pl")
        plans = [bp.build_schedule(suite.problem.constants, eps, **BUDGET)
                 for eps in EPS_F2BA]
        return {"bp": bp, "seed": seed, "suites": {"kernel_pl": suite},
                "plans": plans}

    def inputs(self, ctx, i):
        rng = _rng(ctx["seed"], self.stream, i)
        x0 = rng.uniform(0.0, 2.0, size=1)
        y0 = rng.uniform(0.0, 2.0, size=2)
        return {"x0": x0, "y0": y0, "plans": ctx["plans"]}

    def solve(self, ctx, inp, short=False):
        bp, suite = ctx["bp"], ctx["suites"]["kernel_pl"]
        plans = inp["plans"][:2] if short else inp["plans"]
        traces, csvs = [], []
        for plan in plans:
            ctx["clock"].start(plan.epsilon)
            _solve_or_error(bp, traces, bp.run_f2ba, suite.problem, plan,
                            x0=inp["x0"], y0=inp["y0"])
            ctx["clock"].stop()
            if not isinstance(traces[-1], Exception):
                ctx["clock"].start(f"csv@{plan.epsilon}")
                csvs.append(bp.render_trace_csv(traces[-1]))
                ctx["clock"].stop()
        return traces, csvs

    def summarize(self, ctx, inp, out):
        traces, csvs = out
        runs, digest = [], [inp["x0"].tobytes(), inp["y0"].tobytes()]
        for plan, tr in zip(inp["plans"], traces):
            run = {"eps": plan.epsilon, "T": plan.T, "K": plan.K}
            if isinstance(tr, Exception):
                run["error"] = f"{type(tr).__name__}: {tr}"
            else:
                run.update(rows=len(tr.rows), calls=tr.total_oracle_calls,
                           min_grad_est=tr.min_grad_est)
                digest.append(_final_iterates(tr))
            runs.append(run)
        digest += [c.encode() for c in csvs]
        outer = sum(r.get("rows", 0) for r in runs)
        fused = sum(r.get("calls", 0) for r in runs)
        return {"runs": runs}, b"".join(digest), outer, fused


# ---------------------------------------------------------------------------
# f2bsa_sweep: stochastic sweep on kernel_pl_fnoise, one noise seed per unit


class F2BSASweep:
    name = "f2bsa_sweep"
    fixed_units = 2
    stream = 2

    def setup(self, bp, seed):
        suite = bp.get_problem("kernel_pl_fnoise")
        plans = [bp.build_schedule(suite.problem.constants, eps, **BUDGET)
                 for eps in EPS_F2BSA]
        return {"bp": bp, "seed": seed, "suites": {"kernel_pl_fnoise": suite},
                "plans": plans}

    def inputs(self, ctx, i):
        noise_seed = int(_rng(ctx["seed"], self.stream, i).integers(0, 2**31 - 1))
        return {"noise_seed": noise_seed, "plans": ctx["plans"]}

    def solve(self, ctx, inp, short=False):
        bp, suite = ctx["bp"], ctx["suites"]["kernel_pl_fnoise"]
        plans = inp["plans"][:2] if short else inp["plans"]
        traces, csvs = [], []
        for plan in plans:
            ctx["clock"].start(plan.epsilon)
            _solve_or_error(bp, traces, bp.run_f2bsa, suite.problem, plan,
                            seed=inp["noise_seed"])
            ctx["clock"].stop()
            if not isinstance(traces[-1], Exception):
                ctx["clock"].start(f"csv@{plan.epsilon}")
                csvs.append(bp.render_trace_csv(traces[-1]))
                ctx["clock"].stop()
        return traces, csvs

    def summarize(self, ctx, inp, out):
        traces, csvs = out
        runs, digest = [], [str(inp["noise_seed"]).encode()]
        for plan, tr in zip(inp["plans"], traces):
            run = {"eps": plan.epsilon, "T": plan.T, "B": plan.B}
            if isinstance(tr, Exception):
                run["error"] = f"{type(tr).__name__}: {tr}"
            else:
                run.update(rows=len(tr.rows), calls=tr.total_oracle_calls,
                           min_grad_est=tr.min_grad_est,
                           K_t=[r.K_t for r in tr.rows],
                           rng_counter=tr.final_state.rng_counter)
                digest.append(_final_iterates(tr))
            runs.append(run)
        digest += [c.encode() for c in csvs]
        outer = sum(r.get("rows", 0) for r in runs)
        fused = sum(r.get("calls", 0) for r in runs)
        return {"runs": runs}, b"".join(digest), outer, fused


# ---------------------------------------------------------------------------
# chain_certify: zero-respecting certification at q = 800 and q = 3200


class ChainCertify:
    name = "chain_certify"
    fixed_units = 1

    def setup(self, bp, seed):
        # The instance is fixed by (T, K): the seed is deliberately unused.
        suites = {f"q{2 * t * t}": bp.make_hard_instance(bp.HardInstanceSpec(T=t, K=t))
                  for t in CHAIN_TK}
        return {"bp": bp, "seed": seed, "suites": suites}

    def inputs(self, ctx, i):
        return {"sizes": CHAIN_TK}

    def solve(self, ctx, inp, short=False):
        bp = ctx["bp"]
        reports = []
        for t in inp["sizes"]:
            inst = ctx["suites"][f"q{2 * t * t}"]
            ctx["clock"].start(f"q{2 * t * t}", by_step=True)
            _solve_or_error(bp, reports, bp.run_zero_respecting, bp.F2BAAdapter(),
                            t, t, instance=inst)
            ctx["clock"].stop()
        return reports

    def summarize(self, ctx, inp, out):
        certs, digest = [], []
        for t, rep in zip(inp["sizes"], out):
            if isinstance(rep, Exception):
                certs.append({"T": t, "K": t, "error": f"{type(rep).__name__}: {rep}"})
                continue
            certs.append({"T": t, "K": t, "passed": bool(rep.passed),
                          "counts": {k: rep.counts.get(k, 0)
                                     for k in rep.expected_counts},
                          "expected": dict(rep.expected_counts)})
            digest.append(rep.render_text().encode())
            digest.append(np.asarray(rep.x_trajectory, dtype=float).tobytes())
        outer = sum(c["T"] for c in certs if "passed" in c)
        fused = sum(c["T"] * (2 * c["K"] + 3) for c in certs if "passed" in c)
        return {"certs": certs}, b"".join(digest), outer, fused


# ---------------------------------------------------------------------------
# verify_battery: the diagnostics at seeded probe points on four problems


def _penalty_value(bp, prob, sigma, x):
    return bp.penalized_hyperobjective_value(bp.PenaltyObjective(prob, sigma), x)


def count_descend_steps(inner_mod, diag_mod, counter: list):
    """Count gradient evaluations of every ``descend_single`` call.

    They are the battery's unit of inner work (its analogue of a fused
    oracle call).  Both names are patched because ``diagnostics`` imports the
    function by name and ``core`` imports it late from ``inner``.
    """
    orig = inner_mod.descend_single

    def counted(*args, **kwargs):
        out = orig(*args, **kwargs)
        counter[0] += out[2] + 1
        return out

    inner_mod.descend_single = counted
    diag_mod.descend_single = counted


class VerifyBattery:
    name = "verify_battery"
    fixed_units = 60
    stream = 4

    def setup(self, bp, seed):
        suites = {name: bp.get_problem(name) for name in BATTERY}
        evals = [0]
        count_descend_steps(bp.inner, bp.diagnostics, evals)
        return {"bp": bp, "seed": seed, "suites": suites, "evals": evals}

    def inputs(self, ctx, i):
        rng = _rng(ctx["seed"], self.stream, i)
        probes = []
        for name in BATTERY:
            meta = ctx["suites"][name].problem.meta
            dim_y = ctx["suites"][name].problem.dim_y
            probes.append({
                "problem": name,
                "x": rng.uniform(*meta.x_window, size=1),
                "y": rng.uniform(*meta.y_window, size=dim_y),
                "seed": int(rng.integers(0, 2**31 - 1)),
            })
        return {"probes": probes}

    def solve(self, ctx, inp, short=False):
        bp, suites, clock = ctx["bp"], ctx["suites"], ctx["clock"]
        start = ctx["evals"][0]
        results = []
        for pr in inp["probes"]:
            clock.start(pr["problem"])
            suite = suites[pr["problem"]]
            prob, x, y, sd = suite.problem, pr["x"], pr["y"], pr["seed"]
            res = {}
            calls = []
            if pr["problem"] != "discontinuous":
                calls.append(("routes", bp.hypergradient_routes, (suite, x), {}))
                y_on = suite.project_y_star(x, y, 0.0)
                calls.append(("galet_on", bp.galet_residuals, (prob, x, y_on), {}))
                for sg in SIGMAS:
                    calls.append((f"penalty_{sg:g}", _penalty_value,
                                  (bp, prob, sg, x), {}))
                calls.append(("check_gradients", bp.check_gradients, (prob,),
                              {"n_probes": 10, "seed": sd}))
                calls.append(("pl_ratio", bp.pl_ratio_certificate, (prob,),
                              {"probes": 20, "seed": sd}))
            calls.append(("galet_off", bp.galet_residuals, (prob, x, y), {}))
            if suite.sample_y_star is not None:
                calls.append(("set_lipschitz", bp.set_lipschitz_check, (suite,),
                              {"n_pairs": 20, "seed": sd}))
            if prob.dim_y == 1:
                calls.append(("grid", bp.grid_hyper_objective, (prob, x), {}))
                if pr["problem"] == "discontinuous":
                    calls.append(("check_gradients", bp.check_gradients, (prob,),
                                  {"n_probes": 10, "seed": sd}))
            for key, fn, args, kwargs in calls:
                out = []
                _solve_or_error(bp, out, fn, *args, **kwargs)
                res[key] = out[0]
            clock.stop()
            results.append(res)
        return results, ctx["evals"][0] - start

    def summarize(self, ctx, inp, out):
        results, evals = out
        items, digest = [], []
        for pr, res in zip(inp["probes"], results):
            suite = ctx["suites"][pr["problem"]]
            prob, x, y = suite.problem, pr["x"], pr["y"]
            c = prob.constants
            grad_phi = (float(np.linalg.norm(prob.analytic_grad_phi(x)))
                        if prob.analytic_grad_phi is not None else None)
            phi = float(prob.analytic_phi(x)) if prob.analytic_phi is not None else None
            for key, val in res.items():
                item = {"problem": pr["problem"], "call": key.split("_")[0]
                        if key.startswith("penalty") else key}
                if isinstance(val, Exception):
                    item["error"] = f"{type(val).__name__}: {val}"
                elif key == "routes":
                    item["gaps"] = list(val["disagreements"].values())
                elif key.startswith("galet"):
                    item.update(R_x=val.R_x, R_w=val.R_w, R_y=val.R_y)
                    if key == "galet_on":
                        item["grad_phi"] = grad_phi
                    elif suite.project_y_star is not None:
                        y_on = suite.project_y_star(x, y, 0.0)
                        item["R_y_ref"] = float(prob.g(x, y) - prob.g(x, y_on))
                elif key.startswith("penalty"):
                    sg = float(key.split("_")[1])
                    item.update(sigma=sg, value=val.value,
                                error_bound=val.error_bound)
                    if suite.phi_sigma is not None:
                        item["phi_sigma"] = float(suite.phi_sigma(x, sg))
                    else:
                        item["phi"] = phi
                        item["bias_bound"] = sg * c.C_f ** 2 / (2.0 * c.mu)
                elif key == "set_lipschitz":
                    item.update(violations=len(val["violations"]),
                                checked=val["checked"])
                elif key == "check_gradients":
                    item["err"] = val
                elif key == "pl_ratio":
                    item.update(min_ratio=val.min_ratio, mu=c.mu, used=val.used)
                elif key == "grid":
                    item.update(value=val, phi=phi)
                items.append(item)
                digest.append(repr(sorted((k, v) for k, v in item.items()
                                          if k != "problem")).encode())
        return {"items": items}, b"".join(digest), len(inp["probes"]), evals


WORKLOADS = {w.name: w for w in (F2BASweep(), F2BSASweep(), ChainCertify(),
                                 VerifyBattery())}


def wrap_suites(ctx, wrap_problem):
    """Replace every suite's oracle bundle by ``wrap_problem(problem, label)``."""
    ctx["suites"] = {
        label: dataclasses.replace(s, problem=wrap_problem(s.problem, label))
        for label, s in ctx["suites"].items()
    }
