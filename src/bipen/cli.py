"""Command-line interface.

Subcommands
-----------
``list-problems``   registry with regimes and dimensions
``run``             one schedule-driven run, optional CSV trace
``sweep-slope``     oracle-complexity slope over a list of epsilons
``certify-hard``    zero-respecting certification on the chain instance
``diagnose``        independent checks of a problem's declarations

Configuration keys (schedule overrides ``eta sigma tau K T B delta0``, ratio
constants ``c_eta c_sigma c_K c_B c_delta``, budget inputs ``Delta R``) are
resolved in increasing precedence: config file, ``BIPEN_<KEY>`` environment
variables, ``--set key=value``.  Unknown keys are rejected.

Exit codes: 0 ok; 1 a certification or slope expectation failed; 2 bad
configuration or usage; 3 an iteration diverged or failed to converge;
4 numeric breakdown; 5 a requested capability is unavailable.
"""

from __future__ import annotations

import argparse
import os
import sys
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import diagnostics
from .drivers import (_PLAN_CONSTANT_KEYS, _PLAN_OVERRIDE_KEYS, build_schedule,
                      fit_complexity_slope, run_f2ba, run_f2bsa)
from .errors import CapabilityError, ConfigError, ToolkitError
from .problems import get_problem, list_problems
from .rng import substream
from .zerochain import CoordinateProbeAdapter, F2BAAdapter, run_zero_respecting

_BUDGET_KEYS = ("Delta", "R")
_SETTING_KEYS = _PLAN_OVERRIDE_KEYS + _PLAN_CONSTANT_KEYS + _BUDGET_KEYS
_INT_KEYS = ("K", "T", "B")

_CSV_COLUMNS = ("t", "hypergrad_norm_est", "hypergrad_norm_analytic",
                "phi_analytic", "K_t", "delta_t", "oracle_calls", "wall_ms")


# ---------------------------------------------------------------------------
# settings resolution


def _parse_setting(key: str, raw: str):
    if key not in _SETTING_KEYS:
        raise ConfigError(
            f"unknown setting {key!r}; allowed: {', '.join(_SETTING_KEYS)}"
        )
    raw = raw.strip()
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"setting {key} must be an integer, got {raw!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"setting {key} must be a number, got {raw!r}") from None


def _read_config_file(path: str) -> dict:
    """Strict ``key = value`` per line; blank lines and # comments allowed."""
    out = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        try:
            out[key.strip()] = _parse_setting(key.strip(), raw)
        except ConfigError as err:
            raise ConfigError(f"{path}: line {lineno}: {err}") from None
    return out


def resolve_settings(args) -> dict:
    """Merge config file < environment < --set into one settings dict."""
    settings = {}
    if getattr(args, "config", None):
        settings.update(_read_config_file(args.config))
    for key in _SETTING_KEYS:
        env = os.environ.get(f"BIPEN_{key.upper()}")
        if env is not None:
            settings[key] = _parse_setting(key, env)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        settings[key.strip()] = _parse_setting(key.strip(), raw)
    return settings


def budget_inputs(suite, settings: dict):
    """Resolve (Delta, R) with provenance: override > analytic > default 1.0.

    Delta is the hyper-objective gap at the default start; R the squared
    distance of the default y0 to Y*(x0) (via the suite's analytic
    projection).
    """
    prob = suite.problem
    x0, y0 = prob.default_start()
    Delta = R = (1.0, "default")
    if prob.analytic_phi is not None and suite.phi_inf is not None:
        Delta = (max(0.0, float(prob.analytic_phi(x0)) - float(suite.phi_inf)), "analytic")
    if suite.project_y_star is not None:
        try:
            proj = np.asarray(suite.project_y_star(x0, y0, 0.0), dtype=float)
            R = (float(np.sum((y0 - proj) ** 2)), "analytic")
        except CapabilityError:
            pass
    if "Delta" in settings:
        Delta = (float(settings["Delta"]), "override")
    if "R" in settings:
        R = (float(settings["R"]), "override")
    return Delta[0], R[0], {"Delta": Delta[1], "R": R[1]}


def plan_from_args(suite, epsilon: float, settings: dict):
    Delta, R, prov = budget_inputs(suite, settings)
    overrides = {k: v for k, v in settings.items() if k not in _BUDGET_KEYS}
    return build_schedule(suite.problem.constants, epsilon, Delta, R,
                          overrides=overrides, provenance=prov)


def _announce(plan, algorithm: str) -> None:
    """Print the plan's T, K and B to stderr before its run, and f2ba's
    T (2K + 3) fused calls, so that a plan that cannot finish shows at once."""
    calls = f", {plan.T * (2 * plan.K + 3):,} fused calls" if algorithm == "f2ba" else ""
    print(f"plan: epsilon={plan.epsilon:g} T={plan.T:,} K={plan.K:,} B={plan.B:,}{calls}",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# trace output


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


# one row: %d for the int columns and the repr of the float ones, the text
# _fmt gives them; wall_ms is '' or its repr
_ROW_FORMAT = "%d,%s,%s,%s,%d,%s,%d,%s"
_FLOAT_COLUMNS = ("grad_est_norm", "grad_true_norm", "phi_true", "delta_t")


def _float_texts(values) -> list:
    """The repr of each value.  A nonzero float equal to the value before it
    has its bits and takes its text: a converged run repeats its float
    columns row after row, and a 17-digit repr costs ~0.7-1.1 us (2-vCPU
    Xeon VM, Python 3.11).  A zero is always formatted, since == does not
    tell 0.0 from -0.0."""
    texts, last, text = [], None, ""  # last: the previous value if a float
    for v in values:
        if v != last or v == 0.0 or type(v) is not float:
            text, last = repr(v), (v if type(v) is float else None)
        texts.append(text)
    return texts


def render_trace_csv(trace) -> str:
    """Trace as CSV text with a replayable ``# key = value`` header block."""
    meta = [("problem", trace.problem_name), ("algorithm", trace.algorithm),
            ("seed", "-" if trace.seed is None else trace.seed)]
    lines = [f"# {key} = {_fmt(value)}" for key, value in meta + trace.plan.header_items()]
    lines.append(",".join(_CSV_COLUMNS))
    rows = trace.rows
    est, true, phi, delta = (_float_texts(map(attrgetter(name), rows))
                             for name in _FLOAT_COLUMNS)
    lines += [_ROW_FORMAT % (r.t, a, b, c, r.K_t, d, r.oracle_calls,
                             "" if r.wall_ms is None else repr(r.wall_ms))
              for r, a, b, c, d in zip(rows, est, true, phi, delta)]
    return "\n".join(lines) + "\n"


def read_trace_header(path) -> dict:
    """Parse the ``# key = value`` header block of a trace CSV."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("#"):
            break
        key, _, raw = line[1:].partition("=")
        out[key.strip()] = raw.strip()
    return out


def write_trace_csv(path, trace) -> None:
    Path(path).write_text(render_trace_csv(trace))


def _check_out(path, option: str):
    """Refuse, before any run, an output path that no file can take."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ConfigError(f"{option} {path}: not a file in an existing directory")


def _os_call(option: str, path, fn):
    """``fn()``; an OSError is a ConfigError that names ``option`` and ``path``."""
    try:
        return fn()
    except OSError as exc:
        raise ConfigError(f"{option} {path}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_list_problems(args) -> int:
    for name in list_problems():
        suite = get_problem(name)
        prob = suite.problem
        print(f"{name:26s} regime={suite.regime:18s} "
              f"dim_x={prob.dim_x} dim_y={prob.dim_y}")
        if args.verbose:
            c = prob.constants
            print(f"{'':26s} {suite.notes}")
            print(f"{'':26s} C_f={c.C_f:g} L_f={c.L_f:g} L_g={c.L_g:g} "
                  f"rho_f={c.rho_f:g} rho_g={c.rho_g:g} mu={c.mu:g} "
                  f"sigma_bar={c.sigma_bar:g} M_f={c.M_f:g} M_g={c.M_g:g}")
    return 0


def _run_once(suite, algorithm: str, plan, seed: int, timing: bool):
    """One run on the suite's problem, its trace named after the registry entry."""
    trace = (run_f2ba(suite.problem, plan, timing=timing) if algorithm == "f2ba"
             else run_f2bsa(suite.problem, plan, seed=seed, timing=timing))
    trace.problem_name = suite.name
    return trace


def _cmd_run(args) -> int:
    suite = get_problem(args.problem)
    settings = resolve_settings(args)
    plan = plan_from_args(suite, args.epsilon, settings)
    _check_out(args.out, "--out")
    _announce(plan, args.algorithm)
    trace = _run_once(suite, args.algorithm, plan, args.seed, args.timing)
    print(trace.summary_line())
    if args.out:
        _os_call("--out", args.out, lambda: write_trace_csv(args.out, trace))
        print(f"trace written to {args.out}")
    return 0


def _cmd_sweep_slope(args) -> int:
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--epsilons must be a comma-separated list of numbers, "
                          f"got {args.epsilons!r}") from None
    if len(epsilons) < 3:
        raise ConfigError(f"slope estimation needs at least 3 epsilons, "
                          f"got {len(epsilons)}")
    if len(set(epsilons)) < 2:
        raise ConfigError(f"slope estimation needs at least 2 distinct epsilons, "
                          f"got {args.epsilons!r}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    for option, v in (("--expect-slope", args.expect_slope), ("--slope-tol", args.slope_tol)):
        if v is not None and not 0.0 <= v < np.inf:
            raise ConfigError(f"{option} must be finite and >= 0, got {v}")
    suite = get_problem(args.problem)
    settings = resolve_settings(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        _os_call("--out-dir", out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))

    points = []
    for eps in epsilons:
        plan = plan_from_args(suite, eps, settings)
        _announce(plan, args.algorithm)
        calls = []
        for seed in range(args.seeds):
            trace = _run_once(suite, args.algorithm, plan, seed, timing=False)
            print(trace.summary_line())
            calls.append(trace.total_oracle_calls)
            if out_dir:
                fname = (f"{args.problem}_{args.algorithm}"
                         f"_eps{eps:g}_seed{seed}.csv")
                _os_call("--out-dir", out_dir, lambda: write_trace_csv(out_dir / fname, trace))
        points.append((eps, float(np.mean(calls))))

    slope = fit_complexity_slope(points)
    for eps, n in points:
        print(f"epsilon={eps:g}: mean oracle calls = {n:.6g}")
    print(f"slope of log(calls) vs log(1/epsilon): {slope:.4f}")
    if args.expect_slope is not None:
        lo = args.expect_slope - args.slope_tol
        hi = args.expect_slope + args.slope_tol
        ok = lo <= slope <= hi
        print(f"expected {args.expect_slope:g} +/- {args.slope_tol:g}: "
              f"{'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_certify_hard(args) -> int:
    adapter = F2BAAdapter() if args.adapter == "f2ba" else CoordinateProbeAdapter()
    _check_out(args.out, "--out")
    report = run_zero_respecting(adapter, T=args.T, K=args.K)
    print(report.render_text())
    if args.out:
        row = report.summary_row()
        text = ",".join(row) + "\n" + ",".join(map(str, row.values())) + "\n"
        _os_call("--out", args.out, lambda: Path(args.out).write_text(text))
        print(f"summary written to {args.out}")
    return 0 if report.passed else 1


_DIAGNOSE_CHECKS = ("gradients", "constants", "pl", "routes", "smoothness")


def _status(ratio: float, bound: float) -> str:
    """'ok' when an empirical ratio stays within its bound, else 'EXCEEDED'."""
    return "ok" if ratio <= bound * (1 + 1e-9) + 1e-12 else "EXCEEDED"


def _cmd_diagnose(args) -> int:
    if args.probes < 1:
        raise ConfigError(f"--probes must be at least 1, got {args.probes}")
    if not 0.0 <= args.sigma < np.inf:
        raise ConfigError(f"--sigma must be finite and >= 0, got {args.sigma}")
    suite = get_problem(args.problem)
    prob = suite.problem
    checks = _DIAGNOSE_CHECKS if "all" in args.checks else tuple(args.checks)

    for check in checks:
        try:
            if check == "gradients":
                worst = diagnostics.check_gradients(prob, n_probes=args.probes,
                                                    seed=args.seed)
                print(f"gradients: max relative error vs central differences = "
                      f"{worst:.3e}")
            elif check == "constants":
                ratios = diagnostics.check_smoothness_constants(
                    prob, n_pairs=args.probes, seed=args.seed)
                c = prob.constants
                for key, ratio in ratios.items():
                    bound = c.L_f if key.startswith("grad_f") else c.L_g
                    print(f"constants: {key:12s} empirical={ratio:.6g} "
                          f"declared={bound:g} [{_status(ratio, bound)}]")
            elif check == "pl":
                cert = diagnostics.pl_ratio_certificate(
                    prob, sigma=args.sigma, probes=args.probes, seed=args.seed)
                print(f"pl: min ratio ||grad h||^2/(2(h-h*)) = {cert.min_ratio:.6g} "
                      f"over {cert.used} probes (sigma={args.sigma:g}, "
                      f"declared mu={prob.constants.mu:g}, "
                      f"{cert.skipped} on-set probes skipped)")
            elif check == "routes":
                x0, _ = prob.default_start()
                out = diagnostics.hypergradient_routes(suite, x0)
                avail = ", ".join(sorted(out["routes"]))
                print(f"routes: available = {avail}")
                for pair, gap in sorted(out["disagreements"].items()):
                    print(f"routes: |{pair}| = {gap:.3e}")
            elif check == "smoothness":
                # fd hypergradients cost up to ~1 s per pair on a boxed problem (grid minima)
                pairs = substream(args.seed, "hyper-smoothness").uniform(
                    *prob.meta.x_window, size=(max(1, args.probes // 20), 2, prob.dim_x))
                est = diagnostics.smoothness_probe(prob, pairs)
                status = _status(est.max_ratio, est.scale)
                print(f"smoothness: max ||grad phi(x1) - grad phi(x2)|| / ||x1 - x2|| "
                      f"= {est.max_ratio:.6g} over {est.used} pairs, "
                      f"ell*kappa^3={est.scale:.6g} [{status}]")
        except ToolkitError as exc:
            print(f"{check}: skipped ({exc})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipen",
        description="Penalty-based bilevel optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list-problems", help="list the benchmark registry")
    p.add_argument("--verbose", action="store_true", help="include notes and constants")
    p.set_defaults(func=_cmd_list_problems)

    def add_common(p):
        p.add_argument("--problem", required=True, help="registry name")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a schedule/budget setting (repeatable)")
        p.add_argument("--config", help="file of 'key = value' settings")

    p = sub.add_parser("run", help="run one schedule-driven optimization")
    add_common(p)
    p.add_argument("--algorithm", choices=("f2ba", "f2bsa"), default="f2ba")
    p.add_argument("--epsilon", type=float, required=True,
                   help="target stationarity accuracy")
    p.add_argument("--seed", type=int, default=0, help="noise seed (f2bsa)")
    p.add_argument("--out", help="write the iteration trace as CSV")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock per iteration (breaks byte-for-byte "
                        "reproducibility of the CSV)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep-slope",
                       help="estimate the oracle-complexity exponent")
    add_common(p)
    p.add_argument("--algorithm", choices=("f2ba", "f2bsa"), default="f2ba")
    p.add_argument("--epsilons", required=True,
                   help="comma-separated accuracies (at least 3)")
    p.add_argument("--seeds", type=int, default=1,
                   help="seeds per epsilon, averaged (f2bsa)")
    p.add_argument("--out-dir", help="directory for per-run trace CSVs")
    p.add_argument("--expect-slope", type=float, default=None)
    p.add_argument("--slope-tol", type=float, default=0.5)
    p.set_defaults(func=_cmd_sweep_slope)

    p = sub.add_parser("certify-hard",
                       help="zero-respecting certification on the chain instance")
    p.add_argument("--T", type=int, default=10, help="outer iterations")
    p.add_argument("--K", type=int, default=10, help="inner steps per outer")
    p.add_argument("--adapter", choices=("f2ba", "probe"), default="f2ba",
                   help="'probe' deliberately violates the protocol")
    p.add_argument("--out", help="write a one-row summary CSV")
    p.set_defaults(func=_cmd_certify_hard)

    p = sub.add_parser("diagnose", help="independent checks of declarations")
    p.add_argument("--problem", required=True)
    p.add_argument("--checks", nargs="+", default=["all"],
                   choices=_DIAGNOSE_CHECKS + ("all",), metavar="CHECK",
                   help=f"subset of: {', '.join(_DIAGNOSE_CHECKS)} (default all)")
    p.add_argument("--sigma", type=float, default=0.0,
                   help="penalty weight for the PL check (0 = lower level)")
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error ({exc.category}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
