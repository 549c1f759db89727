"""The benchmark's tracer patches the package's entry points by name.

A name it patches that the package no longer has (say an import that looks
unused, such as ``zerochain.substream``) breaks every traced benchmark run.
Installing the tracer in a fresh interpreter catches that here; the
subprocess keeps its patches out of the other tests.

The same subprocess runs ``run_f2bsa`` traced, as the benchmark's traced
f2bsa_sweep does, and reconciles the tracer's counts with the traces: every
noisy gradient must go through ``StochasticOracle.draw``, which the tracer
patches, so a draw routed around it fails here.  It then runs ``run_f2ba``
traced on kernel_pl, whose converged phases keep and repeat their inner
steps: each outer step must still make K f_y, 2K g_y, one f_x and two g_x
calls, so a repeated step that skipped an oracle call fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bipen, tracing
tracer = tracing.Tracer()
tracing.install(tracer, bipen)
prob = tracer.wrap_problem(bipen.get_problem("kernel_pl_fnoise").problem,
                           "kernel_pl_fnoise")
counters = rows = 0
for eps in (0.1, 0.05):
    plan = bipen.build_schedule(prob.constants, eps, Delta=0.5, R=0.25)
    trace = bipen.run_f2bsa(prob, plan, seed=0)
    counters += trace.final_state.rng_counter
    rows += len(trace.rows)
draws = tracer.count[tracer.names.index("core.draw")]
assert tracer.mismatches == [], tracer.mismatches
assert rows > 0 and tracer.rng_normals == counters > 0, (tracer.rng_normals, counters)
assert draws == sum(tracer.raw.values()), (draws, tracer.raw)
kernel = tracer.wrap_problem(bipen.get_problem("kernel_pl").problem, "kernel_pl")
for eps in (0.1, 0.03):
    tracer.reset()
    plan = bipen.build_schedule(kernel.constants, eps, Delta=0.5, R=0.25)
    trace = bipen.run_f2ba(kernel, plan)
    assert tracer.mismatches == [], tracer.mismatches
    steps = len(trace.rows)
    assert steps == plan.T and tracer.raw == {
        "f_x": steps, "f_y": plan.K * steps, "g_x": 2 * steps,
        "g_y": 2 * plan.K * steps}, (tracer.raw, steps, plan.K)
"""


def test_tracer_finds_every_patch_target():
    r = subprocess.run([sys.executable, "-c", _INSTALL,
                        str(ROOT / "src"), str(ROOT / "perfbench")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
