"""The benchmark's tracer patches the package's entry points by name.

A name it patches that the package no longer has (say an import that looks
unused, such as ``zerochain.substream``) breaks every traced benchmark run.
Installing the tracer in a fresh interpreter catches that here; the
subprocess keeps its patches out of the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bipen, tracing
tracing.install(tracing.Tracer(), bipen)
"""


def test_tracer_finds_every_patch_target():
    r = subprocess.run([sys.executable, "-c", _INSTALL,
                        str(ROOT / "src"), str(ROOT / "perfbench")],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
