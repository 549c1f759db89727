"""The README's "Library quickstart" block runs as written, so the documented
API cannot drift from the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_the_library_quickstart_runs():
    section = (ROOT / "README.md").read_text().split("## Library quickstart\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    # a fresh interpreter that sees only the source tree, as the README's reader does
    env = dict(os.environ, PYTHONPATH="src")
    r = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
