"""The benchmark's tracer still finds every name it patches.

``perfbench/tracer.py`` raises when a function it wraps is missing, so a
rename in ``dgdyn`` fails here in under a second instead of in a full
benchmark pass."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench")))
    code = "import dgdyn.cli\nfrom tracer import Tracer\nTracer().install(dgdyn)\n"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
