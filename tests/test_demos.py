"""Every demo runs to completion against the current API, and every name
the package exports exists."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgdyn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    # ``from dgdyn import *`` raises on a name left in __all__ after its deletion
    namespace = {}
    exec("from dgdyn import *", namespace)
    assert set(dgdyn.__all__) <= namespace.keys()
