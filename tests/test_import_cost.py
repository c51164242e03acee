"""Importing slatelearn must stay cheap.

``scipy.sparse`` (and ``scipy.sparse.csgraph`` with it) adds about a sixth
of a second to ``import slatelearn``, which every command-line run and every
benchmark set-up pays. The forest graph helpers walk the forest in Python and
numpy instead, so the package never needs it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_sparse():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = ("import sys, slatelearn; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
