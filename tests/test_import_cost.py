"""Importing slatelearn must stay cheap.

scipy is not a dependency. Loading ``scipy.special`` made ``import
slatelearn`` about 0.4 s slower and 25 MiB larger on a 2-vCPU VM, a cost
every command-line run and every benchmark set-up pays, and ``scipy.sparse``
adds another sixth of a second. Single-slate distributions are rows of each
model's numpy kernel, and the forest graph helpers walk the forest in Python
and numpy, so neither the package nor its command line loads any ``scipy``
module.
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
    for module in ("slatelearn", "slatelearn.cli"):
        probe = ("import sys, {}; print(sorted(m for m in sys.modules "
                 "if m.startswith('scipy')))".format(module))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        assert out.stdout.strip() == "[]", module
