"""A balanced learn at n = 4096 must finish in bounded memory.

Holding every geometric wait of a balanced ratio estimate at once needs
about 9 GiB here; drawing one loss total per (group, member) needs well
under 100 MiB. The learn runs in a child process that caps its own address
space, so only the child is limited.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LIMIT = 2 << 30

CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import slatelearn as sl
truth = sl.generate_instance(
    sl.InstanceSpec("power-law", 4096, 1201, {{"gamma": 1.0}}))
oracle = sl.LiveOracle(truth, 1201)
sl.learn_balanced(oracle, 4096, 0.3, 0.1, seed=1201)
print("finished", oracle.ledger.total)
"""


def test_balanced_learn_at_n_4096_fits_in_2_gib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    out = subprocess.run([sys.executable, "-c", CHILD.format(limit=LIMIT)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.startswith("finished")
