"""Learns that must finish in bounded memory.

Holding every geometric wait of a balanced ratio estimate at once needs
about 9 GiB at n = 4096; drawing one loss total per (group, member) needs
well under 100 MiB. A non-adaptive replay table pays for its whole batch
but keeps no answers: a replay draws only the answers it reads, each
pair's from its own stream, and keeps one Generator per pair it read. Of
the 1 GiB batch of 435 pairs x 2,468,364 answers at n = 30, the learner
reads 7.3e6 answers from 57 pairs. Each
learn runs in a child process that caps its own address space, so only the
child is limited.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
import slatelearn as sl
truth = sl.generate_instance(
    sl.InstanceSpec("power-law", {n}, 1201, {{"gamma": 1.0}}))
"""


def run_child(limit: int, n: int, learn: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    code = CHILD.format(limit=limit, n=n) + learn
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.startswith("finished")


def test_balanced_learn_at_n_4096_fits_in_2_gib():
    run_child(2 << 30, 4096, """
oracle = sl.LiveOracle(truth, 1201)
sl.learn_balanced(oracle, 4096, 0.3, 0.1, seed=1201)
print("finished", oracle.ledger.total)
""")


def test_balanced_learn_at_n_16384_fits_in_256_mib():
    # each balanced estimate is one M x |C_j| count matrix of about 5.5 MiB
    run_child(256 << 20, 16384, """
oracle = sl.LiveOracle(truth, 1201)
sl.learn_balanced(oracle, 16384, 0.3, 0.1, seed=1201)
print("finished", oracle.ledger.total)
""")


def test_nonadaptive_learn_with_m_5e5_fits_in_256_mib():
    run_child(256 << 20, 14, """
oracle = sl.LiveOracle(truth, 1201, pair_mode="stream")
model, replay = sl.learn_nonadaptive(oracle, 14, 0.5, 0.1, 500_000, seed=1201)
print("finished", oracle.ledger.total, replay.ledger.total)
""")


def test_nonadaptive_learn_of_a_1_gib_batch_fits_in_192_mib():
    # the child alone spans about 117 MiB; m bytes for each of the 57 pairs
    # read would add 134 MiB more
    run_child(192 << 20, 30, """
oracle = sl.LiveOracle(truth, 1201, pair_mode="stream")
model, replay = sl.learn_nonadaptive(oracle, 30, 0.5, 0.1, (1 << 30) // 435,
                                     seed=1201)
print("finished", oracle.ledger.total, replay.ledger.total)
""")
