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

The distance evals score ragged slates, so their temporaries hold what the
slates hold, and the forest audit builds row blocks only for rows that can
hold a violation: their traced peaks are bounded in-process with tracemalloc.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import slatelearn as sl

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


def traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def learned_pair(n: int) -> tuple:
    """A power-law truth and a model off it by a little noise per item."""
    truth = sl.generate_instance(
        sl.InstanceSpec("power-law", n, 1201, {"gamma": 1.0}))
    noise = np.random.default_rng(n).normal(scale=0.05, size=n)
    return truth, sl.LogWeightMnl(truth.log_w + noise)


def test_sampled_eval_at_n_4096_peaks_under_4_mib():
    # 200 slates of about 26k items; 200 x 4096 mask rows peaked at 14.3 MiB
    a, b = learned_pair(4096)
    assert traced_peak_mib(lambda: sl.distance_sampled(a, b, 200)) < 4.0


@pytest.mark.parametrize("n, mask_form_mib", [(14, 4.03), (20, 18.8)])
def test_exact_eval_peaks_no_higher_than_mask_rows(n, mask_form_mib):
    # the mask-row form of distance_exact peaked at mask_form_mib
    a, b = learned_pair(n)
    assert traced_peak_mib(lambda: sl.distance_exact(a, b)) <= mask_form_mib


def test_valid_forest_audit_at_n_4096_peaks_under_1_5_mib():
    # every row of the adaptive builder's one-tree forest of diameter 4 is
    # quiet, so no row block is built; row blocks of every row peaked at
    # 2.5 MiB
    truth = sl.generate_instance(
        sl.InstanceSpec("power-law", 4096, 1201, {"gamma": 1.0}))
    forest = sl.build_estimation_forest(sl.LiveOracle(truth, 1201), 0.5, 0.3,
                                        0.1, np.random.default_rng(1201))
    report = []
    peak = traced_peak_mib(
        lambda: report.append(sl.validate_forest(forest, truth.log_w)))
    assert report[0].ok
    assert peak < 1.5
