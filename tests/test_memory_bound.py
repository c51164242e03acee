"""Learns that must finish in bounded memory.

Holding every geometric wait of a balanced ratio estimate at once needs
about 9 GiB at n = 4096; drawing one loss total per (group, member) needs
well under 100 MiB. A non-adaptive batch pays for every pair's answers with
one ledger charge and keeps no answers: building it costs what the live
oracle's held pair streams cost, not n(n-1)/2, and a replay draws only the
answers it reads, each pair's from its own stream, keeping one Generator
per pair it read. Of the 1 GiB batch of 435 pairs x 2,468,364 answers at
n = 30, the learner reads 7.3e6 answers from 57 pairs. Each learn runs in a
child process that caps its own address space, so only the child is
limited.

The distance evals list and score ragged slates a chunk at a time, so their
temporaries hold what a chunk of slates holds, at any number of slates (the
sampled eval adds n / 8 bytes per random subset, to skip its repeats), and
the forest audit builds row blocks only for rows that can hold a violation:
their traced peaks are bounded in-process with tracemalloc. A ledger logs
an array charge as one run and folds its runs into per-pair arrays, about
24 bytes a pair touched, where a dict entry per pair took 130 to 170.
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


def test_batch_at_n_4096_builds_in_a_tenth_of_a_second_under_100_mib():
    # 8.4e6 pairs x 1e6 answers; a replay then reads 100 answers from each
    # of 4,095 pairs
    run_child(512 << 20, 4096, """
import time
import numpy as np
oracle = sl.LiveOracle(truth, 1201, pair_mode="stream")
start = time.perf_counter()
table = sl.build_replay_table(oracle, 10**6)
built = time.perf_counter() - start
assert built < 0.1, built
assert oracle.ledger.total == 4096 * 4095 // 2 * 10**6
wins = sl.ReplayOracle(table).pair_win_count(0, np.arange(1, 4096), 100)
assert wins.size == 4095 and 0 < wins.sum() < 409500
# the child's own peak: ru_maxrss keeps the parent's across exec
with open("/proc/self/status") as status:
    rss_mib = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:")) / 1024
assert rss_mib < 100, rss_mib
print("finished", built, rss_mib)
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


def test_sampled_eval_of_2000_slates_at_n_4096_peaks_under_8_mib():
    # the full slate and 1,999 prefixes, 2e6 items in all; listed as Python
    # tuples they peaked at 77.0 MiB
    a, b = learned_pair(4096)
    assert traced_peak_mib(lambda: sl.distance_sampled(a, b, 2000)) < 8.0


def test_sampled_eval_of_6000_slates_at_n_4096_peaks_under_8_mib():
    # past the prefixes, 1,905 random subsets of about 2,048 ids each; kept
    # as their 8-byte ids, not as membership bits, to skip repeats, they
    # peaked at 35.2 MiB
    a, b = learned_pair(4096)
    assert traced_peak_mib(lambda: sl.distance_sampled(a, b, 6000)) < 8.0


@pytest.mark.parametrize("n, reduceat_form_mib", [(14, 2.22), (20, 3.11)])
def test_exact_eval_peaks_at_most_5_percent_over_reduceat_form(
        n, reduceat_form_mib):
    # ragged chunks gathered through a broadcast view, with each slate's
    # max taken by reduceat in both kernels, peaked at reduceat_form_mib
    # (the mask-row form before them at 4.03 and 18.8 MiB)
    a, b = learned_pair(n)
    peak = traced_peak_mib(lambda: sl.distance_exact(a, b))
    assert peak <= 1.05 * reduceat_form_mib


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


def test_array_charges_of_100_000_pairs_retain_under_4_mib():
    # 100 runs of 1,000 distinct partners each; charged as one dict entry
    # per pair they retained 12.9 MiB and peaked at 14.5 MiB
    tracemalloc.start()
    try:
        ledger = sl.QueryLedger()
        for u in range(100):
            ledger.record_pairs(u, np.arange(100, 1100), 3)
        retained, peak = (b / 2**20 for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(ledger.per_pair) == 100_000 and ledger.max_per_pair == 3
    assert retained < 4.0 and peak < 8.0


def test_scalar_charges_after_an_array_charge_retain_under_64_kib():
    # 200,000 scalar charges to three pairs after one run; logged as a
    # one-partner run each they held up to 15 MiB before a fold
    tracemalloc.start()
    try:
        ledger = sl.QueryLedger()
        ledger.record_pairs(0, np.arange(1, 11), 1)
        for i in range(200_000):
            ledger.record_pair(1 + i % 3, 20, 1000)
        retained, peak = (b / 2**20 for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(ledger.per_pair) == 13 and ledger.max_per_pair == 66_667_000
    assert retained < 1 / 16 and peak < 1 / 16


def test_adaptive_learn_at_n_4096_retains_under_2_mib():
    # 54,290 pairs, each charged about once; one dict entry per pair
    # retained 8.9 MiB
    truth = sl.generate_instance(
        sl.InstanceSpec("power-law", 4096, 1201, {"gamma": 1.0}))
    oracle = sl.LiveOracle(truth, 1201)
    tracemalloc.start()
    try:
        model = sl.learn_adaptive(oracle, 4096, 0.3, 0.1, seed=1201)
        assert oracle.ledger.max_per_pair > 0   # a read folds every run
        retained = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert model.n == 4096 and len(oracle.ledger.per_pair) > 50_000
    assert retained < 2.0
