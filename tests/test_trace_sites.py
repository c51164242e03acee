"""Every call site perfbench's tracer patches must still exist.

``perfbench/run.py --trace 1`` wraps the names listed in
``perfbench/tracing.py``'s ``SITES``; a refactor that drops or renames one
of them breaks the traced benchmark, so it fails here instead.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import slatelearn as sl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def load_sites() -> list:
    return [(module, attr) for module, attr, *_ in load_tracing().SITES]


@pytest.mark.parametrize("module, attr", load_sites())
def test_site_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer patches a method on the class that defines it
        cls_name, attr = attr.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert hasattr(owner, attr)


def estimate_notes() -> dict:
    """The note each estimate site records, keyed by its span name."""
    return {name: note for _, _, name, _, note in load_tracing().SITES
            if name in ("primitives.estimate_ratio",
                        "primitives.balanced_estimate_ratio")}


@pytest.mark.parametrize("w_0, kind", [(1e-6, "zero"), (1.0, "finite"),
                                       (1e6, "infinite")])
def test_estimate_ratio_notes_read_the_kind(w_0, kind):
    # the tracer counts finite estimates by this note
    oracle = sl.LiveOracle(sl.LogWeightMnl(np.log([w_0, 1.0])), seed=0)
    r = sl.estimate_ratio(oracle, 0, 1, 0.5, 0.3, 0.1)
    assert estimate_notes()["primitives.estimate_ratio"](r) == kind


@pytest.mark.parametrize("heavy, kind", [(1.0, "finite"), (1e6, "infinite")])
def test_balanced_estimate_ratio_notes_read_the_kind(heavy, kind):
    log_w = np.log([1.0, 1.0, heavy])
    graph = sl.ClusterGraph(
        clusters=[np.array([0, 1]), np.array([2])], centers=np.array([0, 2]),
        star_log={1: 0.0}, gamma=np.array([0, 0, 1]), a1=2.0, a2=2.0,
        eps=0.19)
    oracle = sl.LiveOracle(sl.LogWeightMnl(log_w), seed=0)
    r = sl.balanced_estimate_ratio(oracle, graph, 1, 0, 0.19, 0.5, 0.1)
    assert estimate_notes()["primitives.balanced_estimate_ratio"](r) == kind
    assert math.isinf(r.log_ratio) == (kind == "infinite")


@pytest.mark.parametrize("learner", ["learn_adaptive", "learn_balanced",
                                     "learn_nonadaptive"])
def test_traced_phases_account_for_every_query(learner):
    # the traced benchmark refuses a run whose per-phase queries do not sum
    # to the learner's ledger total: a query made outside the wrapped calls
    # is lost. The non-adaptive learner's ledger is its replay's, and its
    # build span charges the live oracle the whole batch.
    tracing = load_tracing()
    batch = learner == "learn_nonadaptive"
    n, m = (8, 200_000) if batch else (64, 0)
    model = sl.generate_instance(
        sl.InstanceSpec("power-law", n=n, seed=3, params={"gamma": 1.0}))
    oracle = sl.LiveOracle(model, seed=3,
                           pair_mode="stream" if batch else "binomial")
    with tracing.Tracer() as tracer:
        if batch:
            _, read = sl.learn_nonadaptive(oracle, n, 0.5, 0.1, m, seed=3)
        else:
            getattr(sl, learner)(oracle, n, 0.3, 0.1, seed=3)
            read = oracle
    phases = tracing.phase_queries(tracer.spans)
    assert phases["clustering"] > 0
    assert sum(phases.values()) == read.ledger.total
    assert [s.queries for s in tracer.spans
            if s.name == "oracle.build_replay_table"] == (
        [n * (n - 1) // 2 * m] if batch else [])
