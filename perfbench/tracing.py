"""Spans around the calls into each slatelearn module, installed from outside.

The package binds names with ``from .x import y``, so a wrapper has to sit
on the name the caller looks up: ``slatelearn.ordering.estimate_ratio`` is
what ``cluster_sort`` calls, ``slatelearn.forest.estimate_ratio`` is what
the forest builder calls, and ``slatelearn.learn_adaptive`` is what the
benchmark itself calls. :class:`Tracer` installs one wrapper per call site,
records a span per call and puts every original back on exit.

A span holds its name, start, end, parent, learn-step id, self time (its
duration minus the time its child spans cover) and, for calls that receive
an oracle, the change in that oracle's ``ledger.total`` across the call.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

_ORACLE_METHODS = ("max_sample", "slate_win_counts", "sample_pair",
                   "sample_pair_block", "pair_win_count", "sample_geometric",
                   "sample_geometric_block")
_REPLAY_METHODS = tuple(m for m in _ORACLE_METHODS if m != "slate_win_counts")
_GRAPH_HELPERS = ("adjacency", "components", "path_logs", "hop_distances")


def _kind(r):
    return r.kind


def _graph_note(g):
    return (g.T, len(g.violations))


def _distance_note(r):
    return (r.slates_checked, r.d1)


def _violations_note(r):
    return len(r.violations)


# (module, attribute, span name, first argument is an oracle, note on result).
# A module attribute is patched where its callers look it up; a class
# attribute is patched on the class, so every instance sees it.
SITES: list[tuple] = (
    [("slatelearn.oracle", "LiveOracle." + m, "oracle.LiveOracle." + m, True, None)
     for m in _ORACLE_METHODS]
    + [("slatelearn.oracle", "ReplayOracle." + m, "oracle.ReplayOracle." + m,
        True, None) for m in _REPLAY_METHODS]
    + [
        ("slatelearn.weights", "build_replay_table", "oracle.build_replay_table",
         True, None),
        ("slatelearn.oracle", "pair_probability", "models.pair_probability",
         False, None),
        ("slatelearn.metrics", "slate_distribution", "models.slate_distribution",
         False, None),
        ("slatelearn.ordering", "estimate_ratio", "primitives.estimate_ratio",
         True, _kind),
        ("slatelearn.forest", "estimate_ratio", "primitives.estimate_ratio",
         True, _kind),
        ("slatelearn.forest", "balanced_estimate_ratio",
         "primitives.balanced_estimate_ratio", True, _kind),
        ("slatelearn.ordering", "epsilon_ordering", "ordering.epsilon_ordering",
         True, None),
        ("slatelearn.forest", "cluster_sort", "ordering.cluster_sort", True,
         _graph_note),
        ("slatelearn.forest", "quicksort_clustering",
         "ordering.quicksort_clustering", True, _graph_note),
        ("slatelearn.weights", "build_estimation_forest",
         "forest.build_estimation_forest", True, None),
        ("slatelearn", "build_estimation_forest",
         "forest.build_estimation_forest", True, None),
        ("slatelearn.weights", "build_balanced_estimation_forest",
         "forest.build_balanced_estimation_forest", True, None),
        ("slatelearn", "validate_forest", "forest.validate_forest", False,
         _violations_note),
        ("slatelearn.weights", "generate_weights", "weights.generate_weights",
         False, None),
        ("slatelearn", "generate_weights", "weights.generate_weights", False,
         None),
        ("slatelearn", "learn_adaptive", "weights.learn_adaptive", True, None),
        ("slatelearn", "learn_balanced", "weights.learn_balanced", True, None),
        ("slatelearn.weights", "learn_balanced", "weights.learn_balanced", True,
         None),
        ("slatelearn", "learn_nonadaptive", "weights.learn_nonadaptive", True,
         None),
        ("slatelearn", "distance_sampled", "metrics.distance_sampled", False,
         _distance_note),
        ("slatelearn", "distance_exact", "metrics.distance_exact", False,
         _distance_note),
    ]
    + [("slatelearn.forest", "EstimationForest." + h, "forest." + h, False, None)
       for h in _GRAPH_HELPERS]
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int        # -1 for a span opened by the benchmark itself
    step: int
    self_s: float
    queries: int       # ledger delta on the oracle the call received, else 0
    error: str         # exception type name, "" when the call returned
    note: object       # what the result says, for the sites that record it


class Tracer:
    """Wraps every site in :data:`SITES` while used as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.step = -1
        self._stack: list[list] = []   # open spans: [id, seconds covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []
        self.t0 = perf_counter()

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, charges, note in SITES:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name, charges, note))
                self._undo.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, charges: bool,
              note: Callable | None) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            ledger = args[0].ledger if charges else None
            q0 = ledger.total if charges else 0
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            error, result = "", None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans.append(Span(
                    span_id, name, start, end, parent, self.step,
                    duration - frame[1], ledger.total - q0 if charges else 0,
                    error, note(result) if note and not error else None))
        return traced

    def write(self, path) -> None:
        """Dump every span as CSV, times in seconds since the tracer started."""
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,step,self_s,queries,error,note\n")
            for s in self.spans:
                fh.write('{},{},{:.9f},{:.9f},{},{},{:.9f},{},{},"{}"\n'.format(
                    s.id, s.name, s.start - self.t0, s.end - self.t0, s.parent,
                    s.step, s.self_s, s.queries, s.error,
                    "" if s.note is None else s.note))


_ORACLE_CALL = ("oracle.LiveOracle.", "oracle.ReplayOracle.")
_CLUSTERING = ("ordering.cluster_sort", "ordering.quicksort_clustering")
_BUILDERS = ("forest.build_estimation_forest",
             "forest.build_balanced_estimation_forest")
_ESTIMATES = ("primitives.estimate_ratio", "primitives.balanced_estimate_ratio")
_GRAPH = tuple("forest." + h for h in _GRAPH_HELPERS)


def phase_queries(spans: list[Span]) -> dict[str, int]:
    """Queries of the three learner phases in one step.

    A phase's queries are those of the direct child spans of its own span:
    the oracle calls under epsilon_ordering, the calls under a clustering
    span other than its epsilon_ordering, and the calls under a forest
    builder other than its clustering. A query made outside every wrapped
    call would be missed, so the phases sum to the learner's ledger total
    only when the wrappers account for every query.
    """
    by_id = {s.id: s for s in spans}
    phases = {"epsilon_ordering": 0, "clustering": 0, "link": 0}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        if parent.name == "ordering.epsilon_ordering":
            phases["epsilon_ordering"] += s.queries
        elif parent.name in _CLUSTERING and s.name != "ordering.epsilon_ordering":
            phases["clustering"] += s.queries
        elif parent.name in _BUILDERS and s.name not in _CLUSTERING:
            phases["link"] += s.queries
    return phases


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one step, from that step's spans alone."""
    by_id = {s.id: s for s in spans}
    count, dur = defaultdict(int), defaultdict(float)
    layer_self = defaultdict(float)
    oracle_calls = oracle_queries = replay_queries = 0
    finite = estimates_from_forest = 0
    graph_s = 0.0
    clusters = violations = 0
    slates, d1, forest_violations = 0, 0.0, 0
    for s in spans:
        count[s.name] += 1
        dur[s.name] += s.end - s.start
        layer_self[s.name.split(".")[0]] += s.self_s
        parent = by_id.get(s.parent)
        parent_name = parent.name if parent else ""
        if s.name.startswith(_ORACLE_CALL) and not parent_name.startswith(_ORACLE_CALL):
            oracle_calls += 1
            oracle_queries += s.queries
            if s.name.startswith("oracle.ReplayOracle."):
                replay_queries += s.queries
        elif s.name == "primitives.estimate_ratio":
            finite += s.note == "finite"
        elif s.name in _CLUSTERING and s.note is not None:
            clusters += s.note[0]
            violations += s.note[1]
        elif s.name.startswith("metrics.") and s.note is not None:
            slates += s.note[0]
            d1 = max(d1, s.note[1])
        elif s.name == "forest.validate_forest" and s.note is not None:
            forest_violations += s.note
        if s.name in _ESTIMATES and parent_name in _BUILDERS:
            estimates_from_forest += 1
        if s.name in _GRAPH and parent_name not in _GRAPH:
            graph_s += s.end - s.start

    def total(names):
        return sum(dur[n] for n in names)

    phases = phase_queries(spans)
    estimate_calls = count["primitives.estimate_ratio"]
    metrics_s = total(("metrics.distance_sampled", "metrics.distance_exact"))
    return {
        "oracle.calls": oracle_calls,
        "oracle.self_s": layer_self["oracle"],
        "oracle.queries_per_call": oracle_queries / oracle_calls if oracle_calls else 0.0,
        "oracle.replay_table_s": dur["oracle.build_replay_table"],
        "oracle.replay_queries": replay_queries,
        "primitives.balanced_estimate_ratio.calls":
            count["primitives.balanced_estimate_ratio"],
        "primitives.balanced_estimate_ratio.self_s": sum(
            s.self_s for s in spans if s.name == "primitives.balanced_estimate_ratio"),
        "primitives.estimate_ratio.calls": estimate_calls,
        "primitives.estimate_ratio.finite_share":
            finite / estimate_calls if estimate_calls else 0.0,
        "primitives.self_s": layer_self["primitives"],
        "ordering.epsilon_ordering_s": dur["ordering.epsilon_ordering"],
        "ordering.epsilon_ordering_queries": phases["epsilon_ordering"],
        "ordering.clustering_s": total(_CLUSTERING) - dur["ordering.epsilon_ordering"],
        "ordering.clustering_queries": phases["clustering"],
        "ordering.clusters": clusters,
        "ordering.violations": violations,
        "forest.link_s": total(_BUILDERS) - total(_CLUSTERING),
        "forest.link_queries": phases["link"],
        "forest.estimates": estimates_from_forest,
        "forest.graph_s": graph_s,
        "forest.validate_s": dur["forest.validate_forest"],
        "forest.violations": forest_violations,
        "weights.generate_s": dur["weights.generate_weights"],
        "models.pair_probability.calls": count["models.pair_probability"],
        "models.slate_distribution.calls": count["models.slate_distribution"],
        "models.self_s": layer_self["models"],
        "metrics.slates": slates,
        "metrics.slates_per_s": slates / metrics_s if metrics_s else 0.0,
        "metrics.d1_max": d1,
    }


UNITS = {
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.queries_per_call": "Mqueries/call",
    "oracle.pairs_touched": "count",
    "oracle.replay_table_s": "s",
    "oracle.replay_queries": "Mqueries",
    "primitives.balanced_estimate_ratio.calls": "count",
    "primitives.balanced_estimate_ratio.self_s": "s",
    "primitives.estimate_ratio.calls": "count",
    "primitives.estimate_ratio.finite_share": "ratio",
    "primitives.self_s": "s",
    "ordering.epsilon_ordering_s": "s",
    "ordering.epsilon_ordering_queries": "Mqueries",
    "ordering.clustering_s": "s",
    "ordering.clustering_queries": "Mqueries",
    "ordering.clusters": "count",
    "ordering.violations": "count",
    "forest.link_s": "s",
    "forest.link_queries": "Mqueries",
    "forest.estimates": "count",
    "forest.graph_s": "s",
    "forest.validate_s": "s",
    "forest.violations": "count",
    "weights.generate_s": "s",
    "models.pair_probability.calls": "count",
    "models.slate_distribution.calls": "count",
    "models.self_s": "s",
    "metrics.slates": "count",
    "metrics.slates_per_s": "1/s",
    "metrics.d1_max": "ratio",
    "trace.overhead_s": "s",
}


def combine(by_seed: dict[int, list[dict[str, float]]]) -> dict[str, float]:
    """Per-layer metrics of a run from those of its traced steps, by step seed.

    Each metric is the median over step seeds of each seed's median, so every
    seed weighs the same however many passes the run made; d1_max is the
    maximum over every step.
    """
    steps = [s for per_seed in by_seed.values() for s in per_seed]
    out = {k: statistics.median(statistics.median(s[k] for s in per_seed)
                                for per_seed in by_seed.values())
           for k in steps[0]}
    out["metrics.d1_max"] = max(s["metrics.d1_max"] for s in steps)
    return out
