"""Layered benchmark of slatelearn: time and count every module from outside.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload adaptive-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run sets the workload up, then makes full passes of learn step + check
step over the workload's fixed list of step seeds (derived from ``--seed``):
the first pass always, then another while it should end within
``--seconds``. Every step seed is thus measured equally often, and a timing
is the median over step seeds of each seed's own median, so how many passes
fit does not change which seeds a metric is drawn from. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` pairs every untraced learn
step with a traced learn + check step of the same step seed and reports the
per-layer metrics (see tracing.py). ``--workload all`` runs each workload
in its own process, one after the other.

Times are in reference-speed seconds (see ``scaled``): the CPU speed of a
small shared VM drifts by a third over seconds to minutes, so every timed
interval is scaled by how long a fixed pure-Python kernel took around it.

Every line before the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics. A step fails when it
raises (the exception type is recorded) or its check fails. ``correct`` is
false when any step failed, when a step seed did not repeat bit for bit,
when tracing changed a draw, or when the learner's per-phase queries do not
sum to its ledger total. The exit status is 0 only when ``correct`` is true.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only until a Tracer is entered)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SET_UPS = 7          # set-ups per untraced run; setup_s is their median
REFERENCE_S = 0.012  # the reference kernel's median time on a 2.1 GHz Xeon vCPU
SETUP_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 900

END_TO_END_UNITS = {
    "setup_s": "s",
    "learn_s": "s",
    "eval_s": "s",
    "queries": "Mqueries",
    "max_pair_queries": "Mqueries",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or 'all' for each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload (smoke test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def reference_s() -> float:
    """Wall time of a fixed pure-Python kernel: the CPU's current speed."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i
    for i in range(30_000):
        table[i] = i
    return time.perf_counter() - start


def scaled(fn, *args):
    """Call fn; return its result and its wall time at reference speed.

    The wall time is multiplied by REFERENCE_S over the mean time of the
    reference kernel run just before and just after the call. The package's
    hot loops are interpreted Python, like the kernel, so this cancels most
    of the drift in CPU speed that a shared VM shows between runs.
    """
    before = reference_s()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = reference_s()
    return result, wall * 2.0 * REFERENCE_S / (before + after)


def set_up(name: str, seed: int, tiny: bool):
    """Import slatelearn, generate the instances, construct the oracles."""
    import workloads  # imported here so the timed set-up includes slatelearn and numpy
    catalog = workloads.catalog(tiny)
    if name not in catalog:
        raise SystemExit("unknown workload {!r}; choose from {}".format(
            name, ", ".join(catalog)))
    wl = catalog[name]
    return wl, [wl.case(s) for s in workloads.step_seeds(seed, wl.seeds)]


def child_args(args, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    return cmd + (["--tiny"] if args.tiny else [])


def setup_sample(args, run: "Run", samples: list[float]) -> None:
    """Time one set-up in a fresh process; a failure is a problem of the run."""
    try:
        proc = subprocess.run(child_args(args, args.workload, "--setup-only"),
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        run.problems.append("set-up child failed: {}: {}".format(
            type(exc).__name__, exc))


def median(values) -> float:
    """Median of the values; NaN when every step failed and none was measured."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


def seed_median(samples: dict) -> float:
    """Median over step seeds of each seed's median, so every seed weighs the same."""
    return median(statistics.median(v) for v in samples.values())


def fingerprint(case, learned) -> bytes:
    """Digest of the learned weights and of the live and learner ledgers."""
    live, learner = case.oracle.ledger, learned.learner_oracle.ledger
    h = hashlib.sha256(learned.log_w.tobytes())
    for ledger in (live, learner):
        h.update(repr((ledger.total, sorted(ledger.per_pair.items()))).encode())
    return h.digest()


class Run:
    """Step outcomes and broken invariants collected over one run."""

    def __init__(self, wl, cases, seconds: float):
        self.wl, self.cases, self.seconds = wl, cases, seconds
        self.attempted = 0
        self.passes = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.first: dict = {}           # step seed -> fingerprint of its first learn step

    def fresh(self, case):
        """The case with a live oracle no step has used yet."""
        return dataclasses.replace(case, oracle=self.wl.oracle(case.seed, case.truth))

    def _take(self, i: int):
        # set-up's own oracle serves the first use; the list then lets go of
        # it, so a used oracle lives no longer than its step
        case = self.cases[i]
        if case.oracle is None:
            return self.fresh(case)
        self.cases[i] = dataclasses.replace(case, oracle=None)
        return case

    def steps(self):
        """(step id, case) in full passes over the seed list: the first pass,
        then another while it, if it lasts as long as the last, ends within
        the run. Every step seed is therefore measured equally often."""
        start = time.perf_counter()
        k = 0
        while True:
            begin = time.perf_counter()
            for i in range(len(self.cases)):
                yield k, self._take(i)
                k += 1
            self.passes += 1
            now = time.perf_counter()
            if 2 * now - begin - start > self.seconds:
                return

    def attempt(self, fn, *args):
        """Call fn, counting the attempt; a raised exception is a failed step."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:   # any type: counted by name, never dropped
            self.failures[type(exc).__name__] += 1
            return None

    def learn(self, case):
        return scaled(self.wl.learn, self.wl, case)

    def learn_and_check(self, case):
        learned, learn_s = self.learn(case)
        checked, eval_s = scaled(self.wl.check, self.wl, case, learned)
        if not checked.ok:
            self.failures["check failed: " + checked.detail] += 1
        return learned, learn_s, eval_s

    def repeats(self, case, learned) -> None:
        """A step seed must give the same weights and ledgers every time."""
        fp = fingerprint(case, learned)
        if self.first.setdefault(case.seed, fp) != fp:
            self.problems.append("step seed {} did not repeat bit for bit".format(case.seed))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def untraced_step(run: Run, case):
    """One learn + check step; returns only numbers, so the step's objects die here."""
    out = run.attempt(run.learn_and_check, case)
    if out is None:
        return None
    learned, learn_s, eval_s = out
    run.repeats(case, learned)
    return learn_s, eval_s, case.oracle.ledger.total, case.oracle.ledger.max_per_pair


def run_untraced(run: Run, args, own_setup_s: float):
    names = ("learn_s", "eval_s", "queries", "max_pair_queries")
    samples = {name: defaultdict(list) for name in names}
    setups = [own_setup_s]
    due = SET_UPS - 1
    for _, case in run.steps():
        out = untraced_step(run, case)
        if out is not None:
            for name, value in zip(names, out):
                samples[name][case.seed].append(value)
        if due:   # spread the set-ups over the run, not all in one moment
            setup_sample(args, run, setups)
            due -= 1
    for _ in range(due):
        setup_sample(args, run, setups)
    metrics = {name: seed_median(samples[name]) for name in names}
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_seed = "median over {} step seeds of per-seed medians, {} pass(es)".format(
        len(samples["learn_s"]), run.passes)
    notes = dict.fromkeys(names, per_seed)
    notes["setup_s"] = "median of {} set-ups, one per process".format(len(setups))
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return metrics, notes


def traced_step(run: Run, tracer, case):
    """An untraced learn step, then a traced learn + check step of the same seed.

    Returns (untraced learn_s, traced learn_s, per-layer metrics) or None.
    """
    plain = run.attempt(run.learn, case)
    twin = run.fresh(case)
    mark = len(tracer.spans)
    with tracer:
        out = run.attempt(run.learn_and_check, twin)
    if plain is None or out is None:
        return None
    learned, plain_s = plain
    twin_learned, traced_s, _ = out
    run.repeats(case, learned)
    if fingerprint(case, learned) != fingerprint(twin, twin_learned):
        run.problems.append("tracing changed a draw for step seed {}".format(case.seed))
    spans = tracer.spans[mark:]
    phases = tracing.phase_queries(spans)
    ledger_total = twin_learned.learner_oracle.ledger.total
    if sum(phases.values()) != ledger_total:
        run.problems.append("phase queries {} do not sum to the ledger total {}"
                            .format(phases, ledger_total))
    layer = tracing.layer_metrics(spans)
    layer["oracle.pairs_touched"] = len(twin.oracle.ledger.per_pair)
    return plain_s, traced_s, layer


def run_traced(run: Run, workload: str):
    tracer = tracing.Tracer()
    untraced_s, traced_s, per_step = (defaultdict(list) for _ in range(3))
    for k, case in run.steps():
        tracer.step = k
        out = traced_step(run, tracer, case)
        if out is not None:
            untraced_s[case.seed].append(out[0])
            traced_s[case.seed].append(out[1])
            per_step[case.seed].append(out[2])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / "{}.spans.csv".format(workload)
    tracer.write(spans_path)
    metrics = tracing.combine(per_step) if per_step else dict.fromkeys(
        tracing.UNITS, float("nan"))
    metrics["trace.overhead_s"] = seed_median(traced_s) - seed_median(untraced_s)
    notes = dict.fromkeys(metrics, "median over {} step seeds of per-seed medians, "
                          "{} pass(es)".format(len(per_step), run.passes))
    notes["metrics.d1_max"] = "max over every traced step"
    notes["trace.overhead_s"] = "traced minus untraced learn_s"
    print("spans: {} written to {}".format(len(tracer.spans), spans_path))
    return metrics, notes


def in_unit(value, unit: str) -> float:
    """A metric as printed: query counts in millions, every value a float.

    A forest-audit step spends about 8.5e17 queries, more than the 2**53 up
    to which a double holds every integer, and a reader of the JSON line may
    hold each value as a double.
    """
    return value / (10**6 if unit.startswith("Mqueries") else 1)


def report(args, wl, run: Run, metrics, notes, units) -> bool:
    metrics = {name: in_unit(metrics[name], unit) for name, unit in units.items()}
    print("workload {}  n={}  eps={}  seed={}  step seeds={}  trace={}".format(
        wl.name, wl.n, wl.eps, args.seed, len(run.cases), args.trace))
    for name, unit in units.items():
        print("  {:<44} {:>16.6g} {:<12} {}".format(
            name, metrics[name], unit, notes.get(name, "")))
    print("  {:<44} {:>16.6g} {:<12} {} of {} attempted; {}".format(
        "fail_rate", run.failed / run.attempted, "ratio", run.failed,
        run.attempted, dict(run.failures) or "no failures"))
    for problem in run.problems:
        print("  PROBLEM: " + problem)
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return result["correct"]


def run_all(args) -> int:
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.catalog(args.tiny):
        try:
            proc = subprocess.run(child_args(args, name), capture_output=True,
                                  text=True, timeout=WORKLOAD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print("workload {} gave no result: {}: {}".format(
                name, type(exc).__name__, exc))
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["{}/{}".format(name, metric)] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slatelearn" / "__init__.py").is_file():
        print("perfbench: no slatelearn sources at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    (wl, cases), own_setup_s = scaled(set_up, args.workload, args.seed, args.tiny)
    if args.setup_only:
        print(repr(own_setup_s))
        return 0
    run = Run(wl, cases, args.seconds)
    if args.trace:
        metrics, notes = run_traced(run, args.workload)
        units = tracing.UNITS
    else:
        metrics, notes = run_untraced(run, args, own_setup_s)
        units = END_TO_END_UNITS
    return 0 if report(args, wl, run, metrics, notes, units) else 1


if __name__ == "__main__":
    sys.exit(main())
