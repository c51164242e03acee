"""Command-line front end: generate instances, learn, evaluate, benchmark.

``learn`` and ``bench`` share the trial flags (--algo, --delta, --seed,
--oracle-mode, --m, --budget, --retries) and one trial runner: trial t
learns the instance generated at seed + t, its attempt a at seed + 1000 t + a.
Only nonadaptive reads --m, adaptive ignores --budget, and nonadaptive's
replay reads pair streams whatever --oracle-mode says.
``bench`` sweeps repeatable --n and --eps and adds --samples for the sampled
distance scored when n > 20 (``learn`` scores 200 slates). The ``n`` column
is the instance's item count (2 len(p) for pseudo-mnl). Ranges: --n, --m,
--trials, --samples >= 1; --eps, --delta in (0, 1); --rho, --heavy > 0;
--gamma >= 0; --seed >= 0; --retries 0..999.

Exit codes: 0 success, 1 usage error (a bad flag or model file, an output
that cannot be written), 2 algorithm failure (a forest build hit its failure
branch, or a demand above a cap no --m lifts), 3 replay budget exhausted
(the non-adaptive batch was too small; rerun with any larger --m).

CSV outputs start with a ``# slatelearn-csv v1`` comment line followed by
the fixed header. The seconds column is wall-clock time and is excluded
from determinism comparisons; everything else is byte-identical across
re-runs with the same flags and seed.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time

import click
import numpy as np

from .config import QueryBudget
from .errors import DemandTooLarge, ReplayBudgetExhausted, SlateLearnError
from .metrics import distance_exact, distance_sampled, ledger_report
from .models import (KINDS, InstanceSpec, generate_instance, load_model,
                     save_model)
from .oracle import LiveOracle
from .weights import learn_adaptive, learn_balanced, learn_nonadaptive

CSV_SCHEMA = "# slatelearn-csv v1"
CSV_FIELDS = ["n", "eps", "delta", "algo", "trial", "d1", "dinf",
              "total_queries", "max_pair_queries", "seconds"]
BUDGETS = {"calibrated": QueryBudget.calibrated(),
           "theory": QueryBudget.theory()}


class RealRange(click.FloatRange):
    """click's FloatRange, refusing nan, which compares false to any bound."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if math.isnan(x):
            self.fail("nan is not a number.", param, ctx)
        return x


COUNT = click.IntRange(min=1)
SEED = click.IntRange(min=0)
UNIT = RealRange(0.0, 1.0, min_open=True, max_open=True)
POSITIVE = RealRange(min=0.0, min_open=True)


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _instance(kind, n, seed, rho, gamma, heavy, p, pi):
    """The instance the instance flags name; bad values are usage errors."""
    if kind == "pseudo-mnl" and p is None:
        raise click.UsageError("pseudo-mnl instances need --p")
    params = {"geometric-ratio": {"rho": rho}, "power-law": {"gamma": gamma},
              "two-scale": {"K": heavy}}.get(kind, {})
    try:
        if kind == "pseudo-mnl":
            params = {"p": [float(x) for x in p.split(",")]}
            if pi is not None:
                params["pi"] = [int(x) for x in pi.split(",")]
        return generate_instance(InstanceSpec(kind, n, seed, params))
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="the instance flags")


def _model(ctx, param, path):
    """Option callback: the model at ``path``; a bad file is a usage error."""
    try:
        return None if path is None else load_model(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.BadParameter("{}: {}".format(path, exc))


def _run_trial(truth, trial, eps, samples, algo, delta, seed, oracle_mode, m,
               budget, retries):
    """Learn ``truth`` as trial ``trial``; returns (learned, ledger, paid, row).

    ``ledger`` counts the queries the learner read, ``paid`` those the live
    oracle was charged: the whole batch for the non-adaptive learner, the
    same ledger for the others. Attempt a runs at seed + 1000 trial + a,
    which no other trial's attempt shares while retries < 1000. Algorithm
    failures are retried; an exhausted replay budget or a demand above a
    cap is not, as no other seed cures it.
    """
    n = truth.n
    t0 = time.perf_counter()
    for attempt in range(retries + 1):
        s = seed + 1000 * trial + attempt
        oracle = LiveOracle(truth, seed=s, pair_mode=oracle_mode)
        ledger = oracle.ledger
        try:
            if algo == "adaptive":
                learned = learn_adaptive(oracle, n, eps, delta, seed=s)
            elif algo == "balanced":
                learned = learn_balanced(oracle, n, eps, delta,
                                         BUDGETS[budget], seed=s)
            else:
                learned, replay = learn_nonadaptive(oracle, n, eps, delta, m,
                                                    BUDGETS[budget], s)
                ledger = replay.ledger
            break
        except SlateLearnError as exc:
            if (isinstance(exc, (ReplayBudgetExhausted, DemandTooLarge))
                    or attempt == retries):
                raise
    seconds = time.perf_counter() - t0
    rep = (distance_exact(truth, learned) if n <= 20
           else distance_sampled(truth, learned, samples,
                                 np.random.default_rng(seed + trial)))
    row = {"n": n, "eps": eps, "delta": delta, "algo": algo, "trial": trial,
           "d1": rep.d1, "dinf": rep.dinf, "total_queries": ledger.total,
           "max_pair_queries": ledger.max_per_pair, "seconds": seconds}
    return learned, ledger, oracle.ledger, row


instance_opts = [
    click.option("--instance", "kind", default="uniform",
                 type=click.Choice(KINDS), help="instance family to generate"),
    click.option("--rho", default=2.0, type=POSITIVE,
                 help="weight ratio for geometric-ratio instances"),
    click.option("--gamma", default=1.0, type=RealRange(min=0.0),
                 help="exponent for power-law instances"),
    click.option("--heavy", default=1e6, type=POSITIVE,
                 help="heavy weight for two-scale instances"),
    click.option("--p", default=None, type=str,
                 help="comma-separated head probabilities for pseudo-mnl"),
    click.option("--pi", default=None, type=str,
                 help="comma-separated permutation for pseudo-mnl"),
]

trial_opts = [
    click.option("--algo", default="adaptive",
                 type=click.Choice(["adaptive", "balanced", "nonadaptive"])),
    click.option("--delta", default=0.1, type=UNIT),
    click.option("--seed", default=0, type=SEED),
    click.option("--oracle-mode", default="binomial",
                 type=click.Choice(["binomial", "stream"]),
                 help="pair sampling mode of the live oracle; nonadaptive "
                 "reads stream answers in either mode"),
    click.option("--m", default=10000, type=COUNT,
                 help="per-pair batch size; read only by nonadaptive"),
    click.option("--budget", default="calibrated",
                 type=click.Choice(sorted(BUDGETS)),
                 help="query budget preset of balanced and nonadaptive; "
                 "adaptive ignores it"),
    click.option("--retries", default=0, type=click.IntRange(0, 999),
                 help="extra attempts (fresh seeds) after an algorithm failure"),
]


def with_opts(opts):
    def decorate(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return decorate


@click.group()
def cli():
    """Learn multinomial logit models from a conditional-sampling oracle."""


@cli.command()
@with_opts(instance_opts)
@click.option("--n", default=8, type=COUNT, help="number of items")
@click.option("--seed", default=0, type=SEED)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def gen(kind, n, rho, gamma, heavy, p, pi, seed, out):
    """Generate a model instance and write it as JSON."""
    model = _instance(kind, n, seed, rho, gamma, heavy, p, pi)
    save_model(model, out)
    click.echo(json.dumps({"kind": kind, "n": model.n, "out": out}))


@cli.command()
@with_opts(instance_opts + trial_opts)
@click.option("--n", default=8, type=COUNT, help="number of items")
@click.option("--model", default=None, callback=_model,
              type=click.Path(exists=True, dir_okay=False),
              help="learn against this model file instead of a generated instance")
@click.option("--eps", default=0.5, type=UNIT)
@click.option("--trials", default=1, type=COUNT)
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="learned model JSON path (suffixed -tK for trials > 1)")
@click.option("--csv", "csv_path", default=None, type=click.Path(dir_okay=False),
              help="write one ledger CSV row per trial here")
def learn(kind, rho, gamma, heavy, p, pi, n, model, eps, trials, out,
          csv_path, **flags):
    """Learn a model from oracle queries and report query usage."""
    rows, reports = [], []
    for trial in range(trials):
        truth = model if model is not None else _instance(
            kind, n, flags["seed"] + trial, rho, gamma, heavy, p, pi)
        learned, ledger, paid, row = _run_trial(truth, trial, eps, 200,
                                                **flags)
        if out is not None:
            save_model(learned, out if trials == 1 else f"{out}-t{trial}")
        rows.append(row)
        reports.append({"trial": trial, "d1": row["d1"],
                        "ledger": ledger_report(ledger),
                        "paid": ledger_report(paid)})
    if csv_path is not None:
        _write_rows(csv_path, rows)
    click.echo(json.dumps({"algo": flags["algo"], "n": truth.n, "eps": eps,
                           "delta": flags["delta"], "trials": trials,
                           "results": reports, "out": out}))


@cli.command("eval")
@click.option("--model-a", "a", required=True, callback=_model,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--model-b", "b", required=True, callback=_model,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", default="exact", type=click.Choice(["exact", "sampled"]))
@click.option("--samples", default=200, type=COUNT,
              help="slate count for sampled mode")
@click.option("--seed", default=0, type=SEED)
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="also write the report as JSON here")
def eval_cmd(a, b, mode, samples, seed, out):
    """Report worst-slate distances between two model files."""
    if a.n != b.n:
        raise click.UsageError("the models have {} and {} items".format(a.n, b.n))
    if mode == "exact" and a.n > 20:
        raise click.UsageError("--mode exact takes n <= 20; use --mode sampled")
    if mode == "sampled":
        rep = distance_sampled(a, b, samples, np.random.default_rng(seed))
    else:
        rep = distance_exact(a, b)
    doc = {"d1": rep.d1, "dinf": rep.dinf,
           "argmax_slate": list(rep.argmax_slate), "exact": rep.exact,
           "slates_checked": rep.slates_checked}
    if out is not None:
        with open(out, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    click.echo(json.dumps(doc))


@cli.command()
@with_opts(instance_opts + trial_opts)
@click.option("--n", "ns", multiple=True, type=COUNT, required=True,
              help="item counts to sweep (repeatable)")
@click.option("--eps", "epss", multiple=True, type=UNIT, default=(0.3,),
              help="accuracies to sweep (repeatable)")
@click.option("--trials", default=5, type=COUNT)
@click.option("--samples", default=200, type=COUNT,
              help="slates for sampled distances when n > 20")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="CSV output path")
def bench(kind, rho, gamma, heavy, p, pi, ns, epss, trials, samples, out,
          **flags):
    """Sweep (n, eps) and write one CSV row per trial."""
    rows = []
    for n in ns:
        for eps in epss:
            for trial in range(trials):
                truth = _instance(kind, n, flags["seed"] + trial, rho, gamma,
                                  heavy, p, pi)
                rows.append(_run_trial(truth, trial, eps, samples, **flags)[3])
    _write_rows(out, rows)
    click.echo(json.dumps({"rows": len(rows), "out": out}))


def main(argv=None) -> int:
    """Entry point mapping errors to stable exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except (OSError, SlateLearnError) as exc:
        click.echo("error: {}".format(exc), err=True)
        return (1 if isinstance(exc, OSError) else
                3 if isinstance(exc, ReplayBudgetExhausted) else 2)


if __name__ == "__main__":
    sys.exit(main())
