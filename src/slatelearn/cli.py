"""Command-line front end: generate instances, learn, evaluate, benchmark.

Exit codes: 0 success, 1 usage error, 2 algorithm failure (a forest build
hit its failure branch, or a sampling cap was exceeded), 3 replay budget
exhausted (the non-adaptive batch was too small; rerun with a larger --m).

CSV outputs start with a ``# slatelearn-csv v1`` comment line followed by
the fixed header. The seconds column is wall-clock time and is excluded
from determinism comparisons; everything else is byte-identical across
re-runs with the same flags and seed.
"""

from __future__ import annotations

import csv
import json
import sys
import time

import click
import numpy as np

from .config import QueryBudget
from .errors import ReplayBudgetExhausted, SlateLearnError
from .metrics import distance_exact, distance_sampled, ledger_report
from .models import InstanceSpec, generate_instance, load_model, save_model
from .oracle import LiveOracle
from .weights import learn_adaptive, learn_balanced, learn_nonadaptive

CSV_SCHEMA = "# slatelearn-csv v1"
CSV_FIELDS = ["n", "eps", "delta", "algo", "trial", "d1", "dinf",
              "total_queries", "max_pair_queries", "seconds"]


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def _instance_params(kind, rho, gamma, heavy, p, pi):
    params = {}
    if kind == "geometric-ratio":
        params["rho"] = rho
    elif kind == "power-law":
        params["gamma"] = gamma
    elif kind == "two-scale":
        params["K"] = heavy
    elif kind == "pseudo-mnl":
        if p is None:
            raise click.UsageError("pseudo-mnl instances need --p")
        params["p"] = [float(x) for x in p.split(",")]
        if pi is not None:
            params["pi"] = [int(x) for x in pi.split(",")]
    return params


def _learn_once(oracle, n, algo, eps, delta, m, budget, seed):
    if algo == "adaptive":
        return learn_adaptive(oracle, n, eps, delta, seed=seed), oracle.ledger
    if algo == "balanced":
        return (learn_balanced(oracle, n, eps, delta, budget, seed=seed),
                oracle.ledger)
    model, replay = learn_nonadaptive(oracle, n, eps, delta, m, budget, seed)
    return model, replay.ledger


# Trial t, attempt a runs on seed + 1000 * t + a, so attempts stay below 1000
# and seeds of different trials never collide.
RETRIES = click.IntRange(0, 999)


def _learn_with_retries(oracle_factory, n, algo, eps, delta, m, budget,
                        seed, retries):
    last = None
    for attempt in range(retries + 1):
        try:
            return _learn_once(oracle_factory(seed + attempt), n, algo, eps,
                               delta, m, budget, seed + attempt)
        except ReplayBudgetExhausted:
            raise
        except SlateLearnError as exc:
            last = exc
    raise last


instance_opts = [
    click.option("--instance", "kind", default="uniform",
                 type=click.Choice(["uniform", "geometric-ratio", "power-law",
                                    "two-scale", "explicit", "pseudo-mnl"]),
                 help="instance family to generate"),
    click.option("--rho", default=2.0, type=float,
                 help="weight ratio for geometric-ratio instances"),
    click.option("--gamma", default=1.0, type=float,
                 help="exponent for power-law instances"),
    click.option("--heavy", default=1e6, type=float,
                 help="heavy weight for two-scale instances"),
    click.option("--p", default=None, type=str,
                 help="comma-separated head probabilities for pseudo-mnl"),
    click.option("--pi", default=None, type=str,
                 help="comma-separated permutation for pseudo-mnl"),
]


def with_instance_opts(fn):
    for opt in reversed(instance_opts):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Learn multinomial logit models from a conditional-sampling oracle."""


@cli.command()
@with_instance_opts
@click.option("--n", default=8, type=int, help="number of items")
@click.option("--seed", default=0, type=int)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def gen(kind, n, rho, gamma, heavy, p, pi, seed, out):
    """Generate a model instance and write it as JSON."""
    params = _instance_params(kind, rho, gamma, heavy, p, pi)
    model = generate_instance(InstanceSpec(kind, n=n, seed=seed, params=params))
    save_model(model, out)
    click.echo(json.dumps({"kind": kind, "n": model.n, "out": out}))


@cli.command()
@with_instance_opts
@click.option("--n", default=8, type=int, help="number of items")
@click.option("--model", "model_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="learn against this model file instead of a generated instance")
@click.option("--algo", default="adaptive",
              type=click.Choice(["adaptive", "balanced", "nonadaptive"]))
@click.option("--eps", default=0.5, type=float)
@click.option("--delta", default=0.1, type=float)
@click.option("--seed", default=0, type=int)
@click.option("--trials", default=1, type=int)
@click.option("--oracle-mode", default="binomial",
              type=click.Choice(["binomial", "stream"]),
              help="pair sampling mode of the live oracle")
@click.option("--m", default=10000, type=int,
              help="per-pair batch size for the non-adaptive learner")
@click.option("--budget", default="calibrated",
              type=click.Choice(["calibrated", "theory"]))
@click.option("--retries", default=0, type=RETRIES,
              help="extra attempts (fresh seeds) after an algorithm failure")
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="learned model JSON path (suffixed -tK for trials > 1)")
@click.option("--csv", "csv_path", default=None, type=click.Path(dir_okay=False),
              help="write one ledger CSV row per trial here")
def learn(kind, n, rho, gamma, heavy, p, pi, model_path, algo, eps, delta,
          seed, trials, oracle_mode, m, budget, retries, out, csv_path):
    """Learn a model from oracle queries and report query usage."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    budget_obj = (QueryBudget.theory() if budget == "theory"
                  else QueryBudget.calibrated())
    rows, reports = [], []
    for trial in range(trials):
        if model_path is not None:
            truth = load_model(model_path)
            n = truth.n
        else:
            params = _instance_params(kind, rho, gamma, heavy, p, pi)
            truth = generate_instance(InstanceSpec(kind, n=n, seed=seed + trial,
                                                   params=params))

        def factory(s, truth=truth):
            return LiveOracle(truth, seed=s, pair_mode=oracle_mode)

        t0 = time.perf_counter()
        learned, ledger = _learn_with_retries(
            factory, n, algo, eps, delta, m, budget_obj,
            seed + 1000 * trial, retries)
        seconds = time.perf_counter() - t0
        rep = (distance_exact(truth, learned) if n <= 20
               else distance_sampled(truth, learned, 200,
                                     np.random.default_rng(seed + trial)))
        if out is not None:
            path = out if trials == 1 else "{}-t{}".format(out, trial)
            save_model(learned, path)
        rows.append({"n": n, "eps": eps, "delta": delta, "algo": algo,
                     "trial": trial, "d1": rep.d1, "dinf": rep.dinf,
                     "total_queries": ledger.total,
                     "max_pair_queries": ledger.max_per_pair,
                     "seconds": seconds})
        reports.append({"trial": trial, "d1": rep.d1,
                        "ledger": ledger_report(ledger)})
    if csv_path is not None:
        _write_rows(csv_path, rows)
    click.echo(json.dumps({"algo": algo, "n": n, "eps": eps, "delta": delta,
                           "trials": trials, "results": reports, "out": out}))


@cli.command("eval")
@click.option("--model-a", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--model-b", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", default="exact", type=click.Choice(["exact", "sampled"]))
@click.option("--samples", default=200, type=int,
              help="slate count for sampled mode")
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None, type=click.Path(dir_okay=False),
              help="also write the report as JSON here")
def eval_cmd(model_a, model_b, mode, samples, seed, out):
    """Report worst-slate distances between two model files."""
    a, b = load_model(model_a), load_model(model_b)
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
@with_instance_opts
@click.option("--n", "ns", multiple=True, type=int, required=True,
              help="item counts to sweep (repeatable)")
@click.option("--eps", "epss", multiple=True, type=float, default=(0.3,),
              help="accuracies to sweep (repeatable)")
@click.option("--algo", default="adaptive",
              type=click.Choice(["adaptive", "balanced", "nonadaptive"]))
@click.option("--delta", default=0.1, type=float)
@click.option("--trials", default=5, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--oracle-mode", default="binomial",
              type=click.Choice(["binomial", "stream"]))
@click.option("--m", default=10000, type=int)
@click.option("--budget", default="calibrated",
              type=click.Choice(["calibrated", "theory"]))
@click.option("--samples", default=200, type=int,
              help="slates for sampled distances when n > 20")
@click.option("--retries", default=0, type=RETRIES)
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="CSV output path")
def bench(kind, rho, gamma, heavy, p, pi, ns, epss, algo, delta, trials,
          seed, oracle_mode, m, budget, samples, retries, out):
    """Sweep (n, eps) and write one CSV row per trial."""
    params = _instance_params(kind, rho, gamma, heavy, p, pi)
    budget_obj = (QueryBudget.theory() if budget == "theory"
                  else QueryBudget.calibrated())
    rows = []
    for n in ns:
        for eps in epss:
            for trial in range(trials):
                truth = generate_instance(
                    InstanceSpec(kind, n=n, seed=seed + trial, params=params))

                def factory(s, truth=truth):
                    return LiveOracle(truth, seed=s, pair_mode=oracle_mode)

                t0 = time.perf_counter()
                learned, ledger = _learn_with_retries(
                    factory, n, algo, eps, delta, m, budget_obj,
                    seed + 1000 * trial, retries)
                seconds = time.perf_counter() - t0
                rep = (distance_exact(truth, learned) if n <= 20
                       else distance_sampled(truth, learned, samples,
                                             np.random.default_rng(seed + trial)))
                rows.append({"n": n, "eps": eps, "delta": delta, "algo": algo,
                             "trial": trial, "d1": rep.d1, "dinf": rep.dinf,
                             "total_queries": ledger.total,
                             "max_pair_queries": ledger.max_per_pair,
                             "seconds": seconds})
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
    except ReplayBudgetExhausted as exc:
        click.echo("error: {}".format(exc), err=True)
        return 3
    except SlateLearnError as exc:
        click.echo("error: {}".format(exc), err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
