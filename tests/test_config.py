"""The two budget presets pin the published and the calibrated rules bit for bit.

Each expected value is the preset's formula written out as the balanced
builder and the learners have always evaluated it, so a rewrite of a rule
that moves any float by one ulp fails here.
"""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import slatelearn as sl

EPS = (0.01, 0.05, 0.19, 0.3, 0.5, 0.9)
ALPHA = (0.5, 0.25, 0.1)
DELTA = (0.1, 0.01, 1e-6 / 64.0)
SIZES = np.array([1.0, 2.0, 3.0, 7.0, 40.0])
GRAPH = SimpleNamespace(a1=14.0, a2=2.0)


def theory_params(eps, alpha, delta):
    a1, a2 = GRAPH.a1, GRAPH.a2
    b1 = max(2.0 * eps / (1.0 - eps - 0.75), 6.0 / (1.0 - eps),
             24.0 * eps / (23.0 - 4.0 * eps))
    n_ae = b1 * b1 / (alpha * eps * eps)
    return (math.ceil(8.0 * math.log(2.0 / delta)),
            math.ceil(2.0 * a1 * (1.0 + a1 / a2) * n_ae))


def calibrated_params(eps, alpha, delta):
    return (max(3, math.ceil(2.0 * math.log(2.0 / delta))),
            math.ceil(16.0 * (1.0 / alpha + 1.0 / (eps * eps))))


def test_a_budget_is_its_preset():
    assert [f.name for f in dataclasses.fields(sl.QueryBudget)] == ["worst_case"]
    assert sl.QueryBudget.theory() == sl.QueryBudget(worst_case=True)
    assert sl.QueryBudget.calibrated() == sl.QueryBudget(worst_case=False)
    assert sl.DEFAULT_BUDGET == sl.QueryBudget.calibrated()


@pytest.mark.parametrize("eps", EPS)
def test_accuracy_rules(eps):
    theory, calibrated = sl.QueryBudget.theory(), sl.QueryBudget.calibrated()
    assert theory.forest_eps(eps) == (eps / 13.0) / 9.0
    assert calibrated.forest_eps(eps) == eps
    eps1 = eps / 10.0
    assert theory.split_eps(eps) == (eps1, min(eps1 / 30.0, math.inf))
    eps1 = eps / 1.0
    assert calibrated.split_eps(eps) == (eps1, min(eps1 / 3.0, 0.19))


@pytest.mark.parametrize("alpha, eps", itertools.product(ALPHA, EPS))
def test_beta(alpha, eps):
    window = 23
    for budget, expected in (
            (sl.QueryBudget.theory(),
             (alpha * alpha * eps) / (49.0 * SIZES * window)),
            (sl.QueryBudget.calibrated(),
             (alpha * alpha * eps) / (4.0 * SIZES * 1.0))):
        beta = budget.beta(alpha, eps, SIZES, window)
        assert beta.tobytes() == expected.tobytes()


@pytest.mark.parametrize("eps, alpha, delta",
                         itertools.product(EPS[:3], ALPHA, DELTA))
def test_balanced_params(eps, alpha, delta):
    for budget, expected in ((sl.QueryBudget.theory(), theory_params),
                             (sl.QueryBudget.calibrated(), calibrated_params)):
        p = budget.balanced_params(GRAPH, eps, alpha, delta)
        assert (p.M, p.N) == expected(eps, alpha, delta)



@pytest.mark.parametrize("eps", [0.2, 0.0])
def test_both_presets_refuse_balanced_eps_outside_one_fifth(eps):
    messages = set()
    for budget in (sl.QueryBudget.theory(), sl.QueryBudget.calibrated()):
        with pytest.raises(ValueError) as info:
            budget.balanced_params(GRAPH, eps, 0.5, 0.1)
        messages.add(str(info.value))
    assert messages == {"balanced ratio estimation requires eps < 1/5"}
