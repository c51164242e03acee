"""Every input the CLI accepts ends in a result or a typed error.

``learn`` runs in-process over algo x budget x oracle mode at four instance
points. Each run must exit 0, 2 (an algorithm failure or a demand above a
cap) or 3 (a replay budget exhausted) without a traceback, and an exit 3
must name a ``needed`` that some replay table the package accepts could
serve: its advice, a larger --m, has to be one a user can follow.
"""

import itertools
import re

import pytest

from slatelearn.cli import main
from slatelearn.oracle import max_table_m

# instance flags and the item count they give
POINTS = {
    "power-law n=1": (["--instance", "power-law", "--n", "1"], 1),
    "power-law n=6": (["--instance", "power-law", "--n", "6", "--eps", "0.5"],
                      6),
    "two-scale n=5": (["--instance", "two-scale", "--n", "5", "--eps", "0.3",
                       "--delta", "0.2"], 5),
    "geometric-ratio n=4": (["--instance", "geometric-ratio", "--n", "4",
                             "--eps", "0.9", "--delta", "0.9"], 4),
}
RUNS = list(itertools.product(["adaptive", "balanced", "nonadaptive"],
                              ["calibrated", "theory"], ["binomial", "stream"]))


@pytest.mark.parametrize("point", list(POINTS))
@pytest.mark.parametrize("algo, budget, mode", RUNS)
def test_learn_ends_in_a_result_or_a_typed_error(capsys, algo, budget, mode,
                                                 point):
    flags, n = POINTS[point]
    code = main(["learn", "--algo", algo, "--budget", budget, "--oracle-mode",
                 mode, "--m", "200000", *flags])
    out = capsys.readouterr()
    assert code in (0, 2, 3), out.err
    assert "Traceback" not in out.out + out.err
    if code == 3:
        needed = int(re.search(r"needs at least (\d+) ", out.err).group(1))
        assert needed <= max_table_m(n), out.err
