"""Every input the CLI accepts ends in a result or a typed error.

``learn`` runs in-process over algo x budget x oracle mode at four instance
points, and over algo x oracle mode at n = 6 with each flag at an edge of
its accepted range. Each run must exit 0, 2 (an algorithm failure or a demand above a
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
ALGOS = ["adaptive", "balanced", "nonadaptive"]
MODES = ["binomial", "stream"]
RUNS = list(itertools.product(ALGOS, ["calibrated", "theory"], MODES))
# accepted values at the edges of each flag's range
EDGES = {
    "eps 1e-9": ["--eps", "1e-9"],
    "eps 0.999999": ["--eps", "0.999999"],
    "delta 1e-300": ["--delta", "1e-300"],
    "delta 0.999999": ["--delta", "0.999999"],
    "m 1": ["--m", "1"],
    "retries 999": ["--retries", "999"],
    "gamma 0": ["--gamma", "0"],
    "rho 1e-300": ["--instance", "geometric-ratio", "--rho", "1e-300"],
    "heavy 1e300": ["--instance", "two-scale", "--heavy", "1e300"],
}


def assert_result_or_typed_error(capsys, argv, n):
    code = main(argv)
    out = capsys.readouterr()
    assert code in (0, 2, 3), out.err
    assert "Traceback" not in out.out + out.err
    if code == 3:
        needed = int(re.search(r"needs at least (\d+) ", out.err).group(1))
        assert needed <= max_table_m(n), out.err


@pytest.mark.parametrize("point", list(POINTS))
@pytest.mark.parametrize("algo, budget, mode", RUNS)
def test_learn_ends_in_a_result_or_a_typed_error(capsys, algo, budget, mode,
                                                 point):
    flags, n = POINTS[point]
    assert_result_or_typed_error(
        capsys, ["learn", "--algo", algo, "--budget", budget, "--oracle-mode",
                 mode, "--m", "200000", *flags], n)


@pytest.mark.parametrize("edge", list(EDGES))
@pytest.mark.parametrize("algo, mode", list(itertools.product(ALGOS, MODES)))
def test_flag_edges_end_in_a_result_or_a_typed_error(capsys, algo, mode, edge):
    assert_result_or_typed_error(
        capsys, ["learn", "--algo", algo, "--oracle-mode", mode, "--n", "6",
                 "--m", "200000", *EDGES[edge]], 6)
