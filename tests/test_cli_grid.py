"""Every input the CLI accepts ends in a result or a typed error.

``learn`` runs in-process over algo x budget x oracle mode at four instance
points, and over algo x oracle mode at n = 6 with each flag at an edge of
its accepted range. Each run must exit 0, 2 (an algorithm failure or a demand above a
cap) or 3 (a replay budget exhausted) without a traceback. An exit 3 names a
pair and the answers it ``needed``; its advice, a larger --m, has to be one a
user can follow, so the same run at --m needed must get past that refusal.
"""

import itertools
import re

import pytest

from slatelearn.cli import main

# instance flags of each point
POINTS = {
    "power-law n=1": ["--instance", "power-law", "--n", "1"],
    "power-law n=6": ["--instance", "power-law", "--n", "6", "--eps", "0.5"],
    "two-scale n=5": ["--instance", "two-scale", "--n", "5", "--eps", "0.3",
                      "--delta", "0.2"],
    "geometric-ratio n=4": ["--instance", "geometric-ratio", "--n", "4",
                            "--eps", "0.9", "--delta", "0.9"],
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


def typed_exit(capsys, argv) -> tuple:
    """``main(argv)``'s exit code and stderr; anything but 0, 2, 3 fails."""
    code = main(argv)
    out = capsys.readouterr()
    assert code in (0, 2, 3), out.err
    assert "Traceback" not in out.out + out.err
    return code, out.err


def refused(err: str) -> tuple:
    """The pair and the answers it needed, as an exhausted budget says."""
    pair, needed = re.search(r"pair (\(\d+, \d+\)) needs at least (\d+) ",
                             err).groups()
    return pair, int(needed)


def assert_result_or_typed_error(capsys, argv):
    code, err = typed_exit(capsys, argv)
    if code == 3:
        # click takes the last --m: the rerun is the same run at m = needed
        pair, needed = refused(err)
        code, err = typed_exit(capsys, argv + ["--m", str(needed)])
        if code == 3:
            again, more = refused(err)
            assert again != pair or more > needed, err


@pytest.mark.parametrize("point", list(POINTS))
@pytest.mark.parametrize("algo, budget, mode", RUNS)
def test_learn_ends_in_a_result_or_a_typed_error(capsys, algo, budget, mode,
                                                 point):
    assert_result_or_typed_error(
        capsys, ["learn", "--algo", algo, "--budget", budget, "--oracle-mode",
                 mode, "--m", "200000", *POINTS[point]])


@pytest.mark.parametrize("edge", list(EDGES))
@pytest.mark.parametrize("algo, mode", list(itertools.product(ALGOS, MODES)))
def test_flag_edges_end_in_a_result_or_a_typed_error(capsys, algo, mode, edge):
    assert_result_or_typed_error(
        capsys, ["learn", "--algo", algo, "--oracle-mode", mode, "--n", "6",
                 "--m", "200000", *EDGES[edge]])
