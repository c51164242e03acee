"""Exception types shared across the package."""


class SlateLearnError(Exception):
    """Base class for all package-specific errors."""


class ReplayBudgetExhausted(SlateLearnError):
    """A replayed pair ran out of pre-sampled answers.

    This signals that the replication count m used to build the replay table
    was below the per-pair demand of the learner being simulated. Recoverable:
    rebuild the table with a larger m.
    """

    def __init__(self, pair, m):
        self.pair = pair
        self.m = m
        super().__init__(
            "pair {} exhausted its budget of {} pre-sampled answers; "
            "rebuild the replay table with a larger m".format(pair, m)
        )


class ForestBuildFailure(SlateLearnError):
    """The balanced forest builder hit its explicit failure branch.

    Raised when a bridging ratio estimate comes back as a sentinel (zero or
    infinite) where a finite value is required. Callers may retry with a
    fresh seed; the library itself never retries silently.
    """


class GeometricCapExceeded(SlateLearnError):
    """A geometric sampling loop exceeded its hard iteration cap (1e9)."""


class DemandTooLarge(SlateLearnError):
    """A call asked for more draws or answers than its cap allows.

    The demand follows from the inputs (n, eps, delta, m, budget, mode), not
    from the seed, so retrying with another seed cannot cure it.
    """


class StreamDemandTooLarge(DemandTooLarge):
    """One stream-mode call asked a pair for more draws than the cap allows.

    Raised before anything is drawn or charged, so the oracle is unchanged.
    Binomial mode answers such demands in O(1) time.
    """

    def __init__(self, pair, count, cap):
        self.pair = pair
        self.count = count
        super().__init__(
            "pair {} was asked for {} stream draws in one call, above the "
            "cap of {}; use binomial mode".format(pair, count, cap)
        )


class SampleDemandTooLarge(DemandTooLarge):
    """One balanced ratio estimate asked for more geometric waits than fit.

    A demand of M * N waits above the cap (2^62) is refused before anything
    is drawn or charged; so is, after drawing and charging, a loss total
    that int64 cannot hold. The theory budget reaches such demands at small
    n (M * N is about 7.9e22 on a geometric-ratio instance at n = 8,
    eps = 0.5).
    """

    def __init__(self, what, count, cap):
        self.count = count
        self.cap = cap
        super().__init__("{} = {}, above the cap of {}; use the calibrated "
                         "budget or a larger eps".format(what, count, cap))


class ReplayTableTooLarge(DemandTooLarge):
    """A replay table would hold more pre-sampled answers than the cap allows.

    Raised by ``build_replay_table`` before the first pair is drawn, so the
    live oracle and its ledger are unchanged.
    """

    def __init__(self, pairs, m, cap):
        self.pairs = pairs
        self.m = m
        self.cap = cap
        super().__init__(
            "a replay table of {} pairs x m = {} answers holds {}, above the "
            "cap of {}; use a smaller m or n".format(pairs, m, pairs * m, cap))
