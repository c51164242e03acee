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


class StreamDemandTooLarge(SlateLearnError):
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
