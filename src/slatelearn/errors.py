"""Exception types shared across the package."""


class SlateLearnError(Exception):
    """Base class for all package-specific errors."""


class ReplayBudgetExhausted(SlateLearnError):
    """A replayed pair ran out of the answers its batch paid for.

    This signals that the replication count m used to build the replay table
    was below the per-pair demand of the learner being simulated; the
    answers are paid for when the table is built, drawn when read. Recoverable:
    rebuild the table with a larger m. ``needed`` is how many of the pair's
    answers the refused read would have reached: an m of at least that
    serves the call, and more may be needed when it is a geometric wait.
    """

    def __init__(self, pair, m, needed):
        self.pair = pair
        self.m = m
        self.needed = needed
        super().__init__(
            "pair {} needs at least {} paid-for answers, above its budget "
            "of m = {}; rebuild the replay table with a larger m".format(
                pair, needed, m))


class ForestBuildFailure(SlateLearnError):
    """The balanced forest builder hit its explicit failure branch.

    Raised when a bridging ratio estimate comes back as a sentinel (zero or
    infinite) where a finite value is required. Callers may retry with a
    fresh seed; the library itself never retries silently.
    """


class GeometricCapExceeded(SlateLearnError):
    """A geometric sampling loop exceeded its hard iteration cap (1e9)."""


class DemandTooLarge(SlateLearnError):
    """A call asked for more draws, waits or answers than its cap allows.

    The demand follows from the inputs (n, eps, delta, m, budget, mode), not
    from the seed, so retrying with another seed cannot cure it. ``count``
    is the demand and ``cap`` the cap it passed; the message names what was
    asked for and what to change.
    """

    def __init__(self, what, count, cap, remedy):
        self.count = count
        self.cap = cap
        super().__init__("{} = {}, above the cap of {}; {}".format(
            what, count, cap, remedy))
