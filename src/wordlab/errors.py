"""Exception types shared across modules."""


class UncertifiedLengthError(ValueError):
    """Requested factor length exceeds the buffer's certified stable_upto."""

    def __init__(self, n, stable_upto):
        super().__init__(
            f"length {n} exceeds certified stable_upto={stable_upto} "
            "(pass force=True to override; results are then approximate)"
        )
        self.n = n
        self.stable_upto = stable_upto


class StabilizationError(RuntimeError):
    """Doubling heuristic hit the hard cap before factor counts settled."""

    def __init__(self, cap, last_counts, prev_counts):
        super().__init__(
            f"factor counts did not stabilize below the hard cap {cap}; "
            f"last two count vectors: {prev_counts} vs {last_counts}"
        )
        self.cap = cap
        self.last_counts = last_counts
        self.prev_counts = prev_counts

