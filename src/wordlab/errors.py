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
    """Proving a prefix's factor sets complete needs more than the hard cap."""

    def __init__(self, cap, needed):
        super().__init__(
            f"factor sets cannot be proven to stabilize below the hard cap {cap}: "
            f"the proof needs a prefix of at least {needed} symbols"
        )
        self.cap = cap
        self.needed = needed
