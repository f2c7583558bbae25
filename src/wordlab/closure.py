"""Open/closed classification of finite words.

classify goes through wordlab.kernels, which reads the frontier off the
longest prefix that recurs at a start >= 1; classify_brute is the
independent oracle that tries every border length with naive scans.
Both accept bytes or plain ASCII strings.
"""

from dataclasses import dataclass

from wordlab import kernels


@dataclass(frozen=True)
class ClosureVerdict:
    closed: bool
    frontier: object = None  # int when closed, None when open

    def __post_init__(self):
        if self.closed and self.frontier is None:
            raise ValueError("closed verdict needs a frontier length")
        if not self.closed and self.frontier is not None:
            raise ValueError("open verdict carries no frontier")

    @property
    def status(self) -> str:
        return "closed" if self.closed else "open"


OPEN = ClosureVerdict(closed=False)


def _as_bytes(w) -> bytes:
    if isinstance(w, str):
        w = w.encode("ascii")
    if len(w) == 0:
        raise ValueError("empty word")
    return bytes(w)


def classify(w) -> ClosureVerdict:
    """A letter is closed with frontier 0; a longer word is closed iff
    its longest border occurs in it exactly twice."""
    f = kernels.frontier_length(_as_bytes(w))
    if f < 0:
        return OPEN
    return ClosureVerdict(closed=True, frontier=f)


def classify_brute(w) -> ClosureVerdict:
    """Oracle: try every border length exhaustively with naive scans;
    closed iff some border occurs exactly twice, reporting the longest."""
    w = _as_bytes(w)
    n = len(w)
    if n == 1:
        return ClosureVerdict(closed=True, frontier=0)
    for b in range(n - 1, 0, -1):
        if w[:b] != w[n - b :]:
            continue
        count = sum(1 for i in range(n - b + 1) if w[i : i + b] == w[:b])
        if count == 2:
            return ClosureVerdict(closed=True, frontier=b)
    return OPEN
