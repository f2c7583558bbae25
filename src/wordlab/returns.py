"""Complete first returns, return words, and recurrence gaps.

Computed from a finite buffer, so later returns may be unseen; reports
carry the occurrence count and buffer length so callers can tell
"exactly two returns" from "two returns so far".
"""

from dataclasses import dataclass
from itertools import pairwise

from wordlab import kernels


@dataclass(frozen=True)
class ReturnReport:
    target: bytes
    positions: tuple
    complete_returns: tuple  # sorted
    return_words: tuple  # sorted
    max_gap: object  # int, or None with < 2 occurrences
    buffer_length: int

    @property
    def occurrence_count(self) -> int:
        return len(self.positions)


def report(buf, v) -> ReturnReport:
    """Everything read off the consecutive occurrences of v in the
    buffer; with fewer than two, the return fields are empty and max_gap
    is None."""
    v = buf.alphabet.encode(v) if isinstance(v, str) else bytes(v)
    data = buf.data
    positions = kernels.occurrences(v, data)
    complete = sorted({data[i : j + len(v)] for i, j in pairwise(positions)})
    return ReturnReport(
        target=v,
        positions=tuple(positions),
        complete_returns=tuple(complete),
        # data[i:j+|v|] = data[i:j] + v, so dropping v maps distinct to distinct
        return_words=tuple(sorted(w[: -len(v)] for w in complete)),
        max_gap=max((j - i for i, j in pairwise(positions)), default=None),
        buffer_length=len(data),
    )

