"""Complete first returns, return words, and recurrence gaps.

Computed from a finite buffer, so later returns may be unseen; reports
carry the occurrence count and buffer length so callers can tell
"exactly two returns" from "two returns so far".
"""

from dataclasses import dataclass
from itertools import pairwise

from wordlab import closure
from wordlab.errors import InsufficientOccurrencesError


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


def occurrence_positions(buf, v) -> list:
    v = closure._as_bytes(v)
    return closure.occurrences(v, buf.data)


def report(buf, v) -> ReturnReport:
    """Everything read off the consecutive occurrences of v in the
    buffer; with fewer than two, the return fields are empty and max_gap
    is None."""
    v = closure._as_bytes(v)
    data = buf.data
    positions = closure.occurrences(v, data)
    return ReturnReport(
        target=v,
        positions=tuple(positions),
        complete_returns=tuple(sorted({data[i : j + len(v)] for i, j in pairwise(positions)})),
        return_words=tuple(sorted({data[i:j] for i, j in pairwise(positions)})),
        max_gap=max((j - i for i, j in pairwise(positions)), default=None),
        buffer_length=len(data),
    )


def _report_or_raise(buf, v) -> ReturnReport:
    rep = report(buf, v)
    if rep.occurrence_count < 2:
        raise InsufficientOccurrencesError(rep.target, rep.occurrence_count)
    return rep


def complete_first_returns(buf, v) -> list:
    """For consecutive occurrences i < i' of v, the factor
    data[i : i'+|v|]; deduplicated, sorted."""
    return list(_report_or_raise(buf, v).complete_returns)


def return_words(buf, v) -> list:
    """Complete first returns with the trailing copy of v removed."""
    return list(_report_or_raise(buf, v).return_words)


def max_gap(buf, v) -> int:
    """Largest distance between consecutive occurrences of v; the
    window after the last occurrence is deliberately excluded."""
    return _report_or_raise(buf, v).max_gap
