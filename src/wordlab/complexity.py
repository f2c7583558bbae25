"""Factor enumeration and p/op/cl complexity profiles of a prefix buffer."""

import csv
import io
import itertools
from dataclasses import dataclass

from wordlab import kernels
from wordlab.errors import UncertifiedLengthError

CSV_COLUMNS = ["n", "p", "op", "cl", "frontier_lengths"]


@dataclass(frozen=True)
class ComplexityRow:
    n: int
    p: int
    op: int
    cl: int
    frontier_lengths: tuple  # sorted ascending, one entry per closed factor
    approx: bool = False

    def __post_init__(self):
        if self.p != self.op + self.cl:
            raise ValueError(f"p != op + cl at n={self.n}")
        if len(self.frontier_lengths) != self.cl:
            raise ValueError(f"frontier multiset size != cl at n={self.n}")


@dataclass(frozen=True)
class SyndeticSample:
    gap: int
    residue: int
    values: dict  # sampled n -> cl(n)


def check_length(buf, n, force):
    """Raise unless the length-n factors of buf are all in it and, short
    of force, certified."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if n > len(buf.data):
        raise ValueError(f"factor length {n} exceeds buffer length {len(buf.data)}")
    if n > buf.stable_upto and not force:
        raise UncertifiedLengthError(n, buf.stable_upto)


def factor_positions(buf, n: int, force: bool = False) -> dict:
    """Distinct length-n factors mapped to their first occurrence offset."""
    check_length(buf, n, force)
    data = buf.data
    seen = {}
    for i in range(len(data) - n + 1):
        w = data[i : i + n]
        if w not in seen:
            seen[w] = i
    return seen


def factors_of_length(buf, n: int, force: bool = False) -> list:
    """Distinct length-n factors in lexicographic order."""
    return sorted(factor_positions(buf, n, force))


def profile(buf, n_from: int, n_to: int, force: bool = False) -> list:
    """One ComplexityRow per length in n_from..n_to inclusive.

    Start-major: if data[i:i+n] is the first occurrence of its factor, so
    is data[i:i+n+1]. One scan at n_to yields the starts that are first
    occurrences there; the starts past len - n_to, whose windows stop
    short of n_to, are tested at their longest window. Each start's
    shortest first-occurrence length is then found by binary search, and
    the start counts in p from that length up to n_to (or the buffer
    end), and its closed lengths in that range come from one
    closed_prefixes call over its window.
    """
    if n_from > n_to:
        raise ValueError("empty length range")
    # raise what a scan of each length in turn would raise first
    check_length(buf, n_from, force)
    check_length(buf, min(n_to, (len(buf.data) if force else buf.stable_upto) + 1), force)
    data = buf.data

    def is_first(i, n):
        return data.find(data[i : i + n], 0, i + n - 1) == -1

    def first_length(i, hi):
        lo = n_from
        while lo < hi:
            mid = (lo + hi) // 2
            if is_first(i, mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    starts = {i: first_length(i, n_to) for i in factor_positions(buf, n_to, force).values()}
    for i in range(len(data) - n_to + 1, len(data) - n_from + 1):
        if is_first(i, len(data) - i):
            starts[i] = first_length(i, len(data) - i)
    # p by a difference array over each start's first-occurrence lengths
    # n_i..min(n_to, len - i); cl from the sparse closed pairs; op = p - cl
    delta = [0] * (n_to - n_from + 2)
    frontiers = [[] for _ in range(n_to - n_from + 1)]
    for i, n_i in starts.items():
        window = data[i : i + n_to]
        delta[n_i - n_from] += 1
        delta[len(window) - n_from + 1] -= 1
        for n, f in kernels.closed_prefixes(window, n_i):
            frontiers[n - n_from].append(f)
    rows = []
    for n, p, closed in zip(range(n_from, n_to + 1), itertools.accumulate(delta), frontiers):
        closed.sort()
        rows.append(
            ComplexityRow(
                n=n,
                p=p,
                op=p - len(closed),
                cl=len(closed),
                frontier_lengths=tuple(closed),
                approx=n > buf.stable_upto,
            )
        )
    return rows


def syndetic_max_cl(rows, d: int, r: int):
    """Restrict cl to the progression {n == r mod d}; returns the sample
    and its maximum."""
    if d < 1:
        raise ValueError("gap d must be >= 1")
    if not 0 <= r < d:
        raise ValueError("residue must satisfy 0 <= r < d")
    values = {row.n: row.cl for row in rows if row.n % d == r}
    if not values:
        raise ValueError("no profiled length lies on the progression")
    return SyndeticSample(gap=d, residue=r, values=values), max(values.values())


def rows_to_csv(rows, alphabet=None, force: bool = False) -> str:
    """Serialize rows to the fixed CSV schema. The approx column is
    emitted only under force, where uncertified rows can appear."""
    out = io.StringIO()
    columns = CSV_COLUMNS + (["approx"] if force else [])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        record = [
            row.n,
            row.p,
            row.op,
            row.cl,
            ";".join(str(f) for f in row.frontier_lengths),
        ]
        if force:
            record.append(int(row.approx))
        writer.writerow(record)
    return out.getvalue()

