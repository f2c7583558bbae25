"""Factor enumeration and p/op/cl complexity profiles of a prefix buffer."""

import csv
import io
from dataclasses import dataclass

from wordlab import closure, kernels
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


def _check_length(buf, n, force):
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if n > len(buf.data):
        raise ValueError(f"factor length {n} exceeds buffer length {len(buf.data)}")
    if n > buf.stable_upto and not force:
        raise UncertifiedLengthError(n, buf.stable_upto)


def factor_positions(buf, n: int, force: bool = False) -> dict:
    """Distinct length-n factors mapped to their first occurrence offset."""
    _check_length(buf, n, force)
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
    is data[i:i+n+1]. Each start is therefore classified once, by one
    frontier table over its window, from the shortest length at which it
    is a first occurrence up to n_to (or the buffer end).
    """
    if n_from > n_to:
        raise ValueError("empty length range")
    first_length = {}  # start -> shortest length at which it is a first occurrence
    for n in range(n_from, n_to + 1):
        for i in factor_positions(buf, n, force).values():
            first_length.setdefault(i, n)
    data = buf.data
    op = [0] * (n_to - n_from + 1)
    frontiers = [[] for _ in op]
    for i, n_i in first_length.items():
        table = kernels.frontier_lengths(data[i : i + n_to], n_i)
        for k, f in enumerate(table, n_i - n_from):
            if f < 0:
                op[k] += 1
            else:
                frontiers[k].append(f)
    rows = []
    for n, opens, closed in zip(range(n_from, n_to + 1), op, frontiers):
        closed.sort()
        rows.append(
            ComplexityRow(
                n=n,
                p=opens + len(closed),
                op=opens,
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


def shortest_period(w) -> int:
    """Smallest q >= 1 with w[i] == w[i+q] throughout; |w| minus the
    longest border."""
    return len(closure._as_bytes(w)) - closure.longest_border(w)


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


def rows_from_csv(text: str) -> list:
    """Parse rows_to_csv output back into ComplexityRow objects."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    has_approx = header[len(CSV_COLUMNS) :] == ["approx"]
    rows = []
    for record in reader:
        frontiers = tuple(int(f) for f in record[4].split(";") if f)
        rows.append(
            ComplexityRow(
                n=int(record[0]),
                p=int(record[1]),
                op=int(record[2]),
                cl=int(record[3]),
                frontier_lengths=frontiers,
                approx=bool(int(record[5])) if has_approx else False,
            )
        )
    return rows
