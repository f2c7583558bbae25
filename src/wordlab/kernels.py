"""String kernels: border tables, overlapping occurrence search, and the
open/closed status of every prefix of a word.

There is one backend, pure Python leaning on bytes.find. BACKEND stays a
constant because benchmark records carry it.
"""

BACKEND = "pure"


def border_table(w: bytes) -> list:
    """Failure function: entry i is the longest proper border of w[:i+1]."""
    n = len(w)
    if n == 0:
        raise ValueError("border_table of empty word")
    table = [0] * n
    k = 0
    for i in range(1, n):
        c = w[i]
        while k and c != w[k]:
            k = table[k - 1]
        if c == w[k]:
            k += 1
        table[i] = k
    return table


def occurrences(pattern: bytes, text: bytes) -> list:
    """All start positions of pattern in text, overlaps included."""
    if len(pattern) == 0:
        raise ValueError("occurrences of empty pattern")
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def frontier_lengths(w: bytes, n_from: int = 1) -> list:
    """Entry n - n_from, for n in n_from..len(w): the frontier length of
    w[:n] if that prefix is closed, else -1.

    A single letter is closed with frontier 0. A longer prefix with
    longest border b > 0 is closed iff w[:b] first recurs at n - b, i.e.
    it has no occurrence strictly inside w[:n]; one border table serves
    every n.
    """
    if n_from < 1:
        raise ValueError("prefix lengths start at 1")
    table = border_table(w)
    out = []
    for n in range(n_from, len(w) + 1):
        b = table[n - 1]
        if b and w.find(w[:b], 1) == n - b:
            out.append(b)
        else:
            out.append(-1 if n > 1 else 0)
    return out


def frontier_length(w: bytes) -> int:
    """Length of the frontier if w is closed, else -1."""
    return frontier_lengths(w, len(w))[0]
