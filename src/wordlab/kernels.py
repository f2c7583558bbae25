"""String kernels: overlapping occurrence search and the closed prefixes
of a word.

Closure is read off the longest repeated prefix: w[:n] is closed exactly
where the longest prefix of w[:n] that recurs in it at a start >= 1 grows,
and that prefix is its frontier. closed_prefixes finds where it grows with
one bytes.find per closed prefix (plus a binary search for where to
start), skipping open prefixes; frontier_length is one call of it.

There is one backend, pure Python leaning on bytes.find. BACKEND stays a
constant because benchmark records carry it.
"""

BACKEND = "pure"


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


def closed_prefixes(w: bytes, n_from: int = 1) -> list:
    """Ascending (n, frontier) pairs, one per closed prefix w[:n] with
    n_from <= n <= len(w); open prefixes are skipped.

    Let k(n) be the length of the longest prefix of w[:n] that recurs in
    w[:n] at a start >= 1. It grows by 0 or 1 per letter, and w[:n] is
    closed, with frontier k(n), exactly where it grows: at n = j + k + 1
    for j the first start >= 1 of w[:k+1]. Counting k(0) as -1 makes the
    single letter closed with frontier 0. An occurrence of w[:k+1] is one
    of w[:k], so each search resumes at the last start found.
    """
    if len(w) == 0:
        raise ValueError("closed_prefixes of empty word")
    if n_from < 1:
        raise ValueError("prefix lengths start at 1")
    if n_from > len(w):
        return []
    # k(n_from - 1) by binary search: w[:m] recurring is monotone in m
    lo, hi = min(0, n_from - 2), n_from - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if w.find(w[:mid], 1, n_from - 1) != -1:
            lo = mid
        else:
            hi = mid - 1
    k = lo
    # w[:k+1] does not recur inside w[:n_from-1], so it starts no earlier
    j = max(1, n_from - k - 1)
    out = []
    while True:
        j = w.find(w[: k + 1], j)
        if j == -1:
            return out
        k += 1
        out.append((j + k, k))


def frontier_length(w: bytes) -> int:
    """Length of the frontier if w is closed, else -1."""
    pairs = closed_prefixes(w, len(w))
    return pairs[0][1] if pairs else -1
