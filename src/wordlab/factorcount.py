"""Distinct-factor counting via a suffix automaton: a test reference.

No wordlab code path calls it. The tests use it as a count of a
prefix's distinct factors that is independent of the window sets that
wordgen's certification and wordlab.complexity's enumeration build; a
window set costs far less time and memory on long prefixes.
"""


def distinct_counts(data: bytes, n_max: int) -> list:
    """Number of distinct factors of each length 1..n_max of data.

    Returns a list c with c[i] = count at length i+1. Lengths beyond
    len(data) count zero.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # suffix automaton: state 0 is the initial state
    link = [-1]
    length = [0]
    trans = [{}]
    last = 0
    for ch in data:
        cur = len(link)
        link.append(-1)
        length.append(length[last] + 1)
        trans.append({})
        p = last
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = link[p]
        if p == -1:
            link[cur] = 0
        else:
            q = trans[p][ch]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(link)
                link.append(link[q])
                length.append(length[p] + 1)
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    # each state covers factor lengths (length[link]+1 .. length[state])
    diff = [0] * (n_max + 2)
    for s in range(1, len(link)):
        lo = length[link[s]] + 1
        hi = min(length[s], n_max)
        if lo <= hi:
            diff[lo] += 1
            diff[hi + 1] -= 1
    counts = []
    acc = 0
    for n in range(1, n_max + 1):
        acc += diff[n]
        counts.append(acc)
    return counts
