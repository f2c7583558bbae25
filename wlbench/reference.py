"""Independent references for wordlab's outputs.

Nothing here imports wordlab. Prefixes come from generators of their
own: popcount parity for Thue-Morse, str.translate iteration for the
morphic words, exact integer floors for the Sturmian slopes, and the
four-letter automaton for paperfolding. Factor counts come from the
distinct windows of a long prefix, not from wordlab's suffix automaton.
Words are strings over the letters the CLI prints.
"""

import math

# Long enough that every factor of length <= 1000 of these uniformly
# recurrent words occurs among its windows many times over.
REFERENCE_LENGTH = 1 << 17


def morphic(rules, length):
    """Prefix of the fixed point of a morphism written "a=ab,b=ba",
    iterated from its first letter."""
    images = {}
    for rule in rules.split(","):
        letter, image = rule.split("=")
        images[ord(letter)] = image
    word = rules[0]
    while len(word) < length:
        word = word.translate(images)
    return word[:length]


def thue_morse(length):
    return "".join("ab"[bin(i).count("1") & 1] for i in range(length))


def paperfolding(length):
    """Coding {a,b -> 1, c,d -> 0} of the fixed point of a->ab, b->cb,
    c->ad, d->cd (Allouche & Shallit, Automatic Sequences)."""
    return morphic("a=ab,b=cb,c=ad,d=cd", length).translate(str.maketrans("abcd", "1100"))


# floor(k * alpha) in integers, for the slopes alpha = [0; c1, c2, ...]
# of the continued fractions the workloads use.
_SLOPE_FLOORS = {
    "1": lambda k: (math.isqrt(5 * k * k) - k) // 2,  # (sqrt 5 - 1) / 2
    "1,2": lambda k: math.isqrt(3 * k * k) - k,  # sqrt 3 - 1
}


def characteristic(cf, length):
    """Characteristic Sturmian word: letter m (from 1) is a when
    floor((m+1) alpha) - floor(m alpha) = 1, else b."""
    floor = _SLOPE_FLOORS[cf]
    return "".join("a" if floor(m + 1) - floor(m) else "b" for m in range(1, length + 1))


_SOURCES = {
    ("--source", "thue-morse"): thue_morse,
    ("--source", "fibonacci"): lambda n: morphic("a=ab,b=a", n),
    ("--source", "tribonacci"): lambda n: morphic("a=ab,b=ac,c=a", n),
    ("--source", "paperfolding"): paperfolding,
    ("--cf", "1"): lambda n: characteristic("1", n),
    ("--cf", "1,2"): lambda n: characteristic("1,2", n),
}


def prefix(option, value, length):
    """Prefix of the word the CLI source options (option, value) select."""
    if option == "--morphism":
        return morphic(value, length)
    return _SOURCES[option, value](length)


def _common_prefix(a, b):
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factor_counts(word, n_max):
    """p(1..n_max) read off the sorted distinct length-n_max windows of
    word: the length-n factors are one more than the adjacent pairs of
    windows whose common prefix is shorter than n."""
    windows = sorted({word[i : i + n_max] for i in range(len(word) - n_max + 1)})
    shorter = [0] * (n_max + 1)
    for a, b in zip(windows, windows[1:]):
        shorter[_common_prefix(a, b)] += 1
    counts, total = [], 1
    for n in range(1, n_max + 1):
        total += shorter[n - 1]
        counts.append(total)
    return counts


def factors(word, n):
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def returns_text(word, target):
    """The returns report the CLI should print, from a naive scan of
    every position of word."""
    m = len(target)
    positions = [i for i in range(len(word) - m + 1) if word.startswith(target, i)]
    pairs = list(zip(positions, positions[1:]))
    complete = sorted({word[i : j + m] for i, j in pairs})
    words = sorted({word[i:j] for i, j in pairs})
    gap = max((j - i for i, j in pairs), default="-")
    return (
        f"target {target}\n"
        f"occurrences {len(positions)} in prefix of length {len(word)}\n"
        f"complete_returns {' '.join(complete)}\n"
        f"return_words {' '.join(words)}\n"
        f"max_gap {gap}\n"
    )
