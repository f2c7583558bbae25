"""Machine-checkable verification suite.

Every registered check re-derives a desk-scale-checkable claim about
open/closed factors on generated prefixes and reports pass/fail with a
concrete counterexample on failure. Threshold constants were fixed by a
brute-force sweep before the implementation was finalized; they are
regression values, not tunables.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from wordlab import closure, complexity, rauzy, returns, wordgen

# frozen oracle values (pre-build brute-force sweeps)
TM_MIN_OPEN_10_40 = 18  # min op(n), thue-morse, n in [10, 40]
TM_SYNDETIC_MIN_MAX_CL = 44  # min over progressions d<=4 of max cl(n), n<=60
FIB_TWO_RETURNS_PREFIX = 256  # prefix length witnessing both returns, |v|<=15
PAPERFOLDING_FIRST_CL_ZERO = 18  # smallest n with cl(n)=0
PAPERFOLDING_SEARCH_LIMIT = 512
RAUZY_N_MAX = 12  # factor lengths (and binary word lengths) of the Rauzy checks
FRONTIER_I_MAX = 8  # largest shift of the frontier-distance check

APERIODIC_PRESETS = ("thue-morse", "fibonacci", "cantor", "paperfolding", "period-doubling")


@dataclass(frozen=True)
class VerifyOutcome:
    name: str
    status: str  # pass | fail | skipped
    detail: str


def _pass(name, detail=""):
    return VerifyOutcome(name, "pass", detail)


def _fail(name, detail):
    return VerifyOutcome(name, "fail", detail)


@lru_cache(maxsize=None)
def _buffer(preset: str, n_max: int):
    return wordgen.stabilized_prefix(wordgen.get_preset(preset), n_max)


def _binary_words(max_len):
    for n in range(1, max_len + 1):
        for bits in itertools.product(b"\x00\x01", repeat=n):
            yield bytes(bits)


def _is_primitive(w: bytes) -> bool:
    n = len(w)
    return not any(n % q == 0 and w[:q] * (n // q) == w for q in range(1, n))


def check_closure_equivalence(classify_impl=None):
    """classify agrees with the exhaustive oracle on every binary word of
    length 1..12, in status and frontier length."""
    name = "closure-oracle-equivalence"
    impl = classify_impl or closure.classify
    total = 0
    for w in _binary_words(12):
        total += 1
        got = impl(w)
        want = closure.classify_brute(w)
        if got != want:
            text = wordgen.Alphabet("ab").decode(w)
            return _fail(
                name,
                f"word {text!r} (length {len(w)}): classify={got.status} "
                f"frontier={got.frontier}, oracle={want.status} frontier={want.frontier}",
            )
    return _pass(name, f"{total} words tested")


def check_paper_examples():
    name = "closure-worked-examples"
    cases = [("abaaaab", True, 2), ("aabab", False, None), ("aabaaa", False, None), ("b", True, 0)]
    for text, closed, frontier in cases:
        got = closure.classify(text)
        if got.closed != closed or got.frontier != frontier:
            return _fail(name, f"{text!r}: got {got.status} frontier={got.frontier}")
    return _pass(name, f"{len(cases)} fixed examples")


def check_identity():
    """p(n) = op(n) + cl(n) on every profiled row, all presets, n <= 30."""
    name = "identity-p-op-cl"
    for preset in sorted(wordgen.PRESETS):
        buf = _buffer(preset, 30)
        for row in complexity.profile(buf, 1, 30):
            if row.p != row.op + row.cl:
                return _fail(name, f"{preset} n={row.n}: p={row.p} op={row.op} cl={row.cl}")
            if row.n == 1 and row.op != 0:
                return _fail(name, f"{preset} n=1: letters must be closed, op={row.op}")
    return _pass(name, f"{len(wordgen.PRESETS)} presets, n <= 30")


def check_morse_hedlund():
    """Aperiodic presets have p(n) >= n+1 for n <= 20."""
    name = "morse-hedlund-bound"
    for preset in APERIODIC_PRESETS:
        buf = _buffer(preset, 20)
        for row in complexity.profile(buf, 1, 20):
            if row.p < row.n + 1:
                return _fail(name, f"{preset} n={row.n}: p={row.p} < {row.n + 1}")
    return _pass(name, f"{len(APERIODIC_PRESETS)} aperiodic presets, n <= 20")


def check_fibonacci_sturmian():
    """Fibonacci has exactly p(n) = n+1 for n <= 30."""
    name = "fibonacci-sturmian-complexity"
    buf = _buffer("fibonacci", 30)
    for row in complexity.profile(buf, 1, 30):
        if row.p != row.n + 1:
            return _fail(name, f"n={row.n}: p={row.p} != {row.n + 1}")
    return _pass(name, "p(n) = n+1 for n <= 30")


def check_fibonacci_two_returns():
    """Every Fibonacci factor of length <= 15 has exactly two return
    words, witnessed inside the oracle-fixed prefix length."""
    name = "fibonacci-two-returns"
    src = wordgen.get_preset("fibonacci")
    buf = wordgen.PrefixBuffer(src, src.prefix(FIB_TWO_RETURNS_PREFIX), 16)
    checked = 0
    for k in range(1, 16):
        for v in complexity.factors_of_length(buf, k, force=True):
            words = returns.return_words(buf, v)
            checked += 1
            if len(words) != 2:
                return _fail(
                    name,
                    f"factor {buf.decode(v)!r}: {len(words)} return words "
                    f"{[buf.decode(w) for w in words]}",
                )
    return _pass(name, f"{checked} factors, prefix length {FIB_TWO_RETURNS_PREFIX}")


def check_cantor_minimum():
    """Cantor word has cl(n) = 1 at n = 8, 22, 64 (7*3^k + 1)."""
    name = "cantor-closed-minimum"
    buf = _buffer("cantor", 64)
    for k, n in enumerate((8, 22, 64)):
        row = complexity.profile(buf, n, n)[0]
        if row.cl != 1:
            return _fail(name, f"n={n} (k={k}): cl={row.cl} != 1")
    return _pass(name, "cl(n) = 1 at n = 8, 22, 64")


def _preset_buffers_for_rauzy():
    for preset in sorted(wordgen.PRESETS):
        yield preset, _buffer(preset, RAUZY_N_MAX + 1)


def check_closed_neighbors():
    """No factor has two closed left or two closed right extensions;
    presets for n <= 12 plus every binary word of length <= 12."""
    name = "rauzy-closed-neighbors"
    for preset, buf in _preset_buffers_for_rauzy():
        for n in range(2, RAUZY_N_MAX + 1):
            bad = rauzy.check_closed_neighbor_uniqueness(buf, n)
            if bad:
                v = bad[0]
                return _fail(name, f"{preset} n={n}: {buf.decode(v.word)!r} {v.detail}")
    words = 0
    for w in _binary_words(RAUZY_N_MAX):
        if len(w) < 2:
            continue
        buf = wordgen.literal_buffer(w, wordgen.Alphabet("ab"))
        words += 1
        for n in range(2, len(w) + 1):
            bad = rauzy.check_closed_neighbor_uniqueness(buf, n)
            if bad:
                v = bad[0]
                return _fail(name, f"word {buf.decode()!r} n={n}: {v.detail}")
    return _pass(name, f"presets n<={RAUZY_N_MAX} and {words} binary words")


def check_frontier_distance():
    """Closed windows at shift i have frontier lengths differing by < i;
    presets for n <= 12, i_max = 8, plus every binary word <= 12."""
    name = "rauzy-frontier-distance"
    for preset, buf in _preset_buffers_for_rauzy():
        for n in range(1, RAUZY_N_MAX + 1):
            i_max = min(FRONTIER_I_MAX, len(buf.data) - n)
            bad = rauzy.check_frontier_distance(buf, n, i_max)
            if bad:
                v = bad[0]
                return _fail(name, f"{preset} n={n}: {buf.decode(v.word)!r} {v.detail}")
    words = 0
    for w in _binary_words(RAUZY_N_MAX):
        buf = wordgen.literal_buffer(w, wordgen.Alphabet("ab"))
        words += 1
        for n in range(1, len(w)):
            i_max = min(FRONTIER_I_MAX, len(w) - n)
            if i_max < 1:
                continue
            bad = rauzy.check_frontier_distance(buf, n, i_max)
            if bad:
                v = bad[0]
                return _fail(name, f"word {buf.decode()!r} n={n}: {v.detail}")
    return _pass(name, f"presets n<={RAUZY_N_MAX} i_max={FRONTIER_I_MAX} and {words} binary words")


def check_closed_path_frontiers():
    """Frontier lengths along realized walks differ by at most the number
    of distinct open windows strictly between the closed endpoints."""
    name = "rauzy-closed-path-frontiers"
    for preset, buf in _preset_buffers_for_rauzy():
        for n in range(1, 11):
            bad = rauzy.check_closed_path_frontiers(buf, n, walk_max=12)
            if bad:
                v = bad[0]
                return _fail(name, f"{preset} n={n}: {buf.decode(v.word)!r} {v.detail}")
    return _pass(name, "presets, n <= 10, walks <= 12")


def check_right_special_exists():
    """Aperiodic presets have a right special factor of every length <= 15."""
    name = "right-special-exists"
    for preset in APERIODIC_PRESETS:
        buf = _buffer(preset, 16)
        for n in range(1, 16):
            report = rauzy.special_factors(buf, n)
            if not report.right_specials:
                return _fail(name, f"{preset}: no right special factor of length {n}")
    return _pass(name, f"{len(APERIODIC_PRESETS)} presets, n <= 15")


def check_graph_consistency():
    """|V| = p(n) and |E| = p(n+1) for every constructed Rauzy graph."""
    name = "rauzy-graph-consistency"
    for preset, buf in _preset_buffers_for_rauzy():
        rows = complexity.profile(buf, 1, 12)
        p = {row.n: row.p for row in rows}
        for n in range(1, 12):
            g = rauzy.rauzy_graph(buf, n)
            if g.vertex_count != p[n] or g.edge_count != p[n + 1]:
                return _fail(
                    name,
                    f"{preset} n={n}: |V|={g.vertex_count} |E|={g.edge_count}, "
                    f"expected {p[n]}, {p[n + 1]}",
                )
    return _pass(name, "presets, n <= 11")


def check_periodic_collapse():
    """All factors of v^omega of length >= 2|v| are closed, for every
    primitive binary v with |v| <= 5, n <= 20."""
    name = "periodic-collapse"
    alphabet = wordgen.Alphabet("ab")
    tested = 0
    for k in range(1, 6):
        for bits in itertools.product(b"\x00\x01", repeat=k):
            v = bytes(bits)
            if not _is_primitive(v):
                continue
            tested += 1
            data = (v * (20 // k + 3))[: 20 + 2 * k + 20]
            for n in range(2 * k, 21):
                for i in range(len(data) - n + 1):
                    w = data[i : i + n]
                    if not closure.classify(w).closed:
                        return _fail(
                            name,
                            f"v={alphabet.decode(v)!r} n={n}: open window "
                            f"{alphabet.decode(w)!r} at offset {i}",
                        )
    return _pass(name, f"{tested} primitive periods")


def check_rotation_power_construction():
    """For primitive u, the words r^i(u)^3 u_i..u_{i+p} are pairwise
    distinct and closed with frontier r^i(u)^2 u_i..u_{i+p}."""
    name = "rotation-power-closure"
    alphabet = wordgen.Alphabet("ab")
    for k in range(1, 5):
        for bits in itertools.product(b"\x00\x01", repeat=k):
            u = bytes(bits)
            if not _is_primitive(u):
                continue
            for p in range(k):
                words = set()
                for i in range(k):
                    r = u[i:] + u[:i]
                    w = r * 3 + (r * 2)[: p + 1]
                    words.add(w)
                    verdict = closure.classify(w)
                    expected = 2 * k + p + 1
                    if not verdict.closed or verdict.frontier != expected:
                        return _fail(
                            name,
                            f"u={alphabet.decode(u)!r} i={i} p={p}: "
                            f"{verdict.status}, frontier {verdict.frontier} != {expected}",
                        )
                if len(words) != k:
                    return _fail(
                        name,
                        f"u={alphabet.decode(u)!r} p={p}: only {len(words)} distinct words",
                    )
    return _pass(name, "primitive binary u, |u| <= 4, n = 3")


def check_unique_return_periodicity():
    """In an ultimately periodic word, every factor of the periodic part
    of length at least the period has exactly one return word (shorter
    factors can have several, e.g. 'a' in (aab)^omega; preperiod
    excluded)."""
    name = "unique-return-periodicity"
    alphabet = wordgen.Alphabet("abc")
    cases = [
        (b"", alphabet.encode("ab")),
        (alphabet.encode("c"), alphabet.encode("ab")),
        (alphabet.encode("ba"), alphabet.encode("aab")),
    ]
    for u, v in cases:
        src = wordgen.UltimatelyPeriodicSource("up", alphabet, u, v)
        data = src.prefix(len(u) + 20 * len(v))
        tail = wordgen.literal_buffer(data[len(u) :], alphabet)
        for n in range(len(v), 2 * len(v) + 1):
            for w in complexity.factors_of_length(tail, n):
                words = returns.return_words(tail, w)
                if len(words) != 1:
                    return _fail(
                        name,
                        f"u={alphabet.decode(u)!r} v={alphabet.decode(v)!r} "
                        f"factor {alphabet.decode(w)!r}: {len(words)} return words",
                    )
    return _pass(name, f"{len(cases)} ultimately periodic words")


def check_open_threshold():
    """Thue-Morse: min op(n) over n in [10, 40] matches the frozen oracle
    minimum (aperiodicity witness at desk scale)."""
    name = "tm-open-threshold"
    buf = _buffer("thue-morse", 40)
    low = min(row.op for row in complexity.profile(buf, 10, 40))
    if low < TM_MIN_OPEN_10_40:
        return _fail(name, f"min op over [10,40] = {low} < {TM_MIN_OPEN_10_40}")
    return _pass(name, f"min op = {low} >= {TM_MIN_OPEN_10_40}")


def check_syndetic_threshold():
    """Thue-Morse: on every arithmetic progression with gap <= 4, the max
    of cl(n) for sampled n <= 60 reaches the frozen threshold."""
    name = "tm-closed-syndetic-threshold"
    buf = _buffer("thue-morse", 60)
    rows = complexity.profile(buf, 1, 60)
    for d in range(1, 5):
        for r in range(d):
            _, high = complexity.syndetic_max_cl(rows, d, r)
            if high < TM_SYNDETIC_MIN_MAX_CL:
                return _fail(
                    name, f"d={d} r={r}: max cl = {high} < {TM_SYNDETIC_MIN_MAX_CL}"
                )
    return _pass(name, f"all progressions d <= 4 reach {TM_SYNDETIC_MIN_MAX_CL}")


def check_paperfolding_zero(limit: int = PAPERFOLDING_SEARCH_LIMIT):
    """Search for the smallest n <= limit with cl(n) = 0 on the
    paperfolding word; the found value is pinned as a regression."""
    name = "paperfolding-closed-zero"
    found = None
    step = 64
    n_max = min(step, limit)
    while True:
        buf = _buffer("paperfolding", n_max)
        for row in complexity.profile(buf, 1, n_max):
            if row.cl == 0:
                found = row.n
                break
        if found is not None or n_max >= limit:
            break
        n_max = min(n_max * 2, limit)
    if found is None:
        return VerifyOutcome(name, "skipped", f"no cl(n) = 0 for n <= {limit}")
    if found != PAPERFOLDING_FIRST_CL_ZERO:
        return _fail(
            name, f"smallest cl-zero length {found} != pinned {PAPERFOLDING_FIRST_CL_ZERO}"
        )
    return _pass(name, f"cl({found}) = 0")


def check_branching_witness():
    """Thue-Morse: with k one above the measured closed-complexity bound
    (d = 1), every recurrent factor u of length <= 8 has a realized
    extension r u s (|r| = k, |s| = k+d) where some r'us' with r' a proper
    suffix of r and s' a prefix of s is left or right special."""
    name = "branching-witness"
    buf = _buffer("thue-morse", 20)
    rows = complexity.profile(buf, 1, 20)
    k = max(row.cl for row in rows) + 1
    d = 1
    data = buf.source.prefix(4096)
    half = len(data) // 2

    def is_special(w):
        rights = set()
        lefts = set()
        for i in closure.occurrences(w, data):
            if i > 0:
                lefts.add(data[i - 1])
            if i + len(w) < len(data):
                rights.add(data[i + len(w)])
        return len(rights) >= 2 or len(lefts) >= 2

    for n in range(1, 9):
        seen = {}
        for i in range(half, len(data) - n + 1):
            seen[data[i : i + n]] = seen.get(data[i : i + n], 0) + 1
        recurrent = [w for w, c in seen.items() if c >= 2]
        for u in sorted(recurrent):
            j = data.find(u, k)
            witnessed = False
            while j != -1 and j + n + k + d <= len(data):
                r = data[j - k : j]
                s = data[j + n : j + n + k + d]
                for rl in range(k):
                    for sl in range(k + d):
                        if is_special(r[k - rl :] + u + s[:sl]):
                            witnessed = True
                            break
                    if witnessed:
                        break
                if witnessed:
                    break
                j = data.find(u, j + 1)
            if not witnessed:
                return _fail(name, f"factor {buf.decode(u)!r}: no special extension found")
    return _pass(name, f"k={k}, d={d}, recurrent factors up to length 8")


CHECKS = [
    ("closure-oracle-equivalence", check_closure_equivalence),
    ("closure-worked-examples", check_paper_examples),
    ("identity-p-op-cl", check_identity),
    ("morse-hedlund-bound", check_morse_hedlund),
    ("fibonacci-sturmian-complexity", check_fibonacci_sturmian),
    ("fibonacci-two-returns", check_fibonacci_two_returns),
    ("cantor-closed-minimum", check_cantor_minimum),
    ("rauzy-graph-consistency", check_graph_consistency),
    ("rauzy-closed-neighbors", check_closed_neighbors),
    ("rauzy-frontier-distance", check_frontier_distance),
    ("rauzy-closed-path-frontiers", check_closed_path_frontiers),
    ("right-special-exists", check_right_special_exists),
    ("periodic-collapse", check_periodic_collapse),
    ("rotation-power-closure", check_rotation_power_construction),
    ("unique-return-periodicity", check_unique_return_periodicity),
    ("tm-open-threshold", check_open_threshold),
    ("tm-closed-syndetic-threshold", check_syndetic_threshold),
    ("paperfolding-closed-zero", check_paperfolding_zero),
    ("branching-witness", check_branching_witness),
]


def run_verify_suite(only=None, classify_impl=None) -> list:
    """Run the registered checks (all, or the named subset) and return
    their outcomes in registration order."""
    if only is not None:
        unknown = set(only) - {name for name, _ in CHECKS}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
    outcomes = []
    for name, fn in CHECKS:
        if only is not None and name not in only:
            continue
        if fn is check_closure_equivalence:
            outcomes.append(fn(classify_impl=classify_impl))
        else:
            outcomes.append(fn())
    return outcomes
