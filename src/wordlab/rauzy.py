"""Rauzy graphs of order n, special factors, and the structural checks
on closed factors (unique closed neighbors, frontier-length distances).

Checks run on realized overlaps, i.e. windows of the actual prefix, not
abstract graph paths: a path in the graph need not be realized as a
factor, while every claim below is assertable on windows. They read each
window's frontier from a complexity.FactorIndex of the buffer.
"""

from dataclasses import dataclass

from wordlab import closure
from wordlab.complexity import check_length, factors_of_length


@dataclass(frozen=True)
class RauzyGraph:
    order: int
    vertices: tuple  # length-n factors, lexicographic
    edges: tuple  # (source, target, label) with label the (n+1)-factor

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SpecialReport:
    order: int
    left_specials: tuple
    right_specials: tuple


@dataclass(frozen=True)
class Violation:
    check: str
    word: bytes
    detail: str


def rauzy_graph(buf, n: int, force: bool = False) -> RauzyGraph:
    """Vertices are the length-n factors, edges the length-(n+1) factors;
    the edge labelled w runs from its length-n prefix to its suffix."""
    vertices = tuple(factors_of_length(buf, n, force))
    labels = factors_of_length(buf, n + 1, force)
    edges = tuple((w[:n], w[1:], w) for w in labels)
    return RauzyGraph(order=n, vertices=vertices, edges=edges)


def special_factors(buf, n: int, force: bool = False) -> SpecialReport:
    """w is right special iff wc is a factor for >= 2 distinct letters c;
    left special symmetrically."""
    right = {}
    left = {}
    for w in factors_of_length(buf, n + 1, force):
        right.setdefault(w[:n], set()).add(w[n])
        left.setdefault(w[1:], set()).add(w[0])
    return SpecialReport(
        order=n,
        left_specials=tuple(sorted(w for w, ext in left.items() if len(ext) >= 2)),
        right_specials=tuple(sorted(w for w, ext in right.items() if len(ext) >= 2)),
    )


def closed_extension_violation(core: bytes, letters, side: str):
    """The violation when core has two or more closed extensions on one
    side ("left" for bw, "right" for wc), letters being the distinct
    extending letters; None otherwise."""
    if len(letters) < 2:
        return None
    return Violation(
        check="closed-predecessors" if side == "left" else "closed-successors",
        word=core,
        detail=f"{len(letters)} closed {side} extensions: {sorted(letters)}",
    )


def check_closed_neighbor_uniqueness(index, n: int, force: bool = False) -> list:
    """Every factor of length n-1 has at most one closed left extension
    bw and at most one closed right extension wc among the length-n
    factors of index.buf, read off the FactorIndex index; returns the
    violations (expected none)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    check_length(index.buf, n, force)
    data = index.buf.data
    pred = {}
    succ = {}
    for w in {data[j : j + n] for j, f in enumerate(index.frontiers(n)) if f >= 0}:
        pred.setdefault(w[1:], []).append(w[0])
        succ.setdefault(w[:-1], []).append(w[-1])
    violations = []
    for side, extensions in (("left", pred), ("right", succ)):
        for core, letters in sorted(extensions.items()):
            violation = closed_extension_violation(core, letters, side)
            if violation is not None:
                violations.append(violation)
    return violations


def frontier_distance_violation(f1: int, f2: int, i: int):
    """The detail of the violation when two windows at shift i are both
    closed (frontier lengths f1, f2 >= 0, -1 for open) and ||u1|-|u2|| < i
    fails; None otherwise."""
    if f1 < 0 or f2 < 0 or abs(f1 - f2) < i:
        return None
    return f"frontiers {f1} and {f2} differ by {abs(f1 - f2)} >= {i}"


def check_frontier_distance(index, n: int, i_max: int) -> list:
    """For realized overlapping windows w1 = data[j:j+n] and
    w2 = data[j+i:j+i+n] of index.buf, both closed with frontiers u1, u2:
    ||u1|-|u2|| < i must hold, with equality of lengths when i = 1.
    Returns the violations (expected none), one per distinct (w1, w2, i)."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    data = index.buf.data
    if n + i_max > len(data):
        raise ValueError(
            f"windows of length n+i_max={n + i_max} do not fit in the buffer"
        )
    frontiers = index.frontiers(n)
    closed = [j for j, f in enumerate(frontiers) if f >= 0]
    violations = []
    seen_pairs = set()
    for i in range(1, i_max + 1):
        for j in closed:
            if j + i >= len(frontiers):
                break
            detail = frontier_distance_violation(frontiers[j], frontiers[j + i], i)
            if detail is None:
                continue
            w1 = data[j : j + n]
            w2 = data[j + i : j + i + n]
            if (w1, w2, i) in seen_pairs:
                continue
            seen_pairs.add((w1, w2, i))
            violations.append(
                Violation(
                    check="frontier-distance",
                    word=w1,
                    detail=f"offset {j}, shift {i}: {detail}",
                )
            )
    return violations


def check_closed_path_frontiers(index, n: int, walk_max: int) -> list:
    """Along a window walk j..j+m of index.buf, if the end windows are
    closed then the difference of their frontier lengths is at most the
    number of distinct open windows strictly between them (zero when all
    closed)."""
    data = index.buf.data
    frontiers = index.frontiers(n)
    violations = []
    for j in range(len(data) - n):
        f1 = frontiers[j]
        if f1 < 0:
            continue
        limit = min(walk_max, len(data) - n - j)
        open_between = set()
        for m in range(1, limit + 1):
            f2 = frontiers[j + m]
            if f2 < 0:
                open_between.add(data[j + m : j + m + n])
                continue
            if abs(f1 - f2) > len(open_between):
                violations.append(
                    Violation(
                        check="closed-path-frontiers",
                        word=data[j : j + n],
                        detail=(
                            f"offset {j}, walk {m}: frontier gap {abs(f1 - f2)} "
                            f"exceeds {len(open_between)} distinct open windows"
                        ),
                    )
                )
    return violations


def to_dot(graph: RauzyGraph, buf, specials: SpecialReport = None) -> str:
    """Deterministic DOT rendering: vertices in lexicographic order with
    closed/frontier attributes, edges ordered by label."""
    alphabet = buf.alphabet
    special_mark = {}
    if specials is not None:
        for w in specials.left_specials:
            special_mark[w] = "left"
        for w in specials.right_specials:
            special_mark[w] = "both" if w in special_mark else "right"
    lines = [f'digraph rauzy_{graph.order} {{']
    for v in graph.vertices:
        name = alphabet.decode(v)
        attrs = []
        verdict = closure.classify(v)
        if verdict.closed:
            attrs.append("closed=true")
            attrs.append(f"frontier={verdict.frontier}")
        if v in special_mark:
            attrs.append(f'special="{special_mark[v]}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{name}"{suffix};')
    for src, dst, label in sorted(graph.edges, key=lambda e: e[2]):
        lines.append(
            f'  "{alphabet.decode(src)}" -> "{alphabet.decode(dst)}"'
            f' [label="{alphabet.decode(label)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
