"""Rauzy graphs of order n, special factors, and the structural checks
on closed factors (unique closed neighbors, frontier-length distances).

The checks run on factors, not abstract graph paths: a path in the graph
need not be realized as a factor. Two windows at shift i, or a walk of m
steps, are the ends or the windows of one factor that spans them, so each
check is handed those spanning factors (L_{n+i}, L_{n+m}, read from a
prefix proven to that length) and a lookup from each closed word to its
frontier length, in which a missing word is open.
"""

from dataclasses import dataclass

from wordlab import closure
from wordlab.complexity import factors_of_length


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


def check_closed_neighbor_uniqueness(words, closed) -> list:
    """Every factor of length n-1 has at most one closed left extension
    bw and at most one closed right extension wc among words, the
    length-n factors L_n, closed mapping each closed word to its frontier
    length; returns the violations (expected none)."""
    pred = {}
    succ = {}
    for w in words:
        if len(w) < 2:
            raise ValueError("needs n >= 2")
        if w in closed:
            pred.setdefault(w[1:], []).append(w[0])
            succ.setdefault(w[:-1], []).append(w[-1])
    violations = []
    for side, extensions in (("left", pred), ("right", succ)):
        for core, letters in sorted(extensions.items()):
            violation = closed_extension_violation(core, letters, side)
            if violation is not None:
                violations.append(violation)
    return violations


def check_frontier_distance(spans, closed, n_max: int, i_max: int) -> list:
    """For each span u and shift i <= i_max with n = |u| - i in 1..n_max,
    if the windows u[:n] and u[i:] are both closed, with frontiers u1, u2
    read from closed, then ||u1|-|u2|| < i must hold (equality of lengths
    when i = 1). Returns the violations (expected none), each naming u.

    Two windows of a word at shift i are the ends of the factor of length
    n + i that spans them, so spans L_{n+i} meet every such pair."""
    violations = []
    for u in spans:
        for i in range(1, i_max + 1):
            n = len(u) - i
            if not 1 <= n <= n_max:
                continue
            f1 = closed.get(u[:n])
            if f1 is None:
                continue
            f2 = closed.get(u[i:])
            if f2 is None or abs(f1 - f2) < i:
                continue
            violations.append(
                Violation(
                    check="frontier-distance",
                    word=u,
                    detail=f"n={n}: shift {i}: frontiers {f1} and {f2} differ by "
                    f"{abs(f1 - f2)} >= {i}",
                )
            )
    return violations


def check_closed_path_frontiers(spans, closed, n: int) -> list:
    """Walk the length-n windows of each span u from its first: if the
    first window and the one m steps on are closed, the difference of
    their frontier lengths is at most the number of distinct open windows
    strictly between them (zero when all closed). Returns the violations
    (expected none), each naming the walked factor u[:n+m].

    A walk of m steps is one factor of length n + m, so spans L_{n+m_max}
    meet every walk of at most m_max steps."""
    violations = []
    for u in spans:
        f1 = closed.get(u[:n])
        if f1 is None:
            continue
        open_between = set()
        for m in range(1, len(u) - n + 1):
            w2 = u[m : m + n]
            f2 = closed.get(w2)
            if f2 is None:
                open_between.add(w2)
            elif abs(f1 - f2) > len(open_between):
                violations.append(
                    Violation(
                        check="closed-path-frontiers",
                        word=u[: n + m],
                        detail=(
                            f"n={n}: walk {m}: frontier gap {abs(f1 - f2)} "
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
