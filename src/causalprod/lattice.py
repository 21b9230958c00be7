"""Two-row lattice paths and the partial orders they induce on index arrays.

A path of s vertices is a binary word b_1..b_s (1 = upper vertex, 0 = lower
vertex) with no two consecutive lower vertices.  Each vertex i stands for an
index pair p_{i,1} < p_{i,2}; consecutive vertices share exactly one index,
and which one is shared is dictated by the edge type:

    (0,1):  p_{i,1} = p_{i+1,1} < p_{i,2} < p_{i+1,2}
    (1,1):  p_{i,1} < p_{i,2} = p_{i+1,1} < p_{i+1,2}
    (1,0):  p_{i,1} < p_{i+1,1} < p_{i,2} = p_{i+1,2}

Chaining the s-1 equalities leaves s+1 distinct index classes, the
*essential coordinates*, carrying the strict relations above.  Linear
extensions of that partial order are decorated by a rank pair: the number of
classes below the first vertex's non-shared coordinate and the number above
the last vertex's non-shared coordinate.  Total preorders in which some
incomparable classes tie in pairs are the *degenerate orderings*; they are
enumerated separately because their continuum contribution vanishes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import fibonacci

Label = tuple[int, int]

MAX_PATH_VERTICES = 20


@dataclass(frozen=True)
class LatticePath:
    """Binary word of vertex heights; 1 = upper, 0 = lower, no '00' factor."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 1:
            raise ValueError("a path needs at least one vertex")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"vertex heights must be 0 or 1, got {self.bits}")
        for i in range(len(self.bits) - 1):
            if self.bits[i] == 0 and self.bits[i + 1] == 0:
                raise ValueError(f"adjacent lower vertices at {i} in {self.bits}")

    @property
    def s(self) -> int:
        return len(self.bits)

    @property
    def upper_count(self) -> int:
        """Number of upper vertices; at least (s - 1) / 2 since lower vertices never touch."""
        return sum(self.bits)

    def inverted(self) -> "LatticePath":
        """Left-right reversal (i, b_i) -> (i, b_{s+1-i})."""
        return LatticePath(tuple(reversed(self.bits)))


@dataclass(frozen=True)
class EssentialOrder:
    """Partial order on the s+1 essential coordinate classes of a path.

    Labels are canonical class representatives (column, slot) with slot 1 the
    smaller member of a vertex pair.  ``less`` holds the generating strict
    relations; ``first``/``last`` are the non-shared coordinates of the first
    and last column (the row and column index of the path's weight).
    """

    labels: tuple[Label, ...]
    less: frozenset[tuple[Label, Label]]
    first: Label
    last: Label

    def predecessors(self) -> dict[Label, set[Label]]:
        preds: dict[Label, set[Label]] = {lab: set() for lab in self.labels}
        for lo, hi in self.less:
            preds[hi].add(lo)
        return preds


@dataclass(frozen=True)
class LinearExtension:
    """A strict total order refining an EssentialOrder, with its rank."""

    order: tuple[Label, ...]
    rank: tuple[int, int]
    forward: bool


@dataclass(frozen=True)
class DegenerateOrdering:
    """Total preorder refining an EssentialOrder with >= 1 two-element tie."""

    levels: tuple[tuple[Label, ...], ...]

    @property
    def degree(self) -> int:
        return sum(1 for level in self.levels if len(level) == 2)


def enumerate_paths(s: int) -> list[LatticePath]:
    """All paths with s vertices, lexicographically ordered; count is Fib(s+2)."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    if s > MAX_PATH_VERTICES:
        raise ValueError(f"s={s} exceeds enumeration cap {MAX_PATH_VERTICES}")
    words: list[tuple[int, ...]] = [(0,), (1,)]
    for _ in range(s - 1):
        words = [w + (b,) for w in words for b in (0, 1) if not (w[-1] == 0 and b == 0)]
    paths = [LatticePath(w) for w in sorted(words)]
    assert len(paths) == fibonacci(s + 2)
    return paths


def essential_order(path: LatticePath) -> EssentialOrder:
    s = path.s
    bits = path.bits
    parent: dict[Label, Label] = {(i, slot): (i, slot) for i in range(1, s + 1) for slot in (1, 2)}

    def find(x: Label) -> Label:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: Label, y: Label) -> None:
        parent[find(x)] = find(y)

    for i in range(1, s):
        edge = (bits[i - 1], bits[i])
        if edge == (0, 1):
            union((i, 1), (i + 1, 1))
        elif edge == (1, 1):
            union((i, 2), (i + 1, 1))
        else:  # (1, 0); (0, 0) excluded by the path invariant
            union((i, 2), (i + 1, 2))

    members: dict[Label, list[Label]] = {}
    for coord in parent:
        members.setdefault(find(coord), []).append(coord)
    canon = {root: min(group) for root, group in members.items()}
    rep = {coord: canon[find(coord)] for coord in parent}

    relations: set[tuple[Label, Label]] = set()
    for i in range(1, s + 1):
        relations.add((rep[(i, 1)], rep[(i, 2)]))
    for i in range(1, s):
        edge = (bits[i - 1], bits[i])
        if edge == (0, 1):
            relations.add((rep[(i, 2)], rep[(i + 1, 2)]))
        elif edge == (1, 0):
            relations.add((rep[(i, 1)], rep[(i + 1, 1)]))

    labels = tuple(sorted(set(rep.values())))
    assert len(labels) == s + 1, "merging must leave exactly s+1 classes"
    first = rep[(1, 2 - bits[0])]
    last = rep[(s, 1 + bits[-1])]
    return EssentialOrder(labels=labels, less=frozenset(relations), first=first, last=last)


def _extension_from_sequence(seq: tuple[Label, ...], order: EssentialOrder) -> LinearExtension:
    pos = {lab: i for i, lab in enumerate(seq)}
    r = pos[order.first]
    r_prime = len(seq) - 1 - pos[order.last]
    return LinearExtension(order=seq, rank=(r, r_prime), forward=pos[order.first] < pos[order.last])


def enumerate_linear_extensions(order: EssentialOrder) -> list[LinearExtension]:
    """All strict total orders refining the partial order, lexicographically.

    Plain backtracking over available elements (all predecessors placed); no
    symmetry shortcuts, so this stays trustworthy as the counting oracle.
    """
    preds = order.predecessors()
    labels = order.labels
    out: list[LinearExtension] = []
    chosen: list[Label] = []
    placed: set[Label] = set()

    def rec() -> None:
        if len(chosen) == len(labels):
            out.append(_extension_from_sequence(tuple(chosen), order))
            return
        for lab in labels:
            if lab not in placed and preds[lab] <= placed:
                placed.add(lab)
                chosen.append(lab)
                rec()
                chosen.pop()
                placed.remove(lab)

    rec()
    return out


def enumerate_degenerate_orderings(order: EssentialOrder) -> list[DegenerateOrdering]:
    """All total preorders refining the order with tie classes of size exactly 2.

    A tie level may merge two elements that are simultaneously available,
    which is equivalent to them being incomparable.  At least one tie is
    required; tie-free refinements are the linear extensions.
    """
    preds = order.predecessors()
    labels = order.labels
    out: list[DegenerateOrdering] = []
    levels: list[tuple[Label, ...]] = []
    placed: set[Label] = set()

    def rec(ties: int) -> None:
        if len(placed) == len(labels):
            if ties > 0:
                out.append(DegenerateOrdering(levels=tuple(levels)))
            return
        avail = [lab for lab in labels if lab not in placed and preds[lab] <= placed]
        for i, a in enumerate(avail):
            levels.append((a,))
            placed.add(a)
            rec(ties)
            placed.remove(a)
            levels.pop()
            for b in avail[i + 1:]:
                levels.append((a, b))
                placed.update((a, b))
                rec(ties + 1)
                placed.difference_update((a, b))
                levels.pop()

    rec(0)
    out.sort(key=lambda d: d.levels)
    return out
