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
    """The s+1 index classes of a path and their generating relations, in one pass.

    Each vertex keeps its (smaller, larger) class pair.  Along an edge one
    class carries over and the other is opened, labelled by the coordinate
    (column, slot) that opens it; that coordinate is the class's smallest member.
    """
    bits = path.bits
    pairs = [((1, 1), (1, 2))]
    less = {pairs[0]}
    for i in range(1, path.s):
        lo, hi = pairs[-1]
        edge = bits[i - 1:i + 1]
        if edge == (0, 1):  # the smaller class is shared
            new = (i + 1, 2)
            less.add((hi, new))
            pairs.append((lo, new))
        elif edge == (1, 1):  # the larger class becomes the smaller one
            new = (i + 1, 2)
            pairs.append((hi, new))
        else:  # (1, 0): the larger class is shared; (0, 0) excluded by the path invariant
            new = (i + 1, 1)
            less.add((lo, new))
            pairs.append((new, hi))
        less.add(pairs[-1])
    labels = tuple(sorted({lab for pair in pairs for lab in pair}))
    return EssentialOrder(labels=labels, less=frozenset(less),
                          first=pairs[0][1 - bits[0]], last=pairs[-1][bits[-1]])


def _extension_from_sequence(seq: tuple[Label, ...], order: EssentialOrder) -> LinearExtension:
    r, last = seq.index(order.first), seq.index(order.last)
    return LinearExtension(order=seq, rank=(r, len(seq) - 1 - last), forward=r < last)


def _refinements(order: EssentialOrder, ties: bool) -> list[tuple]:
    """Total preorders refining the order, in lexicographic order of their classes.

    Each step places one available class (all predecessors placed) or, with ``ties``,
    two available together, i.e. incomparable.  With ``ties`` a refinement is its
    sequence of level tuples, else the sequence of its classes.  Plain backtracking
    with no symmetry shortcuts, so it stays trustworthy as the counting oracle; the
    placed classes are a bitmask over ``order.labels``.
    """
    labels = order.labels
    index = {a: i for i, a in enumerate(labels)}
    needs = [0] * len(labels)
    for lo, hi in order.less:
        needs[index[hi]] |= 1 << index[lo]
    # class a is available when placed & (its bit | need) == need: a unplaced, its predecessors placed
    spec = [(1 << i | need, need, 1 << i, a) for i, (need, a) in enumerate(zip(needs, labels))]
    done = (1 << len(labels)) - 1
    out: list[tuple] = []

    def rec(placed: int, prefix: tuple) -> None:
        if placed == done:
            out.append(prefix)
            return
        for i, (mask, need, bit, a) in enumerate(spec):
            if placed & mask == need:
                rec(placed | bit, prefix + ((a,) if ties else a,))
                # a later class b available alongside a is incomparable to it
                for mask_b, need_b, bit_b, b in spec[i + 1:] if ties else ():
                    if placed & mask_b == need_b:
                        rec(placed | bit | bit_b, prefix + ((a, b),))

    rec(0, ())
    return out


def enumerate_linear_extensions(order: EssentialOrder) -> list[LinearExtension]:
    """All strict total orders refining the partial order, lexicographically."""
    return [_extension_from_sequence(seq, order) for seq in _refinements(order, ties=False)]


def enumerate_degenerate_orderings(order: EssentialOrder) -> list[DegenerateOrdering]:
    """All total preorders refining the order with tie classes of size exactly 2.

    At least one tie is required; tie-free refinements are the linear extensions.
    """
    tied = (DegenerateOrdering(levels=levels) for levels in _refinements(order, ties=True))
    return [d for d in tied if d.degree]
