import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprod.combinatorics import fibonacci
from causalprod.lattice import (
    LatticePath,
    enumerate_degenerate_orderings,
    enumerate_linear_extensions,
    enumerate_paths,
    essential_order,
)


def _paths(s):
    return enumerate_paths(s)


@st.composite
def random_path(draw, max_s=9):
    s = draw(st.integers(1, max_s))
    paths = _paths(s)
    return paths[draw(st.integers(0, len(paths) - 1))]


def test_path_validation():
    with pytest.raises(ValueError):
        LatticePath((0, 0))
    with pytest.raises(ValueError):
        LatticePath((1, 2))
    with pytest.raises(ValueError):
        LatticePath(())


def test_enumerate_paths_small():
    assert [p.bits for p in _paths(1)] == [(0,), (1,)]
    assert [p.bits for p in _paths(2)] == [(0, 1), (1, 0), (1, 1)]
    assert len(_paths(5)) == 13


def test_enumerate_paths_census():
    for s in range(1, 13):
        assert len(_paths(s)) == fibonacci(s + 2)


def test_enumerate_paths_cap():
    with pytest.raises(ValueError):
        enumerate_paths(25)
    with pytest.raises(ValueError):
        enumerate_paths(0)


def test_upper_vertex_count():
    assert LatticePath((0, 1, 0)).upper_count == 1
    assert LatticePath((1, 1, 1)).upper_count == 3
    assert LatticePath((1, 0, 1, 0, 1)).upper_count == 3


@given(random_path())
def test_upper_count_lower_bound(path):
    assert 2 * path.upper_count >= path.s - 1


def test_essential_order_worked_example():
    # valley-peak-valley path: classes {p11,p21}, {p12}, {p22,p32}, {p31}
    order = essential_order(LatticePath((0, 1, 0)))
    assert order.labels == ((1, 1), (1, 2), (2, 2), (3, 1))
    assert order.first == (1, 2)
    assert order.last == (3, 1)
    assert order.less == frozenset({
        ((1, 1), (1, 2)),
        ((1, 2), (2, 2)),
        ((1, 1), (2, 2)),
        ((1, 1), (3, 1)),
        ((3, 1), (2, 2)),
    })


def test_essential_order_single_column():
    order = essential_order(LatticePath((1,)))
    assert order.labels == ((1, 1), (1, 2))
    assert (order.first, order.last) == ((1, 1), (1, 2))
    assert order.less == frozenset({((1, 1), (1, 2))})
    # lower single vertex: endpoints swap because the weight reverses ket and bra
    order0 = essential_order(LatticePath((0,)))
    assert (order0.first, order0.last) == ((1, 2), (1, 1))


def test_essential_order_chain():
    order = essential_order(LatticePath((1, 1)))
    assert len(order.labels) == 3
    exts = enumerate_linear_extensions(order)
    assert len(exts) == 1  # a chain has a unique extension


@given(random_path())
def test_essential_class_count(path):
    assert len(essential_order(path).labels) == path.s + 1


def test_linear_extensions_worked_example():
    order = essential_order(LatticePath((0, 1, 0)))
    exts = enumerate_linear_extensions(order)
    assert [e.order for e in exts] == [
        ((1, 1), (1, 2), (3, 1), (2, 2)),
        ((1, 1), (3, 1), (1, 2), (2, 2)),
    ]
    assert [(e.rank, e.forward) for e in exts] == [((1, 1), True), ((2, 2), False)]


def test_linear_extension_single_vertex():
    exts = enumerate_linear_extensions(essential_order(LatticePath((1,))))
    assert len(exts) == 1
    assert exts[0].rank == (0, 0) and exts[0].forward


def test_degenerate_worked_example():
    order = essential_order(LatticePath((0, 1, 0)))
    degs = enumerate_degenerate_orderings(order)
    assert len(degs) == 1
    assert degs[0].levels == (((1, 1),), ((1, 2), (3, 1)), ((2, 2),))
    assert degs[0].degree == 1


def test_degenerate_none_for_chains():
    assert enumerate_degenerate_orderings(essential_order(LatticePath((1,)))) == []
    # zigzag starting and ending upper is a chain order as well
    assert enumerate_degenerate_orderings(essential_order(LatticePath((1, 0, 1)))) == []


@given(random_path(max_s=8))
def test_degenerations_happen_in_pairs(path):
    order = essential_order(path)
    for deg in enumerate_degenerate_orderings(order):
        assert all(len(level) <= 2 for level in deg.levels)
        assert 1 <= deg.degree <= (path.s - 1) / 2


def _refining_preorders_bruteforce(order):
    """Count ordered set partitions with blocks of size <= 2 refining the order.

    Independent of the backtracking enumerators: build all unordered
    partitions into singletons and pairs, permute the blocks, filter.
    """
    parts = []

    def partitions(remaining, acc):
        if not remaining:
            parts.append(list(acc))
            return
        rest = sorted(remaining)
        a = rest[0]
        for block in [(a,)] + [(a, b) for b in rest[1:]]:
            partitions(remaining - set(block), acc + [tuple(sorted(block))])

    partitions(set(order.labels), [])
    count = 0
    for part in parts:
        for perm in itertools.permutations(part):
            pos = {lab: i for i, block in enumerate(perm) for lab in block}
            if all(pos[lo] < pos[hi] for lo, hi in order.less):
                count += 1
    return count


@given(random_path(max_s=5))
@settings(max_examples=40, deadline=None)
def test_partition_of_refinements(path):
    order = essential_order(path)
    exts = enumerate_linear_extensions(order)
    degs = enumerate_degenerate_orderings(order)
    assert len(exts) + len(degs) == _refining_preorders_bruteforce(order)


@given(random_path(max_s=9))
@settings(max_examples=60, deadline=None)
def test_endpoint_rank_law(path):
    """First vertex upper forces r == 0, lower forces r > 0; dually at the end."""
    exts = enumerate_linear_extensions(essential_order(path))
    for ext in exts:
        r, r_prime = ext.rank
        assert (r == 0) == (path.bits[0] == 1)
        assert (r_prime == 0) == (path.bits[-1] == 1)


def test_endpoint_rank_law_full_range():
    for s in range(1, 13):
        for path in _paths(s):
            for ext in enumerate_linear_extensions(essential_order(path)):
                r, r_prime = ext.rank
                assert (r == 0) == (path.bits[0] == 1)
                assert (r_prime == 0) == (path.bits[-1] == 1)
                assert r + r_prime != path.s


def test_inversion_swaps_rank_components():
    for s in range(1, 9):
        for path in _paths(s):
            inv = path.inverted()
            assert inv.upper_count == path.upper_count
            ranks = sorted(e.rank for e in enumerate_linear_extensions(essential_order(path)))
            swapped = sorted(
                (e.rank[1], e.rank[0])
                for e in enumerate_linear_extensions(essential_order(inv))
            )
            assert ranks == swapped


def test_reversed_extensions_only_on_alternating_paths():
    """Only the zigzag starting and ending lower admits reversed extensions."""
    for s in range(1, 10):
        wedge = tuple(i % 2 for i in range(s))  # 0, 1, 0, 1, ...
        for path in _paths(s):
            has_reversed = any(
                not e.forward
                for e in enumerate_linear_extensions(essential_order(path))
            )
            is_wedge = path.bits == wedge and s % 2 == 1
            assert has_reversed == is_wedge
