import random

import pytest
from hypothesis import given, settings

from clawmatch import (
    CapExceeded,
    EdgeSubset,
    Multigraph,
    StructureViolation,
    cycle_basis,
    enumerate_cycle_space,
    random_base,
)
from bruteforce import (
    brute_even_subsets,
    decomposes_into_cycles,
    is_even_subgraph,
    reference_cycle_basis,
)
from corpus import K4, LOOP1, PATH3, PETERSEN, PRISM, TRIPLE_BOND, base_corpus, multigraphs


def members_as_sets(h, cap=1 << 20):
    return {m.members for m in enumerate_cycle_space(h, cap)}


def test_dimension_examples():
    assert cycle_basis(TRIPLE_BOND).dimension == 2
    assert cycle_basis(K4).dimension == 3
    assert cycle_basis(PATH3).dimension == 0
    assert cycle_basis(LOOP1).dimension == 1


def test_dimension_is_checked_against_the_cut_pass_component_count():
    # the basis comes from a BFS forest and the component count from the graph's DFS
    # cut pass; a wrong count planted where that pass keeps it must be caught
    h = Multigraph(K4.n, K4.edges)
    vars(h)["_cuts"] = (2, ())
    with pytest.raises(StructureViolation, match="^cycle basis has 3 elements, dimension is 4$"):
        cycle_basis(h)


def test_dimension_of_cubic_bases():
    for name, h in base_corpus():
        k = h.n
        assert cycle_basis(h).dimension == k // 2 + 1, name


def test_dimension_counts_components():
    g = Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    assert cycle_basis(g).dimension == 6 - 6 + 2


def test_basis_elements_are_even_and_independent():
    for name, h in base_corpus():
        cb = cycle_basis(h)
        masks = []
        for b in cb.basis:
            assert b == tuple(sorted(set(b))), name
            assert is_even_subgraph(h, EdgeSubset.of(h, b)), name
            masks.append(sum(1 << e for e in b))
        # GF(2) elimination: all basis vectors must be independent
        pivots = {}
        for m in masks:
            while m:
                low = m & -m
                if low not in pivots:
                    pivots[low] = m
                    break
                m ^= pivots[low]
            assert m != 0, name


def test_loop_is_its_own_basis_element():
    cb = cycle_basis(LOOP1)
    assert cb.basis == ((0,),)
    assert members_as_sets(LOOP1) == {frozenset(), frozenset({0})}


def test_triple_bond_enumeration():
    expected = brute_even_subsets(TRIPLE_BOND)
    assert expected == {frozenset(), frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}
    assert members_as_sets(TRIPLE_BOND) == expected


def test_k4_enumeration_is_triangles_and_squares():
    members = members_as_sets(K4)
    assert members == brute_even_subsets(K4)
    by_size = sorted(len(m) for m in members)
    assert by_size == [0, 3, 3, 3, 3, 4, 4, 4]


def test_member_count_is_power_of_dimension():
    for name, h in base_corpus():
        cb = cycle_basis(h)
        got = enumerate_cycle_space(h, 1 << 20)
        assert len(got) == 1 << cb.dimension, name
        assert len({m.members for m in got}) == len(got), name


def test_enumeration_matches_brute_filter():
    for name, h in base_corpus():
        if h.m > 16:
            continue
        assert members_as_sets(h) == brute_even_subsets(h), name


def test_enumeration_is_gray_ordered():
    for h in (TRIPLE_BOND, K4, PRISM):
        cb = cycle_basis(h)
        basis_sets = {frozenset(b) for b in cb.basis}
        got = enumerate_cycle_space(h, 1 << 20)
        assert got[0].members == frozenset()
        for prev, cur in zip(got, got[1:]):
            assert prev.members ^ cur.members in basis_sets


def test_closure_under_symmetric_difference():
    rng = random.Random(3)
    for h in (TRIPLE_BOND, K4, PRISM, PETERSEN):
        members = enumerate_cycle_space(h, 1 << 20)
        pool = {m.members for m in members}
        for _ in range(50):
            a, b = rng.choice(members), rng.choice(members)
            assert a.members ^ b.members in pool


def test_members_decompose_into_cycles():
    for h in (TRIPLE_BOND, K4, PRISM, LOOP1):
        for m in enumerate_cycle_space(h, 1 << 20):
            assert decomposes_into_cycles(h, m.members)


def test_is_even_subgraph_examples():
    assert is_even_subgraph(K4, EdgeSubset.of(K4, frozenset()))
    triangle = frozenset({K4.edge_between(0, 1), K4.edge_between(1, 2), K4.edge_between(0, 2)})
    assert is_even_subgraph(K4, EdgeSubset.of(K4, triangle))
    assert not is_even_subgraph(K4, EdgeSubset.of(K4, frozenset({0})))
    with pytest.raises(ValueError):
        is_even_subgraph(K4, EdgeSubset.of(PRISM, frozenset()))


def test_cap_guard():
    with pytest.raises(CapExceeded) as exc:
        enumerate_cycle_space(K4, 4)
    assert exc.value.required == 8
    assert len(enumerate_cycle_space(K4, 8)) == 8


@settings(max_examples=400, deadline=None, derandomize=True)
@given(multigraphs(max_n=12, max_m=24))
def test_cycle_basis_matches_its_reference(h):
    # the same members in the same order, so `cycle-space` output and certificates keep their bytes
    assert cycle_basis(h) == reference_cycle_basis(h)


def test_cycle_basis_matches_its_reference_on_a_large_base():
    h = random_base(2000, seed=5)
    cb = cycle_basis(h)
    assert cb == reference_cycle_basis(h)
    assert cb.dimension == h.m - h.n + 1
