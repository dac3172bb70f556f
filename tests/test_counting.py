import time
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawmatch import (
    CapExceeded,
    Multigraph,
    NoTwoFactor,
    StructureViolation,
    build,
    count_perfect_matchings,
    enumerate_perfect_matchings,
    enumerate_two_factors,
    is_cubic,
    is_three_edge_connected,
    max_length_two_factor,
    random_base,
    ring_of_diamonds,
)
from clawmatch import counting
from clawmatch.graphs import _mask
from bruteforce import (
    brute_perfect_matchings,
    brute_two_factors,
    is_perfect_matching,
    is_two_factor,
    recursive_iter_two_factors,
    reference_iter_perfect_matchings,
    reference_iter_two_factors,
    reference_max_length_two_factor,
)
from corpus import (
    K4,
    LOOP1,
    PETERSEN,
    PRISM,
    TRIANGLE,
    TRIPLE_BOND,
    base_corpus,
    certify_corpus,
    cubic_corpus_small,
    cubic_multigraphs,
    cubic_pairings,
    multigraphs,
)


def test_count_k4():
    assert count_perfect_matchings(K4) == 3


def test_count_rings():
    for d, expected in ((2, 5), (3, 9), (4, 17)):
        assert count_perfect_matchings(ring_of_diamonds(d)) == 2**d + 1 == expected


def test_count_prism():
    assert count_perfect_matchings(PRISM) == 4
    assert len(brute_perfect_matchings(PRISM)) == 4


def test_count_matches_brute_filter_on_small_graphs():
    for g in (K4, PRISM, TRIPLE_BOND, TRIANGLE, PETERSEN):
        assert count_perfect_matchings(g) == len(brute_perfect_matchings(g))


def test_odd_order_gives_zero():
    assert count_perfect_matchings(TRIANGLE) == 0
    assert enumerate_perfect_matchings(TRIANGLE, 10) == []


def test_loops_never_matched():
    assert count_perfect_matchings(LOOP1) == 0
    g = Multigraph(2, ((0, 0), (1, 1), (0, 1)))
    assert count_perfect_matchings(g) == 1


def test_parallel_edges_count_separately():
    ms = enumerate_perfect_matchings(TRIPLE_BOND, 10)
    assert [m.members for m in ms] == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_enumerate_matches_count_and_is_deterministic():
    for name, g in cubic_corpus_small():
        ms = enumerate_perfect_matchings(g, 1 << 20)
        assert len(ms) == count_perfect_matchings(g), name
        assert len({m.members for m in ms}) == len(ms), name
        assert all(is_perfect_matching(g, m.members) for m in ms), name
        again = enumerate_perfect_matchings(g, 1 << 20)
        assert [m.members for m in ms] == [m.members for m in again], name


def test_enumerate_cap():
    with pytest.raises(CapExceeded) as exc:
        enumerate_perfect_matchings(K4, 2)
    assert exc.value.required == 3
    with pytest.raises(CapExceeded):
        enumerate_two_factors(K4, 2)


def test_enumerations_stop_at_the_cap():
    g = ring_of_diamonds(22)  # 2^22 + 1 matchings and 2-factors
    for enumerate_sets in (enumerate_perfect_matchings, enumerate_two_factors):
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            enumerate_sets(g, 10)
        assert time.perf_counter() - start < 1.0, enumerate_sets.__name__
        assert (exc.value.required, exc.value.cap) == (11, 10)


def test_two_factor_counts():
    assert len(enumerate_two_factors(K4, 8)) == 3 == len(brute_two_factors(K4))
    assert len(enumerate_two_factors(PRISM, 8)) == 4 == len(brute_two_factors(PRISM))
    # hosts that are not cubic: only the reference search counts their 2-factors
    assert list(recursive_iter_two_factors(TRIANGLE)) == [frozenset({0, 1, 2})]
    assert list(recursive_iter_two_factors(LOOP1)) == [frozenset({0})]  # a loop counts 2
    assert brute_two_factors(TRIANGLE) == {frozenset({0, 1, 2})}
    assert brute_two_factors(LOOP1) == {frozenset({0})}


def _two_factor_masks(g: Multigraph) -> list[int]:
    """The reference search's 2-factors as masks, in its order."""
    return list(map(_mask, recursive_iter_two_factors(g)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(cubic_multigraphs(), cubic_pairings()))
def test_two_factors_match_the_reference_search_on_cubic_multigraphs(g):
    # loops, parallel edges, bridges, several components and n = 0 included
    expected = _two_factor_masks(g)
    assert len(set(expected)) == len(expected)
    assert {f.mask for f in enumerate_two_factors(g, 1 << 20)} == set(expected)
    assert count_perfect_matchings(g) == len(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(multigraphs().filter(lambda g: not is_cubic(g)))
def test_two_factors_refuse_a_host_that_is_not_cubic(g):
    with pytest.raises(ValueError):
        enumerate_two_factors(g, 1 << 20)


def test_two_factor_enumeration_validates():
    for name, g in cubic_corpus_small():
        fs = enumerate_two_factors(g, 1 << 20)
        assert all(is_two_factor(g, f.members) for f in fs), name
        assert len(fs) == count_perfect_matchings(g), name


def test_cubic_two_factors_equal_matchings():
    for name, g in cubic_corpus_small():
        factors = len(enumerate_two_factors(g, 1 << 20))
        assert factors == len(_two_factor_masks(g)) == count_perfect_matchings(g), name


def test_complement_is_a_bijection_on_cubic_graphs():
    for name, g in cubic_corpus_small():
        if g.m > 24:
            continue
        factors = set(recursive_iter_two_factors(g))
        matchings = {m.members for m in enumerate_perfect_matchings(g, 1 << 20)}
        all_edges = frozenset(range(g.m))
        assert {all_edges - f for f in factors} == matchings, name
        assert {all_edges - m for m in matchings} == factors, name


def test_petersen_sanity():
    # 2-edge-connected cubic, so a perfect matching exists; the oracle says 6
    assert count_perfect_matchings(PETERSEN) == 6


def test_prism_counts_agree():
    assert count_perfect_matchings(PRISM) == len(_two_factor_masks(PRISM)) == 4
    assert len(enumerate_two_factors(PRISM, 8)) == 4


def test_max_length_two_factor_triple_bond():
    # the three 2-factors are the edge pairs; (1,0,0) favors those with e0
    f = max_length_two_factor(TRIPLE_BOND, {0: 1, 1: 0, 2: 0})
    assert f.sorted_tuple() == (0, 1)  # lexicographic tie-break between {0,1} and {0,2}
    assert sum({0: 1}.get(e, 0) for e in f.members) >= 1


def test_max_length_two_factor_zero_lengths():
    f = max_length_two_factor(PRISM, {e: 0 for e in range(PRISM.m)})
    assert is_two_factor(PRISM, f.members)


def test_max_length_two_factor_k4():
    lengths = {0: 3, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    f = max_length_two_factor(K4, lengths)
    assert 0 in f.members
    assert sum(lengths.get(e, 0) for e in f.members) == 3


def test_max_length_two_factor_requires_cubic():
    with pytest.raises(ValueError):
        max_length_two_factor(TRIANGLE, {0: 0, 1: 0, 2: 0})


def _cubic_without_perfect_matching() -> Multigraph:
    # a hub joined to three odd gadgets: every gadget needs its hub edge,
    # but the hub can serve only one of them
    edges = []
    for i in range(3):
        a, b, c, d, e = range(5 * i, 5 * i + 5)
        edges += [(a, b), (a, c), (a, d), (b, c), (b, d), (c, e), (d, e)]
        edges.append((e, 15))
    return Multigraph(16, tuple(edges))


def test_max_length_two_factor_no_factor():
    g = _cubic_without_perfect_matching()
    assert count_perfect_matchings(g) == 0
    with pytest.raises(NoTwoFactor):
        max_length_two_factor(g, {e: 0 for e in range(g.m)})


def assert_longest_factor_matches_reference(h: Multigraph, lengths: dict[int, int]) -> None:
    assert (
        max_length_two_factor(h, lengths).members
        == reference_max_length_two_factor(h, lengths).members
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_max_length_two_factor_matches_the_reference_tie_break(data):
    # parallel edges included; the all-zero lengths test the tie-break alone
    k = data.draw(st.sampled_from(range(2, 15, 2)), label="k")
    h = random_base(k, data.draw(st.integers(0, 10**6), label="seed"))
    drawn = data.draw(st.lists(st.integers(0, 3), min_size=h.m, max_size=h.m), label="lengths")
    for lengths in (drawn, [0] * h.m):
        assert_longest_factor_matches_reference(h, dict(enumerate(lengths)))


def test_max_length_two_factor_matches_the_reference_on_triple_bond():
    for lengths in product(range(4), repeat=3):
        assert_longest_factor_matches_reference(TRIPLE_BOND, dict(enumerate(lengths)))


def test_broken_invariants_raise_structure_violation(monkeypatch):
    # checks that must survive python -O: plain raises, not asserts;
    # the only matching offered, edge 0 as a mask, leaves every long edge outside the 2-factor
    monkeypatch.setattr(counting, "_iter_perfect_matchings", lambda h: iter([1 << 0]))
    with pytest.raises(StructureViolation):
        max_length_two_factor(TRIPLE_BOND, {0: 3, 1: 0, 2: 0})
    # the bound rounds up: length 2 of a total 4 is below ceil(8 / 3) = 3, though not below 8 // 3
    with pytest.raises(StructureViolation) as exc:
        max_length_two_factor(TRIPLE_BOND, {0: 2, 1: 2, 2: 0})
    assert str(exc.value) == "longest 2-factor has length 2, below 2/3 of the total 4"


def assert_reference_order(g: Multigraph) -> None:
    # the search yields edge masks, the references frozensets of edge ids
    matchings = list(counting._iter_perfect_matchings(g))
    assert matchings == list(map(_mask, reference_iter_perfect_matchings(g)))
    # the two 2-factor references: the edge-order search reaches the same factors
    # as the vertex-order one, in another order
    assert Counter(_two_factor_masks(g)) == Counter(map(_mask, reference_iter_two_factors(g)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_oracle_yields_the_reference_sequence_on_random_multigraphs(data):
    # loops, parallel edges, odd n and n = 0 included
    n = data.draw(st.integers(0, 8), label="n")
    ends = st.integers(0, max(n - 1, 0))
    edges = data.draw(st.lists(st.tuples(ends, ends), max_size=14 if n else 0), label="edges")
    assert_reference_order(Multigraph(n, tuple(edges)))


def test_oracle_yields_the_reference_sequence_on_the_corpus():
    for name, g in cubic_corpus_small() + base_corpus() + certify_corpus():
        assert_reference_order(g)


@pytest.mark.parametrize("k", (12, 16))
def test_oracle_yields_the_reference_sequence_on_bench_sized_hosts(k):
    # 3-edge-connected diamond-free hosts of n = 36 and 48, like the oracle-check workload's
    bases = (random_base(k, seed) for seed in range(100))
    bases = list(islice(filter(is_three_edge_connected, bases), 3))
    assert len(bases) == 3
    for base in bases:
        g, _ = build(base, [0] * base.m)
        found = list(counting._iter_perfect_matchings(g))
        assert found == list(map(_mask, reference_iter_perfect_matchings(g)))
        # the 3EC remark: exactly 2^(n/6+1) perfect matchings
        assert len(found) == 1 << (g.n // 6 + 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_max_length_two_factor_ties_go_to_the_smallest_tuple(data):
    k = data.draw(st.sampled_from((2, 4, 6, 8)), label="k")
    h = random_base(k, seed=data.draw(st.integers(0, 1 << 16), label="seed"))
    lengths = {e: data.draw(st.integers(0, 2), label=f"length {e}") for e in range(h.m)}
    all_edges = frozenset(range(h.m))
    factors = [all_edges - m for m in reference_iter_perfect_matchings(h)]
    best = min(factors, key=lambda f: (-sum(lengths[e] for e in f), sorted(f)))
    assert max_length_two_factor(h, lengths).members == best
