import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawmatch import graphs
from clawmatch import (
    EdgeSubset,
    GraphError,
    Multigraph,
    NotSimple,
    bridges,
    classify,
    figure1_graph,
    find_claw,
    is_claw_free,
    is_connected,
    is_cubic,
    is_three_edge_connected,
    is_two_edge_connected,
    parse_graph,
    ring_of_diamonds,
    serialize_graph,
    subset_degrees,
)
from bruteforce import (
    brute_bridges,
    brute_claw_centers,
    brute_three_edge_connected,
    has_edge,
    reference_bridges,
    reference_components,
    reference_cut_forest,
    reference_degrees,
    reference_find_claw,
    reference_is_simple,
)
from corpus import (
    DOUBLE_DOUBLE,
    K4,
    LOOP1,
    PATH3,
    PETERSEN,
    PRISM,
    STAR_K13,
    TRIPLE_BOND,
    TWO_TRIANGLES_BRIDGED,
    base_corpus,
    certify_corpus,
    cubic_corpus_small,
    cubic_multigraphs,
    multigraphs,
    relabelled,
)


def random_multigraph(rng: random.Random, n: int, m: int) -> Multigraph:
    return Multigraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))


class Pair(tuple):
    pass


def test_multigraph_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Multigraph(4, ((0, 5),))
    with pytest.raises(ValueError):
        Multigraph(2, ((-1, 0),))
    # any 2-element sequence is an edge, kept as a plain tuple
    plain = Multigraph(3, ((0, 1), (1, 2), (2, 2)))
    for edges in ([[0, 1], [1, 2], [2, 2]], [Pair((0, 1)), Pair((1, 2)), Pair((2, 2))]):
        g = Multigraph(3, edges)
        assert g == plain
        assert all(type(edge) is tuple for edge in g.edges)
    for bad in (((0,),), ((0, 1, 2),), ((0, 1), [1])):
        with pytest.raises(ValueError):
            Multigraph(3, bad)
    # a vertex that is not an int is refused here, not by a later TypeError
    for n, edges, message in (
        (2, ((0, 1.0),), "edge 0 endpoint is not an int: (0, 1.0)"),
        (3, ((0, 1), ("1", 2)), "edge 1 endpoint is not an int: ('1', 2)"),
        (2, ((None, 1),), "edge 0 endpoint is not an int: (None, 1)"),
        (2.0, ((0, 1),), "vertex count is not an int: 2.0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Multigraph(n, edges)


def test_multigraph_refuses_bool_counts_and_endpoints():
    # bool is an int subclass, but True would be written "True", which no document reads
    for n, edges, message in (
        (True, (), "vertex count is not an int: True"),
        (2, ((True, False),), "edge 0 endpoint is not an int: (True, False)"),
        (2, ((0, 1), (1, False)), "edge 1 endpoint is not an int: (1, False)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Multigraph(n, edges)


class Vertex(int):
    pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_every_multigraph_the_constructor_accepts_reads_back_from_its_document(data):
    # counts and endpoints drawn as ints, bools or another int subclass
    values = st.integers(0, 5) | st.booleans() | st.integers(0, 5).map(Vertex)
    n = data.draw(values, label="n")
    edges = data.draw(st.lists(st.tuples(values, values), max_size=6), label="edges")
    ends = [x for edge in edges for x in edge]
    try:
        g = Multigraph(n, edges)
    except ValueError:
        assert isinstance(n, bool) or any(isinstance(x, bool) or not 0 <= x < n for x in ends)
        return
    assert parse_graph(serialize_graph(g)) == g


def test_has_edge_is_false_outside_the_vertex_range():
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert has_edge(g, 1, 2) and has_edge(g, 3, 2)
    for u, v in ((-1, 2), (2, -1), (4, 2), (2, 4), (-1, -1), (4, 4), (1, 3)):
        assert not has_edge(g, u, v), (u, v)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_edge_subset_agrees_with_a_frozenset_model(data):
    host = data.draw(multigraphs(), label="host")
    m = host.m
    edge_ids = st.integers(0, m - 1) if m else st.nothing()
    ids = data.draw(st.lists(edge_ids, max_size=2 * m), label="ids")
    model = frozenset(ids)
    s = EdgeSubset.of(host, ids)
    assert s.members == model
    assert s.sorted_tuple() == tuple(sorted(model))
    assert list(s) == sorted(model)
    assert len(s) == len(model)
    for e in range(-2, m + 2):
        assert (e in s) == (e in model), e
    reordered = EdgeSubset.of(host, data.draw(st.permutations(ids), label="reordered"))
    assert reordered == s and hash(reordered) == hash(s)
    other = data.draw(st.lists(edge_ids, max_size=2 * m), label="other ids")
    assert (EdgeSubset.of(host, other) == s) == (frozenset(other) == model)
    assert EdgeSubset(host, s.mask) == s
    negative = data.draw(st.integers(max_value=-1), label="negative")
    with pytest.raises(ValueError, match=f"^edge mask {re.escape(str(negative))} is negative$"):
        EdgeSubset(host, negative)
    with pytest.raises(ValueError, match=f"^edge index {m} out of range$"):
        EdgeSubset(host, s.mask | 1 << m)
    with pytest.raises(ValueError, match=f"^edge index {negative} out of range$"):
        EdgeSubset.of(host, [*ids, negative, m])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 64), max_size=60) | st.lists(st.integers(0, 5000), max_size=40))
def test_unmask_lists_the_set_bits_in_ascending_order(ids):
    mask = graphs._mask(ids)
    assert graphs._unmask(mask) == tuple(e for e in range(mask.bit_length()) if mask >> e & 1)
    assert graphs._unmask(mask) == tuple(sorted(set(ids)))


def test_edge_subset_validates_members():
    with pytest.raises(ValueError, match="^edge index 10 out of range$"):
        EdgeSubset.of(K4, frozenset({10}))
    with pytest.raises(ValueError, match="^edge index -1 out of range$"):
        EdgeSubset.of(K4, {0, -1, 5})
    with pytest.raises(ValueError, match="^edge index 6 out of range$"):
        EdgeSubset.of(K4, range(7))
    assert len(EdgeSubset.of(K4, ())) == 0
    s = EdgeSubset.of(K4, {5, 0})
    assert s.sorted_tuple() == (0, 5)
    assert 5 in s and 3 not in s


def test_degrees_count_loops_twice():
    assert LOOP1.degree(0) == 2
    g = Multigraph(2, ((0, 0), (0, 1)))
    assert g.degrees() == (3, 1)


def test_is_cubic_examples():
    assert is_cubic(K4)
    assert is_cubic(TRIPLE_BOND)
    assert not is_cubic(LOOP1)  # a loop gives degree 2
    assert not is_cubic(PATH3)


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(42)
    graphs = [g for _, g in base_corpus()] + [
        random_multigraph(rng, rng.randrange(1, 9), rng.randrange(0, 14)) for _ in range(40)
    ]
    for g in graphs:
        assert sum(g.degrees()) == 2 * g.m


def test_bridges_path():
    assert bridges(PATH3).members == {0, 1}


def test_bridges_k4_empty():
    assert bridges(K4).members == set()


def test_bridges_two_triangles_joined():
    # brute removal over all 7 edges singles out the joining edge
    expected = brute_bridges(TWO_TRIANGLES_BRIDGED)
    assert expected == {6}
    assert bridges(TWO_TRIANGLES_BRIDGED).members == expected


def test_bridges_parallel_pair_and_loop_never_bridge():
    g = Multigraph(3, ((0, 1), (0, 1), (1, 2), (2, 2)))
    assert bridges(g).members == {2}
    assert brute_bridges(g) == {2}


def test_lowpoint_bridges_match_removal_oracle():
    rng = random.Random(7)
    graphs = [g for _, g in base_corpus()] + [g for _, g in certify_corpus()]
    for _ in range(60):
        graphs.append(random_multigraph(rng, rng.randrange(1, 10), rng.randrange(0, 16)))
    for g in graphs:
        assert bridges(g).members == brute_bridges(g)


def test_two_edge_connected_examples():
    assert is_two_edge_connected(K4)
    assert is_two_edge_connected(TRIPLE_BOND)
    assert not is_two_edge_connected(TWO_TRIANGLES_BRIDGED)
    assert not is_two_edge_connected(LOOP1)  # fewer than 2 vertices
    assert not is_two_edge_connected(Multigraph(8, K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges)))


def test_cubic_two_edge_connected_graphs_have_no_loops():
    for _, g in base_corpus():
        if is_two_edge_connected(g):
            assert all(u != v for u, v in g.edges)


def test_find_claw_star():
    claw = find_claw(STAR_K13)
    assert claw is not None
    assert claw.center == 0
    assert claw.leaves == (1, 2, 3)


def test_find_claw_k4_and_prism_absent():
    assert find_claw(K4) is None
    # exhaustive 4-tuple scan agrees that the prism has no claw
    assert brute_claw_centers(PRISM) == []
    assert find_claw(PRISM) is None


def test_find_claw_rejects_multigraphs():
    with pytest.raises(NotSimple):
        find_claw(TRIPLE_BOND)
    with pytest.raises(NotSimple):
        find_claw(LOOP1)


def test_find_claw_matches_exhaustive_scan():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 9)
        pairs = set()
        for _ in range(rng.randrange(0, 14)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        g = Multigraph(n, tuple(sorted(pairs)))
        expected = brute_claw_centers(g)
        got = find_claw(g)
        assert (got is None) == (not expected)
        if got is not None:
            a, b, c = got.leaves
            assert all(has_edge(g, got.center, x) for x in got.leaves)
            assert not (has_edge(g, a, b) or has_edge(g, a, c) or has_edge(g, b, c))


def test_is_claw_free():
    assert is_claw_free(K4)
    assert not is_claw_free(STAR_K13)
    assert not is_claw_free(PETERSEN)


def test_three_edge_connected_examples():
    assert is_three_edge_connected(K4)
    assert is_three_edge_connected(PRISM)
    assert is_three_edge_connected(TRIPLE_BOND)
    assert not is_three_edge_connected(PATH3)
    assert not is_three_edge_connected(DOUBLE_DOUBLE)  # the two parallel pairs are 2-cuts
    # consecutive connecting edges of a diamond ring form a 2-cut
    assert not is_three_edge_connected(ring_of_diamonds(2))


def three_edge_connectivity_corpus() -> list[Multigraph]:
    named = base_corpus() + certify_corpus() + cubic_corpus_small()
    return [g for _, g in named] + [PATH3, LOOP1, TWO_TRIANGLES_BRIDGED, STAR_K13, Multigraph(0, ())]


def test_three_edge_connected_matches_removal_oracle_on_corpus():
    hosts = three_edge_connectivity_corpus()
    expected = [brute_three_edge_connected(g) for g in hosts]
    assert True in expected and False in expected
    assert [is_three_edge_connected(g) for g in hosts] == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(multigraphs())
def test_three_edge_connected_matches_removal_oracle_on_random_multigraphs(g):
    assert is_three_edge_connected(g) == brute_three_edge_connected(g)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(multigraphs(), cubic_multigraphs()), st.randoms(use_true_random=False))
def test_three_edge_connected_invariant_under_relabelling(g, rng):
    # moving the DFS root and the edge order changes which edges are tree edges,
    # so a 2-cut falls on two tree edges in one labelling and on a tree and a non-tree edge in another
    expected = brute_three_edge_connected(g)
    for _ in range(4):
        vertex_order = rng.sample(range(g.n), g.n)
        edge_order = [(e, rng.randrange(2)) for e in rng.sample(range(g.m), g.m)]
        assert is_three_edge_connected(relabelled(g, vertex_order, edge_order)) == expected


@pytest.mark.parametrize("bits", (1, 2))
def test_three_edge_connected_confirms_colliding_labels(monkeypatch, bits):
    # with 1- or 2-bit labels most zero labels and equal pairs are not cuts;
    # only the remove-and-search confirmation keeps the answer exact
    rng = random.Random(bits)
    monkeypatch.setattr(graphs, "_cut_labels", lambda count: [rng.getrandbits(bits) for _ in range(count)])
    cases = three_edge_connectivity_corpus()
    cases += [random_multigraph(rng, rng.randrange(1, 10), rng.randrange(0, 18)) for _ in range(200)]
    expected = [brute_three_edge_connected(g) for g in cases]
    assert sum(expected) >= 10
    assert [is_three_edge_connected(g) for g in cases] == expected


def test_is_connected_on_small_graphs():
    assert is_connected(PATH3)
    assert not is_connected(Multigraph(5, ((0, 1), (2, 3))))
    assert is_connected(Multigraph(0, ()))


@st.composite
def several_components(draw):
    """Disjoint unions of 1..3 random multigraphs, so later components start at higher ids."""
    parts = draw(st.lists(st.one_of(multigraphs(), cubic_multigraphs()), min_size=1, max_size=3))
    n, edges = 0, []
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Multigraph(n, tuple(edges))


def two_edge_connected_by_removal(g: Multigraph) -> bool:
    return g.n >= 2 and len(reference_components(g)) == 1 and not brute_bridges(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(multigraphs(), several_components(), st.builds(figure1_graph, st.integers(0, 3))))
def test_is_connected_matches_the_reference_before_and_after_bridges(g):
    # a fresh object, so the first question comes before any cut pass is cached
    g = Multigraph(g.n, g.edges)
    expected = len(reference_components(g)) <= 1
    for _ in range(2):
        assert is_connected(g) == expected
        bridges(g)


def test_is_connected_reads_the_cut_pass():
    # two roots planted in the summary make a connected graph read as disconnected
    g = Multigraph(K4.n, K4.edges)
    vars(g)["_cuts"] = (2, ())
    assert is_connected(K4) and not is_connected(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(multigraphs())
def test_two_edge_connected_matches_components_and_removal_oracle(g):
    assert is_two_edge_connected(g) == two_edge_connected_by_removal(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(multigraphs(), cubic_multigraphs(), several_components()))
def test_flat_scans_match_their_references_on_random_multigraphs(g):
    assert bridges(g) == reference_bridges(g)
    assert g.degrees() == reference_degrees(g)
    assert g.is_simple() == reference_is_simple(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(multigraphs(), cubic_multigraphs(), several_components()))
def test_cut_forest_matches_the_two_pass_reference(g):
    # loops, parallel pairs and several components: the lowpoints taken during the walk
    # leave every output as the separate pass over the edges did
    assert graphs._cut_forest(g) == reference_cut_forest(g)


def test_cut_forest_matches_the_two_pass_reference_on_a_deep_path():
    n = 100_000
    path = Multigraph(n, tuple((v, v + 1) for v in range(n - 1)))
    answer = graphs._cut_forest(path)
    assert answer == reference_cut_forest(path)
    order, _, _, (roots, found) = answer
    assert order == list(range(n)) and roots == 1 and found == tuple(range(n - 2, -1, -1))


@st.composite
def simple_graphs(draw):
    """Random simple graphs, n <= 10, of any degrees, edges in any order and orientation."""
    n = draw(st.integers(0, 10), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Multigraph(n, ())
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30), label="edges")
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)), label="flips")
    return Multigraph(n, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(simple_graphs())
def test_edge_between_matches_a_scan_of_the_edges(g):
    # every pair, out-of-range ids included: the incidence scan reads _incidence[u],
    # where u = n is past the end and u = -1 would wrap around to the last vertex
    for u in range(-1, g.n + 1):
        for v in range(-1, g.n + 1):
            found = [i for i, (a, b) in enumerate(g.edges) if {a, b} == {u, v}]
            if found:
                assert g.edge_between(u, v) == found[0]
            else:
                with pytest.raises(ValueError, match=f"^no edge between {u} and {v}$"):
                    g.edge_between(u, v)


def test_subset_degrees_rejects_ids_out_of_range():
    # plain indexing would count the ends of the last edge
    with pytest.raises(ValueError, match="^edge index -1 out of range$"):
        subset_degrees(K4, [-1])
    with pytest.raises(ValueError, match="^edge index 6 out of range$"):
        subset_degrees(K4, [0, 6, -1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(simple_graphs())
def test_subset_degrees_matches_a_scan_of_the_edges(g):
    for e in range(-1, g.m + 1):
        if 0 <= e < g.m:
            assert subset_degrees(g, [e]) == [int(v in g.edges[e]) for v in range(g.n)]
        else:
            with pytest.raises(ValueError, match=f"^edge index {e} out of range$"):
                subset_degrees(g, [e])
    assert subset_degrees(g, range(g.m)) == list(g.degrees())


def test_degree_and_other_end_reject_ids_out_of_range():
    # plain indexing would answer for the last vertex and the last edge
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match="^vertex -1 out of range$"):
        g.degree(-1)
    with pytest.raises(ValueError, match="^edge index -1 out of range$"):
        g.other_end(-1, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(simple_graphs())
def test_degree_and_other_end_match_a_scan_of_the_edges(g):
    for v in range(-1, g.n + 1):
        if 0 <= v < g.n:
            assert g.degree(v) == sum((a == v) + (b == v) for a, b in g.edges)
        else:
            with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
                g.degree(v)
    for e in range(-1, g.m + 1):
        for v in range(-1, g.n + 1):
            if not 0 <= e < g.m:
                with pytest.raises(ValueError, match=f"^edge index {e} out of range$"):
                    g.other_end(e, v)
            elif v in g.edges[e]:
                a, b = g.edges[e]
                assert g.other_end(e, v) == (b if v == a else a)
            else:
                with pytest.raises(ValueError, match=f"^vertex {v} is not an endpoint of edge {e}$"):
                    g.other_end(e, v)


def test_edge_between_refuses_loops_and_parallel_pairs():
    assert K4.edge_between(2, 0) == K4.edge_between(0, 2)
    for g in (LOOP1, TRIPLE_BOND, Multigraph(3, ((0, 1), (1, 2), (1, 0)))):
        assert not g.is_simple()
        with pytest.raises(NotSimple, match="^edge_between requires a simple graph$"):
            g.edge_between(0, 1)


def answer_or_error(question, g: Multigraph):
    try:
        return question(g)
    except GraphError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(simple_graphs(), cubic_multigraphs(), multigraphs()))
def test_find_claw_matches_its_reference(g):
    # the same claw, leaves in the same order, or the same refusal of a multigraph
    assert answer_or_error(find_claw, g) == answer_or_error(reference_find_claw, g)


# each cut and claw question with the answer it must give, computed on a fresh copy:
# the brute-force or reference version, and for classify the uncached library call
CACHED_QUESTIONS = {
    bridges: lambda g: EdgeSubset.of(g, brute_bridges(g)),
    is_two_edge_connected: two_edge_connected_by_removal,
    is_three_edge_connected: brute_three_edge_connected,
    find_claw: reference_find_claw,
    classify: classify,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        multigraphs(),
        cubic_multigraphs(),
        several_components(),
        st.sampled_from([figure1_graph(s) for s in range(3)]),
    ),
    st.permutations(list(CACHED_QUESTIONS)),
)
def test_kept_cut_and_claw_answers_match_the_references_in_any_order(g, order):
    # every question twice, in a drawn order, on one object that keeps what it learns;
    # a multigraph must be refused with NotSimple by every find_claw call, not just the first
    expected = {
        question: answer_or_error(reference, Multigraph(g.n, g.edges))
        for question, reference in CACHED_QUESTIONS.items()
    }
    for question in order + order:
        assert answer_or_error(question, g) == expected[question], question.__name__


def test_bridges_on_a_deep_figure1_host_are_its_joining_edges():
    # the joining edges are appended after the 10 edges of the left block and then
    # after every 5 diamond edges; the DFS runs about n = 120 014 vertices deep,
    # far past the recursion limit, so only an iterative search gets there
    for segments in (0, 1, 2):
        expected = {10 + 6 * i for i in range(segments + 1)}
        assert brute_bridges(figure1_graph(segments)) == expected
    segments = 30000
    assert bridges(figure1_graph(segments)).members == {10 + 6 * i for i in range(segments + 1)}
