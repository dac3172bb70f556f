import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clawmatch import (
    Diamond,
    DiamondString,
    EdgeReplacement,
    InvalidBase,
    KIND_EXPANDED,
    KIND_K4,
    KIND_RING,
    Multigraph,
    NotClawFree,
    NotCubic,
    NotSimple,
    NotTwoEdgeConnected,
    StructureViolation,
    bridges,
    build,
    classify,
    cycle_basis,
    figure1_graph,
    find_claw,
    is_claw_free,
    is_connected,
    is_cubic,
    is_two_edge_connected,
    random_base,
    ring_of_diamonds,
    serialize_decomposition,
    string_passages,
)
from clawmatch import structure
from clawmatch.structure import _scan_diamonds, _verify_cover
from bruteforce import (
    brute_diamond_vertex_sets,
    brute_isomorphic,
    edge_multiset,
    find_diamonds,
    find_strings,
    has_edge,
    reference_contract_to_base,
    reference_scan_diamonds,
    reference_string_passages,
)
from corpus import (
    DOUBLE_DOUBLE,
    K4,
    K33,
    LOOP1,
    PATH3,
    PETERSEN,
    TRIPLE_BOND,
    certify_corpus,
    relabelled,
    seeded_length_vector,
)


def test_find_diamonds_ring():
    ring = ring_of_diamonds(3)
    diamonds = find_diamonds(ring)
    assert len(diamonds) == 3
    seen = set()
    for dia in diamonds:
        assert not (seen & set(dia.vertices))
        seen |= set(dia.vertices)
    assert brute_diamond_vertex_sets(ring) == {d.vertices for d in diamonds}


def test_find_diamonds_triangle_replaced_k4_empty():
    g, _ = build(K4, [0] * 6)
    assert find_diamonds(g) == []
    assert brute_diamond_vertex_sets(g) == set()


def test_find_diamonds_single_diamond_prism():
    g, _ = build(TRIPLE_BOND, [1, 0, 0])
    diamonds = find_diamonds(g)
    assert len(diamonds) == 1
    assert brute_diamond_vertex_sets(g) == {diamonds[0].vertices}


def test_find_diamonds_matches_brute_scan_on_corpus():
    for name, g in certify_corpus():
        got = {d.vertices for d in find_diamonds(g)}
        assert got == brute_diamond_vertex_sets(g), name


def test_find_strings_two_diamond_string():
    g, _ = build(TRIPLE_BOND, [2, 0, 0])
    strings, rings = find_strings(g)
    assert rings == []
    assert len(strings) == 1
    assert len(strings[0]) == 2
    head, tail = strings[0].head, strings[0].tail
    assert head in strings[0].diamonds[0].ports
    assert tail in strings[0].diamonds[-1].ports


def test_find_strings_diamond_free():
    g, _ = build(K4, [0] * 6)
    assert find_strings(g) == ([], [])


def test_find_strings_defers_on_rings():
    strings, rings = find_strings(ring_of_diamonds(4))
    assert strings == []
    assert len(rings) == 1
    assert len(rings[0]) == 4


def test_classify_k4():
    assert classify(K4).kind == KIND_K4


def test_classify_ring():
    d = classify(ring_of_diamonds(4))
    assert d.kind == KIND_RING
    assert len(d.ring) == 4


def test_classify_prism():
    prism, _ = build(TRIPLE_BOND, [0, 0, 0])
    d = classify(prism)
    assert d.kind == KIND_EXPANDED
    assert d.base.n == 2
    assert d.base.m == 3
    assert d.lengths() == (0, 0, 0)
    # contracting the two prism triangles by hand gives the triple bond
    assert edge_multiset(d.base) == edge_multiset(TRIPLE_BOND)


def test_classify_errors_are_distinct():
    with pytest.raises(NotSimple):
        classify(TRIPLE_BOND)
    with pytest.raises(NotCubic) as exc:
        classify(PATH3)
    assert exc.value.degree != 3
    with pytest.raises(NotClawFree) as exc:
        classify(K33)  # cubic and 2EC but full of claws
    claw = exc.value.claw
    assert all(has_edge(K33, claw.center, leaf) for leaf in claw.leaves)
    with pytest.raises(NotTwoEdgeConnected) as exc:
        classify(figure1_graph(0))
    assert exc.value.bridge is not None
    two_k4s = Multigraph(8, K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges))
    with pytest.raises(NotTwoEdgeConnected):
        classify(two_k4s)


def test_bad_input_errors_keep_their_types_and_messages():
    two_k4s = Multigraph(8, K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges))
    looped = Multigraph(2, ((0, 0), (0, 1), (1, 1)))
    fig1 = figure1_graph(0)
    # disconnected, and the fig1 part has bridges: the disconnection is reported first
    shifted_k4 = tuple((u + fig1.n, v + fig1.n) for u, v in K4.edges)
    fig1_and_k4 = Multigraph(fig1.n + 4, fig1.edges + shifted_k4)
    calls = [
        (classify, (TRIPLE_BOND,), NotSimple, "graph has loops or parallel edges"),
        (classify, (PATH3,), NotCubic, "vertex 0 has degree 1, expected 3"),
        (classify, (K33,), NotClawFree, "induced claw at center 0 with leaves (3, 4, 5)"),
        (classify, (fig1,), NotTwoEdgeConnected, "graph has a bridge: edge 10"),
        (classify, (two_k4s,), NotTwoEdgeConnected, "graph is disconnected"),
        (classify, (fig1_and_k4,), NotTwoEdgeConnected, "graph is disconnected"),
        (classify, (Multigraph(0, ()),), NotTwoEdgeConnected, "graph has no vertices"),
        (build, (PATH3, [0, 0]), InvalidBase, "base vertex 0 has degree 1, expected 3"),
        (build, (fig1, [0] * fig1.m), InvalidBase, "base is not 2-edge-connected"),
        (build, (looped, [0, 0, 0]), InvalidBase, "base has a loop"),
        (build, (TRIPLE_BOND, [1, -1, 0]), ValueError, "length of edge 1 is negative"),
        (build, (TRIPLE_BOND, [0.5, 1.9, 0]), ValueError, "length of edge 0 is not an integer"),
        (build, (TRIPLE_BOND, [0, "1", 0]), ValueError, "length of edge 1 is not an integer"),
        (build, (TRIPLE_BOND, [0, 0, True]), ValueError, "length of edge 2 is not an integer"),
        (build, (TRIPLE_BOND, (0, False, 0)), ValueError, "length of edge 1 is not an integer"),
        (build, (TRIPLE_BOND, {0: 1}), ValueError, "length of edge 1 is missing"),
        (build, (TRIPLE_BOND, [0, 0]), ValueError, "length of edge 2 is missing"),
        (build, (TRIPLE_BOND, [0, 0, 0, 5]), ValueError, "expected 3 lengths, got 4"),
        (build, (TRIPLE_BOND, {0: 0, 1: 0, 2: 0, 7: 3}), ValueError, "expected 3 lengths, got 4"),
        (find_claw, (TRIPLE_BOND,), NotSimple, "graph has loops or parallel edges"),
        (find_claw, (LOOP1,), NotSimple, "graph has loops or parallel edges"),
    ]
    for fn, args, error, message in calls:
        with pytest.raises(error) as exc:
            fn(*args)
        assert type(exc.value) is error and str(exc.value) == message, (fn.__name__, args)


def disjoint_union(*parts: Multigraph) -> Multigraph:
    """The parts side by side, each one's ids shifted past those of the parts before it."""
    n, edges = 0, []
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Multigraph(n, tuple(edges))


def clawed_hosts() -> dict[str, Multigraph]:
    """Simple cubic hosts with claws: 2-edge-connected, bridged and disconnected."""
    # K3,3 with its edge 0-3 subdivided by vertex 6: 7 vertices, one of degree 2
    subdivided = Multigraph(7, tuple(e for e in K33.edges if e != (0, 3)) + ((0, 6), (6, 3)))
    pair = disjoint_union(subdivided, subdivided)
    expanded, _ = build(TRIPLE_BOND, [1, 0, 2])
    return {
        "K3,3": K33,
        "Petersen": PETERSEN,
        "bridged": Multigraph(pair.n, pair.edges + ((6, 13),)),
        "disconnected": disjoint_union(K33, K33),
        "a claw-free expansion beside a K3,3": disjoint_union(expanded, K33),
        "a ring of diamonds beside a Petersen graph": disjoint_union(ring_of_diamonds(3), PETERSEN),
    }


def test_classify_refuses_the_claw_find_claw_finds():
    # the diamond scan decides claw-freeness before connectivity: the claw is reported
    # first, whether the host is 2-edge-connected, bridged or disconnected
    hosts = clawed_hosts()
    assert bridges(hosts["bridged"]).sorted_tuple() == (hosts["bridged"].m - 1,)
    assert not is_connected(hosts["disconnected"])
    rng = random.Random(26)
    for name, host in hosts.items():
        for g in [host] + [shuffled(host, rng) for _ in range(20)]:
            assert is_cubic(g) and g.is_simple(), name
            claw = find_claw(g)
            assert claw is not None, name
            with pytest.raises(NotClawFree) as exc:
                classify(g)
            assert exc.value.claw == claw, name
            assert str(exc.value) == str(NotClawFree(claw)), name


def swapped(dia: Diamond) -> Diamond:
    """The same four vertices with ports and internals exchanged, so the ports are adjacent."""
    return Diamond(dia.vertices, dia.internals, dia.ports)


def with_replacement(d, e: int, **changes):
    reps = list(d.replacements)
    reps[e] = dataclasses.replace(reps[e], **changes)
    return dataclasses.replace(d, replacements=tuple(reps))


def test_verify_cover_refuses_broken_covers():
    # edges 0 and 2 of the triple bond carry strings of 3 and 1 diamonds, edge 1 is direct
    g, d = build(TRIPLE_BOND, [3, 0, 1])
    _verify_cover(d)
    side = g.edge_between(*d.triangles[0][:2])
    string = d.replacements[0].string
    middle = list(string.diamonds)
    middle[1] = swapped(middle[1])
    ring = classify(ring_of_diamonds(3))
    _verify_cover(ring)
    # the prism's triangles 0 1 2 and 3 4 5 regrouped as 1 2 3 and 0 4 5, with connectors
    # spread over exactly the new cross edges: only the side count tells these parts apart
    prism, split = build(TRIPLE_BOND, [0, 0, 0])
    regrouped = ((1, 2, 3), (0, 4, 5))
    left = regrouped[0]
    cross = [e for e, (u, v) in enumerate(prism.edges) if (u in left) != (v in left)]
    assert cross == [0, 1, 3, 4, 6, 7, 8]
    spread = (cross[0:3], cross[3:5], cross[5:])
    regrouped_prism = dataclasses.replace(
        split,
        triangles=regrouped,
        replacements=tuple(
            dataclasses.replace(rep, connectors=tuple(ids))
            for rep, ids in zip(split.replacements, spread)
        ),
    )
    broken = {
        "triangles that are no triangles": regrouped_prism,
        "a connector swapped for a triangle side": with_replacement(d, 1, connectors=(side,)),
        "a dropped connector": with_replacement(
            d, 0, connectors=d.replacements[0].connectors[:-1]
        ),
        "two triangles sharing a vertex": dataclasses.replace(
            d, triangles=(d.triangles[0], (d.triangles[0][2],) + d.triangles[1][1:])
        ),
        "a diamond with adjacent ports": with_replacement(
            d, 0, string=dataclasses.replace(string, diamonds=tuple(middle))
        ),
        "a ring diamond with adjacent ports": dataclasses.replace(
            ring, ring=(swapped(ring.ring[0]),) + ring.ring[1:]
        ),
    }
    for name, bad in broken.items():
        with pytest.raises(StructureViolation) as exc:
            _verify_cover(bad)
        assert str(exc.value) == "decomposition does not cover the host edge set exactly", name


def test_verify_cover_refuses_what_only_its_port_and_label_checks_see():
    # a ring of one diamond on K4: its port pair is K4's sixth edge, so without the
    # port-join check the other five would make a full diamond
    one_diamond = Diamond((0, 1, 2, 3), ports=(0, 1), internals=(2, 3))
    k4_ring = structure.Decomposition(KIND_RING, K4, ring=(one_diamond,))
    # a triangle listing a corner twice labels every vertex and keeps every side count
    g, d = build(TRIPLE_BOND, [1, 0, 0])
    doubled = dataclasses.replace(
        d, triangles=((*d.triangles[0], d.triangles[0][0]),) + d.triangles[1:]
    )
    for bad in (k4_ring, doubled):
        with pytest.raises(StructureViolation) as exc:
            _verify_cover(bad)
        assert str(exc.value) == "decomposition does not cover the host edge set exactly"


def test_contract_roundtrip_examples():
    g, _ = build(K4, [0] * 6)
    d = classify(g)
    assert d.base.n == 4
    assert brute_isomorphic(d.base, K4)
    assert d.lengths() == (0,) * 6

    g, _ = build(TRIPLE_BOND, [1, 0, 0])
    d = classify(g)
    assert brute_isomorphic(d.base, TRIPLE_BOND)
    assert sorted(d.lengths()) == [0, 0, 1]

    h = random_base(6, seed=0)
    g, _ = build(h, [0] * h.m)
    d = classify(g)
    assert cycle_basis(d.base).dimension == 9 - 6 + 1


def test_decomposition_bookkeeping_on_corpus():
    for name, g in certify_corpus():
        d = classify(g)
        if d.kind != KIND_EXPANDED:
            continue
        k = d.base.n
        total = d.total_length()
        assert g.n == 3 * k + 4 * total, name
        diamonds = find_diamonds(g)
        assert len(diamonds) == (g.n - 3 * k) // 4, name
        # triangle images partition the non-diamond vertices
        tri_vertices = [v for tri in d.triangles for v in tri]
        in_diamond = {v for dia in diamonds for v in dia.vertices}
        assert sorted(tri_vertices) == sorted(set(range(g.n)) - in_diamond), name


def test_build_prism_from_triple_bond():
    g, d = build(TRIPLE_BOND, [0, 0, 0])
    assert g.n == 6
    assert g.is_simple()
    assert is_cubic(g) and is_claw_free(g) and is_two_edge_connected(g)
    assert d.kind == KIND_EXPANDED


def test_build_triangle_replaced_k4():
    g, _ = build(K4, [0] * 6)
    assert g.n == 12


def test_build_single_diamond():
    g, _ = build(TRIPLE_BOND, [1, 0, 0])
    assert g.n == 10
    assert len(find_diamonds(g)) == 1


def test_build_parallel_pairs_land_on_distinct_corners():
    # both parallel pairs of the base keep length 0; the expansion is
    # still simple because the pairs attach to distinct corner pairs
    g, _ = build(DOUBLE_DOUBLE, [0] * 6)
    assert g.is_simple()
    assert classify(g).kind == KIND_EXPANDED


def test_build_rejects_bad_bases():
    with pytest.raises(InvalidBase):
        build(PATH3, [0, 0])
    with pytest.raises(InvalidBase):
        build(figure1_graph(0), [0] * figure1_graph(0).m)  # cubic but bridged
    looped = Multigraph(2, ((0, 0), (0, 1), (1, 1)))
    with pytest.raises(InvalidBase):
        build(looped, [0, 0, 0])
    with pytest.raises(ValueError):
        build(TRIPLE_BOND, [1, -1, 0])


def test_build_postconditions_seeded():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.choice((2, 4, 6, 8))
        h = random_base(k, seed=rng.randrange(1000))
        lengths = seeded_length_vector(rng, h.m, 4)
        g, d = build(h, lengths)
        assert g.n == 3 * k + 4 * sum(lengths)
        assert g.is_simple()
        assert is_cubic(g)
        assert find_claw(g) is None
        assert is_two_edge_connected(g)
        assert d.lengths() == tuple(lengths)


def test_roundtrip_recovers_base_up_to_isomorphism():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.choice((2, 4, 6, 8))
        h = random_base(k, seed=rng.randrange(1000))
        lengths = seeded_length_vector(rng, h.m, 5)
        g, _ = build(h, lengths)
        d = classify(g)
        assert d.kind == KIND_EXPANDED
        assert brute_isomorphic(d.base, h)
        assert sorted(d.lengths()) == sorted(lengths)


def test_classify_is_total_and_exclusive_on_corpus():
    for name, g in certify_corpus():
        d = classify(g)
        assert d.kind in (KIND_K4, KIND_RING, KIND_EXPANDED), name
        if d.kind == KIND_K4:
            assert g.n == 4
        elif d.kind == KIND_RING:
            assert 4 * len(d.ring) == g.n
        else:
            assert d.base is not None and d.base.n >= 2


def test_ring_of_diamonds_generator():
    r2 = ring_of_diamonds(2)
    assert r2.n == 8
    assert classify(r2).kind == KIND_RING
    r3 = ring_of_diamonds(3)
    assert r3.n == 12
    assert is_cubic(r3) and is_claw_free(r3) and is_two_edge_connected(r3)
    with pytest.raises(ValueError):
        ring_of_diamonds(1)


def test_figure1_family_structure():
    for segments in (0, 1, 2):
        g = figure1_graph(segments)
        assert g.n == 14 + 4 * segments
        assert is_cubic(g)
        assert is_claw_free(g)
        assert not is_two_edge_connected(g)
    with pytest.raises(ValueError):
        figure1_graph(-1)


def test_random_base_contract():
    assert random_base(2, seed=123) == TRIPLE_BOND
    for k in (4, 6, 8):
        g = random_base(k, seed=17)
        assert g == random_base(k, seed=17)
        assert is_cubic(g)
        assert is_two_edge_connected(g)
        assert all(u != v for u, v in g.edges)
    with pytest.raises(ValueError):
        random_base(3, seed=0)
    with pytest.raises(ValueError):
        random_base(0, seed=0)


def shuffled(g: Multigraph, rng: random.Random) -> Multigraph:
    """g under a random vertex relabelling, edge order and choice of edge ends."""
    vertex_order = rng.sample(range(g.n), g.n)
    edge_order = [(e, rng.randrange(2)) for e in rng.sample(range(g.m), g.m)]
    return relabelled(g, vertex_order, edge_order)


def byte_identity_sweep() -> list[Multigraph]:
    """Seeded expansions of random bases (k = 2..14, lengths 0..3) and rings of 2..8 diamonds,
    each as built and shuffled."""
    rng = random.Random(4)
    hosts = []
    for k in range(2, 15, 2):
        for _ in range(20):
            h = random_base(k, seed=rng.randrange(1 << 16))
            hosts.append(build(h, [rng.randint(0, 3) for _ in range(h.m)])[0])
    hosts += [ring_of_diamonds(d) for d in range(2, 9)]
    return hosts + [shuffled(g, rng) for g in hosts]


def test_decompositions_and_strings_are_byte_stable_on_seeded_sweep():
    # the digest pins the order of strings, rings, diamonds and ports; any regrouping
    # of the diamonds must reproduce it byte for byte
    digest = hashlib.sha256()
    hosts = byte_identity_sweep()
    for g in hosts:
        digest.update(serialize_decomposition(classify(g)).encode())
        digest.update(repr(find_strings(g)).encode())
    assert len(hosts) == 294
    assert digest.hexdigest() == "87777d71081e16bb1f4bf8ed197342cc6235c54bb9949c09798f67423a7ec4e8"


@st.composite
def shuffled_diamond_hosts(draw):
    """Rings of 2..7 diamonds or expansions of bases with k <= 6 and at most 4 diamonds
    (n <= 34, so the brute-force diamond scan stays cheap), randomly shuffled."""
    if draw(st.booleans(), label="ring"):
        g = ring_of_diamonds(draw(st.integers(2, 7), label="ring size"))
    else:
        k = draw(st.sampled_from((2, 4, 6)), label="k")
        h = random_base(k, seed=draw(st.integers(0, 1 << 16), label="seed"))
        lengths = [0] * h.m
        for e in draw(st.lists(st.integers(0, h.m - 1), max_size=4), label="diamond edges"):
            lengths[e] += 1
        g, _ = build(h, lengths)
    return shuffled(g, draw(st.randoms(use_true_random=False)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shuffled_diamond_hosts())
def test_find_strings_ordering_rules(g):
    strings, rings = find_strings(g)
    owner = {v: dia for dia in find_diamonds(g) for v in dia.vertices}

    def outside(dia, p):
        (w,) = [w for w in g.neighbors(p) if w not in dia.vertices]
        return w

    found = [dia.vertices for s in strings for dia in s.diamonds]
    found += [dia.vertices for ring in rings for dia in ring]
    assert sorted(found) == sorted(brute_diamond_vertex_sets(g))
    for s in strings:
        assert outside(s.diamonds[0], s.head) not in owner
        assert outside(s.diamonds[-1], s.tail) not in owner
        assert s.head < s.tail
        assert len(reference_string_passages(g, s)) == len(s)
    assert [s.head for s in strings] == sorted(s.head for s in strings)
    for ring in rings:
        first = ring[0]
        assert first.vertices[0] == min(v for dia in ring for v in dia.vertices)
        # leave toward the neighbour with the smaller least vertex, then by the smaller port edge
        steps = [
            (owner[outside(first, p)].vertices[0], g.edge_between(p, outside(first, p)))
            for p in first.ports
        ]
        assert ring[1].vertices[0] == min(steps)[0]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert any(outside(a, p) in b.ports for p in a.ports)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(shuffled_diamond_hosts(), st.sampled_from([K4, build(K4, [0] * 6)[0]])))
def test_scan_diamonds_matches_its_reference(g):
    diamonds, owner, _ = _scan_diamonds(g)
    assert diamonds == reference_scan_diamonds(g)
    holder = {v: i for i, dia in enumerate(diamonds) for v in dia.vertices}
    assert owner == [holder.get(v, -1) for v in range(g.n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(shuffled_diamond_hosts(), st.sampled_from([K4, build(K4, [0] * 6)[0]])))
def test_scan_bits_name_the_triangles_at_each_vertex(g):
    # with neighbors x < y < z, bit 1 is the pair x-y, bit 2 is x-z and bit 4 is y-z
    bits = _scan_diamonds(g)[2]
    for v in range(g.n):
        pairs = list(itertools.combinations(g.neighbors(v), 2))
        assert bits[v] == sum(1 << i for i, (a, b) in enumerate(pairs) if has_edge(g, a, b))


def doctor_bits(monkeypatch, v: int, t: int) -> None:
    """Make classify's diamond scan report bits t at vertex v."""
    scan = structure._scan_diamonds

    def doctored(g):
        diamonds, owner, bits = scan(g)
        bits[v] = t
        return diamonds, owner, bits

    monkeypatch.setattr(structure, "_scan_diamonds", doctored)


@pytest.mark.parametrize(
    "t, message",
    [
        (0, "vertex 0 lies in 0 triangles, expected 1"),
        (3, "vertex 0 lies in 2 triangles, expected 1"),
        (7, "vertex 0 lies in 3 triangles, expected 1"),
        # vertex 0 has neighbors 1 < 2 < 12, and 12 is the port of a diamond
        (2, "triangle at vertex 0 overlaps other structure"),
        (4, "triangle at vertex 0 overlaps other structure"),
    ],
)
def test_contraction_refuses_bits_that_name_no_lone_triangle(monkeypatch, t, message):
    g, _ = build(random_base(4, 0), [1] * 6)
    assert g.neighbors(0) == (1, 2, 12) and _scan_diamonds(g)[1][12] >= 0
    classify(g)
    doctor_bits(monkeypatch, 0, t)
    with pytest.raises(StructureViolation, match=f"^{message}$"):
        classify(g)


def test_incident_neighbors_and_corner_reject_ids_out_of_range():
    # plain indexing would answer for the last vertex and the last base edge
    g, d = build(random_base(4, 0), [0] * 6)
    for v in (-1, g.n):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            g.incident(v)
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            g.neighbors(v)
    for e in (-1, d.base.m):
        with pytest.raises(ValueError, match=f"^edge index {e} out of range$"):
            d.corner(e, d.base.edges[-1][0])
    for e, (a, b) in enumerate(d.base.edges):
        assert (d.corner(e, a), d.corner(e, b)) == d.replacements[e].corners
        with pytest.raises(ValueError, match=f"^vertex -1 is not an end of base edge {e}$"):
            d.corner(e, -1)
    for v in range(g.n):
        assert g.incident(v) == tuple(e for e, ends in enumerate(g.edges) if v in ends)
        assert g.neighbors(v) == tuple(sorted(a ^ b ^ v for a, b in g.edges if v in (a, b)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(
        shuffled_diamond_hosts(),
        st.builds(ring_of_diamonds, st.integers(2, 8)),
        st.sampled_from([g for _, g in certify_corpus()]),
    )
)
def test_classify_reports_every_diamond_of_the_brute_scan(g):
    d = classify(g)
    strings = [rep.string for rep in d.replacements if rep.string]
    diamonds = d.ring or [dia for s in strings for dia in s.diamonds]
    assert sorted(dia.vertices for dia in diamonds) == sorted(brute_diamond_vertex_sets(g))


def replacement_variants(g: Multigraph, rep: EdgeReplacement) -> list[EdgeReplacement]:
    """rep with its string's diamonds reversed, or with one swapped for another diamond of g,
    each from every head port to every tail port and with rep's own connectors; and rep with
    one connector dropped or one added.  Only rep itself lists its diamonds in order."""
    seq, every = rep.string.diamonds, find_diamonds(g)
    seqs = [seq, seq[::-1]]
    for i, own in enumerate(seq):
        seqs += [seq[:i] + (other,) + seq[i + 1 :] for other in every if other != own]
    variants = [
        dataclasses.replace(rep, string=DiamondString(other, head, tail))
        for other in seqs
        for head in other[0].ports
        for tail in other[-1].ports
    ]
    conn = rep.connectors
    return variants + [dataclasses.replace(rep, connectors=c) for c in (conn[1:], conn + conn[:1])]


def passages_or_violation(g: Multigraph, rep: EdgeReplacement):
    try:
        return string_passages(g, rep)
    except StructureViolation as exc:
        return str(exc)


BETWEEN = "a diamond does not lie between its recorded connectors"
COUNT = "a string needs one more connector than it has diamonds"


def strung(d):
    return [rep for rep in d.replacements if rep.string]


@st.composite
def built_decompositions(draw):
    """build's decomposition of a random base with k <= 8 and lengths 0..3."""
    h = random_base(draw(st.sampled_from((2, 4, 6, 8))), seed=draw(st.integers(0, 1 << 16)))
    return build(h, draw(st.lists(st.integers(0, 3), min_size=h.m, max_size=h.m)))[1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(shuffled_diamond_hosts().map(classify), built_decompositions()))
def test_string_passages_match_the_reference_walk(d):
    # classify and build record each string's connectors in the order the walk by
    # has_edge from the head meets them, so reading them gives the same passages
    for rep in strung(d):
        assert string_passages(d.graph, rep) == reference_string_passages(d.graph, rep.string)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shuffled_diamond_hosts())
def test_string_passages_match_their_reference_on_broken_strings(g):
    for rep in strung(classify(g)):
        expected = reference_string_passages(g, rep.string)
        for variant in replacement_variants(g, rep):
            out = passages_or_violation(g, variant)
            if variant.connectors != rep.connectors:
                assert out == COUNT
            elif variant.string.diamonds == rep.string.diamonds:
                assert out == expected
            else:
                assert out == BETWEEN


def test_broken_strings_reach_every_violation():
    # the variants above reach every outcome of string_passages: each passage, a
    # diamond off its connectors and a connector count that does not fit the string
    g, d = build(TRIPLE_BOND, [2, 1, 0])
    outcomes = {
        out if isinstance(out, str) else "passages"
        for rep in strung(d)
        for out in (passages_or_violation(g, v) for v in replacement_variants(g, rep))
    }
    assert outcomes == {"passages", BETWEEN, COUNT}


def test_classify_refuses_a_multigraph_with_strings():
    # the connectors are the edges leaving the ports, one each only in a simple graph
    g, _ = build(TRIPLE_BOND, [1, 1, 0])
    for extra in (g.edges[0], (0, 0)):
        with pytest.raises(NotSimple, match="^graph has loops or parallel edges$"):
            classify(Multigraph(g.n, g.edges + (extra,)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shuffled_diamond_hosts())
def test_classify_contracts_like_its_reference(g):
    # classify reads the connectors its string walk recorded; the reference walks
    # every string again and asks each port for its edge out
    d = classify(g)
    assume(d.kind == KIND_EXPANDED)
    # equal replacements: the same connectors in the same order
    assert d == reference_contract_to_base(g, find_strings(g)[0])
