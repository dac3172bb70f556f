"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line including its wall-clock time
and enforces the stated runtime budget.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they happen.
"""

import io
import random
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout

import pytest

from clawmatch import graphs, structure
from clawmatch import (
    CapExceeded,
    Multigraph,
    bridges,
    build,
    certify,
    classify,
    count_perfect_matchings,
    cycle_basis,
    enumerate_cycle_space,
    enumerate_perfect_matchings,
    enumerate_two_factors,
    figure1_graph,
    is_claw_free,
    is_cubic,
    max_length_two_factor,
    parse_graph,
    random_base,
    ring_of_diamonds,
    serialize_decomposition,
    serialize_graph,
    verify_certificate,
    verify_3ec_remark,
)
from clawmatch.cli import main
from bruteforce import brute_even_subsets, brute_isomorphic, recursive_iter_two_factors
from corpus import (
    K4,
    PRISM,
    base_corpus,
    certify_corpus,
    circular_ladder,
    cubic_corpus_small,
    seeded_length_vector,
    three_edge_connected_host,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"FAIL criterion {number}: {label} (took {elapsed:.2f}s, budget {budget_seconds}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_seconds}s budget")
    print(f"PASS criterion {number} ({elapsed:.2f}s): {label}")


def test_criterion_1_k4():
    with criterion(1, "K4 count and certificate", 1.0):
        assert count_perfect_matchings(K4) == 3
        cert = certify(K4)
        assert len(cert.matchings) == 3
        assert len(set(cert.matchings)) == 3
        assert verify_certificate(K4, cert)
        assert 3**12 > 2**4


def test_criterion_2_rings():
    for d, expected in ((2, 5), (3, 9), (4, 17), (5, 33)):
        with criterion(2, f"ring of {d} diamonds has 2^{d}+1 = {expected} matchings", 5.0):
            g = ring_of_diamonds(d)
            assert count_perfect_matchings(g) == 2**d + 1 == expected
            cert = certify(g)
            assert len(cert.matchings) == 2**d + 1
            assert verify_certificate(g, cert)


def test_criterion_3_three_edge_connected_remark():
    with criterion(3, "exact 2^(n/6+1) counts and the cycle-space bijection", 10.0):
        tri_k4, _ = build(K4, [0] * 6)
        assert count_perfect_matchings(PRISM) == 4 == 2 ** (6 // 6 + 1)
        assert count_perfect_matchings(tri_k4) == 8 == 2 ** (12 // 6 + 1)
        assert verify_3ec_remark(PRISM)
        assert verify_3ec_remark(tri_k4)


def test_criterion_4_bridged_family():
    with criterion(4, "bridged family keeps exactly 9 perfect matchings", 10.0):
        for segments in (0, 1, 2):
            g = figure1_graph(segments)
            assert is_cubic(g)
            assert is_claw_free(g)
            assert bridges(g).members
            # flags a wrong reconstruction instead of silently accepting it
            assert count_perfect_matchings(g) == 9, (
                f"figure-family reconstruction with {segments} segments disagrees with the 9-count"
            )


def test_criterion_5_roundtrip():
    with criterion(5, "200 seeded build/contract roundtrips recover the base", 60.0):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            k = (2, 4, 6, 8)[checked % 4]
            h = random_base(k, seed=rng.randrange(10**6))
            lengths = seeded_length_vector(rng, h.m, 5)
            g, _ = build(h, lengths)
            d = classify(g)
            assert brute_isomorphic(d.base, h)
            assert sorted(d.lengths()) == sorted(lengths)
            checked += 1
        assert checked == 200


def test_criterion_6_exponential_bound_sweep():
    with criterion(6, "certificates beat 2^(n/12) on the whole corpus", 300.0):
        for name, g in certify_corpus():
            assert g.n <= 28, name
            cert = certify(g)
            assert verify_certificate(g, cert), name
            count = len(cert.matchings)
            assert count**12 > 2**g.n, name
            assert count <= count_perfect_matchings(g), name


def test_criterion_7_cycle_space_oracle_equivalence():
    with criterion(7, "cycle-space enumeration equals the even-subset filter", 30.0):
        for name, h in base_corpus():
            if h.m > 16:
                continue
            members = {m.members for m in enumerate_cycle_space(h, 1 << 20)}
            assert members == brute_even_subsets(h), name
            assert len(members) == 2 ** (h.m - h.n + 1), name
            assert cycle_basis(h).dimension == h.m - h.n + 1, name


def test_criterion_8_complement_bijection():
    with criterion(8, "2-factor and matching counts agree via complements", 60.0):
        for name, g in cubic_corpus_small() + certify_corpus():
            assert g.n <= 28, name
            # the 2-factors from the reference search, which shares no code with the matchings
            factors = set(recursive_iter_two_factors(g))
            matchings = {m.members for m in enumerate_perfect_matchings(g, 1 << 20)}
            assert {f.members for f in enumerate_two_factors(g, 1 << 20)} == factors, name
            assert len(matchings) == count_perfect_matchings(g), name
            assert len(factors) == len(matchings), name
            all_edges = frozenset(range(g.m))
            assert {all_edges - f for f in factors} == matchings, name


def test_criterion_9_long_two_factor_bound():
    with criterion(9, "max-length 2-factor reaches 2/3 of the total length", 60.0):
        rng = random.Random(77)
        for trial in range(100):
            k = (2, 4, 6, 8)[trial % 4]
            h = random_base(k, seed=rng.randrange(10**6))
            lengths = seeded_length_vector(rng, h.m, 6)
            factor = max_length_two_factor(h, dict(enumerate(lengths)))
            total = sum(lengths)
            achieved = sum(lengths[e] for e in factor.members)
            assert achieved >= -(-2 * total // 3)


def test_criterion_10_check_on_large_hosts(tmp_path):
    for name, g, verdict in (
        ("circular ladder, n=6000", circular_ladder(3000), "true"),
        ("ring of 1500 diamonds, n=6000", ring_of_diamonds(1500), "false"),
    ):
        with criterion(10, f"clawmatch check decides 3-edge-connectivity on a {name}", 10.0):
            doc = tmp_path / "host.txt"
            doc.write_text(serialize_graph(g))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["check", str(doc)]) == 0
            assert f"three_edge_connected={verdict}" in out.getvalue().splitlines()


def test_criterion_11_remark_on_large_hosts():
    for k, budget in ((16, 2.0), (24, 10.0)):
        g = three_edge_connected_host(k)
        with criterion(11, f"the 3EC remark holds on a seeded host with n={g.n}", budget):
            assert verify_3ec_remark(g)


def large_expansion(n: int, seed: int) -> Multigraph:
    """A seeded expansion with exactly n vertices: a random base on k = n/6 rounded down
    to a multiple of 4 vertices, and its remaining n - 3k vertices as diamonds on random edges."""
    rng = random.Random(seed)
    k = n // 6 // 4 * 4
    base = random_base(k, seed=rng.randrange(1 << 32))
    lengths = [0] * base.m
    for e in rng.choices(range(base.m), k=(n - 3 * k) // 4):
        lengths[e] += 1
    g, _ = build(base, lengths)
    return g


def test_criterion_12_decompose_on_a_large_host(tmp_path):
    g = large_expansion(80000, seed=12)
    doc = tmp_path / "host.txt"
    doc.write_text(serialize_graph(g))
    with criterion(12, f"clawmatch decompose on a seeded expansion with n={g.n}", 10.0):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["decompose", str(doc)]) == 0
        assert out.getvalue().startswith("kind=expanded\n")


def test_criterion_13_cycle_basis_on_a_large_base():
    h = random_base(80000, seed=13)
    with criterion(13, f"cycle basis of a seeded random base with k={h.n}", 10.0):
        assert cycle_basis(h).dimension == h.m - h.n + 1


def criterion_14_host() -> Multigraph:
    base = random_base(28, seed=14)
    g, _ = build(base, [0] * base.m)
    return g


def test_criterion_14_certify_the_full_cycle_space_family():
    g = criterion_14_host()
    with criterion(14, f"certify a seeded diamond-free host with n={g.n}", 5.0):
        cert = certify(g)
        assert cert.branch == "cycle-space"
        assert len(cert.matchings) == 2 ** (28 // 2 + 1) == 32768
        assert verify_certificate(g, cert)


def test_criterion_14_certify_peak_memory():
    # 32 768 rows of 42 ids take about 12 MiB as tuples; one slice of joined byte rows
    # comes on top, as the sorted byte rows are dropped a slice at a time while the rows
    # grow.  The family is 126 columns of 4 KiB, dropped once its byte rows are read off:
    # the traced peak is about 12.4 MiB
    g = criterion_14_host()
    tracemalloc.start()
    try:
        cert = certify(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.matchings) == 32768
    assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def counted(monkeypatch, name: str) -> list:
    """Replace graphs.<name> by a wrapper that records the graph of every call."""
    seen = []
    inner = getattr(graphs, name)

    def wrapper(g):
        seen.append(g)
        return inner(g)

    monkeypatch.setattr(graphs, name, wrapper)
    return seen


class CountedTable(tuple):
    """A neighbor table that counts its reads: each item indexed or iterated is one."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for row in super().__iter__():
            self.reads += 1
            yield row


def test_criterion_15_one_cut_pass_and_one_claw_scan_per_graph(monkeypatch, tmp_path):
    built = large_expansion(80000, seed=15)
    g = Multigraph(built.n, built.edges)  # a fresh object, as parsed from a document
    passes = counted(monkeypatch, "_cut_forest")
    scans = counted(monkeypatch, "_scan_claw")
    lookups = []
    edge_between = Multigraph.edge_between
    monkeypatch.setattr(
        Multigraph, "edge_between", lambda h, u, v: lookups.append((u, v)) or edge_between(h, u, v)
    )
    ports = []
    leaving = structure._leaving
    monkeypatch.setattr(
        structure, "_leaving", lambda h, p, dia: ports.append(p) or leaving(h, p, dia)
    )
    walks = []
    passages = structure.string_passages
    monkeypatch.setattr(
        structure, "string_passages", lambda h, rep: walks.append(rep) or passages(h, rep)
    )
    label = (
        "one cut pass and one claw scan per graph, no edge looked up by its ends, "
        f"each diamond string walked once, each vertex's neighbors read once, n={g.n}"
    )
    with criterion(15, label, 10.0):
        assert not bridges(g).members
        assert is_claw_free(g)
        table = g.__dict__["_neighbors"] = CountedTable(g._neighbors)
        d = classify(g)
        # the diamond scan reads each vertex's row and two of its neighbors' rows, and
        # the contraction one row per triangle, to name the corners its bits point at
        assert table.reads <= 3 * g.n + d.base.n, table.reads
        serialize_decomposition(d)
        rebuilt, _ = build(d.base, d.lengths())
        assert rebuilt == g
        # the host and the base once each, although classify and build ask again
        assert [id(h) for h in passes] == [id(g), id(d.base)]
        assert [id(h) for h in scans] == [id(g)]
        # strings are walked along incidence, so the pipeline never calls edge_between
        assert lookups == []
        # one walk per string: each port is asked for its edge out once, and the
        # contraction reads the connectors that walk recorded
        assert len(ports) == len(set(ports)) == 2 * d.total_length()
        assert walks == []
    for host, expected in ((circular_ladder(300), 2), (figure1_graph(3), 1)):
        doc = tmp_path / "host.txt"
        doc.write_text(serialize_graph(host))
        passes.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["check", str(doc)]) == 0
        # bridges fills the summary; only a 2-edge-connected host needs the 3EC tree
        assert len(passes) == expected


def test_classify_makes_no_claw_scan_of_its_own(monkeypatch, tmp_path):
    # its diamond scan already decides claw-freeness, so classify, certify and
    # `clawmatch decompose` never call _scan_claw on a graph nobody asked find_claw about
    built = large_expansion(20000, seed=26)
    scans = counted(monkeypatch, "_scan_claw")
    classify(Multigraph(built.n, built.edges))
    base = random_base(8, seed=26)
    small, _ = build(base, [1] + [0] * (base.m - 1))
    assert certify(Multigraph(small.n, small.edges)).branch == "cycle-space"
    doc = tmp_path / "host.txt"
    doc.write_text(serialize_graph(built))
    with redirect_stdout(io.StringIO()):
        assert main(["decompose", str(doc)]) == 0
    assert scans == []
    # the counter does see scans: find_claw still makes one per graph
    assert is_claw_free(built) and scans == [built]


def test_criterion_16_two_factor_oracle_on_large_hosts():
    base = random_base(16, seed=1)
    for name, g, expected in (
        ("ring of 16 diamonds, n=64", ring_of_diamonds(16), 2**16 + 1),
        ("diamond-free host, n=48", build(base, [0] * base.m)[0], 512),
    ):
        with criterion(16, f"2-factor and matching counts agree on a {name}", 10.0):
            factors = sum(1 for _ in recursive_iter_two_factors(g))
            assert factors == count_perfect_matchings(g) == expected, name


# what a Multigraph may keep: its two fields and the per-vertex or per-graph caches,
# but no table keyed by vertex pair
GRAPH_ATTRIBUTES = {"n", "edges", "_incidence", "_neighbors", "_cuts", "_claw", "_simple"}


def test_criterion_17_structure_pass_memory_per_vertex():
    n = 20000
    doc = serialize_graph(large_expansion(n, seed=17))
    label = f"parse, classify and build within 1100 traced bytes per vertex, n={n}"
    with criterion(17, label, 20.0):
        tracemalloc.start()
        try:
            g = parse_graph(doc)
            assert not bridges(g).members
            assert is_claw_free(g)
            d = classify(g)
            rebuilt, _ = build(d.base, d.lengths())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rebuilt == g
        assert peak <= 1100 * n, f"traced peak {peak} bytes, {peak / n:.0f} per vertex"
        for h in (g, d.base, rebuilt):
            assert set(vars(h)) <= GRAPH_ATTRIBUTES, sorted(vars(h))


def test_certify_refuses_the_cap_before_building_the_lift_tables():
    # a diamond-free host with n = 30 000: its cycle space has 2^5001 members, so the
    # cap refuses it before the O(n·m)-bit lift tables are built
    built, _ = build(random_base(10000, seed=5), [0] * 15000)
    g = Multigraph(built.n, built.edges)  # a fresh object, as parsed from a document
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as exc:
            certify(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.required == 2**5001
    assert peak <= 1100 * g.n, f"traced peak {peak} bytes, {peak / g.n:.0f} per vertex"
