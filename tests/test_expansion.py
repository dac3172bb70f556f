import dataclasses
import random
import time
from bisect import bisect_left
from functools import cache
from itertools import combinations, pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawmatch import (
    KIND_EXPANDED,
    BoundFailure,
    CapExceeded,
    Certificate,
    DegreeViolation,
    EdgeSubset,
    GraphError,
    Multigraph,
    StructureViolation,
    build,
    certificate_problems,
    certify,
    classify,
    complement_matching,
    count_perfect_matchings,
    enumerate_cycle_space,
    enumerate_perfect_matchings,
    expand,
    max_length_two_factor,
    parse_graph,
    random_base,
    ring_of_diamonds,
    serialize_graph,
    verify_certificate,
    verify_3ec_remark,
)
from clawmatch import expansion, graphs, structure
from clawmatch.cli import main
from clawmatch.cyclespace import _basis_masks, gray_walk
from clawmatch.errors import _count_text
from clawmatch.graphs import _mask, _unmask
from bruteforce import (
    is_perfect_matching,
    is_two_factor,
    recursive_iter_two_factors,
    reference_3ec_remark,
    reference_certificate_problems,
    reference_lift,
    reference_rows,
)
from corpus import (
    K4,
    K33,
    PETERSEN,
    PRISM,
    TRIPLE_BOND,
    certify_corpus,
    cubic_corpus_small,
    relabelled,
    three_edge_connected_host,
)


def routings(member, d):
    """Every routing of member: one bit per diamond on its base edges."""
    return range(1 << sum(d.replacements[e].length for e in member.members))


def prism_decomposition():
    g, d = build(TRIPLE_BOND, [0, 0, 0])
    return g, d


def test_expand_empty_member_is_all_triangles_and_diamond_squares():
    g, d = prism_decomposition()
    empty = EdgeSubset.of(d.base, frozenset())
    factor = expand(empty, d)
    # the six triangle edges of the two prism triangles
    assert factor.members == {0, 1, 2, 3, 4, 5}

    g2, d2 = build(TRIPLE_BOND, [1, 0, 0])
    empty2 = EdgeSubset.of(d2.base, frozenset())
    factor2 = expand(empty2, d2)
    assert is_two_factor(g2, factor2.members)
    # triangles contribute 3 edges each, the idle diamond its 4-cycle
    assert len(factor2.members) == 10


def test_expand_two_parallel_edges_gives_six_cycle():
    g, d = prism_decomposition()
    member = EdgeSubset.of(d.base, frozenset({0, 1}))
    factor = expand(member, d)
    assert factor.members == {1, 2, 4, 5, 6, 7}
    assert is_two_factor(g, factor.members)
    # complement is one rung plus one edge in each triangle
    assert complement_matching(g, factor).members == {0, 3, 8}


def test_expand_routing_choices_differ_only_inside_the_diamond():
    g, d = build(TRIPLE_BOND, [1, 0, 0])
    member = EdgeSubset.of(d.base, frozenset({0, 1}))
    assert routings(member, d) == range(2)
    f0 = expand(member, d, 0)
    f1 = expand(member, d, 1)
    assert f0.members != f1.members
    assert is_two_factor(g, f0.members) and is_two_factor(g, f1.members)
    diamond_vertices = set(d.replacements[0].string.diamonds[0].vertices)
    for e in f0.members ^ f1.members:
        u, v = g.edges[e]
        assert u in diamond_vertices and v in diamond_vertices


def test_expand_rejects_odd_members_and_wrong_routing():
    g, d = prism_decomposition()
    single = EdgeSubset.of(d.base, frozenset({0}))
    with pytest.raises(DegreeViolation):
        expand(single, d)
    member = EdgeSubset.of(d.base, frozenset({0, 1}))
    g2, d2 = build(TRIPLE_BOND, [1, 0, 0])
    member2 = EdgeSubset.of(d2.base, frozenset({0, 1}))
    with pytest.raises(ValueError):
        expand(member2, d2, -1)
    with pytest.raises(ValueError):
        expand(member2, d2, 1 << 1)  # a bit above the one traversed diamond
    with pytest.raises(ValueError):
        expand(member, d, 1 << 0)  # selects a nonexistent diamond


@pytest.mark.parametrize(
    "base, lengths",
    [(K4, [1, 0, 0, 0, 0, 0]), (PRISM, [0, 1, 0, 0, 0, 2, 0, 0, 0])],
    ids=["K4", "prism"],
)
def test_expand_words_every_odd_member_by_its_first_odd_base_vertex(base, lengths):
    _, d = build(base, lengths)
    h = d.base
    odd = 0
    for mask in range(1 << h.m):
        degrees = [sum(mask >> e & 1 for e in h.incident(v)) for v in range(h.n)]
        v = next((v for v, dv in enumerate(degrees) if dv in (1, 3)), None)
        if v is None:
            continue
        odd += 1
        with pytest.raises(DegreeViolation) as exc:
            expand(EdgeSubset.of(h, _unmask(mask)), d)
        assert str(exc.value) == (
            f"base vertex {v} has degree {degrees[v]} in the member, expected 0 or 2"
        )
    assert odd == (1 << h.m) - (1 << h.m - h.n + 1)  # all but the cycle space


@pytest.mark.parametrize("k", [6, 60])
def test_a_lift_unmasks_one_host_mask_per_distinct_column(monkeypatch, k):
    # the entries taken where one column says are XORed together first, so one member,
    # alone or in every step of a walk, unmasks one host mask whatever the base's size
    g, d = build(random_base(k, 1), [1] * (3 * k // 2))
    member = EdgeSubset(d.base, _basis_masks(d.base, 1 << 40)[0])
    gadgets = expansion._Gadgets(d)
    unmask, calls = expansion._unmask, []
    monkeypatch.setattr(expansion, "_unmask", lambda mask: calls.append(mask) or unmask(mask))
    lifted = _mask(reference_lift(member, d, 0))
    for size in (1, 8):
        held = [(1 << size) - 1 if member.mask >> e & 1 else 0 for e in range(d.base.m)]
        calls.clear()
        columns, _ = gadgets.lift((held, size))
        assert len(calls) == 1
        assert columns == [(1 << size) - 1 if lifted >> e & 1 else 0 for e in range(g.m)]


def test_expansion_validity_every_member_every_routing():
    for h, lengths in ((TRIPLE_BOND, [1, 0, 0]), (TRIPLE_BOND, [1, 1, 0]), (K4, [1, 0, 0, 0, 0, 0])):
        g, d = build(h, lengths)
        for c in enumerate_cycle_space(d.base, 1 << 10):
            for r in routings(c, d):
                factor = expand(c, d, r)
                assert is_two_factor(g, factor.members)


def test_complement_matching_examples():
    # K4: the 4-cycle 0-1-3-2 leaves the opposite pair (0,3),(1,2)
    cycle = EdgeSubset.of(K4, frozenset({0, 1, 4, 5}))
    assert complement_matching(K4, cycle).members == {2, 3}
    # prism: the two triangles leave the three rungs
    both_triangles = EdgeSubset.of(PRISM, frozenset({0, 1, 2, 3, 4, 5}))
    assert complement_matching(PRISM, both_triangles).members == {6, 7, 8}
    with pytest.raises(DegreeViolation):
        complement_matching(PRISM, EdgeSubset.of(PRISM, frozenset({0})))
    # triangle 0-1-2 without its edge 1-2 leaves vertices 1 and 2 at degree 1
    with pytest.raises(DegreeViolation) as exc:
        complement_matching(PRISM, EdgeSubset.of(PRISM, frozenset({0, 1, 3, 4, 5})))
    assert str(exc.value) == "expansion is not a 2-factor at vertices [1, 2]"
    with pytest.raises(DegreeViolation) as exc:
        complement_matching(PRISM, EdgeSubset.of(K4, frozenset({0, 1, 4, 5})))
    assert str(exc.value) == "argument is not a 2-factor of the host"


def test_certify_k4():
    cert = certify(K4)
    assert cert.branch == "k4"
    assert len(cert.matchings) == 3
    assert cert.bound_ok and 3**12 == 531441 > 2**4
    assert verify_certificate(K4, cert)


def test_certify_ring_families():
    for d in range(2, 9):
        g = ring_of_diamonds(d)
        cert = certify(g)
        assert cert.branch == "ring"
        assert len(cert.matchings) == 2**d + 1
        assert verify_certificate(g, cert)
        # a ring's family is every one of its perfect matchings
        oracle = {m.sorted_tuple() for m in enumerate_perfect_matchings(g, 1 << 10)}
        assert set(cert.matchings) == oracle


def test_a_ring_family_is_its_idle_factor_then_its_walk():
    g = ring_of_diamonds(4)
    ring = classify(g).ring
    factors = family_factors(expansion._ring_factors(g, ring))
    # each diamond's 4-cycle: the edges from its ports to its internals
    cycles = [
        _mask(e for e, ends in enumerate(g.edges) if {*ends} & {*ports} and {*ends} & {*inside})
        for ports, inside in ((dia.ports, dia.internals) for dia in ring)
    ]
    assert len(factors) == 2**4 + 1
    assert factors[0] == sum(cycles)
    # then gray_walk's order: step j turns the diamond of j's lowest set bit
    for j, (a, b) in enumerate(pairwise(factors[1:]), 1):
        assert a ^ b == cycles[(j & -j).bit_length() - 1]


def test_certify_ring_branch_respects_the_cap(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(expansion, "CAP", 33)
    assert len(certify(ring_of_diamonds(5)).matchings) == 2**5 + 1 == 33
    with pytest.raises(CapExceeded) as exc:
        certify(ring_of_diamonds(6))
    assert (exc.value.required, exc.value.cap) == (2**6 + 1, 33)
    monkeypatch.undo()
    # 2^22 + 1 rows, one over the real cap: refused before any row is built
    path = tmp_path / "ring22.txt"
    path.write_text(serialize_graph(ring_of_diamonds(22)))
    start = time.perf_counter()
    assert main(["certify", str(path)]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: enumeration needs {2**22 + 1} items, cap is {expansion.CAP}\n"


def test_a_cap_past_the_decimal_digit_limit_is_worded_by_its_bit_length(capsys, tmp_path):
    # 2^15000 + 1 rows has 4516 decimal digits, past Python's default limit of 4300
    g = ring_of_diamonds(15000)
    message = f"enumeration needs at least 2^15000 items, cap is {expansion.CAP}"
    with pytest.raises(CapExceeded) as exc:
        certify(g)
    assert (exc.value.required, exc.value.cap) == (2**15000 + 1, expansion.CAP)
    assert str(exc.value) == message
    path = tmp_path / "ring15000.txt"
    path.write_text(serialize_graph(g))
    assert main(["certify", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


# (case id, count, text); pytest would name a case by str(count), past the digit limit
COUNT_TEXTS = (
    ("0", 0, "0"),
    ("2^22+1", 2**22 + 1, "4194305"),
    ("2^64-1", 2**64 - 1, "18446744073709551615"),
    ("2^64", 2**64, "2^64"),
    ("2^64+1", 2**64 + 1, "at least 2^64"),
    ("2^15000+1", 2**15000 + 1, "at least 2^15000"),
    ("2^15001", 2**15001, "2^15001"),
)


@pytest.mark.parametrize(
    "count, text", [case[1:] for case in COUNT_TEXTS], ids=[case[0] for case in COUNT_TEXTS]
)
def test_counts_from_2_to_the_64_are_worded_by_their_bit_length(count, text):
    assert _count_text(count) == text
    assert str(CapExceeded(count, count)) == f"enumeration needs {text} items, cap is {text}"


def test_certify_cycle_space_branch_size():
    # diamond-free: the certificate is the full 2^(k/2+1) family
    g, _ = build(K4, [0] * 6)
    cert = certify(g)
    assert cert.branch == "cycle-space"
    assert len(cert.matchings) == 2 ** (4 // 2 + 1) == 8
    assert count_perfect_matchings(g) == 8


def test_certify_long_branch_size():
    g, d0 = build(TRIPLE_BOND, [2, 1, 0])  # n=18, k=2 < n/6
    cert = certify(g)
    assert cert.branch == "long-2-factor"
    # the longest 2-factor of the base uses the length-2 and length-1 edges
    assert len(cert.matchings) == 2**3
    assert verify_certificate(g, cert)


def test_certify_generated_equals_deduped_on_corpus():
    # injectivity of the generating map: dedupe never removes anything
    for name, g in certify_corpus():
        d = classify(g)
        cert = certify(g)
        if cert.branch == "k4":
            expected = 3
        elif cert.branch == "ring":
            expected = 2 ** len(d.ring) + 1
        elif cert.branch == "cycle-space":
            expected = 2 ** (d.base.n // 2 + 1)
        else:
            lengths = {e: rep.length for e, rep in enumerate(d.replacements)}
            chosen = max_length_two_factor(d.base, lengths)
            expected = len(routings(chosen, d))
        assert len(cert.matchings) == expected, name
        # strictly increasing rows: sorted and distinct
        assert all(a < b for a, b in pairwise(cert.matchings)), name


def test_certificate_members_are_real_matchings():
    for name, g in certify_corpus():
        if g.n > 20:
            continue
        cert = certify(g)
        oracle = {m.members for m in enumerate_perfect_matchings(g, 1 << 20)}
        assert all(frozenset(row) in oracle for row in cert.matchings), name
        assert len(cert.matchings) <= len(oracle), name


def test_verify_certificate_catches_mutations():
    cert = certify(K4)
    assert certificate_problems(K4, cert) == []

    duplicated = Certificate(K4, cert.matchings + (cert.matchings[0],), 4, "k4", True)
    assert not verify_certificate(K4, duplicated)

    first = cert.matchings[0]
    damaged = Certificate(K4, (first[:1],) + cert.matchings[1:], 4, "k4", True)
    problems = certificate_problems(K4, damaged)
    assert any("degree" in p for p in problems)

    wrong_n = Certificate(K4, cert.matchings, 6, "k4", True)
    assert not verify_certificate(K4, wrong_n)

    bad_flag = Certificate(K4, cert.matchings, 4, "k4", False)
    assert any("bound_ok" in p for p in certificate_problems(K4, bad_flag))


def test_a_family_at_the_bound_is_rejected():
    # 4^12 = 2^24: four distinct perfect matchings of an n = 24 host miss the strict bound
    # by exactly one exponent step, so a checker testing count^13 would accept them
    g, _ = build(random_base(8, 0), [0] * 12)
    assert g.n == 24
    rows = tuple(m.sorted_tuple() for m in enumerate_perfect_matchings(g, 1 << 20)[:4])
    assert len(set(rows)) == 4
    assert certificate_problems(g, Certificate(g, rows, g.n, "cycle-space", True)) == [
        "bound fails: 4^12 <= 2^24",
        "bound_ok flag does not match the exact arithmetic",
    ]


def four_walk_values(monkeypatch):
    """Cut every Gray walk certify takes to its first 4 values, so a branch emits 4 rows."""
    walk = expansion._gray_columns

    def four(d):
        columns, size = walk(d)
        return [column & 15 for column in columns], min(size, 4)

    monkeypatch.setattr(expansion, "_gray_columns", four)


def test_certify_refuses_a_family_at_the_bound(monkeypatch):
    # 4^12 = 2^24: certify's own check, not certificate_problems, must refuse 4 rows on n = 24
    four_walk_values(monkeypatch)
    g, _ = build(random_base(8, 0), [0] * 12)
    with pytest.raises(BoundFailure) as exc:
        certify(g)
    assert str(exc.value).split("\n")[0] == (
        "certificate of 4 matchings misses the bound on n=24 (branch cycle-space)"
    )
    assert len(exc.value.dump.split("\n")) == 4


def test_certify_accepts_a_family_one_step_above_the_bound(monkeypatch):
    # 4^12 = 2^24 > 2^22, while 4^11 = 2^22 is not: the exponent is exactly 12
    four_walk_values(monkeypatch)
    g, _ = build(TRIPLE_BOND, [2, 1, 1])
    assert g.n == 22
    cert = certify(g)
    assert (cert.branch, len(cert.matchings), cert.bound_ok) == ("long-2-factor", 4, True)


@cache
def corpus_certificates():
    return tuple((g, certify(g)) for _, g in certify_corpus())


def mutated_certificate(draw, g, cert):
    """cert with a drawn sequence of edits to its rows, n and bound_ok."""
    rows = [list(row) for row in cert.matchings]
    n, bound_ok = cert.n, cert.bound_ok

    def index(seq, extra=0):
        return draw(st.integers(0, len(seq) - 1 + extra), label="index")

    edits = st.sampled_from(
        ("drop", "add", "replace", "repeat", "negative", "too large", "unsorted",
         "empty", "duplicate", "twin", "swap", "bool", "float", "str", "truncate", "n",
         "bound_ok")
    )
    for edit in draw(st.lists(edits, max_size=4), label="edits"):
        if edit == "n":
            n += draw(st.sampled_from((-2, -1, 1, 2)), label="n shift")
        elif edit == "bound_ok":
            bound_ok = not bound_ok
        elif edit == "empty":
            rows.insert(index(rows, 1), [])
        elif edit == "truncate":
            del rows[index(rows, 1):]
        elif not rows:
            continue
        elif edit == "duplicate":
            rows.insert(index(rows, 1), list(rows[index(rows)]))
        elif edit == "twin":  # the same ids in another order
            twin = draw(st.permutations(rows[index(rows)]), label="twin")
            rows.insert(index(rows, 1), twin)
        else:
            row = rows[index(rows)]
            if edit == "add":
                row.insert(index(row, 1), draw(st.integers(0, g.m - 1), label="id"))
            elif not row:
                continue
            elif edit == "drop":
                del row[index(row)]
            elif edit == "replace":
                row[index(row)] = draw(st.integers(0, g.m - 1), label="id")
            elif edit == "repeat":
                row.insert(index(row, 1), row[index(row)])
            elif edit == "negative":
                row[index(row)] = draw(st.integers(-g.m - 2, -1), label="id")
            elif edit == "too large":
                row[index(row)] = draw(st.integers(g.m, 2 * g.m + 2), label="id")
            elif edit == "swap":
                i, j = index(row), index(row)
                row[i], row[j] = row[j], row[i]
            elif edit == "bool":  # True == 1 and False == 0, as ids and as keys
                row[index(row)] = draw(st.booleans(), label="id")
            elif edit == "float":  # equal to its int and hashed alike, but no index
                i = index(row)
                row[i] = float(row[i])
            elif edit == "str":
                i = index(row)
                row[i] = str(row[i])
            else:
                row.reverse()
    return dataclasses.replace(cert, matchings=tuple(map(tuple, rows)), n=n, bound_ok=bound_ok)


def random_rows_certificate(draw):
    """Arbitrary rows, ids a little outside range(m) included, on a small random multigraph
    with loops and parallel edges."""
    n = draw(st.integers(0, 6), label="n")
    ends = st.integers(0, max(n - 1, 0))
    pairs = st.tuples(ends, ends)
    g = Multigraph(n, tuple(draw(st.lists(pairs, max_size=9 if n else 0), label="edges")))
    row = st.lists(st.integers(-1, g.m + 1), max_size=4).map(tuple)
    rows = tuple(draw(st.lists(row, max_size=6), label="rows"))
    cert_n = draw(st.sampled_from((n, n + 2)), label="certificate n")
    return g, Certificate(g, rows, cert_n, "k4", draw(st.booleans(), label="bound_ok"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_certificate_problems_agree_with_reference(data):
    if data.draw(st.booleans(), label="corpus"):
        g, cert = data.draw(st.sampled_from(corpus_certificates()), label="host")
        cert = mutated_certificate(data.draw, g, cert)
    else:
        g, cert = random_rows_certificate(data.draw)
    assert certificate_problems(g, cert) == reference_certificate_problems(g, cert)


@pytest.mark.parametrize("stray", [0.0, "0", None])
def test_a_non_integer_id_is_worded_not_raised(stray):
    g, cert = corpus_certificates()[0]
    first = (stray, *cert.matchings[0][1:])
    doctored = dataclasses.replace(cert, matchings=(first, *cert.matchings[1:]))
    problems = certificate_problems(g, doctored)
    assert problems[0] == "matching 0 has a non-integer edge index"
    assert problems == reference_certificate_problems(g, doctored)
    assert not verify_certificate(g, doctored)


def test_a_reversed_repeat_of_the_first_row_is_a_duplicate():
    g, cert = next((g, c) for g, c in corpus_certificates() if c.branch == "cycle-space")
    twin = dataclasses.replace(cert, matchings=cert.matchings + (cert.matchings[0][::-1],))
    problems = certificate_problems(g, twin)
    assert problems == [f"matching {len(cert.matchings)} duplicates an earlier row"]
    assert problems == reference_certificate_problems(g, twin)


def test_rows_that_are_no_matching_are_told_apart_by_their_ids_not_their_coded_sums():
    # on the prism, rung 7 has twice rung 6's end mask and twice its id bit, so edge 6
    # taken twice has the coded sum of edge 7: only a perfect row is keyed by that sum
    cert = Certificate(PRISM, ((7,), (6, 6)), PRISM.n, "cycle-space", False)
    problems = certificate_problems(PRISM, cert)
    assert not [p for p in problems if "duplicates" in p]
    assert problems == reference_certificate_problems(PRISM, cert)


def counted_row_checks(monkeypatch):
    """Record each call to the degree scan that decides and words a failed row."""
    calls = []
    subset_degrees = graphs.subset_degrees
    for module in (graphs, expansion):
        monkeypatch.setattr(
            module, "subset_degrees", lambda *args: calls.append("degrees") or subset_degrees(*args)
        )
    return calls


def one_edit_certificates(g, cert):
    """cert made invalid by one edit, by name: every such edit leaves the accept pass."""
    rows, first, m = cert.matchings, cert.matchings[0], g.m

    def first_row(row):
        return dataclasses.replace(cert, matchings=(row,) + rows[1:])

    return {
        "dropped id": first_row(first[1:]),
        "repeated id": first_row(first[:1] + first[:-1]),
        # list indexing would read id e - m as id e
        "negative id": first_row((first[0] - m,) + first[1:]),
        "too large id": first_row((m,) + first[1:]),
        "exact duplicate": dataclasses.replace(cert, matchings=rows + (first,)),
        "reordered duplicate": dataclasses.replace(cert, matchings=rows + (first[::-1],)),
        "n": dataclasses.replace(cert, n=cert.n + 2),
        "bound_ok": dataclasses.replace(cert, bound_ok=False),
    }


NOT_A_MATCHING = ("dropped id", "repeated id")  # the edits above that break a row's matching


def test_valid_certificates_are_accepted_without_a_row_test(monkeypatch):
    calls = counted_row_checks(monkeypatch)
    for g, cert in corpus_certificates():
        assert verify_certificate(g, cert), cert.branch
        assert calls == [], cert.branch
    for g, cert in corpus_certificates():
        for edit, broken in one_edit_certificates(g, cert).items():
            calls.clear()
            problems = certificate_problems(g, broken)
            assert problems and problems == reference_certificate_problems(g, broken), edit
            # the per-row loop words the problem, and counts the degrees of no row but the
            # one edit that leaves a row no perfect matching
            assert calls == (["degrees"] if edit in NOT_A_MATCHING else []), edit


def test_a_longer_row_with_every_vertex_bit_is_not_a_matching():
    # on K4, edges 0, 0 and 2 have end masks 3 + 3 + 9 = 15, every vertex bit, in 3 > n/2 ids
    cert = certify(K4)
    broken = dataclasses.replace(cert, matchings=((0, 0, 2),) + cert.matchings[1:])
    assert sum(1 << u | 1 << v for u, v in (K4.edges[e] for e in broken.matchings[0])) == 15
    problems = certificate_problems(K4, broken)
    assert problems == ["matching 0 is not a perfect matching: vertex 0 has degree 3"]
    assert problems == reference_certificate_problems(K4, broken)


def test_expansion_bijection_when_diamond_free():
    for h in (TRIPLE_BOND, K4, K33):
        g, d = build(h, [0] * h.m)
        members = enumerate_cycle_space(d.base, 1 << 20)
        lifted = {expand(c, d).members for c in members}
        assert len(lifted) == len(members)
        assert lifted == set(recursive_iter_two_factors(g))


def test_verify_3ec_remark_true_cases():
    assert verify_3ec_remark(PRISM)
    tri_k4, _ = build(K4, [0] * 6)
    assert verify_3ec_remark(tri_k4)
    g18, _ = build(K33, [0] * 9)
    assert verify_3ec_remark(g18)
    assert count_perfect_matchings(PRISM) == 2 ** (6 // 6 + 1)
    assert count_perfect_matchings(tri_k4) == 2 ** (12 // 6 + 1)


def test_verify_3ec_remark_preconditions():
    with pytest.raises(ValueError):
        verify_3ec_remark(K4)  # excluded explicitly
    with pytest.raises(ValueError):
        verify_3ec_remark(ring_of_diamonds(2))  # only 2-edge-connected
    with pytest.raises(ValueError):
        verify_3ec_remark(PETERSEN)  # not claw-free


def remark_outcome(remark, g):
    """remark(g), or the type and text of the error it raises on a host it does not accept."""
    try:
        return remark(g)
    except (GraphError, ValueError) as exc:
        return type(exc), str(exc)


def test_verify_3ec_remark_agrees_with_reference_on_corpus():
    accepted = set()
    for name, g in certify_corpus() + cubic_corpus_small():
        outcome = remark_outcome(verify_3ec_remark, g)
        assert outcome == remark_outcome(reference_3ec_remark, g), name
        if isinstance(outcome, bool):
            accepted.add(name)
    assert accepted == {"prism", "tri-k4", "k33-0"}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(k=st.sampled_from((2, 4, 6, 8, 10)), seed=st.integers(0, 1 << 16))
def test_verify_3ec_remark_agrees_with_reference_on_random_hosts(k, seed):
    g = three_edge_connected_host(k, seed)  # n = 3k <= 30
    assert verify_3ec_remark(g) is reference_3ec_remark(g) is True


def test_verify_3ec_remark_rejects_a_missing_or_foreign_matching(monkeypatch):
    g, _ = build(K4, [0] * 6)
    oracle = expansion.enumerate_perfect_matchings
    assert verify_3ec_remark(g)
    # one matching fewer: the count misses 2^(n/6+1)
    monkeypatch.setattr(expansion, "enumerate_perfect_matchings", lambda h, cap: oracle(h, cap)[1:])
    assert not verify_3ec_remark(g)
    # the right count, but one row whose complement is no lifted member
    foreign = EdgeSubset.of(g, frozenset(range(g.n // 2)))
    assert not is_perfect_matching(g, foreign.members)
    monkeypatch.setattr(
        expansion, "enumerate_perfect_matchings", lambda h, cap: [foreign] + oracle(h, cap)[1:]
    )
    assert not verify_3ec_remark(g)


def test_verify_3ec_remark_rejects_a_certificate_missing_a_row(monkeypatch):
    g, _ = build(K4, [0] * 6)
    full = expansion.certify

    def one_row_short(h):
        cert = full(h)
        return dataclasses.replace(cert, matchings=cert.matchings[1:])

    assert verify_3ec_remark(g)
    monkeypatch.setattr(expansion, "certify", one_row_short)
    assert not verify_3ec_remark(g)


def test_verify_3ec_remark_above_the_cap_answers_before_enumerating(monkeypatch, capsys, tmp_path):
    base = random_base(44, 1)
    g, _ = build(base, [0] * base.m)  # n = 132 and 3-edge-connected: 2^23 matchings
    assert 2 ** (g.n // 6 + 1) > expansion.CAP
    monkeypatch.setattr(
        expansion, "enumerate_perfect_matchings", lambda h, cap: pytest.fail("oracle ran")
    )
    start = time.perf_counter()
    # too large to decide is no failure of the remark
    with pytest.raises(CapExceeded) as exc:
        verify_3ec_remark(g)
    assert time.perf_counter() - start < 1
    assert (exc.value.required, exc.value.cap) == (2**23, expansion.CAP)
    path = tmp_path / "3ec-132.txt"
    path.write_text(serialize_graph(g))
    assert main(["verify-3ec", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_verify_3ec_remark_is_false_when_the_enumeration_overflows_below_the_cap(monkeypatch):
    # 2^(n/6+1) <= CAP, so an enumeration past CAP means the count really differs
    g, _ = build(K4, [0] * 6)

    def overflow(h, cap):
        raise CapExceeded(cap + 1, cap)

    monkeypatch.setattr(expansion, "enumerate_perfect_matchings", overflow)
    assert verify_3ec_remark(g) is False


def test_expand_matches_reference_lift_on_corpus():
    for name, g in certify_corpus():
        d = classify(g)
        if d.kind != KIND_EXPANDED:
            continue
        for c in enumerate_cycle_space(d.base, 1 << 10):
            for r in routings(c, d):
                assert expand(c, d, r).members == reference_lift(c, d, r), name


def reference_certificate_rows(g, d):
    """The certificate rows certify should emit, lifted by the reference."""
    if 6 * d.base.n >= g.n:
        lifts = [reference_lift(c, d, 0) for c in enumerate_cycle_space(d.base, 1 << 10)]
    else:
        lengths = {e: rep.length for e, rep in enumerate(d.replacements)}
        chosen = max_length_two_factor(d.base, lengths)
        lifts = [reference_lift(chosen, d, r) for r in routings(chosen, d)]
    full = frozenset(range(g.m))
    return tuple(sorted({tuple(sorted(full - f)) for f in lifts}))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_certify_agrees_with_reference_lift_and_oracle(data):
    k = data.draw(st.sampled_from((2, 4, 6, 8)), label="k")
    h = random_base(k, seed=data.draw(st.integers(0, 1 << 16), label="seed"))
    # each diamond adds 4 vertices; n = 3k + 4 * diamonds stays <= 28
    edges = st.integers(0, h.m - 1)
    picks = data.draw(st.lists(edges, max_size=(28 - 3 * k) // 4), label="diamond edges")
    lengths = [picks.count(e) for e in range(h.m)]
    g, _ = build(h, lengths)
    cert = certify(g)
    assert cert.matchings == reference_certificate_rows(g, classify(g))
    oracle = {m.sorted_tuple() for m in enumerate_perfect_matchings(g, 1 << 20)}
    assert set(cert.matchings) <= oracle
    assert verify_certificate(g, cert)


def family_factors(family, count=None):
    """The first count factor masks (all by default) of a family, read off its columns."""
    columns, size = family
    bits = range(size if count is None else min(size, count))
    return [_mask(e for e, column in enumerate(columns) if column >> j & 1) for j in bits]


def cycle_space_factors(d, count=None):
    """The first count factors (all by default) of d's cycle-space family, in walk order."""
    family = expansion._Gadgets(d).cycle_space(_basis_masks(d.base, expansion.CAP))
    return family_factors(family, count)


def lifts_along_the_walk(d):
    """The cycle-space lifts of d's base from its family's columns and from reference_lift,
    the tests' independent lift, member by member."""
    walk = cycle_space_factors(d)
    members = enumerate_cycle_space(d.base, 1 << 10)
    return walk, [_mask(reference_lift(c, d, 0)) for c in members]


def assert_walk_and_certify_agree_with_reference(g, name):
    d = classify(g)
    walk, lifted = lifts_along_the_walk(d)
    assert walk == lifted, name
    # certify takes one branch: the long one when the base has fewer than n/6 vertices
    cert = certify(g)
    assert cert.branch == ("cycle-space" if 6 * d.base.n >= g.n else "long-2-factor"), name
    assert cert.matchings == reference_certificate_rows(g, d), name


def test_lift_walk_equals_lift_on_corpus():
    for name, g in certify_corpus():
        if classify(g).kind == KIND_EXPANDED:
            assert_walk_and_certify_agree_with_reference(g, name)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_lift_walk_equals_lift_on_random_hosts(data):
    k = data.draw(st.sampled_from((2, 4, 6, 8, 10, 12, 14)), label="k")
    h = random_base(k, seed=data.draw(st.integers(0, 1 << 16), label="seed"))
    length = st.sampled_from((0, 0, 0, 1, 2))
    lengths = data.draw(st.lists(length, min_size=h.m, max_size=h.m), label="lengths")
    g, d = build(h, lengths)
    if d.total_length() <= 6:  # the long branch emits 2^(diamonds it crosses) rows
        assert_walk_and_certify_agree_with_reference(g, lengths)
    else:
        walk, lifted = lifts_along_the_walk(d)
        assert walk == lifted


@pytest.mark.parametrize("d", range(9))
def test_gray_columns_are_the_gray_walk_read_by_flip(d):
    # with flip i the single edge i, step j of the walk is the mask of the flips it has in
    columns, size = expansion._gray_columns(d)
    assert size == 1 << d
    assert family_factors((columns, size)) == list(gray_walk(0, [1 << i for i in range(d)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_a_walk_family_holds_the_gray_walk_in_order(data):
    m = data.draw(st.integers(0, 12), label="m")
    masks = st.integers(0, (1 << m) - 1)
    start = data.draw(masks, label="start")
    flips = data.draw(st.lists(masks, max_size=6), label="flips")
    family = expansion._walk_family(m, start, flips)
    assert family_factors(family) == list(gray_walk(start, flips))
    factors = data.draw(st.lists(masks, max_size=20), label="factors")
    assert family_factors(expansion._columns(m, factors)) == factors


def first_member_with_no_state(d, members, missing):
    """The DegreeViolation text for the first of members, in walk order, with no state at
    some base vertex once the states missing, (vertex, member edges at it) pairs, are
    gone: worded by the first such vertex, its degree counted off d.base.incident."""
    for c in members:
        for v in range(d.base.n):
            at = [e for e in d.base.incident(v) if c >> e & 1]
            if (v, _mask(at)) in missing:
                return f"base vertex {v} has degree {len(at)} in the member, expected 0 or 2"
    return None


def test_the_cycle_space_lift_names_the_first_member_with_no_state():
    # every pair of entered states deleted: the lift raises for the lowest member that
    # meets either, at the first base vertex where that member meets one
    g, d, members = cycle_space_host()
    entered = [
        (v, state) for v, inc, states in expansion._Gadgets(d).vertex for state in states if state
    ]
    assert len(entered) == 3 * d.base.n
    named = set()
    for missing in combinations(entered, 2):
        gadgets = expansion._Gadgets(d)
        for v, state in missing:
            del gadgets.vertex[v][2][state]
        expected = first_member_with_no_state(d, members, missing)
        with pytest.raises(DegreeViolation) as walked:
            gadgets.cycle_space(_basis_masks(d.base, expansion.CAP))
        assert str(walked.value) == expected
        named.add(expected)
    assert len(named) == d.base.n  # every base vertex is the one named for some pair


def test_certify_walks_each_string_once(monkeypatch):
    # classify asks each port of the 9 diamonds for its edge out once; the lift tables
    # read every string's order off the connectors classify recorded and ask none
    built, _ = build(TRIPLE_BOND, [4, 3, 2])
    g = parse_graph(serialize_graph(built))  # a fresh object, as parsed from a document
    ports = []
    leaving = structure._leaving
    monkeypatch.setattr(
        structure, "_leaving", lambda h, p, dia: ports.append(p) or leaving(h, p, dia)
    )
    assert certify(g).branch == "long-2-factor"
    assert len(ports) == len(set(ports)) == 18


def with_swapped_corners(d, e):
    """d with the corners of base edge e exchanged: each end now names the other end's corner."""
    reps = list(d.replacements)
    reps[e] = dataclasses.replace(reps[e], corners=reps[e].corners[::-1])
    return dataclasses.replace(d, replacements=tuple(reps))


def test_corrupted_decomposition_raises_instead_of_emitting_rows(monkeypatch, capsys, tmp_path):
    g, _ = build(TRIPLE_BOND, [2, 1, 0])  # long-2-factor branch, the factor leaves out edge 2
    good = classify(g)
    lengths = {e: rep.length for e, rep in enumerate(good.replacements)}
    chosen = max_length_two_factor(good.base, lengths)
    assert chosen.members == {0, 1}
    bad = with_swapped_corners(good, 2)

    with pytest.raises(DegreeViolation):
        expand(chosen, bad)
    single = EdgeSubset.of(bad.base, frozenset({0}))
    with pytest.raises(DegreeViolation):
        expand(single, bad)

    monkeypatch.setattr(expansion, "classify", lambda host: bad)
    with pytest.raises(DegreeViolation):
        certify(g)
    path = tmp_path / "host.txt"
    path.write_text(serialize_graph(g))
    assert main(["certify", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: expansion is not a 2-factor")


def test_k4_rows_are_its_pairs_of_disjoint_edges_read_off_its_edge_list(monkeypatch):
    monkeypatch.setattr(Multigraph, "edge_between", lambda *args: pytest.fail("edge lookup"))
    rng = random.Random(14)
    for _ in range(20):
        order = rng.sample(range(6), 6)
        g = relabelled(K4, rng.sample(range(4), 4), [(e, rng.randrange(2)) for e in order])
        # the three vertex pairings, each edge found by its ends
        by_ends = {frozenset(ends): e for e, ends in enumerate(g.edges)}
        pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        expected = sorted(tuple(sorted(by_ends[frozenset(p)] for p in pair)) for pair in pairings)
        cert = certify(g)
        assert (cert.branch, list(cert.matchings)) == ("k4", expected)


@pytest.mark.parametrize(
    "g, vertex_sets, bad",
    [
        # diamond 0 recorded with ports 0 and 1, internals 2 and 3: the edges between
        # them, 0-2, 1-2 and 1-3, are taken for its 4-cycle, so the idle factor, the
        # first the ring lifts, leaves vertices 0 and 3 with degree 1
        (ring_of_diamonds(3), ((0, 1), (2, 3)), [0, 3]),
    ],
    ids=["ring-3"],
)
def test_wrong_ports_after_classify_raise_instead_of_emitting_rows(
    monkeypatch, capsys, tmp_path, g, vertex_sets, bad
):
    d = classify(g)
    path = tmp_path / "host.txt"
    path.write_text(serialize_graph(g))
    first = dataclasses.replace(d.ring[0], ports=vertex_sets[0], internals=vertex_sets[1])
    doctored = dataclasses.replace(d, ring=(first, *d.ring[1:]))
    monkeypatch.setattr(expansion, "classify", lambda host: doctored)
    message = f"expansion is not a 2-factor at vertices {bad}"
    with pytest.raises(DegreeViolation) as exc:
        certify(g)
    assert str(exc.value) == message
    assert main(["certify", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"internal error: {message}\n")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_certify_on_relabelled_rings_emits_every_matching(data):
    # a ring's joins are read off its ports' incidence, so vertex and edge order must not
    # matter: every relabelling keeps the family of all 2^d + 1 matchings
    ring = ring_of_diamonds(data.draw(st.integers(2, 6), label="diamonds"))
    vertex_order = data.draw(st.permutations(range(ring.n)), label="vertex order")
    edge_order = data.draw(st.permutations(range(ring.m)), label="edge order")
    ends = st.lists(st.integers(0, 1), min_size=ring.m, max_size=ring.m)
    swaps = data.draw(ends, label="ends swapped")
    g = relabelled(ring, vertex_order, list(zip(edge_order, swaps)))
    cert = certify(g)
    assert cert.branch == "ring"
    oracle = sorted(m.sorted_tuple() for m in enumerate_perfect_matchings(g, 1 << 10))
    assert list(cert.matchings) == oracle


def test_certify_looks_no_edge_up_by_its_ends(monkeypatch):
    lookups = []
    edge_between = Multigraph.edge_between
    monkeypatch.setattr(
        Multigraph, "edge_between", lambda h, u, v: lookups.append((u, v)) or edge_between(h, u, v)
    )
    for name, g in certify_corpus():
        assert verify_certificate(g, certify(g)), name
    assert lookups == []
    # the wrapper does count: the tests' reference lift finds every edge by its ends
    g, d = build(TRIPLE_BOND, [1, 0, 0])
    reference_lift(EdgeSubset.of(d.base, frozenset()), d, 0)
    assert lookups


def old_degree_scan(g, factor):
    """Host vertices of degree other than 2 in factor, one incidence mask per vertex: the
    scan that checked every lifted factor before rows were checked in one pass."""
    mask = sum(1 << e for e in factor)
    return [v for v in range(g.n) if (mask & sum(1 << e for e in g.incident(v))).bit_count() != 2]


def with_corrupted_gadgets(monkeypatch, corrupt):
    """Make certify and expand build their gadget tables through corrupt(tables)."""

    class Corrupted(expansion._Gadgets):
        def __init__(self, d):
            super().__init__(d)
            corrupt(self)

    monkeypatch.setattr(expansion, "_Gadgets", Corrupted)


def long_branch_host(pair):
    g, d = build(TRIPLE_BOND, [2, 1, 0])  # long-2-factor branch over the first two base edges
    chosen = EdgeSubset.of(d.base, frozenset({0, 1}))
    # the edge a corrupted table toggles: a triangle edge at base vertex 0, which the
    # lift of chosen takes for two of the three pairs and leaves out for the third
    stray = g.edge_between(*(d.triangles[0][i] for i in pair))
    return g, d, chosen, stray


TRIANGLE_PAIRS = pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])


@TRIANGLE_PAIRS
def test_corrupted_flip_mask_names_the_vertices_of_the_old_scan(monkeypatch, pair):
    g, d, chosen, stray = long_branch_host(pair)
    first = min(e for e in chosen.members if d.replacements[e].length)
    routing = 1  # crosses the head diamond of base edge first by bit 1, every other by bit 0
    expected = old_degree_scan(g, reference_lift(chosen, d, routing) ^ {stray})
    assert expected == sorted(g.edges[stray])

    def corrupt(tables):
        tables.flips[first][0] ^= 1 << stray

    with_corrupted_gadgets(monkeypatch, corrupt)
    message = f"expansion is not a 2-factor at vertices {expected}"
    expand(chosen, d)  # the flip is not taken
    with pytest.raises(DegreeViolation) as exc:
        expand(chosen, d, routing)
    assert str(exc.value) == message
    monkeypatch.setattr(expansion, "classify", lambda host: d)
    with pytest.raises(DegreeViolation) as exc:
        certify(g)
    assert str(exc.value) == message


@TRIANGLE_PAIRS
def test_corrupted_triangle_state_names_the_vertices_of_the_old_scan(monkeypatch, pair):
    g, d, chosen, stray = long_branch_host(pair)
    routing = 0
    expected = old_degree_scan(g, reference_lift(chosen, d, routing) ^ {stray})
    assert expected == sorted(g.edges[stray])

    def corrupt(tables):
        _, inc, states = tables.vertex[0]
        states[0b11 & inc] ^= 1 << stray  # the state of base vertex 0 under chosen

    with_corrupted_gadgets(monkeypatch, corrupt)
    message = f"expansion is not a 2-factor at vertices {expected}"
    with pytest.raises(DegreeViolation) as exc:
        expand(chosen, d, routing)
    assert str(exc.value) == message
    monkeypatch.setattr(expansion, "classify", lambda host: d)
    with pytest.raises(DegreeViolation) as exc:
        certify(g)
    assert str(exc.value) == message


def cycle_space_host():
    """A diamond-free host on the cycle-space branch, and its base's members in walk order."""
    g, d = build(K4, [0] * 6)
    return g, d, [_mask(c.members) for c in enumerate_cycle_space(d.base, 1 << 10)]


def assert_certify_raises_on_first(monkeypatch, capsys, tmp_path, g, d, corrupt, takes, stray):
    """certify, the CLI and the cycle-space lift under corrupted tables, where takes(member)
    says whether a member's lift takes the corrupted entry that stray toggles: the walk
    holds the reference lifts with stray toggled in exactly those, and the first raises."""
    members = [_mask(c.members) for c in enumerate_cycle_space(d.base, 1 << 10)]
    member = next(c for c in members if takes(c))
    assert member != 0  # the walk takes the corrupted entry only after step 0
    chosen = EdgeSubset.of(d.base, _unmask(member))
    expected = old_degree_scan(g, reference_lift(chosen, d, 0) ^ {stray})
    assert expected == sorted(g.edges[stray])
    with_corrupted_gadgets(monkeypatch, corrupt)
    walk, lifted = lifts_along_the_walk(d)
    assert walk == [f ^ (1 << stray if takes(c) else 0) for c, f in zip(members, lifted)]
    # expand lifts one member, so every entry it takes shares column 1: the stray edge is
    # still toggled, not ORed in where another taken entry holds it
    for c, f in zip(members, lifted):
        if takes(c):
            with pytest.raises(DegreeViolation) as alone:
                expand(EdgeSubset(d.base, c), d)
            bad = old_degree_scan(g, set(_unmask(f ^ 1 << stray)))
            assert str(alone.value) == f"expansion is not a 2-factor at vertices {bad}"
        else:
            assert expand(EdgeSubset(d.base, c), d).mask == f
    message = f"expansion is not a 2-factor at vertices {expected}"
    monkeypatch.setattr(expansion, "classify", lambda host: d)
    with pytest.raises(DegreeViolation) as exc:
        certify(g)
    assert str(exc.value) == message
    path = tmp_path / "host.txt"
    path.write_text(serialize_graph(g))
    assert main(["certify", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"internal error: {message}\n")


@TRIANGLE_PAIRS
def test_corrupted_entered_triangle_state_on_the_cycle_space_branch(
    monkeypatch, capsys, tmp_path, pair
):
    g, d, members = cycle_space_host()
    inc = _mask(d.base.incident(0))
    first = next(c for c in members if c & inc)  # member 0 leaves base vertex 0 idle
    stray = g.edge_between(*(d.triangles[0][i] for i in pair))

    def corrupt(tables):
        tables.vertex[0][2][first & inc] ^= 1 << stray

    def takes(c):
        return c & inc == first & inc

    assert_certify_raises_on_first(monkeypatch, capsys, tmp_path, g, d, corrupt, takes, stray)


@TRIANGLE_PAIRS
def test_corrupted_walk_mask_on_the_cycle_space_branch(monkeypatch, capsys, tmp_path, pair):
    g, d, members = cycle_space_host()
    e = 0
    first = next(c for c in members if c >> e & 1)
    # a triangle edge at one end of e: the lift of first takes it for two of the three
    # pairs, so an OR of the corrupted walk mask would hide the stray edge
    v = d.base.edges[e][0]
    stray = g.edge_between(*(d.triangles[v][i] for i in pair))

    def corrupt(tables):
        walk, idle = tables.edges[e]
        tables.edges[e] = (walk ^ 1 << stray, idle)

    def takes(c):
        return c >> e & 1

    assert_certify_raises_on_first(monkeypatch, capsys, tmp_path, g, d, corrupt, takes, stray)


def test_missing_triangle_state_raises_what_lift_raises(monkeypatch):
    g, d, members = cycle_space_host()
    inc = _mask(d.base.incident(0))
    first = next(c for c in members if c & inc)

    def corrupt(tables):
        del tables.vertex[0][2][first & inc]

    with_corrupted_gadgets(monkeypatch, corrupt)
    gadgets = expansion._Gadgets(d)
    with pytest.raises(DegreeViolation) as lifted:
        gadgets.lift(expansion._columns(d.base.m, [first]))
    assert str(lifted.value) == "base vertex 0 has degree 2 in the member, expected 0 or 2"
    with pytest.raises(DegreeViolation) as walked:
        gadgets.cycle_space(_basis_masks(d.base, expansion.CAP))
    assert str(walked.value) == str(lifted.value)
    with pytest.raises(DegreeViolation) as expanded:
        expand(EdgeSubset.of(d.base, _unmask(first)), d)
    assert str(expanded.value) == str(lifted.value)
    monkeypatch.setattr(expansion, "classify", lambda host: d)
    with pytest.raises(DegreeViolation) as certified:
        certify(g)
    assert str(certified.value) == str(lifted.value)


@cache
def corpus_factor_pools():
    """Per certify_corpus() host, the 2-factors whose complements its certificate lists:
    the factors its certify family lifts, each once."""
    pools = []
    for g, cert in corpus_certificates():
        full = (1 << g.m) - 1
        pools.append((g, tuple(full ^ _mask(row) for row in cert.matchings)))
    return tuple(pools)


def rows_of(g, factors):
    """expansion._rows on the factor masks factors, as one family."""
    return expansion._rows(g, expansion._columns(g.m, factors))


REPEATED_ROW = "a row repeats: the lift to 2-factors is not injective"


def reference_family_rows(g, factors):
    """What _rows gives for a family: the first bad factor's DegreeViolation, then the
    repeated-row StructureViolation if two factors are equal, else the rows sorted."""
    rows = list(reference_rows(g, factors))
    if len(set(rows)) < len(rows):
        raise StructureViolation(REPEATED_ROW)
    return sorted(rows)


def rows_or_error(rows):
    """The rows rows() returns, as a list, or the type and message of the error it raises."""
    try:
        return list(rows())
    except GraphError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_rows_return_and_raise_what_the_old_generator_did(data):
    g, pool = data.draw(st.sampled_from(corpus_factor_pools()), label="host")
    repeats = st.lists(st.sampled_from(pool), max_size=2 * len(pool))
    factors = data.draw(repeats | st.permutations(pool), label="factors")
    # one stray edge leaves the complement n/2 +- 1 ids; two can leave it n/2
    strays = st.lists(st.integers(0, g.m - 1), max_size=2, unique=True)
    for e in data.draw(strays, label="stray edges") if factors else ():
        i = data.draw(st.integers(0, len(factors) - 1), label="factor")
        factors[i] ^= 1 << e
    expected = rows_or_error(lambda: reference_family_rows(g, factors))
    assert rows_or_error(lambda: rows_of(g, factors)) == expected


def test_a_longer_complement_with_every_vertex_bit_is_not_a_row():
    # on the prism, edges 0, 2, 7 and 8 have end masks 3 + 6 + 18 + 36 = 63, every vertex
    # bit, in 4 > n/2 ids: the factor they complement is no 2-factor
    row = (0, 2, 7, 8)
    assert sum(1 << u | 1 << v for u, v in (PRISM.edges[e] for e in row)) == 63
    factor = ((1 << PRISM.m) - 1) ^ _mask(row)
    expected = rows_or_error(lambda: list(reference_rows(PRISM, [factor])))
    assert expected[0] is DegreeViolation
    assert rows_or_error(lambda: rows_of(PRISM, [factor])) == expected


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_rows_are_ordered_by_their_ids_not_by_their_masks(order):
    # on K4, the pairing of edges 0 = {0, 1} and 5 = {2, 3} has the smaller ids and the
    # larger mask: 33 against 18 for the pairing of edges 1 and 4
    rows = ((0, 5), (1, 4))
    masks = [_mask(row) for row in rows]
    assert masks[0] > masks[1]
    full = (1 << K4.m) - 1
    assert rows_of(K4, [full ^ masks[i] for i in order]) == rows


def test_rows_of_a_graph_with_no_vertices_are_one_empty_row():
    # n/2 = 0 ids per row: zip over zero copies of the id stream would yield no row
    assert rows_of(Multigraph(0, ()), [0]) == ((),)
    assert rows_of(Multigraph(0, ()), []) == ()


def test_rows_holding_edge_0_or_the_top_edge_are_read_at_the_full_width():
    # every bit string has m characters, whether or not its row holds edge m - 1
    checked = 0
    for g, pool in corpus_factor_pools():
        rows = rows_of(g, pool)
        assert rows == tuple(sorted(reference_rows(g, pool)))
        tops = {g.m - 1 in row for row in rows}
        checked += {0 in row for row in rows} == tops == {True, False}
    assert checked


def test_rows_of_a_family_spanning_slices_are_the_old_rows():
    base = random_base(28, seed=14)
    g, d = build(base, [0] * base.m)
    factors = cycle_space_factors(d, 3 * expansion._SLICE + 7)
    random.Random(14).shuffle(factors)
    assert len(factors) % expansion._SLICE
    assert rows_of(g, factors) == tuple(sorted(reference_rows(g, factors)))


def test_a_complement_of_another_popcount_raises_what_the_old_generator_did():
    g, pool = corpus_factor_pools()[0]
    for e in (0, g.m - 1):
        factors = [*pool, pool[-1] ^ 1 << e, *pool]  # the complement has n/2 +- 1 ids
        expected = rows_or_error(lambda: list(reference_rows(g, factors)))
        assert expected[0] is DegreeViolation
        assert rows_or_error(lambda: rows_of(g, factors)) == expected


LOOPED = Multigraph(2, ((0, 0), (0, 1), (1, 1)))  # cubic: a loop counts twice at its end
THETA = Multigraph(2, ((0, 1),) * 3)


@pytest.mark.parametrize(
    "row", [(0,), (2,), (0, 2), (1,)], ids=["loop at 0", "loop at 1", "both loops", "edge 1"]
)
def test_rows_of_a_looped_cubic_multigraph_are_what_the_old_generator_gave(row):
    # a loop appears once among its end's edges: the row of one loop covers one of the two
    # vertices, and the row of both loops covers each once in n/2 + 1 ids
    factor = ((1 << LOOPED.m) - 1) ^ _mask(row)
    expected = rows_or_error(lambda: list(reference_rows(LOOPED, [factor])))
    assert (expected == [(1,)]) == (row == (1,))
    assert rows_or_error(lambda: rows_of(LOOPED, [factor])) == expected


def test_rows_of_the_theta_graph_are_its_three_edges():
    factors = [((1 << THETA.m) - 1) ^ 1 << e for e in (2, 0, 1)]
    assert rows_of(THETA, factors) == ((0,), (1,), (2,))


def column_check_cases(g: Multigraph):
    """Rows over g's edges as 0/1 lists: each perfect matching of g with no edge, one edge
    or two edges toggled, the matchings themselves first."""
    pairs = combinations(range(g.m), g.n // 2)
    matchings = [_mask(p) for p in pairs if is_perfect_matching(g, p)]
    toggles = [0, *(1 << e for e in range(g.m)), *(_mask(p) for p in combinations(range(g.m), 2))]
    masks = dict.fromkeys(mask ^ t for t in toggles for mask in matchings)
    return [[mask >> e & 1 for e in range(g.m)] for mask in masks], len(matchings)


@pytest.mark.parametrize(
    "g", [PRISM, K4, K33, LOOPED, THETA], ids=["prism", "K4", "K33", "looped", "theta"]
)
def test_the_column_check_accepts_exactly_the_rows_covering_each_vertex_once(g):
    # with no popcount check in front: a row holding a vertex twice must fail as well
    def covers(rows):
        columns = [_mask(j for j, row in enumerate(rows) if row[e]) for e in range(g.m)]
        return not expansion._not_once(columns, (1 << len(rows)) - 1, g._incidence)

    rows, good = column_check_cases(g)
    once = [all(sum(row[e] for e in g.incident(v)) == 1 for v in range(g.n)) for row in rows]
    assert once[:good] == [True] * good and not all(once)
    assert [covers([row]) for row in rows] == once
    for row in (row for row, ok in zip(rows, once) if not ok):
        for at in range(good + 1):
            assert not covers(rows[:at] + [row] + rows[at:good])
    assert covers(rows[:good])


@cache
def spanning_family() -> tuple[Multigraph, tuple[int, ...]]:
    """Criterion 14's host and 2.5 slices' worth of its cycle-space factors, shuffled."""
    base = random_base(28, seed=14)
    g, d = build(base, [0] * base.m)
    factors = cycle_space_factors(d, 2 * expansion._SLICE + expansion._SLICE // 2)
    random.Random(14).shuffle(factors)
    return g, tuple(factors)


@pytest.mark.parametrize("place", [0, 1, 2], ids=["first", "middle", "last"])
def test_a_non_matching_complement_in_any_slice_raises_what_the_old_generator_did(place):
    # the bad row sits a quarter of the way into slice place, the first rows' slice being 0
    g, factors = spanning_family()
    rows = sorted(reference_rows(g, factors))
    assert len(rows) // expansion._SLICE == 2
    row = rows[place * expansion._SLICE + expansion._SLICE // 4]
    # trading its last edge for the nearest other leaves n/2 ids that meet at a vertex
    last = row[-1]
    swap = min((e for e in range(g.m) if e not in row), key=lambda e: abs(e - last))
    bad = tuple(sorted((*row[:-1], swap)))
    assert place == bisect_left(rows, bad) // expansion._SLICE
    family = list(factors)
    family.insert(len(family) // 3, ((1 << g.m) - 1) ^ _mask(bad))
    expected = rows_or_error(lambda: list(reference_rows(g, family)))
    assert expected[0] is DegreeViolation
    assert rows_or_error(lambda: rows_of(g, family)) == expected


def test_rows_that_pass_the_column_check_skip_the_per_factor_loop(monkeypatch):
    g, factors = spanning_family()
    expected = tuple(sorted(reference_rows(g, factors)))
    assert len(expected) > 2 * expansion._SLICE

    def no_degrees(h, members):
        raise AssertionError("the per-factor loop ran on rows that pass")

    monkeypatch.setattr(expansion, "subset_degrees", no_degrees)
    assert rows_of(g, factors) == expected


def test_each_branch_builds_its_own_family_alone(monkeypatch):
    calls = []
    for name in ("max_length_two_factor", "_basis_masks", "_Gadgets"):
        real = getattr(expansion, name)
        monkeypatch.setattr(
            expansion, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    g, _ = build(TRIPLE_BOND, [2, 1, 0])  # k = 2 < n/6 = 3
    assert certify(g).branch == "long-2-factor"
    assert calls == ["_Gadgets", "max_length_two_factor"]

    def overflow(h, cap):
        calls.append("_basis_masks")
        raise CapExceeded(cap + 1, cap)

    # the cycle-space branch: the cap refuses before the tables are built or the long
    # branch runs
    calls.clear()
    monkeypatch.setattr(expansion, "_basis_masks", overflow)
    with pytest.raises(CapExceeded):
        certify(build(K4, [0] * 6)[0])
    assert calls == ["_basis_masks"]


def test_a_lift_that_is_not_injective_raises_instead_of_dropping_rows(
    monkeypatch, capsys, tmp_path
):
    g, d = build(K4, [3] * 6)  # n = 84: the long branch routes a 4-cycle through 12 diamonds
    path = tmp_path / "host.txt"
    path.write_text(serialize_graph(g))
    cert = certify(g)
    assert (g.n, cert.branch, len(cert.matchings)) == (84, "long-2-factor", 2**12)

    crossed = min(max_length_two_factor(d.base, dict(enumerate(d.lengths()))).members)

    def corrupt(tables):
        # one diamond's two routings become one, so every row comes twice
        tables.flips[crossed][0] = 0

    with_corrupted_gadgets(monkeypatch, corrupt)
    with pytest.raises(StructureViolation) as exc:
        certify(g)
    assert str(exc.value) == REPEATED_ROW
    assert main(["certify", str(path)]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"internal error: {REPEATED_ROW}\n")
