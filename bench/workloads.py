"""The four workloads: seeded inputs, request pipelines and output checks.

Set-up turns a seed into graph documents with the library's own generators
(``random_base``, ``build``, ``figure1_graph``) and ``serialize_graph``.  A
request then starts from its document, so the code under test sees only the
generated text.  Every function takes the loaded library as ``lib`` and looks
each call up through its module at call time, which is what lets the tracer
rebind those names.

The sizes below are chosen so that the work of one pass depends on the seed
as little as possible: certificate row counts are fixed by the ladder, the
structure hosts have exactly the stated n, and several hosts of each size
average out how much the backtracking oracle's search varies between graphs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

# base vertex counts k of the diamond-free hosts (n = 3k, 2^(k/2+1) rows each)
CYCLE_LADDER_K = (16, 16, 16, 16, 18, 18, 18, 20, 20, 22)
# (k, diamonds): every diamond lies on one 2-factor of the base and 3k < 4 * diamonds,
# so certify takes the long-2-factor branch and emits exactly 2^diamonds rows
STRING_LADDER = ((4, 10), (6, 10), (8, 10), (10, 10), (12, 10), (14, 11)) * 2
# exact host sizes; each must be a multiple of 4 (see structure_large)
STRUCTURE_N = (5000, 20000, 80000)
# base vertex counts of the 3-edge-connected diamond-free hosts (n = 3k)
ORACLE_K = (8, 8, 8, 12, 12, 12, 12) + (16,) * 12
# middle diamonds of the bridged figure-1 hosts (9 perfect matchings each)
FIGURE1_SEGMENTS = (0, 3, 8)
# verify_3ec_remark enumerates every 2-factor: 0.4 s at n=24, 4.5 s at n=30, 72 s at n=36
REMARK_MAX_N = 24


@dataclass(frozen=True)
class Request:
    """One generated host.

    kind selects the expectation: the certify branch on the certify ladders,
    "expanded" on structure-large, "3ec" or "bridged" on oracle-check.
    expected is the exact row count (certify ladders), diamond count
    (structure-large) or perfect-matching count (oracle-check).
    """

    kind: str
    doc: str
    n: int
    expected: int


@dataclass(frozen=True)
class Outcome:
    """What one request did: the seconds of its pipeline steps, the
    verify_certificate step's share, distinct verified certificate rows,
    serialised outputs, and the first failed check (None when all held)."""

    seconds: float
    verify_s: float
    rows: int
    outputs: tuple[str, ...]
    problem: str | None


@dataclass(frozen=True)
class Workload:
    generate: Callable[[object, random.Random], Iterator[Request]]
    request: Callable[[object, Request], Outcome]
    certifies: bool  # whether `clawmatch certify` applies to its first host


def _problem(*checks: tuple[bool, str]) -> str | None:
    return next((message for ok, message in checks if not ok), None)


def _connected_without(h, cut: set[int]) -> bool:
    adj: list[list[int]] = [[] for _ in range(h.n)]
    for e, (u, v) in enumerate(h.edges):
        if e not in cut:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == h.n


def _three_edge_connected(h) -> bool:
    # brute force over edge pairs, kept apart from the library's predicate under test
    return all(_connected_without(h, set(pair)) for pair in itertools.combinations(range(h.m), 2))


def _two_factor(h) -> list[int]:
    """Edge ids of one 2-factor of a cubic base: the complement of a perfect matching."""
    matched = [False] * h.n
    chosen: list[int] = []

    def extend(v: int) -> bool:
        while v < h.n and matched[v]:
            v += 1
        if v == h.n:
            return True
        for e in h.incident(v):
            o = h.other_end(e, v)
            if not matched[o]:
                matched[v] = matched[o] = True
                chosen.append(e)
                if extend(v + 1):
                    return True
                chosen.pop()
                matched[v] = matched[o] = False
        return False

    if not extend(0):
        raise ValueError("base has no perfect matching")
    return [e for e in range(h.m) if e not in chosen]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def cycle_ladder(lib, rng: random.Random) -> Iterator[Request]:
    for k in CYCLE_LADDER_K:
        base = lib.structure.random_base(k, _seed(rng))
        g, _ = lib.structure.build(base, [0] * base.m)
        rows = 1 << (base.m - base.n + 1)  # every member of the base's cycle space
        yield Request("cycle-space", lib.formats.serialize_graph(g), g.n, rows)


def string_ladder(lib, rng: random.Random) -> Iterator[Request]:
    for k, diamonds in STRING_LADDER:
        base = lib.structure.random_base(k, _seed(rng))
        lengths = [0] * base.m
        for e in rng.choices(_two_factor(base), k=diamonds):
            lengths[e] += 1
        g, _ = lib.structure.build(base, lengths)
        # the longest 2-factor traverses every diamond: one row per routing
        yield Request("long-2-factor", lib.formats.serialize_graph(g), g.n, 1 << diamonds)


def structure_large(lib, rng: random.Random) -> Iterator[Request]:
    for n in STRUCTURE_N:
        k = n // 6 // 4 * 4  # a multiple of 4 keeps n - 3k divisible by 4
        diamonds = (n - 3 * k) // 4
        base = lib.structure.random_base(k, _seed(rng))
        lengths = [0] * base.m
        for e in rng.choices(range(base.m), k=diamonds):
            lengths[e] += 1
        g, _ = lib.structure.build(base, lengths)
        yield Request("expanded", lib.formats.serialize_graph(g), g.n, diamonds)


def oracle_check(lib, rng: random.Random) -> Iterator[Request]:
    for k in ORACLE_K:
        base = lib.structure.random_base(k, _seed(rng))
        while not _three_edge_connected(base):
            base = lib.structure.random_base(k, _seed(rng))
        g, _ = lib.structure.build(base, [0] * base.m)
        yield Request("3ec", lib.formats.serialize_graph(g), g.n, 1 << (g.n // 6 + 1))
    for segments in FIGURE1_SEGMENTS:
        g = lib.structure.figure1_graph(segments)
        yield Request("bridged", lib.formats.serialize_graph(g), g.n, 9)


def _timed(laps: list[float], fn, *args):
    """Call fn(*args), appending its duration to laps."""
    start = perf_counter()
    result = fn(*args)
    laps.append(perf_counter() - start)
    return result


def certify_request(lib, req: Request) -> Outcome:
    """The `clawmatch certify` pipeline: parse, certify, serialise, verify."""
    laps: list[float] = []
    g = _timed(laps, lib.formats.parse_graph, req.doc)
    cert = _timed(laps, lib.expansion.certify, g)
    text = _timed(laps, lib.formats.serialize_certificate, cert)
    ok = _timed(laps, lib.expansion.verify_certificate, g, cert)
    count = len(cert.matchings)
    problem = _problem(
        (ok, "verify_certificate rejected the certificate"),
        (count**12 > 2**g.n, f"{count}^12 <= 2^{g.n}"),
        (cert.branch == req.kind, f"branch {cert.branch}, expected {req.kind}"),
        (count == req.expected, f"{count} rows, expected {req.expected}"),
    )
    return Outcome(sum(laps), laps[-1], count if ok else 0, (text,), problem)


def structure_request(lib, req: Request) -> Outcome:
    """Recognise with classify, then construct the same host again with build."""
    laps: list[float] = []
    g = _timed(laps, lib.formats.parse_graph, req.doc)
    cut = _timed(laps, lib.graphs.bridges, g)
    claw_free = _timed(laps, lib.graphs.is_claw_free, g)
    d = _timed(laps, lib.structure.classify, g)
    text = _timed(laps, lib.formats.serialize_decomposition, d)
    rebuilt, _ = _timed(laps, lib.structure.build, d.base, d.lengths())
    problem = _problem(
        (not cut.members, "host has a bridge"),
        (claw_free, "host has a claw"),
        (d.total_length() == req.expected, f"{d.total_length()} diamonds, expected {req.expected}"),
        (rebuilt == g, "build from the recovered base and lengths does not reproduce the host"),
    )
    return Outcome(sum(laps), 0.0, 0, (text,), problem)


def _check_predicates(lib, g) -> tuple[bool, ...]:
    """What `clawmatch check` computes, in its order."""
    graphs = lib.graphs
    return (
        g.is_simple(),
        graphs.is_cubic(g),
        graphs.is_claw_free(g),
        not graphs.bridges(g).members,
        graphs.is_connected(g),
        graphs.is_two_edge_connected(g),
        graphs.is_three_edge_connected(g),
    )


def _refuses(lib, g) -> bool:
    try:
        lib.expansion.certify(g)
    except lib.errors.NotTwoEdgeConnected:
        return True
    return False


def _oracle_rows(lib, g) -> set[tuple[int, ...]]:
    return {m.sorted_tuple() for m in lib.counting.enumerate_perfect_matchings(g, 1 << 22)}


def oracle_request(lib, req: Request) -> Outcome:
    """`clawmatch check`, `count`, then `certify --verify-oracle` (and `verify-3ec` on small hosts)."""
    laps: list[float] = []
    g = _timed(laps, lib.formats.parse_graph, req.doc)
    predicates = _timed(laps, _check_predicates, lib, g)
    count = _timed(laps, lib.counting.count_perfect_matchings, g)
    if req.kind == "bridged":
        refused = _timed(laps, _refuses, lib, g)
        problem = _problem(
            (predicates == (True, True, True, False, True, False, False),
             f"check predicates {predicates}"),
            (count == req.expected, f"{count} perfect matchings, expected {req.expected}"),
            (refused, "certify did not refuse the bridged host with NotTwoEdgeConnected"),
        )
        return Outcome(sum(laps), 0.0, 0, (), problem)

    cert = _timed(laps, lib.expansion.certify, g)
    text = _timed(laps, lib.formats.serialize_certificate, cert)
    ok = _timed(laps, lib.expansion.verify_certificate, g, cert)
    verify_s = laps[-1]
    oracle = _timed(laps, _oracle_rows, lib, g)
    remark = _timed(laps, lib.expansion.verify_3ec_remark, g) if g.n <= REMARK_MAX_N else True
    rows = len(cert.matchings)
    problem = _problem(
        (all(predicates), f"check predicates {predicates}"),
        (count == req.expected, f"{count} perfect matchings, expected {req.expected}"),
        (ok, "verify_certificate rejected the certificate"),
        (rows**12 > 2**g.n, f"{rows}^12 <= 2^{g.n}"),
        (len(oracle) == count, f"oracle enumerates {len(oracle)}, counts {count}"),
        (all(row in oracle for row in cert.matchings), "certificate row outside the oracle"),
        (remark, "verify_3ec_remark returned false"),
    )
    return Outcome(sum(laps), verify_s, rows if ok else 0, (text,), problem)


WORKLOADS = {
    "cycle-ladder": Workload(cycle_ladder, certify_request, True),
    "string-ladder": Workload(string_ladder, certify_request, True),
    "structure-large": Workload(structure_large, structure_request, False),
    "oracle-check": Workload(oracle_check, oracle_request, True),
}
