"""Independent brute-force oracles used as ground truth in the tests.

These deliberately share no code with the library paths they check:
bridges and 3-edge-connectivity by remove-and-test, claws and
diamonds by exhaustive vertex scans, cycle space and matchings by
filtering all 2^m edge subsets, isomorphism by permutation search, and
the lift of a base member by looking every host edge up by its ends
instead of through gadget tables, and certificate rows by a full
per-vertex degree list each.

The reference_* functions are earlier versions of library code, kept
unchanged so that tests can hold the current versions to the same output
(reference_rows, the row generator, to the same errors as well).
has_edge (once a Multigraph method), is_perfect_matching, is_two_factor and
is_even_subgraph are predicates the library once exported and no library
code called.
find_diamonds and find_strings are the diamond and string finders the
library once exported, over the private scan and walk classify runs; they
list what classify would see without its 2-edge-connectivity check.
recursive_iter_two_factors is the tests' 2-factor oracle: the vertex-order
backtracking search the library ran before it read its 2-factors off the
perfect matchings (in a cubic graph they are the complements), one nested
generator per taken edge, so it shares no code with the matching search.
"""

import io
from itertools import combinations, islice, permutations
from collections import Counter
from typing import Iterator

from clawmatch import (
    KIND_EXPANDED,
    Claw,
    CycleBasis,
    Decomposition,
    DegreeViolation,
    Diamond,
    DiamondString,
    EdgeReplacement,
    EdgeSubset,
    Multigraph,
    NoTwoFactor,
    NotClawFree,
    NotCubic,
    ParseError,
    StructureViolation,
    classify,
    count_perfect_matchings,
    enumerate_cycle_space,
    find_claw,
    is_cubic,
    is_three_edge_connected,
    is_two_edge_connected,
    subset_degrees,
)
from clawmatch.formats import _is_decimal
from clawmatch.graphs import _mask, _unmask
from clawmatch.structure import _group_strings, _leaving, _scan_diamonds, _verify_cover


def has_edge(g: Multigraph, u: int, v: int) -> bool:
    """Whether some edge joins u and v; False for an id outside range(n)."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        return False
    return v in g.neighbors(u) if u != v else any(a == b == u for a, b in g.edges)


def component_count(g: Multigraph, banned=frozenset()) -> int:
    adj = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if i in banned or u == v:
            continue
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = 0
    for root in range(g.n):
        if seen[root]:
            continue
        comps += 1
        stack = [root]
        seen[root] = True
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


def brute_bridges(g: Multigraph) -> frozenset:
    """Remove-and-test over every edge."""
    base = component_count(g)
    return frozenset(
        e
        for e in range(g.m)
        if g.edges[e][0] != g.edges[e][1]
        and component_count(g, frozenset((e,))) > base
    )


def brute_three_edge_connected(g: Multigraph) -> bool:
    """At least 2 vertices, connected, and still connected after removing any 1 or 2 edges."""
    if g.n < 2 or component_count(g) != 1:
        return False
    return all(component_count(g, frozenset((e,))) == 1 for e in range(g.m)) and all(
        component_count(g, frozenset(pair)) == 1 for pair in combinations(range(g.m), 2)
    )


def brute_claw_centers(g: Multigraph) -> list:
    """All (center, leaves) tuples of induced claws, by exhaustive scan."""
    out = []
    for v in range(g.n):
        nb = g.neighbors(v)
        for a, b, c in combinations(nb, 3):
            if not (has_edge(g, a, b) or has_edge(g, a, c) or has_edge(g, b, c)):
                out.append((v, (a, b, c)))
    return out


def brute_diamond_vertex_sets(g: Multigraph) -> set:
    """All 4-sets inducing K4 minus exactly one edge."""
    out = set()
    for quad in combinations(range(g.n), 4):
        present = [(a, b) for a, b in combinations(quad, 2) if has_edge(g, a, b)]
        if len(present) == 5:
            out.add(quad)
    return out


def is_perfect_matching(g: Multigraph, members) -> bool:
    """Every vertex has degree 1 in the edges of members."""
    return all(d == 1 for d in subset_degrees(g, members))


def is_two_factor(g: Multigraph, members) -> bool:
    """Every vertex has degree 2 in the edges of members (a loop counts twice)."""
    return all(d == 2 for d in subset_degrees(g, members))


def is_even_subgraph(h: Multigraph, s: EdgeSubset) -> bool:
    """True iff every vertex has even degree in s (a loop contributes 2)."""
    if s.host != h:
        raise ValueError("subset is not hosted on this graph")
    return all(d % 2 == 0 for d in subset_degrees(h, s.members))


def brute_even_subsets(g: Multigraph) -> set:
    """All edge subsets with every vertex degree even (the cycle space)."""
    out = set()
    for r in range(g.m + 1):
        for sub in combinations(range(g.m), r):
            if all(d % 2 == 0 for d in subset_degrees(g, sub)):
                out.add(frozenset(sub))
    return out


def brute_perfect_matchings(g: Multigraph) -> set:
    out = set()
    for r in range(g.m + 1):
        for sub in combinations(range(g.m), r):
            if is_perfect_matching(g, sub):
                out.add(frozenset(sub))
    return out


def brute_two_factors(g: Multigraph) -> set:
    out = set()
    for r in range(g.m + 1):
        for sub in combinations(range(g.m), r):
            if is_two_factor(g, sub):
                out.add(frozenset(sub))
    return out


def edge_multiset(g: Multigraph) -> Counter:
    return Counter((u, v) if u <= v else (v, u) for u, v in g.edges)


def brute_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Permutation search; fine for n <= 8."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    target = edge_multiset(g2)
    for perm in permutations(range(g1.n)):
        mapped = Counter(
            (perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u])
            for u, v in g1.edges
        )
        if mapped == target:
            return True
    return False


def decomposes_into_cycles(g: Multigraph, members) -> bool:
    """Repeatedly extract closed trails until no edge is left."""
    remaining = set(members)
    while remaining:
        e0 = min(remaining)
        u, v = g.edges[e0]
        remaining.remove(e0)
        if u == v:
            continue  # a loop is a cycle by itself
        cur = v
        while cur != u:
            options = [
                e
                for e in g.incident(cur)
                if e in remaining and g.edges[e][0] != g.edges[e][1]
            ]
            if not options:
                return False  # stuck: not an edge-disjoint union of cycles
            e = min(options)
            remaining.remove(e)
            cur = g.other_end(e, cur)
    return True


def reference_lift(member, d, routing) -> frozenset:
    """Host edge ids of the 2-factor lifting an even base member under a routing.

    Walks the decomposition directly: every triangle, connector and diamond
    edge is found with edge_between, one base vertex and base edge at a time.
    Bit i of the int routing routes the i-th diamond met on the traversed
    base edges, by edge id and each string from its head.
    """
    h, g = d.base, d.graph
    deg = subset_degrees(h, member.members)
    if any(dv not in (0, 2) for dv in deg):
        raise ValueError("member is not an even subgraph with degrees 0 or 2")
    picked = set()
    for v in range(h.n):
        a, b, c = d.triangles[v]
        if deg[v] == 0:
            picked.update((g.edge_between(a, b), g.edge_between(a, c), g.edge_between(b, c)))
        else:
            used = [e for e in h.incident(v) if e in member.members]
            c1, c2 = (d.corner(e, v) for e in used)
            (third,) = set(d.triangles[v]) - {c1, c2}
            picked.update((g.edge_between(c1, third), g.edge_between(third, c2)))
    slot = 0
    for e in range(h.m):
        rep = d.replacements[e]
        if e in member.members:
            picked.update(rep.connectors)
            if rep.string:
                for entry, exit_port, s, t in reference_string_passages(g, rep.string):
                    if (routing >> slot) & 1 == 0:
                        walk = ((entry, s), (s, t), (t, exit_port))
                    else:
                        walk = ((entry, t), (t, s), (s, exit_port))
                    picked.update(g.edge_between(u, w) for u, w in walk)
                    slot += 1
        elif rep.string:
            for dia in rep.string.diamonds:
                p, q = dia.ports
                s, t = dia.internals
                picked.update(g.edge_between(u, w) for u, w in ((p, s), (s, q), (q, t), (t, p)))
    return frozenset(picked)


def reference_certificate_problems(g: Multigraph, cert) -> list:
    """certificate_problems as it was before rows were checked with end-vertex bitmasks:
    a range test per id and a subset_degrees scan per row.  One rule came later, as in
    the library: a row with an id that is not an int is worded and skipped."""
    problems: list[str] = []
    if cert.n != g.n:
        problems.append(f"certificate n={cert.n} does not match the graph n={g.n}")
    seen: set[tuple[int, ...]] = set()
    for idx, row in enumerate(cert.matchings):
        if any(not isinstance(e, int) for e in row):
            problems.append(f"matching {idx} has a non-integer edge index")
            continue
        if any(e < 0 or e >= g.m for e in row):
            problems.append(f"matching {idx} has an out-of-range edge index")
            continue
        deg = subset_degrees(g, row)
        bad = next((v for v, dv in enumerate(deg) if dv != 1), None)
        if bad is not None:
            problems.append(
                f"matching {idx} is not a perfect matching: vertex {bad} has degree {deg[bad]}"
            )
        key = tuple(sorted(row))
        if key in seen:
            problems.append(f"matching {idx} duplicates an earlier row")
        seen.add(key)
    count = len(seen)
    bound_holds = count**12 > 2**g.n
    if not bound_holds:
        problems.append(f"bound fails: {count}^12 <= 2^{g.n}")
    if cert.bound_ok != bound_holds:
        problems.append("bound_ok flag does not match the exact arithmetic")
    return problems


def reference_parse_graph(text: str) -> Multigraph:
    """formats.parse_graph as it was before its edge lines checked their endpoint fields
    inline: _is_decimal on every header and endpoint field."""
    header = None
    edges = []
    lineno = 1
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if header is None:
            if parts[0] != "p" or len(parts) != 3:
                raise ParseError(lineno, "expected header 'p <n> <m>'")
            if not (_is_decimal(parts[1]) and _is_decimal(parts[2])):
                raise ParseError(lineno, "header counts must be integers")
            n, m = int(parts[1]), int(parts[2])
            if n < 0 or m < 0:
                raise ParseError(lineno, "header counts must be nonnegative")
            header = (n, m)
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError(lineno, "expected edge line 'e <u> <v>'")
        if not (_is_decimal(parts[1]) and _is_decimal(parts[2])):
            raise ParseError(lineno, "edge endpoints must be integers")
        u, v = int(parts[1]), int(parts[2])
        if not (0 <= u < header[0] and 0 <= v < header[0]):
            raise ParseError(lineno, f"endpoint out of range: ({u}, {v}) with n={header[0]}")
        if len(edges) == header[1]:
            raise ParseError(lineno, f"more than the declared {header[1]} edges")
        edges.append((u, v))
    if header is None:
        raise ParseError(lineno, "missing header 'p <n> <m>'")
    if len(edges) != header[1]:
        raise ParseError(lineno, f"expected {header[1]} edges, found {len(edges)}")
    return Multigraph(header[0], tuple(edges))


def reference_iter_perfect_matchings(g: Multigraph) -> Iterator[frozenset[int]]:
    """counting._iter_perfect_matchings as it was before it ran on an explicit stack:
    one nested generator per matched edge.

    Backtracking on the lowest-id unmatched vertex, incident edges in id order.

    Loops never belong to a matching; parallel edges count separately.
    """
    matched = [False] * g.n
    chosen: list[int] = []

    def rec(start: int) -> Iterator[frozenset[int]]:
        v = start
        while v < g.n and matched[v]:
            v += 1
        if v == g.n:
            yield frozenset(chosen)
            return
        for e in g.incident(v):
            u, w = g.edges[e]
            if u == w:
                continue
            o = w if u == v else u
            if matched[o]:
                continue
            matched[v] = matched[o] = True
            chosen.append(e)
            yield from rec(v + 1)
            chosen.pop()
            matched[v] = matched[o] = False

    yield from rec(0)


def reference_iter_two_factors(g: Multigraph) -> Iterator[frozenset[int]]:
    """counting's 2-factor search as it was before it ran on an explicit stack, and
    before it searched vertex by vertex: edges decided in id order, one nested
    generator per edge.

    All spanning subgraphs with every degree exactly 2 (loops count twice).
    """
    if any(d < 2 for d in g.degrees()):
        return
    deg = [0] * g.n
    rem = [0] * g.n  # undecided degree still available at each vertex
    for u, v in g.edges:
        rem[u] += 1
        rem[v] += 1
    chosen: list[int] = []

    def feasible(v: int) -> bool:
        return deg[v] <= 2 and deg[v] + rem[v] >= 2

    def rec(i: int) -> Iterator[frozenset[int]]:
        if i == g.m:
            if all(d == 2 for d in deg):
                yield frozenset(chosen)
            return
        u, v = g.edges[i]
        step = 2 if u == v else 1
        rem[u] -= step
        rem[v] -= step if u != v else 0
        # include edge i
        deg[u] += step
        deg[v] += step if u != v else 0
        if feasible(u) and feasible(v):
            chosen.append(i)
            yield from rec(i + 1)
            chosen.pop()
        deg[u] -= step
        deg[v] -= step if u != v else 0
        # exclude edge i
        if feasible(u) and feasible(v):
            yield from rec(i + 1)
        rem[u] += step
        rem[v] += step if u != v else 0

    yield from rec(0)


def recursive_iter_two_factors(g: Multigraph) -> Iterator[frozenset[int]]:
    """counting's vertex-order 2-factor search, which it ran until it read 2-factors
    off the perfect matchings, with one nested generator per taken edge.

    Backtracking on the lowest-id vertex with room (degree below 2), incident
    edges in id order; a vertex's second edge comes after its first, and a loop
    needs both of its vertex's places.
    """
    if any(d < 2 for d in g.degrees()):
        return
    room = [2] * g.n
    chosen: list[int] = []

    def rec(v: int, after: int) -> Iterator[frozenset[int]]:
        while v < g.n and room[v] == 0:
            v += 1
        if v == g.n:
            yield frozenset(chosen)
            return
        for e in g.incident(v):
            if e <= after:
                continue
            u, w = g.edges[e]
            o = w if u == v else u
            if room[o] < (2 if u == w else 1):
                continue
            room[u] -= 1
            room[w] -= 1
            chosen.append(e)
            # while v has room, its next edge comes after e
            yield from rec(v, e if room[v] else -1)
            chosen.pop()
            room[u] += 1
            room[w] += 1

    yield from rec(0, -1)


def reference_max_length_two_factor(h: Multigraph, lengths) -> EdgeSubset:
    """counting.max_length_two_factor as it was before it minimised one integer weight
    over the matchings: the length as a score, then a sorted-tuple tie-break.

    A 2-factor of cubic bridgeless h maximizing the total edge length.

    Found by enumerating perfect matchings and complementing; ties go to
    the lexicographically smallest edge tuple.  The maximizer always
    reaches ceil(2/3 of the total length): averaging over a fractional
    3-edge-coloring puts 2/3 of the mass on some 2-factor, and the max
    dominates the average.
    """
    if not is_cubic(h):
        raise ValueError("host must be cubic for the complement to be a 2-factor")
    all_edges = frozenset(range(h.m))
    best: frozenset[int] | None = None
    best_key: tuple[int, ...] | None = None
    best_score = -1
    for mset in reference_iter_perfect_matchings(h):
        factor = all_edges - mset
        score = sum(lengths.get(e, 0) for e in factor)
        key = tuple(sorted(factor))
        if score > best_score or (score == best_score and key < best_key):
            best, best_key, best_score = factor, key, score
    if best is None:
        raise NoTwoFactor("host has no perfect matching, hence no 2-factor")
    total = sum(lengths.get(e, 0) for e in range(h.m))
    # the averaging bound is only guaranteed on bridgeless hosts
    if is_two_edge_connected(h) and best_score < -(-2 * total // 3):
        raise StructureViolation(
            f"longest 2-factor has length {best_score}, below 2/3 of the total {total}"
        )
    return EdgeSubset.of(h, best)


def reference_rows(g: Multigraph, factors) -> Iterator[tuple[int, ...]]:
    """expansion._rows as it was before it returned the rows sorted and distinct: a
    generator that checks each factor mask as the source gives it and yields the edge ids
    of its complement, the first factor that is not a 2-factor raising DegreeViolation.
    Each factor is decided by its own degree count over g.edges, a loop counting twice."""
    for factor in factors:
        deg = [0] * g.n
        for e, (u, v) in enumerate(g.edges):
            if factor >> e & 1:
                deg[u] += 1
                deg[v] += 1
        bad = [v for v, dv in enumerate(deg) if dv != 2]
        if bad:
            raise DegreeViolation(f"expansion is not a 2-factor at vertices {bad}")
        yield tuple(e for e in range(g.m) if not factor >> e & 1)


def reference_3ec_remark(g: Multigraph, *, cap: int = 1 << 22) -> bool:
    """expansion.verify_3ec_remark as it was before it compared against matching
    complements: a separate count, then a search for every 2-factor.  It lifts with
    reference_lift, not the library's gadget tables.

    Check the exact count 2^(n/6+1) and its mechanism on a 3-edge-connected host.

    The mechanism: such a graph has no diamonds, and lifting the base's
    cycle space is a bijection onto the 2-factors of g.  K4 is excluded
    by precondition.
    """
    g.ensure_simple()
    if not is_cubic(g):
        raise ValueError("host must be cubic")
    claw = find_claw(g)
    if claw is not None:
        raise ValueError(f"host must be claw-free, found claw at {claw.center}")
    if not is_three_edge_connected(g):
        raise ValueError("host must be 3-edge-connected")
    if g.n == 4:
        raise ValueError("K4 is excluded from the remark")

    if g.n % 6:
        return False
    if count_perfect_matchings(g) != 2 ** (g.n // 6 + 1):
        return False
    if _scan_diamonds(g)[0]:
        return False
    d = classify(g)
    if d.kind != KIND_EXPANDED or d.total_length() != 0:
        return False
    members = enumerate_cycle_space(d.base, cap)
    complements = set(reference_rows(g, (_mask(reference_lift(c, d, 0)) for c in members)))
    if len(complements) != len(members):
        return False
    factor_cap = max(cap, 2 * len(members))
    factors = list(islice(recursive_iter_two_factors(g), factor_cap + 1))
    if len(factors) > factor_cap:
        return False
    every_edge = frozenset(range(g.m))
    return complements == {tuple(sorted(every_edge - f)) for f in factors}


def reference_degrees(g: Multigraph) -> tuple[int, ...]:
    """Multigraph.degrees as it was before it counted in one pass over the edges."""
    return tuple(g.degree(v) for v in range(g.n))


def reference_is_simple(g: Multigraph) -> bool:
    """Multigraph.is_simple by a scan with tuple keys; the library counts int keys instead."""
    seen = set()
    for u, v in g.edges:
        if u == v:
            return False
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def reference_bridges(g: Multigraph) -> EdgeSubset:
    """graphs.bridges as it was before the flat-stack DFS and the separate lowpoint sweep:
    one (vertex, entry edge, incident-edge iterator) frame per open vertex."""
    disc = [-1] * g.n
    low = [0] * g.n
    found: list[int] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(g.incident(root)))]
        while stack:
            v, entry_edge, it = stack[-1]
            advanced = False
            for e in it:
                if e == entry_edge:
                    continue
                u, w = g.edges[e]
                if u == w:
                    continue
                o = w if u == v else u
                if disc[o] == -1:
                    disc[o] = low[o] = timer
                    timer += 1
                    stack.append((o, e, iter(g.incident(o))))
                    advanced = True
                    break
                low[v] = min(low[v], disc[o])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        found.append(entry_edge)
    return EdgeSubset.of(g, frozenset(found))


def reference_cut_forest(g: Multigraph):
    """graphs._cut_forest as it was before the DFS took the lowpoints as it walked: the
    same DFS, then a pass over every edge for the lowpoints, then the reverse-preorder sweep."""
    edges = g.edges
    incidence = g._incidence
    other = [u ^ v for u, v in edges]
    disc = [-1] * g.n
    parent_edge = [-1] * g.n
    order: list[int] = []
    roots = 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        roots += 1
        stack = [root, -1]
        push = stack.append
        while stack:
            e = stack.pop()
            v = stack.pop()
            if disc[v] >= 0:
                continue
            disc[v] = len(order)
            order.append(v)
            parent_edge[v] = e
            for f in incidence[v]:
                w = other[f] ^ v  # a loop gives w == v, already discovered
                if disc[w] < 0:
                    push(w)
                    push(f)
    low = disc[:]
    for f, (u, v) in enumerate(edges):
        if u == v or parent_edge[u] == f or parent_edge[v] == f:
            continue
        du, dv = disc[u], disc[v]
        if du < dv:
            if du < low[v]:
                low[v] = du
        elif dv < low[u]:
            low[u] = dv
    found: list[int] = []
    for v in reversed(order):
        e = parent_edge[v]
        if e < 0:
            continue
        lv = low[v]
        if lv == disc[v]:
            found.append(e)
        p = other[e] ^ v
        if lv < low[p]:
            low[p] = lv
    return order, parent_edge, other, (roots, tuple(found))


def reference_find_claw(g: Multigraph) -> Claw | None:
    """graphs.find_claw as it was before it read the neighbor table directly."""
    g.ensure_simple()
    for v in range(g.n):
        nb = g.neighbors(v)
        if len(nb) < 3:
            continue
        for a, b, c in combinations(nb, 3):
            if has_edge(g, a, b) or has_edge(g, a, c) or has_edge(g, b, c):
                continue
            return Claw(v, (a, b, c))
    return None


def reference_scan_diamonds(g: Multigraph) -> list[Diamond]:
    """structure._scan_diamonds as it was before it found common neighbors by tuple membership."""
    # a diamond is discovered exactly once, via its internal edge: the two
    # common neighbors of the internals are the (nonadjacent) ports
    found: dict[tuple[int, ...], Diamond] = {}
    for a, b in g.edges:
        if a == b:
            continue
        common = set(g.neighbors(a)) & set(g.neighbors(b))
        if len(common) != 2:
            continue
        p, q = sorted(common)
        if has_edge(g, p, q):
            continue
        verts = tuple(sorted((a, b, p, q)))
        found[verts] = Diamond(verts, (p, q), (a, b))
    diamonds = [found[k] for k in sorted(found)]
    covered = set()
    for dia in diamonds:
        if covered & set(dia.vertices):
            raise StructureViolation("two distinct diamonds intersect")
        covered |= set(dia.vertices)
    return diamonds


def _require_cubic_claw_free(g: Multigraph) -> None:
    g.ensure_simple()
    for v, d in enumerate(g.degrees()):
        if d != 3:
            raise NotCubic(v, d)
    claw = find_claw(g)
    if claw is not None:
        raise NotClawFree(claw)


def find_diamonds(g: Multigraph) -> list[Diamond]:
    """All diamonds of a simple cubic claw-free graph, by minimum vertex id."""
    _require_cubic_claw_free(g)
    return _scan_diamonds(g)[0]


def find_strings(g: Multigraph) -> tuple[list[DiamondString], list[tuple[Diamond, ...]]]:
    """Partition all diamonds into maximal strings: (strings, rings), ordered as
    structure._group_strings says."""
    _require_cubic_claw_free(g)
    diamonds, owner, _ = _scan_diamonds(g)
    strings, rings, _ = _group_strings(g, diamonds, owner)
    return strings, rings


def reference_components(g: Multigraph) -> list[tuple[int, ...]]:
    """graphs.connected_components as it was before it read the cut pass: one search
    per component, roots in ascending order."""
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        comp = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def reference_string_passages(g: Multigraph, s: DiamondString) -> list[tuple[int, int, int, int]]:
    """structure.string_passages as it was before it read the incidence of each exit port
    and then the recorded connectors: a walk from the head by has_edge, the next entry the
    next diamond's one port adjacent to the exit port.  So the references that orient a
    string with it never read the library's own orientation."""
    passages = []
    entry = s.head
    for idx, dia in enumerate(s.diamonds):
        if entry not in dia.ports:
            raise StructureViolation("string orientation broken: entry is not a port")
        exit_port = dia.ports[1] if dia.ports[0] == entry else dia.ports[0]
        passages.append((entry, exit_port, dia.internals[0], dia.internals[1]))
        if idx + 1 < len(s.diamonds):
            nxt = s.diamonds[idx + 1]
            cand = [p for p in nxt.ports if has_edge(g, exit_port, p)]
            if len(cand) != 1:
                raise StructureViolation("consecutive diamonds are not joined by one port edge")
            entry = cand[0]
        elif exit_port != s.tail:
            raise StructureViolation("string tail does not match the walk")
    return passages


def reference_contract_to_base(g: Multigraph, strings: list[DiamondString]) -> Decomposition:
    """structure.contract_to_base as it was before classify's string walk recorded the
    connectors: it walks every string again through reference_string_passages and asks
    each exit port for its edge out.  Only the EdgeReplacement fields changed (ends is gone).

    Requires a graph that classify would not call K4 or a ring of
    diamonds; the result's base is cubic, loop-free and 2-edge-connected.
    """
    nbrs = g._neighbors
    in_diamond = [False] * g.n
    for s in strings:
        for dia in s.diamonds:
            for v in dia.vertices:
                in_diamond[v] = True

    # group the remaining vertices into their unique triangles
    tri_index = [-1] * g.n
    triangles: list[tuple[int, int, int]] = []
    for v in range(g.n):
        if in_diamond[v] or tri_index[v] >= 0:
            continue
        nb = nbrs[v]
        found = 0
        for i in range(len(nb) - 1):
            na = nbrs[nb[i]]
            for j in range(i + 1, len(nb)):
                if nb[j] in na:
                    if not found:
                        a, b = nb[i], nb[j]
                    found += 1
        if found != 1:
            raise StructureViolation(f"vertex {v} lies in {found} triangles, expected 1")
        if in_diamond[a] or in_diamond[b] or tri_index[a] >= 0 or tri_index[b] >= 0:
            raise StructureViolation(f"triangle at vertex {v} overlaps other structure")
        tri_index[v] = tri_index[a] = tri_index[b] = len(triangles)
        triangles.append(tuple(sorted((v, a, b))))

    # base edges: direct corner-to-corner edges plus one edge per string
    records: list[tuple[int, int, tuple[int, int], DiamondString | None, tuple[int, ...]]] = []
    for eid, (x, y) in enumerate(g.edges):
        if in_diamond[x] or in_diamond[y]:
            continue
        tx, ty = tri_index[x], tri_index[y]
        if tx == ty:
            continue  # a triangle side
        records.append((tx, ty, (x, y), None, (eid,)))
    if strings:
        g.ensure_simple()  # so the one edge leaving a port is the one neighbor outside its diamond
    for s in strings:
        hu = _leaving(g, s.head, s.diamonds[0])
        tv = _leaving(g, s.tail, s.diamonds[-1])
        if len(hu) != 1 or len(tv) != 1 or in_diamond[hu[0][1]] or in_diamond[tv[0][1]]:
            raise StructureViolation("string end does not attach to a triangle corner")
        (head_edge, u), (tail_edge, v) = hu[0], tv[0]
        if tri_index[u] == tri_index[v]:
            raise StructureViolation("string closes on one triangle, base would have a loop")
        connectors = [head_edge]
        passages = reference_string_passages(g, s)
        for (_, exit_port, _, _), dia, (entry, _, _, _) in zip(passages, s.diamonds, passages[1:]):
            connectors += [e for e, w in _leaving(g, exit_port, dia) if w == entry]
        connectors.append(tail_edge)
        records.append((tri_index[u], tri_index[v], (u, v), s, tuple(connectors)))

    records.sort(key=lambda r: (min(r[0], r[1]), max(r[0], r[1]), r[4][0]))
    base = Multigraph(len(triangles), tuple((tu, tv) for tu, tv, *_ in records))
    replacements = tuple(EdgeReplacement(corners, s, conn) for _, _, corners, s, conn in records)
    if not is_cubic(base):
        raise StructureViolation("contracted base is not cubic")
    if not is_two_edge_connected(base):
        raise StructureViolation("contracted base is not 2-edge-connected")
    d = Decomposition(
        KIND_EXPANDED, g, base=base, triangles=tuple(triangles), replacements=replacements
    )
    _verify_cover(d)
    return d


def reference_cycle_basis(h: Multigraph) -> CycleBasis:
    """cyclespace.cycle_basis as it was before it walked parent edges: one root-path
    bitmask per vertex, as wide as the highest edge id on the path."""
    in_tree = [False] * h.m
    visited = [False] * h.n
    root_mask = [0] * h.n  # XOR of edge bits on the tree path from the component root
    for root in range(h.n):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        while queue:
            v = queue.pop(0)
            for e in h.incident(v):
                u, w = h.edges[e]
                if u == w:
                    continue
                o = w if u == v else u
                if visited[o]:
                    continue
                visited[o] = True
                in_tree[e] = True
                root_mask[o] = root_mask[v] ^ (1 << e)
                queue.append(o)
    basis = []
    for e in range(h.m):
        if in_tree[e]:
            continue
        u, v = h.edges[e]
        basis.append(_unmask(root_mask[u] ^ root_mask[v] ^ (1 << e)))
    c = len(reference_components(h))
    dim = h.m - h.n + c
    if len(basis) != dim:
        raise StructureViolation(f"cycle basis has {len(basis)} elements, dimension is {dim}")
    return CycleBasis(h, tuple(basis), dim)
