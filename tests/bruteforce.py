"""Independent brute-force oracles used as ground truth in the tests.

These deliberately share no code with the library paths they check:
bridges and 3-edge-connectivity by remove-and-test, claws and
diamonds by exhaustive vertex scans, cycle space and matchings by
filtering all 2^m edge subsets, isomorphism by permutation search, and
the lift of a base member by looking every host edge up by its ends
instead of through gadget tables, and certificate rows by a full
per-vertex degree list each.
"""

from itertools import combinations, permutations
from collections import Counter

from clawmatch import (
    Multigraph,
    is_perfect_matching,
    is_two_factor,
    string_passages,
    subset_degrees,
)


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
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                out.append((v, (a, b, c)))
    return out


def brute_diamond_vertex_sets(g: Multigraph) -> set:
    """All 4-sets inducing K4 minus exactly one edge."""
    out = set()
    for quad in combinations(range(g.n), 4):
        present = [(a, b) for a, b in combinations(quad, 2) if g.has_edge(a, b)]
        if len(present) == 5:
            out.add(quad)
    return out


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
    for e in range(h.m):
        rep = d.replacements[e]
        if e in member.members:
            picked.update(rep.connectors)
            if rep.string:
                for i, (entry, exit_port, s, t) in enumerate(string_passages(g, rep.string)):
                    if routing.bits[(e, i)] == 0:
                        walk = ((entry, s), (s, t), (t, exit_port))
                    else:
                        walk = ((entry, t), (t, s), (s, exit_port))
                    picked.update(g.edge_between(u, w) for u, w in walk)
        elif rep.string:
            for dia in rep.string.diamonds:
                p, q = dia.ports
                s, t = dia.internals
                picked.update(g.edge_between(u, w) for u, w in ((p, s), (s, q), (q, t), (t, p)))
    return frozenset(picked)


def reference_certificate_problems(g: Multigraph, cert) -> list:
    """certificate_problems as it was before rows were checked with end-vertex bitmasks:
    a range test per id and a subset_degrees scan per row."""
    problems: list[str] = []
    if cert.n != g.n:
        problems.append(f"certificate n={cert.n} does not match the graph n={g.n}")
    seen: set[tuple[int, ...]] = set()
    for idx, row in enumerate(cert.matchings):
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
