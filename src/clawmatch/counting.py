"""Exhaustive ground truth: perfect matchings, 2-factors, long 2-factors.

Everything here is plain backtracking on purpose.  These counts are the
oracle the constructive machinery is checked against, so they must stay
simple enough to trust; no transfer matrices, no Pfaffians.  Counts are
Python ints, hence arbitrary precision for free.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import CapExceeded, NoTwoFactor, StructureViolation
from .graphs import EdgeSubset, Multigraph, is_cubic, is_two_edge_connected


def _iter_perfect_matchings(g: Multigraph) -> Iterator[frozenset[int]]:
    """Backtracking on the lowest-id unmatched vertex, incident edges in id order.

    Loops never belong to a matching; parallel edges count separately.  The
    search keeps its frames on an explicit stack, so its depth is not bounded
    by Python's recursion limit.
    """
    # bound once: lookups on g inside the loop tie its speed to the size of g.__dict__
    n, edges, incident = g.n, g.edges, g.incident
    if n == 0:
        yield frozenset()
        return
    matched = [False] * n
    chosen: list[int] = []
    # a frame is a vertex being matched and its incident edges not yet tried; the top
    # frame is (v, options), the ones below it are on the stack, and chosen holds the
    # edge each of those has matched its vertex with
    stack: list[tuple[int, Iterator[int]]] = []
    v, options = 0, iter(incident(0))
    while True:
        for e in options:
            u, w = edges[e]
            if u == w:
                continue
            o = w if u == v else u
            if not matched[o]:
                break
        else:
            if not stack:
                return
            u, w = edges[chosen.pop()]
            matched[u] = matched[w] = False
            v, options = stack.pop()
            continue
        matched[v] = matched[o] = True
        chosen.append(e)
        nxt = v + 1
        while nxt < n and matched[nxt]:
            nxt += 1
        if nxt < n:
            stack.append((v, options))
            v, options = nxt, iter(incident(nxt))
            continue
        yield frozenset(chosen)
        chosen.pop()
        matched[v] = matched[o] = False


def count_perfect_matchings(g: Multigraph) -> int:
    """Exact number of perfect matchings; odd-order graphs give 0."""
    if g.n % 2:
        return 0
    return sum(1 for _ in _iter_perfect_matchings(g))


def enumerate_perfect_matchings(g: Multigraph, cap: int) -> list[EdgeSubset]:
    out = []
    for mset in _iter_perfect_matchings(g):
        out.append(EdgeSubset(g, mset))
        if len(out) > cap:
            raise CapExceeded(count_perfect_matchings(g), cap)
    return out


def _iter_two_factors(g: Multigraph) -> Iterator[frozenset[int]]:
    """All spanning subgraphs with every degree exactly 2 (loops count twice).

    Decides the edges in id order, trying to include each before excluding
    it.  The decisions are kept on an explicit stack, so the search depth is
    not bounded by Python's recursion limit.
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

    stack: list[tuple[int, bool]] = []  # (edge id, whether it is included) per decided edge
    i = 0  # the next edge to decide
    while True:
        if i == g.m:
            if all(d == 2 for d in deg):
                yield frozenset(chosen)
        else:
            u, v = g.edges[i]
            step = 2 if u == v else 1
            rem[u] -= step
            rem[v] -= step if u != v else 0
            # include edge i
            deg[u] += step
            deg[v] += step if u != v else 0
            if feasible(u) and feasible(v):
                chosen.append(i)
                stack.append((i, True))
                i += 1
                continue
            deg[u] -= step
            deg[v] -= step if u != v else 0
            # exclude edge i
            if feasible(u) and feasible(v):
                stack.append((i, False))
                i += 1
                continue
            rem[u] += step
            rem[v] += step if u != v else 0
        # backtrack to the latest included edge that can still be excluded
        while stack:
            i, included = stack.pop()
            u, v = g.edges[i]
            step = 2 if u == v else 1
            if included:
                chosen.pop()
                deg[u] -= step
                deg[v] -= step if u != v else 0
                # exclude edge i
                if feasible(u) and feasible(v):
                    stack.append((i, False))
                    i += 1
                    break
            rem[u] += step
            rem[v] += step if u != v else 0
        else:
            return


def count_two_factors(g: Multigraph) -> int:
    return sum(1 for _ in _iter_two_factors(g))


def enumerate_two_factors(g: Multigraph, cap: int) -> list[EdgeSubset]:
    out = []
    for fset in _iter_two_factors(g):
        out.append(EdgeSubset(g, fset))
        if len(out) > cap:
            raise CapExceeded(count_two_factors(g), cap)
    return out


def max_length_two_factor(h: Multigraph, lengths: Mapping[int, int]) -> EdgeSubset:
    """A 2-factor of cubic bridgeless h maximizing the total edge length.

    The complement of the perfect matching M of least weight, where edge
    e weighs w(e) = length(e)·2^(m+1) + 2^(m-e), in exact integers.  Every
    2-factor of cubic h has m - n/2 edges and 0 < sum of 2^(m-e) over M
    < 2^(m+1), so the lighter of two matchings leaves the longer factor,
    and among equal lengths the one with the lower sum of 2^(m-e) over M,
    i.e. the lexicographically smallest sorted factor tuple; two distinct
    matchings never weigh the same.  The maximizer always reaches
    ceil(2/3 of the total length): averaging over a fractional
    3-edge-coloring puts 2/3 of the mass on some 2-factor, and the max
    dominates the average.
    """
    if not is_cubic(h):
        raise ValueError("host must be cubic for the complement to be a 2-factor")
    m = h.m
    weight = [lengths.get(e, 0) * 2 ** (m + 1) + 2 ** (m - e) for e in range(m)]
    best = min(
        _iter_perfect_matchings(h),
        key=lambda mset: sum(map(weight.__getitem__, mset)),
        default=None,
    )
    if best is None:
        raise NoTwoFactor("host has no perfect matching, hence no 2-factor")
    factor = frozenset(range(m)) - best
    score = sum(lengths.get(e, 0) for e in factor)
    total = sum(lengths.get(e, 0) for e in range(m))
    # the averaging bound is only guaranteed on bridgeless hosts
    if is_two_edge_connected(h) and score < -(-2 * total // 3):
        raise StructureViolation(
            f"longest 2-factor has length {score}, below 2/3 of the total {total}"
        )
    return EdgeSubset(h, factor)
