"""Exhaustive ground truth: perfect matchings, 2-factors, long 2-factors.

Everything here is plain backtracking on purpose.  These counts are the
oracle the constructive machinery is checked against, so they must stay
simple enough to trust; no transfer matrices, no Pfaffians.  Counts are
Python ints, hence arbitrary precision for free.

Both searches go vertex by vertex, the lowest-id vertex still short of
edges trying its incident edges in id order; enumerations stop at the cap.
The matching search, behind every matching count and the longest
2-factor, steps over a per-vertex table of (edge id, far end) arcs built
once per call and finds the next open vertex with one C-level list scan.
The 2-factor search keeps reading g.edges: the same table was measured
there with no gain (its second-edge step must find its place in the
table again), so the simpler loop stays.  Both yield edge bitmasks, the
stored form of an EdgeSubset, so an enumeration wraps them as they are.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Mapping

from .errors import CapExceeded, NoTwoFactor, StructureViolation
from .graphs import EdgeSubset, Multigraph, _unmask, is_cubic, is_two_edge_connected


def _iter_perfect_matchings(g: Multigraph) -> Iterator[int]:
    """Backtracking on the lowest-id unmatched vertex, incident edges in id order.

    Loops never belong to a matching; parallel edges count separately.  The
    search keeps its frames on an explicit stack, so its depth is not bounded
    by Python's recursion limit.

    The loop steps over data built once per call.  arcs[v] holds an
    (edge id, far end) pair for each non-loop edge at v, in id order, so a
    step neither reads g.edges nor tests for a loop.  matched has a spare
    False at index n as a sentinel, so matched.index(False, v + 1) finds
    the next open vertex in C and returns n once every vertex is matched.
    A matching is yielded as its edge bitmask, the sum of bit[e] over its distinct edges.
    """
    n, edges = g.n, g.edges
    if n == 0:
        yield 0
        return
    bit = [1 << e for e in range(g.m)]
    arcs = []
    for v in range(n):
        ends = ((e, *edges[e]) for e in g.incident(v))
        arcs.append(tuple((e, w if u == v else u) for e, u, w in ends if u != w))
    matched = [False] * (n + 1)
    chosen: list[int] = []
    # a frame is a vertex being matched and its arcs not yet tried; the top frame is
    # (v, options), the ones below it are on the stack as (v, o, options), where o is
    # the far end of the edge chosen holds for v
    stack: list[tuple[int, int, Iterator[tuple[int, int]]]] = []
    v, options = 0, iter(arcs[0])
    while True:
        for e, o in options:
            if not matched[o]:
                break
        else:
            if not stack:
                return
            chosen.pop()
            v, o, options = stack.pop()
            matched[v] = matched[o] = False
            continue
        matched[v] = matched[o] = True
        chosen.append(e)
        nxt = matched.index(False, v + 1)
        if nxt < n:
            stack.append((v, o, options))
            v, options = nxt, iter(arcs[nxt])
            continue
        yield sum(map(bit.__getitem__, chosen))
        chosen.pop()
        matched[v] = matched[o] = False


def count_perfect_matchings(g: Multigraph) -> int:
    """Exact number of perfect matchings; odd-order graphs give 0."""
    if g.n % 2:
        return 0
    return sum(1 for _ in _iter_perfect_matchings(g))


def _collect(g: Multigraph, found: Iterator[int], cap: int) -> list[EdgeSubset]:
    """The first cap + 1 masks found, or CapExceeded(cap + 1, cap) if there are that many."""
    masks = list(islice(found, cap + 1))
    if len(masks) > cap:
        raise CapExceeded(cap + 1, cap)
    return [EdgeSubset(g, mask) for mask in masks]


def enumerate_perfect_matchings(g: Multigraph, cap: int) -> list[EdgeSubset]:
    return _collect(g, _iter_perfect_matchings(g), cap)


def _iter_two_factors(g: Multigraph) -> Iterator[int]:
    """All spanning subgraphs with every degree exactly 2 (loops count twice).

    Backtracking on the lowest-id vertex with room, that is degree below 2,
    incident edges in id order.  A vertex that takes both of its edges takes
    the second after the first, so each 2-factor is reached once; a loop needs
    both of its vertex's places.  The search keeps its frames on an explicit
    stack, so its depth is not bounded by Python's recursion limit.  A
    2-factor is yielded as its edge bitmask, as in the matching search.
    """
    if any(d < 2 for d in g.degrees()):
        return
    n, edges, incident = g.n, g.edges, g.incident
    if n == 0:
        yield 0
        return
    bit = [1 << e for e in range(g.m)]
    room = [2] * n
    chosen: list[int] = []
    # a frame is a vertex with room and its incident edges not yet tried; the top
    # frame is (v, options), the ones below it are on the stack, and chosen holds
    # the edge each of those has taken
    stack: list[tuple[int, Iterator[int]]] = []
    v, options = 0, iter(incident(0))
    while True:
        for e in options:
            u, w = edges[e]
            o = w if u == v else u
            if room[o] > (u == w):
                break
        else:
            if not stack:
                return
            u, w = edges[chosen.pop()]
            room[u] += 1
            room[w] += 1
            v, options = stack.pop()
            continue
        room[v] -= 1
        room[o] -= 1
        chosen.append(e)
        if room[v]:
            # v's second edge comes after its first
            stack.append((v, options))
            at_v = incident(v)
            options = iter(at_v[at_v.index(e) + 1 :])
            continue
        nxt = v + 1
        while nxt < n and not room[nxt]:
            nxt += 1
        if nxt < n:
            stack.append((v, options))
            v, options = nxt, iter(incident(nxt))
            continue
        yield sum(map(bit.__getitem__, chosen))
        chosen.pop()
        room[v] += 1
        room[o] += 1


def count_two_factors(g: Multigraph) -> int:
    return sum(1 for _ in _iter_two_factors(g))


def enumerate_two_factors(g: Multigraph, cap: int) -> list[EdgeSubset]:
    return _collect(g, _iter_two_factors(g), cap)


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
        key=lambda mask: sum(map(weight.__getitem__, _unmask(mask))),
        default=None,
    )
    if best is None:
        raise NoTwoFactor("host has no perfect matching, hence no 2-factor")
    factor = ((1 << m) - 1) ^ best
    score = sum(lengths.get(e, 0) for e in _unmask(factor))
    total = sum(lengths.get(e, 0) for e in range(m))
    # the averaging bound is only guaranteed on bridgeless hosts
    if is_two_edge_connected(h) and score < -(-2 * total // 3):
        raise StructureViolation(
            f"longest 2-factor has length {score}, below 2/3 of the total {total}"
        )
    return EdgeSubset(h, factor)
