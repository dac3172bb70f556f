"""Exhaustive ground truth: perfect matchings, 2-factors, long 2-factors.

Everything here is plain backtracking on purpose.  These counts are the
oracle the constructive machinery is checked against, so they must stay
simple enough to trust; no transfer matrices, no Pfaffians.  Counts are
Python ints, hence arbitrary precision for free.

There is one search, over perfect matchings: the lowest-id unmatched
vertex tries its incident edges in id order, stepping over a per-vertex
table of (edge id, far end) arcs built once per call and finding the
next open vertex with one C-level list scan; an enumeration stops at
the cap.  It yields edge bitmasks, the stored form of an EdgeSubset, so
an enumeration wraps them as they are.  In a cubic graph the 2-factors
are exactly the complements of the perfect matchings, so their count is
the matching count, and the 2-factor enumeration and the longest
2-factor read that one search and refuse any host that is not cubic.
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
    # n slots at once before the incidence rows, so an impossible n fails in one allocation
    matched = [False] * (n + 1)
    bit = [1 << e for e in range(g.m)]
    arcs = []
    for v in range(n):
        ends = ((e, *edges[e]) for e in g._incidence[v])
        arcs.append(tuple((e, w if u == v else u) for e, u, w in ends if u != w))
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


def enumerate_perfect_matchings(g: Multigraph, cap: int) -> list[EdgeSubset]:
    """The perfect matchings in search order; CapExceeded(cap + 1, cap) if there are more."""
    masks = list(islice(_iter_perfect_matchings(g), cap + 1))
    if len(masks) > cap:
        raise CapExceeded(cap + 1, cap)
    return [EdgeSubset(g, mask) for mask in masks]


def _require_cubic(g: Multigraph) -> None:
    if not is_cubic(g):
        raise ValueError("host must be cubic for the complement to be a 2-factor")


def enumerate_two_factors(g: Multigraph, cap: int) -> list[EdgeSubset]:
    """The 2-factors of cubic g, the complements of its perfect matchings in their order."""
    _require_cubic(g)
    every_edge = (1 << g.m) - 1
    return [EdgeSubset(g, every_edge ^ m.mask) for m in enumerate_perfect_matchings(g, cap)]


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
    _require_cubic(h)
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
