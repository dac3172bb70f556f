"""GF(2) cycle space of a multigraph.

The cycle space is the set of edge subsets in which every vertex has even
degree; it is a vector space over GF(2) of dimension m - n + c.  Edge
subsets are carried as bitmask integers so that symmetric difference is a
single XOR, and enumeration walks a Gray code over the cycle basis
(gray_walk), so that consecutive members differ by one basis vector.

Parallel edges and loops are first-class: a parallel pair is a 2-cycle
and a loop is a 1-cycle, each a legitimate basis element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import CapExceeded, StructureViolation
from .graphs import EdgeSubset, Multigraph, _mask


@dataclass(frozen=True)
class CycleBasis:
    """Each basis cycle as its ascending edge ids, as a certificate holds its rows: a
    basis has m - n + c short cycles, and a mask as wide as the host costs O(m) bits."""

    host: Multigraph
    basis: tuple[tuple[int, ...], ...]
    dimension: int


def cycle_basis(h: Multigraph) -> CycleBasis:
    """Fundamental cycles of a BFS spanning forest, one per non-tree edge, by edge id.

    The cycle of a non-tree edge e = (u, v) is e plus the tree paths from
    u and v up to the vertex where they meet: each step moves the deeper
    end up its parent edge, so its cost is the length of the cycle.
    A loop is its own basis element (the tree path between its endpoints
    is empty); the off-tree copy of a parallel pair yields a 2-cycle.
    The basis size is checked against m - n + c, with c the component
    count of h's DFS cut pass (see graphs._cut_forest), which does not
    depend on this BFS forest.
    """
    other = [u ^ v for u, v in h.edges]  # the far end of edge f from v is other[f] ^ v
    parent_edge = [-1] * h.n
    depth = [-1] * h.n
    for root in range(h.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for e in h._incidence[v]:
                o = other[e] ^ v  # a loop gives o == v, already reached
                if depth[o] < 0:
                    depth[o] = depth[v] + 1
                    parent_edge[o] = e
                    queue.append(o)
    in_tree = [False] * h.m
    for e in parent_edge:
        if e >= 0:
            in_tree[e] = True
    basis = []
    for e, (u, v) in enumerate(h.edges):
        if in_tree[e]:
            continue
        cycle = [e]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            f = parent_edge[u]
            cycle.append(f)
            u ^= other[f]
        basis.append(tuple(sorted(cycle)))
    dim = h.m - h.n + h._cuts[0]
    if len(basis) != dim:
        raise StructureViolation(f"cycle basis has {len(basis)} elements, dimension is {dim}")
    return CycleBasis(h, tuple(basis), dim)


def gray_walk(start: int, flips: list[int]) -> Iterator[int]:
    """start XOR every subset of flips, 2^len(flips) values in binary reflected Gray-code
    order: step i XORs in flips[j] for the lowest set bit j of i, so each value is one
    flip from the last and flips[j] is first taken at step 2^j."""
    yield start
    for i in range(1, 1 << len(flips)):
        start ^= flips[(i & -i).bit_length() - 1]
        yield start


def _basis_masks(h: Multigraph, cap: int) -> list[int]:
    """The cycle basis as edge bitmasks, once its 2^dimension members are seen to fit cap."""
    cb = cycle_basis(h)
    total = 1 << cb.dimension
    if total > cap:
        raise CapExceeded(total, cap)
    return [_mask(b) for b in cb.basis]


def enumerate_cycle_space(h: Multigraph, cap: int) -> list[EdgeSubset]:
    """All 2^dimension members, Gray-code order over the cycle basis, empty set first."""
    return [EdgeSubset(h, m) for m in gray_walk(0, _basis_masks(h, cap))]
