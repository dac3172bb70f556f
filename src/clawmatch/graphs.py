"""Multigraph carrier and the basic structural predicates.

Vertices are dense integer ids 0..n-1.  Edges are an indexed list of
unordered pairs; parallel edges are repeated pairs and loops are pairs
(v, v).  A loop counts twice toward the degree of its vertex.  Edge
indices are stable, which is what lets higher layers talk about "the
second of a parallel pair".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import NotSimple


@dataclass(frozen=True)
class Multigraph:
    """n vertices and an indexed edge tuple, frozen.

    Edges may be given as any 2-element sequences; they are kept as plain
    tuples, and an edge that already is one is kept as given.  Lookup
    tables (incidence and neighbours, one tuple per vertex) and the answers
    to the simplicity, cut and claw questions are cached properties, kept
    in the instance dict on first use.  There is no table keyed by vertex
    pair: edge_between scans the incidence of one end.  Nothing can change
    n or edges after construction, so they never go stale, and equality
    and hashing compare the two fields only.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        if not isinstance(self.n, int):
            raise ValueError(f"vertex count is not an int: {self.n!r}")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for i, (u, v) in enumerate(self.edges):
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValueError(f"edge {i} endpoint is not an int: ({u!r}, {v!r})")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {i} endpoint out of range: ({u}, {v})")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            if v != u:
                inc[v].append(i)
        return tuple(tuple(ids) for ids in inc)

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        nbr: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            if u != v:
                nbr[u].add(v)
                nbr[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbr)

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids at v, ascending; a loop appears once."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._incidence[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Distinct neighbors of v, ascending, excluding v itself."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        deg = 0
        for i in self._incidence[v]:
            u, w = self.edges[i]
            deg += 2 if u == w else 1
        return deg

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def other_end(self, e: int, v: int) -> int:
        if not 0 <= e < self.m:
            raise ValueError(f"edge index {e} out of range")
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {e}")

    @cached_property
    def _cuts(self) -> tuple[int, tuple[int, ...]]:
        """(root count, bridge ids) of one _cut_forest pass; the forest itself is dropped."""
        return _cut_forest(self)[3]

    @cached_property
    def _claw(self) -> Claw | None:
        """What _scan_claw finds; find_claw reads it only after checking the graph is simple."""
        return _scan_claw(self)

    @cached_property
    def _simple(self) -> bool:
        """No loop and no parallel pair: every edge gives a distinct key min * n + max.

        A loop gives no key and a parallel pair one key for two edges, so
        the graph is simple iff there are m keys.
        """
        n = self.n
        keys = {u * n + v if u < v else v * n + u for u, v in self.edges if u != v}
        return len(keys) == len(self.edges)

    def edge_between(self, u: int, v: int) -> int:
        """Edge id joining u and v, by a scan of u's incidence.  Simple graphs only."""
        if not self._simple:
            raise NotSimple("edge_between requires a simple graph")
        if 0 <= u < self.n and 0 <= v < self.n:
            edges = self.edges
            for i in self._incidence[u]:
                a, b = edges[i]
                if a ^ b ^ u == v:  # the far end of edge i; no loops, so never u itself
                    return i
        raise ValueError(f"no edge between {u} and {v}")

    def is_simple(self) -> bool:
        return self._simple

    def ensure_simple(self) -> None:
        if not self.is_simple():
            raise NotSimple("graph has loops or parallel edges")


def _mask(ids: Iterable[int]) -> int:
    """The edge bitmask of ids, bit e set for each id e; repeats collapse."""
    m = 0
    for e in ids:
        m |= 1 << e
    return m


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


_FROM_EDGE_0 = itemgetter(slice(None, 2, -1))  # a bin text reversed, less its top 1 and 0b


def _bit_strings(masks: Iterable[int], width: int) -> Iterator[str]:
    """The bits of each mask, all below 1 << width, read from edge 0 up: width characters
    '0' or '1' each, bin(mask | 1 << width) reversed without that sentinel 1 and its '0b',
    in passes of C-level calls.  This is the one rule that reads a mask's bits; _unmask
    reads one mask at its own bit length.

    At one width, of two masks with equal popcounts, the one whose string is greater
    holds the lowest edge where they differ, so it has the smaller id tuple: descending
    string order is ascending order of the _unmask tuples.
    """
    return map(_FROM_EDGE_0, map(bin, map((1 << width).__or__, masks)))


def _unmask(mask: int) -> tuple[int, ...]:
    """Ascending edge ids of a bitmask; its bit string is walked in C, not bit by bit."""
    (bits,) = _bit_strings((mask,), mask.bit_length())
    return tuple(compress(count(), bits.encode().translate(_BIT_VALUES)))


@dataclass(frozen=True)
class EdgeSubset:
    """A set of edge ids of a fixed host multigraph, stored as a bitmask: bit e for edge e.
    EdgeSubset.of builds one from ids; members, iteration (ascending), len, `in` and
    sorted_tuple are read off the mask, and equality and hashing compare host and mask."""

    host: Multigraph
    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError(f"edge mask {self.mask} is negative")
        if self.mask >> self.host.m:
            raise ValueError(f"edge index {self.mask.bit_length() - 1} out of range")

    @classmethod
    def of(cls, host: Multigraph, ids: Iterable[int]) -> EdgeSubset:
        """The subset of ids; repeats collapse, and the first id outside range(host.m) raises."""
        mask = 0
        for e in ids:
            if not 0 <= e < host.m:
                raise ValueError(f"edge index {e} out of range")
            mask |= 1 << e
        return cls(host, mask)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(_unmask(self.mask))

    def __contains__(self, e: int) -> bool:
        return e >= 0 and self.mask >> e & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(_unmask(self.mask))

    def sorted_tuple(self) -> tuple[int, ...]:
        return _unmask(self.mask)


@dataclass(frozen=True)
class Claw:
    """An induced K_{1,3}: a center adjacent to three pairwise nonadjacent leaves."""

    center: int
    leaves: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(sorted(self.leaves)))


def subset_degrees(g: Multigraph, members: Iterable[int]) -> list[int]:
    """Degree of every vertex in the spanning subgraph picked by members (loops count twice).

    The first id outside range(m) raises, instead of indexing from the end.
    """
    deg = [0] * g.n
    edges, m = g.edges, g.m
    for e in members:
        if not 0 <= e < m:
            raise ValueError(f"edge index {e} out of range")
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def is_connected(g: Multigraph) -> bool:
    """At most one component: the root count of the graph's one cut pass."""
    return g._cuts[0] <= 1


def is_cubic(g: Multigraph) -> bool:
    """True iff every vertex has degree exactly 3, loops counted twice."""
    return all(d == 3 for d in g.degrees())


def _cut_forest(
    g: Multigraph,
) -> tuple[list[int], list[int], list[int], tuple[int, tuple[int, ...]]]:
    """(order, parent_edge, other, (roots, bridge ids)) from one DFS forest and a lowpoint sweep.

    order is the preorder and parent_edge[v] the tree edge v was reached
    by, -1 at each of the roots, one per component; the far end of edge f
    from v is other[f] ^ v, with other[f] = u ^ v.
    The DFS keeps its stack as a flat list of (vertex, edge) ints.  A
    neighbor already discovered when v is, reached by an edge other than
    the tree edge into v, is an ancestor of v, so the walk lowers v's
    lowpoint to its preorder number there: every non-loop non-tree edge
    is seen once, from its deeper end.  A sweep in reverse preorder then
    passes each lowpoint up to the parent.  The tree edge into v is a
    bridge iff no edge leaves v's subtree upward, i.e. low[v] == disc[v].

    A parallel pair contributes no bridge and a loop is never a bridge:
    the second copy of a parallel pair is a non-tree edge to the parent.
    """
    # n slots at once before the incidence rows, so an impossible n fails in one allocation
    disc = [-1] * g.n
    low = [-1] * g.n
    parent_edge = [-1] * g.n
    incidence = g._incidence
    other = [u ^ v for u, v in g.edges]
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
            lv = disc[v] = len(order)
            order.append(v)
            parent_edge[v] = e
            for f in incidence[v]:
                w = other[f] ^ v
                dw = disc[w]
                if dw < 0:
                    push(w)
                    push(f)
                elif dw < lv and f != e:  # a loop gives w == v, never below v's own number
                    lv = dw
            low[v] = lv
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


def bridges(g: Multigraph) -> EdgeSubset:
    """All cutedges, by one DFS forest and its lowpoint sweep (see _cut_forest), once per graph."""
    return EdgeSubset(g, _mask(g._cuts[1]))


def is_two_edge_connected(g: Multigraph) -> bool:
    """At least 2 vertices, one DFS tree and no bridge, from the graph's one cut pass."""
    roots, found = g._cuts
    return g.n >= 2 and roots == 1 and not found


def _cut_labels(count: int) -> list[int]:
    """count 64-bit labels from a fixed-seed generator, so answers never vary between runs."""
    rng = random.Random(0x3EC)
    return [rng.getrandbits(64) for _ in range(count)]


def _connected_without(g: Multigraph, banned: tuple[int, ...]) -> bool:
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for e in g._incidence[v]:
            if e in banned:
                continue
            w = g.other_end(e, v)
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == g.n


def is_three_edge_connected(g: Multigraph) -> bool:
    """No set of at most 2 edges disconnects g, by XOR labels on the cycle space.

    is_two_edge_connected answers the 0- and 1-edge cuts exactly: g must
    be one tree with no bridge.  On its own _cut_forest tree every
    non-loop non-tree edge gets a random 64-bit label and every tree edge
    the XOR of the labels below it, i.e. of the non-tree edges whose
    fundamental cycles pass through it (Pritchard's random circulations).
    Every cycle crosses an edge cut an even number of times, so the labels of
    any cut XOR to zero, whatever the labels are: the two edges of a
    2-edge cut have equal labels.  Each pair of equal labels is confirmed
    by one search without those two edges before False is returned, so
    the answer is exact; random labels only keep false candidates rare.
    """
    if not is_two_edge_connected(g):
        return False
    order, parent_edge, other, _ = _cut_forest(g)
    tree = set(parent_edge)
    label = [0] * g.m
    below = [0] * g.n  # XOR of the labels at each vertex, then of its whole subtree
    off_tree = [e for e, (u, v) in enumerate(g.edges) if u != v and e not in tree]
    for e, x in zip(off_tree, _cut_labels(len(off_tree))):
        label[e] = x
        u, v = g.edges[e]
        below[u] ^= x
        below[v] ^= x
    for v in reversed(order[1:]):
        e = parent_edge[v]
        label[e] = below[v]
        below[other[e] ^ v] ^= below[v]
    with_label: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        same = with_label.setdefault(label[e], [])
        for f in same:
            if not _connected_without(g, (f, e)):
                return False
        same.append(e)
    return True


def find_claw(g: Multigraph) -> Claw | None:
    """Some induced claw of a simple graph, or None.

    Rejects multigraphs with loops or parallel edges, on every call:
    claw-freeness is a simple-graph notion.  The scan runs once per graph
    and is kept as g._claw.  Leaves are tried in lexicographic order of
    their positions in the center's ascending neighbor tuple.
    """
    g.ensure_simple()
    return g._claw


def _scan_claw(g: Multigraph) -> Claw | None:
    nbrs = g._neighbors
    for v, nb in enumerate(nbrs):
        k = len(nb)
        for i in range(k - 2):
            a = nb[i]
            na = nbrs[a]
            for j in range(i + 1, k - 1):
                b = nb[j]
                if b in na:
                    continue
                nbb = nbrs[b]
                for x in range(j + 1, k):
                    c = nb[x]
                    if c not in na and c not in nbb:
                        return Claw(v, (a, b, c))
    return None


def is_claw_free(g: Multigraph) -> bool:
    return find_claw(g) is None
