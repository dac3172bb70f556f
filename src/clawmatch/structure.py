"""Structure of 2-edge-connected claw-free cubic graphs.

Every such graph is K4, a ring of diamonds, or is built from a
2-edge-connected cubic base multigraph by replacing each base vertex
with a triangle and some base edges with strings of diamonds.  This
module recognizes that structure (classify, the one recognizer),
inverts it (build), and provides the corpus generators.  classify's
diamond scan looks once at each vertex's neighbors: it refuses a claw, a
vertex none of whose neighbor pairs is adjacent, and returns an owner
table and triangle bits that its string walk and contraction read; each
string is walked once, recording the connectors that the contraction and
string_passages read.

All decompositions store concrete vertex and edge ids of the host graph,
not abstract isomorphism classes, so rebuilding is exact.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    InvalidBase,
    NotClawFree,
    NotCubic,
    NotTwoEdgeConnected,
    StructureViolation,
)
from .graphs import Claw, Multigraph, is_cubic, is_two_edge_connected

KIND_K4 = "k4"
KIND_RING = "ring"
KIND_EXPANDED = "expanded"


@dataclass(frozen=True, slots=True)
class Diamond:
    """An induced K4 minus one edge.

    The two endpoints of the missing edge are the ports (degree 2 inside
    the diamond); the other two vertices are the internals, adjacent to
    everything in the diamond.
    """

    vertices: tuple[int, int, int, int]
    ports: tuple[int, int]
    internals: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "ports", tuple(sorted(self.ports)))
        object.__setattr__(self, "internals", tuple(sorted(self.internals)))
        if set(self.ports) | set(self.internals) != set(self.vertices):
            raise ValueError("ports and internals must partition the diamond")


@dataclass(frozen=True, slots=True)
class DiamondString:
    """A maximal chain of diamonds joined port-to-port.

    Diamonds are ordered from the head side; head and tail are the two
    ports of degree 2 within the string's induced subgraph.
    """

    diamonds: tuple[Diamond, ...]
    head: int
    tail: int

    def __post_init__(self):
        if not self.diamonds:
            raise ValueError("a string contains at least one diamond")
        if self.head not in self.diamonds[0].ports:
            raise ValueError("head must be a port of the first diamond")
        if self.tail not in self.diamonds[-1].ports:
            raise ValueError("tail must be a port of the last diamond")

    def __len__(self) -> int:
        return len(self.diamonds)


@dataclass(frozen=True, slots=True)
class EdgeReplacement:
    """What one base edge became in the expanded graph.

    corners are the triangle vertices carrying the edge on each side,
    aligned with the base edge's ends.  connectors are the host edges
    joining corners to the string ends and consecutive diamonds; with no
    string it is the single direct corner-to-corner edge.
    """

    corners: tuple[int, int]
    string: DiamondString | None
    connectors: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.string.diamonds) if self.string else 0


@dataclass(frozen=True, slots=True)
class Decomposition:
    kind: str
    graph: Multigraph
    ring: tuple[Diamond, ...] = ()
    base: Multigraph | None = None
    triangles: tuple[tuple[int, int, int], ...] = ()
    replacements: tuple[EdgeReplacement, ...] = ()

    def lengths(self) -> tuple[int, ...]:
        return tuple(rep.length for rep in self.replacements)

    def total_length(self) -> int:
        return sum(self.lengths())

    def corner(self, h_edge: int, h_vertex: int) -> int:
        """Triangle corner of h_vertex carrying h_edge."""
        if not 0 <= h_edge < self.base.m:
            raise ValueError(f"edge index {h_edge} out of range")
        ends = self.base.edges[h_edge]
        if h_vertex in ends:
            return self.replacements[h_edge].corners[ends.index(h_vertex)]
        raise ValueError(f"vertex {h_vertex} is not an end of base edge {h_edge}")


def _leaving(g: Multigraph, p: int, dia: Diamond) -> list[tuple[int, int]]:
    """The edges at port p that leave its diamond dia, as (edge id, far end), from p's incidence."""
    edges = g.edges
    out = []
    for e in g._incidence[p]:
        a, b = edges[e]
        w = a ^ b ^ p  # the far end of edge e from p
        if w not in dia.vertices:
            out.append((e, w))
    return out


def string_passages(g: Multigraph, rep: EdgeReplacement) -> list[tuple[int, int, int, int]]:
    """Per diamond of rep's string in order: (entry port, exit port, internal, internal), the
    entry its port on the connector before it and the exit its port on the connector after."""
    diamonds, connectors, edges = rep.string.diamonds, rep.connectors, g.edges
    if len(connectors) != len(diamonds) + 1:
        raise StructureViolation("a string needs one more connector than it has diamonds")
    passages = []
    for dia, before, after in zip(diamonds, connectors, connectors[1:]):
        entry, exit_port = dia.ports
        if exit_port in edges[before] and entry in edges[after]:
            entry, exit_port = exit_port, entry
        elif entry not in edges[before] or exit_port not in edges[after]:
            raise StructureViolation("a diamond does not lie between its recorded connectors")
        passages.append((entry, exit_port, *dia.internals))
    return passages


def _scan_diamonds(g: Multigraph) -> tuple[list[Diamond], list[int], bytearray]:
    """The diamonds by least vertex, the owner table (each vertex's diamond index, or -1)
    and the triangle bits: g is cubic and simple here, and a vertex with neighbors x < y < z
    has bit 1 if x-y is an edge, 2 for x-z and 4 for y-z, one bit per triangle.  Two bits make
    it a diamond internal, its partner in both pairs; the smaller internal takes the diamond.
    The first vertex with no bit is a claw center, so NotClawFree names the claw find_claw
    finds on such a graph."""
    nbrs = g._neighbors
    bits = bytearray(g.n)
    diamonds: list[Diamond] = []
    for v, (x, y, z) in enumerate(nbrs):
        nx = nbrs[x]
        t = (y in nx) | (z in nx) << 1 | (z in nbrs[y]) << 2
        bits[v] = t
        if t == 3:
            w, p, q = x, y, z
        elif t == 5:
            w, p, q = y, x, z
        elif t == 6:
            w, p, q = z, x, y
        else:
            continue
        if v < w:
            diamonds.append(Diamond((v, w, p, q), (p, q), (v, w)))
    center = bits.find(0)
    if center >= 0:
        raise NotClawFree(Claw(center, nbrs[center]))
    diamonds.sort(key=operator.attrgetter("vertices"))
    owner = [-1] * g.n
    for i, dia in enumerate(diamonds):
        for v in dia.vertices:
            if owner[v] >= 0:
                raise StructureViolation("two distinct diamonds intersect")
            owner[v] = i
    return diamonds, owner, bits


def _group_strings(
    g: Multigraph, diamonds: list[Diamond], owner: list[int]
) -> tuple[list[DiamondString], list[tuple[Diamond, ...]], list[tuple[int, ...]]]:
    """Partition the diamonds and owner table of _scan_diamonds into maximal strings.

    Returns (strings, rings, connectors).  A string runs from its head, the
    smaller of its two free ports (ports whose outside neighbor lies in no
    diamond), to its tail, and the strings are sorted by head; its
    connectors are the edge into its head, then the edge out of every
    diamond's exit port.  Closed diamond cycles have no head or tail, so
    they are reported separately; classify accepts one only as a whole
    ring of diamonds.  A ring starts at the diamond holding its least
    vertex and continues toward the neighbor with the smaller least vertex
    (the two neighbors of a 2-diamond ring are the same diamond, so its
    order is fixed).
    """
    seen = [False] * len(diamonds)
    out: dict[int, tuple[int, int]] = {}  # port -> its one (edge id, far end) out of its diamond
    for dia in diamonds:
        for p in dia.ports:
            ext = _leaving(g, p, dia)
            if len(ext) != 1:
                raise StructureViolation(f"port {p} has {len(ext)} outside neighbors")
            out[p] = ext[0]

    def walk(i: int, entry: int) -> tuple[list[int], int, list[int]]:
        # cross diamond i from entry to its other port and step out, until the
        # step leaves the diamonds (a string's tail) or meets a seen one (a ring closed)
        order = []
        joins = [out[entry][0]]
        while True:
            seen[i] = True
            order.append(i)
            p, q = diamonds[i].ports
            exit_port = q if entry == p else p
            e, w = out[exit_port]
            joins.append(e)
            if owner[w] < 0 or seen[owner[w]]:
                return order, exit_port, joins
            i, entry = owner[w], w

    # each port has one outside neighbor and ports are nonadjacent, so the
    # diamonds join into paths and cycles: the walks from the free ports take
    # every path, and every diamond they leave unseen lies on a cycle
    free = sorted(p for p, (_, w) in out.items() if owner[w] < 0)
    strings: list[DiamondString] = []
    connectors: list[tuple[int, ...]] = []
    for head in free:
        if not seen[owner[head]]:
            order, tail, joins = walk(owner[head], head)
            strings.append(DiamondString(tuple(diamonds[j] for j in order), head, tail))
            connectors.append(tuple(joins))
    rings: list[tuple[Diamond, ...]] = []
    for i, dia in enumerate(diamonds):
        if not seen[i]:
            # diamonds come in least-vertex order, so i holds its ring's least vertex;
            # entering through the port facing the neighbor with the larger least
            # vertex leaves toward the smaller one
            entry = max(dia.ports, key=lambda p: diamonds[owner[out[p][1]]].vertices[0])
            rings.append(tuple(diamonds[j] for j in walk(i, entry)[0]))
    return strings, rings, connectors


def _contract(
    g: Multigraph,
    owner: list[int],
    bits: bytearray,
    strings: list[DiamondString],
    connectors: list[tuple[int, ...]],
) -> Decomposition:
    """Contract triangles to base vertices and strings to base edges.

    Takes the owner table and triangle bits of _scan_diamonds and the strings and
    connectors of _group_strings on a graph that classify would not call K4 or a
    ring of diamonds; the result's base is cubic, loop-free and 2-edge-connected.
    """
    nbrs = g._neighbors
    # group the remaining vertices into their unique triangles, named by one bit each
    tri_index = [-1] * g.n
    triangles: list[tuple[int, int, int]] = []
    for v in range(g.n):
        if owner[v] >= 0 or tri_index[v] >= 0:
            continue
        t = bits[v]
        if t not in (1, 2, 4):
            raise StructureViolation(f"vertex {v} lies in {t.bit_count()} triangles, expected 1")
        x, y, z = nbrs[v]
        a, b = (x, y) if t == 1 else (x, z) if t == 2 else (y, z)
        if owner[a] >= 0 or owner[b] >= 0 or tri_index[a] >= 0 or tri_index[b] >= 0:
            raise StructureViolation(f"triangle at vertex {v} overlaps other structure")
        tri_index[v] = tri_index[a] = tri_index[b] = len(triangles)
        triangles.append(tuple(sorted((v, a, b))))

    # base edges: direct corner-to-corner edges plus one edge per string
    records: list[tuple[int, int, tuple[int, int], DiamondString | None, tuple[int, ...]]] = []
    for eid, (x, y) in enumerate(g.edges):
        if owner[x] >= 0 or owner[y] >= 0:
            continue
        tx, ty = tri_index[x], tri_index[y]
        if tx == ty:
            continue  # a triangle side
        records.append((tx, ty, (x, y), None, (eid,)))
    for s, conn in zip(strings, connectors):
        # the end connectors leave free ports, so their far ends u and v lie in triangles
        (a, b), (x, y) = g.edges[conn[0]], g.edges[conn[-1]]
        u, v = a ^ b ^ s.head, x ^ y ^ s.tail
        if tri_index[u] == tri_index[v]:
            raise StructureViolation("string closes on one triangle, base would have a loop")
        records.append((tri_index[u], tri_index[v], (u, v), s, conn))

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


def _verify_cover(d: Decomposition) -> None:
    """Every host edge of a ring or expanded decomposition must play exactly one
    structural role; StructureViolation otherwise.

    Each vertex is labelled with the one triangle or diamond (a part)
    holding it; a vertex in two parts or in none is a violation.  One pass
    over the edges then counts, per part, the edges with both ends in it
    (its sides) and collects every other edge as a cross edge; an edge
    joining a diamond's two ports is a violation.  The graph is simple,
    so the counts are exact: 3 sides on a triangle's 3 vertices are all
    three of its pairs, and 5 sides on a diamond's 4 vertices without its
    port pair are the other five.  The cover holds iff every part is full
    and the connectors are exactly the cross edges; a ring has no
    connector list, its cross edges are the port-to-port joins.
    """
    broken = "decomposition does not cover the host edge set exactly"
    g = d.graph
    g.ensure_simple()
    if d.kind == KIND_RING:
        diamonds = d.ring
    else:
        diamonds = [dia for rep in d.replacements if rep.string for dia in rep.string.diamonds]
    parts = [*d.triangles, *(dia.vertices for dia in diamonds)]
    part = [-1] * g.n
    for i, verts in enumerate(parts):
        for v in verts:
            part[v] = i
    # n labels with none left at -1 means no vertex was labelled twice
    if sum(map(len, parts)) != g.n or -1 in part:
        raise StructureViolation(broken)
    is_port = [False] * g.n
    for dia in diamonds:
        for p in dia.ports:
            is_port[p] = True
    sides = [0] * len(parts)
    cross: list[int] = []
    for e, (u, v) in enumerate(g.edges):
        i = part[u]
        if i != part[v]:
            cross.append(e)
        elif is_port[u] and is_port[v]:
            raise StructureViolation(broken)
        else:
            sides[i] += 1
    connectors = sorted(e for rep in d.replacements for e in rep.connectors)
    if sides != [3] * len(d.triangles) + [5] * len(diamonds) or (
        d.kind != KIND_RING and connectors != cross
    ):
        raise StructureViolation(broken)


def classify(g: Multigraph) -> Decomposition:
    """Decide K4 / ring of diamonds / expansion for a 2-edge-connected claw-free cubic graph.

    The returned decomposition stores concrete ids: rebuilding from it
    reproduces g exactly, not just up to isomorphism.  A graph that is not
    simple, not cubic, not claw-free (the diamond scan's refusal), empty,
    disconnected or bridged is refused, in that order.
    """
    g.ensure_simple()
    for v, d in enumerate(g.degrees()):
        if d != 3:
            raise NotCubic(v, d)
    diamonds, owner, bits = _scan_diamonds(g)  # refuses a claw
    if g.n == 0:
        raise NotTwoEdgeConnected("graph has no vertices")
    roots, found = g._cuts
    if roots > 1:
        raise NotTwoEdgeConnected("graph is disconnected")
    if found:
        witness = min(found)
        raise NotTwoEdgeConnected(f"graph has a bridge: edge {witness}", witness)

    strings, rings, connectors = _group_strings(g, diamonds, owner)
    if diamonds and 4 * len(diamonds) == g.n:
        if len(diamonds) < 2:
            raise StructureViolation("a ring of diamonds has at least 2 diamonds")
        if len(rings) != 1:
            raise StructureViolation("all-diamond graph is not a single ring")
        d = Decomposition(KIND_RING, g, ring=rings[0])
        _verify_cover(d)
        return d
    if g.n == 4:
        return Decomposition(KIND_K4, g)
    if rings:
        raise StructureViolation("closed diamond cycle in a graph with triangle vertices")
    return _contract(g, owner, bits, strings, connectors)


def build(
    h: Multigraph, lengths: Mapping[int, int] | Sequence[int]
) -> tuple[Multigraph, Decomposition]:
    """Expand a base multigraph into a claw-free cubic graph.

    Each base vertex becomes a triangle; the three edges at a vertex
    attach to distinct corners in edge-index order, so a parallel pair
    with both lengths 0 lands on distinct corner pairs and produces a
    4-cycle, never parallel edges.  Each base edge of length L >= 1 is
    replaced by a string of L diamonds.
    """
    for v, d in enumerate(h.degrees()):
        if d != 3:
            raise InvalidBase(f"base vertex {v} has degree {d}, expected 3")
    if any(u == v for u, v in h.edges):
        raise InvalidBase("base has a loop")
    if not is_two_edge_connected(h):
        raise InvalidBase("base is not 2-edge-connected")
    length_of = [0] * h.m
    for e in range(h.m):
        try:
            length = lengths[e]
            if isinstance(length, bool):  # an int subclass, but not a diamond count
                raise TypeError
            length_of[e] = operator.index(length)
        except (KeyError, IndexError):
            raise ValueError(f"length of edge {e} is missing") from None
        except TypeError:
            raise ValueError(f"length of edge {e} is not an integer") from None
        if length_of[e] < 0:
            raise ValueError(f"length of edge {e} is negative")
    if len(lengths) != h.m:
        raise ValueError(f"expected {h.m} lengths, got {len(lengths)}")

    k = h.n
    corner = [0] * (2 * h.m)  # corner vertex of edge e at its side s, at 2 * e + s
    for v in range(k):
        for rank, e in enumerate(h._incidence[v]):
            corner[2 * e + (v != h.edges[e][0])] = 3 * v + rank

    g_edges: list[tuple[int, int]] = []
    for v in range(k):
        x = 3 * v
        g_edges += ((x, x + 1), (x, x + 2), (x + 1, x + 2))

    next_vertex = 3 * k
    replacements: list[EdgeReplacement] = []
    for e in range(h.m):
        ca, cb = corner[2 * e], corner[2 * e + 1]
        if length_of[e] == 0:
            replacements.append(EdgeReplacement((ca, cb), None, (len(g_edges),)))
            g_edges.append((ca, cb))
            continue
        anchor = ca
        connectors: list[int] = []
        diamonds: list[Diamond] = []
        for _ in range(length_of[e]):
            x, s, t, y = range(next_vertex, next_vertex + 4)
            next_vertex += 4
            connectors.append(len(g_edges))
            g_edges += ((anchor, x), (x, s), (x, t), (s, t), (s, y), (t, y))
            diamonds.append(Diamond((x, s, t, y), (x, y), (s, t)))
            anchor = y
        connectors.append(len(g_edges))
        g_edges.append((anchor, cb))
        string = DiamondString(tuple(diamonds), diamonds[0].ports[0], diamonds[-1].ports[1])
        replacements.append(EdgeReplacement((ca, cb), string, tuple(connectors)))

    g = Multigraph(next_vertex, tuple(g_edges))
    # checked here, not left to _verify_cover, so its edge key set is freed before the cover
    # tables exist
    g.ensure_simple()
    d = Decomposition(
        KIND_EXPANDED,
        g,
        base=h,
        triangles=tuple((3 * v, 3 * v + 1, 3 * v + 2) for v in range(k)),
        replacements=tuple(replacements),
    )
    _verify_cover(d)
    return g, d


def ring_of_diamonds(d: int) -> Multigraph:
    """The 4d-vertex ring: d diamonds joined port-to-port in a cycle."""
    if d < 2:
        raise ValueError("a ring of diamonds contains at least 2 diamonds")
    edges: list[tuple[int, int]] = []
    for i in range(d):
        p, s, t, q = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(p, s), (p, t), (s, t), (s, q), (t, q)]
    for i in range(d):
        edges.append((4 * i + 3, 4 * ((i + 1) % d)))
    return Multigraph(4 * d, tuple(edges))


def figure1_graph(segments: int = 0) -> Multigraph:
    """A bridged claw-free cubic graph with exactly 9 perfect matchings.

    Two 7-vertex end blocks (a diamond wired to a triangle) are chained
    through `segments` middle diamonds; every joining edge is a cutedge,
    so each end block contributes its 3 internal completions and each
    middle diamond is forced, giving 3 * 3 = 9 matchings for every size.
    """
    if segments < 0:
        raise ValueError("segments must be nonnegative")
    edges: list[tuple[int, int]] = []
    # left block: diamond on 0..3 (ports 0 and 2), triangle on 4..6
    edges += [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges += [(0, 4), (2, 5)]
    edges += [(4, 5), (4, 6), (5, 6)]
    anchor = 6
    base = 7
    for _ in range(segments):
        p, s, t, q = base, base + 1, base + 2, base + 3
        edges.append((anchor, p))
        edges += [(p, s), (p, t), (s, t), (s, q), (t, q)]
        anchor = q
        base += 4
    # right block mirrors the left one
    r = base
    edges.append((anchor, r))
    edges += [(r, r + 1), (r, r + 2), (r + 1, r + 2)]
    edges += [(r + 1, r + 3), (r + 2, r + 5)]
    edges += [(r + 3, r + 4), (r + 3, r + 6), (r + 4, r + 5), (r + 4, r + 6), (r + 5, r + 6)]
    return Multigraph(r + 7, tuple(edges))


def random_base(k: int, seed: int = 0) -> Multigraph:
    """A seeded random cubic 2-edge-connected loop-free multigraph on k vertices.

    Pairing-model sampling with rejection; parallel edges are allowed,
    loops and bridges are not.  Deterministic for a fixed seed; no
    uniformity contract.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    rng = random.Random(seed)
    stubs_template = [v for v in range(k) for _ in range(3)]
    while True:
        stubs = stubs_template[:]
        rng.shuffle(stubs)
        pairs = []
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                break
            pairs.append((u, v) if u < v else (v, u))
        else:
            g = Multigraph(k, tuple(sorted(pairs)))
            if is_two_edge_connected(g):
                return g
