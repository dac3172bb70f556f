"""Turning cycle-space members of the base into 2-factors and certificates.

A member C of the base's cycle space lifts to a 2-factor of the expanded
graph: a triangle touched by C is routed as the 2-path through its third
corner (forced, so triangles carry no choice), an untouched triangle
contributes its 3-cycle, a diamond on a traversed edge is crossed one of
two ways, and a diamond on an unused edge contributes its internal 4-cycle.
A routing is an int: its bit i picks the way through the i-th diamond C
crosses, counting base edges by id and each string from its head; bit 0
crosses entry-s-t-exit, bit 1 entry-t-s-exit, with s < t the diamond's
internals; string_passages reads that order and each entry port off the
connectors the decomposition records.  Complementing 2-factors of a cubic
graph gives perfect matchings; collecting enough of them certifies the
exponential lower bound with exact integer arithmetic.

Lifting is table driven and edge sets are int bitmasks over edge ids.
The gadget tables of a decomposition are built once per certify or expand
call, every host edge read off incidence masks: in a simple graph the AND
of the incidence masks of u and v is the edge u-v, or 0 if there is none.
The tables hold:
- per base vertex, the triangle edges taken for each pair of used base
  edges and for none;
- per base edge, the host edges taken when the member traverses it
  (connectors and every diamond's bit-0 walk) and when it does not
  (every diamond's 4-cycle);
- per diamond, the XOR that turns its bit-0 walk into its bit-1 walk,
  which is its 4-cycle (_Gadgets.routes lists those of a member in
  routing-bit order).
The entries of different base vertices and base edges share no host edge,
so a lift is the XOR of its disjoint pieces and a routing an XOR of flips.
Every family is built bit-sliced, as columns: one int per edge whose bit
j says whether the edge is in member or factor j, with no Python step per
member.  There is one lift, _Gadgets.lift, from a family of base members
(bit j of held[e]: member j holds base edge e) to the family of their
lifts, each table entry a Boolean function of those bits.  A walk of flips
from a start, in cyclespace.gray_walk's order, is the start's columns with
each flip's edges toggled by the int of the steps that have it in
(_gray_columns, _walk_family).  The cycle-space branch lifts the walk over
the basis cycles; the long-2-factor branch lifts its one member in every
step and toggles in its diamonds' flips; expand lifts a one-member family;
a ring of diamonds, a string closed on itself, walks its joins (the edges
at its ports in no 4-cycle) and bit-0 walks over its 4-cycles one bit
above its idle factor (every 4-cycle).  K4's factors are the complements
of its 3 pairings, its pairs of edges with disjoint ends, read off its edge
list; K4 and complement_matching give their factor masks to _rows through
_columns.  Every row certify, expand and complement_matching make comes
from _rows, which takes one family, built whole, checks every factor
exactly, and returns its rows sorted: they are distinct by the injective
lift, and a repeat is an internal error, not a dedupe (see its docstring).
certificate_problems checks rows parsed from text, which need not be well
formed, in one pass of C-level calls for a valid certificate and a per-row
loop that words each problem otherwise (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, cycle, pairwise, repeat, starmap
from typing import Iterable

from .counting import enumerate_perfect_matchings, max_length_two_factor
from .cyclespace import _basis_masks
from .errors import BoundFailure, CapExceeded, DegreeViolation, StructureViolation
from .graphs import (
    EdgeSubset,
    Multigraph,
    _BIT_VALUES,
    _bit_strings,
    _mask,
    _unmask,
    find_claw,
    is_cubic,
    is_three_edge_connected,
    subset_degrees,
)
from .structure import (
    KIND_EXPANDED,
    KIND_K4,
    KIND_RING,
    Decomposition,
    classify,
    string_passages,
)

CAP = 1 << 22  # most rows certify emits, and most matchings verify_3ec_remark enumerates


_SLICE = 1024  # rows _rows turns into ids per joined string, which bounds that string

_Family = tuple[list[int], int]  # (columns, size): bit j of columns[e]: factor j holds e


def _gray_columns(d: int) -> _Family:
    """gray_walk over d flips as a family over the flips: bit j of the i-th column is set
    when step j has flip i in, that is bit i of j ^ j >> 1 (runs of 2^i clear, 2^(i+1) set
    and 2^i clear), and the walk has 2^d steps."""
    size, columns = 1 << d, []
    for i in range(d):
        run = 1 << i
        column, period = ((1 << 2 * run) - 1) << run, 4 * run
        while period < size:
            column |= column << period
            period *= 2
        columns.append(column & (1 << size) - 1)
    return columns, size


def _toggle(columns: list[int], mask: int, column: int) -> None:
    """XOR column into the columns of the edges of mask, unless it is 0."""
    if column:
        for e in _unmask(mask):
            columns[e] ^= column


def _columns(m: int, factors: Iterable[int]) -> _Family:
    """A few factor masks, each below 1 << m, as one family: factor j sets bit j in the
    columns of its edges."""
    columns, factors = [0] * m, list(factors)
    for j, factor in enumerate(factors):
        _toggle(columns, factor, 1 << j)
    return columns, len(factors)


def _walk_family(m: int, start: int, flips: list[int]) -> _Family:
    """gray_walk(start, flips) over m edges as a family: every step holds start's edges,
    and flip i toggles its edges in the steps that have it in."""
    gray, size = _gray_columns(len(flips))
    columns = [0] * m
    _toggle(columns, start, (1 << size) - 1)
    for column, flip in zip(gray, flips):
        _toggle(columns, flip, column)
    return columns, size


def _not_once(columns: list[int], full: int, at: Iterable[tuple[int, ...]]) -> int:
    """The rows, as bits of full, that do not hold exactly one edge of some tuple of at,
    bit j of columns[e] saying whether row j holds edge e: per tuple, once gathers the
    rows that hold one of its edges and twice those that hold two or more."""
    wrong = 0
    for edges in at:
        once = twice = 0
        for column in map(columns.__getitem__, edges):
            twice |= once & column
            once |= column
        wrong |= twice | once ^ full
    return wrong


def _rows(g: Multigraph, family: _Family) -> tuple[tuple[int, ...], ...]:
    """The edge ids of the complements of a family's factors, sorted, once each is seen
    to be a perfect matching of the cubic graph g, which holds iff its factor is a
    2-factor.  Otherwise the first factor that is not one raises DegreeViolation.  The
    factors are distinct by the injective lift, so a repeated row raises
    StructureViolation: it is an internal error, not a row to drop.

    Each step is a pass of big-int or C-level calls, with no Python step per row.  The
    complement columns are checked whole (_not_once): a row must hold exactly one edge at
    each vertex (g._incidence, where a loop appears once) and no loop, which is what a
    perfect matching is, and in a cubic host what a factor of degree 2 at every vertex
    leaves.  The error branch words the first bad factor by that degree count, its edge
    ids read off bit j of the columns.

    Once the family passes, its complement columns are written as bit strings
    (graphs._bit_strings) end to end: row j, the m 0/1 characters of factor j's
    complement from edge 0 up, is every size-th byte from byte j.  The rows are sorted as
    bytes as they are, with no key: at one width and popcount, descending byte order is
    ascending id-tuple order, so no row tuple is hashed or compared, and equal rows end
    up adjacent.  Slices of _SLICE rows are taken off the end of the sorted list, the
    first rows first, joined in reverse and translated to 0/1 bytes; one compress over
    cycle(range(m)) reads off their ids and zip groups those n/2 at a time.  Each slice
    leaves the list once read, so the byte rows shrink as the id rows grow and no joined
    string spans the family.
    """
    m, half, at = g.m, g.n // 2, g._incidence
    loops = [e for e, (u, v) in enumerate(g.edges) if u == v]
    columns, size = family
    full = (1 << size) - 1
    complements = list(map(full.__xor__, columns))
    wrong = _not_once(complements, full, at)
    for e in loops:
        wrong |= complements[e]
    del complements  # left alive, it would sit under the rows
    if wrong:
        j = (wrong & -wrong).bit_length() - 1  # the first bad factor
        deg = subset_degrees(g, compress(range(m), map((1 << j).__and__, columns)))
        bad = [v for v, dv in enumerate(deg) if dv != 2]
        raise DegreeViolation(f"expansion is not a 2-factor at vertices {bad}")
    # the complement columns' bit strings end to end: row j is every size-th byte from j
    text = "".join(_bit_strings(map(full.__xor__, columns), size)).encode()
    strings = list(map(text.__getitem__, map(slice, range(size), repeat(None), repeat(size))))
    del family, columns, text  # left alive, any would sit under the finished rows
    strings.sort()  # ascending: the first rows are at the end
    if any(starmap(bytes.__eq__, pairwise(strings))):
        raise StructureViolation("a row repeats: the lift to 2-factors is not injective")
    rows: list[tuple[int, ...]] = []
    while strings:
        r = min(len(strings), _SLICE)
        bits = b"".join(reversed(strings[-r:])).translate(_BIT_VALUES)
        del strings[-r:]
        # with no ids per row (n < 2, so the one complement is empty), zip would yield nothing
        rows += zip(*[compress(cycle(range(m)), bits)] * half) if half else [()]
    return tuple(rows)


def _string(g: Multigraph, walk: int, passages: Iterable[tuple[int, int, int, int]]):
    """Connector mask walk plus every bit-0 walk entry-s-t-exit of a diamond string's
    passages (see string_passages), the OR of their 4-cycles, and the 4-cycles in order,
    read off the incidence masks a, b, c, d of entry, exit, s and t."""
    idle, cycles = 0, []
    for a, b, c, d in (map(_mask, map(g.incident, passage)) for passage in passages):
        walk |= a & c | c & d | d & b
        cycles.append((a | b) & (c | d))
        idle |= cycles[-1]
    return walk, idle, cycles


class _Gadgets:
    """The lift tables of one expanded decomposition (see the module docstring)."""

    def __init__(self, d: Decomposition):
        if d.kind != KIND_EXPANDED:
            raise ValueError("expand needs an expanded decomposition")
        g, h = d.graph, d.base
        self.base, self.m = h, g.m
        if not is_cubic(g):
            raise ValueError("complementing a 2-factor needs a cubic expanded graph")
        # (v, mask of the base edges at v, {member & that mask: triangle edges})
        self.vertex: list[tuple[int, int, dict[int, int]]] = []
        for v, corners in enumerate(d.triangles):
            inc = _mask(h.incident(v))
            a, b, c = map(_mask, map(g.incident, corners))
            states = {0: a & b | a & c | b & c}
            for e in h.incident(v):
                # the member uses the other two edges at v: route through e's corner
                states[inc ^ 1 << e] = states[0] & _mask(g.incident(d.corner(e, v)))
            self.vertex.append((v, inc, states))
        # per base edge e, (host edges when traversed, host edges when idle), and
        # flips[e][i], the XOR from bit 0 to bit 1 of the i-th diamond from e's head
        self.edges: list[tuple[int, int]] = []
        self.flips: list[list[int]] = []
        for rep in d.replacements:
            passages = string_passages(g, rep) if rep.string else ()
            walk, idle, flips = _string(g, _mask(rep.connectors), passages)
            self.edges.append((walk, idle))
            self.flips.append(flips)

    def lift(self, family: _Family) -> _Family:
        """The bit-0 lift of every member of a family over the base's edges, bit j of
        held[e] saying whether member j holds base edge e.  Each table entry is taken
        where its condition on those bits holds: a base edge's walk where the member holds
        it and its idle where not, a base vertex's state where the member's edges at it
        are that state's.  The entries taken where one column says are XORed together
        first, so a family with few distinct columns (one member, or one member in every
        step) unmasks a few host masks, not one per entry.  A member with no state at some
        base vertex raises DegreeViolation, the lowest such member worded by the first
        base vertex where it has none."""
        held, size = family
        full = (1 << size) - 1
        pieces, missing = {}, 0  # column: the XOR of the entries taken where it says
        for (walk, idle), x in zip(self.edges, held):
            pieces[x] = pieces.get(x, 0) ^ walk
            pieces[x ^ full] = pieces.get(x ^ full, 0) ^ idle
        for v, _, states in self.vertex:
            ends = [(1 << e, held[e]) for e in self.base.incident(v)]
            stated = 0
            for state, triangle in states.items():
                hit = full
                for bit, x in ends:
                    hit &= x if state & bit else x ^ full
                pieces[hit] = pieces.get(hit, 0) ^ triangle
                stated |= hit
            missing |= stated ^ full
        if missing:
            j = (missing & -missing).bit_length() - 1  # the lowest member with no state
            member = _mask(e for e, x in enumerate(held) if x >> j & 1)
            v, inc = next((v, inc) for v, inc, states in self.vertex if member & inc not in states)
            raise DegreeViolation(
                f"base vertex {v} has degree {(member & inc).bit_count()} in the member, "
                "expected 0 or 2"
            )
        columns = [0] * self.m
        for column, edges in pieces.items():
            _toggle(columns, edges, column)
        return columns, size

    def routes(self, member: int) -> list[int]:
        """The flips of every diamond a base member mask crosses: base edges by id,
        each string from its head.  Bit i of a routing takes the i-th."""
        return [flip for e in _unmask(member) for flip in self.flips[e]]

    def cycle_space(self, cycles: list[int]) -> _Family:
        """The lift of every member of the base's cycle space, member j being step j of
        gray_walk over the basis masks cycles (see _basis_masks), the order of
        enumerate_cycle_space."""
        return self.lift(_walk_family(self.base.m, 0, cycles))

    def long_walk(self, lengths: dict[int, int]) -> _Family:
        """The lift of the base's longest 2-factor by lengths (max_length_two_factor) under
        every routing, in gray_walk order; more than CAP routings raise CapExceeded.  Every
        step holds the member, and flip i is toggled in the steps that have it in."""
        member = max_length_two_factor(self.base, lengths).mask
        flips = self.routes(member)
        if 1 << len(flips) > CAP:
            raise CapExceeded(1 << len(flips), CAP)
        gray, size = _gray_columns(len(flips))
        held = [0] * self.base.m
        _toggle(held, member, (1 << size) - 1)
        columns, size = self.lift((held, size))
        for column, flip in zip(gray, flips):
            _toggle(columns, flip, column)
        return columns, size


def expand(member: EdgeSubset, d: Decomposition, routing: int = 0) -> EdgeSubset:
    """Lift an even subgraph of the base to a 2-factor of the expanded graph.

    Bit i of routing picks the way through the i-th diamond the member
    crosses (see the module docstring), so routing lies in range(2**L) for
    L crossed diamonds, and 0 takes bit 0 everywhere.
    Builds the decomposition's gadget tables for this one lift; certify
    builds them once for all of its rows.
    """
    gadgets = _Gadgets(d)
    if member.host != d.base:
        raise ValueError("member is not hosted on the decomposition's base")
    columns, _ = gadgets.lift(_columns(d.base.m, [member.mask]))
    flips = gadgets.routes(member.mask)
    if not 0 <= routing < 1 << len(flips):
        raise ValueError(f"routing must lie in range(2**{len(flips)}), one bit per crossed diamond")
    routed = 0  # the chosen flips' XOR, unmasked once
    for i, flip in enumerate(flips):
        if routing >> i & 1:
            routed ^= flip
    _toggle(columns, routed, 1)
    _rows(d.graph, (columns, 1))
    return EdgeSubset(d.graph, _mask(compress(range(d.graph.m), columns)))


def complement_matching(g: Multigraph, factor: EdgeSubset) -> EdgeSubset:
    """The perfect matching complementary to a 2-factor of a cubic graph."""
    if not is_cubic(g):
        raise ValueError("complementation needs a cubic host")
    if factor.host != g:
        raise DegreeViolation("argument is not a 2-factor of the host")
    return EdgeSubset.of(g, _rows(g, _columns(g.m, [factor.mask]))[0])


@dataclass(frozen=True)
class Certificate:
    """A family of perfect matchings beating 2^(n/12), distinct by the injective lift.

    matchings are canonical rows (sorted edge ids, rows sorted);
    branch is k4, ring, cycle-space or long-2-factor;
    bound_ok records the exact-integer comparison count^12 > 2^n.
    """

    host: Multigraph
    matchings: tuple[tuple[int, ...], ...]
    n: int
    branch: str
    bound_ok: bool


def _ring_factors(g: Multigraph, ring) -> _Family:
    """The 2^d + 1 2-factors of a ring of d diamonds, a string closed on itself, as one
    family: factor 0 is the idle factor of every 4-cycle, and factor j + 1 the routing of
    step j of the walk (ports cross in either order)."""
    size = (1 << len(ring)) + 1
    if size > CAP:
        raise CapExceeded(size, CAP)
    walk, idle, cycles = _string(g, 0, [(*dia.ports, *dia.internals) for dia in ring])
    # the joins between consecutive diamonds: the edges at the ports in no 4-cycle
    joins = _mask(e for dia in ring for p in dia.ports for e in g.incident(p)) & ~idle
    columns, _ = _walk_family(g.m, walk | joins, cycles)
    return [w << 1 | idle >> e & 1 for e, w in enumerate(columns)], size


def certify(g: Multigraph) -> Certificate:
    """Emit an explicit family of perfect matchings with |family|^12 > 2^n.

    Dispatch follows the structure: K4 and rings get their closed-form
    families; otherwise the cycle-space branch fires when the base has
    k >= n/6 vertices and the long-2-factor branch when k < n/6.  A family
    of more than CAP rows raises CapExceeded.  Its rows are distinct by the
    injective lift, so a repeat raises StructureViolation (see _rows).
    """
    d = classify(g)
    if d.kind == KIND_K4:
        full, pairs = (1 << g.m) - 1, combinations(enumerate(g.edges), 2)
        factors = [full ^ 1 << e ^ 1 << f for (e, a), (f, b) in pairs if {*a}.isdisjoint(b)]
        family = _columns(g.m, factors)
        branch = "k4"
    elif d.kind == KIND_RING:
        family = _ring_factors(g, d.ring)
        branch = "ring"
    elif 6 * d.base.n >= g.n:
        # the cap refuses before the tables, which cost O(n·m) bits, are built
        cycles = _basis_masks(d.base, CAP)
        family = _Gadgets(d).cycle_space(cycles)
        branch = "cycle-space"
    else:
        family = _Gadgets(d).long_walk(dict(enumerate(d.lengths())))
        branch = "long-2-factor"
    rows = _rows(g, family)
    count = len(rows)
    if not count**12 > 2**g.n:
        dump = "\n".join(" ".join(map(str, row)) for row in rows)
        raise BoundFailure(
            f"certificate of {count} matchings misses the bound on n={g.n} (branch {branch})",
            dump,
        )
    return Certificate(g, rows, g.n, branch, True)


def certificate_problems(g: Multigraph, cert: Certificate) -> list[str]:
    """Re-validate a certificate from scratch; empty list means valid.

    A valid certificate is accepted by one pass of C-level calls over its
    rows.  With s = m + n.bit_length() and code[e] = (1 << u | 1 << v) << s
    | 1 << e for edge e = (u, v), a row of n // 2 ids in range(m) sums to
    high << s | low, where low, a sum of n // 2 bits below bit m, stays
    under 1 << s.  So high is the sum of the row's end masks, a loop's
    having one bit.  That sum is (1 << n) - 1 exactly when the row is a
    perfect matching: the n // 2 masks carry at most n one-bits between
    them, and a sum has fewer one-bits than its terms whenever two terms
    share a bit (the addition carries), so it is full only when no two
    edges share a vertex and none is a loop (for odd n, n // 2 masks have
    too few bits).  Then the row's ids are distinct, low is their bitmask,
    and two such rows have equal sums exactly when they hold the same ids.
    The codes are a dict, so an id outside range(m), negative ones
    included, raises KeyError, and the pass runs only when every row's
    plain sum of ids is an int, so a float or other non-int id never meets
    the codes.  Anything else goes through the per-row loop, which words
    every problem; a row with a float, str or other non-int id is worded
    as such and skipped, bool ids count as 0 and 1, and a row that is no
    perfect matching, by its length or its coded sum, is worded by the
    first vertex whose degree in it is not 1.  It keys a perfect row by
    that exact coded sum and any other row by its sorted ids, in one set.
    """
    n, m, rows = g.n, g.m, cert.matchings
    s, full = m + n.bit_length(), (1 << n) - 1
    code = {e: (1 << u | 1 << v) << s | 1 << e for e, (u, v) in enumerate(g.edges)}
    try:
        if (
            cert.n == n
            and set(map(len, rows)) == {n // 2}
            and set(map(type, map(sum, rows))) == {int}
        ):
            sums = set(map(sum, map(map, repeat(code.__getitem__), rows)))
            bound_holds = len(rows) ** 12 > 2**n
            if (
                min(sums) >> s == max(sums) >> s == full
                and len(sums) == len(rows)
                and bound_holds
                and cert.bound_ok == bound_holds
            ):
                return []
    except (TypeError, KeyError):  # an id that is not an int, or one outside range(m)
        pass
    problems: list[str] = []
    if cert.n != n:
        problems.append(f"certificate n={cert.n} does not match the graph n={n}")
    seen: set[int | tuple[int, ...]] = set()
    for idx, row in enumerate(cert.matchings):
        if not all(map(isinstance, row, repeat(int))):  # bool ids pass, as 0 and 1
            problems.append(f"matching {idx} has a non-integer edge index")
            continue
        if row and (min(row) < 0 or max(row) >= m):
            problems.append(f"matching {idx} has an out-of-range edge index")
            continue
        key: int | tuple[int, ...] = sum(map(code.__getitem__, row))
        if len(row) != n // 2 or key >> s != full:
            deg = subset_degrees(g, row)
            bad = next((v for v, dv in enumerate(deg) if dv != 1), None)
            problems.append(
                f"matching {idx} is not a perfect matching: vertex {bad} has degree {deg[bad]}"
            )
            key = tuple(sorted(row))  # the coded sum is exact for perfect rows only
        if key in seen:
            problems.append(f"matching {idx} duplicates an earlier row")
        seen.add(key)
    count = len(seen)
    bound_holds = count**12 > 2**n
    if not bound_holds:
        problems.append(f"bound fails: {count}^12 <= 2^{n}")
    if cert.bound_ok != bound_holds:
        problems.append("bound_ok flag does not match the exact arithmetic")
    return problems


def verify_certificate(g: Multigraph, cert: Certificate) -> bool:
    return not certificate_problems(g, cert)


def verify_3ec_remark(g: Multigraph) -> bool:
    """Check the exact count 2^(n/6+1) and its mechanism on a 3-edge-connected host.

    The mechanism: such a graph has no diamonds, and lifting the base's
    cycle space is a bijection onto the 2-factors of g.  K4 is excluded
    by precondition.

    Both halves are checked on the rows certify emits, the complements of
    its lifts, against one enumeration of the perfect matchings by the
    backtracking oracle, which shares no code with the lift.  In a cubic
    graph the 2-factors are exactly the complements of the perfect
    matchings, so the remark holds iff the oracle finds 2^(n/6+1)
    matchings and certify's cycle-space rows are exactly those; as the
    base's cycle space has 2^(n/6+1) members, the lift is then injective.
    A count 2^(n/6+1) above CAP raises CapExceeded without enumerating:
    the remark is then undecided, not false.  Below it, an enumeration
    that overflows CAP is False, since the count then really differs.
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
    expected = 2 ** (g.n // 6 + 1)
    if expected > CAP:
        raise CapExceeded(expected, CAP)
    try:
        matchings = enumerate_perfect_matchings(g, CAP)
    except CapExceeded:
        return False
    if len(matchings) != expected:
        return False
    cert = certify(g)
    return cert.branch == "cycle-space" and set(cert.matchings) == {
        m.sorted_tuple() for m in matchings
    }
