"""Line-oriented text formats.

Graph documents: a header ``p <n> <m>`` followed by m lines ``e <u> <v>``
with 0-based endpoints; ``#`` starts a comment; parallel edges are
repeated lines and edge indices are the order of the e-lines.  This
format survives multigraph roundtrips, which graph6 would not.

Serializers are canonical and byte-stable: identical values in,
identical text out.
"""

from __future__ import annotations

import io
from itertools import repeat

from .errors import ParseError
from .expansion import Certificate
from .graphs import Multigraph
from .structure import KIND_EXPANDED, KIND_K4, KIND_RING, Decomposition


def _is_decimal(field: str) -> bool:
    """Surrounding whitespace, an optional "-" and ASCII digits: the integers documents and
    CLI fields take.  int() alone would also take "1_0", "+0" and non-ASCII digits."""
    digits = field.strip().removeprefix("-")
    return digits.isascii() and digits.isdigit()


def parse_graph(text: str) -> Multigraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    lineno = 1  # what an empty document reports
    # lines end at "\n", "\r\n" or "\r" only, as open() reads them; str.splitlines
    # would also end one at a form feed, U+2028 and other separators inside a comment
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
        # _is_decimal inline: split() leaves no whitespace to strip
        a, b = parts[1], parts[2]
        if not (
            a.isascii()
            and b.isascii()
            and a.removeprefix("-").isdigit()
            and b.removeprefix("-").isdigit()
        ):
            raise ParseError(lineno, "edge endpoints must be integers")
        u, v = int(a), int(b)
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


def serialize_graph(g: Multigraph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def serialize_decomposition(d: Decomposition) -> str:
    lines = [f"kind={d.kind}", f"n={d.graph.n}"]
    if d.kind == KIND_K4:
        pass
    elif d.kind == KIND_RING:
        lines.append(f"diamonds={len(d.ring)}")
        for i, dia in enumerate(d.ring):
            lines.append(f"diamond_{i}={','.join(map(str, dia.vertices))}")
    elif d.kind == KIND_EXPANDED:
        lines.append(f"k={d.base.n}")
        for e, (u, v) in enumerate(d.base.edges):
            lines.append(f"h_edge_{e}={u},{v}")
        lines.append(f"lengths=[{','.join(map(str, d.lengths()))}]")
        for v, tri in enumerate(d.triangles):
            lines.append(f"triangle_{v}={','.join(map(str, tri))}")
        for e, rep in enumerate(d.replacements):
            if rep.string:
                body = ";".join(
                    ",".join(map(str, dia.vertices)) for dia in rep.string.diamonds
                )
                lines.append(f"string_{e}={body}")
    else:
        raise ValueError(f"unknown decomposition kind {d.kind!r}")
    return "\n".join(lines) + "\n"


def serialize_certificate(c: Certificate) -> str:
    lines = [
        f"n={c.n}",
        f"branch={c.branch}",
        f"count={len(c.matchings)}",
        f"bound_ok={'true' if c.bound_ok else 'false'}",
    ]
    # every edge id's decimal string, made once instead of once per row it is in
    names = {e: str(e) for e in range(c.host.m)}
    try:  # the row lines are made in full first, so a KeyError leaves lines at the header
        lines += list(map(" ".join, map(map, repeat(names.__getitem__), c.matchings)))
    except KeyError:  # an id outside range(m): print every row as it is
        lines += [" ".join(map(str, row)) for row in c.matchings]
    return "\n".join(lines) + "\n"
