"""Command-line surface.

Exit codes: 0 success or property holds, 1 property fails, 2 usage or
parse error, a question too large to decide within the cap (such as
verify-3ec on a host whose count 2^(n/6+1) exceeds it), or an input too
large for the memory available (such as the 17-byte document
"p 100000000000 0"), 3 internal invariant violation,
141 (the status a shell reports for SIGPIPE) standard output closed
before the command finished writing, as when the reader of `clawmatch
certify FILE | head -3` exits early.  Every error is one "error: ..." or
"internal error: ..." line on stderr; a closed standard output prints
nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import counting, cyclespace, expansion, formats, graphs, structure
from .errors import (
    BoundFailure,
    DegreeViolation,
    GraphError,
    NoTwoFactor,
    StructureViolation,
    _count_text,
)

INTERNAL_ERRORS = (BoundFailure, StructureViolation, DegreeViolation, NoTwoFactor)


def _load(path: str) -> graphs.Multigraph:
    return formats.parse_graph(Path(path).read_text())


def _emit(text: str) -> None:
    """Write text to stdout in full, or raise BrokenPipeError once the reader has gone.

    Under PYTHONUNBUFFERED=1 the text layer writes straight through to the
    raw file, and a raw write cut short by the reader returns a short count
    instead of raising, so the rest of the text would be dropped and the
    command exit 0.  Writing the bytes in a loop makes the write after the
    cut raise.  A stdout with no binary buffer, such as io.StringIO, takes
    the text as it is.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    view = memoryview(text.encode())
    while view:
        view = view[buffer.write(view) :]


def _cmd_check(args) -> int:
    g = _load(args.file)
    simple = g.is_simple()
    br = graphs.bridges(g).sorted_tuple()
    _emit(f"n={g.n}\n")
    _emit(f"m={g.m}\n")
    _emit(f"simple={'true' if simple else 'false'}\n")
    _emit(f"cubic={'true' if graphs.is_cubic(g) else 'false'}\n")
    if simple:
        _emit(f"claw_free={'true' if graphs.is_claw_free(g) else 'false'}\n")
    else:
        _emit("claw_free=n/a\n")
    _emit(f"bridges=[{','.join(map(str, br))}]\n")
    _emit(f"bridge_count={len(br)}\n")
    _emit(f"connected={'true' if graphs.is_connected(g) else 'false'}\n")
    _emit(f"two_edge_connected={'true' if graphs.is_two_edge_connected(g) else 'false'}\n")
    _emit(f"three_edge_connected={'true' if graphs.is_three_edge_connected(g) else 'false'}\n")
    if args.bridgeless and br:
        return 1
    return 0


def _cmd_decompose(args) -> int:
    d = structure.classify(_load(args.file))
    _emit(formats.serialize_decomposition(d))
    return 0


def _cmd_build(args) -> int:
    base = _load(args.base)
    fields = args.lengths.split(",")
    if not all(map(formats._is_decimal, fields)):
        raise ValueError("--lengths must be a comma-separated list of integers")
    lengths = [int(p) for p in fields]
    if len(lengths) != base.m:
        raise ValueError(f"expected {base.m} lengths, got {len(lengths)}")
    g, _ = structure.build(base, lengths)
    _emit(formats.serialize_graph(g))
    return 0


def _cmd_gen(args) -> int:
    if args.what == "ring":
        g = structure.ring_of_diamonds(args.size)
    elif args.what == "fig1":
        g = structure.figure1_graph(args.size)
    else:
        g = structure.random_base(args.size, args.seed)
    _emit(formats.serialize_graph(g))
    return 0


def _cmd_count(args) -> int:
    _emit(f"{counting.count_perfect_matchings(_load(args.file))}\n")
    return 0


def _cmd_cycle_space(args) -> int:
    g = _load(args.file)
    cb = cyclespace.cycle_basis(g)
    # enumerated before the first line, so a refusal leaves stdout empty
    members = cyclespace.enumerate_cycle_space(g, args.cap) if args.enumerate else []
    _emit(f"dimension={cb.dimension}\n")
    _emit(f"members={_count_text(1 << cb.dimension)}\n")
    for i, b in enumerate(cb.basis):
        _emit(f"basis_{i}={','.join(map(str, b))}\n")
    for i, member in enumerate(members):
        _emit(f"member_{i}={','.join(map(str, member.sorted_tuple()))}\n")
    return 0


def _cmd_certify(args) -> int:
    g = _load(args.file)
    cert = expansion.certify(g, both_branches=args.both_branches)
    _emit(formats.serialize_certificate(cert))
    if args.verify_oracle:
        oracle = {
            m.sorted_tuple() for m in counting.enumerate_perfect_matchings(g, expansion.CAP)
        }
        # each row must be one of the oracle's matchings; a valid certificate may
        # hold fewer rows than there are matchings, so none is required to appear
        if any(row not in oracle for row in cert.matchings):
            raise StructureViolation("certificate disagrees with the oracle enumeration")
        _emit("oracle_check=ok\n")
    return 0


def _cmd_verify_3ec(args) -> int:
    ok = expansion.verify_3ec_remark(_load(args.file))
    _emit(f"result={'true' if ok else 'false'}\n")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawmatch",
        description="Perfect-matching certificates for claw-free cubic bridgeless graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report structural predicates as key=value lines")
    p.add_argument("file")
    p.add_argument("--bridgeless", action="store_true", help="exit 1 if the graph has a bridge")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("decompose", help="K4 / ring-of-diamonds / expansion classification")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("build", help="expand a base multigraph into a claw-free cubic graph")
    p.add_argument("--base", required=True, help="base multigraph document")
    p.add_argument("--lengths", required=True, help="comma-separated diamond counts per base edge")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("gen", help="corpus generators")
    gsub = p.add_subparsers(dest="what", required=True)
    q = gsub.add_parser("ring", help="ring of diamonds")
    q.add_argument("size", type=int)
    q = gsub.add_parser("fig1", help="bridged family with 9 perfect matchings")
    q.add_argument("size", type=int, help="number of middle diamonds")
    q = gsub.add_parser("random-base", help="random cubic 2-edge-connected multigraph")
    q.add_argument("size", type=int)
    q.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("count", help="exact brute-force perfect-matching count")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("cycle-space", help="GF(2) cycle basis, optionally the full enumeration")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=1 << 20)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(fn=_cmd_cycle_space)

    p = sub.add_parser("certify", help="emit a perfect-matching certificate")
    p.add_argument("file")
    p.add_argument("--both-branches", action="store_true")
    p.add_argument("--verify-oracle", action="store_true")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("verify-3ec", help="check the exact 2^(n/6+1) count on 3EC inputs")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_verify_3ec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the Python docs recipe: later flushes, such as the one at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (GraphError, ValueError, OSError) as exc:
        # GraphError covers ParseError and CapExceeded; OSError an input path that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
