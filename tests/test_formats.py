import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawmatch import (
    Certificate,
    Multigraph,
    ParseError,
    build,
    certify,
    classify,
    parse_graph,
    random_base,
    ring_of_diamonds,
    serialize_certificate,
    serialize_decomposition,
    serialize_graph,
)
from bruteforce import reference_parse_graph
from corpus import (
    K4,
    TRIPLE_BOND,
    certify_corpus,
    graph_documents,
    relabelled,
    seeded_length_vector,
)

K4_DOC = """p 4 6
e 0 1
e 0 2
e 0 3
e 1 2
e 1 3
e 2 3
"""


def test_parse_k4():
    g = parse_graph(K4_DOC)
    assert g == K4


def test_parse_keeps_edge_order_and_multiplicity():
    g = parse_graph("p 2 3\ne 0 1\ne 1 0\ne 0 1\n")
    assert g.edges == ((0, 1), (1, 0), (0, 1))


def test_parse_loop():
    g = parse_graph("p 1 1\ne 0 0\n")
    assert g.edges == ((0, 0),)


def test_parse_comments_and_blank_lines():
    doc = "# a comment\n\np 2 1   # header\ne 0 1\n"
    assert parse_graph(doc).m == 1


@pytest.mark.parametrize(
    "doc, line, message",
    [
        ("p 1_0 0\n", 1, "header counts must be integers"),
        ("p +2 1\ne 0 1\n", 1, "header counts must be integers"),
        ("p \u0662 1\ne 0 1\n", 1, "header counts must be integers"),  # an Arabic-Indic 2
        ("p 2 1\ne 0 +1\n", 2, "edge endpoints must be integers"),
        ("# comment\np 11 1\ne 1_0 0\n", 3, "edge endpoints must be integers"),
        ("p 3 1\ne \u0662 0\n", 2, "edge endpoints must be integers"),
    ],
)
def test_parse_takes_plain_decimal_integers_only(doc, line, message):
    # int() alone takes underscores, a "+" sign and non-ASCII digits
    with pytest.raises(ParseError, match=f"^line {line}: {message}$") as exc:
        parse_graph(doc)
    assert exc.value.line == line


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("p 4 1\ne 0 5\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_graph("q 4 1\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_graph("p -1 0\n")
    with pytest.raises(ParseError):
        parse_graph("p 2 2\ne 0 1\n")  # missing edge
    with pytest.raises(ParseError) as exc:
        parse_graph("p 2 1\ne 0 1\ne 1 0\n")  # extra edge
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_graph("p 2 1\ne one 0\n")
    # errors found at the end of a document name its last line, or line 1 when it has none
    for text, line, message in (
        ("p 2 2\ne 0 1\n# trailing\n\n", 4, "expected 2 edges, found 1"),
        ("", 1, "missing header 'p <n> <m>'"),
        ("# only\n\n", 2, "missing header 'p <n> <m>'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_end_only_where_open_ends_them(sep):
    # str.splitlines also ends a line at these, so a comment's tail was read as a line
    assert parse_graph(f"p 2 1\ne 0 1 # note{sep}more\n") == Multigraph(2, ((0, 1),))
    assert parse_graph(f"p 2 1 # a{sep}b\ne 0 1\n") == Multigraph(2, ((0, 1),))
    # outside a comment the separator is whitespace inside one line, which is refused
    with pytest.raises(ParseError, match="^line 1: expected header 'p <n> <m>'$"):
        parse_graph(f"p 2 1{sep}e 0 1\n")


def test_lines_end_at_newline_carriage_return_or_both():
    for end in ("\n", "\r\n", "\r"):
        assert parse_graph(f"p 2 1{end}e 0 1{end}") == Multigraph(2, ((0, 1),))
        assert parse_graph(f"p 2 1{end}e 0 1") == Multigraph(2, ((0, 1),))
        with pytest.raises(ParseError, match="^line 3: expected 2 edges, found 1$"):
            parse_graph(f"p 2 2{end}e 0 1{end}#{end}")
        with pytest.raises(ParseError, match=r"^line 2: endpoint out of range: \(0, 5\) with n=2$"):
            parse_graph(f"p 2 1{end}e 0 5{end}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(graph_documents(), st.text()))
def test_parse_graph_raises_only_parse_error(text):
    try:
        g = parse_graph(text)
    except ParseError:
        return
    assert parse_graph(serialize_graph(g)) == g


# digits, signs, an underscore, a superscript two, an Arabic-Indic three and letters:
# int() takes some of these forms, _is_decimal none but "-" and ASCII digits
FIELDS = st.one_of(
    st.integers(-1, 4).map(str), st.text("0123456789-+_\u00b2\u0663aeZ", min_size=1, max_size=4)
)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", exc.line, str(exc))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FIELDS, FIELDS, st.lists(st.tuples(FIELDS, FIELDS), max_size=4), st.booleans())
def test_parse_checks_fields_as_is_decimal_does(n, m, ends, valid_header):
    if valid_header:
        n, m = "5", str(len(ends))
    text = "".join([f"p {n} {m}\n"] + [f"e {u} {v}\n" for u, v in ends])
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


def test_graph_roundtrip_is_identity_on_corpus():
    for name, g in certify_corpus():
        text = serialize_graph(g)
        assert parse_graph(text) == g, name
        assert serialize_graph(parse_graph(text)) == text, name


def test_serialize_graph_canonical():
    assert serialize_graph(Multigraph(2, ((0, 1), (0, 1)))) == "p 2 2\ne 0 1\ne 0 1\n"


def test_serialize_decomposition_prism():
    prism, _ = build(TRIPLE_BOND, [0, 0, 0])
    text = serialize_decomposition(classify(prism))
    assert text == (
        "kind=expanded\n"
        "n=6\n"
        "k=2\n"
        "h_edge_0=0,1\n"
        "h_edge_1=0,1\n"
        "h_edge_2=0,1\n"
        "lengths=[0,0,0]\n"
        "triangle_0=0,1,2\n"
        "triangle_1=3,4,5\n"
    )


def test_serialize_decomposition_other_kinds():
    assert serialize_decomposition(classify(K4)) == "kind=k4\nn=4\n"
    text = serialize_decomposition(classify(ring_of_diamonds(2)))
    assert text.startswith("kind=ring\nn=8\ndiamonds=2\n")
    assert "diamond_0=0,1,2,3" in text
    g, _ = build(TRIPLE_BOND, [1, 0, 0])
    text = serialize_decomposition(classify(g))
    assert "lengths=[1,0,0]" in text or "lengths=[0,0,1]" in text or "lengths=[0,1,0]" in text
    assert "string_" in text


def test_serialize_certificate_k4():
    text = serialize_certificate(certify(K4))
    assert text == "n=4\nbranch=k4\ncount=3\nbound_ok=true\n0 5\n1 4\n2 3\n"


ids = st.one_of(st.integers(-3, 15), st.integers())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 12), st.lists(st.lists(ids, max_size=6).map(tuple), max_size=6))
def test_serialize_certificate_prints_rows_as_str_of_each_id(m, rows):
    # ids outside range(m), negative ones included, must print as they are
    host = Multigraph(1, ((0, 0),) * m)
    text = serialize_certificate(Certificate(host, tuple(rows), 1, "ring", False))
    header = f"n=1\nbranch=ring\ncount={len(rows)}\nbound_ok=false\n"
    assert text == header + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def certificate_sweep() -> list[Multigraph]:
    """The certify corpus, seeded expansions of random bases (k = 2..14, at most 10
    diamonds, so each expansion branch fires) and rings of 2..8 diamonds, then a seeded
    relabelling of each."""
    rng = random.Random(5)
    hosts = [g for _, g in certify_corpus()]
    for k in range(2, 15, 2):
        for _ in range(8):
            h = random_base(k, seed=rng.randrange(1 << 16))
            hosts.append(build(h, seeded_length_vector(rng, h.m, 10))[0])
    hosts += [ring_of_diamonds(d) for d in range(2, 9)]
    shuffled = [
        relabelled(g, rng.sample(range(g.n), g.n), [(e, rng.randrange(2)) for e in rng.sample(range(g.m), g.m)])
        for g in hosts
    ]
    return hosts + shuffled


def test_certificates_are_byte_stable_on_seeded_sweep():
    digest = hashlib.sha256()
    hosts = certificate_sweep()
    branches = set()
    for g in hosts:
        cert = certify(g)
        branches.add(cert.branch)
        digest.update(serialize_certificate(cert).encode())
    assert len(hosts) == 164
    assert branches == {"k4", "ring", "cycle-space", "long-2-factor"}
    assert digest.hexdigest() == "6d4b84b70e3d3b13fde95abc6259cfce6429a2f22f08ebda5669f3a98c659e36"


def test_serializers_are_deterministic():
    for name, g in certify_corpus():
        if g.n > 16:
            continue
        assert serialize_decomposition(classify(g)) == serialize_decomposition(classify(g)), name
        assert serialize_certificate(certify(g)) == serialize_certificate(certify(g)), name
