"""Shared test graphs.

Hand-coded edge lists are written out explicitly so the fixtures stay
independent of the construction code they are used to check.
"""

import random

from hypothesis import strategies as st

from clawmatch import (
    Multigraph,
    build,
    figure1_graph,
    is_three_edge_connected,
    random_base,
    ring_of_diamonds,
)

K4 = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))

TRIPLE_BOND = Multigraph(2, ((0, 1), (0, 1), (0, 1)))

# two triangles joined by three rungs, written out by hand
PRISM = Multigraph(
    6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5))
)

PETERSEN = Multigraph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)

K33 = Multigraph(6, ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)))

PATH3 = Multigraph(3, ((0, 1), (1, 2)))

TRIANGLE = Multigraph(3, ((0, 1), (0, 2), (1, 2)))

STAR_K13 = Multigraph(4, ((0, 1), (0, 2), (0, 3)))

TWO_TRIANGLES_BRIDGED = Multigraph(
    6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3))
)

LOOP1 = Multigraph(1, ((0, 0),))

# cubic multigraph with two parallel pairs
DOUBLE_DOUBLE = Multigraph(4, ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)))


def base_corpus():
    """Connected cubic 2-edge-connected multigraphs usable as bases, m <= 16."""
    items = [
        ("triple-bond", TRIPLE_BOND),
        ("k4", K4),
        ("prism", PRISM),
        ("k33", K33),
        ("petersen", PETERSEN),
        ("double-double", DOUBLE_DOUBLE),
    ]
    for k in (4, 6, 8):
        for seed in (0, 1):
            items.append((f"random-base-{k}-{seed}", random_base(k, seed=seed)))
    return items


def certify_corpus():
    """2-edge-connected claw-free cubic graphs with n <= 28."""
    items = [
        ("k4", K4),
        ("prism", PRISM),
    ]
    for d in (2, 3, 4, 5):
        items.append((f"ring-{d}", ring_of_diamonds(d)))
    built = [
        ("tri-k4", K4, [0] * 6),
        ("tb-100", TRIPLE_BOND, [1, 0, 0]),
        ("tb-111", TRIPLE_BOND, [1, 1, 1]),
        ("tb-210", TRIPLE_BOND, [2, 1, 0]),
        ("tb-400", TRIPLE_BOND, [4, 0, 0]),
        ("k4-100000", K4, [1, 0, 0, 0, 0, 0]),
        ("k4-110000", K4, [1, 1, 0, 0, 0, 0]),
        ("dd-201000", DOUBLE_DOUBLE, [2, 0, 1, 0, 0, 0]),
        ("k33-0", K33, [0] * 9),
        ("rb6-1-0", random_base(6, seed=1), [0] * 9),
        ("rb6-2-1", random_base(6, seed=2), [1, 0, 0, 0, 0, 0, 0, 0, 0]),
        ("rb8-5-0", random_base(8, seed=5), [0] * 12),
        ("rb8-8-1", random_base(8, seed=8), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ]
    for name, h, lengths in built:
        g, _ = build(h, lengths)
        assert g.n <= 28, name
        items.append((name, g))
    return items


def cubic_corpus_small():
    """Cubic graphs with n <= 18 for the complement-bijection checks."""
    items = [
        ("k4", K4),
        ("triple-bond", TRIPLE_BOND),
        ("prism", PRISM),
        ("k33", K33),
        ("petersen", PETERSEN),
        ("double-double", DOUBLE_DOUBLE),
        ("ring-2", ring_of_diamonds(2)),
        ("ring-3", ring_of_diamonds(3)),
        ("ring-4", ring_of_diamonds(4)),
        ("fig1-0", figure1_graph(0)),
    ]
    for name, h, lengths in [
        ("tri-k4", K4, [0] * 6),
        ("tb-100", TRIPLE_BOND, [1, 0, 0]),
        ("tb-110", TRIPLE_BOND, [1, 1, 0]),
    ]:
        g, _ = build(h, lengths)
        assert g.n <= 18
        items.append((name, g))
    return items


def seeded_length_vector(rng: random.Random, m: int, max_total: int) -> list:
    lengths = [0] * m
    for _ in range(rng.randint(0, max_total)):
        lengths[rng.randrange(m)] += 1
    return lengths


def relabelled(g: Multigraph, vertex_order: list[int], edge_order: list[tuple[int, int]]) -> Multigraph:
    """g with vertex v renamed vertex_order[v], edge e listed at the position of (e, i) in edge_order
    and its ends swapped when i is 1."""
    return Multigraph(
        g.n, tuple((vertex_order[g.edges[e][i]], vertex_order[g.edges[e][1 - i]]) for e, i in edge_order)
    )


def circular_ladder(k: int) -> Multigraph:
    """Two k-cycles joined by k rungs (the prism over a k-cycle): cubic and 3-edge-connected."""
    outer = [(i, (i + 1) % k) for i in range(k)]
    inner = [(k + i, k + (i + 1) % k) for i in range(k)]
    return Multigraph(2 * k, tuple(outer + inner + [(i, k + i) for i in range(k)]))


def three_edge_connected_host(k: int, seed: int = 0) -> Multigraph:
    """The diamond-free expansion of random_base(k, s) for the lowest s >= seed whose
    base is 3-edge-connected, so the host is too (n = 3k)."""
    while not is_three_edge_connected(base := random_base(k, seed=seed)):
        seed += 1
    g, _ = build(base, [0] * base.m)
    return g


@st.composite
def multigraphs(draw, max_n: int = 9, max_m: int = 16):
    """Random multigraphs, n <= max_n and m <= max_m, with loops, parallel edges, n = 0
    and any number of components."""
    n = draw(st.integers(0, max_n), label="n")
    if n == 0:
        return Multigraph(0, ())
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return Multigraph(n, tuple(draw(st.lists(ends, max_size=max_m), label="edges")))


@st.composite
def cubic_multigraphs(draw):
    """Connected cubic hosts: the corpus, many with 2-edge cuts, or random cubic bases."""
    if draw(st.booleans(), label="corpus"):
        return draw(st.sampled_from([g for _, g in certify_corpus() + cubic_corpus_small()]))
    return random_base(draw(st.sampled_from((2, 4, 6, 8))), seed=draw(st.integers(0, 1 << 16)))


@st.composite
def cubic_pairings(draw, max_n: int = 10):
    """Cubic multigraphs with loops: three half-edges per vertex, paired at random, so
    bridges, parallel edges, several components and n = 0 occur too."""
    n = draw(st.sampled_from(range(0, max_n + 1, 2)), label="n")
    ends = draw(st.permutations([v for v in range(n) for _ in range(3)]), label="half-edges")
    return Multigraph(n, tuple(zip(ends[::2], ends[1::2])))


@st.composite
def graph_documents(draw):
    """Text that is often a well-formed graph document and often is not: small
    multigraphs with loops and parallel edges, sometimes with a wrong edge count, an
    endpoint out of range or arbitrary lines inserted."""
    n = draw(st.integers(0, 8), label="n")
    ends = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12 if n else 0), label="edges")
    if edges and draw(st.booleans(), label="endpoint out of range"):
        edges[-1] = (draw(st.sampled_from((-1, n))), edges[-1][1])
    m = len(edges) + draw(st.sampled_from((0, 0, 0, -1, 1)), label="edge count off by")
    lines = [f"p {n} {m}"] + [f"e {u} {v}" for u, v in edges]
    text = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
    for _ in range(draw(st.integers(0, 2), label="inserted lines")):
        lines.insert(draw(st.integers(0, len(lines))), draw(text))
    return "\n".join(lines) + "\n"
