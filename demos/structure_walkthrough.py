"""A tour of the structure machinery.

Every 2-edge-connected claw-free cubic graph is K4, a ring of diamonds,
or an expansion of a smaller cubic multigraph: each base vertex blown up
into a triangle, some base edges into strings of diamonds.  This script
classifies a few graphs and round-trips a build through the contraction.
"""

from clawmatch import (
    Multigraph,
    build,
    classify,
    random_base,
    ring_of_diamonds,
    serialize_decomposition,
)

K4 = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
TRIPLE_BOND = Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def show(title, g):
    print(f"--- {title} (n={g.n}, m={g.m})")
    print(serialize_decomposition(classify(g)), end="")
    print()


def main():
    show("K4, the lone simple base case", K4)
    show("ring of 3 diamonds", ring_of_diamonds(3))

    prism, _ = build(TRIPLE_BOND, [0, 0, 0])
    show("prism = triple bond with every vertex blown into a triangle", prism)

    g, made = build(TRIPLE_BOND, [2, 0, 0])
    print(f"--- triple bond with a 2-diamond string on one edge (n={g.n})")
    recovered = classify(g)
    print(f"diamonds found by rescan: {recovered.total_length()}")
    print(f"recovered base: k={recovered.base.n}, lengths={sorted(recovered.lengths())}")
    print(f"matches what we built: {sorted(made.lengths()) == sorted(recovered.lengths())}")
    print()

    h = random_base(6, seed=42)
    print(f"--- seeded random base on 6 vertices: edges {h.edges}")
    g, _ = build(h, [1, 0, 0, 2, 0, 0, 0, 0, 1])
    d = classify(g)
    print(f"expanded to n={g.n}; classify recovers k={d.base.n}, "
          f"lengths={sorted(d.lengths())}")


if __name__ == "__main__":
    main()
