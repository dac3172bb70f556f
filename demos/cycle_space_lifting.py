"""From the base's cycle space to 2-factors of the expansion.

The cycle space of a multigraph (all even edge subsets under symmetric
difference) has dimension m - n + 1 when connected.  Each member lifts
to a 2-factor of the expanded graph; complementing gives a perfect
matching.  On diamond-free expansions the lift is a bijection onto all
2-factors, which is why 3-edge-connected hosts have exactly 2^(n/6+1)
perfect matchings.
"""

from clawmatch import (
    Multigraph,
    build,
    complement_matching,
    cycle_basis,
    enumerate_cycle_space,
    enumerate_two_factors,
    expand,
    verify_3ec_remark,
)

TRIPLE_BOND = Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def main():
    cb = cycle_basis(TRIPLE_BOND)
    print(f"triple bond: m=3, n=2, cycle space dimension {cb.dimension}")
    members = enumerate_cycle_space(TRIPLE_BOND, 1 << 10)
    print(f"members (Gray order): {[m.sorted_tuple() for m in members]}")
    print()

    prism, d = build(TRIPLE_BOND, [0, 0, 0])
    print("lifting each member to a 2-factor of the prism:")
    for c in members:
        factor = expand(c, d)
        matching = complement_matching(prism, factor)
        label = str(c.sorted_tuple())
        print(f"  member {label:<12} -> 2-factor {factor.sorted_tuple()}"
              f" -> matching {matching.sorted_tuple()}")
    oracle = {f.sorted_tuple() for f in enumerate_two_factors(prism, 1 << 10)}
    lifted = {expand(c, d).sorted_tuple() for c in members}
    print(f"lift is a bijection onto all 2-factors: {lifted == oracle}")
    print()
    print(f"prism count equals 2^(6/6+1) and the bijection holds: {verify_3ec_remark(prism)}")


if __name__ == "__main__":
    main()
