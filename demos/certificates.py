"""Certificates: explicit matching families beating 2^(n/12).

For each graph we emit a family of perfect matchings, distinct by the
injective lift (a repeat is an internal error), compare |family|^12
against 2^n in exact integer arithmetic, then cross-check the family
against the brute-force oracle.
"""

from clawmatch import (
    Multigraph,
    build,
    certify,
    count_perfect_matchings,
    ring_of_diamonds,
    verify_certificate,
)

K4 = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
TRIPLE_BOND = Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def report(name, g):
    cert = certify(g)
    count = len(cert.matchings)
    lhs, rhs = count**12, 2**g.n
    print(f"{name}: n={g.n}, branch={cert.branch}")
    print(f"  certificate size {count}, oracle count {count_perfect_matchings(g)}")
    print(f"  exact bound: {count}^12 = {lhs} > 2^{g.n} = {rhs}: {lhs > rhs}")
    print(f"  independent re-validation: {verify_certificate(g, cert)}")
    print()


def main():
    report("K4", K4)
    report("ring of 4 diamonds", ring_of_diamonds(4))

    tri_k4, _ = build(K4, [0] * 6)
    report("triangle-replaced K4 (big-base branch)", tri_k4)

    # a small base with lots of diamonds sends certify down the other
    # branch: route a longest 2-factor through its diamonds in all 2^L ways
    heavy, _ = build(TRIPLE_BOND, [2, 1, 0])
    report("diamond-heavy expansion of the triple bond", heavy)


if __name__ == "__main__":
    main()
