#!/usr/bin/env python3
"""Two roads to e_HK of the Segre product of two projective lines.

The combinator path multiplies envelope defects of two Koszul pairs and
integrates; the lattice path counts points of the rank-3 Segre semigroup
surviving the Frobenius powers of its four generators.  The first is exact
(4/3); the second converges like 1/(3 q^2) from below, and this script prints
both so the bracket is visible.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from hkdensity.combinators import DensityPair, segre
from hkdensity.exact import PiecewisePoly, Polynomial, rat_str
from hkdensity.lattice import LatticePair, MonomialIdealSpec, SemigroupSpec


def koszul_pair() -> DensityPair:
    tent = PiecewisePoly.build(
        [0, 1, 2], [Polynomial.of(0, 1), Polynomial.of(2, -1)]
    )
    return DensityPair(PiecewisePoly.monomial_tail(Fraction(1), 1), tent, 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=5, help="lattice levels 1..L (p = 2)")
    args = ap.parse_args(argv)

    product = segre(koszul_pair(), koszul_pair())
    print(f"combinator: d = {product.d}, e_HK = {rat_str(product.ehk)}")
    print(f"density breakpoints: {[rat_str(b) for b in product.f.breakpoints]}")

    gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    pair = LatticePair(
        SemigroupSpec.build(3, gens, (1, 0, 0), 2),
        MonomialIdealSpec.build(gens),
    )
    print(f"\n{'level':>5} {'q':>5} {'integral':>14} {'4/3 - integral':>16}")
    for level in range(1, args.levels + 1):
        approx = pair.build_approximant(level)
        err = product.ehk - approx.integral
        print(
            f"{level:>5} {approx.q:>5} {rat_str(approx.integral):>14} "
            f"{rat_str(err):>16}"
        )
        # the count sits at q(4q^2 - 1)/3, i.e. error exactly 1/(3 q^2)
        assert err == Fraction(1, 3 * approx.q**2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
