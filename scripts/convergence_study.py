#!/usr/bin/env python3
"""Convergence of the degree-wise Frobenius approximants on an A-family ring.

Builds the invariant semigroup k[x1 x2, x1^n, x2^n] at a chosen prime, runs
the lattice enumeration over a range of levels, and reports the sup distance
of each interpolant g_n to the closed-form density from the resolution path.
Also prints the distance to the printed piece table so the denominator
question (n vs n+1) can be read off a terminal.
"""

from __future__ import annotations

import argparse
import sys

from hkdensity.catalog import catalog_density, catalog_entry
from hkdensity.errors import CapacityError
from hkdensity.exact import pw_sup_distance, rat_str
from hkdensity.lattice import LatticePair, MonomialIdealSpec, SemigroupSpec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2, help="A-family parameter")
    ap.add_argument("--p", type=int, default=5, help="characteristic")
    ap.add_argument("--levels", type=int, default=3, help="run levels 1..L")
    args = ap.parse_args(argv)

    entry = catalog_entry("A", args.n, p=args.p)
    pair_closed, verdict = catalog_density(entry)
    derived = pair_closed.f
    printed = entry.printed_table

    gens = [(1, 1), (args.n, 0), (0, args.n)]
    pair = LatticePair(
        SemigroupSpec.build(2, gens, (1, 1), args.p),
        MonomialIdealSpec.build(gens),
    )

    print(f"{entry.label} at p = {args.p}; closed-form e_HK = {rat_str(pair_closed.ehk)}")
    print(f"{'level':>5} {'q':>6} {'|g_n - f|':>12} {'to printed':>12} {'integral':>10}")
    for level in range(1, args.levels + 1):
        try:
            approx = pair.build_approximant(level)
        except CapacityError:
            print(f"capped at level {level - 1} by the enumeration budget")
            break
        d_derived = pw_sup_distance(approx.g_interp, derived)
        row = f"{level:>5} {approx.q:>6} {rat_str(d_derived):>12}"
        if printed is not None:
            row += f" {rat_str(pw_sup_distance(approx.g_interp, printed)):>12}"
        else:
            row += f" {'-':>12}"
        row += f" {rat_str(approx.integral):>10}"
        print(row)

    if verdict.table_status == "discrepancy":
        print(
            "printed table differs from the derived one by "
            f"{rat_str(verdict.table_sup_distance)} in sup norm"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
