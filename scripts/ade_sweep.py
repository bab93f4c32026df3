#!/usr/bin/env python3
"""Sweep the ADE catalog and tabulate density verdicts.

Walks every admissible parameter of the A and D families plus the three E
entries, runs the resolution pipeline, and prints one row per entry: rank,
e_HK, whether the printed piece table agrees with the derived one, and the
syzygy-minor check.  A nonzero exit means some entry missed 2 - 1/rank.
"""

from __future__ import annotations

import argparse
import sys

from hkdensity.catalog import catalog_density, catalog_entry, catalog_minor_check


def iter_entries(max_n: int):
    for fam in ("A", "D"):
        for n in range(2, max_n + 1):
            yield catalog_entry(fam, n)
    for fam in ("E6", "E7", "E8"):
        yield catalog_entry(fam)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=12, help="A/D parameter bound")
    ap.add_argument("--show-flags", action="store_true")
    args = ap.parse_args(argv)

    header = f"{'entry':>6} {'rank':>5} {'e_HK':>9} {'table':>12} {'dist':>7} {'minors':>9}"
    print(header)
    print("-" * len(header))
    bad = 0
    total = 0
    agree = 0
    for entry in iter_entries(args.max_n):
        pair, verdict = catalog_density(entry)
        minors = catalog_minor_check(entry).verdict
        dist = "-" if verdict.table_sup_distance is None else str(verdict.table_sup_distance)
        print(
            f"{entry.label:>6} {entry.rank:>5} {pair.ehk!s:>9} "
            f"{verdict.table_status:>12} {dist:>7} {minors:>9}"
        )
        total += 1
        bad += not verdict.ehk_matches_expected
        agree += verdict.table_status == "agrees"
        if args.show_flags:
            for fl in verdict.flags:
                print(f"         note: {fl}")

    print(f"\n{total} entries; {bad} missed the 2 - 1/rank target")
    print(f"printed piece tables in full agreement: {agree}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
