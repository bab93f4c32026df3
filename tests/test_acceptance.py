"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with -s, or in the captured output on failure).
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hkdensity.catalog import (
    catalog_density,
    catalog_entry,
    catalog_lattice_crosscheck,
)
from hkdensity.cli import main
from hkdensity.combinators import DensityPair, segre
from hkdensity.errors import BettiIdentityError
from hkdensity.exact import (
    PiecewisePoly,
    Polynomial,
    pw_integrate,
    pw_mul,
    pw_sup_distance,
)
from hkdensity.hn import HNData, dim2_pair_density
from hkdensity.lattice import LatticePair, MonomialIdealSpec, SemigroupSpec
from hkdensity.resolution import (
    BettiTable,
    colength_by_degree,
    koszul_betti,
    validate_betti,
)
from hkdensity.rings import CompleteIntersectionRing, hilbert_function

F = Fraction


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {text}")
        raise
    print(f"[criterion {num:02d}] PASS - {text}")


def tent() -> PiecewisePoly:
    return PiecewisePoly.build(
        [0, 1, 2], [Polynomial.of(0, 1), Polynomial.of(2, -1)]
    )


def tent_pair() -> DensityPair:
    return DensityPair(F(1), tent(), 2)


def ambient_plane(p: int) -> SemigroupSpec:
    return SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 1), p)


def invariant_spec(n: int, p: int) -> SemigroupSpec:
    return SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), p)


def invariant_ideal(n: int) -> MonomialIdealSpec:
    return MonomialIdealSpec.build([(1, 1), (n, 0), (0, n)])


def test_criterion_01_ade_ehk_exactness():
    with criterion(1, "ADE e_HK values exact, < 1 s each"):
        targets = [(("D", n), 2 - F(1, 4 * n)) for n in (4, 6, 8, 10)]
        targets += [(("E7", None), F(47, 24)), (("E8", None), F(239, 120))]
        for (fam, n), expect in targets:
            start = time.perf_counter()
            pair, verdict = catalog_density(catalog_entry(fam, n))
            elapsed = time.perf_counter() - start
            assert pair.ehk == expect, (fam, n)
            assert verdict.ehk_matches_expected
            assert elapsed < 1.0, (fam, n, elapsed)


def test_criterion_02_e8_full_table_agreement():
    with criterion(2, "E8 catalog density equals printed table piece-by-piece"):
        entry = catalog_entry("E8")
        pair, verdict = catalog_density(entry)
        expect = PiecewisePoly.build(
            [0, 6, 10, 15, F(31, 2)],
            [
                Polynomial.of(0, F(1, 30)),
                Polynomial.of(F(1, 5)),
                Polynomial.of(F(16, 30), F(-1, 30)),
                Polynomial.of(F(31, 30), F(-2, 30)),
            ],
        )
        assert pair.f == expect
        assert entry.printed_table == expect
        assert verdict.table_status == "agrees"
        assert verdict.table_sup_distance == 0


def test_criterion_03_watanabe_yoshida_form():
    with criterion(3, "2 - e_HK = 1/rank for all admissible parameters n <= 50"):
        entries = [catalog_entry(fam, n) for fam in ("A", "D") for n in range(2, 51)]
        entries += [catalog_entry(fam) for fam in ("E6", "E7", "E8")]
        for entry in entries:
            pair, _ = catalog_density(entry)
            assert 2 - pair.ehk == F(1, entry.rank), entry.label


def test_criterion_04_vanishing_identity():
    with criterion(4, "alternating-sum identity: catalog + 100 random tables"):
        for fam in ("A", "D"):
            for n in range(2, 51):
                validate_betti(catalog_entry(fam, n).betti)
        for fam in ("E6", "E7", "E8"):
            validate_betti(catalog_entry(fam).betti)

        rng = random.Random(20260821)
        for _ in range(100):
            d = rng.randint(2, 4)
            k = rng.randint(d, d + 2)
            degrees = tuple(rng.randint(1, 6) for _ in range(k))
            table = koszul_betti(d, degrees)
            validate_betti(table)
            # single-entry perturbation must break the identity
            rows = list(table.entries)
            idx = rng.randrange(len(rows))
            i, j, b = rows[idx]
            rows[idx] = (i, j, b + 1)
            with pytest.raises(BettiIdentityError) as info:
                validate_betti(BettiTable(table.d, tuple(rows)))
            assert not info.value.residual.is_zero()


def test_criterion_05_toric_oracle_equivalence():
    with criterion(5, "A_2/A_3 at p=5: lattice colengths == resolution colengths"):
        start = time.perf_counter()
        plane_hilbert = hilbert_function(CompleteIntersectionRing.build((1, 1), ()))

        for n in (2, 3):
            entry = catalog_entry("A", n)
            pair = LatticePair(ambient_plane(5), invariant_ideal(n))
            for q in (5, 25):
                bound = int(pair.support_bound() * q) + 1
                got = pair.colengths_up_to(q, bound)
                want = [
                    colength_by_degree(entry.betti, plane_hilbert, q, m)
                    for m in range(bound + 1)
                ]
                assert got == want, (n, q)
        assert time.perf_counter() - start < 60.0


def test_criterion_06_uniform_convergence_desk_scale():
    with criterion(6, "Koszul sup|g_n - f| = 2^-n for n=1..6; A_2 decreasing"):
        pair = LatticePair(
            ambient_plane(2), MonomialIdealSpec.build([(1, 0), (0, 1)])
        )
        reference = tent()
        for n in range(1, 7):
            g = pair.build_approximant(n).g_interp
            assert pw_sup_distance(g, reference) == F(1, 2**n), n

        a2 = catalog_entry("A", 2)
        rows = catalog_lattice_crosscheck(a2, 5, [1, 2, 3])
        dists = [r.sup_distance for r in rows]
        assert dists[0] == F(2, 5)
        assert dists[1] == F(2, 25)
        assert dists[0] > dists[1] > dists[2]


def test_criterion_07_segre_product():
    with criterion(7, "Segre e_HK = 4/3; lattice bracket at q=16,32; expansion"):
        a, b = tent_pair(), tent_pair()
        out = segre(a, b)
        assert out.d == 3
        assert out.ehk == F(4, 3)
        three = (
            pw_integrate(pw_mul(a.F, b.f))
            + pw_integrate(pw_mul(b.F, a.f))
            - pw_integrate(pw_mul(a.f, b.f))
        )
        assert three == out.ehk

        gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
        pair = LatticePair(
            SemigroupSpec.build(3, gens, (1, 0, 0), 2),
            MonomialIdealSpec.build(gens),
        )
        estimates = {}
        for level in (4, 5):
            approx = pair.build_approximant(level)
            q = 2**level
            estimates[q] = approx.integral
            # colength total: q (4 q^2 - 1) / 3 lattice points below the ideal
            assert approx.integral == F(q * (4 * q * q - 1), 3) / q**3
        assert estimates[16] < estimates[32] < F(4, 3)
        assert F(4, 3) - estimates[32] < F(1, 20)
        assert F(4, 3) < estimates[32] + F(1, 20)


def test_criterion_08_hn_koszul_tent():
    with criterion(8, "dim-2 HN path reproduces the Koszul tent from O(-1)"):
        v = HNData.build([(-1, 1)], 1)
        assert dim2_pair_density(v, (1, 1)) == tent()


def test_criterion_09_discrepancy_detection():
    with criterion(9, "A_3 oracle prefers derived table; printed-table verdicts"):
        entry = catalog_entry("A", 3)
        derived = catalog_density(entry)[0].f
        printed = entry.printed_table
        pair = LatticePair(invariant_spec(3, 2), invariant_ideal(3))
        gaps = {}
        for level in (1, 2, 3):
            g = pair.build_approximant(level).g_interp
            gaps[level] = (
                pw_sup_distance(g, derived),
                pw_sup_distance(g, printed),
            )
        assert gaps[1] == (F(2, 3), F(5, 8))
        assert gaps[2] == (F(1, 3), F(1, 2))
        assert gaps[3] == (F(1, 6), F(9, 32))
        # the coarse level-1 step still sits nearer the printed table; the
        # oracle separates the two from level 2 on and converges to derived
        for level in (2, 3):
            to_derived, to_printed = gaps[level]
            assert to_derived < to_printed, level
        assert gaps[3][0] == min(d for d, _ in gaps.values())

        for fam, n in (("A", 2), ("A", 3), ("D", 4), ("E6", None), ("E7", None)):
            _, verdict = catalog_density(catalog_entry(fam, n))
            assert verdict.table_status == "discrepancy", (fam, n)
        _, verdict = catalog_density(catalog_entry("E8"))
        assert verdict.table_status == "agrees"


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "CLI output byte-identical across runs and threads"):
        spec_path = tmp_path / "a2.json"
        spec_path.write_text(
            json.dumps(
                {
                    "semigroup": {
                        "rank": 2,
                        "gens": [[1, 1], [2, 0], [0, 2]],
                        "weights": [1, 1],
                        "p": 2,
                    },
                    "ideal": [[1, 1], [2, 0], [0, 2]],
                }
            )
        )

        def run(argv):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0
            return out

        base = ["compare", "--spec", str(spec_path), "--levels", "1,2,3"]
        outputs = {run(base + ["--threads", str(t)]) for t in (1, 2, 4)}
        outputs |= {run(base + ["--threads", "1"]) for _ in range(2)}
        assert len(outputs) == 1

        catalog_runs = {run(["catalog", "--family", "E8"]) for _ in range(3)}
        assert len(catalog_runs) == 1
