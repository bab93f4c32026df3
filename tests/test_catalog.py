from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from hkdensity import catalog
from hkdensity.catalog import (
    FAMILIES,
    AdeEntry,
    catalog_density,
    catalog_entry,
    catalog_lattice_crosscheck,
    catalog_minor_check,
)
from hkdensity.combinators import rescale_density
from hkdensity.errors import DomainError, InputError, ValidationError
from hkdensity.exact import pw_integrate, pw_sup_distance
from hkdensity.resolution import closed_form_density

F = Fraction


def test_entry_lookup_and_validation():
    assert catalog_entry("A", 2).label == "A_2"
    assert catalog_entry("E6").n == 6
    assert catalog_entry("E7", 7).rank == 24
    with pytest.raises(InputError):
        catalog_entry("F4")
    with pytest.raises(ValidationError):
        catalog_entry("A", 1)
    with pytest.raises(ValidationError):
        catalog_entry("D", 51)
    with pytest.raises(ValidationError):
        catalog_entry("E6", 7)
    with pytest.raises(InputError):
        catalog_entry("A")  # parametric family needs n


def test_char_admissibility():
    a3 = catalog_entry("A", 3)
    assert a3.char_ok(2) and a3.char_ok(5)
    assert not a3.char_ok(3)  # p | n
    assert not a3.char_ok(4)  # not prime
    e8 = catalog_entry("E8")
    assert not e8.char_ok(5) and e8.char_ok(7)
    with pytest.raises(ValidationError):
        catalog_entry("A", 3, p=3)


def test_entry_built_once_and_checked_on_every_call():
    # one object per (family, n), whatever the case of the family or the
    # characteristic asked about
    assert catalog_entry("A", 7) is catalog_entry("a", 7) is catalog_entry("A", 7, p=2)
    assert catalog_entry("D", 9) is catalog_entry("d", 9)
    assert catalog_entry("E8") is catalog_entry("e8", 8)
    assert catalog_entry("A", 7) is not catalog_entry("A", 8)
    # the cached entry still refuses an inadmissible p
    with pytest.raises(ValidationError, match="characteristic 7 not admissible for A_7"):
        catalog_entry("a", 7, p=7)
    with pytest.raises(ValidationError, match="characteristic 5 not admissible for E8"):
        catalog_entry("E8", p=5)


def test_rank_and_l0():
    assert catalog_entry("A", 2).rank == 2
    assert catalog_entry("A", 3).rank == 3
    assert catalog_entry("A", 5).rank == 5
    assert catalog_entry("A", 5).l0 == 1  # gcd(2, 5, 5)
    assert catalog_entry("A", 4).l0 == 2
    assert catalog_entry("D", 4).rank == 16
    assert catalog_entry("E6").rank == 8
    assert catalog_entry("E7").rank == 24
    assert catalog_entry("E8").rank == 120
    for fam in FAMILIES:
        n = 4 if fam in ("A", "D") else None
        entry = catalog_entry(fam, n)
        assert entry.expected_ehk == 2 - F(1, entry.rank)


def test_expected_ehk_all_admissible_parameters():
    for fam in ("A", "D"):
        for n in range(2, 51):
            entry = catalog_entry(fam, n)
            assert 2 - entry.expected_ehk == F(1, entry.rank)


def test_ambient_density_shape_a2():
    # the pair (k[x1, x2], (h1, h2, h3)) in ambient degrees: ehat 1, n0 1
    amb = closed_form_density(catalog_entry("A", 2).betti, F(1), 1)
    assert amb.breakpoints == (F(0), F(2), F(3))
    assert amb(1) == 1 and amb(F(5, 2)) == 1
    assert pw_integrate(amb) == 3


def all_entries():
    for fam in ("A", "D"):
        for n in range(2, 51):
            yield catalog_entry(fam, n)
    for fam in ("E6", "E7", "E8"):
        yield catalog_entry(fam)


def test_invariant_ring_closed_form_is_rescaled_ambient_density():
    # the Veronese-type relation f_{R^G}(x) = (l0/rank) f_R(l0 x): the
    # closed form on the invariant ring (ehat = l0^2/rank, n0 = l0) equals
    # the ambient closed form regraded by (l0, rank), on every entry
    for entry in all_entries():
        ring = entry.ring
        assert (ring.n0, ring.ehat()) == (entry.l0, F(entry.l0**2, entry.rank))
        direct = closed_form_density(entry.betti, ring.ehat(), ring.n0)
        regraded = rescale_density(closed_form_density(entry.betti, F(1), 1), entry.l0, entry.rank)
        assert direct == regraded, entry.label
        assert direct.to_json() == regraded.to_json(), entry.label
        assert catalog_density(entry)[0].f == direct, entry.label


def test_a2_verdict():
    entry = catalog_entry("A", 2)
    pair, verdict = catalog_density(entry)
    assert pair.ehk == F(3, 2)
    assert verdict.ehk_matches_expected
    assert verdict.ehk_matches_printed is None
    assert verdict.table_status == "discrepancy"
    assert verdict.table_sup_distance == F(2, 3)
    assert not verdict.clean
    # derived table: 2x on [0,1), 6-4x on [1,3/2)
    assert pair.f(F(1, 2)) == 1
    assert pair.f(1) == 2
    assert pair.f.support_end == F(3, 2)


def test_a3_verdict():
    entry = catalog_entry("A", 3)
    pair, verdict = catalog_density(entry)
    assert pair.ehk == F(5, 3)
    # printed denominators use n+1 = 4 where the derived table has n = 3
    assert verdict.table_status == "discrepancy"
    assert verdict.table_sup_distance == F(1, 6)
    assert entry.printed_table is not None
    assert verdict.table_sup_distance == pw_sup_distance(
        pair.f, entry.printed_table
    )


def test_d4_verdict():
    entry = catalog_entry("D", 4)
    pair, verdict = catalog_density(entry)
    assert pair.ehk == 2 - F(1, 16)
    assert entry.printed_ehk == pair.ehk
    assert verdict.ehk_matches_printed is True
    assert verdict.table_status == "discrepancy"
    assert verdict.table_sup_distance == F(1, 2)
    assert not verdict.clean


def test_d_odd_table_not_printed():
    entry = catalog_entry("D", 5)
    _, verdict = catalog_density(entry)
    assert entry.printed_table is None
    assert verdict.table_status == "not-printed"
    assert verdict.ehk_matches_printed is True
    assert any("n even" in fl for fl in verdict.flags)


def test_d2_degenerate_denominator():
    entry = catalog_entry("D", 2)
    assert entry.printed_table is None
    assert any("n-2" in fl for fl in entry.flags)
    pair, _ = catalog_density(entry)
    assert pair.ehk == 2 - F(1, 8)


def test_e6_verdict():
    entry = catalog_entry("E6")
    pair, verdict = catalog_density(entry)
    assert pair.ehk == 2 - F(1, 8)
    assert entry.printed_order == 24
    assert entry.rank == 8
    assert any("24" in fl for fl in verdict.flags)
    assert verdict.table_status == "discrepancy"
    assert verdict.ehk_matches_printed is None


def test_e7_verdict():
    entry = catalog_entry("E7")
    pair, verdict = catalog_density(entry)
    assert pair.ehk == F(47, 24)
    assert verdict.ehk_matches_printed is True
    assert verdict.table_status == "discrepancy"
    assert verdict.table_sup_distance == F(7, 16)
    # printed table kept ambient degrees; its own mass misses the target
    assert pw_integrate(entry.printed_table) == F(47, 48)


def test_e8_verdict_clean():
    entry = catalog_entry("E8")
    pair, verdict = catalog_density(entry)
    assert pair.ehk == F(239, 120)
    assert verdict.ehk_matches_printed is True
    assert verdict.table_status == "agrees"
    assert verdict.table_sup_distance == 0
    assert verdict.clean
    # printed pieces: x/30, 1/5, (16-x)/30, (31-2x)/30 with breaks 6,10,15,31/2
    assert pair.f.breakpoints == (F(0), F(6), F(10), F(15), F(31, 2))
    assert pair.f(8) == F(1, 5)


def test_verdict_notes_a_derived_ehk_off_the_expected_and_printed_values():
    # E8 with the A_2 table: the closed form is built on E8's ring, whose
    # e_HK 1/40 matches neither 2 - 1/120 nor the printed 239/120
    entry = dataclasses.replace(catalog_entry("E8"), betti=catalog_entry("A", 2).betti)
    pair, verdict = catalog_density(entry)
    assert pair.ehk == F(1, 40)
    assert not verdict.ehk_matches_expected and not verdict.ehk_matches_printed
    assert "derived e_HK 1/40 != 2 - 1/rank = 239/120" in verdict.notes
    assert "derived e_HK 1/40 != printed value 239/120" in verdict.notes
    assert verdict.clean is False


def test_derivations_run_once_per_entry(monkeypatch):
    # a fresh entry derives its closed form and its minor match on first
    # use and keeps them; repeated calls return the kept objects
    calls = []
    for name in ("closed_form_density", "match_generators"):
        original = getattr(catalog, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(catalog, name, counting)
    entry = dataclasses.replace(catalog_entry("D", 6))
    first, minors = catalog_density(entry), catalog_minor_check(entry)
    for _ in range(3):
        again = catalog_density(entry)
        assert again[0] is first[0] and again[1] is first[1]
        assert catalog_minor_check(entry) is minors
    assert calls == ["closed_form_density", "match_generators"]
    # the catalog's own entry is another object and derives once as well
    assert catalog_density(catalog_entry("D", 6)) == first
    assert calls.count("closed_form_density") == 2


def test_a_derivation_that_raises_is_not_kept(monkeypatch):
    entry = dataclasses.replace(catalog_entry("A", 4))
    refused = []

    def refusing(*args):
        refused.append(args)
        raise ValidationError("refused")

    monkeypatch.setattr(catalog, "closed_form_density", refusing)
    monkeypatch.setattr(catalog, "match_generators", refusing)
    for _ in range(2):
        with pytest.raises(ValidationError, match="refused"):
            catalog_density(entry)
        with pytest.raises(ValidationError, match="refused"):
            catalog_minor_check(entry)
    assert len(refused) == 4
    monkeypatch.undo()
    assert catalog_density(entry) == catalog_density(catalog_entry("A", 4))
    assert catalog_minor_check(entry) == catalog_minor_check(catalog_entry("A", 4))


def test_minor_checks():
    for n in range(2, 51):
        a = catalog_minor_check(catalog_entry("A", n))
        assert (a.verdict, a.per_generator) == ("ok", ("proportional",) * 3), n
        d = catalog_minor_check(catalog_entry("D", n))
        assert (d.verdict, d.per_generator) == (
            "mismatch",
            ("proportional", "unmatched", "unmatched"),
        ), n
    assert catalog_minor_check(catalog_entry("E6")).per_generator == (
        "proportional",
    ) * 3
    assert catalog_minor_check(catalog_entry("E7")).per_generator == (
        "proportional",
        "proportional",
        "ideal",
    )
    assert catalog_minor_check(catalog_entry("E8")).per_generator == (
        "proportional",
        "ideal",
        "proportional",
    )


def test_support_end_matches_rescaled_top_twist():
    for fam, n in (("A", 2), ("A", 7), ("D", 4), ("E6", None), ("E8", None)):
        entry = catalog_entry(fam, n)
        pair, _ = catalog_density(entry)
        assert pair.f.support_end == F(entry.betti.max_twist(), entry.l0)


def test_lattice_crosscheck_a2():
    entry = catalog_entry("A", 2)
    rows = catalog_lattice_crosscheck(entry, 5, [1, 2])
    assert [(r.level, r.q) for r in rows] == [(1, 5), (2, 25)]
    assert rows[0].sup_distance == F(2, 5)
    assert rows[1].sup_distance == F(2, 25)
    assert rows[0].integral == F(37, 25)
    assert rows[1].integral == F(937, 625)


def test_lattice_crosscheck_rejects_non_toric():
    with pytest.raises(DomainError):
        catalog_lattice_crosscheck(catalog_entry("D", 4), 5, [1])
    with pytest.raises(ValidationError):
        catalog_lattice_crosscheck(catalog_entry("A", 2), 2, [1])  # p | n
