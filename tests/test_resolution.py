from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity.errors import BettiIdentityError, InternalError, ValidationError
from hkdensity.exact import P_ZERO, PiecewisePoly, Polynomial, pw_integrate
from hkdensity.resolution import (
    BettiTable,
    betti_residual,
    closed_form_density,
    colength_by_degree,
    ehk_closed_form,
    koszul_betti,
    validate_betti,
)
from hkdensity.rings import CompleteIntersectionRing, hilbert_function

F = Fraction


def koszul2() -> BettiTable:
    return koszul_betti(2, (1, 1))


def a_table(n: int) -> BettiTable:
    return BettiTable.build(2, [(1, 2, 1), (1, n, 2), (2, n + 1, 2)])


def test_build_merges_and_sorts():
    t = BettiTable.build(2, [(2, 5, 1), (1, 3, 1), (2, 5, 1), (1, 3, 2)])
    assert t.entries == ((1, 3, 3), (2, 5, 2))
    assert t.max_twist() == 5


def test_build_rejects_bad_entries():
    with pytest.raises(ValidationError):
        BettiTable.build(0, [(1, 1, 1)])
    with pytest.raises(ValidationError):
        BettiTable.build(2, [(0, 1, 1)])
    with pytest.raises(ValidationError):
        BettiTable(2, ((1, 1, 0),))
    # build() canonicalizes: zero multiplicities vanish instead of erroring
    assert BettiTable.build(2, [(1, 1, 1), (1, 1, -1)]).entries == ()


def test_b_numbers_include_implicit_unit():
    b = koszul2().b_numbers()
    assert b == {0: 1, 1: -2, 2: 1}
    # cancellation drops zero entries
    t = BettiTable.build(2, [(1, 3, 1), (2, 3, 1), (1, 4, 1), (2, 5, 1)])
    assert 3 not in t.b_numbers()


def test_validate_koszul_and_catalog_style():
    validate_betti(koszul2())
    validate_betti(a_table(3))
    validate_betti(koszul_betti(3, (1, 2, 3)))


def test_validate_rejects_perturbation_with_residual():
    bad = BettiTable.build(2, [(1, 2, 1), (1, 3, 2), (2, 4, 3)])
    with pytest.raises(BettiIdentityError) as exc:
        validate_betti(bad)
    assert not exc.value.residual.is_zero()


def test_residual_is_translation_invariant_polynomial():
    # the residual of a valid table is the zero polynomial, not merely
    # zero at sample points
    assert betti_residual(a_table(5)).is_zero()


def test_colengths_koszul_q2():
    h = hilbert_function(CompleteIntersectionRing.build((1, 1), ()))
    cols = [colength_by_degree(koszul2(), h, 2, m) for m in range(5)]
    assert cols == [1, 2, 1, 0, 0]
    assert sum(cols) == 4  # q^d


def test_colengths_a2_a3_ambient_q2():
    h = hilbert_function(CompleteIntersectionRing.build((1, 1), ()))
    a2 = [colength_by_degree(a_table(2), h, 2, m) for m in range(7)]
    assert a2 == [1, 2, 3, 4, 2, 0, 0]
    a3 = [colength_by_degree(a_table(3), h, 2, m) for m in range(10)]
    assert a3 == [1, 2, 3, 4, 4, 4, 2, 0, 0, 0]


def test_colength_negative_total_rejected():
    # a table violating the identity can drive counts negative
    h = hilbert_function(CompleteIntersectionRing.build((1, 1), ()))
    bad = BettiTable(2, ((1, 1, 3),))
    with pytest.raises(ValidationError):
        for m in range(6):
            colength_by_degree(bad, h, 2, m)


def test_closed_form_koszul_tent():
    f = closed_form_density(koszul2(), F(1), 1)
    assert f.breakpoints == (F(0), F(1), F(2))
    assert f.pieces == (Polynomial.of(0, 1), Polynomial.of(2, -1))
    assert pw_integrate(f) == 1
    assert ehk_closed_form(f, koszul2(), F(1), 1) == 1


def test_closed_form_a2_ambient():
    f = closed_form_density(a_table(2), F(1), 1)
    assert f.breakpoints == (F(0), F(2), F(3))
    assert f.pieces == (Polynomial.of(0, 1), Polynomial.of(6, -2))
    assert pw_integrate(f) == 3


def test_closed_form_divides_breaks_by_n0():
    # Koszul on two degree-2 forms over the A_2 invariant ring: the
    # colengths live on even degrees, window indexing halves the breaks
    t = koszul_betti(2, (2, 2))
    f = closed_form_density(t, F(2), 2)
    assert f.breakpoints == (F(0), F(1), F(2))
    assert pw_integrate(f) == 2
    assert ehk_closed_form(f, t, F(2), 2) == 2


def test_ehk_checks_formula_against_given_density():
    # the tent integrates to 1; the A_2 table's formula gives 3
    tent = closed_form_density(koszul2(), F(1), 1)
    with pytest.raises(InternalError):
        ehk_closed_form(tent, a_table(2), F(1), 1)


def test_ehk_matches_integral():
    for n in (2, 3, 7):
        t = a_table(n)
        f = closed_form_density(t, F(1), 1)
        assert ehk_closed_form(f, t, F(1), 1) == pw_integrate(f)


def test_koszul_betti_shape():
    t = koszul_betti(3, (1, 1, 1))
    assert t.entries == ((1, 1, 3), (2, 2, 3), (3, 3, 1))
    validate_betti(t)


def test_json_round_trip():
    t = a_table(4)
    assert BettiTable.from_json(t.to_json()) == t
    assert t.to_json()["d"] == 2


@st.composite
def koszul_like(draw):
    # the vanishing identity needs at least d forms (finite colength);
    # below that the quotient is positive-dimensional and it fails honestly
    d = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=d, max_value=d + 2))
    degrees = draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=k, max_size=k)
    )
    return koszul_betti(d, degrees)


@given(koszul_like())
def test_random_koszul_tables_validate(t):
    validate_betti(t)


@given(koszul_like(), st.data())
def test_single_entry_perturbation_detected(t, data):
    entries = list(t.entries)
    idx = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
    i, j, b = entries[idx]
    entries[idx] = (i, j, b + 1)
    bad = BettiTable.build(t.d, entries)
    with pytest.raises(BettiIdentityError) as exc:
        validate_betti(bad)
    assert not exc.value.residual.is_zero()


# ---------------------------------------------------------------------------
# the power-sum kernel against the binomial-power construction it replaced


def reference_residual(betti: BettiTable) -> Polynomial:
    """sum_j B(j) (x - j)^(d-1) by expanding each power."""
    acc = P_ZERO
    for j, bj in betti.b_numbers().items():
        acc = acc + (Polynomial.of(-j, 1) ** (betti.d - 1)).scale(Fraction(bj))
    return acc


def reference_density(betti: BettiTable, ehat: Fraction, n0: int) -> PiecewisePoly:
    """Cumulative sums of ehat B(j) (x - j/n0)^(d-1), one power per twist."""
    bn = betti.b_numbers()
    pieces = []
    acc = P_ZERO
    for j in bn:
        shift = Polynomial.of(Fraction(-j, n0), 1) ** (betti.d - 1)
        acc = acc + shift.scale(Fraction(bn[j]) * ehat)
        pieces.append(acc)
    assert pieces[-1].is_zero()
    return PiecewisePoly.build([Fraction(j, n0) for j in bn], pieces[:-1], None)


@st.composite
def koszul_wide(draw):
    d = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=d, max_value=d + 2))
    degrees = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=k, max_size=k)
    )
    return koszul_betti(d, degrees)


@st.composite
def perturbed_koszul(draw):
    """A Koszul table with one entry's multiplicity moved by +-1 or its twist
    moved up by one; either breaks a moment condition."""
    t = draw(koszul_wide())
    entries = list(t.entries)
    idx = draw(st.integers(min_value=0, max_value=len(entries) - 1))
    i, j, b = entries[idx]
    entries[idx] = draw(st.sampled_from([(i, j, b + 1), (i, j, b - 1), (i, j + 1, b)]))
    return BettiTable.build(t.d, entries)


positive_rationals = st.builds(
    Fraction, st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12)
)


@settings(max_examples=60, deadline=None)
@given(koszul_wide(), positive_rationals, st.integers(min_value=1, max_value=4))
def test_closed_form_matches_power_reference(t, ehat, n0):
    f = closed_form_density(t, ehat, n0)
    assert f == reference_density(t, ehat, n0)
    assert betti_residual(t) == reference_residual(t) == P_ZERO
    assert ehk_closed_form(f, t, ehat, n0) == pw_integrate(f)


@settings(max_examples=60, deadline=None)
@given(perturbed_koszul(), positive_rationals, st.integers(min_value=1, max_value=4))
def test_residual_matches_power_reference_on_perturbations(bad, ehat, n0):
    expected = reference_residual(bad)
    assert not expected.is_zero()
    assert betti_residual(bad) == expected
    with pytest.raises(BettiIdentityError) as exc:
        closed_form_density(bad, ehat, n0)
    assert exc.value.residual == expected
