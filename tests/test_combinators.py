from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity.catalog import catalog_entry
from hkdensity.combinators import (
    DensityPair,
    rescale_density,
    segre,
)
from hkdensity.errors import DomainError, ValidationError
from hkdensity.exact import PiecewisePoly, Polynomial, pw_integrate, pw_rescale_arg
from hkdensity.resolution import closed_form_density, koszul_betti
from hkdensity.rings import CompleteIntersectionRing

F = Fraction


def tent() -> PiecewisePoly:
    # density of (k[x,y], (x,y)): x on [0,1), 2-x on [1,2)
    return PiecewisePoly.build(
        [0, 1, 2], [Polynomial.of(0, 1), Polynomial.of(2, -1)]
    )


def koszul_pair() -> DensityPair:
    return DensityPair(PiecewisePoly.monomial_tail(F(1), 1), tent(), 2)


def test_density_pair_basics():
    pair = koszul_pair()
    assert pair.ehat == 1
    assert pair.ehk == 1
    defect = pair.defect()
    # F - f is x - x = 0 on [0,1), then x - (2-x) = 2x - 2 on [1,2), x beyond
    assert defect(F(1, 2)) == 0
    assert defect(F(3, 2)) == 1
    assert defect(3) == 3


def test_density_pair_rejects_bad_envelope():
    with pytest.raises(ValidationError):
        # degree 0 envelope for d = 2
        DensityPair(PiecewisePoly.monomial_tail(F(1), 0), tent(), 2)
    with pytest.raises(ValidationError):
        # two-term tail is not a monomial
        DensityPair(
            PiecewisePoly.build([0], [], Polynomial.of(1, 1)), tent(), 2
        )
    with pytest.raises(ValidationError):
        # compactly supported envelope
        DensityPair(tent(), tent(), 2)


def test_density_pair_rejects_bad_density():
    env = PiecewisePoly.monomial_tail(F(1), 1)
    with pytest.raises(ValidationError):
        # noncompact density
        DensityPair(env, env, 2)
    with pytest.raises(ValidationError):
        # jump at x = 1
        DensityPair(
            env,
            PiecewisePoly.build([0, 1, 2], [Polynomial.of(0, 1), Polynomial.of(0)]),
            2,
        )
    with pytest.raises(ValidationError):
        # escapes above the envelope
        DensityPair(env, pw_rescale_arg(tent(), 1, 2), 2)
    with pytest.raises(ValidationError):
        DensityPair(env, tent(), 1)


def test_density_pair_rejects_escape_between_grid_points():
    # continuous, f <= F = x, but negative on (0, 1/100), inside the first
    # cell of any 64-point grid over [0, 2]
    env = PiecewisePoly.monomial_tail(F(1), 1)
    dip = PiecewisePoly.build(
        [0, F(1, 100), 1, 2],
        [
            Polynomial.of(0, -1),
            Polynomial.of(F(-1, 66), F(17, 33)),
            Polynomial.of(1, F(-1, 2)),
        ],
    )
    assert dip.is_continuous() and dip(F(1, 100)) < 0
    with pytest.raises(ValidationError, match=r"escapes \[0, envelope\] on \[0, 1/100\)"):
        DensityPair(env, dip, 2)
    # the mirror image: above F = x on (0, 1/100) only
    bump = PiecewisePoly.build(
        [0, F(1, 100), 1, 2],
        [
            Polynomial.of(0, 2),
            Polynomial.of(F(1, 66), F(16, 33)),
            Polynomial.of(1, F(-1, 2)),
        ],
    )
    assert bump.is_continuous() and bump(F(1, 100)) > F(1, 100)
    with pytest.raises(ValidationError, match="above the envelope"):
        DensityPair(env, bump, 2)


def test_segre_of_two_tents():
    out = segre(koszul_pair(), koszul_pair())
    assert out.d == 3
    assert out.ehat == 1
    assert out.ehk == F(4, 3)
    # defect multiplies, so f = F on [0,1) where either defect vanishes
    assert out.f(F(1, 2)) == F(1, 4)
    assert out.f(F(3, 2)) == F(9, 4) - 1
    assert out.f.support_end == 2


def test_segre_dimension_adds():
    three = segre(koszul_pair(), koszul_pair())
    four = segre(three, koszul_pair())
    assert four.d == 4
    assert four.ehk == pw_integrate(four.f)
    assert four.ehk < four.ehat * F(2**4, 4)


def test_rescale_invariant_table():
    # ambient table of a Koszul pair with twists (2,2); regrade l0=2, rank 2
    amb = closed_form_density(koszul_betti(2, (2, 2)), F(1), 1)
    assert amb.breakpoints == (F(0), F(2), F(4))
    inv = rescale_density(amb, 2, 2)
    assert inv.breakpoints == (F(0), F(1), F(2))
    assert pw_integrate(inv) == pw_integrate(amb) / 2
    assert inv(F(1, 2)) == 1


def test_rescale_rejects_bad_args():
    with pytest.raises(DomainError):
        rescale_density(tent(), 0, 2)
    with pytest.raises(DomainError):
        rescale_density(tent(), 2, 0)


def test_rank_from_degrees_catalog_values():
    # the rank that rescale_density takes, read off the degree data of an
    # invariant presentation: prod(gen degrees) / prod(relation degrees),
    # which is n0^dim / ((dim - 1)! ehat) of the complete intersection
    cases = [
        ((2, 3, 3), (6,), 3),
        ((4, 8, 10), (20,), 16),
        ((6, 4, 4), (12,), 8),
        ((6, 8, 12), (24,), 24),
        ((12, 30, 20), (60,), 120),
        ((5,), (), 5),
    ]
    for gens, rels, rank in cases:
        ring = CompleteIntersectionRing.build(gens, rels)
        assert F(ring.n0**ring.dim, factorial(ring.dim - 1)) / ring.ehat() == rank
    for fam, n, rank in [("A", 3, 3), ("D", 4, 16), ("E6", None, 8), ("E7", None, 24), ("E8", None, 120)]:
        assert catalog_entry(fam, n).rank == rank
    with pytest.raises(ValidationError):
        CompleteIntersectionRing.build((0, 2), (2,))


@settings(max_examples=60, deadline=None)
@given(
    scale=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8),
    l0=st.integers(min_value=1, max_value=6),
    rank=st.integers(min_value=1, max_value=8),
)
def test_rescale_integral_identity(scale, l0, rank):
    f = pw_rescale_arg(tent(), 1, scale)
    out = rescale_density(f, l0, rank)
    assert pw_integrate(out) == pw_integrate(f) / rank
    assert out.support_end == F(2, l0)
