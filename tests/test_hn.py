from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkdensity.errors import ValidationError
from hkdensity.exact import PiecewisePoly, Polynomial, pw_integrate, pw_negative_piece
from hkdensity.hn import HNData, dim2_pair_density, hn_density
from hkdensity.resolution import BettiTable, closed_form_density

F = Fraction


def test_koszul_tent_from_line_bundle():
    # V = O(-1) on the line, ideal twists (1,1): recovers the plane density
    v = HNData.build([(-1, 1)], 1)
    f = dim2_pair_density(v, (1, 1))
    expect = PiecewisePoly.build(
        [0, 1, 2], [Polynomial.of(0, 1), Polynomial.of(2, -1)]
    )
    assert f == expect
    assert pw_integrate(f) == 1


def test_single_component_ramp():
    # one slope-0 rank-2 component, d = 1: value 2(1 - x) until 1
    f = hn_density(HNData.build([(0, 2)], 1))
    assert f.breakpoints == (F(0), F(1))
    assert f(0) == 2
    assert f(F(1, 2)) == 1
    assert f(1) == 0


def test_slope_at_degree_gives_zero():
    # slope a = d puts the only breakpoint at 0: nothing survives
    f = hn_density(HNData.build([(2, 3)], 2))
    assert f == PiecewisePoly.zero()
    assert hn_density(HNData((), 1)) == PiecewisePoly.zero()


def test_two_step_filtration():
    # slopes 1 > -1, unit ranks, d = 2: breaks at 1/2 and 3/2
    f = hn_density(HNData.build([(1, 1), (-1, 1)], 2))
    assert f.breakpoints == (F(0), F(1, 2), F(3, 2))
    # on [0, 1/2): both components contribute, f = 4 - 4x
    assert f(0) == 4
    assert f(F(1, 4)) == 3
    # on [1/2, 3/2): only the slope -1 summand remains, f = 3 - 2x
    assert f(1) == 1
    assert f(F(3, 2)) == 0
    # masses (d-a)^2/(2d) per unit rank: 1/4 and 9/4
    assert pw_integrate(f) == F(5, 2)


def test_scaling_slopes_and_degree_together():
    base = HNData.build([(1, 1), (-1, 2)], 2)
    doubled = HNData.build([(2, 1), (-2, 2)], 4)
    fb, fd = hn_density(base), hn_density(doubled)
    assert fb.breakpoints == fd.breakpoints
    for k in range(7):
        x = F(k, 4)
        assert fd(x) == 2 * fb(x)


def test_slopes_must_strictly_decrease():
    with pytest.raises(ValidationError):
        HNData.build([(1, 1), (1, 1)], 2)
    with pytest.raises(ValidationError):
        HNData.build([(-1, 1), (0, 1)], 1)
    with pytest.raises(ValidationError):
        HNData.build([(0, 0)], 1)


def test_json_round_trip():
    blob = {
        "d": 3,
        "components": [{"slope": "-1/2", "rank": 1}, {"slope": "-3", "rank": 2}],
    }
    assert HNData.from_json(blob) == HNData.build([(F(-1, 2), 1), (-3, 2)], 3)
    assert HNData.from_json(
        {"d": 1, "components": [{"slope": "-1", "rank": 1}]}
    ) == HNData.build([(-1, 1)], 1)


def test_pair_density_negativity_guard():
    # twisting by (2,2) against a slope-0 line overshoots: f would dip
    # below zero near the support end
    v = HNData.build([(0, 1)], 1)
    with pytest.raises(
        ValidationError,
        match=r"pair density is negative near \[0, 1\): inconsistent input data",
    ):
        dim2_pair_density(v, (2, 2))


def test_pair_density_refuses_a_twist_below_one():
    # a generator of degree 0 is a unit: I = R, outside the syzygy sequence
    v = HNData.build([(-1, 1)], 1)
    for twists in ((0,), (1, 1, -2)):
        with pytest.raises(ValidationError, match=r"^twist degree -?\d must be >= 1$"):
            dim2_pair_density(v, twists)


def test_pair_density_trivial_case():
    assert dim2_pair_density(HNData((), 1), ()) == PiecewisePoly.zero()


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    ),
    d=st.integers(min_value=1, max_value=4),
)
def test_hn_density_properties(data, d):
    pairs = sorted(data, key=lambda t: t[0], reverse=True)
    f = hn_density(HNData.build(pairs, d))
    assert f.tail is None
    assert f.is_continuous()
    # total mass: each rank-r component of slope a contributes r*(d-a)^2/(2d)
    # clipped at 0; only slopes below d survive
    expect = sum(
        (F(r) * (d - a) ** 2 / (2 * d) for a, r in pairs if a < d),
        F(0),
    )
    assert pw_integrate(f) == expect


@st.composite
def p1_degrees(draw):
    """Generator degrees d_i of an ideal of k[x, y], 2-5 of them in 1-6, and
    syzygy degrees e_j, a random composition of sum d_i into one part fewer."""
    gens = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    total, n = sum(gens), len(gens)
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=n - 2, max_size=n - 2, unique=True))
    ends = [0, *sorted(cuts), total]
    return tuple(gens), tuple(b - a for a, b in zip(ends, ends[1:]))


@settings(max_examples=200, deadline=None)
@given(p1_degrees())
# the closed form is 2 - x on [1, 4), negative past 2: refused
@example(((1, 1, 6, 6), (4, 5, 5)))
def test_pair_density_matches_closed_form_on_p1(degrees):
    # on P^1 the syzygy bundle splits as the sum of O(1 - e_j), so the HN
    # path must give the closed form of the Betti table wherever that form
    # is a density, and refuse it exactly where it dips below 0
    gens, syz = degrees
    betti = BettiTable.build(2, [(1, g, 1) for g in gens] + [(2, e, 1) for e in syz])
    want = closed_form_density(betti, F(1))
    v = HNData.build(sorted(Counter(1 - e for e in syz).items(), reverse=True), 1)
    if pw_negative_piece(want) is None:
        assert dim2_pair_density(v, gens) == want
    else:
        with pytest.raises(ValidationError, match="pair density is negative"):
            dim2_pair_density(v, gens)
