from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hkdensity.errors import DomainError, InputError, ValidationError
from hkdensity.lattice import SemigroupSpec
from hkdensity.rings import (
    CompleteIntersectionRing,
    SemigroupRing,
    VeroneseRing,
    hilbert_density,
    hilbert_function,
    leading_coefficient,
    parse_ring_json,
)

F = Fraction


def plane() -> CompleteIntersectionRing:
    return CompleteIntersectionRing.build((1, 1), ())


def a_inv(n: int) -> CompleteIntersectionRing:
    # invariant ring presentation k[h1,h2,h3]/(one relation)
    return CompleteIntersectionRing.build((2, n, n), (2 * n,))


def test_plane_hilbert():
    h = hilbert_function(plane())
    assert [h(m) for m in range(6)] == [1, 2, 3, 4, 5, 6]
    assert h.dim == 2 and h.n0 == 1
    assert h(-3) == 0


def test_ci_validation():
    with pytest.raises(ValidationError):
        CompleteIntersectionRing.build((0, 2), ())
    with pytest.raises(ValidationError):
        CompleteIntersectionRing.build((2, 2), (4, 4))  # r = g not allowed
    # relation degree that the generators cannot reach makes some
    # coefficient of the series negative
    with pytest.raises(ValidationError):
        hilbert_function(CompleteIntersectionRing.build((2,), (3,)))(10)


def test_a2_invariant_hilbert_matches_monomial_count():
    # k[xy, x^2, y^2]: dimension of degree-m piece = #{(a,b): a+b=m, a=b mod 2}
    h = hilbert_function(a_inv(2))
    for m in range(0, 20):
        expect = sum(1 for a in range(m + 1) if (m - 2 * a) % 2 == 0 and a <= m)
        expect = sum(1 for a in range(m + 1) if (a - (m - a)) % 2 == 0)
        assert h(m) == expect
    assert h.n0 == 2
    assert h.dim == 2


def test_a3_invariant_hilbert_matches_semigroup_count():
    ci = hilbert_function(a_inv(3))
    sg = hilbert_function(
        SemigroupRing(SemigroupSpec.build(2, [(1, 1), (3, 0), (0, 3)], (1, 1), 5))
    )
    for m in range(0, 25):
        assert ci(m) == sg(m), m
    assert ci.n0 == sg.n0 == 1


def test_window_sum():
    h = hilbert_function(a_inv(2))
    # window M: degrees M*n0 .. M*n0 + n0 - 1; here only the even slot counts
    assert h.window_sum(0) == h(0)
    assert h.window_sum(3) == h(6) + h(7)


@pytest.mark.parametrize(
    "gens,rels,want",
    [
        ((1, 1), (), F(1)),
        ((2, 2, 2), (4,), F(2)),       # A_2 invariants
        ((2, 4, 4), (8,), F(1)),       # A_4: 4/n
        ((2, 5, 5), (10,), F(1, 5)),   # A_5: 1/n
        ((4, 8, 10), (20,), F(1, 4)),  # D_4: 1/n
        ((6, 4, 4), (12,), F(1, 2)),   # E6
        ((6, 8, 12), (24,), F(1, 6)),  # E7
        ((12, 30, 20), (60,), F(1, 30)),  # E8
    ],
)
def test_leading_coefficient_closed_form(gens, rels, want):
    assert leading_coefficient(CompleteIntersectionRing.build(gens, rels)) == want


def test_leading_coefficient_semigroup_matches_ci():
    # generic finite-difference path on the toric model must agree with the
    # complete-intersection closed form
    for n in (2, 3, 5):
        sg = SemigroupRing(
            SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), 5)
        )
        assert leading_coefficient(sg) == leading_coefficient(a_inv(n)), n


def test_leading_coefficient_dim1_rejected():
    with pytest.raises(DomainError):
        leading_coefficient(CompleteIntersectionRing.build((1,), ()))


def test_veronese_factor_hilbert():
    v = VeroneseRing(plane(), 3)
    hv, h = hilbert_function(v), hilbert_function(plane())
    for m in range(10):
        assert hv(m) == h(3 * m)
    assert hv.dim == 2
    assert leading_coefficient(v) == 3


def test_veronese_normalizes_n0():
    # A_2 invariants are generated in even degrees; the 2nd Veronese
    # regrades them with n0 = 1
    v = VeroneseRing(a_inv(2), 2)
    hv = hilbert_function(v)
    assert hv.n0 == 1
    assert [hv(m) for m in range(5)] == [1, 3, 5, 7, 9]
    # window density is unchanged by the regrade: hv(m) = 2m + 1
    assert leading_coefficient(v) == 2


def test_hilbert_density_envelope():
    env = hilbert_density(a_inv(2))
    assert not env.has_compact_support
    assert env(F(3)) == 6  # 2x at x=3


def test_gcd_degrees():
    assert hilbert_function(a_inv(2)).n0 == 2
    assert hilbert_function(a_inv(3)).n0 == 1
    assert hilbert_function(CompleteIntersectionRing.build((12, 30, 20), (60,))).n0 == 2


def test_parse_ring_json_round_trip():
    specs = [
        {"type": "ci", "gens": [2, 2, 2], "rels": [4]},
        {"type": "semigroup", "semigroup": {"rank": 2, "gens": [[1, 1], [2, 0], [0, 2]], "weights": [1, 1], "p": 5}},
        {"type": "veronese", "base": {"type": "ci", "gens": [1, 1], "rels": []}, "factor": 2},
    ]
    for data in specs:
        ring = parse_ring_json(data)
        assert hilbert_function(ring)(0) == 1
    with pytest.raises(InputError):
        parse_ring_json({"type": "widget"})
    with pytest.raises(InputError):
        parse_ring_json({"type": "ci"})


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_koszul_numerator_consistency(a, b):
    # complete intersection k[x,y]/(f) with deg f = a + b has the Hilbert
    # function of a polynomial ring minus its shift
    ring = CompleteIntersectionRing.build((a, b), (a + b,))
    free = CompleteIntersectionRing.build((a, b), ())
    h, hf = hilbert_function(ring), hilbert_function(free)
    for m in range(12):
        assert h(m) == hf(m) - hf(m - a - b)
