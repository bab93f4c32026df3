from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity.errors import InputError, ValidationError
from hkdensity.exact import (
    P_ONE,
    P_X,
    P_ZERO,
    PiecewisePoly,
    Polynomial,
    count_real_roots,
    pw_add,
    pw_integrate,
    pw_mul,
    pw_rescale_arg,
    pw_scale,
    pw_sub,
    pw_sup_distance,
    rat,
    rat_str,
    rational_roots,
)

F = Fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def poly_strategy(max_deg=4):
    return st.lists(rationals, min_size=0, max_size=max_deg + 1).map(
        lambda cs: Polynomial.of(*cs)
    )


def tent() -> PiecewisePoly:
    return PiecewisePoly.build(
        [F(0), F(1), F(2)], [Polynomial.of(0, 1), Polynomial.of(2, -1)], None
    )


def test_rat_parses_strings_and_ints():
    assert rat("3/7") == F(3, 7)
    assert rat(4) == F(4)
    assert rat(F(1, 2)) == F(1, 2)
    assert rat_str(F(-5, 3)) == "-5/3"
    assert rat_str(F(4)) == "4"
    with pytest.raises(InputError):
        rat("not a number")
    with pytest.raises(InputError):
        rat(0.5)  # floats are ambiguous, refuse them


def test_polynomial_basics():
    p = Polynomial.of(1, 0, -2)  # 1 - 2x^2
    assert p.degree == 2
    assert p(F(3)) == 1 - 18
    assert (p + P_ONE)(F(1)) == 0
    assert (p - p).is_zero()
    assert (-p)(F(2)) == -p(F(2))
    q = P_X * P_X
    assert q.coeffs == (0, 0, 1)
    assert (P_X ** 3).coeffs == (0, 0, 0, 1)
    assert p.scale(F(1, 2)).coeffs == (F(1, 2), 0, -1)


def test_polynomial_trailing_zeros_normalized():
    assert Polynomial.of(1, 2, 0, 0).coeffs == (1, 2)
    assert Polynomial.of(0, 0).is_zero()
    assert P_ZERO.degree == -1


def test_compose_linear():
    # p(ax + b)
    p = Polynomial.of(0, 0, 1)  # x^2
    q = p.compose_linear(F(2), F(-1))  # (2x-1)^2
    assert q.coeffs == (1, -4, 4)
    for x in [F(0), F(1, 3), F(7, 2)]:
        assert q(x) == p(2 * x - 1)


def test_calculus():
    p = Polynomial.of(1, 2, 3)
    assert p.derivative().coeffs == (2, 6)
    a = p.antiderivative()
    assert a.derivative() == p
    assert a(F(0)) == 0


@given(poly_strategy(), poly_strategy(), rationals)
def test_poly_ring_identities(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == (p + (-q))(x)


@given(poly_strategy())
def test_poly_json_round_trip(p):
    assert Polynomial.from_json(p.to_json()) == p


def test_piecewise_build_validation():
    with pytest.raises(ValidationError):
        PiecewisePoly.build([F(1), F(2)], [P_ONE], None)  # must start at 0
    with pytest.raises(ValidationError):
        PiecewisePoly.build([F(0), F(2), F(1)], [P_ONE, P_X], None)
    with pytest.raises(ValidationError):
        PiecewisePoly.build([F(0), F(1)], [], None)  # count mismatch


def test_piecewise_eval_right_continuous():
    f = tent()
    # value at a breakpoint comes from the piece on the right
    assert f(1) == 1
    assert f(F(1, 2)) == F(1, 2)
    assert f(F(3, 2)) == F(1, 2)
    assert f(2) == 0 and f(100) == 0
    assert f("3/2") == F(1, 2)


def test_piecewise_tail_and_support():
    env = PiecewisePoly.monomial_tail(F(2), 1)
    assert not env.has_compact_support
    assert env(10) == 20
    t = tent()
    assert t.has_compact_support
    assert t.support_end == 2
    assert t.is_continuous()


def test_pw_integrate_tent():
    assert pw_integrate(tent()) == 1


def test_pw_integrate_rejects_tail():
    with pytest.raises(ValidationError):
        pw_integrate(PiecewisePoly.monomial_tail(F(1), 1))


def test_pw_arithmetic_pointwise():
    f, g = tent(), PiecewisePoly.monomial_tail(F(1), 1)
    s = pw_add(f, g)
    d = pw_sub(g, f)
    m = pw_mul(f, f)
    for x in [F(0), F(1, 3), F(1), F(7, 5), F(2), F(3)]:
        assert s(x) == f(x) + g(x)
        assert d(x) == g(x) - f(x)
        assert m(x) == f(x) ** 2
    assert pw_scale(f, 3)(F(1, 2)) == F(3, 2)


@given(st.fractions(min_value=0, max_value=8, max_denominator=6))
def test_pw_sub_is_add_neg(x):
    f, g = tent(), PiecewisePoly.monomial_tail(F(1, 2), 2)
    assert pw_sub(f, g)(x) == pw_add(f, pw_scale(g, -1))(x)


def test_pw_rescale_arg():
    # x -> s f(c x): halves the support, scales values
    f = tent()
    r = pw_rescale_arg(f, F(2), F(3))
    assert r.support_end == 1
    assert r(F(1, 4)) == 3 * f(F(1, 2))
    assert pw_integrate(r) == F(3, 2) * pw_integrate(f)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_pw_rescale_integral_identity(c, s_den):
    # integral of s f(cx) is (s/c) integral f
    s = F(1, s_den)
    f = tent()
    assert pw_integrate(pw_rescale_arg(f, F(c), s)) == s / c * pw_integrate(f)


def test_pw_json_round_trip_examples():
    for f in [tent(), PiecewisePoly.zero(), PiecewisePoly.monomial_tail(F(5, 3), 2)]:
        assert PiecewisePoly.from_json(f.to_json()) == f


def test_sturm_root_counts():
    # (x-1)(x-2)(x-3)
    p = Polynomial.of(-6, 11, -6, 1)
    assert count_real_roots(p, F(0), F(4)) == 3
    assert count_real_roots(p, F(0), F(3, 2)) == 1
    assert count_real_roots(p, F(5), F(9)) == 0
    # double root counts once
    sq = Polynomial.of(1, -2, 1)
    assert count_real_roots(sq, F(0), F(2)) == 1


def test_rational_roots():
    p = Polynomial.of(-6, 11, -6, 1)
    assert rational_roots(p) == [F(1), F(2), F(3)]
    assert rational_roots(Polynomial.of(2, 0, 1)) == []  # x^2 + 2
    # x - 1/2
    assert rational_roots(Polynomial.of(F(-1, 2), 1)) == [F(1, 2)]


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4, unique=True))
def test_rational_roots_on_split_products(roots):
    p = P_ONE
    for r in roots:
        p = p * Polynomial.of(-r, 1)
    found = rational_roots(p)
    assert found == sorted(F(r) for r in roots)
    lo, hi = F(min(roots) - 1), F(max(roots) + 1)
    assert count_real_roots(p, lo, hi) == len(roots)


def test_sup_distance_exact_on_linear_pieces():
    f, g = tent(), PiecewisePoly.zero()
    assert pw_sup_distance(f, g) == 1
    assert pw_sup_distance(f, f) == 0
    # shifted tent peak
    h = pw_scale(f, F(1, 2))
    assert pw_sup_distance(f, h) == F(1, 2)


def test_sup_distance_symmetry_and_identity():
    f = tent()
    g = pw_rescale_arg(f, F(2), F(1))
    d1, d2 = pw_sup_distance(f, g), pw_sup_distance(g, f)
    assert d1 == d2 > 0


def test_sup_distance_quadratic_interior_max():
    # f - g = x(2-x)/1 on [0,2): sup = 1 at interior x=1
    f = PiecewisePoly.build([F(0), F(2)], [Polynomial.of(0, 2, -1)], None)
    g = PiecewisePoly.zero()
    assert pw_sup_distance(f, g) == 1
