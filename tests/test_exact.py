from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkdensity.cli import _json_text
from hkdensity.errors import DomainError, InputError, ValidationError
from hkdensity.exact import (
    P_ZERO,
    PiecewisePoly,
    Polynomial,
    _horner,
    _odd_part,
    _poly_abs_sup,
    _primitive,
    _sturm_chain,
    _variations,
    poly_nonnegative,
    pw_integrate,
    pw_mul,
    pw_rescale_arg,
    pw_sub,
    pw_sup_distance,
    rat,
)

F = Fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@dataclass(frozen=True)
class FractionPoly:
    """A polynomial as one Fraction per coefficient, with Fraction Euclid,
    Sturm and Yun below: the reference for the integer kernel of
    ``Polynomial``."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs) -> "FractionPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return FractionPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _coef(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly.of(*(self._coef(i) + other._coef(i) for i in range(n)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FractionPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly.of(*out)

    def scale(self, k):
        return FractionPoly.of(*(c * k for c in self.coeffs))

    def compose_linear(self, a, b):
        lin = FractionPoly.of(b, a)
        acc = FractionPoly(())
        for c in reversed(self.coeffs):
            acc = acc * lin + FractionPoly.of(c)
        return acc

    def derivative(self):
        return FractionPoly.of(*(i * c for i, c in enumerate(self.coeffs) if i))

    def antiderivative(self):
        return FractionPoly.of(0, *(c / (i + 1) for i, c in enumerate(self.coeffs)))


def ref_divmod(a, b):
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    while len(rem) >= len(b.coeffs) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b.coeffs)
        factor = rem[-1] / b.coeffs[-1]
        quot[shift] = factor
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return FractionPoly.of(*quot), FractionPoly.of(*rem)


def ref_gcd(a, b):
    while not b.is_zero():
        a, b = b, ref_divmod(a, b)[1]
    return a if a.is_zero() else a.scale(1 / a.coeffs[-1])


def ref_sturm_chain(p):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = ref_divmod(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def ref_count_real_roots(p, a, b):
    def variations(x):
        signs = [v for q in chain if (v := q(x)) != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if (s > 0) != (t > 0))

    chain = ref_sturm_chain(p)
    return variations(a) - variations(b)


def ref_odd_part(p):
    dp = p.derivative()
    g = ref_gcd(p, dp)
    b, c = ref_divmod(p, g)[0], ref_divmod(dp, g)[0]
    factors = []
    while b.degree > 0:
        d = c - b.derivative()
        factors.append(ref_gcd(b, d))
        b, c = ref_divmod(b, factors[-1])[0], ref_divmod(d, factors[-1])[0]
    out = FractionPoly.of(1)
    for f in factors[::2]:
        out = out * f
    return out


def ref_nonnegative(p, a, b):
    if p(a) < 0 or p(b) < 0:
        return False
    if p.degree <= 1:
        return True
    odd = ref_odd_part(p)
    if ref_count_real_roots(odd, a, b) - (odd(b) == 0) > 0:
        return False
    n = p.degree + 2
    return next(v for k in range(1, n) if (v := p(a + (b - a) * k / n))) > 0


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
    # the JSON writer prints a rational as its 'num/den' string
    assert _json_text(F(-5, 3)) == '"-5/3"\n'
    assert _json_text(F(4)) == '"4"\n'
    with pytest.raises(InputError):
        rat("not a number")
    with pytest.raises(InputError):
        rat(0.5)  # floats are ambiguous, refuse them


def test_polynomial_basics():
    p = Polynomial.of(1, 0, -2)  # 1 - 2x^2
    x = Polynomial.of(0, 1)
    assert p.degree == 2
    assert p(F(3)) == 1 - 18
    assert (p + Polynomial.of(1))(F(1)) == 0
    assert (p - p).is_zero()
    assert (-p)(F(2)) == -p(F(2))
    q = x * x
    assert q.coeffs == (0, 0, 1)
    assert (q * x).coeffs == (0, 0, 0, 1)
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
        PiecewisePoly.build([F(1), F(2)], [Polynomial.of(1)], None)  # must start at 0
    with pytest.raises(ValidationError):
        PiecewisePoly.build([F(0), F(2), F(1)], [Polynomial.of(1), Polynomial.of(0, 1)], None)
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
    assert env.tail is not None
    assert env(10) == 20
    t = tent()
    assert t.tail is None
    assert t.support_end == 2
    assert t.is_continuous()


@given(st.one_of(st.integers(-9, 9), rationals), st.integers(0, 5))
def test_monomial_tail_matches_build(coeff, power):
    # built straight from the numerators, in the canonical form that build
    # gives, a zero coefficient included
    want = PiecewisePoly.build([0], [], Polynomial.of(*([0] * power), coeff))
    assert PiecewisePoly.monomial_tail(coeff, power) == want


def test_pw_integrate_tent():
    assert pw_integrate(tent()) == 1


def test_pw_integrate_rejects_tail():
    with pytest.raises(ValidationError):
        pw_integrate(PiecewisePoly.monomial_tail(F(1), 1))


def test_pw_arithmetic_pointwise():
    f, g = tent(), PiecewisePoly.monomial_tail(F(1), 1)
    d = pw_sub(g, f)
    m = pw_mul(f, f)
    for x in [F(0), F(1, 3), F(1), F(7, 5), F(2), F(3)]:
        assert d(x) == g(x) - f(x)
        assert m(x) == f(x) ** 2
    assert pw_rescale_arg(f, 1, 3)(F(1, 2)) == F(3, 2)


@given(st.fractions(min_value=0, max_value=8, max_denominator=6))
def test_pw_sub_is_add_neg(x):
    f, g = tent(), PiecewisePoly.monomial_tail(F(1, 2), 2)
    assert pw_sub(f, g)(x) == f(x) - g(x)


def ref_combine(f, g, op):
    """pw_combine as it was: the sorted union of the breakpoints, a
    ``piece_at`` lookup per cut, and ``build``."""
    cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
    pieces = [op(f.piece_at(a), g.piece_at(a)) for a in cuts[:-1]]
    f_tail = f.tail if f.tail is not None else P_ZERO
    g_tail = g.tail if g.tail is not None else P_ZERO
    tail = op(f_tail, g_tail)
    return PiecewisePoly.build(cuts, pieces, None if tail.is_zero() else tail)


@st.composite
def piecewise(draw):
    """Breakpoints from a small pool, so that two functions often share
    some; zero to four pieces (adjacent ones may be equal) and a tail that
    may be missing, zero or equal to the last piece."""
    pool = [F(k, 6) for k in range(1, 19)]
    cuts = sorted(draw(st.sets(st.sampled_from(pool), max_size=4)))
    small = poly_strategy(2)
    pieces = [draw(small) for _ in cuts]
    tail = draw(st.one_of(st.none(), small, st.just(pieces[-1] if pieces else P_ZERO)))
    return PiecewisePoly.build([F(0), *cuts], pieces, tail)


@settings(max_examples=200, deadline=None)
@given(piecewise(), piecewise())
@example(tent(), tent())
@example(PiecewisePoly.zero(), tent())
@example(PiecewisePoly.monomial_tail(F(1), 1), PiecewisePoly.zero())
def test_merge_walk_combine_matches_sorted_union(f, g):
    for op, poly_op in ((pw_sub, lambda a, b: a - b), (pw_mul, lambda a, b: a * b)):
        assert op(f, g) == ref_combine(f, g, poly_op)
        assert op(g, f) == ref_combine(g, f, poly_op)


def test_pw_rescale_arg():
    # x -> s f(c x): halves the support, scales values
    f = tent()
    r = pw_rescale_arg(f, F(2), F(3))
    assert r.support_end == 1
    assert r(F(1, 4)) == 3 * f(F(1, 2))
    assert pw_integrate(r) == F(3, 2) * pw_integrate(f)


def test_pw_rescale_arg_rescales_the_tail_and_refuses_c_at_most_0():
    # F(x) = x past 0: 3 F(2 x) = 6 x, the tail included
    f = PiecewisePoly.monomial_tail(F(1), 1)
    r = pw_rescale_arg(f, 2, 3)
    assert r.tail == Polynomial.of(0, 6)
    for x in (F(0), F(1, 3), F(5)):
        assert r(x) == 3 * f(2 * x)
    for c in (0, -1, "-1/2"):
        with pytest.raises(DomainError, match="argument rescale factor must be positive"):
            pw_rescale_arg(tent(), c, 1)


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


def sturm_count(p: Polynomial, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of the nonzero p in (a, b], by the Sturm chain of
    the sign kernel."""
    chain = _sturm_chain(p.nums)
    return _variations(chain, a) - _variations(chain, b)


def test_sturm_root_counts():
    # (x-1)(x-2)(x-3)
    p = Polynomial.of(-6, 11, -6, 1)
    assert sturm_count(p, F(0), F(4)) == 3
    assert sturm_count(p, F(0), F(3, 2)) == 1
    assert sturm_count(p, F(5), F(9)) == 0
    # double root counts once
    sq = Polynomial.of(1, -2, 1)
    assert sturm_count(sq, F(0), F(2)) == 1
    # squarefree with endpoint roots: (a, b] counts b and not a
    p01 = Polynomial.of(0, -1, 1)
    assert sturm_count(p01, F(0), F(1)) == 1
    assert sturm_count(p01, F(-1), F(0)) == 1


def test_sup_distance_exact_on_linear_pieces():
    f, g = tent(), PiecewisePoly.zero()
    assert pw_sup_distance(f, g) == 1
    assert pw_sup_distance(f, f) == 0
    # shifted tent peak
    h = pw_rescale_arg(f, 1, F(1, 2))
    assert pw_sup_distance(f, h) == F(1, 2)


def test_sup_distance_reads_a_constant_tail_and_refuses_a_linear_one():
    # references 0 on [0, 2), then constant: the sup is the tent's peak 1
    # or the tail's value, whichever is larger
    for tail, want in ((3, 3), (F(1, 2), 1)):
        step = PiecewisePoly.build([F(0), F(2)], [Polynomial.of(0)], Polynomial.of(tail))
        assert pw_sup_distance(tent(), step) == pw_sup_distance(step, tent()) == want
    with pytest.raises(ValidationError, match=r"^sup distance is unbounded \(divergent tails\)$"):
        pw_sup_distance(PiecewisePoly.monomial_tail(F(1), 1), tent())


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


def test_sup_distance_exact_at_rational_max_beside_irrational_critical_point():
    # x^4/4 - x^2 on [0, 3]: critical point sqrt(2) is irrational, but |p|
    # peaks at the endpoint 3 with 45/4
    p = Polynomial.of(0, 0, -1, 0, F(1, 4))
    f = PiecewisePoly.build([F(0), F(3)], [p], None)
    assert pw_sup_distance(f, PiecewisePoly.zero()) == F(45, 4)
    # x^3 - 2x on [0, 1] peaks at the irrational sqrt(2/3) with |p|^2 =
    # 32/27, above both endpoint values: the bound covers it and exceeds it
    # by at most lip * (b - a) / 1024 with lip = 5 >= |3x^2 - 2|
    p = Polynomial.of(0, -2, 0, 1)
    f = PiecewisePoly.build([F(0), F(1)], [p], None)
    got = pw_sup_distance(f, PiecewisePoly.zero())
    assert F(32, 27) < got**2 and (got - F(5, 1024)) ** 2 <= F(32, 27)
    # on [0, 1633/1000] the endpoint value exceeds that peak by less than
    # the bound's slack, so only M - p >= 0 and M + p >= 0 make it exact
    b = F(1633, 1000)
    f = PiecewisePoly.build([F(0), b], [p], None)
    assert pw_sup_distance(f, PiecewisePoly.zero()) == p(b)


def test_sup_distance_exact_beyond_trial_division_range():
    # p' = (x - 7/3)(x^2 - 999983 * 1000003): the constant term of p' has
    # only prime factors near 10^6, and the critical point 7/3 is the only
    # one in [0, 5]
    n = 999983 * 1000003
    p = (Polynomial.of(F(-7, 3), 1) * Polynomial.of(-n, 0, 1)).antiderivative()
    f = PiecewisePoly.build([F(0), F(5)], [p], None)
    got = pw_sup_distance(f, PiecewisePoly.zero())
    assert got == abs(p(F(7, 3))) == F(2645962955862653, 972)


small_rats = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
positive_rats = st.builds(F, st.integers(1, 12), st.integers(1, 4))


@st.composite
def factored_polys(draw, max_roots=3, max_mult=3, max_squares=2):
    """(p, real roots) for p = c * prod (x - r)^m * prod (x^2 + s), s > 0."""
    c = draw(positive_rats) * draw(st.sampled_from([1, -1]))
    roots = draw(st.dictionaries(
        small_rats, st.integers(1, max_mult), max_size=max_roots
    ))
    p = Polynomial.of(c)
    for r, m in roots.items():
        for _ in range(m):
            p = p * Polynomial.of(-r, 1)
    for s in draw(st.lists(positive_rats, max_size=max_squares)):
        p = p * Polynomial.of(s, 0, 1)
    return p, list(roots)


def reference_nonnegative(p, roots, a, b):
    # p has one sign between consecutive points of {a, b, roots in (a, b)}
    pts = sorted({a, b, *(r for r in roots if a < r < b)})
    mids = [(u + v) / 2 for u, v in zip(pts, pts[1:])]
    return all(p(x) >= 0 for x in pts + mids)


@settings(max_examples=200, deadline=None)
@given(factored_polys(), small_rats, small_rats, st.data())
# the first of deg + 1 interior points is a double root
@example((Polynomial.of(F(1, 16), F(-1, 2), 1), [F(1, 4)]), F(0), F(1), None)
# negative between two roots, positive at both endpoints
@example((Polynomial.of(2, -3, 1), [F(1), F(2)]), F(0), F(3), None)
def test_poly_nonnegative_matches_factored_reference(pr, a, b, data):
    p, roots = pr
    if data is not None and roots:
        # endpoints at, or half a unit beside, the roots as well as random
        near = roots + [r + d for r in roots for d in (F(-1, 2), F(1, 2))]
        a = data.draw(st.sampled_from([a, *near]))
        b = data.draw(st.sampled_from([b, *near]))
    if a == b:
        b = a + 1
    a, b = min(a, b), max(a, b)
    assert poly_nonnegative(p, a, b) == reference_nonnegative(p, roots, a, b)


def composed_nonnegative(p, a, b):
    """The former path of ``poly_nonnegative`` for degree <= 1: the signs of
    the integer numerators q of t |-> p(a + (b - a) t) at t = 0 and t = 1."""
    q = _primitive(p.compose_linear(b - a, a).nums)
    return not (q and (q[0] < 0 or sum(q) < 0))


@st.composite
def linear_pieces(draw):
    """(p, a, b) with a < b and p of degree <= 1: zero, a constant, a random
    line, or a line with its root at a, at b or inside (a, b)."""
    ends = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    c = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    kind = draw(st.sampled_from(["zero", "constant", "line", "root_a", "root_b", "root_inside"]))
    if kind == "zero":
        return P_ZERO, a, b
    if kind == "constant":
        return Polynomial.of(c), a, b
    if kind == "line":
        return Polynomial.of(draw(ends), c), a, b
    t = F(draw(st.integers(1, 8)), 9)
    root = {"root_a": a, "root_b": b, "root_inside": a + (b - a) * t}[kind]
    return Polynomial.of(-c * root, c), a, b


@settings(max_examples=300, deadline=None)
@given(linear_pieces())
def test_linear_sign_test_matches_composed_path(case):
    p, a, b = case
    assert poly_nonnegative(p, a, b) == composed_nonnegative(p, a, b)


def sturm_nonnegative(p, a, b):
    """The former path of ``poly_nonnegative`` for degree >= 2, which still
    decides degree >= 3: on the integer numerators q of t |-> p(a + (b - a) t),
    the signs of q(0) and q(1), a Sturm chain of the odd part of q on [0, 1],
    then the sign at one of k / (deg + 2)."""
    q = _primitive(p.compose_linear(b - a, a).nums)
    if q[0] < 0 or sum(q) < 0:
        return False
    chain = _sturm_chain(_odd_part(q))
    if _variations(chain, 0) - _variations(chain, 1) - (sum(chain[0]) == 0) > 0:
        return False
    n = len(q) + 1
    return next(v for k in range(1, n) if (v := _horner(q, k, n))) > 0


@st.composite
def quadratic_pieces(draw):
    """(p, a, b) with a < b and p of degree 2: a random quadratic, a concave
    one, c2 (x - v)^2 + k with its vertex v at a or at b, a double root
    inside (a, b), two roots one of them inside, or no real root with the
    vertex inside."""
    ends = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    c2 = draw(st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    kind = draw(st.sampled_from(
        ["random", "concave", "vertex_a", "vertex_b", "double_root", "two_roots", "irreducible"]
    ))
    if kind == "random":
        return Polynomial.of(draw(ends), draw(ends), c2), a, b
    if kind == "concave":
        return Polynomial.of(draw(ends), draw(ends), -abs(c2)), a, b
    inside = a + (b - a) * F(draw(st.integers(1, 8)), 9)
    if kind == "two_roots":
        return Polynomial.of(-inside, 1) * Polynomial.of(-draw(ends), 1).scale(c2), a, b
    v = {"vertex_a": a, "vertex_b": b}.get(kind, inside)
    if kind == "double_root":
        k = F(0)
    elif kind == "irreducible":
        k = c2 * draw(st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    else:
        k = draw(st.one_of(st.just(F(0)), ends))
    return Polynomial.of(v * v, -2 * v, 1).scale(c2) + Polynomial.of(k), a, b


@settings(max_examples=300, deadline=None)
@given(quadratic_pieces())
# 2 (x - 1/2)^2 on [0, 1]: the vertex inside, at a double root
@example((Polynomial.of(F(1, 2), -2, 2), F(0), F(1)))
# (x - 1)^2 - 1/4 on [1, 3]: the vertex at a, where p < 0
@example((Polynomial.of(F(3, 4), -2, 1), F(1), F(3)))
# -(x - 1)^2 + 1 on [0, 2]: concave, 0 at both ends
@example((Polynomial.of(0, 2, -1), F(0), F(2)))
def test_quadratic_sign_test_matches_sturm_path(case):
    p, a, b = case
    assert p.degree == 2
    assert poly_nonnegative(p, a, b) == sturm_nonnegative(p, a, b)


@settings(max_examples=300, deadline=None)
@given(quadratic_pieces())
def test_quadratic_abs_sup_matches_deflation(case):
    p, a, b = case
    assert _poly_abs_sup(p, a, b) == deflation_abs_sup(p, a, b)[0]
    assert deflation_abs_sup(p, a, b)[1]  # a quadratic's vertex is rational


@settings(max_examples=150, deadline=None)
@given(factored_polys(max_squares=1), small_rats, small_rats, small_rats, st.data())
# the maximum is at a root with denominator 1000: it is found only once its
# interval is narrower than 1/(2 * 1000^2), far below (b - a)/1024
@example(
    (Polynomial.of(F(501, 1000), -1) * Polynomial.of(1, 0, 1), [F(501, 1000)]),
    F(0), F(1), F(0), None,
)
def test_abs_sup_of_split_derivative_is_max_at_its_roots(pr, a, b, c0, data):
    # p' = c * prod (x - r)^m * (x^2 + s): every critical point of p is some
    # r, so the sup of |p| over [a, b] is taken at a, b or an r in (a, b)
    dp, roots = pr
    if roots:
        ref = FractionPoly(dp.coeffs)
        assert ref_count_real_roots(ref, min(roots) - 1, max(roots) + 1) == len(roots)
    if data is not None and roots:
        near = roots + [r + d for r in roots for d in (F(-1, 3), F(1, 3))]
        a = data.draw(st.sampled_from([a, *near]))
        b = data.draw(st.sampled_from([b, *near]))
    if a == b:
        b = a + 1
    a, b = min(a, b), max(a, b)
    p = dp.antiderivative() + Polynomial.of(c0)
    expected = max(abs(p(x)) for x in [a, b, *(r for r in roots if a < r < b)])
    assert _poly_abs_sup(p, a, b) == expected


def trial_division_roots(p):
    """Distinct rational roots of p: u/v with u dividing the lowest and v the
    leading nonzero coefficient once p is scaled to integer coefficients."""
    coeffs = list(p.coeffs)
    roots = {F(0)} if coeffs[0] == 0 else set()
    while coeffs[0] == 0:
        coeffs.pop(0)
    scale = lcm(*(c.denominator for c in coeffs))

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small]

    for u in divisors(abs(int(coeffs[0] * scale))):
        for v in divisors(abs(int(coeffs[-1] * scale))):
            roots.update(r for r in (F(u, v), F(-u, v)) if p(r) == 0)
    return sorted(roots)


def deflation_abs_sup(p, a, b):
    """(sup |p| on [a, b], exact?) by the rule pw_sup_distance used before
    the shared sign test: rational critical points as candidates, exact iff
    the cofactor of p' left after deflating them has no root in (a, b)."""
    candidates = [a, b]
    if p.degree < 2:
        return max(abs(p(c)) for c in candidates), True
    dp = p.derivative()
    roots = trial_division_roots(dp)
    candidates.extend(r for r in roots if a < r < b)
    cofactor = dp
    if dp.degree >= 2:
        ref = FractionPoly(dp.coeffs)
        cofactor = Polynomial.of(*ref_divmod(ref, ref_gcd(ref, ref.derivative()))[0].coeffs)
    for r in roots:
        while cofactor(r) == 0:
            cofactor = Polynomial.of(
                *ref_divmod(FractionPoly(cofactor.coeffs), FractionPoly.of(-r, 1))[0].coeffs
            )
    exact = cofactor.degree <= 0 or ref_count_real_roots(FractionPoly(cofactor.coeffs), a, b) == 0
    return max(abs(p(c)) for c in candidates), exact


@settings(max_examples=100, deadline=None)
@given(
    st.lists(factored_polys(2, 2, 1), min_size=1, max_size=3),
    st.lists(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=4),
             min_size=3, max_size=3),
)
def test_sup_distance_keeps_deflation_exact_values(prs, widths):
    bps = [F(0)]
    for w in widths[: len(prs)]:
        bps.append(bps[-1] + w)
    pieces = [p for p, _ in prs]
    f = PiecewisePoly.build(bps, pieces, None)
    got = pw_sup_distance(f, PiecewisePoly.zero())
    old = [deflation_abs_sup(p, a, b) for a, b, p in zip(bps, bps[1:], pieces)]
    if all(exact for _, exact in old):
        assert got == max(v for v, _ in old)
    # exact or not, the result bounds |f| from above
    for a, b, p in zip(bps, bps[1:], pieces):
        assert all(abs(p(a + (b - a) * k / 16)) <= got for k in range(17))


def assert_canonical(p: Polynomial) -> None:
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


@settings(max_examples=200, deadline=None)
@given(poly_strategy(), poly_strategy(), rationals, rationals, rationals, rationals)
def test_integer_ops_match_fraction_reference(p, q, k, x, a, b):
    ref_p, ref_q = FractionPoly(p.coeffs), FractionPoly(q.coeffs)
    pairs = [
        (p + q, ref_p + ref_q),
        (p - q, ref_p - ref_q),
        (-p, -ref_p),
        (p * q, ref_p * ref_q),
        (p * p * q, ref_p * ref_p * ref_q),
        (p.scale(k), ref_p.scale(k)),
        (p.derivative(), ref_p.derivative()),
        (p.antiderivative(), ref_p.antiderivative()),
        (p.compose_linear(a, b), ref_p.compose_linear(a, b)),
    ]
    for got, want in pairs:
        assert_canonical(got)
        assert got.coeffs == want.coeffs
        assert _json_text(got) == _json_text(want.coeffs)
        assert got == Polynomial.of(*want.coeffs)
    assert p(x) == ref_p(x) and type(p(x)) is Fraction
    assert Polynomial.of(*ref_p.coeffs) == p


def nonzero_polys():
    # sparse integer polynomials give remainder sequences that skip degrees
    sparse = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3]), min_size=3, max_size=7)
    return st.one_of(
        factored_polys().map(lambda pr: pr[0]),
        poly_strategy(5),
        sparse.map(lambda cs: Polynomial.of(*cs)),
    ).filter(lambda p: not p.is_zero())


def interval(a, b):
    a, b = min(a, b), max(a, b)
    return (a, b) if a != b else (a, a + 1)


@settings(max_examples=200, deadline=None)
@given(nonzero_polys(), small_rats, small_rats)
# endpoints at roots of odd and of even multiplicity
@example(Polynomial.of(-1, 3, -3, 1) * Polynomial.of(4, -4, 1), F(1), F(2))
# remainders whose degree drops by 2 under a negative leading coefficient:
# only |lc|^(delta + 1) keeps their signs
@example(Polynomial.of(0, 2, 0, 0, 0, 0, 2), F(-2), F(2))
@example(Polynomial.of(1, -2, -2, 0, 0, -1), F(-3), F(0))
def test_sign_kernel_matches_fraction_reference(p, a, b):
    a, b = interval(a, b)
    ref = FractionPoly(p.coeffs)
    assert sturm_count(p, a, b) == ref_count_real_roots(ref, a, b)
    assert poly_nonnegative(p, a, b) == ref_nonnegative(ref, a, b)
    if p.degree >= 1:
        # the same odd part up to a positive factor
        odd, want = FractionPoly.of(*_odd_part(list(p.nums))), ref_odd_part(ref)
        assert odd.coeffs[-1] > 0
        assert odd.scale(1 / odd.coeffs[-1]) == want.scale(1 / want.coeffs[-1])
