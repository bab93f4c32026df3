from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hkdensity.errors import DomainError, InputError, ValidationError
from hkdensity.lattice import SemigroupEnumeration, SemigroupSpec
from hkdensity.rings import (
    CompleteIntersectionRing,
    VeroneseRing,
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


def test_veronese_view_refused_when_its_occupied_degrees_have_a_larger_gcd():
    # the base has n0 = 1, but its series (1 - t^10) / ((1 - t^5)(1 - t^6)^2)
    # is zero at every odd multiple of 3, so the view's occupied degrees have
    # gcd 2, where the n0 it takes from its base is 1
    view = VeroneseRing(CompleteIntersectionRing.build((5, 6, 6), (10,)), 3)
    assert view.n0 == 1
    # the window is the base's 72 // 3 + 2 = 26, past max(e) = 6
    with pytest.raises(ValidationError, match=r"^occupied degrees up to 26 have gcd 2, expected 1$"):
        hilbert_function(view)


def test_veronese_gcd_window_reaches_the_largest_generator_degree():
    # view degree m of (19, 19) by 300 reads base degree 300 m, occupied iff
    # 19 | m.  A view of a polynomial ring inherits its exact n0
    view = VeroneseRing(CompleteIntersectionRing.build((19, 19)), 300)
    assert view.gcd_window() is None
    assert hilbert_function(view).n0 == 19 and leading_coefficient(view) == 300
    # with a relation in degree 38 the base's window is 2 * 38^2 = 2888, and
    # 2888 // 300 + 2 = 11 holds no occupied view degree; max(e) = 38 holds 19
    view = VeroneseRing(CompleteIntersectionRing.build((19, 19, 38), (38,)), 300)
    assert view.gcd_window() == 38
    assert hilbert_function(view).n0 == 19 and leading_coefficient(view) == 300


def test_screening_a_polynomial_ring_computes_no_hilbert_values(monkeypatch):
    # n0 of a polynomial ring, and of a view of one, is exact: no window of
    # degrees is read, however large the generator degrees
    calls = []
    hilbert = CompleteIntersectionRing.hilbert

    def counting(self, upto):
        calls.append(upto)
        return hilbert(self, upto)

    monkeypatch.setattr(CompleteIntersectionRing, "hilbert", counting)
    ring = CompleteIntersectionRing.build((1, 2001))
    assert ring.gcd_window() is None
    assert hilbert_function(ring).n0 == 1 and leading_coefficient(ring) == F(1, 2001)
    view = VeroneseRing(ring, 3)
    assert hilbert_function(view).n0 == 1 and leading_coefficient(view) == F(3, 2001)
    assert calls == []


def test_a2_invariant_hilbert_matches_monomial_count():
    # k[xy, x^2, y^2]: dimension of degree-m piece = #{(a,b): a+b=m, a=b mod 2}
    h = hilbert_function(a_inv(2))
    for m in range(0, 20):
        by_a = sum(1 for a in range(m + 1) if (m - 2 * a) % 2 == 0 and a <= m)
        by_pairs = sum(1 for a in range(m + 1) if (a - (m - a)) % 2 == 0)
        assert h(m) == by_a == by_pairs
    assert h.n0 == 2
    assert h.dim == 2


def test_a3_invariant_hilbert_matches_semigroup_count():
    ci = hilbert_function(a_inv(3))
    sg = hilbert_function(SemigroupSpec.build(2, [(1, 1), (3, 0), (0, 3)], (1, 1), 5))
    for m in range(0, 25):
        assert ci(m) == sg(m), m
    assert ci.n0 == sg.n0 == 1


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
    # the cone volume of the toric model must agree with the
    # complete-intersection closed form
    for n in (2, 3, 5):
        sg = SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), 5)
        assert leading_coefficient(sg) == leading_coefficient(a_inv(n)), n


def finite_difference_ehat(spec: SemigroupSpec) -> Fraction:
    """ehat read off the enumerated Hilbert function, as a reference for the
    cone volume.  The window sums W(M) over the n0 degrees of window M are
    eventually a quasi-polynomial whose period divides step and whose
    leading coefficient is ehat, so the (d-1)-th finite difference with that
    step, taken at period-aligned points, is exact there.  Two base points
    must agree before a value is returned."""
    d, n0 = spec.dim, spec.n0
    period = lcm(*(spec.degree(g) for g in spec.generators))
    step = period // gcd(period, n0)
    base = step * max(2, -(-32 // step))
    for _ in range(2):
        top = base + d * step
        enum = SemigroupEnumeration(spec, top * n0 + n0 - 1)

        def alpha_at(start: int) -> Fraction:
            vals = [
                sum(enum.points((start + k * step) * n0 + j) for j in range(n0))
                for k in range(d)
            ]
            diff = sum((-1) ** (d - 1 - k) * comb(d - 1, k) * v for k, v in enumerate(vals))
            return Fraction(diff, factorial(d - 1) * step ** (d - 1))

        a1, a2 = alpha_at(base), alpha_at(base + step)
        if a1 == a2 and a1 > 0:
            return a1
        base *= 4
    raise AssertionError(f"finite-difference slopes {a1} vs {a2} near window {base}")


def quotient(n: int, p: int) -> SemigroupSpec:
    """The invariants of (1/n)(1,1,1): all monomials of degree n in 3 variables."""
    gens = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
    return SemigroupSpec.build(3, gens, (1, 1, 1), p)


SEGRE_GENS = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize(
    "spec,want",
    [
        *[(SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), 5), F(2) if n == 2 else F(1, n))
          for n in (2, 3, 5, 7)],
        *[(SemigroupSpec.build(2, [(i, n - i) for i in range(n + 1)], (1, 1), 5), F(n))
          for n in (3, 5, 7)],
        (SemigroupSpec.build(3, SEGRE_GENS, (1, 0, 0), 2), F(1)),
        (quotient(3, 2), F(9, 2)),
        (quotient(2, 3), F(2)),
        # not normal
        (SemigroupSpec.build(3, [(1, 0, 0), (0, 1, 0), (1, 1, 3), (2, 0, 1)], (1, 2, 1), 2), F(11, 72)),
        # rank 2 inside N^3
        (SemigroupSpec.build(3, [(1, 1, 0), (0, 1, 1)], (1, 1, 1), 2), F(1)),
        (SemigroupSpec.build(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (1, 1, 1, 1), 2), F(1, 6)),
    ],
)
def test_leading_coefficient_semigroup_pinned(spec, want):
    assert leading_coefficient(spec) == want


def test_leading_coefficient_semigroup_veronese():
    a3 = SemigroupSpec.build(2, [(1, 1), (3, 0), (0, 3)], (1, 1), 5)
    assert leading_coefficient(VeroneseRing(a3, 2)) == F(2, 3)
    assert leading_coefficient(VeroneseRing(a3, 2)) == leading_coefficient(VeroneseRing(a_inv(3), 2))
    # no degree below 70 is occupied, so a gcd check over a window of the
    # first 66 degrees would reject this ring
    wide = SemigroupSpec.build(2, [(1, 0), (0, 1)], (70, 71), 2)
    assert leading_coefficient(VeroneseRing(wide, 1)) == F(1, 4970)


@pytest.fixture
def enumerations(monkeypatch) -> list:
    """The arguments of every SemigroupEnumeration built during the test.

    The rings below use characteristics no other test uses, so no cached
    Hilbert function already holds their counts."""
    built = []
    init = SemigroupEnumeration.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SemigroupEnumeration, "__init__", counting_init)
    return built


def test_leading_coefficient_semigroup_enumerates_nothing(enumerations):
    assert leading_coefficient(SemigroupSpec.build(3, SEGRE_GENS, (1, 0, 0), 13)) == 1
    assert enumerations == []


def test_leading_coefficient_semigroup_veronese_enumerates_nothing(enumerations):
    # n0 of a Veronese view of a semigroup ring is exact, so no window of
    # the base is enumerated to check it
    a3 = SemigroupSpec.build(2, [(1, 1), (3, 0), (0, 3)], (1, 1), 17)
    assert leading_coefficient(VeroneseRing(a3, 2)) == F(2, 3)
    assert enumerations == []


@st.composite
def small_semigroups(draw):
    """Rank-2 and rank-3 semigroups, normal or not, with zero weights
    allowed, and rank-2 semigroups embedded in N^3.  Generator degrees have
    a small lcm, which keeps the reference enumeration small."""
    kind = draw(st.sampled_from(["rank2", "rank3", "embedded"]))
    size = 3 if kind == "rank3" else 2
    top, max_weight, max_lcm = (3, 2, 12) if kind == "rank2" else (2, 1, 6)
    vector = st.tuples(*[st.integers(0, top)] * size).filter(any)
    gens = draw(st.lists(vector, min_size=size, max_size=size + 2, unique=True))
    if kind == "embedded":
        u, v = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        gens = [(a, b, u * a + v * b) for a, b in gens]
    rank = len(gens[0])
    weights = draw(st.lists(st.integers(0, max_weight), min_size=rank, max_size=rank))
    degrees = [sum(w * c for w, c in zip(weights, g)) for g in gens]
    assume(min(degrees) >= 1 and lcm(*degrees) <= max_lcm)
    return SemigroupSpec.build(rank, gens, weights, 2)


@settings(max_examples=60, deadline=None)
@given(small_semigroups())
@example(SemigroupSpec.build(2, [(2, 0), (3, 0)], (1, 1), 2))  # d = 1, a gap at degree 1
@example(SemigroupSpec.build(2, [(1, 1), (0, 2), (1, 2)], (0, 1), 2))  # a zero weight
def test_ehat_matches_finite_differences(spec):
    assert spec.ehat() == finite_difference_ehat(spec)


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


def test_parse_ring_json_reads_a_semigroup_ring_as_its_spec():
    body = {"rank": 2, "gens": [[1, 1], [2, 0], [0, 2]], "weights": [1, 1], "p": 5}
    for data in ({"type": "semigroup", "semigroup": body},
                 {"ring": {"type": "semigroup", "semigroup": body}}):
        ring = parse_ring_json(data)
        assert type(ring) is SemigroupSpec and ring == SemigroupSpec.from_json(body)
    assert leading_coefficient(ring) == 2


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_koszul_numerator_consistency(a, b):
    # complete intersection k[x,y]/(f) with deg f = a + b has the Hilbert
    # function of a polynomial ring minus its shift
    ring = CompleteIntersectionRing.build((a, b), (a + b,))
    free = CompleteIntersectionRing.build((a, b), ())
    h, hf = hilbert_function(ring), hilbert_function(free)
    for m in range(12):
        assert h(m) == hf(m) - hf(m - a - b)


# ---------------------------------------------------------------- reference
# The ring oracle as it was written before each ring kind answered for
# itself: extender closures handed to a callback memo, and isinstance
# ladders for the Hilbert function, the gcd window and the leading
# coefficient.  The property below holds the ring kinds to it.


class RefHilbertFunction:
    def __init__(self, extend, d: int, n0: int):
        self._extend = extend
        self._values: list[int] = []
        self.dim = d
        self.n0 = n0

    def __call__(self, m: int) -> int:
        if m < 0:
            return 0
        if m >= len(self._values):
            self._extend(self._values, max(m, 2 * len(self._values) + 16))
        return self._values[m]


def ref_ci_extender(spec: CompleteIntersectionRing):
    def extend(values: list[int], upto: int) -> None:
        coeffs = [0] * (upto + 1)
        coeffs[0] = 1
        for c in spec.rel_degrees:
            for m in range(upto, c - 1, -1):
                coeffs[m] -= coeffs[m - c]
        for e in spec.gen_degrees:
            for m in range(e, upto + 1):
                coeffs[m] += coeffs[m - e]
        for m, v in enumerate(coeffs):
            if v < 0:
                raise ValidationError(
                    f"Hilbert series coefficient {v} < 0 at degree {m}: "
                    "relation degrees do not describe a regular sequence"
                )
        values[:] = coeffs

    return extend


def ref_semigroup_extender(spec: SemigroupSpec):
    def extend(values: list[int], upto: int) -> None:
        enum = SemigroupEnumeration(spec, upto)
        values[:] = [enum.points(m) for m in range(upto + 1)]

    return extend


@lru_cache(maxsize=None)
def ref_hilbert_function(spec) -> RefHilbertFunction:
    if isinstance(spec, CompleteIntersectionRing):
        if spec.dim < 1:
            raise ValidationError("dimension must be >= 1")
        n0 = gcd(*spec.gen_degrees)
        h = RefHilbertFunction(ref_ci_extender(spec), spec.dim, n0)
        ref_verify_gcd(h, n0, ref_gcd_window(spec))
        return h
    if isinstance(spec, SemigroupSpec):
        return RefHilbertFunction(ref_semigroup_extender(spec), spec.dim, spec.n0)
    if isinstance(spec, VeroneseRing):
        base = ref_hilbert_function(spec.base)
        n0 = base.n0 // gcd(base.n0, spec.factor)

        def extend(values: list[int], upto: int) -> None:
            values[:] = [base(m * spec.factor) for m in range(upto + 1)]

        h = RefHilbertFunction(extend, base.dim, n0)
        bottom = spec.base
        while isinstance(bottom, VeroneseRing):
            bottom = bottom.base
        if not isinstance(bottom, SemigroupSpec):
            ref_verify_gcd(h, n0, ref_gcd_window(spec))
        return h
    raise InputError(f"unknown ring spec {type(spec).__name__}")


def ref_gcd_window(spec) -> int:
    if isinstance(spec, VeroneseRing):
        bottom = spec.base
        while isinstance(bottom, VeroneseRing):
            bottom = bottom.base
        return max(ref_gcd_window(spec.base) // spec.factor + 2, max(bottom.gen_degrees))
    mx = max(spec.gen_degrees)
    return max(2 * mx * mx, 2 * (sum(spec.gen_degrees) + sum(spec.rel_degrees)), 64)


def ref_verify_gcd(h: RefHilbertFunction, n0: int, window: int) -> None:
    got = 0
    for m in range(1, window + 1):
        if h(m):
            got = gcd(got, m)
    if got != n0:
        raise ValidationError(
            f"occupied degrees up to {window} have gcd {got}, expected {n0}"
        )


def ref_degreewise_leading(spec) -> Fraction:
    if isinstance(spec, CompleteIntersectionRing):
        n0 = gcd(*spec.gen_degrees)
        num = prod(spec.rel_degrees) if spec.rel_degrees else 1
        return Fraction(n0 * num, factorial(spec.dim - 1) * prod(spec.gen_degrees))
    if isinstance(spec, SemigroupSpec):
        return spec.ehat() / spec.n0 ** (spec.dim - 1)
    return ref_degreewise_leading(spec.base) * spec.factor ** (spec.dim - 1)


def ref_leading_coefficient(spec) -> Fraction:
    h = ref_hilbert_function(spec)
    if h.dim < 2:
        raise DomainError("density envelope needs dimension >= 2")
    return ref_degreewise_leading(spec) * h.n0 ** (h.dim - 1)


@st.composite
def ci_rings(draw):
    gens = draw(st.lists(st.integers(1, 15), min_size=1, max_size=5))
    rels = draw(st.lists(st.integers(1, 40), max_size=min(4, len(gens) - 1)))
    return CompleteIntersectionRing.build(gens, rels)


@st.composite
def ring_views(draw):
    """A CI or semigroup ring, or a Veronese view of one, nested at most
    once; the factors of a nested view multiply to at most 300."""
    ring = draw(st.one_of(ci_rings(), small_semigroups()))
    budget = 300
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(st.integers(1, budget))
        ring, budget = VeroneseRing(ring, factor), budget // factor
    return ring


def _outcome(compute):
    try:
        return "ok", compute()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _observe(ring, hilbert, leading, top: int) -> list:
    return [
        _outcome(lambda: hilbert(ring).dim),
        _outcome(lambda: hilbert(ring).n0),
        _outcome(lambda: leading(ring)),
        _outcome(lambda: [hilbert(ring)(m) for m in range(top + 1)]),
    ]


@settings(max_examples=150, deadline=None)
@given(ring_views())
@example(VeroneseRing(CompleteIntersectionRing.build((19, 19)), 300))  # n0 = 19, ehat = 300
@example(VeroneseRing(VeroneseRing(a_inv(2), 2), 3))
@example(CompleteIntersectionRing.build((2, 2), (3,)))  # not a regular sequence
@example(CompleteIntersectionRing.build((1,), ()))  # dimension 1
def test_ring_kinds_match_reference(ring):
    # dim, n0, ehat, h(m) for m <= 60 and every refusal equal the reference.
    # Over a semigroup ring the values are compared only while the first
    # extension (16 values) stays below base degree 64, which keeps the
    # enumeration small
    bottom, factor = ring, 1
    while isinstance(bottom, VeroneseRing):
        bottom, factor = bottom.base, factor * bottom.factor
    top = 60
    if isinstance(bottom, SemigroupSpec):
        top = 60 // factor if factor <= 4 else -1
    got = _observe(ring, hilbert_function, leading_coefficient, top)
    assert got == _observe(ring, ref_hilbert_function, ref_leading_coefficient, top)
