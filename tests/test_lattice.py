from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction
from math import comb, gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkdensity.errors import CapacityError, DomainError, ValidationError
from hkdensity.exact import PiecewisePoly, Polynomial, pw_integrate, pw_sup_distance
from test_rings import small_semigroups

from hkdensity.lattice import (
    _MAX_POINTS_ENV,
    DEFAULT_MAX_POINTS,
    DensityApproximant,
    LatticePair,
    MonomialIdealSpec,
    SemigroupEnumeration,
    SemigroupSpec,
    _MR_BOUND,
    _degree_ceiling,
    _eliminate,
    _is_prime,
    enumeration_cap,
)

F = Fraction


def plane(p=2) -> SemigroupSpec:
    return SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 1), p)


def a_spec(n: int, p: int) -> SemigroupSpec:
    return SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), p)


# {(a, b, c) : a + b <= c}, graded by c alone
CONE = SemigroupSpec.build(3, [(1, 0, 1), (0, 1, 1), (0, 0, 1)], (0, 0, 1), 2)


def koszul_pair(p=2) -> LatticePair:
    return LatticePair(plane(p), MonomialIdealSpec.build([(1, 0), (0, 1)]))


def _trial_division(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _strong_probable_prime(n: int, base: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10, 10**5))
@example(43 * 43)  # the first n past the bases' trial division
@example(41)
def test_is_prime_matches_trial_division(n):
    assert _is_prime(n) == _trial_division(n)


def test_is_prime_decides_large_characteristics():
    assert _is_prime(2**61 - 1)
    # composites that pass the strong test to the first 4, 11 and 12 prime bases
    for n, passed in [
        (3215031751, 4),
        (3825123056546413051, 11),
        (318665857834031151167461, 12),
    ]:
        bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37][:passed]
        assert all(_strong_probable_prime(n, b) for b in bases)
        assert not _is_prime(n)
    with pytest.raises(ValidationError, match=str(_MR_BOUND)):
        _is_prime(_MR_BOUND + 2)
    with pytest.raises(ValidationError, match=str(_MR_BOUND)):
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 1), _MR_BOUND)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SemigroupSpec.build(2, [(1, 0, 0)], (1, 1), 2)  # wrong arity
    with pytest.raises(ValidationError):
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 1), 4)  # p not prime
    with pytest.raises(ValidationError):
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (0, 0), 2)  # all weights zero
    with pytest.raises(ValidationError):
        # (0,1) is invisible to the grading: its degree bucket is infinite
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 0), 2)
    with pytest.raises(ValidationError):
        MonomialIdealSpec.build([])


def test_zero_weight_coordinate_allowed():
    # Segre-type grading by the first coordinate only
    gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    s = SemigroupSpec.build(3, gens, (1, 0, 0), 2)
    assert s.n0 == 1 and s.dim == 3
    assert all(s.degree(g) == 1 for g in gens)


def test_spec_n0_and_dim():
    assert plane().n0 == 1 and plane().dim == 2
    s = a_spec(2, 5)
    assert s.n0 == 2 and s.dim == 2
    assert a_spec(3, 5).n0 == 1


def test_enumeration_counts_plane():
    enum = SemigroupEnumeration(plane(), 6)
    for m in range(7):
        assert enum.points(m) == m + 1


def test_enumeration_counts_a2():
    enum = SemigroupEnumeration(a_spec(2, 5), 8)
    # degree-m monomials of k[xy, x^2, y^2]: pairs with a + b = m, a = b mod 2
    for m in range(9):
        want = sum(1 for a in range(m + 1) if (2 * a - m) % 2 == 0)
        assert enum.points(m) == want


def test_enumeration_refuses_a_negative_degree():
    with pytest.raises(DomainError, match="max_degree must be >= 0"):
        SemigroupEnumeration(plane(), -1)


def test_outside_encodes_translates_again_after_a_rebuild():
    # k[x, y, z] has two slice coordinates, so extending past the degrees
    # the radices were sized for rebuilds the buckets under new radices;
    # the points of degree m outside (x^2, y^2, z^2) are the squarefree
    # monomials of degree m
    spec = SemigroupSpec.build(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 1), 2)
    want = [1, 3, 3, 1] + [0] * 37
    enum = SemigroupEnumeration(spec, 2)
    radices = enum.radices
    assert [enum.outside(m, spec.generators, 2) for m in range(3)] == want[:3]
    enum.extend(40)
    assert enum.radices != radices
    assert [enum.outside(m, spec.generators, 2) for m in range(41)] == want


def test_contains_rejects_coordinates_beyond_radix():
    # the weights vanish on the first two coordinates, the slice coordinates
    # of CONE, and the code is v_0 + radices[0] * v_1, so (r, 0, 1) with r
    # the first radix has the degree and the code of the semigroup point
    # (0, 1, 1)
    enum = SemigroupEnumeration(CONE, 2)
    r = enum.radices[0]
    assert enum.coords == (0, 1)
    assert enum.contains((0, 1, 1))
    assert enum.encode((r, 0, 1)) == enum.encode((0, 1, 1))
    assert not enum.contains((r, 0, 1))


def test_ideal_generators_must_lie_in_semigroup():
    with pytest.raises(ValidationError):
        LatticePair(a_spec(2, 5), MonomialIdealSpec.build([(1, 0)]))


def test_koszul_colengths_q2():
    pair = koszul_pair()
    cols = [pair.colength_by_degree(2, m) for m in range(5)]
    assert cols == [1, 2, 1, 0, 0]


def test_invariant_a2_colengths_q2():
    pair = LatticePair(a_spec(2, 2), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]))
    cols = [pair.colength_by_degree(2, m) for m in range(6)]
    assert cols == [1, 0, 3, 0, 2, 0]
    assert sum(cols) == 6  # 2 q^2 - q at q=2


def test_invariant_a3_colengths_q2():
    pair = LatticePair(a_spec(3, 2), MonomialIdealSpec.build([(1, 1), (3, 0), (0, 3)]))
    cols = [pair.colength_by_degree(2, m) for m in range(9)]
    assert cols == [1, 0, 1, 2, 0, 2, 0, 0, 0]


def test_colength_by_degree_checks_q_before_reading_m():
    pair = koszul_pair()  # p = 2
    with pytest.raises(ValidationError, match=r"^q = 6 is not a power of the configured characteristic p = 2$"):
        pair.colength_by_degree(6, -1)
    with pytest.raises(ValidationError, match=r"^q must be a positive power of p, got 0$"):
        pair.colength_by_degree(0, -1)
    assert pair.colength_by_degree(2, -1) == 0


def test_colengths_up_to_matches_per_degree():
    pair = LatticePair(a_spec(3, 5), MonomialIdealSpec.build([(1, 1), (3, 0), (0, 3)]))
    assert pair.colengths_up_to(5, 30) == [pair.colength_by_degree(5, m) for m in range(31)]


def test_support_bound_vanishing():
    pair = koszul_pair()
    bound = pair.support_bound()
    for q in (2, 4, 8):
        m = int(bound * q) + 3
        assert pair.colength_by_degree(q, m) == 0


def test_build_approximant_koszul_level1():
    approx = koszul_pair().build_approximant(1)
    assert approx.q == 2
    f = approx.f_step
    assert f(F(0)) == F(1, 2)
    assert f(F(1, 2)) == 1
    assert f(F(1)) == F(1, 2)
    assert f(F(3, 2)) == 0
    assert approx.integral == 1  # exact at every level for the Koszul pair
    assert approx.g_interp.is_continuous()


def test_invariant_a2_level1_step():
    # q = 2 window sums over n0 = 2 slots, scaled by 1/q
    pair = LatticePair(a_spec(2, 2), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]))
    f = pair.build_approximant(1).f_step
    assert f(F(0)) == F(1, 2)
    assert f(F(1, 2)) == F(3, 2)
    assert f(F(1)) == 1
    assert f(F(3, 2)) == 0
    assert pw_integrate(f) == F(3, 2)


def test_convergence_report_self_reference_zero():
    pair = LatticePair(a_spec(2, 5), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]))
    g2 = pair.build_approximant(2).g_interp
    rows = pair.convergence_report([2], reference=g2)
    assert rows[0].sup_distance == 0


def test_convergence_report_defaults_to_next_level():
    pair = koszul_pair()
    rows = pair.convergence_report([1, 2])
    assert [r.level for r in rows] == [1, 2]
    assert rows[0].sup_distance > rows[1].sup_distance > 0


def test_capacity_cap_and_feasibility():
    # cap sized to admit levels 1-2 of A_2 at p=5 but not level 3+
    pair = LatticePair(
        a_spec(2, 5), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]), cap=10_000
    )
    pair.build_approximant(1)
    with pytest.raises(CapacityError):
        pair.build_approximant(4)


def test_capacity_boundary_per_degree():
    # plane() holds (D + 1)(D + 2) / 2 = 28 points up to degree D = 6
    assert SemigroupEnumeration(plane(), 6, cap=28).count == 28
    with pytest.raises(CapacityError, match=r"cap of 27 points \(degree bound 6\)"):
        SemigroupEnumeration(plane(), 6, cap=27)
    # a refused degree is not kept: the enumeration stays as it was
    enum = SemigroupEnumeration(plane(), 5, cap=27)
    with pytest.raises(CapacityError, match=r"degree bound 9"):
        enum.extend(9)
    assert enum.max_degree == 5 and enum.count == 21
    assert [enum.points(m) for m in range(6)] == [m + 1 for m in range(6)]


def test_capacity_fails_before_enumerating_to_the_ceiling():
    # plane() holds more than 10^6 points up to its degree ceiling, so that
    # extension is refused before any bucket is built
    cap = 10**6
    enum = SemigroupEnumeration(plane(), 0, cap=cap)
    ceiling = _degree_ceiling(plane(), cap)
    message = rf"cap of {cap} points \(degree bound {ceiling}\)"
    with pytest.raises(CapacityError, match=message):
        enum.extend(ceiling)
    assert enum.max_degree == 0 and enum.count == 1


def test_capacity_error_names_the_ceiling():
    # C(10001, 2) = 50,005,000 is the first C(k + 2, 2) past the default cap
    assert _degree_ceiling(plane(), DEFAULT_MAX_POINTS) == 9999
    enum = SemigroupEnumeration(plane(), 0, cap=DEFAULT_MAX_POINTS)
    with pytest.raises(CapacityError, match=r"every degree bound from 9999 up exceeds"):
        enum.extend(2**31)
    assert enum.count == 1


def test_a_degree_bound_of_over_1000_digits_is_refused_unprinted(monkeypatch):
    # on k[x,y] with (x, y) at p = 2 the degree bound is 2^(level + 1), of
    # 1000 digits at level 3320 and of 1001 at level 3321
    with pytest.raises(CapacityError, match=rf"\(degree bound {2**3321}\);"):
        koszul_pair().build_approximant(3320)
    with pytest.raises(CapacityError, match=r"\(level 3321, a degree bound of over 1000 digits\);"):
        koszul_pair().build_approximant(3321)

    def unreached(self, q):
        raise AssertionError("q was checked")

    # refused before q is divided down to 1, and with the ceiling named
    monkeypatch.setattr(LatticePair, "_check_q", unreached)
    for p in (2, 3):
        pair = LatticePair(plane(p), MonomialIdealSpec.build([(1, 0), (0, 1)]), cap=DEFAULT_MAX_POINTS)
        with pytest.raises(CapacityError) as err:
            pair.build_approximant(20_000)
        assert str(err.value) == (
            f"semigroup enumeration exceeded cap of {DEFAULT_MAX_POINTS} points (level 20000, a degree "
            "bound of over 1000 digits); raise HKDL_MAX_POINTS or lower the level; every degree "
            "bound from 9999 up exceeds this cap"
        )


def test_a_huge_level_is_refused_before_q_is_built(monkeypatch):
    # the degree bound is at least q >= 2^(level * (bit_length(p) - 1)):
    # once that reaches 10^1000 the level is refused before support_bound
    def unreached(self):
        raise AssertionError("support_bound was called")

    monkeypatch.setattr(LatticePair, "support_bound", unreached)
    for p, level in ((2, 3322), (3, 3322), (1000003, 175), (1000003, 10**7)):
        with pytest.raises(CapacityError, match=rf"\(level {level}, a degree bound of over 1000 digits\);"):
            koszul_pair(p).build_approximant(level)
    # 2^3321 < 10^1000 and 2^(19 * 174) < 10^1000: these still build q
    for p, level in ((2, 3321), (1000003, 174)):
        with pytest.raises(AssertionError, match="support_bound"):
            koszul_pair(p).build_approximant(level)


def test_extend_refuses_a_bound_of_over_1000_digits_unprinted():
    enum = SemigroupEnumeration(plane(), 0)
    for bound in (10**1000, 10**5000):
        with pytest.raises(CapacityError, match=r"\(a degree bound of over 1000 digits\);"):
            enum.extend(bound)
    # a bound of 1000 digits is printed, as are all smaller ones
    with pytest.raises(CapacityError, match=rf"\(degree bound {10**1000 - 1}\);"):
        enum.extend(10**1000 - 1)
    assert enum.max_degree == 0


def loop_degree_ceiling(spec: SemigroupSpec, cap: int) -> int:
    """The hand-written binary search that ``_degree_ceiling`` replaced."""
    d = spec.dim
    lo, hi = 0, cap  # C(cap + d, d) > cap for every d >= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid + d, d) > cap:
            hi = mid
        else:
            lo = mid + 1
    return lo * spec.m_mu


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 10**9))
@example(1, 1, 1)
@example(2, 1, DEFAULT_MAX_POINTS)
@example(8, 3, 10**9)
def test_degree_ceiling_matches_the_loop_it_replaced(d, top, cap):
    # the polynomial ring in d variables, the last of weight top
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    spec = SemigroupSpec.build(d, units, (1,) * (d - 1) + (top,), 2)
    assert spec.dim == d and spec.m_mu == top
    assert _degree_ceiling(spec, cap) == loop_degree_ceiling(spec, cap)


def test_capacity_error_midway_names_the_requested_bound():
    # k[xy, x^2, y^2] holds m + 1 points in each even degree m: 100 up to
    # degree 18, 121 up to degree 20, below the ceiling 26 of cap 100.
    # At q = 16 every degree below 32 has positive colength, so the count
    # runs into the cap at degree 20 and reports the bound asked for.
    pair = LatticePair(
        a_spec(2, 2), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]), cap=100
    )
    assert _degree_ceiling(pair.spec, 100) == 26
    message = r"cap of 100 points \(degree bound 24\).* from 26 up"
    with pytest.raises(CapacityError, match=message):
        pair.colengths_up_to(16, 24)
    assert pair._enum.max_degree == 19 and pair._enum.count == 100


def test_convergence_report_enumerates_once(monkeypatch):
    built = []
    original = SemigroupEnumeration.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SemigroupEnumeration, "__init__", counting)
    pair = LatticePair(a_spec(3, 2), MonomialIdealSpec.build([(1, 1), (3, 0), (0, 3)]))
    pair.convergence_report([1, 2, 3])
    assert len(built) == 1


# -- properties against tuple enumeration and per-point survivor probes ------


def reference_points(
    spec: SemigroupSpec, max_degree: int, top: tuple[int, ...] | None = None
) -> set[tuple[int, ...]]:
    """Every semigroup point of degree <= max_degree, and <= top in every
    coordinate when top is given, as tuples, by closure."""
    points = {(0,) * spec.rank}
    frontier = list(points)
    while frontier:
        grown = []
        for v in frontier:
            for g in spec.generators:
                w = tuple(a + b for a, b in zip(v, g))
                if top is not None and any(c > m for c, m in zip(w, top)):
                    continue
                if spec.degree(w) <= max_degree and w not in points:
                    points.add(w)
                    grown.append(w)
        frontier = grown
    return points


def reference_colengths(spec, ideal, q: int, max_m: int) -> list[int]:
    """Per-point survivor test: v survives when no v - q a is a semigroup point."""
    points = reference_points(spec, max_m)

    def survives(v):
        for a in ideal.generators:
            w = tuple(c - q * d for c, d in zip(v, a))
            if all(c >= 0 for c in w) and w in points:
                return False
        return True

    counts = [0] * (max_m + 1)
    for v in points:
        if survives(v):
            counts[spec.degree(v)] += 1
    return counts


SEGRE = SemigroupSpec.build(3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)], (1, 0, 0), 2)


@st.composite
def semigroups(draw):
    rank = draw(st.sampled_from([2, 3]))
    weights = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank).filter(any))
    generator = st.tuples(*[st.integers(0, 2)] * rank).filter(
        lambda g: sum(w * c for w, c in zip(weights, g)) >= 1
    )
    gens = draw(st.lists(generator, min_size=1, max_size=4, unique=True))
    return SemigroupSpec.build(rank, gens, weights, draw(st.sampled_from([2, 3])))


@st.composite
def embedded_semigroups(draw):
    """Rank-2 semigroups in the plane z = u x + v y of N^3: d < rank, so a
    point can share its degree and slice coordinates with a semigroup point
    and lie off the span of S."""
    u, v = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    weights = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3).filter(any))
    generator = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda g: (g[0], g[1], u * g[0] + v * g[1])
    ).filter(lambda g: sum(w * c for w, c in zip(weights, g)) >= 1)
    gens = draw(st.lists(generator, min_size=1, max_size=4, unique=True))
    return SemigroupSpec.build(3, gens, weights, draw(st.sampled_from([2, 3])))


@st.composite
def cones(draw):
    """Rank 2-4, 2-7 distinct generators with coordinates 0-3, weights 1-3:
    cones of dimension up to 4 with many facets, where ``semigroups()`` mostly
    draws a single ray."""
    rank = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    generator = st.tuples(*[st.integers(0, 3)] * rank).filter(any)
    size = draw(st.integers(2, 7))
    gens = draw(st.lists(generator, min_size=size, max_size=size, unique=True))
    return SemigroupSpec.build(rank, gens, weights, draw(st.sampled_from([2, 3])))


@st.composite
def semigroup_ideals(draw, specs=semigroups(), multiples=False):
    """A spec from ``specs`` and 1-3 sums of 1-2 of its generators.  With
    ``multiples``, also k g with k in 1-3 for each generator g: every
    extremal ray then holds an ideal generator, so the colength is finite."""
    spec = draw(specs)
    index = st.integers(0, len(spec.generators) - 1)
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        parts = [spec.generators[i] for i in draw(st.lists(index, min_size=1, max_size=2))]
        elements.append(tuple(map(sum, zip(*parts))))
    if multiples:
        for g in spec.generators:
            k = draw(st.integers(1, 3))
            elements.append(tuple(k * c for c in g))
    return spec, MonomialIdealSpec.build(elements)


@settings(max_examples=80, deadline=None)
@given(semigroup_ideals(), st.integers(1, 3), st.integers(0, 16))
@example((SEGRE, MonomialIdealSpec.build(SEGRE.generators)), 3, 16)
def test_colengths_match_per_point_reference(spec_ideal, e, max_m):
    spec, ideal = spec_ideal
    q = spec.p ** e
    pair = LatticePair(spec, ideal)
    assert pair.colengths_up_to(q, max_m) == reference_colengths(spec, ideal, q, max_m)


@settings(max_examples=80, deadline=None)
@given(semigroups(), st.integers(0, 12), st.integers(0, 12))
@example(SEGRE, 2, 9)
def test_extend_matches_fresh_enumeration(spec, a, b):
    a, b = min(a, b), max(a, b)
    grown = SemigroupEnumeration(spec, a)
    grown.extend(b)
    fresh = SemigroupEnumeration(spec, b)
    assert grown.max_degree == fresh.max_degree == b
    assert grown.count == fresh.count
    points = reference_points(spec, b)
    sizes = [0] * (b + 1)
    for v in points:
        sizes[spec.degree(v)] += 1
    counts = [grown.points(m) for m in range(b + 1)]
    assert counts == [fresh.points(m) for m in range(b + 1)] == sizes
    box = itertools.product(range(5), repeat=spec.rank)
    for v in itertools.chain(points, box):
        if spec.degree(v) <= b:
            assert grown.contains(v) == fresh.contains(v) == (v in points)


@settings(max_examples=80, deadline=None)
@given(semigroups(), st.integers(0, 12), st.integers(1, 200))
@example(CONE, 8, 200)
def test_small_cap_radix_and_boundary(spec, b, cap):
    # A small cap gives a small radix.  In CONE the points (r, 0, c) and
    # (0, 1, c) share degree and code for radix r, so a radix too narrow for
    # the degrees the cap admits (r <= 8 at cap 200) merges them.
    points = reference_points(spec, b)
    if len(points) > cap:
        with pytest.raises(CapacityError):
            SemigroupEnumeration(spec, b, cap)
        return
    enum = SemigroupEnumeration(spec, b, cap)
    sizes = [0] * (b + 1)
    for v in points:
        sizes[spec.degree(v)] += 1
    assert [enum.points(m) for m in range(b + 1)] == sizes
    assert all(enum.contains(v) for v in points)


# -- bitset buckets against the set-based enumeration they replace --------


class RefSemigroupEnumeration:
    """The set-based enumeration: each bucket a set of codes
    sum(v_i * radix**i), one radix for every ambient coordinate, and each
    bucket built by adding each generator's code to every point."""

    def __init__(self, spec: SemigroupSpec, max_degree: int, cap: int):
        self.spec = spec
        self.cap = cap
        self._ceiling = _degree_ceiling(spec, cap)
        self.radix = 1 + max(
            self._ceiling * c // spec.degree(g) for g in spec.generators for c in g
        )
        self._gens = [(spec.degree(g), self.encode(g)) for g in spec.generators]
        self.by_degree: list[set[int]] = [{0}]
        self.count = 1
        self.extend(max_degree)

    @property
    def max_degree(self) -> int:
        return len(self.by_degree) - 1

    def encode(self, v) -> int:
        code = 0
        for c in reversed(v):
            code = code * self.radix + c
        return code

    def extend(self, max_degree: int) -> None:
        if max_degree >= self._ceiling:
            raise self._capacity_error(max_degree)
        buckets = self.by_degree
        for m in range(len(buckets), max_degree + 1):
            bucket: set[int] = set()
            for gdeg, code in self._gens:
                if gdeg <= m:
                    bucket.update(map(code.__add__, buckets[m - gdeg]))
            if self.count + len(bucket) > self.cap:
                raise self._capacity_error(max_degree)
            buckets.append(bucket)
            self.count += len(bucket)

    def _capacity_error(self, max_degree: int) -> CapacityError:
        return CapacityError(
            f"semigroup enumeration exceeded cap of {self.cap} points "
            f"(degree bound {max_degree}); raise {_MAX_POINTS_ENV} "
            f"or lower the level; every degree bound from {self._ceiling} "
            "up exceeds this cap"
        )

    def contains(self, v) -> bool:
        if len(v) != self.spec.rank or any(c < 0 for c in v):
            return False
        degree = self.spec.degree(v)
        if degree > self.max_degree:
            raise DomainError(f"membership query at degree {degree}")
        if any(c >= self.radix for c in v):
            return False
        return self.encode(v) in self.by_degree[degree]


def polynomial_ring(rank: int) -> SemigroupSpec:
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    return SemigroupSpec.build(rank, units, (1,) * rank, 2)


# k[x1..x7]: the slice of degree m is a simplex in six slice coordinates,
# about 1/6! of the box around it, so its buckets turn to sets at degree 9
POLY7 = polynomial_ring(7)
# k[x1..x6, z^2, x1 z]: d = 7 with fewer points than k[x1..x7] and m_mu = 2,
# so a cap can trip below the degree ceiling after the switch to sets
POLY7_CUT = SemigroupSpec.build(
    7, POLY7.generators[:6] + ((0,) * 6 + (2,), (1,) + (0,) * 5 + (1,)), (1,) * 7, 2
)
# {(0, k, k)}: d = 1 in N^3, and no coordinate is a slice coordinate
DIAGONAL = SemigroupSpec.build(3, [(0, 1, 1), (0, 2, 2)], (0, 0, 1), 2)
# {(a + b, a, b)}: d = 2 in N^3, graded by the first coordinate
SLICE = SemigroupSpec.build(3, [(1, 1, 0), (1, 0, 1)], (1, 0, 0), 2)


def build_to(cls, spec: SemigroupSpec, a: int, b: int, cap: int):
    """Build to degree a and extend to b: the enumeration (None if building
    failed) and the capacity error message (None if there was none)."""
    try:
        enum = cls(spec, a, cap)
    except CapacityError as err:
        return None, str(err)
    try:
        enum.extend(b)
    except CapacityError as err:
        return enum, str(err)
    return enum, None


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(semigroups(), small_semigroups()),
    st.integers(0, 12),
    st.integers(0, 12),
    st.one_of(st.integers(1, 200), st.just(DEFAULT_MAX_POINTS)),
)
@example(CONE, 2, 8, 200)
@example(SEGRE, 2, 9, DEFAULT_MAX_POINTS)
@example(DIAGONAL, 0, 12, DEFAULT_MAX_POINTS)
@example(DIAGONAL, 3, 12, 5)
@example(SLICE, 3, 12, DEFAULT_MAX_POINTS)
@example(SLICE, 3, 12, 40)
@example(POLY7, 4, 10, DEFAULT_MAX_POINTS)
@example(POLY7_CUT, 4, 10, 15000)
def test_enumeration_matches_set_reference(spec, a, b, cap):
    """Bucket sizes, count, max_degree, the capacity error and its message,
    and membership of semigroup points, of box points and of the unit steps
    away from semigroup points (off the span of S when d < rank)."""
    a, b = min(a, b), max(a, b)
    enum, err = build_to(SemigroupEnumeration, spec, a, b, cap)
    ref, ref_err = build_to(RefSemigroupEnumeration, spec, a, b, cap)
    assert err == ref_err
    if ref is None:
        assert enum is None
        return
    assert enum.max_degree == ref.max_degree and enum.count == ref.count
    assert [enum.points(m) for m in range(enum.max_degree + 1)] == [len(s) for s in ref.by_degree]
    top = ref.max_degree
    points = reference_points(spec, top)
    box = itertools.product(range(5), repeat=spec.rank)
    steps = (
        tuple(c + (i == j) for j, c in enumerate(v)) for v in points for i in range(spec.rank)
    )
    for v in itertools.chain(points, box, steps):
        if spec.degree(v) <= top:
            assert enum.contains(v) == ref.contains(v) == (v in points)


@pytest.mark.parametrize(
    "spec,off,twin",
    [(DIAGONAL, (0, 1, 2), (0, 2, 2)), (SLICE, (2, 0, 1), (2, 0, 2))],
)
def test_contains_refuses_points_off_the_span(spec, off, twin):
    # off has the degree and the slice coordinates of the semigroup point
    # twin, so only the span check tells them apart
    enum = SemigroupEnumeration(spec, 4)
    assert spec.degree(off) == spec.degree(twin)
    assert enum.encode(off) == enum.encode(twin)
    assert enum.contains(twin) and not enum.contains(off)


@pytest.mark.parametrize("spec", [DIAGONAL, SLICE])
def test_bucket_bits_follow_the_degree_slice(spec):
    # Both lie in N^3 with d < 3.  A code that reads a coordinate outside
    # the slice spans far more bits than the slice has points, and runs out
    # of memory long before degree 3000.
    enum = SemigroupEnumeration(spec, 3000)
    assert all(bucket.bit_length() <= m + 1 for m, bucket in enumerate(enum.by_degree))


# k[x, y, z] with z of degree 100: the slice coordinates are z and x, and z
# grows a hundred times slower with the degree than x
STRETCHED = SemigroupSpec.build(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 100), 2)


@pytest.mark.parametrize(
    "spec,level,degree",
    [(polynomial_ring(8), 1, 9), (STRETCHED, 1, 202), (STRETCHED, 3, 814)],
)
def test_memory_follows_the_points(spec, level, degree):
    # density-empirical of the maximal ideal, whose count reaches the given
    # degree.  Radices sized from the cap's degree ceiling, not the degree
    # built, give k[x1..x8] a 2^30-bit bucket in degree 1 and STRETCHED
    # buckets of hundreds of megabytes, and even radices that follow the
    # degree leave the slices of k[x1..x8] 1/7! of their box.  A set costs
    # 80 to 100 bytes a code, so whatever the buckets are, the run must
    # stay within 128 bytes a point.
    points = SemigroupEnumeration(spec, degree).count
    tracemalloc.start()
    try:
        approx = LatticePair(spec, MonomialIdealSpec.build(spec.generators)).build_approximant(level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert approx.integral == 1  # e_HK of a regular ring
    assert peak <= 128 * points + (1 << 20)


# -- the colength stop rule against per-degree reference counts ------------


@st.composite
def staircase_pairs(draw, weights):
    """A staircase ideal of k[x,y], x^a_i y^b_i with the a_i falling to 0
    and the b_i rising from 0, under one of the given gradings."""
    k = draw(st.integers(1, 3))
    exponents = st.lists(st.integers(1, 3), min_size=k, max_size=k, unique=True)
    a, b = sorted(draw(exponents), reverse=True), sorted(draw(exponents))
    weights = draw(st.sampled_from(weights))
    p = draw(st.sampled_from([2, 3, 5]))
    return LatticePair(
        SemigroupSpec.build(2, [(1, 0), (0, 1)], weights, p),
        MonomialIdealSpec.build(zip(a + [0], [0] + b)),
    )


@settings(max_examples=80, deadline=None)
@given(staircase_pairs([(1, 1), (2, 2), (2, 3), (1, 4)]), st.integers(1, 2), st.integers(0, 120))
@example(
    LatticePair(
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 4), 2),
        MonomialIdealSpec.build([(2, 0), (1, 1), (0, 3)]),
    ),
    2,
    120,
)
def test_stopped_colengths_match_per_degree_reference(pair, e, max_m):
    """Counting stops after the first m_mu zero degrees and pads with zeros.

    With n0 > 1 or m_mu > 1 the zero run can hold degrees where the
    semigroup is empty; the enumeration reaches no further than the stop."""
    spec, q, m_mu = pair.spec, pair.spec.p**e, pair.spec.m_mu
    probe = pair._enum.max_degree
    want = reference_colengths(spec, pair.ideal, q, max_m)
    assert pair.colengths_up_to(q, max_m) == want
    stop = next(
        (m for m in range(m_mu - 1, max_m + 1) if not any(want[m - m_mu + 1 : m + 1])),
        max_m,
    )
    assert pair._enum.max_degree == max(probe, stop)


def test_quotient_111_level_4_within_cap():
    # (1/3)(1,1,1): the ten degree-3 monomials of k[x,y,z] and the ideal
    # they generate.  The support bound needs degree 482 and over 10^6
    # points; counting stops at degree 78.
    gens = [g for g in itertools.product(range(4), repeat=3) if sum(g) == 3]
    spec = SemigroupSpec.build(3, gens, (1, 1, 1), 2)
    pair = LatticePair(spec, MonomialIdealSpec.build(gens), cap=10**6)
    assert pair.build_approximant(4).integral == F(13651, 4096)


def test_segre_level_5_within_cap():
    # the support bound needs degree 128, 723,905 points
    pair = LatticePair(SEGRE, MonomialIdealSpec.build(SEGRE.generators), cap=500_000)
    assert pair.build_approximant(5).integral == F(1365, 1024)


# -- integer approximants and fraction-free elimination against the Fraction
# code they replace --------------------------------------------------------


def reference_approximant(pair: LatticePair, level: int) -> tuple[PiecewisePoly, PiecewisePoly]:
    """f_n and g_n built piece by piece in Fractions from the colengths."""
    q = pair.spec.p ** level
    n0 = pair.spec.n0
    d = pair.spec.dim
    max_window = int(pair.support_bound() * q)
    counts = pair.colengths_up_to(q, (max_window + 1) * n0 - 1)
    scale = Fraction(1, q ** (d - 1)) if d > 1 else Fraction(1)
    values = [
        sum(counts[window * n0 + j] for j in range(n0)) * scale
        for window in range(max_window + 1)
    ]
    step = Fraction(1, q)
    f_step = PiecewisePoly.build(
        [step * i for i in range(len(values) + 1)],
        [Polynomial.of(v) for v in values],
    )
    values_ext = values + [Fraction(0)]
    g_pieces = []
    for i in range(len(values_ext) - 1):
        x0 = step * i
        y0, y1 = values_ext[i], values_ext[i + 1]
        slope = (y1 - y0) * q
        g_pieces.append(Polynomial.of(y0 - slope * x0, slope))
    g_interp = PiecewisePoly.build([step * i for i in range(len(values_ext))], g_pieces)
    return f_step, g_interp


def assert_matches_reference(pair: LatticePair, level: int) -> None:
    approx = pair.build_approximant(level)
    f_step, g_interp = reference_approximant(pair, level)
    assert approx.f_step == f_step
    assert approx.g_interp == g_interp
    assert approx.integral == pw_integrate(approx.f_step)


@st.composite
def staircase_levels(draw, ahead=0):
    """A staircase ideal of k[x,y], x^a_i y^b_i with the a_i falling to 0
    and the b_i rising from 0, under one of three gradings, with a level n
    whose enumeration at level n + ahead stays small: p^(n + ahead) times
    the support bound is at most 600 unless n is 1."""
    pair = draw(staircase_pairs([(1, 1), (1, 2), (2, 2)]))
    p, bound = pair.spec.p, pair.support_bound()
    levels = [n for n in (1, 2, 3) if n == 1 or p ** (n + ahead) * bound <= 600]
    return pair, draw(st.sampled_from(levels))


@settings(max_examples=60, deadline=None)
@given(staircase_levels())
def test_approximant_matches_fraction_reference(pair_level):
    assert_matches_reference(*pair_level)


@pytest.mark.parametrize("level", [1, 2])
def test_segre_approximant_matches_fraction_reference(level):
    assert_matches_reference(LatticePair(SEGRE, MonomialIdealSpec.build(SEGRE.generators)), level)


# -- the grid sup of g_n against g_{n+1} and the direct approximant pieces,
# against pw_sup_distance and PiecewisePoly.build ---------------------------


def window_lists(max_size):
    """Window counts with zeros inside the support; the last window is 0."""
    counts = st.one_of(st.just(0), st.integers(0, 40), st.integers(0, 10**6))
    return st.lists(counts, max_size=max_size).map(lambda ws: (*ws, 0))


@st.composite
def approximant_pairs(draw):
    """Level n and n + 1 approximants of the same p and d, from unrelated
    window lists of unequal lengths."""
    p, d, n = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([2, 3])), draw(st.integers(1, 2))
    q = p**n
    coarse = DensityApproximant(n, q, q ** (d - 1), draw(window_lists(12)))
    fine = DensityApproximant(n + 1, p * q, (p * q) ** (d - 1), draw(window_lists(60)))
    return coarse, fine


@settings(max_examples=200, deadline=None)
@given(approximant_pairs())
# the finer support reaches past p times the coarser one, to a window M' with
# M' // p beyond both len(coarse) and len(fine) // p
@example((DensityApproximant(1, 3, 3, (0,)), DensityApproximant(2, 9, 9, (0,) * 6 + (5, 0))))
def test_grid_sup_matches_pw_sup_distance(pair):
    coarse, fine = pair
    assert coarse.interp_sup_distance(fine) == pw_sup_distance(coarse.g_interp, fine.g_interp)


@settings(max_examples=40, deadline=None)
@given(staircase_levels(ahead=1))
def test_convergence_report_sup_matches_pw_sup_distance(pair_level):
    pair, n = pair_level
    (row,) = pair.convergence_report([n])
    g_n, g_next = (pair.build_approximant(m).g_interp for m in (n, n + 1))
    assert row.sup_distance == pw_sup_distance(g_n, g_next)


def reference_pieces(q: int, den: int, keys) -> PiecewisePoly:
    """DensityApproximant._pieces as it was: ``build`` of the runs."""
    breakpoints, pieces, end = [0], [], 0
    for key, run in itertools.groupby(keys):
        end += sum(1 for _ in run)
        breakpoints.append(Fraction(end, q))
        pieces.append(Polynomial.over(list(key), den))
    return PiecewisePoly.build(breakpoints, pieces)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.tuples(
                st.lists(st.integers(-3, 3), min_size=width, max_size=width).map(tuple),
                st.integers(1, 3),
            ),
            max_size=8,
        )
    ),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 12),
)
def test_pieces_match_build_of_the_runs(runs, q, den):
    # keys of one width, repeated in runs, zero keys anywhere
    keys = [key for key, length in runs for _ in range(length)]
    approx = DensityApproximant(1, q, den, (0,))
    assert approx._pieces(iter(keys)) == reference_pieces(q, den, keys)


def reference_eliminate(rows) -> tuple[list[int], Fraction]:
    """Row reduction over Q: pivot columns and the determinant if square."""
    rows = [[Fraction(c) for c in r] for r in rows]
    pivots, det = [], Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        r = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        if r != top:
            rows[top], rows[r] = rows[r], rows[top]
            det = -det
        det *= rows[top][col]
        for r in range(top + 1, len(rows)):
            f = rows[r][col] / rows[top][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return pivots, det if len(pivots) == len(rows) else Fraction(0)


@st.composite
def integer_matrices(draw):
    """0-5 rows of 1-5 integers, square half the time; a row is drawn at
    random, zero, or an integer combination of the rows before it."""
    cols = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.one_of(st.just(cols), st.integers(0, 5)))):
        kind = draw(st.sampled_from(["random", "random", "random", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "dependent" and rows:
            mult = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(k * r[j] for k, r in zip(mult, rows)) for j in range(cols)])
        else:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols)))
    return rows


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
@example([])
@example([[0, 1], [1, 0]])
@example([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
def test_eliminate_matches_fraction_reference(rows):
    pivots, det, basis = _eliminate(rows)
    assert (pivots, det) == reference_eliminate(rows)
    assert type(det) is int
    # echelon rows: each zero left of its pivot, nonzero at it
    assert len(basis) == len(pivots)
    for row, col in zip(basis, pivots):
        assert not any(row[:col]) and row[col]
    # every input row is an integer combination of them
    for v in rows:
        assert all(k.denominator == 1 for k in echelon_coords(pivots, basis, v))
    # and they span the same lattice: the gcd of the rank-size minors on the
    # pivot columns is the covolume of the rows' projection there
    minors = (
        reference_eliminate([[r[c] for c in pivots] for r in sub])[1]
        for sub in itertools.combinations(rows, len(pivots))
    )
    assert abs(prod(row[col] for row, col in zip(basis, pivots))) == gcd(*map(int, minors))


def echelon_coords(pivots, basis, v) -> list[Fraction]:
    """The rational coordinates of v in echelon rows; v must be in their span."""
    coords = []
    for col, row in zip(pivots, basis):
        k = Fraction(v[col], row[col])
        coords.append(k)
        v = [a - k * b for a, b in zip(v, row)]
    assert not any(v)
    return coords


# -- the frame against the derivations it replaced ---------------------------


def reference_cone(spec: SemigroupSpec) -> tuple[list, list[set[frozenset[int]]]]:
    """``cone`` as it was: the generators projected onto pivot coordinates
    that keep their rank, and facets cut out by cofactor normals."""
    pivots, _ = reference_eliminate(spec.generators)
    gens = [tuple(g[c] for c in pivots) for g in spec.generators]
    d = len(pivots)
    facets = set()
    for sub in itertools.combinations(gens, d - 1):
        normal = [
            (-1) ** j * reference_eliminate([v[:j] + v[j + 1 :] for v in sub])[1]
            for j in range(d)
        ]
        side = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        if any(normal) and (min(side) >= 0 or max(side) <= 0):
            facets.add(frozenset(i for i, s in enumerate(side) if s == 0))
    faces = [set() for _ in range(d)] + [{frozenset(range(len(gens)))}]
    for k in range(d, 1, -1):
        cuts = {face & facet for face in faces[k] for facet in facets}
        faces[k - 1] = {
            c for c in cuts if len(reference_eliminate([gens[i] for i in c])[0]) == k - 1
        }
    return gens, faces


def reference_covolume(gens) -> int:
    """The covolume of the lattice that gens span, projected onto pivot
    coordinates: the gcd of its C(n, d) d x d minors."""
    pivots, _ = reference_eliminate(gens)
    projected = [[g[c] for c in pivots] for g in gens]
    return gcd(*(int(reference_eliminate(m)[1]) for m in itertools.combinations(projected, len(pivots))))


def reference_ehat(spec: SemigroupSpec) -> Fraction:
    """``ehat`` as it was: the pulling triangulation in pivot coordinates,
    divided by the covolume of ZS there."""
    gens, faces = reference_cone(spec)
    d = len(gens[0])
    degrees = [spec.degree(g) for g in spec.generators]

    def simplices(face, k):
        apex = min(face)
        if k == 1:
            return [(apex,)]
        subs = [sub for sub in faces[k - 1] if sub <= face and apex not in sub]
        return [s + (apex,) for sub in subs for s in simplices(sub, k - 1)]

    volume = sum(
        abs(reference_eliminate([gens[i] for i in s])[1]) / prod(degrees[i] for i in s)
        for s in simplices(frozenset(range(len(gens))), d)
    )
    n0 = gcd(*degrees)
    return n0**d * volume / (math.factorial(d - 1) * reference_covolume(gens))


def reference_slices(spec: SemigroupSpec) -> tuple[tuple[int, ...], list[int], int]:
    """``SemigroupEnumeration``'s slice coordinates as they were: the pivots
    after the degree column of the rows (deg g,) + g, columns in increasing
    order of max_g(g_c / deg g); with the rises of those coordinates over
    the lcm of the generator degrees."""
    degrees = [spec.degree(g) for g in spec.generators]
    den = math.lcm(*degrees)
    rise = [max(g[c] * den // e for g, e in zip(spec.generators, degrees)) for c in range(spec.rank)]
    order = sorted(range(spec.rank), key=rise.__getitem__)
    pivots, _ = reference_eliminate([(e,) + tuple(g[c] for c in order) for g, e in zip(spec.generators, degrees)])
    coords = tuple(order[c - 1] for c in pivots[1:])
    return coords, [rise[c] for c in coords], den


def reference_contains(enum: SemigroupEnumeration, v) -> bool:
    """``contains`` as it was: radix bounds, a rational-span test when
    d < rank, then the point's code in its bucket."""
    spec = enum.spec
    if any(c < 0 for c in v) or any(v[c] >= r for c, r in zip(enum.coords, enum.radices)):
        return False
    d = len(reference_eliminate(spec.generators)[0])
    if d < spec.rank and len(reference_eliminate([*spec.generators, v])[0]) > d:
        return False
    code, bucket = enum.encode(v), enum.by_degree[spec.degree(v)]
    return bucket >> code & 1 == 1 if enum._dense else code in bucket


def reference_refusal(spec: SemigroupSpec, ideal: MonomialIdealSpec) -> str | None:
    """The refusal of an infinite colength, or None: it names the first
    extremal ray, by its least-index generator in sorted order, that holds
    no ideal generator."""
    _, faces = reference_cone(spec)
    for g in sorted(spec.generators[min(ray)] for ray in faces[1]):
        if all(len(reference_eliminate([g, a])[0]) > 1 for a in ideal.generators):
            return (
                f"no ideal generator lies on the extremal ray through {g}; "
                "the colength is infinite"
            )


def reference_containment_exponent(spec: SemigroupSpec, ideal: MonomialIdealSpec) -> int | None:
    """The least l with J^l in I by sums of generators and the tuple
    enumeration, or None when an extremal ray holds no ideal generator."""
    if reference_refusal(spec, ideal) is not None:
        return None
    outside = {(0,) * spec.rank}
    for ell in itertools.count(1):
        sums = {tuple(map(sum, zip(w, g))) for w in outside for g in spec.generators}
        # v - a <= v for the ideal generators a in N^rank: the points under
        # the largest coordinates of the sums are all the probes can meet
        points = reference_points(spec, ell * spec.m_mu, tuple(map(max, zip(*sums))))
        outside = {
            v
            for v in sums
            if not any(tuple(c - d for c, d in zip(v, a)) in points for a in ideal.generators)
        }
        if not outside:
            return ell


frame_semigroups = st.one_of(semigroups(), embedded_semigroups())


def faces_from_facets(spec: SemigroupSpec) -> list[set[frozenset[int]]]:
    """The faces of each rank k, as ``reference_cone`` gives them, read from
    the facets of ``cone``: the facets of a face G are the inclusion-maximal
    cuts G & F over the facets F that do not contain G."""
    facets, d = spec.cone[1], spec.dim
    faces = [set() for _ in range(d)] + [{frozenset(range(len(spec.generators)))}]
    for k in range(d, 1, -1):
        for face in faces[k]:
            cuts = {face & f for f in facets if not face <= f}
            faces[k - 1] |= {c for c in cuts if not any(c < o for o in cuts)}
    return faces


# (1, 1, 1) and (2, 2, 2) span one ray, and the echelon of that pair has a
# last row that lies on one side of every generator: a facet test without
# the pivot check takes the pair for a facet of rank 1
RAY_PAIR = SemigroupSpec.build(3, [(1, 1, 1), (2, 2, 2), (2, 2, 3), (3, 1, 1)], (2, 3, 3), 2)


def maximal_ideal(spec: SemigroupSpec) -> tuple[SemigroupSpec, MonomialIdealSpec]:
    return spec, MonomialIdealSpec.build(spec.generators)


# (1, 1) lies on no extremal ray, and no ideal generator lies on its line: the
# colength is still finite
INNER = (
    SemigroupSpec.build(2, [(1, 0), (0, 1), (1, 1)], (1, 1), 2),
    MonomialIdealSpec.build([(1, 0), (0, 1)]),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    semigroup_ideals(cones(), multiples=True), semigroup_ideals(embedded_semigroups())
))
@example(maximal_ideal(RAY_PAIR))
@example(INNER)
@example(maximal_ideal(CONE))
@example(maximal_ideal(SEGRE))
@example(maximal_ideal(DIAGONAL))
@example(maximal_ideal(SLICE))
def test_cone_facets_match_reference(spec_ideal):
    spec, ideal = spec_ideal
    gens, facets = spec.cone
    assert faces_from_facets(spec) == reference_cone(spec)[1]
    assert spec.ehat() == reference_ehat(spec)
    for zeros, normal in facets.items():
        # a primitive inward normal, 0 exactly on the facet's generators,
        # which span a hyperplane
        side = [sum(a * b for a, b in zip(normal, g)) for g in gens]
        assert gcd(*normal) == 1 and min(side) >= 0
        assert zeros == {i for i, s in enumerate(side) if s == 0}
        assert len(reference_eliminate([spec.generators[i] for i in zeros])[0]) == spec.dim - 1
    want = reference_containment_exponent(spec, ideal)
    pair = LatticePair(spec, ideal)
    if want is None:
        with pytest.raises(ValidationError, match="colength is infinite") as err:
            pair.containment_exponent()
        assert err.value.args[0] == reference_refusal(spec, ideal)
    else:
        assert pair.containment_exponent() == want


def rank_test_refusal(spec: SemigroupSpec, ideal: MonomialIdealSpec) -> str | None:
    """The refusal of the rank test that ray coverage replaced, or None: an
    ideal generator a lies on the extremal ray through g iff the rows g, a
    have rank at most 1."""
    gens = spec.generators
    every, facets = frozenset(range(len(gens))), spec.cone[1]
    least = {every.intersection(*(f for f in facets if i in f)) for i in every}
    for g in sorted(gens[min(ray)] for ray in least if not any(f < ray for f in least)):
        if all(len(_eliminate([g, a])[0]) > 1 for a in ideal.generators):
            return (
                f"no ideal generator lies on the extremal ray through {g}; "
                "the colength is infinite"
            )


@st.composite
def ray_ideals(draw):
    """Pairs whose ideal may miss rays, a fifth of them with the zero vector
    added to the ideal, which makes it the unit ideal."""
    spec, ideal = draw(st.one_of(
        semigroup_ideals(cones(), multiples=True),
        semigroup_ideals(cones()),
        semigroup_ideals(embedded_semigroups()),
    ))
    if draw(st.integers(0, 4)) == 0:
        ideal = MonomialIdealSpec.build([*ideal.generators, (0,) * spec.rank])
    return spec, ideal


TILTED = (
    SemigroupSpec.build(3, [(1, 1, 1), (2, 1, 3), (2, 3, 1), (0, 0, 1)], (1, 1, 1), 2),
    MonomialIdealSpec.build([(0, 0, 1)]),
)
POLY4 = SemigroupSpec.build(4, [tuple(int(i == j) for i in range(4)) for j in range(4)], (1,) * 4, 2)


@settings(max_examples=200, deadline=None)
@given(ray_ideals())
@example((SEGRE, MonomialIdealSpec.build([(0, 0, 0)])))  # the unit ideal
# (1, 1, 0, 0) and (2, 1, 0) lie inside a 2-face, on no ray of it
@example((POLY4, MonomialIdealSpec.build([(1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])))
@example((SEGRE, MonomialIdealSpec.build([(2, 1, 0), (1, 0, 1), (1, 1, 1)])))
# the cone of SEGRE has four rays and four facets: it is not simplicial
@example(maximal_ideal(SEGRE))
@example((SEGRE, MonomialIdealSpec.build([(1, 0, 0), (1, 1, 0), (1, 0, 1)])))
@example(maximal_ideal(RAY_PAIR))
@example(INNER)
# (1, 1, 1) lies inside the 2-face of (2, 1, 3) and (2, 3, 1), which holds no
# ideal generator, and sorts before both: the refusal names a ray, (2, 1, 3)
@example(TILTED)
# both rays miss the ideal; the one through (2, 0) and (1, 0) is named by
# (2, 0), its least-index generator, so it sorts after (1, 1)
@example((
    SemigroupSpec.build(2, [(2, 0), (1, 1), (1, 0)], (1, 1), 2),
    MonomialIdealSpec.build([(3, 1)]),
))
def test_ray_coverage_refuses_what_the_rank_test_refused(spec_ideal):
    spec, ideal = spec_ideal
    want = rank_test_refusal(spec, ideal)
    pair = LatticePair(spec, ideal)
    if want is None:
        assert pair.containment_exponent() >= 1
    else:
        with pytest.raises(ValidationError) as err:
            pair.containment_exponent()
        assert err.value.args[0] == want


@settings(max_examples=150, deadline=None)
@given(frame_semigroups, st.integers(0, 10))
@example(CONE, 8)
@example(SEGRE, 5)
@example(DIAGONAL, 6)
@example(SLICE, 6)
def test_frame_matches_the_derivations_it_replaced(spec, b):
    # the degree split: row 0 has degree +-n0, every other row degree 0,
    # and every row is (deg v,) + v in the frame's column order
    den, rise, order, pivots, basis = spec.frame
    n0 = gcd(*(spec.degree(g) for g in spec.generators))
    assert spec.n0 == n0 and abs(basis[0][0]) == n0
    assert all(row[0] == 0 for row in basis[1:])
    for row in basis:
        v = [0] * spec.rank
        for j, c in enumerate(order):
            v[c] = row[j + 1]
        assert spec.degree(v) == row[0]
    # each generator rebuilt exactly from its lattice coordinates
    for g in spec.generators:
        k = spec.lattice_coords(g)
        rebuilt = [sum(x * row[j] for x, row in zip(k, basis)) for j in range(spec.rank + 1)]
        assert rebuilt == [spec.degree(g)] + [g[c] for c in order]
    assert spec.dim == len(pivots) == len(reference_eliminate(spec.generators)[0])
    # cone faces, as sets of generator indices, and ehat
    assert faces_from_facets(spec) == reference_cone(spec)[1]
    assert spec.ehat() == reference_ehat(spec)
    # slice coordinates, and radices after extend
    coords, ref_rise, ref_den = reference_slices(spec)
    enum = SemigroupEnumeration(spec, min(b, 3))
    enum.extend(b)
    assert enum.coords == coords and den == ref_den
    assert enum.radices == tuple(1 + enum._bound * r // ref_den for r in ref_rise)
    # membership of semigroup points, of box points, and of steps off S: unit
    # steps, and half a generator, which is in the span but off ZS when even
    points = reference_points(spec, b)
    box = itertools.product(range(4), repeat=spec.rank)
    steps = [
        tuple(c + (i == j) for j, c in enumerate(v)) for v in points for i in range(spec.rank)
    ] + [tuple(c // 2 for c in g) for g in spec.generators]
    for v in itertools.chain(points, box, steps):
        if spec.degree(v) <= b:
            assert enum.contains(v) == reference_contains(enum, v) == (v in points)
        # v is in ZS iff adding it leaves the covolume alone
        in_lattice = len(reference_eliminate([*spec.generators, v])[0]) == spec.dim and (
            reference_covolume([*spec.generators, v]) == reference_covolume(spec.generators)
        )
        assert (spec.lattice_coords(v) is not None) == in_lattice


@settings(max_examples=60, deadline=None)
@given(st.one_of(semigroup_ideals(), semigroup_ideals(embedded_semigroups())))
@example((SEGRE, MonomialIdealSpec.build(SEGRE.generators)))
def test_containment_exponent_matches_reference(spec_ideal):
    spec, ideal = spec_ideal
    want = reference_containment_exponent(spec, ideal)
    pair = LatticePair(spec, ideal)
    if want is None:
        with pytest.raises(ValidationError, match="colength is infinite"):
            pair.containment_exponent()
    else:
        assert pair.containment_exponent() == want


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.delenv("HKDL_MAX_POINTS", raising=False)
    assert enumeration_cap() == DEFAULT_MAX_POINTS
    monkeypatch.setenv("HKDL_MAX_POINTS", "1234")
    assert enumeration_cap() == 1234
    monkeypatch.setenv("HKDL_MAX_POINTS", "zero")
    with pytest.raises(ValidationError):
        enumeration_cap()
    monkeypatch.setenv("HKDL_MAX_POINTS", "-5")
    with pytest.raises(ValidationError):
        enumeration_cap()


def test_level_validation():
    with pytest.raises(DomainError):
        koszul_pair().build_approximant(0)
    with pytest.raises(DomainError):
        koszul_pair().convergence_report([])
