"""Affine semigroup rings as lattice-point sets, and the empirical density path.

A ``SemigroupSpec`` is a finitely generated subsemigroup S of N^rank graded
by a nonnegative weight vector under which every generator has positive
degree.  ``SemigroupEnumeration`` holds one bucket S_m per degree m of the
codes of its points: code(v) reads only d - 1 slice coordinates of v, which
with the degree determine a point of the span of S, as one mixed-radix
number, so translating by a generator g adds code(g).  A bucket is a bitset,
one Python int with bit code(v) set for each point v, so that a translate is
one shift, while the bits the buckets span stay within a fixed number per
point; past that the buckets become sets of codes.  Buckets are built in
degree order as S_m = U_g (S_{m - deg g} + code(g)) and extended in place
when a larger degree is needed.

Monomial ideals are given by their generators as lattice points.  The
degree-m part of the q-th Frobenius power I^[q] is the union of the
translates S_{m - q deg a} + q a over the ideal generators a, which all lie in
S_m, so the colength in degree m is the size of S_m minus that of the union
of S_{m - q deg a} + q code(a), a bit count for bitsets: an exact count, with
no per-point membership probe.

Counting stops at the first run of m_mu consecutive degrees with colength 0,
m_mu the largest generator degree, and every later degree has colength 0 too:
a point x of degree D >= m0 + m_mu is y + g for a generator g with
m0 <= deg y < D, so by induction on D, zero colength on [m0, m0 + m_mu)
puts every point of degree >= m0 in I^[q].  The semigroup is enumerated only
as far as the counting reaches.

The degree-n approximants follow the defining limit of the density function:
colengths of the q-th Frobenius power are counted degree by degree and summed
into windows of n0 = gcd of occupied degrees consecutive degrees.  They stay
integers over the one denominator q^(d-1): f_n is windows[M] / q^(d-1) on
[M/q, (M+1)/q), g_n joins those values at the grid points x = M/q by
straight lines, and Fractions are made only for output pieces, the
integral and the largest of the integer gaps between g_n and g_{n+1} on the
grid of g_{n+1}.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm, prod
from operator import mul

from .errors import CapacityError, DomainError, InternalError, ValidationError
from .exact import (
    PiecewisePoly,
    Polynomial,
    json_get,
    json_int,
    json_ints,
    json_keys,
    json_list,
    pw_sup_distance,
)

Point = tuple[int, ...]

DEFAULT_MAX_POINTS = 50_000_000
_MAX_POINTS_ENV = "HKDL_MAX_POINTS"
# the bits that bitset buckets may span per point enumerated: 64 bytes,
# under the 80 to 100 bytes that a code costs in a set
_BITS_PER_POINT = 512
# a degree bound from here up (over 1000 digits) is not printed in a refusal
_UNPRINTED_BOUND = 10**1000


def enumeration_cap(cap: int | None = None) -> int:
    """The point cap: ``cap`` when given, else $HKDL_MAX_POINTS, else the
    default.  Whichever is used must be a positive integer."""
    source = "enumeration cap"
    if cap is None:
        raw = os.environ.get(_MAX_POINTS_ENV)
        if raw is None:
            return DEFAULT_MAX_POINTS
        try:
            cap = int(raw)
        except ValueError:
            raise ValidationError(f"{_MAX_POINTS_ENV} must be an integer, got {raw!r}")
        source = _MAX_POINTS_ENV
    if cap <= 0:
        raise ValidationError(f"{source} must be positive, got {cap}")
    return cap


def _eliminate(rows) -> tuple[list[int], int, list[list[int]]]:
    """Row-reduce an integer matrix by unimodular row operations, Euclid
    down each column: the pivot columns, which keep the rank of the rows,
    the determinant if the matrix is square, and the echelon rows, each zero
    left of its pivot, a Z-basis of the lattice that the rows span."""
    rows = [list(r) for r in rows]
    pivots, sign = [], 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        while live := [r for r in range(top, len(rows)) if rows[r][col]]:
            r = min(live, key=lambda r: abs(rows[r][col]))
            if r != top:
                rows[top], rows[r] = rows[r], rows[top]
                sign = -sign
            if len(live) == 1:
                pivots.append(col)
                break
            head = rows[top]
            for r in range(top + 1, len(rows)):
                if f := rows[r][col] // head[col]:
                    rows[r] = [a - f * b for a, b in zip(rows[r], head)]
    det = sign * prod(rows[i][col] for i, col in enumerate(pivots))
    return pivots, det if len(pivots) == len(rows) else 0, rows[: len(pivots)]


# Strong probable-prime tests to the first 13 primes decide primality
# exactly below _MR_BOUND (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p at or above _MR_BOUND is refused."""
    if p >= _MR_BOUND:
        raise ValidationError(f"characteristic {p} is not below the primality bound {_MR_BOUND}")
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p < 43 * 43:  # a composite with no factor up to 41 is at least 43^2
        return p > 1
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class SemigroupSpec:
    rank: int
    generators: tuple[Point, ...]
    weights: tuple[int, ...]
    p: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be >= 1")
        if len(self.weights) != self.rank or any(w < 0 for w in self.weights):
            raise ValidationError("weights must be rank-many nonnegative integers")
        if all(w == 0 for w in self.weights):
            raise ValidationError("at least one weight must be positive")
        if not self.generators:
            raise ValidationError("at least one semigroup generator required")
        for g in self.generators:
            if len(g) != self.rank or any(c < 0 for c in g):
                raise ValidationError(f"generator {g} not in N^{self.rank}")
            if all(c == 0 for c in g):
                raise ValidationError("zero vector is not a valid generator")
            # zero-degree generators would pile unboundedly many points into
            # one degree bucket; the grading must see every generator
            if sum(w * c for w, c in zip(self.weights, g)) < 1:
                raise ValidationError(
                    f"generator {g} has weighted degree 0 under {self.weights}"
                )
        if not _is_prime(self.p):
            raise ValidationError(f"characteristic p = {self.p} is not prime")

    @staticmethod
    def build(rank, generators, weights, p) -> "SemigroupSpec":
        return SemigroupSpec(
            rank, tuple(tuple(g) for g in generators), tuple(weights), p
        )

    def degree(self, v: Point) -> int:
        return sum(w * c for w, c in zip(self.weights, v))

    @cached_property
    def frame(self) -> tuple[int, list[int], list[int], list[int], list[list[int]]]:
        """ZS split by degree: one echelon of the rows (deg g,) + g, columns
        in ``order`` of increasing r_c = max_g(g_c / deg g) = rise[c] / lcm,
        as (lcm, rise, order, pivots, basis).  The basis rows are a Z-basis
        of ZS; the degree column comes first, so row 0 has degree +-n0 and
        every other row degree 0."""
        degrees = [self.degree(g) for g in self.generators]
        den = lcm(*degrees)
        graded = list(zip(self.generators, degrees))
        rise = [max(g[c] * den // e for g, e in graded) for c in range(self.rank)]
        order = sorted(range(self.rank), key=rise.__getitem__)
        pivots, _, basis = _eliminate([(e,) + tuple(g[c] for c in order) for g, e in graded])
        return den, rise, order, pivots, basis

    def lattice_coords(self, v: Point) -> tuple[int, ...] | None:
        """v in the basis of ``frame``, or None when v is off ZS: a remainder
        left at a pivot is touched by no later row."""
        _, _, order, pivots, basis = self.frame
        w = [self.degree(v)] + [v[c] for c in order]
        coords = []
        for col, row in zip(pivots, basis):
            coords.append(w[col] // row[col])
            w = [a - coords[-1] * b for a, b in zip(w, row)]
        return None if any(w) else tuple(coords)

    @property
    def n0(self) -> int:
        """gcd of occupied degrees, that of the generator degrees: |deg| of the
        frame's row 0."""
        return abs(self.frame[4][0][0])

    @cached_property
    def m_mu(self) -> int:
        """The largest generator degree."""
        return max(self.degree(g) for g in self.generators)

    @cached_property
    def dim(self) -> int:
        """Rank of the lattice spanned by the generators (Krull dimension)."""
        return len(self.frame[3])

    @cached_property
    def cone(self) -> tuple[list[Point], dict[frozenset[int], Point]]:
        """The cone R>=0 S: the generators in frame coordinates, and each facet,
        the indices of the generators on it, mapped to its primitive inward
        normal.  The echelon of [sub^T | I_d], d - 1 generators of rank d - 1,
        ends in (0, u): u is 0 on them, primitive as a unimodular matrix row."""
        gens = [self.lattice_coords(g) for g in self.generators]
        d = self.dim
        unit = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        facets = {}
        for sub in itertools.combinations(gens, d - 1):
            pivots, _, rows = _eliminate([tuple(v[j] for v in sub) + unit[j] for j in range(d)])
            normal = rows[-1][d - 1 :]
            side = [sum(a * b for a, b in zip(normal, g)) for g in gens]
            if pivots[: d - 1] == list(range(d - 1)) and (min(side) >= 0 or max(side) <= 0):
                sign = 1 if max(side) > 0 else -1
                zeros = frozenset(i for i, s in enumerate(side) if s == 0)
                facets[zeros] = tuple(sign * a for a in normal)
        return gens, facets

    def ehat(self) -> Fraction:
        """The Hilbert function in degree M*n0 grows like ehat * M^(d-1).

        ehat is the volume of the degree slice of the cone in the lattice ZS
        (Bruns-Gubeladze, Polytopes, Rings, and K-Theory, ch. 6), the same
        for S as for its normalization.  Over a pulling triangulation into
        simplicial cones sigma of generators it is
        n0^d / (d-1)! * sum |det sigma| / prod deg g, with det sigma taken in
        the coordinates of the frame, a basis of ZS, where ZS has covolume 1.
        The facets of a face are its maximal proper cuts by the cone's facets."""
        gens, facets = self.cone
        d = self.dim
        degrees = [self.degree(g) for g in self.generators]

        def simplices(face: frozenset[int]) -> list[tuple[int, ...]]:
            if not face:
                return [()]
            apex = min(face)
            cuts = {face & facet for facet in facets if not face <= facet}
            subs = [c for c in cuts if apex not in c and not any(c < o for o in cuts)]
            return [s + (apex,) for sub in subs for s in simplices(sub)]

        den = lcm(*degrees) ** d  # a multiple of every prod deg g below
        volume = sum(
            abs(_eliminate([gens[i] for i in s])[1]) * den // prod(degrees[i] for i in s)
            for s in simplices(frozenset(range(len(gens))))
        )
        return Fraction(self.n0 ** d * volume, factorial(d - 1) * den)

    def hilbert(self, upto: int) -> list[int]:
        # Each extension enumerates afresh and keeps only the counts: the
        # HilbertFunction lives in the process-wide hilbert_function cache,
        # and an enumeration kept there would live as long as the process.
        # The one process-wide cache that keeps enumerations, lattice_pair's,
        # is bounded by the points and windows they hold.  The doubling in
        # HilbertFunction.__call__ bounds the rebuild cost.
        enum = SemigroupEnumeration(self, upto)
        return [enum.points(m) for m in range(upto + 1)]

    def gcd_window(self) -> None:
        # n0 is exact: the occupied degrees are a submonoid of N holding
        # every large multiple of its gcd, so there is nothing to check
        return None

    @staticmethod
    def from_json(data: dict) -> "SemigroupSpec":
        json_keys(data, "semigroup", "rank gens weights p")
        gens = json_list(json_get(data, "gens", "semigroup"), "semigroup 'gens'")
        return SemigroupSpec(
            json_int(json_get(data, "rank", "semigroup"), "semigroup 'rank'"),
            tuple(json_ints(g, f"semigroup 'gens'[{i}]") for i, g in enumerate(gens)),
            json_ints(json_get(data, "weights", "semigroup"), "semigroup 'weights'"),
            json_int(json_get(data, "p", "semigroup"), "semigroup 'p'"),
        )


@dataclass(frozen=True)
class MonomialIdealSpec:
    generators: tuple[Point, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValidationError("ideal needs at least one generator")

    @staticmethod
    def build(generators) -> "MonomialIdealSpec":
        return MonomialIdealSpec(tuple(tuple(g) for g in generators))

    @staticmethod
    def from_json(data: dict | list) -> "MonomialIdealSpec":
        """``{"gens": [...]}``, or the bare list of generators."""
        if not isinstance(data, list):
            data = json_get(json_keys(data, "ideal", "gens"), "gens", "ideal")
        gens = json_list(data, "ideal 'gens'")
        return MonomialIdealSpec(
            tuple(json_ints(g, f"ideal 'gens'[{i}]") for i, g in enumerate(gens))
        )


def _degree_ceiling(spec: SemigroupSpec, cap: int) -> int:
    """A degree up to which the semigroup holds more than cap points.

    The generators span a lattice of rank d = spec.dim, so some d of them are
    linearly independent.  Their sums n_1 g_1 + ... + n_d g_d with
    n_1 + ... + n_d <= k are C(k + d, d) distinct points, all of degree at
    most k times the largest generator degree; the ceiling takes the least k
    for which that count exceeds cap, at most cap as C(cap + d, d) > cap.
    """
    return bisect_left(range(cap), True, key=lambda k: comb(k + spec.dim, spec.dim) > cap) * spec.m_mu


class SemigroupEnumeration:
    """All semigroup points of degree <= max_degree, one bucket per degree.

    The enumeration answers in points and degrees: ``points(m)`` is the
    number of points of degree m, ``outside(m, points, q)`` the number of
    them outside the union of the translates S_{m - q deg p} + q p over
    given points p of S, and ``contains(v)`` decides membership.  The
    bucket format below is read nowhere else.

    ``by_degree[m]`` holds the points of degree m, each as its code
    ``encode(v)``: a bitset, one int with bit code(v) set for each point v,
    while the bitsets are dense, else a set of codes.  Buckets are built in
    degree order as S_m = U_g (S_{m - deg g} + g), a shift of a bitset or
    of every code in a set by code(g), and ``extend`` grows them in place.

    The code reads slice coordinates only.  In the spec's ``frame``, the
    pivot columns after the degree column are d - 1 ambient coordinates,
    ``coords``, which together with the degree determine a point of the
    rational span of S; columns are taken in increasing order of
    r_c = max_g(g_c / deg g), the growth of v_c with the degree.  The code
    is the mixed-radix number of those coordinates, each with its own
    radix: a point of degree m has v_c <= m * r_c, and ``radices`` exceed
    that bound for every degree up to a bound B >= max_degree.  So the code
    is injective within a degree, and the code of the sum of two semigroup
    points is the sum of their codes whenever that sum has degree at most B.

    A bitset pays one bit for every code between its points.  Bucket m
    spans at most m * slope + 1 bits, slope the code of (r_c) rounded up,
    about m * B^(d-2) * prod r_c, and holds about ehat * (m / n0)^(d-1)
    points.  So B follows the degrees built, not the cap: past B it grows
    by a factor 1 + 1/(d - 2), which multiplies the spans by 2 to e, and
    the buckets are rebuilt under the new radices (with one slice
    coordinate the code is v_c and B is moot).  Even at B = m the spans
    exceed the points by a factor that stays: about (d - 1)! for a
    polynomial ring, a box around a simplex, and 1 to 2 for the Segre
    product.  So once they would pass ``_BITS_PER_POINT`` bits per point
    enumerated, plus 2^20, the buckets are rebuilt once as sets of codes,
    with radices for every degree below the ceiling.  Either way a point
    costs at most about what it costs in a set, so the cap, which counts
    points, still bounds the memory.  A rebuild encodes the generators and
    the translates asked about again.
    """

    def __init__(self, spec: SemigroupSpec, max_degree: int, cap: int | None = None):
        if max_degree < 0:
            raise DomainError("max_degree must be >= 0")
        self.spec = spec
        self.cap = enumeration_cap(cap)
        self._ceiling = _degree_ceiling(spec, self.cap)
        self._lcm, rise, order, pivots, _ = spec.frame
        # every generator has positive degree, so column 0 is a pivot
        self.coords = tuple(order[c - 1] for c in pivots[1:])
        self._rise = [rise[c] for c in self.coords]
        self.by_degree: list = [1]
        self.count = 1
        # with one slice coordinate the code is v_c, whatever the radix
        bound = max_degree if len(self.coords) > 1 else self._ceiling
        self._recode(min(bound, self._ceiling - 1), dense=True)
        self.extend(max_degree)

    @property
    def max_degree(self) -> int:
        return len(self.by_degree) - 1

    def encode(self, v: Point) -> int:
        code = 0
        for c, radix in zip(reversed(self.coords), reversed(self.radices)):
            code = code * radix + v[c]
        return code

    def _shifts(self, points, q: int) -> list[tuple[int, int]]:
        """(deg, code) of q p for each p in points, as ``_union`` takes them."""
        return [(q * self.spec.degree(p), q * self.encode(p)) for p in points]

    def _recode(self, bound: int, dense: bool) -> None:
        """Rebuild the buckets built so far, as bitsets or as sets, with
        radices for the degrees up to bound."""
        self._bound, self._dense = bound, dense
        self._size = int.bit_count if dense else len  # the points in a bucket
        self.radices = tuple(1 + bound * rise // self._lcm for rise in self._rise)
        slope, place = 0, 1
        for rise, radix in zip(self._rise, self.radices):
            slope, place = slope + place * rise, place * radix
        self._slope = -(-slope // self._lcm)
        self._gens = self._shifts(self.spec.generators, 1)
        # (points, q) asked about by ``outside`` -> their shifts
        self._coded: dict[tuple[tuple[Point, ...], int], list[tuple[int, int]]] = {}
        built, self.by_degree = self.by_degree, [1 if dense else {0}]
        for m in range(1, len(built)):
            self.by_degree.append(self._union(m, self._gens))
        self._bits = sum(bucket.bit_length() for bucket in self.by_degree) if dense else 0

    def _union(self, m: int, translates: list[tuple[int, int]]):
        """The bucket of the union of S_{m - deg} + code over the pairs
        (deg, code) with deg <= m."""
        buckets = self.by_degree
        if self._dense:
            out = 0
            for deg, code in translates:
                if deg <= m:
                    out |= buckets[m - deg] << code
            return out
        out = set()
        for deg, code in translates:
            if deg <= m:
                out.update(map(code.__add__, buckets[m - deg]))
        return out

    def points(self, m: int) -> int:
        """The number of points of degree m <= max_degree."""
        return self._size(self.by_degree[m])

    def outside(self, m: int, points: tuple[Point, ...], q: int) -> int:
        """The number of points of degree m <= max_degree outside the union
        of the translates S_{m - q deg p} + q p over the given points p of
        S: for the generators of a monomial ideal, the colength of its q-th
        Frobenius power in degree m.  Each translate lies in S_m, so no
        point needs a membership probe."""
        coded = self._coded.get((points, q))
        if coded is None:
            coded = self._coded[points, q] = self._shifts(points, q)
        return self._size(self.by_degree[m]) - self._size(self._union(m, coded))

    def degrees(self, max_degree: int) -> Iterator[int]:
        """Yield the degrees 0..max_degree, building each missing bucket just
        before its degree is yielded, so a caller that stops early enumerates
        no further.

        A max_degree at or past the ceiling holds more than cap points, so it
        raises ``CapacityError`` before any bucket is built.  Below it the
        exact count is checked after each degree, before the next one is
        built, and a degree that would take it past the cap is not kept.
        Either error names max_degree, the bound asked for, unless it has
        over 1000 digits.
        """
        if max_degree >= self._ceiling:
            raise self._capacity_error(max_degree)
        for m in range(max_degree + 1):
            if m == len(self.by_degree):
                if m > self._bound:  # dense, with two slice coordinates or more
                    grown = self._bound + self._bound // (len(self.coords) - 1)
                    self._recode(min(max(m, grown), self._ceiling - 1), dense=True)
                limit = _BITS_PER_POINT * self.count + (1 << 20)
                if self._dense and self._bits + m * self._slope + 1 > limit:
                    self._recode(self._ceiling - 1, dense=False)
                bucket = self._union(m, self._gens)
                size = self._size(bucket)
                if self.count + size > self.cap:
                    raise self._capacity_error(max_degree)
                self.by_degree.append(bucket)
                self.count += size
                if self._dense:
                    self._bits += bucket.bit_length()
            yield m

    def extend(self, max_degree: int) -> None:
        """Build the missing buckets up to max_degree (see ``degrees``)."""
        for _ in self.degrees(max_degree):
            pass

    def _capacity_error(self, max_degree: int, prefix: str = "") -> CapacityError:
        bound = "a degree bound of over 1000 digits"
        if max_degree < _UNPRINTED_BOUND:
            bound = f"degree bound {max_degree}"
        return CapacityError(
            f"semigroup enumeration exceeded cap of {self.cap} points "
            f"({prefix}{bound}); raise {_MAX_POINTS_ENV} "
            f"or lower the level; every degree bound from {self._ceiling} "
            "up exceeds this cap"
        )

    def contains(self, v: Point) -> bool:
        """Exact membership for points of degree <= max_degree.

        The code tells points apart only within the span of S, all of
        Z^rank when d = rank, and only while each slice coordinate is below
        its radix; when d < rank, a point off ZS is refused by its lattice
        coordinates."""
        if len(v) != self.spec.rank or any(c < 0 for c in v):
            return False
        degree = self.spec.degree(v)
        if degree > self.max_degree:
            raise DomainError(
                f"membership query at degree {degree} beyond "
                f"enumerated bound {self.max_degree}"
            )
        if any(v[c] >= radix for c, radix in zip(self.coords, self.radices)):
            return False
        if self.spec.dim < self.spec.rank and self.spec.lattice_coords(v) is None:
            return False
        code, bucket = self.encode(v), self.by_degree[degree]
        return bucket >> code & 1 == 1 if self._dense else code in bucket


@dataclass(frozen=True)
class DensityApproximant:
    """f_n and g_n at level n from integer window counts over one
    denominator: windows[M] is the colength summed over window M, f_n is
    windows[M] / den on [M/q, (M+1)/q), and g_n joins the points
    (M/q, windows[M] / den).  The last window is 0."""

    level: int
    q: int
    den: int
    windows: tuple[int, ...]

    def _pieces(self, keys) -> PiecewisePoly:
        """keys[M] / den are the coefficients of the piece on [M/q, (M+1)/q);
        runs of equal keys are merged, and pieces stay integers over den.

        The runs give distinct neighbouring pieces at strictly increasing
        breakpoints, so the canonical form only drops the last run when it
        is zero, as the last window is."""
        breakpoints, pieces, end = [Fraction(0)], [], 0
        for key, run in itertools.groupby(keys):
            end += sum(1 for _ in run)
            breakpoints.append(Fraction(end, self.q))
            pieces.append(Polynomial.over(list(key), self.den))
        if pieces and pieces[-1].is_zero():
            pieces.pop()
            breakpoints.pop()
        return PiecewisePoly(tuple(breakpoints), tuple(pieces))

    @cached_property
    def f_step(self) -> PiecewisePoly:
        return self._pieces((c,) for c in self.windows)

    @cached_property
    def g_interp(self) -> PiecewisePoly:
        # through (M/q, c_M/den) and ((M+1)/q, c_{M+1}/den)
        return self._pieces(
            (c0 * (m + 1) - c1 * m, (c1 - c0) * self.q)
            for m, (c0, c1) in enumerate(itertools.pairwise(self.windows))
        )

    @cached_property
    def integral(self) -> Fraction:
        return Fraction(sum(self.windows), self.den * self.q)

    def interp_sup_distance(self, finer: "DensityApproximant") -> Fraction:
        """sup |g_n - g_{n+1}| with ``finer`` the level n + 1 approximant,
        on integers.  The difference is linear between the points of the
        finer grid x = M'/(pq), so the sup is the largest value there.  With
        M' = pM + r and k = p^(d-1) = finer.den / den, that value is
        |(c_M (p - r) + c_{M+1} r) k - p c'_{M'}| / (p k den)."""
        p, k = finer.q // self.q, finer.den // self.den
        # both window lists padded with zeros past their supports to n + 1
        # and p n entries, covering both
        n = max(len(self.windows), -(-len(finer.windows) // p))
        coarse = self.windows + (0,) * (n + 1 - len(self.windows))
        fine = finer.windows + (0,) * (p * n - len(finer.windows))
        top = max(
            abs((a * (p - r) + b * r) * k - p * c)
            for r in range(p)
            for a, b, c in zip(coarse, coarse[1:], fine[r::p])
        )
        return Fraction(top, p * k * self.den)


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    q: int
    sup_distance: Fraction
    integral: Fraction


class LatticePair:
    """A semigroup ring together with a monomial ideal.

    The pair owns one ``SemigroupEnumeration``, built at construction to the
    largest ideal generator degree and extended, never started afresh, when
    the containment search or a colength count needs a larger degree (an
    extension may rebuild the buckets built so far under new radices, see
    ``SemigroupEnumeration``).  It also keeps the containment exponent and
    each approximant it has built, by level; every public count is exact.
    Colengths by degree need no finite colength; the support bound does.
    """

    def __init__(
        self,
        spec: SemigroupSpec,
        ideal: MonomialIdealSpec,
        cap: int | None = None,
    ):
        self.spec = spec
        self.ideal = ideal
        self._ell: int | None = None
        self._approximants: dict[int, DensityApproximant] = {}
        self._windows = 0  # windows held by the approximants kept
        # every ideal generator must be a semigroup element
        probe = max(spec.degree(a) for a in ideal.generators)
        self._enum = SemigroupEnumeration(spec, probe, cap)
        for a in ideal.generators:
            if not self._enum.contains(a):
                raise ValidationError(
                    f"ideal generator {a} is not a semigroup element"
                )

    # -- support bound ----------------------------------------------------

    def containment_exponent(self) -> int:
        """Least l with J^l contained in I, where J is the irrelevant ideal
        generated by the semigroup generators.

        It exists iff I has finite colength, that is (the minimal primes of
        a monomial ideal being face primes) iff every extremal ray of the
        cone, a minimal one among the least faces through the generators,
        holds an ideal generator.  The search keeps the sums of l generators
        outside I: a sum with a partial sum inside I is inside I."""
        if self._ell is not None:
            return self._ell
        gens, ideal = self.spec.generators, self.ideal.generators
        every, facets = frozenset(range(len(gens))), self.spec.cone[1]
        least = {every.intersection(*(f for f in facets if i in f)) for i in every}
        rays = [r for r in least if not any(f < r for f in least)]
        on = [{f for f, n in facets.items() if not sum(map(mul, n, self.spec.lattice_coords(a)))}
              for a in ideal]  # the facets F that each ideal generator a is on: <n_F, a> = 0
        for ray in sorted(rays, key=lambda r: gens[min(r)]):
            if not any({f for f in facets if ray <= f} <= z for z in on):
                raise ValidationError(
                    f"no ideal generator lies on the extremal ray through {gens[min(ray)]}; "
                    "the colength is infinite"
                )
        outside = {(0,) * self.spec.rank}
        for ell in itertools.count(1):
            self._enum.extend(ell * self.spec.m_mu)
            sums = {tuple(map(sum, zip(w, g))) for w in outside for g in gens}
            outside = {
                v for v in sums
                if not any(self._enum.contains(tuple(c - d for c, d in zip(v, a))) for a in ideal)
            }
            if not outside:
                self._ell = ell
                return ell

    def support_bound(self) -> Fraction:
        """An x-axis bound valid for every level: all approximants vanish at
        and beyond it.  With m_mu the largest generator degree, s the number
        of ideal generators and l the containment exponent, colengths vanish
        in all ambient degrees >= m_mu*l*s*q, hence the window index bound
        ceil(m_mu*l*s / n0) works for every q simultaneously.

        The bound is a priori and often s times too far.  It is the loop
        limit of the colength count and the self-check on its last window,
        not the range counted: counting stops at the first run of m_mu zero
        degrees (see ``_counted``)."""
        s = len(self.ideal.generators)
        ell = self.containment_exponent()
        return Fraction(-(-self.spec.m_mu * ell * s // self.spec.n0))

    # -- colengths ---------------------------------------------------------

    def _check_q(self, q: int) -> None:
        if q < 1:
            raise ValidationError(f"q must be a positive power of p, got {q}")
        t = q
        while t % self.spec.p == 0:
            t //= self.spec.p
        if t != 1:
            raise ValidationError(
                f"q = {q} is not a power of the configured characteristic "
                f"p = {self.spec.p}"
            )

    def colength_by_degree(self, q: int, m: int) -> int:
        self._check_q(q)
        if m < 0:
            return 0
        self._enum.extend(m)
        return self._enum.outside(m, self.ideal.generators, q)

    def colengths_up_to(self, q: int, max_m: int) -> list[int]:
        """Colength of the q-th Frobenius power in each degree 0..max_m
        (see ``_counted``)."""
        counts = self._counted(q, max_m)
        return counts + [0] * (max_m + 1 - len(counts))

    def _counted(self, q: int, max_m: int) -> list[int]:
        """The colengths of ``colengths_up_to`` in the degrees counted.

        Counting stops after the first run of m_mu consecutive degrees with
        colength 0, and the degrees after it are 0: a point of degree
        D >= m0 + m_mu is y + g for a generator g with m0 <= deg y < D, so
        zero colength on [m0, m0 + m_mu) gives zero colength in every degree
        >= m0, by induction on D.  The enumeration is extended only as far as
        the count goes, but a max_m at or past the degree ceiling still fails
        before any bucket is built."""
        self._check_q(q)
        counts, zeros = [], 0
        for m in self._enum.degrees(max_m):
            counts.append(self._enum.outside(m, self.ideal.generators, q))
            zeros = 0 if counts[m] else zeros + 1
            if zeros == self.spec.m_mu:
                break
        return counts

    # -- approximants ------------------------------------------------------

    def build_approximant(self, level: int) -> DensityApproximant:
        """The level's approximant, built once; a level that raised is not
        kept, so asking again raises again."""
        if level in self._approximants:
            return self._approximants[level]
        if level < 1:
            raise DomainError("level must be >= 1")
        # _counted refuses a bound past the ceiling by printing it; an
        # unprinted one is refused here, by the level, first by the bound's
        # least value q >= 2^(level * (bit_length(p) - 1)) before q is built
        huge = max(self._enum._ceiling, _UNPRINTED_BOUND)
        if level * (self.spec.p.bit_length() - 1) >= (huge - 1).bit_length():
            raise self._enum._capacity_error(huge, f"level {level}, ")
        q = self.spec.p ** level
        n0 = self.spec.n0
        bound = self.support_bound()
        max_window = int(bound * q)  # windows max_window.. are all zero
        max_degree = (max_window + 1) * n0 - 1
        if max_degree >= huge:
            raise self._enum._capacity_error(max_degree, f"level {level}, ")
        # the windows of the degrees counted; the degrees after them, up to
        # the bound, which may be s times too far, are 0
        counts = self._counted(q, max_degree)
        windows = [sum(counts[i : i + n0]) for i in range(0, len(counts), n0)]
        den = q ** (self.spec.dim - 1)
        if len(counts) == max_degree + 1 and windows[-1]:
            raise InternalError(
                f"window {max_window} at q={q} should vanish by the support "
                f"bound {bound} but counted {Fraction(windows[-1], den)}"
            )
        # kept with one zero window past the support
        while windows and not windows[-1]:
            windows.pop()
        windows.append(0)
        approx = self._approximants[level] = DensityApproximant(level, q, den, tuple(windows))
        self._windows += len(windows)
        return approx

    def convergence_report(
        self,
        levels: list[int],
        reference: PiecewisePoly | None = None,
    ) -> list[ConvergenceRow]:
        """Sup distances of g_n to the reference, or to g_{n+1} when absent."""
        levels = sorted(set(levels))
        if not levels:
            raise DomainError("need at least one level")
        needed = set(levels)
        if reference is None:
            needed.update(n + 1 for n in levels)
        approx = {n: self.build_approximant(n) for n in sorted(needed)}
        rows = []
        for n in levels:
            if reference is None:
                sup = approx[n].interp_sup_distance(approx[n + 1])
            else:
                sup = pw_sup_distance(approx[n].g_interp, reference)
            rows.append(
                ConvergenceRow(
                    level=n,
                    q=self.spec.p ** n,
                    sup_distance=sup,
                    integral=approx[n].integral,
                )
            )
        return rows


# (spec, ideal, resolved cap) -> its pair, least recently used first: a
# lookup pops its key and inserts it again at the end
_PAIRS: dict[tuple[SemigroupSpec, MonomialIdealSpec, int], LatticePair] = {}


def lattice_pair(spec: SemigroupSpec, ideal: MonomialIdealSpec, cap: int | None = None) -> LatticePair:
    """The process-wide ``LatticePair`` of (spec, ideal) under the point cap
    that ``enumeration_cap(cap)`` resolves, built on first use.

    A pair whose constructor raises is not kept.  Each lookup then drops
    least recently used pairs, this one last, while together they hold more
    than ``DEFAULT_MAX_POINTS`` points and windows (see ``_held``).  The
    pair returned may then grow up to its own cap, as a fresh pair would,
    so the kept pairs add at most ``DEFAULT_MAX_POINTS`` to what the job in
    hand holds.  Only a process that runs many jobs gains: each
    ``hkdensity`` command starts with none kept."""
    try:
        key = (spec, ideal, enumeration_cap(cap))
    except ValidationError:
        # a fresh pair checks its ideal's degrees before the cap and raises
        return LatticePair(spec, ideal, cap)
    pair = _PAIRS.pop(key, None)
    if pair is None:
        pair = LatticePair(spec, ideal, key[2])
    _PAIRS[key] = pair
    held = sum(map(_held, _PAIRS.values()))
    while held > DEFAULT_MAX_POINTS:
        held -= _held(_PAIRS.pop(next(iter(_PAIRS))))
    return pair


def _held(pair: LatticePair) -> int:
    """What a kept pair holds: the points of its enumeration and the
    windows of its approximants, each window with at most one piece of f_n
    and one of g_n."""
    return pair._enum.count + pair._windows
