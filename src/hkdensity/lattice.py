"""Affine semigroup rings as lattice-point sets, and the empirical density path.

A ``SemigroupSpec`` is a finitely generated subsemigroup S of N^rank graded
by a nonnegative weight vector under which every generator has positive
degree.  ``SemigroupEnumeration`` holds one bucket S_m per degree m, a set of
points each encoded as one integer, built in degree order as
S_m = U_g (S_{m - deg g} + g) and extended in place when a larger degree is
needed.

Monomial ideals are given by their generators as lattice points.  The
degree-m part of the q-th Frobenius power I^[q] is the union of the
translates S_{m - q deg a} + q a over the ideal generators a, which all lie in
S_m, so the colength in degree m is |S_m| minus the size of that union: an
exact count, with no per-point membership probe.

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
straight lines, and Fractions are made only for output pieces and the
integral.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm, prod
from typing import Iterator

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


def _eliminate(rows) -> tuple[list[int], int]:
    """Row-reduce an integer matrix fraction-free (Bareiss, Math. Comp. 22,
    1968): the pivot columns, which keep the rank of the rows, and the
    determinant if the matrix is square.  Each division by the previous
    pivot is exact, since every entry it makes is a minor of the input."""
    rows = [list(r) for r in rows]
    pivots, sign, prev = [], 1, 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        r = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        if r != top:
            rows[top], rows[r] = rows[r], rows[top]
            sign = -sign
        pivot = rows[top][col]
        for r in range(top + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(pivot * a - f * b) // prev for a, b in zip(rows[r], rows[top])]
        prev = pivot
        pivots.append(col)
    return pivots, sign * prev if len(pivots) == len(rows) else 0


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
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

    @property
    def n0(self) -> int:
        """gcd of occupied degrees; degrees of semigroup elements are additive,
        so this is just the gcd of the generator degrees."""
        out = 0
        for g in self.generators:
            out = gcd(out, self.degree(g))
        return out

    @cached_property
    def m_mu(self) -> int:
        """The largest generator degree."""
        return max(self.degree(g) for g in self.generators)

    @cached_property
    def dim(self) -> int:
        """Rank of the lattice spanned by the generators (Krull dimension)."""
        return len(_eliminate(self.generators)[0])

    @cached_property
    def cone(self) -> tuple[list[Point], list[set[frozenset[int]]]]:
        """The cone R>=0 S: the generators projected onto d = dim coordinates
        that keep their rank, and faces[k], its faces of rank k, each the set
        of indices of the generators on it.  Facets are cut out by cofactor
        normals of d - 1 generators; the faces of a face of rank k are its
        intersections with facets that have rank k - 1."""
        pivots, _ = _eliminate(self.generators)
        gens = [tuple(g[c] for c in pivots) for g in self.generators]
        d = len(pivots)
        facets = set()
        for sub in itertools.combinations(gens, d - 1):
            normal = [
                (-1) ** j * _eliminate([v[:j] + v[j + 1 :] for v in sub])[1]
                for j in range(d)
            ]
            side = [sum(a * b for a, b in zip(normal, g)) for g in gens]
            if any(normal) and (min(side) >= 0 or max(side) <= 0):
                facets.add(frozenset(i for i, s in enumerate(side) if s == 0))
        faces = [set() for _ in range(d)] + [{frozenset(range(len(gens)))}]
        for k in range(d, 1, -1):
            cuts = {face & facet for face in faces[k] for facet in facets}
            faces[k - 1] = {
                c for c in cuts if len(_eliminate([gens[i] for i in c])[0]) == k - 1
            }
        return gens, faces

    def ehat(self) -> Fraction:
        """The Hilbert function in degree M*n0 grows like ehat * M^(d-1).

        ehat is the volume of the degree slice of the cone in the lattice ZS
        (Bruns-Gubeladze, Polytopes, Rings, and K-Theory, ch. 6), the same
        for S as for its normalization.  Over a pulling triangulation into
        simplicial cones sigma of generators it is
        n0^d / (d-1)! * sum |det sigma| / (index * prod deg g), with index
        the gcd of the d x d minors (the covolume of ZS).
        """
        gens, faces = self.cone
        d = len(gens[0])
        degrees = [self.degree(g) for g in self.generators]

        def simplices(face: frozenset[int], k: int) -> list[tuple[int, ...]]:
            apex = min(face)
            if k == 1:
                return [(apex,)]
            subs = [sub for sub in faces[k - 1] if sub <= face and apex not in sub]
            return [s + (apex,) for sub in subs for s in simplices(sub, k - 1)]

        den = lcm(*degrees) ** d  # a multiple of every prod deg g below
        volume = sum(
            abs(_eliminate([gens[i] for i in s])[1]) * den // prod(degrees[i] for i in s)
            for s in simplices(frozenset(range(len(gens))), d)
        )
        index = gcd(*(_eliminate(m)[1] for m in itertools.combinations(gens, d)))
        return Fraction(self.n0 ** d * volume, factorial(d - 1) * index * den)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "gens": [list(g) for g in self.generators],
            "weights": list(self.weights),
            "p": self.p,
        }

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

    def to_json(self) -> dict:
        return {"gens": [list(g) for g in self.generators]}

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
    for which that count exceeds cap.
    """
    d = spec.dim
    lo, hi = 0, cap  # C(cap + d, d) > cap for every d >= 1
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid + d, d) > cap:
            hi = mid
        else:
            lo = mid + 1
    return lo * spec.m_mu


class SemigroupEnumeration:
    """All semigroup points of degree <= max_degree, one bucket per degree.

    ``by_degree[m]`` is the set of points of degree m, each stored as the
    integer sum(v_i * radix**i).  Buckets are built in degree order as
    S_m = U_g (S_{m - deg g} + g), and ``extend`` grows them in place.

    The radix is fixed once, from the cap.  A point of degree m has
    v_i <= m * max_g(g_i / deg g), and the radix exceeds that bound at the
    degree ceiling, which no enumeration within the cap reaches (see
    ``_degree_ceiling``).  So the sum of the codes of two semigroup points is
    the code of their vector sum whenever that sum has degree at most the
    ceiling, and ``extend`` never needs a wider radix.
    """

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

    def encode(self, v: Point) -> int:
        code = 0
        for c in reversed(v):
            code = code * self.radix + c
        return code

    def degrees(self, max_degree: int) -> Iterator[int]:
        """Yield the degrees 0..max_degree, building each missing bucket just
        before its degree is yielded, so a caller that stops early enumerates
        no further.

        A max_degree at or past the ceiling holds more than cap points, so it
        raises ``CapacityError`` before any bucket is built.  Below it the
        exact count is checked after each degree, before the next one is
        built, and a degree that would take it past the cap is not kept.
        Either error names max_degree, the bound asked for.
        """
        if max_degree >= self._ceiling:
            raise self._capacity_error(max_degree)
        buckets = self.by_degree
        for m in range(max_degree + 1):
            if m == len(buckets):
                bucket: set[int] = set()
                for gdeg, code in self._gens:
                    if gdeg <= m:
                        bucket.update(map(code.__add__, buckets[m - gdeg]))
                if self.count + len(bucket) > self.cap:
                    raise self._capacity_error(max_degree)
                buckets.append(bucket)
                self.count += len(bucket)
            yield m

    def extend(self, max_degree: int) -> None:
        """Build the missing buckets up to max_degree (see ``degrees``)."""
        for _ in self.degrees(max_degree):
            pass

    def _capacity_error(self, max_degree: int) -> CapacityError:
        return CapacityError(
            f"semigroup enumeration exceeded cap of {self.cap} points "
            f"(degree bound {max_degree}); raise {_MAX_POINTS_ENV} "
            f"or lower the level; every degree bound from {self._ceiling} "
            "up exceeds this cap"
        )

    def contains(self, v: Point) -> bool:
        """Exact membership for points of degree <= max_degree."""
        if len(v) != self.spec.rank or any(c < 0 for c in v):
            return False
        degree = self.spec.degree(v)
        if degree > self.max_degree:
            raise DomainError(
                f"membership query at degree {degree} beyond "
                f"enumerated bound {self.max_degree}"
            )
        # every point built has coordinates below the radix
        if any(c >= self.radix for c in v):
            return False
        return self.encode(v) in self.by_degree[degree]


def enumerate_semigroup(
    spec: SemigroupSpec, max_degree: int, cap: int | None = None
) -> SemigroupEnumeration:
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    return SemigroupEnumeration(spec, max_degree, enumeration_cap(cap))


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
        runs of equal keys are merged, and pieces stay integers over den."""
        breakpoints, pieces, end = [0], [], 0
        for key, run in itertools.groupby(keys):
            end += sum(1 for _ in run)
            breakpoints.append(Fraction(end, self.q))
            pieces.append(Polynomial.over(list(key), self.den))
        return PiecewisePoly.build(breakpoints, pieces)

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


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    q: int
    sup_distance: Fraction
    integral: Fraction


class LatticePair:
    """A semigroup ring together with a monomial ideal.

    The pair owns one ``SemigroupEnumeration``, built at construction to the
    largest ideal generator degree and extended in place, never rebuilt, when
    the containment search or a colength count needs a larger degree.  It
    also caches the containment exponent; every public count is exact.
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
        self.cap = enumeration_cap(cap)
        self._ell: int | None = None
        # every ideal generator must be a semigroup element
        probe = max(spec.degree(a) for a in ideal.generators)
        self._enum = SemigroupEnumeration(spec, probe, self.cap)
        for a in ideal.generators:
            if not self._enum.contains(a):
                raise ValidationError(
                    f"ideal generator {a} is not a semigroup element"
                )
        self._ideal_codes = [
            (spec.degree(a), self._enum.encode(a)) for a in ideal.generators
        ]

    # -- support bound ----------------------------------------------------

    def _in_ideal(self, v: Point) -> bool:
        for a in self.ideal.generators:
            w = tuple(c - d for c, d in zip(v, a))
            if all(c >= 0 for c in w) and self._enum.contains(w):
                return True
        return False

    def containment_exponent(self) -> int:
        """Least l with J^l contained in I, where J is the irrelevant ideal
        generated by the semigroup generators.

        It exists iff I has finite colength, that is (the minimal primes of
        a monomial ideal being face primes) iff every extremal ray of the
        cone holds an ideal generator.  The search keeps the sums of l
        generators outside I: a sum with a partial sum inside I is inside I.
        """
        if self._ell is not None:
            return self._ell
        gens = self.spec.generators
        _, faces = self.spec.cone
        for g in sorted(gens[min(ray)] for ray in faces[1]):
            if all(len(_eliminate([g, a])[0]) > 1 for a in self.ideal.generators):
                raise ValidationError(
                    f"no ideal generator lies on the extremal ray through {g}; "
                    "the colength is infinite"
                )
        outside = {(0,) * self.spec.rank}
        for ell in itertools.count(1):
            self._enum.extend(ell * self.spec.m_mu)
            sums = {tuple(map(sum, zip(w, g))) for w in outside for g in gens}
            outside = {v for v in sums if not self._in_ideal(v)}
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
        degrees (see ``colengths_up_to``)."""
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

    def _colength(self, q: int, m: int) -> int:
        """|S_m| minus the points of degree m in the q-th Frobenius power of
        the ideal, which are the union of the translates
        S_{m - q deg a} + q a over the ideal generators a.  Each translate
        lies in S_m, so no point needs a membership probe."""
        buckets = self._enum.by_degree
        translates = [
            (buckets[m - q * deg], q * code)
            for deg, code in self._ideal_codes
            if q * deg <= m
        ]
        if len(translates) == 1:
            return len(buckets[m]) - len(translates[0][0])
        inside: set[int] = set()
        for bucket, shift in translates:
            inside.update(map(shift.__add__, bucket))
        return len(buckets[m]) - len(inside)

    def colength_by_degree(self, q: int, m: int) -> int:
        self._check_q(q)
        if m < 0:
            return 0
        self._enum.extend(m)
        return self._colength(q, m)

    def colengths_up_to(self, q: int, max_m: int) -> list[int]:
        """Colength of the q-th Frobenius power in each degree 0..max_m.

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
            counts.append(self._colength(q, m))
            zeros = 0 if counts[m] else zeros + 1
            if zeros == self.spec.m_mu:
                break
        return counts + [0] * (max_m + 1 - len(counts))

    # -- approximants ------------------------------------------------------

    def build_approximant(self, level: int) -> DensityApproximant:
        if level < 1:
            raise DomainError("level must be >= 1")
        q = self.spec.p ** level
        n0 = self.spec.n0
        bound = self.support_bound()
        max_window = int(bound * q)  # windows max_window.. are all zero
        max_degree = (max_window + 1) * n0 - 1
        counts = self.colengths_up_to(q, max_degree)
        windows = tuple(sum(counts[i : i + n0]) for i in range(0, len(counts), n0))
        den = q ** (self.spec.dim - 1)
        if windows[-1]:
            raise InternalError(
                f"window {max_window} at q={q} should vanish by the support "
                f"bound {bound} but counted {Fraction(windows[-1], den)}"
            )
        return DensityApproximant(level, q, den, windows)

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
            target = reference if reference is not None else approx[n + 1].g_interp
            rows.append(
                ConvergenceRow(
                    level=n,
                    q=self.spec.p ** n,
                    sup_distance=pw_sup_distance(approx[n].g_interp, target),
                    integral=approx[n].integral,
                )
            )
        return rows
