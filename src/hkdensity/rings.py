"""Hilbert functions of N-graded rings, and the leading density envelope.

Three ring descriptions are supported: graded complete intersections
(generator and relation degrees, Hilbert series prod(1-t^c)/prod(1-t^e)),
affine semigroup rings (delegating counts to the lattice module), and
Veronese views of either.  All expose the same memoized oracle interface.

``hilbert_density`` returns the envelope F(x) = ehat * x^(d-1): the limit of
the degree-windowed, q-normalized Hilbert function of the ring itself.  In
window-index units, the sum of lengths over the n0 consecutive degrees of
window M grows like ehat * M^(d-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

from .errors import DomainError, InputError, ValidationError
from .exact import PiecewisePoly
from .lattice import SemigroupSpec, enumerate_semigroup


@dataclass(frozen=True)
class CompleteIntersectionRing:
    """Graded CI presentation: generators in degrees e_i, a regular sequence
    of relations in degrees c_j.  Dimension is #gens - #rels."""

    gen_degrees: tuple[int, ...]
    rel_degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.gen_degrees or any(e <= 0 for e in self.gen_degrees):
            raise ValidationError("generator degrees must be positive")
        if any(c <= 0 for c in self.rel_degrees):
            raise ValidationError("relation degrees must be positive")
        if len(self.rel_degrees) >= len(self.gen_degrees):
            raise ValidationError(
                "a complete intersection needs fewer relations than generators"
            )

    @staticmethod
    def build(gen_degrees, rel_degrees=()) -> "CompleteIntersectionRing":
        return CompleteIntersectionRing(tuple(gen_degrees), tuple(rel_degrees))

    @property
    def dim(self) -> int:
        return len(self.gen_degrees) - len(self.rel_degrees)

    def to_json(self) -> dict:
        return {
            "type": "ci",
            "gens": list(self.gen_degrees),
            "rels": list(self.rel_degrees),
        }


@dataclass(frozen=True)
class SemigroupRing:
    """A semigroup ring, graded by the weight vector of its lattice spec."""

    spec: SemigroupSpec

    @property
    def dim(self) -> int:
        return self.spec.dim


@dataclass(frozen=True)
class VeroneseRing:
    """Degree-n Veronese: keeps only the components in degrees divisible by
    the factor, reindexed so component m reads base component m * factor."""

    base: "RingSpec"
    factor: int

    def __post_init__(self):
        if self.factor < 1:
            raise ValidationError("Veronese factor must be >= 1")

    @property
    def dim(self) -> int:
        return self.base.dim


RingSpec = CompleteIntersectionRing | SemigroupRing | VeroneseRing


class HilbertFunction:
    """Memoized length oracle m -> dim_k R_m."""

    def __init__(self, extend, d: int, n0: int):
        self._extend = extend  # extend(values: list[int], upto: int) -> None
        self._values: list[int] = []
        self.dim = d
        self.n0 = n0

    def __call__(self, m: int) -> int:
        if m < 0:
            return 0
        if m >= len(self._values):
            self._extend(self._values, max(m, 2 * len(self._values) + 16))
        return self._values[m]

    def window_sum(self, window: int) -> int:
        """Sum of lengths over the n0 degrees of the given window index."""
        return sum(self(window * self.n0 + j) for j in range(self.n0))


def _ci_extender(spec: CompleteIntersectionRing):
    def extend(values: list[int], upto: int) -> None:
        # numerator prod(1 - t^c) has few terms; divide by each (1 - t^e)
        # via the prefix recurrence a[m] += a[m - e].
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


def _semigroup_extender(spec: SemigroupSpec):
    def extend(values: list[int], upto: int) -> None:
        # Each extension enumerates afresh and keeps only the bucket sizes.
        # The HilbertFunction lives in the process-wide hilbert_function
        # cache, so buckets kept for in-place extension would live as long as
        # the process: on the closed-form benchmark workload (seed 1) that
        # took peak RSS from 37.8 to 1371 MiB, while rebuilding per extension
        # stays at 37.8 MiB.  The doubling in HilbertFunction.__call__ bounds
        # the rebuild cost.
        enum = enumerate_semigroup(spec, upto)
        values[:] = [len(enum.by_degree[m]) for m in range(upto + 1)]

    return extend


@lru_cache(maxsize=None)
def hilbert_function(spec: RingSpec) -> HilbertFunction:
    if isinstance(spec, CompleteIntersectionRing):
        if spec.dim < 1:
            raise ValidationError("dimension must be >= 1")
        n0 = gcd(*spec.gen_degrees)
        h = HilbertFunction(_ci_extender(spec), spec.dim, n0)
        _verify_gcd(h, n0, _gcd_window(spec))
        return h
    if isinstance(spec, SemigroupRing):
        return HilbertFunction(
            _semigroup_extender(spec.spec), spec.spec.dim, spec.spec.n0
        )
    if isinstance(spec, VeroneseRing):
        base = hilbert_function(spec.base)
        n0 = base.n0 // gcd(base.n0, spec.factor)

        def extend(values: list[int], upto: int) -> None:
            values[:] = [base(m * spec.factor) for m in range(upto + 1)]

        h = HilbertFunction(extend, base.dim, n0)
        _verify_gcd(h, n0, _gcd_window(spec))
        return h
    raise InputError(f"unknown ring spec {type(spec).__name__}")


def _gcd_window(spec: RingSpec) -> int:
    if isinstance(spec, CompleteIntersectionRing):
        mx = max(spec.gen_degrees)
        return max(2 * mx * mx, 2 * (sum(spec.gen_degrees) + sum(spec.rel_degrees)), 64)
    if isinstance(spec, VeroneseRing):
        return max(1, _gcd_window(spec.base) // spec.factor + 2)
    return 64


def _verify_gcd(h: HilbertFunction, n0: int, window: int) -> None:
    got = 0
    for m in range(1, window + 1):
        if h(m):
            got = gcd(got, m)
    if got != n0:
        raise ValidationError(
            f"occupied degrees up to {window} have gcd {got}, expected {n0}"
        )


def _degreewise_leading(spec: RingSpec) -> Fraction | None:
    """C such that dim R_m ~ C * m^(d-1) along occupied degrees, when a
    closed form is available (complete intersections and Veronese views of
    them); None otherwise."""
    if isinstance(spec, CompleteIntersectionRing):
        n0 = gcd(*spec.gen_degrees)
        num = prod(spec.rel_degrees) if spec.rel_degrees else 1
        return Fraction(n0 * num, factorial(spec.dim - 1) * prod(spec.gen_degrees))
    if isinstance(spec, VeroneseRing):
        c = _degreewise_leading(spec.base)
        if c is None:
            return None
        return c * spec.factor ** (spec.dim - 1)
    return None


def _degree_period(spec: RingSpec) -> int:
    """A period P: on each residue class mod P, the length function agrees
    with a polynomial for all large degrees."""
    if isinstance(spec, CompleteIntersectionRing):
        return lcm(*spec.gen_degrees)
    if isinstance(spec, SemigroupRing):
        return lcm(*(spec.spec.degree(g) for g in spec.spec.generators))
    p = _degree_period(spec.base)
    return p // gcd(p, spec.factor)


def leading_coefficient(spec: RingSpec) -> Fraction:
    """ehat: window sums of the Hilbert function grow like ehat * M^(d-1)."""
    h = hilbert_function(spec)
    d = h.dim
    if d < 2:
        raise DomainError("density envelope needs dimension >= 2")
    c = _degreewise_leading(spec)
    if c is not None:
        return c * h.n0 ** (d - 1)
    # no closed form: extract the leading coefficient of the eventually
    # quasi-polynomial window sum by (d-1)-th finite differences taken at
    # period-aligned points, cross-checked at a shifted base point
    p = _degree_period(spec)
    step = p // gcd(p, h.n0)
    denom = factorial(d - 1) * step ** (d - 1)

    def alpha_at(base: int) -> Fraction:
        vals = [h.window_sum(base + k * step) for k in range(d)]
        diff = sum(
            (-1) ** (d - 1 - k) * comb(d - 1, k) * v for k, v in enumerate(vals)
        )
        return Fraction(diff, denom)

    base = step * max(2, -(-32 // step))
    for _ in range(2):
        a1 = alpha_at(base)
        a2 = alpha_at(base + step)
        if a1 == a2 and a1 > 0:
            break
        base *= 4
    else:
        raise ValidationError(
            f"window sums not yet quasi-polynomial near index {base}: "
            f"finite-difference slopes {a1} vs {a2}"
        )
    tol = Fraction(1, 50)
    M = 2 * base
    fit_prev = Fraction(h.window_sum(M), M ** (d - 1))
    for _ in range(8):
        M *= 2
        fit = Fraction(h.window_sum(M), M ** (d - 1))
        if fit > 0 and abs(fit_prev - fit) <= tol * fit:
            break
        fit_prev = fit
    else:
        raise ValidationError(
            f"windowed density fits disagree beyond 2% up to index {M}: "
            f"{fit_prev} vs {fit}"
        )
    if abs(fit - a1) > tol * a1:
        raise ValidationError(
            f"windowed fit {fit} disagrees with finite-difference slope {a1}"
        )
    return a1


def hilbert_density(spec: RingSpec) -> PiecewisePoly:
    """The envelope F(x) = ehat * x^(d-1) on [0, oo)."""
    h = hilbert_function(spec)
    return PiecewisePoly.monomial_tail(leading_coefficient(spec), h.dim - 1)


def parse_ring_json(data: dict) -> RingSpec:
    if not isinstance(data, dict):
        raise InputError("ring JSON must be an object")
    body = data.get("ring", data)
    kind = body.get("type")
    if kind == "ci":
        try:
            return CompleteIntersectionRing.build(body["gens"], body.get("rels", []))
        except KeyError as exc:
            raise InputError(f"ci ring JSON missing key {exc}") from None
    if kind == "semigroup":
        sg = body.get("semigroup")
        if sg is None:
            raise InputError("semigroup ring JSON needs an inline 'semigroup' object")
        return SemigroupRing(SemigroupSpec.from_json(sg))
    if kind == "veronese":
        try:
            return VeroneseRing(parse_ring_json(body["base"]), body["factor"])
        except KeyError as exc:
            raise InputError(f"veronese ring JSON missing key {exc}") from None
    raise InputError(f"unknown ring type {kind!r}")
