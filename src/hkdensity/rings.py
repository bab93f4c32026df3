"""Hilbert functions of N-graded rings, and the leading density envelope.

Three ring descriptions are supported: graded complete intersections
(generator and relation degrees, Hilbert series prod(1-t^c)/prod(1-t^e)),
affine semigroup rings (delegating counts to the lattice module), and
Veronese views of either.  All expose the same memoized oracle interface.

``hilbert_density`` returns the envelope F(x) = ehat * x^(d-1): the limit of
the degree-windowed, q-normalized Hilbert function of the ring itself.  In
window-index units, the sum of lengths over the n0 consecutive degrees of
window M grows like ehat * M^(d-1).  ehat is exact: the Hilbert series gives
it for complete intersections, a cone volume (``SemigroupSpec.ehat``) for
semigroup rings, and a Veronese view scales the value of its base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

from .errors import DomainError, InputError, ValidationError
from .exact import PiecewisePoly, json_get, json_int, json_ints, json_keys
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
        # Each extension enumerates afresh and keeps only the bucket sizes:
        # the HilbertFunction lives in the process-wide hilbert_function
        # cache, and buckets kept there would live as long as the process.
        # The doubling in HilbertFunction.__call__ bounds the rebuild cost.
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
        # over a semigroup ring n0 is exact: the occupied degrees are a
        # submonoid of N holding every large multiple of its gcd
        bottom = spec.base
        while isinstance(bottom, VeroneseRing):
            bottom = bottom.base
        if not isinstance(bottom, SemigroupRing):
            _verify_gcd(h, n0, _gcd_window(spec))
        return h
    raise InputError(f"unknown ring spec {type(spec).__name__}")


def _gcd_window(spec: CompleteIntersectionRing | VeroneseRing) -> int:
    if isinstance(spec, VeroneseRing):
        return max(1, _gcd_window(spec.base) // spec.factor + 2)
    mx = max(spec.gen_degrees)
    return max(2 * mx * mx, 2 * (sum(spec.gen_degrees) + sum(spec.rel_degrees)), 64)


def _verify_gcd(h: HilbertFunction, n0: int, window: int) -> None:
    got = 0
    for m in range(1, window + 1):
        if h(m):
            got = gcd(got, m)
    if got != n0:
        raise ValidationError(
            f"occupied degrees up to {window} have gcd {got}, expected {n0}"
        )


def _degreewise_leading(spec: RingSpec) -> Fraction:
    """C such that dim R_m ~ C * m^(d-1) along occupied degrees."""
    if isinstance(spec, CompleteIntersectionRing):
        n0 = gcd(*spec.gen_degrees)
        num = prod(spec.rel_degrees) if spec.rel_degrees else 1
        return Fraction(n0 * num, factorial(spec.dim - 1) * prod(spec.gen_degrees))
    if isinstance(spec, SemigroupRing):
        return spec.spec.ehat() / spec.spec.n0 ** (spec.dim - 1)
    return _degreewise_leading(spec.base) * spec.factor ** (spec.dim - 1)


def leading_coefficient(spec: RingSpec) -> Fraction:
    """ehat: window sums of the Hilbert function grow like ehat * M^(d-1)."""
    h = hilbert_function(spec)
    if h.dim < 2:
        raise DomainError("density envelope needs dimension >= 2")
    return _degreewise_leading(spec) * h.n0 ** (h.dim - 1)


def hilbert_density(spec: RingSpec) -> PiecewisePoly:
    """The envelope F(x) = ehat * x^(d-1) on [0, oo)."""
    h = hilbert_function(spec)
    return PiecewisePoly.monomial_tail(leading_coefficient(spec), h.dim - 1)


def parse_ring_json(data: dict) -> RingSpec:
    body = json_get(data, "ring", "ring JSON", data)
    if body is not data:  # the {"ring": {...}} wrapper holds nothing else
        json_keys(data, "ring JSON", "ring")
    kind = json_get(body, "type", "ring JSON")
    if kind == "ci":
        json_keys(body, "ci ring", "type gens rels")
        return CompleteIntersectionRing(
            json_ints(json_get(body, "gens", "ci ring"), "ci ring 'gens'"),
            json_ints(json_get(body, "rels", "ci ring", []), "ci ring 'rels'"),
        )
    if kind == "semigroup":
        json_keys(body, "semigroup ring", "type semigroup")
        return SemigroupRing(SemigroupSpec.from_json(json_get(body, "semigroup", "semigroup ring")))
    if kind == "veronese":
        json_keys(body, "veronese ring", "type base factor")
        return VeroneseRing(
            parse_ring_json(json_get(body, "base", "veronese ring")),
            json_int(json_get(body, "factor", "veronese ring"), "veronese ring 'factor'"),
        )
    raise InputError(f"unknown ring type {kind!r}")
