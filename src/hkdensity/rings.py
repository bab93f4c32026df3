"""Hilbert functions of N-graded rings, and the envelope coefficient ehat.

Three ring descriptions are supported: graded complete intersections
(generator and relation degrees, Hilbert series prod(1-t^c)/prod(1-t^e)),
affine semigroup rings (a ``lattice.SemigroupSpec`` is the ring itself),
and Veronese views of either.  Each kind answers for itself: ``dim``, ``n0``,
``ehat()``, ``hilbert(upto)`` (dim_k R_m for m = 0..upto) and
``gcd_window()``, the degrees over which ``hilbert_function`` checks that
the occupied degrees have gcd n0 (None where n0 is exact).
``hilbert_function`` wraps a ring in a memoized oracle, one per ring.

``leading_coefficient`` returns ehat of the envelope F(x) = ehat * x^(d-1),
exactly: from the Hilbert series of a complete intersection, a cone volume
(``SemigroupSpec.ehat``) for a semigroup ring, scaled from the base for a
Veronese view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

from .errors import DomainError, InputError, ValidationError
from .exact import json_get, json_int, json_ints, json_keys
from .lattice import SemigroupSpec


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

    @property
    def n0(self) -> int:
        return gcd(*self.gen_degrees)

    def ehat(self) -> Fraction:
        return Fraction(
            self.n0**self.dim * prod(self.rel_degrees),
            factorial(self.dim - 1) * prod(self.gen_degrees),
        )

    def hilbert(self, upto: int) -> list[int]:
        # numerator prod(1 - t^c) has few terms; divide by each (1 - t^e)
        # via the prefix recurrence a[m] += a[m - e].
        coeffs = [0] * (upto + 1)
        coeffs[0] = 1
        for c in self.rel_degrees:
            for m in range(upto, c - 1, -1):
                coeffs[m] -= coeffs[m - c]
        for e in self.gen_degrees:
            for m in range(e, upto + 1):
                coeffs[m] += coeffs[m - e]
        for m, v in enumerate(coeffs):
            if v < 0:
                raise ValidationError(
                    f"Hilbert series coefficient {v} < 0 at degree {m}: "
                    "relation degrees do not describe a regular sequence"
                )
        return coeffs

    def gcd_window(self) -> int | None:
        # with no relations n0 is exact: the occupied degrees are the monoid
        # generated by the e_i, which holds every large multiple of its gcd,
        # and 1/prod(1 - t^e) has no negative coefficient to screen for
        if not self.rel_degrees:
            return None
        mx = max(self.gen_degrees)
        return max(2 * mx * mx, 2 * (sum(self.gen_degrees) + sum(self.rel_degrees)), 64)


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

    @property
    def n0(self) -> int:
        return self.base.n0 // gcd(self.base.n0, self.factor)

    def ehat(self) -> Fraction:
        # along occupied degrees dim R_m ~ ehat / n0^(d-1) * m^(d-1), and
        # degree m of the view is degree m * factor of the base
        scale = Fraction(self.factor, gcd(self.base.n0, self.factor))
        return self.base.ehat() * scale ** (self.dim - 1)

    def hilbert(self, upto: int) -> list[int]:
        base = hilbert_function(self.base)
        return [base(m * self.factor) for m in range(upto + 1)]

    def gcd_window(self) -> int | None:
        # exact from max(e), the largest generator degree of the CI at the
        # bottom: with F the total factor, a minimal zero-sum sequence over
        # Z/F has at most F terms (the Davenport constant), so each occupied
        # view degree is a sum of occupied ones up to max(e).  The term from
        # the base's window stays, so the CI screen in ``hilbert`` reads no
        # fewer degrees
        window, bottom = self.base.gcd_window(), self.base
        while isinstance(bottom, VeroneseRing):
            bottom = bottom.base
        return None if window is None else max(window // self.factor + 2, max(bottom.gen_degrees))


RingSpec = CompleteIntersectionRing | SemigroupSpec | VeroneseRing


class HilbertFunction:
    """Memoized length oracle m -> dim_k R_m."""

    def __init__(self, ring: RingSpec):
        self._ring = ring
        self._values: list[int] = []
        self.dim = ring.dim
        self.n0 = ring.n0

    def __call__(self, m: int) -> int:
        if m < 0:
            return 0
        if m >= len(self._values):
            self._values = self._ring.hilbert(max(m, 2 * len(self._values) + 16))
        return self._values[m]


@lru_cache(maxsize=None)
def hilbert_function(spec: RingSpec) -> HilbertFunction:
    """The ring's memoized Hilbert function, once the occupied degrees of
    its gcd window (if it has one) are seen to have gcd n0."""
    h = HilbertFunction(spec)
    window = spec.gcd_window()
    if window is not None:
        got = 0
        for m in range(1, window + 1):
            if h(m):
                got = gcd(got, m)
        if got != h.n0:
            raise ValidationError(
                f"occupied degrees up to {window} have gcd {got}, expected {h.n0}"
            )
    return h


def leading_coefficient(spec: RingSpec) -> Fraction:
    """ehat: window sums of the Hilbert function grow like ehat * M^(d-1)."""
    h = hilbert_function(spec)
    if h.dim < 2:
        raise DomainError("density envelope needs dimension >= 2")
    return spec.ehat()


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
        return SemigroupSpec.from_json(json_get(body, "semigroup", "semigroup ring"))
    if kind == "veronese":
        json_keys(body, "veronese ring", "type base factor")
        return VeroneseRing(
            parse_ring_json(json_get(body, "base", "veronese ring")),
            json_int(json_get(body, "factor", "veronese ring"), "veronese ring 'factor'"),
        )
    raise InputError(f"unknown ring type {kind!r}")
