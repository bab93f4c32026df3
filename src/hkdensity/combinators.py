"""Combinators on density pairs: Segre products, Veronese rescaling.

A DensityPair holds the Hilbert-Samuel envelope F(x) = ehat * x^(d-1)
together with the Hilbert-Kunz density f of a fixed pair (R, I).  The Segre
product formula reads F - f = (F_A - f_A)(F_B - f_B): the defect from the
ambient envelope multiplies.  Veronese-type regrading by a factor c with a
module rank r sends f to x |-> (c/r) f(c x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError, ValidationError
from .exact import (
    PiecewisePoly,
    pw_integrate,
    pw_mul,
    pw_negative_piece,
    pw_rescale_arg,
    pw_sub,
)


@dataclass(frozen=True)
class DensityPair:
    """Envelope F, density f, dimension d, for one graded pair (R, I)."""

    F: PiecewisePoly
    f: PiecewisePoly
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValidationError("density pairs need dimension >= 2")
        tail = self.F.tail
        if (
            self.F.pieces
            or tail is None
            or sum(1 for c in tail.coeffs if c != 0) != 1
            or tail.coeffs[-1] <= 0
        ):
            raise ValidationError(
                "envelope must be a single positive monomial ehat * x^k"
            )
        if tail.degree != self.d - 1:
            raise ValidationError(
                f"envelope degree {tail.degree} != d - 1 = {self.d - 1}"
            )
        if self.f.tail is not None:
            raise ValidationError("density must be compactly supported")
        if not self.f.is_continuous():
            raise ValidationError("density must be continuous")
        # past support_end f = 0 and F is the positive monomial checked above
        for g, side in ((self.f, "below 0"), (self.defect(), "above the envelope")):
            if (piece := pw_negative_piece(g)) is not None:
                raise ValidationError(
                    f"density escapes [0, envelope] on [{piece[0]}, {piece[1]}): {side}"
                )

    @property
    def ehat(self) -> Fraction:
        return self.F.tail.coeffs[-1]

    @cached_property
    def ehk(self) -> Fraction:
        return pw_integrate(self.f)

    def defect(self) -> PiecewisePoly:
        """F - f: the envelope defect entering the Segre formula."""
        return pw_sub(self.F, self.f)


def segre(a: DensityPair, b: DensityPair) -> DensityPair:
    """Density pair of the Segre product; dimension d_A + d_B - 1."""
    F = pw_mul(a.F, b.F)
    f = pw_sub(F, pw_mul(a.defect(), b.defect()))
    out = DensityPair(F, f, a.d + b.d - 1)
    # product formula expanded: integral of f equals the three-term sum
    three = (
        pw_integrate(pw_mul(a.F, b.f))
        + pw_integrate(pw_mul(b.F, a.f))
        - pw_integrate(pw_mul(a.f, b.f))
    )
    if out.ehk != three:
        raise ValidationError(
            f"Segre integral {out.ehk} != three-term expansion {three}"
        )
    return out


def rescale_density(f: PiecewisePoly, l0: int, rank: int) -> PiecewisePoly:
    """Regrade by factor l0 against a rank-`rank` module: (l0/rank) f(l0 x)."""
    if l0 < 1:
        raise DomainError(f"rescale factor l0 = {l0} must be >= 1")
    if rank < 1:
        raise DomainError(f"rank = {rank} must be >= 1")
    return pw_rescale_arg(f, Fraction(l0), Fraction(l0, rank))
