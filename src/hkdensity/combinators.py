"""Combinators on density pairs: Segre products, Veronese rescaling.

A DensityPair holds ehat, the Hilbert-Kunz density f and the dimension d
of a fixed pair (R, I); its Hilbert-Samuel envelope is F(x) = ehat * x^(d-1).
The Segre product formula reads F - f = (F_A - f_A)(F_B - f_B): the defect
from the ambient envelope multiplies.  Veronese-type regrading by a factor c
with a module rank r sends f to x |-> (c/r) f(c x).
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
    rat,
)


@dataclass(frozen=True)
class DensityPair:
    """ehat, density f, dimension d, for one graded pair (R, I)."""

    ehat: Fraction
    f: PiecewisePoly
    d: int

    def __post_init__(self):
        object.__setattr__(self, "ehat", rat(self.ehat, "ehat"))
        if self.d < 2:
            raise ValidationError("density pairs need dimension >= 2")
        if self.ehat <= 0:
            raise ValidationError(f"ehat = {self.ehat} must be positive")
        if self.f.tail is not None:
            raise ValidationError("density must be compactly supported")
        if not self.f.is_continuous():
            raise ValidationError("density must be continuous")
        # past support_end f = 0 and F is a positive monomial
        for g, side in ((self.f, "below 0"), (self.defect, "above the envelope")):
            if (piece := pw_negative_piece(g)) is not None:
                raise ValidationError(
                    f"density escapes [0, envelope] on [{piece[0]}, {piece[1]}): {side}"
                )

    @cached_property
    def F(self) -> PiecewisePoly:
        """The envelope ehat * x^(d-1)."""
        return PiecewisePoly.monomial_tail(self.ehat, self.d - 1)

    @cached_property
    def ehk(self) -> Fraction:
        return pw_integrate(self.f)

    @cached_property
    def defect(self) -> PiecewisePoly:
        """F - f: the envelope defect entering the Segre formula.  An
        attribute, built once by the check in ``__post_init__``: read
        ``pair.defect``, not ``pair.defect()``."""
        return pw_sub(self.F, self.f)


def segre(a: DensityPair, b: DensityPair) -> DensityPair:
    """Density pair of the Segre product; dimension d_A + d_B - 1."""
    ehat, d = a.ehat * b.ehat, a.d + b.d - 1
    F = PiecewisePoly.monomial_tail(ehat, d - 1)
    out = DensityPair(ehat, pw_sub(F, pw_mul(a.defect, b.defect)), d)
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
