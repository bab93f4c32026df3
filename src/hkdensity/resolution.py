"""Closed-form Hilbert-Kunz density from a graded free resolution.

Input is the graded Betti table of R/I for an ideal I of finite colength
support: a list of (homological index i, twist degree j, multiplicity).
Only the alternating column sums B(j) = sum_i (-1)^i beta_{i,j} enter the
density.  Bricking the twists by the Frobenius power q, the colength in
degree m is sum_j B(j) * dim_k R_{m - j q}; normalizing windows by q^(d-1)
and letting q grow gives a piecewise polynomial with breakpoints at the
twist degrees (in window units, j / n0).

The alternating sums must satisfy sum_j B(j) (x - j)^(d-1) == 0 identically;
this is exactly what makes the density compactly supported, and it fails
for tables that do not resolve a finite-colength quotient.  Expanding the
binomials, the identity is the integer moment conditions
sum_j B(j) j^k == 0 for every k < d.

Everything is computed from those moments.  The prefix power sums
S_k(t) = sum_{j <= j_t} B(j) j^k (k < d) are plain ints, updated once per
twist, and the density on [j_t/n0, j_{t+1}/n0) is
ehat * sum_k C(d-1, k) (-1)^k S_k(t) / n0^k * x^(d-1-k).  The last prefix
is the full moment vector: the residual of the vanishing identity is read
from it, and it is zero exactly when the density closes up to compact
support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import BettiIdentityError, InternalError, ValidationError
from .exact import PiecewisePoly, Polynomial, json_get, json_int, json_keys, json_list, pw_integrate


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/I, homological indices i >= 1.

    The i = 0 column is implicit: a single free summand in degree 0."""

    d: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("dimension must be >= 1")
        for i, j, b in self.entries:
            if i < 1:
                raise ValidationError(f"homological index {i} < 1")
            if j < 1:
                raise ValidationError(f"twist degree {j} < 1 at index {i}")
            if b < 1:
                raise ValidationError(f"multiplicity {b} < 1 at ({i}, {j})")

    @staticmethod
    def build(d: int, entries) -> "BettiTable":
        merged: dict[tuple[int, int], int] = {}
        for i, j, b in entries:
            merged[(i, j)] = merged.get((i, j), 0) + b
        canon = tuple(
            (i, j, b) for (i, j), b in sorted(merged.items()) if b != 0
        )
        return BettiTable(d, canon)

    def b_numbers(self) -> dict[int, int]:
        """Alternating column sums B(j); B(0) starts from the implicit 1."""
        out = {0: 1}
        for i, j, b in self.entries:
            out[j] = out.get(j, 0) + (-1) ** i * b
        return {j: v for j, v in sorted(out.items()) if v != 0 or j == 0}

    def max_twist(self) -> int:
        return max((j for _, j, _ in self.entries), default=0)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "betti": [{"i": i, "j": j, "b": b} for i, j, b in self.entries],
        }

    @staticmethod
    def from_json(data: dict) -> "BettiTable":
        json_keys(data, "Betti table", "d betti")
        rows = json_list(json_get(data, "betti", "Betti table"), "Betti table 'betti'")
        entries = tuple(
            tuple(json_int(json_get(row, k, "Betti entry"), f"Betti entry {k!r}") for k in "ijb")
            for row in (json_keys(r, "Betti entry", "i j b") for r in rows)
        )
        d = json_int(json_get(data, "d", "Betti table"), "Betti table 'd'")
        # each row on its own first: build sums equal (i, j) rows, and a
        # row with b < 1 must not cancel against another or vanish
        BettiTable(d, entries)
        return BettiTable.build(d, entries)


def _prefix_power_sums(betti: BettiTable) -> list[list[int]]:
    """[S_0(t), ..., S_{d-1}(t)] after each twist j_t, S_k(t) the sum of
    B(j) j^k over j <= j_t; the last entry is the full moment vector."""
    sums = [0] * betti.d
    out = []
    for j, bj in betti.b_numbers().items():
        term = bj
        for k in range(betti.d):
            sums[k] += term
            term *= j
        out.append(list(sums))
    return out


def _shift_weights(d: int, ehat: Fraction, n0: int) -> tuple[list[int], int]:
    """Integers w_k = C(d-1, k) (-1)^k n0^(d-1-k) ehat.numerator over the one
    denominator n0^(d-1) ehat.denominator: the x^(d-1-k) coefficient of
    ehat (x - j/n0)^(d-1) is w_k j^k over it."""
    weights = [comb(d - 1, k) * (-1) ** k * n0 ** (d - 1 - k) * ehat.numerator for k in range(d)]
    return weights, n0 ** (d - 1) * ehat.denominator


def _piece(sums: list[int], weights: list[int], den: int) -> Polynomial:
    """sum_k weights[k] S_k x^(d-1-k) over den, constant term first."""
    return Polynomial.over([w * s for w, s in zip(reversed(weights), reversed(sums))], den)


def betti_residual(betti: BettiTable) -> Polynomial:
    """sum_j B(j) (x - j)^(d-1) from the moments; identically zero for valid
    tables."""
    return _piece(_prefix_power_sums(betti)[-1], *_shift_weights(betti.d, Fraction(1), 1))


def validate_betti(betti: BettiTable) -> list[list[int]]:
    """Check the vanishing identity and return the prefix power sums it was
    read from.  Every weight of the residual is nonzero, so the residual is
    zero exactly when the last prefix, the moment vector, is."""
    prefixes = _prefix_power_sums(betti)
    if any(prefixes[-1]):
        raise BettiIdentityError(
            "alternating Betti sums fail the degree-(d-1) vanishing identity",
            residual=betti_residual(betti),
        )
    return prefixes


def colength_by_degree(betti: BettiTable, hilbert, q: int, m: int) -> int:
    """dim_k (R / I^[q])_m from the resolution: sum_j B(j) ell(R_{m - jq})."""
    if q < 1:
        raise ValidationError(f"Frobenius power q = {q} must be >= 1")
    total = 0
    for j, bj in betti.b_numbers().items():
        total += bj * hilbert(m - j * q)
    if total < 0:
        raise ValidationError(
            f"negative colength {total} in degree {m} at q = {q}: "
            "the Betti table does not resolve a quotient of this ring"
        )
    return total


def closed_form_density(
    betti: BettiTable, ehat: Fraction, n0: int = 1
) -> PiecewisePoly:
    """Limit density: on [j_t/n0, j_{t+1}/n0), ehat * sum over activated
    twists of B(j) (x - j/n0)^(d-1), built from the prefix power sums."""
    prefixes = validate_betti(betti)
    if betti.d < 2:
        raise ValidationError("closed-form density needs dimension >= 2")
    if n0 < 1:
        raise ValidationError(f"n0 = {n0} must be >= 1")
    if ehat <= 0:
        raise ValidationError(f"ehat = {ehat} must be positive")
    weights, den = _shift_weights(betti.d, ehat, n0)
    out = PiecewisePoly.build(
        [Fraction(j, n0) for j in betti.b_numbers()],
        [_piece(sums, weights, den) for sums in prefixes[:-1]],
        None,
    )
    if not out.is_continuous():
        raise InternalError("closed-form density is discontinuous")
    return out


def ehk_closed_form(
    density: PiecewisePoly, betti: BettiTable, ehat: Fraction, n0: int = 1
) -> Fraction:
    """(ehat / d) * sum_j B(j) ((l - j)/n0)^d with l the last twist, checked
    against the integral of ``density``, the table's closed-form density."""
    bn = betti.b_numbers()
    l = max(bn)
    total = sum(bj * (l - j) ** betti.d for j, bj in bn.items())
    value = ehat * Fraction(total, n0**betti.d) / betti.d
    integral = pw_integrate(density)
    if value != integral:
        raise InternalError(f"multiplicity formula {value} != integral {integral}")
    return value


def koszul_betti(d: int, degrees) -> BettiTable:
    """Betti table of the Koszul complex on forms of the given degrees."""
    if any(a < 1 for a in degrees):
        raise ValidationError("Koszul input degrees must be positive")
    entries = []
    for i in range(1, len(degrees) + 1):
        for subset in combinations(degrees, i):
            entries.append((i, sum(subset), 1))
    return BettiTable.build(d, entries)
