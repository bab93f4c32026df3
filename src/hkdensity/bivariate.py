"""Exact bivariate polynomials and Hilbert-Burch minor checks.

Coefficients live in Q or a quadratic extension Q(sqrt(disc)), stored as
pairs (r, s) meaning r + s*sqrt(disc).  disc is attached to the polynomial;
None means plain rationals.  A 2x3 presentation matrix determines an ideal
through its signed 2x2 minors; ``match_generators`` compares those minors
against a claimed generating set in two tiers: per-generator proportionality
under a degree-compatible permutation, then exact graded ideal equality at
the generator degrees.

The graded pieces are compared by a sparse integer echelon.  Each row, a
shifted copy of a generator, is a dict of its nonzero integer entries after
clearing denominators; elimination is fraction-free, each step dividing the
new row by the gcd of its entries.  Over Q(sqrt(disc)) the Q-linear embedding
r + s*u -> (r | s) turns a K-subspace into a Q-subspace: each K-row v
contributes the two Q-rows v and u*v, so ranks double and no quadratic-field
arithmetic enters the elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, lcm

from .errors import InputError, ValidationError

Coef = tuple[Fraction, Fraction]

C_ZERO: Coef = (Fraction(0), Fraction(0))


def _coerce_coef(c) -> Coef:
    if isinstance(c, tuple):
        return (Fraction(c[0]), Fraction(c[1]))
    return (Fraction(c), Fraction(0))


def _c_is_zero(c: Coef) -> bool:
    return c[0] == 0 and c[1] == 0


def _c_add(x: Coef, y: Coef) -> Coef:
    return (x[0] + y[0], x[1] + y[1])


def _c_neg(x: Coef) -> Coef:
    return (-x[0], -x[1])


def _c_mul(x: Coef, y: Coef, disc: int | None) -> Coef:
    d = disc if disc is not None else 0
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def _c_div(x: Coef, y: Coef, disc: int | None) -> Coef:
    d = disc if disc is not None else 0
    norm = y[0] * y[0] - y[1] * y[1] * d
    if norm == 0:
        raise ZeroDivisionError("division by zero coefficient")
    z = _c_mul(x, (y[0], -y[1]), disc)
    return (z[0] / norm, z[1] / norm)


def _c_str(c: Coef) -> str:
    r, s = c
    if s == 0:
        return str(r)
    if r == 0:
        return f"{s}*u"
    sign = "+" if s > 0 else "-"
    return f"({r}{sign}{abs(s)}*u)"


def _check_disc(disc: int | None) -> None:
    if disc is None:
        return
    if disc >= 0 and isqrt(disc) ** 2 == disc:
        raise InputError(
            f"disc = {disc} is a perfect square; use rational coefficients"
        )


def _merge_disc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise InputError(f"incompatible coefficient fields: sqrt({a}) vs sqrt({b})")


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in x1, x2; terms sorted by exponent pair (a, b)."""

    terms: tuple[tuple[int, int, Coef], ...]
    disc: int | None = None

    @staticmethod
    def build(terms, disc: int | None = None) -> "BivariatePoly":
        _check_disc(disc)
        merged: dict[tuple[int, int], Coef] = {}
        for a, b, c in terms:
            if a < 0 or b < 0:
                raise InputError(f"negative exponent in term ({a}, {b})")
            key = (int(a), int(b))
            merged[key] = _c_add(merged.get(key, C_ZERO), _coerce_coef(c))
        canon = tuple(
            (a, b, c) for (a, b), c in sorted(merged.items()) if not _c_is_zero(c)
        )
        if disc is None and any(c[1] != 0 for _, _, c in canon):
            raise InputError("irrational coefficient part with no disc given")
        return BivariatePoly(canon, disc)

    @staticmethod
    def mono(a: int, b: int, c=1, disc: int | None = None) -> "BivariatePoly":
        return BivariatePoly.build([(a, b, c)], disc)

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly((), None)

    def is_zero(self) -> bool:
        return not self.terms

    def with_disc(self, disc: int | None) -> "BivariatePoly":
        merged = _merge_disc(self.disc, disc)
        if merged == self.disc:
            return self
        return BivariatePoly.build(self.terms, merged)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        disc = _merge_disc(self.disc, other.disc)
        return BivariatePoly.build(self.terms + other.terms, disc)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly(
            tuple((a, b, _c_neg(c)) for a, b, c in self.terms), self.disc
        )

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        disc = _merge_disc(self.disc, other.disc)
        out = []
        for a1, b1, c1 in self.terms:
            for a2, b2, c2 in other.terms:
                out.append((a1 + a2, b1 + b2, _c_mul(c1, c2, disc)))
        return BivariatePoly.build(out, disc)

    def scale(self, c) -> "BivariatePoly":
        cc = _coerce_coef(c)
        return BivariatePoly.build(
            [(a, b, _c_mul(t, cc, self.disc)) for a, b, t in self.terms], self.disc
        )

    def is_homogeneous(self) -> bool:
        degs = {a + b for a, b, _ in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(a + b for a, b, _ in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, b, c in sorted(self.terms, reverse=True):
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x1", a), ("x2", b))
                if e > 0
            ) or "1"
            parts.append(f"{_c_str(c)}*{mono}" if _c_str(c) != "1" else mono)
        return " + ".join(parts)


def hilbert_burch_minors(matrix) -> tuple[BivariatePoly, BivariatePoly, BivariatePoly]:
    """Signed 2x2 minors of a 2x3 matrix: m_i = (-1)^(i+1) det(omit col i)."""
    rows = [list(r) for r in matrix]
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise InputError("presentation matrix must be 2x3")
    disc = None
    for r in rows:
        for e in r:
            disc = _merge_disc(disc, e.disc)
    rows = [[e.with_disc(disc) for e in r] for r in rows]

    def det(j1: int, j2: int) -> BivariatePoly:
        return rows[0][j1] * rows[1][j2] - rows[0][j2] * rows[1][j1]

    return (det(1, 2), -det(0, 2), det(0, 1))


def matrix_degree_report(matrix) -> tuple[bool, list[str]]:
    """Column-degree consistency: every entry homogeneous and both entries of
    each column of equal degree (zero entries are wildcards)."""
    notes: list[str] = []
    ok = True
    col_degrees: list[int | None] = []
    for j in range(3):
        degs = set()
        for i in range(2):
            e = matrix[i][j]
            if not e.is_homogeneous():
                ok = False
                notes.append(f"entry ({i + 1}, {j + 1}) is not homogeneous")
            elif not e.is_zero():
                degs.add(e.degree())
        if len(degs) > 1:
            ok = False
            notes.append(f"column {j + 1} mixes degrees {sorted(degs)}")
        col_degrees.append(degs.pop() if len(degs) == 1 else None)
    if all(c is not None for c in col_degrees):
        notes.append(f"column degrees {col_degrees}")
    return ok, notes


def proportional(p: BivariatePoly, q: BivariatePoly) -> Coef | None:
    """Scalar c with p = c * q, or None.  Zero polynomials never match."""
    if p.is_zero() or q.is_zero():
        return None
    disc = _merge_disc(p.disc, q.disc)
    p = p.with_disc(disc)
    q = q.with_disc(disc)
    if {(a, b) for a, b, _ in p.terms} != {(a, b) for a, b, _ in q.terms}:
        return None
    c = _c_div(p.terms[0][2], q.terms[0][2], disc)
    if q.scale(c).terms == p.terms:
        return c
    return None


def _int_rows(g: BivariatePoly, disc: int | None) -> list[dict[int, int]]:
    """Primitive integer rows whose Q-span is the K-line through g.

    Over Q the column key of a term is its x1 exponent a.  Over
    K = Q(sqrt(disc)) a coefficient r + s*u (u^2 = disc) sits at keys 2a (r)
    and 2a + 1 (s), and the K-line through g is spanned over Q by g and u*g,
    whose coefficients are disc*s + r*u.  So every rank over Q is twice the
    rank over K.
    """
    den = lcm(*(x.denominator for _, _, c in g.terms for x in c))
    if disc is None:
        return [_primitive({a: int(r * den) for a, _, (r, _) in g.terms})]
    row: dict[int, int] = {}
    u_row: dict[int, int] = {}
    for a, _, (r, s) in g.terms:
        r, s = int(r * den), int(s * den)
        for out, key, v in (
            (row, 2 * a, r),
            (row, 2 * a + 1, s),
            (u_row, 2 * a, disc * s),
            (u_row, 2 * a + 1, r),
        ):
            if v:
                out[key] = v
    return [_primitive(row), _primitive(u_row)]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    c = gcd(*row.values())
    return row if c == 1 else {k: v // c for k, v in row.items()}


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """Reduce row by the echelon rows whose leading key it meets; an empty
    result means row lies in their span.  Fraction-free: each step forms
    a*row - b*pivot with a/b the reduced ratio of the two leading entries,
    then divides by the gcd of the entries."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return row
        a, b = piv[lead], row[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        out = {k: a * v for k, v in row.items()}
        for k, v in piv.items():
            x = out.get(k, 0) - b * v
            if x:
                out[k] = x
            else:
                del out[k]
        row = _primitive(out)
    return row


def _echelon(gens, m: int, width: int) -> dict[int, dict[int, int]]:
    """Echelon rows of the degree-m piece, keyed by leading key.  gens holds
    (degree, integer rows) per generator; the multiple x1^i x2^(m-d-i) of a
    row shifts its keys by width*i."""
    pivots: dict[int, dict[int, int]] = {}
    for d, rows in gens:
        for i in range(m - d + 1):
            for base in rows:
                row = _reduce({k + width * i: v for k, v in base.items()}, pivots)
                if row:
                    pivots[min(row)] = row
    return pivots


def graded_ideal_equal(
    gens_a: list[BivariatePoly], gens_b: list[BivariatePoly]
) -> bool:
    """Equality of the homogeneous ideals generated by the two sets.

    Only the generator degrees of both sets are compared, in ascending
    order.  Equal pieces there put each generator of one set in the other
    ideal, so both containments hold; unequal pieces refute equality.  Two
    pieces are equal iff their ranks agree and every echelon row of one
    reduces to zero against the echelon of the other.
    """
    disc = None
    for g in [*gens_a, *gens_b]:
        if not g.is_homogeneous():
            raise ValidationError("ideal comparison needs homogeneous generators")
        disc = _merge_disc(disc, g.disc)
    width = 1 if disc is None else 2
    sides = [
        [(g.degree(), _int_rows(g, disc)) for g in gens if not g.is_zero()]
        for gens in (gens_a, gens_b)
    ]
    degrees = sorted({d for side in sides for d, _ in side})
    for m in degrees:
        piece_a, piece_b = (_echelon(side, m, width) for side in sides)
        if len(piece_a) != len(piece_b) or any(
            _reduce(row, piece_b) for row in piece_a.values()
        ):
            return False
    return True


@dataclass(frozen=True)
class MinorMatchReport:
    minors: tuple[BivariatePoly, BivariatePoly, BivariatePoly]
    degree_consistent: bool
    per_generator: tuple[str, ...]  # "proportional" | "ideal" | "unmatched"
    verdict: str  # "ok" | "mismatch"
    notes: tuple[str, ...]


def match_generators(matrix, gens) -> MinorMatchReport:
    """Compare signed minors of a 2x3 matrix against a generator triple."""
    gens = list(gens)
    if len(gens) != 3:
        raise InputError("expected exactly three ideal generators")
    minors = hilbert_burch_minors(matrix)
    deg_ok, notes = matrix_degree_report(matrix)
    notes = list(notes)

    table = [[proportional(minors[j], gens[i]) for i in range(3)] for j in range(3)]
    # first maximal permutation in permutations() order
    best_perm = max(
        permutations(range(3)),
        key=lambda perm: sum(table[perm[i]][i] is not None for i in range(3)),
    )
    scalars = [table[best_perm[i]][i] for i in range(3)]
    matched = ["unmatched" if c is None else "proportional" for c in scalars]
    for i, c in enumerate(scalars):
        if c is not None:
            notes.append(
                f"minor {best_perm[i] + 1} = {_c_str(c)} * generator {i + 1}"
            )
    if None not in scalars:
        return MinorMatchReport(minors, deg_ok, tuple(matched), "ok", tuple(notes))

    if graded_ideal_equal(list(minors), gens):
        matched = [m if m == "proportional" else "ideal" for m in matched]
        notes.append(
            "minor ideal equals generator ideal; unmatched generators lie in "
            "the minor ideal without being scalar multiples"
        )
        return MinorMatchReport(minors, deg_ok, tuple(matched), "ok", tuple(notes))

    for i in range(3):
        if matched[i] == "unmatched":
            notes.append(
                f"minor {best_perm[i] + 1} = {minors[best_perm[i]]} does not "
                f"match generator {i + 1} = {gens[i]}"
            )
    return MinorMatchReport(minors, deg_ok, tuple(matched), "mismatch", tuple(notes))
