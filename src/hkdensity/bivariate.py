"""Exact bivariate polynomials and Hilbert-Burch minor checks.

Coefficients live in Q or a quadratic extension Q(sqrt(disc)), stored as
pairs (r, s) meaning r + s*sqrt(disc).  disc is attached to the polynomial;
None means plain rationals.  A 2x3 presentation matrix determines an ideal
through its signed 2x2 minors; ``match_generators`` compares those minors
against a claimed generating set in two tiers: per-generator proportionality
under a degree-compatible permutation, then exact graded ideal equality via
row reduction of the graded pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import isqrt

from .errors import InputError, ValidationError

Coef = tuple[Fraction, Fraction]

C_ZERO: Coef = (Fraction(0), Fraction(0))
C_ONE: Coef = (Fraction(1), Fraction(0))


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
        return BivariatePoly.build(self.terms, _merge_disc(self.disc, disc))

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


def _rref(rows: list[list[Coef]], disc: int | None) -> tuple[tuple[Coef, ...], ...]:
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(ncols):
        sel = next(
            (r for r in range(pivot_row, nrows) if not _c_is_zero(mat[r][col])),
            None,
        )
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = mat[pivot_row][col]
        # rows are sparse: zero entries are kept, not multiplied through
        mat[pivot_row] = [
            v if _c_is_zero(v) else _c_div(v, inv, disc) for v in mat[pivot_row]
        ]
        for r in range(nrows):
            if r != pivot_row and not _c_is_zero(mat[r][col]):
                factor = mat[r][col]
                mat[r] = [
                    v if _c_is_zero(w) else _c_add(v, _c_neg(_c_mul(factor, w, disc)))
                    for v, w in zip(mat[r], mat[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == nrows:
            break
    out = [tuple(r) for r in mat if any(not _c_is_zero(v) for v in r)]
    return tuple(sorted(out, reverse=True))


def _graded_piece(gens: list[BivariatePoly], m: int, disc: int | None):
    """Row space basis of the degree-m piece of the ideal the gens generate."""
    rows = []
    for g in gens:
        dg = g.degree()
        if g.is_zero() or dg > m:
            continue
        for i in range(m - dg + 1):
            shifted = g * BivariatePoly.mono(i, m - dg - i)
            vec = [C_ZERO] * (m + 1)
            for a, _, c in shifted.with_disc(disc).terms:
                vec[a] = c
            rows.append(vec)
    if not rows:
        return tuple()
    return _rref(rows, disc)


def graded_ideal_equal(
    gens_a: list[BivariatePoly], gens_b: list[BivariatePoly]
) -> bool:
    """Equality of the homogeneous ideals generated by the two sets.

    Only the generator degrees of both sets are compared, in ascending
    order.  Equal pieces there put each generator of one set in the other
    ideal, so both containments hold; unequal pieces refute equality.
    """
    disc = None
    for g in [*gens_a, *gens_b]:
        if not g.is_homogeneous():
            raise ValidationError("ideal comparison needs homogeneous generators")
        disc = _merge_disc(disc, g.disc)
    degrees = sorted({g.degree() for g in [*gens_a, *gens_b] if not g.is_zero()})
    for m in degrees:
        if _graded_piece(gens_a, m, disc) != _graded_piece(gens_b, m, disc):
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

    best_perm = None
    best_hits = -1
    for perm in permutations(range(3)):
        hits = sum(
            1 for i in range(3) if proportional(minors[perm[i]], gens[i]) is not None
        )
        if hits > best_hits:
            best_hits = hits
            best_perm = perm
    matched = [
        "proportional"
        if proportional(minors[best_perm[i]], gens[i]) is not None
        else "unmatched"
        for i in range(3)
    ]
    for i in range(3):
        if matched[i] == "proportional":
            c = proportional(minors[best_perm[i]], gens[i])
            notes.append(
                f"minor {best_perm[i] + 1} = {_c_str(c)} * generator {i + 1}"
            )
    if best_hits == 3:
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
