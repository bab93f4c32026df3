"""Exact bivariate polynomials and Hilbert-Burch minor checks.

Coefficients live in Q or a quadratic extension Q(sqrt(disc)), written
r + s*u with u^2 = disc; disc is attached to the polynomial, and None means
plain rationals.  A polynomial is computed in integers, as
``exact.Polynomial`` is: integer terms (a, b, r, s) standing for
(r + s*u) x1^a x2^b, over one denominator den > 0.  The form is canonical
(terms sorted by (a, b), no zero pair (r, s), gcd(den, every r and s) = 1),
so structural equality is value equality.  A Hilbert-Burch minor is two
integer convolutions with u^2 = disc over the lcm of their denominators,
normalized once.  Fraction pairs are made only for readers: the ``terms``
view, printed notes and the scalars ``proportional`` returns.

A 2x3 presentation matrix determines an ideal through its signed 2x2 minors;
``match_generators`` compares those minors against a claimed generating set in
two tiers: per-generator proportionality under a degree-compatible
permutation, then exact ideal equality by the membership of each generator.
Proportionality p = c*q is decided by cross-multiplying in Z[u]: p and q
have the same support and p_k q_0 = p_0 q_k for every term k, where p_0 and
q_0 are the first terms.  The scalar c = p_0 / q_0 (times q.den / p.den) is
made only once that holds.

Ideals are compared by membership: each generator of one set is reduced
against the other ideal's piece in its own degree, in both directions.
That piece is a sparse integer echelon.
Each row, a shifted copy of a generator, is a dict of its nonzero integer
numerators; elimination is fraction-free, each step dividing the new row by
the gcd of its entries.  Over Q(sqrt(disc)) the Q-linear embedding
r + s*u -> (r | s) turns a K-subspace into a Q-subspace: each K-row v
contributes the two Q-rows v and u*v, so ranks double and no quadratic-field
arithmetic enters the elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import gcd, lcm

from .errors import InputError, ValidationError

Coef = tuple[Fraction, Fraction]
Term = tuple[int, int, int, int]  # (a, b, r, s): (r + s*u) x1^a x2^b


def _c_str(c: Coef) -> str:
    r, s = c
    if s == 0:
        return str(r)
    if r == 0:
        return f"{s}*u"
    sign = "+" if s > 0 else "-"
    return f"({r}{sign}{abs(s)}*u)"


def _merge_disc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise InputError(f"incompatible coefficient fields: sqrt({a}) vs sqrt({b})")


def _conv(p: tuple[Term, ...], q: tuple[Term, ...], d: int, k: int) -> list[Term]:
    """The integer terms of k * p * q with u^2 = d, monomials not yet summed."""
    return [
        (a1 + a2, b1 + b2, k * (r1 * r2 + d * s1 * s2), k * (r1 * s2 + s1 * r2))
        for a1, b1, r1, s1 in p
        for a2, b2, r2, s2 in q
    ]


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in x1, x2: integer terms (a, b, r, s) sorted by (a, b),
    none with r = s = 0, over one denominator den > 0 with gcd(den, every r
    and s) = 1."""

    nums: tuple[Term, ...]
    den: int = 1
    disc: int | None = None

    @staticmethod
    def over(terms, den: int = 1, disc: int | None = None) -> "BivariatePoly":
        """The sum of the integer terms (a, b, r, s) over den > 0, in
        canonical form; the terms are trusted, not validated."""
        acc: dict = {}
        for a, b, r, s in terms:
            t = acc.get((a, b))
            if t is None:
                acc[a, b] = [r, s]
            else:
                t[0] += r
                t[1] += s
        nums = [(a, b, r, s) for (a, b), (r, s) in sorted(acc.items()) if r or s]
        g = gcd(den, *(x for _, _, r, s in nums for x in (r, s)))
        if g > 1:
            nums = [(a, b, r // g, s // g) for a, b, r, s in nums]
        return BivariatePoly(tuple(nums), den // g, disc)

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly(())

    @cached_property
    def terms(self) -> tuple[tuple[int, int, Coef], ...]:
        """Read-only view: (a, b, (r, s)) with r and s as Fractions."""
        den = self.den
        return tuple((a, b, (Fraction(r, den), Fraction(s, den))) for a, b, r, s in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def is_homogeneous(self) -> bool:
        degs = {a + b for a, b, _, _ in self.nums}
        return len(degs) <= 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        return max(a + b for a, b, _, _ in self.nums)

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
    top, bottom = rows
    d = disc or 0

    def det(j1: int, j2: int, sign: int) -> BivariatePoly:
        # sign * (top[j1] bottom[j2] - top[j2] bottom[j1]) on the numerators
        p, q, r, t = top[j1], bottom[j2], top[j2], bottom[j1]
        den1, den2 = p.den * q.den, r.den * t.den
        den = lcm(den1, den2)
        terms = _conv(p.nums, q.nums, d, sign * (den // den1))
        terms += _conv(r.nums, t.nums, d, -sign * (den // den2))
        return BivariatePoly.over(terms, den, disc)

    return (det(1, 2, 1), det(0, 2, -1), det(0, 1, 1))


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
    d = _merge_disc(p.disc, q.disc) or 0
    if len(p.nums) != len(q.nums):
        return None
    _, _, pr, ps = p.nums[0]
    _, _, qr, qs = q.nums[0]
    for (a, b, r1, s1), (a2, b2, r2, s2) in zip(p.nums, q.nums):
        # same monomial, and p_k q_0 = p_0 q_k in Z[u]
        if (
            a != a2
            or b != b2
            or r1 * qr + d * s1 * qs != pr * r2 + d * ps * s2
            or r1 * qs + s1 * qr != pr * s2 + ps * r2
        ):
            return None
    # p_0 / q_0 = p_0 * conj(q_0) / N(q_0); N(q_0) != 0 as disc is no square
    norm = (qr * qr - d * qs * qs) * p.den
    return (
        Fraction((pr * qr - d * ps * qs) * q.den, norm),
        Fraction((ps * qr - pr * qs) * q.den, norm),
    )


def _int_rows(g: BivariatePoly, disc: int | None) -> list[dict[int, int]]:
    """Primitive integer rows whose Q-span is the K-line through g.

    Over Q the column key of a term is its x1 exponent a.  Over
    K = Q(sqrt(disc)) a coefficient r + s*u (u^2 = disc) sits at keys 2a (r)
    and 2a + 1 (s), and the K-line through g is spanned over Q by g and u*g,
    whose coefficients are disc*s + r*u.  So every rank over Q is twice the
    rank over K.  g's denominator scales each row by a positive constant,
    which the primitive form drops.
    """
    if disc is None:
        return [_primitive({a: r for a, _, r, _ in g.nums})]
    row: dict[int, int] = {}
    u_row: dict[int, int] = {}
    for a, _, r, s in g.nums:
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
    """Echelon rows, keyed by leading key, of the degree-m piece spanned by
    the shifts of gens' rows.  gens holds (degree, integer rows) per
    generator; x1^i x2^(m-d-i) times a row shifts its keys by width*i."""
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

    The ideals are equal iff every generator of each set lies in the other
    ideal: a nonzero generator g of degree m lies there iff g reduces to
    zero against the echelon of the other set's shifts in degree m, taken in
    ascending m.  Over Q(sqrt(disc)) that piece is a K-subspace, so reducing
    g's first Q-row decides it.
    """
    disc = None
    for g in [*gens_a, *gens_b]:
        if not g.is_homogeneous():
            raise ValidationError("ideal comparison needs homogeneous generators")
        disc = _merge_disc(disc, g.disc)
    width = 1 if disc is None else 2
    # (degree, integer rows) per nonzero generator
    rows_a, rows_b = (
        [(g.degree(), _int_rows(g, disc)) for g in gens if not g.is_zero()]
        for gens in (gens_a, gens_b)
    )
    for m in sorted({d for d, _ in rows_a + rows_b}):
        for own, other in ((rows_a, rows_b), (rows_b, rows_a)):
            tests = [rows[0] for d, rows in own if d == m]
            if tests:
                piece = _echelon(other, m, width)
                if any(_reduce(row, piece) for row in tests):
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
