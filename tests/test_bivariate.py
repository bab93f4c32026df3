from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity.bivariate import (
    BivariatePoly,
    _c_str,
    _merge_disc,
    graded_ideal_equal,
    hilbert_burch_minors,
    match_generators,
    matrix_degree_report,
    proportional,
)
from hkdensity.errors import InputError, ValidationError

F = Fraction
P = BivariatePoly


# ---------------------------------------------------------------------------
# Fraction reference: the Fraction-pair polynomial the integer kernel
# replaced, with its coefficient helpers, minors and proportionality test

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


@dataclass(frozen=True)
class FractionPoly:
    """Polynomial in x1, x2; terms sorted by exponent pair (a, b)."""

    terms: tuple[tuple[int, int, Coef], ...]
    disc: int | None = None

    @staticmethod
    def build(terms, disc: int | None = None) -> "FractionPoly":
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
        return FractionPoly(canon, disc)

    @staticmethod
    def mono(a: int, b: int, c=1, disc: int | None = None) -> "FractionPoly":
        return FractionPoly.build([(a, b, c)], disc)

    @staticmethod
    def zero() -> "FractionPoly":
        return FractionPoly((), None)

    def is_zero(self) -> bool:
        return not self.terms

    def with_disc(self, disc: int | None) -> "FractionPoly":
        merged = _merge_disc(self.disc, disc)
        if merged == self.disc:
            return self
        return FractionPoly.build(self.terms, merged)

    def __add__(self, other: "FractionPoly") -> "FractionPoly":
        disc = _merge_disc(self.disc, other.disc)
        return FractionPoly.build(self.terms + other.terms, disc)

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(
            tuple((a, b, _c_neg(c)) for a, b, c in self.terms), self.disc
        )

    def __sub__(self, other: "FractionPoly") -> "FractionPoly":
        return self + (-other)

    def __mul__(self, other: "FractionPoly") -> "FractionPoly":
        disc = _merge_disc(self.disc, other.disc)
        out = []
        for a1, b1, c1 in self.terms:
            for a2, b2, c2 in other.terms:
                out.append((a1 + a2, b1 + b2, _c_mul(c1, c2, disc)))
        return FractionPoly.build(out, disc)

    def scale(self, c) -> "FractionPoly":
        cc = _coerce_coef(c)
        return FractionPoly.build(
            [(a, b, _c_mul(t, cc, self.disc)) for a, b, t in self.terms], self.disc
        )

    def is_homogeneous(self) -> bool:
        degs = {a + b for a, b, _ in self.terms}
        return len(degs) <= 1

    def degree(self) -> int:
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


def ref_minors(matrix):
    rows = [list(r) for r in matrix]
    disc = None
    for r in rows:
        for e in r:
            disc = _merge_disc(disc, e.disc)
    rows = [[e.with_disc(disc) for e in r] for r in rows]

    def det(j1: int, j2: int) -> FractionPoly:
        return rows[0][j1] * rows[1][j2] - rows[0][j2] * rows[1][j1]

    return (det(1, 2), -det(0, 2), det(0, 1))


def ref_proportional(p: FractionPoly, q: FractionPoly) -> Coef | None:
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


def ref_match(matrix, gens):
    """match_generators on the reference: (minors, degree_consistent,
    per_generator, verdict, notes), with the RREF reference deciding ideal
    equality."""
    minors = ref_minors(matrix)
    deg_ok, notes = matrix_degree_report(matrix)
    table = [[ref_proportional(minors[j], gens[i]) for i in range(3)] for j in range(3)]
    best_perm = max(
        permutations(range(3)),
        key=lambda perm: sum(table[perm[i]][i] is not None for i in range(3)),
    )
    scalars = [table[best_perm[i]][i] for i in range(3)]
    matched = ["unmatched" if c is None else "proportional" for c in scalars]
    for i, c in enumerate(scalars):
        if c is not None:
            notes.append(f"minor {best_perm[i] + 1} = {_c_str(c)} * generator {i + 1}")
    if None not in scalars:
        return minors, deg_ok, tuple(matched), "ok", tuple(notes)
    if not all(g.is_homogeneous() for g in [*minors, *gens]):
        raise ValidationError("ideal comparison needs homogeneous generators")
    if ideal_equal_generator_degrees(list(minors), list(gens)):
        matched = [m if m == "proportional" else "ideal" for m in matched]
        notes.append(
            "minor ideal equals generator ideal; unmatched generators lie in "
            "the minor ideal without being scalar multiples"
        )
        return minors, deg_ok, tuple(matched), "ok", tuple(notes)
    for i in range(3):
        if matched[i] == "unmatched":
            notes.append(
                f"minor {best_perm[i] + 1} = {minors[best_perm[i]]} does not "
                f"match generator {i + 1} = {gens[i]}"
            )
    return minors, deg_ok, tuple(matched), "mismatch", tuple(notes)


def to_int(ref: FractionPoly) -> P:
    """ref in the integer form: its terms over the lcm of their denominators."""
    den = lcm(*(x.denominator for _, _, c in ref.terms for x in c))
    nums = [(a, b, int(r * den), int(s * den)) for a, b, (r, s) in ref.terms]
    return P.over(nums, den, ref.disc)


def poly(terms, disc: int | None = None) -> P:
    return to_int(FractionPoly.build(terms, disc))


def x1(k=1, c=1):
    return poly([(k, 0, c)])


def x2(k=1, c=1):
    return poly([(0, k, c)])


def test_degree_and_homogeneity():
    p = poly([(2, 1, 1), (0, 3, 5)])
    assert p.degree() == 3 and p.is_homogeneous()
    assert not poly([(1, 0, 1), (0, 2, 1)]).is_homogeneous()
    assert P.zero().degree() == -1


def test_hilbert_burch_minors_koszul_style():
    # [[x, -y, 0], [y, 0, -x]] resolves (xy, x^2, y^2)
    matrix = (
        (x1(), x2(c=-1), P.zero()),
        (x2(), P.zero(), x1(c=-1)),
    )
    m1, m2, m3 = hilbert_burch_minors(matrix)
    assert m1 == poly([(1, 1, 1)])
    assert m2 == x1(2)
    assert m3 == x2(2)


def test_matrix_degree_report():
    matrix = (
        (x1(), x2(c=-1), P.zero()),
        (x2(), P.zero(), x1(c=-1)),
    )
    ok, notes = matrix_degree_report(matrix)
    assert ok
    bad = (
        (x1(2), x2(1), P.zero()),
        (x2(), P.zero(), x1()),
    )
    ok2, notes2 = matrix_degree_report(bad)
    assert not ok2 and notes2


def test_proportional():
    p = poly([(2, 0, 2), (0, 2, -2)])
    q = poly([(2, 0, -1), (0, 2, 1)])
    assert proportional(p, q) == (-2, 0)
    assert proportional(p, x1(2)) is None
    # zero polynomials never count as proportional to anything
    assert proportional(P.zero(), P.zero()) is None
    # coefficients from two quadratic fields do not mix
    with pytest.raises(InputError):
        proportional(poly([(0, 0, (0, 1))], -3), poly([(0, 0, (0, 1))], -12))


def test_graded_ideal_equal_basic():
    gens_a = [x1(2), x2(2), poly([(1, 1, 1)])]
    # same ideal, different generators of the degree-2 piece
    gens_b = [
        poly([(2, 0, 1), (1, 1, 1)]),
        poly([(0, 2, 1), (1, 1, 1)]),
        poly([(1, 1, 3)]),
    ]
    assert graded_ideal_equal(gens_a, gens_b)
    assert not graded_ideal_equal([x1(2)], [x2(2)])


def test_graded_ideal_equal_differs_only_at_higher_degree():
    # the degree-1 pieces agree; the ideals part only in degree 3
    assert not graded_ideal_equal([x1(), x2(3)], [x1(), x2(4)])
    assert not graded_ideal_equal([x1(), x2(4)], [x1(), x2(3)])


def _rref(rows, disc):
    """Reference: reduced row echelon form over Q(sqrt(disc)), entries as
    (r, s) Fraction pairs."""
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


def _graded_piece(gens, m, disc):
    """Reference: RREF basis of the degree-m piece of the ideal of gens."""
    rows = []
    for g in gens:
        dg = g.degree()
        if g.is_zero() or dg > m:
            continue
        for i in range(m - dg + 1):
            shifted = g * FractionPoly.mono(i, m - dg - i)
            vec = [C_ZERO] * (m + 1)
            for a, _, c in shifted.with_disc(disc).terms:
                vec[a] = c
            rows.append(vec)
    if not rows:
        return tuple()
    return _rref(rows, disc)


def ideal_equal_generator_degrees(gens_a, gens_b) -> bool:
    """Reference: compare the RREF pieces at the generator degrees."""
    disc = None
    for g in [*gens_a, *gens_b]:
        disc = _merge_disc(disc, g.disc)
    degrees = sorted({g.degree() for g in [*gens_a, *gens_b] if not g.is_zero()})
    return all(
        _graded_piece(gens_a, m, disc) == _graded_piece(gens_b, m, disc)
        for m in degrees
    )


def ideal_equal_every_degree(gens_a, gens_b) -> bool:
    """Reference: compare the graded pieces in every degree up to the
    largest generator degree (rational coefficients only)."""
    cap = max((g.degree() for g in [*gens_a, *gens_b] if not g.is_zero()), default=0)
    return all(
        _graded_piece(gens_a, m, None) == _graded_piece(gens_b, m, None)
        for m in range(cap + 1)
    )


@st.composite
def generator_sets(draw):
    def form():
        d = draw(st.integers(0, 4))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1))
        return FractionPoly.build([(i, d - i, c) for i, c in enumerate(coeffs)])

    gens_a = [form() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens_b = [form() for _ in range(draw(st.integers(1, 3)))]
    else:
        # the same ideal presented differently, unless the extra form breaks it
        gens_b = [g.scale(draw(st.integers(1, 3))) for g in reversed(gens_a)]
        gens_b.append(gens_a[0] * form() if draw(st.booleans()) else form())
    return gens_a, gens_b


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_graded_ideal_equal_matches_every_degree_reference(sets):
    gens_a, gens_b = sets
    got = graded_ideal_equal([to_int(g) for g in gens_a], [to_int(g) for g in gens_b])
    assert got == ideal_equal_every_degree(gens_a, gens_b)


U = -12  # u^2 = -12, the E6 coefficient field


@st.composite
def quadratic_generator_sets(draw):
    part = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))

    def coef(nonzero=False):
        c = (draw(part), draw(part))
        return (1, 0) if nonzero and c == (0, 0) else c

    def form():
        d = draw(st.integers(0, 4))
        return FractionPoly.build([(i, d - i, coef()) for i in range(d + 1)], disc=U)

    gens_a = [form() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens_b = [form() for _ in range(draw(st.integers(1, 3)))]
    else:
        # the same ideal up to Q(u) scalars, unless the extra form breaks it
        gens_b = [g.scale(coef(nonzero=True)) for g in reversed(gens_a)]
        gens_b.append(gens_a[0] * form() if draw(st.booleans()) else form())
    return gens_a, gens_b


@settings(max_examples=150, deadline=None)
@given(quadratic_generator_sets())
def test_graded_ideal_equal_matches_reference_over_quadratic_field(sets):
    gens_a, gens_b = sets
    got = graded_ideal_equal([to_int(g) for g in gens_a], [to_int(g) for g in gens_b])
    assert got == ideal_equal_generator_degrees(gens_a, gens_b)


@st.composite
def shared_plus_one_sets(draw):
    """The shape of the E8 minor check, over Q or Q(u): both sets share forms
    up to scalars and each adds one form of one degree m.  The second set's
    form is c*(the first's) + sum h_i*s_i over the shared forms s_i, with c
    nonzero and h_i random forms (the ideals are equal), or a random form
    (they usually are not).  Returns the sets and whether they are equal by
    construction."""
    disc = draw(st.sampled_from([None, U]))
    part = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))

    def coef(nonzero=False):
        c = (draw(part), draw(part) if disc is not None else F(0))
        return (1, 0) if nonzero and c == (0, 0) else c

    def form(d):
        return FractionPoly.build([(i, d - i, coef()) for i in range(d + 1)], disc)

    shared = [form(draw(st.integers(0, 3))) for _ in range(draw(st.integers(1, 3)))]
    m = draw(st.integers(0, 5))
    own_a = form(m)
    equal = draw(st.booleans())
    if equal:
        own_b = own_a.scale(coef(nonzero=True))
        for g in shared:
            if 0 <= g.degree() <= m:
                own_b = own_b + form(m - g.degree()) * g
    else:
        own_b = form(m)
    gens_a = [*shared, own_a]
    gens_b = [g.scale(coef(nonzero=True)) for g in shared] + [own_b]
    return gens_a, draw(st.permutations(gens_b)), equal


@settings(max_examples=150, deadline=None)
@given(shared_plus_one_sets())
def test_graded_ideal_equal_with_shared_generators_matches_reference(case):
    gens_a, gens_b, equal = case
    got = graded_ideal_equal([to_int(g) for g in gens_a], [to_int(g) for g in gens_b])
    assert got == ideal_equal_generator_degrees(gens_a, gens_b)
    assert got or not equal


def test_graded_ideal_equal_quadratic_scalars():
    # (1 + u) x1 and u x1 span the same line over Q(u) but not over Q
    x1_u = poly([(1, 0, (0, 1))], disc=U)
    x1_1u = poly([(1, 0, (1, 1))], disc=U)
    assert graded_ideal_equal([x1_u, x2()], [x1_1u, poly([(0, 1, (2, -3))], disc=U)])
    g = poly([(1, 0, 1), (0, 1, (0, 1))], disc=U)  # x1 + u x2
    h = poly([(1, 0, 1), (0, 1, (0, -1))], disc=U)  # x1 - u x2
    assert not graded_ideal_equal([g], [h])
    assert graded_ideal_equal([g, h], [x1(), x2()])


def test_match_generators_permutation_insensitive():
    matrix = (
        (x1(), x2(c=-1), P.zero()),
        (x2(), P.zero(), x1(c=-1)),
    )
    # generators supplied in a different order than the minors come out
    report = match_generators(matrix, (x2(2), poly([(1, 1, 1)]), x1(2)))
    assert report.verdict == "ok"
    assert report.per_generator == ("proportional", "proportional", "proportional")


def test_match_generators_mismatch_lists_offender():
    matrix = (
        (x1(), x2(c=-1), P.zero()),
        (x2(), P.zero(), x1(c=-1)),
    )
    report = match_generators(matrix, (poly([(1, 1, 1)]), x1(2), x2(3)))
    assert report.verdict == "mismatch"
    assert any("minor" in note for note in report.notes)


def assert_canonical(p: P) -> None:
    keys = [(a, b) for a, b, _, _ in p.nums]
    assert keys == sorted(set(keys))
    assert all(r or s for _, _, r, s in p.nums)
    assert all(type(x) is int for t in p.nums for x in t) and type(p.den) is int
    assert p.den > 0 and gcd(p.den, *(x for t in p.nums for x in t[2:])) == 1


def assert_agrees(p: P, ref: FractionPoly) -> None:
    """p is the reference value, in canonical integer form."""
    assert_canonical(p)
    assert p.terms == ref.terms and p.disc == ref.disc
    assert p == to_int(ref)
    assert str(p) == str(ref)


DISCS = [None, -12, -3, 2, 5]


@st.composite
def coefs(draw, disc, nonzero=False):
    """A coefficient as FractionPoly.build takes it: an int, a Fraction or a pair."""
    part = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 4, 6]))
    r = draw(part)
    s = draw(part) if disc is not None and draw(st.booleans()) else F(0)
    if nonzero and r == s == 0:
        r = F(1)
    form = draw(st.sampled_from(["pair", "single", "int"]))
    if form == "pair" or s:
        # an integral s comes as an int or as a Fraction
        return (r, s.numerator if s.denominator == 1 and draw(st.booleans()) else s)
    if form == "int" and r.denominator == 1:
        return r.numerator
    return r


@st.composite
def raw_terms(draw, disc, degree=None):
    """Term lists with repeated monomials (sums that may cancel); of one
    total degree when ``degree`` is given, else of mixed degrees."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        if degree is None:
            a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        else:
            a = draw(st.integers(0, degree))
            b = degree - a
        out.append((a, b, draw(coefs(disc))))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_ops_match_fraction_reference(data):
    disc = data.draw(st.sampled_from(DISCS))
    rp = FractionPoly.build(data.draw(raw_terms(disc)), disc)
    rq = FractionPoly.build(data.draw(raw_terms(disc)), disc)
    p, q = to_int(rp), to_int(rq)
    assert_agrees(p, rp)
    assert (p.degree(), p.is_homogeneous()) == (rp.degree(), rp.is_homogeneous())
    assert proportional(p, q) == ref_proportional(rp, rq)


@st.composite
def matrices_and_gens(draw):
    """A 2x3 matrix over Q or Q(sqrt(disc)) and a generator triple.

    Entries are zero, forms of their column's degree, or of mixed degrees.
    The generators are the reference minors scaled and permuted, sheared
    (m_i + c*m_j for two minors of one degree: the same ideal, not
    proportional), multiplied by x1 (a different ideal), or random forms.
    """
    disc = draw(st.sampled_from(DISCS))
    col_deg = [draw(st.integers(0, 2)) for _ in range(3)]

    def entry(j):
        kind = draw(st.sampled_from(["zero", "form", "form", "mixed"]))
        if kind == "zero":
            return []
        return draw(raw_terms(disc, None if kind == "mixed" else col_deg[j]))

    raw = [[entry(j) for j in range(3)] for _ in range(2)]
    ref_matrix = tuple(tuple(FractionPoly.build(t, disc) for t in row) for row in raw)
    matrix = tuple(tuple(to_int(e) for e in row) for row in ref_matrix)
    minors = list(ref_minors(ref_matrix))
    mode = draw(st.sampled_from(["scaled", "sheared", "times_x1", "random", "one_random"]))
    if mode == "random":
        gens = [FractionPoly.build(draw(raw_terms(disc, draw(st.integers(0, 4)))), disc) for _ in range(3)]
    else:
        gens = [m.scale(draw(coefs(disc, nonzero=True))) for m in minors]
        if mode == "sheared":
            for i, j in permutations(range(3), 2):
                if gens[i].degree() == gens[j].degree() and not gens[j].is_zero():
                    gens[i] = gens[i] + gens[j].scale(draw(coefs(disc, nonzero=True)))
                    break
        elif mode == "times_x1":
            gens[draw(st.integers(0, 2))] *= FractionPoly.mono(1, 0)
        elif mode == "one_random":
            gens[draw(st.integers(0, 2))] = FractionPoly.build(draw(raw_terms(disc, col_deg[0])), disc)
        gens = [gens[i] for i in draw(st.permutations(range(3)))]
    return matrix, ref_matrix, gens


@settings(max_examples=150, deadline=None)
@given(matrices_and_gens())
def test_minors_and_match_match_fraction_reference(case):
    matrix, ref_matrix, ref_gens = case
    gens = [to_int(g) for g in ref_gens]
    minors = hilbert_burch_minors(matrix)
    expected_minors = ref_minors(ref_matrix)
    for m, rm in zip(minors, expected_minors):
        assert_agrees(m, rm)
    for m, rm in zip(minors, expected_minors):
        for g, rg in zip(gens, ref_gens):
            c = proportional(m, g)
            assert c == ref_proportional(rm, rg)
            assert c is None or all(type(x) is Fraction for x in c)
    try:
        expected = ref_match(ref_matrix, ref_gens)
    except ValidationError:
        with pytest.raises(ValidationError):
            match_generators(matrix, gens)
        return
    report = match_generators(matrix, gens)
    assert [m.terms for m in report.minors] == [m.terms for m in expected[0]]
    assert (
        report.degree_consistent,
        report.per_generator,
        report.verdict,
        report.notes,
    ) == expected[1:]
