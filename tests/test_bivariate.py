from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity.bivariate import (
    C_ZERO,
    BivariatePoly,
    _c_add,
    _c_div,
    _c_is_zero,
    _c_mul,
    _c_neg,
    _merge_disc,
    graded_ideal_equal,
    hilbert_burch_minors,
    match_generators,
    matrix_degree_report,
    proportional,
)
from hkdensity.errors import InputError

F = Fraction
P = BivariatePoly


def x1(k=1):
    return P.mono(k, 0)


def x2(k=1):
    return P.mono(0, k)


def test_build_and_arithmetic():
    p = P.build([(1, 0, 1), (0, 1, -1)])  # x1 - x2
    q = P.build([(1, 0, 1), (0, 1, 1)])
    prod = p * q
    assert prod == P.build([(2, 0, 1), (0, 2, -1)])  # x1^2 - x2^2
    assert (p + q) == P.mono(1, 0, 2)
    assert (p - p).is_zero()
    assert p.scale(F(1, 3)) == P.build([(1, 0, F(1, 3)), (0, 1, F(-1, 3))])


def test_degree_and_homogeneity():
    p = P.build([(2, 1, 1), (0, 3, 5)])
    assert p.degree() == 3 and p.is_homogeneous()
    assert not P.build([(1, 0, 1), (0, 2, 1)]).is_homogeneous()
    assert P.zero().degree() == -1


def test_quadratic_extension_arithmetic():
    # u^2 = -12
    u = P.mono(0, 0, (0, 1), disc=-12)
    assert u * u == P.mono(0, 0, -12, disc=-12)
    mixed = P.build([(1, 0, (1, 1))], disc=-12)
    sq = mixed * mixed  # (1+u)^2 x1^2 = (1 - 12 + 2u) x1^2
    assert sq == P.build([(2, 0, (-11, 2))], disc=-12)


def test_build_validation():
    with pytest.raises(InputError):
        P.build([(-1, 0, 1)])
    with pytest.raises(InputError):
        P.build([(1, 0, (0, 1))])  # irrational part, no disc
    with pytest.raises(InputError):
        P.build([(1, 0, 1)], disc=4)  # perfect square
    with pytest.raises(InputError):
        P.build([(0, 0, (0, 1))], disc=-3) + P.build([(0, 0, (0, 1))], disc=-12)


def test_hilbert_burch_minors_koszul_style():
    # [[x, -y, 0], [y, 0, -x]] resolves (xy, x^2, y^2)
    matrix = (
        (x1(), x2(1).scale(-1), P.zero()),
        (x2(), P.zero(), x1(1).scale(-1)),
    )
    m1, m2, m3 = hilbert_burch_minors(matrix)
    assert m1 == P.mono(1, 1)
    assert m2 == P.mono(2, 0)
    assert m3 == P.mono(0, 2)


def test_matrix_degree_report():
    matrix = (
        (x1(), x2(1).scale(-1), P.zero()),
        (x2(), P.zero(), x1(1).scale(-1)),
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
    p = P.build([(2, 0, 2), (0, 2, -2)])
    q = P.build([(2, 0, -1), (0, 2, 1)])
    assert proportional(p, q) == (-2, 0)
    assert proportional(p, P.mono(2, 0)) is None
    # zero polynomials never count as proportional to anything
    assert proportional(P.zero(), P.zero()) is None


def test_graded_ideal_equal_basic():
    gens_a = [x1(2), x2(2), P.mono(1, 1)]
    # same ideal, different generators of the degree-2 piece
    gens_b = [
        P.build([(2, 0, 1), (1, 1, 1)]),
        P.build([(0, 2, 1), (1, 1, 1)]),
        P.mono(1, 1, 3),
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
            shifted = g * P.mono(i, m - dg - i)
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
        return P.build([(i, d - i, c) for i, c in enumerate(coeffs)])

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
    assert graded_ideal_equal(gens_a, gens_b) == ideal_equal_every_degree(gens_a, gens_b)


U = -12  # u^2 = -12, the E6 coefficient field


@st.composite
def quadratic_generator_sets(draw):
    part = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))

    def coef(nonzero=False):
        c = (draw(part), draw(part))
        return (1, 0) if nonzero and c == (0, 0) else c

    def form():
        d = draw(st.integers(0, 4))
        return P.build([(i, d - i, coef()) for i in range(d + 1)], disc=U)

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
    assert graded_ideal_equal(gens_a, gens_b) == ideal_equal_generator_degrees(
        gens_a, gens_b
    )


def test_graded_ideal_equal_quadratic_scalars():
    # (1 + u) x1 and u x1 span the same line over Q(u) but not over Q
    x1_u = P.build([(1, 0, (0, 1))], disc=U)
    x1_1u = P.build([(1, 0, (1, 1))], disc=U)
    assert graded_ideal_equal([x1_u, x2()], [x1_1u, P.mono(0, 1, (2, -3), disc=U)])
    g = P.build([(1, 0, 1), (0, 1, (0, 1))], disc=U)  # x1 + u x2
    h = P.build([(1, 0, 1), (0, 1, (0, -1))], disc=U)  # x1 - u x2
    assert not graded_ideal_equal([g], [h])
    assert graded_ideal_equal([g, h], [x1(), x2()])


def test_match_generators_permutation_insensitive():
    matrix = (
        (x1(), x2(1).scale(-1), P.zero()),
        (x2(), P.zero(), x1(1).scale(-1)),
    )
    # generators supplied in a different order than the minors come out
    report = match_generators(matrix, (P.mono(0, 2), P.mono(1, 1), P.mono(2, 0)))
    assert report.verdict == "ok"
    assert report.per_generator == ("proportional", "proportional", "proportional")


def test_match_generators_mismatch_lists_offender():
    matrix = (
        (x1(), x2(1).scale(-1), P.zero()),
        (x2(), P.zero(), x1(1).scale(-1)),
    )
    report = match_generators(matrix, (P.mono(1, 1), P.mono(2, 0), P.mono(0, 3)))
    assert report.verdict == "mismatch"
    assert any("minor" in note for note in report.notes)
