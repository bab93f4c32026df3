from __future__ import annotations

from fractions import Fraction

import pytest

from hkdensity.errors import CapacityError, DomainError, ValidationError
from hkdensity.exact import PiecewisePoly, Polynomial, pw_integrate, pw_sup_distance
from hkdensity.lattice import (
    DEFAULT_MAX_POINTS,
    LatticePair,
    MonomialIdealSpec,
    SemigroupSpec,
    enumerate_semigroup,
    enumeration_cap,
)

F = Fraction


def plane(p=2) -> SemigroupSpec:
    return SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 1), p)


def a_spec(n: int, p: int) -> SemigroupSpec:
    return SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), p)


def koszul_pair(p=2) -> LatticePair:
    return LatticePair(plane(p), MonomialIdealSpec.build([(1, 0), (0, 1)]))


def test_spec_validation():
    with pytest.raises(ValidationError):
        SemigroupSpec.build(2, [(1, 0, 0)], (1, 1), 2)  # wrong arity
    with pytest.raises(ValidationError):
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 1), 4)  # p not prime
    with pytest.raises(ValidationError):
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (0, 0), 2)  # all weights zero
    with pytest.raises(ValidationError):
        # (0,1) is invisible to the grading: its degree bucket is infinite
        SemigroupSpec.build(2, [(1, 0), (0, 1)], (1, 0), 2)
    with pytest.raises(ValidationError):
        MonomialIdealSpec.build([])


def test_zero_weight_coordinate_allowed():
    # Segre-type grading by the first coordinate only
    gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
    s = SemigroupSpec.build(3, gens, (1, 0, 0), 2)
    assert s.n0 == 1 and s.dim == 3
    assert all(s.degree(g) == 1 for g in gens)


def test_spec_n0_and_dim():
    assert plane().n0 == 1 and plane().dim == 2
    s = a_spec(2, 5)
    assert s.n0 == 2 and s.dim == 2
    assert a_spec(3, 5).n0 == 1


def test_enumeration_counts_plane():
    enum = enumerate_semigroup(plane(), 6)
    for m in range(7):
        assert len(enum.by_degree[m]) == m + 1


def test_enumeration_counts_a2():
    enum = enumerate_semigroup(a_spec(2, 5), 8)
    # degree-m monomials of k[xy, x^2, y^2]: pairs with a + b = m, a = b mod 2
    for m in range(9):
        want = sum(1 for a in range(m + 1) if (2 * a - m) % 2 == 0)
        assert len(enum.by_degree[m]) == want


def test_ideal_generators_must_lie_in_semigroup():
    with pytest.raises(ValidationError):
        LatticePair(a_spec(2, 5), MonomialIdealSpec.build([(1, 0)]))


def test_koszul_colengths_q2():
    pair = koszul_pair()
    cols = [pair.colength_by_degree(2, m) for m in range(5)]
    assert cols == [1, 2, 1, 0, 0]


def test_invariant_a2_colengths_q2():
    pair = LatticePair(a_spec(2, 2), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]))
    cols = [pair.colength_by_degree(2, m) for m in range(6)]
    assert cols == [1, 0, 3, 0, 2, 0]
    assert sum(cols) == 6  # 2 q^2 - q at q=2


def test_invariant_a3_colengths_q2():
    pair = LatticePair(a_spec(3, 2), MonomialIdealSpec.build([(1, 1), (3, 0), (0, 3)]))
    cols = [pair.colength_by_degree(2, m) for m in range(9)]
    assert cols == [1, 0, 1, 2, 0, 2, 0, 0, 0]


def test_colengths_up_to_matches_per_degree():
    pair = LatticePair(a_spec(3, 5), MonomialIdealSpec.build([(1, 1), (3, 0), (0, 3)]))
    assert pair.colengths_up_to(5, 30) == [pair.colength_by_degree(5, m) for m in range(31)]


def test_support_bound_vanishing():
    pair = koszul_pair()
    bound = pair.support_bound()
    for q in (2, 4, 8):
        m = int(bound * q) + 3
        assert pair.colength_by_degree(q, m) == 0


def test_build_approximant_koszul_level1():
    approx = koszul_pair().build_approximant(1)
    assert approx.q == 2
    f = approx.f_step
    assert f(F(0)) == F(1, 2)
    assert f(F(1, 2)) == 1
    assert f(F(1)) == F(1, 2)
    assert f(F(3, 2)) == 0
    assert approx.integral == 1  # exact at every level for the Koszul pair
    assert approx.g_interp.is_continuous()


def test_invariant_a2_level1_step():
    # q = 2 window sums over n0 = 2 slots, scaled by 1/q
    pair = LatticePair(a_spec(2, 2), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]))
    f = pair.build_approximant(1).f_step
    assert f(F(0)) == F(1, 2)
    assert f(F(1, 2)) == F(3, 2)
    assert f(F(1)) == 1
    assert f(F(3, 2)) == 0
    assert pw_integrate(f) == F(3, 2)


def test_convergence_report_self_reference_zero():
    pair = LatticePair(a_spec(2, 5), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]))
    g2 = pair.build_approximant(2).g_interp
    rows = pair.convergence_report([2], reference=g2)
    assert rows[0].sup_distance == 0


def test_convergence_report_defaults_to_next_level():
    pair = koszul_pair()
    rows = pair.convergence_report([1, 2])
    assert [r.level for r in rows] == [1, 2]
    assert rows[0].sup_distance > rows[1].sup_distance > 0


def test_capacity_cap_and_feasibility():
    # cap sized to admit levels 1-2 of A_2 at p=5 but not level 3+
    pair = LatticePair(
        a_spec(2, 5), MonomialIdealSpec.build([(1, 1), (2, 0), (0, 2)]), cap=10_000
    )
    pair.build_approximant(1)
    with pytest.raises(CapacityError):
        pair.build_approximant(4)


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.delenv("HKDL_MAX_POINTS", raising=False)
    assert enumeration_cap() == DEFAULT_MAX_POINTS
    monkeypatch.setenv("HKDL_MAX_POINTS", "1234")
    assert enumeration_cap() == 1234
    monkeypatch.setenv("HKDL_MAX_POINTS", "zero")
    with pytest.raises(ValidationError):
        enumeration_cap()
    monkeypatch.setenv("HKDL_MAX_POINTS", "-5")
    with pytest.raises(ValidationError):
        enumeration_cap()


def test_level_validation():
    with pytest.raises(DomainError):
        koszul_pair().build_approximant(0)
    with pytest.raises(DomainError):
        koszul_pair().convergence_report([])
