"""The paper's corollary on diagonal mu_n actions, checked two ways.

G = mu_n acts on k[x_1..x_d] by x_i -> zeta^(a_i) x_i, written (1/n)(a).
The invariant monomials form the semigroup S = {v : a.v = 0 mod n}, and
R = k[S] with m_G its homogeneous maximal ideal.  Both paths run on the
Hilbert basis of S, graded by total degree (all weights 1):

* closed form: the Taylor complex of m_G k[x] over k[x] is a graded free
  resolution, not minimal, but only the alternating sums B(j) enter the
  density.  ``closed_form_density`` with ehat = 1/(d-1)! and n0 = 1 gives
  the density of (k[x], m_G k[x]); ``rescale_density(., l0, n)``, l0 the gcd
  of the basis degrees, regrades it to (R, m_G), whose e_HK is
  l(k[x]/m_G k[x]) / n;
* lattice: the Hilbert basis as both the semigroup generators and the ideal.

mu_p in characteristic p is a group scheme that is not a group; both paths
are characteristic-free for monomial actions, so p | n is covered too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkdensity.combinators import rescale_density
from hkdensity.exact import PiecewisePoly, pw_integrate
from hkdensity.lattice import LatticePair, MonomialIdealSpec, SemigroupSpec
from hkdensity.resolution import BettiTable, closed_form_density

F = Fraction


def hilbert_basis(n: int, a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The minimal nonzero invariant monomials.  Every one has degree at
    most n: a zero-sum sequence in Z/n longer than n has a zero-sum part."""
    pts = [
        v
        for v in itertools.product(range(n + 1), repeat=len(a))
        if 0 < sum(v) <= n and sum(x * y for x, y in zip(a, v)) % n == 0
    ]
    below = lambda u, v: u != v and all(x <= y for x, y in zip(u, v))
    return [v for v in pts if not any(below(u, v) for u in pts)]


def taylor_betti(d: int, gens: list[tuple[int, ...]]) -> BettiTable:
    """The Taylor complex: one row (|T|, deg lcm T, 1) for each nonempty
    subset T of the generators.  The subsets are counted by (lcm, |T|), one
    generator at a time, so 21 generators cost no 2^21 walk."""
    count: dict[tuple[tuple[int, ...], int], int] = {}
    for g in gens:
        for (lcm, i), c in list(count.items()):
            key = (tuple(map(max, lcm, g)), i + 1)
            count[key] = count.get(key, 0) + c
        count[g, 1] = count.get((g, 1), 0) + 1
    return BettiTable.build(d, [(i, sum(lcm), c) for (lcm, i), c in count.items()])


def colength(n: int, gens: list[tuple[int, ...]]) -> int:
    """l(k[x]/m_G k[x]): the monomials divisible by no basis element.  Each
    x_i has a pure power in the basis, of exponent at most n."""
    d = len(gens[0])
    return sum(
        not any(all(x >= y for x, y in zip(v, g)) for g in gens)
        for v in itertools.product(range(n), repeat=d)
    )


def both_paths(n: int, a: tuple[int, ...], p: int) -> tuple[PiecewisePoly, LatticePair, int]:
    """The closed-form density of (R, m_G), the lattice pair and the colength."""
    d, gens = len(a), hilbert_basis(n, a)
    spec = SemigroupSpec.build(d, gens, (1,) * d, p)
    ambient = closed_form_density(taylor_betti(d, gens), F(1, factorial(d - 1)), 1)
    f = rescale_density(ambient, spec.n0, n)
    return f, LatticePair(spec, MonomialIdealSpec.build(gens)), colength(n, gens)


def test_taylor_betti_counts_every_subset():
    gens = hilbert_basis(3, (1, 1, 1))
    assert len(gens) == 10
    rows = [
        (len(t), sum(map(max, (0, 0, 0), *t)), 1)
        for k in range(1, len(gens) + 1)
        for t in itertools.combinations(gens, k)
    ]
    assert taylor_betti(3, gens) == BettiTable.build(3, rows)
    assert hilbert_basis(3, (1, 2)) == [(0, 3), (1, 1), (3, 0)]


@pytest.mark.parametrize("n, a, p, sups, ehk", [
    (3, (1, 2), 2, ["2/3", "1/3", "1/6", "1/12"], "5/3"),
    (3, (1, 1, 1), 2, ["2", "63/32", "31/32", "279/512"], "10/3"),
    (5, (1, 2, 3), 2, ["13/20", "3/10", "77/640"], "17/5"),
    (2, (1, 1, 1), 3, ["49/40", "169/360", "529/3240"], "2"),
    (2, (1, 1, 1), 2, ["249/160", "609/640", "1329/2560"], "2"),
    (2, (1, 1, 1, 1), 3, ["142/81", "1319/2187"], "5/2"),
])
def test_diagonal_quotient_sups_are_pinned(n, a, p, sups, ehk):
    f, pair, ell = both_paths(n, a, p)
    assert pw_integrate(f) == F(ehk) == F(ell, n)
    rows = pair.convergence_report(list(range(1, len(sups) + 1)), reference=f)
    assert [r.sup_distance for r in rows] == [F(s) for s in sups]


@pytest.mark.parametrize("n, a, levels", [(2, (1, 1, 1), [1, 2, 3]), (3, (1, 1, 1), [1, 2])])
def test_mu_p_lattice_integral_is_exact(n, a, levels):
    # mu_p in characteristic p = n: the integral of g_n is e_HK at every level
    f, pair, ell = both_paths(n, a, n)
    assert [r.integral for r in pair.convergence_report(levels, reference=f)] == [F(ell, n)] * len(levels)


@st.composite
def diagonal_actions(draw):
    """(n, a, p) with n <= 5, d in {2, 3}, p in {2, 3, 5}, and a faithful:
    gcd(n, a) = 1, so the group has order n and k[x] has rank n over R."""
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from([2, 3]))
    a = draw(st.tuples(*[st.integers(0, n - 1)] * d).filter(lambda a: gcd(n, *a) == 1))
    return n, a, draw(st.sampled_from([2, 3, 5]))


@settings(max_examples=40, deadline=None)
@given(diagonal_actions())
def test_diagonal_quotient_integral_and_convergence(action):
    n, a, p = action
    f, pair, ell = both_paths(n, a, p)
    assert pw_integrate(f) == F(ell, n)
    # not monotone level by level ((1/3)(1,1,1) at p = 2 reads 2, then
    # 63/32), but down by level 3; at p = 5 level 3 of (1/5)(1,2,3) passes
    # the default cap, so level 2 stands in
    first, last = pair.convergence_report([1, 3 if p < 5 else 2], reference=f)
    assert last.sup_distance < first.sup_distance
