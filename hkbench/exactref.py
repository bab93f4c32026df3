"""Reference arithmetic the benchmark uses to build inputs and check outputs.

Everything here is exact (``fractions.Fraction``) and independent of the
``hkdensity`` package, so an oracle built on it is a second route to the
same number rather than a re-run of the code under test.

Densities use the program's JSON form: ascending breakpoints starting at 0,
one coefficient list (constant first) per piece, and an optional tail.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import prod


def evaluate(density: dict, x: Fraction) -> Fraction:
    """Value of a density JSON at x >= 0."""
    bps = [Fraction(b) for b in density["breakpoints"]]
    idx = bisect_right(bps, x) - 1
    if idx < len(density["pieces"]):
        coeffs = density["pieces"][idx]
    else:
        coeffs = density["tail"] or []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def piece_degrees(density: dict) -> list[int]:
    return [len(p) - 1 for p in density["pieces"]]


def density_json(breakpoints, pieces, tail=None) -> dict:
    """Canonical JSON of a piecewise polynomial: equal neighbours merged and
    trailing pieces equal to the continuation dropped, as the program does."""
    bps = [Fraction(breakpoints[0])]
    pcs: list[list[Fraction]] = []
    for b, p in zip(breakpoints[1:], pieces):
        p = _trim(p)
        if pcs and pcs[-1] == p:
            bps[-1] = Fraction(b)
        else:
            bps.append(Fraction(b))
            pcs.append(p)
    cont = _trim(tail or [])
    while pcs and pcs[-1] == cont:
        pcs.pop()
        bps.pop()
    return {
        "breakpoints": [str(b) for b in bps],
        "pieces": [[str(c) for c in p] for p in pcs],
        "tail": None if not cont else [str(c) for c in cont],
    }


def _trim(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


# ------------------------------------------------------------ staircases
#
# An m-primary monomial ideal of k[x, y] is a staircase: generators
# (a_1, b_1), ..., (a_s, b_s) with a strictly decreasing to 0 and b strictly
# increasing from 0.  Its minimal free resolution is read off the corners:
# one first syzygy per generator, in degree a_i + b_i, and one second syzygy
# per adjacent pair, in degree a_i + b_{i+1}.


def staircase_betti(gens) -> list[tuple[int, int, int]]:
    gens = sorted((tuple(g) for g in gens), reverse=True)
    entries = [(1, a + b, 1) for a, b in gens]
    entries += [(2, a + gens[i + 1][1], 1) for i, (a, _) in enumerate(gens[:-1])]
    return entries


def b_numbers(entries) -> dict[int, int]:
    """Alternating column sums B(j), with the implicit B(0) = 1."""
    out = {0: 1}
    for i, j, b in entries:
        out[j] = out.get(j, 0) + (-1) ** i * b
    return {j: v for j, v in sorted(out.items()) if v != 0}


def staircase_colength(bn: dict[int, int], q: int, m: int) -> int:
    """dim_k (k[x,y] / I^[q])_m = sum_j B(j) dim k[x,y]_{m - jq}."""
    return sum(b * max(0, m - j * q + 1) for j, b in bn.items())


def kxy_density(bn: dict[int, int]) -> dict:
    """Limit density over k[x, y] of the ideal with Betti sums B(j):
    sum_j B(j) (x - j)_+, compactly supported."""
    twists = sorted(bn)
    pieces = []
    c0 = c1 = Fraction(0)
    for j in twists:
        c0 -= bn[j] * j
        c1 += bn[j]
        pieces.append([c0, c1])
    return density_json(twists, pieces[:-1])


def staircase_ell(gens) -> int:
    """Least l with (x, y)^l inside the ideal."""
    ell = 1
    while not all(
        any(a <= i and b <= ell - i for a, b in gens) for i in range(ell + 1)
    ):
        ell += 1
    return ell


def koszul_betti(degrees) -> list[tuple[int, int, int]]:
    entries = []
    for i in range(1, len(degrees) + 1):
        for subset in combinations(degrees, i):
            entries.append((i, sum(subset), 1))
    return entries


def betti_json(d: int, entries) -> dict:
    return {"d": d, "betti": [{"i": i, "j": j, "b": b} for i, j, b in entries]}


def koszul_ehk(degrees) -> Fraction:
    """e_HK of k[x_1..x_d] modulo a regular sequence of forms: the product of
    their degrees."""
    return Fraction(prod(degrees))


# --------------------------------------------------------- exact calculus


def grid(*densities: dict) -> list[Fraction]:
    """Union of breakpoints, so every function is polynomial between them."""
    pts = {Fraction(0)}
    for f in densities:
        pts.update(Fraction(b) for b in f["breakpoints"])
    return sorted(pts)


def integrate(fn, points: list[Fraction]) -> Fraction:
    """Integral over [points[0], points[-1]] of a function that is a cubic or
    lower inside each interval.  Milne's rule samples only interior points,
    so it stays exact across jumps at the breakpoints."""
    total = Fraction(0)
    for a, b in zip(points, points[1:]):
        h = (b - a) / 4
        total += (b - a) / 3 * (2 * fn(a + h) - fn(a + 2 * h) + 2 * fn(b - h))
    return total


def agree(fn, gn, points: list[Fraction], degree: int) -> bool:
    """Two piecewise polynomials of degree <= `degree`, polynomial between
    consecutive points, agree on [0, points[-1]] iff they agree at degree + 1
    points inside every interval; the tails are checked by the caller."""
    for a, b in zip(points, points[1:]):
        for k in range(degree + 1):
            x = a + (b - a) * Fraction(2 * k + 1, 2 * degree + 2)
            if fn(x) != gn(x):
                return False
    return True
