"""Dimension-2 closed form from strong Harder-Narasimhan data.

For a vector bundle on the curve Proj of a two-dimensional graded ring,
with strong HN slopes a_1 > ... > a_{l+1}, ranks r_1, ..., r_{l+1}, and
d = deg O(1), the density is piecewise linear with breakpoints 1 - a_i/d:
on the region past the i-th breakpoint the value is
-sum_{k>i} (a_k + d(x-1)) r_k, and 0 past the last one.

A graded pair (R, I) with I generated in degrees d_1..d_s enters through
the syzygy sequence 0 -> V -> sum_i O(1-d_i) -> O(1) -> 0:
f_{R,I} = f_V - f_{sum O(1-d_i)}, where the line summand O(1-d_i) carries
HN data {slope (1-d_i)d, rank 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exact import (
    PiecewisePoly,
    Polynomial,
    json_get,
    json_int,
    json_keys,
    json_list,
    pw_negative_piece,
    pw_sub,
    rat,
)


@dataclass(frozen=True)
class HNData:
    components: tuple[tuple[Fraction, int], ...]  # (slope, rank) pairs
    d: int

    def __post_init__(self):
        for _, rank in self.components:
            if rank < 1:
                raise ValidationError(f"component rank {rank} must be >= 1")
        if self.d < 1:
            raise ValidationError(f"d = {self.d} must be >= 1")
        slopes = [s for s, _ in self.components]
        if any(s <= t for s, t in zip(slopes, slopes[1:])):
            raise ValidationError(f"slopes must strictly decrease, got {slopes}")

    @staticmethod
    def build(pairs, d: int) -> "HNData":
        return HNData(tuple((Fraction(s), r) for s, r in pairs), d)

    @staticmethod
    def from_json(data: dict) -> "HNData":
        json_keys(data, "HN JSON", "d components")
        comps = json_list(json_get(data, "components", "HN JSON"), "HN 'components'")
        pairs = [
            (rat(json_get(c, "slope", "HN component"), "HN component 'slope'"),
             json_int(json_get(c, "rank", "HN component"), "HN component 'rank'"))
            for c in (json_keys(x, "HN component", "slope rank") for x in comps)
        ]
        return HNData.build(pairs, json_int(json_get(data, "d", "HN JSON"), "HN 'd'"))


def hn_density(e: HNData) -> PiecewisePoly:
    """Piecewise linear density of the bundle; breakpoints 1 - a_i/d."""
    comps = e.components
    if not comps:
        return PiecewisePoly.zero()
    d = Fraction(e.d)
    thresholds = [1 - a / d for a, _ in comps]  # strictly increasing

    def region_piece(i: int) -> Polynomial:
        # -sum_{k > i} (a_k + d(x-1)) r_k, components indexed from 1
        const = sum(((d - a) * r for a, r in comps[i:]), Fraction(0))
        lin = -d * sum(r for _, r in comps[i:])
        return Polynomial.of(const, lin)

    if thresholds[-1] <= 0:
        return PiecewisePoly.zero()
    breakpoints = [Fraction(0)]
    pieces = []
    for i, t in enumerate(thresholds):
        if t <= 0:
            continue
        pieces.append(region_piece(i))
        breakpoints.append(t)
    out = PiecewisePoly.build(breakpoints, pieces, None)
    if not out.is_continuous():
        raise ValidationError("HN density came out discontinuous")
    _check_nonnegative(out, "HN density")
    return out


def _check_nonnegative(f: PiecewisePoly, what: str) -> None:
    if (piece := pw_negative_piece(f)) is not None:
        raise ValidationError(
            f"{what} is negative near [{piece[0]}, {piece[1]}): "
            "inconsistent input data"
        )


def dim2_pair_density(v: HNData, twist_degrees) -> PiecewisePoly:
    """f_V minus the density of the twisted line-bundle sum of the syzygy
    sequence; the result is the HK density of the underlying graded pair."""
    slope_ranks: dict[Fraction, int] = {}
    for deg in twist_degrees:
        # a generator of degree 0 is a unit, and then I = R
        if deg < 1:
            raise ValidationError(f"twist degree {deg} must be >= 1")
        slope = Fraction((1 - deg) * v.d)
        slope_ranks[slope] = slope_ranks.get(slope, 0) + 1
    summand = HNData.build(
        sorted(slope_ranks.items(), key=lambda kv: kv[0], reverse=True), v.d
    )
    # both densities are compactly supported and continuous, so out is too
    out = pw_sub(hn_density(v), hn_density(summand))
    _check_nonnegative(out, "pair density")
    return out
