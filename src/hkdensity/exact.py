"""Exact kernel: rationals, dense univariate polynomials, piecewise polynomials.

Everything here is immutable and exact over Q, and computed in integers: a
``Polynomial`` is integer numerators over one denominator, the sign tests
decide pieces of degree <= 2 at their ends and vertex and run Sturm chains
and Yun's odd part on integer polynomials above that, JSON coefficients are
reduced from the numerators, and Fractions are made only for values
(evaluations and breakpoints).  A ``PiecewisePoly`` models a function on
[0, oo): finitely many half-open pieces [b_{i-1}, b_i) between strictly
increasing rational breakpoints (b_0 = 0), then an optional polynomial tail
on [b_k, oo); a missing tail means the function is 0 beyond the last
breakpoint.  Compactly supported densities have no tail, while
envelope functions like ehat*x^(d-1) are a tail with no finite pieces.

Construction always canonicalizes: adjacent equal pieces are merged, trailing
pieces equal to the tail (or to zero when there is none) are absorbed, and a
zero tail is dropped.  Structural equality of canonical forms is therefore
function equality, which the JSON round-trip preserves byte-for-byte.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm

from .errors import DomainError, InputError, ValidationError


def rat(value: int | str | Fraction, what: str = "rational") -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'num/den' string.
    Floats and bools (JSON true/false) are refused; ``what`` names the field."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: bad rational literal {value!r}: {exc}") from None
    raise InputError(f"{what} must be an integer or a 'num/den' string, got {value!r}")


def json_int(value, what: str) -> int:
    """A JSON integer (bool excluded); anything else is an InputError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be a JSON integer, got {value!r}")


def json_get(obj, key: str, what: str, *default):
    """``obj[key]`` of the JSON object ``what`` names, or else the default if given."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key in obj:
        return obj[key]
    if default:
        return default[0]
    raise InputError(f"{what} needs key {key!r}")


def json_keys(obj, what: str, keys: str) -> dict:
    """The JSON object ``what`` names; a key outside the space-separated ``keys`` is refused."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if unknown := sorted(set(obj) - set(keys.split())):
        raise InputError(f"{what} has unknown keys {unknown}; allowed: {keys}")
    return obj


def json_list(value, what: str) -> list:
    """A JSON list; anything else is an InputError."""
    if isinstance(value, list):
        return value
    raise InputError(f"{what} must be a JSON list, got {type(value).__name__}")


def json_ints(value, what: str) -> tuple[int, ...]:
    """A JSON list of integers, as a tuple."""
    return tuple(json_int(v, f"{what}[{i}]") for i, v in enumerate(json_list(value, what)))


# ---------------------------------------------------------------------------
# polynomials; the kernel works on integer lists, constant term first


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _horner(nums, u: int, v: int) -> int:
    """v^k * p(u/v) for p = sum nums[i] x^i of degree k: for v > 0 an
    integer with the sign of p(u/v)."""
    acc, w = 0, 1
    for n in reversed(nums):
        acc = acc * u + n * w
        w *= v
    return acc


def _mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _derivative(a) -> list[int]:
    return [i * n for i, n in enumerate(a)][1:]


def _primitive(a) -> list[int]:
    """a without trailing zeros, divided by its content; signs are kept."""
    a = _trim(list(a))
    g = gcd(*a) or 1
    return [n // g for n in a]


def _prem(a, b) -> list[int]:
    """|lc b|^(deg a - deg b + 1) * (a mod b): the remainder of a by b
    times a positive integer, so its signs are the remainder's."""
    if b[-1] < 0:
        b = [-n for n in b]
    r = list(a)
    for shift in reversed(range(len(a) - len(b) + 1)):
        c = r.pop()
        r = [b[-1] * n for n in r]
        for i, n in enumerate(b[:-1]):
            r[shift + i] -= c * n
    return r


def _gcd(a, b) -> list[int]:
    """Primitive gcd with positive leading coefficient, by the primitive
    remainder sequence (Collins, J. ACM 14, 1967); a is nonzero."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a if a[-1] > 0 else [-n for n in a]


def _exact_div(a, b) -> list[int]:
    """a / b where b divides a in Z[x], as a primitive b dividing a over Q does."""
    r, q = list(a), []
    for shift in reversed(range(len(a) - len(b) + 1)):
        q.append(r.pop() // b[-1])
        for i, n in enumerate(b[:-1]):
            r[shift + i] -= q[-1] * n
    return q[::-1]


def _odd_part(p) -> list[int]:
    """a_1 * a_3 * ... from Yun's square-free decomposition p = c * a_1 *
    a_2^2 * a_3^3 ... (Yun, SYMSAC 1976), over Z: its roots are the points
    where the nonconstant p changes sign."""
    g = _gcd(p, _derivative(p))
    b, c = _exact_div(p, g), _exact_div(_derivative(p), g)
    odd, k = [1], 1
    while len(b) > 1:
        d = _trim([x - y for x, y in zip(c, _derivative(b))])
        factor = _gcd(b, d)
        if k % 2:
            odd = _mul(odd, factor)
        b, c, k = _exact_div(b, factor), _exact_div(d, factor), k + 1
    return odd


def _sturm_chain(p) -> list[list[int]]:
    """Sturm sequence of the nonzero p: p, p', then each negated remainder
    as a positive multiple (``_prem``) made primitive."""
    chain = [p, _derivative(p)]
    while len(chain[-1]) > 1 and (rem := _primitive(_prem(chain[-2], chain[-1]))):
        chain.append([-n for n in rem])
    return [q for q in chain if q]


def _variations(chain, x: int | Fraction) -> int:
    signs = [v > 0 for q in chain if (v := _horner(q, x.numerator, x.denominator))]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over Q: integer numerators ``nums``,
    constant first, over one denominator ``den`` > 0, in lowest terms
    (gcd(den, *nums) = 1) and with a nonzero leading numerator: degree ==
    len(nums) - 1, and structural equality is value equality."""

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def over(nums: list[int], den: int) -> "Polynomial":
        """The polynomial with numerators ``nums`` (a list it may trim) over
        the denominator den > 0, in canonical form."""
        g = gcd(den, *_trim(nums))
        return Polynomial(tuple(n // g for n in nums), den // g)

    @staticmethod
    def of(*coeffs: int | str | Fraction) -> "Polynomial":
        cs = [rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return Polynomial.over([c.numerator * (den // c.denominator) for c in cs], den)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x: int | Fraction) -> Fraction:
        return Fraction(*self._at(x))

    def _at(self, x: int | Fraction) -> tuple[int, int]:
        """p(x) as an unreduced integer pair (numerator, denominator > 0),
        for comparisons and sums that make no Fraction."""
        v = x.denominator
        return _horner(self.nums, x.numerator, v), self.den * v ** max(self.degree, 0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        pairs = zip_longest(self.nums, other.nums, fillvalue=0)
        return Polynomial.over([a * x + b * y for x, y in pairs], den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-n for n in self.nums), self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.over(_mul(self.nums, other.nums), self.den * other.den)

    def scale(self, k: int | str | Fraction) -> "Polynomial":
        k = rat(k)
        return Polynomial.over([n * k.numerator for n in self.nums], self.den * k.denominator)

    def compose_linear(self, a: int | Fraction, b: int | Fraction) -> "Polynomial":
        """p(a*x + b), exactly: with a*x + b = (A*x + B)/C, Horner on
        sum n_i (A*x + B)^i C^(k+1-i) over den * C^(k+1), k the degree."""
        big_a, big_b = a.numerator * b.denominator, b.numerator * a.denominator
        c = a.denominator * b.denominator
        acc, w = [], 1
        for n in reversed(self.nums):
            acc = [big_b * x + big_a * y for x, y in zip(acc + [0], [0] + acc)]
            w *= c
            acc[0] += n * w
        return Polynomial.over(acc, self.den * w)

    def derivative(self) -> "Polynomial":
        return Polynomial.over(_derivative(self.nums), self.den)

    def antiderivative(self) -> "Polynomial":
        m = lcm(*range(1, len(self.nums) + 1))
        nums = [0] + [n * (m // (i + 1)) for i, n in enumerate(self.nums)]
        return Polynomial.over(nums, self.den * m)

    def to_json(self) -> list[str]:
        """The coefficients as ``str`` writes their Fractions, 'num/den' or
        an integer, reduced from the integer numerators with one gcd each."""
        out = []
        for n in self.nums:
            g = gcd(n, self.den)
            out.append(str(n // g) if g == self.den else f"{n // g}/{self.den // g}")
        return out

    @staticmethod
    def from_json(data: list[int | str]) -> "Polynomial":
        coeffs = json_list(data, "polynomial")
        return Polynomial.of(*(rat(c, "polynomial coefficient") for c in coeffs))


P_ZERO = Polynomial(())


# ---------------------------------------------------------------------------
# piecewise polynomials


@dataclass(frozen=True)
class PiecewisePoly:
    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Polynomial, ...]
    tail: Polynomial | None = None

    @staticmethod
    def build(
        breakpoints: Iterable[int | str | Fraction],
        pieces: Iterable[Polynomial],
        tail: Polynomial | None = None,
    ) -> "PiecewisePoly":
        bps = [rat(b) for b in breakpoints]
        pcs = list(pieces)
        if len(bps) != len(pcs) + 1:
            raise ValidationError(
                f"{len(bps)} breakpoints require {len(bps) - 1} pieces, got {len(pcs)}"
            )
        if not bps or bps[0] != 0:
            raise ValidationError("first breakpoint must be 0")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValidationError("breakpoints must be strictly increasing")
        return _canonical(bps, pcs, tail)

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly((Fraction(0),), ())

    @staticmethod
    def monomial_tail(coeff: Fraction, power: int) -> "PiecewisePoly":
        """The function coeff * x^power on all of [0, oo)."""
        c = rat(coeff)
        tail = Polynomial.over([0] * power + [c.numerator], c.denominator)
        return _canonical([Fraction(0)], [], tail)

    @property
    def support_end(self) -> Fraction:
        """Last breakpoint; the function is given by the tail (or 0) beyond."""
        return self.breakpoints[-1]

    def piece_at(self, x: Fraction) -> Polynomial:
        if x < 0:
            raise DomainError(f"piecewise functions live on [0, oo); got {x}")
        idx = bisect_right(self.breakpoints, x) - 1
        if idx >= len(self.pieces):
            return self.tail if self.tail is not None else P_ZERO
        return self.pieces[idx]

    def __call__(self, x: int | str | Fraction) -> Fraction:
        x = rat(x)
        return self.piece_at(x)(x)

    def is_continuous(self) -> bool:
        segs = list(self.pieces) + [self.tail if self.tail is not None else P_ZERO]
        for b, left, right in zip(self.breakpoints[1:], segs, segs[1:]):
            (n1, d1), (n2, d2) = left._at(b), right._at(b)
            if n1 * d2 != n2 * d1:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "breakpoints": [str(b) for b in self.breakpoints],
            "pieces": [p.to_json() for p in self.pieces],
            "tail": None if self.tail is None else self.tail.to_json(),
        }

    @staticmethod
    def from_json(data: dict, what: str = "density") -> "PiecewisePoly":
        breakpoints = json_list(json_get(data, "breakpoints", what), f"{what} 'breakpoints'")
        pieces = json_list(json_get(data, "pieces", what), f"{what} 'pieces'")
        tail = json_get(data, "tail", what, None)
        return PiecewisePoly.build(
            [rat(b, f"{what} breakpoint") for b in breakpoints],
            [Polynomial.from_json(p) for p in pieces],
            None if tail is None else Polynomial.from_json(tail),
        )


def _canonical(
    bps: list[Fraction], pcs: list[Polynomial], tail: Polynomial | None
) -> PiecewisePoly:
    """The canonical form of pieces as ``PiecewisePoly.build`` validates
    them: breakpoints strictly increasing from 0, one more than the pieces."""
    if tail is not None and tail.is_zero():
        tail = None
    # merge adjacent equal pieces
    merged_b = [bps[0]]
    merged_p: list[Polynomial] = []
    for b, p in zip(bps[1:], pcs):
        if merged_p and merged_p[-1] == p:
            merged_b[-1] = b
        else:
            merged_b.append(b)
            merged_p.append(p)
    # absorb trailing pieces equal to the implicit continuation
    cont = tail if tail is not None else P_ZERO
    while merged_p and merged_p[-1] == cont:
        merged_p.pop()
        merged_b.pop()
    return PiecewisePoly(tuple(merged_b), tuple(merged_p), tail)


def pw_integrate(f: PiecewisePoly) -> Fraction:
    """Exact integral over [0, oo); requires compact support."""
    if f.tail is not None:
        raise ValidationError("cannot integrate a function with unbounded support")
    # num / den over the lcm of the pieces' denominators; one Fraction at the end
    num, den = 0, 1
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        anti = p.antiderivative()
        (nb, db), (na, da) = anti._at(b), anti._at(a)
        common = lcm(den, db * da)
        num = num * (common // den) + (nb * da - na * db) * (common // (db * da))
        den = common
    return Fraction(num, den)


def pw_combine(
    f: PiecewisePoly,
    g: PiecewisePoly,
    op: Callable[[Polynomial, Polynomial], Polynomial],
) -> PiecewisePoly:
    """Apply a polynomial binary operation pointwise on the union refinement:
    one walk over both breakpoint lists, compared by cross-multiplication."""
    fb, gb = f.breakpoints, g.breakpoints
    f_tail = f.tail if f.tail is not None else P_ZERO
    g_tail = g.tail if g.tail is not None else P_ZERO
    # the piece after each breakpoint, the last one being the tail
    fp, gp = f.pieces + (f_tail,), g.pieces + (g_tail,)
    nf, ng = len(fb) - 1, len(gb) - 1
    cuts, pieces, i, j = [fb[0]], [], 0, 0
    while i < nf or j < ng:
        pieces.append(op(fp[i], gp[j]))
        # side < 0: the next breakpoint is f's, > 0: g's, 0: both
        if i == nf:
            side = 1
        elif j == ng:
            side = -1
        else:
            a, b = fb[i + 1], gb[j + 1]
            side = a.numerator * b.denominator - b.numerator * a.denominator
        if side <= 0:
            i += 1
        if side >= 0:
            j += 1
        cuts.append(fb[i] if side <= 0 else gb[j])
    return _canonical(cuts, pieces, op(f_tail, g_tail))


def pw_sub(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return pw_combine(f, g, lambda a, b: a - b)


def pw_mul(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return pw_combine(f, g, lambda a, b: a * b)


def pw_rescale_arg(
    f: PiecewisePoly, c: int | str | Fraction, s: int | str | Fraction
) -> PiecewisePoly:
    """x |-> s * f(c * x) for c > 0.  Integrals scale by s/c exactly."""
    c, s = rat(c), rat(s)
    if c <= 0:
        raise DomainError(f"argument rescale factor must be positive, got {c}")
    pieces = [p.compose_linear(c, Fraction(0)).scale(s) for p in f.pieces]
    tail = None
    if f.tail is not None:
        tail = f.tail.compose_linear(c, Fraction(0)).scale(s)
    return PiecewisePoly.build([b / c for b in f.breakpoints], pieces, tail)


# ---------------------------------------------------------------------------
# exact sign tests; sup distance, exact or certified


def poly_nonnegative(p: Polynomial, a: Fraction, b: Fraction) -> bool:
    """Whether p >= 0 on all of [a, b], a < b, decided exactly.  First the
    signs of p(a) and p(b), which decide a p of degree <= 1.  A quadratic
    (c0 + c1 x + c2 x^2) / den with both ends >= 0 dips below 0 only at its
    vertex -c1 / (2 c2), so it is >= 0 when the vertex is not strictly
    inside (a, b) or when c1^2 <= 4 c0 c2.  For c2 < 0 the two
    cross-multiplied comparisons read a > vertex and vertex > b, which
    cannot both hold, so a concave quadratic always reads "not inside".
    Else, on the integer numerators q of t |-> p(a + (b - a) t) on [0, 1]:
    q changes sign in (0, 1) iff its odd part has a Sturm root there, else
    the sign at one of k / (deg + 2)."""
    if p._at(a)[0] < 0 or p._at(b)[0] < 0:
        return False
    if p.degree <= 1:
        return True
    if p.degree == 2:
        c0, c1, c2 = p.nums
        return (
            not 2 * c2 * a.numerator < -c1 * a.denominator
            or not -c1 * b.denominator < 2 * c2 * b.numerator
            or c1 * c1 <= 4 * c0 * c2
        )
    q = _primitive(p.compose_linear(b - a, a).nums)
    chain = _sturm_chain(_odd_part(q))
    if _variations(chain, 0) - _variations(chain, 1) - (sum(chain[0]) == 0) > 0:
        return False
    n = len(q) + 1
    return next(v for k in range(1, n) if (v := _horner(q, k, n))) > 0


def pw_negative_piece(f: PiecewisePoly) -> tuple[Fraction, Fraction] | None:
    """First finite piece [a, b) whose polynomial dips below 0 on [a, b], or None."""
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        if not poly_nonnegative(p, a, b):
            return a, b
    return None


def _isolate(
    q: list[int], a: Fraction, b: Fraction, width: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Intervals (lo, hi] narrower than width, each holding exactly one of
    the roots of the squarefree q in (a, b], by bisection on its Sturm chain."""
    chain = _sturm_chain(q)
    out = []
    todo = [(a, b, _variations(chain, a), _variations(chain, b))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo < width:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        todo += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return out


def _poly_abs_sup(p: Polynomial, a: Fraction, b: Fraction) -> Fraction:
    """sup of |p| over [a, b]: exact when the maximum of |p| is at a rational
    point, else an upper bound within lip * (b - a) / 1024 of it, where lip
    >= |p'| on [a, b].

    The critical points are the roots of q, the squarefree part of p'.  With
    L the common denominator of monic q, a rational root of q has a
    denominator dividing L and two such lie at least 1/L^2 apart, so an
    isolating interval narrower than 1/(2 L^2) holds no rational root but
    its midpoint's ``limit_denominator(L)``.  M, the largest |p| at a, b and
    the rational roots, is the sup when no interval with an irrational root
    can exceed it or when M - p >= 0 and M + p >= 0 on [a, b].  Otherwise
    each such (lo, hi] adds (|p(lo)| + |p(hi)| + lip * (hi - lo)) / 2.
    """
    top = max(abs(p(a)), abs(p(b)))
    if p.degree <= 1:
        return top
    dp = p.derivative()
    q = _exact_div(_primitive(dp.nums), _gcd(dp.nums, _derivative(dp.nums)))
    den = abs(q[-1])  # the common denominator of monic q, as q is primitive
    lip = Polynomial(tuple(abs(n) for n in dp.nums), dp.den)(max(abs(a), abs(b)))
    pads = []
    for lo, hi in _isolate(q, a, b, min((b - a) / 1024, Fraction(1, 2 * den * den))):
        r = ((lo + hi) / 2).limit_denominator(den)
        if lo < r <= hi and _horner(q, r.numerator, r.denominator) == 0:
            top = max(top, abs(p(r)))
        else:
            pads.append((abs(p(lo)) + abs(p(hi)) + lip * (hi - lo)) / 2)
    pad = max(pads, default=top)
    bound = Polynomial.of(top)
    if pad <= top or (
        poly_nonnegative(bound - p, a, b) and poly_nonnegative(bound + p, a, b)
    ):
        return top
    return pad


def pw_sup_distance(f: PiecewisePoly, g: PiecewisePoly) -> Fraction:
    """sup |f - g| over [0, oo).

    Exact for pieces of degree <= 2 and whenever |f - g| attains its
    maximum at a rational point; otherwise an upper bound that exceeds the
    sup on its piece [a, b] by at most lip * (b - a) / 1024, lip >= sup of
    the piece's slope (see ``_poly_abs_sup``).  Raises if the difference
    grows without bound.
    """
    diff = pw_sub(f, g)
    sup = Fraction(0)
    if diff.tail is not None:
        if diff.tail.degree >= 1:
            raise ValidationError("sup distance is unbounded (divergent tails)")
        sup = abs(diff.tail.coeffs[0])
    for a, b, p in zip(diff.breakpoints, diff.breakpoints[1:], diff.pieces):
        if not p.is_zero():
            sup = max(sup, _poly_abs_sup(p, a, b))
        # closure values at the right end still bound the open-interval sup
    return sup
