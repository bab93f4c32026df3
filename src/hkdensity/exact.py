"""Exact kernel: rationals, dense univariate polynomials, piecewise polynomials.

Everything here is immutable and exact over Q.  A ``PiecewisePoly`` models a
function on [0, oo): finitely many half-open pieces [b_{i-1}, b_i) between
strictly increasing rational breakpoints (b_0 = 0), then an optional
polynomial tail on [b_k, oo); a missing tail means the function is 0 beyond
the last breakpoint.  Compactly supported densities have no tail, while
envelope functions like ehat*x^(d-1) are a tail with no finite pieces.

Construction always canonicalizes: adjacent equal pieces are merged, trailing
pieces equal to the tail (or to zero when there is none) are absorbed, and a
zero tail is dropped.  Structural equality of canonical forms is therefore
function equality, which the JSON round-trip preserves byte-for-byte.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Iterable

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


def json_list(value, what: str) -> list:
    """A JSON list; anything else is an InputError."""
    if isinstance(value, list):
        return value
    raise InputError(f"{what} must be a JSON list, got {type(value).__name__}")


def json_ints(value, what: str) -> tuple[int, ...]:
    """A JSON list of integers, as a tuple."""
    return tuple(json_int(v, f"{what}[{i}]") for i, v in enumerate(json_list(value, what)))


def rat_str(x: Fraction) -> str:
    """Canonical 'num/den' form; integers print without a denominator."""
    return str(x)


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over Q, coefficients constant-first.

    The zero polynomial is the empty tuple; otherwise the leading coefficient
    is nonzero, so degree == len(coeffs) - 1.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs: int | str | Fraction) -> "Polynomial":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.of(
            *(self._coef(i) + other._coef(i) for i in range(n))
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial.of(*out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.of(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, k: int | str | Fraction) -> "Polynomial":
        k = rat(k)
        return Polynomial.of(*(c * k for c in self.coeffs))

    def compose_linear(self, a: Fraction, b: Fraction) -> "Polynomial":
        """p(a*x + b), exactly."""
        lin = Polynomial.of(b, a)
        acc = Polynomial(())
        for c in reversed(self.coeffs):
            acc = acc * lin + Polynomial.of(c)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial.of(*(i * c for i, c in enumerate(self.coeffs) if i))

    def antiderivative(self) -> "Polynomial":
        return Polynomial.of(
            0, *(c / (i + 1) for i, c in enumerate(self.coeffs))
        )

    def _coef(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: list[int | str]) -> "Polynomial":
        coeffs = json_list(data, "polynomial")
        return Polynomial.of(*(rat(c, "polynomial coefficient") for c in coeffs))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_str(c))
            elif i == 1:
                parts.append(f"{rat_str(c)}*x" if c != 1 else "x")
            else:
                parts.append(f"{rat_str(c)}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


P_ZERO = Polynomial(())
P_ONE = Polynomial.of(1)
P_X = Polynomial.of(0, 1)


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

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly((Fraction(0),), ())

    @staticmethod
    def monomial_tail(coeff: Fraction, power: int) -> "PiecewisePoly":
        """The function coeff * x^power on all of [0, oo)."""
        return PiecewisePoly.build([0], [], Polynomial.of(*([0] * power), coeff))

    def is_zero(self) -> bool:
        return not self.pieces and self.tail is None

    @property
    def support_end(self) -> Fraction:
        """Last breakpoint; the function is given by the tail (or 0) beyond."""
        return self.breakpoints[-1]

    @property
    def has_compact_support(self) -> bool:
        return self.tail is None

    def piece_at(self, x: Fraction) -> Polynomial:
        if x < 0:
            raise DomainError(f"piecewise functions live on [0, oo); got {x}")
        idx = bisect_right(self.breakpoints, x) - 1
        if idx >= len(self.pieces):
            return self.tail if self.tail is not None else P_ZERO
        return self.pieces[idx]

    def __call__(self, x: int | str | Fraction) -> Fraction:
        return self.piece_at(rat(x))(rat(x))

    def is_continuous(self) -> bool:
        segs = list(self.pieces) + [self.tail if self.tail is not None else P_ZERO]
        for b, left, right in zip(self.breakpoints[1:], segs, segs[1:]):
            if left(b) != right(b):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "breakpoints": [rat_str(b) for b in self.breakpoints],
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

    def __str__(self) -> str:
        parts = [
            f"[{a}, {b}): {p}"
            for a, b, p in zip(self.breakpoints, self.breakpoints[1:], self.pieces)
        ]
        if self.tail is not None:
            parts.append(f"[{self.breakpoints[-1]}, oo): {self.tail}")
        return "{" + "; ".join(parts) + "}" if parts else "{0}"


def pw_integrate(f: PiecewisePoly) -> Fraction:
    """Exact integral over [0, oo); requires compact support."""
    if f.tail is not None:
        raise ValidationError("cannot integrate a function with unbounded support")
    total = Fraction(0)
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        anti = p.antiderivative()
        total += anti(b) - anti(a)
    return total


def pw_combine(
    f: PiecewisePoly,
    g: PiecewisePoly,
    op: Callable[[Polynomial, Polynomial], Polynomial],
) -> PiecewisePoly:
    """Apply a polynomial binary operation pointwise on the union refinement."""
    cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
    pieces = [op(f.piece_at(a), g.piece_at(a)) for a in cuts[:-1]]
    f_tail = f.tail if f.tail is not None else P_ZERO
    g_tail = g.tail if g.tail is not None else P_ZERO
    tail = op(f_tail, g_tail)
    return PiecewisePoly.build(cuts, pieces, None if tail.is_zero() else tail)


def pw_add(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return pw_combine(f, g, lambda a, b: a + b)


def pw_sub(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return pw_combine(f, g, lambda a, b: a - b)


def pw_mul(f: PiecewisePoly, g: PiecewisePoly) -> PiecewisePoly:
    return pw_combine(f, g, lambda a, b: a * b)


def pw_scale(f: PiecewisePoly, k: int | str | Fraction) -> PiecewisePoly:
    k = rat(k)
    tail = None if f.tail is None else f.tail.scale(k)
    return PiecewisePoly.build(
        f.breakpoints, [p.scale(k) for p in f.pieces], tail
    )


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


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    while len(rem) >= len(b.coeffs) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(b.coeffs)
        factor = rem[-1] / b.coeffs[-1]
        quot[shift] = factor
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= factor * c
        rem.pop()
    return Polynomial.of(*quot), Polynomial.of(*rem)


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        _, rem = _poly_divmod(a, b)
        a, b = b, rem
    if a.is_zero():
        return a
    return a.scale(1 / a.coeffs[-1])


def _sturm_chain(p: Polynomial) -> list[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]

def _sign_variations(chain: list[Polynomial], x: Fraction) -> int:
    signs = [v for q in chain if (v := q(x)) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_real_roots(p: Polynomial, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of p in (a, b], by Sturm's theorem.

    For squarefree p this holds with roots at the endpoints too: a root at
    a is not counted and a root at b is.
    """
    if p.is_zero():
        raise DomainError("root count of the zero polynomial")
    chain = _sturm_chain(p)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def _odd_part(p: Polynomial) -> Polynomial:
    """a_1 * a_3 * ... from Yun's square-free decomposition p = c * a_1 *
    a_2^2 * a_3^3 ...: its roots are the points where p changes sign."""
    dp = p.derivative()
    g = _poly_gcd(p, dp)
    b, c = _poly_divmod(p, g)[0], _poly_divmod(dp, g)[0]
    factors = []
    while b.degree > 0:
        d = c - b.derivative()
        factors.append(_poly_gcd(b, d))
        b, c = _poly_divmod(b, factors[-1])[0], _poly_divmod(d, factors[-1])[0]
    return prod(factors[::2], start=P_ONE)


def poly_nonnegative(p: Polynomial, a: Fraction, b: Fraction) -> bool:
    """Whether p >= 0 on all of [a, b], decided exactly: the endpoint values
    (enough for degree <= 1), then p changes sign in (a, b) iff its odd part
    has a Sturm root there, else the sign at one non-root of deg + 1 points."""
    if p(a) < 0 or p(b) < 0:
        return False
    if p.degree <= 1:
        return True
    odd = _odd_part(p)
    if count_real_roots(odd, a, b) - (odd(b) == 0) > 0:
        return False
    n = p.degree + 2
    return next(v for k in range(1, n) if (v := p(a + (b - a) * k / n))) > 0


def pw_negative_piece(f: PiecewisePoly) -> tuple[Fraction, Fraction] | None:
    """First finite piece [a, b) whose polynomial dips below 0 on [a, b], or None."""
    for a, b, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        if not poly_nonnegative(p, a, b):
            return a, b
    return None


def _isolate(
    q: Polynomial, a: Fraction, b: Fraction, width: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Intervals (lo, hi] narrower than width, each holding exactly one of
    the roots of the squarefree q in (a, b], by bisection on its Sturm chain."""
    chain = _sturm_chain(q)
    out = []
    todo = [(a, b, _sign_variations(chain, a), _sign_variations(chain, b))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1 and hi - lo < width:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = _sign_variations(chain, mid)
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
    q = _poly_divmod(dp, _poly_gcd(dp, dp.derivative()))[0]
    den = lcm(*(c.denominator for c in q.scale(1 / q.coeffs[-1]).coeffs))
    mx = max(abs(a), abs(b))
    lip = sum(abs(c) * (mx ** i) for i, c in enumerate(dp.coeffs))
    pads = []
    for lo, hi in _isolate(q, a, b, min((b - a) / 1024, Fraction(1, 2 * den * den))):
        r = ((lo + hi) / 2).limit_denominator(den)
        if lo < r <= hi and q(r) == 0:
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
