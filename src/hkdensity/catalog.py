"""Built-in catalog of the two-dimensional ADE invariant pairs.

Each entry packages, for R = k[x1, x2] and the three fundamental
invariants h1, h2, h3 of the finite subgroup acting on it:

* the generator degrees and the single relation degree of the invariant
  ring k[h1, h2, h3],
* the graded Betti table of (h1, h2, h3)R over R, via Hilbert-Burch,
* the 2x3 syzygy matrix itself and the generators as exact bivariate
  polynomials (E6 needs the quadratic extension with u^2 = -12),
* the piece table and the multiplicity value as printed in the source
  tables, retained verbatim for discrepancy reporting.

`catalog_density` runs the closed form on the ambient Betti table with
ehat and n0 = l0 of the invariant ring k[h1, h2, h3] (``AdeEntry.ring``).
As ehat = l0^2/rank, that is the Veronese-type relation
f(x) = (l0/rank) f_ambient(l0 x) in one step.  The verdict it returns
compares the result against the archived printed data instead of silently
correcting either side.  The printed tables for the A, D, E6 and E7
families each fail their own integral cross-check; only E8 agrees in full.
The lattice oracle on the A family (`catalog_lattice_crosscheck`) is what
settles which side is right there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .bivariate import BivariatePoly, MinorMatchReport, match_generators
from .combinators import DensityPair
from .errors import DomainError, InputError, ValidationError
from .exact import PiecewisePoly, Polynomial, pw_integrate, pw_sup_distance
# the package's one primality test lives in lattice, next to SemigroupSpec
from .lattice import (
    ConvergenceRow,
    LatticePair,
    MonomialIdealSpec,
    SemigroupSpec,
    _is_prime,
)
from .resolution import BettiTable, closed_form_density
from .rings import CompleteIntersectionRing

FAMILIES = ("A", "D", "E6", "E7", "E8")
MAX_PARAMETER = 50

Matrix = tuple[tuple[BivariatePoly, BivariatePoly, BivariatePoly], ...]


@dataclass(frozen=True)
class AdeEntry:
    family: str
    n: int
    char_min: int
    char_coprime_to: int | None
    gen_degrees: tuple[int, int, int]
    rel_degree: int
    betti: BettiTable
    hb_matrix: Matrix
    gens: tuple[BivariatePoly, BivariatePoly, BivariatePoly]
    printed_order: int
    printed_table: PiecewisePoly | None
    printed_ehk: Fraction | None
    flags: tuple[str, ...]

    @cached_property
    def ring(self) -> CompleteIntersectionRing:
        """The invariant ring k[h1, h2, h3] as a graded complete intersection."""
        return CompleteIntersectionRing(self.gen_degrees, (self.rel_degree,))

    @property
    def l0(self) -> int:
        return self.ring.n0

    @cached_property
    def rank(self) -> int:
        """The rank of k[x1, x2] over the invariant ring, read off its
        ehat = l0^2 / rank."""
        ring = self.ring
        r = ring.n0**2 / ring.ehat()
        if r.denominator != 1:
            raise ValidationError(f"rank {r} is not an integer")
        return r.numerator

    @property
    def expected_ehk(self) -> Fraction:
        return 2 - Fraction(1, self.rank)

    @property
    def label(self) -> str:
        if self.family in ("A", "D"):
            return f"{self.family}_{self.n}"
        return self.family

    def char_ok(self, p: int) -> bool:
        if p < self.char_min or not _is_prime(p):
            return False
        if self.char_coprime_to is not None and self.char_coprime_to % p == 0:
            return False
        return True


def _table(den: int, rows) -> PiecewisePoly:
    """A printed piece table: each row (start, end, c0, c1) is
    (c0 + c1 x) / den on [start, end).  Zero-width rows are dropped, which
    the tables need at degenerate parameters (A_2's middle row)."""
    kept = [row for row in rows if row[0] < row[1]]
    return PiecewisePoly.build(
        [kept[0][0], *(end for _, end, _, _ in kept)],
        [Polynomial.over([c0, c1], den) for _, _, c0, c1 in kept],
    )


def _mono(a: int, b: int, r: int = 1) -> BivariatePoly:
    return BivariatePoly.over([(a, b, r, 0)])


def _poly(terms, den: int = 1, disc: int | None = None) -> BivariatePoly:
    """The sum of the integer terms (a, b, r) for r x1^a x2^b, or
    (a, b, r, s) for (r + s*u) x1^a x2^b, over den."""
    return BivariatePoly.over([t if len(t) == 4 else (*t, 0) for t in terms], den, disc)


@cache
def _entry_a(n: int) -> AdeEntry:
    betti = BettiTable.build(
        2, [(1, 2, 1), (1, n, 1), (1, n, 1), (2, n + 1, 2)]
    )
    gens = (_mono(1, 1), _mono(n, 0), _mono(0, n))
    matrix: Matrix = (
        (_mono(n - 1, 0), _mono(0, 1, -1), BivariatePoly.zero()),
        (_mono(0, n - 1), BivariatePoly.zero(), _mono(1, 0, -1)),
    )
    if n % 2 == 0:
        half, end = Fraction(n, 2), Fraction(n + 1, 2)
        table = _table(n + 1, [(0, 1, 0, 4), (1, half, 4, 0), (half, end, 4 + 4 * n, -8)])
    else:
        table = _table(n + 1, [(0, 2, 0, 1), (2, n, 2, 0), (n, n + 1, 2 + 2 * n, -2)])
    return AdeEntry(
        family="A",
        n=n,
        char_min=2,
        char_coprime_to=n,
        gen_degrees=(2, n, n),
        rel_degree=2 * n,
        betti=betti,
        hb_matrix=matrix,
        gens=gens,
        printed_order=n,
        printed_table=table,
        printed_ehk=None,
        flags=(),
    )


@cache
def _entry_d(n: int) -> AdeEntry:
    betti = BettiTable.build(
        2, [(1, 4, 1), (1, 2 * n, 1), (1, 2 * n + 2, 1), (2, 2 * n + 3, 2)]
    )
    sign = 1 if n % 2 == 0 else -1
    gens = (
        _mono(2, 2, -2),
        _poly([(2 * n, 0, 1), (0, 2 * n, sign)]),
        _poly([(2 * n + 1, 1, 1), (1, 2 * n + 1, -sign)]),
    )
    matrix: Matrix = (
        (_mono(n - 1, 0, -2), _mono(1, 2), _mono(0, 1)),
        (_mono(0, n - 1, -2), _mono(2, 1, -1), _mono(1, 0)),
    )
    flags = ["syzygy matrix minors have degrees (4, n, n+2), not the resolution's (4, 2n, 2n+2)"]
    table = None
    if n % 2 == 1:
        flags.append("printed matrix and piece table assume n even")
    elif n == 2:
        flags.append("printed piece-table denominator n-2 vanishes at n=2")
    else:
        table = _table(
            n - 2,
            [
                (0, 2, 0, 1),
                (2, n, 2, 0),
                (n, n + 1, n + 2, -1),
                (n + 1, Fraction(2 * n + 3, 2), 2 * n + 3, -2),
            ],
        )
    return AdeEntry(
        family="D",
        n=n,
        char_min=3,
        char_coprime_to=n,
        gen_degrees=(4, 2 * n, 2 * n + 2),
        rel_degree=4 * n + 4,
        betti=betti,
        hb_matrix=matrix,
        gens=gens,
        printed_order=4 * n,
        printed_table=table,
        printed_ehk=2 - Fraction(1, 4 * n),
        flags=tuple(flags),
    )


@cache
def _entry_e6() -> AdeEntry:
    # coefficient field k(u), u^2 = -12; a = 2 sqrt(-3) is u
    D = -12
    gens = (
        _poly([(5, 1, 1), (1, 5, -1)]),
        _poly([(4, 0, 1), (2, 2, 0, 1), (0, 4, 1)], disc=D),
        _poly([(4, 0, 1), (2, 2, 0, -1), (0, 4, 1)], disc=D),
    )
    # the middle and right columns carry u/2: numerators over den = 2
    matrix: Matrix = (
        (
            _mono(1, 0),
            _poly([(2, 1, 0, -1), (0, 3, -2)], 2, D),
            _poly([(2, 1, 0, 1), (0, 3, -2)], 2, D),
        ),
        (
            _mono(0, 1),
            _poly([(3, 0, 2), (1, 2, 0, 1)], 2, D),
            _poly([(3, 0, 2), (1, 2, 0, -1)], 2, D),
        ),
    )
    betti = BettiTable.build(2, [(1, 6, 1), (1, 4, 2), (2, 7, 2)])
    table = _table(6, [(0, 2, 0, 1), (2, 3, 4, -1), (3, Fraction(7, 2), 7, -2)])
    return AdeEntry(
        family="E6",
        n=6,
        char_min=5,
        char_coprime_to=None,
        gen_degrees=(6, 4, 4),
        rel_degree=12,
        betti=betti,
        hb_matrix=matrix,
        gens=gens,
        printed_order=24,
        printed_table=table,
        printed_ehk=None,
        flags=(
            "printed |G| = 24 conflicts with rank 8 implied by degrees (6,4,4)/(12)",
            "syzygy minors generate (a*h1, h2, h3), proportional not equal",
        ),
    )


@cache
def _entry_e7() -> AdeEntry:
    gens = (
        _poly([(5, 1, 1), (1, 5, -1)]),
        _poly([(8, 0, 1), (4, 4, 14), (0, 8, 1)]),
        _poly([(12, 0, 1), (8, 4, -33), (4, 8, -33), (0, 12, 1)]),
    )
    matrix: Matrix = (
        (_poly([(4, 3, -7), (0, 7, -1)]), _mono(5, 0), _mono(1, 0)),
        (_poly([(3, 4, 7), (7, 0, 1)]), _mono(0, 5), _mono(0, 1)),
    )
    betti = BettiTable.build(2, [(1, 6, 1), (1, 8, 1), (1, 12, 1), (2, 13, 2)])
    table = _table(48, [(0, 6, 0, 1), (6, 8, 6, 0), (8, 12, 14, -1), (12, 13, 26, -2)])
    return AdeEntry(
        family="E7",
        n=7,
        char_min=5,
        char_coprime_to=None,
        gen_degrees=(6, 8, 12),
        rel_degree=24,
        betti=betti,
        hb_matrix=matrix,
        gens=gens,
        printed_order=24,
        printed_table=table,
        printed_ehk=2 - Fraction(1, 24),
        flags=(
            "printed piece table keeps the ambient argument (breaks 6,8,12,13 over denominator 48)",
        ),
    )


@cache
def _entry_e8() -> AdeEntry:
    gens = (
        _poly([(11, 1, 1), (6, 6, 11), (1, 11, -1)]),
        _poly(
            [
                (30, 0, 1),
                (0, 30, 1),
                (25, 5, 522),
                (5, 25, -522),
                (20, 10, -10005),
                (10, 20, -10005),
            ]
        ),
        _poly(
            [
                (20, 0, -1),
                (0, 20, -1),
                (15, 5, 228),
                (5, 15, -228),
                (10, 10, -494),
            ]
        ),
    )
    # the middle column carries 11/2: numerators over den = 2; 247 = 494/2
    matrix: Matrix = (
        (
            _mono(1, 0),
            _poly([(11, 0, -2), (6, 5, -11)], 2),
            _poly([(0, 19, 1), (5, 14, 228), (10, 9, 247)]),
        ),
        (
            _mono(0, 1),
            _poly([(0, 11, -2), (5, 6, 11)], 2),
            _poly([(19, 0, -1), (14, 5, 228), (9, 10, -247)]),
        ),
    )
    betti = BettiTable.build(2, [(1, 12, 1), (1, 30, 1), (1, 20, 1), (2, 31, 2)])
    table = _table(
        30, [(0, 6, 0, 1), (6, 10, 6, 0), (10, 15, 16, -1), (15, Fraction(31, 2), 31, -2)]
    )
    return AdeEntry(
        family="E8",
        n=8,
        char_min=7,
        char_coprime_to=None,
        gen_degrees=(12, 30, 20),
        rel_degree=60,
        betti=betti,
        hb_matrix=matrix,
        gens=gens,
        printed_order=120,
        printed_table=table,
        printed_ehk=Fraction(239, 120),
        flags=(),
    )


def catalog_entry(family: str, n: int | None = None, p: int | None = None) -> AdeEntry:
    """Look up one catalog entry, built once per process, checking the
    parameter and any characteristic against its constraints on every call."""
    fam = str(family).upper()
    if fam not in FAMILIES:
        raise InputError(f"unknown family {family!r}; choose from {FAMILIES}")
    if fam in ("A", "D"):
        if n is None:
            raise InputError(f"family {fam} needs a parameter n")
        if not 2 <= n <= MAX_PARAMETER:
            raise ValidationError(
                f"parameter n = {n} outside the supported range [2, {MAX_PARAMETER}]"
            )
        entry = _entry_a(n) if fam == "A" else _entry_d(n)
    else:
        fixed = int(fam[1])
        if n is not None and n != fixed:
            raise ValidationError(f"family {fam} has no parameter (got n = {n})")
        entry = {"E6": _entry_e6, "E7": _entry_e7, "E8": _entry_e8}[fam]()
    if p is not None and not entry.char_ok(p):
        constraint = f"prime p >= {entry.char_min}"
        if entry.char_coprime_to is not None:
            constraint += f" with p coprime to {entry.char_coprime_to}"
        raise ValidationError(f"characteristic {p} not admissible for {entry.label}: needs {constraint}")
    return entry


@dataclass(frozen=True)
class CatalogVerdict:
    """How the derived pair compares with the entry: the e_HK values
    compared are the pair's ``ehk`` and the entry's ``expected_ehk`` and
    ``printed_ehk``."""

    ehk_matches_expected: bool
    ehk_matches_printed: bool | None
    table_status: str  # "agrees" | "discrepancy" | "not-printed"
    table_sup_distance: Fraction | None
    flags: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return (
            self.ehk_matches_expected
            and self.ehk_matches_printed is not False
            and self.table_status != "discrepancy"
            and not self.flags
        )


def catalog_density(entry: AdeEntry) -> tuple[DensityPair, CatalogVerdict]:
    """Derived density pair of the invariant ring, plus the comparison
    against the printed table and multiplicity."""
    ring = entry.ring
    ehat, l0 = ring.ehat(), ring.n0
    f = closed_form_density(entry.betti, ehat, l0)
    pair = DensityPair(ehat, f, 2)

    if f.support_end != Fraction(entry.betti.max_twist(), l0):
        raise ValidationError(
            f"{entry.label}: support ends at {f.support_end}, expected "
            f"{entry.betti.max_twist()}/{l0}"
        )

    ehk = pair.ehk
    notes = []
    matches_expected = ehk == entry.expected_ehk
    if not matches_expected:
        notes.append(
            f"derived e_HK {ehk} != 2 - 1/rank = {entry.expected_ehk}"
        )
    matches_printed = None
    if entry.printed_ehk is not None:
        matches_printed = ehk == entry.printed_ehk
        if not matches_printed:
            notes.append(f"derived e_HK {ehk} != printed value {entry.printed_ehk}")
    if entry.printed_table is None:
        status, dist = "not-printed", None
    else:
        dist = pw_sup_distance(f, entry.printed_table)
        status = "agrees" if dist == 0 else "discrepancy"
        if dist != 0:
            printed_int = pw_integrate(entry.printed_table)
            notes.append(
                f"printed table differs from derived (sup distance {dist}); "
                f"its own integral is {printed_int}, not {ehk}"
            )
    verdict = CatalogVerdict(
        ehk_matches_expected=matches_expected,
        ehk_matches_printed=matches_printed,
        table_status=status,
        table_sup_distance=dist,
        flags=entry.flags,
        notes=tuple(notes),
    )
    return pair, verdict


def catalog_minor_check(entry: AdeEntry) -> MinorMatchReport:
    """Compare the 2x2 minors of the stored syzygy matrix with the stored
    generators, up to scalar, falling back to graded ideal equality."""
    return match_generators(entry.hb_matrix, entry.gens)


def catalog_lattice_crosscheck(entry: AdeEntry, p: int, levels: list[int]) -> list[ConvergenceRow]:
    """Empirical convergence check against the derived density.

    Only the A family is toric: its invariant ring is the semigroup ring
    k[x1 x2, x1^n, x2^n].  D and E invariants contain non-monomial
    generators, so the lattice path does not apply to them.
    """
    if entry.family != "A":
        raise DomainError(
            f"{entry.label} is not a monomial (toric) invariant ring; "
            "the lattice crosscheck only covers the A family"
        )
    if not entry.char_ok(p):
        raise ValidationError(f"characteristic {p} not admissible for {entry.label}")
    n = entry.n
    spec = SemigroupSpec.build(2, [(1, 1), (n, 0), (0, n)], (1, 1), p)
    ideal = MonomialIdealSpec.build([(1, 1), (n, 0), (0, n)])
    reference = catalog_density(entry)[0].f
    return LatticePair(spec, ideal).convergence_report(levels, reference=reference)
