"""Command line front end.

One subcommand = one output artifact (JSON or CSV), written to --out or
stdout.  All numbers in artifacts are exact rational strings; decimal
columns are convenience duplicates and lossy.  Output bytes are
deterministic for identical inputs, because every quantity is computed
exactly.

Exit codes: 0 ok, 1 parse/input error, 2 validation error, 3 resource
cap.  Failures write a one-object JSON report to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .catalog import catalog_density, catalog_entry, catalog_minor_check
from .combinators import DensityPair, rescale_density, segre
from .errors import CapacityError, HKDError, InputError, ValidationError
from .exact import PiecewisePoly, json_get, json_int, json_keys, pw_integrate, rat, rat_str
from .hn import HNData, dim2_pair_density, hn_density
from .lattice import LatticePair, MonomialIdealSpec, SemigroupSpec
from .resolution import BettiTable, closed_form_density, ehk_closed_form
from .rings import hilbert_function, leading_coefficient, parse_ring_json

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; route through InputError
    # so the parse-failure class keeps exit code 1
    def error(self, message):
        raise InputError(message)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # bad JSON, non-UTF-8 bytes, an int past the digit limit, or too deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _dec(x) -> str:
    """Lossy decimal rendering of an exact rational."""
    try:
        return repr(float(Fraction(x)))
    except OverflowError:
        return "inf" if x > 0 else "-inf"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _density_payload(f: PiecewisePoly, integral: Fraction) -> dict:
    return {
        "density": f.to_json(),
        "integral": rat_str(integral),
        "integral_decimal": _dec(integral),
        "support_end": rat_str(f.support_end),
    }


def _load_density(path: str) -> PiecewisePoly:
    data = _read_json(path)
    return PiecewisePoly.from_json(json_get(data, "density", "density JSON", data))


def _load_pair(path: str) -> DensityPair:
    data = _read_json(path)
    what = f"{path}: density pair"
    return DensityPair(
        PiecewisePoly.from_json(json_get(data, "F", what), f"{what} 'F'"),
        PiecewisePoly.from_json(json_get(data, "f", what), f"{what} 'f'"),
        json_int(json_get(data, "d", what), f"{what} 'd'"),
    )


def _pair_payload(pair: DensityPair) -> dict:
    return {
        "F": pair.F.to_json(),
        "f": pair.f.to_json(),
        "d": pair.d,
        "ehat": rat_str(pair.ehat),
        "ehk": rat_str(pair.ehk),
        "ehk_decimal": _dec(pair.ehk),
    }


def _load_lattice_pair(path: str, cap: int | None = None) -> LatticePair:
    what = f"{path}: pair JSON"
    data = json_keys(_read_json(path), what, "semigroup ideal")
    return LatticePair(
        SemigroupSpec.from_json(json_get(data, "semigroup", what)),
        MonomialIdealSpec.from_json(json_get(data, "ideal", what)),
        cap=cap,
    )


def _parse_ints(text: str, what: str) -> list[int]:
    """The integers of a comma-separated flag value; ``what`` names the flag."""
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------- handlers
# Each handler checks its own flags before it reads any file, so a bad flag
# is reported ahead of a bad input file.


def _run_density_betti(ns: argparse.Namespace) -> str:
    data = json_keys(_read_json(ns.infile), "input", "betti ring ehat n0")
    betti = BettiTable.from_json(json_get(data, "betti", "input"))
    if "ring" in data:
        ring = parse_ring_json(json_keys(data, "input with a 'ring'", "betti ring")["ring"])
        h = hilbert_function(ring)
        if betti.d != h.dim:
            raise ValidationError(f"Betti table d = {betti.d} but the ring has dimension {h.dim}")
        ehat, n0 = leading_coefficient(ring), h.n0
    else:
        ehat = rat(json_get(data, "ehat", "input without a 'ring'"), "'ehat'")
        n0 = json_int(json_get(data, "n0", "input", 1), "'n0'")
    f = closed_form_density(betti, ehat, n0)
    # the formula value, checked equal to the integral of f, so it is also
    # the payload's integral
    ehk = ehk_closed_form(f, betti, ehat, n0)
    payload = {
        "command": "density-betti",
        "d": betti.d,
        "n0": n0,
        "ehat": rat_str(ehat),
        "ehk": rat_str(ehk),
        "ehk_decimal": _dec(ehk),
        **_density_payload(f, ehk),
    }
    return _json_text(payload)


def _run_density_empirical(ns: argparse.Namespace) -> str:
    pair = _load_lattice_pair(ns.infile, cap=ns.max_points)
    approx = pair.build_approximant(ns.level)
    integral = approx.integral
    payload = {
        "command": "density-empirical",
        "level": approx.level,
        "q": approx.q,
        "f_step": approx.f_step.to_json(),
        "g_interp": approx.g_interp.to_json(),
        "integral": rat_str(integral),
        "integral_decimal": _dec(integral),
    }
    return _json_text(payload)


def _run_compare(ns: argparse.Namespace) -> str:
    levels = _parse_ints(ns.levels, "levels")
    if not levels or any(n < 1 for n in levels):
        raise InputError(f"levels must be >= 1, got {ns.levels!r}")
    pair = _load_lattice_pair(ns.spec, cap=ns.max_points)
    reference = None
    if ns.reference is not None:
        reference = _load_density(ns.reference)
    rows = pair.convergence_report(levels, reference=reference)
    header = [
        "level",
        "q",
        "sup_distance",
        "sup_distance_decimal",
        "integral",
        "integral_decimal",
    ]
    body = [
        [
            str(r.level),
            str(r.q),
            rat_str(r.sup_distance),
            _dec(r.sup_distance),
            rat_str(r.integral),
            _dec(r.integral),
        ]
        for r in rows
    ]
    return _csv_text(header, body)


def _run_segre(ns: argparse.Namespace) -> str:
    pair = segre(_load_pair(ns.a), _load_pair(ns.b))
    return _json_text({"command": "segre", **_pair_payload(pair)})


def _run_rescale(ns: argparse.Namespace) -> str:
    if ns.l0 < 1 or ns.rank < 1:
        raise InputError("l0 and rank must be >= 1")
    f = _load_density(ns.infile)
    out = rescale_density(f, ns.l0, ns.rank)
    return _json_text({"command": "rescale", **_density_payload(out, pw_integrate(out))})


def _run_catalog(ns: argparse.Namespace) -> str:
    entry = catalog_entry(ns.family, ns.n, ns.p)
    pair, verdict = catalog_density(entry)
    minors = catalog_minor_check(entry)
    payload = {
        "command": "catalog",
        "entry": {
            "label": entry.label,
            "family": entry.family,
            "n": entry.n,
            "gen_degrees": list(entry.gen_degrees),
            "rel_degree": entry.rel_degree,
            "l0": entry.l0,
            "rank": entry.rank,
            "printed_order": entry.printed_order,
            "char_min": entry.char_min,
            "char_coprime_to": entry.char_coprime_to,
            "betti": entry.betti.to_json(),
            "printed_ehk": None if entry.printed_ehk is None else rat_str(entry.printed_ehk),
            "printed_table": None
            if entry.printed_table is None
            else entry.printed_table.to_json(),
        },
        **_pair_payload(pair),
        "verdict": {
            "ehk": rat_str(verdict.ehk),
            "expected_ehk": rat_str(verdict.expected_ehk),
            "ehk_matches_expected": verdict.ehk_matches_expected,
            "printed_ehk": None if verdict.printed_ehk is None else rat_str(verdict.printed_ehk),
            "ehk_matches_printed": verdict.ehk_matches_printed,
            "table_status": verdict.table_status,
            "table_sup_distance": None
            if verdict.table_sup_distance is None
            else rat_str(verdict.table_sup_distance),
            "clean": verdict.clean,
            "flags": list(verdict.flags),
            "notes": list(verdict.notes),
        },
        "minor_check": {
            "verdict": minors.verdict,
            "degree_consistent": minors.degree_consistent,
            "per_generator": list(minors.per_generator),
            "notes": list(minors.notes),
        },
    }
    return _json_text(payload)


def _run_hn2(ns: argparse.Namespace) -> str:
    twists = None if ns.twists is None else _parse_ints(ns.twists, "twists")
    v = HNData.from_json(_read_json(ns.infile))
    f = hn_density(v) if twists is None else dim2_pair_density(v, twists, v.d)
    return _json_text({"command": "hn2", **_density_payload(f, pw_integrate(f))})


def _run_integrate(ns: argparse.Namespace) -> str:
    f = _load_density(ns.infile)
    val = pw_integrate(f)
    return _json_text(
        {
            "command": "integrate",
            "integral": rat_str(val),
            "integral_decimal": _dec(val),
        }
    )


def _run_sample(ns: argparse.Namespace) -> str:
    f = _load_density(ns.infile)
    k = ns.count
    if k < 2:
        raise ValidationError(f"sample count {k} must be >= 2")
    if f.support_end == 0:
        raise ValidationError(
            "the density has no breakpoint past 0, so there is no span to space the points over"
        )
    end = f.support_end * Fraction(11, 10)
    rows = []
    for i in range(k + 1):
        x = end * i / k
        v = f(x)
        rows.append([rat_str(x), _dec(x), rat_str(v), _dec(v)])
    return _csv_text(["x", "x_decimal", "value", "value_decimal"], rows)


# ------------------------------------------------------------ arg parsing


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hkdensity",
        description="Exact Hilbert-Kunz density functions of graded rings.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(handler=handler)
        return p

    threads_help = "has no effect; accepted for compatibility"

    p = add("density-betti", "closed-form density from a graded Betti table", _run_density_betti)
    p.add_argument("--in", dest="infile", required=True, help="betti + ring JSON")

    p = add(
        "density-empirical",
        "step/interpolant approximants by colength counting",
        _run_density_empirical,
    )
    p.add_argument("--in", dest="infile", required=True, help="semigroup pair JSON")
    p.add_argument("--level", type=int, required=True, help="Frobenius level n (q = p^n)")
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.add_argument("--max-points", type=int, default=None, help="enumeration cap override")

    p = add("compare", "convergence table of sup distances", _run_compare)
    p.add_argument("--spec", required=True, help="semigroup pair JSON")
    p.add_argument("--levels", required=True, help="comma-separated levels")
    p.add_argument("--reference", help="density JSON to compare against")
    p.add_argument("--threads", type=int, default=1, help=threads_help)
    p.add_argument("--max-points", type=int, default=None)

    p = add("segre", "Segre product of two density pairs", _run_segre)
    p.add_argument("--a", required=True, help="density pair JSON")
    p.add_argument("--b", required=True, help="density pair JSON")

    p = add(
        "rescale",
        "Veronese-type rescale x -> s f(c x) with c=l0, s=l0/rank",
        _run_rescale,
    )
    p.add_argument("--in", dest="infile", required=True, help="density JSON")
    p.add_argument("--l0", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)

    p = add("catalog", "built-in ADE invariant pairs with verdicts", _run_catalog)
    p.add_argument("--family", required=True, help="A, D, E6, E7 or E8")
    p.add_argument("--n", type=int, help="parameter for the A and D families")
    p.add_argument("--p", type=int, help="characteristic to validate")

    p = add("hn2", "dimension-2 density from Harder-Narasimhan data", _run_hn2)
    p.add_argument("--in", dest="infile", required=True, help="HN JSON")
    p.add_argument(
        "--twists", help="comma-separated generator degrees; subtracts the twisted line-bundle sum"
    )

    p = add("integrate", "integral of a density JSON", _run_integrate)
    p.add_argument("--in", dest="infile", required=True)

    p = add("sample", "evaluate k+1 evenly spaced points past the support", _run_sample)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--count", type=int, required=True, help="k >= 2")

    return parser


def _report(exc: Exception, **extra) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc), **extra}
    sys.stderr.write(_json_text(payload))


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        _emit(ns.handler(ns), ns.out)
        return 0
    except CapacityError as exc:
        _report(exc)
        return 3
    except InputError as exc:
        _report(exc)
        return 1
    except HKDError as exc:
        # ValidationError, DomainError, BettiIdentityError, InternalError
        extra = {}
        if getattr(exc, "residual", None) is not None:
            extra["residual"] = exc.residual.to_json()
        _report(exc, **extra)
        return 2


if __name__ == "__main__":
    sys.exit(main())
