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
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .catalog import catalog_density, catalog_entry, catalog_minor_check
from .combinators import DensityPair, rescale_density, segre
from .errors import CapacityError, HKDError, InputError, ValidationError
from .exact import PiecewisePoly, json_get, json_int, json_keys, pw_integrate, rat
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
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` for what the
    payloads hold: dicts with str keys, lists, tuples, str, int, bool and
    None, with a Fraction written as its 'num/den' string and a value with
    ``to_json()`` as what that returns.  Anything else raises TypeError."""
    out: list[str] = []
    _json_write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _json_write(obj, out: list[str], newline: str) -> None:
    """Append the chunks of obj, indented as at ``newline``, to out."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _json_write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):  # _quote raises TypeError on a key that is no str
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _json_write(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, Fraction):  # after the containers: an ABC check costs more
        out.append(_quote(str(obj)))
    elif hasattr(obj, "to_json"):
        _json_write(obj.to_json(), out, newline)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _csv_text(header: list[str], rows: list[list]) -> str:
    # cells are written by str(); no field holds a comma, a quote or a line
    # break, so none is quoted
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


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
        "density": f,
        "integral": integral,
        "integral_decimal": _dec(integral),
        "support_end": f.support_end,
    }


def _load_density(path: str) -> PiecewisePoly:
    data = _read_json(path)
    return PiecewisePoly.from_json(json_get(data, "density", "density JSON", data))


def _load_pair(path: str) -> DensityPair:
    data = _read_json(path)
    what = f"{path}: density pair"
    F = PiecewisePoly.from_json(json_get(data, "F", what), f"{what} 'F'")
    f = PiecewisePoly.from_json(json_get(data, "f", what), f"{what} 'f'")
    d = json_int(json_get(data, "d", what), f"{what} 'd'")
    if d < 2:
        raise ValidationError("density pairs need dimension >= 2")
    # canonical forms are equal exactly when the functions are
    ehat = F.tail.coeffs[-1] if F.tail is not None else 0
    if ehat <= 0 or F != PiecewisePoly.monomial_tail(ehat, F.tail.degree):
        raise ValidationError("envelope must be a single positive monomial ehat * x^k")
    if F.tail.degree != d - 1:
        raise ValidationError(f"envelope degree {F.tail.degree} != d - 1 = {d - 1}")
    return DensityPair(ehat, f, d)


def _pair_payload(pair: DensityPair) -> dict:
    return {
        "F": pair.F,
        "f": pair.f,
        "d": pair.d,
        "ehat": pair.ehat,
        "ehk": pair.ehk,
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


# The least value of each integer flag, by dest, checked in this order after
# parsing and before any handler reads a file.  levels and twists come in as
# comma-separated text and go on as lists.  A bad HKDL_MAX_POINTS is no flag:
# lattice.enumeration_cap refuses it (exit 2).
_LEAST = {"level": 1, "levels": 1, "max_points": 1, "l0": 1, "rank": 1, "twists": 1, "count": 2}


def _check_flags(ns: argparse.Namespace) -> None:
    for dest, least in _LEAST.items():
        value, flag = getattr(ns, dest, None), dest.replace("_", "-")
        ints = [value]
        if isinstance(value, str):
            try:
                ints = [int(part) for part in value.split(",") if part.strip()]
            except ValueError:
                ints = []
            if not ints:
                raise InputError(f"{flag} must be one or more comma-separated integers, got {value!r}")
            setattr(ns, dest, ints)
        if value is not None and min(ints) < least:
            raise InputError(f"{flag} must be >= {least}, got {value!r}")


# ---------------------------------------------------------------- handlers


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
        "ehat": ehat,
        "ehk": ehk,
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
        "f_step": approx.f_step,
        "g_interp": approx.g_interp,
        "integral": integral,
        "integral_decimal": _dec(integral),
    }
    return _json_text(payload)


def _run_compare(ns: argparse.Namespace) -> str:
    pair = _load_lattice_pair(ns.spec, cap=ns.max_points)
    reference = None
    if ns.reference is not None:
        reference = _load_density(ns.reference)
    rows = pair.convergence_report(ns.levels, reference=reference)
    header = ["level", "q", "sup_distance", "sup_distance_decimal", "integral", "integral_decimal"]
    return _csv_text(header, [
        [r.level, r.q, r.sup_distance, _dec(r.sup_distance), r.integral, _dec(r.integral)] for r in rows
    ])


def _run_segre(ns: argparse.Namespace) -> str:
    pair = segre(_load_pair(ns.a), _load_pair(ns.b))
    return _json_text({"command": "segre", **_pair_payload(pair)})


def _run_rescale(ns: argparse.Namespace) -> str:
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
            "gen_degrees": entry.gen_degrees,
            "rel_degree": entry.rel_degree,
            "l0": entry.l0,
            "rank": entry.rank,
            "printed_order": entry.printed_order,
            "char_min": entry.char_min,
            "char_coprime_to": entry.char_coprime_to,
            "betti": entry.betti,
            "printed_ehk": entry.printed_ehk,
            "printed_table": entry.printed_table,
        },
        **_pair_payload(pair),
        "verdict": {
            "ehk": pair.ehk,
            "expected_ehk": entry.expected_ehk,
            "ehk_matches_expected": verdict.ehk_matches_expected,
            "printed_ehk": entry.printed_ehk,
            "ehk_matches_printed": verdict.ehk_matches_printed,
            "table_status": verdict.table_status,
            "table_sup_distance": verdict.table_sup_distance,
            "clean": verdict.clean,
            "flags": verdict.flags,
            "notes": verdict.notes,
        },
        "minor_check": {
            "verdict": minors.verdict,
            "degree_consistent": minors.degree_consistent,
            "per_generator": minors.per_generator,
            "notes": minors.notes,
        },
    }
    return _json_text(payload)


def _run_hn2(ns: argparse.Namespace) -> str:
    v = HNData.from_json(_read_json(ns.infile))
    f = hn_density(v) if ns.twists is None else dim2_pair_density(v, ns.twists)
    return _json_text({"command": "hn2", **_density_payload(f, pw_integrate(f))})


def _run_integrate(ns: argparse.Namespace) -> str:
    f = _load_density(ns.infile)
    val = pw_integrate(f)
    return _json_text({"command": "integrate", "integral": val, "integral_decimal": _dec(val)})


def _run_sample(ns: argparse.Namespace) -> str:
    k = ns.count
    f = _load_density(ns.infile)
    if f.support_end == 0:
        raise ValidationError(
            "the density has no breakpoint past 0, so there is no span to space the points over"
        )
    end = f.support_end * Fraction(11, 10)
    rows = []
    for i in range(k + 1):
        x = end * i / k
        v = f(x)
        rows.append([x, _dec(x), v, _dec(v)])
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
        "--twists",
        help="comma-separated generator degrees, each >= 1; subtracts the twisted line-bundle sum",
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
        _check_flags(ns)
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
            extra["residual"] = exc.residual
        _report(exc, **extra)
        return 2


if __name__ == "__main__":
    sys.exit(main())
