"""Output checks, one per job type, each along a route independent of the
code path the job exercised, plus the corruptions the self-test feeds them.

``check(job, rc, out, err, twins)`` returns a list of problems; an empty list
means the job's output is right.  ``out`` is the bytes the job wrote with
``--out`` (None if it wrote nothing) and ``err`` its stderr text.  ``twins``
runs a twin job, a different input that must give the same answer, and
returns its output bytes.

Oracles by job type:
  staircase      step values of f_n equal resolution colengths / q in every
                 degree, g_n interpolates them, integrals are their sums, and
                 sup distances are recomputed on the common grid
                 (with --reference tent on the Koszul pair: exactly 2^-n)
  segre-lattice  integral = 4/3 - 1/(3 q^2) at every level
  cap            exit 3 with a CapacityError report and no output file
  catalog        2 - e_HK = 1/rank, E8 table "agrees" at sup distance 0,
                 minor check "ok" (D_n: "mismatch", its documented minors
                 have degrees (4, n, n+2))
  koszul-ci      e_HK = product of the Koszul degrees
  twin-A         byte-identical to the job over the hypersurface (2,n,n)/(2n)
  twin-RNC       density, ehat, ehk equal the job over the Veronese of k[x,y]
  twin-hn        density equals the Koszul job over k[x,y]
  segre          f = F - (F_A - f_A)(F_B - f_B) and the three-term expansion
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import exactref

CSV_HEADER = ["level", "q", "sup_distance", "sup_distance_decimal", "integral", "integral_decimal"]


def check(job: dict, rc, out: bytes | None, err: str, twins) -> list[str]:
    if rc != job["expect"]:
        return [f"exit code {rc}, expected {job['expect']}: {err.strip()[-300:]}"]
    kind = job["check"]["type"]
    try:
        return CHECKS[kind](job["check"], out, err, twins)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"{kind}: unreadable output ({type(exc).__name__}: {exc})"]


def _decimal_ok(value: Fraction, text: str) -> bool:
    return text == repr(float(value))


# ---------------------------------------------------------------- lattice


def _step_values(ideal, q: int) -> tuple[list[Fraction], int]:
    """v_M = colength(q, M) / q for M = 0..last, with v vanishing after last."""
    bn = exactref.b_numbers(exactref.staircase_betti(ideal))
    last = q * max(bn) + 1
    return [Fraction(exactref.staircase_colength(bn, q, m), q) for m in range(last + 1)], last


def _interp(values: list[Fraction], q: int, x: Fraction) -> Fraction:
    """g_n at x: straight lines through (M/q, v_M), zero past the values."""
    pos = x * q
    m = pos.numerator // pos.denominator
    t = pos - m
    v0 = values[m] if m < len(values) else Fraction(0)
    v1 = values[m + 1] if m + 1 < len(values) else Fraction(0)
    return v0 + t * (v1 - v0)


def _on_grid(density: dict, q: int) -> bool:
    return all((Fraction(b) * q).denominator == 1 for b in density["breakpoints"])


def _check_staircase(c: dict, out, err, twins) -> list[str]:
    p, ideal = c["p"], c["ideal"]
    problems = []
    if c["kind"] == "density-empirical":
        data = json.loads(out)
        q = p ** c["level"]
        values, last = _step_values(ideal, q)
        integral = sum(values, Fraction(0)) / q
        if (data["level"], data["q"]) != (c["level"], q):
            problems.append(f"level/q {data['level']}/{data['q']}, expected {c['level']}/{q}")
        f, g = data["f_step"], data["g_interp"]
        if f["tail"] is not None or g["tail"] is not None:
            problems.append("approximants must be compactly supported")
        if not (_on_grid(f, q) and _on_grid(g, q)):
            problems.append("breakpoints off the 1/q grid")
        if any(deg > 0 for deg in exactref.piece_degrees(f)):
            problems.append("f_n is not a step function")
        if any(deg > 1 for deg in exactref.piece_degrees(g)):
            problems.append("g_n is not piecewise linear")
        for m in range(last + 1):
            x = Fraction(2 * m + 1, 2 * q)
            if exactref.evaluate(f, x) != values[m]:
                problems.append(f"f_n({x}) = {exactref.evaluate(f, x)}, colength/q = {values[m]}")
                break
            if exactref.evaluate(g, Fraction(m, q)) != values[m]:
                problems.append(f"g_n({m}/{q}) differs from colength/q = {values[m]}")
                break
        if Fraction(data["integral"]) != integral or not _decimal_ok(integral, data["integral_decimal"]):
            problems.append(f"integral {data['integral']}, expected {integral}")
        return problems

    rows = list(csv.reader(io.StringIO(out.decode())))
    if rows[0] != CSV_HEADER:
        return [f"CSV header {rows[0]}"]
    if [int(r[0]) for r in rows[1:]] != c["levels"]:
        return [f"levels {[r[0] for r in rows[1:]]}, expected {c['levels']}"]
    for row in rows[1:]:
        n = int(row[0])
        q = p ** n
        values, _ = _step_values(ideal, q)
        integral = sum(values, Fraction(0)) / q
        if c["reference"] is None:
            fine, _ = _step_values(ideal, p * q)
            sup = max(
                abs(_interp(values, q, Fraction(k, p * q)) - fine[k]) for k in range(len(fine))
            )
        else:
            sup = max(
                abs(values[m] - exactref.evaluate(c["reference"], Fraction(m, q)))
                for m in range(len(values))
            )
            if c["koszul"] and sup != Fraction(1, 2 ** n):
                problems.append(f"level {n}: sup |g_n - tent| = {sup}, expected 2^-{n}")
        got = [int(row[1]), Fraction(row[2]), Fraction(row[4])]
        if got != [q, sup, integral]:
            problems.append(f"level {n}: (q, sup, integral) = {got}, expected {[q, sup, integral]}")
        if not (_decimal_ok(sup, row[3]) and _decimal_ok(integral, row[5])):
            problems.append(f"level {n}: decimal columns disagree")
    return problems


def _segre_integral(q: int) -> Fraction:
    return Fraction(4, 3) - Fraction(1, 3 * q * q)


def _check_segre_lattice(c: dict, out, err, twins) -> list[str]:
    if out.startswith(b"{"):
        data = json.loads(out)
        expected = _segre_integral(data["q"])
        f = data["f_step"]
        by_pieces = exactref.integrate(lambda x: exactref.evaluate(f, x), exactref.grid(f))
        if data["q"] != c["p"] ** data["level"]:
            return [f"q = {data['q']} at level {data['level']}"]
        if Fraction(data["integral"]) != expected or by_pieces != expected:
            return [f"integral {data['integral']} (pieces {by_pieces}), expected {expected}"]
        return []
    rows = list(csv.reader(io.StringIO(out.decode())))
    problems = [] if rows[0] == CSV_HEADER else [f"CSV header {rows[0]}"]
    for row in rows[1:]:
        q = c["p"] ** int(row[0])
        if int(row[1]) != q or Fraction(row[4]) != _segre_integral(q):
            problems.append(f"level {row[0]}: integral {row[4]}, expected {_segre_integral(q)}")
    if [int(r[0]) for r in rows[1:]] != c["levels"]:
        problems.append(f"levels {[r[0] for r in rows[1:]]}, expected {c['levels']}")
    return problems


def _check_cap(c: dict, out, err, twins) -> list[str]:
    report = json.loads(err)
    if report.get("error") != "CapacityError":
        return [f"cap report {report}"]
    if out is not None:
        return ["a capped job wrote an output file"]
    return []


# ---------------------------------------------------------------- catalog


def _check_catalog(c: dict, out, err, twins) -> list[str]:
    data = json.loads(out)
    family, n = c["family"], c["n"]
    # the group order the degree data implies (E6: 8, a documented conflict
    # with the printed 24)
    rank = {"A": n, "D": 4 * n, "E6": 8, "E7": 24, "E8": 120}[family]
    ehk = 2 - Fraction(1, rank)
    label = f"{family}_{n}" if family in ("A", "D") else family
    problems = []
    if data["entry"]["label"] != label or data["entry"]["rank"] != rank:
        problems.append(f"entry {data['entry']['label']} rank {data['entry']['rank']}")
    if Fraction(data["ehk"]) != ehk or Fraction(data["verdict"]["ehk"]) != ehk:
        problems.append(f"e_HK {data['ehk']}, expected 2 - 1/{rank}")
    if data["verdict"]["ehk_matches_expected"] is not True:
        problems.append("verdict does not match 2 - 1/rank")
    verdict = "mismatch" if family == "D" else "ok"
    if data["minor_check"]["verdict"] != verdict:
        problems.append(f"minor check {data['minor_check']['verdict']}, expected {verdict}")
    if family == "E8" and (
        data["verdict"]["table_status"] != "agrees"
        or data["verdict"]["table_sup_distance"] != "0"
    ):
        problems.append(f"E8 table {data['verdict']['table_status']}")
    return problems


# ------------------------------------------------------------ closed-form


def _check_koszul_ci(c: dict, out, err, twins) -> list[str]:
    data = json.loads(out)
    ehk = exactref.koszul_ehk(c["degrees"])
    if Fraction(data["ehk"]) != ehk or Fraction(data["integral"]) != ehk:
        return [f"e_HK {data['ehk']} (integral {data['integral']}), expected {ehk}"]
    if data["d"] != len(c["degrees"]) or data["n0"] != 1:
        return [f"d/n0 {data['d']}/{data['n0']}"]
    return []


def _check_twin_a(c: dict, out, err, twins) -> list[str]:
    if out != twins(c["twin"]):
        return ["output differs from the hypersurface twin"]
    return []


def _check_twin_rnc(c: dict, out, err, twins) -> list[str]:
    data, twin = json.loads(out), json.loads(twins(c["twin"]))
    fields = ("density", "ehat", "ehk", "integral")
    bad = [f for f in fields if data[f] != twin[f]]
    if bad:
        return [f"fields {bad} differ from the Veronese twin"]
    if (data["n0"], twin["n0"]) != (c["size"], 1):
        return [f"n0 {data['n0']} / twin {twin['n0']}"]
    return []


def _check_twin_hn(c: dict, out, err, twins) -> list[str]:
    data, twin = json.loads(out), json.loads(twins(c["twin"]))
    bad = [f for f in ("density", "integral", "support_end") if data[f] != twin[f]]
    return [f"fields {bad} differ from the Koszul twin"] if bad else []


def _check_segre(c: dict, out, err, twins) -> list[str]:
    data = json.loads(out)
    fa, fb, f = c["a"]["f"], c["b"]["f"], data["f"]
    if data["d"] != 3 or data["F"] != exactref.density_json([0], [], [0, 0, 1]):
        return [f"envelope {data['F']} in dimension {data['d']}"]
    if f["tail"] is not None:
        return ["Segre density is not compactly supported"]

    def ev(g):
        return lambda x: exactref.evaluate(g, x)

    def expected(x):
        return x * x - (x - ev(fa)(x)) * (x - ev(fb)(x))

    points = exactref.grid(f, fa, fb)
    problems = []
    if not exactref.agree(ev(f), expected, points, 2):
        problems.append("f differs from F - (F_A - f_A)(F_B - f_B)")
    three = (
        exactref.integrate(lambda x: x * ev(fb)(x), points)
        + exactref.integrate(lambda x: x * ev(fa)(x), points)
        - exactref.integrate(lambda x: ev(fa)(x) * ev(fb)(x), points)
    )
    if Fraction(data["ehk"]) != three or exactref.integrate(ev(f), points) != three:
        problems.append(f"e_HK {data['ehk']}, three-term expansion {three}")
    return problems


CHECKS = {
    "staircase": _check_staircase,
    "segre-lattice": _check_segre_lattice,
    "cap": _check_cap,
    "catalog": _check_catalog,
    "koszul-ci": _check_koszul_ci,
    "twin-A": _check_twin_a,
    "twin-RNC": _check_twin_rnc,
    "twin-hn": _check_twin_hn,
    "segre": _check_segre,
}


# -------------------------------------------------------------- self-test


def _json(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, indent=2).encode() + b"\n"


def _bump_field(out: bytes, path: list[str], delta: Fraction) -> bytes:
    data = json.loads(out)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = str(Fraction(node[path[-1]]) + delta)
    return _json(data)


def _bump_csv(out: bytes, column: int, delta: Fraction) -> bytes:
    rows = list(csv.reader(io.StringIO(out.decode())))
    rows[1][column] = str(Fraction(rows[1][column]) + delta)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


def variant(job: dict, out: bytes | None) -> str:
    """The branch of its oracle an output takes: its format, and for the
    Koszul pair against the tent, the 2^-n check."""
    fmt = "none" if out is None else "json" if out.startswith(b"{") else "csv"
    c = job["check"]
    if c["type"] == "staircase" and c["koszul"] and c.get("reference") is not None:
        fmt += "-koszul-tent"
    return fmt


def colength_off_by_one(job, rc, out, err):
    if out.startswith(b"{"):
        # the first step of f_n moves by 1/q
        data = json.loads(out)
        piece = data["f_step"]["pieces"][0]
        piece[:] = [str(Fraction(piece[0] if piece else 0) + Fraction(1, data["q"]))]
        return rc, _json(data), err
    return rc, _bump_csv(out, 2, Fraction(1, 1024)), err


def wrong_integral(job, rc, out, err):
    if out.startswith(b"{"):
        return rc, _bump_field(out, ["integral"], Fraction(1, 64)), err
    return rc, _bump_csv(out, 4, Fraction(1, 64)), err


def wrong_error_name(job, rc, out, err):
    report = json.loads(err)
    report["error"] = "DomainError"
    return rc, out, json.dumps(report)


def stray_output(job, rc, out, err):
    return rc, b"{}\n", err


def flipped_minor_verdict(job, rc, out, err):
    data = json.loads(out)
    mc = data["minor_check"]
    mc["verdict"] = "ok" if mc["verdict"] == "mismatch" else "mismatch"
    return rc, _json(data), err


def wrong_ehk(job, rc, out, err):
    return rc, _bump_field(out, ["ehk"], Fraction(1, 2)), err


def wrong_ehat(job, rc, out, err):
    return rc, _bump_field(out, ["ehat"], Fraction(1, 7)), err


def wrong_density_piece(job, rc, out, err):
    data = json.loads(out)
    piece = data["density"]["pieces"][-1]
    piece[0] = str(Fraction(piece[0]) + 1)
    return rc, _json(data), err


def wrong_twin_integral(job, rc, out, err):
    return rc, _bump_field(out, ["integral"], Fraction(1, 2)), err


CORRUPTIONS = {
    "staircase": [colength_off_by_one],
    "segre-lattice": [wrong_integral],
    "cap": [wrong_error_name, stray_output],
    "catalog": [flipped_minor_verdict],
    "koszul-ci": [wrong_ehk],
    "twin-A": [wrong_ehat],
    "twin-RNC": [wrong_density_piece],
    "twin-hn": [wrong_twin_integral],
    "segre": [wrong_ehk],
}
