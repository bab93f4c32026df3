from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkdensity
from hkdensity.catalog import catalog_density, catalog_entry, catalog_lattice_crosscheck
from hkdensity.cli import _LEAST, _build_parser, _csv_text, _dec, _json_text, main
from hkdensity.exact import PiecewisePoly, Polynomial, rat
from hkdensity.lattice import SemigroupEnumeration

F = Fraction

KOSZUL_BETTI = {
    "betti": {"d": 2, "betti": [{"i": 1, "j": 1, "b": 2}, {"i": 2, "j": 2, "b": 1}]},
    "ring": {"type": "ci", "gens": [1, 1], "rels": []},
}

TENT_JSON = PiecewisePoly.build(
    [0, 1, 2], [Polynomial.of(0, 1), Polynomial.of(2, -1)]
).to_json()

TENT_PAIR = {
    "F": PiecewisePoly.monomial_tail(F(1), 1).to_json(),
    "f": TENT_JSON,
    "d": 2,
}

A2_INVARIANT_PAIR = {
    "semigroup": {
        "rank": 2,
        "gens": [[1, 1], [2, 0], [0, 2]],
        "weights": [1, 1],
        "p": 2,
    },
    "ideal": [[1, 1], [2, 0], [0, 2]],
}

HN_LINE = {"d": 1, "components": [{"slope": "-1", "rank": 1}]}


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_betti_roundtrip(tmp_path, capsys):
    inp = write(tmp_path, "koszul.json", KOSZUL_BETTI)
    code, out, err = run_cli(capsys, ["density-betti", "--in", inp])
    assert code == 0 and err == ""
    assert out.endswith("\n")
    payload = json.loads(out)
    assert payload["integral"] == "1"
    assert payload["support_end"] == "2"
    assert PiecewisePoly.from_json(payload["density"]) == PiecewisePoly.from_json(
        TENT_JSON
    )


def test_density_betti_explicit_normalization(tmp_path, capsys):
    # same table fed with ehat/n0 given directly instead of a ring
    alt = {"betti": KOSZUL_BETTI["betti"], "ehat": "1", "n0": 1}
    code_a, out_a, _ = run_cli(
        capsys, ["density-betti", "--in", write(tmp_path, "a.json", KOSZUL_BETTI)]
    )
    code_b, out_b, _ = run_cli(
        capsys, ["density-betti", "--in", write(tmp_path, "b.json", alt)]
    )
    assert code_a == code_b == 0
    assert out_a == out_b


def test_density_betti_on_a_veronese_view_checked_up_to_its_generator_degree(tmp_path, capsys):
    # view degree m of (19, 19) by 1000 is base degree 1000 m, occupied iff
    # 19 | m: the gcd check must read up to degree 19 to see n0 = 19
    ring = {"type": "veronese", "base": {"type": "ci", "gens": [19, 19]}, "factor": 1000}
    inp = write(tmp_path, "view.json", {"betti": KOSZUL_BETTI["betti"], "ring": ring})
    code, out, err = run_cli(capsys, ["density-betti", "--in", inp])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["n0"] == 19 and payload["ehat"] == "1000"
    assert payload["integral"] == "1000/361"


def test_density_empirical_level_one(tmp_path, capsys):
    inp = write(tmp_path, "a2.json", A2_INVARIANT_PAIR)
    code, out, err = run_cli(
        capsys, ["density-empirical", "--in", inp, "--level", "1"]
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["integral"] == "3/2"
    assert payload["q"] == 2
    f = PiecewisePoly.from_json(payload["f_step"])
    assert f(0) == F(1, 2)
    assert f(F(1, 2)) == F(3, 2)
    assert f(1) == 1
    g = PiecewisePoly.from_json(payload["g_interp"])
    assert g.is_continuous()


def kxy_pair(ideal, rank=2, gens=((1, 0), (0, 1)), weights=(1, 1)) -> dict:
    return {
        "semigroup": {"rank": rank, "gens": [list(g) for g in gens], "weights": list(weights), "p": 2},
        "ideal": [list(a) for a in ideal],
    }


def test_density_empirical_deep_containment(tmp_path, capsys):
    # (x, y)^65 is the first power inside (x^33, y^33); the colength of the
    # Frobenius square (x^66, y^66) is 66^2, so the integral is 66^2 / 4
    inp = write(tmp_path, "deep.json", kxy_pair([(33, 0), (0, 33)]))
    code, out, err = run_cli(capsys, ["density-empirical", "--in", inp, "--level", "1"])
    assert code == 0 and err == ""
    assert json.loads(out)["integral"] == "1089"


def test_density_empirical_quotient_111_level_6(tmp_path, capsys, monkeypatch):
    # (1/3)(1,1,1): the ten degree-3 monomials of k[x,y,z] and the ideal
    # they generate, at the default cap; the count stops at degree 318
    # after 1.84M points
    monkeypatch.delenv("HKDL_MAX_POINTS", raising=False)
    gens = [[a, b, 3 - a - b] for a in range(4) for b in range(4 - a)]
    pair = {"semigroup": {"rank": 3, "gens": gens, "weights": [1, 1, 1], "p": 2}, "ideal": gens}
    inp = write(tmp_path, "q111.json", pair)
    code, out, err = run_cli(capsys, ["density-empirical", "--in", inp, "--level", "6"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["q"] == 64 and payload["integral"] == "873811/262144"


SEGRE_GENS = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize(
    "pair,ray",
    [
        (kxy_pair([(1, 0)]), "(0, 1)"),
        (kxy_pair([(2, 0), (1, 1)]), "(0, 1)"),
        # (2, 1, 1) lies inside the cone, off the ray through (1, 1, 1)
        (kxy_pair([(1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 1, 1)], 3, SEGRE_GENS, (1, 0, 0)), "(1, 1, 1)"),
    ],
)
def test_infinite_colength_exits_2(tmp_path, capsys, pair, ray):
    inp = write(tmp_path, "pair.json", pair)
    for argv in (["density-empirical", "--in", inp, "--level", "1"], ["compare", "--spec", inp, "--levels", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "ValidationError"
        assert f"extremal ray through {ray}" in report["message"]


def test_compare_csv_and_thread_byte_identity(tmp_path, capsys):
    inp = write(tmp_path, "a2.json", A2_INVARIANT_PAIR)
    argv = ["compare", "--spec", inp, "--levels", "1,2"]
    code_a, out_a, _ = run_cli(capsys, argv + ["--threads", "1"])
    code_b, out_b, _ = run_cli(capsys, argv + ["--threads", "3"])
    assert code_a == code_b == 0
    assert out_a == out_b
    lines = out_a.splitlines()
    assert lines[0] == "level,q,sup_distance,sup_distance_decimal,integral,integral_decimal"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "2"
    # every exact column reparses; decimal column mirrors it
    for row in lines[1:]:
        cells = row.split(",")
        assert float(rat(cells[2])) == float(cells[3])
        assert float(rat(cells[4])) == float(cells[5])


def test_compare_against_a_reference_matches_the_catalog_crosscheck(tmp_path, capsys):
    # the A_2 pair in characteristic 3 against the catalog's derived A_2
    # density: the sup and integral columns are the crosscheck's rows
    entry = catalog_entry("A", 2)
    pair = {**A2_INVARIANT_PAIR, "semigroup": {**A2_INVARIANT_PAIR["semigroup"], "p": 3}}
    spec = write(tmp_path, "a2.json", pair)
    ref = write(tmp_path, "ref.json", {"density": catalog_density(entry)[0].f.to_json()})
    code, out, err = run_cli(capsys, ["compare", "--spec", spec, "--levels", "1,2", "--reference", ref])
    assert code == 0 and err == ""
    want = [
        [str(r.level), str(r.q), str(r.sup_distance), _dec(r.sup_distance),
         str(r.integral), _dec(r.integral)]
        for r in catalog_lattice_crosscheck(entry, 3, [1, 2])
    ]
    assert [row.split(",") for row in out.splitlines()[1:]] == want
    assert [row[1] for row in want] == ["3", "9"]


def test_segre_command(tmp_path, capsys):
    a = write(tmp_path, "a.json", TENT_PAIR)
    b = write(tmp_path, "b.json", TENT_PAIR)
    code, out, err = run_cli(capsys, ["segre", "--a", a, "--b", b])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["d"] == 3
    assert payload["ehk"] == "4/3"


def test_rescale_command(tmp_path, capsys):
    inp = write(tmp_path, "tent.json", TENT_JSON)
    code, out, _ = run_cli(
        capsys, ["rescale", "--in", inp, "--l0", "2", "--rank", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == "1/4"
    assert payload["support_end"] == "1"


def test_catalog_command(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["catalog", "--family", "E8"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"]["table_status"] == "agrees"
    assert payload["verdict"]["ehk"] == "239/120"
    code, out, _ = run_cli(capsys, ["catalog", "--family", "A", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["table_status"] == "discrepancy"
    assert payload["minor_check"]["verdict"] == "ok"


# sha256 of the concatenated stdout of every catalog entry, A_2..A_50,
# D_2..D_50, E6, E7, E8, with no --p; a change that alters the catalog
# output on purpose updates it and says so
CATALOG_DIGEST = "bc9743e2fdcbb6ebea6e857054247136c89093a78d3d50c69bf569da7dc27b18"


def test_catalog_stdout_digest(capsys):
    argvs = [["--family", f, "--n", str(n)] for f in "AD" for n in range(2, 51)]
    argvs += [["--family", f] for f in ("E6", "E7", "E8")]
    h = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_cli(capsys, ["catalog", *argv])
        assert code == 0 and err == "", argv
        h.update(out.encode())
    assert h.hexdigest() == CATALOG_DIGEST


# sha256 of the exit code, stdout and stderr of each run below, in order:
# outputs that no hkbench digest covers, with fractional coefficients and a
# non-ASCII message; a change that alters them on purpose updates it and
# says so
OTHER_OUTPUTS_DIGEST = "cb20a087348a54731743470f2b0467bb4b7694b166b6b29493ca64aec379e020"


def test_other_outputs_digest(tmp_path, capsys):
    density = {
        "breakpoints": ["0", "1/2", "7/3"],
        "pieces": [["0", "5/3"], ["7/6", "-1/2"]],
        "tail": None,
    }
    hn = {"d": 3, "components": [{"slope": "1/2", "rank": 2}, {"slope": "-5/3", "rank": 1}]}
    hn_pair = {"d": 3, "components": [{"slope": "-3/2", "rank": 2}, {"slope": "-3", "rank": 1}]}
    broken = {
        "betti": {"d": 2, "betti": [{"i": 1, "j": 1, "b": 3}, {"i": 2, "j": 2, "b": 1}]},
        "ehat": "2/3",
        "n0": 1,
    }
    files = {
        name: write(tmp_path, name + ".json", doc)
        for name, doc in [("density", density), ("hn", hn), ("hn_pair", hn_pair),
                          ("broken", broken), ("a2", A2_INVARIANT_PAIR)]
    }
    runs = [
        (0, ["rescale", "--in", "density", "--l0", "3", "--rank", "2"]),
        (0, ["integrate", "--in", "density"]),
        (0, ["sample", "--in", "density", "--count", "5"]),
        (0, ["hn2", "--in", "hn"]),
        (0, ["hn2", "--in", "hn_pair", "--twists", "1,1,1,2"]),
        (1, ["catalog", "--family", "\u00c9"]),
        (2, ["density-betti", "--in", "broken"]),
        (3, ["density-empirical", "--in", "a2", "--level", "6", "--max-points", "100"]),
    ]
    h = hashlib.sha256()
    for want, argv in runs:
        code, out, err = run_cli(capsys, [files.get(a, a) for a in argv])
        assert code == want and (out == "") == (code != 0) and (err == "") == (code == 0), argv
        h.update(f"{code}\n{out}{err}".encode())
    assert h.hexdigest() == OTHER_OUTPUTS_DIGEST


def test_hn2_command(tmp_path, capsys):
    inp = write(tmp_path, "hn.json", HN_LINE)
    code, out, err = run_cli(capsys, ["hn2", "--in", inp, "--twists", "1,1"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["integral"] == "1"
    assert PiecewisePoly.from_json(payload["density"]) == PiecewisePoly.from_json(
        TENT_JSON
    )


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["hn2", "--in", "IN", "--twists", ""], HN_LINE),
        (["hn2", "--in", "IN", "--twists", " , "], HN_LINE),
        (["compare", "--spec", "IN", "--levels", ""], A2_INVARIANT_PAIR),
    ],
)
def test_integer_list_flags_refuse_an_empty_list(tmp_path, capsys, argv, spec):
    # an empty twist list would print f_V itself as the pair density
    inp = write(tmp_path, "in.json", spec)
    code, out, err = run_cli(capsys, [inp if a == "IN" else a for a in argv])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert "one or more comma-separated integers" in report["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["density-empirical", "--level", "0", "--in"], "level must be >= 1, got 0"),
        (["sample", "--count", "1", "--in"], "count must be >= 2, got 1"),
        (["density-empirical", "--level", "1", "--max-points", "0", "--in"], "max-points must be >= 1, got 0"),
        (["compare", "--levels", "1", "--max-points", "0", "--spec"], "max-points must be >= 1, got 0"),
        (["compare", "--levels", "0", "--spec"], "levels must be >= 1, got '0'"),
        (["compare", "--levels", "1,x", "--spec"], "levels must be one or more comma-separated integers, got '1,x'"),
        (["rescale", "--l0", "0", "--rank", "1", "--in"], "l0 must be >= 1, got 0"),
        # a generator of degree 0 is a unit: the twist sum would not describe I
        (["hn2", "--twists", "0", "--in"], "twists must be >= 1, got '0'"),
        (["rescale", "--l0", "1", "--rank", "0", "--in"], "rank must be >= 1, got 0"),
    ],
)
def test_bad_flag_reported_before_reading_the_input(tmp_path, capsys, argv, message):
    # the input file does not exist, so any report about it means it was read first
    missing = str(tmp_path / "absent.json")
    code, out, err = run_cli(capsys, [*argv, missing])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report == {"error": "InputError", "message": message}


def _bounded_flag_cases():
    """(argv, file flags, dest, message) for each subcommand flag in the
    bound table, at one below its least value, with every other bounded
    required flag valid; the test appends the file flags."""
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    cases = []
    for name, parser in sub.choices.items():
        required = [a for a in parser._actions if a.required]
        for flag in (a for a in parser._actions if a.dest in _LEAST):
            least = _LEAST[flag.dest]
            argv = [name]
            for other in [a for a in required if a.dest in _LEAST and a is not flag] + [flag]:
                argv += [other.option_strings[0], str(_LEAST[other.dest] - (other is flag))]
            got = least - 1 if flag.type is int else repr(str(least - 1))
            shown = flag.option_strings[0].lstrip("-")
            files = [a.option_strings[0] for a in required if a.dest not in _LEAST]
            cases.append((argv, files, flag.dest, f"{shown} must be >= {least}, got {got}"))
    return cases


def test_every_bounded_flag_is_refused_before_reading_the_input(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    cases = _bounded_flag_cases()
    # every entry of the table bounds a flag of some subcommand
    assert {dest for _, _, dest, _ in cases} == set(_LEAST)
    for argv, files, _, message in cases:
        full = argv + [part for f in files for part in (f, missing)]
        code, out, err = run_cli(capsys, full)
        assert (code, out) == (1, ""), full
        assert json.loads(err) == {"error": "InputError", "message": message}, full


@pytest.mark.parametrize("p", [2, 3, 1000003])
@pytest.mark.parametrize("level", [20_000, 10**6])
@pytest.mark.parametrize("command", ["density-empirical", "compare"])
def test_a_huge_level_is_a_capacity_error(tmp_path, capsys, monkeypatch, command, level, p):
    # q = p^level puts the degree bound far past the ceiling, at over 1000
    # digits: refused with the level named, not with the bound printed
    monkeypatch.delenv("HKDL_MAX_POINTS", raising=False)
    plane = {
        "semigroup": {"rank": 2, "gens": [[1, 0], [0, 1]], "weights": [1, 1], "p": p},
        "ideal": [[1, 0], [0, 1]],
    }
    inp = write(tmp_path, "plane.json", plane)
    argv = ["density-empirical", "--in", inp, "--level", str(level)]
    if command == "compare":
        argv = ["compare", "--spec", inp, "--levels", str(level)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "CapacityError",
        "message": f"semigroup enumeration exceeded cap of 50000000 points (level {level}, "
        "a degree bound of over 1000 digits); raise HKDL_MAX_POINTS or lower the level; "
        "every degree bound from 9999 up exceeds this cap",
    }


def test_a_huge_level_is_refused_promptly_by_python_m(tmp_path):
    # q = p^level would have 60 million digits at level 10^7 and p = 1000003;
    # the level is refused before q is built
    plane = {
        "semigroup": {"rank": 2, "gens": [[1, 0], [0, 1]], "weights": [1, 1], "p": 1000003},
        "ideal": [[1, 0], [0, 1]],
    }
    src = os.path.dirname(os.path.dirname(hkdensity.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("HKDL_MAX_POINTS", None)
    argv = ["density-empirical", "--in", write(tmp_path, "plane.json", plane), "--level", "10000000"]
    run = subprocess.run(
        [sys.executable, "-m", "hkdensity", *argv], capture_output=True, text=True, env=env, timeout=10
    )
    assert (run.returncode, run.stdout) == (3, "")
    report = json.loads(run.stderr)
    assert report["error"] == "CapacityError" and "(level 10000000, " in report["message"]


@pytest.mark.parametrize("name", ["absent.json", "."])
def test_unreadable_input_reported(tmp_path, capsys, name):
    # a missing file, and a directory given as a file
    path = str(tmp_path / name)
    code, out, err = run_cli(capsys, ["integrate", "--in", path])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert report["message"].startswith(f"cannot read {path}: ")


def test_integrate_command(tmp_path, capsys):
    inp = write(tmp_path, "tent.json", TENT_JSON)
    code, out, _ = run_cli(capsys, ["integrate", "--in", inp])
    assert code == 0
    payload = json.loads(out)
    assert payload["integral"] == "1"
    assert payload["integral_decimal"] == "1.0"


def test_sample_spacing(tmp_path, capsys):
    inp = write(tmp_path, "tent.json", TENT_JSON)
    code, out, _ = run_cli(capsys, ["sample", "--in", inp, "--count", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,x_decimal,value,value_decimal"
    xs = [row.split(",")[1] for row in lines[1:]]
    assert xs == ["0.0", "0.55", "1.1", "1.65", "2.2"]
    assert len(lines) == 6


@pytest.mark.parametrize("density", [
    {"breakpoints": ["0"], "pieces": [], "tail": ["0", "1"]},  # x on [0, oo)
    {"breakpoints": ["0"], "pieces": [], "tail": None},  # the zero function
])
def test_sample_refuses_a_density_with_no_breakpoint_past_zero(tmp_path, capsys, density):
    # the points span [0, 11/10 * support_end]: with support_end 0 they
    # would all sit at x = 0
    inp = write(tmp_path, "ray.json", density)
    code, out, err = run_cli(capsys, ["sample", "--in", inp, "--count", "3"])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValidationError"
    assert "no span to space the points over" in report["message"]


# full Unicode: control characters, non-ASCII and lone surrogates
any_text = st.text(st.characters(exclude_categories=()), max_size=8)
json_values = st.recursive(
    st.one_of(any_text, st.integers(), st.integers(-(10**60), 10**60), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(any_text, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


# the fields the CLI writes: ints, Fractions and repr(float) values, inf and
# -inf for the rationals past the float range
rationals = st.one_of(
    st.fractions(),
    st.integers(-(10**400), 10**400).map(Fraction),
    st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)),
)
csv_fields = st.one_of(st.integers(), rationals, rationals.map(_dec))


@settings(max_examples=200, deadline=None)
@given(st.lists(csv_fields, max_size=6), st.lists(st.lists(csv_fields, max_size=6), max_size=6))
def test_csv_text_matches_csv_writer(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    assert _csv_text(header, rows) == buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, max_size=4), st.integers(0, 4))
def test_json_writer_prints_fractions_as_strings_and_values_by_to_json(values, k):
    # exact rationals are 'num/den' strings; a PiecewisePoly, a Polynomial
    # or a BettiTable is written as its to_json()
    f = PiecewisePoly.build([0, 1, 2], [Polynomial.of(*values[:k]), Polynomial.of(*values[k:])])
    table = catalog_entry("A", 2).betti
    obj = {"x": values, "f": f, "p": (f.pieces[:1], table)}
    plain = {
        "x": [str(v) for v in values],
        "f": f.to_json(),
        "p": [[p.to_json() for p in f.pieces[:1]], table.to_json()],
    }
    assert _json_text(obj) == json.dumps(plain, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [1.5, {"a": [0, 2.0]}, {1, 2}, [{"b": frozenset()}], {1: "a"}])
def test_json_writer_refuses_floats_sets_and_other_keys(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def test_out_file_matches_stdout(tmp_path, capsys):
    inp = write(tmp_path, "tent.json", TENT_JSON)
    code, out, _ = run_cli(capsys, ["integrate", "--in", inp])
    assert code == 0
    dest = tmp_path / "result.json"
    code2 = main(["integrate", "--in", inp, "--out", str(dest)])
    capsys.readouterr()
    assert code2 == 0
    assert dest.read_text() == out


def test_repeat_runs_byte_identical(tmp_path, capsys):
    inp = write(tmp_path, "koszul.json", KOSZUL_BETTI)
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(capsys, ["density-betti", "--in", inp])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_exit_code_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, ["density-betti", "--in", str(bad)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InputError"
    code, _, _ = run_cli(capsys, ["no-such-command"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["density-betti"])  # missing --in
    assert code == 1


@pytest.mark.parametrize("n0", ["abc", 1.5, True, "2"])
def test_density_betti_n0_must_be_json_integer(tmp_path, capsys, n0):
    inp = write(
        tmp_path, "n0.json", {"betti": KOSZUL_BETTI["betti"], "ehat": "1", "n0": n0}
    )
    code, out, err = run_cli(capsys, ["density-betti", "--in", inp])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert "n0" in report["message"]


@pytest.mark.parametrize("key, value", [("i", "x"), ("j", 1.5), ("b", None), ("d", "two")])
def test_betti_table_json_needs_integers(tmp_path, capsys, key, value):
    table = json.loads(json.dumps(KOSZUL_BETTI))
    if key == "d":
        table["betti"]["d"] = value
    else:
        table["betti"]["betti"][0][key] = value
    code, out, err = run_cli(
        capsys, ["density-betti", "--in", write(tmp_path, "t.json", table)]
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 1, 2), (2, 2, 1), (1, 3, -1)],
        # summed with the row (1, 3, 1), the -1 would cancel away
        [(1, 1, 2), (2, 2, 1), (1, 3, -1), (1, 3, 1)],
        # a zero row would be dropped by the merge
        [(1, 1, 2), (2, 2, 1), (1, 3, 0)],
    ],
)
def test_betti_rows_below_one_refused_before_merging(tmp_path, capsys, rows):
    table = {
        "betti": {"d": 2, "betti": [{"i": i, "j": j, "b": b} for i, j, b in rows]},
        "ehat": "1",
    }
    code, out, err = run_cli(
        capsys, ["density-betti", "--in", write(tmp_path, "t.json", table)]
    )
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValidationError"
    _, _, b = rows[2]
    assert report["message"] == f"multiplicity {b} < 1 at (1, 3)"


@pytest.mark.parametrize("d", ["two", 2.0, False])
def test_segre_pair_d_must_be_json_integer(tmp_path, capsys, d):
    a = write(tmp_path, "a.json", TENT_PAIR)
    b = write(tmp_path, "b.json", {**TENT_PAIR, "d": d})
    code, out, err = run_cli(capsys, ["segre", "--a", a, "--b", b])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_exit_code_validation_with_residual(tmp_path, capsys):
    broken = {
        "betti": {
            "d": 2,
            "betti": [{"i": 1, "j": 1, "b": 3}, {"i": 2, "j": 2, "b": 1}],
        },
        "ehat": "1",
        "n0": 1,
    }
    inp = write(tmp_path, "broken.json", broken)
    code, out, err = run_cli(capsys, ["density-betti", "--in", inp])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "BettiIdentityError"
    assert "residual" in report
    assert any(rat(c) != 0 for c in report["residual"])


def test_exit_code_capacity(tmp_path, capsys):
    inp = write(tmp_path, "a2.json", A2_INVARIANT_PAIR)
    code, out, err = run_cli(
        capsys,
        ["density-empirical", "--in", inp, "--level", "6", "--max-points", "100"],
    )
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "CapacityError"


def test_capacity_fails_before_enumerating(tmp_path, capsys, monkeypatch):
    # level 30 on k[x,y] with ideal (x, y) needs degree 2^31, far past the
    # degree ceiling 9999 of the default cap
    monkeypatch.delenv("HKDL_MAX_POINTS", raising=False)
    built = []
    original = SemigroupEnumeration.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SemigroupEnumeration, "__init__", recording)
    plane = {
        "semigroup": {"rank": 2, "gens": [[1, 0], [0, 1]], "weights": [1, 1], "p": 2},
        "ideal": [[1, 0], [0, 1]],
    }
    inp = write(tmp_path, "plane.json", plane)
    target = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys,
        ["density-empirical", "--in", inp, "--level", "30", "--out", str(target)],
    )
    assert code == 3 and out == "" and not target.exists()
    report = json.loads(err)
    assert report["error"] == "CapacityError"
    assert "(degree bound 2147483648)" in report["message"]
    assert "every degree bound from 9999 up" in report["message"]
    # the one enumeration holds 1, x and y: the ideal generators' degree
    assert [e.count for e in built] == [3]


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_points_must_be_positive(tmp_path, capsys, cap):
    inp = write(tmp_path, "a2.json", A2_INVARIANT_PAIR)
    code, out, err = run_cli(
        capsys,
        ["density-empirical", "--in", inp, "--level", "1", "--max-points", cap],
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "InputError",
        "message": f"max-points must be >= 1, got {cap}",
    }


def test_max_points_environment_must_be_positive(tmp_path, capsys, monkeypatch):
    # the variable is no flag: the enumeration cap refuses it, with exit 2
    monkeypatch.setenv("HKDL_MAX_POINTS", "0")
    inp = write(tmp_path, "a2.json", A2_INVARIANT_PAIR)
    code, out, err = run_cli(capsys, ["density-empirical", "--in", inp, "--level", "1"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": "HKDL_MAX_POINTS must be positive, got 0",
    }


@pytest.mark.parametrize(
    "raw",
    [
        b'{"d": 1, "components": [{"slope": "-1", "rank": 1}], "x": "\xe9"}',  # Latin-1
        b'{"d": 1' + b"1" * 5000 + b', "components": []}',  # past the int digit limit
        b"[" * 100_000 + b"]" * 100_000,  # past the recursion limit
    ],
    ids=["not-utf8", "huge-int", "deep"],
)
def test_unreadable_json_is_an_input_error(tmp_path, capsys, raw):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run_cli(capsys, ["hn2", "--in", str(bad)])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert str(bad) in report["message"]


@pytest.mark.parametrize("dest", ["missing-dir/out.json", "."])
def test_unwritable_out_path_is_an_input_error(tmp_path, capsys, dest):
    inp = write(tmp_path, "tent.json", TENT_JSON)
    target = str(tmp_path / dest)
    code, out, err = run_cli(capsys, ["integrate", "--in", inp, "--out", target])
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert target in report["message"]


@pytest.mark.parametrize("gen", [[0], [], [1, 1, 1]])
def test_ideal_generator_of_wrong_length_exits_2(tmp_path, capsys, gen):
    pair = {**A2_INVARIANT_PAIR, "ideal": [[1, 1], gen]}
    code, out, err = run_cli(
        capsys, ["density-empirical", "--level", "1", "--in", write(tmp_path, "p.json", pair)]
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": f"ideal generator {tuple(gen)} is not a semigroup element",
    }


# ------------------------------------------------ strict JSON input fields
# Every JSON field of every input format: which command reads it, the valid
# document it sits in, its path there, its kind, and the word the InputError
# report must contain, in any case, to name it.  Integers are JSON integers;
# rationals are integers or "num/den" strings; no field takes a float or a
# bool.

MISSING = object()
BAD_VALUES = {
    "int": [1.5, "2", True, None, MISSING, [1]],
    # a numeric string is a valid rational, so a rational gets a word
    "rat": [1.5, "two", True, None, MISSING, [1]],
    "list": [1.5, "2", True, None, MISSING, {}],
    "object": [1.5, "2", True, None, MISSING, []],
    # the ideal is a list of generators or an object holding one
    "ideal": [1.5, "2", True, None, MISSING],
    # a ring type is one of a few fixed strings
    "tag": [1.5, "2", True, None, MISSING, ["ci"]],
}

OBJECT_IDEAL_PAIR = {**A2_INVARIANT_PAIR, "ideal": {"gens": [[2, 0], [0, 2]]}}
CI_BETTI = {
    "betti": KOSZUL_BETTI["betti"],
    "ring": {"type": "ci", "gens": [1, 1, 1], "rels": [1]},
}
VERONESE_BETTI = {
    "betti": KOSZUL_BETTI["betti"],
    "ring": {"type": "veronese", "factor": 2, "base": {"type": "ci", "gens": [1, 1]}},
}
SEMIGROUP_RING_BETTI = {
    "betti": KOSZUL_BETTI["betti"],
    "ring": {"type": "semigroup", "semigroup": A2_INVARIANT_PAIR["semigroup"]},
}
EHAT_BETTI = {"betti": KOSZUL_BETTI["betti"], "ehat": "1/2", "n0": 2}
DENSITY = {"breakpoints": ["0", "1", "2"], "pieces": [["0", "1"], ["2", "-1"]], "tail": ["0"]}
HN = {"d": 3, "components": [{"slope": "-1/2", "rank": 1}, {"slope": -3, "rank": 2}]}

EMPIRICAL = ["density-empirical", "--level", "1", "--in", "IN"]
BETTI = ["density-betti", "--in", "IN"]
FORMATS = {
    "semigroup": (EMPIRICAL, A2_INVARIANT_PAIR, [
        (("semigroup",), "object", "semigroup"),
        (("semigroup", "rank"), "int", "'rank'"),
        (("semigroup", "gens"), "list", "'gens'"),
        (("semigroup", "gens", 1), "list", "'gens'[1]"),
        (("semigroup", "gens", 1, 0), "int", "'gens'[1][0]"),
        (("semigroup", "weights"), "list", "'weights'"),
        (("semigroup", "weights", 1), "int", "'weights'[1]"),
        (("semigroup", "p"), "int", "'p'"),
    ]),
    "ideal list": (EMPIRICAL, A2_INVARIANT_PAIR, [
        (("ideal",), "ideal", "ideal"),
        (("ideal", 1), "list", "'gens'[1]"),
        (("ideal", 1, 0), "int", "'gens'[1][0]"),
    ]),
    "ideal object": (EMPIRICAL, OBJECT_IDEAL_PAIR, [
        (("ideal", "gens"), "list", "'gens'"),
        (("ideal", "gens", 0), "list", "'gens'[0]"),
        (("ideal", "gens", 0, 1), "int", "'gens'[0][1]"),
    ]),
    "ci": (BETTI, CI_BETTI, [
        (("ring",), "object", "ring"),
        (("ring", "type"), "tag", "type"),
        (("ring", "gens"), "list", "'gens'"),
        (("ring", "gens", 0), "int", "'gens'[0]"),
        (("ring", "rels"), "list", "'rels'"),
        (("ring", "rels", 0), "int", "'rels'[0]"),
    ]),
    "veronese": (BETTI, VERONESE_BETTI, [
        (("ring", "factor"), "int", "'factor'"),
        (("ring", "base"), "object", "ring"),
    ]),
    "semigroup ring": (BETTI, SEMIGROUP_RING_BETTI, [
        (("ring", "semigroup"), "object", "semigroup"),
        (("ring", "semigroup", "gens", 0, 0), "int", "'gens'[0][0]"),
    ]),
    "betti": (BETTI, EHAT_BETTI, [
        (("betti",), "object", "betti"),
        (("betti", "d"), "int", "'d'"),
        (("betti", "betti"), "list", "'betti'"),
        (("betti", "betti", 0), "object", "Betti entry"),
        (("betti", "betti", 0, "i"), "int", "'i'"),
        (("betti", "betti", 0, "j"), "int", "'j'"),
        (("betti", "betti", 1, "b"), "int", "'b'"),
        (("n0",), "int", "'n0'"),
        (("ehat",), "rat", "'ehat'"),
    ]),
    "density pair": (["segre", "--a", "IN", "--b", "IN"], TENT_PAIR, [
        (("F",), "object", "'F'"),
        (("f",), "object", "'f'"),
        (("d",), "int", "'d'"),
        (("f", "breakpoints", 1), "rat", "'f' breakpoint"),
    ]),
    "hn": (["hn2", "--in", "IN"], HN, [
        (("d",), "int", "'d'"),
        (("components",), "list", "'components'"),
        (("components", 1), "object", "HN component"),
        (("components", 0, "slope"), "rat", "'slope'"),
        (("components", 1, "rank"), "int", "'rank'"),
    ]),
    "density": (["integrate", "--in", "IN"], DENSITY, [
        (("breakpoints",), "list", "'breakpoints'"),
        (("breakpoints", 1), "rat", "breakpoint"),
        (("pieces",), "list", "'pieces'"),
        (("pieces", 1), "list", "polynomial"),
        (("pieces", 1, 0), "rat", "coefficient"),
        (("tail",), "list", "polynomial"),
        (("tail", 0), "rat", "coefficient"),
    ]),
}
# fields whose absence is valid: n0 defaults to 1, rels to none, tail to 0
OPTIONAL = {("n0",), ("ring", "rels"), ("tail",)}


def with_input(argv, path):
    return [path if a == "IN" else a for a in argv]


def mutated(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``,
    or removed for MISSING."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def field_cases():
    for fmt, (argv, doc, fields) in FORMATS.items():
        for path, kind, name in fields:
            for value in BAD_VALUES[kind]:
                if value is MISSING and (path in OPTIONAL or isinstance(path[-1], int)):
                    continue
                if value is None and path == ("tail",):
                    continue  # a null tail is the zero tail
                label = "missing" if value is MISSING else json.dumps(value)
                yield pytest.param(
                    argv, doc, path, value, name, id=f"{fmt}:{'.'.join(map(str, path))}={label}"
                )


@pytest.mark.parametrize("fmt", FORMATS)
def test_input_format_fixtures_are_valid(tmp_path, capsys, fmt):
    argv, doc, _ = FORMATS[fmt]
    code, out, err = run_cli(capsys, with_input(argv, write(tmp_path, "in.json", doc)))
    assert code == 0 and err == "", err


@pytest.mark.parametrize("argv, doc, path, value, name", list(field_cases()))
def test_every_json_field_is_strict(tmp_path, capsys, argv, doc, path, value, name):
    inp = write(tmp_path, "in.json", mutated(doc, path, value))
    code, out, err = run_cli(capsys, with_input(argv, inp))
    assert code == 1 and out == "", err
    assert "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert name.lower() in report["message"].lower()


def json_paths(node, prefix=()):
    """The path of every field and list element below ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


MUTATIONS = [1.5, -0.0, "2", "two", True, False, None, MISSING, [], {}]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_with_a_report(data):
    # one field of a valid document replaced or removed: the run may still
    # succeed (an optional key dropped, a numeric string for a rational), and
    # otherwise exits 1 or 2 with a one-object JSON report; no format has a
    # field that takes a float or a bool, so those always exit 1
    argv, doc, _ = FORMATS[data.draw(st.sampled_from(sorted(FORMATS)))]
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(st.sampled_from(MUTATIONS))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        inp = os.path.join(tmp, "in.json")
        with open(inp, "w", encoding="utf-8") as fh:
            json.dump(mutated(doc, path, value), fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(with_input(argv, inp))
    if isinstance(value, (bool, float)):
        assert code == 1, err.getvalue()
    if code != 0:
        assert code in (1, 2) and out.getvalue() == ""
        report = json.loads(err.getvalue())
        assert isinstance(report["error"], str) and isinstance(report["message"], str)


# ------------------------------------------------ unknown JSON keys
# Each JSON object of the input formats, by format and path, with a key it
# does not take.  Densities and density pairs take extra keys, because
# command outputs (density-betti, segre) are read back as inputs.
UNKNOWN_KEYS = [
    ("semigroup", (), "N0"),
    ("semigroup", ("semigroup",), "N0"),
    ("ideal object", ("ideal",), "N0"),
    ("ci", (), "N0"),
    ("ci", ("ring",), "rel"),
    ("ci", (), "n0"),  # n0 and ehat come from the ring when there is one
    ("ci", (), "ehat"),
    ("veronese", ("ring",), "N0"),
    ("veronese", ("ring", "base"), "N0"),
    ("semigroup ring", ("ring",), "N0"),
    ("semigroup ring", ("ring", "semigroup"), "N0"),
    ("betti", (), "N0"),
    ("betti", ("betti",), "N0"),
    ("betti", ("betti", "betti", 0), "N0"),
    ("hn", (), "N0"),
    ("hn", ("components", 1), "N0"),
]


@pytest.mark.parametrize("fmt, path, key", UNKNOWN_KEYS, ids=[
    f"{fmt}:{'.'.join(map(str, path)) or 'top'}+{key}" for fmt, path, key in UNKNOWN_KEYS
])
def test_unknown_keys_are_input_errors(tmp_path, capsys, fmt, path, key):
    argv, doc, _ = FORMATS[fmt]
    inp = write(tmp_path, "in.json", mutated(doc, path + (key,), 2))
    code, out, err = run_cli(capsys, with_input(argv, inp))
    assert code == 1 and out == "", err
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert repr(key) in report["message"]


@pytest.mark.parametrize("extra, code", [({}, 0), ({"N0": 2}, 1)])
def test_ring_wrapper_is_strict(tmp_path, capsys, extra, code):
    doc = {**KOSZUL_BETTI, "ring": {"ring": KOSZUL_BETTI["ring"], **extra}}
    got, out, err = run_cli(capsys, ["density-betti", "--in", write(tmp_path, "in.json", doc)])
    assert got == code, err
    if code:
        assert "'N0'" in json.loads(err)["message"]
    else:
        plain = write(tmp_path, "plain.json", KOSZUL_BETTI)
        assert out == run_cli(capsys, ["density-betti", "--in", plain])[1]


@pytest.mark.parametrize("fmt, path", [
    ("density", ()), ("density pair", ()), ("density pair", ("F",)), ("density pair", ("f",)),
])
def test_densities_take_extra_keys(tmp_path, capsys, fmt, path):
    argv, doc, _ = FORMATS[fmt]
    plain = run_cli(capsys, with_input(argv, write(tmp_path, "a.json", doc)))
    extra = mutated(doc, path + ("command",), "density-betti")
    assert run_cli(capsys, with_input(argv, write(tmp_path, "b.json", extra))) == plain


def test_density_betti_table_dimension_must_match_ring(tmp_path, capsys):
    # a d = 2 table over the dimension-3 ring k[x, y, z]
    doc = {**KOSZUL_BETTI, "ring": {"type": "ci", "gens": [1, 1, 1]}}
    code, out, err = run_cli(capsys, ["density-betti", "--in", write(tmp_path, "in.json", doc)])
    assert code == 2 and out == ""
    report = json.loads(err)
    assert report["error"] == "ValidationError"
    assert "d = 2" in report["message"] and "dimension 3" in report["message"]
