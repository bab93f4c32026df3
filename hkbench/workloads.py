"""Seeded job lists for the three workloads.

A job is one CLI invocation: an argv for ``hkdensity.cli.main`` (without
``--out``, which the worker appends), the exit code it must return and the
facts its oracle needs.  Jobs come in rounds.  Every round of a workload has
the same slots, and each slot draws its inputs from a narrow stratum, so a
run of a few rounds already has the workload's cost profile and runs on two
seeds differ in their inputs, not in their mix.  The worker only stops at a
round boundary.

Everything here is a function of (workload, seed): the same seed gives the
same job list and the same input files, byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import exactref

WORKLOADS = ("lattice", "catalog", "closed-form")

# far more rounds than a run at the parent commit gets through, so that a
# program many times faster still measures full runs
ROUNDS = {"lattice": 150, "catalog": 150, "closed-form": 400}

KOSZUL_PAIR = [[1, 0], [0, 1]]
SEGRE_GENS = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
TENT = exactref.density_json([0, 1, 2], [[0, 1], [2, -1]])

PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]


class JobList:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"hkbench:{workload}:{seed}")
        self.jobs: list[dict] = []
        self.files: dict[str, str] = {}
        self.round = 0

    def input_file(self, obj) -> str:
        text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
        name = "in/" + hashlib.sha256(text.encode()).hexdigest()[:16] + ".json"
        self.files[name] = text
        return name

    def add(self, argv: list[str], ext: str, check: dict, *, key=None,
            expect: int = 0, threads: int | None = None) -> None:
        self.jobs.append(
            {
                "id": len(self.jobs),
                "round": self.round,
                "argv": argv,
                "ext": ext,
                "expect": expect,
                "check": check,
                "key": key,
                "threads": threads,
                "cap": expect == 3,
            }
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.jobs, sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(self.files[name].encode())
        return h.hexdigest()


def generate(workload: str, seed: int) -> JobList:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    jl = JobList(workload, seed)
    if workload == "closed-form":
        build_round = _closed_form_rounds(jl.rng)
    else:
        build_round = {"lattice": _lattice_round, "catalog": _catalog_round}[workload]
    for r in range(ROUNDS[workload]):
        jl.round = r
        start = len(jl.jobs)
        build_round(jl)
        # the slot order inside a round is seeded; ids follow the final order
        block = jl.jobs[start:]
        jl.rng.shuffle(block)
        for offset, job in enumerate(block):
            job["id"] = start + offset
        jl.jobs[start:] = block
    return jl


# ---------------------------------------------------------------- lattice
#
# Staircase classes group the m-primary monomial ideals of k[x, y] with
# exponents <= 3 by (number of generators, least l with (x, y)^l inside).
# Both numbers fix the enumeration size of the lattice path, so a slot that
# draws from one class has a nearly fixed cost whatever ideal it draws.


def _staircases(max_exp: int = 3) -> dict[tuple[int, int], list[list[list[int]]]]:
    classes: dict[tuple[int, int], list] = {}
    for s in (2, 3, 4):
        for a in itertools.combinations(range(1, max_exp + 1), s - 1):
            for b in itertools.combinations(range(1, max_exp + 1), s - 1):
                gens = [[x, y] for x, y in zip(sorted(a, reverse=True) + [0], [0] + list(b))]
                classes.setdefault((s, exactref.staircase_ell(gens)), []).append(gens)
    return classes


STAIRCASES = _staircases()


def _pair(gens, ideal, p, weights=(1, 1)) -> dict:
    return {
        "semigroup": {"rank": len(weights), "gens": gens, "weights": list(weights), "p": p},
        "ideal": ideal,
    }


# (kind, pair, p, level range, staircase class).  Each round runs every slot
# once, plus one capped job, in a seeded order.  The slots come in three
# cost tiers at the parent commit: 7 jobs under 20 ms (the capped one
# included), 8 around 100 ms and 5 around 200 ms.  The median job falls
# inside the middle tier and the p95 job inside the top one, never on the
# edge between two tiers where a percentile would jump.  The largest q built
# is 64.
LATTICE_SLOTS = [
    ("compare-ref", "koszul", 2, (3, 4), None),
    ("empirical", "koszul", 2, (4, 5), None),
    ("compare-ref", "staircase", 3, (1, 2), (2, 2)),
    ("compare", "staircase", 2, (2, 2), (2, 2)),
    ("empirical", "staircase", 3, (1, 2), (2, 3)),
    ("compare-ref", "staircase", 2, (2, 3), (2, 2)),
    ("compare", "koszul", 2, (5, 5), None),
    ("compare-ref", "koszul", 2, (6, 6), None),
    ("empirical", "staircase", 2, (4, 4), (3, 3)),
    ("compare", "staircase", 2, (3, 3), (3, 3)),
    ("compare", "staircase", 3, (2, 2), (2, 3)),
    ("compare", "staircase", 5, (1, 1), (2, 3)),
    ("compare-ref", "staircase", 2, (4, 4), (3, 3)),
    ("empirical", "staircase", 2, (4, 4), (3, 4)),
    ("empirical", "segre", 2, (3, 3), None),
    ("compare", "segre", 2, (2, 2), None),
    ("empirical", "staircase", 2, (5, 5), (2, 3)),
    ("empirical", "staircase", 5, (2, 2), (3, 3)),
    ("empirical", "staircase", 5, (2, 2), (2, 3)),
]


def _lattice_round(jl: JobList) -> None:
    rng = jl.rng
    slots = LATTICE_SLOTS + [("cap", "staircase", rng.choice((2, 3, 5)), (1, 2), (3, 3))]
    threads = [1, 2] * ((len(slots) + 1) // 2)
    rng.shuffle(threads)
    for (kind, family, p, (lo, hi), cls), nthreads in zip(slots, threads):
        level = rng.randint(lo, hi)
        if family == "koszul":
            ideal = KOSZUL_PAIR
        elif family == "staircase":
            ideal = rng.choice(STAIRCASES[cls])
        if family == "segre":
            pair = _pair(SEGRE_GENS, SEGRE_GENS, p, weights=(1, 0, 0))
            check = {"type": "segre-lattice"}
        else:
            pair = _pair(KOSZUL_PAIR, ideal, p)
            check = {"type": "staircase", "ideal": ideal, "koszul": family == "koszul"}
        check["p"] = p
        spec = jl.input_file(pair)
        key = json.dumps(pair, sort_keys=True)
        if kind == "cap":
            # a quarter of the points k[x,y] has in degrees <= q at most: any
            # enumeration that reaches the Frobenius power trips the cap
            q = p ** level
            cap = rng.randint(1, (q + 1) * (q + 2) // 4)
            sub = rng.choice(("compare", "empirical"))
            argv = (
                ["compare", "--spec", spec, "--levels", str(level)]
                if sub == "compare"
                else ["density-empirical", "--in", spec, "--level", str(level)]
            )
            argv += ["--threads", str(nthreads), "--max-points", str(cap)]
            jl.add(argv, "json", {"type": "cap", "cap": cap}, key=key, expect=3, threads=nthreads)
            continue
        if kind == "empirical":
            argv = ["density-empirical", "--in", spec, "--level", str(level)]
            ext = "json"
            check.update(level=level)
        else:
            # two levels where there are two, so a slot's cost does not
            # depend on the draw
            levels = list(range(max(1, level - 1), level + 1))
            argv = ["compare", "--spec", spec, "--levels", ",".join(map(str, levels))]
            ext = "csv"
            check.update(levels=levels, reference=None)
            if kind == "compare-ref":
                ref = (
                    TENT
                    if family == "koszul"
                    else exactref.kxy_density(
                        exactref.b_numbers(exactref.staircase_betti(ideal))
                    )
                )
                argv += ["--reference", jl.input_file(ref)]
                check["reference"] = ref
        argv += ["--threads", str(nthreads)]
        check["kind"] = argv[0]
        jl.add(argv, ext, check, key=key, threads=nthreads)


# ---------------------------------------------------------------- catalog
#
# A_n and D_n draw n from fixed bins, one D job per bin and five A jobs per
# bin each round, so every round spans the cheap and the expensive end of
# 2..50 (the D-family minor check grows with n).  The many cheap A_n jobs
# keep the median job inside the A_n tier and the job count in the band
# where the tail percentile is p95; the three E8 jobs, identical in every
# round, hold the p95 position.  Half the jobs also pass an admissible
# characteristic.

A_BINS = [(2, 7), (8, 13), (14, 19), (20, 25), (26, 31), (32, 37), (38, 43), (44, 50)]
D_BINS = [(2, 11), (12, 21), (22, 31), (32, 41), (42, 50)]


def _admissible(family: str, n: int) -> list[int]:
    char_min = {"A": 2, "D": 3, "E6": 5, "E7": 5, "E8": 7}[family]
    return [
        p for p in PRIMES[:20]
        if p >= char_min and (family not in ("A", "D") or n % p)
    ]


def _catalog_round(jl: JobList) -> None:
    rng = jl.rng
    entries = [("A", rng.randint(lo, hi)) for lo, hi in A_BINS * 5]
    entries += [("D", rng.randint(lo, hi)) for lo, hi in D_BINS]
    entries += [("E6", 6)] * 3 + [("E7", 7)] * 2 + [("E8", 8)] * 3
    for family, n in entries:
        argv = ["catalog", "--family", family]
        if family in ("A", "D"):
            argv += ["--n", str(n)]
        p = rng.choice(_admissible(family, n)) if rng.random() < 0.5 else None
        if p is not None:
            argv += ["--p", str(p)]
        jl.add(argv, "json", {"type": "catalog", "family": family, "n": n},
               key=f"{family}_{n}")


# ------------------------------------------------------------ closed-form
#
# Semigroup rings go through rings.leading_coefficient, which enumerates the
# semigroup; the process-wide hilbert_function cache keeps the counts, so a
# ring spec seen before is cheap.  Each round has as many fresh as repeated
# semigroup specs (one each for A_n, two each for the rational normal cones);
# fresh specs cycle through a shuffled deck of sizes so that a run sees every
# size about equally often.

A_SIZES = list(range(2, 8))
RNC_SIZES = list(range(3, 8))


def _ci_ring(degrees) -> dict:
    return {"type": "ci", "gens": list(degrees)}


def _closed_form_rounds(rng: random.Random):
    """The round builder; it keeps the decks and the specs seen so far."""
    decks = {"A": [], "RNC": []}
    used: set[tuple[str, int, int]] = set()
    seen: dict[str, list[tuple[int, int]]] = {"A": [], "RNC": []}

    def fresh(family: str) -> tuple[int, int]:
        if not decks[family]:
            decks[family] = list(A_SIZES if family == "A" else RNC_SIZES)
            rng.shuffle(decks[family])
        size = decks[family].pop()
        p = rng.choice([p for p in PRIMES if (family, size, p) not in used])
        used.add((family, size, p))
        return size, p

    def semigroup_job(jl: JobList, family: str, repeat: bool) -> None:
        if repeat and seen[family]:
            size, p = rng.choice(seen[family])
        else:
            size, p = fresh(family)
            seen[family].append((size, p))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        if family == "A":
            gens = [[1, 1], [size, 0], [0, size]]
            twin_ring = {"type": "ci", "gens": [2, size, size], "rels": [2 * size]}
            degrees = [a, b]
        else:
            gens = [[i, size - i] for i in range(size + 1)]
            twin_ring = {"type": "veronese", "base": _ci_ring([1, 1]), "factor": size}
            degrees = [size * a, size * b]
        ring = {"type": "semigroup",
                "semigroup": {"rank": 2, "gens": gens, "weights": [1, 1], "p": p}}
        infile = jl.input_file({"betti": exactref.betti_json(2, exactref.koszul_betti(degrees)),
                                "ring": ring})
        twin = jl.input_file({"betti": exactref.betti_json(2, exactref.koszul_betti([a, b])),
                              "ring": twin_ring})
        jl.add(["density-betti", "--in", infile], "json",
               {"type": "twin-" + family, "twin": ["density-betti", "--in", twin],
                "size": size},
               key=json.dumps(ring, sort_keys=True))

    def ci_job(jl: JobList, d: int, max_degree: int) -> None:
        degrees = [rng.randint(1, max_degree) for _ in range(d)]
        ring = _ci_ring([1] * d)
        infile = jl.input_file({"betti": exactref.betti_json(d, exactref.koszul_betti(degrees)),
                                "ring": ring})
        jl.add(["density-betti", "--in", infile], "json",
               {"type": "koszul-ci", "degrees": degrees},
               key=json.dumps(ring, sort_keys=True))

    def koszul_pair(a: int, b: int) -> dict:
        f = exactref.kxy_density(
            exactref.b_numbers(exactref.koszul_betti([a, b]))
        )
        return {"F": exactref.density_json([0], [], [0, 1]), "f": f, "d": 2}

    def segre_job(jl: JobList) -> None:
        pa = koszul_pair(rng.randint(1, 4), rng.randint(1, 4))
        pb = koszul_pair(rng.randint(1, 4), rng.randint(1, 4))
        jl.add(["segre", "--a", jl.input_file(pa), "--b", jl.input_file(pb)], "json",
               {"type": "segre", "a": pa, "b": pb})

    def hn_job(jl: JobList) -> None:
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        hn = {"d": 1, "components": [{"slope": str(1 - a - b), "rank": 1}]}
        twin = jl.input_file({"betti": exactref.betti_json(2, exactref.koszul_betti([a, b])),
                              "ring": _ci_ring([1, 1])})
        jl.add(["hn2", "--in", jl.input_file(hn), "--twists", f"{a},{b}"], "json",
               {"type": "twin-hn", "twin": ["density-betti", "--in", twin]})

    def build(jl: JobList) -> None:
        for d, max_degree in ((2, 4), (2, 4), (2, 4), (3, 3), (3, 3), (3, 3), (4, 2), (4, 2)):
            ci_job(jl, d, max_degree)
        for family in ("A", "RNC", "RNC"):
            semigroup_job(jl, family, repeat=False)
            semigroup_job(jl, family, repeat=True)
        for _ in range(2):
            segre_job(jl)
            hn_job(jl)

    return build

