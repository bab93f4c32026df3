"""Spans around the public functions of each hkdensity module.

The tracer replaces each traced function by a wrapper, in every hkdensity
module that holds a reference to it (``cli`` and ``catalog`` bind names with
``from ... import``, so patching the defining module alone would miss their
calls), and each traced method on its class.  A span records name, start,
end, parent span and job id; spans stay in memory until the worker writes
them out at the end of its pass.

``layer_metrics`` turns spans into the per-layer metrics.  A metric named
``*_s`` is seconds summed over the traced job set: the self time of a span
name in SELF_TIMES (its duration minus the time its child spans cover), the
inclusive time of one in INCLUSIVE_TIMES.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time

# (span name, module, attribute, class or None, count taken from the result)
TRACED = [
    ("cli.main", "cli", "main", None, None),
    ("lattice.enumerate", "lattice", "__init__", "SemigroupEnumeration", "points"),
    ("lattice.colength", "lattice", "colengths_up_to", "LatticePair", "survivors"),
    ("lattice.colength", "lattice", "colength_by_degree", "LatticePair", "survivors"),
    ("lattice.approximant", "lattice", "build_approximant", "LatticePair", None),
    ("lattice.support_bound", "lattice", "support_bound", "LatticePair", None),
    ("lattice.report", "lattice", "convergence_report", "LatticePair", None),
    ("rings.ehat", "rings", "leading_coefficient", None, None),
    ("bivariate.ideal_equal", "bivariate", "graded_ideal_equal", None, None),
    ("bivariate.match", "bivariate", "match_generators", None, None),
    ("catalog.density", "catalog", "catalog_density", None, None),
    ("catalog.minor_check", "catalog", "catalog_minor_check", None, None),
    ("resolution.closed_form", "resolution", "closed_form_density", None, None),
    ("resolution.validate", "resolution", "validate_betti", None, None),
    ("combinators.pair_check", "combinators", "__post_init__", "DensityPair", None),
    ("combinators.segre", "combinators", "segre", None, None),
    ("combinators.rescale", "combinators", "rescale_density", None, None),
    ("exact.sup_distance", "exact", "pw_sup_distance", None, None),
    ("exact.integrate", "exact", "pw_integrate", None, None),
    ("hn.density", "hn", "hn_density", None, None),
    ("hn.density", "hn", "dim2_pair_density", None, None),
]

# per-layer metric -> (unit, better, end-to-end metrics it should move,
# workloads where it should move)
LAYERS = {
    "lattice.enumerate_s": ("s", "lower", ["jobs_per_s", "job_tail_s", "peak_rss_mb"], ["lattice", "closed-form"]),
    "lattice.enumerate_calls": ("count", "lower", ["jobs_per_s", "job_tail_s", "peak_rss_mb"], ["lattice", "closed-form"]),
    "lattice.points": ("count", "lower", ["jobs_per_s", "job_tail_s", "peak_rss_mb"], ["lattice", "closed-form"]),
    "lattice.points_per_s": ("1/s", "higher", ["jobs_per_s", "job_tail_s"], ["lattice", "closed-form"]),
    "lattice.enum_useful_ratio": ("1", "higher", ["jobs_per_s", "job_tail_s"], ["lattice", "closed-form"]),
    "lattice.colength_s": ("s", "lower", ["jobs_per_s", "job_tail_s"], ["lattice"]),
    "lattice.survivors": ("count", "higher", ["jobs_per_s", "job_tail_s"], ["lattice"]),
    "lattice.approximant_s": ("s", "lower", ["job_p50_s"], ["lattice"]),
    "lattice.support_bound_s": ("s", "lower", ["job_p50_s"], ["lattice"]),
    "lattice.cap_exit_s": ("s", "lower", ["job_p50_s"], ["lattice"]),
    "rings.ehat_s": ("s", "lower", ["job_tail_s", "jobs_per_s"], ["closed-form"]),
    "rings.ehat_calls": ("count", "lower", ["job_tail_s", "jobs_per_s"], ["closed-form"]),
    "rings.cache_hit_share": ("1", "higher", ["job_tail_s", "jobs_per_s"], ["closed-form"]),
    "bivariate.ideal_equal_s": ("s", "lower", ["job_tail_s", "jobs_per_s"], ["catalog"]),
    "bivariate.ideal_equal_calls": ("count", "lower", ["job_tail_s", "jobs_per_s"], ["catalog"]),
    "bivariate.match_s": ("s", "lower", ["job_tail_s", "jobs_per_s"], ["catalog"]),
    "catalog.density_s": ("s", "lower", ["job_p50_s"], ["catalog"]),
    "catalog.minor_check_s": ("s", "lower", ["job_p50_s"], ["catalog"]),
    "resolution.closed_form_s": ("s", "lower", ["job_p50_s"], ["closed-form", "catalog"]),
    "resolution.validate_s": ("s", "lower", ["job_p50_s"], ["closed-form", "catalog"]),
    "combinators.pair_check_s": ("s", "lower", ["job_p50_s"], ["closed-form", "catalog"]),
    "combinators.segre_s": ("s", "lower", ["job_p50_s"], ["closed-form"]),
    "combinators.rescale_s": ("s", "lower", ["job_p50_s"], ["catalog"]),
    "exact.sup_distance_s": ("s", "lower", ["job_p50_s"], ["lattice", "catalog"]),
    "exact.sup_calls": ("count", "lower", ["job_p50_s"], ["lattice", "catalog"]),
    "exact.integrate_s": ("s", "lower", ["job_p50_s"], ["lattice", "catalog"]),
    "hn.density_s": ("s", "lower", ["job_p50_s"], ["closed-form"]),
    "cli.self_s": ("s", "lower", ["job_p50_s", "setup_s"], ["lattice", "catalog", "closed-form"]),
    "cli.output_bytes": ("count", "lower", ["job_p50_s"], ["lattice", "catalog", "closed-form"]),
    "trace.overhead_ratio": ("1", "lower", [], ["lattice", "catalog", "closed-form"]),
}

# metric -> span name whose self time it reports
SELF_TIMES = {
    "lattice.colength_s": "lattice.colength",
    "lattice.approximant_s": "lattice.approximant",
    "rings.ehat_s": "rings.ehat",
    "bivariate.match_s": "bivariate.match",
    "catalog.density_s": "catalog.density",
    "catalog.minor_check_s": "catalog.minor_check",
    "cli.self_s": "cli.main",
}

# metric -> span name whose inclusive time it reports
INCLUSIVE_TIMES = {
    "lattice.enumerate_s": "lattice.enumerate",
    "lattice.support_bound_s": "lattice.support_bound",
    "bivariate.ideal_equal_s": "bivariate.ideal_equal",
    "resolution.closed_form_s": "resolution.closed_form",
    "resolution.validate_s": "resolution.validate",
    "combinators.pair_check_s": "combinators.pair_check",
    "combinators.segre_s": "combinators.segre",
    "combinators.rescale_s": "combinators.rescale",
    "exact.sup_distance_s": "exact.sup_distance",
    "exact.integrate_s": "exact.integrate",
    "hn.density_s": "hn.density",
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job id, count]
        self.spans: list[list] = []
        self.job = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count: str | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.job, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count == "points":
                span[5] = args[0].count
            elif count == "survivors":
                span[5] = sum(result) if isinstance(result, list) else result
            return result

        return traced

    def install(self) -> None:
        """Patch hkdensity; must run after hkdensity.cli has been imported."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "hkdensity" or name.startswith("hkdensity.")
        }
        for name, module, attr, cls, count in TRACED:
            owner = modules["hkdensity." + module]
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr, self.wrap(name, getattr(klass, attr), count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def layer_metrics(spans: list[list], cap_jobs: set[int]) -> dict[str, float]:
    """Per-layer metrics from one pass's spans (see the module docstring)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]

    def has_ancestor(index: int, name: str) -> bool:
        parent = spans[index][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def inclusive(name: str) -> float:
        return sum(
            s[2] - s[1] for i, s in enumerate(spans)
            if s[0] == name and not has_ancestor(i, name)
        )

    def self_time(name: str) -> float:
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    def total(name: str) -> int:
        return sum(s[5] or 0 for s in spans if s[0] == name)

    out: dict[str, float] = {}
    for metric, name in INCLUSIVE_TIMES.items():
        out[metric] = inclusive(name)
    for metric, name in SELF_TIMES.items():
        out[metric] = self_time(name)
    out["lattice.enumerate_calls"] = calls("lattice.enumerate")
    out["lattice.points"] = total("lattice.enumerate")
    out["lattice.points_per_s"] = (
        out["lattice.points"] / out["lattice.enumerate_s"] if out["lattice.enumerate_s"] else 0.0
    )
    largest: dict[int, int] = {}
    for s in spans:
        if s[0] == "lattice.enumerate":
            largest[s[4]] = max(largest.get(s[4], 0), s[5] or 0)
    out["lattice.enum_useful_ratio"] = (
        sum(largest.values()) / out["lattice.points"] if out["lattice.points"] else 0.0
    )
    out["lattice.survivors"] = total("lattice.colength")
    cap_exits = [s[2] - s[1] for s in spans if s[0] == "cli.main" and s[4] in cap_jobs]
    out["lattice.cap_exit_s"] = statistics.median(cap_exits) if cap_exits else 0.0
    out["rings.ehat_calls"] = calls("rings.ehat")
    out["bivariate.ideal_equal_calls"] = calls("bivariate.ideal_equal")
    out["exact.sup_calls"] = calls("exact.sup_distance")
    return out


def points_per_job(spans: list[list]) -> dict[int, int]:
    points: dict[int, int] = {}
    for s in spans:
        if s[0] == "lattice.enumerate":
            points[s[4]] = points.get(s[4], 0) + (s[5] or 0)
    return points
