"""The names that the hkbench harness looks up in hkdensity still resolve.

The tracer in ``hkbench/tracing.py`` wraps the functions its ``TRACED``
table names, and the worker reads ``rings.hilbert_function.cache_info()``.
A rename or a removal there breaks only a traced benchmark pass, so these
tests catch it in tier-1.  The tracer's source is read and run in a fresh
namespace, so nothing under ``hkbench`` is imported or written.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import hkdensity
from hkdensity import rings

TRACING = Path(__file__).resolve().parents[1] / "hkbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("hkbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_hooks_resolve():
    traced = load_tracing().TRACED
    assert traced
    for span, module, attr, cls, _ in traced:
        owner = importlib.import_module("hkdensity." + module)
        if cls is not None:
            assert hasattr(owner, cls), (span, module, cls)
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), (span, module, cls, attr)


def test_worker_reads_the_hilbert_cache_statistics():
    info = rings.hilbert_function.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_every_exported_name_resolves():
    missing = [name for name in hkdensity.__all__ if not hasattr(hkdensity, name)]
    assert missing == []
