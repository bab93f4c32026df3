"""The names that the hkbench harness looks up in hkdensity still resolve.

The tracer in ``hkbench/tracing.py`` wraps the functions its ``TRACED``
table names, and the worker reads ``rings.hilbert_function.cache_info()``.
A rename or a removal there breaks only a traced benchmark pass, so these
tests catch it in tier-1.  The tracer's source is read and run in a fresh
namespace, so nothing under ``hkbench`` is imported or written.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
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


def test_tracer_installs_after_the_worker_imports():
    # the worker imports only cli and rings before Tracer.install(), which
    # looks every traced module up in sys.modules: run those steps in a
    # fresh interpreter, so a module that stops being imported up front fails
    script = (
        "import sys, types\n"
        "from hkdensity import cli, rings\n"
        "tracing = types.ModuleType('hkbench_tracing')\n"
        "path = sys.argv[1]\n"
        "exec(compile(open(path, encoding='utf-8').read(), path, 'exec'), tracing.__dict__)\n"
        "tracing.Tracer().install()\n"
        "assert cli.main.__wrapped__ is not None\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script, str(TRACING)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr


def test_worker_reads_the_hilbert_cache_statistics():
    info = rings.hilbert_function.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_every_exported_name_resolves():
    missing = [name for name in hkdensity.__all__ if not hasattr(hkdensity, name)]
    assert missing == []
