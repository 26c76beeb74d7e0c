"""The benchmark's tracer wraps poselik names by (module, attribute).

The tracer reports a name it cannot find as missing instead of failing,
so a refactor that renames one would silently drop its per-layer
metrics. These tests keep every traced name and the peak counter working.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

import poselik
from poselik import Heatmap, extract_peaks

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_import_kept_for_tracing_is_traced(monkeypatch):
    """The reverse of the test above. An import marked as kept only because
    the tracer wraps it names a traced (module, name) and is never called
    there, and a traced name its module never calls carries the marker, so
    that no stale import outlives its wrap unmarked."""
    tracing = load_tracing(monkeypatch)
    marker = re.compile(r"\s+(\w+),\s+# noqa: F401 -- .*bench/tracing\.py wraps it.*")
    marked, called = set(), set()
    for path in sorted(Path(poselik.__file__).parent.glob("*.py")):
        module, text = f"poselik.{path.stem}", path.read_text(encoding="utf-8")
        marked |= {(module, m[1]) for m in map(marker.fullmatch, text.splitlines()) if m}
        called |= {
            (module, node.func.id) for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
    traced = {(module, name) for module, name, _ in tracing.WRAPS}
    assert sorted(marked - traced) == []
    assert sorted(marked & called) == []
    assert sorted(traced - called - marked) == []


def test_peak_counts_reads_the_peak_set(monkeypatch):
    tracing = load_tracing(monkeypatch)
    values = np.zeros((3, 8, 8), dtype=np.float32)
    values[0, 2, 2] = values[0, 5, 5] = 1.0
    values[1, 4, 4] = 1.0
    peaks = extract_peaks(Heatmap(values=values))
    assert tracing.peak_counts(peaks) == list(peaks.counts()) == [2, 1, 1]
