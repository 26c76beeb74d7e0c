"""In-process tracing of the calls one poselik module makes into another.

``Tracer.install`` replaces each name in ``WRAPS`` inside its calling
module with a wrapper that records a span (name, start, end, parent
span, sample id) and, after the call returns, counts what the returned
value holds.  Nothing inside ``src/`` changes.  A name that a later
refactor removes is reported as missing instead of failing the run, and
a return value whose shape the counters no longer understand marks only
the affected counts as missing.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import defaultdict

# (calling module, name it calls, span name); the span name's prefix is the
# layer (module) that owns the called function.
WRAPS = (
    ("poselik.cli", "load_skeleton_file", "model.load"),
    ("poselik.cli", "load_model_file", "model.load"),
    ("poselik.cli", "read_manifest", "heatmaps.read_manifest"),
    ("poselik.cli", "read_heatmap_file", "heatmaps.read"),
    ("poselik.cli", "extract_peaks", "heatmaps.extract"),
    ("poselik.cli", "expected_log_likelihood", "likelihood.expected"),
    ("poselik.cli", "refine_pose", "likelihood.refine"),
    ("poselik.cli", "point_log_likelihood", "likelihood.point"),
    ("poselik.cli", "multi_peak_entropy", "likelihood.entropy"),
    ("poselik.cli", "run_simulation", "simulation.run"),
    ("poselik.selection", "extract_peaks", "heatmaps.extract"),
    ("poselik.selection", "expected_log_likelihood", "likelihood.expected"),
    ("poselik.selection", "refine_pose", "likelihood.refine"),
    ("poselik.selection", "multi_peak_entropy", "likelihood.entropy"),
    ("poselik.simulation", "build_pool", "simulation.build_pool"),
    ("poselik.simulation", "render_gaussian_heatmap", "heatmaps.render"),
    ("poselik.simulation", "fit_model", "calibration.fit_model"),
    ("poselik.simulation", "point_log_likelihood", "likelihood.point"),
    ("poselik.simulation", "score_pool", "selection.score_pool"),
    ("poselik.simulation", "select_batch", "selection.select_batch"),
    ("poselik.simulation", "ood_ranking_auc", "selection.ood_ranking_auc"),
)
ROOT_SPAN = "cli.main"

NAME, START, END, PARENT, SAMPLE = range(5)


def _items(result) -> list:
    """A batched call returns a list; a per-sample call returns one value."""
    return result if isinstance(result, list) else [result]


def peak_counts(peaks) -> list[int]:
    """Peaks per joint of one peak set, tuple-of-tuples or CSR-offset form."""
    counts = getattr(peaks, "counts", None)
    if callable(counts):
        return [int(k) for k in counts()]
    offsets = getattr(peaks, "offsets", None)
    if offsets is not None:
        return [int(b - a) for a, b in zip(offsets[:-1], offsets[1:])]
    return [len(joint) for joint in peaks.peaks]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.owner: dict[int, str] = {}  # id(returned object) -> sample id
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.broken: set[str] = set()  # span names whose return values could not be counted
        self.installed: set[str] = set()  # span names with at least one wrapper in place
        self._originals: list[tuple] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAPS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span_name, original))
            self._originals.append((module, attr, original))
            self.installed.add(span_name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.owner.clear()
        self.counts.clear()

    # --- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; used for the root span around ``cli.main``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, 0.0, 0.0, parent, self._sample(name, args)]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self.stack.pop()
            self._observe(record, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _sample(self, name: str, args):
        """Sample id: a heatmap file's stem, or the owner of the first argument."""
        if not args or isinstance(args[0], list):
            return None
        if name == "heatmaps.read":
            return os.path.splitext(os.path.basename(args[0]))[0]
        return self.owner.get(id(args[0]))

    # --- counts from returned values -------------------------------------------

    def _observe(self, record, args, kwargs, result) -> None:
        name = record[NAME]
        c = self.counts
        try:
            if name in ("heatmaps.read", "heatmaps.extract") and record[SAMPLE] is not None:
                for item in _items(result):
                    self.owner[id(item)] = record[SAMPLE]
            if name == "heatmaps.read":
                paths = args[0] if isinstance(args[0], list) else [args[0]]
                c["read_samples"] += len(paths)
                c["read_bytes"] += sum(os.path.getsize(p) for p in paths)
            elif name == "heatmaps.extract":
                c["extract_calls"] += 1
                parent = record[PARENT]
                cache_miss = parent >= 0 and self.spans[parent][NAME] == "selection.score_pool"
                for peaks in _items(result):
                    counts = peak_counts(peaks)
                    c["extract_samples"] += 1
                    c["peaks"] += sum(counts)
                    c["joint_slots"] += len(counts)
                    c["cache_misses"] += cache_miss
            elif name == "heatmaps.render":
                c["render_samples"] += len(_items(result))
            elif name in ("likelihood.expected", "likelihood.refine"):
                kind = name.split(".")[1]
                counts = peak_counts(args[0])
                links = args[1].skeleton.links
                c[f"{kind}_samples"] += 1
                c["density_pairs"] += sum(counts[p] * counts[q] for p, q in links)
                if kind == "refine" and result.objective == -math.inf:
                    c["neg_inf_objectives"] += 1
            elif name == "likelihood.point":
                c["point_calls"] += 1
            elif name == "likelihood.entropy":
                c["entropy_samples"] += 1
            elif name == "selection.score_pool":
                strategy = kwargs.get("strategy", args[1] if len(args) > 1 else None)
                if strategy != "random":
                    c["cache_lookups"] += len(result)
            elif name == "selection.ood_ranking_auc":
                c["auc_calls"] += 1
                c["auc_scores"] += len(args[0]) + len(args[1])
            elif name == "simulation.build_pool":
                for sample_id, heatmap in result[0].unlabeled.items():
                    self.owner[id(heatmap)] = sample_id
        except Exception as exc:  # a changed return shape must not stop the run
            self.broken.add(name)
            self.missing.add(f"counts of {name}: {type(exc).__name__}: {exc}")

    # --- derived figures ----------------------------------------------------------

    def busy(self) -> dict[str, float]:
        """Seconds spent inside each span name, and the root span's self time."""
        totals: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for record in self.spans:
            duration = record[END] - record[START]
            totals[record[NAME]] += duration
            child_time[record[PARENT]] += duration
        totals["cli.self"] = sum(
            (r[END] - r[START]) - child_time[i]
            for i, r in enumerate(self.spans) if r[NAME] == ROOT_SPAN
        )
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sample in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "sample": sample}) + "\n")


def layer_metrics(tracer: Tracer, cli_samples: int, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repeat, as {name: (value, unit)}.

    Times per sample divide by the samples the layer's calls returned, so
    a batched call counts every sample it handled.  A metric whose spans
    could not be installed or counted is left out; the caller reports it
    as missing.
    """
    busy, c = tracer.busy(), tracer.counts
    usable = tracer.installed - tracer.broken
    out: dict[str, tuple[float, str]] = {}

    def put(name, unit, spans, value):
        if set(spans) <= usable:
            out[name] = (float(value()), unit)

    def ms_per(span, count):
        return lambda: 1000.0 * busy[span] / c[count] if c[count] else 0.0

    def ratio(num, den):
        return lambda: c[num] / c[den] if c[den] else 0.0

    read, extract = "heatmaps.read", "heatmaps.extract"
    put("heatmaps.read_ms_per_sample", "ms", [read], ms_per(read, "read_samples"))
    put("heatmaps.bytes_read_per_sample", "bytes", [read], ratio("read_bytes", "read_samples"))
    put("heatmaps.extract_ms_per_sample", "ms", [extract], ms_per(extract, "extract_samples"))
    put("heatmaps.extract_calls", "count", [extract], lambda: c["extract_calls"])
    put("heatmaps.peaks_per_joint_mean", "count", [extract], ratio("peaks", "joint_slots"))
    put("heatmaps.render_ms_per_sample", "ms", ["heatmaps.render"],
        ms_per("heatmaps.render", "render_samples"))
    put("likelihood.expected_ms_per_sample", "ms", ["likelihood.expected"],
        ms_per("likelihood.expected", "expected_samples"))
    put("likelihood.refine_ms_per_sample", "ms", ["likelihood.refine"],
        ms_per("likelihood.refine", "refine_samples"))
    put("likelihood.point_ms_per_call", "ms", ["likelihood.point"],
        ms_per("likelihood.point", "point_calls"))
    put("likelihood.entropy_ms_per_sample", "ms", ["likelihood.entropy"],
        ms_per("likelihood.entropy", "entropy_samples"))
    put("likelihood.density_pairs_per_sample", "count",
        ["likelihood.expected", "likelihood.refine"],
        lambda: c["density_pairs"] / (c["expected_samples"] + c["refine_samples"] or 1))
    put("likelihood.neg_inf_objectives", "count", ["likelihood.refine"],
        lambda: c["neg_inf_objectives"])
    put("selection.score_pool_ms_per_round", "ms", ["selection.score_pool"],
        lambda: 1000.0 * busy["selection.score_pool"] / rounds if rounds else 0.0)
    put("selection.select_batch_ms", "ms", ["selection.select_batch"],
        lambda: 1000.0 * busy["selection.select_batch"])
    put("selection.ood_ranking_auc_ms", "ms", ["selection.ood_ranking_auc"],
        lambda: 1000.0 * busy["selection.ood_ranking_auc"])
    put("selection.ood_ranking_auc_n", "count", ["selection.ood_ranking_auc"],
        ratio("auc_scores", "auc_calls"))
    put("selection.peak_cache_hit_ratio", "ratio", ["selection.score_pool", extract],
        lambda: 1.0 - c["cache_misses"] / c["cache_lookups"] if c["cache_lookups"] else 0.0)
    put("selection.peak_cache_lookups", "count", ["selection.score_pool"],
        lambda: c["cache_lookups"])
    put("calibration.fit_model_ms", "ms", ["calibration.fit_model"],
        lambda: 1000.0 * busy["calibration.fit_model"])
    put("simulation.build_pool_s", "s", ["simulation.build_pool"],
        lambda: busy["simulation.build_pool"])
    put("model.load_ms", "ms", ["model.load"], lambda: 1000.0 * busy["model.load"])
    out["cli.self_ms_per_sample"] = (1000.0 * busy["cli.self"] / cli_samples, "ms")
    return out


# Metrics that count work; they must repeat exactly for the same inputs.
COUNT_METRICS = (
    "heatmaps.bytes_read_per_sample", "heatmaps.extract_calls", "heatmaps.peaks_per_joint_mean",
    "likelihood.density_pairs_per_sample", "likelihood.neg_inf_objectives",
    "selection.ood_ranking_auc_n", "selection.peak_cache_hit_ratio", "selection.peak_cache_lookups",
)
