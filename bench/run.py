#!/usr/bin/env python3
"""poselik benchmark: seeded workloads through the real CLI.

Run from the repository root:

    python3 bench/run.py --workload chain16 --seed 1 --seconds 36 --trace 0

``--trace 0`` times fresh single-threaded ``python -m poselik.cli``
processes and reports the end-to-end metrics.  ``--trace 1`` runs the same
commands inside this process, alternating untraced and traced repeats,
with spans around the calls between poselik modules, and reports the
per-layer metrics.  Both modes check every output.  A readable report goes
to stdout, and its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, input and output SHA-256, raw timings, counts) is written to
``bench/_work/results/``.  ``bench/NOTES.md`` says why each workload
exists and what each metric should move.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy loads; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("POSELIK_THREADS", None)  # every command runs at its default

import argparse
import itertools
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")

WORKLOADS = {
    "chain16": {"commands": ("score", "maxima"), "samples": 2000},
    "coco17": {"commands": ("refine",), "samples": 1000},
    "simloop": {"commands": ("simulate",), "samples": 1000},
}
SIM_ROUNDS = 8
SETUP_MIN = 3  # set-up samples per command, at the least
RUN_LIMIT_S = 165.0  # a process still running then is killed and counted as failed


# --- inputs --------------------------------------------------------------------------

def prepare(workload: str, seed: int, directory: str, samples: int) -> dict:
    """Write one input set; return its paths, sample ids and SHA-256."""
    shutil.rmtree(directory, ignore_errors=True)
    files = inputs.InputSet(directory)
    ids = [] if workload == "simloop" else [f"s{i:05d}" for i in range(samples)]
    if workload == "simloop":
        doc = (inputs.simulate_config(seed, unlabeled=1, ood=0, rounds=1, budget=1, heldout=1)
               if samples == 1 else inputs.simulate_config(seed, unlabeled=samples, rounds=SIM_ROUNDS))
        paths = {"config": files.write("config.json", inputs.json_bytes(doc))}
    else:
        paths = inputs.write_heatmap_set(files, workload, seed, samples)
    return {"paths": paths, "ids": ids, "sha256": files.digest.hexdigest(),
            "heatmaps": [os.path.join(directory, f"{i}.pshm") for i in ids]}


def command_argv(command: str, paths: dict, out: str) -> list[str]:
    if command == "simulate":
        return ["simulate", "--config", paths["config"], "--out", out]
    if command == "maxima":
        return ["maxima", "--heatmaps", paths["heatmaps"], "--out", out]
    argv = [command, "--skeleton", paths["skeleton"], "--params", paths["params"],
            "--heatmaps", paths["heatmaps"], "--out", out]
    return argv + ["--mode", "expected"] if command == "score" else argv


def output_files(command: str, out: str) -> list[str]:
    return [out, f"{out}.selections.jsonl"] if command == "simulate" else [out]


def check_outputs(command: str, out: str, data: dict) -> list[str]:
    ids, heatmaps = data["ids"], data["heatmaps"]
    if command == "simulate":
        return checks.check_simulation(out, f"{out}.selections.jsonl")
    if command == "maxima":
        return checks.check_maxima(out, ids, heatmaps)
    with open(data["paths"]["params"], "r", encoding="utf-8") as fh:
        model = json.load(fh)
    if command == "score":
        return checks.check_scores(out, ids, heatmaps, model)
    return checks.check_refine(out, ids, heatmaps, model, data["paths"]["params"],
                               inputs.COCO_ORACLE_SAMPLES)


# --- fresh processes -------------------------------------------------------------------

def run_cli(argv: list[str], cwd: str, cpu: int, timeout: float) -> dict:
    """Run ``python -m poselik.cli`` once, pinned to ``cpu``; return its wall
    seconds, exit code and peak RSS."""
    env = dict(os.environ, PYTHONPATH=SRC)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # inherited by the child
    try:
        with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "poselik.cli", *argv], cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
    finally:
        os.sched_setaffinity(0, allowed)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0, "cpu": cpu}
    if proc.returncode != 0:
        with open(os.path.join(cwd, "stderr.txt"), "r", encoding="utf-8", errors="replace") as fh:
            result["stderr"] = fh.read()[-500:]
    return result


class Run:
    """Outputs, failures and problems shared by both modes."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.spec = WORKLOADS[workload]
        self.dir = os.path.join(WORK, workload)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.output_sha: dict[str, str] = {}
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.full = prepare(workload, seed, os.path.join(self.dir, "inputs"), self.spec["samples"])
        self.one = prepare(workload, seed, os.path.join(self.dir, "one"), 1)

    def out(self, command: str, one: bool = False) -> str:
        return os.path.join(self.dir, f"{command}{'-one' if one else ''}.out")

    def samples(self, data: dict) -> int:
        return self.spec["samples"] if data is self.full else 1

    def account(self, command: str, rc: int, data: dict, detail: str = "") -> bool:
        n = self.samples(data)
        self.attempted += n
        if rc != 0:
            self.failed += n
            self.problems.append(f"{command} exited {rc}: {detail.strip()[-300:]}")
        return rc == 0

    def verify(self, command: str) -> None:
        """Full check of the first output; byte identity with it afterwards."""
        out = self.out(command)
        try:
            key = "+".join(checks.sha256_file(p) for p in output_files(command, out))
            if command not in self.output_sha:
                self.output_sha[command] = key
                self.problems += check_outputs(command, out, self.full)
            elif self.output_sha[command] != key:
                self.problems.append(f"{command}: output differs between repeats of the same input")
        except (OSError, LookupError, TypeError, ValueError) as exc:
            self.problems.append(f"{command}: missing or malformed output: {exc!r}")


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Fresh processes for ``seconds``: each command in turn on the full input
    set, then on the one-sample set.

    A command's k-th pair runs on the k-th of up to two CPUs in turn.  The
    vCPUs of the hosts this was built on switch between a fast and a slow
    state (about 1.5x apart) for seconds to minutes, partly independently,
    so alternating spreads a run over both.
    """
    commands = run.spec["commands"]
    cpus = sorted(os.sched_getaffinity(0))[:2]
    full = {c: [] for c in commands}
    setup = {c: [] for c in commands}

    def invoke(command: str, data: dict, into: list, cpu: int) -> bool:
        one = data is run.one
        r = run_cli(command_argv(command, data["paths"], run.out(command, one)), run.dir, cpu,
                    run.deadline - time.perf_counter())
        if not run.account(command, r["rc"], data, r.get("stderr", "")):
            return False
        if not one:
            run.verify(command)
        into.append(r)
        return True

    def measure(command: str, pairs: list[tuple[dict, list]]) -> bool:
        cpu = cpus[len(setup[command]) % len(cpus)]
        return all([invoke(command, data, into, cpu) for data, into in pairs])

    for command in commands:  # warm-up: bytecode compile and page cache
        measure(command, [(run.one, [])])
    started = time.perf_counter()
    for i in itertools.count(1):
        command = commands[(i - 1) % len(commands)]
        if not measure(command, [(run.full, full[command]), (run.one, setup[command])]):
            break
        elapsed = time.perf_counter() - started
        if i >= len(commands) and elapsed * (i + 1) / i > run.seconds:
            break
    for command in commands:
        while len(setup[command]) < SETUP_MIN and measure(command, [(run.one, setup[command])]):
            pass
    if not all(full.values()) or not all(len(v) >= SETUP_MIN for v in setup.values()):
        return {}, {"full": full, "setup": setup}

    def wall(records: list[dict]) -> float:
        return statistics.median(r["wall_s"] for r in records)

    samples = run.spec["samples"]
    metrics = {
        "samples_per_s": (samples * len(commands) / sum(wall(full[c]) for c in commands), "1/s"),
        "setup_s": (sum(wall(setup[c]) for c in commands), "s"),
        "peak_rss_mb": (max(statistics.median(r["rss_mb"] for r in full[c]) for c in commands), "MB"),
    }
    detail = {}
    for c in commands:
        if c == "simulate":
            detail["simulate_s"] = (wall(full[c]), "s")
        else:
            detail[f"{c}_samples_per_s"] = (samples / wall(full[c]), "1/s")
    detail["failed_fraction"] = (run.failed / run.attempted, "ratio")
    return metrics, {"detail": detail, "full": full, "setup": setup}


# --- in-process traced run ---------------------------------------------------------------

def traced(run: Run) -> tuple[dict, dict]:
    import poselik.cli
    import tracing

    commands = run.spec["commands"]

    def repeat(data: dict, tracer=None, one=False) -> float:
        """Run every command once in process; return the wall seconds."""
        start = time.perf_counter()
        for command in commands:
            argv = command_argv(command, data["paths"], run.out(command, one))
            try:
                rc = tracer.span(tracing.ROOT_SPAN, poselik.cli.main, argv) if tracer \
                    else poselik.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            if run.account(command, rc, data) and not one:
                run.verify(command)
        return time.perf_counter() - start

    repeat(run.one, one=True)  # warm-up: imports and first-call set-up
    tracer = tracing.Tracer()
    cli_samples = run.spec["samples"] * len(commands)
    rounds = SIM_ROUNDS if "simulate" in commands else 0
    plain, timed, layers = [], [], []
    started = time.perf_counter()
    # Traced, plain, traced, then plain/traced pairs while the time allows.
    while len(timed) < 2 or time.perf_counter() - started + 2 * statistics.median(timed) <= run.seconds:
        if timed:
            plain.append(repeat(run.full))
        tracer.reset()
        tracer.install()
        try:
            timed.append(repeat(run.full, tracer))
        finally:
            tracer.uninstall()
        layers.append(tracing.layer_metrics(tracer, cli_samples, rounds))
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tracer.write(os.path.join(WORK, "traces", f"{run.workload}-s{run.seed}.jsonl"))

    counts = {name: [rep[name][0] for rep in layers] for name in tracing.COUNT_METRICS if name in layers[0]}
    for name, values in counts.items():
        if len(set(values)) != 1:
            run.problems.append(f"count {name} differs between traced repeats: {values}")
    metrics = {name: (statistics.median(rep[name][0] for rep in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_ratio"] = (statistics.median(timed) / statistics.median(plain), "ratio")
    return metrics, {"traced_s": timed, "untraced_s": plain,
                     "counts": {k: v[0] for k, v in counts.items()}, "missing": sorted(tracer.missing)}


# --- reporting ---------------------------------------------------------------------------

def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "poselik")):
        print(f"bench: no poselik sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    load_before = os.getloadavg()
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics, record = (traced if args.trace else end_to_end)(run)
    finally:
        shutil.rmtree(os.path.join(run.dir, "inputs"), ignore_errors=True)
    load_after = os.getloadavg()
    if not metrics:
        print(f"bench: no successful repeat of {args.workload}: {run.problems[:3]}", file=sys.stderr)
        return 1

    correct = not run.problems and run.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"loadavg {load_before[0]:.2f} -> {load_after[0]:.2f}")
    for name, (value, unit) in {**metrics, **record.pop("detail", {})}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for line in record.get("missing", []):
        print(f"  missing: {line}")
    runs = record.get("full", {}).values()
    print(f"  full-input runs {[len(r) for r in runs] or len(record['traced_s'])}  "
          f"checks {'passed' if correct else 'FAILED'}")
    for line in run.problems[:20]:
        print(f"  problem: {line}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": environment(),
                   "loadavg_before": load_before, "loadavg_after": load_after,
                   "input_sha256": run.full["sha256"], "output_sha256": run.output_sha,
                   "correct": correct, "problems": run.problems,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   **record}, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
