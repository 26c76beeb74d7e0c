"""Output checks made from outside the code under test.

Every check returns a list of problems; an empty list means the output
passed.  The reference computations here (peak extraction, expected and
refined likelihood terms) re-derive the README's definitions with numpy,
so a refactor of poselik cannot change the oracle along with the output.
The exhaustive search on the coco17 oracle subset is the library's own
``brute_force_best_pose``, the reference the acceptance tests use.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import inputs

THRESHOLD_RATIO = 0.05
MAX_PEAKS = 10
LOG_2PI = math.log(2.0 * math.pi)
TOLERANCE = 1e-9
REFERENCE_SAMPLES = 16  # leading samples re-derived with the numpy reference


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def read_pshm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        _, _, joints, height, width = inputs.PSHM_HEADER.unpack(fh.read(inputs.PSHM_HEADER.size))
        return np.frombuffer(fh.read(), dtype="<f4").reshape(joints, height, width)


def reference_peaks(grid: np.ndarray):
    """(locs, scores, probs) of one joint grid, as the README defines peaks."""
    g = grid.astype(np.float64)
    h, w = g.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = g
    keep = np.ones((h, w), dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                keep &= g > padded[1 + dr:1 + dr + h, 1 + dc:1 + dc + w]
    top = int(np.argmax(g))
    keep &= g >= THRESHOLD_RATIO * g.flat[top]
    keep.flat[top] = True
    cells = np.flatnonzero(keep)
    cells = cells[np.lexsort((cells, -g.flat[cells]))][:MAX_PEAKS]
    scores = g.flat[cells]
    weights = np.exp(scores - scores.max())
    return np.column_stack(np.divmod(cells, w)).astype(np.float64), scores, weights / weights.sum()


def _distance_log_density(diff: np.ndarray, params: dict) -> np.ndarray:
    sigma = max(float(params["sigma"]), 1e-3)
    z = (np.sqrt((diff * diff).sum(axis=-1)) - float(params["mean"])) / sigma
    return -0.5 * z * z - math.log(sigma) - 0.5 * LOG_2PI


def _offset_log_density(diff: np.ndarray, params: dict) -> np.ndarray:
    cov = np.array(params["covariance"], dtype=np.float64)
    residual = diff - np.array(params["offset"], dtype=np.float64)
    maha = np.einsum("...i,ij,...j->...", residual, np.linalg.inv(cov), residual)
    return -0.5 * maha - 0.5 * math.log(np.linalg.det(cov)) - LOG_2PI


def link_log_density(model: dict, link: int, parent_locs, child_locs) -> np.ndarray:
    """(a, b) log-densities of one link over candidate location pairs."""
    diff = child_locs[None, :, :] - parent_locs[:, None, :]
    density = _distance_log_density if model["model_kind"] == "distance" else _offset_log_density
    return density(diff, model["params"][link])


def _link_indices(model: dict) -> list[tuple[int, int]]:
    index = {name: i for i, name in enumerate(model["joints"])}
    return [(index[p], index[c]) for p, c in model["links"]]


def _check_order(records: list[dict], ids: list[str], what: str) -> list[str]:
    got = [r.get("id") for r in records]
    if got != ids:
        return [f"{what}: {len(got)} records whose ids do not follow the {len(ids)}-entry manifest"]
    return []


def _check_totals(records: list[dict], what: str) -> list[str]:
    problems = []
    for r in records:
        if not close(r["total"], r["root"] + sum(r["per_link"])):
            problems.append(f"{what} {r['id']}: total {r['total']} != root + sum(per_link)")
    return problems


def check_scores(path: str, ids: list[str], heatmaps: list[str], model: dict) -> list[str]:
    records = read_jsonl(path)
    problems = _check_order(records, ids, "score") + _check_totals(records, "score")
    links = _link_indices(model)
    for r in records:
        if r.get("mode") != "expected" or len(r["per_link"]) != len(links):
            problems.append(f"score {r['id']}: mode or per_link length is wrong")
    for r, path_ in zip(records[:REFERENCE_SAMPLES], heatmaps):
        peaks = [reference_peaks(grid) for grid in read_pshm(path_)]
        for k, (p, c) in enumerate(links):
            m = link_log_density(model, k, peaks[p][0], peaks[c][0])
            want = float(peaks[p][2] @ m @ peaks[c][2])
            if not close(r["per_link"][k], want):
                problems.append(f"score {r['id']}: link {k} term {r['per_link'][k]} != reference {want}")
    return problems


def check_maxima(path: str, ids: list[str], heatmaps: list[str]) -> list[str]:
    records = read_jsonl(path)
    problems = _check_order(records, ids, "maxima")
    for r in records:
        entropy = 0.0
        for joint in r["peaks"]:
            probs = [p["prob"] for p in joint]
            scores = [p["score"] for p in joint]
            if not 1 <= len(joint) <= MAX_PEAKS or not close(sum(probs), 1.0) \
                    or scores != sorted(scores, reverse=True):
                problems.append(f"maxima {r['id']}: a joint's peaks are not a sorted distribution")
                break
            entropy -= sum(p * math.log(p) for p in probs if p > 0.0)
        if not close(r["entropy"], entropy):
            problems.append(f"maxima {r['id']}: entropy {r['entropy']} != {entropy}")
    for r, path_ in zip(records[:REFERENCE_SAMPLES], heatmaps):
        for j, grid in enumerate(read_pshm(path_)):
            locs, scores, probs = reference_peaks(grid)
            got = r["peaks"][j]
            if [p["loc"] for p in got] != locs.astype(int).tolist() \
                    or [p["score"] for p in got] != scores.tolist() \
                    or not all(close(p["prob"], q) for p, q in zip(got, probs)):
                problems.append(f"maxima {r['id']}: joint {j} peaks differ from the reference")
    return problems


def check_refine(path: str, ids: list[str], heatmaps: list[str], model: dict,
                 model_path: str, oracle_samples: int) -> list[str]:
    records = read_jsonl(path)
    problems = _check_order(records, ids, "refine") + _check_totals(records, "refine")
    links = _link_indices(model)
    for r, path_ in zip(records[:REFERENCE_SAMPLES], heatmaps):
        peaks = [reference_peaks(grid) for grid in read_pshm(path_)]
        chosen = r["peak_index"]
        locs = np.array([peaks[j][0][i] for j, i in enumerate(chosen)])
        if locs.astype(int).tolist() != r["pose"]:
            problems.append(f"refine {r['id']}: pose is not the chosen peaks")
            continue
        terms = [float(link_log_density(model, k, locs[[p]], locs[[c]])[0, 0])
                 for k, (p, c) in enumerate(links)]
        objective = sum(math.log(peaks[j][2][i]) for j, i in enumerate(chosen)) + sum(terms)
        if not all(close(a, b) for a, b in zip(r["per_link"], terms)) \
                or not close(r["objective"], objective):
            problems.append(f"refine {r['id']}: link terms or objective differ from the reference")
    problems += _check_oracle(records[:oracle_samples], heatmaps, model_path)
    return problems


def _check_oracle(records: list[dict], heatmaps: list[str], model_path: str) -> list[str]:
    from poselik import brute_force_best_pose, extract_peaks, load_model_file, read_heatmap_file

    params = load_model_file(model_path)
    problems = []
    for r, path_ in zip(records, heatmaps):
        best = brute_force_best_pose(extract_peaks(read_heatmap_file(path_)), params)
        if list(best.chosen_peak_index) != r["peak_index"] or not close(best.objective, r["objective"]):
            problems.append(f"refine {r['id']}: differs from brute_force_best_pose")
    return problems


def check_simulation(report_path: str, selections_path: str) -> list[str]:
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    selections = read_jsonl(selections_path)
    cfg = report["config"]
    rounds, budget, strategies = cfg["rounds"], cfg["budget"], cfg["strategies"]
    problems = []
    if len(report["planted_ood"]) != cfg["pool"]["ood"]:
        problems.append("simulate: planted_ood does not match config.pool.ood")
    logged = [(s["round"], s["strategy"], s["id"]) for s in selections]
    expected_log = []
    for round_idx in range(rounds):
        for strategy in strategies:
            expected_log += [(round_idx, strategy, i) for i in report["selected"][strategy][round_idx]]
    if logged != expected_log:
        problems.append("simulate: selections log does not match the report's selected ids")
    for strategy in strategies:
        chosen = [i for batch in report["selected"][strategy] for i in batch]
        if len(chosen) != rounds * budget or len(set(chosen)) != len(chosen):
            problems.append(f"simulate {strategy}: selections are not {rounds} distinct batches of {budget}")
        want = [cfg["pool"]["labeled"] + (r + 1) * budget for r in range(rounds)]
        if report["metrics"][strategy]["labeled_count"] != want:
            problems.append(f"simulate {strategy}: labeled_count is not {want}")
    return problems
