"""Checks of one ``stayup run`` output directory.

Every check compares against the generator's planted truth or against a
property the method must have; none compares against a stored copy of
earlier outputs. Problems are reported per pipeline stage, so that a stage
whose outputs fail counts as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

STAGES = ("ingest", "sleep_fit", "profile", "consensus", "total_network", "predict", "report")
COHORTS = ("freshman", "sophomore", "junior")
LABEL_FLOOR = 0.95  # least share of fitted labels that match the planted components
LAYERS = {"G": 1, "R": 2, "A": 2, "T": 2, "Br": 2, "Ba": 2, "F": 2, "S": 2, "Ac": 3}
SPLITS = {  # profile variable -> (features.csv column, 1 means above the median)
    "R": ("books_borrowed", True),
    "T": ("mean_daily_surf_minutes", True),
    "Br": ("breakfast_count", True),
    "Ba": ("bath_interval_variance", False),
    "F": ("mean_daily_spend", True),
    "Ac": ("gpa", True),
}
# Columns that ingest computes as floating-point sums: two students whose
# values print alike in features.csv's 12 digits may still differ in the last
# bit in memory, where the median rule was applied.
ROUNDED = {"bath_interval_variance", "mean_daily_spend"}
BITS = ("G", "R", "A", "T", "Br", "Ba", "F", "Ac", "S")


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Truth:
    def __init__(self, inputs: Path):
        meta = json.loads((inputs / "truth.json").read_text())
        self.__dict__.update(meta)
        with np.load(inputs / "truth.npz") as z:
            self.arrays = {k: z[k] for k in z.files}
        self.index = {sid: i for i, sid in enumerate(self.ids)}

    def cohort_of(self, sid: str) -> int:
        return int(self.arrays["cohort"][self.index[sid]])


def _check_ingest(out: Path, truth: Truth, report: dict | None) -> list[str]:
    problems = []
    a = truth.arrays
    expect = {sid for sid, i in truth.index.items() if a["counts"][i].sum() >= truth.min_nights}
    rows = _rows(out / "sleep_counts.csv")
    if {r["student_id"] for r in rows} != expect:
        problems.append("sleep_counts.csv holds other students than planted")
    for r in rows:
        i = truth.index.get(r["student_id"])
        got = [int(r[f"c{b}"]) for b in range(a["counts"].shape[1])]
        if i is None or got != a["counts"][i].tolist():
            problems.append(f"sleep counts of {r['student_id']} differ from planted bins")
            break

    days = truth.study_days
    rows = _rows(out / "features.csv")
    expect = {sid for sid, i in truth.index.items() if a["has_grade"][i]}
    if {r["student_id"] for r in rows} != expect:
        problems.append("features.csv holds other students than planted")
    for r in rows:
        i = truth.index.get(r["student_id"])
        if i is None:
            continue
        var = a["bath_var"][i]
        ok = (int(r["books_borrowed"]) == a["books"][i]
              and int(r["breakfast_count"]) == a["breakfast"][i]
              and _close(float(r["mean_daily_surf_minutes"]), a["surf"][i] / days)
              and _close(float(r["game_minutes"]), a["game"][i])
              and _close(float(r["video_minutes"]), a["video"][i])
              and _close(float(r["mean_daily_spend"]), a["spend_cents"][i] / 100.0 / days)
              and _close(float(r["gpa"]), a["gpa"][i])
              and r["gender"] == ("female" if a["bits"][i, 0] else "male")
              and ((r["bath_interval_variance"] == "") == bool(np.isnan(var)))
              and (np.isnan(var) or _close(float(r["bath_interval_variance"]), var)))
        if not ok:
            problems.append(f"features of {r['student_id']} differ from planted aggregates")
            break

    if report is not None:
        planted = {kind: sum(reasons.values()) for kind, reasons in truth.reasons.items()}
        got = {kind: report["ingest"]["skipped"].get(kind, 0) for kind in planted}
        if got != planted:
            problems.append(f"skip counts {got} differ from planted {planted}")
        if report["ingest"]["loaded"] != truth.loaded:
            problems.append(f"loaded rows {report['ingest']['loaded']} differ from planted {truth.loaded}")
    return problems


def check_reasons(reasons: dict, truth: Truth) -> list[str]:
    """Skip counts per file and reason, as parse_logs returned them."""
    planted = {k: v for k, v in truth.reasons.items() if v}
    got = {k: v for k, v in reasons.items() if v}
    return [] if got == planted else ["ingest skip reasons differ from the planted malformed rows"]


def _check_sleep_fit(out: Path, truth: Truth) -> list[str]:
    problems = []
    counts = {r["student_id"]: [int(v) for k, v in r.items() if k != "student_id"]
              for r in _rows(out / "sleep_counts.csv")}
    assign = {r["student_id"]: r for r in _rows(out / "assignments.csv")}
    if set(assign) != set(counts):
        problems.append("assignments.csv and sleep_counts.csv cover different students")
    agree = total = 0
    for c, cohort in enumerate(COHORTS):
        model = json.loads((out / f"model_{cohort}.json").read_text())
        if model["variant"]["estep"] != "standard":
            problems.append(f"model_{cohort}.json: unexpected E-step variant")
            continue
        lam = np.asarray(model["lambda"], dtype=np.float64)
        ids = sorted(s for s in counts if truth.cohort_of(s) == c)
        x = np.asarray([counts[s] for s in ids], dtype=np.float64)
        # E-step: the count-factorial term is the same for every component and cancels
        with np.errstate(divide="ignore"):
            scores = x @ np.log(lam).T - lam.sum(axis=1) + np.log(np.asarray(model["mixing"]))
        scores -= scores.max(axis=1, keepdims=True)
        resp = np.exp(scores)
        resp /= resp.sum(axis=1, keepdims=True)
        late = int(np.argmax(lam @ np.arange(lam.shape[1]) / lam.sum(axis=1)))
        for s, omega in zip(ids, resp[:, late]):
            row = assign.get(s)
            if row is None:
                continue
            got = float(row["omega_stayup"])
            if not _close(got, float(omega)):
                problems.append(f"omega_stayup of {s} is {got}, the E-step gives {omega}")
                break
            stay_up = row["label"] == "stay_up"
            if stay_up != (got >= 0.5):
                problems.append(f"label of {s} disagrees with its omega_stayup")
                break
            agree += stay_up == (truth.arrays["component"][truth.index[s]] == truth.stay_up_component)
            total += 1
    if total and agree / total < LABEL_FLOOR:
        problems.append(f"labels agree with planted components for {agree / total:.3f}, floor {LABEL_FLOOR}")
    return problems


def _check_profile(out: Path, truth: Truth) -> list[str]:
    features = {r["student_id"]: r for r in _rows(out / "features.csv")}
    labels = {r["student_id"]: r["label"] for r in _rows(out / "assignments.csv")}
    got = {r["student_id"]: r for r in _rows(out / "profiles.csv")}
    expect = {}
    for c in range(len(COHORTS)):
        members = sorted(s for s in features
                         if s in labels and truth.cohort_of(s) == c
                         and features[s]["bath_interval_variance"] != "")
        ambiguous = {}
        bits = {s: {"G": int(features[s]["gender"] == "female"),
                    "A": int(float(features[s]["video_minutes"]) > float(features[s]["game_minutes"])),
                    "S": int(labels[s] == "stay_up")} for s in members}
        for name, (column, high) in SPLITS.items():
            values = {s: float(features[s][column]) for s in members}
            med = float(np.median(list(values.values())))
            for s, v in values.items():
                bits[s][name] = int(v > med) if high else int(v <= med)
                if column in ROUNDED and _close(v, med):
                    ambiguous.setdefault(s, set()).add(name)
        for s in members:
            expect[s] = (bits[s], ambiguous.get(s, set()))
    if set(got) != set(expect):
        return ["profiles.csv holds other students than the median rule selects"]
    for s, (bits, ambiguous) in expect.items():
        for name in BITS:
            if name not in ambiguous and int(got[s][name]) != bits[name]:
                return [f"profile bit {name} of {s} differs from the median rule"]
    return []


def _acyclic(edges: list[tuple[str, str]]) -> bool:
    nodes = {u for e in edges for u in e}
    indeg = {v: 0 for v in nodes}
    for _, v in edges:
        indeg[v] += 1
    ready = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for a, b in edges:
            if a == u:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return seen == len(nodes)


def _dag_problems(name: str, edges: list[tuple[str, str]]) -> list[str]:
    problems = []
    if not _acyclic(edges):
        problems.append(f"{name}: graph has a cycle")
    if any(LAYERS[u] > LAYERS[v] for u, v in edges):
        problems.append(f"{name}: an edge points to a lower layer")
    return problems


def _check_consensus(out: Path, restarts: int, replicas: int) -> list[str]:
    problems = []
    for cohort in COHORTS:
        name = f"consensus_{cohort}.json"
        obj = json.loads((out / name).read_text())
        edges = [(e["from"], e["to"]) for e in obj["edges"]]
        problems += _dag_problems(name, edges)
        threshold, null = obj["threshold"], obj["null"]
        if threshold != null["mean"] + 2.0 * null["std"]:
            problems.append(f"{name}: threshold is not the null mean plus two std")
        if null["replicas"] != replicas:
            problems.append(f"{name}: {null['replicas']} null replicas, expected {replicas}")
        if any(not e["frequency"] > threshold for e in obj["edges"]):
            problems.append(f"{name}: a kept edge lies at or below the threshold")
        freq = {(r["from"], r["to"]): r for r in _rows(out / f"edge_frequencies_{cohort}.csv")}
        top = math.ceil(restarts / 3)
        if any(int(r["n_networks"]) != top for r in freq.values()):
            problems.append(f"edge_frequencies_{cohort}.csv: not the top third of {restarts} restarts")
        if any(int(freq.get((e["from"], e["to"]), {"count": -1})["count"]) != e["frequency"]
               for e in obj["edges"]):
            problems.append(f"{name}: edge frequencies disagree with edge_frequencies_{cohort}.csv")
        # kept edges: every edge above the threshold, less those the logged
        # direction and cycle decisions dropped
        above = {e for e, r in freq.items() if int(r["count"]) > threshold}
        dropped = {tuple(p["dropped"]) for p in obj["provenance"]}
        if set(edges) != above - dropped or not dropped <= above:
            problems.append(f"{name}: kept edges are not the edges above the threshold")
    return problems


def _check_total(out: Path) -> list[str]:
    obj = json.loads((out / "consensus_total.json").read_text())
    edges = [(e["from"], e["to"]) for e in obj["edges"]]
    problems = _dag_problems("consensus_total.json", edges)
    members = [{(e["from"], e["to"]) for e in json.loads((out / f"consensus_{c}.json").read_text())["edges"]}
               for c in COHORTS]
    pairs = {frozenset(e) for m in members for e in m}
    majority = {p for p in pairs if sum(any(frozenset(e) == p for e in m) for m in members) >= 2}
    repaired = {frozenset(p["dropped"]) for p in obj["provenance"] if p["action"] == "cycle_repair"}
    kept = {frozenset(e) for e in edges}
    if not kept <= majority or majority - kept - repaired:
        problems.append("consensus_total.json: edges are not the connections in at least half the cohort networks")
    return problems


def _check_predict(out: Path, report: dict | None, folds: int) -> list[str]:
    problems = []
    for name in (*COHORTS, "total"):
        for k in range(folds):
            path = out / f"roc_{name}_fold{k}.csv"
            pts = np.asarray([[float(r["fpr"]), float(r["tpr"])] for r in _rows(path)])
            if (pts[0] != 0).any() or (pts[-1] != 1).any() or (np.diff(pts, axis=0) < 0).any():
                problems.append(f"{path.name}: not monotone from (0,0) to (1,1)")
                continue
            area = float(np.sum(np.diff(pts[:, 0]) * (pts[1:, 1] + pts[:-1, 1]) / 2.0))
            if report is not None and not _close(area, report["auc"][name]["auc_per_fold"][k]):
                problems.append(f"{path.name}: area {area} differs from the reported fold AUC")
    return problems


def _check_report(out: Path, manifest: dict, report: dict) -> list[str]:
    problems = []
    listed = manifest["files"]
    on_disk = {p.name for p in out.iterdir() if p.name != "MANIFEST.json"}
    if set(listed) != on_disk:
        problems.append("MANIFEST.json does not list exactly the files on disk")
    for name, digest in listed.items():
        path = out / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"MANIFEST.json digest of {name} does not match the file")
    labels = [r["label"] for r in _rows(out / "assignments.csv")]
    total = report["cluster_sizes"]["total"]
    if total["total"] != len(labels) or total["stay_up"] != labels.count("stay_up"):
        problems.append("report.json cluster sizes disagree with assignments.csv")
    return problems


def check_run(out: Path, truth: Truth, run_args: dict) -> dict[str, list[str]]:
    """Problems per stage; a stage missing from MANIFEST.json did not complete."""
    manifest_path = out / "MANIFEST.json"
    if not manifest_path.is_file():
        return {stage: ["no MANIFEST.json"] for stage in STAGES}
    manifest = json.loads(manifest_path.read_text())
    done = manifest["stages"]
    report = json.loads((out / "report.json").read_text()) if "report" in done else None
    checks = {
        "ingest": lambda: _check_ingest(out, truth, report),
        "sleep_fit": lambda: _check_sleep_fit(out, truth),
        "profile": lambda: _check_profile(out, truth),
        "consensus": lambda: _check_consensus(out, run_args["restarts"], run_args["null_replicas"]),
        "total_network": lambda: _check_total(out),
        "predict": lambda: _check_predict(out, report, run_args["folds"]),
        "report": lambda: _check_report(out, manifest, report),
    }
    problems = {}
    for stage in STAGES:
        if stage not in done:
            problems[stage] = ["stage did not complete"]
            continue
        try:
            problems[stage] = checks[stage]()
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            problems[stage] = [f"outputs unreadable: {exc!r}"]
    return problems
