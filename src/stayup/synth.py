"""Ground-truth-driven synthetic data for desk-scale verification.

Generates bedtime count vectors from a known Poisson mixture, binary
profiles by ancestral sampling through a known network, and (optionally)
full raw event logs that invert the ingest transforms, so the whole
pipeline can be exercised and checked against the truth it was fed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import Mapping

import numpy as np

from .bayesnet import Cpt, CptSet, Dag, DatasetTable, profile_variables
from .ingest import BIN_COUNT, BIN_MINUTES, COHORTS, CSV_SCHEMAS, WINDOW_START
from .sleepmix import PoissonMixtureModel, stay_up_component

STUDY_START = date(2018, 11, 5)


@dataclass(frozen=True)
class GroundTruth:
    mixture: PoissonMixtureModel
    profile_dag: Dag
    profile_cpts: CptSet


@dataclass(frozen=True)
class GeneratorConfig:
    n_students: int
    n_nights: int
    seed: int = 0
    emit: str = "count_vectors"  # count_vectors | profiles | full_logs

    def __post_init__(self):
        if self.n_students < 1 or self.n_nights < 1:
            raise ValueError("n_students and n_nights must be >= 1")
        if self.emit not in ("count_vectors", "profiles", "full_logs"):
            raise ValueError(f"unknown emit mode {self.emit!r}")


def make_cpts(dag: Dag, p_one: Mapping[str, object]) -> CptSet:
    """Build binary CPTs from P(X=1 | parents).

    p_one maps each variable to a scalar (no parents) or a dict keyed by
    the parent-value tuple in variable-index order.
    """
    var = dag.variables
    cpts = []
    for i, name in enumerate(var.names):
        parents = tuple(sorted(dag.parent_indices(i)))
        spec = p_one[name]
        p1 = np.array([float(spec[key] if parents else spec)
                       for key in np.ndindex(*(var.arities[p] for p in parents))])
        cpts.append(Cpt(parents, np.column_stack([1.0 - p1, p1])))
    return CptSet(var, tuple(cpts))


def _bell(center: float, sigma_left: float, sigma_right: float) -> np.ndarray:
    d = np.arange(BIN_COUNT, dtype=np.float64)
    sigma = np.where(d <= center, sigma_left, sigma_right)
    return 0.04 + 0.22 * np.exp(-0.5 * ((d - center) / sigma) ** 2)


def default_mixture_truth() -> PoissonMixtureModel:
    """Two bell-shaped components: an early one peaking in the 22:30 bin and
    a later one peaking in the 0:00 bin with a heavier right tail."""
    early = _bell(3.0, 1.4, 1.4)
    late = _bell(6.0, 1.6, 3.2)
    return PoissonMixtureModel(np.stack([early, late]), np.array([0.5, 0.5]))


def default_ground_truth() -> GroundTruth:
    """Moderate dependencies sized for predictability experiments.

    Video-preferring students stay up with probability 0.75 against 0.5 for
    game-preferring ones; staying up lowers the breakfast and academic
    probabilities by 0.2 each and cuts long surfing.
    """
    dag = Dag(profile_variables(), [("A", "S"), ("A", "T"), ("S", "Br"), ("S", "Ac")])
    cpts = make_cpts(dag, {
        "G": 0.5,
        "R": 0.5,
        "A": 0.5,
        "T": {(0,): 0.58, (1,): 0.23},
        "Br": {(0,): 0.6, (1,): 0.4},
        "Ba": 0.5,
        "F": 0.5,
        "Ac": {(0,): 0.6, (1,): 0.4},
        "S": {(0,): 0.5, (1,): 0.75},
    })
    return GroundTruth(default_mixture_truth(), dag, cpts)


def structure_recovery_truth() -> GroundTruth:
    """Layered truth with stronger, fully direction-identifiable edges."""
    dag = Dag(profile_variables(), [
        ("G", "A"), ("A", "S"), ("T", "S"), ("S", "Br"), ("G", "Br"),
        ("S", "Ac"), ("F", "Ac"),
    ])
    cpts = make_cpts(dag, {
        "G": 0.5,
        "R": 0.5,
        "A": {(0,): 0.35, (1,): 0.65},
        "T": 0.5,
        "Br": {(0, 0): 0.25, (0, 1): 0.6, (1, 0): 0.5, (1, 1): 0.8},   # (G, S)
        "Ba": 0.5,
        "F": 0.5,
        "Ac": {(0, 0): 0.3, (0, 1): 0.62, (1, 0): 0.55, (1, 1): 0.85},  # (F, S)
        "S": {(0, 0): 0.15, (0, 1): 0.45, (1, 0): 0.45, (1, 1): 0.8},   # (A, T)
    })
    return GroundTruth(default_mixture_truth(), dag, cpts)


def effective_rates(mixture: PoissonMixtureModel, n_nights: int) -> np.ndarray:
    """Rate rows rescaled so each component's expected total is n_nights."""
    rates = mixture.rates
    return rates / rates.sum(axis=1, keepdims=True) * n_nights


def _student_ids(n: int) -> tuple[str, ...]:
    return tuple(f"s{i:05d}" for i in range(n))


def generate_sleep_data(truth: GroundTruth, cfg: GeneratorConfig,
                        ) -> tuple[tuple[str, ...], np.ndarray, dict[str, int]]:
    """(ids, counts, components): an (N, bins) count matrix drawn bin-wise
    from the component each student samples, row i being ids[i], and each
    student's component."""
    truth.mixture.validate()
    rng = np.random.default_rng([cfg.seed, 1])
    m = truth.mixture.rates.shape[0]
    z = rng.choice(m, size=cfg.n_students, p=truth.mixture.mixing)
    lam = effective_rates(truth.mixture, cfg.n_nights)
    counts = rng.poisson(lam[z])
    ids = _student_ids(cfg.n_students)
    return ids, counts, {sid: int(c) for sid, c in zip(ids, z)}


def generate_profiles(truth: GroundTruth, cfg: GeneratorConfig,
                      ) -> tuple[DatasetTable, tuple[str, ...]]:
    """Ancestral sampling through the truth network in topological order."""
    rng = np.random.default_rng([cfg.seed, 2])
    var = truth.profile_dag.variables
    n = cfg.n_students
    values = np.zeros((n, var.n), dtype=np.uint8)
    cpts = truth.profile_cpts
    for i in truth.profile_dag.topological_order():
        p1 = cpts.cube(i)[..., 1][tuple(values[:, list(cpts.cpts[i].parents)].T)]
        values[:, i] = rng.random(n) < p1
    return DatasetTable(var, values), _student_ids(n)


@dataclass
class FullLogsResult:
    out_dir: Path
    paths: dict[str, Path]
    sleep_counts: np.ndarray   # row i is student_ids[i]
    component_labels: dict[str, int]
    table: DatasetTable
    student_ids: tuple[str, ...]


def _fmt(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%d %H:%M")


def generate_full_logs(truth: GroundTruth, cfg: GeneratorConfig, out_dir) -> FullLogsResult:
    """Emit the five raw CSVs realizing sampled profiles and bedtimes.

    Bedtimes invert the ingest transform exactly: each of the n_nights
    nights carries one network session ending in the sampled bin, so
    re-ingesting reproduces the emitted count vectors. Raw features are
    drawn from overlapping class-conditional distributions separated enough
    for median splits to recover the binary truth. The sleep component of a
    student is its sampled S value (identity coupling).
    """
    if truth.mixture.rates.shape[0] != 2:
        raise ValueError("full-log generation couples S to a two-component mixture")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    table, ids = generate_profiles(truth, cfg)
    var = table.variables
    col = {name: var.index(name) for name in var.names}
    stay_comp = stay_up_component(truth.mixture)
    lam = effective_rates(truth.mixture, cfg.n_nights)
    bin_probs = lam / lam.sum(axis=1, keepdims=True)
    study_days = cfg.n_nights

    rng = np.random.default_rng([cfg.seed, 3])
    sessions, transactions, borrows, grades, demographics = [], [], [], [], []
    sleep_counts = np.zeros((cfg.n_students, BIN_COUNT), dtype=np.int64)
    components: dict[str, int] = {}

    for i, sid in enumerate(ids):
        bits = table.values[i]
        comp = stay_comp if bits[col["S"]] else 1 - stay_comp
        components[sid] = int(comp)

        bins = rng.choice(BIN_COUNT, size=cfg.n_nights, p=bin_probs[comp])
        sleep_counts[i] = np.bincount(bins, minlength=BIN_COUNT)
        surf_median = 45.0 if bits[col["T"]] else 15.0
        per_night_surf = surf_median * float(np.exp(rng.normal(0.0, 0.25)))
        p_video = 0.72 if bits[col["A"]] else 0.28
        for night in range(cfg.n_nights):
            end = datetime.combine(STUDY_START + timedelta(days=night), WINDOW_START)
            end += timedelta(minutes=int(bins[night]) * BIN_MINUTES
                             + int(rng.integers(0, BIN_MINUTES)))
            category = "video" if rng.random() < p_video else "game"
            duration = int(rng.poisson(per_night_surf))
            sessions.append((sid, end, category, duration))

        spent = 0.0
        p_breakfast = 0.8 if bits[col["Br"]] else 0.35
        for day in range(study_days):
            if rng.random() < p_breakfast:
                ts = datetime.combine(STUDY_START + timedelta(days=day), time(7, 30))
                ts += timedelta(minutes=int(rng.integers(0, 60)))
                amount = round(float(rng.uniform(3.0, 8.0)), 2)
                transactions.append((sid, ts, "canteen", amount))
                spent += amount

        day = int(rng.integers(0, 3))
        while day < study_days:
            ts = datetime.combine(STUDY_START + timedelta(days=day), time(18, 30))
            ts += timedelta(minutes=int(rng.integers(0, 90)))
            amount = round(float(rng.uniform(2.0, 5.0)), 2)
            transactions.append((sid, ts, "bath", amount))
            spent += amount
            if bits[col["Ba"]]:
                day += 4 if rng.random() < 0.1 else 3
            else:
                day += int(rng.integers(1, 8))

        spend_median = 25.0 if bits[col["F"]] else 10.0
        target = spend_median * float(np.exp(rng.normal(0.0, 0.2))) * study_days
        leftover = max(0.0, target - spent)
        daily = round(leftover / study_days, 2)
        if daily > 0:
            for day in range(study_days):
                ts = datetime.combine(STUDY_START + timedelta(days=day), time(12, 15))
                transactions.append((sid, ts, "other", daily))

        n_borrows = int(rng.poisson(12.0 if bits[col["R"]] else 3.0))
        for day in rng.integers(0, study_days, size=n_borrows):
            ts = datetime.combine(STUDY_START + timedelta(days=int(day)), time(10, 0))
            ts += timedelta(minutes=int(rng.integers(0, 600)))
            borrows.append((sid, ts))

        gpa = float(np.clip(rng.normal(3.7 if bits[col["Ac"]] else 2.5, 0.35), 0.0, 5.0))
        grades.append((sid, round(gpa, 3)))
        gender = "female" if bits[col["G"]] else "male"
        demographics.append((sid, gender, COHORTS[i % len(COHORTS)]))

    paths = {kind: out_dir / f"{kind}.csv" for kind in CSV_SCHEMAS}
    _write_csv(paths["net_sessions"], CSV_SCHEMAS["net_sessions"],
               [(sid, _fmt(ts), cat, dur) for sid, ts, cat, dur in sorted(sessions, key=lambda r: (r[0], r[1]))])
    _write_csv(paths["transactions"], CSV_SCHEMAS["transactions"],
               [(sid, _fmt(ts), venue, f"{amount:.2f}") for sid, ts, venue, amount
                in sorted(transactions, key=lambda r: (r[0], r[1], r[2]))])
    _write_csv(paths["borrows"], CSV_SCHEMAS["borrows"],
               [(sid, _fmt(ts)) for sid, ts in sorted(borrows)])
    _write_csv(paths["grades"], CSV_SCHEMAS["grades"],
               [(sid, f"{gpa:.3f}") for sid, gpa in sorted(grades)])
    _write_csv(paths["demographics"], CSV_SCHEMAS["demographics"], sorted(demographics))

    truth_path = out_dir / "truth.json"
    truth_path.write_text(json.dumps({
        "lambda_effective": [[float(x) for x in row] for row in lam],
        "mixing": [float(x) for x in truth.mixture.mixing],
        "stay_up_component": int(stay_comp),
        "dag": truth.profile_dag.to_json(),
        "cpts": truth.profile_cpts.to_json(),
        "students": {
            sid: {
                "component": components[sid],
                "profile": [int(b) for b in table.values[i]],
                "counts": sleep_counts[i].tolist(),
            }
            for i, sid in enumerate(ids)
        },
    }, indent=2, sort_keys=True))
    paths["truth"] = truth_path

    return FullLogsResult(out_dir, paths, sleep_counts, components, table, ids)


def _write_csv(path: Path, header, rows):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
