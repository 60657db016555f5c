"""Predictive-inference experiment for sleep status, scored by ROC/AUC.

Per fold a network is learned on the training rows, CPTs are fitted by
MLE, and each held-out student is scored with the exact posterior of the
target given the values of its Markov blanket, which by the blanket
property equals conditioning on everything observed.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
import numpy as np

from . import seeding
from .bayesnet import (
    BdeuConfig,
    DatasetTable,
    LayerConstraints,
    fit_mle,
    joint_table,
    markov_blanket,
)
from .consensus import (
    DEFAULT_EDGE_PROBABILITY,
    SeedLike,
    _seed_list,
    consensus_pipeline,
    learn_ensemble,
)


@dataclass
class RocCurve:
    """Monotone ROC polyline from (0,0) to (1,1) plus its trapezoidal area."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.fpr.tolist(), self.tpr.tolist()))


def roc_auc(scores, labels) -> RocCurve:
    """ROC by threshold sweep over distinct scores; AUC by the trapezoid rule.

    Ties in score collapse into single curve segments, which makes the area
    equal the rank statistic P(score_pos > score_neg) + 0.5 P(equal).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be matching vectors")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    cut = np.concatenate([distinct, [scores.size - 1]])
    tps = np.cumsum(sorted_labels)[cut]
    fps = 1 + cut - tps
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(fpr, tpr, auc)


@dataclass(frozen=True)
class PredictionExperiment:
    folds: int = 5
    target: str = "S"
    mode: str = "cross_validated"          # or "in_sample"
    structure: str = "best_restart"        # or "consensus"
    restarts: int = 20
    edge_probability: float = DEFAULT_EDGE_PROBABILITY
    consensus_replicas: int = 3

    def __post_init__(self):
        if self.mode not in ("cross_validated", "in_sample"):
            raise ValueError("mode must be cross_validated or in_sample")
        if self.structure not in ("best_restart", "consensus"):
            raise ValueError("structure must be best_restart or consensus")
        if self.mode == "cross_validated" and self.folds < 2:
            raise ValueError("cross validation needs at least 2 folds")


@dataclass
class PredictionResult:
    curves: list[RocCurve]
    auc_per_fold: list[float]
    auc_mean: float
    degenerate_blanket: bool
    degraded_folds: dict | None = None   # set when the folds had to be stratified


def _learn_structure(train: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
                     experiment: PredictionExperiment, seed: list[int]):
    if experiment.structure == "consensus":
        consensus, _, _, _ = consensus_pipeline(
            train, constraints, cfg,
            n_restarts=experiment.restarts,
            replicas=experiment.consensus_replicas,
            edge_probability=experiment.edge_probability,
            seed=seed,
        )
        return consensus.dag
    ensemble = learn_ensemble(
        train, constraints, cfg, n_restarts=experiment.restarts,
        seed=seed, edge_probability=experiment.edge_probability,
    )
    best = max(range(len(ensemble.members)), key=lambda i: ensemble.members[i][1])
    return ensemble.members[best][0]


def _blanket_scores(train: DatasetTable, test: DatasetTable,
                    constraints: LayerConstraints, cfg: BdeuConfig,
                    experiment: PredictionExperiment, seed: list[int]) -> tuple[np.ndarray, bool]:
    target = experiment.target
    var = train.variables
    dag = _learn_structure(train, constraints, cfg, experiment, seed)
    cpts = fit_mle(dag, train)
    ti = var.index(target)

    blanket = sorted(var.index(name) for name in markov_blanket(dag, target))
    grids, probs = joint_table(dag, cpts)
    target_mass = np.array([probs[grids[:, ti] == k].sum() for k in range(var.arities[ti])])
    marginal = float(target_mass[1] / target_mass.sum())

    if not blanket:
        warnings.warn(f"Markov blanket of {target} is empty; scoring by its marginal")
        return np.full(test.n_rows, marginal), True

    # Enumerate the posterior once per blanket configuration, then look up.
    strides = np.ones(len(blanket), dtype=np.int64)
    for k in range(len(blanket) - 2, -1, -1):
        strides[k] = strides[k + 1] * var.arities[blanket[k + 1]]
    n_configs = int(strides[0] * var.arities[blanket[0]])
    joint_cfg = grids[:, blanket].astype(np.int64) @ strides
    score_by_cfg = np.empty(n_configs)
    for c in range(n_configs):
        mask = joint_cfg == c
        mass = probs[mask]
        total = mass.sum()
        if total <= 0.0:
            # evidence never seen in training; fall back to the marginal
            score_by_cfg[c] = marginal
            continue
        pos = mass[grids[mask, ti] == 1].sum()
        score_by_cfg[c] = pos / total
    test_cfg = test.values[:, blanket].astype(np.int64) @ strides
    return score_by_cfg[test_cfg], False


def fold_indices(n_rows: int, folds: int, seed: SeedLike) -> list[np.ndarray]:
    """Seeded disjoint cover of all rows in `folds` near-equal parts."""
    perm = seeding.rng(_seed_list(seed) + [23]).permutation(n_rows)
    return [np.sort(part) for part in np.array_split(perm, folds)]


def stratified_fold_indices(y: np.ndarray, folds: int, seed: SeedLike) -> list[np.ndarray]:
    """Seeded disjoint cover of all rows in `folds` parts that splits each
    class near-evenly: the class's rows, in the order of fold_indices'
    permutation, cut into `folds` runs."""
    perm = seeding.rng(_seed_list(seed) + [23]).permutation(len(y))
    per_class = [np.array_split(perm[y[perm] == c], folds) for c in np.unique(y)]
    return [np.sort(np.concatenate(parts)) for parts in zip(*per_class)]


def _single_class_split(y: np.ndarray, splits, target: str) -> str | None:
    """Why the first split whose training or test rows hold one class fails, if any."""
    for f, (train, test) in enumerate(splits):
        for part, which in ((train, "training"), (test, "test")):
            labels = y[part]
            if not (labels[1:] != labels[:1]).any():   # fewer than two distinct labels
                return f"fold {f}: {which} rows contain a single {target} class"
    return None


def cv_plan(y: np.ndarray, experiment: PredictionExperiment,
            seed: SeedLike) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict | None]:
    """(training rows, test rows) of each fold, or of the one in-sample split,
    and the report's degraded_folds entry, None unless the folds degraded.

    Every split's training and test rows must hold both classes of the
    target: a network needs both to learn from, a ROC curve both to score.
    Cross-validation keeps the seeded folds of fold_indices when they do.
    Otherwise it stratifies (stratified_fold_indices) over min(folds,
    minority class count) folds, and the entry names the folds requested,
    the folds used and the reason. Raises ValueError when that cannot work
    either: an in-sample split or a minority class of fewer than two rows.
    This needs only the target column, so a pipeline can check it before
    any search. Training rows are np.delete(rows, test) rather than
    np.setdiff1d, whose np.unique imports numpy.ma on its first call.
    """
    rows = np.arange(len(y))
    if experiment.mode == "in_sample":
        splits = [(rows, rows)]
    else:
        splits = [(np.delete(rows, test), test)
                  for test in fold_indices(len(y), experiment.folds, seed)]
    reason = _single_class_split(y, splits, experiment.target)
    if reason is None:
        return splits, None
    counts = np.unique(y, return_counts=True)[1]
    used = min(experiment.folds, int(counts.min()) if len(counts) > 1 else 0)
    if experiment.mode == "in_sample" or used < 2:
        raise ValueError(reason)
    splits = [(np.delete(rows, test), test) for test in stratified_fold_indices(y, used, seed)]
    return splits, {"requested": experiment.folds, "used": used, "reason": reason}


def cv_splits(y: np.ndarray, experiment: PredictionExperiment,
              seed: SeedLike) -> list[tuple[np.ndarray, np.ndarray]]:
    """The splits of cv_plan: raises ValueError when no folds can hold both classes."""
    return cv_plan(y, experiment, seed)[0]


def predict_sleep_experiment(profiles: DatasetTable, constraints: LayerConstraints,
                             cfg: BdeuConfig, experiment: PredictionExperiment,
                             seed: SeedLike = 0) -> PredictionResult:
    """Cross-validated (or in-sample) predictability of the target variable."""
    base = _seed_list(seed)
    y = profiles.column(experiment.target).astype(np.int64)
    splits, degraded = cv_plan(y, experiment, seed)

    curves, aucs = [], []
    degenerate = False
    for f, (train_rows, test_rows) in enumerate(splits):
        train = profiles.subset(train_rows)
        test = profiles.subset(test_rows)
        scores, fold_degenerate = _blanket_scores(
            train, test, constraints, cfg, experiment, base + [29, f]
        )
        degenerate = degenerate or fold_degenerate
        curve = roc_auc(scores, y[test_rows])
        curves.append(curve)
        aucs.append(curve.auc)
    return PredictionResult(curves, aucs, float(np.mean(aucs)), degenerate, degraded)


def write_roc_csv(path, curve: RocCurve):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for x, y in curve.points:
            writer.writerow([f"{x:.12g}", f"{y:.12g}"])


def report_json(result: PredictionResult) -> dict:
    out = {
        "auc_per_fold": [float(a) for a in result.auc_per_fold],
        "auc_mean": float(result.auc_mean),
        "degenerate_blanket": result.degenerate_blanket,
    }
    if result.degraded_folds is not None:
        out["degraded_folds"] = result.degraded_folds
    return out
