"""Predictive-inference experiment for sleep status, scored by ROC/AUC.

Per fold a network is learned on the training rows, CPTs are fitted by
MLE, and each held-out student is scored with the exact posterior of the
target given the values of its Markov blanket, which by the blanket
property equals conditioning on everything observed.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
import numpy as np

from . import seeding
from .bayesnet import (
    BdeuConfig,
    Dag,
    DatasetTable,
    LayerConstraints,
    fit_mle,
    joint_table,
    markov_blanket,
)
from .consensus import DEFAULT_EDGE_PROBABILITY, SeedLike, learn_ensembles

TARGET = "S"


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
    in_sample: bool = False                # score the training rows, in one split
    restarts: int = 20
    edge_probability: float = DEFAULT_EDGE_PROBABILITY

    def __post_init__(self):
        if not self.in_sample and self.folds < 2:
            raise ValueError("cross validation needs at least 2 folds")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class PredictionResult:
    curves: list[RocCurve]
    auc_per_fold: list[float]
    auc_mean: float
    degenerate_blanket: bool
    degraded_folds: dict | None = None   # set when the folds had to be stratified


def _learn_structures(trains: list[DatasetTable], constraints: LayerConstraints,
                      cfg: BdeuConfig, experiment: PredictionExperiment,
                      keys: np.ndarray) -> list[Dag]:
    """The best-scoring network of a restart ensemble on each split's
    training rows, searched with its seeding key; the ensembles climb as
    one stack (learn_ensembles)."""
    ensembles = learn_ensembles(trains, constraints, cfg, experiment.restarts, keys,
                                experiment.edge_probability)
    # the first of equal best scores
    return [Dag.from_parents(train.variables, ensemble.masks[ensemble.scores.argmax()].tolist())
            for train, ensemble in zip(trains, ensembles)]


def _blanket_scores(train: DatasetTable, test: DatasetTable, dag: Dag) -> tuple[np.ndarray, bool]:
    """Each test row's posterior of the target under `dag` with MLE CPTs
    fitted to the training rows, given the row's Markov blanket, and
    whether that blanket is empty."""
    var = train.variables
    cpts = fit_mle(dag, train)
    ti = var.index(TARGET)

    blanket = sorted(var.index(name) for name in markov_blanket(dag, TARGET))
    grids, probs = joint_table(dag, cpts)
    target_mass = np.array([probs[grids[:, ti] == k].sum() for k in range(var.arities[ti])])
    marginal = float(target_mass[1] / target_mass.sum())

    if not blanket:
        warnings.warn(f"Markov blanket of {TARGET} is empty; scoring by its marginal")
        return np.full(test.n_rows, marginal), True

    # Enumerate the posterior once per blanket configuration, then look up.
    shape = [var.arities[b] for b in blanket]
    n_configs = math.prod(shape)
    joint_cfg = np.ravel_multi_index(tuple(grids[:, blanket].T), shape)
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
    test_cfg = np.ravel_multi_index(tuple(test.values[:, blanket].T), shape)
    return score_by_cfg[test_cfg], False


def _fold_order(n_rows: int, seed: SeedLike) -> np.ndarray:
    """The rows in the order of the permutation that the seed's key extended by 23 draws."""
    return seeding.permutations(seeding.bits(seeding.keys([seed]), 23), n_rows)[0]


def fold_indices(n_rows: int, folds: int, seed: SeedLike) -> list[np.ndarray]:
    """Seeded disjoint cover of all rows in `folds` near-equal parts."""
    return [np.sort(part) for part in np.array_split(_fold_order(n_rows, seed), folds)]


def stratified_fold_indices(y: np.ndarray, folds: int, seed: SeedLike) -> list[np.ndarray]:
    """Seeded disjoint cover of all rows in `folds` parts that splits each
    class near-evenly: the class's rows, in the order of fold_indices'
    permutation, cut into `folds` runs. The classes come from np.bincount,
    as plain np.unique imports numpy.ma on its first call."""
    perm = _fold_order(len(y), seed)
    classes = np.flatnonzero(np.bincount(y))
    per_class = [np.array_split(perm[y[perm] == c], folds) for c in classes]
    return [np.sort(np.concatenate(parts)) for parts in zip(*per_class)]


def _single_class_split(y: np.ndarray, splits) -> str | None:
    """Why the first split whose training or test rows hold one class fails, if any."""
    for f, (train, test) in enumerate(splits):
        for part, which in ((train, "training"), (test, "test")):
            labels = y[part]
            if not (labels[1:] != labels[:1]).any():   # fewer than two distinct labels
                return f"fold {f}: {which} rows contain a single {TARGET} class"
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
    if experiment.in_sample:
        splits = [(rows, rows)]
    else:
        splits = [(np.delete(rows, test), test)
                  for test in fold_indices(len(y), experiment.folds, seed)]
    reason = _single_class_split(y, splits)
    if reason is None:
        return splits, None
    counts = np.unique(y, return_counts=True)[1]
    used = min(experiment.folds, int(counts.min()) if len(counts) > 1 else 0)
    if experiment.in_sample or used < 2:
        raise ValueError(reason)
    splits = [(np.delete(rows, test), test) for test in stratified_fold_indices(y, used, seed)]
    return splits, {"requested": experiment.folds, "used": used, "reason": reason}


def predict_sleep_experiment(profiles: DatasetTable, constraints: LayerConstraints,
                             cfg: BdeuConfig, experiment: PredictionExperiment,
                             seed: SeedLike = 0) -> PredictionResult:
    """Cross-validated (or in-sample) predictability of the sleep status S.
    Split f's search takes the seed's key extended by 29 and then by f."""
    y = profiles.column(TARGET).astype(np.int64)
    splits, degraded = cv_plan(y, experiment, seed)

    trains = [profiles.subset(train_rows) for train_rows, _ in splits]
    keys = seeding.bits(seeding.bits(seeding.keys([seed]), 29), np.arange(len(splits)))
    dags = _learn_structures(trains, constraints, cfg, experiment, keys)
    curves, aucs = [], []
    degenerate = False
    for (_, test_rows), train, dag in zip(splits, trains, dags):
        scores, fold_degenerate = _blanket_scores(train, profiles.subset(test_rows), dag)
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
