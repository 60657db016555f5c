"""Poisson mixture over nightly bedtime-count vectors, fitted by EM.

Rates carry a Gamma prior (shape ALPHA > 1, rate BETA) so no component can
collapse onto a zero rate; the fit maximizes the joint of data likelihood
and prior. Two variants, each a pair of E- and M-step update rules, are
provided:

* "standard" leaves the rate prior out of the responsibilities and takes
  the exact MAP rate update, which gives monotone ascent of the log joint.
* "paper" multiplies the prior density of each component's rates into the
  responsibilities and divides by (BETA + 1) * sum(weights) instead of
  (sum(weights) + BETA). This literal pair reproduces fits computed with
  those alternative update rules.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import seeding
from ._kernels import poisson_scores
from .ingest import stage_records
from .special import gammaln, logsumexp

# each variant's E- and M-step, as model_to_json names them
VARIANT_STEPS = {
    "standard": {"estep": "standard", "mstep": "exact_map"},
    "paper": {"estep": "paper_literal", "mstep": "paper_literal"},
}

RATE_FLOOR = 1e-12
MASS_FLOOR = 1e-12

ALPHA = 1.1        # shape and rate of the Gamma prior on every rate; ALPHA > 1 so
BETA = 0.1         # the prior vanishes at rate 0
TOLERANCE = 1e-8   # EM stops once the relative change of the objective is below this
MAX_ITERATIONS = 500   # or after this many iterations, unconverged

STAY_UP = "stay_up"
NON_STAY_UP = "non_stay_up"
DEFAULT_THRESHOLD = 0.5


class MixtureError(RuntimeError):
    pass


@dataclass(frozen=True)
class MixtureConfig:
    components: int = 2
    restarts: int = 10
    variant: str = "standard"
    seed: int = 0

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("components must be >= 1")
        if self.variant not in VARIANT_STEPS:
            raise ValueError(f"variant must be one of {tuple(VARIANT_STEPS)}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class PoissonMixtureModel:
    """Per-component rate vectors plus mixing weights."""

    rates: np.ndarray   # (M, D), all entries > 0
    mixing: np.ndarray  # (M,), sums to 1

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=np.float64)
        self.mixing = np.asarray(self.mixing, dtype=np.float64)

    def validate(self):
        if self.rates.ndim != 2:
            raise ValueError("rates must be (M, D)")
        if np.any(self.rates <= 0):
            raise ValueError("all rates must be positive")
        if self.mixing.shape != (self.rates.shape[0],):
            raise ValueError("mixing length must match component count")
        if np.any(self.mixing < 0) or np.any(self.mixing > 1):
            raise ValueError("mixing weights must lie in [0, 1]")
        if abs(self.mixing.sum() - 1.0) > 1e-12:
            raise ValueError("mixing weights must sum to 1")


@dataclass
class Responsibilities:
    """Row-normalized membership weights, optionally tagged with student ids."""

    weights: np.ndarray  # (N, M)
    student_ids: tuple[str, ...] | None = None


@dataclass
class FitDiagnostics:
    objective_trace: list[float]
    iterations_used: int
    converged: bool
    best_restart_index: int


def _log_prior_per_component(model: PoissonMixtureModel) -> np.ndarray:
    lam = model.rates
    per_rate = ALPHA * np.log(BETA) - gammaln(ALPHA) + (ALPHA - 1) * np.log(lam) - BETA * lam
    return per_rate.sum(axis=1)


def _scores(counts: np.ndarray, model: PoissonMixtureModel, row_lgamma: np.ndarray) -> np.ndarray:
    """Log of mixing weight times Poisson likelihood, one row per student."""
    with np.errstate(over="ignore"):  # -inf scores become the underflow error
        scores = poisson_scores(counts, np.log(model.rates), model.rates.sum(axis=1))
    scores = scores - row_lgamma[:, None]
    with np.errstate(divide="ignore"):
        return scores + np.log(model.mixing)[None, :]


def _objective(norm: np.ndarray, model: PoissonMixtureModel) -> float:
    """The log posterior, from the log-sum-exp of each student's scores."""
    return float(norm.sum() + _log_prior_per_component(model).sum())


def _responsibilities(scores: np.ndarray, norm: np.ndarray, model: PoissonMixtureModel,
                      cfg: MixtureConfig, ids: tuple[str, ...] | None) -> Responsibilities:
    """Normalize the scores per student by `norm`, their log-sum-exp; the
    paper variant adds the rate prior to the scores and normalizes anew."""
    if cfg.variant == "paper":
        scores = scores + _log_prior_per_component(model)[None, :]
        norm = logsumexp(scores, axis=1)
    bad = ~np.isfinite(norm)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        who = ids[i] if ids is not None else f"row {i}"
        raise MixtureError(f"all component scores underflowed for student {who}")
    return Responsibilities(np.exp(scores - norm[:, None]), ids)


def m_step(counts: np.ndarray, resp: Responsibilities, cfg: MixtureConfig) -> PoissonMixtureModel:
    """MAP rate update plus mixing-weight update from the membership weights."""
    counts = np.asarray(counts, dtype=np.float64)
    w = np.asarray(resp.weights, dtype=np.float64)
    n = counts.shape[0]
    mass = np.maximum(w.sum(axis=0), MASS_FLOOR)
    if cfg.variant == "paper":
        rates = (w.T @ counts + (ALPHA - 1) * mass[:, None]) / ((BETA + 1) * mass[:, None])
    else:
        rates = (w.T @ counts + (ALPHA - 1)) / (mass[:, None] + BETA)
    rates = np.maximum(rates, RATE_FLOOR)
    mixing = w.sum(axis=0) / n
    return PoissonMixtureModel(rates, mixing)


def _row_entropy_seeds(counts: np.ndarray) -> np.ndarray:
    """Stable per-row entropy derived from row content, as uint64 keys.

    Keying the initial draw on the counts themselves (not the row position)
    makes initialization invariant under row permutation and duplication.
    """
    return np.array([int.from_bytes(hashlib.sha256(row.tobytes()).digest()[:8], "little")
                     for row in counts], dtype=np.uint64)


def initial_responsibilities(counts: np.ndarray, cfg: MixtureConfig) -> np.ndarray:
    """(restarts, N, M) symmetric Dirichlet starts, one per restart and student.

    Row i's start in restart r is drawn from the key of cfg.seed extended
    by r and then by h, where h is a hash of the row's counts: the spacings
    that its uniforms 0 .. M-2, sorted, cut into [0, 1] (Devroye 1986,
    ch. V), which are Dirichlet(1, ..., 1).
    """
    restarts = seeding.bits(seeding.keys([cfg.seed]), np.arange(cfg.restarts))
    keys = seeding.bits(restarts[:, None], _row_entropy_seeds(counts))   # (restarts, N)
    cuts = np.sort(seeding.uniforms(keys[..., None], np.arange(cfg.components - 1)), axis=-1)
    return np.diff(cuts, axis=-1, prepend=0.0, append=1.0)


def _em_run(counts: np.ndarray, row_lgamma: np.ndarray, init: np.ndarray, cfg: MixtureConfig,
            ids: tuple[str, ...] | None):
    """EM from one start; each E-step reuses the scores of the last objective
    and their per-student log-sum-exp.

    `row_lgamma` holds each row's sum of log count factorials. Returns the
    final model, the objective trace, whether it converged and the final
    model's score matrix and its log-sum-exp.
    """
    model = m_step(counts, Responsibilities(init, ids), cfg)
    scores = _scores(counts, model, row_lgamma)
    norm = logsumexp(scores, axis=1)
    trace = [_objective(norm, model)]
    converged = False
    for it in range(1, MAX_ITERATIONS + 1):
        resp = _responsibilities(scores, norm, model, cfg, ids)
        model = m_step(counts, resp, cfg)
        scores = _scores(counts, model, row_lgamma)
        norm = logsumexp(scores, axis=1)
        objective = _objective(norm, model)
        if not np.isfinite(objective):
            raise MixtureError(f"non-finite objective at iteration {it}")
        trace.append(objective)
        if abs(objective - trace[-2]) / max(abs(trace[-2]), 1e-300) < TOLERANCE:
            converged = True
            break
    return model, trace, converged, scores, norm


def fit(counts: np.ndarray, cfg: MixtureConfig, ids: tuple[str, ...] | None = None,
        ) -> tuple[PoissonMixtureModel, Responsibilities, FitDiagnostics]:
    """Best-of-restarts EM fit of an (N, D) count matrix, row i being
    student ids[i] when ids are given.

    Each restart starts from per-student Dirichlet responsibilities, each
    student's drawn from the key of seed extended by restart and then by a
    hash of the student's counts as float64 (see initial_responsibilities),
    and iterates E/M until the relative objective change drops below
    TOLERANCE, for at most MAX_ITERATIONS iterations.
    """
    counts = np.asarray(counts, dtype=np.float64)   # the start hashes float64 rows
    if counts.ndim != 2:
        raise ValueError("count data must be two-dimensional")
    if counts.shape[0] < cfg.components:
        raise ValueError(
            f"need at least {cfg.components} students, got {counts.shape[0]}"
        )
    row_lgamma = gammaln(counts + 1).sum(axis=1)
    best = None
    for restart, init in enumerate(initial_responsibilities(counts, cfg)):
        model, trace, converged, scores, norm = _em_run(counts, row_lgamma, init, cfg, ids)
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], restart, model, trace, converged, scores, norm)
    _, restart, model, trace, converged, scores, norm = best
    model.validate()
    resp = _responsibilities(scores, norm, model, cfg, ids)
    diag = FitDiagnostics(
        objective_trace=trace,
        iterations_used=len(trace) - 1,
        converged=converged,
        best_restart_index=restart,
    )
    return model, resp, diag


@dataclass
class Assignments:
    """Stay-up component choice plus per-student labels."""

    stay_up_component: int
    omega_stay_up: np.ndarray
    stay_up: np.ndarray   # bool: omega_stay_up reaches the threshold
    student_ids: tuple[str, ...] | None = None


def stay_up_component(model: PoissonMixtureModel) -> int:
    """Component whose rate mass sits latest in the night (largest mean bin index)."""
    d = model.rates.shape[1]
    mean_bin = model.rates @ np.arange(d) / model.rates.sum(axis=1)
    order = np.argsort(mean_bin)
    if model.rates.shape[0] > 1 and mean_bin[order[-1]] == mean_bin[order[-2]]:
        raise ValueError(
            "mean bin index ties between components; select the stay-up component manually"
        )
    return int(order[-1])


def check_threshold(threshold: float):
    """Raise ValueError unless threshold lies strictly between 0 and 1."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")


def assign_and_label(resp: Responsibilities, model: PoissonMixtureModel,
                     threshold: float = DEFAULT_THRESHOLD) -> Assignments:
    """Label each student stay_up when its stay-up responsibility reaches the threshold."""
    check_threshold(threshold)
    comp = stay_up_component(model)
    omega = np.asarray(resp.weights)[:, comp]
    return Assignments(comp, omega, omega >= threshold, resp.student_ids)


def model_to_json(model: PoissonMixtureModel, cfg: MixtureConfig) -> dict:
    return {
        "D": int(model.rates.shape[1]),
        "M": int(model.rates.shape[0]),
        "alpha": ALPHA,
        "beta": BETA,
        "lambda": [[float(x) for x in row] for row in model.rates],
        "mixing": [float(x) for x in model.mixing],
        "variant": dict(VARIANT_STEPS[cfg.variant]),
    }


def write_assignments_csv(path, ids: Sequence[str], omega: np.ndarray, stay_up: np.ndarray):
    """Write one (student_id, omega_stayup, label) row per student in the order given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "omega_stayup", "label"])
        for sid, w, up in zip(ids, omega, stay_up.tolist()):
            writer.writerow([sid, f"{w:.12g}", STAY_UP if up else NON_STAY_UP])


def _label_row(row) -> bool:
    if row["label"] not in (STAY_UP, NON_STAY_UP):
        raise ValueError(f"bad label {row['label']!r}")
    return row["label"] == STAY_UP


def read_assignments_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """(ids, stay_up) of an assignments file, rows in file order."""
    with open(path, newline="") as fh:
        ids, rows = stage_records(path, csv.DictReader(fh), ["student_id", "label"], _label_row)
    return ids, np.array(rows, dtype=bool)
