"""Poisson mixture over nightly bedtime-count vectors, fitted by EM.

Rates carry a Gamma prior (shape alpha > 1, rate beta) so no component can
collapse onto a zero rate; the fit maximizes the joint of data likelihood
and prior. Two E-step and two M-step variants are provided:

* estep "standard" leaves the rate prior out of the responsibilities, which
  together with mstep "exact_map" gives monotone ascent of the log joint.
* estep "paper_literal" multiplies the prior density of each component's
  rates into the responsibilities; mstep "paper_literal" divides by
  (beta + 1) * sum(weights) instead of (sum(weights) + beta). The literal
  pair reproduces fits computed with those alternative update rules.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import seeding
from ._kernels import poisson_scores
from .ingest import check_columns, stage_records
from .special import gammaln, logsumexp

ESTEP_VARIANTS = ("standard", "paper_literal")
MSTEP_VARIANTS = ("exact_map", "paper_literal")

RATE_FLOOR = 1e-12
MASS_FLOOR = 1e-12

STAY_UP = "stay_up"
NON_STAY_UP = "non_stay_up"
DEFAULT_THRESHOLD = 0.5


class MixtureError(RuntimeError):
    pass


@dataclass(frozen=True)
class MixtureConfig:
    components: int = 2
    alpha: float = 1.1
    beta: float = 0.1
    max_iterations: int = 500
    tolerance: float = 1e-8
    restarts: int = 10
    estep_variant: str = "standard"
    mstep_variant: str = "exact_map"
    seed: int = 0

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("components must be >= 1")
        if not self.alpha > 1:
            raise ValueError("alpha must be > 1 so the prior vanishes at rate 0")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.estep_variant not in ESTEP_VARIANTS:
            raise ValueError(f"estep_variant must be one of {ESTEP_VARIANTS}")
        if self.mstep_variant not in MSTEP_VARIANTS:
            raise ValueError(f"mstep_variant must be one of {MSTEP_VARIANTS}")
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


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


def count_matrix(data) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Normalize fit input to a float (N, D) matrix plus optional ids.

    Accepts an array, a mapping student_id -> SleepCountVector (or raw
    counts), or a sequence of SleepCountVector.
    """
    if isinstance(data, np.ndarray):
        return np.asarray(data, dtype=np.float64), None
    if isinstance(data, Mapping):
        ids = tuple(data.keys())
        rows = [np.asarray(getattr(v, "counts", v), dtype=np.float64) for v in data.values()]
        return np.stack(rows), ids
    rows, ids = [], []
    for item in data:
        rows.append(np.asarray(getattr(item, "counts", item), dtype=np.float64))
        ids.append(getattr(item, "student_id", None))
    id_tuple = tuple(ids) if all(i is not None for i in ids) else None
    return np.stack(rows), id_tuple


def component_log_likelihood(counts, rates) -> float:
    """Log Poisson likelihood of one count vector under one component's rates."""
    s = np.asarray(counts, dtype=np.float64)
    lam = np.asarray(rates, dtype=np.float64)
    if np.any(lam <= 0):
        raise ValueError("rates must be positive")
    return float(np.sum(s * np.log(lam) - lam - gammaln(s + 1)))


def _log_prior_per_component(model: PoissonMixtureModel, cfg: MixtureConfig) -> np.ndarray:
    a, b = cfg.alpha, cfg.beta
    lam = model.rates
    per_rate = a * np.log(b) - gammaln(a) + (a - 1) * np.log(lam) - b * lam
    return per_rate.sum(axis=1)


def _scores(counts: np.ndarray, model: PoissonMixtureModel, row_lgamma: np.ndarray) -> np.ndarray:
    """Log of mixing weight times Poisson likelihood, one row per student."""
    with np.errstate(over="ignore"):  # -inf scores become the underflow error
        scores = poisson_scores(counts, np.log(model.rates), model.rates.sum(axis=1))
    scores = scores - row_lgamma[:, None]
    with np.errstate(divide="ignore"):
        return scores + np.log(model.mixing)[None, :]


def _objective(scores: np.ndarray, model: PoissonMixtureModel, cfg: MixtureConfig) -> float:
    return float(logsumexp(scores, axis=1).sum() + _log_prior_per_component(model, cfg).sum())


def _responsibilities(scores: np.ndarray, model: PoissonMixtureModel, cfg: MixtureConfig,
                      ids: tuple[str, ...] | None) -> Responsibilities:
    """Normalize the scores per student with log-sum-exp."""
    if cfg.estep_variant == "paper_literal":
        scores = scores + _log_prior_per_component(model, cfg)[None, :]
    norm = logsumexp(scores, axis=1)
    bad = ~np.isfinite(norm)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        who = ids[i] if ids is not None else f"row {i}"
        raise MixtureError(f"all component scores underflowed for student {who}")
    return Responsibilities(np.exp(scores - norm[:, None]), ids)


def e_step(data, model: PoissonMixtureModel, cfg: MixtureConfig) -> Responsibilities:
    """Posterior membership weights, normalized per student with log-sum-exp."""
    counts, ids = count_matrix(data)
    model.validate()
    scores = _scores(counts, model, gammaln(counts + 1).sum(axis=1))
    return _responsibilities(scores, model, cfg, ids)


def m_step(data, resp: Responsibilities, cfg: MixtureConfig) -> PoissonMixtureModel:
    """MAP rate update plus mixing-weight update from the membership weights."""
    counts, _ = count_matrix(data)
    w = np.asarray(resp.weights, dtype=np.float64)
    n = counts.shape[0]
    mass = np.maximum(w.sum(axis=0), MASS_FLOOR)
    if cfg.mstep_variant == "paper_literal":
        rates = (w.T @ counts + (cfg.alpha - 1) * mass[:, None]) / ((cfg.beta + 1) * mass[:, None])
    else:
        rates = (w.T @ counts + (cfg.alpha - 1)) / (mass[:, None] + cfg.beta)
    rates = np.maximum(rates, RATE_FLOOR)
    mixing = w.sum(axis=0) / n
    return PoissonMixtureModel(rates, mixing)


def log_joint(data, model: PoissonMixtureModel, cfg: MixtureConfig) -> float:
    """Log of data likelihood times the Gamma prior over all rates."""
    counts, _ = count_matrix(data)
    return _objective(_scores(counts, model, gammaln(counts + 1).sum(axis=1)), model, cfg)


def _row_entropy_seeds(counts: np.ndarray) -> np.ndarray:
    """Stable per-row entropy derived from row content, as uint64 keys.

    Keying the initial draw on the counts themselves (not the row position)
    makes initialization invariant under row permutation and duplication.
    """
    return np.array([int.from_bytes(hashlib.sha256(row.tobytes()).digest()[:8], "little")
                     for row in counts], dtype=np.uint64)


def initial_responsibilities(counts: np.ndarray, cfg: MixtureConfig) -> np.ndarray:
    """(restarts, N, M) symmetric Dirichlet starts, one per restart and student.

    Row i's start in restart r is the same stream as
    default_rng([cfg.seed, r, h]).dirichlet(ones(M)), where h is a hash of
    the row's counts. The rows are hashed once and the seed words of each
    restart in one batch (seeding.keyed_pcg64_words); each student's
    generator then fills its row with M standard exponentials, and the
    rows are normalised as dirichlet does: the sum taken left to right
    from 0.0, then each draw times its reciprocal.
    """
    row_keys = _row_entropy_seeds(counts)
    draws = np.empty((cfg.restarts, counts.shape[0], cfg.components))
    for restart, rows in enumerate(draws):
        for words, row in zip(seeding.keyed_pcg64_words([cfg.seed, restart], row_keys), rows):
            seeding.generator(words).standard_exponential(out=row)
    total = np.zeros(draws.shape[:2])
    for j in range(cfg.components):
        total += draws[..., j]
    draws *= (1.0 / total)[..., None]
    return draws


def _em_run(counts: np.ndarray, row_lgamma: np.ndarray, init: np.ndarray, cfg: MixtureConfig,
            ids: tuple[str, ...] | None):
    """EM from one start; each E-step reuses the scores of the last objective.

    `row_lgamma` holds each row's sum of log count factorials. Returns the
    final model, the objective trace, whether it converged and the final
    model's score matrix.
    """
    model = m_step(counts, Responsibilities(init, ids), cfg)
    scores = _scores(counts, model, row_lgamma)
    trace = [_objective(scores, model, cfg)]
    converged = False
    for it in range(1, cfg.max_iterations + 1):
        resp = _responsibilities(scores, model, cfg, ids)
        model = m_step(counts, resp, cfg)
        scores = _scores(counts, model, row_lgamma)
        objective = _objective(scores, model, cfg)
        if not np.isfinite(objective):
            raise MixtureError(f"non-finite objective at iteration {it}")
        trace.append(objective)
        if abs(objective - trace[-2]) / max(abs(trace[-2]), 1e-300) < cfg.tolerance:
            converged = True
            break
    return model, trace, converged, scores


def fit(data, cfg: MixtureConfig) -> tuple[PoissonMixtureModel, Responsibilities, FitDiagnostics]:
    """Best-of-restarts EM fit.

    Each restart starts from per-student Dirichlet responsibilities, each
    student's drawn from the same stream as default_rng([seed, restart, h])
    with h a hash of the student's counts (see initial_responsibilities),
    and iterates E/M until the relative objective change drops below the
    tolerance.
    """
    counts, ids = count_matrix(data)
    if counts.ndim != 2:
        raise ValueError("count data must be two-dimensional")
    if counts.shape[0] < cfg.components:
        raise ValueError(
            f"need at least {cfg.components} students, got {counts.shape[0]}"
        )
    row_lgamma = gammaln(counts + 1).sum(axis=1)
    best = None
    for restart, init in enumerate(initial_responsibilities(counts, cfg)):
        model, trace, converged, scores = _em_run(counts, row_lgamma, init, cfg, ids)
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], restart, model, trace, converged, scores)
    _, restart, model, trace, converged, scores = best
    model.validate()
    resp = _responsibilities(scores, model, cfg, ids)
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
    labels: tuple[str, ...]
    student_ids: tuple[str, ...] | None = None

    def as_dict(self) -> dict[str, str]:
        ids = self.student_ids or tuple(str(i) for i in range(len(self.labels)))
        return dict(zip(ids, self.labels))


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


def assign_and_label(resp: Responsibilities, model: PoissonMixtureModel,
                     threshold: float = DEFAULT_THRESHOLD) -> Assignments:
    """Label each student stay_up when its stay-up responsibility reaches the threshold."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    comp = stay_up_component(model)
    omega = np.asarray(resp.weights)[:, comp]
    labels = tuple(STAY_UP if w >= threshold else NON_STAY_UP for w in omega)
    return Assignments(comp, omega, labels, resp.student_ids)


def model_to_json(model: PoissonMixtureModel, cfg: MixtureConfig) -> dict:
    return {
        "D": int(model.rates.shape[1]),
        "M": int(model.rates.shape[0]),
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "lambda": [[float(x) for x in row] for row in model.rates],
        "mixing": [float(x) for x in model.mixing],
        "variant": {"estep": cfg.estep_variant, "mstep": cfg.mstep_variant},
    }


def model_from_json(obj: dict) -> tuple[PoissonMixtureModel, MixtureConfig]:
    model = PoissonMixtureModel(np.asarray(obj["lambda"]), np.asarray(obj["mixing"]))
    cfg = MixtureConfig(
        components=obj["M"],
        alpha=obj["alpha"],
        beta=obj["beta"],
        estep_variant=obj["variant"]["estep"],
        mstep_variant=obj["variant"]["mstep"],
    )
    return model, cfg


def write_assignments_csv(path, rows: Iterable[tuple[str, float, str]]):
    """Write (student_id, omega_stayup, label) rows in the order given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "omega_stayup", "label"])
        for sid, omega, label in rows:
            writer.writerow([sid, f"{omega:.12g}", label])


def read_assignments_csv(path) -> dict[str, str]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        check_columns(path, reader.fieldnames, ["student_id", "label"])
        return dict(stage_records(path, reader, lambda row: (row["student_id"], row["label"])))
