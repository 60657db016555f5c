"""Restart ensembles, null-model thresholds, and consensus-network assembly.

An ensemble of hill-climbing runs from random starts gives per-edge
occurrence frequencies over its top-scoring fraction. A permutation null
(each data column shuffled independently, killing dependencies but keeping
marginals) pins the threshold at mean + 2 std of the pooled null
frequencies; edges above it form the consensus DAG. Opposite directions
that both survive resolve toward the direction seen more often among the
high-scoring networks, and any residual cycle is repaired by dropping the
weakest edge on it.

An ensemble is an array of parent bitmasks, one row per restart, plus an
array of scores, and edge counts are (n, n) matrices; a Dag is built only
for a consensus network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import seeding
from .bayesnet import (
    BdeuConfig,
    Dag,
    DatasetTable,
    Edge,
    LayerConstraints,
    VariableSet,
    _cycle_edges,
    climb_batch,
    random_start_masks,
    score_tables,
)

DEFAULT_RESTARTS = 200
DEFAULT_TOP_FRACTION = 1.0 / 3.0
DEFAULT_NULL_REPLICAS = 10
DEFAULT_EDGE_PROBABILITY = 0.15

SeedLike = int | Sequence[int]


@dataclass
class EnsembleResult:
    """Restart r's network as parent bitmasks masks[r], its score as scores[r]."""

    masks: np.ndarray    # (R, n) int64
    scores: np.ndarray   # (R,) float64
    key: np.uint64       # the seeding key its restarts extend

    @property
    def members(self) -> list[tuple[np.ndarray, float]]:
        """(parent bitmasks, score) of each restart. Only the benchmark's traced
        best_restart_share (perfbench/child.py) reads this; it goes with that
        tracer (ROADMAP.md item 2, step C). Nothing in the package calls it."""
        return list(zip(self.masks, self.scores.tolist()))


@dataclass
class EdgeFrequencyTable:
    """counts[u, v] of the n_networks networks hold the edge u -> v."""

    variables: VariableSet
    counts: np.ndarray   # (n, n) int64
    n_networks: int


@dataclass
class NullModelResult:
    replicate_tables: np.ndarray   # (replicas, n, n) int64, each replica's counts
    mean: float
    std: float
    threshold: float


@dataclass
class ConsensusDag:
    dag: Dag
    edge_frequencies: dict[Edge, int]
    threshold: float | None
    provenance: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "variables": list(self.dag.variables.names),
            "edges": [
                {"from": u, "to": v, "frequency": self.edge_frequencies[(u, v)]}
                for u, v in self.dag.edges()
            ],
            "threshold": self.threshold,
            "provenance": self.provenance,
        }


def learn_ensemble(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
                   n_restarts: int = DEFAULT_RESTARTS, seed: SeedLike = 0,
                   edge_probability: float = DEFAULT_EDGE_PROBABILITY) -> EnsembleResult:
    """Independent hill climbs from random starts: learn_ensembles of one dataset."""
    return learn_ensembles([data], constraints, cfg, n_restarts, seeding.keys([seed]),
                           edge_probability)[0]


def learn_ensembles(datasets: Sequence[DatasetTable], constraints: LayerConstraints,
                    cfg: BdeuConfig, n_restarts: int, keys,
                    edge_probability: float = DEFAULT_EDGE_PROBABILITY) -> list[EnsembleResult]:
    """An ensemble of n_restarts hill climbs on each dataset, with its seeding key.

    The datasets are scored into one stack of tables (score_tables), and all
    len(datasets) * n_restarts restarts climb it together in one climb_batch
    call. Restart r of key k starts from random_start_masks with k extended
    by r and then by 0, and breaks ties with k extended by r and then by 1.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.shape != (len(datasets),):
        raise ValueError("one key per dataset required")
    restart = seeding.bits(keys[:, None], np.arange(n_restarts))
    starts = random_start_masks(constraints, edge_probability, seeding.bits(restart, 0).ravel())
    masks, scores = climb_batch(score_tables(datasets, constraints, cfg), constraints,
                                starts.reshape(restart.shape + (-1,)), seeding.bits(restart, 1))
    return [EnsembleResult(m, s, key) for m, s, key in zip(masks, scores, keys)]


def top_fraction(ensemble: EnsembleResult, fraction: float = DEFAULT_TOP_FRACTION,
                 key=None) -> np.ndarray:
    """Rows of the highest-scoring ceil(fraction * size) networks, best
    first, equal scores in the order of the permutation drawn by the key
    (the ensemble's by default) extended by 97."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    size = len(ensemble.scores)
    k = math.ceil(fraction * size)
    perm = seeding.permutations(seeding.bits(ensemble.key if key is None else key, 97), size)[0]
    return np.lexsort((perm, -ensemble.scores))[:k]


def edge_frequencies(masks: np.ndarray, variables: VariableSet) -> EdgeFrequencyTable:
    """Edge counts over the networks whose parent bitmasks are the rows of masks."""
    n = variables.n
    counts = (masks[:, None, :] >> np.arange(n)[:, None] & 1).sum(axis=0)
    return EdgeFrequencyTable(variables, counts, len(masks))


def permute_columns(data: DatasetTable, key) -> DatasetTable:
    """Shuffle every column independently: dependencies die, marginals stay.
    Column j of N rows moves by the permutation that the key's uniforms
    j * N .. (j + 1) * N - 1, stably argsorted, draw."""
    n_rows, n_cols = data.values.shape
    draws = seeding.uniforms(key, np.arange(n_rows * n_cols).reshape(n_cols, n_rows))
    perm = np.argsort(draws, axis=1, kind="stable")
    return DatasetTable(data.variables, np.take_along_axis(data.values, perm.T, axis=0))


def null_threshold(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
                   replicas: int = DEFAULT_NULL_REPLICAS, seed: SeedLike = 0,
                   n_restarts: int = DEFAULT_RESTARTS,
                   fraction: float = DEFAULT_TOP_FRACTION,
                   edge_probability: float = DEFAULT_EDGE_PROBABILITY) -> NullModelResult:
    """Edge-frequency threshold from dependence-destroyed replicas.

    Each replica rebuilds an ensemble of the same size on column-permuted
    data and takes its top fraction; the replicas' ensembles climb as one
    stack (learn_ensembles). Replica r shuffles, searches and orders its
    ties with the seed's key extended by 11, 13 and 17, each then by r.
    Frequencies over every layer-legal directed edge are pooled across
    replicas; the threshold is their mean plus two standard deviations.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    roles = seeding.bits(seeding.keys([seed]), [11, 13, 17])
    shuffles, searches, ties = seeding.bits(roles[:, None], np.arange(replicas))
    permuted = [permute_columns(data, key) for key in shuffles]
    ensembles = learn_ensembles(permuted, constraints, cfg, n_restarts, searches, edge_probability)
    n = constraints.variables.n
    tables = np.empty((replicas, n, n), dtype=np.int64)
    for rep, (ensemble, key) in enumerate(zip(ensembles, ties)):
        selected = top_fraction(ensemble, fraction, key)
        tables[rep] = edge_frequencies(ensemble.masks[selected], constraints.variables).counts
    # one flat array, replica by replica, each in row-major order of the
    # allowed edges: mean and std sum it pairwise, so the layout fixes their bits
    pooled = tables[:, constraints.allowed].astype(np.float64).ravel()
    mean = float(pooled.mean())
    std = float(pooled.std())
    return NullModelResult(tables, mean, std, mean + 2.0 * std)


def threshold_survivors(freqs: EdgeFrequencyTable, threshold: float) -> np.ndarray:
    """(n, n) bool, true at [u, v] when u -> v is counted more often than the
    threshold, and at least once."""
    return (freqs.counts > threshold) & (freqs.counts > 0)


def _named(counts: np.ndarray, kept: np.ndarray, names: Sequence[str]) -> dict[Edge, int]:
    """The kept edges by name, with their counts."""
    return {(names[u], names[v]): int(counts[u, v]) for u, v in np.argwhere(kept).tolist()}


def _name_pairs(names: Sequence[str]) -> list[tuple[int, int]]:
    """Every (i, j) with names[i] < names[j], in name order."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return [(i, j) for a, i in enumerate(order) for j in order[a + 1:]]


def _resolve_directions(counts: np.ndarray, kept: np.ndarray, names: Sequence[str],
                        provenance: list[dict]):
    """Of each pair kept both ways, drop the direction counted less often; a
    tie keeps u -> v where u sorts before v. Updates kept in place."""
    for i, j in _name_pairs(names):
        if kept[i, j] and kept[j, i]:
            fwd, rev = int(counts[i, j]), int(counts[j, i])
            a, b = (i, j) if fwd >= rev else (j, i)
            kept[b, a] = False
            provenance.append({
                "action": "direction",
                "kept": [names[a], names[b]],
                "dropped": [names[b], names[a]],
                "high_score_frequencies": {f"{names[i]}->{names[j]}": fwd,
                                           f"{names[j]}->{names[i]}": rev},
            })


def _repair_cycles(counts: np.ndarray, kept: np.ndarray, names: Sequence[str],
                   provenance: list[dict]):
    """While kept has a cycle, drop the edge on a cycle with the lowest
    count, ties to the first by names. Updates kept in place."""
    bits = 1 << np.arange(len(names))
    while True:
        cyclic = np.argwhere(_cycle_edges((bits @ kept)[None])[0]).tolist()
        if not cyclic:
            return
        u, v = min(cyclic, key=lambda e: (counts[e[0], e[1]], names[e[0]], names[e[1]]))
        kept[u, v] = False
        provenance.append({
            "action": "cycle_repair",
            "dropped": [names[u], names[v]],
            "frequency": int(counts[u, v]),
        })


def build_consensus(freqs: EdgeFrequencyTable, threshold: float) -> ConsensusDag:
    """Consensus DAG of edges above the threshold.

    ``freqs`` counts edges among the high-scoring networks. When both
    directions of a pair survive, the one with the higher count wins.
    Remaining cycles are broken by repeatedly dropping the lowest-frequency
    edge on a cycle; every such decision lands in the provenance log.
    """
    names = freqs.variables.names
    provenance: list[dict] = []
    kept = threshold_survivors(freqs, threshold)
    _resolve_directions(freqs.counts, kept, names, provenance)
    _repair_cycles(freqs.counts, kept, names, provenance)
    edges = _named(freqs.counts, kept, names)
    return ConsensusDag(Dag(freqs.variables, sorted(edges)), edges, threshold, provenance)


def merge_total_network(consensus_dags: Sequence[ConsensusDag],
                        high_score_freqs: Sequence[EdgeFrequencyTable]) -> ConsensusDag:
    """Merge per-group consensus DAGs into one total network.

    A connection is kept when it appears (in either direction) in at least
    half of the input DAGs, rounded up. Direction conflicts resolve by the
    summed high-score frequency across groups; cycles are repaired as in
    build_consensus.
    """
    if not consensus_dags:
        raise ValueError("need at least one consensus DAG")
    variables = consensus_dags[0].dag.variables
    for c in consensus_dags:
        if c.dag.variables != variables:
            raise ValueError("consensus DAGs are over different variable sets")
    majority = math.ceil(len(consensus_dags) / 2)
    # directed[u, v]: how many of the DAGs hold u -> v
    directed = edge_frequencies(np.array([c.dag._pa for c in consensus_dags]), variables).counts
    summed = sum((t.counts for t in high_score_freqs), np.zeros_like(directed))

    names = variables.names
    provenance: list[dict] = []
    kept = np.zeros(directed.shape, dtype=bool)
    for i, j in _name_pairs(names):
        n_fwd, n_rev = int(directed[i, j]), int(directed[j, i])
        if n_fwd + n_rev < majority:
            continue
        forward = summed[i, j] >= summed[j, i] if n_fwd and n_rev else n_fwd > 0
        a, b = (i, j) if forward else (j, i)
        kept[a, b] = True
        if n_fwd and n_rev:
            u, v = names[i], names[j]
            provenance.append({
                "action": "direction",
                "kept": [names[a], names[b]],
                "dropped": [names[b], names[a]],
                "memberships": {f"{u}->{v}": n_fwd, f"{v}->{u}": n_rev},
                "summed_high_score": {f"{u}->{v}": int(summed[i, j]),
                                      f"{v}->{u}": int(summed[j, i])},
            })
    _repair_cycles(summed, kept, names, provenance)
    edges = _named(summed, kept, names)
    return ConsensusDag(Dag(variables, sorted(edges)), edges, None, provenance)


def consensus_pipeline(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
                       n_restarts: int = DEFAULT_RESTARTS,
                       fraction: float = DEFAULT_TOP_FRACTION,
                       replicas: int = DEFAULT_NULL_REPLICAS,
                       edge_probability: float = DEFAULT_EDGE_PROBABILITY,
                       seed: SeedLike = 0,
                       ) -> tuple[ConsensusDag, EdgeFrequencyTable, NullModelResult]:
    """Ensemble, top-fraction selection, null threshold, consensus; one call."""
    ensemble = learn_ensemble(
        data, constraints, cfg, n_restarts=n_restarts, seed=seed,
        edge_probability=edge_probability,
    )
    freqs = edge_frequencies(ensemble.masks[top_fraction(ensemble, fraction)],
                             constraints.variables)
    null = null_threshold(
        data, constraints, cfg, replicas=replicas, seed=seed,
        n_restarts=n_restarts, fraction=fraction, edge_probability=edge_probability,
    )
    return build_consensus(freqs, null.threshold), freqs, null


def write_edge_frequency_csv(path, freqs: EdgeFrequencyTable):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "count", "n_networks"])
        named = _named(freqs.counts, freqs.counts > 0, freqs.variables.names)
        for (u, v), count in sorted(named.items()):
            writer.writerow([u, v, count, freqs.n_networks])
