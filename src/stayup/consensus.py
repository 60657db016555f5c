"""Restart ensembles, null-model thresholds, and consensus-network assembly.

An ensemble of hill-climbing runs from random starts gives per-edge
occurrence frequencies over its top-scoring fraction. A permutation null
(each data column shuffled independently, killing dependencies but keeping
marginals) pins the threshold at mean + 2 std of the pooled null
frequencies; edges above it form the consensus DAG. Opposite directions
that both survive resolve toward the direction seen more often among the
high-scoring networks, and any residual cycle is repaired by dropping the
weakest edge on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import seeding
from .bayesnet import (
    BdeuConfig,
    Dag,
    DatasetTable,
    Edge,
    LayerConstraints,
    VariableSet,
    climb_batch,
    random_start_masks,
    score_table,
)

DEFAULT_RESTARTS = 200
DEFAULT_TOP_FRACTION = 1.0 / 3.0
DEFAULT_NULL_REPLICAS = 10
DEFAULT_EDGE_PROBABILITY = 0.15

SeedLike = int | Sequence[int]


def _seed_list(seed: SeedLike) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


@dataclass
class EnsembleResult:
    members: list[tuple[Dag, float]]
    seed: SeedLike


@dataclass
class EdgeFrequencyTable:
    variables: VariableSet
    counts: dict[Edge, int]
    n_networks: int

    def get(self, u: str, v: str) -> int:
        return self.counts.get((u, v), 0)


@dataclass
class NullModelResult:
    replicate_tables: list[EdgeFrequencyTable]
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
    """Independent hill climbs from random starts.

    The data are scored once into a table of every layer-legal family, and
    all restarts climb over it together in one climb_batch call. Restart r
    starts from random_start_masks(seed + [r, 0]) and breaks ties with
    seed + [r, 1].
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    base = _seed_list(seed)
    starts = random_start_masks(constraints, edge_probability,
                                [base + [r, 0] for r in range(n_restarts)])
    members = climb_batch(score_table(data, constraints, cfg), constraints, starts,
                          [base + [r, 1] for r in range(n_restarts)])
    return EnsembleResult(members, seed)


def top_fraction(ensemble: EnsembleResult, fraction: float = DEFAULT_TOP_FRACTION,
                 seed: SeedLike | None = None) -> list[tuple[Dag, float]]:
    """Highest-scoring ceil(fraction * size) networks, ties in seeded order."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    size = len(ensemble.members)
    k = math.ceil(fraction * size)
    tiebreak_seed = ensemble.seed if seed is None else seed
    perm = seeding.rng(_seed_list(tiebreak_seed) + [97]).permutation(size)
    order = sorted(range(size), key=lambda i: (-ensemble.members[i][1], perm[i]))
    return [ensemble.members[i] for i in order[:k]]


def edge_frequencies(dags: Iterable[Dag], variables: VariableSet | None = None) -> EdgeFrequencyTable:
    counts: dict[Edge, int] = {}
    n = 0
    for dag in dags:
        if variables is None:
            variables = dag.variables
        elif dag.variables != variables:
            raise ValueError("all DAGs must share one variable set")
        n += 1
        for edge in dag.edges():
            counts[edge] = counts.get(edge, 0) + 1
    if variables is None:
        raise ValueError("no DAGs supplied and no variable set given")
    return EdgeFrequencyTable(variables, counts, n)


def permute_columns(data: DatasetTable, rng: np.random.Generator) -> DatasetTable:
    """Shuffle every column independently: dependencies die, marginals stay."""
    values = data.values.copy()
    for j in range(values.shape[1]):
        values[:, j] = values[rng.permutation(values.shape[0]), j]
    return DatasetTable(data.variables, values)


def null_threshold(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
                   replicas: int = DEFAULT_NULL_REPLICAS, seed: SeedLike = 0,
                   n_restarts: int = DEFAULT_RESTARTS,
                   fraction: float = DEFAULT_TOP_FRACTION,
                   edge_probability: float = DEFAULT_EDGE_PROBABILITY) -> NullModelResult:
    """Edge-frequency threshold from dependence-destroyed replicas.

    Each replica rebuilds an ensemble of the same size on column-permuted
    data and takes its top fraction.
    Frequencies over every layer-legal directed edge are pooled across
    replicas; the threshold is their mean plus two standard deviations.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    base = _seed_list(seed)
    names = constraints.variables.names
    legal = [(names[u], names[v]) for u, v in constraints.legal_pairs()]
    tables = []
    pooled = []
    rngs = seeding.generators([base + [11, rep] for rep in range(replicas)])
    for rep, rng in enumerate(rngs):
        ensemble = learn_ensemble(
            permute_columns(data, rng), constraints, cfg, n_restarts=n_restarts,
            seed=base + [13, rep], edge_probability=edge_probability,
        )
        selected = top_fraction(ensemble, fraction, seed=base + [17, rep])
        table = edge_frequencies([d for d, _ in selected], constraints.variables)
        tables.append(table)
        pooled.extend(table.get(u, v) for u, v in legal)
    pooled_arr = np.asarray(pooled, dtype=np.float64)
    mean = float(pooled_arr.mean())
    std = float(pooled_arr.std())
    return NullModelResult(tables, mean, std, mean + 2.0 * std)


def threshold_survivors(freqs: EdgeFrequencyTable, threshold: float) -> dict[Edge, int]:
    """Edges occurring strictly more often than the threshold."""
    return {e: c for e, c in freqs.counts.items() if c > threshold}


def _resolve_directions(survivors: dict[Edge, int], provenance: list[dict]) -> dict[Edge, int]:
    out = dict(survivors)
    for u, v in sorted(survivors):
        if (u, v) not in out or (v, u) not in out:
            continue
        fwd, rev = survivors[(u, v)], survivors[(v, u)]
        if fwd > rev:
            keep, drop = (u, v), (v, u)
        elif rev > fwd:
            keep, drop = (v, u), (u, v)
        else:
            # full tie: keep the lexicographically smaller orientation
            keep, drop = min((u, v), (v, u)), max((u, v), (v, u))
        del out[drop]
        provenance.append({
            "action": "direction",
            "kept": list(keep),
            "dropped": list(drop),
            "high_score_frequencies": {f"{u}->{v}": fwd, f"{v}->{u}": rev},
        })
    return out


def _edges_on_cycles(edges: dict[Edge, int]) -> list[Edge]:
    children: dict[str, set[str]] = {}
    for u, v in edges:
        children.setdefault(u, set()).add(v)

    def reaches(src: str, dst: str) -> bool:
        stack, seen = [src], set()
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in children.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return [(u, v) for u, v in edges if reaches(v, u)]


def _repair_cycles(edges: dict[Edge, int], provenance: list[dict]) -> dict[Edge, int]:
    out = dict(edges)
    while True:
        cyclic = _edges_on_cycles(out)
        if not cyclic:
            return out
        victim = min(cyclic, key=lambda e: (out[e], e))
        provenance.append({
            "action": "cycle_repair",
            "dropped": list(victim),
            "frequency": out[victim],
        })
        del out[victim]


def build_consensus(freqs: EdgeFrequencyTable, threshold: float) -> ConsensusDag:
    """Consensus DAG of edges above the threshold.

    ``freqs`` counts edges among the high-scoring networks. When both
    directions of a pair survive, the one with the higher count wins.
    Remaining cycles are broken by repeatedly dropping the lowest-frequency
    edge on a cycle; every such decision lands in the provenance log.
    """
    provenance: list[dict] = []
    kept = threshold_survivors(freqs, threshold)
    kept = _resolve_directions(kept, provenance)
    kept = _repair_cycles(kept, provenance)
    dag = Dag(freqs.variables, sorted(kept))
    return ConsensusDag(dag, kept, threshold, provenance)


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
    k = len(consensus_dags)
    majority = math.ceil(k / 2)

    directed: dict[Edge, int] = {}
    for c in consensus_dags:
        for edge in c.dag.edges():
            directed[edge] = directed.get(edge, 0) + 1

    def summed(u: str, v: str) -> int:
        return sum(t.get(u, v) for t in high_score_freqs)

    provenance: list[dict] = []
    kept: dict[Edge, int] = {}
    for pair in sorted({frozenset(e) for e in directed}, key=sorted):
        u, v = sorted(pair)
        n_fwd, n_rev = directed.get((u, v), 0), directed.get((v, u), 0)
        if n_fwd + n_rev < majority:
            continue
        if n_fwd and n_rev:
            s_fwd, s_rev = summed(u, v), summed(v, u)
            if s_fwd > s_rev:
                keep = (u, v)
            elif s_rev > s_fwd:
                keep = (v, u)
            else:
                keep = (u, v)
            provenance.append({
                "action": "direction",
                "kept": list(keep),
                "dropped": list((v, u) if keep == (u, v) else (u, v)),
                "memberships": {f"{u}->{v}": n_fwd, f"{v}->{u}": n_rev},
                "summed_high_score": {f"{u}->{v}": s_fwd, f"{v}->{u}": s_rev},
            })
        else:
            keep = (u, v) if n_fwd else (v, u)
        kept[keep] = summed(*keep)

    kept = _repair_cycles(kept, provenance)
    dag = Dag(variables, sorted(kept))
    return ConsensusDag(dag, kept, None, provenance)


def consensus_pipeline(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
                       n_restarts: int = DEFAULT_RESTARTS,
                       fraction: float = DEFAULT_TOP_FRACTION,
                       replicas: int = DEFAULT_NULL_REPLICAS,
                       edge_probability: float = DEFAULT_EDGE_PROBABILITY,
                       seed: SeedLike = 0,
                       ) -> tuple[ConsensusDag, EdgeFrequencyTable, NullModelResult, EnsembleResult]:
    """Ensemble, top-fraction selection, null threshold, consensus; one call."""
    ensemble = learn_ensemble(
        data, constraints, cfg, n_restarts=n_restarts, seed=seed,
        edge_probability=edge_probability,
    )
    selected = top_fraction(ensemble, fraction)
    freqs = edge_frequencies([d for d, _ in selected], constraints.variables)
    null = null_threshold(
        data, constraints, cfg, replicas=replicas, seed=seed,
        n_restarts=n_restarts, fraction=fraction, edge_probability=edge_probability,
    )
    consensus = build_consensus(freqs, null.threshold)
    return consensus, freqs, null, ensemble


def write_edge_frequency_csv(path, freqs: EdgeFrequencyTable):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "count", "n_networks"])
        for (u, v), count in sorted(freqs.counts.items()):
            writer.writerow([u, v, count, freqs.n_networks])
