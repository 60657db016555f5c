"""Reference implementations that the tests compare the program against.

Nothing under ``src/`` calls these; each is the plain form of something the
program computes another way: the random streams one Python int at a time
(the oracle of ``seeding``'s uint64 array code and of the sleep-fit starts),
BDeu scores family by family (the oracle of
``bayesnet.score_table``), the move set and the moves of a single graph
(the oracle of ``bayesnet.climb_batch``) on a graph edited one edge at a
time (the oracle of ``bayesnet.Dag``'s one cycle check), configuration
indices as hand-written mixed-radix loops (the oracle of
``_kernels.family_counts``, ``bayesnet.joint_table``, ``CptSet.to_json``
and ``synth.make_cpts``, which read CPTs as numpy axes), exact posteriors
by enumeration, the mixture's E-step on its own, the night and bin of one timestamp (the oracle of
``ingest.extract_bedtimes``), the event logs each read whole in one pass
(the oracle of ``ingest._read_event_logs``, which reads them in blocks),
raw features as one record per student (the oracle of
``ingest.compute_raw_features``), profiles built from dicts of
them (the oracle of ``profiles.build_profiles``), and a restart ensemble
as a list of (Dag, score) pairs with edge counts as dicts keyed by name
(the oracles of ``consensus.top_fraction``, ``edge_frequencies``, the pool
of ``null_threshold``, ``build_consensus`` and ``merge_total_network``),
cycle repair by a Floyd-Warshall reachability (the oracle of
``consensus._repair_cycles``), and restart ensembles, null replicas and
CV folds searched one at a time from whole seed lists (the oracles of
``consensus.learn_ensemble``, ``null_threshold`` and
``evaluate.predict_sleep_experiment``, which search them as one stack).
Not a test module, so pytest does not collect it; tests import it as
``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from stayup import bayesnet as bn
from stayup import consensus as cons
from stayup import evaluate as ev
from stayup import ingest
from stayup import profiles as pr
from stayup import seeding
from stayup import sleepmix as sm
from stayup.special import gammaln, logsumexp


# --- seeding ----------------------------------------------------------------------

MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def stream_bits(key: int, counter: int) -> int:
    """Draw `counter` of `key`: the SplitMix64 finaliser of key + (counter + 1) * GOLDEN."""
    x = (key + (counter + 1) * GOLDEN) & MASK64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & MASK64
    return x ^ x >> 31


def stream_key(seed) -> int:
    """The key of an int or list of ints: each int's 64-bit words, low first (0 is
    one word), each replacing the key by the key's draw at that word, from key 0."""
    key = 0
    for n in [seed] if isinstance(seed, int) else seed:
        if n < 0:
            raise ValueError("seeds must be non-negative")
        key = stream_bits(key, n & MASK64)
        while n >> 64:
            n >>= 64
            key = stream_bits(key, n & MASK64)
    return key


def stream_uniform(key: int, counter: int) -> float:
    """The draw's top 53 bits over 2**53."""
    return (stream_bits(key, counter) >> 11) / 2**53


def stream_permutation(key: int, n: int, start: int = 0) -> list[int]:
    """0 .. n-1 ordered by the key's uniforms start .. start + n - 1, ties by index."""
    u = [stream_uniform(key, start + i) for i in range(n)]
    return sorted(range(n), key=u.__getitem__)


def stream_below(key: int, counter: int, bound: int) -> int:
    """Lemire's multiply-shift: (top 32 bits of the draw) * bound // 2**32, unless the
    product's low 32 bits fall below 2**32 % bound; then the draw 2**32 counters on."""
    while True:
        product = (stream_bits(key, counter) >> 32) * bound
        if product % 2**32 >= 2**32 % bound:
            return product >> 32
        counter += 2**32


def seed_list(seed) -> list[int]:
    """An int seed as the list of it; a list as itself."""
    return [seed] if isinstance(seed, int) else list(seed)


def stream_permute_columns(values: np.ndarray, key: int) -> np.ndarray:
    """Column j of N rows reordered by stream_permutation(key, N, j * N)."""
    out = values.copy()
    for j in range(values.shape[1]):
        out[:, j] = values[stream_permutation(key, len(values), j * len(values)), j]
    return out


def generator_permute_columns(data: bn.DatasetTable, rng: np.random.Generator) -> bn.DatasetTable:
    """Column j reordered by the Generator's j-th permutation: the column
    shuffle of tests whose data come from a numpy Generator."""
    values = data.values.copy()
    for j in range(values.shape[1]):
        values[:, j] = values[rng.permutation(len(values)), j]
    return bn.DatasetTable(data.variables, values)


def stream_spacings(key: int, m: int) -> list[float]:
    """The m gaps that the key's first m - 1 uniforms, sorted, cut into [0, 1]."""
    edges = [0.0] + sorted(stream_uniform(key, i) for i in range(m - 1)) + [1.0]
    return [b - a for a, b in zip(edges, edges[1:])]


# --- bayesnet ---------------------------------------------------------------------

def allows_edge(constraints: bn.LayerConstraints, u: str, v: str) -> bool:
    """LayerConstraints.allows by variable name."""
    var = constraints.variables
    return constraints.allows(var.index(u), var.index(v))


def _resolve_family(data: bn.DatasetTable, child, parents) -> tuple[int, tuple[int, ...]]:
    var = data.variables
    c = int(child) if isinstance(child, (int, np.integer)) else var.index(child)
    ps = tuple(sorted(
        int(p) if isinstance(p, (int, np.integer)) else var.index(p) for p in parents
    ))
    if c in ps:
        raise ValueError("child cannot be its own parent")
    if len(set(ps)) != len(ps):
        raise ValueError("duplicate parents")
    return c, ps


def bdeu_family_score(data: bn.DatasetTable, child, parents, cfg: bn.BdeuConfig) -> float:
    """BDeu contribution of one family (child given its parent set)."""
    c, ps = _resolve_family(data, child, parents)
    columns = list(ps) + [c]
    dims = tuple(data.variables.arities[j] for j in columns)
    q, r = math.prod(dims[:-1]), dims[-1]
    counts = np.bincount(np.ravel_multi_index(tuple(data.values[:, columns].T), dims),
                         minlength=q * r)
    return float(bn._bdeu(counts[None], counts.reshape(1, q, r).sum(axis=2), q, r, cfg.ess)[0])


def bdeu_score(dag: bn.Dag, data: bn.DatasetTable, cfg: bn.BdeuConfig,
               table: np.ndarray | None = None) -> float:
    """Decomposable BDeu score: sum of family scores over all variables.

    With `table` (see score_table) the family scores are read from it.
    """
    if dag.variables != data.variables:
        raise ValueError("dag and data are over different variable sets")
    if table is None:
        return math.fsum(bdeu_family_score(data, i, bn._bits(mask), cfg)
                         for i, mask in enumerate(dag._pa))
    scores = table[np.arange(dag.variables.n), dag._pa]
    if np.isnan(scores).any():
        raise ValueError("the score table lacks a family of this dag")
    return math.fsum(scores.tolist())


def legal_moves(dag: bn.Dag, constraints: bn.LayerConstraints) -> list[tuple[str, str, str]]:
    """All add/delete/reverse moves producing a legal acyclic graph, in tie-break order."""
    if dag.variables != constraints.variables:
        raise ValueError("dag and constraints are over different variable sets")
    names = dag.variables.names
    adj, desc, via = bn._closures(np.array([dag._pa], dtype=np.int64))
    legal = bn._legal(adj, desc, via, constraints.allowed)[0]
    return [("reverse" if slot else "delete" if adj[0, u, v] else "add", names[u], names[v])
            for u, v, slot in zip(*np.nonzero(legal))]


class EditableDag(bn.Dag):
    """A Dag edited one edge at a time, with child bitmasks kept next to the
    parent ones: the graph form that bn.Dag's one closure check replaced.

    Each insertion searches for a path back from the new edge's head, so
    an insertion that would close a cycle is refused and the graph is a DAG
    at all times; the children, edges and topological order read the child
    masks.
    """

    def __init__(self, variables: bn.VariableSet, edges: Iterable[bn.Edge] = ()):
        super().__init__(variables)
        self._ch = [0] * variables.n
        for u, v in edges:
            self.add_edge(u, v)

    def reaches(self, u, v) -> bool:
        """True if a directed path u -> ... -> v exists (u == v counts)."""
        src, dst = self._idx(u), self._idx(v)
        if src == dst:
            return True
        seen = 0
        frontier = self._ch[src]
        while frontier:
            if frontier >> dst & 1:
                return True
            seen |= frontier
            nxt = 0
            for w in bn._bits(frontier):
                nxt |= self._ch[w]
            frontier = nxt & ~seen
        return False

    def add_edge(self, u, v):
        ui, vi = self._idx(u), self._idx(v)
        names = self.variables.names
        if ui == vi:
            raise ValueError("self loops are not allowed")
        if self.has_edge(ui, vi):
            raise ValueError(f"edge {names[ui]}->{names[vi]} already present")
        if self.reaches(vi, ui):
            raise ValueError(f"edge {names[ui]}->{names[vi]} would create a cycle")
        self._ch[ui] |= 1 << vi
        self._pa[vi] |= 1 << ui

    def remove_edge(self, u, v):
        """Delete the edge u -> v in place; u and v are names or indices."""
        ui, vi = self._idx(u), self._idx(v)
        if not self.has_edge(ui, vi):
            raise ValueError("edge not present")
        self._ch[ui] &= ~(1 << vi)
        self._pa[vi] &= ~(1 << ui)

    def child_indices(self, v) -> tuple[int, ...]:
        return tuple(bn._bits(self._ch[self._idx(v)]))

    def edges(self) -> list[bn.Edge]:
        names = self.variables.names
        return [(names[u], names[v])
                for u in range(self.variables.n) for v in bn._bits(self._ch[u])]

    def topological_order(self) -> list[int]:
        pa = list(self._pa)
        order, ready = [], [i for i, m in enumerate(pa) if m == 0]
        while ready:
            u = ready.pop()
            order.append(u)
            for v in bn._bits(self._ch[u]):
                pa[v] &= ~(1 << u)
                if pa[v] == 0:
                    ready.append(v)
        return order


def copy_dag(dag: bn.Dag) -> EditableDag:
    return EditableDag(dag.variables, dag.edges())


def apply_move(dag: bn.Dag, move: tuple[str, str, str]) -> EditableDag:
    out = copy_dag(dag)
    kind, u, v = move
    if kind == "add":
        out.add_edge(u, v)
    elif kind == "delete":
        out.remove_edge(u, v)
    elif kind == "reverse":
        out.remove_edge(u, v)
        out.add_edge(v, u)
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return out


def family_counts(data, parent_cols, child_col, arities) -> np.ndarray:
    """(q, r) float64 counts of the child's values per parent configuration,
    the index built parent by parent, the last one fastest."""
    r = int(arities[child_col])
    q = 1
    for c in parent_cols:
        q *= int(arities[c])
    if len(parent_cols) == 0:
        idx = np.zeros(data.shape[0], dtype=np.int64)
    else:
        idx = data[:, parent_cols[0]].astype(np.int64)
        for c in parent_cols[1:]:
            idx *= int(arities[c])
            idx += data[:, c]
    flat = idx * r + data[:, child_col]
    counts = np.bincount(flat, minlength=q * r).astype(np.float64)
    return counts.reshape(q, r)


def joint_table(dag: bn.Dag, cpts: bn.CptSet) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment and its probability, each CPT row index built parent by parent."""
    arities = dag.variables.arities
    n = dag.variables.n
    grids = np.indices(arities).reshape(n, -1).T.astype(np.uint8)
    probs = np.ones(grids.shape[0])
    for i in range(n):
        cpt = cpts.cpts[i]
        j = np.zeros(grids.shape[0], dtype=np.int64)
        for p in cpt.parents:
            j = j * arities[p] + grids[:, p]
        probs *= cpt.table[j, grids[:, i]]
    return grids, probs


def cpts_to_json(cpts: bn.CptSet) -> dict:
    """CptSet.to_json: each row key decoded digit by digit in parent name
    order and re-encoded in the CPT's parent order."""
    out = {}
    names = cpts.variables.names
    arities = cpts.variables.arities
    for i, cpt in enumerate(cpts.cpts):
        lex_parents = sorted(cpt.parents, key=lambda p: names[p])
        rows = {}
        for j_lex in range(int(np.prod([arities[p] for p in lex_parents], initial=1))):
            assign, rem = {}, j_lex
            for p in reversed(lex_parents):
                assign[p] = rem % arities[p]
                rem //= arities[p]
            j = 0
            for p in cpt.parents:
                j = j * arities[p] + assign[p]
            key = "".join(str(assign[p]) for p in lex_parents)
            rows[key] = [float(x) for x in cpt.table[j]]
        out[names[i]] = {"parents": [names[p] for p in lex_parents], "rows": rows}
    return out


def make_cpts(dag: bn.Dag, p_one: Mapping[str, object]) -> bn.CptSet:
    """synth.make_cpts, each row's parent values decoded digit by digit."""
    var = dag.variables
    cpts = []
    for i, name in enumerate(var.names):
        parents = tuple(sorted(dag.parent_indices(i)))
        q = int(np.prod([var.arities[p] for p in parents], initial=1))
        table = np.zeros((q, 2))
        spec = p_one[name]
        for j in range(q):
            if parents:
                assign, rem = [], j
                for p in reversed(parents):
                    assign.append(rem % var.arities[p])
                    rem //= var.arities[p]
                key = tuple(reversed(assign))
                p1 = float(spec[key])
            else:
                p1 = float(spec)
            table[j] = (1.0 - p1, p1)
        cpts.append(bn.Cpt(parents, table))
    return bn.CptSet(var, tuple(cpts))


def posterior_query(dag: bn.Dag, cpts: bn.CptSet, evidence: Mapping[str, int],
                    query: str) -> np.ndarray:
    """Exact posterior of `query` given `evidence`, by full enumeration."""
    if query in evidence:
        raise ValueError("evidence must not include the query variable")
    var = dag.variables
    grids, probs = bn.joint_table(dag, cpts)
    mask = np.ones(grids.shape[0], dtype=bool)
    for name, value in evidence.items():
        mask &= grids[:, var.index(name)] == value
    qi = var.index(query)
    r = var.arities[qi]
    out = np.zeros(r)
    sub_states = grids[mask, qi]
    sub_probs = probs[mask]
    for k in range(r):
        out[k] = sub_probs[sub_states == k].sum()
    total = out.sum()
    if total <= 0.0:
        raise ValueError("impossible evidence")
    return out / total


def structural_hamming_distance(a: bn.Dag, b: bn.Dag) -> int:
    """Edge insertions, deletions, and reversals separating two DAGs."""
    if a.variables != b.variables:
        raise ValueError("DAGs are over different variable sets")
    ea, eb = set(a.edges()), set(b.edges())
    dist = 0
    seen_pairs = set()
    for u, v in ea | eb:
        pair = frozenset((u, v))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        in_a = (u, v) in ea or (v, u) in ea
        in_b = (u, v) in eb or (v, u) in eb
        if in_a != in_b:
            dist += 1
        elif in_a and in_b:
            same = ((u, v) in ea) == ((u, v) in eb) and ((v, u) in ea) == ((v, u) in eb)
            if not same:
                dist += 1
    return dist


# --- consensus --------------------------------------------------------------------
#
# The ensemble as a list of (Dag, score) pairs and edge counts as dicts keyed
# by name: the oracles of consensus.top_fraction, edge_frequencies, the pool
# of null_threshold, build_consensus and merge_total_network.

def top_fraction(members: Sequence[tuple[bn.Dag, float]], fraction: float,
                 seed) -> list[tuple[bn.Dag, float]]:
    """The ceil(fraction * size) members first by (-score, place in the
    seeded permutation)."""
    size = len(members)
    perm = stream_permutation(stream_key(seed_list(seed) + [97]), size)
    order = sorted(range(size), key=lambda i: (-members[i][1], perm[i]))
    return [members[i] for i in order[:math.ceil(fraction * size)]]


def edge_frequencies(dags: Iterable[bn.Dag]) -> dict[bn.Edge, int]:
    """How many of the DAGs hold each edge; edges none holds are absent."""
    counts: dict[bn.Edge, int] = {}
    for dag in dags:
        for edge in dag.edges():
            counts[edge] = counts.get(edge, 0) + 1
    return counts


def null_pool(tables: Sequence[Mapping[bn.Edge, int]],
              constraints: bn.LayerConstraints) -> np.ndarray:
    """Each replica's count of every layer-legal edge, replica by replica."""
    names = constraints.variables.names
    legal = [(names[u], names[v]) for u in range(len(names)) for v in range(len(names))
             if constraints.allows(u, v)]
    return np.asarray([table.get(edge, 0) for table in tables for edge in legal],
                      dtype=np.float64)


def _resolve_directions(survivors: dict[bn.Edge, int], provenance: list[dict]) -> dict[bn.Edge, int]:
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


def _edges_on_cycles(edges: dict[bn.Edge, int]) -> list[bn.Edge]:
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


def _repair_cycles(edges: dict[bn.Edge, int], provenance: list[dict]) -> dict[bn.Edge, int]:
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


def floyd_warshall_repair_cycles(counts: np.ndarray, kept: np.ndarray, names: Sequence[str],
                                 provenance: list[dict]):
    """consensus._repair_cycles with a Floyd-Warshall reachability of its own:
    while kept has a cycle, drop the edge on a cycle with the lowest count,
    ties to the first by names. Updates kept in place."""
    while True:
        reach = kept.copy()
        for k in range(len(names)):   # paths through k
            reach |= reach[:, k:k + 1] & reach[k]
        cyclic = np.argwhere(kept & reach.T).tolist()   # u -> v and v ~> u
        if not cyclic:
            return
        u, v = min(cyclic, key=lambda e: (counts[e[0], e[1]], names[e[0]], names[e[1]]))
        kept[u, v] = False
        provenance.append({
            "action": "cycle_repair",
            "dropped": [names[u], names[v]],
            "frequency": int(counts[u, v]),
        })


def build_consensus(counts: Mapping[bn.Edge, int], variables: bn.VariableSet,
                    threshold: float) -> cons.ConsensusDag:
    """The consensus DAG of the edges counted more often than the threshold."""
    provenance: list[dict] = []
    kept = {e: c for e, c in counts.items() if c > threshold}
    kept = _resolve_directions(kept, provenance)
    kept = _repair_cycles(kept, provenance)
    return cons.ConsensusDag(bn.Dag(variables, sorted(kept)), kept, threshold, provenance)


def merge_total_network(consensus_dags: Sequence[cons.ConsensusDag],
                        high_score_counts: Sequence[Mapping[bn.Edge, int]]) -> cons.ConsensusDag:
    """Connections in at least half the DAGs, rounded up; directions and
    cycles resolved by the summed high-score counts."""
    variables = consensus_dags[0].dag.variables
    majority = math.ceil(len(consensus_dags) / 2)
    directed: dict[bn.Edge, int] = {}
    for c in consensus_dags:
        for edge in c.dag.edges():
            directed[edge] = directed.get(edge, 0) + 1

    def summed(u: str, v: str) -> int:
        return sum(t.get((u, v), 0) for t in high_score_counts)

    provenance: list[dict] = []
    kept: dict[bn.Edge, int] = {}
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
    return cons.ConsensusDag(bn.Dag(variables, sorted(kept)), kept, None, provenance)


# --- searches one at a time ----------------------------------------------------
#
# consensus.learn_ensembles climbs the ensembles of a job as one stack, and
# the program names every sub-stream by extending a key. Here each restart,
# shuffle and tie order takes the key of its whole seed list, and each
# ensemble has a table and a climb_batch call of its own: the oracles of
# learn_ensemble, of the null replicas of null_threshold and of the CV folds
# of predict_sleep_experiment.

def learn_ensemble(data: bn.DatasetTable, constraints: bn.LayerConstraints, cfg: bn.BdeuConfig,
                   n_restarts: int, seed,
                   edge_probability: float = cons.DEFAULT_EDGE_PROBABILITY) -> cons.EnsembleResult:
    """Restart r starts from the key of seed + [r, 0] and breaks ties with that of seed + [r, 1]."""
    base = seed_list(seed)
    starts = bn.random_start_masks(constraints, edge_probability,
                                   seeding.keys([base + [r, 0] for r in range(n_restarts)]))
    masks, scores = bn.climb_batch(bn.score_table(data, constraints, cfg), constraints, starts,
                                   seeding.keys([base + [r, 1] for r in range(n_restarts)]))
    return cons.EnsembleResult(masks, scores, np.uint64(stream_key(base)))


def null_threshold(data: bn.DatasetTable, constraints: bn.LayerConstraints, cfg: bn.BdeuConfig,
                   replicas: int, seed, n_restarts: int, fraction: float,
                   edge_probability: float) -> cons.NullModelResult:
    """One replica at a time: permute, climb its ensemble, count its top fraction."""
    base = seed_list(seed)
    n = constraints.variables.n
    tables = np.empty((replicas, n, n), dtype=np.int64)
    for rep in range(replicas):
        permuted = cons.permute_columns(data, stream_key(base + [11, rep]))
        ensemble = learn_ensemble(permuted, constraints, cfg, n_restarts, base + [13, rep],
                                  edge_probability)
        selected = cons.top_fraction(ensemble, fraction, stream_key(base + [17, rep]))
        tables[rep] = cons.edge_frequencies(ensemble.masks[selected], constraints.variables).counts
    pooled = tables[:, constraints.allowed].astype(np.float64).ravel()
    mean, std = float(pooled.mean()), float(pooled.std())
    return cons.NullModelResult(tables, mean, std, mean + 2.0 * std)


def predict_sleep_experiment(profiles: bn.DatasetTable, constraints: bn.LayerConstraints,
                             cfg: bn.BdeuConfig, experiment: ev.PredictionExperiment,
                             seed) -> ev.PredictionResult:
    """One fold at a time: climb its ensemble, then score its test rows."""
    base = seed_list(seed)
    y = profiles.column(ev.TARGET).astype(np.int64)
    splits, degraded = ev.cv_plan(y, experiment, seed)
    curves, degenerate = [], False
    for f, (train_rows, test_rows) in enumerate(splits):
        train = profiles.subset(train_rows)
        ensemble = learn_ensemble(train, constraints, cfg, experiment.restarts, base + [29, f],
                                  experiment.edge_probability)
        best = ensemble.scores.argmax()   # the first of equal best scores
        dag = bn.Dag.from_parents(train.variables, ensemble.masks[best].tolist())
        scores, fold_degenerate = ev._blanket_scores(train, profiles.subset(test_rows), dag)
        degenerate = degenerate or fold_degenerate
        curves.append(ev.roc_auc(scores, y[test_rows]))
    aucs = [curve.auc for curve in curves]
    return ev.PredictionResult(curves, aucs, float(np.mean(aucs)), degenerate, degraded)


# --- sleepmix ---------------------------------------------------------------------

def component_log_likelihood(counts, rates) -> float:
    """Log Poisson likelihood of one count vector under one component's rates."""
    s = np.asarray(counts, dtype=np.float64)
    lam = np.asarray(rates, dtype=np.float64)
    if np.any(lam <= 0):
        raise ValueError("rates must be positive")
    return float(np.sum(s * np.log(lam) - lam - gammaln(s + 1)))


def e_step(counts, model: sm.PoissonMixtureModel, cfg: sm.MixtureConfig,
           ids: tuple[str, ...] | None = None) -> sm.Responsibilities:
    """Posterior membership weights, normalized per student with log-sum-exp."""
    counts = np.asarray(counts, dtype=np.float64)
    model.validate()
    scores = sm._scores(counts, model, gammaln(counts + 1).sum(axis=1))
    return sm._responsibilities(scores, logsumexp(scores, axis=1), model, cfg, ids)


# --- ingest -----------------------------------------------------------------------

def _event_row(log, kind, path, line_no, row, index, handle):
    """(student, time, code, value) of a row that passes the checks, else None."""
    try:
        sid, ts, code, value = log.check(row)
    except (ValueError, TypeError) as exc:
        handle(kind, path, line_no, str(exc))
        return None
    student = index.get(sid)
    if student is None:
        handle(kind, path, line_no, f"unknown student {sid}")
        return None
    return student, ts, code, value


def read_events(path: Path, kind: str, students: tuple[str, ...],
                index: dict[str, int], handle) -> ingest.EventColumns:
    """Load one event log into columns in one pass over the whole file; rows
    outside the columnar grammar take the row path."""
    log = ingest._EVENT_LOGS[kind]
    columns = ingest.CSV_SCHEMAS[kind]
    if not path.exists():
        raise ingest.IngestError(f"missing input file: {path}")
    data = path.read_bytes()
    columnar = ingest._columnar(data) and data.count(b"\r") == data.count(b"\r\n")
    header = ingest._columnar_header(data) if columnar else None
    if header is not None:
        ingest._check_header(path, header, columns)
    if header is None or len(header) != len(columns):
        # the csv module reads this file; duplicate header names land here too
        got = [_event_row(log, kind, path, line_no, row, index, handle)
               for line_no, row in ingest._read_rows(path, kind)]
        got = [g for g in got if g is not None]
        student, ts, code, value = zip(*got) if got else ((),) * 4
        return ingest.EventColumns(students, np.array(student, np.int32),
                                   np.array(ts, np.int64), np.array(code, np.int8),
                                   np.array(value, np.float64))

    scan = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(scan == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [scan.size]))
    if starts[-1] == scan.size:
        starts, ends = starts[:-1], ends[:-1]
    ends -= (ends > starts) & (scan[ends - 1] == ord("\r"))
    lines = starts.size                     # line i is physical line i + 1; line 0 is the header

    commas = np.flatnonzero(scan == ord(","))
    per_line = np.diff(np.append(np.searchsorted(commas, starts), commas.size))
    split = (per_line == len(columns) - 1) & (ends > starts)
    split[0] = False
    rows = np.flatnonzero(split)
    cuts = commas[np.repeat(split, per_line)].reshape(rows.size, len(columns) - 1)
    # field reads may run past a field's end but not past this padding
    buf = np.frombuffer(data + bytes(int((ends - starts).max()) + 32), dtype=np.uint8)
    bounds = {}
    for j, name in enumerate(header):
        bounds[name] = (starts[rows] if j == 0 else cuts[:, j - 1] + 1,
                        ends[rows] if j == len(columns) - 1 else cuts[:, j])

    student = np.full(lines, -1, dtype=np.int32)
    ts = np.zeros(lines, dtype=np.int64)
    code = np.zeros(lines, dtype=np.int8)
    value = np.zeros(lines, dtype=np.float64)
    keys = np.array([s.encode() for s in students], dtype=bytes)
    got_student = ingest._student_index(buf, *bounds["student_id"], keys)
    ok, got_ts = ingest._timestamps(buf, *bounds[log.time])
    ok &= got_student >= 0
    if log.code is not None:
        got_code = ingest._codes(buf, *bounds[log.code], log.codes)
        number_ok, got_value = ingest._numbers(buf, *bounds[log.value], log.decimal)
        ok &= (got_code >= 0) & number_ok
        code[rows[ok]] = got_code[ok]
        value[rows[ok]] = got_value[ok]
    student[rows[ok]] = got_student[ok]
    ts[rows[ok]] = got_ts[ok]

    slow = np.flatnonzero((student < 0) & (ends > starts))
    for line in slow[slow > 0].tolist():
        fields = data[starts[line]:ends[line]].decode().split(",")
        row = dict(zip(header, fields))
        row.update((name, None) for name in header[len(fields):])
        got = _event_row(log, kind, path, line + 1, row, index, handle)
        if got is not None:
            student[line], ts[line], code[line], value[line] = got
    keep = student >= 0
    return ingest.EventColumns(students, student[keep], ts[keep], code[keep], value[keep])


def read_event_logs(paths: Mapping[str, Path], students: tuple[str, ...],
                    index: dict[str, int], handle) -> dict[str, ingest.EventColumns]:
    """The event logs read one after another, each whole by read_events (the
    oracle of ``ingest._read_event_logs``, which decodes them in blocks)."""
    return {kind: read_events(paths[kind], kind, students, index, handle)
            for kind in ingest._EVENT_LOGS}


def night_of(dt: datetime) -> date:
    """Calendar date of the night a timestamp belongs to."""
    if dt.time() >= ingest.NIGHT_BOUNDARY:
        return dt.date()
    return dt.date() - timedelta(days=1)


def locate(dt: datetime) -> tuple[date, int | None]:
    """Night date plus bin index, or None when outside the window."""
    night = night_of(dt)
    start = datetime.combine(night, ingest.WINDOW_START)
    offset = (dt - start).total_seconds() / 60.0
    if 0 <= offset < ingest.BIN_MINUTES * ingest.BIN_COUNT:
        return night, int(offset // ingest.BIN_MINUTES)
    return night, None


@dataclass
class RawFeatureRecord:
    student_id: str
    books_borrowed: int
    mean_daily_surf_minutes: float
    game_minutes: float
    video_minutes: float
    breakfast_count: int
    bath_interval_variance: float | None  # None when fewer than 2 bath events
    mean_daily_spend: float
    gpa: float
    gender: str


def compute_raw_features(store: ingest.EventStore, study_days: int) -> dict[str, RawFeatureRecord]:
    """Raw (pre-discretization) behavioral quantities per student.

    One record per student, built in a per-student loop.
    Students present in demographics but missing a grade record are omitted.
    Students with fewer than two bath transactions get a None
    bath_interval_variance; excluding them is the caller's call. Sums run
    in file order, as np.bincount adds its weights.
    """
    if study_days < 1:
        raise ValueError("study_days must be >= 1")
    students = store.students
    n = len(students)

    s = store.sessions
    surf = np.bincount(s.student, weights=s.value, minlength=n)
    game, video = (np.bincount(s.student[hit], weights=s.value[hit], minlength=n)
                   for hit in (s.code == ingest.APP_CATEGORIES.index("game"),
                               s.code == ingest.APP_CATEGORIES.index("video")))

    tx = store.transactions
    spend = np.bincount(tx.student, weights=tx.value, minlength=n)
    day = tx.time // ingest.DAY_US
    tod = tx.time - day * ingest.DAY_US
    morning = ((tx.code == ingest.VENUES.index("canteen"))
               & (tod >= ingest._time_us(ingest.BREAKFAST_WINDOW[0]))
               & (tod < ingest._time_us(ingest.BREAKFAST_WINDOW[1])))
    breakfast = np.zeros(n, dtype=np.int64)
    if morning.any():
        first = day[morning].min()
        span = int(day[morning].max() - first) + 1
        student_days = np.sort(tx.student[morning].astype(np.int64) * span + day[morning] - first)
        student_days = student_days[np.append(True, student_days[1:] != student_days[:-1])]
        breakfast = np.bincount(student_days // span, minlength=n)
    bath = tx.code == ingest.VENUES.index("bath")
    order = np.lexsort((tx.time[bath], tx.student[bath]))
    bath_days = day[bath][order]
    bath_from = np.searchsorted(tx.student[bath][order], np.arange(n + 1))

    borrowed = np.bincount(store.borrows.student, minlength=n)

    features: dict[str, RawFeatureRecord] = {}
    for i, sid in enumerate(students):
        gpa = float(store.gpa[i])
        if math.isnan(gpa):
            continue
        baths = bath_days[bath_from[i]:bath_from[i + 1]]
        variance = None
        if baths.size >= 2:
            # k gaps with sum S and sum of squares Q have variance (kQ - S^2) / k^2;
            # while kQ and k^2 stay below 2**53 both convert exactly and the one
            # division rounds correctly, so the value does not depend on gap order
            gaps = np.diff(baths)
            k, s, q = gaps.size, int(gaps.sum()), int(gaps @ gaps)
            variance = float(k * q - s * s) / float(k * k)
        features[sid] = RawFeatureRecord(
            student_id=sid,
            books_borrowed=int(borrowed[i]),
            mean_daily_surf_minutes=float(surf[i]) / study_days,
            game_minutes=float(game[i]),
            video_minutes=float(video[i]),
            breakfast_count=int(breakfast[i]),
            bath_interval_variance=variance,
            mean_daily_spend=float(spend[i]) / study_days,
            gpa=gpa,
            gender=ingest.GENDERS[store.gender[i]],
        )
    return features


def feature_arrays(features: Mapping[str, RawFeatureRecord]) -> tuple[tuple[str, ...], np.ndarray]:
    """The (ids, values) form of records, as ingest.compute_raw_features gives it."""
    ids = tuple(sorted(features))
    values = [[rec.books_borrowed, rec.mean_daily_surf_minutes, rec.game_minutes,
               rec.video_minutes, rec.breakfast_count,
               math.nan if rec.bath_interval_variance is None else rec.bath_interval_variance,
               rec.mean_daily_spend, rec.gpa, ingest.GENDERS.index(rec.gender)]
              for rec in map(features.__getitem__, ids)]
    width = len(ingest.FEATURE_COLUMNS) - 1
    return ids, np.array(values, dtype=np.float64).reshape(len(ids), width)


# --- profiles -----------------------------------------------------------------------

def median_split(values: Mapping[str, float]) -> dict[str, int]:
    """Label 1 iff the value strictly exceeds the median (ties go low)."""
    if len(values) < 2:
        raise ValueError("median_split needs at least two students")
    bits, _ = pr._split(np.asarray(list(values.values()), dtype=np.float64), True)
    return dict(zip(values, bits.astype(int).tolist()))


def build_profiles(features: Mapping[str, RawFeatureRecord],
                   sleep_labels: Mapping[str, object]) -> pr.ProfileResult:
    """Assemble the nine binary variables for every fully observed student.

    Students missing a feature record, a sleep label, or a defined bath
    interval variance are excluded and reported. Medians are computed over
    the included students only. A sleep label is True (or 1) for stay_up.
    """
    excluded: dict[str, str] = {}
    included: list[str] = []
    for sid in sorted(set(features) | set(sleep_labels)):
        if sid not in features:
            excluded[sid] = "missing feature record"
        elif sid not in sleep_labels:
            excluded[sid] = "missing sleep label"
        elif features[sid].bath_interval_variance is None:
            excluded[sid] = "bath interval variance undefined"
        else:
            included.append(sid)
    if len(included) < 2:
        raise ValueError("need at least two fully observed students to profile, "
                         f"got {len(included)}")

    records = [features[sid] for sid in included]
    columns = {
        "G": [rec.gender == "female" for rec in records],
        "A": [rec.video_minutes > rec.game_minutes for rec in records],
        "S": [int(sleep_labels[sid]) for sid in included],
    }
    medians: dict[str, float] = {}
    for name, (source, high_is_one) in pr.MEDIAN_SPLITS.items():
        values = np.array([float(getattr(rec, source)) for rec in records])
        columns[name], medians[name] = pr._split(values, high_is_one)
    variables = bn.profile_variables()
    table = bn.DatasetTable(variables, np.column_stack([columns[name] for name in variables.names]))
    return pr.ProfileResult(tuple(included), table, medians, excluded)
