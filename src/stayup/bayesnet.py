"""Discrete Bayesian-network core.

DAGs under layer constraints, BDeu scoring with a family cache, steepest
ascent hill climbing on parent and child bitmasks, MLE parameter fitting,
exact inference by enumeration, and Markov blankets. Everything operates on
small all-discrete variable sets, so enumeration-based inference is exact
and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln

from ._kernels import family_counts

Edge = tuple[str, str]

IMPROVEMENT_EPS = 1e-10
TIE_EPS = 1e-9

PROFILE_VARIABLE_NAMES = ("G", "R", "A", "T", "Br", "Ba", "F", "Ac", "S")


@dataclass(frozen=True)
class VariableSet:
    """Ordered variable names with their arities."""

    names: tuple[str, ...]
    arities: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.arities):
            raise ValueError("names and arities must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(a < 2 for a in self.arities):
            raise ValueError("arities must be >= 2")

    @classmethod
    def binary(cls, names: Sequence[str]) -> "VariableSet":
        names = tuple(names)
        return cls(names, (2,) * len(names))

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


def profile_variables() -> VariableSet:
    """The nine binary behavioral variables in pipeline column order."""
    return VariableSet.binary(PROFILE_VARIABLE_NAMES)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Dag:
    """Directed acyclic graph over a fixed variable set.

    Acyclicity is enforced on every edge insertion, so instances are valid
    DAGs at all times. Adjacency is kept as per-node bitmasks, the form the
    search loop works on.
    """

    def __init__(self, variables: VariableSet, edges: Iterable[Edge] = ()):
        self.variables = variables
        n = variables.n
        self._pa = [0] * n
        self._ch = [0] * n
        for u, v in edges:
            self.add_edge(u, v)

    def _idx(self, v) -> int:
        return v if isinstance(v, int) else self.variables.index(v)

    @property
    def n_edges(self) -> int:
        return sum(m.bit_count() for m in self._pa)

    def has_edge(self, u, v) -> bool:
        return bool(self._ch[self._idx(u)] >> self._idx(v) & 1)

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
            for w in _bits(frontier):
                nxt |= self._ch[w]
            frontier = nxt & ~seen
        return False

    def add_edge(self, u, v):
        ui, vi = self._idx(u), self._idx(v)
        if ui == vi:
            raise ValueError("self loops are not allowed")
        if self.has_edge(ui, vi):
            raise ValueError(f"edge {self.variables.names[ui]}->{self.variables.names[vi]} already present")
        if self.reaches(vi, ui):
            raise ValueError(
                f"edge {self.variables.names[ui]}->{self.variables.names[vi]} would create a cycle"
            )
        self._ch[ui] |= 1 << vi
        self._pa[vi] |= 1 << ui

    def remove_edge(self, u, v):
        ui, vi = self._idx(u), self._idx(v)
        if not self.has_edge(ui, vi):
            raise ValueError("edge not present")
        self._ch[ui] &= ~(1 << vi)
        self._pa[vi] &= ~(1 << ui)

    def parent_indices(self, v) -> tuple[int, ...]:
        return tuple(_bits(self._pa[self._idx(v)]))

    def child_indices(self, v) -> tuple[int, ...]:
        return tuple(_bits(self._ch[self._idx(v)]))

    def parents(self, v) -> tuple[str, ...]:
        return tuple(self.variables.names[i] for i in self.parent_indices(v))

    def children(self, v) -> tuple[str, ...]:
        return tuple(self.variables.names[i] for i in self.child_indices(v))

    def edges(self) -> list[Edge]:
        out = []
        for u in range(self.variables.n):
            for v in _bits(self._ch[u]):
                out.append((self.variables.names[u], self.variables.names[v]))
        return out

    def copy(self) -> "Dag":
        d = Dag(self.variables)
        d._pa = list(self._pa)
        d._ch = list(self._ch)
        return d

    def topological_order(self) -> list[int]:
        pa = list(self._pa)
        order, ready = [], [i for i, m in enumerate(pa) if m == 0]
        while ready:
            u = ready.pop()
            order.append(u)
            for v in _bits(self._ch[u]):
                pa[v] &= ~(1 << u)
                if pa[v] == 0:
                    ready.append(v)
        return order

    def __eq__(self, other):
        return (
            isinstance(other, Dag)
            and self.variables == other.variables
            and self._pa == other._pa
        )

    def __repr__(self):
        return f"Dag({self.edges()!r})"

    def to_json(self) -> dict:
        return {"variables": list(self.variables.names), "edges": [list(e) for e in self.edges()]}

    @classmethod
    def from_json(cls, obj: dict, arities: Sequence[int] | None = None) -> "Dag":
        names = tuple(obj["variables"])
        var = VariableSet(names, tuple(arities) if arities else (2,) * len(names))
        return cls(var, [tuple(e) for e in obj["edges"]])


@dataclass(frozen=True)
class LayerConstraints:
    """Layer assignment per variable; edges may not point to a lower layer.

    Within-layer edges are allowed in both directions. A variable alone in
    the lowest layer can have no parents; one alone in the highest layer can
    have no children.
    """

    variables: VariableSet
    layers: tuple[int, ...]

    def __post_init__(self):
        if len(self.layers) != self.variables.n:
            raise ValueError("one layer per variable required")

    @classmethod
    def from_mapping(cls, variables: VariableSet, mapping: Mapping[str, int]) -> "LayerConstraints":
        return cls(variables, tuple(mapping[name] for name in variables.names))

    @classmethod
    def unconstrained(cls, variables: VariableSet) -> "LayerConstraints":
        return cls(variables, (1,) * variables.n)

    def allows(self, u: int, v: int) -> bool:
        return u != v and self.layers[u] <= self.layers[v]

    @cached_property
    def child_masks(self) -> tuple[int, ...]:
        """Per variable u, the bitmask of every variable that u may point to."""
        n = self.variables.n
        return tuple(sum(1 << v for v in range(n) if self.allows(u, v)) for u in range(n))

    def allows_edge(self, u: str, v: str) -> bool:
        return self.allows(self.variables.index(u), self.variables.index(v))

    def legal_pairs(self) -> list[tuple[int, int]]:
        n = self.variables.n
        return [(u, v) for u in range(n) for v in range(n) if self.allows(u, v)]

    def forbidden_edges(self) -> set[Edge]:
        n = self.variables.n
        names = self.variables.names
        return {
            (names[u], names[v])
            for u in range(n)
            for v in range(n)
            if u != v and not self.allows(u, v)
        }

    def satisfied_by(self, dag: Dag) -> bool:
        return all(self.allows_edge(u, v) for u, v in dag.edges())


def default_layer_constraints() -> LayerConstraints:
    """Gender on top, academic performance at the bottom, behavior between."""
    var = profile_variables()
    layers = {"G": 1, "R": 2, "A": 2, "T": 2, "Br": 2, "Ba": 2, "F": 2, "S": 2, "Ac": 3}
    return LayerConstraints.from_mapping(var, layers)


class DatasetTable:
    """Complete discrete dataset: N rows over the variable set, no missing cells."""

    def __init__(self, variables: VariableSet, values):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.uint8))
        if values.ndim != 2 or values.shape[1] != variables.n:
            raise ValueError("values must be (N, n) for n variables")
        for j, arity in enumerate(variables.arities):
            if values.shape[0] and values[:, j].max(initial=0) >= arity:
                raise ValueError(f"column {variables.names[j]} exceeds arity {arity}")
        self.variables = variables
        self.values = values

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.variables.index(name)]

    def subset(self, rows) -> "DatasetTable":
        return DatasetTable(self.variables, self.values[np.asarray(rows)])


@dataclass(frozen=True)
class BdeuConfig:
    """Equivalent sample size for the uniform Dirichlet structure prior."""

    ess: float = 1.0

    def __post_init__(self):
        if not self.ess > 0:
            raise ValueError("ess must be positive")


def _family_score(values: np.ndarray, arities: np.ndarray, child: int,
                  parents: tuple[int, ...], ess: float) -> float:
    r = int(arities[child])
    q = 1
    for p in parents:
        q *= int(arities[p])
    counts = family_counts(values, np.asarray(parents, dtype=np.int64), child, arities)
    a_jk = ess / (q * r)
    a_j = ess / q
    n_j = counts.sum(axis=1)
    row_terms = gammaln(a_j) - gammaln(a_j + n_j)
    cell_terms = gammaln(a_jk + counts) - gammaln(a_jk)
    return float(np.sum(row_terms) + np.sum(cell_terms))


class FamilyScoreCache:
    """Memoized BDeu family scores for one dataset and ESS.

    Keyed by child index and parent bitmask; safe to share across
    hill-climbing restarts over the same data.
    """

    def __init__(self, data: DatasetTable, cfg: BdeuConfig):
        self.data = data
        self.cfg = cfg
        self._values = data.values
        self._arities = np.asarray(data.variables.arities, dtype=np.int64)
        self._scores: list[dict[int, float]] = [{} for _ in range(data.variables.n)]

    def score(self, child: int, parents: int) -> float:
        table = self._scores[child]
        got = table.get(parents)
        if got is None:
            got = _family_score(self._values, self._arities, child, tuple(_bits(parents)), self.cfg.ess)
            table[parents] = got
        return got

    def __len__(self):
        return sum(len(table) for table in self._scores)


def _resolve_family(data: DatasetTable, child, parents) -> tuple[int, tuple[int, ...]]:
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


def bdeu_family_score(data: DatasetTable, child, parents, cfg: BdeuConfig) -> float:
    """BDeu contribution of one family (child given its parent set)."""
    c, ps = _resolve_family(data, child, parents)
    arities = np.asarray(data.variables.arities, dtype=np.int64)
    return _family_score(data.values, arities, c, ps, cfg.ess)


def bdeu_score(dag: Dag, data: DatasetTable, cfg: BdeuConfig,
               cache: FamilyScoreCache | None = None) -> float:
    """Decomposable BDeu score: sum of family scores over all variables."""
    if dag.variables != data.variables:
        raise ValueError("dag and data are over different variable sets")
    if cache is None:
        cache = FamilyScoreCache(data, cfg)
    return math.fsum(cache.score(i, parents) for i, parents in enumerate(dag._pa))


def _descendants(pa: list[int], ch: list[int]) -> tuple[list[int], list[int]]:
    """Descendant closure of a DAG given as parent and child bitmasks.

    Returns (desc, via): desc[u] holds every node reachable from u, via[u]
    every node reachable from u through one of its children, that is by a
    path of two or more edges. Nodes are closed children before parents.
    """
    n = len(ch)
    desc, via = [0] * n, [0] * n
    open_children = list(ch)
    ready = [u for u in range(n) if not ch[u]]
    while ready:
        v = ready.pop()
        reach = desc[v] = ch[v] | via[v]
        bit = 1 << v
        for p in _bits(pa[v]):
            via[p] |= reach
            open_children[p] ^= bit
            if not open_children[p]:
                ready.append(p)
    return desc, via


def _move_candidates(pa: list[int], ch: list[int], allowed: Sequence[int]):
    """Yield (kind, u, v) index moves that keep the graph acyclic and layered.

    `pa` and `ch` are the graph's parent and child bitmasks per node and
    `allowed[u]` the bitmask of nodes that u may point to. Moves come in
    order of u, then v, with the delete of an edge before its reversal;
    hill_climb's tie-breaking depends on that order.
    """
    desc, via = _descendants(pa, ch)
    nodes = range(len(ch))
    for u in nodes:
        cu, au = ch[u], allowed[u]
        for v in nodes:
            if cu >> v & 1:
                yield ("delete", u, v)
                # reversal is legal iff no other path u ~> v remains
                if allowed[v] >> u & 1 and not via[u] >> v & 1:
                    yield ("reverse", u, v)
            elif au >> v & 1 and not desc[v] >> u & 1:
                yield ("add", u, v)


def legal_moves(dag: Dag, constraints: LayerConstraints) -> list[tuple[str, str, str]]:
    """All add/delete/reverse moves producing a legal acyclic graph."""
    if dag.variables != constraints.variables:
        raise ValueError("dag and constraints are over different variable sets")
    names = dag.variables.names
    moves = _move_candidates(dag._pa, dag._ch, constraints.child_masks)
    return [(kind, names[u], names[v]) for kind, u, v in moves]


def apply_move(dag: Dag, move: tuple[str, str, str]) -> Dag:
    out = dag.copy()
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


def hill_climb(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
               start: Dag, seed=0, cache: FamilyScoreCache | None = None) -> tuple[Dag, float]:
    """Steepest-ascent hill climbing from `start`.

    Applies the best-scoring legal move until no move improves the score by
    more than IMPROVEMENT_EPS. The graph is kept as parent and child
    bitmasks; deltas touch only the affected families and come from the
    shared score cache. Near-ties (within TIE_EPS of the best delta) are
    broken by a seeded random choice.
    """
    if cache is None:
        cache = FamilyScoreCache(data, cfg)
    score = cache.score
    rng = np.random.default_rng(seed)
    allowed = constraints.child_masks
    pa, ch = list(start._pa), list(start._ch)
    fam = [score(i, m) for i, m in enumerate(pa)]

    while True:
        best = 0.0
        candidates: list[tuple[float, tuple[str, int, int]]] = []
        for move in _move_candidates(pa, ch, allowed):
            kind, u, v = move
            if kind == "add":
                delta = score(v, pa[v] | 1 << u) - fam[v]
            elif kind == "delete":
                delta = removed = score(v, pa[v] ^ 1 << u) - fam[v]
            else:  # the delete of the same edge came just before
                delta = removed + (score(u, pa[u] | 1 << v) - fam[u])
            if delta > IMPROVEMENT_EPS:
                candidates.append((delta, move))
                if delta > best:
                    best = delta
        if not candidates:
            break
        ties = [m for d, m in candidates if best - d <= TIE_EPS]
        kind, u, v = ties[int(rng.integers(len(ties)))] if len(ties) > 1 else ties[0]
        if kind == "add":
            pa[v] |= 1 << u
            ch[u] |= 1 << v
        else:  # delete and reverse both drop u -> v
            pa[v] ^= 1 << u
            ch[u] ^= 1 << v
        fam[v] = score(v, pa[v])
        if kind == "reverse":
            pa[u] |= 1 << v
            ch[v] |= 1 << u
            fam[u] = score(u, pa[u])

    edges = [(u, v) for u, cu in enumerate(ch) for v in _bits(cu)]
    return Dag(start.variables, edges), math.fsum(fam)


def random_start(constraints: LayerConstraints, edge_probability: float, seed=0) -> Dag:
    """Sample a legal DAG: random topological order, edges kept with fixed probability."""
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    allowed = constraints.child_masks
    order = rng.permutation(constraints.variables.n).tolist()
    pairs = [(u, v) for a, u in enumerate(order) for v in order[a + 1:] if allowed[u] >> v & 1]
    draws = rng.random(len(pairs))
    return Dag(constraints.variables,
               [pair for pair, x in zip(pairs, draws) if x < edge_probability])


@dataclass
class Cpt:
    """Conditional probability table: one row per parent configuration.

    Parents are kept in variable-index order; the last parent varies fastest
    in the row index.
    """

    parents: tuple[int, ...]
    table: np.ndarray


@dataclass
class CptSet:
    variables: VariableSet
    cpts: tuple[Cpt, ...]

    def __getitem__(self, name: str) -> Cpt:
        return self.cpts[self.variables.index(name)]

    def to_json(self) -> dict:
        """Serialize keyed by variable, parent configurations in lexicographic parent order."""
        out = {}
        names = self.variables.names
        arities = self.variables.arities
        for i, cpt in enumerate(self.cpts):
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

    @classmethod
    def from_json(cls, obj: dict, variables: VariableSet) -> "CptSet":
        names = variables.names
        arities = variables.arities
        cpts = []
        for i, name in enumerate(names):
            entry = obj[name]
            lex_parents = tuple(variables.index(p) for p in entry["parents"])
            parents = tuple(sorted(lex_parents))
            q = int(np.prod([arities[p] for p in parents], initial=1))
            table = np.zeros((q, arities[i]))
            for key, row in entry["rows"].items():
                assign = {p: int(ch) for p, ch in zip(lex_parents, key)}
                j = 0
                for p in parents:
                    j = j * arities[p] + assign[p]
                table[j] = row
            cpts.append(Cpt(parents, table))
        return cls(variables, tuple(cpts))


def fit_mle(dag: Dag, data: DatasetTable) -> CptSet:
    """Maximum-likelihood CPTs; unobserved parent configurations get uniform rows."""
    arities = np.asarray(data.variables.arities, dtype=np.int64)
    cpts = []
    for i in range(data.variables.n):
        parents = tuple(sorted(dag.parent_indices(i)))
        counts = family_counts(data.values, np.asarray(parents, dtype=np.int64), i, arities)
        n_j = counts.sum(axis=1, keepdims=True)
        r = int(arities[i])
        with np.errstate(invalid="ignore", divide="ignore"):
            table = np.where(n_j > 0, counts / np.where(n_j > 0, n_j, 1.0), 1.0 / r)
        cpts.append(Cpt(parents, table))
    return CptSet(data.variables, tuple(cpts))


def joint_table(dag: Dag, cpts: CptSet) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate the full joint: returns (assignments (S, n) uint8, probabilities (S,))."""
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


def posterior_query(dag: Dag, cpts: CptSet, evidence: Mapping[str, int], query: str) -> np.ndarray:
    """Exact posterior of `query` given `evidence`, by full enumeration."""
    if query in evidence:
        raise ValueError("evidence must not include the query variable")
    var = dag.variables
    grids, probs = joint_table(dag, cpts)
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


def markov_blanket(dag: Dag, variable: str) -> set[str]:
    """Parents, children, and the children's other parents of `variable`."""
    i = dag.variables.index(variable)
    blanket = set(dag.parent_indices(i)) | set(dag.child_indices(i))
    for c in dag.child_indices(i):
        blanket |= set(dag.parent_indices(c))
    blanket.discard(i)
    return {dag.variables.names[j] for j in blanket}


def structural_hamming_distance(a: Dag, b: Dag) -> int:
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
