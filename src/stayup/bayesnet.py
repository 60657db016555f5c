"""Discrete Bayesian-network core.

DAGs under layer constraints, a dense table of BDeu family scores,
steepest-ascent hill climbing that advances many restarts in lockstep as
array code over parent bitmasks, MLE parameter fitting, the full joint by
enumeration, and Markov blankets. Everything operates on small
all-discrete variable sets, so a table of every family and an enumerated
joint are exact and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import seeding
from ._kernels import family_counts
from .special import lgamma_table

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

    @classmethod
    def from_parents(cls, variables: VariableSet, parents: Sequence[int]) -> "Dag":
        """A Dag from parent bitmasks that the caller knows to be acyclic."""
        dag = cls(variables)
        dag._pa = list(parents)
        for v, mask in enumerate(dag._pa):
            for u in _bits(mask):
                dag._ch[u] |= 1 << v
        return dag

    def _idx(self, v) -> int:
        return v if isinstance(v, int) else self.variables.index(v)

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
    def allowed(self) -> np.ndarray:
        """(n, n) bool array, true at [u, v] when u may point to v."""
        n = self.variables.n
        out = np.array([[self.allows(u, v) for v in range(n)] for u in range(n)])
        out.setflags(write=False)
        return out

    @cached_property
    def score_plan(self) -> list[_ScoreGroup]:
        """Where score_table reads the counts of every layer-legal family."""
        n = self.variables.n
        most_parents = [sum(1 << u for u in range(n) if self.allows(u, v)) for v in range(n)]
        return _score_plan(self.variables.arities, most_parents)


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
        if not 0 < self.ess < math.inf:
            raise ValueError("ess must be positive and finite")
        # a family of the profile variables with no parent or with all the
        # others gets the largest or the smallest Dirichlet weights of any
        # family; an ess past the float range of their log-gammas scores NaN
        for q in (1, 1 << len(PROFILE_VARIABLE_NAMES) - 1):
            counts = np.zeros((1, 2 * q), dtype=np.intp)
            totals = np.zeros((1, q), dtype=np.intp)
            counts[0, 0] = totals[0, 0] = 1
            with np.errstate(invalid="ignore"):
                if not np.isfinite(_bdeu(counts, totals, q, 2, self.ess)).all():
                    raise ValueError("ess is too large or too small for finite BDeu scores")


# --- BDeu scores ---------------------------------------------------------------
#
# Every family's counts are a marginal of the joint counts. The lattice holds
# all marginals at once: it has arity + 1 cells along each variable's axis,
# and the extra last cell of an axis holds the sum over that variable, so a
# subset's marginal is read where the variables outside it sit at their
# extra cell. That is prod(arity + 1) integer cells, 3**9 for nine binary
# variables.


def _lattice_counts(values: np.ndarray, arities: Sequence[int]) -> np.ndarray:
    """The flat lattice of every subset marginal of the rows' joint counts."""
    shape = tuple(a + 1 for a in arities)
    cube = np.bincount(np.ravel_multi_index(tuple(values.T), shape),
                       minlength=math.prod(shape)).reshape(shape)
    for axis, a in enumerate(arities):
        head = (slice(None),) * axis
        np.sum(cube[head + (slice(0, a),)], axis=axis, keepdims=True,
               out=cube[head + (slice(a, a + 1),)])
    return cube.ravel()


@dataclass(frozen=True)
class _ScoreGroup:
    """Families with q parent configurations and child arity r, as lattice cells."""

    q: int
    r: int
    child: np.ndarray      # (F,) child index
    parents: np.ndarray    # (F,) parent bitmask
    totals: np.ndarray     # (F, q) cell of each parent configuration, child summed out
    cells: np.ndarray      # (F, q * r) cell of each family cell


def _score_plan(arities: Sequence[int], most_parents: Sequence[int]) -> list[_ScoreGroup]:
    """Lattice cells of each child v with each parent mask inside most_parents[v].

    A family's cells are ordered by parent configuration, the last parent
    varying fastest, then by child value.
    """
    shape = tuple(a + 1 for a in arities)
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    top = sum(a * stride for a, stride in zip(arities, strides))   # every variable summed out
    # steps[v]: from a cell where v is summed out to the cells of each value of v
    steps = [(np.arange(a) - a) * stride for a, stride in zip(arities, strides)]
    # offsets[mask]: from the top cell to each configuration of the parents in mask
    offsets = {0: np.zeros(1, dtype=np.intp)}
    groups: dict[tuple[int, int], list] = {}
    for child, most in enumerate(most_parents):
        for mask in range(most + 1):
            if mask & ~most:
                continue
            if mask not in offsets:
                last = mask.bit_length() - 1
                offsets[mask] = (offsets[mask ^ 1 << last][:, None] + steps[last]).ravel()
            totals = top + offsets[mask]
            groups.setdefault((len(totals), arities[child]), []).append(
                (child, mask, totals, (totals[:, None] + steps[child]).ravel()))
    dtype = np.min_scalar_type(math.prod(shape) - 1)
    return [_ScoreGroup(q, r, np.array([f[0] for f in fams]), np.array([f[1] for f in fams]),
                        np.array([f[2] for f in fams], dtype=dtype),
                        np.array([f[3] for f in fams], dtype=dtype))
            for (q, r), fams in groups.items()]


def _bdeu(counts: np.ndarray, totals: np.ndarray, q: int, r: int, ess: float) -> np.ndarray:
    """BDeu scores of families of one (q, r) shape from their (F, q * r)
    counts and (F, q) parent-configuration totals."""
    a_jk = ess / (q * r)
    a_j = ess / q
    row = lgamma_table(a_j, int(totals.max(initial=0)))
    cell = lgamma_table(a_jk, int(counts.max(initial=0)))
    row_terms = (row[0] - row)[totals]
    cell_terms = (cell - cell[0])[counts]
    return row_terms.sum(axis=1) + cell_terms.sum(axis=1)


def score_table(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig) -> np.ndarray:
    """BDeu score of every layer-legal family as an (n, 2**n) array.

    Entry [v, mask] scores child v under the parents in bitmask `mask`;
    families the layers rule out hold NaN. Raises ValueError when a legal
    family's score is not finite, as for an ess near 0 or the float limit.
    """
    if data.variables != constraints.variables:
        raise ValueError("data and constraints are over different variable sets")
    n = data.variables.n
    lattice = _lattice_counts(data.values, data.variables.arities)
    table = np.full((n, 1 << n), np.nan)
    bad = []   # (child, parent mask) of each family whose score is not finite
    for g in constraints.score_plan:
        table[g.child, g.parents] = scores = _bdeu(lattice[g.cells], lattice[g.totals],
                                                   g.q, g.r, cfg.ess)
        lost = ~np.isfinite(scores)
        bad += zip(g.child[lost].tolist(), g.parents[lost].tolist())
    if bad:
        child, mask = min(bad)
        names = data.variables.names
        raise ValueError(f"ess={cfg.ess!r} gives a non-finite BDeu score, first for "
                         f"{names[child]} given {{{', '.join(names[u] for u in _bits(mask))}}}")
    return table


# --- search -----------------------------------------------------------------------
#
# A batch of R graphs is an (R, n) array of parent bitmasks. Moves sit in an
# (R, n, n, 2) array in the order hill climbing breaks ties by: u, then v,
# then slot 0 (delete u -> v if present, else add it) before slot 1 (reverse
# u -> v).

def _closures(pa: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(adj, desc, via), each (R, n, n) bool, of graphs given by parent bitmasks.

    adj[r, u, v] is the edge u -> v, desc[r, u, v] a path u ~> v of one or
    more edges, and via[r, u, v] one of two or more edges, that is through a
    child of u.
    """
    n = pa.shape[1]
    adj = (pa[:, None, :] >> np.arange(n)[:, None] & 1).astype(np.float32)
    desc = adj   # 0/1 floats: float matmul is many times faster than bool matmul
    for _ in range(max(n - 2, 0).bit_length()):   # paths of up to 2**k >= n - 1 edges
        desc = np.minimum(desc + desc @ desc, 1)
    return adj > 0, desc > 0, adj @ desc > 0


def _legal(adj: np.ndarray, desc: np.ndarray, via: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """(R, n, n, 2) mask of the moves that keep each graph acyclic and layered.

    An add u -> v needs the layers' consent and no path v ~> u; a reversal
    needs the layers to allow v -> u and no other path u ~> v.
    """
    legal = np.empty(adj.shape + (2,), dtype=bool)
    legal[..., 0] = adj | allowed & ~desc.swapaxes(1, 2)
    legal[..., 1] = adj & allowed.T & ~via
    return legal


def climb_batch(table: np.ndarray, constraints: LayerConstraints, start_masks,
                seeds: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Steepest-ascent hill climbs from R starts, advanced in lockstep.

    `start_masks` holds each start's parent bitmasks and `table` the family
    scores (see score_table). Every step scores all moves of all running
    climbs, and each climb applies its best legal move until none improves
    its score by more than IMPROVEMENT_EPS. A reversal's delta is the
    delete's delta plus the second family's. Near-ties (within TIE_EPS of
    the best delta) are broken by a draw from the climb's own generator,
    the same stream as default_rng(seed), built the first time the climb
    meets a tie (most climbs never do); the climbs that first tie in one
    step hash their seeds together.
    Returns the (R, n) int64 parent bitmasks of the climbs' DAGs and their
    (R,) float64 scores, each the math.fsum of its family scores.
    """
    n = constraints.variables.n
    pa = np.array(start_masks, dtype=np.int64).reshape(-1, n)
    if len(seeds) != len(pa):
        raise ValueError("one seed per start required")
    if table.shape != (n, 1 << n):
        raise ValueError(f"score table must be ({n}, {1 << n}) for {n} variables")
    bits = 1 << np.arange(n)
    flat = table.ravel()
    rows = np.arange(n) << n   # where each child's scores start in `flat`
    if np.isnan(flat.take(pa | rows)).any():
        raise ValueError("a start has a family outside the score table")
    if _closures(pa)[1].diagonal(axis1=1, axis2=2).any():
        raise ValueError("a start graph has a cycle")
    allowed = constraints.allowed
    rngs: list[np.random.Generator | None] = [None] * len(pa)
    active = np.arange(len(pa))
    while active.size:
        cur = pa[active]
        adj, desc, via = _closures(cur)
        family = cur | rows
        fam = flat.take(family)
        delta = np.empty(adj.shape + (2,))
        delta[..., 0] = flat.take(family[:, None, :] ^ bits[:, None]) - fam[:, None, :]
        delta[..., 1] = delta[..., 0] + (flat.take(family[:, :, None] | bits) - fam[:, :, None])
        moves = (_legal(adj, desc, via, allowed) & (delta > IMPROVEMENT_EPS)).reshape(len(cur), -1)
        going = moves.any(axis=1)
        active, moves, delta = active[going], moves[going], delta.reshape(len(cur), -1)[going]
        best = np.where(moves, delta, -np.inf).max(axis=1)
        ties = moves & (best[:, None] - delta <= TIE_EPS)
        count = ties.sum(axis=1)
        pick = ties.argmax(axis=1)
        tied = np.flatnonzero(count > 1).tolist()
        fresh = [c for c in active[tied].tolist() if rngs[c] is None]
        if fresh:
            for c, generator in zip(fresh, seeding.generators([seeds[c] for c in fresh])):
                rngs[c] = generator
        for i in tied:
            pick[i] = np.flatnonzero(ties[i])[rngs[active[i]].integers(int(count[i]))]
        u, v, reverse = pick // (2 * n), pick // 2 % n, pick % 2 == 1
        pa[active, v] ^= bits[u]   # add, delete, or drop u -> v before the reversal
        pa[active[reverse], u[reverse]] |= bits[v[reverse]]
    return pa, np.array([math.fsum(scores) for scores in flat.take(pa | rows).tolist()])


def hill_climb(data: DatasetTable, constraints: LayerConstraints, cfg: BdeuConfig,
               start: Dag, seed=0, table: np.ndarray | None = None) -> tuple[Dag, float]:
    """Steepest-ascent hill climbing from `start`: climb_batch with one climb.

    Without `table` every family is scored, so a start that breaks the
    layers can still be climbed; pass a score_table to climb the same data
    more than once.
    """
    if table is None:
        table = score_table(data, LayerConstraints.unconstrained(data.variables), cfg)
    masks, scores = climb_batch(table, constraints, [start._pa], [seed])
    return Dag.from_parents(constraints.variables, masks[0].tolist()), float(scores[0])


def random_start_masks(constraints: LayerConstraints, edge_probability: float,
                       seeds: Sequence) -> np.ndarray:
    """(R, n) parent bitmasks of random legal DAGs, one per seed.

    Each seed's generator, the same stream as default_rng(seed), draws a
    topological order, then one uniform per layer-allowed forward pair in
    order; a pair becomes an edge when its draw is below `edge_probability`.
    The seeds are hashed together (seeding.generators).
    """
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must be in [0, 1]")
    n = constraints.variables.n
    rngs = seeding.generators(seeds)
    order = np.array([rng.permutation(n) for rng in rngs]).reshape(-1, n)
    # forward[r, a, b]: order[r, a] -> order[r, b] is allowed and a < b
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    forward = constraints.allowed[order[:, :, None], order[:, None, :]] & upper
    # np.nonzero lists each seed's pairs in order, where its draws go
    draws = np.concatenate([np.empty(0)] + [rng.random(int(k)) for rng, k
                                            in zip(rngs, forward.sum(axis=(1, 2)))])
    r, a, b = (index[draws < edge_probability] for index in np.nonzero(forward))
    parents = np.zeros((len(rngs), n), dtype=np.int64)
    np.bitwise_or.at(parents, (r, order[r, b]), 1 << order[r, a])
    return parents


def random_start(constraints: LayerConstraints, edge_probability: float, seed=0) -> Dag:
    """Sample a legal DAG: random topological order, edges kept with fixed probability."""
    parents = random_start_masks(constraints, edge_probability, [seed])[0]
    return Dag.from_parents(constraints.variables, parents.tolist())


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


def markov_blanket(dag: Dag, variable: str) -> set[str]:
    """Parents, children, and the children's other parents of `variable`."""
    i = dag.variables.index(variable)
    blanket = set(dag.parent_indices(i)) | set(dag.child_indices(i))
    for c in dag.child_indices(i):
        blanket |= set(dag.parent_indices(c))
    blanket.discard(i)
    return {dag.variables.names[j] for j in blanket}

