import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import gammaln

from stayup import bayesnet as bn
from stayup import seeding, synth
from stayup._kernels import family_counts

import reference

CFG = bn.BdeuConfig()


def random_table(rng, n_rows, names=("A", "B", "C")):
    var = bn.VariableSet.binary(names)
    return bn.DatasetTable(var, rng.integers(0, 2, size=(n_rows, len(names))))


def sequential_bdeu_oracle(data, child, parents, ess):
    """Chain-rule Dirichlet-multinomial marginal likelihood, row by row."""
    var = data.variables
    ci = var.index(child)
    ps = [var.index(p) for p in parents]
    r = var.arities[ci]
    q = 1
    for p in ps:
        q *= var.arities[p]
    a_jk = ess / (q * r)
    a_j = ess / q
    n_jk: dict = {}
    n_j: dict = {}
    total = 0.0
    for row in data.values:
        j = tuple(int(row[p]) for p in ps)
        k = int(row[ci])
        total += math.log((a_jk + n_jk.get((j, k), 0)) / (a_j + n_j.get(j, 0)))
        n_jk[(j, k)] = n_jk.get((j, k), 0) + 1
        n_j[j] = n_j.get(j, 0) + 1
    return total


def all_dags(names):
    """Every labeled DAG over the given variables."""
    var = bn.VariableSet.binary(names)
    pairs = [(u, v) for u in names for v in names if u != v]
    out = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        edges = [p for p, b in zip(pairs, bits) if b]
        if any((v, u) in edges for u, v in edges):
            continue
        try:
            out.append(bn.Dag(var, edges))
        except ValueError:
            continue
    return out


class TestDag:
    def test_cycle_rejected(self):
        var = bn.VariableSet.binary(["A", "B", "C"])
        with pytest.raises(ValueError, match="^edge A->B lies on a cycle$"):
            bn.Dag(var, [("B", "C"), ("C", "A"), ("A", "B")])
        dag = reference.EditableDag(var, [("A", "B"), ("B", "C")])
        with pytest.raises(ValueError, match="^edge C->A would create a cycle$"):
            dag.add_edge("C", "A")

    @pytest.mark.parametrize("n", range(2, 10))
    def test_cycle_through_every_variable_rejected(self, n):
        # the closure's paths reach 2**k >= n - 1 edges, one short of an
        # n-cycle when n - 1 is a power of two
        var = bn.VariableSet.binary("ABCDEFGHI"[:n])
        cycle = [(var.names[i], var.names[(i + 1) % n]) for i in range(n)]
        with pytest.raises(ValueError, match="lies on a cycle"):
            bn.Dag(var, cycle)
        bn.Dag(var, cycle[1:])

    def test_self_loop_rejected(self):
        var = bn.VariableSet.binary(["A", "B"])
        with pytest.raises(ValueError):
            bn.Dag(var, [("A", "A")])

    def test_to_json_lists_edges_by_name(self):
        var = bn.VariableSet.binary(["A", "B", "C"])
        dag = bn.Dag(var, [("B", "C"), ("A", "C")])
        assert dag.to_json() == {"variables": ["A", "B", "C"], "edges": [["A", "C"], ["B", "C"]]}

    def test_three_node_dag_count_is_25(self):
        assert len(all_dags(["A", "B", "C"])) == 25

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_edge_by_edge_insertion(self, data):
        # any edge list, self loops, repeats and cycles among them: the
        # constructor's one check accepts what insertion one edge at a time
        # accepts, and the parent masks give the child-mask views
        n = data.draw(st.integers(2, 6))
        var = bn.VariableSet.binary("ABCDEF"[:n])
        node = st.sampled_from(var.names)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=n * n))
        try:
            want = reference.EditableDag(var, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                bn.Dag(var, edges)
            if "cycle" not in str(exc):   # a self loop or repeat before any cycle
                assert str(got.value) == str(exc)
            return
        got = bn.Dag(var, edges)
        assert got._pa == want._pa
        assert got.edges() == want.edges()
        assert [got.child_indices(v) for v in range(n)] == [want.child_indices(v) for v in range(n)]
        assert got.topological_order() == want.topological_order()


class TestBdeuFamilyScore:
    def test_empty_dataset_scores_zero(self):
        var = bn.VariableSet.binary(["A", "B"])
        data = bn.DatasetTable(var, np.zeros((0, 2)))
        assert reference.bdeu_family_score(data, "A", [], CFG) == 0.0
        assert reference.bdeu_family_score(data, "A", ["B"], CFG) == 0.0

    def test_single_observation_parentless(self):
        var = bn.VariableSet.binary(["A"])
        data = bn.DatasetTable(var, [[1]])
        score = reference.bdeu_family_score(data, "A", [], CFG)
        assert score == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(5)
        names = ("A", "B", "C", "D")
        for _ in range(60):
            data = random_table(rng, int(rng.integers(0, 200)), names)
            child = str(rng.choice(names))
            others = [n for n in names if n != child]
            parents = list(rng.choice(others, size=int(rng.integers(0, 4)), replace=False))
            ess = float(rng.choice([0.5, 1.0, 2.0, 10.0]))
            got = reference.bdeu_family_score(data, child, parents, bn.BdeuConfig(ess))
            want = sequential_bdeu_oracle(data, child, parents, ess)
            assert got == pytest.approx(want, abs=1e-9)

    def test_child_in_parents_rejected(self):
        rng = np.random.default_rng(0)
        data = random_table(rng, 10)
        with pytest.raises(ValueError):
            reference.bdeu_family_score(data, "A", ["A"], CFG)


class TestBdeuScore:
    def test_empty_graph_decomposes(self):
        rng = np.random.default_rng(7)
        data = random_table(rng, 80)
        dag = bn.Dag(data.variables)
        total = sum(reference.bdeu_family_score(data, n, [], CFG) for n in data.variables.names)
        assert reference.bdeu_score(dag, data, CFG) == pytest.approx(total, rel=1e-12)

    def test_markov_equivalent_pair_scores_equal(self):
        rng = np.random.default_rng(8)
        data = random_table(rng, 150, ("A", "B"))
        a = reference.bdeu_score(bn.Dag(data.variables, [("A", "B")]), data, CFG)
        b = reference.bdeu_score(bn.Dag(data.variables, [("B", "A")]), data, CFG)
        assert a == pytest.approx(b, abs=1e-9)

    def test_equivalence_classes_share_scores(self):
        # group all 25 three-node DAGs by (skeleton, immoralities)
        rng = np.random.default_rng(9)
        data = random_table(rng, 200)
        classes: dict = {}
        for dag in all_dags(data.variables.names):
            skeleton = frozenset(frozenset(e) for e in dag.edges())
            immoral = set()
            for v in data.variables.names:
                for p1, p2 in itertools.combinations(sorted(dag.parents(v)), 2):
                    if not dag.has_edge(p1, p2) and not dag.has_edge(p2, p1):
                        immoral.add((p1, p2, v))
            classes.setdefault((skeleton, frozenset(immoral)), []).append(
                reference.bdeu_score(dag, data, CFG)
            )
        for scores in classes.values():
            assert max(scores) - min(scores) <= 1e-9

    def test_disconnected_variable_adds_its_family_score(self):
        rng = np.random.default_rng(10)
        values = rng.integers(0, 2, size=(120, 3))
        data3 = bn.DatasetTable(bn.VariableSet.binary(["A", "B", "C"]), values)
        data2 = bn.DatasetTable(bn.VariableSet.binary(["A", "B"]), values[:, :2])
        dag3 = bn.Dag(data3.variables, [("A", "B")])
        dag2 = bn.Dag(data2.variables, [("A", "B")])
        extra = reference.bdeu_score(dag3, data3, CFG) - reference.bdeu_score(dag2, data2, CFG)
        assert extra == pytest.approx(reference.bdeu_family_score(data3, "C", [], CFG), rel=1e-12)

    def test_decomposability_delta(self):
        rng = np.random.default_rng(11)
        names = ("A", "B", "C", "D")
        for _ in range(40):
            data = random_table(rng, 100, names)
            constraints = bn.LayerConstraints.unconstrained(data.variables)
            dag = bn.random_start(constraints, 0.4, seed=int(rng.integers(2**31)))
            adds = [m for m in reference.legal_moves(dag, constraints) if m[0] == "add"]
            if not adds:
                continue
            _, u, v = adds[int(rng.integers(len(adds)))]
            bigger = reference.copy_dag(dag)
            bigger.add_edge(u, v)
            full_delta = (reference.bdeu_score(bigger, data, CFG)
                          - reference.bdeu_score(dag, data, CFG))
            family_delta = reference.bdeu_family_score(
                data, v, bigger.parents(v), CFG
            ) - reference.bdeu_family_score(data, v, dag.parents(v), CFG)
            assert full_delta == pytest.approx(family_delta, abs=1e-9)
            # untouched families are literally the same numbers
            for name in names:
                if name != v:
                    assert reference.bdeu_family_score(data, name, dag.parents(name), CFG) == \
                        reference.bdeu_family_score(data, name, bigger.parents(name), CFG)


class TestLayerConstraints:
    def test_default_blacklist(self):
        constraints = bn.default_layer_constraints()
        assert not reference.allows_edge(constraints, "R", "G")   # nothing points at G
        assert not reference.allows_edge(constraints, "Ac", "S")  # nothing leaves Ac
        assert reference.allows_edge(constraints, "G", "S")
        assert reference.allows_edge(constraints, "A", "T")
        assert reference.allows_edge(constraints, "S", "Ac")

    def test_no_move_violates_blacklist(self):
        constraints = bn.default_layer_constraints()
        dag = bn.Dag(constraints.variables)
        for kind, u, v in reference.legal_moves(dag, constraints):
            assert v != "G" and u != "Ac"


def brute_force_moves(dag, constraints):
    """Legal moves found by building every candidate graph, in generator order."""
    var = dag.variables
    edges = dag.edges()
    want = []
    for u, v in itertools.permutations(var.names, 2):
        if dag.has_edge(u, v):
            want.append(("delete", u, v))
            rev = [e for e in edges if e != (u, v)] + [(v, u)]
            if reference.allows_edge(constraints, v, u):
                try:
                    bn.Dag(var, rev)
                    want.append(("reverse", u, v))
                except ValueError:
                    pass
        elif reference.allows_edge(constraints, u, v):
            try:
                bn.Dag(var, edges + [(u, v)])
                want.append(("add", u, v))
            except ValueError:
                pass
    return want


@st.composite
def layered_dags(draw):
    """A random DAG (random order, random forward edges) under random layers."""
    n = draw(st.integers(2, 6))
    names = tuple("ABCDEF"[:n])
    var = bn.VariableSet.binary(names)
    constraints = bn.LayerConstraints(var, tuple(draw(st.lists(
        st.integers(1, 3), min_size=n, max_size=n))))
    order = draw(st.permutations(range(n)))
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(names[u], names[v]) for (u, v), k in zip(pairs, keep) if k]
    return bn.Dag(var, edges), constraints


class TestLegalMoves:
    def test_matches_brute_force(self):
        var = bn.VariableSet.binary(["A", "B", "C", "D"])
        constraints = bn.LayerConstraints(var, (1, 2, 2, 3))
        for trial in range(25):
            dag = bn.random_start(constraints, 0.4, seed=trial)
            assert reference.legal_moves(dag, constraints) == brute_force_moves(dag, constraints)

    @settings(max_examples=300, deadline=None)
    @given(layered_dags())
    def test_matches_brute_force_on_random_layered_dags(self, case):
        # the start may break its layers; deletes and reversals still apply
        dag, constraints = case
        assert reference.legal_moves(dag, constraints) == brute_force_moves(dag, constraints)

    def test_same_order_as_reference_generator(self):
        for constraints in (bn.default_layer_constraints(),
                            bn.LayerConstraints.unconstrained(bn.profile_variables())):
            names = constraints.variables.names
            for seed in range(60):
                dag = bn.random_start(constraints, (0.0, 0.15, 0.4, 1.0)[seed % 4], seed=seed)
                want = [(kind, names[u], names[v])
                        for kind, u, v in ref_move_candidates(reference.copy_dag(dag), constraints)]
                assert reference.legal_moves(dag, constraints) == want

    def test_delete_and_reverse_present_for_existing_edge(self):
        var = bn.VariableSet.binary(["R", "S"])
        constraints = bn.LayerConstraints.unconstrained(var)
        dag = bn.Dag(var, [("R", "S")])
        moves = set(reference.legal_moves(dag, constraints))
        assert ("delete", "R", "S") in moves
        assert ("reverse", "R", "S") in moves

    def test_cycle_blocking_add_absent(self):
        var = bn.VariableSet.binary(["A", "B", "C"])
        constraints = bn.LayerConstraints.unconstrained(var)
        dag = bn.Dag(var, [("A", "B"), ("B", "C")])
        assert ("add", "C", "A") not in reference.legal_moves(dag, constraints)


class TestRandomStart:
    def test_zero_probability_empty(self):
        constraints = bn.default_layer_constraints()
        assert bn.random_start(constraints, 0.0, seed=4).edges() == []

    def test_unit_probability_maximal_for_order(self):
        constraints = bn.default_layer_constraints()
        dag = bn.random_start(constraints, 1.0, seed=4)
        # every layer-legal edge pointing forward in the sampled order is present
        order = reference.stream_permutation(reference.stream_key(4), constraints.variables.n)
        names = constraints.variables.names
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                u, v = int(order[a]), int(order[b])
                if constraints.allows(u, v):
                    assert dag.has_edge(names[u], names[v])

    def test_deterministic(self):
        constraints = bn.default_layer_constraints()
        a = bn.random_start(constraints, 0.3, seed=99)
        b = bn.random_start(constraints, 0.3, seed=99)
        assert a == b

    def test_always_legal(self):
        constraints = bn.default_layer_constraints()
        for seed in range(40):
            dag = bn.random_start(constraints, 0.5, seed=seed)
            idx = constraints.variables.index
            assert all(constraints.allowed[idx(u), idx(v)] for u, v in dag.edges())

    def test_matches_reference_draws(self):
        # one bulk draw gives the same edges as one scalar draw per pair
        for constraints in (bn.default_layer_constraints(),
                            bn.LayerConstraints.unconstrained(bn.profile_variables())):
            for p in (0.0, 0.15, 0.4, 1.0):
                for seed in range(200):
                    got = bn.random_start(constraints, p, seed=seed)
                    want = ref_random_start(constraints, p, seed=seed)
                    assert got.edges() == want.edges()

    def test_masks_match_per_seed_reference(self):
        # ensemble-shaped seed lists (a 64-bit run seed, then restart and role)
        # next to ints and lists of other lengths, all in one batch
        seeds = [[2**64 - 1 - r, r, 0] for r in range(40)] + [[2**63, 7, r, 0] for r in range(20)]
        seeds += [0, 1, 2**32, 2**70, [3], [2**32 + 5, 0], [0, 0, 0, 0, 0, 0, 0, 0]]
        for constraints in (bn.default_layer_constraints(),
                            bn.LayerConstraints.unconstrained(bn.profile_variables())):
            for p in (0.0, 0.3, 1.0):
                np.testing.assert_array_equal(
                    bn.random_start_masks(constraints, p, seeding.keys(seeds)),
                    ref_random_start_masks(constraints, p, seeds))


def _sample_from_dag(rng, dag, cpts, n):
    var = dag.variables
    values = np.zeros((n, var.n), dtype=np.uint8)
    for i in dag.topological_order():
        cpt = cpts.cpts[i]
        j = np.zeros(n, dtype=np.int64)
        for p in cpt.parents:
            j = j * var.arities[p] + values[:, p]
        values[:, i] = rng.random(n) < cpt.table[j, 1]
    return bn.DatasetTable(var, values)


class TestHillClimb:
    def test_independent_data_yields_empty_graph(self):
        rng = np.random.default_rng(13)
        data = random_table(rng, 4000, ("A", "B", "C", "D"))
        constraints = bn.LayerConstraints.unconstrained(data.variables)
        dag, _ = bn.hill_climb(data, constraints, CFG, bn.Dag(data.variables), seed=0)
        assert dag.edges() == []
        start = bn.random_start(constraints, 0.5, seed=3)
        dag2, _ = bn.hill_climb(data, constraints, CFG, start, seed=0)
        assert dag2.edges() == []

    def test_local_optimum_is_fixed_point(self):
        rng = np.random.default_rng(14)
        data = random_table(rng, 300)
        constraints = bn.LayerConstraints.unconstrained(data.variables)
        dag, score = bn.hill_climb(data, constraints, CFG, bn.Dag(data.variables), seed=1)
        again, score2 = bn.hill_climb(data, constraints, CFG, dag, seed=2)
        assert again == dag
        assert score2 == score

    def test_never_decreases_start_score(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            data = random_table(rng, 120, ("A", "B", "C", "D"))
            constraints = bn.LayerConstraints.unconstrained(data.variables)
            start = bn.random_start(constraints, 0.5, seed=trial)
            _, score = bn.hill_climb(data, constraints, CFG, start, seed=trial)
            assert score >= reference.bdeu_score(start, data, CFG) - 1e-12

    def test_finds_exhaustive_optimum_with_restarts(self):
        rng = np.random.default_rng(16)
        hits = 0
        trials = 20
        for trial in range(trials):
            truth = all_dags(["A", "B", "C"])[int(rng.integers(25))]
            cpts = bn.fit_mle(truth, random_table(rng, 50))  # arbitrary CPTs
            data = _sample_from_dag(rng, truth, cpts, 500)
            constraints = bn.LayerConstraints.unconstrained(data.variables)
            best = -np.inf
            table = bn.score_table(data, constraints, CFG)
            for r in range(20):
                start = bn.random_start(constraints, 0.3, seed=[trial, r])
                _, score = bn.hill_climb(data, constraints, CFG, start,
                                         seed=[trial, r, 1], table=table)
                best = max(best, score)
            optimum = max(reference.bdeu_score(d, data, CFG, table=table)
                          for d in all_dags(["A", "B", "C"]))
            if abs(best - optimum) <= 1e-9:
                hits += 1
        assert hits >= 0.95 * trials

    def test_incremental_deltas_match_full_rescoring(self):
        rng = np.random.default_rng(17)
        data = random_table(rng, 150, ("A", "B", "C", "D"))
        constraints = bn.LayerConstraints.unconstrained(data.variables)
        dag = bn.Dag(data.variables)
        table = bn.score_table(data, constraints, CFG)
        for _ in range(30):
            moves = reference.legal_moves(dag, constraints)
            move = moves[int(rng.integers(len(moves)))]
            nxt = reference.apply_move(dag, move)
            full = (reference.bdeu_score(nxt, data, CFG, table=table)
                    - reference.bdeu_score(dag, data, CFG, table=table))
            kind, u, v = move
            if kind == "reverse":
                inc = (
                    reference.bdeu_family_score(data, v, nxt.parents(v), CFG)
                    - reference.bdeu_family_score(data, v, dag.parents(v), CFG)
                    + reference.bdeu_family_score(data, u, nxt.parents(u), CFG)
                    - reference.bdeu_family_score(data, u, dag.parents(u), CFG)
                )
            else:
                inc = reference.bdeu_family_score(data, v, nxt.parents(v), CFG) - \
                    reference.bdeu_family_score(data, v, dag.parents(v), CFG)
            assert full == pytest.approx(inc, abs=1e-9)
            dag = nxt

    def test_respects_layers(self):
        constraints = bn.default_layer_constraints()
        var = constraints.variables
        data = bn.DatasetTable(var, np.random.default_rng(3).integers(0, 2, (400, 9)))
        for seed in range(5):
            start = bn.random_start(constraints, 0.2, seed=seed)
            dag, _ = bn.hill_climb(data, constraints, CFG, start, seed=seed)
            idx = var.index
            assert all(constraints.allowed[idx(u), idx(v)] for u, v in dag.edges())


def profile_table(rng, tie_heavy):
    """Nine binary columns with planted dependencies; optionally with exact ties.

    Tie-heavy tables copy two columns into others and hold one constant, so
    many moves score exactly alike and the seeded tie-break decides.
    """
    n_rows = int(rng.integers(30, 400))
    values = rng.integers(0, 2, size=(n_rows, 9))
    for j in range(1, 9):
        src = int(rng.integers(j))
        values[:, j] = np.where(rng.random(n_rows) < 0.3, values[:, src], values[:, j])
    if tie_heavy:
        values[:, 3] = values[:, 1]
        values[:, 6] = values[:, 2]
        values[:, int(rng.choice([4, 5, 7]))] = 0
    return bn.DatasetTable(bn.profile_variables(), values)


def with_ternary(rng, data, column=4):
    """The table with one column redrawn over three values."""
    names = data.variables.names
    arities = tuple(3 if j == column else a for j, a in enumerate(data.variables.arities))
    values = data.values.copy()
    values[:, column] = (values[:, column] + rng.integers(0, 2, data.n_rows)) % 3
    return bn.DatasetTable(bn.VariableSet(names, arities), values)


def layer_sets(variables):
    return (bn.LayerConstraints(variables, bn.default_layer_constraints().layers),
            bn.LayerConstraints.unconstrained(variables))


class TestScoreTable:
    def test_equals_reference_scores(self):
        rng = np.random.default_rng(41)
        for t in range(16):
            data = profile_table(rng, tie_heavy=t % 2 == 1)
            if t % 4 == 0:
                data = data.subset(np.arange(0))
            if t % 4 == 2:
                data = reference.generator_permute_columns(data, rng)
            if t % 3 == 1:
                data = with_ternary(rng, data)
            cfg = bn.BdeuConfig(float(rng.choice([0.5, 1.0, 4.0])))
            cache = FamilyScoreCache(data, cfg)
            for layered, constraints in zip((True, False), layer_sets(data.variables)):
                table = bn.score_table(data, constraints, cfg)
                assert table.shape == (9, 512)
                n_legal = 0
                for v in range(9):
                    most = sum(1 << u for u in range(9) if constraints.allows(u, v))
                    for mask in range(512):
                        if mask & ~most:
                            assert np.isnan(table[v, mask])
                        else:
                            assert table[v, mask] == cache.score(v, mask)
                            n_legal += 1
                assert n_legal == (1153 if layered else 9 * 256)

    def test_bdeu_score_reads_the_table(self):
        rng = np.random.default_rng(42)
        data = profile_table(rng, tie_heavy=False)
        constraints = bn.default_layer_constraints()
        table = bn.score_table(data, constraints, CFG)
        for seed in range(20):
            dag = bn.random_start(constraints, 0.3, seed=seed)
            assert (reference.bdeu_score(dag, data, CFG, table=table)
                    == reference.bdeu_score(dag, data, CFG))
        against_layers = bn.Dag(data.variables, [("S", "G")])
        with pytest.raises(ValueError, match="lacks a family"):
            reference.bdeu_score(against_layers, data, CFG, table=table)

    def test_other_variables_rejected(self):
        data = random_table(np.random.default_rng(0), 10)
        with pytest.raises(ValueError, match="different variable sets"):
            bn.score_table(data, bn.default_layer_constraints(), CFG)

    def test_non_finite_scores_rejected(self):
        # every family scores NaN at this ess; the first in (child, mask) order is named
        data = profile_table(np.random.default_rng(45), tie_heavy=False)
        cfg = bn.BdeuConfig()
        object.__setattr__(cfg, "ess", 1e308)   # past BdeuConfig's own check
        with np.errstate(invalid="ignore"), pytest.raises(
                ValueError, match=r"^ess=1e\+308 gives a non-finite BDeu score, first for G given \{\}$"):
            bn.score_table(data, bn.default_layer_constraints(), cfg)

    @pytest.mark.parametrize("ess", [0.0, -1.0, math.inf, math.nan])
    def test_ess_must_be_positive_and_finite(self, ess):
        with pytest.raises(ValueError, match="ess must be positive and finite"):
            bn.BdeuConfig(ess)

    @pytest.mark.parametrize("ess", [1e308, 3e305, 1e-306, 1e-320])
    def test_ess_must_keep_scores_finite(self, ess):
        with pytest.raises(ValueError, match="^ess is too large or too small for finite BDeu"):
            bn.BdeuConfig(ess)

    @pytest.mark.parametrize("ess", [2.5e305, 1e-305])
    def test_an_accepted_ess_scores_finitely(self, ess):
        # near the bounds of BdeuConfig's check; score_table raises on a non-finite score
        data = profile_table(np.random.default_rng(45), tie_heavy=False)
        table = bn.score_table(data, bn.default_layer_constraints(), bn.BdeuConfig(ess))
        assert np.isfinite(table[~np.isnan(table)]).all()


# The score table that the subset-marginal lattice replaced: one projection
# of the joint cells per family, through which a weighted bincount of the
# occupied joint cells gives the family's counts, 64 families at a time.

def projection_plan(arities, families):
    """(q, r, children, parent masks, (F, joint cells) family cell of each joint cell) per shape."""
    size = math.prod(arities)
    grid = np.unravel_index(np.arange(size), arities)
    groups = {}
    for child, mask in families:
        parents = tuple(bn._bits(mask))
        dims = tuple(arities[p] for p in parents) + (arities[child],)
        cells = np.ravel_multi_index(tuple(grid[p] for p in parents) + (grid[child],), dims)
        groups.setdefault((math.prod(dims[:-1]), dims[-1]), []).append((child, mask, cells))
    return [(q, r, np.array([f[0] for f in fams]), np.array([f[1] for f in fams]),
             np.stack([f[2] for f in fams])) for (q, r), fams in groups.items()]


def projection_bdeu(cells, weights, q, r, ess):
    f, m = cells.shape[0], q * r
    index = cells + np.arange(0, f * m, m)[:, None]
    counts = np.bincount(index.ravel(), np.broadcast_to(weights, index.shape).ravel(), f * m)
    counts = counts.astype(np.intp).reshape(f, q, r)
    n_j = counts.sum(axis=2)
    k = np.arange(n_j.max(initial=0) + 1)
    a_jk = ess / (q * r)
    a_j = ess / q
    row_terms = (gammaln(a_j) - gammaln(a_j + k))[n_j]
    cell_terms = (gammaln(a_jk + k) - gammaln(a_jk))[counts]
    return row_terms.sum(axis=1) + cell_terms.reshape(f, m).sum(axis=1)


def projection_score_table(data, constraints, cfg):
    arities = data.variables.arities
    n = data.variables.n
    families = [(v, mask) for v in range(n) for mask in range(1 << n)
                if all(constraints.allows(u, v) for u in bn._bits(mask))]
    joint = np.bincount(np.ravel_multi_index(tuple(data.values.T), arities),
                        minlength=math.prod(arities))
    occupied = np.flatnonzero(joint)
    table = np.full((n, 1 << n), np.nan)
    for q, r, child, parents, cells in projection_plan(arities, families):
        for lo in range(0, len(child), 64):
            part = slice(lo, lo + 64)
            table[child[part], parents[part]] = projection_bdeu(
                cells[part][:, occupied], joint[occupied], q, r, cfg.ess)
    return table


@st.composite
def scored_tables(draw):
    """A table of 0, 1 or many rows over 1-6 variables of arity 2-4, with
    random layers and ESS; columns copy others at times, so counts pile up."""
    n = draw(st.integers(1, 6))
    arities = tuple(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)))
    layers = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    n_rows = draw(st.sampled_from([0, 1, 2, 57, 400]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, arities, size=(n_rows, n))
    for j in range(1, n):
        if draw(st.booleans()):
            src = int(rng.integers(j))
            copied = values[:, src] % arities[j]
            values[:, j] = np.where(rng.random(n_rows) < 0.7, copied, values[:, j])
    variables = bn.VariableSet(tuple("ABCDEF"[:n]), arities)
    ess = draw(st.sampled_from([0.37, 1.0, 10.0, 100.0]))
    return bn.DatasetTable(variables, values), bn.LayerConstraints(variables, layers), ess


class TestScoreTableMatchesProjection:
    @settings(max_examples=150, deadline=None)
    @given(scored_tables())
    def test_bit_equal_tables(self, case):
        data, constraints, ess = case
        cfg = bn.BdeuConfig(ess)
        assert np.array_equal(bn.score_table(data, constraints, cfg),
                              projection_score_table(data, constraints, cfg), equal_nan=True)

    def test_profile_tables(self):
        rng = np.random.default_rng(43)
        for t in range(6):
            data = profile_table(rng, tie_heavy=t % 2 == 1)
            if t >= 3:
                data = with_ternary(rng, data, column=t)
            for constraints in layer_sets(data.variables):
                assert np.array_equal(bn.score_table(data, constraints, CFG),
                                      projection_score_table(data, constraints, CFG),
                                      equal_nan=True)

    def test_lattice_holds_every_marginal(self):
        rng = np.random.default_rng(44)
        arities = (2, 3, 4)
        values = rng.integers(0, arities, size=(90, 3))
        lattice = bn._lattice_counts([values], arities).reshape(3, 4, 5)
        joint = np.zeros(arities, dtype=np.intp)
        np.add.at(joint, tuple(values.T), 1)
        for summed in itertools.product([False, True], repeat=3):
            axes = tuple(j for j in range(3) if summed[j])
            index = tuple(a if s else slice(0, a) for a, s in zip(arities, summed))
            assert np.array_equal(lattice[index], joint.sum(axis=axes))


@st.composite
def score_table_stacks(draw):
    """1-4 datasets of 0 to 3,200 rows over one set of 1-6 variables of arity
    2-4, under no layers or random ones, and an ESS."""
    n = draw(st.integers(1, 6))
    arities = tuple(draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)))
    variables = bn.VariableSet(tuple("ABCDEF"[:n]), arities)
    layers = draw(st.one_of(st.just((1,) * n),
                            st.tuples(*[st.integers(1, 3)] * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = [bn.DatasetTable(variables, rng.integers(0, arities, size=(rows, n)))
             for rows in draw(st.lists(st.sampled_from([0, 1, 2, 57, 400, 3200]),
                                       min_size=1, max_size=4))]
    ess = draw(st.sampled_from([0.37, 1.0, 10.0]))
    return stack, bn.LayerConstraints(variables, layers), bn.BdeuConfig(ess)


class TestStackedScoreTables:
    """score_tables scores a stack of datasets in one pass; each table must be
    that dataset's score_table bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(score_table_stacks())
    def test_each_table_is_its_datasets_own(self, case):
        stack, constraints, cfg = case
        n = constraints.variables.n
        tables = bn.score_tables(stack, constraints, cfg)
        assert tables.shape == (len(stack), n, 1 << n)
        for table, data in zip(tables, stack):
            assert table.tobytes() == bn.score_table(data, constraints, cfg).tobytes()

    def test_profile_tables(self):
        rng = np.random.default_rng(46)
        stack = [profile_table(rng, tie_heavy=t % 2 == 1) for t in range(3)]
        stack += [stack[0].subset(np.arange(0)), stack[1].subset(rng.integers(0, 30, 3200))]
        for constraints in layer_sets(stack[0].variables):
            tables = bn.score_tables(stack, constraints, CFG)
            for table, data in zip(tables, stack, strict=True):
                assert table.tobytes() == bn.score_table(data, constraints, CFG).tobytes()

    def test_non_finite_scores_rejected_as_for_one_table(self):
        data = profile_table(np.random.default_rng(45), tie_heavy=False)
        cfg = bn.BdeuConfig()
        object.__setattr__(cfg, "ess", 1e308)   # past BdeuConfig's own check
        constraints = bn.default_layer_constraints()
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError) as single:
                bn.score_table(data, constraints, cfg)
            with pytest.raises(ValueError, match=r"^ess=1e\+308 gives a non-finite BDeu score, "
                                                 r"first for G given \{\}$") as stacked:
                bn.score_tables([data.subset(np.arange(0)), data, data.subset(np.arange(9))],
                                constraints, cfg)
        assert str(stacked.value) == str(single.value)

    def test_other_variables_rejected(self):
        rng = np.random.default_rng(0)
        data = profile_table(rng, tie_heavy=False)
        with pytest.raises(ValueError, match="different variable sets"):
            bn.score_tables([data, random_table(rng, 10)], bn.default_layer_constraints(), CFG)


def batch_networks(batch, variables):
    """climb_batch's (masks, scores) as (Dag, score) pairs."""
    masks, scores = batch
    assert masks.dtype == np.int64 and scores.dtype == np.float64
    return [(bn.Dag.from_parents(variables, m), s) for m, s in zip(masks.tolist(), scores.tolist())]


class TestHillClimbMatchesReference:
    def test_same_networks_and_scores(self):
        rng = np.random.default_rng(31)
        climbs = tie_draws = uneven_batches = 0
        for t in range(20):
            data = profile_table(rng, tie_heavy=t % 2 == 1)
            for c, constraints in enumerate(layer_sets(data.variables)):
                starts = [bn.random_start(constraints, (0.0, 0.15, 0.4)[r % 3], seed=[t, c, r])
                          for r in range(16)]
                seeds = [[t, c, r, 1] for r in range(16)]
                # one climb on its own, fifteen in lockstep over one table
                got = [bn.hill_climb(data, constraints, CFG, starts[0], seed=seeds[0])]
                got += batch_networks(bn.climb_batch(bn.score_table(data, constraints, CFG),
                                                     constraints,
                                                     [start._pa for start in starts[1:]],
                                                     seeding.keys(seeds[1:])), data.variables)
                ref_cache = RefFamilyScoreCache(data, CFG)
                steps = set()
                for start, seed, (dag, score) in zip(starts, seeds, got):
                    want, ref_score, draws, moves = ref_hill_climb(data, constraints, CFG, start,
                                                                   seed, ref_cache)
                    assert dag.edges() == want.edges()
                    assert score == ref_score
                    climbs += 1
                    tie_draws += draws
                    steps.add(moves)
                uneven_batches += len(steps) > 1
        assert climbs >= 600
        assert tie_draws > 0
        assert uneven_batches >= 30   # climbs of one batch that finish at different steps

    def test_mixed_arity_matches_bitmask_reference(self):
        rng = np.random.default_rng(37)
        for t in range(8):
            data = with_ternary(rng, profile_table(rng, tie_heavy=t % 2 == 1), column=t % 9)
            for c, constraints in enumerate(layer_sets(data.variables)):
                cache = FamilyScoreCache(data, CFG)
                starts = [bn.random_start(constraints, 0.2, seed=[t, c, r]) for r in range(10)]
                seeds = [[t, c, r, 1] for r in range(10)]
                got = batch_networks(bn.climb_batch(bn.score_table(data, constraints, CFG),
                                                    constraints, [start._pa for start in starts],
                                                    seeding.keys(seeds)), data.variables)
                for start, seed, (dag, score) in zip(starts, seeds, got):
                    want, ref_score = bitmask_hill_climb(constraints, start, seed, cache)
                    assert dag == want
                    assert score == ref_score

    def test_bad_starts_rejected(self):
        data = profile_table(np.random.default_rng(3), tie_heavy=False)
        constraints = bn.default_layer_constraints()
        table = bn.score_table(data, constraints, CFG)
        s, g = data.variables.index("S"), data.variables.index("G")
        layer_breaking = [0] * 9
        layer_breaking[g] = 1 << s
        with pytest.raises(ValueError, match="outside the score table"):
            bn.climb_batch(table, constraints, [layer_breaking], seeding.keys([0]))
        cyclic = [0] * 9
        cyclic[s], cyclic[1] = 1 << 1, 1 << s
        with pytest.raises(ValueError, match="cycle"):
            bn.climb_batch(table, constraints, [cyclic], seeding.keys([0]))
        with pytest.raises(ValueError, match="score table must be"):
            bn.climb_batch(table[:, :256], constraints, [[0] * 9], seeding.keys([0]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
    def test_start_cycling_through_every_variable_rejected(self, n):
        # desc's diagonal missed these cycles when n - 1 is a power of two
        var = bn.VariableSet.binary(bn.PROFILE_VARIABLE_NAMES[:n])
        data = bn.DatasetTable(var, np.random.default_rng(n).integers(0, 2, (60, n)))
        constraints = bn.LayerConstraints.unconstrained(var)
        table = bn.score_table(data, constraints, CFG)
        cycle = [1 << (v - 1) % n for v in range(n)]   # v - 1 -> v, and n - 1 -> 0
        path = [0] + cycle[1:]
        with pytest.raises(ValueError, match="^a start graph has a cycle$"):
            bn.climb_batch(table, constraints, [path, cycle], seeding.keys([0, 1]))
        bn.climb_batch(table, constraints, [path], seeding.keys([0]))

    def test_one_key_per_start(self):
        data = profile_table(np.random.default_rng(3), tie_heavy=False)
        constraints = bn.default_layer_constraints()
        table = bn.score_table(data, constraints, CFG)
        with pytest.raises(ValueError, match="one key per start"):
            bn.climb_batch(table, constraints, [[0] * 9] * 2, seeding.keys([0]))
        with pytest.raises(ValueError, match="one key per start"):
            bn.climb_batch(np.stack([table] * 2), constraints, [[[0] * 9]] * 2, seeding.keys([0]))

    def test_start_breaking_its_layers_still_climbs(self):
        data = profile_table(np.random.default_rng(4), tie_heavy=False)
        constraints = bn.default_layer_constraints()
        start = bn.Dag(data.variables, [("S", "G"), ("Ac", "T")])
        got, score = bn.hill_climb(data, constraints, CFG, start, seed=5)
        want, ref_score, _, _ = ref_hill_climb(data, constraints, CFG, start, 5,
                                               RefFamilyScoreCache(data, CFG))
        assert got == want and score == ref_score


# Reference search, in two generations. The Dag-based move generator,
# frozenset-keyed cache, hill climb and per-pair random start came first;
# the bitmask move generator, parent-mask-keyed cache and hill climb
# replaced them; the score table and lockstep climb replaced those. Each
# must reproduce the others' scores, networks and draws exactly.

def family_score(values, arities, child, parents, ess):
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


@st.composite
def climb_stacks(draw):
    """(constraints, tables, starts, keys): 1-4 integer-valued score tables
    over 2-5 binary variables, so that ties are common, each with 1-6 legal
    starts and their keys."""
    n = draw(st.integers(2, 5))
    constraints = bn.LayerConstraints(bn.VariableSet.binary(bn.PROFILE_VARIABLE_NAMES[:n]),
                                      draw(st.tuples(*[st.integers(1, 3)] * n)))
    n_tables, restarts = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = rng.integers(-3, 4, size=(n_tables, n, 1 << n)).astype(np.float64)
    for v in range(n):
        most = sum(1 << u for u in range(n) if constraints.allows(u, v))
        tables[:, v, np.arange(1 << n) & ~most != 0] = np.nan
    seed = draw(st.integers(0, 2**64 - 1))
    keys = seeding.keys([[seed, k] for k in range(n_tables * restarts)])
    starts = bn.random_start_masks(constraints, draw(st.sampled_from([0.0, 0.3, 0.8])), keys)
    return (constraints, tables, starts.reshape(n_tables, restarts, n),
            keys.reshape(n_tables, restarts))


class TestStackedClimbsMatchSeparateCalls:
    @settings(max_examples=200, deadline=None)
    @given(climb_stacks(), st.sampled_from([1, 3, None]))
    def test_same_masks_and_scores(self, case, climb_slice):
        # slices of 1 and 3 climbs split a table's restarts across lockstep loops
        constraints, tables, starts, keys = case
        with mock.patch.object(bn, "CLIMB_SLICE", climb_slice or bn.CLIMB_SLICE):
            masks, scores = bn.climb_batch(tables, constraints, starts, keys)
        assert masks.shape == starts.shape and masks.dtype == np.int64
        assert scores.shape == keys.shape and scores.dtype == np.float64
        for t, table in enumerate(tables):
            want_masks, want_scores = bn.climb_batch(table, constraints, starts[t], keys[t])
            assert np.array_equal(masks[t], want_masks)
            assert scores[t].tobytes() == want_scores.tobytes()


class FamilyScoreCache:
    """Scores keyed by child index and parent bitmask."""

    def __init__(self, data, cfg):
        self._values = data.values
        self._arities = np.asarray(data.variables.arities, dtype=np.int64)
        self._ess = cfg.ess
        self._scores = [{} for _ in range(data.variables.n)]

    def score(self, child, parents):
        table = self._scores[child]
        got = table.get(parents)
        if got is None:
            got = family_score(self._values, self._arities, child, tuple(bn._bits(parents)),
                               self._ess)
            table[parents] = got
        return got


def bitmask_descendants(pa, ch):
    """(desc, via) bitmasks per node, closed children before parents."""
    n = len(ch)
    desc, via = [0] * n, [0] * n
    open_children = list(ch)
    ready = [u for u in range(n) if not ch[u]]
    while ready:
        v = ready.pop()
        reach = desc[v] = ch[v] | via[v]
        bit = 1 << v
        for p in bn._bits(pa[v]):
            via[p] |= reach
            open_children[p] ^= bit
            if not open_children[p]:
                ready.append(p)
    return desc, via


def bitmask_move_candidates(pa, ch, allowed):
    desc, via = bitmask_descendants(pa, ch)
    nodes = range(len(ch))
    for u in nodes:
        cu, au = ch[u], allowed[u]
        for v in nodes:
            if cu >> v & 1:
                yield ("delete", u, v)
                if allowed[v] >> u & 1 and not via[u] >> v & 1:
                    yield ("reverse", u, v)
            elif au >> v & 1 and not desc[v] >> u & 1:
                yield ("add", u, v)


def bitmask_hill_climb(constraints, start, seed, cache):
    score = cache.score
    key = reference.stream_key(seed)
    n = constraints.variables.n
    allowed = [sum(1 << v for v in range(n) if constraints.allows(u, v)) for u in range(n)]
    start = reference.copy_dag(start)
    pa, ch = list(start._pa), list(start._ch)
    fam = [score(i, m) for i, m in enumerate(pa)]
    for step in itertools.count():
        best = 0.0
        candidates = []
        for move in bitmask_move_candidates(pa, ch, allowed):
            kind, u, v = move
            if kind == "add":
                delta = score(v, pa[v] | 1 << u) - fam[v]
            elif kind == "delete":
                delta = removed = score(v, pa[v] ^ 1 << u) - fam[v]
            else:
                delta = removed + (score(u, pa[u] | 1 << v) - fam[u])
            if delta > bn.IMPROVEMENT_EPS:
                candidates.append((delta, move))
                if delta > best:
                    best = delta
        if not candidates:
            break
        ties = [m for d, m in candidates if best - d <= bn.TIE_EPS]
        kind, u, v = ties[reference.stream_below(key, step, len(ties))] if len(ties) > 1 else ties[0]
        if kind == "add":
            pa[v] |= 1 << u
            ch[u] |= 1 << v
        else:
            pa[v] ^= 1 << u
            ch[u] ^= 1 << v
        fam[v] = score(v, pa[v])
        if kind == "reverse":
            pa[u] |= 1 << v
            ch[v] |= 1 << u
            fam[u] = score(u, pa[u])
    edges = [(u, v) for u, cu in enumerate(ch) for v in bn._bits(cu)]
    return bn.Dag(start.variables, edges), math.fsum(fam)


class RefFamilyScoreCache:
    def __init__(self, data, cfg):
        self._values = data.values
        self._arities = np.asarray(data.variables.arities, dtype=np.int64)
        self._ess = cfg.ess
        self._scores = {}

    def score(self, child, parents):
        key = (child, parents)
        got = self._scores.get(key)
        if got is None:
            got = family_score(self._values, self._arities, child,
                               tuple(sorted(parents)), self._ess)
            self._scores[key] = got
        return got


def ref_move_candidates(dag, constraints):
    n = dag.variables.n
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if dag.has_edge(u, v):
                yield ("delete", u, v)
                if constraints.allows(v, u):
                    dag.remove_edge(u, v)
                    ok = not dag.reaches(u, v)
                    dag.add_edge(u, v)
                    if ok:
                        yield ("reverse", u, v)
            elif constraints.allows(u, v) and not dag.reaches(v, u):
                yield ("add", u, v)


def ref_hill_climb(data, constraints, cfg, start, seed, cache):
    """Returns (dag, score, number of random tie-break draws, number of moves).
    A tie at move t takes the tied move that draw t of the seed's key picks."""
    key = reference.stream_key(seed)
    n = data.variables.n
    dag = reference.copy_dag(start)
    pa = [frozenset(dag.parent_indices(i)) for i in range(n)]
    fam = [cache.score(i, pa[i]) for i in range(n)]
    draws = moves = 0
    while True:
        best = 0.0
        candidates = []
        for move in ref_move_candidates(dag, constraints):
            kind, u, v = move
            if kind == "add":
                delta = cache.score(v, pa[v] | {u}) - fam[v]
            elif kind == "delete":
                delta = cache.score(v, pa[v] - {u}) - fam[v]
            else:
                delta = (cache.score(v, pa[v] - {u}) - fam[v]) + (
                    cache.score(u, pa[u] | {v}) - fam[u]
                )
            if delta > bn.IMPROVEMENT_EPS:
                candidates.append((delta, move))
                if delta > best:
                    best = delta
        if not candidates:
            break
        ties = [m for d, m in candidates if best - d <= bn.TIE_EPS]
        if len(ties) > 1:
            draws += 1
        kind, u, v = ties[reference.stream_below(key, moves, len(ties))] if len(ties) > 1 else ties[0]
        moves += 1
        if kind == "add":
            dag.add_edge(u, v)
            pa[v] = pa[v] | {u}
            fam[v] = cache.score(v, pa[v])
        elif kind == "delete":
            dag.remove_edge(u, v)
            pa[v] = pa[v] - {u}
            fam[v] = cache.score(v, pa[v])
        else:
            dag.remove_edge(u, v)
            dag.add_edge(v, u)
            pa[v] = pa[v] - {u}
            pa[u] = pa[u] | {v}
            fam[v] = cache.score(v, pa[v])
            fam[u] = cache.score(u, pa[u])
    return dag, math.fsum(fam), draws, moves


def ref_random_start(constraints, edge_probability, seed=0):
    """A random order from the seed key's uniforms 0 .. n-1, then an edge for each
    allowed pair at order positions a < b whose uniform n + a * n + b is low."""
    key = reference.stream_key(seed)
    n = constraints.variables.n
    order = reference.stream_permutation(key, n)
    dag = reference.EditableDag(constraints.variables)
    for a in range(n):
        for b in range(a + 1, n):
            u, v = order[a], order[b]
            if constraints.allows(u, v) and reference.stream_uniform(key, n + a * n + b) < edge_probability:
                dag.add_edge(u, v)
    return dag


def ref_random_start_masks(constraints, edge_probability, seeds):
    """random_start_masks one seed at a time."""
    n = constraints.variables.n
    return np.array([ref_random_start(constraints, edge_probability, seed)._pa for seed in seeds],
                    dtype=np.int64).reshape(-1, n)


class TestFitMle:
    def test_ratio_rows(self):
        var = bn.VariableSet.binary(["A", "B"])
        data = bn.DatasetTable(var, [[0, 0], [0, 0], [0, 0], [0, 1]])
        cpts = bn.fit_mle(bn.Dag(var, [("A", "B")]), data)
        np.testing.assert_allclose(cpts["B"].table[0], [0.75, 0.25])

    def test_unobserved_rows_uniform(self):
        var = bn.VariableSet.binary(["A", "B"])
        data = bn.DatasetTable(var, [[0, 0], [0, 1]])
        cpts = bn.fit_mle(bn.Dag(var, [("A", "B")]), data)
        np.testing.assert_allclose(cpts["B"].table[1], [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(19)
        data = random_table(rng, 100, ("A", "B", "C", "D"))
        constraints = bn.LayerConstraints.unconstrained(data.variables)
        dag = bn.random_start(constraints, 0.5, seed=0)
        cpts = bn.fit_mle(dag, data)
        for cpt in cpts.cpts:
            np.testing.assert_allclose(cpt.table.sum(axis=1), 1.0, atol=1e-12)

    def test_recovers_generator_probability(self):
        rng = np.random.default_rng(20)
        var = bn.VariableSet.binary(["A", "S"])
        dag = bn.Dag(var, [("A", "S")])
        n = 20000
        a = rng.random(n) < 0.5
        s = np.where(a, rng.random(n) < 0.75, rng.random(n) < 0.5)
        data = bn.DatasetTable(var, np.column_stack([a, s]).astype(np.uint8))
        cpts = bn.fit_mle(dag, data)
        assert cpts["S"].table[1, 1] == pytest.approx(0.75, abs=0.02)

    def test_to_json_keys_rows_in_name_order(self):
        # parents (B, A) in variable order: rows are indexed B-major, keyed A then B
        rng = np.random.default_rng(21)
        data = random_table(rng, 60, ("B", "A", "C"))
        cpts = bn.fit_mle(bn.Dag(data.variables, [("A", "C"), ("B", "C")]), data)
        obj = cpts.to_json()
        assert obj["C"]["parents"] == ["A", "B"]
        table = cpts["C"].table
        for a, b in itertools.product((0, 1), repeat=2):
            assert obj["C"]["rows"][f"{a}{b}"] == table[2 * b + a].tolist()
        assert obj["A"] == {"parents": [], "rows": {"": cpts["A"].table[0].tolist()}}


class TestConfigurationIndexMatchesLoops:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_counts_joint_json_and_cpts(self, data):
        # numpy's C order against the mixed-radix loops it replaced: names
        # out of index order, each CPT's parents in any index order, and
        # bit-equal counts, probabilities and tables
        n = data.draw(st.integers(1, 5))
        arities = tuple(data.draw(st.lists(st.integers(2, 4), min_size=n, max_size=n)))
        names = tuple(data.draw(st.permutations("ABCDE"[:n])))
        var = bn.VariableSet(names, arities)
        order = data.draw(st.permutations(range(n)))
        parents = [()] * n
        for a, v in enumerate(order):
            if a:
                parents[v] = tuple(data.draw(st.lists(st.sampled_from(order[:a]), unique=True)))
        edges = [(names[u], names[v]) for v in range(n) for u in parents[v]]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.integers(0, arities, size=(data.draw(st.integers(0, 50)), n)).astype(np.uint8)

        for v in range(n):
            cols = np.asarray(parents[v], dtype=np.int64)
            got = family_counts(values, cols, v, np.asarray(arities))
            want = reference.family_counts(values, cols, v, np.asarray(arities))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

        tables = [rng.random((math.prod(arities[p] for p in parents[v]), arities[v]))
                  for v in range(n)]
        cpts = bn.CptSet(var, tuple(bn.Cpt(parents[v], t / t.sum(axis=1, keepdims=True))
                                    for v, t in enumerate(tables)))
        dag = bn.Dag(var, edges)
        (got_grids, got_probs), (want_grids, want_probs) = (
            bn.joint_table(dag, cpts), reference.joint_table(dag, cpts))
        np.testing.assert_array_equal(got_grids, want_grids)
        assert got_probs.tobytes() == want_probs.tobytes()
        assert json.dumps(cpts.to_json()) == json.dumps(reference.cpts_to_json(cpts))

        binary = bn.Dag(bn.VariableSet.binary(names), edges)
        p_one = {}
        for v, name in enumerate(names):
            keys = list(itertools.product((0, 1), repeat=len(parents[v])))
            p_one[name] = ({key: float(rng.random()) for key in keys} if parents[v]
                           else float(rng.random()))
        got, want = synth.make_cpts(binary, p_one), reference.make_cpts(binary, p_one)
        for g, w in zip(got.cpts, want.cpts):
            assert g.parents == w.parents and g.table.shape == w.table.shape
            assert g.table.tobytes() == w.table.tobytes()


class TestPosteriorQuery:
    def _chain(self):
        var = bn.VariableSet.binary(["A", "B"])
        dag = bn.Dag(var, [("A", "B")])
        cpts = bn.CptSet(var, (
            bn.Cpt((), np.array([[0.5, 0.5]])),
            bn.Cpt((0,), np.array([[0.8, 0.2], [0.2, 0.8]])),
        ))
        return dag, cpts

    def test_parentless_marginal(self):
        dag, cpts = self._chain()
        np.testing.assert_allclose(reference.posterior_query(dag, cpts, {}, "A"), [0.5, 0.5])

    def test_bayes_reversal(self):
        dag, cpts = self._chain()
        post = reference.posterior_query(dag, cpts, {"B": 1}, "A")
        assert post[1] == pytest.approx(0.8, abs=1e-12)

    def test_full_evidence_matches_joint(self):
        rng = np.random.default_rng(22)
        data = random_table(rng, 200, ("A", "B", "C"))
        dag = bn.Dag(data.variables, [("A", "B"), ("B", "C")])
        cpts = bn.fit_mle(dag, data)
        grids, probs = bn.joint_table(dag, cpts)
        post = reference.posterior_query(dag, cpts, {"A": 1, "B": 0}, "C")
        direct = np.array([
            probs[(grids[:, 0] == 1) & (grids[:, 1] == 0) & (grids[:, 2] == k)].sum()
            for k in range(2)
        ])
        np.testing.assert_allclose(post, direct / direct.sum(), atol=1e-12)

    def test_impossible_evidence(self):
        var = bn.VariableSet.binary(["A", "B"])
        dag = bn.Dag(var, [("A", "B")])
        cpts = bn.CptSet(var, (
            bn.Cpt((), np.array([[1.0, 0.0]])),
            bn.Cpt((0,), np.array([[1.0, 0.0], [0.0, 1.0]])),
        ))
        with pytest.raises(ValueError, match="impossible evidence"):
            reference.posterior_query(dag, cpts, {"A": 1}, "B")

    def test_query_in_evidence_rejected(self):
        dag, cpts = self._chain()
        with pytest.raises(ValueError):
            reference.posterior_query(dag, cpts, {"A": 1}, "A")

    def test_outputs_sum_to_one(self):
        rng = np.random.default_rng(23)
        data = random_table(rng, 100, ("A", "B", "C", "D"))
        constraints = bn.LayerConstraints.unconstrained(data.variables)
        for seed in range(5):
            dag = bn.random_start(constraints, 0.4, seed=seed)
            cpts = bn.fit_mle(dag, data)
            post = reference.posterior_query(dag, cpts, {"A": 0}, "C")
            assert post.sum() == pytest.approx(1.0, abs=1e-12)


class TestMarkovBlanket:
    def test_isolated_node(self):
        var = bn.VariableSet.binary(["A", "B"])
        assert bn.markov_blanket(bn.Dag(var), "A") == set()

    def test_parents_children_coparents(self):
        var = bn.VariableSet.binary(["A", "B", "S", "C", "D"])
        dag = bn.Dag(var, [("A", "S"), ("B", "S"), ("S", "C"), ("D", "C")])
        assert bn.markov_blanket(dag, "S") == {"A", "B", "C", "D"}

    def test_profile_network_blanket(self):
        # app preference and surfing as parents, breakfast and grades as
        # children: all four sit in the sleep-status blanket
        dag = bn.Dag(bn.profile_variables(),
                     [("A", "S"), ("T", "S"), ("S", "Br"), ("S", "Ac")])
        assert bn.markov_blanket(dag, "S") == {"A", "T", "Br", "Ac"}
        assert set(dag.parents("S")) == {"A", "T"}
        assert set(dag.children("S")) == {"Br", "Ac"}

    def test_blanket_shields_variable(self):
        # conditional on the blanket, the rest of the network is irrelevant
        rng = np.random.default_rng(24)
        var = bn.VariableSet.binary(["A", "B", "C", "D", "E"])
        constraints = bn.LayerConstraints.unconstrained(var)
        for seed in range(8):
            dag = bn.random_start(constraints, 0.4, seed=seed)
            data = bn.DatasetTable(var, rng.integers(0, 2, (150, 5)))
            cpts = bn.fit_mle(dag, data)
            grids, probs = bn.joint_table(dag, cpts)
            deviation = _max_blanket_deviation(dag, grids, probs)
            assert deviation < 1e-12


def _max_blanket_deviation(dag, grids, probs):
    var = dag.variables
    worst = 0.0
    for name in var.names:
        xi = var.index(name)
        mb = sorted(var.index(m) for m in bn.markov_blanket(dag, name))
        rest = [j for j in range(var.n) if j != xi]
        key_rest = np.zeros(len(grids), dtype=np.int64)
        for j in rest:
            key_rest = key_rest * var.arities[j] + grids[:, j]
        key_mb = np.zeros(len(grids), dtype=np.int64)
        for j in mb:
            key_mb = key_mb * var.arities[j] + grids[:, j]
        mb_num: dict = {}
        mb_den: dict = {}
        for s in range(len(grids)):
            mb_den[key_mb[s]] = mb_den.get(key_mb[s], 0.0) + probs[s]
            if grids[s, xi] == 1:
                mb_num[key_mb[s]] = mb_num.get(key_mb[s], 0.0) + probs[s]
        rest_num: dict = {}
        rest_den: dict = {}
        for s in range(len(grids)):
            rest_den[key_rest[s]] = rest_den.get(key_rest[s], 0.0) + probs[s]
            if grids[s, xi] == 1:
                rest_num[key_rest[s]] = rest_num.get(key_rest[s], 0.0) + probs[s]
        for s in range(len(grids)):
            den_r = rest_den.get(key_rest[s], 0.0)
            den_m = mb_den.get(key_mb[s], 0.0)
            if den_r <= 0.0 or den_m <= 0.0:
                continue
            p_rest = rest_num.get(key_rest[s], 0.0) / den_r
            p_mb = mb_num.get(key_mb[s], 0.0) / den_m
            worst = max(worst, abs(p_rest - p_mb))
    return worst


class TestStructuralHammingDistance:
    def test_identical_zero(self):
        var = bn.VariableSet.binary(["A", "B", "C"])
        dag = bn.Dag(var, [("A", "B")])
        assert reference.structural_hamming_distance(dag, reference.copy_dag(dag)) == 0

    def test_reversal_counts_once(self):
        var = bn.VariableSet.binary(["A", "B"])
        a = bn.Dag(var, [("A", "B")])
        b = bn.Dag(var, [("B", "A")])
        assert reference.structural_hamming_distance(a, b) == 1

    def test_insertion_and_deletion(self):
        var = bn.VariableSet.binary(["A", "B", "C"])
        a = bn.Dag(var, [("A", "B"), ("B", "C")])
        b = bn.Dag(var, [("A", "B")])
        assert reference.structural_hamming_distance(a, b) == 1
        assert reference.structural_hamming_distance(b, a) == 1
