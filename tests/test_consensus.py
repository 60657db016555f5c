import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stayup import bayesnet as bn
from stayup import consensus as cons
from stayup import seeding, synth

import reference

CFG = bn.BdeuConfig()


def count_matrix(counts: dict, variables: bn.VariableSet) -> np.ndarray:
    """Name-keyed edge counts as an (n, n) matrix, [u, v] counting u -> v."""
    matrix = np.zeros((variables.n, variables.n), dtype=np.int64)
    for (u, v), c in counts.items():
        matrix[variables.index(u), variables.index(v)] = c
    return matrix


def make_table(counts: dict, names=("A", "B", "C"), n_networks=100):
    var = bn.VariableSet.binary(names)
    return cons.EdgeFrequencyTable(var, count_matrix(counts, var), n_networks)


def small_data(seed=0, n=400):
    truth = synth.structure_recovery_truth()
    table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(n, 1, seed=seed))
    return table, bn.default_layer_constraints()


class TestStackedSearchMatchesOneAtATime:
    """learn_ensembles climbs a job's ensembles as one stack with keys extended
    from each seed's key; the reference climbs each on its own from whole seed
    lists."""

    @pytest.mark.parametrize("rows, restarts, seed", [(30, 1, 0), (30, 17, [4, 2**40]),
                                                      (400, 9, 2**64 - 1)])
    def test_learn_ensemble(self, rows, restarts, seed):
        data, constraints = small_data(seed=5, n=rows)
        for c in (constraints, bn.LayerConstraints.unconstrained(data.variables)):
            got = cons.learn_ensemble(data, c, CFG, n_restarts=restarts, seed=seed)
            want = reference.learn_ensemble(data, c, CFG, restarts, seed)
            assert np.array_equal(got.masks, want.masks)
            assert np.array_equal(got.scores, want.scores)
            assert got.key == want.key

    @pytest.mark.parametrize("replicas, restarts, seed, fraction, climb_slice", [
        (1, 1, 0, 1.0, None), (3, 7, [4, 2**40], 1 / 3, None), (5, 12, 9, 0.5, 4),
        (2, 30, [1, 3, 0], 1 / 3, 7)])
    def test_null_threshold(self, replicas, restarts, seed, fraction, climb_slice):
        data, constraints = small_data(seed=6, n=120)
        with mock.patch.object(bn, "CLIMB_SLICE", climb_slice or bn.CLIMB_SLICE):
            got = cons.null_threshold(data, constraints, CFG, replicas=replicas, seed=seed,
                                      n_restarts=restarts, fraction=fraction,
                                      edge_probability=0.3)
        want = reference.null_threshold(data, constraints, CFG, replicas, seed, restarts,
                                        fraction, 0.3)
        assert np.array_equal(got.replicate_tables, want.replicate_tables)
        assert (got.mean, got.std, got.threshold) == (want.mean, want.std, want.threshold)

    def test_one_key_per_dataset(self):
        data, constraints = small_data(n=30)
        with pytest.raises(ValueError, match="one key per dataset"):
            cons.learn_ensembles([data, data], constraints, CFG, 3, seeding.keys([0]))


class TestLearnEnsemble:
    @pytest.mark.parametrize("restarts", [8, 60])
    def test_member_count(self, restarts):
        data, constraints = small_data()
        ensemble = cons.learn_ensemble(data, constraints, CFG, n_restarts=restarts, seed=1)
        assert ensemble.masks.shape == (restarts, 9) and ensemble.masks.dtype == np.int64
        assert ensemble.scores.shape == (restarts,) and ensemble.scores.dtype == np.float64

    def test_deterministic(self):
        data, constraints = small_data()
        a = cons.learn_ensemble(data, constraints, CFG, n_restarts=5, seed=2)
        b = cons.learn_ensemble(data, constraints, CFG, n_restarts=5, seed=2)
        assert np.array_equal(a.masks, b.masks)
        assert np.array_equal(a.scores, b.scores)

    def test_single_restart(self):
        data, constraints = small_data()
        ensemble = cons.learn_ensemble(data, constraints, CFG, n_restarts=1, seed=3)
        start = bn.random_start(constraints, cons.DEFAULT_EDGE_PROBABILITY, seed=[3, 0, 0])
        dag, score = bn.hill_climb(data, constraints, CFG, start, seed=[3, 0, 1])
        assert ensemble.masks[0].tolist() == dag._pa
        assert ensemble.scores[0] == score


class TestTopFraction:
    def _ensemble(self, scores, seed=0):
        return cons.EnsembleResult(np.zeros((len(scores), 2), dtype=np.int64),
                                   np.asarray(scores, dtype=np.float64), seeding.keys([seed])[0])

    def test_two_hundred_networks_keep_67(self):
        ensemble = self._ensemble(np.arange(200))
        assert len(cons.top_fraction(ensemble, 1 / 3)) == 67

    def test_fraction_one_keeps_all(self):
        ensemble = self._ensemble(np.arange(10))
        assert len(cons.top_fraction(ensemble, 1.0)) == 10

    def test_keeps_highest_scores(self):
        ensemble = self._ensemble([5, 1, 9, 7, 3, 8])
        kept = cons.top_fraction(ensemble, 1 / 3)
        assert ensemble.scores[kept].tolist() == [9, 8]

    def test_all_ties_deterministic_under_seed(self):
        ensemble = cons.EnsembleResult(np.arange(6 * 3).reshape(6, 3), np.ones(6),
                                       key=seeding.keys([5])[0])
        a = cons.top_fraction(ensemble, 1 / 3).tolist()
        b = cons.top_fraction(ensemble, 1 / 3).tolist()
        assert a == b and len(a) == 2

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            cons.top_fraction(self._ensemble([1.0]), 0.0)


class TestEdgeFrequencies:
    def test_counts_edges(self):
        var = bn.VariableSet.binary(("A", "B", "C"))
        dags = [bn.Dag(var, [("A", "B")]), bn.Dag(var, [("A", "B"), ("B", "C")])]
        table = cons.edge_frequencies(np.array([d._pa for d in dags]), var)
        assert table.counts.tolist() == [[0, 2, 0], [0, 0, 1], [0, 0, 0]]
        assert table.counts.dtype == np.int64
        assert table.n_networks == 2

    def test_no_networks(self):
        var = bn.VariableSet.binary(("A", "B"))
        table = cons.edge_frequencies(np.zeros((0, 2), dtype=np.int64), var)
        assert table.counts.tolist() == [[0, 0], [0, 0]] and table.n_networks == 0


class TestNullThreshold:
    def test_independent_data_all_zero_frequencies(self):
        rng = np.random.default_rng(4)
        var = bn.VariableSet.binary(("A", "B", "C"))
        data = bn.DatasetTable(var, rng.integers(0, 2, (800, 3)))
        constraints = bn.LayerConstraints.unconstrained(var)
        null = cons.null_threshold(data, constraints, CFG, replicas=2, seed=1, n_restarts=4)
        # hill climbing on independent data returns empty graphs: every pooled
        # frequency equals zero, so the threshold collapses onto that value
        assert null.mean == 0.0 and null.std == 0.0 and null.threshold == 0.0

    def test_deterministic(self):
        data, constraints = small_data(n=300)
        a = cons.null_threshold(data, constraints, CFG, replicas=2, seed=9, n_restarts=6)
        b = cons.null_threshold(data, constraints, CFG, replicas=2, seed=9, n_restarts=6)
        assert a.threshold == b.threshold
        assert a.mean == b.mean and a.std == b.std

    def test_threshold_is_mean_plus_two_std(self):
        data, constraints = small_data(n=300)
        null = cons.null_threshold(data, constraints, CFG, replicas=3, seed=2, n_restarts=10)
        assert null.threshold == pytest.approx(null.mean + 2 * null.std, abs=1e-12)
        assert null.replicate_tables.shape == (3, 9, 9)

    def test_permute_columns_preserves_marginals(self):
        data, _ = small_data(n=500)
        permuted = cons.permute_columns(data, seeding.keys([5])[0])
        np.testing.assert_array_equal(
            permuted.values.sum(axis=0), data.values.sum(axis=0)
        )
        assert not np.array_equal(permuted.values, data.values)


class TestBuildConsensus:
    def test_direction_resolved_by_high_score_table(self):
        freqs = make_table({("A", "B"): 40, ("B", "A"): 25})
        result = cons.build_consensus(freqs, threshold=10)
        assert result.dag.edges() == [("A", "B")]
        assert any(p["action"] == "direction" for p in result.provenance)

    def test_no_edge_above_threshold(self):
        freqs = make_table({("A", "B"): 5})
        result = cons.build_consensus(freqs, threshold=10)
        assert result.dag.edges() == []

    def test_single_edge_survives(self):
        freqs = make_table({("A", "B"): 50, ("B", "C"): 3})
        result = cons.build_consensus(freqs, threshold=10)
        assert result.dag.edges() == [("A", "B")]
        assert result.edge_frequencies[("A", "B")] == 50

    def test_threshold_comparison_is_strict(self):
        freqs = make_table({("A", "B"): 10})
        assert cons.build_consensus(freqs, threshold=10).dag.edges() == []

    def test_cycle_repair_drops_weakest(self):
        freqs = make_table({("A", "B"): 50, ("B", "C"): 40, ("C", "A"): 30})
        result = cons.build_consensus(freqs, threshold=10)
        edges = result.dag.edges()
        assert ("C", "A") not in edges and len(edges) == 2
        assert any(p["action"] == "cycle_repair" for p in result.provenance)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cycle_repair_matches_floyd_warshall(self, data):
        # dense graphs of 1-9 variables, few distinct counts so ties are
        # common, and names out of index order so name ties count
        n = data.draw(st.integers(1, 9))
        names = data.draw(st.permutations(bn.PROFILE_VARIABLE_NAMES[:n]))
        counts = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)),
                          dtype=np.int64).reshape(n, n)
        kept = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)),
                        dtype=bool).reshape(n, n)
        np.fill_diagonal(kept, False)
        want_kept, want_provenance = kept.copy(), []
        reference.floyd_warshall_repair_cycles(counts, want_kept, names, want_provenance)
        provenance = []
        cons._repair_cycles(counts, kept, names, provenance)
        assert np.array_equal(kept, want_kept)
        assert provenance == want_provenance
        bn.Dag(bn.VariableSet.binary(names), cons._named(counts, kept, names))   # acyclic

    def test_consensus_edges_all_above_threshold(self):
        rng = np.random.default_rng(6)
        names = ("A", "B", "C", "D")
        for trial in range(25):
            counts = {}
            for u in names:
                for v in names:
                    if u != v and rng.random() < 0.5:
                        counts[(u, v)] = int(rng.integers(1, 67))
            freqs = make_table(counts, names)
            threshold = float(rng.integers(0, 40))
            result = cons.build_consensus(freqs, threshold)
            for edge in result.dag.edges():
                assert result.edge_frequencies[edge] > threshold
            assert bn.Dag(freqs.variables, result.dag.edges())  # acyclic by construction

    def test_survivor_sets_monotone_in_threshold(self):
        rng = np.random.default_rng(7)
        names = ("A", "B", "C", "D")
        for _ in range(20):
            counts = {}
            for u in names:
                for v in names:
                    if u != v and rng.random() < 0.6:
                        counts[(u, v)] = int(rng.integers(1, 67))
            freqs = make_table(counts, names)
            low = cons.threshold_survivors(freqs, 10)
            high = cons.threshold_survivors(freqs, 25)
            assert not (high & ~low).any()

    def test_conflict_free_output_monotone_in_threshold(self):
        # without opposite-direction conflicts the kept edge set can only shrink
        rng = np.random.default_rng(8)
        names = ("A", "B", "C", "D")
        for _ in range(20):
            counts = {}
            for u in names:
                for v in names:
                    if u < v and rng.random() < 0.7:
                        counts[(u, v)] = int(rng.integers(1, 67))
            freqs = make_table(counts, names)
            kept = [set(cons.build_consensus(freqs, t).dag.edges())
                    for t in (5, 15, 30)]
            assert kept[2] <= kept[1] <= kept[0]


class TestMergeTotalNetwork:
    def _consensus(self, edges, names=("A", "B", "C")):
        var = bn.VariableSet.binary(names)
        dag = bn.Dag(var, edges)
        return cons.ConsensusDag(dag, {e: 1 for e in edges}, 10.0, [])

    def test_unanimous_edge_kept(self):
        parts = [self._consensus([("A", "B")]) for _ in range(3)]
        high = [make_table({("A", "B"): 30})] * 3
        merged = cons.merge_total_network(parts, high)
        assert merged.dag.edges() == [("A", "B")]

    def test_minority_edge_dropped(self):
        parts = [
            self._consensus([("A", "B")]),
            self._consensus([]),
            self._consensus([]),
        ]
        high = [make_table({("A", "B"): 30})] * 3
        merged = cons.merge_total_network(parts, high)
        assert merged.dag.edges() == []

    def test_direction_conflict_resolved_by_summed_frequency(self):
        parts = [
            self._consensus([("A", "B")]),
            self._consensus([("A", "B")]),
            self._consensus([("B", "A")]),
        ]
        high = [
            make_table({("A", "B"): 25, ("B", "A"): 5}),
            make_table({("A", "B"): 20, ("B", "A"): 10}),
            make_table({("A", "B"): 10, ("B", "A"): 22}),
        ]
        merged = cons.merge_total_network(parts, high)
        assert merged.dag.edges() == [("A", "B")]  # 55 vs 37
        assert any(p["action"] == "direction" for p in merged.provenance)

    def test_split_direction_pair_still_counts_for_membership(self):
        parts = [
            self._consensus([("A", "B")]),
            self._consensus([("B", "A")]),
            self._consensus([]),
        ]
        high = [
            make_table({("A", "B"): 30, ("B", "A"): 2}),
            make_table({("A", "B"): 4, ("B", "A"): 20}),
            make_table({}),
        ]
        merged = cons.merge_total_network(parts, high)
        assert merged.dag.edges() == [("A", "B")]  # 34 vs 22


class TestConsensusPipeline:
    def test_recovers_planted_structure(self):
        truth = synth.structure_recovery_truth()
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(2500, 1, seed=31))
        constraints = bn.default_layer_constraints()
        result, freqs, null = cons.consensus_pipeline(
            table, constraints, CFG, n_restarts=60, replicas=4, seed=5
        )
        shd = reference.structural_hamming_distance(result.dag, truth.profile_dag)
        assert shd <= 3
        var = freqs.variables
        for u, v in result.dag.edges():
            assert freqs.counts[var.index(u), var.index(v)] > null.threshold

    def test_independent_data_near_empty_consensus(self):
        rng = np.random.default_rng(9)
        var = bn.profile_variables()
        constraints = bn.default_layer_constraints()
        edge_counts = []
        for seed in range(5):
            data = bn.DatasetTable(var, rng.integers(0, 2, (600, 9)))
            result, _, _ = cons.consensus_pipeline(
                data, constraints, CFG, n_restarts=40, replicas=3, seed=seed
            )
            edge_counts.append(len(result.dag.edges()))
        assert np.mean(edge_counts) <= 1.0


def test_edge_frequency_csv(tmp_path):
    table = make_table({("A", "B"): 12, ("B", "C"): 3})
    path = tmp_path / "freqs.csv"
    cons.write_edge_frequency_csv(path, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "from,to,count,n_networks"
    assert "A,B,12,100" in lines


def test_edge_frequency_csv_lists_edges_by_name(tmp_path):
    # index order B, A, C; the file lists the counted edges in name order
    table = make_table({("B", "A"): 3, ("A", "C"): 5, ("B", "C"): 0}, names=("B", "A", "C"))
    path = tmp_path / "freqs.csv"
    cons.write_edge_frequency_csv(path, table)
    assert path.read_text().splitlines() == ["from,to,count,n_networks", "A,C,5,100",
                                             "B,A,3,100"]


# --- mask ensembles against the list-of-Dag reference ---------------------------

@st.composite
def mask_ensembles(draw):
    """(constraints, ensembles, seeds): a few ensembles of random legal DAGs of
    one size, each with scores from a small set, so that ties are common, and
    with the key of its seed list."""
    constraints = draw(st.sampled_from([
        bn.default_layer_constraints(),
        bn.LayerConstraints.unconstrained(bn.profile_variables()),
        bn.LayerConstraints.unconstrained(bn.VariableSet.binary(("b", "a", "C", "B"))),
    ]))
    size = draw(st.integers(1, 24))
    ensembles, seeds = [], []
    for _ in range(draw(st.integers(1, 4))):
        seed = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=2))
        masks = bn.random_start_masks(constraints, draw(st.sampled_from([0.05, 0.2, 0.5, 0.9])),
                                      seeding.keys([seed + [r] for r in range(size)]))
        scores = draw(st.lists(st.sampled_from([-7.5, -7.25, -3.0, -1.0]),
                               min_size=size, max_size=size))
        ensembles.append(cons.EnsembleResult(masks, np.array(scores), seeding.keys([seed])[0]))
        seeds.append(seed)
    return constraints, ensembles, seeds


def as_members(ensemble, variables):
    return [(bn.Dag.from_parents(variables, m), s)
            for m, s in zip(ensemble.masks.tolist(), ensemble.scores.tolist())]


class TestMaskEnsemblesMatchDagReference:
    @settings(max_examples=80, deadline=None)
    @given(mask_ensembles(), st.sampled_from([0.1, 1 / 3, 0.5, 1.0]), st.data())
    def test_picks_counts_pool_and_networks(self, case, fraction, data):
        constraints, ensembles, seeds = case
        var = constraints.variables
        freqs, want_counts = [], []
        for ensemble, seed in zip(ensembles, seeds):
            members = as_members(ensemble, var)
            picks = cons.top_fraction(ensemble, fraction)
            want = reference.top_fraction(members, fraction, seed)
            assert [id(members[i]) for i in picks] == [id(m) for m in want]
            freqs.append(cons.edge_frequencies(ensemble.masks[picks], var))
            want_counts.append(reference.edge_frequencies(d for d, _ in want))
            assert np.array_equal(freqs[-1].counts, count_matrix(want_counts[-1], var))
            assert freqs[-1].n_networks == len(want)

        # null_threshold over the drawn ensembles as its replicas
        base = [3, 1]
        replicas = [reference.edge_frequencies(
            d for d, _ in reference.top_fraction(as_members(e, var), fraction, base + [17, rep]))
            for rep, e in enumerate(ensembles)]
        table = bn.DatasetTable(var, np.zeros((4, var.n)))
        with mock.patch.object(cons, "learn_ensembles", return_value=ensembles) as learn:
            null = cons.null_threshold(table, constraints, CFG, replicas=len(ensembles),
                                       seed=base, n_restarts=len(ensembles[0].scores),
                                       fraction=fraction)
        assert learn.call_args.args[4].tolist() == [reference.stream_key(base + [13, rep])
                                                    for rep in range(len(ensembles))]
        pool = reference.null_pool(replicas, constraints)
        assert (null.mean, null.std) == (float(pool.mean()), float(pool.std()))
        assert null.threshold == null.mean + 2.0 * null.std
        assert np.array_equal(null.replicate_tables,
                              [count_matrix(counts, var) for counts in replicas])

        thresholds = [data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
                      for _ in ensembles]
        parts = [cons.build_consensus(f, t) for f, t in zip(freqs, thresholds)]
        want_parts = [reference.build_consensus(c, var, t)
                      for c, t in zip(want_counts, thresholds)]
        for got, want in zip(parts, want_parts):
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        merged = cons.merge_total_network(parts, freqs)
        want_merged = reference.merge_total_network(want_parts, want_counts)
        assert json.dumps(merged.to_json()) == json.dumps(want_merged.to_json())
