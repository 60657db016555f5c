import numpy as np
import pytest

from stayup import bayesnet as bn
from stayup import consensus as cons
from stayup import synth

import reference

CFG = bn.BdeuConfig()


def make_table(counts: dict, names=("A", "B", "C"), n_networks=100):
    var = bn.VariableSet.binary(names)
    return cons.EdgeFrequencyTable(var, dict(counts), n_networks)


def small_data(seed=0, n=400):
    truth = synth.structure_recovery_truth()
    table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(n, 1, seed=seed))
    return table, bn.default_layer_constraints()


class TestLearnEnsemble:
    def test_member_count(self):
        data, constraints = small_data()
        ensemble = cons.learn_ensemble(data, constraints, CFG, n_restarts=8, seed=1)
        assert len(ensemble.members) == 8

    def test_deterministic(self):
        data, constraints = small_data()
        a = cons.learn_ensemble(data, constraints, CFG, n_restarts=5, seed=2)
        b = cons.learn_ensemble(data, constraints, CFG, n_restarts=5, seed=2)
        assert [d.edges() for d, _ in a.members] == [d.edges() for d, _ in b.members]
        assert [s for _, s in a.members] == [s for _, s in b.members]

    def test_single_restart(self):
        data, constraints = small_data()
        ensemble = cons.learn_ensemble(data, constraints, CFG, n_restarts=1, seed=3)
        start = bn.random_start(constraints, cons.DEFAULT_EDGE_PROBABILITY, seed=[3, 0, 0])
        dag, score = bn.hill_climb(data, constraints, CFG, start, seed=[3, 0, 1])
        assert ensemble.members[0][0] == dag
        assert ensemble.members[0][1] == score


class TestTopFraction:
    def _ensemble(self, scores, seed=0):
        var = bn.VariableSet.binary(("A", "B"))
        members = [(bn.Dag(var), float(s)) for s in scores]
        return cons.EnsembleResult(members, seed)

    def test_two_hundred_networks_keep_67(self):
        ensemble = self._ensemble(np.arange(200))
        assert len(cons.top_fraction(ensemble, 1 / 3)) == 67

    def test_fraction_one_keeps_all(self):
        ensemble = self._ensemble(np.arange(10))
        assert len(cons.top_fraction(ensemble, 1.0)) == 10

    def test_keeps_highest_scores(self):
        ensemble = self._ensemble([5, 1, 9, 7, 3, 8])
        kept = cons.top_fraction(ensemble, 1 / 3)
        assert sorted(s for _, s in kept) == [8, 9]

    def test_all_ties_deterministic_under_seed(self):
        # members distinguished by their graphs; equal scores everywhere
        var = bn.VariableSet.binary(("A", "B", "C"))
        graphs = [bn.Dag(var), bn.Dag(var, [("A", "B")]), bn.Dag(var, [("B", "A")]),
                  bn.Dag(var, [("A", "C")]), bn.Dag(var, [("C", "B")]),
                  bn.Dag(var, [("A", "B"), ("A", "C")])]
        members = [(g, 1.0) for g in graphs]
        ensemble = cons.EnsembleResult(members, seed=5)
        a = [d.edges() for d, _ in cons.top_fraction(ensemble, 1 / 3)]
        b = [d.edges() for d, _ in cons.top_fraction(ensemble, 1 / 3)]
        assert a == b and len(a) == 2

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            cons.top_fraction(self._ensemble([1.0]), 0.0)


class TestEdgeFrequencies:
    def test_counts_edges(self):
        var = bn.VariableSet.binary(("A", "B", "C"))
        dags = [bn.Dag(var, [("A", "B")]), bn.Dag(var, [("A", "B"), ("B", "C")])]
        table = cons.edge_frequencies(dags)
        assert table.get("A", "B") == 2
        assert table.get("B", "C") == 1
        assert table.get("C", "B") == 0
        assert table.n_networks == 2


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

    def test_permute_columns_preserves_marginals(self):
        rng = np.random.default_rng(5)
        data, _ = small_data(n=500)
        permuted = cons.permute_columns(data, rng)
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
            low = set(cons.threshold_survivors(freqs, 10))
            high = set(cons.threshold_survivors(freqs, 25))
            assert high <= low

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
        result, freqs, null, ensemble = cons.consensus_pipeline(
            table, constraints, CFG, n_restarts=60, replicas=4, seed=5
        )
        assert len(ensemble.members) == 60
        shd = reference.structural_hamming_distance(result.dag, truth.profile_dag)
        assert shd <= 3
        for edge in result.dag.edges():
            assert freqs.counts[edge] > null.threshold

    def test_independent_data_near_empty_consensus(self):
        rng = np.random.default_rng(9)
        var = bn.profile_variables()
        constraints = bn.default_layer_constraints()
        edge_counts = []
        for seed in range(5):
            data = bn.DatasetTable(var, rng.integers(0, 2, (600, 9)))
            result, _, _, _ = cons.consensus_pipeline(
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
