import json

import numpy as np
import pytest

from stayup import bayesnet as bn
from stayup import ingest
from stayup import profiles as pr
from stayup import sleepmix as sm
from stayup import synth


class TestGenerateSleepData:
    def test_degenerate_mixing_uses_single_component(self):
        truth = synth.default_ground_truth()
        mixture = sm.PoissonMixtureModel(truth.mixture.rates, np.array([1.0, 0.0]))
        truth = synth.GroundTruth(mixture, truth.profile_dag, truth.profile_cpts)
        _, _, labels = synth.generate_sleep_data(truth, synth.GeneratorConfig(200, 50, seed=1))
        assert set(labels.values()) == {0}

    def test_uniform_rates_give_uniform_expected_counts(self):
        # flat rate rows: every bin's pooled mean should sit within 1% of the
        # per-bin rate (320k Poisson draws)
        flat = sm.PoissonMixtureModel(np.ones((2, 16)), np.array([0.5, 0.5]))
        base = synth.default_ground_truth()
        truth = synth.GroundTruth(flat, base.profile_dag, base.profile_cpts)
        cfg = synth.GeneratorConfig(20000, 160, seed=2)
        _, counts, _ = synth.generate_sleep_data(truth, cfg)
        per_bin_rate = 160 / 16
        np.testing.assert_allclose(counts.mean(axis=0), per_bin_rate, rtol=0.01)

    def test_fixed_seed_byte_identical(self):
        truth = synth.default_ground_truth()
        cfg = synth.GeneratorConfig(100, 80, seed=3)
        ids_a, a, la = synth.generate_sleep_data(truth, cfg)
        ids_b, b, lb = synth.generate_sleep_data(truth, cfg)
        assert ids_a == ids_b and la == lb
        np.testing.assert_array_equal(a, b)

    def test_count_vector_invariants(self):
        truth = synth.default_ground_truth()
        cfg = synth.GeneratorConfig(50, 100, seed=4)
        ids, counts, labels = synth.generate_sleep_data(truth, cfg)
        assert counts.shape == (50, 16) and counts.dtype == np.int64
        assert np.all(counts >= 0)
        assert ids == tuple(sorted(labels)) and len(set(ids)) == 50


class TestGenerateProfiles:
    def test_conditional_frequency_matches_truth(self):
        truth = synth.default_ground_truth()
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(10000, 1, seed=5))
        a = table.column("A")
        s = table.column("S")
        p_video = s[a == 1].mean()
        p_game = s[a == 0].mean()
        assert p_video == pytest.approx(0.75, abs=0.02)
        assert p_game == pytest.approx(0.5, abs=0.02)

    def test_deterministic_cpts_are_functions_of_parents(self):
        var = bn.profile_variables()
        dag = bn.Dag(var, [("A", "S")])
        p_one = {name: 0.0 for name in var.names}
        p_one["A"] = 1.0
        p_one["S"] = {(0,): 0.0, (1,): 1.0}
        cpts = synth.make_cpts(dag, p_one)
        truth = synth.GroundTruth(synth.default_mixture_truth(), dag, cpts)
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(500, 1, seed=6))
        np.testing.assert_array_equal(table.column("A"), 1)
        np.testing.assert_array_equal(table.column("S"), table.column("A"))

    def test_empty_truth_dag_gives_independent_columns(self):
        var = bn.profile_variables()
        dag = bn.Dag(var)
        cpts = synth.make_cpts(dag, {name: 0.5 for name in var.names})
        truth = synth.GroundTruth(synth.default_mixture_truth(), dag, cpts)
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(20000, 1, seed=7))
        corr = np.corrcoef(table.values.astype(float).T)
        off_diag = corr[~np.eye(9, dtype=bool)]
        assert np.abs(off_diag).max() < 0.05

    def test_empirical_cpts_converge_to_truth(self):
        truth = synth.structure_recovery_truth()
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(20000, 1, seed=8))
        fitted = bn.fit_mle(truth.profile_dag, table)
        arities = np.asarray(table.variables.arities, dtype=np.int64)
        from stayup._kernels import family_counts

        for i, (est, want) in enumerate(zip(fitted.cpts, truth.profile_cpts.cpts)):
            parents = np.asarray(est.parents, dtype=np.int64)
            row_n = family_counts(table.values, parents, i, arities).sum(axis=1)
            for j in range(est.table.shape[0]):
                if row_n[j] > 0:
                    bound = 3.0 / np.sqrt(row_n[j])
                    assert np.abs(est.table[j] - want.table[j]).max() < bound


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_logs")
    truth = synth.default_ground_truth()
    cfg = synth.GeneratorConfig(400, 60, seed=9, emit="full_logs")
    result = synth.generate_full_logs(truth, cfg, out)
    paths = ingest.LogPaths.from_dir(out)
    store = ingest.parse_logs(paths)
    return result, store


class TestGenerateFullLogs:
    def test_round_trip_reproduces_count_vectors(self, logs):
        result, store = logs
        obs = ingest.extract_bedtimes(store.sessions)
        ids, counts = ingest.aggregate_sleep_counts(obs, min_nights=1)
        assert ids == result.student_ids
        np.testing.assert_array_equal(counts, result.sleep_counts)

    def test_every_student_has_one_bedtime_per_night(self, logs):
        result, _ = logs
        assert np.all(result.sleep_counts.sum(axis=1) == 60)

    def test_class_values_clear_the_midpoint(self, logs):
        result, store = logs
        ids, feats = ingest.compute_raw_features(store, 60)
        br = result.table.column("Br")
        assert ids == result.student_ids
        counts = feats[:, ingest.FEATURE_COLUMNS.index("breakfast_count") - 1]
        midpoint = (0.8 + 0.35) / 2 * 60
        assert (counts[br == 1] > midpoint).mean() >= 0.9
        assert (counts[br == 0] <= midpoint).mean() >= 0.9

    def test_median_splits_recover_balanced_bits(self, tmp_path):
        # balanced truth: every bit is a fair coin, so the pooled median sits
        # between the class distributions and the split recovers each bit
        var = bn.profile_variables()
        dag = bn.Dag(var)
        cpts = synth.make_cpts(dag, {name: 0.5 for name in var.names})
        truth = synth.GroundTruth(synth.default_mixture_truth(), dag, cpts)
        cfg = synth.GeneratorConfig(800, 50, seed=10, emit="full_logs")
        result = synth.generate_full_logs(truth, cfg, tmp_path)
        store = ingest.parse_logs(ingest.LogPaths.from_dir(tmp_path))
        built = pr.build_profiles(*ingest.compute_raw_features(store, 50), result.student_ids,
                                  result.table.column("S") == 1)
        table, ids = built.table, built.ids
        truth_bits = {sid: result.table.values[i] for i, sid in enumerate(result.student_ids)}
        for j, name in enumerate(var.names):
            agreement = np.mean([
                table.values[k, j] == truth_bits[sid][j] for k, sid in enumerate(ids)
            ])
            assert agreement >= 0.9, name

    def test_single_night_edge_case(self, tmp_path):
        truth = synth.default_ground_truth()
        cfg = synth.GeneratorConfig(30, 1, seed=11, emit="full_logs")
        result = synth.generate_full_logs(truth, cfg, tmp_path / "one")
        assert np.all(result.sleep_counts.sum(axis=1) <= 1)

    def test_deterministic_files(self, tmp_path):
        truth = synth.default_ground_truth()
        cfg = synth.GeneratorConfig(60, 20, seed=12, emit="full_logs")
        a = synth.generate_full_logs(truth, cfg, tmp_path / "a")
        b = synth.generate_full_logs(truth, cfg, tmp_path / "b")
        for kind, path in a.paths.items():
            assert path.read_bytes() == b.paths[kind].read_bytes()

    def test_truth_json_carries_oracle_data(self, logs):
        result, _ = logs
        obj = json.loads((result.out_dir / "truth.json").read_text())
        assert obj["stay_up_component"] in (0, 1)
        sid = result.student_ids[0]
        assert obj["students"][sid]["counts"] == result.sleep_counts[0].tolist()

    def test_component_labels_follow_sleep_bit(self, logs):
        result, _ = logs
        stay = synth.stay_up_component(synth.default_mixture_truth())
        si = result.table.variables.index("S")
        for i, sid in enumerate(result.student_ids):
            expected = stay if result.table.values[i, si] else 1 - stay
            assert result.component_labels[sid] == expected


def test_generator_config_validation():
    with pytest.raises(ValueError):
        synth.GeneratorConfig(0, 10)
    with pytest.raises(ValueError):
        synth.GeneratorConfig(10, 10, emit="parquet")


def test_default_truth_peaks():
    mixture = synth.default_mixture_truth()
    assert int(np.argmax(mixture.rates[0])) == 3   # 22:30 bin
    assert int(np.argmax(mixture.rates[1])) == 6   # midnight bin
    # the later component carries the heavier upper tail
    assert mixture.rates[1, 10:].sum() > mixture.rates[0, 10:].sum()
    assert synth.stay_up_component(mixture) == 1
