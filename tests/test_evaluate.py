import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from stayup import bayesnet as bn
from stayup import evaluate as ev
from stayup import synth

import reference

SRC = Path(__file__).resolve().parent.parent / "src"

CFG = bn.BdeuConfig()


def rank_auc_oracle(scores, labels):
    """Pairwise concordance count: P(pos > neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        curve = ev.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == 1.0

    def test_identical_scores_give_half(self):
        curve = ev.roc_auc([0.3] * 6, [1, 0, 1, 0, 1, 0])
        assert curve.auc == 0.5
        assert curve.points == [(0.0, 0.0), (1.0, 1.0)]

    def test_hand_computed_three_quarters(self):
        curve = ev.roc_auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.75, abs=1e-12)

    def test_matches_rank_statistic(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)  # force ties
            curve = ev.roc_auc(scores, labels)
            assert curve.auc == pytest.approx(rank_auc_oracle(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        a = ev.roc_auc(scores, labels).auc
        b = ev.roc_auc(np.exp(5 * scores), labels).auc
        assert a == pytest.approx(b, abs=1e-12)

    def test_label_swap_complements_auc(self):
        rng = np.random.default_rng(2)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        a = ev.roc_auc(scores, labels).auc
        b = ev.roc_auc(scores, 1 - labels).auc
        assert a == pytest.approx(1.0 - b, abs=1e-12)

    def test_curve_is_monotone_with_unit_endpoints(self):
        rng = np.random.default_rng(3)
        scores = rng.choice([0.2, 0.4, 0.9], size=50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        curve = ev.roc_auc(scores, labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            ev.roc_auc([0.1, 0.2], [1, 1])


class TestFolds:
    def test_disjoint_cover(self):
        parts = ev.fold_indices(103, 5, seed=4)
        joined = np.concatenate(parts)
        assert len(joined) == 103
        assert len(np.unique(joined)) == 103

    def test_reproducible(self):
        a = ev.fold_indices(50, 5, seed=9)
        b = ev.fold_indices(50, 5, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_skewed_target_fails_before_any_search(self):
        # 1 stay-up student in 40 rows: no two test folds can both hold one
        y = np.zeros(40, dtype=np.int64)
        y[17] = 1
        experiment = ev.PredictionExperiment()
        for seed in range(10):
            with pytest.raises(ValueError, match="rows contain a single S class"):
                ev.cv_plan(y, experiment, seed)

    def test_skewed_target_degrades_to_stratified_folds(self):
        # 3 stay-up students in 40 rows: some of the 5 seeded test folds hold
        # none, so every seed falls back to 3 folds with one stay-up student each
        y = np.zeros(40, dtype=np.int64)
        y[[4, 17, 30]] = 1
        experiment = ev.PredictionExperiment()
        for seed in range(10):
            splits, degraded = ev.cv_plan(y, experiment, seed)
            assert degraded == {"requested": 5, "used": 3, "reason": degraded["reason"]}
            assert "test rows contain a single S class" in degraded["reason"]
            tests = [test for _, test in splits]
            assert [len(t) for t in tests] == [14, 13, 13]
            assert [int(y[t].sum()) for t in tests] == [1, 1, 1]
            np.testing.assert_array_equal(np.sort(np.concatenate(tests)), np.arange(40))
            for (train, test), part in zip(splits, ev.stratified_fold_indices(y, 3, seed)):
                np.testing.assert_array_equal(test, part)
                np.testing.assert_array_equal(train, np.setdiff1d(np.arange(40), test))

    def test_degraded_folds_leave_numpy_ma_unimported(self):
        # plain np.unique imports numpy.ma (about 14 ms) on its first call
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from stayup import evaluate as ev
            y = np.zeros(40, dtype=np.int64)
            y[[4, 17, 30]] = 1
            _, degraded = ev.cv_plan(y, ev.PredictionExperiment(), 0)
            assert degraded is not None
            print("numpy.ma" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False"]

    def test_folds_that_hold_both_classes_are_kept(self):
        y = np.arange(103) % 2
        splits, degraded = ev.cv_plan(y, ev.PredictionExperiment(folds=5), seed=4)
        assert degraded is None
        for (_, test), part in zip(splits, ev.fold_indices(103, 5, seed=4)):
            np.testing.assert_array_equal(test, part)

    def test_splits_are_the_folds(self):
        y = np.arange(103) % 2
        experiment = ev.PredictionExperiment(folds=5)
        splits, _ = ev.cv_plan(y, experiment, seed=4)
        for (train, test), part in zip(splits, ev.fold_indices(103, 5, seed=4)):
            np.testing.assert_array_equal(test, part)
            np.testing.assert_array_equal(np.sort(np.concatenate([train, test])), np.arange(103))
        (train, test), = ev.cv_plan(y, ev.PredictionExperiment(in_sample=True), seed=4)[0]
        np.testing.assert_array_equal(train, np.arange(103))
        np.testing.assert_array_equal(test, np.arange(103))

    def test_experiment_validation(self):
        with pytest.raises(ValueError):
            ev.PredictionExperiment(folds=1)
        with pytest.raises(ValueError):
            ev.PredictionExperiment(restarts=0)
        ev.PredictionExperiment(folds=1, in_sample=True)


class TestPredictSleepExperiment:
    def _profiles(self, n=1200, seed=20):
        truth = synth.default_ground_truth()
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(n, 1, seed=seed))
        return table, bn.default_layer_constraints()

    def test_dependent_target_beats_chance(self):
        table, constraints = self._profiles()
        experiment = ev.PredictionExperiment(folds=4, restarts=8)
        result = ev.predict_sleep_experiment(table, constraints, CFG, experiment, seed=1)
        assert len(result.curves) == 4
        assert 0.6 < result.auc_mean < 0.8

    def test_independent_target_near_half(self):
        table, constraints = self._profiles()
        values = table.values.copy()
        si = table.variables.index("S")
        values[:, si] = values[np.random.default_rng(5).permutation(len(values)), si]
        shuffled = bn.DatasetTable(table.variables, values)
        experiment = ev.PredictionExperiment(folds=4, restarts=8)
        with pytest.warns(UserWarning, match="blanket"):
            result = ev.predict_sleep_experiment(shuffled, constraints, CFG, experiment, seed=2)
        assert 0.45 <= result.auc_mean <= 0.55
        assert result.degenerate_blanket

    def test_deterministic_target_saturates(self):
        rng = np.random.default_rng(6)
        var = bn.profile_variables()
        values = rng.integers(0, 2, size=(800, 9)).astype(np.uint8)
        values[:, var.index("S")] = values[:, var.index("A")]
        table = bn.DatasetTable(var, values)
        experiment = ev.PredictionExperiment(folds=3, restarts=8)
        result = ev.predict_sleep_experiment(
            table, bn.default_layer_constraints(), CFG, experiment, seed=3
        )
        assert result.auc_mean >= 0.95

    def test_in_sample_mode_single_curve(self):
        table, constraints = self._profiles(n=600)
        experiment = ev.PredictionExperiment(in_sample=True, restarts=6)
        result = ev.predict_sleep_experiment(table, constraints, CFG, experiment, seed=4)
        assert len(result.curves) == 1
        assert result.auc_mean == result.auc_per_fold[0]

    def test_single_class_training_fold_rejected(self):
        var = bn.profile_variables()
        values = np.zeros((40, 9), dtype=np.uint8)  # S constant
        table = bn.DatasetTable(var, values)
        experiment = ev.PredictionExperiment(folds=2, restarts=2)
        with pytest.raises(ValueError, match="single"):
            ev.predict_sleep_experiment(table, bn.default_layer_constraints(), CFG,
                                        experiment, seed=6)

    def test_skewed_target_predicts_over_degraded_folds(self):
        # 40 rows, 3 of them stay up: every seed fails on the parent's 5 folds
        var = bn.profile_variables()
        values = np.random.default_rng(8).integers(0, 2, size=(40, 9)).astype(np.uint8)
        values[:, var.index("S")] = 0
        values[[4, 17, 30], var.index("S")] = 1
        table = bn.DatasetTable(var, values)
        experiment = ev.PredictionExperiment(restarts=4)
        for seed in range(10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # a blanket may be empty
                result = ev.predict_sleep_experiment(table, bn.default_layer_constraints(), CFG,
                                                     experiment, seed=seed)
            assert len(result.curves) == 3
            assert result.degraded_folds["used"] == 3
            assert ev.report_json(result)["degraded_folds"] == result.degraded_folds

    def test_seeded_reruns_identical(self):
        table, constraints = self._profiles(n=500)
        experiment = ev.PredictionExperiment(folds=3, restarts=5)
        a = ev.predict_sleep_experiment(table, constraints, CFG, experiment, seed=7)
        b = ev.predict_sleep_experiment(table, constraints, CFG, experiment, seed=7)
        assert a.auc_per_fold == b.auc_per_fold


class TestStackedFoldsMatchOneAtATime:
    """predict_sleep_experiment climbs every fold's ensemble as one stack; the
    reference climbs each fold on its own from whole seed lists."""

    @pytest.mark.parametrize("experiment, seed", [
        (ev.PredictionExperiment(folds=4, restarts=8), 1),
        (ev.PredictionExperiment(folds=2, restarts=1), [3, 2**40]),
        (ev.PredictionExperiment(in_sample=True, restarts=6), 4),
        (ev.PredictionExperiment(folds=5, restarts=20, edge_probability=0.4), 0)])
    def test_same_result(self, experiment, seed):
        truth = synth.default_ground_truth()
        table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(300, 1, seed=21))
        self.check(table, experiment, seed)

    def test_degraded_folds(self):
        var = bn.profile_variables()
        values = np.random.default_rng(8).integers(0, 2, size=(40, 9)).astype(np.uint8)
        values[:, var.index("S")] = 0
        values[[4, 17, 30], var.index("S")] = 1
        for seed in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # a blanket may be empty
                self.check(bn.DatasetTable(var, values), ev.PredictionExperiment(restarts=4), seed)

    @staticmethod
    def check(table, experiment, seed):
        constraints = bn.default_layer_constraints()
        got = ev.predict_sleep_experiment(table, constraints, CFG, experiment, seed=seed)
        want = reference.predict_sleep_experiment(table, constraints, CFG, experiment, seed)
        assert got.auc_per_fold == want.auc_per_fold
        assert got.auc_mean == want.auc_mean
        assert got.degenerate_blanket == want.degenerate_blanket
        assert got.degraded_folds == want.degraded_folds
        for a, b in zip(got.curves, want.curves, strict=True):
            assert np.array_equal(a.fpr, b.fpr) and np.array_equal(a.tpr, b.tpr)


def test_roc_csv(tmp_path):
    curve = ev.roc_auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0])
    path = tmp_path / "roc.csv"
    ev.write_roc_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == len(curve.points) + 1


def test_report_json():
    curve = ev.roc_auc([0.9, 0.1], [1, 0])
    result = ev.PredictionResult([curve], [curve.auc], curve.auc, False)
    obj = ev.report_json(result)
    assert obj == {"auc_per_fold": [1.0], "auc_mean": 1.0, "degenerate_blanket": False}
