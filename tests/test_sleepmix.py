import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logsumexp

from stayup import sleepmix as sm
from stayup import synth
from stayup._kernels import poisson_scores
from stayup.pipeline import write_json

import reference


def two_peak_data(n_students, n_nights, seed):
    """(truth, ids, int64 counts, components) of generated sleep data."""
    truth = synth.default_ground_truth()
    cfg = synth.GeneratorConfig(n_students, n_nights, seed=seed)
    ids, counts, labels = synth.generate_sleep_data(truth, cfg)
    return truth, ids, counts, labels


class TestComponentLogLikelihood:
    def test_all_zero_counts_unit_rates(self):
        got = reference.component_log_likelihood(np.zeros(16), np.ones(16))
        assert got == pytest.approx(-16.0)

    def test_single_bin_against_poisson_pmf(self):
        got = reference.component_log_likelihood([3], [2.0])
        assert got == pytest.approx(stats.poisson.logpmf(3, 2.0), abs=1e-12)
        assert got == pytest.approx(-1.71231, abs=1e-5)

    def test_doubling_rates_decreases_for_zero_counts(self):
        lam = np.linspace(0.5, 3.0, 16)
        low = reference.component_log_likelihood(np.zeros(16), lam)
        high = reference.component_log_likelihood(np.zeros(16), 2 * lam)
        assert high < low

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            reference.component_log_likelihood([1, 2], [1.0, 0.0])


class TestEStep:
    def test_identical_components_split_evenly(self):
        model = sm.PoissonMixtureModel(np.ones((2, 16)) * 2.0, np.array([0.5, 0.5]))
        counts = np.random.default_rng(0).poisson(2.0, size=(20, 16))
        resp = reference.e_step(counts, model, sm.MixtureConfig())
        np.testing.assert_allclose(resp.weights, 0.5, atol=1e-12)

    def test_single_component_all_ones(self):
        model = sm.PoissonMixtureModel(np.ones((1, 16)), np.array([1.0]))
        counts = np.random.default_rng(1).poisson(1.0, size=(10, 16))
        resp = reference.e_step(counts, model, sm.MixtureConfig(components=1))
        np.testing.assert_allclose(resp.weights, 1.0)

    def test_single_bin_bayes_oracle(self):
        model = sm.PoissonMixtureModel(np.array([[1.0], [4.0]]), np.array([0.5, 0.5]))
        resp = reference.e_step(np.array([[0.0]]), model, sm.MixtureConfig())
        want = math.exp(-1) / (math.exp(-1) + math.exp(-4))
        assert resp.weights[0, 0] == pytest.approx(want, abs=1e-12)
        assert resp.weights[0, 0] == pytest.approx(0.9526, abs=1e-4)

    def test_rows_normalized(self):
        rng = np.random.default_rng(2)
        model = sm.PoissonMixtureModel(rng.uniform(0.2, 6.0, (3, 16)),
                                       np.array([0.2, 0.3, 0.5]))
        counts = rng.poisson(3.0, size=(50, 16))
        resp = reference.e_step(counts, model, sm.MixtureConfig(components=3))
        np.testing.assert_allclose(resp.weights.sum(axis=1), 1.0, atol=1e-12)

    def test_all_underflow_names_student(self):
        # rates so extreme every component's log score overflows to -inf
        model = sm.PoissonMixtureModel(np.full((2, 4), 1e308), np.array([0.5, 0.5]))
        with pytest.raises(sm.MixtureError, match="s001"):
            reference.e_step(np.zeros((1, 4)), model, sm.MixtureConfig(), ("s001",))

    def test_paper_literal_prior_shifts_weights(self):
        rng = np.random.default_rng(3)
        model = sm.PoissonMixtureModel(rng.uniform(0.5, 5.0, (2, 8)), np.array([0.5, 0.5]))
        counts = rng.poisson(2.0, size=(30, 8))
        standard = reference.e_step(counts, model, sm.MixtureConfig(variant="standard"))
        literal = reference.e_step(counts, model, sm.MixtureConfig(variant="paper"))
        assert not np.allclose(standard.weights, literal.weights)
        np.testing.assert_allclose(literal.weights.sum(axis=1), 1.0, atol=1e-12)


class TestMStep:
    def test_single_student_variants_coincide(self):
        resp = sm.Responsibilities(np.array([[1.0]]))
        counts = np.array([[3.0]])
        for variant in sm.VARIANT_STEPS:
            model = sm.m_step(counts, resp, sm.MixtureConfig(components=1, variant=variant))
            assert model.rates[0, 0] == pytest.approx(3.1 / 1.1, abs=1e-12)

    def test_two_students_variants_diverge(self):
        resp = sm.Responsibilities(np.ones((2, 1)))
        counts = np.array([[3.0], [3.0]])
        literal = sm.m_step(counts, resp, sm.MixtureConfig(components=1, variant="paper"))
        exact = sm.m_step(counts, resp, sm.MixtureConfig(components=1, variant="standard"))
        assert literal.rates[0, 0] == pytest.approx(6.2 / 2.2, abs=1e-12)
        assert exact.rates[0, 0] == pytest.approx(6.1 / 2.1, abs=1e-12)

    def test_unit_weights_give_unit_mixing(self):
        resp = sm.Responsibilities(np.column_stack([np.ones(5), np.zeros(5)]))
        counts = np.random.default_rng(4).poisson(2.0, size=(5, 3))
        model = sm.m_step(counts, resp, sm.MixtureConfig())
        np.testing.assert_allclose(model.mixing, [1.0, 0.0], atol=1e-15)

    def test_empty_component_stays_positive(self):
        resp = sm.Responsibilities(np.column_stack([np.ones(4), np.zeros(4)]))
        counts = np.random.default_rng(5).poisson(2.0, size=(4, 3))
        for variant in sm.VARIANT_STEPS:
            model = sm.m_step(counts, resp, sm.MixtureConfig(variant=variant))
            assert np.all(model.rates > 0)
            assert np.all(np.isfinite(model.rates))


class TestFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(6)
        counts = rng.poisson(4.0, size=(200, 16))
        cfg = sm.MixtureConfig(components=1, restarts=2, seed=0)
        model, resp, diag = sm.fit(counts, cfg)
        closed = (counts.sum(axis=0) + sm.ALPHA - 1) / (len(counts) + sm.BETA)
        np.testing.assert_allclose(model.rates[0], closed, rtol=0.02)

    def test_two_component_recovery(self):
        truth, _, counts, _ = two_peak_data(600, 120, seed=7)
        model, resp, diag = sm.fit(counts, sm.MixtureConfig(seed=1, restarts=4))
        truth_rates = synth.effective_rates(truth.mixture, 120)
        errs = []
        for perm in ((0, 1), (1, 0)):
            errs.append(np.max(np.abs(model.rates[list(perm)] - truth_rates) / truth_rates))
        assert min(errs) < 0.10

    def test_objective_ascends(self, monkeypatch):
        monkeypatch.setattr(sm, "MAX_ITERATIONS", 100)
        rng = np.random.default_rng(8)
        for trial in range(15):
            base = rng.uniform(0.3, 5.0, size=16)
            counts = rng.poisson(base, size=(60, 16))
            cfg = sm.MixtureConfig(restarts=1, seed=trial)
            _, _, diag = sm.fit(counts, cfg)
            assert np.min(np.diff(diag.objective_trace)) >= -1e-9

    def test_trace_and_convergence_reported(self):
        _, _, counts, _ = two_peak_data(150, 60, seed=9)
        model, resp, diag = sm.fit(counts, sm.MixtureConfig(seed=3, restarts=2))
        assert diag.converged
        assert diag.iterations_used == len(diag.objective_trace) - 1
        assert 0 <= diag.best_restart_index < 2

    @pytest.mark.parametrize("variant, per_objective", [("standard", 1), ("paper", 2)])
    def test_log_sum_exps_per_objective(self, monkeypatch, variant, per_objective):
        # standard's E-step normalizes by the objective's log-sum-exp; paper
        # adds the prior to the scores first and needs one of its own
        calls = []
        real = sm.logsumexp

        def counted(a, axis=None):
            calls.append(axis)
            return real(a, axis=axis)

        monkeypatch.setattr(sm, "logsumexp", counted)
        _, _, counts, _ = two_peak_data(150, 60, seed=9)
        _, _, diag = sm.fit(counts, sm.MixtureConfig(seed=3, restarts=1, variant=variant))
        assert len(calls) == per_objective * len(diag.objective_trace)

    def test_permutation_invariance(self):
        _, _, counts, _ = two_peak_data(80, 50, seed=10)
        cfg = sm.MixtureConfig(seed=5, restarts=2)
        model_a, _, _ = sm.fit(counts, cfg)
        perm = np.random.default_rng(0).permutation(len(counts))
        model_b, _, _ = sm.fit(counts[perm], cfg)
        np.testing.assert_allclose(model_a.rates, model_b.rates, rtol=1e-9)
        np.testing.assert_allclose(model_a.mixing, model_b.mixing, atol=1e-9)

    def test_duplication_invariance_literal_mstep(self):
        # the literal rate update is scale free in the responsibilities, and
        # the literal E-step adds the same prior term to every student, so
        # duplicating every student reproduces the fit exactly
        _, _, counts, _ = two_peak_data(60, 50, seed=11)
        cfg = sm.MixtureConfig(seed=6, restarts=2, variant="paper")
        model_a, _, _ = sm.fit(counts, cfg)
        model_b, _, _ = sm.fit(np.vstack([counts, counts]), cfg)
        np.testing.assert_allclose(model_a.rates, model_b.rates, rtol=1e-9)
        np.testing.assert_allclose(model_a.mixing, model_b.mixing, atol=1e-9)

    def test_fewer_students_than_components_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            sm.fit(np.ones((1, 16)), sm.MixtureConfig(components=2))

    def test_mixing_sums_to_one(self):
        _, _, counts, _ = two_peak_data(100, 40, seed=12)
        model, resp, _ = sm.fit(counts, sm.MixtureConfig(seed=7, restarts=2))
        assert model.mixing.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(resp.weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(model.rates > 0)


# Reference EM loop that computes the score matrix twice per iteration, once
# for the objective and again for the next E-step. fit, which computes it once,
# must match it bit for bit.
def _ref_log_weights(counts, model, cfg, row_lgamma=None):
    if row_lgamma is None:
        row_lgamma = gammaln(counts + 1).sum(axis=1)
    log_rates = np.log(model.rates)
    with np.errstate(over="ignore"):
        scores = poisson_scores(counts, log_rates, model.rates.sum(axis=1))
    scores = scores - row_lgamma[:, None]
    with np.errstate(divide="ignore"):
        scores = scores + np.log(model.mixing)[None, :]
    if cfg.variant == "paper":
        scores = scores + sm._log_prior_per_component(model)[None, :]
    return scores


def _ref_log_joint(counts, model):
    row_lgamma = gammaln(counts + 1).sum(axis=1)
    log_rates = np.log(model.rates)
    scores = poisson_scores(counts, log_rates, model.rates.sum(axis=1)) - row_lgamma[:, None]
    with np.errstate(divide="ignore"):
        scores = scores + np.log(model.mixing)[None, :]
    return float(logsumexp(scores, axis=1).sum() + sm._log_prior_per_component(model).sum())


def _ref_responsibilities(scores, ids):
    norm = logsumexp(scores, axis=1)
    assert np.all(np.isfinite(norm))
    return sm.Responsibilities(np.exp(scores - norm[:, None]), ids)


def _ref_em_run(counts, init, cfg, ids):
    row_lgamma = gammaln(counts + 1).sum(axis=1)
    resp = sm.Responsibilities(init, ids)
    model = sm.m_step(counts, resp, cfg)
    trace = [_ref_log_joint(counts, model)]
    converged = False
    for _ in range(1, sm.MAX_ITERATIONS + 1):
        resp = _ref_responsibilities(_ref_log_weights(counts, model, cfg, row_lgamma), ids)
        model = sm.m_step(counts, resp, cfg)
        objective = _ref_log_joint(counts, model)
        trace.append(objective)
        if abs(objective - trace[-2]) / max(abs(trace[-2]), 1e-300) < sm.TOLERANCE:
            converged = True
            break
    return model, resp, trace, converged


def ref_initial_responsibilities(counts, cfg, restart):
    """One restart's starts one student at a time: the scalar stream's spacings,
    keyed on (seed, restart, hash of the row's counts)."""
    weights = np.empty((counts.shape[0], cfg.components))
    for i, row in enumerate(counts):
        h = int.from_bytes(hashlib.sha256(row.tobytes()).digest()[:8], "little")
        key = reference.stream_key([cfg.seed, restart, h])
        weights[i] = reference.stream_spacings(key, cfg.components)
    return weights


class TestInitialResponsibilities:
    @pytest.mark.parametrize("components", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2**54, 2**64 - 1, 2**70])
    def test_bit_equal_to_scalar_reference(self, components, seed):
        counts = np.random.default_rng(components).poisson(2.0, size=(60, 16)).astype(float)
        cfg = sm.MixtureConfig(components=components, restarts=3, seed=seed)
        starts = sm.initial_responsibilities(counts, cfg)
        assert starts.shape == (3, 60, components)
        for restart in range(3):
            np.testing.assert_array_equal(starts[restart],
                                          ref_initial_responsibilities(counts, cfg, restart))

    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**70),
           st.lists(st.lists(st.integers(0, 40), min_size=16, max_size=16), min_size=1, max_size=8))
    def test_bit_equal_to_scalar_reference_on_any_rows(self, components, restarts, seed, rows):
        counts = np.array(rows, dtype=np.float64)
        cfg = sm.MixtureConfig(components=components, restarts=restarts, seed=seed)
        starts = sm.initial_responsibilities(counts, cfg)
        for restart in range(restarts):
            np.testing.assert_array_equal(starts[restart],
                                          ref_initial_responsibilities(counts, cfg, restart))

    @pytest.mark.parametrize("components", [2, 3, 5])
    def test_beta_marginals(self, components):
        # each coordinate of a Dirichlet(1, ..., 1) start is Beta(1, M - 1); the
        # Kolmogorov-Smirnov test of each fails a correct stream with probability 1e-4
        n = 20_000
        counts = np.zeros((n, 16))
        counts[:, 0], counts[:, 1] = np.arange(n) % 97, np.arange(n) // 97   # distinct rows
        starts = sm.initial_responsibilities(counts, sm.MixtureConfig(components=components,
                                                                      restarts=2, seed=9))
        np.testing.assert_allclose(starts.sum(axis=-1), 1.0, rtol=0, atol=4e-16)
        assert (starts >= 0).all()
        for column in starts.reshape(-1, components).T:
            assert stats.kstest(column, stats.beta(1, components - 1).cdf).pvalue > 1e-4

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sm.initial_responsibilities(np.ones((4, 16)), sm.MixtureConfig(seed=-1))


def _ref_fit(counts, cfg, ids):
    # the starts hash float64 rows, whatever dtype the counts come in
    counts = np.asarray(counts, dtype=np.float64)
    best = None
    for restart in range(cfg.restarts):
        init = ref_initial_responsibilities(counts, cfg, restart)
        model, _, trace, converged = _ref_em_run(counts, init, cfg, ids)
        if best is None or trace[-1] > best[0]:
            best = (trace[-1], restart, model, trace, converged)
    _, restart, model, trace, converged = best
    resp = _ref_responsibilities(_ref_log_weights(counts, model, cfg), ids)
    return model, resp, trace, restart, converged


class TestFitMatchesReferenceLoop:
    @pytest.mark.parametrize("variant", ["standard", "paper"])
    @pytest.mark.parametrize("seed,max_iterations", [(21, 500), (22, 500), (23, 12)])
    def test_bit_identical(self, monkeypatch, variant, seed, max_iterations):
        monkeypatch.setattr(sm, "MAX_ITERATIONS", max_iterations)
        _, ids, counts, _ = two_peak_data(120, 40, seed=seed)
        cfg = sm.MixtureConfig(seed=seed, restarts=3, variant=variant)
        model, resp, diag = sm.fit(counts, cfg, ids)
        ref_model, ref_resp, ref_trace, ref_restart, ref_converged = _ref_fit(counts, cfg, ids)
        np.testing.assert_array_equal(model.rates, ref_model.rates)
        np.testing.assert_array_equal(model.mixing, ref_model.mixing)
        np.testing.assert_array_equal(resp.weights, ref_resp.weights)
        assert resp.student_ids == ref_resp.student_ids
        assert diag.objective_trace == ref_trace
        assert (diag.best_restart_index, diag.converged) == (ref_restart, ref_converged)


class TestAssignAndLabel:
    def _fitted(self, seed=13):
        truth, ids, counts, _ = two_peak_data(200, 80, seed=seed)
        model, resp, _ = sm.fit(counts, sm.MixtureConfig(seed=2, restarts=3), ids)
        return truth, model, resp

    def test_late_peak_is_stay_up(self):
        truth, model, _ = self._fitted()
        comp = sm.stay_up_component(model)
        d = np.arange(16)
        means = model.rates @ d / model.rates.sum(axis=1)
        assert means[comp] == means.max()

    def test_boundary_responsibility_is_stay_up(self):
        model = sm.PoissonMixtureModel(
            np.array([[3.0, 1.0], [1.0, 3.0]]), np.array([0.5, 0.5])
        )
        resp = sm.Responsibilities(np.array([[0.5, 0.5]]))
        assignments = sm.assign_and_label(resp, model, threshold=0.5)
        assert assignments.stay_up[0]

    def test_clear_majority(self):
        model = sm.PoissonMixtureModel(
            np.array([[3.0, 1.0], [1.0, 3.0]]), np.array([0.5, 0.5])
        )
        resp = sm.Responsibilities(np.array([[0.2, 0.8], [0.9, 0.1]]))
        assignments = sm.assign_and_label(resp, model)
        assert assignments.stay_up_component == 1
        assert assignments.stay_up.tolist() == [True, False]

    def test_mean_bin_tie_errors(self):
        model = sm.PoissonMixtureModel(np.ones((2, 4)), np.array([0.5, 0.5]))
        resp = sm.Responsibilities(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="manual"):
            sm.assign_and_label(resp, model)

    def test_relabeling_symmetry(self):
        _, model, resp = self._fitted(seed=14)
        labels = sm.assign_and_label(resp, model).stay_up
        swapped_model = sm.PoissonMixtureModel(model.rates[::-1].copy(), model.mixing[::-1].copy())
        swapped_resp = sm.Responsibilities(resp.weights[:, ::-1].copy(), resp.student_ids)
        labels_swapped = sm.assign_and_label(swapped_resp, swapped_model).stay_up
        np.testing.assert_array_equal(labels, labels_swapped)

    def test_threshold_validated(self):
        model = sm.PoissonMixtureModel(np.array([[3.0, 1.0], [1.0, 3.0]]), np.array([0.5, 0.5]))
        resp = sm.Responsibilities(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            sm.assign_and_label(resp, model, threshold=1.0)


class TestSerialization:
    def test_model_json_round_trip(self, tmp_path):
        _, _, counts, _ = two_peak_data(80, 40, seed=15)
        cfg = sm.MixtureConfig(seed=4, restarts=2)
        model, resp, _ = sm.fit(counts, cfg)
        path = tmp_path / "model.json"
        write_json(path, sm.model_to_json(model, cfg))
        import json

        obj = json.loads(path.read_text())
        assert obj["D"] == 16 and obj["M"] == 2
        assert obj["alpha"] == sm.ALPHA == 1.1 and obj["beta"] == sm.BETA == 0.1
        np.testing.assert_array_equal(obj["lambda"], model.rates)
        np.testing.assert_array_equal(obj["mixing"], model.mixing)
        assert obj["variant"] == {"estep": "standard", "mstep": "exact_map"}

    def test_assignments_csv_round_trip(self, tmp_path):
        _, ids, counts, _ = two_peak_data(50, 40, seed=16)
        model, resp, _ = sm.fit(counts, sm.MixtureConfig(seed=8, restarts=2), ids)
        assignments = sm.assign_and_label(resp, model)
        path = tmp_path / "assignments.csv"
        sm.write_assignments_csv(path, assignments.student_ids, assignments.omega_stay_up,
                                 assignments.stay_up)
        ids, stay_up = sm.read_assignments_csv(path)
        assert ids == assignments.student_ids and stay_up.dtype == bool
        np.testing.assert_array_equal(stay_up, assignments.stay_up)
        assert 0 < stay_up.sum() < len(ids)   # both words were written and read back
