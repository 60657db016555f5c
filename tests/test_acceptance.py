"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s). The suite is
self-contained: oracles here are independent re-derivations, not calls back
into the code paths they check.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from stayup import bayesnet as bn
from stayup import consensus as cons
from stayup import evaluate as ev
from stayup import pipeline as pl
from stayup import seeding
from stayup import sleepmix as sm
from stayup import synth

import reference

BDEU = bn.BdeuConfig()


def check(label, ok, detail):
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_criterion_1_mixture_recovery():
    truth = synth.default_ground_truth()
    ids, counts, true_components = synth.generate_sleep_data(
        truth, synth.GeneratorConfig(2000, 150, seed=41)
    )
    cfg = sm.MixtureConfig(components=2, restarts=10, seed=7)
    start = time.perf_counter()
    model, resp, diag = sm.fit(counts, cfg, ids)
    elapsed = time.perf_counter() - start

    truth_rates = synth.effective_rates(truth.mixture, 150)
    rel_errors = []
    for perm in ((0, 1), (1, 0)):
        rel_errors.append(
            float(np.max(np.abs(model.rates[list(perm)] - truth_rates) / truth_rates))
        )
    max_rel_err = min(rel_errors)
    aligned = (0, 1) if rel_errors[0] <= rel_errors[1] else (1, 0)

    # accuracy of hard assignments against the generator's component draws
    hard = np.argmax(resp.weights, axis=1)
    mapped = np.array([aligned[h] for h in hard])
    want = np.array([true_components[sid] for sid in resp.student_ids])
    accuracy = float((mapped == want).mean())

    check(
        "criterion 1 (mixture recovery)",
        max_rel_err < 0.10 and accuracy >= 0.95 and elapsed < 10.0,
        f"max rel err {max_rel_err:.4f} < 0.10, accuracy {accuracy:.4f} >= 0.95, "
        f"fit time {elapsed:.1f}s < 10s",
    )


def test_criterion_2_em_ascent(monkeypatch):
    monkeypatch.setattr(sm, "MAX_ITERATIONS", 300)
    worst = np.inf
    for seed in range(100):
        rng = np.random.default_rng([42, seed])
        rates = rng.uniform(0.2, 6.0, size=(2, 16))
        z = rng.integers(0, 2, size=200)
        counts = rng.poisson(rates[z])
        cfg = sm.MixtureConfig(variant="standard", restarts=1, seed=seed)
        _, _, diag = sm.fit(counts, cfg)
        deltas = np.diff(diag.objective_trace)
        if len(deltas):
            worst = min(worst, float(deltas.min()))
    check(
        "criterion 2 (EM ascent)",
        worst >= -1e-9,
        f"smallest objective change over 100 datasets {worst:.3e} >= -1e-9",
    )


def _sequential_bdeu(values, arities, child, parents, ess):
    r = arities[child]
    q = 1
    for p in parents:
        q *= arities[p]
    a_jk = ess / (q * r)
    a_j = ess / q
    n_jk, n_j = {}, {}
    total = 0.0
    for row in values:
        j = tuple(int(row[p]) for p in parents)
        k = int(row[child])
        total += math.log((a_jk + n_jk.get((j, k), 0)) / (a_j + n_j.get(j, 0)))
        n_jk[(j, k)] = n_jk.get((j, k), 0) + 1
        n_j[j] = n_j.get(j, 0) + 1
    return total


def _all_three_node_dags(var):
    names = var.names
    pairs = [(u, v) for u in names for v in names if u != v]
    dags = []
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        edges = [p for p, b in zip(pairs, bits) if b]
        if any((v, u) in edges for u, v in edges):
            continue
        try:
            dags.append(bn.Dag(var, edges))
        except ValueError:
            pass
    return dags


def test_criterion_3_bdeu_correctness():
    rng = np.random.default_rng(43)
    names = ("A", "B", "C", "D", "E")
    var = bn.VariableSet.binary(names)
    worst_family = 0.0
    for _ in range(1000):
        n_rows = int(rng.integers(0, 150))
        data = bn.DatasetTable(var, rng.integers(0, 2, size=(n_rows, 5)))
        child = int(rng.integers(5))
        others = [j for j in range(5) if j != child]
        parents = sorted(rng.choice(others, size=int(rng.integers(0, 4)), replace=False))
        ess = float(rng.choice([0.5, 1.0, 3.0]))
        got = reference.bdeu_family_score(data, child, parents, bn.BdeuConfig(ess))
        want = _sequential_bdeu(data.values, var.arities, child, parents, ess)
        worst_family = max(worst_family, abs(got - want))

    worst_delta = 0.0
    constraints = bn.LayerConstraints.unconstrained(var)
    for trial in range(200):
        data = bn.DatasetTable(var, rng.integers(0, 2, size=(120, 5)))
        dag = bn.random_start(constraints, 0.4, seed=trial)
        adds = [m for m in reference.legal_moves(dag, constraints) if m[0] == "add"]
        if not adds:
            continue
        _, u, v = adds[int(rng.integers(len(adds)))]
        bigger = reference.copy_dag(dag)
        bigger.add_edge(u, v)
        full = reference.bdeu_score(bigger, data, BDEU) - reference.bdeu_score(dag, data, BDEU)
        family = reference.bdeu_family_score(data, v, bigger.parents(v), BDEU) - \
            reference.bdeu_family_score(data, v, dag.parents(v), BDEU)
        worst_delta = max(worst_delta, abs(full - family))
        for name in names:
            if name != v:
                assert reference.bdeu_family_score(data, name, dag.parents(name), BDEU) == \
                    reference.bdeu_family_score(data, name, bigger.parents(name), BDEU)

    # Markov-equivalent pairs: same skeleton, same immoralities
    worst_equiv = 0.0
    var3 = bn.VariableSet.binary(("X", "Y", "Z"))
    for trial in range(50):
        data = bn.DatasetTable(var3, rng.integers(0, 2, size=(200, 3)))
        classes = {}
        for dag in _all_three_node_dags(var3):
            skeleton = frozenset(frozenset(e) for e in dag.edges())
            immoral = set()
            for v in var3.names:
                for p1, p2 in itertools.combinations(sorted(dag.parents(v)), 2):
                    if not dag.has_edge(p1, p2) and not dag.has_edge(p2, p1):
                        immoral.add((p1, p2, v))
            classes.setdefault((skeleton, frozenset(immoral)), []).append(
                reference.bdeu_score(dag, data, BDEU)
            )
        for scores in classes.values():
            worst_equiv = max(worst_equiv, max(scores) - min(scores))

    check(
        "criterion 3 (BDeu correctness)",
        worst_family < 1e-9 and worst_delta < 1e-9 and worst_equiv < 1e-9,
        f"oracle gap {worst_family:.2e}, delta gap {worst_delta:.2e}, "
        f"equivalence gap {worst_equiv:.2e}, all < 1e-9",
    )


def test_criterion_4_search_optimality():
    rng = np.random.default_rng(44)
    var = bn.VariableSet.binary(("X", "Y", "Z"))
    constraints = bn.LayerConstraints.unconstrained(var)
    all_dags = _all_three_node_dags(var)
    assert len(all_dags) == 25
    hits = 0
    for trial in range(100):
        truth = all_dags[int(rng.integers(25))]
        cpts = []
        for i in range(3):
            parents = tuple(sorted(truth.parent_indices(i)))
            q = 2 ** len(parents)
            p1 = rng.uniform(0.1, 0.9, size=q)
            cpts.append(bn.Cpt(parents, np.column_stack([1 - p1, p1])))
        cpts = bn.CptSet(var, tuple(cpts))
        values = np.zeros((500, 3), dtype=np.uint8)
        for i in truth.topological_order():
            j = np.zeros(500, dtype=np.int64)
            for p in cpts.cpts[i].parents:
                j = j * 2 + values[:, p]
            values[:, i] = rng.random(500) < cpts.cpts[i].table[j, 1]
        data = bn.DatasetTable(var, values)

        # the search learn_ensemble runs: 20 random starts climbed in one batch
        table = bn.score_table(data, constraints, BDEU)
        starts = bn.random_start_masks(constraints, 0.3,
                                       seeding.keys([[trial, r] for r in range(20)]))
        _, scores = bn.climb_batch(table, constraints, starts,
                                   seeding.keys([[trial, r, 1] for r in range(20)]))
        best = max(scores)
        optimum = max(reference.bdeu_score(d, data, BDEU, table=table) for d in all_dags)
        if best >= optimum - 1e-9:
            hits += 1
    check(
        "criterion 4 (search optimality)",
        hits >= 95,
        f"exhaustive optimum reached in {hits}/100 seeded datasets (needs >= 95)",
    )


def test_criterion_5_structure_recovery():
    truth = synth.structure_recovery_truth()
    constraints = bn.default_layer_constraints()
    start = time.perf_counter()
    shds = []
    for seed in range(5):
        table, _ = synth.generate_profiles(
            truth, synth.GeneratorConfig(4000, 1, seed=100 + seed)
        )
        result, _, _ = cons.consensus_pipeline(
            table, constraints, BDEU,
            n_restarts=200, fraction=1 / 3, replicas=10, seed=seed,
        )
        shds.append(reference.structural_hamming_distance(result.dag, truth.profile_dag))
    elapsed = time.perf_counter() - start
    mean_shd = float(np.mean(shds))
    check(
        "criterion 5 (structure recovery)",
        mean_shd <= 3.0 and elapsed < 300.0,
        f"SHD per seed {shds}, mean {mean_shd:.2f} <= 3, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_6_null_sanity():
    truth = synth.default_ground_truth()
    constraints = bn.default_layer_constraints()
    counts = []
    for seed in range(20):
        table, _ = synth.generate_profiles(
            truth, synth.GeneratorConfig(1000, 1, seed=200 + seed)
        )
        permuted = reference.generator_permute_columns(table, np.random.default_rng([seed, 77]))
        result, _, _ = cons.consensus_pipeline(
            permuted, constraints, BDEU, n_restarts=60, replicas=4, seed=seed
        )
        counts.append(len(result.dag.edges()))
    mean_edges = float(np.mean(counts))
    check(
        "criterion 6 (null sanity)",
        mean_edges <= 1.0,
        f"consensus edges on permuted data: mean {mean_edges:.2f} <= 1 over 20 seeds",
    )


def test_criterion_7_predictability_band():
    truth = synth.default_ground_truth()
    constraints = bn.default_layer_constraints()
    table, _ = synth.generate_profiles(truth, synth.GeneratorConfig(4000, 1, seed=300))
    experiment = ev.PredictionExperiment(folds=5, restarts=20)
    dependent = ev.predict_sleep_experiment(table, constraints, BDEU, experiment, seed=8)

    values = table.values.copy()
    si = table.variables.index("S")
    values[:, si] = values[np.random.default_rng(301).permutation(len(values)), si]
    independent_table = bn.DatasetTable(table.variables, values)
    with pytest.warns(UserWarning):
        independent = ev.predict_sleep_experiment(
            independent_table, constraints, BDEU, experiment, seed=9
        )
    check(
        "criterion 7 (predictability band)",
        0.65 <= dependent.auc_mean <= 0.75 and 0.45 <= independent.auc_mean <= 0.55,
        f"dependent mean AUC {dependent.auc_mean:.4f} in [0.65, 0.75], "
        f"independent {independent.auc_mean:.4f} in [0.45, 0.55]",
    )


def _blanket_deviation(dag, grids, probs, var):
    worst = 0.0
    for name in var.names:
        xi = var.index(name)
        mb = sorted(var.index(m) for m in bn.markov_blanket(dag, name))
        rest = [j for j in range(var.n) if j != xi]
        key_rest = np.zeros(len(grids), dtype=np.int64)
        for j in rest:
            key_rest = key_rest * 2 + grids[:, j]
        key_mb = np.zeros(len(grids), dtype=np.int64)
        for j in mb:
            key_mb = key_mb * 2 + grids[:, j]
        sums_mb, sums_mb1, sums_r, sums_r1 = {}, {}, {}, {}
        for s in range(len(grids)):
            sums_mb[key_mb[s]] = sums_mb.get(key_mb[s], 0.0) + probs[s]
            sums_r[key_rest[s]] = sums_r.get(key_rest[s], 0.0) + probs[s]
            if grids[s, xi] == 1:
                sums_mb1[key_mb[s]] = sums_mb1.get(key_mb[s], 0.0) + probs[s]
                sums_r1[key_rest[s]] = sums_r1.get(key_rest[s], 0.0) + probs[s]
        for s in range(len(grids)):
            if sums_r.get(key_rest[s], 0.0) <= 0.0 or sums_mb.get(key_mb[s], 0.0) <= 0.0:
                continue
            p_rest = sums_r1.get(key_rest[s], 0.0) / sums_r[key_rest[s]]
            p_mb = sums_mb1.get(key_mb[s], 0.0) / sums_mb[key_mb[s]]
            worst = max(worst, abs(p_rest - p_mb))
    return worst


def test_criterion_8_markov_blanket_independence():
    rng = np.random.default_rng(48)
    var = bn.profile_variables()
    constraints = bn.default_layer_constraints()
    worst = 0.0
    for seed in range(50):
        dag = bn.random_start(constraints, float(rng.uniform(0.1, 0.5)), seed=[seed, 1])
        data = bn.DatasetTable(var, rng.integers(0, 2, size=(150, 9)))
        cpts = bn.fit_mle(dag, data)
        grids, probs = bn.joint_table(dag, cpts)
        worst = max(worst, _blanket_deviation(dag, grids, probs, var))
    check(
        "criterion 8 (Markov blanket independence)",
        worst < 1e-12,
        f"max |P(X|MB,rest) - P(X|MB)| = {worst:.2e} < 1e-12 over 50 fitted networks",
    )


def test_criterion_9_determinism_and_roc_oracles(tmp_path):
    data_dir = tmp_path / "data"
    truth = synth.default_ground_truth()
    synth.generate_full_logs(truth, synth.GeneratorConfig(300, 30, seed=49), data_dir)
    out_dir = tmp_path / "out"
    cfg = dict(
        data_dir=data_dir, out_dir=out_dir, seed=13, restarts=25,
        null_replicas=2, folds=3, eval_restarts=5, em_restarts=3, min_nights=5,
    )
    pl.run_pipeline(pl.PipelineConfig(**cfg))
    first_report = (out_dir / "report.json").read_bytes()
    first_manifest = json.loads((out_dir / "MANIFEST.json").read_text())
    pl.run_pipeline(pl.PipelineConfig(**cfg))
    second_report = (out_dir / "report.json").read_bytes()
    second_manifest = json.loads((out_dir / "MANIFEST.json").read_text())

    roc_exact = (
        ev.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).auc == 1.0
        and ev.roc_auc([0.4] * 8, [1, 0] * 4).auc == 0.5
        and ev.roc_auc([0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]).auc == 0.75
    )
    check(
        "criterion 9 (determinism + ROC oracles)",
        first_report == second_report
        and first_manifest["files"] == second_manifest["files"]
        and roc_exact,
        "byte-identical reports and file digests across reruns; "
        "perfect/tied/hand-computed ROC cases exact",
    )
