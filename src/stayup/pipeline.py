"""End-to-end orchestration: ingest -> mixture fit -> profiles -> per-cohort
consensus -> total network -> predictability, with deterministic seeding and
a MANIFEST of every emitted artifact."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bayesnet, consensus, evaluate, ingest, profiles, sleepmix

SCHEMA_VERSION = 1

COHORT_CHOICES = ("freshman", "sophomore", "junior", "all")


class ConfigError(ValueError):
    """Bad configuration or missing input; maps to exit code 2."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    data_dir: Path
    out_dir: Path
    seed: int = 0
    cohort: str = "all"
    strict_parse: bool = False
    min_nights: int = ingest.DEFAULT_MIN_NIGHTS
    gpa_max: float = ingest.DEFAULT_GPA_MAX
    median_scope: str = "per_cohort"   # per_cohort | global
    components: int = 2
    em_restarts: int = 10
    variant: str = "standard"          # standard | paper
    ess: float = 1.0
    restarts: int = consensus.DEFAULT_RESTARTS
    top_fraction: float = consensus.DEFAULT_TOP_FRACTION
    null_replicas: int = consensus.DEFAULT_NULL_REPLICAS
    edge_probability: float = consensus.DEFAULT_EDGE_PROBABILITY
    null_resample: str = "permute"
    folds: int = 5
    eval_restarts: int = 20
    in_sample: bool = False

    def __post_init__(self):
        self.data_dir = Path(self.data_dir)
        self.out_dir = Path(self.out_dir)
        if self.cohort not in COHORT_CHOICES:
            raise ConfigError(f"cohort must be one of {COHORT_CHOICES}")
        if self.median_scope not in ("per_cohort", "global"):
            raise ConfigError("median_scope must be per_cohort or global")
        if self.variant not in ("standard", "paper"):
            raise ConfigError("variant must be standard or paper")

    def mixture_config(self, group_index: int) -> sleepmix.MixtureConfig:
        literal = self.variant == "paper"
        return sleepmix.MixtureConfig(
            components=self.components,
            restarts=self.em_restarts,
            estep_variant="paper_literal" if literal else "standard",
            mstep_variant="paper_literal" if literal else "exact_map",
            seed=derive_seed(self.seed, 1, group_index),
        )

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["data_dir"] = str(self.data_dir)
        out["out_dir"] = str(self.out_dir)
        return out


def derive_seed(*parts: int) -> int:
    """Stable 64-bit stream seed from integer parts."""
    state = np.random.SeedSequence(list(parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing config file: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dump_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


class _Artifacts:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}

    def register(self, path: Path):
        self.files[path.name] = _sha256(path)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute every stage, write artifacts plus MANIFEST.json, return the report.

    Raises ConfigError for missing inputs and StageError when a stage fails;
    on stage failure the MANIFEST still lands on disk with the incomplete
    stage named.
    """
    paths = ingest.LogPaths.from_dir(cfg.data_dir)
    for p in paths.as_dict().values():
        if not p.exists():
            raise ConfigError(f"missing input file: {p}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = _Artifacts(cfg.out_dir)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "stages": [],
        "incomplete": [],
        "files": {},
    }

    state: dict = {"report": {"schema_version": SCHEMA_VERSION, "seed": cfg.seed,
                              "config": cfg.echo()}}
    stages = [
        ("ingest", _stage_ingest),
        ("sleep_fit", _stage_sleep_fit),
        ("profile", _stage_profile),
        ("consensus", _stage_consensus),
        ("total_network", _stage_total_network),
        ("predict", _stage_predict),
        ("report", _stage_report),
    ]
    for name, fn in stages:
        try:
            fn(cfg, state, artifacts)
        except Exception as exc:
            manifest["incomplete"] = [name]
            manifest["files"] = artifacts.files
            _dump_json(cfg.out_dir / "MANIFEST.json", manifest)
            raise StageError(name, exc) from exc
        manifest["stages"].append(name)

    manifest["files"] = artifacts.files
    _dump_json(cfg.out_dir / "MANIFEST.json", manifest)
    return state["report"]


def _groups(cfg: PipelineConfig, demographics) -> list[tuple[str, list[str]]]:
    selected = list(ingest.COHORTS) if cfg.cohort == "all" else [cfg.cohort]
    by_cohort = {c: [] for c in selected}
    for sid in sorted(demographics):
        cohort = demographics[sid].cohort
        if cohort in by_cohort:
            by_cohort[cohort].append(sid)
    return [(c, by_cohort[c]) for c in selected]


def _stage_ingest(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    result = ingest.ingest_logs(cfg.data_dir, cfg.out_dir, strict=cfg.strict_parse,
                                gpa_max=cfg.gpa_max, min_nights=cfg.min_nights)
    for name in ingest.INGEST_OUTPUTS:
        artifacts.register(cfg.out_dir / name)
    state.update(demographics=result.demographics, counts=result.counts,
                 features=result.features)
    state["report"]["ingest"] = result.summary()


def _stage_sleep_fit(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    groups = _groups(cfg, state["demographics"])
    state["groups"] = groups
    rows: list[tuple[str, float, str]] = []
    cluster_sizes: dict[str, dict[str, int]] = {}
    for gi, (cohort, members) in enumerate(groups):
        group_counts = {sid: state["counts"][sid] for sid in members if sid in state["counts"]}
        mix_cfg = cfg.mixture_config(gi)
        model, resp, diag = sleepmix.fit(group_counts, mix_cfg)
        assignments = sleepmix.assign_and_label(resp, model)
        model_path = cfg.out_dir / f"model_{cohort}.json"
        _dump_json(model_path, {
            **sleepmix.model_to_json(model, mix_cfg), "master_seed": cfg.seed,
        })
        artifacts.register(model_path)
        rows.extend(zip(assignments.student_ids, assignments.omega_stay_up, assignments.labels))
        n_up = assignments.labels.count(sleepmix.STAY_UP)
        cluster_sizes[cohort] = {
            "stay_up": n_up,
            "non_stay_up": len(group_counts) - n_up,
            "total": len(group_counts),
        }
    cluster_sizes["total"] = {
        key: sum(row[key] for c, row in cluster_sizes.items() if c != "total")
        for key in ("stay_up", "non_stay_up", "total")
    }
    rows.sort(key=lambda row: row[0])
    assignments_path = cfg.out_dir / "assignments.csv"
    sleepmix.write_assignments_csv(assignments_path, rows)
    artifacts.register(assignments_path)

    state["sleep_labels"] = {sid: label for sid, _, label in rows}
    state["report"]["cluster_sizes"] = cluster_sizes


def _stage_profile(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    spec = profiles.default_discretization_spec()
    labels = state["sleep_labels"]
    features = state["features"]
    all_profiles: list[profiles.StudentProfile] = []
    group_medians: dict[str, dict[str, float]] = {}
    excluded: dict[str, dict[str, str]] = {}
    group_tables: dict[str, bayesnet.DatasetTable] = {}

    if cfg.median_scope == "global":
        pool = [sid for _, members in state["groups"] for sid in members]
        scopes = [("global", pool)]
    else:
        scopes = state["groups"]
    results: dict[str, profiles.ProfileResult] = {}
    for scope_name, members in scopes:
        sub_features = {sid: features[sid] for sid in members if sid in features}
        sub_labels = {sid: labels[sid] for sid in members if sid in labels}
        result = profiles.build_profiles(sub_features, sub_labels, spec)
        results[scope_name] = result
        group_medians[scope_name] = result.medians
        excluded[scope_name] = result.excluded
        all_profiles.extend(result.profiles)

    by_id = {p.student_id: p for p in all_profiles}
    for cohort, members in state["groups"]:
        rows = [by_id[sid] for sid in members if sid in by_id]
        if rows:
            table, _ = profiles.profiles_to_table(rows)
            group_tables[cohort] = table

    profiles_path = cfg.out_dir / "profiles.csv"
    profiles.write_profiles_csv(profiles_path, all_profiles)
    artifacts.register(profiles_path)
    meta_path = cfg.out_dir / "profile_meta.json"
    _dump_json(meta_path, {
        **profiles.metadata_json(spec, group_medians), "master_seed": cfg.seed,
    })
    artifacts.register(meta_path)

    state["group_tables"] = group_tables
    state["report"]["profiling"] = {
        "students_profiled": len(all_profiles),
        "excluded": {g: dict(sorted(e.items())) for g, e in excluded.items() if e},
    }
    # fail on tables the predict stage cannot cross-validate now, not after consensus
    experiment, tasks = _prediction_tasks(cfg, state)
    for name, table, seed in tasks:
        try:
            evaluate.cv_splits(table.column(experiment.target), experiment, seed)
        except ValueError as exc:
            raise ValueError(f"{name} profiles: {exc}") from None


def _stage_consensus(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    constraints = bayesnet.default_layer_constraints()
    state["constraints"] = constraints
    state["consensus"] = {}
    state["high_score_freqs"] = {}
    summary = {}
    for gi, (cohort, _) in enumerate(state["groups"]):
        table = state["group_tables"][cohort]
        result, freqs, null, _ = consensus.consensus_pipeline(
            table, constraints, bayesnet.BdeuConfig(cfg.ess),
            n_restarts=cfg.restarts, fraction=cfg.top_fraction,
            replicas=cfg.null_replicas, edge_probability=cfg.edge_probability,
            seed=derive_seed(cfg.seed, 3, gi), resample=cfg.null_resample,
        )
        state["consensus"][cohort] = result
        state["high_score_freqs"][cohort] = freqs
        cons_path = cfg.out_dir / f"consensus_{cohort}.json"
        _dump_json(cons_path, {
            **result.to_json(),
            "null": {"mean": null.mean, "std": null.std, "replicas": len(null.replicate_tables)},
            "master_seed": cfg.seed,
        })
        artifacts.register(cons_path)
        freq_path = cfg.out_dir / f"edge_frequencies_{cohort}.csv"
        consensus.write_edge_frequency_csv(freq_path, freqs)
        artifacts.register(freq_path)
        summary[cohort] = {
            "threshold": result.threshold,
            "n_edges": len(result.dag.edges()),
            "edges": [list(e) for e in result.dag.edges()],
        }
    state["report"]["consensus"] = summary


def _stage_total_network(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    if len(state["groups"]) < 2:
        return
    cohorts = [c for c, _ in state["groups"]]
    merged = consensus.merge_total_network(
        [state["consensus"][c] for c in cohorts],
        [state["high_score_freqs"][c] for c in cohorts],
    )
    state["consensus"]["total"] = merged
    path = cfg.out_dir / "consensus_total.json"
    _dump_json(path, {**merged.to_json(), "master_seed": cfg.seed})
    artifacts.register(path)
    state["report"]["consensus"]["total"] = {
        "threshold": None,
        "n_edges": len(merged.dag.edges()),
        "edges": [list(e) for e in merged.dag.edges()],
    }


def _prediction_tasks(cfg: PipelineConfig, state: dict):
    """The predict stage's experiment and its (name, table, seed) per profile table."""
    experiment = evaluate.PredictionExperiment(
        folds=cfg.folds,
        mode="in_sample" if cfg.in_sample else "cross_validated",
        restarts=cfg.eval_restarts,
        edge_probability=cfg.edge_probability,
    )
    tables = dict(state["group_tables"])
    if len(tables) > 1:
        pooled = np.concatenate([t.values for t in tables.values()])
        tables["total"] = bayesnet.DatasetTable(bayesnet.profile_variables(), pooled)
    return experiment, [(name, table, derive_seed(cfg.seed, 4, gi))
                        for gi, (name, table) in enumerate(sorted(tables.items()))]


def _stage_predict(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    constraints = state["constraints"]
    experiment, tasks = _prediction_tasks(cfg, state)
    results = {}
    for name, table, seed in tasks:
        result = evaluate.predict_sleep_experiment(
            table, constraints, bayesnet.BdeuConfig(cfg.ess), experiment, seed=seed,
        )
        results[name] = evaluate.report_json(result)
        for k, curve in enumerate(result.curves):
            roc_path = cfg.out_dir / f"roc_{name}_fold{k}.csv"
            evaluate.write_roc_csv(roc_path, curve)
            artifacts.register(roc_path)
    state["report"]["auc"] = results


def _stage_report(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    mb_tables = {}
    counts = {"parents": {}, "blanket": {}, "children": {}}
    for cohort, result in state["consensus"].items():
        dag = result.dag
        parents = sorted(dag.parents("S"))
        children = sorted(dag.children("S"))
        blanket = sorted(bayesnet.markov_blanket(dag, "S"))
        mb_tables[cohort] = {
            "parents_of_S": parents,
            "children_of_S": children,
            "markov_blanket_of_S": blanket,
        }
        if cohort != "total":
            for name in parents:
                counts["parents"][name] = counts["parents"].get(name, 0) + 1
            for name in children:
                counts["children"][name] = counts["children"].get(name, 0) + 1
            for name in blanket:
                counts["blanket"][name] = counts["blanket"].get(name, 0) + 1
    state["report"]["structure_of_S"] = {
        "per_network": mb_tables,
        "times_in_parents": dict(sorted(counts["parents"].items())),
        "times_in_blanket": dict(sorted(counts["blanket"].items())),
        "times_in_children": dict(sorted(counts["children"].items())),
    }
    report_path = cfg.out_dir / "report.json"
    _dump_json(report_path, state["report"])
    artifacts.register(report_path)
