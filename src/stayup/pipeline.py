"""End-to-end orchestration: ingest -> mixture fit -> profiles -> per-cohort
consensus -> total network -> predictability, with deterministic seeding and
a MANIFEST of every emitted artifact. Each run stage takes what it reads as
arguments and returns what later stages read. The stage commands of ``cli``
make the same per-group calls and check their settings the same way."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bayesnet, consensus, evaluate, ingest, profiles, seeding, sleepmix
from .split import run_split

SCHEMA_VERSION = 1

COHORT_CHOICES = ("freshman", "sophomore", "junior", "all")


class ConfigError(ValueError):
    """Bad configuration or missing input; maps to exit code 2."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# bounds of the settings that no stage config checks, by PipelineConfig field
RANGES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "min_nights": (lambda v: v >= 1, ">= 1"),
    "gpa_max": (lambda v: v > 0, "> 0"),
    "restarts": (lambda v: v >= 1, ">= 1"),
    "null_replicas": (lambda v: v >= 1, ">= 1"),
    "top_fraction": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "edge_probability": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}


def check_ranges(**given):
    """Raise ConfigError naming the first given setting outside its RANGES bound."""
    for name, value in given.items():
        ok, rule = RANGES[name]
        if not ok(value):
            raise ConfigError(f"{name} must be {rule}, got {value}")


def checked(build: Callable[[], object], source, *names: str):
    """Return build(), a stage config. Its ValueError becomes a ConfigError
    naming the settings it was built from: names, read from source."""
    try:
        return build()
    except ValueError as exc:
        given = ", ".join(f"{name}={getattr(source, name)!r}" for name in names)
        raise ConfigError(f"{given}: {exc}") from None


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
    folds: int = 5
    eval_restarts: int = 20
    in_sample: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):   # a config file may hold any JSON value
            kind = {"int": int, "float": (int, float), "bool": bool, "str": str,
                    "Path": (str, os.PathLike)}[f.type]
            value = getattr(self, f.name)
            # bool is a subclass of int, but a JSON true or false is no number
            if not isinstance(value, kind) or isinstance(value, bool) and f.type != "bool":
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        self.data_dir = Path(self.data_dir)
        self.out_dir = Path(self.out_dir)
        if self.cohort not in COHORT_CHOICES:
            raise ConfigError(f"cohort must be one of {COHORT_CHOICES}")
        if self.median_scope not in ("per_cohort", "global"):
            raise ConfigError("median_scope must be per_cohort or global")
        check_ranges(**{name: getattr(self, name) for name in RANGES})
        # the stages' own configs check the other fields; the stages use these
        # objects, which are attributes, not fields, so echo() leaves them out
        self.mixture = checked(
            lambda: sleepmix.MixtureConfig(components=self.components, restarts=self.em_restarts,
                                           variant=self.variant),
            self, "components", "em_restarts", "variant")
        self.experiment = checked(
            lambda: evaluate.PredictionExperiment(folds=self.folds, in_sample=self.in_sample,
                                                  restarts=self.eval_restarts,
                                                  edge_probability=self.edge_probability),
            self, "folds", "in_sample", "eval_restarts")
        self.bdeu = checked(lambda: bayesnet.BdeuConfig(self.ess), self, "ess")

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["data_dir"] = str(self.data_dir)
        out["out_dir"] = str(self.out_dir)
        return out


def derive_seed(*parts: int) -> int:
    """Stable 64-bit stream seed from integer parts: the stream key of the list of them."""
    return int(seeding.keys([list(parts)])[0])


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing config file: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def require(what: str, *paths: Path):
    """Raise ConfigError naming the first of paths that does not exist."""
    for path in paths:
        if not path.exists():
            raise ConfigError(f"missing {what}: {path}")


def write_json(path: Path, obj):
    """Write obj as sorted, indented JSON ending in a newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute every stage, write artifacts plus MANIFEST.json, return the report.

    Each stage takes what it reads as arguments and returns what later
    stages read, and registers every file it writes as it writes it.
    Raises ConfigError for missing inputs and StageError when a stage fails;
    on stage failure the MANIFEST still lands on disk, listing the files
    written so far and naming the incomplete stage.
    """
    require("input file", *ingest.LogPaths.from_dir(cfg.data_dir).as_dict().values())
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "stages": [],
        "incomplete": [],
        "files": files,
    }

    def register(*paths: Path):
        for path in paths:
            files[path.name] = _sha256(path)

    @contextlib.contextmanager
    def stage(name: str):
        try:
            yield
        except Exception as exc:
            manifest["incomplete"] = [name]
            write_json(cfg.out_dir / "MANIFEST.json", manifest)
            raise StageError(name, exc) from exc
        manifest["stages"].append(name)

    report = {"schema_version": SCHEMA_VERSION, "seed": cfg.seed, "config": cfg.echo()}
    with stage("ingest"):
        ingested = _stage_ingest(cfg, register)
        report["ingest"] = ingested.summary()
    with stage("sleep_fit"):
        groups = cohort_groups(cfg.cohort, ingested.demographics)
        labels, report["cluster_sizes"] = _stage_sleep_fit(cfg, groups, ingested.count_ids,
                                                           ingested.counts, register)
    with stage("profile"):
        tables, report["profiling"] = _stage_profile(
            cfg, groups, (ingested.feature_ids, ingested.features), labels, register)
        tasks = _prediction_tasks(cfg, tables)
    with stage("consensus"):
        networks, freqs, predicted = _stage_consensus(cfg, tables, tasks, register)
        report["consensus"] = {c: _network_summary(n) for c, n in networks.items()}
    with stage("total_network"):
        if len(networks) > 1:
            networks["total"] = _stage_total_network(cfg, networks, freqs, register)
            report["consensus"]["total"] = _network_summary(networks["total"])
    with stage("predict"):
        report["auc"] = _stage_predict(cfg, tasks, predicted, register)
    with stage("report"):
        report["structure_of_S"] = _structure_of_s(networks)
        write_json(cfg.out_dir / "report.json", report)
        register(cfg.out_dir / "report.json")

    write_json(cfg.out_dir / "MANIFEST.json", manifest)
    return report


def cohort_groups(cohort: str, demographics) -> list[tuple[str, list[str]]]:
    """(cohort, sorted student ids) for the selected cohort, or each cohort for "all"."""
    selected = list(ingest.COHORTS) if cohort == "all" else [cohort]
    by_cohort = {c: [] for c in selected}
    for sid in sorted(demographics):
        cohort = demographics[sid].cohort
        if cohort in by_cohort:
            by_cohort[cohort].append(sid)
    return [(c, by_cohort[c]) for c in selected]


# --- one group of each stage; the run stages below and the CLI both call these ---

def require_students(what: str, n_students: int, components: int, min_nights: str):
    """Raise ValueError, before any EM, when `what` holds fewer students with
    sleep counts than the mixture has components."""
    if n_students < components:
        raise ValueError(f"{what} has {n_students} students with sleep counts, fewer than the "
                         f"{components} mixture components; ingest drops students with a "
                         f"bedtime on fewer than {min_nights} nights")


def sleep_fit_group(ids, counts, mix_cfg: sleepmix.MixtureConfig, threshold: float):
    """Fit the group's counts, row i being student ids[i], and label its
    students; return the fitted model, its sleepmix.Assignments and the fit
    diagnostics."""
    model, resp, diag = sleepmix.fit(counts, mix_cfg, ids)
    return model, sleepmix.assign_and_label(resp, model, threshold), diag


def _rows_of(ids: Sequence[str], members: list[str]) -> list[int]:
    """Positions in ids of the given students, in the order of ids."""
    members = set(members)
    return [i for i, sid in enumerate(ids) if sid in members]


def profile_groups(scopes, features, labels, out_dir: Path,
                   extra: dict) -> dict[str, profiles.ProfileResult]:
    """Profile each (name, student ids) scope on its own medians, from the
    (ids, values) features and (ids, stay_up) labels; write profiles.csv and
    profile_meta.json (plus extra keys) into out_dir. Raises ValueError
    naming the first scope that cannot be profiled."""
    (feature_ids, values), (label_ids, stay_up) = features, labels
    results = {}
    for name, members in scopes:
        f, s = _rows_of(feature_ids, members), _rows_of(label_ids, members)
        try:
            results[name] = profiles.build_profiles(
                tuple(feature_ids[i] for i in f), values[f],
                tuple(label_ids[i] for i in s), stay_up[s])
        except ValueError as exc:
            raise ValueError(f"{name} profiles: {exc}") from None
    profiles.write_profiles_csv(
        out_dir / "profiles.csv", [sid for r in results.values() for sid in r.ids],
        bayesnet.DatasetTable(bayesnet.profile_variables(),
                              np.concatenate([r.table.values for r in results.values()])))
    write_json(out_dir / "profile_meta.json", {
        **profiles.metadata_json({name: r.medians for name, r in results.items()}),
        **extra,
    })
    return results


def write_consensus_group(found, json_path: Path, csv_path: Path, extra: dict):
    """Write consensus.consensus_pipeline's network plus extra keys to
    json_path and its edge frequencies to csv_path."""
    result, freqs, null = found
    write_json(json_path, {
        **result.to_json(),
        "null": {"mean": null.mean, "std": null.std, "replicas": len(null.replicate_tables)},
        **extra,
    })
    consensus.write_edge_frequency_csv(csv_path, freqs)


def write_roc_curves(result: evaluate.PredictionResult, out_dir: Path, prefix: str) -> list[Path]:
    """Write out_dir / f"{prefix}fold{k}.csv" per ROC curve; return those paths."""
    paths = [out_dir / f"{prefix}fold{k}.csv" for k in range(len(result.curves))]
    for path, curve in zip(paths, result.curves):
        evaluate.write_roc_csv(path, curve)
    return paths


# --- the run stages ---

def _stage_ingest(cfg: PipelineConfig, register) -> ingest.IngestResult:
    result = ingest.ingest_logs(cfg.data_dir, cfg.out_dir, strict=cfg.strict_parse,
                                gpa_max=cfg.gpa_max, min_nights=cfg.min_nights)
    register(*(cfg.out_dir / name for name in ingest.INGEST_OUTPUTS))
    return result


def _stage_sleep_fit(cfg: PipelineConfig, groups, ids, counts, register):
    """Fit each group's mixture to its rows of counts, row i being student
    ids[i], split over two processes, and write each group's model; return
    the (ids, stay_up) labels of every labelled student, in id order, and
    the report's cluster sizes."""
    omega, stay_up = np.zeros(len(ids)), np.zeros(len(ids), dtype=bool)
    cluster_sizes: dict[str, dict[str, int]] = {}
    group_rows = [_rows_of(ids, members) for _, members in groups]
    for (cohort, _), at in zip(groups, group_rows):
        require_students(f"cohort {cohort!r}", len(at), cfg.components,
                         f"min_nights={cfg.min_nights}")
    mix_cfgs = [dataclasses.replace(cfg.mixture, seed=derive_seed(cfg.seed, 1, gi))
                for gi in range(len(groups))]
    outcomes = run_split(
        [functools.partial(sleep_fit_group, tuple(ids[i] for i in at), counts[at], mix_cfg,
                           sleepmix.DEFAULT_THRESHOLD)
         for at, mix_cfg in zip(group_rows, mix_cfgs)],
        [len(at) for at in group_rows])
    for (cohort, _), at, mix_cfg, (error, fitted) in zip(groups, group_rows, mix_cfgs, outcomes):
        if isinstance(error, (ValueError, sleepmix.MixtureError)):   # both take one message
            raise type(error)(f"cohort {cohort!r}: {error}") from error
        if error is not None:
            raise error
        model, labelled, _ = fitted
        model_path = cfg.out_dir / f"model_{cohort}.json"
        write_json(model_path, {**sleepmix.model_to_json(model, mix_cfg), "master_seed": cfg.seed})
        register(model_path)
        omega[at], stay_up[at] = labelled.omega_stay_up, labelled.stay_up
        n_up = int(labelled.stay_up.sum())
        cluster_sizes[cohort] = {
            "stay_up": n_up,
            "non_stay_up": len(at) - n_up,
            "total": len(at),
        }
    cluster_sizes["total"] = {
        key: sum(row[key] for c, row in cluster_sizes.items() if c != "total")
        for key in ("stay_up", "non_stay_up", "total")
    }
    rows = sorted((i for at in group_rows for i in at), key=ids.__getitem__)
    label_ids = tuple(ids[i] for i in rows)
    assignments_path = cfg.out_dir / "assignments.csv"
    sleepmix.write_assignments_csv(assignments_path, label_ids, omega[rows], stay_up[rows])
    register(assignments_path)
    return (label_ids, stay_up[rows]), cluster_sizes


def _stage_profile(cfg: PipelineConfig, groups, features, labels, register):
    """Profile the students; return each group's profile table, in group
    order, and the report's profiling entry."""
    if cfg.median_scope == "global":
        scopes = [("global", [sid for _, members in groups for sid in members])]
    else:
        scopes = groups
    results = profile_groups(scopes, features, labels, cfg.out_dir, {"master_seed": cfg.seed})
    register(cfg.out_dir / "profiles.csv", cfg.out_dir / "profile_meta.json")

    if cfg.median_scope == "global":
        tables = {}
        excluded = results["global"].excluded
        for cohort, members in groups:
            at = _rows_of(results["global"].ids, members)
            if len(at) < 2:   # a cohort scope fails in profile_groups instead
                reasons = [excluded[sid] for sid in members if sid in excluded]
                raise ValueError(f"{cohort} profiles: "
                                 f"{profiles.too_few_message(len(at), reasons)}")
            tables[cohort] = results["global"].table.subset(at)
    else:
        tables = {cohort: result.table for cohort, result in results.items()}
    return tables, {
        "students_profiled": sum(len(r.ids) for r in results.values()),
        "excluded": {g: dict(sorted(r.excluded.items()))
                     for g, r in results.items() if r.excluded},
    }


def _prediction_tasks(cfg: PipelineConfig, tables: dict[str, bayesnet.DatasetTable]):
    """(name, table, seed) of each table the predict stage scores: every
    group's and, given two groups or more, their pooled "total". Raises
    ValueError naming a table that cannot be cross-validated, so the run
    fails before consensus rather than after."""
    tables = dict(tables)
    if len(tables) > 1:
        pooled = np.concatenate([t.values for t in tables.values()])
        tables["total"] = bayesnet.DatasetTable(bayesnet.profile_variables(), pooled)
    tasks = [(name, table, derive_seed(cfg.seed, 4, gi))
             for gi, (name, table) in enumerate(sorted(tables.items()))]
    for name, table, seed in tasks:
        try:
            evaluate.cv_plan(table.column(evaluate.TARGET), cfg.experiment, seed)
        except ValueError as exc:
            raise ValueError(f"{name} profiles: {exc}") from None
    return tasks


def _stage_consensus(cfg: PipelineConfig, tables: dict[str, bayesnet.DatasetTable], tasks,
                     register):
    """Search every group's consensus network and every task's predictability,
    split over two processes; write the consensus files. Return each group's
    network and high-score edge frequencies, and the (error, result) of each
    task for _stage_predict."""
    constraints = bayesnet.default_layer_constraints()
    constraints.score_plan   # a cached property: built here once, not in each process below
    jobs = [functools.partial(consensus.consensus_pipeline, table, constraints, cfg.bdeu,
                              n_restarts=cfg.restarts, fraction=cfg.top_fraction,
                              replicas=cfg.null_replicas, edge_probability=cfg.edge_probability,
                              seed=derive_seed(cfg.seed, 3, gi))
            for gi, table in enumerate(tables.values())]
    jobs += [functools.partial(evaluate.predict_sleep_experiment, table, constraints, cfg.bdeu,
                               cfg.experiment, seed=seed)
             for _, table, seed in tasks]
    folds = 1 if cfg.in_sample else cfg.folds
    costs = ([cfg.restarts * (1 + cfg.null_replicas)] * len(tables)
             + [folds * cfg.eval_restarts] * len(tasks))
    outcomes = run_split(jobs, costs)

    networks, freqs = {}, {}
    for cohort, (error, found) in zip(tables, outcomes):
        if error is not None:
            raise error
        cons_path = cfg.out_dir / f"consensus_{cohort}.json"
        freq_path = cfg.out_dir / f"edge_frequencies_{cohort}.csv"
        write_consensus_group(found, cons_path, freq_path, {"master_seed": cfg.seed})
        register(cons_path, freq_path)
        networks[cohort], freqs[cohort], _ = found
    return networks, freqs, outcomes[len(tables):]


def _network_summary(result: consensus.ConsensusDag) -> dict:
    edges = result.dag.edges()
    return {"threshold": result.threshold, "n_edges": len(edges),
            "edges": [list(e) for e in edges]}


def _stage_total_network(cfg: PipelineConfig, networks, freqs, register):
    """The groups' networks merged into one, written to consensus_total.json."""
    merged = consensus.merge_total_network(list(networks.values()), list(freqs.values()))
    path = cfg.out_dir / "consensus_total.json"
    write_json(path, {**merged.to_json(), "master_seed": cfg.seed})
    register(path)
    return merged


def _stage_predict(cfg: PipelineConfig, tasks, predicted, register) -> dict:
    """Write each task's ROC curves; return the report's AUC entries."""
    results = {}
    for (name, _, _), (error, result) in zip(tasks, predicted):
        if error is not None:
            raise error
        results[name] = evaluate.report_json(result)
        register(*write_roc_curves(result, cfg.out_dir, f"roc_{name}_"))
    return results


def _structure_of_s(networks: dict[str, consensus.ConsensusDag]) -> dict:
    """The report's parents, children and Markov blanket of S per network,
    with how often each variable is among them over the group networks."""
    mb_tables = {}
    counts = {"parents": {}, "blanket": {}, "children": {}}
    for cohort, result in networks.items():
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
            for key, names in (("parents", parents), ("children", children),
                               ("blanket", blanket)):
                for name in names:
                    counts[key][name] = counts[key].get(name, 0) + 1
    return {
        "per_network": mb_tables,
        "times_in_parents": dict(sorted(counts["parents"].items())),
        "times_in_blanket": dict(sorted(counts["blanket"].items())),
        "times_in_children": dict(sorted(counts["children"].items())),
    }
