"""End-to-end orchestration: ingest -> mixture fit -> profiles -> per-cohort
consensus -> total network -> predictability, with deterministic seeding and
a MANIFEST of every emitted artifact."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import bayesnet, consensus, evaluate, ingest, profiles, seeding, sleepmix

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

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["data_dir"] = str(self.data_dir)
        out["out_dir"] = str(self.out_dir)
        return out


def derive_seed(*parts: int) -> int:
    """Stable 64-bit stream seed from integer parts."""
    state = seeding.seed_states([list(parts)], 2)[0]
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


class _Artifacts:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}

    def register(self, *paths: Path):
        for path in paths:
            self.files[path.name] = _sha256(path)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute every stage, write artifacts plus MANIFEST.json, return the report.

    Raises ConfigError for missing inputs and StageError when a stage fails;
    on stage failure the MANIFEST still lands on disk with the incomplete
    stage named.
    """
    require("input file", *ingest.LogPaths.from_dir(cfg.data_dir).as_dict().values())
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
            write_json(cfg.out_dir / "MANIFEST.json", manifest)
            raise StageError(name, exc) from exc
        manifest["stages"].append(name)

    manifest["files"] = artifacts.files
    write_json(cfg.out_dir / "MANIFEST.json", manifest)
    return state["report"]


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

def mixture_config(variant: str, components: int, restarts: int,
                   seed: int) -> sleepmix.MixtureConfig:
    """The E/M-step pair of a --variant: "standard" or the paper's literal "paper"."""
    literal = "paper_literal" if variant == "paper" else None
    return sleepmix.MixtureConfig(components=components, restarts=restarts,
                                  estep_variant=literal or "standard",
                                  mstep_variant=literal or "exact_map", seed=seed)


def require_students(what: str, n_students: int, components: int, min_nights: str):
    """Raise ValueError, before any EM, when `what` holds fewer students with
    sleep counts than the mixture has components."""
    if n_students < components:
        raise ValueError(f"{what} has {n_students} students with sleep counts, fewer than the "
                         f"{components} mixture components; ingest drops students with a "
                         f"bedtime on fewer than {min_nights} nights")


def sleep_fit_group(counts, mix_cfg: sleepmix.MixtureConfig, threshold: float,
                    model_path: Path, extra: dict):
    """Write the group's fitted model plus extra keys; return its (student,
    omega, label) rows and the fit diagnostics."""
    model, resp, diag = sleepmix.fit(counts, mix_cfg)
    write_json(model_path, {**sleepmix.model_to_json(model, mix_cfg), **extra})
    assigned = sleepmix.assign_and_label(resp, model, threshold)
    return list(zip(assigned.student_ids, assigned.omega_stay_up, assigned.labels)), diag


def profile_groups(scopes, features, labels, out_dir: Path,
                   extra: dict) -> dict[str, profiles.ProfileResult]:
    """Profile each (name, student ids) scope on its own medians; write
    profiles.csv and profile_meta.json (plus extra keys) into out_dir."""
    spec = profiles.default_discretization_spec()
    results = {name: profiles.build_profiles(
        {sid: features[sid] for sid in members if sid in features},
        {sid: labels[sid] for sid in members if sid in labels}, spec,
    ) for name, members in scopes}
    profiles.write_profiles_csv(out_dir / "profiles.csv",
                                [p for result in results.values() for p in result.profiles])
    write_json(out_dir / "profile_meta.json", {
        **profiles.metadata_json(spec, {name: r.medians for name, r in results.items()}),
        **extra,
    })
    return results


def consensus_group(table: bayesnet.DatasetTable, constraints, ess: float, seed: int,
                    **search):
    """(consensus network, high-score edge frequencies, null model) of one
    table, search going to consensus_pipeline."""
    result, freqs, null, _ = consensus.consensus_pipeline(
        table, constraints, bayesnet.BdeuConfig(ess), seed=seed, **search)
    return result, freqs, null


def write_consensus_group(found, json_path: Path, csv_path: Path, extra: dict):
    """Write consensus_group's network plus extra keys to json_path and its
    edge frequencies to csv_path."""
    result, freqs, null = found
    write_json(json_path, {
        **result.to_json(),
        "null": {"mean": null.mean, "std": null.std, "replicas": len(null.replicate_tables)},
        **extra,
    })
    consensus.write_edge_frequency_csv(csv_path, freqs)


def prediction_experiment(folds: int, in_sample: bool, restarts: int,
                          edge_probability: float) -> evaluate.PredictionExperiment:
    return evaluate.PredictionExperiment(
        folds=folds, mode="in_sample" if in_sample else "cross_validated",
        restarts=restarts, edge_probability=edge_probability,
    )


def predict_group(table: bayesnet.DatasetTable, constraints, ess: float,
                  experiment: evaluate.PredictionExperiment, seed: int) -> evaluate.PredictionResult:
    """Predictability of one table."""
    return evaluate.predict_sleep_experiment(
        table, constraints, bayesnet.BdeuConfig(ess), experiment, seed=seed)


def write_roc_curves(result: evaluate.PredictionResult, out_dir: Path, prefix: str) -> list[Path]:
    """Write out_dir / f"{prefix}fold{k}.csv" per ROC curve; return those paths."""
    paths = [out_dir / f"{prefix}fold{k}.csv" for k in range(len(result.curves))]
    for path, curve in zip(paths, result.curves):
        evaluate.write_roc_csv(path, curve)
    return paths


def split_jobs(costs: Sequence[float]) -> tuple[list[int], list[int]]:
    """(this process's, the child's) job indices: longest first, each job to
    the side with less cost so far, ties to this process."""
    sides: tuple[list[int], list[int]] = ([], [])
    load = [0.0, 0.0]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        side = min((0, 1), key=lambda k: (load[k], len(sides[k])))
        sides[side].append(i)
        load[side] += costs[i]
    return sides


def _attempt(job: Callable[[], object]) -> tuple[Exception | None, object]:
    try:
        return None, job()
    except Exception as exc:
        return exc, None


def _pickled(outcome: tuple[Exception | None, object]) -> bytes:
    """One outcome of the child's, pickled. A traceback does not pickle, so an
    error carries its traceback's text as a note."""
    if outcome[0] is not None:
        import traceback

        outcome[0].add_note("".join(traceback.format_exception(outcome[0])).rstrip())
    try:
        return pickle.dumps(outcome)
    except Exception as exc:
        kind = type(outcome[0] or outcome[1]).__name__
        return pickle.dumps((RuntimeError(f"cannot send a job's {kind} outcome: {exc}"), None))


def _unpickled(blob: bytes) -> tuple[Exception | None, object]:
    try:
        return pickle.loads(blob)
    except Exception as exc:
        return RuntimeError(f"cannot read a job's outcome: {exc}"), None


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _exit_description(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def run_split(jobs: Sequence[Callable[[], object]],
              costs: Sequence[float]) -> list[tuple[Exception | None, object]]:
    """Run every job once, split by split_jobs between this process and one
    child made with os.fork; return (error, value) per job, in job order.

    The child pickles its outcomes into a pipe and always ends with
    os._exit; this process always reaps it. With fewer than two jobs
    nothing is forked. Raises RuntimeError when the child ends without
    writing its outcomes.
    """
    mine, theirs = split_jobs(costs)
    outcomes: list = [None] * len(jobs)
    if not theirs:
        for i in mine:
            outcomes[i] = _attempt(jobs[i])
        return outcomes
    sys.stdout.flush()   # else both processes would flush what is buffered
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = pickle.dumps([(i, _pickled(_attempt(jobs[i]))) for i in theirs])
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        for i in mine:
            outcomes[i] = _attempt(jobs[i])
        data = _read_all(read_fd)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"the child process of the split {_exit_description(status)} "
                           "before sending its outcomes")
    for i, blob in pickle.loads(data):
        outcomes[i] = _unpickled(blob)
    return outcomes


# --- the run stages ---

def _stage_ingest(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    result = ingest.ingest_logs(cfg.data_dir, cfg.out_dir, strict=cfg.strict_parse,
                                gpa_max=cfg.gpa_max, min_nights=cfg.min_nights)
    for name in ingest.INGEST_OUTPUTS:
        artifacts.register(cfg.out_dir / name)
    state.update(demographics=result.demographics, counts=result.counts,
                 features=result.features)
    state["report"]["ingest"] = result.summary()


def _stage_sleep_fit(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    groups = cohort_groups(cfg.cohort, state["demographics"])
    state["groups"] = groups
    rows: list[tuple[str, float, str]] = []
    cluster_sizes: dict[str, dict[str, int]] = {}
    all_counts = [{sid: state["counts"][sid] for sid in members if sid in state["counts"]}
                  for _, members in groups]
    for (cohort, _), group_counts in zip(groups, all_counts):
        require_students(f"cohort {cohort!r}", len(group_counts), cfg.components,
                         f"min_nights={cfg.min_nights}")
    for gi, ((cohort, _), group_counts) in enumerate(zip(groups, all_counts)):
        mix_cfg = mixture_config(cfg.variant, cfg.components, cfg.em_restarts,
                                 derive_seed(cfg.seed, 1, gi))
        model_path = cfg.out_dir / f"model_{cohort}.json"
        group_rows, _ = sleep_fit_group(group_counts, mix_cfg, sleepmix.DEFAULT_THRESHOLD,
                                        model_path, {"master_seed": cfg.seed})
        artifacts.register(model_path)
        rows.extend(group_rows)
        n_up = sum(label == sleepmix.STAY_UP for _, _, label in group_rows)
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
    if cfg.median_scope == "global":
        scopes = [("global", [sid for _, members in state["groups"] for sid in members])]
    else:
        scopes = state["groups"]
    results = profile_groups(scopes, state["features"], state["sleep_labels"], cfg.out_dir,
                             {"master_seed": cfg.seed})
    artifacts.register(cfg.out_dir / "profiles.csv", cfg.out_dir / "profile_meta.json")

    # scopes are disjoint, so each student is profiled at most once
    by_id = {p.student_id: p for result in results.values() for p in result.profiles}
    group_tables: dict[str, bayesnet.DatasetTable] = {}
    for cohort, members in state["groups"]:
        rows = [by_id[sid] for sid in members if sid in by_id]
        if rows:
            group_tables[cohort], _ = profiles.profiles_to_table(rows)

    state["group_tables"] = group_tables
    state["report"]["profiling"] = {
        "students_profiled": len(by_id),
        "excluded": {g: dict(sorted(r.excluded.items()))
                     for g, r in results.items() if r.excluded},
    }
    # fail on tables the predict stage cannot cross-validate now, not after consensus
    experiment, tasks = state["prediction"] = _prediction_tasks(cfg, state)
    for name, table, seed in tasks:
        try:
            evaluate.cv_splits(table.column(experiment.target), experiment, seed)
        except ValueError as exc:
            raise ValueError(f"{name} profiles: {exc}") from None


def _stage_consensus(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    """Search every cohort's consensus network and every table's predictability,
    split over two processes; write the consensus files and keep the
    predict outcomes for _stage_predict."""
    constraints = bayesnet.default_layer_constraints()
    groups = state["groups"]
    experiment, tasks = state["prediction"]
    search = dict(n_restarts=cfg.restarts, fraction=cfg.top_fraction, replicas=cfg.null_replicas,
                  edge_probability=cfg.edge_probability, resample=cfg.null_resample)
    jobs = [functools.partial(consensus_group, state["group_tables"][cohort], constraints,
                              cfg.ess, derive_seed(cfg.seed, 3, gi), **search)
            for gi, (cohort, _) in enumerate(groups)]
    jobs += [functools.partial(predict_group, table, constraints, cfg.ess, experiment, seed)
             for _, table, seed in tasks]
    folds = 1 if cfg.in_sample else cfg.folds
    costs = ([cfg.restarts * (1 + cfg.null_replicas)] * len(groups)
             + [folds * cfg.eval_restarts] * len(tasks))
    outcomes = run_split(jobs, costs)
    state["predict_outcomes"] = outcomes[len(groups):]

    state["consensus"] = {}
    state["high_score_freqs"] = {}
    summary = {}
    for (cohort, _), (error, found) in zip(groups, outcomes):
        if error is not None:
            raise error
        cons_path = cfg.out_dir / f"consensus_{cohort}.json"
        freq_path = cfg.out_dir / f"edge_frequencies_{cohort}.csv"
        write_consensus_group(found, cons_path, freq_path, {"master_seed": cfg.seed})
        artifacts.register(cons_path, freq_path)
        result, freqs, _ = found
        state["consensus"][cohort] = result
        state["high_score_freqs"][cohort] = freqs
        summary[cohort] = _network_summary(result)
    state["report"]["consensus"] = summary


def _network_summary(result: consensus.ConsensusDag) -> dict:
    edges = result.dag.edges()
    return {"threshold": result.threshold, "n_edges": len(edges),
            "edges": [list(e) for e in edges]}


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
    write_json(path, {**merged.to_json(), "master_seed": cfg.seed})
    artifacts.register(path)
    state["report"]["consensus"]["total"] = _network_summary(merged)


def _prediction_tasks(cfg: PipelineConfig, state: dict):
    """The predict stage's experiment and its (name, table, seed) per profile table."""
    experiment = prediction_experiment(cfg.folds, cfg.in_sample, cfg.eval_restarts,
                                       cfg.edge_probability)
    tables = dict(state["group_tables"])
    if len(tables) > 1:
        pooled = np.concatenate([t.values for t in tables.values()])
        tables["total"] = bayesnet.DatasetTable(bayesnet.profile_variables(), pooled)
    return experiment, [(name, table, derive_seed(cfg.seed, 4, gi))
                        for gi, (name, table) in enumerate(sorted(tables.items()))]


def _stage_predict(cfg: PipelineConfig, state: dict, artifacts: _Artifacts):
    _, tasks = state["prediction"]
    results = {}
    for (name, _, _), (error, result) in zip(tasks, state["predict_outcomes"]):
        if error is not None:
            raise error
        results[name] = evaluate.report_json(result)
        artifacts.register(*write_roc_curves(result, cfg.out_dir, f"roc_{name}_"))
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
    write_json(report_path, state["report"])
    artifacts.register(report_path)
