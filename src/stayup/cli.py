"""Command-line front end.

Subcommands mirror the pipeline stages (ingest, sleep-fit, profile,
bn-learn, consensus, predict), plus synth for generated data and run for
the whole pipeline. A stage command reads the previous stage's files and
makes the call that ``run`` makes per cohort (a per-group function of
``pipeline``, ``consensus.consensus_pipeline`` or
``evaluate.predict_sleep_experiment``), but treats its input as one group
and uses --seed as given, where ``run`` splits by cohort and derives a seed
per stage and cohort. The stage commands and run check their settings
first, so a bad setting exits 2 before any input is read or --out is made.
Exit codes: 0 success, 1 stage failure or malformed input, 2 missing input,
I/O or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import bayesnet, consensus, evaluate, ingest, pipeline, profiles, sleepmix, synth
from .pipeline import ConfigError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stayup",
        description="Detect stay-up-late sleep patterns from event logs and "
                    "analyze them with consensus Bayesian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic data from a known truth")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--students", type=int, default=2000)
    p.add_argument("--nights", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", choices=["count_vectors", "profiles", "full_logs"],
                   default="full_logs")
    p.add_argument("--truth", choices=["default", "recovery"], default="default")

    p = sub.add_parser("ingest", help="parse raw logs into counts and features")
    p.add_argument("--data", type=Path, required=True, help="directory with the five CSVs")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--min-nights", type=int, default=ingest.DEFAULT_MIN_NIGHTS)
    p.add_argument("--gpa-max", type=float, default=ingest.DEFAULT_GPA_MAX)

    p = sub.add_parser("sleep-fit", help="fit the bedtime mixture and label students")
    p.add_argument("--counts", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--em-restarts", type=int, default=10)
    p.add_argument("--variant", choices=list(sleepmix.VARIANT_STEPS), default="standard")
    p.add_argument("--threshold", type=float, default=sleepmix.DEFAULT_THRESHOLD)

    p = sub.add_parser("profile", help="binarize features and sleep labels")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--assignments", type=Path, required=True)
    p.add_argument("--demographics", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--median-scope", choices=["per_cohort", "global"], default="per_cohort")

    p = sub.add_parser("bn-learn", help="learn one network by restarted hill climbing")
    p.add_argument("--profiles", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--ess", type=float, default=1.0)

    p = sub.add_parser("consensus", help="restart ensemble, null model, consensus network")
    p.add_argument("--profiles", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=consensus.DEFAULT_RESTARTS)
    p.add_argument("--fraction", type=float, default=consensus.DEFAULT_TOP_FRACTION)
    p.add_argument("--null-replicas", type=int, default=consensus.DEFAULT_NULL_REPLICAS)
    p.add_argument("--edge-probability", type=float, default=consensus.DEFAULT_EDGE_PROBABILITY)
    p.add_argument("--ess", type=float, default=1.0)

    p = sub.add_parser("predict", help="cross-validated sleep-status predictability")
    p.add_argument("--profiles", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--ess", type=float, default=1.0)
    p.add_argument("--in-sample", action="store_true")

    p = sub.add_parser("run", help="run the full pipeline")
    p.add_argument("--config", type=Path, help="JSON file of PipelineConfig fields")
    p.add_argument("--data", dest="data_dir", type=Path)
    p.add_argument("--out", dest="out_dir", type=Path)
    p.add_argument("--seed", type=int)
    p.add_argument("--cohort", choices=list(pipeline.COHORT_CHOICES))
    p.add_argument("--restarts", type=int)
    p.add_argument("--ess", type=float)
    p.add_argument("--variant", choices=list(sleepmix.VARIANT_STEPS))
    p.add_argument("--folds", type=int)
    p.add_argument("--em-restarts", type=int)
    p.add_argument("--null-replicas", type=int)
    p.add_argument("--eval-restarts", type=int)
    p.add_argument("--edge-probability", type=float)
    p.add_argument("--min-nights", type=int)
    p.add_argument("--median-scope", choices=["per_cohort", "global"])
    p.add_argument("--in-sample", action="store_true", default=None)
    p.add_argument("--strict", dest="strict_parse", action="store_true", default=None)

    return parser


def _cmd_synth(args) -> int:
    truth = synth.default_ground_truth() if args.truth == "default" else synth.structure_recovery_truth()
    cfg = pipeline.checked(
        lambda: synth.GeneratorConfig(args.students, args.nights, args.seed, args.emit),
        args, "students", "nights")
    args.out.mkdir(parents=True, exist_ok=True)
    if args.emit == "full_logs":
        result = synth.generate_full_logs(truth, cfg, args.out)
        for name, path in sorted(result.paths.items()):
            print(f"[synth] wrote {name}: {path}")
    elif args.emit == "profiles":
        table, ids = synth.generate_profiles(truth, cfg)
        out = args.out / "profiles.csv"
        profiles.write_profiles_csv(out, ids, table)
        print(f"[synth] wrote {out}")
    else:
        ids, counts, labels = synth.generate_sleep_data(truth, cfg)
        out = args.out / "sleep_counts.csv"
        ingest.write_sleep_counts_csv(out, ids, counts)
        labels_path = args.out / "true_components.json"
        pipeline.write_json(labels_path, labels)
        print(f"[synth] wrote {out} and {labels_path}")
    return 0


def _cmd_ingest(args) -> int:
    pipeline.check_ranges(min_nights=args.min_nights, gpa_max=args.gpa_max)
    pipeline.require("data directory", args.data)
    pipeline.require("input file", *ingest.LogPaths.from_dir(args.data).as_dict().values())
    args.out.mkdir(parents=True, exist_ok=True)
    result = ingest.ingest_logs(args.data, args.out, strict=args.strict,
                                gpa_max=args.gpa_max, min_nights=args.min_nights)
    pipeline.write_json(args.out / "ingest_report.json",
                        {**result.summary(), "reasons": result.report.reasons})
    print(f"[ingest] {len(result.count_ids)} students with counts, "
          f"{len(result.feature_ids)} with features")
    return 0


def _cmd_sleep_fit(args) -> int:
    mix_cfg = pipeline.checked(
        lambda: sleepmix.MixtureConfig(components=args.components, restarts=args.em_restarts,
                                       variant=args.variant, seed=args.seed),
        args, "components", "em_restarts", "variant")
    pipeline.checked(lambda: sleepmix.check_threshold(args.threshold), args, "threshold")
    pipeline.require("counts file", args.counts)
    ids, counts = ingest.read_sleep_counts_csv(args.counts)
    pipeline.require_students(str(args.counts), len(ids), args.components, "--min-nights")
    args.out.mkdir(parents=True, exist_ok=True)
    model, assigned, diag = pipeline.sleep_fit_group(ids, counts, mix_cfg, args.threshold)
    pipeline.write_json(args.out / "model.json", sleepmix.model_to_json(model, mix_cfg))
    sleepmix.write_assignments_csv(args.out / "assignments.csv", ids,
                                   assigned.omega_stay_up, assigned.stay_up)
    n_up = int(assigned.stay_up.sum())
    print(f"[sleep-fit] best restart {diag.best_restart_index}, "
          f"{diag.iterations_used} iterations, converged={diag.converged}")
    print(f"[sleep-fit] {n_up} stay_up / {len(ids) - n_up} non_stay_up")
    return 0


def _cmd_profile(args) -> int:
    pipeline.require("features file", args.features)
    pipeline.require("assignments file", args.assignments)
    features = ingest.read_features_csv(args.features)
    labels = sleepmix.read_assignments_csv(args.assignments)
    if args.median_scope == "global":
        scopes = [("global", sorted(set(features[0]) | set(labels[0])))]
    elif args.demographics is None:
        raise ConfigError("--median-scope per_cohort needs --demographics")
    else:
        pipeline.require("demographics file", args.demographics)
        # bad rows are skipped, as `run` skips them unless --strict
        demographics = ingest.read_demographics(args.demographics, lambda *skipped: None)
        scopes = [(c, ids) for c, ids in pipeline.cohort_groups("all", demographics) if ids]
    args.out.mkdir(parents=True, exist_ok=True)
    results = pipeline.profile_groups(scopes, features, labels, args.out, {})
    print(f"[profile] wrote {sum(len(r.ids) for r in results.values())} profiles")
    return 0


def _load_table(path: Path) -> bayesnet.DatasetTable:
    pipeline.require("profiles file", path)
    _, table = profiles.read_profiles_csv(path)
    if table.n_rows < 2:
        raise ValueError(f"{path}: need at least two profiles, got {table.n_rows}")
    return table


def _cmd_bn_learn(args) -> int:
    pipeline.check_ranges(restarts=args.restarts)
    cfg = pipeline.checked(lambda: bayesnet.BdeuConfig(args.ess), args, "ess")
    table = _load_table(args.profiles)
    constraints = bayesnet.default_layer_constraints()
    ensemble = consensus.learn_ensemble(
        table, constraints, cfg, n_restarts=args.restarts, seed=args.seed
    )
    best = ensemble.scores.argmax()   # the first of equal best scores
    dag = bayesnet.Dag.from_parents(constraints.variables, ensemble.masks[best].tolist())
    score = ensemble.scores[best]
    cpts = bayesnet.fit_mle(dag, table)
    args.out.mkdir(parents=True, exist_ok=True)
    pipeline.write_json(args.out / "dag.json", dag.to_json())
    pipeline.write_json(args.out / "cpts.json", cpts.to_json())
    print(f"[bn-learn] best of {args.restarts} restarts, score {score:.6f}, "
          f"{len(dag.edges())} edges")
    return 0


def _cmd_consensus(args) -> int:
    pipeline.check_ranges(restarts=args.restarts, top_fraction=args.fraction,
                          null_replicas=args.null_replicas,
                          edge_probability=args.edge_probability)
    cfg = pipeline.checked(lambda: bayesnet.BdeuConfig(args.ess), args, "ess")
    table = _load_table(args.profiles)
    args.out.mkdir(parents=True, exist_ok=True)
    found = consensus.consensus_pipeline(
        table, bayesnet.default_layer_constraints(), cfg, n_restarts=args.restarts,
        fraction=args.fraction, replicas=args.null_replicas,
        edge_probability=args.edge_probability, seed=args.seed,
    )
    pipeline.write_consensus_group(found, args.out / "consensus.json",
                                   args.out / "edge_frequencies.csv", {})
    result, _, null = found
    print(f"[consensus] threshold {null.threshold:.3f}, kept {len(result.dag.edges())} edges")
    return 0


def _cmd_predict(args) -> int:
    experiment = pipeline.checked(
        lambda: evaluate.PredictionExperiment(folds=args.folds, in_sample=args.in_sample,
                                              restarts=args.restarts),
        args, "folds", "in_sample", "restarts")
    cfg = pipeline.checked(lambda: bayesnet.BdeuConfig(args.ess), args, "ess")
    table = _load_table(args.profiles)
    args.out.mkdir(parents=True, exist_ok=True)
    result = evaluate.predict_sleep_experiment(table, bayesnet.default_layer_constraints(), cfg,
                                               experiment, seed=args.seed)
    pipeline.write_roc_curves(result, args.out, "roc_")
    pipeline.write_json(args.out / "prediction_report.json", evaluate.report_json(result))
    print(f"[predict] mean AUC {result.auc_mean:.4f} over {len(result.curves)} fold(s)")
    return 0


def _cmd_run(args) -> int:
    fields = {}
    if args.config is not None:
        fields.update(pipeline.load_config_file(args.config))
    known = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    # each run flag's dest is a PipelineConfig field name; flags left unset are None
    fields.update({k: v for k, v in vars(args).items() if k in known and v is not None})
    if "data_dir" not in fields or "out_dir" not in fields:
        raise ConfigError("run needs --data and --out (or a config file providing them)")
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = pipeline.PipelineConfig(**fields)
    report = pipeline.run_pipeline(cfg)
    print(f"[run] report written to {cfg.out_dir / 'report.json'}")
    for name, entry in sorted(report.get("auc", {}).items()):
        print(f"[run] {name}: mean AUC {entry['auc_mean']:.4f}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "sleep-fit": _cmd_sleep_fit,
    "profile": _cmd_profile,
    "bn-learn": _cmd_bn_learn,
    "consensus": _cmd_consensus,
    "predict": _cmd_predict,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:   # IngestError and StageError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
