import csv
import json
import os
import re
import shutil
import subprocess
import sys
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np
import pytest

from stayup import bayesnet, cli, consensus, evaluate, ingest, pipeline, profiles, sleepmix
from stayup.pipeline import PipelineConfig, run_pipeline

FAST = dict(
    restarts=30, null_replicas=2, folds=3, eval_restarts=6,
    em_restarts=3, min_nights=5,
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    rc = cli.main([
        "synth", "--out", str(out), "--students", "450", "--nights", "40",
        "--seed", "11", "--emit", "full_logs",
    ])
    assert rc == 0
    return out


class TestSubcommands:
    def test_ingest_then_stages(self, data_dir, tmp_path):
        out = tmp_path / "stage"
        assert cli.main([
            "ingest", "--data", str(data_dir), "--out", str(out), "--min-nights", "5",
        ]) == 0
        assert (out / "sleep_counts.csv").exists()
        assert (out / "features.csv").exists()
        assert (out / "ingest_report.json").exists()

        assert cli.main([
            "sleep-fit", "--counts", str(out / "sleep_counts.csv"),
            "--out", str(out), "--seed", "1", "--em-restarts", "3",
        ]) == 0
        assert (out / "model.json").exists()
        model = json.loads((out / "model.json").read_text())
        assert model["M"] == 2 and len(model["lambda"]) == 2

        assert cli.main([
            "profile", "--features", str(out / "features.csv"),
            "--assignments", str(out / "assignments.csv"),
            "--demographics", str(data_dir / "demographics.csv"),
            "--out", str(out),
        ]) == 0
        assert (out / "profiles.csv").exists()

        assert cli.main([
            "bn-learn", "--profiles", str(out / "profiles.csv"),
            "--out", str(out), "--restarts", "8", "--seed", "2",
        ]) == 0
        assert (out / "dag.json").exists() and (out / "cpts.json").exists()

        assert cli.main([
            "consensus", "--profiles", str(out / "profiles.csv"),
            "--out", str(out), "--restarts", "20", "--null-replicas", "2",
            "--seed", "3",
        ]) == 0
        assert (out / "consensus.json").exists()

        assert cli.main([
            "predict", "--profiles", str(out / "profiles.csv"),
            "--out", str(out), "--folds", "3", "--restarts", "6", "--seed", "4",
        ]) == 0
        report = json.loads((out / "prediction_report.json").read_text())
        assert len(report["auc_per_fold"]) == 3
        json_files = sorted(path.name for path in out.glob("*.json"))
        assert json_files == ["consensus.json", "cpts.json", "dag.json", "ingest_report.json",
                              "model.json", "prediction_report.json", "profile_meta.json"]
        for name in json_files:
            assert (out / name).read_text().endswith("}\n"), name

    def test_ingest_matches_the_run_stage(self, data_dir, tmp_path):
        cli_out, run_out = tmp_path / "cli", tmp_path / "run"
        assert cli.main([
            "ingest", "--data", str(data_dir), "--out", str(cli_out), "--min-nights", "5",
        ]) == 0
        run_out.mkdir()
        cfg = PipelineConfig(data_dir=data_dir, out_dir=run_out, min_nights=5)
        registered = []
        result = pipeline._stage_ingest(cfg, lambda *paths: registered.extend(paths))
        assert registered == [run_out / name for name in ingest.INGEST_OUTPUTS]
        for name in ("sleep_counts.csv", "features.csv"):
            assert (cli_out / name).read_bytes() == (run_out / name).read_bytes()
        report = json.loads((cli_out / "ingest_report.json").read_text())
        assert report.pop("reasons") == {}
        assert report == result.summary()
        assert len(result.demographics) == 450

    @pytest.mark.parametrize("variant, steps, threshold", [
        ("standard", {"estep": "standard", "mstep": "exact_map"}, 1e-6),
        ("paper", {"estep": "paper_literal", "mstep": "paper_literal"}, 1 - 1e-6),
    ])
    def test_sleep_fit_variant_and_threshold(self, run_dir, tmp_path, variant, steps, threshold):
        out = tmp_path / "out"
        assert cli.main(["sleep-fit", "--counts", str(run_dir / "sleep_counts.csv"),
                         "--out", str(out), "--em-restarts", "2", "--variant", variant,
                         "--threshold", str(threshold)]) == 0
        assert load_json(out / "model.json")["variant"] == steps
        rows = csv_rows(out / "assignments.csv").values()
        omegas = [float(row["omega_stayup"]) for row in rows]
        # some students fall between this threshold and the default one
        assert any(min(threshold, 0.5) <= w < max(threshold, 0.5) for w in omegas)
        for row, w in zip(rows, omegas):
            assert (row["label"] == "stay_up") == (w >= threshold)

    def test_synth_profiles_mode(self, tmp_path):
        assert cli.main([
            "synth", "--out", str(tmp_path), "--students", "50", "--nights", "5",
            "--emit", "profiles",
        ]) == 0
        assert (tmp_path / "profiles.csv").exists()

    def test_synth_count_vectors_mode(self, tmp_path):
        assert cli.main([
            "synth", "--out", str(tmp_path), "--students", "50", "--nights", "30",
            "--emit", "count_vectors",
        ]) == 0
        assert (tmp_path / "sleep_counts.csv").exists()
        assert (tmp_path / "true_components.json").exists()


SEED = 5


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    """One `stayup run` of the FAST settings, for the stage commands to match."""
    out = tmp_path_factory.mktemp("run")
    argv = ["run", "--data", str(data_dir), "--out", str(out), "--seed", str(SEED)]
    for name, value in FAST.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert cli.main(argv) == 0
    return out


def cohort_members(data_dir, cohort):
    with open(data_dir / "demographics.csv", newline="") as fh:
        return {row["student_id"] for row in csv.DictReader(fh) if row["cohort"] == cohort}


def cohort_file(src, dst, members):
    """Copy a stage CSV keeping its header and the rows of the given students."""
    lines = src.read_bytes().splitlines(keepends=True)
    dst.write_bytes(b"".join([lines[0]] + [ln for ln in lines[1:]
                                          if ln.split(b",", 1)[0].decode() in members]))
    return dst


def load_json(path):
    return json.loads(path.read_text())


def run_json(path):
    """A JSON file of `run` minus its master_seed, which stage commands do not write."""
    obj = load_json(path)
    assert obj.pop("master_seed") == SEED
    return obj


def csv_rows(path):
    with open(path, newline="") as fh:
        return {row["student_id"]: row for row in csv.DictReader(fh)}


class TestStagesMatchRun:
    """Each stage command, given one cohort's inputs and the seed `run` derived
    for that cohort, writes what the `run` stage wrote for it."""

    COHORT = "sophomore"

    def test_sleep_fit_matches_the_run_stage(self, data_dir, run_dir, tmp_path):
        members = cohort_members(data_dir, self.COHORT)
        counts = cohort_file(run_dir / "sleep_counts.csv", tmp_path / "counts.csv", members)
        seed = pipeline.derive_seed(SEED, 1, ingest.COHORTS.index(self.COHORT))
        out = tmp_path / "out"
        assert cli.main(["sleep-fit", "--counts", str(counts), "--out", str(out),
                         "--seed", str(seed), "--em-restarts", str(FAST["em_restarts"])]) == 0
        assert load_json(out / "model.json") == run_json(run_dir / f"model_{self.COHORT}.json")
        got = csv_rows(out / "assignments.csv")
        assert len(got) > 100
        want = csv_rows(run_dir / "assignments.csv")
        assert got == {sid: want[sid] for sid in want if sid in members}

    def test_profile_matches_the_run_stage(self, data_dir, run_dir, tmp_path):
        inputs = ["--features", str(run_dir / "features.csv"),
                  "--assignments", str(run_dir / "assignments.csv")]
        out = tmp_path / "per_cohort"
        assert cli.main(["profile", *inputs, "--demographics", str(data_dir / "demographics.csv"),
                         "--out", str(out)]) == 0
        assert (out / "profiles.csv").read_bytes() == (run_dir / "profiles.csv").read_bytes()
        got, run_meta = load_json(out / "profile_meta.json"), run_json(
            run_dir / "profile_meta.json")
        # features.csv holds round-trip floats, so medians read back from it are exact
        assert got == run_meta

        for cohort, excluded in load_json(run_dir / "report.json")["profiling"]["excluded"].items():
            assert set(excluded) <= cohort_members(data_dir, cohort)

        # one cohort: its own inputs with global medians, or the whole input with
        # demographics of that cohort alone
        members = cohort_members(data_dir, self.COHORT)
        features = cohort_file(run_dir / "features.csv", tmp_path / "features.csv", members)
        labels = cohort_file(run_dir / "assignments.csv", tmp_path / "labels.csv", members)
        demographics = cohort_file(data_dir / "demographics.csv", tmp_path / "demo.csv", members)
        want = cohort_file(run_dir / "profiles.csv", tmp_path / "want.csv", members)
        for scope, argv in [
            ("global", ["--features", str(features), "--assignments", str(labels),
                        "--median-scope", "global"]),
            (self.COHORT, [*inputs, "--demographics", str(demographics)]),
        ]:
            out = tmp_path / scope
            assert cli.main(["profile", *argv, "--out", str(out)]) == 0
            assert (out / "profiles.csv").read_bytes() == want.read_bytes()
            got = load_json(out / "profile_meta.json")
            run_meta = run_json(run_dir / "profile_meta.json")
            assert got.pop("group_medians") == {scope: run_meta.pop("group_medians")[self.COHORT]}
            assert got == run_meta

    def test_consensus_matches_the_run_stage(self, data_dir, run_dir, tmp_path):
        members = cohort_members(data_dir, self.COHORT)
        table = cohort_file(run_dir / "profiles.csv", tmp_path / "profiles.csv", members)
        seed = pipeline.derive_seed(SEED, 3, ingest.COHORTS.index(self.COHORT))
        out = tmp_path / "out"
        assert cli.main(["consensus", "--profiles", str(table), "--out", str(out),
                         "--seed", str(seed), "--restarts", str(FAST["restarts"]),
                         "--null-replicas", str(FAST["null_replicas"])]) == 0
        got = load_json(out / "consensus.json")
        assert got["null"]["replicas"] == FAST["null_replicas"]
        assert got == run_json(run_dir / f"consensus_{self.COHORT}.json")
        assert (out / "edge_frequencies.csv").read_bytes() == (
            run_dir / f"edge_frequencies_{self.COHORT}.csv").read_bytes()

    def test_predict_matches_the_run_stage(self, data_dir, run_dir, tmp_path):
        members = cohort_members(data_dir, self.COHORT)
        table = cohort_file(run_dir / "profiles.csv", tmp_path / "profiles.csv", members)
        # run numbers its prediction tables in name order, the pooled "total" among them
        gi = sorted([*ingest.COHORTS, "total"]).index(self.COHORT)
        out = tmp_path / "out"
        assert cli.main(["predict", "--profiles", str(table), "--out", str(out),
                         "--seed", str(pipeline.derive_seed(SEED, 4, gi)),
                         "--folds", str(FAST["folds"]),
                         "--restarts", str(FAST["eval_restarts"])]) == 0
        for k in range(FAST["folds"]):
            assert (out / f"roc_fold{k}.csv").read_bytes() == (
                run_dir / f"roc_{self.COHORT}_fold{k}.csv").read_bytes()
        assert not (out / f"roc_fold{FAST['folds']}.csv").exists()
        report = load_json(run_dir / "report.json")
        assert load_json(out / "prediction_report.json") == report["auc"][self.COHORT]

    def test_paper_variant_sleep_fit_matches_the_run_stage(self, data_dir, tmp_path):
        run_out, out = tmp_path / "run", tmp_path / "out"
        argv = ["run", "--data", str(data_dir), "--out", str(run_out), "--seed", str(SEED),
                "--cohort", self.COHORT, "--variant", "paper"]
        for name, value in FAST.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert cli.main(argv) == 0
        members = cohort_members(data_dir, self.COHORT)
        counts = cohort_file(run_out / "sleep_counts.csv", tmp_path / "counts.csv", members)
        # the run's one cohort is group 0
        assert cli.main(["sleep-fit", "--counts", str(counts), "--out", str(out),
                         "--seed", str(pipeline.derive_seed(SEED, 1, 0)), "--variant", "paper",
                         "--em-restarts", str(FAST["em_restarts"])]) == 0
        model = load_json(out / "model.json")
        assert model["variant"] == {"estep": "paper_literal", "mstep": "paper_literal"}
        assert model == run_json(run_out / f"model_{self.COHORT}.json")
        assert (out / "assignments.csv").read_bytes() == (run_out / "assignments.csv").read_bytes()


class TestInputMessages:
    def test_run_without_baths_counts_the_exclusions(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "transactions.csv").write_text("student_id,time,venue,amount\n")
        argv = ["run", "--data", str(data), "--out", str(tmp_path / "out"),
                "--median-scope", "global"]
        for name, value in FAST.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: stage 'profile' failed: global profiles: need at least two fully observed "
            "students to profile, got 0; excluded: 450 bath interval variance undefined "
            "(fewer than two baths)\n")

    def test_empty_log_file(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "borrows.csv").write_bytes(b"")
        assert cli.main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: {data / 'borrows.csv'}: the file is empty; "
                                           "expected the header student_id,time\n")


def test_stages_leave_numpy_ma_unimported(data_dir, tmp_path):
    # np.median and np.unique import numpy.ma on their first call, which costs
    # every run that memory; ingest, sleep-fit and profile use neither
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from stayup import cli\n"
        f"assert cli.main(['ingest', '--data', {str(data_dir)!r}, '--out', {out!r},"
        " '--min-nights', '5']) == 0\n"
        f"assert cli.main(['sleep-fit', '--counts', {out + '/sleep_counts.csv'!r},"
        f" '--out', {out!r}, '--em-restarts', '2']) == 0\n"
        f"assert cli.main(['profile', '--features', {out + '/features.csv'!r},"
        f" '--assignments', {out + '/assignments.csv'!r}, '--median-scope', 'global',"
        f" '--out', {out!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n")
    src = str(Path(pipeline.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines()[-1] == "False"


class TestStageInputs:
    def test_profile_counts_a_student_listed_twice_once(self, data_dir, run_dir, tmp_path):
        text = (data_dir / "demographics.csv").read_text()
        sid, gender, cohort = text.splitlines()[1].split(",")
        other = next(c for c in ingest.COHORTS if c != cohort)
        demographics = tmp_path / "demographics.csv"
        demographics.write_text(text + f"{sid},{gender},{other}\n")
        out = tmp_path / "out"
        assert cli.main(["profile", "--features", str(run_dir / "features.csv"),
                         "--assignments", str(run_dir / "assignments.csv"),
                         "--demographics", str(demographics), "--out", str(out)]) == 0
        assert (out / "profiles.csv").read_bytes() == (run_dir / "profiles.csv").read_bytes()

    def test_profile_demographics_without_cohort(self, run_dir, tmp_path, capsys):
        demographics = tmp_path / "demographics.csv"
        demographics.write_text("student_id,gender\ns1,male\ns2,female\n")
        rc = cli.main(["profile", "--features", str(run_dir / "features.csv"),
                       "--assignments", str(run_dir / "assignments.csv"),
                       "--demographics", str(demographics), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {demographics}: header")

    @pytest.mark.parametrize("command, flag, text, missing", [
        ("sleep-fit", "--counts", "", "student_id"),
        ("sleep-fit", "--counts", "student_id\ns1\ns2\n", "c0"),
        ("profile", "--features", "student_id,books_borrowed\ns1,3\n", "mean_daily_surf_minutes"),
        ("profile", "--assignments", "student_id,omega_stayup\ns1,0.5\n", "label"),
        ("predict", "--profiles", "student_id,G\ns1,0\ns2,1\n", "R"),
    ])
    def test_stage_file_without_a_column(self, run_dir, tmp_path, capsys,
                                         command, flag, text, missing):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        argv = [command, flag, str(bad), "--out", str(tmp_path / "out")]
        if command == "profile":
            inputs = {"--features": run_dir / "features.csv",
                      "--assignments": run_dir / "assignments.csv"}
            inputs[flag] = bad
            argv = ["profile", "--median-scope", "global", "--out", str(tmp_path / "out")]
            for name, path in inputs.items():
                argv += [name, str(path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: missing column {missing!r}\n"

    @pytest.mark.parametrize("flag, line, reason", [
        ("--counts", "s2," + "1," * 15 + "x", "invalid literal for int() with base 10: 'x'"),
        ("--counts", "s2," + "1," * 15 + "-1", "counts must be a non-negative vector"),
        ("--counts", "s2," + "1," * 16 + "1", "more fields than the 17 of the header"),
        ("--profiles", "s2," + "0," * 8 + "1,7,8", "more fields than the 10 of the header"),
        ("--profiles", "s2,0,0,0,0,0,0,0,-1,0", "Ac must be 0 or 1, got -1"),
        ("--profiles", "s2,0,0,0,0,0,0,0,2,0", "Ac must be 0 or 1, got 2"),
        ("--features", "s2,0", "fewer fields than the 10 of the header"),
        ("--assignments", "s2", "fewer fields than the 3 of the header"),
        ("--profiles", "s2,0", "fewer fields than the 10 of the header"),
        ("--features", "s2,0,1.0,1.0,1.0,0,,1.0,3.0,Female", "bad gender 'Female'"),
        ("--assignments", "s2,0.5,stayup", "bad label 'stayup'"),
        # the first row again
        ("--counts", None, "duplicate student {sid}"),
        ("--features", None, "duplicate student {sid}"),
        ("--assignments", None, "duplicate student {sid}"),
        ("--profiles", None, "duplicate student {sid}"),
    ])
    def test_stage_file_with_a_bad_row(self, run_dir, tmp_path, capsys, flag, line, reason):
        # the named file keeps its header and first row, then the bad row on line 3
        source = {"--counts": "sleep_counts.csv", "--features": "features.csv",
                  "--assignments": "assignments.csv", "--profiles": "profiles.csv"}[flag]
        header, first = (run_dir / source).read_text().splitlines()[:2]
        if line is None:
            line, reason = first, reason.format(sid=first.split(",")[0])
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{first}\n{line}\n")
        out = str(tmp_path / "out")
        argv = {
            "--counts": ["sleep-fit", "--counts", str(bad), "--out", out],
            "--features": ["profile", "--features", str(bad), "--assignments",
                           str(run_dir / "assignments.csv"), "--median-scope", "global",
                           "--out", out],
            "--assignments": ["profile", "--features", str(run_dir / "features.csv"),
                              "--assignments", str(bad), "--median-scope", "global", "--out", out],
            "--profiles": ["consensus", "--profiles", str(bad), "--out", out],
        }[flag]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: {reason}\n"

    @pytest.mark.parametrize("argv, field", [
        (["ingest", "--min-nights", "0"], "min_nights"),
        (["ingest", "--gpa-max", "-1"], "gpa_max"),
        (["synth", "--students", "0"], "students"),
        (["sleep-fit", "--em-restarts", "0"], "em_restarts"),
        (["sleep-fit", "--components", "0"], "components"),
        (["sleep-fit", "--threshold", "1.5"], "threshold"),
        (["bn-learn", "--restarts", "0"], "restarts"),
        (["bn-learn", "--ess", "0"], "ess"),
        (["bn-learn", "--ess", "inf"], "ess"),
        (["bn-learn", "--ess", "1e308"], "ess"),
        (["consensus", "--restarts", "0"], "restarts"),
        (["consensus", "--ess", "0"], "ess"),
        (["consensus", "--ess", "inf"], "ess"),
        (["consensus", "--ess", "1e-320"], "ess"),
        (["consensus", "--null-replicas", "0"], "null_replicas"),
        (["consensus", "--fraction", "0"], "top_fraction"),
        (["consensus", "--edge-probability", "1.5"], "edge_probability"),
        (["predict", "--folds", "1"], "folds"),
        (["predict", "--restarts", "0"], "restarts"),
        (["predict", "--ess", "0"], "ess"),
        (["predict", "--ess", "inf"], "ess"),
        (["predict", "--ess", "1e308"], "ess"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
    def test_bad_setting_exits_2_before_reading_input(self, data_dir, run_dir, tmp_path, capsys,
                                                      argv, field):
        inputs = {
            "synth": [],
            "ingest": ["--data", str(data_dir)],
            "sleep-fit": ["--counts", str(run_dir / "sleep_counts.csv")],
            "bn-learn": ["--profiles", str(run_dir / "profiles.csv")],
            "consensus": ["--profiles", str(run_dir / "profiles.csv")],
            "predict": ["--profiles", str(run_dir / "profiles.csv")],
        }[argv[0]]
        out = tmp_path / "out"
        assert cli.main([argv[0], *inputs, "--out", str(out), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(rf"\b{field}\b", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bn-learn", "consensus", "predict"])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_table_of_fewer_than_two_profiles(self, run_dir, tmp_path, capsys, command, rows):
        lines = (run_dir / "profiles.csv").read_bytes().splitlines(keepends=True)
        table = tmp_path / "profiles.csv"
        table.write_bytes(b"".join(lines[:1 + rows]))
        out = tmp_path / "out"
        assert cli.main([command, "--profiles", str(table), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: need at least two profiles, got {rows}\n")
        assert not out.exists()


class TestRun:
    def test_full_pipeline(self, data_dir, tmp_path):
        out = tmp_path / "run"
        argv = [
            "run", "--data", str(data_dir), "--out", str(out), "--seed", "5",
            "--restarts", "30", "--null-replicas", "2", "--folds", "3",
            "--eval-restarts", "6", "--em-restarts", "3", "--min-nights", "5",
        ]
        assert cli.main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert set(report["cluster_sizes"]) == {"freshman", "sophomore", "junior", "total"}
        totals = report["cluster_sizes"]["total"]
        assert totals["stay_up"] + totals["non_stay_up"] == totals["total"]
        assert "total" in report["auc"]
        assert "times_in_blanket" in report["structure_of_S"]
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == []
        assert set(manifest["stages"]) >= {"ingest", "sleep_fit", "profile",
                                           "consensus", "predict", "report"}
        import hashlib

        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, data_dir, tmp_path):
        out = tmp_path / "cfg_run"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "data_dir": str(data_dir), "out_dir": str(out), "seed": 9,
            "cohort": "freshman", **FAST,
        }))
        assert cli.main(["run", "--config", str(cfg_path), "--folds", "2"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["folds"] == 2          # flag wins
        assert report["config"]["cohort"] == "freshman"
        assert set(report["cluster_sizes"]) == {"freshman", "total"}
        assert "consensus_total.json" not in json.loads(
            (out / "MANIFEST.json").read_text())["files"]

    @pytest.mark.parametrize("flag, value, field", [
        ("--restarts", "0", "restarts"),
        ("--null-replicas", "0", "null_replicas"),
        ("--eval-restarts", "0", "eval_restarts"),
        ("--ess", "0", "ess"),
        ("--ess", "inf", "ess"),
        ("--edge-probability", "1.5", "edge_probability"),
        ("--folds", "1", "folds"),
        ("--em-restarts", "0", "em_restarts"),
        ("--min-nights", "0", "min_nights"),
        ("top_fraction", 0, "top_fraction"),   # config fields without a run flag
        ("gpa_max", -1, "gpa_max"),
        ("restarts", "5", "restarts"),         # config file values of the wrong type
        ("out_dir", 5, "out_dir"),
    ])
    def test_bad_setting_exits_2_before_any_stage(self, data_dir, tmp_path, capsys,
                                                   flag, value, field):
        out = tmp_path / "out"
        if flag.startswith("--"):
            argv = ["run", "--data", str(data_dir), "--out", str(out), flag, value]
        else:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"data_dir": str(data_dir), "out_dir": str(out),
                                            flag: value}))
            argv = ["run", "--config", str(cfg_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(rf"\b{field}\b", err), err
        assert not (out / "MANIFEST.json").exists()

    @pytest.mark.parametrize("ess", ["1e308", "1e-320"])
    def test_extreme_ess_exits_2_before_any_stage(self, data_dir, tmp_path, capsys, ess):
        # finite, but every BDeu score would be NaN
        out = tmp_path / "out"
        assert cli.main(["run", "--data", str(data_dir), "--out", str(out), "--ess", ess]) == 2
        assert capsys.readouterr().err == (
            f"error: ess={float(ess)!r}: ess is too large or too small for finite BDeu scores\n")
        assert not out.exists()

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"data_dir": "x", "out_dir": "y", "bogus": 1}))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_stage_failure_exit_code(self, data_dir, tmp_path, capsys):
        rc = cli.main([
            "run", "--data", str(data_dir), "--out", str(tmp_path / "f"),
            "--min-nights", "1000", "--em-restarts", "2",
        ])
        assert rc == 1
        assert "sleep_fit" in capsys.readouterr().err

    def test_stage_failure_exits_1_and_marks_manifest(self, data_dir, tmp_path, capsys):
        out = tmp_path / "fail_run"
        # min_nights above the generated night count empties the count table,
        # so the mixture stage cannot fit and must fail
        cfg = PipelineConfig(data_dir=data_dir, out_dir=out, min_nights=1000, **{
            k: v for k, v in FAST.items() if k != "min_nights"
        })
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "sleep_fit"
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["sleep_fit"]
        assert "ingest" in manifest["stages"]


# each run stage and one library call it makes
STAGE_CALLS = [
    ("ingest", ingest, "ingest_logs"),
    ("sleep_fit", sleepmix, "fit"),
    ("profile", profiles, "build_profiles"),
    ("consensus", consensus, "consensus_pipeline"),
    ("total_network", consensus, "merge_total_network"),
    ("predict", evaluate, "predict_sleep_experiment"),
    ("report", bayesnet, "markov_blanket"),
]


class TestStageFailure:
    """Whichever stage fails, run names it, and MANIFEST lists the stages
    before it and every file on disk."""

    @pytest.mark.parametrize("stage, module, name", STAGE_CALLS,
                             ids=[stage for stage, _, _ in STAGE_CALLS])
    def test_manifest_of_a_failed_stage(self, data_dir, tmp_path, monkeypatch,
                                        stage, module, name):
        def failing(*args, **kwargs):
            raise ValueError(f"planted {stage} failure")

        monkeypatch.setattr(module, name, failing)
        out = tmp_path / "run"
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(PipelineConfig(data_dir=data_dir, out_dir=out, seed=5, **FAST))
        assert info.value.stage == stage
        assert f"planted {stage} failure" in str(info.value)
        manifest = load_json(out / "MANIFEST.json")
        stages = [s for s, _, _ in STAGE_CALLS]
        assert manifest["stages"] == stages[:stages.index(stage)]
        assert manifest["incomplete"] == [stage]
        assert {p.name for p in out.iterdir()} - {"MANIFEST.json"} == set(manifest["files"])
        assert_no_children()

    def test_a_block_that_fails_in_the_child_fails_ingest(self, data_dir, tmp_path, monkeypatch):
        here, decode = os.getpid(), ingest._decode_block

        def failing(*args):
            if os.getpid() != here:
                raise ValueError("planted block failure")
            return decode(*args)

        monkeypatch.setattr(ingest, "_decode_block", failing)
        out = tmp_path / "run"
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(PipelineConfig(data_dir=data_dir, out_dir=out, seed=5, **FAST))
        assert info.value.stage == "ingest"
        assert "planted block failure" in str(info.value)
        manifest = load_json(out / "MANIFEST.json")
        assert (manifest["stages"], manifest["incomplete"], manifest["files"]) == ([], ["ingest"], {})
        assert [p.name for p in out.iterdir()] == ["MANIFEST.json"]
        assert_no_children()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunSplit:
    """run searches consensus networks and predictability in two processes."""

    ARGV = ["--seed", "5", "--restarts", "30", "--null-replicas", "2", "--folds", "3",
            "--eval-restarts", "6", "--em-restarts", "3", "--min-nights", "5"]

    def test_piped_stdout_prints_each_line_once(self, data_dir, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "stayup.cli", "run", "--data", str(data_dir),
             "--out", str(out), *self.ARGV],
            env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
                 "PYTHONPATH": str(Path(pipeline.__file__).parent.parent)},
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        assert lines[0] == f"[run] report written to {out / 'report.json'}"
        assert [line.split(":")[0] for line in lines[1:]] == [
            f"[run] {name}" for name in ("freshman", "junior", "sophomore", "total")]

    def test_failed_predict_job_keeps_the_networks(self, data_dir, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("planted predict failure")

        monkeypatch.setattr(evaluate, "predict_sleep_experiment", failing)
        out = tmp_path / "run"
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(PipelineConfig(data_dir=data_dir, out_dir=out, seed=5, **FAST))
        assert info.value.stage == "predict"
        assert "planted predict failure" in str(info.value)
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["predict"]
        assert manifest["stages"][-1] == "total_network"
        for name in ("consensus_freshman.json", "edge_frequencies_junior.csv",
                     "consensus_total.json"):
            assert name in manifest["files"] and (out / name).is_file()
        assert not list(out.glob("roc_*.csv"))
        assert_no_children()

    def test_failed_consensus_job_fails_in_cohort_order(self, data_dir, tmp_path, monkeypatch):
        search = consensus.consensus_pipeline

        def failing(table, constraints, cfg, **kwargs):
            if kwargs["seed"] in (pipeline.derive_seed(5, 3, 1), pipeline.derive_seed(5, 3, 2)):
                raise ValueError(f"planted consensus failure {kwargs['seed']}")
            return search(table, constraints, cfg, **kwargs)

        monkeypatch.setattr(consensus, "consensus_pipeline", failing)
        out = tmp_path / "run"
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(PipelineConfig(data_dir=data_dir, out_dir=out, seed=5, **FAST))
        assert info.value.stage == "consensus"
        # sophomore's job runs in the child and junior's here; sophomore comes first
        assert str(pipeline.derive_seed(5, 3, 1)) in str(info.value)
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["consensus"]
        assert "consensus_freshman.json" in manifest["files"]
        assert sorted(p.name for p in out.glob("consensus_*.json")) == ["consensus_freshman.json"]
        assert not list(out.glob("roc_*.csv"))
        assert_no_children()

    def test_failed_fit_job_fails_in_cohort_order(self, data_dir, tmp_path, monkeypatch):
        fit = sleepmix.fit

        def failing(counts, cfg, ids=None):
            if cfg.seed in (pipeline.derive_seed(5, 1, 1), pipeline.derive_seed(5, 1, 2)):
                raise sleepmix.MixtureError("planted fit failure")
            return fit(counts, cfg, ids)

        monkeypatch.setattr(sleepmix, "fit", failing)
        out = tmp_path / "run"
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(PipelineConfig(data_dir=data_dir, out_dir=out, seed=5, **FAST))
        assert info.value.stage == "sleep_fit"
        # sophomore's fit fails in the child and junior's here; sophomore comes first
        assert str(info.value) == "stage 'sleep_fit' failed: cohort 'sophomore': planted fit failure"
        assert isinstance(info.value.cause, sleepmix.MixtureError)
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["sleep_fit"]
        assert sorted(p.name for p in out.glob("model_*.json")) == ["model_freshman.json"]
        assert "model_freshman.json" in manifest["files"]
        assert_no_children()


class TestEmptyCohort:
    """A cohort that min_nights empties fails before any EM, naming the cause."""

    def test_run_names_the_emptied_cohort(self, data_dir, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        for path in data_dir.glob("*.csv"):
            (data / path.name).write_bytes(path.read_bytes())
        cohort = dict(line.split(",")[::2] for line in
                      (data_dir / "demographics.csv").read_text().splitlines()[1:])
        header, *sessions = (data_dir / "net_sessions.csv").read_text().splitlines()
        kept, seen = [header], {}
        for line in sessions:   # every junior keeps 3 sessions, fewer than min_nights
            sid = line.split(",")[0]
            seen[sid] = seen.get(sid, 0) + 1
            if cohort[sid] != "junior" or seen[sid] <= 3:
                kept.append(line)
        (data / "net_sessions.csv").write_text("\n".join(kept) + "\n")
        rc = cli.main(["run", "--data", str(data), "--out", str(out), "--min-nights", "5",
                       "--em-restarts", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: stage 'sleep_fit' failed: cohort 'junior' has 0 students with sleep counts, "
            "fewer than the 2 mixture components; ingest drops students with a bedtime on "
            "fewer than min_nights=5 nights\n")
        assert not list(out.glob("model_*.json"))
        assert json.loads((out / "MANIFEST.json").read_text())["incomplete"] == ["sleep_fit"]

    def test_sleep_fit_names_the_empty_counts_file(self, tmp_path, capsys):
        counts = tmp_path / "sleep_counts.csv"
        counts.write_text("student_id," + ",".join(f"c{i}" for i in range(12)) + "\n")
        rc = cli.main(["sleep-fit", "--counts", str(counts), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {counts} has 0 students with sleep counts, fewer than the 2 mixture "
            "components; ingest drops students with a bedtime on fewer than --min-nights "
            "nights\n")
        assert not (tmp_path / "out" / "model.json").exists()


class TestCohortFailures:
    """Failures of one cohort's sleep fit or profiles name the cohort, before consensus."""

    @pytest.mark.parametrize("scope", ["per_cohort", "global"])
    def test_unprofiled_cohort_fails_the_profile_stage(self, data_dir, tmp_path, capsys, scope):
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        for path in data_dir.glob("*.csv"):
            (data / path.name).write_bytes(path.read_bytes())
        cohort = dict(line.split(",")[::2] for line in
                      (data_dir / "demographics.csv").read_text().splitlines()[1:])
        header, *grades = (data_dir / "grades.csv").read_text().splitlines()
        kept = [line for line in grades if cohort[line.split(",")[0]] != "junior"]
        (data / "grades.csv").write_text("\n".join([header] + kept) + "\n")
        rc = cli.main(["run", "--data", str(data), "--out", str(out), "--median-scope", scope,
                       "--min-nights", "5", "--em-restarts", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: stage 'profile' failed: junior profiles: need at least two fully observed "
            "students to profile, got 0; excluded: 150 missing feature record (no grade, so no "
            "row in features.csv)\n")
        assert json.loads((out / "MANIFEST.json").read_text())["incomplete"] == ["profile"]
        assert not list(out.glob("consensus_*.json"))

    @pytest.mark.parametrize("error", [
        ValueError("mean bin index ties between components; select the stay-up component "
                   "manually"),
        sleepmix.MixtureError("non-finite objective at iteration 7"),
    ])
    def test_sleep_fit_errors_name_the_cohort(self, data_dir, tmp_path, monkeypatch, error):
        def failing(model):
            raise error

        monkeypatch.setattr(sleepmix, "stay_up_component", failing)
        out = tmp_path / "out"
        with pytest.raises(pipeline.StageError) as info:
            run_pipeline(PipelineConfig(data_dir=data_dir, out_dir=out, **FAST))
        assert str(info.value) == f"stage 'sleep_fit' failed: cohort 'freshman': {error}"
        assert type(info.value.cause) is type(error)
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["sleep_fit"]
        # no file is left behind that MANIFEST does not list
        assert {p.name for p in out.iterdir()} - {"MANIFEST.json"} == set(manifest["files"])


def write_skewed_cohort(directory, n_students=40, n_late=3, nights=20, seed=0):
    """Logs of one freshman cohort where only `n_late` students go to bed late."""
    rng = np.random.default_rng(seed)
    demographics, sessions, transactions, borrows, grades = [], [], [], [], []
    for i in range(n_students):
        sid = f"s{i:02d}"
        demographics.append(f"{sid},{('male', 'female')[i % 2]},freshman")
        grades.append(f"{sid},{rng.uniform(1.0, 4.0):.2f}")
        late = i < n_late
        for night in range(nights):
            day = date(2018, 11, 1) + timedelta(days=night)
            # 21:00 plus the bin (30 min each): late students in bins 12-15
            minutes = 30 * int(rng.integers(12, 16) if late else rng.integers(0, 4)) + 10
            end = datetime.combine(day, time(21, 0)) + timedelta(minutes=minutes)
            app = ("game", "video", "other")[int(rng.integers(3))]
            sessions.append(f"{sid},{end:%Y-%m-%d %H:%M},{app},{int(rng.integers(5, 120))}")
            if rng.random() < 0.5:
                transactions.append(f"{sid},{day} 07:{int(rng.integers(10, 59))},canteen,"
                                    f"{rng.uniform(2, 9):.2f}")
            if rng.random() < 0.3:
                transactions.append(f"{sid},{day} 20:{int(rng.integers(10, 59))},bath,3.00")
        transactions.append(f"{sid},2018-11-02 19:00,bath,3.00")
        transactions.append(f"{sid},2018-11-05 19:00,bath,3.00")
        borrows.extend(f"{sid},2018-11-03 10:00" for _ in range(int(rng.integers(0, 3))))
    files = {
        "demographics": ("student_id,gender,cohort", demographics),
        "net_sessions": ("student_id,end_time,app_category,duration_minutes", sessions),
        "transactions": ("student_id,time,venue,amount", transactions),
        "borrows": ("student_id,time", borrows),
        "grades": ("student_id,gpa", grades),
    }
    for kind, (header, lines) in files.items():
        (directory / f"{kind}.csv").write_text("\n".join([header] + lines) + "\n")


class TestSkewedCohort:
    def test_fails_before_consensus(self, tmp_path, capsys):
        # 40 students, 1 of them stays up: no two folds can both hold a stay-up
        # student, so the predict stage could not score them, stratified or not
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        write_skewed_cohort(data, n_late=1)
        rc = cli.main(["run", "--data", str(data), "--out", str(out), "--cohort", "freshman",
                       "--min-nights", "5", "--em-restarts", "3", "--seed", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage 'profile' failed" in err and "rows contain a single S class" in err
        rows = (out / "profiles.csv").read_text().splitlines()[1:]
        assert len(rows) == 40
        assert sum(row.endswith(",1") for row in rows) == 1
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["profile"]
        assert not list(out.glob("consensus_*.json"))
        assert not list(out.glob("edge_frequencies_*.csv"))

    def test_three_stay_up_students_degrade_the_folds(self, tmp_path):
        # 40 students, 3 of them stay up: the seeded 5 folds leave some test
        # fold without a stay-up student, so the run stratifies over 3 folds
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        write_skewed_cohort(data)
        assert cli.main(["run", "--data", str(data), "--out", str(out), "--cohort", "freshman",
                         "--min-nights", "5", "--em-restarts", "3", "--seed", "1",
                         "--restarts", "20", "--null-replicas", "2"]) == 0
        rows = (out / "profiles.csv").read_text().splitlines()[1:]
        assert sum(row.endswith(",1") for row in rows) == 3
        auc = json.loads((out / "report.json").read_text())["auc"]["freshman"]
        assert auc["degraded_folds"]["requested"] == 5
        assert auc["degraded_folds"]["used"] == 3
        assert "rows contain a single S class" in auc["degraded_folds"]["reason"]
        assert len(auc["auc_per_fold"]) == 3
        assert sorted(p.name for p in out.glob("roc_freshman_fold*.csv")) == [
            f"roc_freshman_fold{k}.csv" for k in range(3)]
        assert json.loads((out / "MANIFEST.json").read_text())["incomplete"] == []


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for name in ("synth", "ingest", "sleep-fit", "profile", "bn-learn",
                 "consensus", "predict", "run"):
        assert name in out
