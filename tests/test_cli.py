import json
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest

from stayup import cli, pipeline
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

    def test_ingest_matches_the_run_stage(self, data_dir, tmp_path):
        cli_out, run_out = tmp_path / "cli", tmp_path / "run"
        assert cli.main([
            "ingest", "--data", str(data_dir), "--out", str(cli_out), "--min-nights", "5",
        ]) == 0
        run_out.mkdir()
        state = {"report": {}}
        cfg = PipelineConfig(data_dir=data_dir, out_dir=run_out, min_nights=5)
        pipeline._stage_ingest(cfg, state, pipeline._Artifacts(run_out))
        for name in ("sleep_counts.csv", "features.csv"):
            assert (cli_out / name).read_bytes() == (run_out / name).read_bytes()
        report = json.loads((cli_out / "ingest_report.json").read_text())
        assert report.pop("reasons") == {}
        assert report == state["report"]["ingest"]
        assert "store" not in state and len(state["demographics"]) == 450

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
        # 40 students, 3 of them stay up: with 5 folds some test folds hold no
        # stay-up student, so the predict stage could not score them
        data, out = tmp_path / "data", tmp_path / "out"
        data.mkdir()
        write_skewed_cohort(data)
        rc = cli.main(["run", "--data", str(data), "--out", str(out), "--cohort", "freshman",
                       "--min-nights", "5", "--em-restarts", "3", "--seed", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "stage 'profile' failed" in err and "rows contain a single S class" in err
        rows = (out / "profiles.csv").read_text().splitlines()[1:]
        assert len(rows) == 40
        assert sum(row.endswith(",1") for row in rows) == 3
        manifest = json.loads((out / "MANIFEST.json").read_text())
        assert manifest["incomplete"] == ["profile"]
        assert not list(out.glob("consensus_*.json"))
        assert not list(out.glob("edge_frequencies_*.csv"))


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    for name in ("synth", "ingest", "sleep-fit", "profile", "bn-learn",
                 "consensus", "predict", "run"):
        assert name in out
