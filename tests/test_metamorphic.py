"""Metamorphic relations of `run`: rewrites of every input CSV that keep its
records must keep every output byte.

A 30-student `synth --emit full_logs` directory runs with tiny search flags;
each rewrite of all five CSVs must give the same MANIFEST digests, apart from
report.json, which echoes the run's data_dir and out_dir. Shuffling the data
lines is not among them: spend is summed in file order, so a new line order
moves features.csv (ROADMAP.md, ingest as order-free aggregates).
"""

import csv
import io
import json
from pathlib import Path

import pytest

from stayup import cli

RUN = ["--restarts", "4", "--null-replicas", "1", "--eval-restarts", "1", "--em-restarts", "1",
       "--folds", "2", "--min-nights", "5"]


def _csv(rows, **fmt) -> str:
    text = io.StringIO()
    csv.writer(text, **fmt).writerows(rows)
    return text.getvalue()


# synth writes csv.writer's default CRLF line ends, so the line-end rewrite is to LF
REWRITES = {
    "lf_line_ends": lambda rows: _csv(rows, lineterminator="\n"),
    "leading_bom": lambda rows: "\ufeff" + _csv(rows),
    "reversed_columns": lambda rows: _csv([row[::-1] for row in rows]),
    "quote_all": lambda rows: _csv(rows, quoting=csv.QUOTE_ALL),
    "no_final_newline": lambda rows: _csv(rows).removesuffix("\r\n"),
}


def digests(data: Path, out: Path) -> dict[str, str]:
    assert cli.main(["run", "--data", str(data), "--out", str(out), *RUN]) == 0
    files = json.loads((out / "MANIFEST.json").read_text())["files"]
    return {name: digest for name, digest in files.items() if name != "report.json"}


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    assert cli.main(["synth", "--out", str(root / "data"), "--students", "30", "--nights", "30",
                     "--seed", "2", "--emit", "full_logs"]) == 0
    return root / "data", digests(root / "data", root / "out")


@pytest.mark.parametrize("rewrite", REWRITES)
def test_rewrite_keeps_every_output(original, tmp_path, rewrite):
    data, want = original
    (tmp_path / "data").mkdir()
    for path in sorted(data.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        text = REWRITES[rewrite](rows).encode()
        assert text != path.read_bytes()   # the rewrite changes every file
        (tmp_path / "data" / path.name).write_bytes(text)
    assert digests(tmp_path / "data", tmp_path / "out") == want
