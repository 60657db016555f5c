"""Golden digests of the small synthetic run that CI makes.

`synth --students 200 --nights 30 --seed 1`, then `run` with the flags of
.github/workflows/tier1.yml under each --variant, in this process. Every
digest in MANIFEST.json must equal the one in golden_digests.json, so a
change that moves an output fails here, not only in a comparison of two
commits. A change that moves outputs on purpose says so in CHANGES.md and
rewrites the golden file in the same diff:

    PYTHONPATH=src python tests/test_golden.py

synth draws with numpy's default_rng, whose distributions numpy does not
promise to keep across releases; its outputs are digested too, so a numpy
release that moves the inputs shows as such.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stayup import cli

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
SYNTH = ["--students", "200", "--nights", "30", "--seed", "1"]
RUN = ["--min-nights", "5", "--restarts", "20", "--null-replicas", "1", "--folds", "3",
       "--eval-restarts", "3", "--em-restarts", "2"]
VARIANTS = ("standard", "paper")


def excluded(name: str) -> bool:
    """Files whose bytes do not depend on the inputs alone:
    - report.json echoes the run's data_dir and out_dir, which are paths of this test;
    - model_*.json holds EM rates whose last bits move with the host's BLAS kernel and
      numpy's dispatched exp and log (ROADMAP.md, sleep-fit digests)."""
    return name == "report.json" or name.startswith("model_")


def synth_digests(data: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(data.iterdir())}


def run_digests(data: Path, out: Path, variant: str) -> dict[str, str]:
    assert cli.main(["run", "--data", str(data), "--out", str(out), "--variant", variant, *RUN]) == 0
    files = json.loads((out / "MANIFEST.json").read_text())["files"]
    return {name: digest for name, digest in sorted(files.items()) if not excluded(name)}


def make_synth(data: Path):
    assert cli.main(["synth", "--out", str(data), *SYNTH]) == 0


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "data"
    make_synth(out)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_synth_outputs(data, golden):
    assert synth_digests(data) == golden["synth"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_digests(data, golden, tmp_path, variant):
    got = run_digests(data, tmp_path / "out", variant)
    assert len(got) == 24
    assert got == golden["run"][variant]


if __name__ == "__main__":   # rewrite the golden file from this checkout's outputs
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        make_synth(Path(tmp) / "data")
        digests = {"synth": synth_digests(Path(tmp) / "data"),
                   "run": {v: run_digests(Path(tmp) / "data", Path(tmp) / v, v) for v in VARIANTS}}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
