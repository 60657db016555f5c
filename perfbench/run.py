#!/usr/bin/env python3
"""Benchmark of ``stayup run`` on seeded synthetic campus logs.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. For the workload it generates (or
loads from ``.perfbench_cache/``) the five raw CSV logs, then:

* times several fresh interpreters that import ``stayup.cli`` (``setup_s``);
* runs ``stayup run`` in a fresh child process with ``PYTHONPATH=src``, whole
  runs one after another until ``--seconds`` have passed (at least two),
  all writing to one output directory;
* checks every run's outputs against the planted truth (see checks.py);
* prints the metrics of BENCHMARK.json by name and unit as the last line of
  standard output, with the operations attempted and failed. An operation
  is one of the seven pipeline stages that MANIFEST.json records; it fails
  when it raises or when its outputs fail their checks.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
untraced run followed by a traced one and reports the per-layer metrics
from the traced run's spans (see child.py and README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
DEADLINE_S = 170          # a run must end within 180 s
SETUP_STARTS = 5          # fresh imports per run; the median is reported
RUN_DEFAULTS = {"--restarts": "200", "--null-replicas": "10", "--folds": "5"}

# Child environment: one BLAS / OpenMP thread, so the numbers measure the
# program and not the scheduler; a fixed hash seed for steady dict layouts.
CHILD_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("out of time")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def fresh_import(clock: Clock) -> tuple[float, float]:
    """(interpreter start to stayup.cli imported, the import alone), in seconds."""
    code = ("import time; t = time.perf_counter(); import stayup.cli; "
            "print(time.perf_counter() - t, flush=True)")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=clock.left())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("importing stayup.cli timed out") from None
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"cannot import stayup.cli: {err.strip()[-500:]}")
    return t1 - t0, float(line)


def run_child(clock: Clock, inputs: Path, out: Path, seed: int, run_args, trace: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    result = CACHE / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result), *(["--trace"] if trace else []),
           "--", "run", "--data", str(inputs.relative_to(ROOT)), "--out", str(out.relative_to(ROOT)),
           "--seed", str(seed), *run_args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=clock.left())
    except subprocess.TimeoutExpired:
        raise BenchError("stayup run timed out") from None
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"benchmark child failed: {proc.stderr.strip()[-800:]}")
    res = json.loads(result.read_text())
    res["stderr"] = proc.stderr
    return res


def layer_metrics(spans: list, run_s: float) -> dict[str, float]:
    """Per-layer numbers from one traced run's spans."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def total(*names):
        return sum(s[2] - s[1] for n in names for s in by_name.get(n, []))

    ensembles = [s for s in by_name.get("consensus.learn_ensemble", [])
                 if s[3] >= 0 and spans[s[3]][0] == "consensus.consensus_pipeline"]
    climbs = by_name.get("bayesnet.hill_climb", [])
    parse_s = total("ingest.parse_logs")
    rows = sum(s[4]["rows"] for s in by_name.get("ingest.parse_logs", []))
    restarts = sum(s[4]["restarts"] for s in ensembles)
    return {
        "ingest.parse_s": parse_s,
        "ingest.rows_per_s": rows / parse_s if parse_s else 0.0,
        "ingest.bedtimes_s": total("ingest.extract_bedtimes"),
        "ingest.counts_s": total("ingest.aggregate_sleep_counts"),
        "ingest.features_s": total("ingest.compute_raw_features", "ingest.infer_study_days"),
        "ingest.write_s": total("ingest.write_sleep_counts_csv", "ingest.write_features_csv"),
        "sleepmix.fit_s": total("sleepmix.fit"),
        "sleepmix.em_iterations": sum(s[4]["iterations"] for s in by_name.get("sleepmix.fit", [])),
        "sleepmix.poisson_scores_calls": len(by_name.get("_kernels.poisson_scores", [])),
        "sleepmix.poisson_scores_s": total("_kernels.poisson_scores"),
        "profiles.build_s": total("profiles.build_profiles"),
        "consensus.ensemble_s": sum(s[2] - s[1] for s in ensembles),
        "consensus.null_s": total("consensus.null_threshold"),
        "consensus.best_restart_share": sum(s[4]["best"] for s in ensembles) / restarts if restarts else 0.0,
        "bayesnet.hill_climbs": len(climbs),
        "bayesnet.hill_climb_ms": 1e3 * total("bayesnet.hill_climb") / len(climbs) if climbs else 0.0,
        "bayesnet.random_start_s": total("bayesnet.random_start"),
        "bayesnet.family_counts_calls": len(by_name.get("_kernels.family_counts", [])),
        "bayesnet.family_counts_s": total("_kernels.family_counts"),
        "evaluate.predict_s": total("evaluate.predict_sleep_experiment"),
        # the traced calls run one after another, so root spans do not overlap
        "pipeline.self_s": run_s - sum(s[2] - s[1] for s in spans if s[3] < 0),
    }


class Workload:
    def __init__(self, name: str, seed: int):
        self.spec = gen.SPECS[name]
        self.seed = seed
        self.inputs = gen.ensure_inputs(ROOT, name, seed)
        self.truth = checks.Truth(self.inputs)
        self.out = CACHE / "out" / name
        args = dict(RUN_DEFAULTS, **dict(zip(self.spec.run_args[::2], self.spec.run_args[1::2])))
        self.check_args = {"restarts": int(args["--restarts"]),
                           "null_replicas": int(args["--null-replicas"]),
                           "folds": int(args["--folds"])}
        self.attempted = 0
        self.failed = 0
        self.consistent = True
        self._manifest = None

    def run(self, clock: Clock, trace: bool) -> dict:
        """One ``stayup run`` plus the checks of its outputs."""
        res = run_child(clock, self.inputs, self.out, self.seed, self.spec.run_args, trace)
        problems = checks.check_run(self.out, self.truth, self.check_args)
        parses = [s for s in res.get("spans", []) if s[0] == "ingest.parse_logs" and s[4]]
        if parses:
            problems["ingest"] += checks.check_reasons(parses[0][4]["reasons"], self.truth)
        manifest = (self.out / "MANIFEST.json").read_bytes() if (self.out / "MANIFEST.json").is_file() else None
        if manifest is not None and self._manifest is not None and manifest != self._manifest:
            problems["report"].append("two runs to the same output path wrote different MANIFEST.json")
        self._manifest = manifest
        failed = [stage for stage, found in problems.items() if found]
        done = json.loads(manifest)["stages"] if manifest is not None else []
        if (res["rc"] == 0) != (len(done) == len(checks.STAGES)):
            self.consistent = False       # exit code 0 exactly when every stage completed
        print(f"[perfbench] {'traced' if trace else 'untraced'} run: run_s {res['run_s']:.3f} "
              f"cpu_s {res['cpu_s']:.3f} peak_rss_mb {res['peak_rss_mb']:.1f}", file=sys.stderr)
        self.attempted += len(checks.STAGES)
        self.failed += len(failed)
        for stage in failed:
            print(f"[perfbench] {stage}: {'; '.join(problems[stage])}", file=sys.stderr)
        if failed and res["stderr"].strip():
            print(f"[perfbench] stayup stderr: {res['stderr'].strip()[-800:]}", file=sys.stderr)
        return res


def measure(args) -> tuple[Workload, dict]:
    if not (ROOT / "src" / "stayup" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src' / 'stayup'}")
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = units["per_layer" if args.trace else "end_to_end"]
    clock = Clock()
    CACHE.mkdir(exist_ok=True)
    work = Workload(args.workload, args.seed)

    # The first fresh start compiles byte code and fills the OS caches; drop it.
    starts = [fresh_import(clock) for _ in range(SETUP_STARTS + 1)][1:]
    setup_s = statistics.median(s for s, _ in starts)
    import_s = statistics.median(i for _, i in starts)

    # At least two runs to one output path, so that every benchmark run
    # compares their MANIFEST.json files; a traced sample is already a pair.
    least = 1 if args.trace else 2
    begin = time.perf_counter()
    samples: list[dict] = []
    while len(samples) < least or time.perf_counter() - begin < args.seconds:
        ref = work.run(clock, trace=False)
        sample = {"run_s": ref["run_s"], "setup_s": setup_s, "peak_rss_mb": ref["peak_rss_mb"]}
        if args.trace:
            traced = work.run(clock, trace=True)
            sample = layer_metrics(traced["spans"], traced["run_s"])
            sample.update({"setup.import_s": import_s, "process.cpu_s": ref["cpu_s"],
                           "trace.overhead_s": traced["run_s"] - ref["run_s"]})
        samples.append(sample)

    metrics = {}
    for m in wanted:
        if m["name"] not in samples[0]:
            raise BenchError(f"BENCHMARK.json names {m['name']}, which this benchmark does not measure")
        metrics[m["name"]] = {"value": statistics.median(s[m["name"]] for s in samples),
                              "unit": m["unit"]}
    return work, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        work, metrics = measure(args)
    except (BenchError, OSError) as exc:
        print(f"[perfbench] error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": work.consistent and work.failed == 0, "attempted": work.attempted,
                      "failed": work.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
