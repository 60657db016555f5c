"""One fresh-process run of ``stayup run``, timed from inside the process.

    PYTHONPATH=src python3 perfbench/child.py RESULT.json [--trace] -- run --data ... --out ...

Imports ``stayup.cli`` and times ``cli.main(argv)`` from its entry to its
return, which is what ``python -m stayup.cli run ...`` executes. Writes the
exit code, wall and CPU time of the call and the peak resident memory of
the process to RESULT.json.

With ``--trace`` the run is traced: before ``main`` is entered, each public
function of the layers is replaced by a timing wrapper under every name a
caller looks it up by (``consensus`` and ``evaluate`` import ``hill_climb``,
``learn_ensemble`` and others by name; ``bayesnet`` imports
``family_counts`` from ``_kernels``). Spans (name, start, end, parent, info)
are kept in memory and written to RESULT.json when the run ends. No code of
the program is changed.
"""

import json
import resource
import sys
import time


def parse_report(store):
    rep = store.report
    return {"rows": sum(rep.loaded.values()) + sum(rep.skipped.values()),
            "reasons": rep.reasons}


def fit_iterations(result):
    return {"iterations": result[2].iterations_used}


def best_restart_share(ensemble):
    scores = [score for _, score in ensemble.members]
    best = max(scores)
    return {"best": sum(1 for s in scores if s >= best - 1e-9), "restarts": len(scores)}


# (module, function, summary of the return value kept on the span)
TRACED = [
    ("ingest", "parse_logs", parse_report),
    ("ingest", "extract_bedtimes", None),
    ("ingest", "aggregate_sleep_counts", None),
    ("ingest", "infer_study_days", None),
    ("ingest", "compute_raw_features", None),
    ("ingest", "write_sleep_counts_csv", None),
    ("ingest", "write_features_csv", None),
    ("sleepmix", "fit", fit_iterations),
    ("_kernels", "poisson_scores", None),
    ("profiles", "build_profiles", None),
    ("consensus", "consensus_pipeline", None),
    ("consensus", "learn_ensemble", best_restart_share),
    ("consensus", "null_threshold", None),
    ("bayesnet", "hill_climb", None),
    ("bayesnet", "random_start", None),
    ("_kernels", "family_counts", None),
    ("evaluate", "predict_sleep_experiment", None),
]


class Tracer:
    """In-memory span recorder; each span is [name, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, summary):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if summary is not None:
                spans[idx][4] = summary(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every name, in every stayup module, that refers to a traced function."""
        import importlib

        modules = [m for name, m in list(sys.modules.items())
                   if name == "stayup" or name.startswith("stayup.")]
        for mod_name, fn_name, summary in TRACED:
            original = getattr(importlib.import_module(f"stayup.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, summary)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv):
    result_path, rest = argv[0], argv[1:]
    trace = rest[0] == "--trace"
    run_argv = rest[rest.index("--") + 1:]

    import stayup.cli as cli

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = cli.main(run_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    t1 = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    out = {"rc": rc, "run_s": t1 - t0, "cpu_s": cpu,
           "peak_rss_mb": usage1.ru_maxrss / 1024.0}
    if tracer:
        out["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
