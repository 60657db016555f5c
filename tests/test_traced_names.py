"""The benchmark's traced run wraps functions of the program by name
(perfbench/child.py's TRACED); each of those names must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from stayup import bayesnet as bn
from stayup import consensus, synth

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, function) for module, function, _ in child.TRACED]


@pytest.mark.parametrize("module, function", traced_names())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"stayup.{module}"), function))


def test_best_restart_share_reads_an_ensemble():
    """The traced run summarises learn_ensemble's result with child.py's
    best_restart_share: restarts within 1e-9 of the best score, of all."""
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    table, _ = synth.generate_profiles(synth.default_ground_truth(),
                                       synth.GeneratorConfig(200, 1, seed=3))
    ensemble = consensus.learn_ensemble(table, bn.default_layer_constraints(), bn.BdeuConfig(),
                                        n_restarts=12, seed=4)
    best = int((ensemble.scores >= ensemble.scores.max() - 1e-9).sum())
    assert 0 < best < 12   # some restarts miss the best score
    assert child.best_restart_share(ensemble) == {"best": best, "restarts": 12}
