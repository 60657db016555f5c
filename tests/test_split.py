"""pipeline.run_split: jobs split between this process and one forked child."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from stayup import pipeline

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSplitJobs:
    def test_longest_first_to_the_lighter_side(self):
        assert pipeline.split_jobs([5, 5, 1, 1, 1, 1]) == ([0, 2, 4], [1, 3, 5])
        assert pipeline.split_jobs([1, 4, 2]) == ([1], [2, 0])

    def test_three_cohorts_and_four_prediction_tables(self):
        # consensus jobs cost 200 * (1 + 10), predict jobs 5 folds * 20 restarts
        assert pipeline.split_jobs([2200] * 3 + [100] * 4) == ([0, 2], [1, 3, 4, 5, 6])

    def test_fewer_than_two_jobs_stay_here(self):
        assert pipeline.split_jobs([]) == ([], [])
        assert pipeline.split_jobs([3]) == ([0], [])

    def test_costless_jobs_still_split(self):
        assert pipeline.split_jobs([0, 0]) == ([0], [1])


@pytest.fixture
def forked(monkeypatch):
    """The pids that os.fork returns to this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


class TestRunSplit:
    def test_results_come_back_in_job_order(self, forked):
        jobs = [lambda i=i: (i, os.getpid()) for i in range(5)]
        outcomes = pipeline.run_split(jobs, [1, 3, 2, 5, 4])
        assert [error for error, _ in outcomes] == [None] * 5
        assert [value[0] for _, value in outcomes] == list(range(5))
        pids = {value[1] for _, value in outcomes}
        assert pids == {os.getpid(), forked[0]}
        assert_reaped(forked[0])

    def test_one_job_runs_here(self, forked):
        assert pipeline.run_split([os.getpid], [7]) == [(None, os.getpid())]
        assert forked == []

    def test_exceptions_keep_type_and_message(self, forked):
        def here():
            raise KeyError("raised in this process")

        def there():
            raise ValueError("raised in the child")

        (here_error, _), (there_error, _) = pipeline.run_split([here, there], [2, 1])
        assert type(here_error) is KeyError and here_error.args == ("raised in this process",)
        assert type(there_error) is ValueError and str(there_error) == "raised in the child"
        assert "in there" in there_error.__notes__[0]   # the child's traceback
        assert_reaped(forked[0])

    def test_interrupted_here_still_reaps_the_child(self, forked):
        def here():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            pipeline.run_split([here, lambda: 1], [2, 1])
        assert_reaped(forked[0])

    def test_unpicklable_outcome_becomes_an_error(self, forked):
        (_, here), (there_error, _) = pipeline.run_split([lambda: 1, lambda: lambda: 2], [2, 1])
        assert here == 1
        assert isinstance(there_error, RuntimeError)
        assert str(there_error).startswith("cannot send a job's function outcome")

    def test_unloadable_error_becomes_an_error(self, forked):
        # StageError's __init__ takes two arguments, so pickle cannot rebuild it
        def there():
            raise pipeline.StageError("consensus", ValueError("cause"))

        (_, here), (there_error, _) = pipeline.run_split([lambda: 1, there], [2, 1])
        assert here == 1
        assert isinstance(there_error, RuntimeError)
        assert str(there_error).startswith("cannot read a job's outcome")

    def test_child_exit_without_outcomes(self, forked):
        with pytest.raises(RuntimeError, match="exited with status 3"):
            pipeline.run_split([lambda: 1, lambda: os._exit(3)], [2, 1])
        assert_reaped(forked[0])

    def test_child_exit_0_without_outcomes(self, forked):
        with pytest.raises(RuntimeError, match="exited with status 0 before sending"):
            pipeline.run_split([lambda: 1, lambda: os._exit(0)], [2, 1])
        assert_reaped(forked[0])

    def test_child_killed_by_a_signal(self, forked):
        with pytest.raises(RuntimeError, match="killed by signal 9"):
            pipeline.run_split([lambda: 1, lambda: os.kill(os.getpid(), 9)], [2, 1])
        assert_reaped(forked[0])

    def test_child_warnings_reach_this_process_once(self, forked):
        def there():
            warnings.warn("issued in the child")
            return os.getpid()

        with pytest.warns(UserWarning) as record:
            (_, here), (_, there_pid) = pipeline.run_split([os.getpid, there], [2, 1])
        assert there_pid == forked[0] != here
        assert [str(w.message) for w in record] == ["issued in the child"]
        assert record[0].filename == __file__
        assert_reaped(forked[0])

    def test_unpicklable_warning_arrives_as_its_text(self, forked):
        class LocalWarning(UserWarning):   # a class defined in a function does not pickle
            pass

        def there():
            warnings.warn("issued in the child", LocalWarning)

        with pytest.warns(UserWarning) as record:
            pipeline.run_split([lambda: 1, there], [2, 1])
        assert [(w.category, str(w.message)) for w in record] == [
            (UserWarning, "LocalWarning: issued in the child")]
        assert_reaped(forked[0])

    def test_a_warning_from_both_processes_shows_once(self, forked):
        # under the "default" action a warning shows once per line, as in one process
        def job():
            warnings.warn("issued by a job")
            return os.getpid()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            outcomes = pipeline.run_split([job, job], [1, 1])
        assert {pid for _, pid in outcomes} == {os.getpid(), forked[0]}
        assert [str(w.message) for w in caught] == ["issued by a job"]

    def test_buffered_output_prints_once(self):
        # stdout to a pipe is block-buffered: without a flush before the fork,
        # the child's own flush would write "before" a second time
        code = ("from stayup import pipeline; print('before'); "
                "pipeline.run_split([lambda: 1, lambda: print('child', flush=True)], [1, 1]); "
                "print('after')")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        out = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": str(SRC)},
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        assert out == "before\nchild\nafter\n"
