import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future

import numpy as np
import pytest

from hsictune import blas, harness
from hsictune.harness import (
    Trial,
    TrialFileError,
    load_trials,
    run_random_search,
    space_hash,
    trial_seed,
)
from hsictune.objectives import Example2Objective
from hsictune.space import SearchSpace, continuous_param, space_from_dict, space_to_dict


def _strip_times(records):
    return [
        {k: v for k, v in r.items() if k != "wall_time_s"} for r in records
    ]


def _read_records(path):
    with open(path) as fh:
        lines = [json.loads(l) for l in fh if l.strip()]
    return lines[0], sorted(lines[1:], key=lambda r: r["i"])


def test_trial_score_status_invariant():
    with pytest.raises(TrialFileError):
        Trial({"x": 0.0}, None, "ok", 0)
    with pytest.raises(TrialFileError):
        Trial({"x": 0.0}, 1.0, "diverged", 0)
    with pytest.raises(TrialFileError):
        Trial({"x": 0.0}, float("nan"), "ok", 0)


def test_trial_seed_is_pure_function_of_inputs():
    seeds = [trial_seed(42, i) for i in range(20)]
    assert seeds == [trial_seed(42, i) for i in range(20)]
    assert len(set(seeds)) == 20
    assert trial_seed(42, 3) != trial_seed(43, 3)


def test_jobs_do_not_change_records(tmp_path):
    obj = Example2Objective()
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    run_random_search(obj.space, obj, 40, jobs=1, master_seed=5, out_path=p1)
    run_random_search(obj.space, obj, 40, jobs=2, master_seed=5, out_path=p2)
    m1, r1 = _read_records(p1)
    m2, r2 = _read_records(p2)
    assert m1["manifest"]["space_hash"] == m2["manifest"]["space_hash"]
    assert _strip_times(r1) == _strip_times(r2)


class _BlasThreadsObjective:
    """Tags each trial with the thread counts its process's OpenBLAS reports."""

    name = "blas_threads"

    def __init__(self):
        self.space = SearchSpace((continuous_param("x", 0.0, 1.0),))
        self.libraries = blas._openblas_libraries()

    def evaluate(self, config, seed):
        counts = [blas._openblas_function(path, "get")() for path in self.libraries]
        return Trial(dict(config), config["x"], "ok", seed, tags={"blas_threads": counts})


def _without_tags(records):
    return [{k: v for k, v in r.items() if k not in ("wall_time_s", "tags")}
            for r in records]


def test_search_workers_pin_blas_to_their_share(tmp_path, monkeypatch):
    parent = blas._blas_threads()
    if not parent:
        pytest.skip("no OpenBLAS loaded")
    obj = _BlasThreadsObjective()
    pinned, unpinned = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    run_random_search(obj.space, obj, 12, jobs=2, master_seed=4, out_path=pinned)
    assert blas._blas_threads() == parent
    share = max(1, len(os.sched_getaffinity(0)) // 2)
    _, records = _read_records(pinned)
    assert [r["tags"]["blas_threads"] for r in records] == [[share] * len(parent)] * 12

    # without a library to pin, workers keep the parent's count and the
    # search gives the same records
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: [])
    run_random_search(obj.space, obj, 12, jobs=2, master_seed=4, out_path=unpinned)
    monkeypatch.undo()
    _, bare = _read_records(unpinned)
    assert _without_tags(bare) == _without_tags(records)
    assert all(r["tags"]["blas_threads"] == parent for r in bare)


_LATE_BLAS_PROBE = textwrap.dedent("""
    import json, sys
    from hsictune import blas
    from hsictune.harness import Trial, run_random_search
    from hsictune.space import SearchSpace, continuous_param

    class Probe:
        name = "blas_probe"
        space = SearchSpace((continuous_param("x", 0.0, 1.0),))

        def evaluate(self, config, seed):
            import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS after the initializer)
            return Trial(dict(config), 0.0, "ok", seed, tags={"threads": blas._blas_threads()})

    scipy_before = "scipy" in sys.modules
    trials = run_random_search(Probe.space, Probe(), 2, jobs=2)
    print(json.dumps({"scipy_before": scipy_before, "share": max(1, blas._cores() // 2),
                      "threads": [t.tags["threads"] for t in trials]}))
""")


def test_search_workers_pin_an_openblas_a_trial_loads():
    # a fresh process, so that scipy's OpenBLAS is first mapped inside the
    # worker, after its initializer pinned the libraries already loaded
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LATE_BLAS_PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    got = json.loads(done.stdout.splitlines()[-1])
    assert not got["scipy_before"]
    if not all(got["threads"]):
        pytest.skip("no OpenBLAS loaded")
    assert [set(counts) for counts in got["threads"]] == [{got["share"]}] * 2, got


class _RecordingPool:
    """A stand-in for the process pool: records how it was built and runs
    each submitted call inline, so no process starts."""

    def __init__(self, built, max_workers, initializer, initargs):
        built.append((max_workers, initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs, n, workers, share", [
    (8, 3, 3, 2),      # fewer trials than jobs: one worker per trial
    (2, 40, 2, 4),
    (8, 1, None, None),   # a single trial runs in this process
], ids=["few-trials", "many-trials", "one-trial"])
def test_search_starts_no_more_workers_than_trials(tmp_path, monkeypatch, jobs, n, workers,
                                                   share):
    built = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda **kw: _RecordingPool(built, **kw))
    monkeypatch.setattr(harness, "_cores", lambda: 8)
    obj = Example2Objective()
    got = run_random_search(obj.space, obj, n, jobs=jobs, master_seed=5,
                            out_path=str(tmp_path / "a.jsonl"))
    want = [] if workers is None else [(workers, blas._pin_blas_threads, (share,))]
    assert built == want
    serial = run_random_search(obj.space, obj, n, jobs=1, master_seed=5)
    assert [(t.config, t.score) for t in got] == [(t.config, t.score) for t in serial]


def test_resume_evaluates_only_missing_indices(tmp_path):
    obj = Example2Objective()
    path = str(tmp_path / "t.jsonl")
    run_random_search(obj.space, obj, 40, master_seed=1, out_path=path)
    with open(path) as fh:
        before = fh.read()
    run_random_search(obj.space, obj, 100, master_seed=1, out_path=path)
    with open(path) as fh:
        after = fh.read()
    assert after.startswith(before)     # append-only
    _, recs = _read_records(path)
    assert [r["i"] for r in recs] == list(range(100))
    # full run from scratch matches the resumed one record-for-record
    fresh = str(tmp_path / "fresh.jsonl")
    run_random_search(obj.space, obj, 100, master_seed=1, out_path=fresh)
    _, recs_fresh = _read_records(fresh)
    assert _strip_times(recs) == _strip_times(recs_fresh)


def test_truncated_trailing_line_recovered_on_resume(tmp_path):
    obj = Example2Objective()
    path = str(tmp_path / "t.jsonl")
    run_random_search(obj.space, obj, 10, master_seed=2, out_path=path)
    with open(path, "a") as fh:
        fh.write('{"i": 10, "config":')      # interrupted mid-write
    run_random_search(obj.space, obj, 12, master_seed=2, out_path=path)
    _, recs = _read_records(path)
    assert [r["i"] for r in recs] == list(range(12))


class _FaultyObjective:
    name = "faulty"

    def __init__(self):
        self.space = SearchSpace((continuous_param("x", 0.0, 1.0),))

    def evaluate(self, config, seed):
        if config["x"] > 0.7:
            raise RuntimeError("synthetic fault")
        return Trial(dict(config), config["x"], "ok", seed)


def test_objective_fault_recorded_not_fatal(tmp_path):
    obj = _FaultyObjective()
    path = str(tmp_path / "t.jsonl")
    trials = run_random_search(obj.space, obj, 50, master_seed=3, out_path=path)
    assert len(trials) == 50
    failed = [t for t in trials if t.status == "failed"]
    assert failed
    assert all("synthetic fault" in t.tags.get("error", "") for t in failed)


def test_load_round_trip(tmp_path):
    obj = Example2Objective()
    path = str(tmp_path / "t.jsonl")
    written = run_random_search(obj.space, obj, 25, master_seed=4, out_path=path)
    manifest, space, loaded = load_trials(path)
    assert manifest.n_s == 25
    assert manifest.space_hash == space_hash(space_to_dict(obj.space))
    # the space the reader checked every config against comes back parsed
    assert space == space_from_dict(manifest.space) == obj.space
    for t in loaded:
        space.validate_config(t.config)
    assert len(loaded) == 25
    for a, b in zip(written, loaded):
        assert a.config == b.config and a.score == b.score and a.seed == b.seed


def test_trial_record_holds_the_index_and_every_trial_field():
    # one table writes and reads a record: a new Trial field cannot go
    # unwritten or unread
    fields = {f.name for f in dataclasses.fields(Trial)}
    assert set(harness._RECORD) == {"i"} | fields


def test_load_corrupt_line_names_lineno(tmp_path):
    obj = Example2Objective()
    path = str(tmp_path / "t.jsonl")
    run_random_search(obj.space, obj, 12, master_seed=0, out_path=path)
    with open(path, "a") as fh:
        fh.write("{broken\n")
    with pytest.raises(TrialFileError, match="line 14"):
        load_trials(path)


def test_load_detects_hash_mismatch(tmp_path):
    obj = Example2Objective()
    path = str(tmp_path / "t.jsonl")
    run_random_search(obj.space, obj, 12, master_seed=0, out_path=path)
    with open(path) as fh:
        lines = fh.readlines()
    rec = json.loads(lines[0])
    rec["manifest"]["space"]["params"][0]["hi"] = 4.0
    lines[0] = json.dumps(rec) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    with pytest.raises(TrialFileError, match="hash"):
        load_trials(path)


def test_env_var_overrides_jobs(tmp_path, monkeypatch):
    obj = Example2Objective()
    path = str(tmp_path / "t.jsonl")
    monkeypatch.setenv("HSIC_TUNE_JOBS", "1")
    trials = run_random_search(obj.space, obj, 8, jobs=4, master_seed=9,
                               out_path=path)
    assert len(trials) == 8


@pytest.mark.parametrize("n_s, jobs, match", [(5, 0, "jobs"), (5, -4, "jobs"),
                                               (-3, 1, "n_s")])
def test_search_rejects_counts_below_their_floor(tmp_path, monkeypatch, n_s, jobs, match):
    # a negative worker count does not fall back to a serial run, and a
    # negative trial count writes no run file
    monkeypatch.delenv("HSIC_TUNE_JOBS", raising=False)
    obj = Example2Objective()
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match=match):
        run_random_search(obj.space, obj, n_s, jobs=jobs, out_path=str(path))
    assert not path.exists()


def test_returned_trials_are_the_file_trials(tmp_path):
    obj = _FaultyObjective()
    path = str(tmp_path / "t.jsonl")
    fresh = run_random_search(obj.space, obj, 30, master_seed=6, out_path=path)
    assert fresh == load_trials(path)[2]
    resumed = run_random_search(obj.space, obj, 50, master_seed=6, out_path=path)
    assert resumed == load_trials(path)[2]
    assert resumed[:30] == fresh
    assert any(not t.ok for t in resumed[:30]) and any(not t.ok for t in resumed[30:])


def test_best_trial_is_the_earliest_lowest_ok_trial():
    trials = [Trial({"x": 0.0}, 2.0, "ok", 0), Trial({"x": 0.1}, None, "failed", 1),
              Trial({"x": 0.2}, 1.0, "ok", 2), Trial({"x": 0.3}, 1.0, "ok", 3),
              Trial({"x": 0.4}, None, "diverged", 4)]
    assert harness._best_trial(trials) is trials[2]
    assert harness._best_trial(reversed(trials)) is trials[3]
    assert harness._best_trial([trials[1], trials[4]]) is None
    assert harness._best_trial([]) is None
