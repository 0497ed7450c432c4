"""Trial records, JSONL persistence, and the parallel random-search runner.

A run file is append-only JSON lines: the first line holds the manifest
(space document, its hash, objective name, master seed), every other line
one trial keyed by its index.  Per-trial seeds derive purely from
(master_seed, index), so the same file contents come out whatever the
worker count, and interrupted runs resume by skipping already-present
indices.  _RECORD owns a trial record's layout: _trial_record writes it and
_trial_from_record reads it back.  Loading and resuming share one reader,
so a resume checks every existing record the way loading does before it
evaluates anything; a record with a missing or mistyped field, an unknown
status, a negative index, or a config outside the manifest's space raises
naming its file and line (the command line exits 2).  Loading hands back
the manifest's space as parsed for that check, so a caller need not parse
it again.  A resume also drops an unterminated last line as an interrupted
write.

_evaluate_trial evaluates every trial, here and in the GP optimizer: it
times the call and turns an objective fault into a failed trial.
_best_trial picks the best ok trial for both optimizers.  A resume leaves
line one alone, so load_trials reports n_s as at least the highest index + 1.

A parallel search starts min(jobs, trials to run) workers.  Each pins
every loaded OpenBLAS to its share of the cores (cores // workers, at
least 1), so the workers do not each start a pool of threads as large as
the machine.  The pin goes through the blas module's ctypes calls on the
libraries the process has mapped; without an OpenBLAS it does nothing, and
the parent's own thread count is left alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, asdict

import numpy as np

from .blas import _blas_threads, _cores, _openblas_function, _openblas_libraries  # noqa: F401
from .space import (SearchSpace, SpaceError, _seed_sequence, sample_configuration,
                    space_from_dict, space_to_dict)

__all__ = [
    "Trial",
    "RunManifest",
    "TrialFileError",
    "jobs_from_env",
    "trial_seed",
    "run_random_search",
    "load_trials",
    "space_hash",
]

STATUS_OK = "ok"
STATUS_DIVERGED = "diverged"
STATUS_FAILED = "failed"

_TOOL_VERSION = "0.1.0"


class TrialFileError(ValueError):
    pass


@dataclass
class Trial:
    """One evaluated configuration. score is finite iff status == "ok"."""

    config: dict
    score: float | None
    status: str
    seed: int
    wall_time_s: float = 0.0
    tags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in (STATUS_OK, STATUS_DIVERGED, STATUS_FAILED):
            raise TrialFileError(f"unknown status {self.status!r}")
        try:
            score = None if self.score is None else float(self.score)
        except OverflowError:   # an int past the float range
            raise TrialFileError("score is beyond the float range") from None
        if (self.status == STATUS_OK) != (score is not None and np.isfinite(score)):
            raise TrialFileError("score must be finite exactly when status is ok")
        self.score = score

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def _best_trial(trials):
    """The lowest-score ok trial, the earliest on ties; None when none is ok."""
    return min((t for t in trials if t.ok), key=lambda t: t.score, default=None)


@dataclass
class RunManifest:
    space: dict
    space_hash: str
    objective: str
    master_seed: int
    n_s: int
    version: str = _TOOL_VERSION
    created_at: str = ""


def space_hash(doc: dict) -> str:
    """sha256 of a space document's canonical JSON."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def trial_seed(master_seed: int, index: int) -> int:
    """Pure function of (master_seed, index); independent of scheduling."""
    ss = _seed_sequence(master_seed, index)
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


# A trial record: "i" and the fields of Trial, each with the exact JSON
# types it may decode to and the message for any other value ({!r} is the
# value); a record may lack "tags".
_RECORD = {
    "i": ((int,), "trial index is not an integer"),
    "config": ((dict,), "config is not a JSON object"),
    "score": ((int, float, type(None)), "score is not a number or null"),
    "status": ((str,), "unknown status {!r}"),
    "seed": ((int,), "seed is not an integer"),
    "wall_time_s": ((int, float), "wall_time_s is not a number"),
    "tags": ((dict,), "tags is not a JSON object"),
}
_ABSENT = object()


def _trial_record(index: int, trial: Trial) -> str:
    rec = {key: index if key == "i" else getattr(trial, key) for key in _RECORD}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _trial_from_record(path, lineno, rec, space) -> Trial:
    """The Trial of a decoded trial record; checks every field, the config
    against space, and a bad one raises TrialFileError naming the file and
    line."""
    fields = {}
    for key, (types, message) in _RECORD.items():
        value = rec.get(key, _ABSENT)
        if type(value) not in types:     # exact: a JSON true is not an integer
            if value is not _ABSENT:
                raise TrialFileError(f"{path}: line {lineno}: " + message.format(value))
            if key != "tags":
                raise TrialFileError(f"{path}: line {lineno}: trial record has no {key!r} field")
            continue
        fields[key] = value
    index = fields.pop("i")
    if index < 0:
        raise TrialFileError(f"{path}: line {lineno}: trial index {index} is negative")
    try:    # an unknown status, a score that breaks its rule, a config outside space
        trial = Trial(**fields)
        space.validate_config(trial.config)
    except (TrialFileError, SpaceError) as e:
        raise TrialFileError(f"{path}: line {lineno}: {e}") from None
    return trial


def _evaluate_trial(objective, config: dict, seed: int) -> Trial:
    """objective.evaluate(config, seed), timed; a fault becomes a failed trial."""
    t0 = time.perf_counter()
    try:
        trial = objective.evaluate(config, seed)
    except Exception as e:  # objective faults must not kill the run
        trial = Trial(dict(config), None, STATUS_FAILED, seed, tags={"error": repr(e)[:200]})
    trial.wall_time_s = time.perf_counter() - t0
    return trial


def _evaluate_one(args):
    objective, space, index, master_seed = args
    rng = np.random.default_rng(_seed_sequence(master_seed, index, 1))
    config = sample_configuration(space, rng)
    return index, _evaluate_trial(objective, config, trial_seed(master_seed, index))


def _parse_manifest(path, rec) -> RunManifest:
    """The manifest of a run file's first record."""
    if "manifest" not in rec:
        raise TrialFileError(f"{path}: first line is not a manifest")
    m = rec["manifest"]
    if not isinstance(m, dict):
        raise TrialFileError(f"{path}: manifest is not a JSON object")
    try:
        manifest = RunManifest(**m)
    except TypeError:   # missing or unknown fields
        raise TrialFileError(f"{path}: manifest fields do not match a run manifest") from None
    if not isinstance(manifest.space, dict):
        raise TrialFileError(f"{path}: manifest space is not a JSON object")
    if not isinstance(manifest.n_s, int) or isinstance(manifest.n_s, bool):
        raise TrialFileError(f"{path}: manifest n_s is not an integer")
    return manifest


def _read_run(path, fh, resume=False):
    """Read a run file from the binary stream fh, checking every record.

    Returns (manifest, space, {index: Trial}, bytes read), where space is
    the manifest's space, parsed once, that every config was checked
    against.  With resume, an unterminated line (only the last line can
    lack its newline) is an interrupted write: the read stops before it.
    """
    manifest = space = None
    trials = {}
    good_bytes = 0
    for lineno, line in enumerate(fh, start=1):
        if resume and not line.endswith(b"\n"):
            break
        good_bytes += len(line)
        stripped = line.strip()
        if not stripped:
            continue
        try:
            rec = json.loads(stripped.decode())
        except ValueError:    # bad UTF-8 or bad JSON
            raise TrialFileError(f"{path}: corrupt record at line {lineno}") from None
        if not isinstance(rec, dict):
            raise TrialFileError(f"{path}: line {lineno} is not a JSON object")
        if lineno == 1:
            manifest = _parse_manifest(path, rec)
            if space_hash(manifest.space) != manifest.space_hash:
                raise TrialFileError(f"{path}: space hash mismatch")
            space = space_from_dict(manifest.space)
            continue
        if manifest is None:
            raise TrialFileError(f"{path}: missing manifest line")
        trial = _trial_from_record(path, lineno, rec, space)
        idx = rec["i"]
        if idx in trials:
            raise TrialFileError(f"{path}: duplicate trial index {idx} (mixed runs?)")
        trials[idx] = trial
    if manifest is None:
        raise TrialFileError(f"{path}: no complete manifest line")
    return manifest, space, trials, good_bytes


def _scan_existing(path, manifest_expected):
    """The trials of a partial run of the expected search, by index; drops
    an interrupted last line.  A bad file raises before anything changes."""
    with open(path, "r+b") as fh:
        manifest, _, trials, good_bytes = _read_run(path, fh, resume=True)
        for field in ("space_hash", "master_seed", "objective"):
            if getattr(manifest, field) != getattr(manifest_expected, field):
                raise TrialFileError(f"{path}: {field.replace('_', ' ')} mismatch")
        fh.truncate(good_bytes)
    return trials


def _pin_blas_threads(n: int) -> None:
    """Set every loaded OpenBLAS to n threads (a search worker's initializer).

    An OpenBLAS that the worker loads later, as an objective that imports
    scipy does, reads OPENBLAS_NUM_THREADS when it loads, so that is set too.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(n)
    for path in _openblas_libraries():
        set_threads = _openblas_function(path, "set")
        if set_threads is not None:
            set_threads(n)


def jobs_from_env(jobs: int) -> int:
    """Worker count: HSIC_TUNE_JOBS when it is set, else jobs (at least 1)."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    raw = os.environ.get("HSIC_TUNE_JOBS")
    if raw is None:
        return int(jobs)
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ValueError(f"HSIC_TUNE_JOBS must be a positive integer, got {raw!r}")


def run_random_search(
    space: SearchSpace,
    objective,
    n_s: int,
    jobs: int = 1,
    master_seed: int = 0,
    out_path: str | None = None,
):
    """Evaluate n_s uniformly sampled configurations, optionally in parallel.

    Returns the trial list sorted by index.  When out_path is given, results
    append to a JSONL file with a manifest header and existing indices are
    skipped, so an interrupted run picks up where it left off; the list then
    holds every trial of the file.
    """
    if n_s < 0:
        raise ValueError(f"n_s must not be negative, got {n_s}")
    jobs = jobs_from_env(jobs)
    space_doc = space_to_dict(space)
    # trials sample from the space as the manifest records it
    parsed = space_from_dict(space_doc)
    manifest = RunManifest(
        space=space_doc,
        space_hash=space_hash(space_doc),
        objective=getattr(objective, "name", objective.__class__.__name__),
        master_seed=int(master_seed),
        n_s=int(n_s),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )
    trials = {}
    with contextlib.ExitStack() as stack:
        fh = None
        if out_path is not None:
            if os.path.exists(out_path) and os.path.getsize(out_path) > 0:
                trials = _scan_existing(out_path, manifest)
                fh = stack.enter_context(open(out_path, "a", encoding="utf-8"))
            else:
                fh = stack.enter_context(open(out_path, "w", encoding="utf-8"))
                fh.write(json.dumps({"manifest": asdict(manifest)}, sort_keys=True) + "\n")
                fh.flush()
        todo = [i for i in range(n_s) if i not in trials]
        work = ((objective, parsed, i, master_seed) for i in todo)
        # the pool starts every worker at its first submit, needed or not
        workers = min(jobs, len(todo))
        if workers <= 1:
            finished = map(_evaluate_one, work)
        else:
            # the default start method (fork on Linux): a spawned worker
            # would import the package and its numpy afresh
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_pin_blas_threads,
                initargs=(max(1, _cores() // workers),)))
            futures = [pool.submit(_evaluate_one, args) for args in work]
            finished = (fut.result() for fut in as_completed(futures))
        for idx, trial in finished:
            trials[idx] = trial
            if fh:
                fh.write(_trial_record(idx, trial) + "\n")
                fh.flush()
    return [trials[i] for i in sorted(trials)]


def load_trials(path):
    """Read (manifest, space, trials sorted by index), checking every record:
    space is the manifest's space, parsed once, that every config passed."""
    if not os.path.exists(path):
        raise TrialFileError(f"{path}: no such file")
    with open(path, "rb") as fh:
        manifest, space, trials, _ = _read_run(path, fh)
    manifest.n_s = max([manifest.n_s, *(i + 1 for i in trials)])
    return manifest, space, [trials[i] for i in sorted(trials)]
