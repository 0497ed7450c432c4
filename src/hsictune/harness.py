"""Trial records, JSONL persistence, and the parallel random-search runner.

A run file is append-only JSON lines: the first line holds the manifest
(space document, its hash, objective name, master seed), every other line
one trial keyed by its index.  Per-trial seeds derive purely from
(master_seed, index), so the same file contents come out whatever the
worker count, and interrupted runs resume by skipping already-present
indices.  Loading and resuming share one reader, so a resume checks every
existing record the way loading does before it evaluates anything; it also
drops an unterminated last line as an interrupted write.
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

from .space import SearchSpace, parse_space, sample_configuration, space_to_dict

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
        finite = self.score is not None and np.isfinite(self.score)
        if (self.status == STATUS_OK) != finite:
            raise TrialFileError("score must be finite exactly when status is ok")
        if self.score is not None:
            self.score = float(self.score)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class RunManifest:
    space: dict
    space_hash: str
    objective: str
    master_seed: int
    n_s: int
    version: str = _TOOL_VERSION
    created_at: str = ""


def space_hash(space: SearchSpace | dict) -> str:
    doc = space if isinstance(space, dict) else space_to_dict(space)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def trial_seed(master_seed: int, index: int) -> int:
    """Pure function of (master_seed, index); independent of scheduling."""
    ss = np.random.SeedSequence((int(master_seed) & 0xFFFFFFFF, int(index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFFFFFFFFFF)


def _trial_record(index: int, trial: Trial) -> str:
    rec = {
        "i": index,
        "config": trial.config,
        "score": trial.score,
        "status": trial.status,
        "seed": trial.seed,
        "wall_time_s": trial.wall_time_s,
        "tags": trial.tags,
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _evaluate_one(args):
    objective, space, index, master_seed = args
    seed = trial_seed(master_seed, index)
    rng = np.random.default_rng(np.random.SeedSequence((master_seed & 0xFFFFFFFF, index, 1)))
    config = sample_configuration(space, rng)
    t0 = time.perf_counter()
    try:
        trial = objective.evaluate(config, seed)
    except Exception as e:  # objective faults must not kill the run
        trial = Trial(config, None, STATUS_FAILED, seed, tags={"error": repr(e)[:200]})
    trial.wall_time_s = time.perf_counter() - t0
    return index, trial


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
    return manifest


def _check_trial_record(path, lineno, rec) -> None:
    """Reject a trial record whose index, score or config has the wrong type."""
    def number(x, kinds):
        return isinstance(x, kinds) and not isinstance(x, bool)

    if not number(rec.get("i"), int):
        raise TrialFileError(f"{path}: line {lineno}: trial index is not an integer")
    if rec.get("score") is not None and not number(rec["score"], (int, float)):
        raise TrialFileError(f"{path}: line {lineno}: score is not a number or null")
    if not isinstance(rec.get("config"), dict):
        raise TrialFileError(f"{path}: line {lineno}: config is not a JSON object")


def _read_run(path, fh, resume=False):
    """Read a run file from the binary stream fh, checking every record.

    Returns (manifest, {index: Trial}, bytes read).  With resume, an
    unterminated line (only the last line can lack its newline) is an
    interrupted write: the read stops before it.
    """
    manifest = None
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
            continue
        if manifest is None:
            raise TrialFileError(f"{path}: missing manifest line")
        _check_trial_record(path, lineno, rec)
        idx = rec["i"]
        if idx in trials:
            raise TrialFileError(f"{path}: duplicate trial index {idx} (mixed runs?)")
        trials[idx] = Trial(
            config=rec["config"],
            score=rec["score"],
            status=rec["status"],
            seed=rec["seed"],
            wall_time_s=rec["wall_time_s"],
            tags=rec.get("tags", {}),
        )
    if manifest is None:
        raise TrialFileError(f"{path}: no complete manifest line")
    return manifest, trials, good_bytes


def _scan_existing(path, manifest_expected):
    """The trials of a partial run of the expected search, by index; drops
    an interrupted last line.  A bad file raises before anything changes."""
    with open(path, "r+b") as fh:
        manifest, trials, good_bytes = _read_run(path, fh, resume=True)
        if manifest.space_hash != manifest_expected.space_hash:
            raise TrialFileError(f"{path}: space hash mismatch")
        if manifest.master_seed != manifest_expected.master_seed:
            raise TrialFileError(f"{path}: master seed mismatch")
        fh.truncate(good_bytes)
    return trials


def jobs_from_env(jobs: int) -> int:
    """Worker count: HSIC_TUNE_JOBS when it is set, else jobs."""
    raw = os.environ.get("HSIC_TUNE_JOBS")
    if raw is None:
        return int(jobs)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HSIC_TUNE_JOBS must be an integer, got {raw!r}") from None


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
    skipped, so an interrupted run picks up where it left off.
    """
    jobs = jobs_from_env(jobs)
    space_doc = space_to_dict(space)
    # trials sample from the space as the manifest records it
    parsed = parse_space(json.dumps(space_doc))
    manifest = RunManifest(
        space=space_doc,
        space_hash=space_hash(space_doc),
        objective=getattr(objective, "name", objective.__class__.__name__),
        master_seed=int(master_seed),
        n_s=int(n_s),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )
    done = {}
    results = {}
    with contextlib.ExitStack() as stack:
        fh = None
        if out_path is not None:
            if os.path.exists(out_path) and os.path.getsize(out_path) > 0:
                done = _scan_existing(out_path, manifest)
                fh = stack.enter_context(open(out_path, "a", encoding="utf-8"))
            else:
                fh = stack.enter_context(open(out_path, "w", encoding="utf-8"))
                fh.write(json.dumps({"manifest": asdict(manifest)}, sort_keys=True) + "\n")
                fh.flush()
        todo = [i for i in range(n_s) if i not in done]
        work = ((objective, parsed, i, master_seed) for i in todo)
        if jobs <= 1 or len(todo) <= 1:
            finished = map(_evaluate_one, work)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = [pool.submit(_evaluate_one, args) for args in work]
            finished = (fut.result() for fut in as_completed(futures))
        for idx, trial in finished:
            results[idx] = trial
            if fh:
                fh.write(_trial_record(idx, trial) + "\n")
                fh.flush()
    if out_path is not None:
        return load_trials(out_path)[1]
    return [results[i] for i in sorted(results)]


def load_trials(path):
    """Read (manifest, trials sorted by index); validate hash and integrity."""
    if not os.path.exists(path):
        raise TrialFileError(f"{path}: no such file")
    with open(path, "rb") as fh:
        manifest, trials, _ = _read_run(path, fh)
    return manifest, [trials[i] for i in sorted(trials)]
