"""The study sessions the benchmark times, and the checks on their outputs.

A workload is one session of a single user: a random search written to a
trial file, then the commands that user runs on that file, one after the
other.  Every input derives from the workload seed, so the same seed gives
the same trial configurations and the same analysis outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

# The interval-reduction knob of the indicator workloads and the speed knob
# of the trainer workload.
REDUCE_PARAM = "x1"
SPEED = "n_units=minimize"
IMPACT_K_SE = 2.0
# Trainer knobs the paper expects to matter (acceptance criterion 10).
TRAINER_KNOBS = ("activation", "learning_rate", "loss", "optimizer")


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str
    n: int
    jobs: int
    commands: tuple
    tiny_n: int
    budgets: tuple = (8, 12, 12)          # optimize: --init, --budget-step1, --budget-step2
    tiny_budgets: tuple = (2, 2, 2)

    def size(self, tiny: bool):
        """(n, budgets) of the full or the tiny session."""
        return (self.tiny_n, self.tiny_budgets) if tiny else (self.n, self.budgets)


WORKLOADS = {
    w.name: w
    for w in (
        # Pooled count n+m stays <= 2000: the O(n^2) dense estimator and its
        # bootstrap do nearly all the work.
        Workload("indicator-dense", "example2", n=1500, jobs=1,
                 commands=("search", "analyze"), tiny_n=600),
        # Binned FFT estimator with its 2-D pair bootstrap, per-cell
        # normalization streams (reduce normalizes twice), per-row
        # interval-reduction streams, and the per-trial harness overhead
        # over many trivial trials.  No GP.  n is 10000: the pair bootstrap
        # does not shrink with n, so 20000 trials would stretch the session
        # from ~45 s to ~56 s while adding only n-proportional stages.
        Workload("indicator-binned", "example2", n=10000, jobs=1,
                 commands=("search", "analyze", "reduce"), tiny_n=600),
        # A real trainer objective on a 2-worker pool (BLAS threads are left
        # as the environment sets them), then GP optimization with an integer
        # speed knob and a conditional parameter.  The HSIC inputs are small.
        Workload("trainer", "runge_mlp", n=300, jobs=2,
                 commands=("search", "analyze", "optimize"), tiny_n=60),
    )
}


class Paths:
    """Files one session writes inside its work directory."""

    def __init__(self, work_dir: str):
        self.trials = os.path.join(work_dir, "trials.jsonl")
        self.report = os.path.join(work_dir, "rep")
        self.optimum = os.path.join(work_dir, "optimize.json")
        self.summary = os.path.join(self.report, "summary.json")
        self.ranking = os.path.join(self.report, "ranking_main.csv")
        self.curve = os.path.join(self.report, f"reduction_{REDUCE_PARAM}.csv")


def argv(w: Workload, command: str, seed: int, work_dir: str, tiny: bool) -> list:
    """hsic-tune arguments of one command of the session."""
    p = Paths(work_dir)
    n, (n_init, step1, step2) = w.size(tiny)
    seed_args = ["--seed", str(seed)]
    if command == "search":
        return ["search", "--objective", w.objective, "--n", str(n),
                "--jobs", str(w.jobs), *seed_args, "--out", p.trials]
    if command == "analyze":
        return ["analyze", p.trials, *seed_args, "--out", p.report]
    if command == "reduce":
        return ["reduce", p.trials, "--param", REDUCE_PARAM, *seed_args, "--out", p.report]
    if command == "optimize":
        return ["optimize", p.trials, "--objective", w.objective, "--speed", SPEED,
                "--init", str(n_init), "--budget-step1", str(step1),
                "--budget-step2", str(step2), *seed_args, "--out", p.optimum]
    raise ValueError(f"unknown command {command!r}")


def _sha256(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _trial_records(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0]["manifest"], sorted(lines[1:], key=lambda r: r["i"])


def trial_wall_times(work_dir: str) -> list:
    """Each trial's own wall time, as the search recorded it."""
    return [r["wall_time_s"] for r in _trial_records(Paths(work_dir).trials)[1]]


def fingerprints(work_dir: str) -> dict:
    """sha256 of the session's outputs, for byte-for-byte comparison of runs.

    The raw trial file holds a creation time and per-trial wall times, and
    a pool writes its records in completion order, so it also gets a digest
    of its deterministic content: the manifest without its time, and every
    record without its wall time, in index order.
    """
    p = Paths(work_dir)
    out = {"summary_sha256": _sha256(p.summary), "trials_sha256": _sha256(p.trials),
           "trials_content_sha256": None}
    try:
        manifest, records = _trial_records(p.trials)
    except (OSError, ValueError, IndexError, KeyError):
        return out          # no complete trial file: the checks report it
    manifest = {k: v for k, v in manifest.items() if k != "created_at"}
    records = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in records]
    blob = json.dumps([manifest, records], sort_keys=True).encode()
    out["trials_content_sha256"] = hashlib.sha256(blob).hexdigest()
    return out


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_session(w: Workload, work_dir: str, commands: list, tiny: bool) -> list:
    """(check name, passed) for one finished session.

    Every command must exit 0; then each command's outputs are checked.  A
    check whose input file is missing or malformed fails.
    """
    p = Paths(work_dir)
    n, (n_init, step1, step2) = w.size(tiny)
    results = [(f"{c['command']} exits 0", c["rc"] == 0) for c in commands]

    def check(name, fn):
        try:
            results.append((name, bool(fn())))
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            results.append((name, False))

    def search_complete():
        _, records = _trial_records(p.trials)
        return [r["i"] for r in records] == list(range(n))

    def impactful_matches_ranking():
        # "impactful" means clearing the group's noise floor by IMPACT_K_SE
        # combined standard errors.
        for g in _json(p.summary)["groups"]:
            floor = g["floor"]
            cleared = [r["param"] for r in g["ranking"]
                       if r["hsic"] > floor["value"] + IMPACT_K_SE * (r["se"] + floor["se"])]
            if cleared != g["impactful"]:
                return False
        return True

    check("search writes every trial once", search_complete)
    check("analyze: impactful lists match rankings and noise floors", impactful_matches_ranking)
    if w.objective == "example2":
        check("analyze: impactful is exactly x1",
              lambda: _json(p.summary)["impactful"] == ["x1"])
        check("analyze: interacting pairs are exactly (x2, x3)",
              lambda: _json(p.summary)["interacting_pairs"] == [["x2", "x3"]])

    def curve_starts_at_analyze_score():
        # At offset 0 the domain is unrestricted, so the curve's first score
        # is the analyze ranking's score of the same parameter.
        first = _csv(p.curve)[0]
        ranked = {r["param"]: r for r in _csv(p.ranking)}[REDUCE_PARAM]
        return (first["c"], first["hsic"], first["n_retained"]) == ("0", ranked["hsic"],
                                                                    ranked["n"])

    def evaluation_count():
        # A step with no free dimension is skipped; a step that runs spends
        # exactly its initial design plus its iterations.
        o = _json(p.optimum)
        h1, h2 = len(o["history_step1"]), len(o["history_step2"])
        return (h1 == (n_init + step1 if o["step1_dims"] else 0)
                and h2 == (n_init + step2 if o["step2_dims"] else 0)
                and o["n_evaluations"] == n + h1 + h2)

    def step1_keeps_pins():
        o = _json(p.optimum)
        return all(t["config"][k] == v for t in o["history_step1"]
                   for k, v in o["fixed"].items() if k in t["config"])

    if "reduce" in w.commands:
        check(f"reduce: curve of {REDUCE_PARAM} starts at its analyze score",
              curve_starts_at_analyze_score)
    if "optimize" in w.commands:
        check("optimize: n_evaluations is n plus each step's budget", evaluation_count)
        check("optimize: every step-1 trial keeps the pinned values", step1_keeps_pins)
    return results


def trainer_knobs_found(work_dir: str) -> list:
    """Main-group impactful knobs among TRAINER_KNOBS.

    This is acceptance criterion 10's property.  It is recorded, not
    checked: at n=300 it held on seeds 1-3 and 7 but found no knob on seeds
    4 and 5, and the acceptance test itself asks for 4 seeds of 5.
    """
    impactful = _json(Paths(work_dir).summary)["groups"][0]["impactful"]
    return sorted(set(impactful) & set(TRAINER_KNOBS))
