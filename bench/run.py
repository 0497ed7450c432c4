"""Benchmark of hsictune study sessions, timed per command from outside.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-test          # every workload at a tiny size

Run from the root of a checkout.  A workload is one user's study session
(see workloads.py): a closed loop with a single client, where each command
starts when the previous one has returned.  Every session runs in its own
fresh process, which imports hsictune from the checkout's src/ and calls
hsictune.cli.cli(argv) for each command.  The only other processes are the
search's worker pool.

--trace 0 times the session with no tracing code loaded and reports the
end-to-end metrics: set-up time (median of several fresh processes), the
whole session's time (the sum of its commands' times) and peak memory.
Sessions repeat while another one fits in --seconds; every figure is the
median over them.  The table also shows each command's time.  --trace 1
runs the session once plain and once traced, and reports the per-layer
metrics of the traced run plus the tracing overhead.

Every session's outputs are checked (see workloads.check_session).  The
last line of standard output is one JSON object: correct, attempted and
failed count the checks; metrics holds the figures BENCHMARK.json lists for
the chosen trace mode.  The lines before it record the environment, each
session's checks and output digests, and a table of every metric.

BLAS thread variables are recorded but never set: the trainer workload
exists to show what they do to the search pool.  HSIC_TUNE_JOBS overrides
the search's --jobs, so the benchmark refuses to run while it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SESSION = os.path.join(BENCH, "session.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(BENCH, "_work")

sys.path.insert(0, BENCH)
from workloads import (WORKLOADS, Paths, check_session, fingerprints,  # noqa: E402
                       trial_wall_times, trainer_knobs_found)

SETUP_SAMPLES = 3            # fresh processes timed per run for setup_s
RUN_LIMIT_S = 170.0          # a run, set-up included, ends within this
SELF_TEST_SEED = 7


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_share", "_efficiency", "_frac")):
        return "ratio"
    if ".ms_" in name:
        return "ms"
    if name.endswith((".s", "_s", ".self_s", ".s_sum")):
        return "s"
    return "count"


def _spawn(workload, seed, work_dir, deadline, *, tiny, trace=False, setup_only=False):
    """Run one session process to its end; its result with setup_s added."""
    os.makedirs(work_dir)
    result_path = os.path.join(work_dir, "result.json")
    cmd = [sys.executable, SESSION, "--workload", workload.name, "--seed", str(seed),
           "--work", work_dir, "--result", result_path]
    cmd += ["--tiny"] * tiny + ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(os.path.join(work_dir, "session.log"), "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{workload.name}: session did not end before the run limit")
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if rc != 0 or not os.path.exists(result_path):
        with open(os.path.join(work_dir, "session.log"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{workload.name}: session process exited {rc}\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - start
    return result


def _session_s(session) -> float:
    return sum(c["s"] for c in session["commands"])


def _record(session, work_dir, workload, tiny) -> list:
    """Check one session's outputs; print its record; return the checks."""
    checks = check_session(workload, work_dir, session["commands"], tiny)
    record = {}
    if workload.objective == "runge_mlp" and os.path.exists(Paths(work_dir).summary):
        record["criterion10_knobs"] = trainer_knobs_found(work_dir)
    print("session " + json.dumps({
        **record,
        "commands": [[c["command"], c["rc"], c["s"]] for c in session["commands"]],
        "peak_rss_mb": session["peak_rss_mb"],
        "failed_checks": [name for name, ok in checks if not ok],
        "checks": len(checks),
        **fingerprints(work_dir),
    }, sort_keys=True))
    return checks


def run(workload_name, seed, seconds, trace, tiny=False) -> dict:
    """One benchmark run; the result object printed as the last line."""
    if "HSIC_TUNE_JOBS" in os.environ:
        raise BenchError("HSIC_TUNE_JOBS is set and would override the search's --jobs; "
                         "unset it to run the benchmark")
    if not os.path.exists(os.path.join(ROOT, "src", "hsictune", "__init__.py")):
        raise BenchError(f"no hsictune sources under {os.path.join(ROOT, 'src')}")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    w = WORKLOADS[workload_name]
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=WORK_ROOT)
    sessions, checks = [], []

    def session(**kw):
        work_dir = os.path.join(work, str(len(os.listdir(work))))
        result = _spawn(w, seed, work_dir, deadline, tiny=tiny, **kw)
        if not kw.get("setup_only"):
            checks.extend(_record(result, work_dir, w, tiny))
            sessions.append(result)
        return result, work_dir

    try:
        if trace:
            plain, _ = session()
            traced, traced_dir = session(trace=True)
            from layers import layer_metrics

            metrics = layer_metrics(traced["trace"], trial_wall_times(traced_dir), w.jobs)
            metrics["trace.overhead_frac"] = _session_s(traced) / _session_s(plain) - 1.0
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            setups = [session(setup_only=True)[0]["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            start = time.monotonic()
            while True:
                session()
                elapsed = time.monotonic() - start
                if elapsed + elapsed / len(sessions) > seconds:
                    break         # another session would not end within --seconds
            setups += [s["setup_s"] for s in sessions]
            metrics = {"setup_s": statistics.median(setups),
                       "session_s": statistics.median(_session_s(s) for s in sessions),
                       "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions)}
            for command in w.commands:
                metrics[f"{command}_s"] = statistics.median(
                    c["s"] for s in sessions for c in s["commands"] if c["command"] == command)
            wanted = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"{w.name}: no value for {', '.join(missing)}")
    failed = sum(1 for _, ok in checks if not ok)
    metrics["failed_frac"] = failed / len(checks)
    print("env " + json.dumps(sessions[0]["env"], sort_keys=True))
    print(f"{w.name}  seed={seed}  sessions={len(sessions)}  trace={int(trace)}")
    extra = [name for name in ("search_s", "analyze_s", "reduce_s", "optimize_s", "failed_frac")
             if name in metrics and name not in wanted]
    for name in wanted + extra:
        print(f"  {name:<44} {metrics[name]:>14.6g} {_unit(name)}")
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": _unit(name)} for name in wanted},
    }


def self_test() -> int:
    """Every workload at its tiny size, in both trace modes: each metric
    BENCHMARK.json names is emitted with its unit, and no check fails."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, SELF_TEST_SEED, 1, trace, tiny=True)
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace={trace}: {m['name']} [{m['unit']}] -> {got}")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{name} trace={trace}: metric names differ from {key}")
            if result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} checks failed")
    for p in problems:
        print("self-test: " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)      # unwinds through _spawn, which stops the session


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7; 11 is held out for validating claims)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring window; at least one session always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
