"""One study session in a fresh process: set up, then run each command.

    python3 session.py --workload NAME --seed N --work DIR --result FILE
                       [--tiny] [--trace] [--setup-only]

The process imports hsictune from the checkout's src/ directory, builds the
workload's objective and stamps the moment it is ready for the first
command (CLOCK_MONOTONIC, shared with the parent that started it).  Then it
calls hsictune.cli.cli(argv) in-process for every command of the workload,
in order, timing each one, and writes the timings, exit codes and peak
memory to the result file.  Only a traced session imports the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_command(cli, command, cmd_argv, tracer) -> dict:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli(cmd_argv)
        else:
            rc = tracer.call(f"cli.{command}", cli, cmd_argv)
    except Exception:  # a crash is a failed command; the session goes on
        traceback.print_exc()
        rc = None
    elapsed = time.perf_counter() - t0
    sys.stdout.flush()
    return {"command": command, "rc": rc, "s": elapsed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, argv as command_argv

    import hsictune.cli
    from hsictune.objectives import build_objective

    if not os.path.abspath(hsictune.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hsictune was imported from {hsictune.cli.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload]
    build_objective(workload.objective)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    for command in workload.commands:
        cmd_argv = command_argv(workload, command, args.seed, args.work, args.tiny)
        commands.append(_run_command(hsictune.cli.cli, command, cmd_argv, tracer))
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(commands=commands, peak_rss_mb=kb / 1024.0, env=_environment())
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
