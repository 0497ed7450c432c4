"""End-to-end analysis of a real (tiny) training objective.

A dense network learns the bump function 1/(1 + 15 x^2) from 11 points.
Eight knobs are searched, one of them (the adam second-moment decay) only
active when the optimizer is adam, so the report carries a conditional
group.  The run also flips the goal to the worst decile to see which knob
values are responsible for the bad tail.

Heavier than the other demos: a few minutes with the default budget.
"""

import argparse

from hsictune import best_percentile, run_algorithm1
from hsictune.analysis import worst_level_report
from hsictune.harness import run_random_search
from hsictune.objectives import RungeMlpObjective
from hsictune.reports import save_report_bundle
from hsictune.space import normalize_trials


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=600)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None, help="optional report bundle dir")
    args = ap.parse_args()

    obj = RungeMlpObjective()
    print(f"training {args.n} configurations on {args.jobs} workers...")
    trials = run_random_search(obj.space, obj, args.n, jobs=args.jobs,
                               master_seed=args.seed)
    ok = [t for t in trials if t.ok]
    diverged = sum(t.status == "diverged" for t in trials)
    print(f"done: {len(ok)} ok, {diverged} diverged, "
          f"best test error {min(t.score for t in ok):.3e}\n")

    report = run_algorithm1(obj.space, trials, best_percentile(0.1),
                            seed=args.seed, n_boot=50)
    for g in report.groups:
        print(f"group {g.group.id} (n={g.floor.n_total}):")
        for name, s in g.entries:
            mark = "*" if name in g.impactful() else " "
            print(f"  {mark} {name:<14} {s.value:.3e} +- {s.std_error:.1e}")
        print(f"    {'noise floor':<14} {g.floor.value:.3e} +- {g.floor.std_error:.1e}")
    print(f"\nimpactful: {list(report.impactful())}")

    print("\nworst-decile view of the optimizer levels:")
    matrix = normalize_trials(obj.space, trials, args.seed)
    lvl = worst_level_report(obj.space.param("optimizer"), trials, matrix)
    w_share, b_share = lvl.shares()
    for level, w, bshare in zip(lvl.levels, w_share, b_share):
        flag = "  <- flagged" if level in lvl.flagged else ""
        print(f"  {level:<6} worst-share {w:.2f}  best-share {bshare:.2f}{flag}")

    if args.out:
        save_report_bundle(report, args.out)
        print(f"\nbundle written to {args.out}")


if __name__ == "__main__":
    main()
