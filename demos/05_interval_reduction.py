"""Shrinking an ordered domain until the knob stops mattering.

The synthetic objective is only good once the depth knob reaches 3, so depth
looks very important on {1..10}.  Raising the lower bound step by step and
re-scoring inside the surviving subpopulation, the score falls to the noise
floor exactly when the bad levels are gone.  The crossing offset is the
cheap-but-safe value to pin the knob to.
"""

import numpy as np

from hsictune.analysis import (
    best_percentile,
    dummy_floor,
    interval_reduction,
    make_goal_flags,
)
from hsictune.harness import Trial
from hsictune.space import SearchSpace, integer_param, normalize_trials

N = 20_000
SEED = 7


def main():
    rng = np.random.default_rng(SEED)
    trials = []
    for _ in range(N):
        depth = int(rng.integers(1, 11))
        base = 0.0 if depth >= 3 else 1.0
        trials.append(Trial({"n_layers": depth},
                            base + float(rng.uniform(0, 0.01)), "ok", 0))
    space = SearchSpace((integer_param("n_layers", 1, 10),))
    goal = best_percentile(0.1)
    z = make_goal_flags(trials, goal)
    matrix = normalize_trials(space, trials, SEED)
    floor = dummy_floor(np.ones(N, dtype=bool), z, SEED, n_boot=100)
    print(f"noise floor: {floor.value:.2e} +- {floor.std_error:.1e}\n")

    curve = interval_reduction(space.param("n_layers"), trials, matrix, goal,
                               floor, seed=SEED, n_boot=100)
    print(f"{'c':>3}  {'lower bound':>11}  {'score':>10}  {'se':>8}  {'kept':>6}")
    for c, s in zip(curve.offsets, curve.scores):
        mark = "  <- cutoff" if c == curve.cutoff else ""
        print(f"{c:3d}  {1 + c:11d}  {s.value:10.3e}  {s.std_error:8.1e}  "
              f"{s.n_total:6d}{mark}")
    print(f"\nsuggested cutoff c* = {curve.cutoff}: pin n_layers to "
          f"{1 + curve.cutoff} and stop paying for the search dimension.")


if __name__ == "__main__":
    main()
