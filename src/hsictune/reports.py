"""CSV/JSON emission of analysis artifacts.

A report bundle is a directory of flat files: one ranking CSV per
conditional group, an interactions CSV, optional reduction curves, rank
histograms for goal-vs-all comparisons, and a summary JSON that ties it
together.  Given the same inputs and seed the bytes are identical across
runs; nothing here mutates trial files.
"""

from __future__ import annotations

import csv
import json
import os
import re

import numpy as np

from .analysis import ReductionCurve, SensitivityReport
from .space import NormalizedMatrix

__all__ = [
    "save_report_bundle",
    "save_reduction_curve",
    "save_histograms",
    "summary_dict",
]

_HIST_BINS = 20


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_+-]", "_", name)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def summary_dict(report: SensitivityReport) -> dict:
    groups = []
    for g in report.groups:
        groups.append(
            {
                "id": g.group.id,
                "members": list(g.group.members),
                "n_rows": g.n_rows,
                "n_goal": g.n_goal,
                "floor": {"value": g.floor.value, "se": g.floor.std_error},
                "ranking": [
                    {
                        "param": name,
                        "hsic": s.value,
                        "se": s.std_error,
                        "bandwidth": list(s.bandwidth.bandwidths),
                    }
                    for name, s in g.entries
                ],
                "impactful": list(g.impactful()),
            }
        )
    interactions = []
    if report.interactions is not None:
        im = report.interactions
        for (i, j), s in sorted(im.scores.items()):
            if i == j:
                continue
            interactions.append(
                {
                    "i": im.params[i],
                    "j": im.params[j],
                    "hsic": s.value,
                    "se": s.std_error,
                }
            )
    return {
        "goal": {
            "kind": report.goal.kind,
            "p": report.goal.p,
            "bound": report.goal.bound,
            "direction": report.goal.direction,
        },
        "seed": report.seed,
        "noise_floor": {
            "value": report.noise_floor.value,
            "se": report.noise_floor.std_error,
        },
        "groups": groups,
        "interactions": interactions,
        "interacting_pairs": [list(p) for p in report.interacting_pairs()],
        "impactful": list(report.impactful()),
    }


def save_report_bundle(report: SensitivityReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for g in report.groups:
        rows = [
            (name, repr(s.value), repr(s.std_error), s.n_total, s.n_goal)
            for name, s in g.entries
        ]
        _write_csv(
            os.path.join(out_dir, f"ranking_{_slug(g.group.id)}.csv"),
            ("param", "hsic", "se", "n", "m"),
            rows,
        )
    rows = []
    if report.interactions is not None:
        im = report.interactions
        rows = [
            (im.params[i], im.params[j], repr(s.value), repr(s.std_error))
            for (i, j), s in sorted(im.scores.items())
            if i != j
        ]
    _write_csv(
        os.path.join(out_dir, "interactions.csv"),
        ("i", "j", "hsic", "se"),
        rows,
    )
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary_dict(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_reduction_curve(curve: ReductionCurve, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rows = [
        (
            c,
            repr(s.value),
            repr(s.std_error),
            n,
            int(curve.cutoff is not None and c == curve.cutoff),
        )
        for c, s, n in zip(curve.offsets, curve.scores, curve.retained)
    ]
    _write_csv(
        os.path.join(out_dir, f"reduction_{_slug(curve.param)}.csv"),
        ("c", "hsic", "se", "n_retained", "is_cutoff"),
        rows,
    )


def save_histograms(matrix: NormalizedMatrix, z, out_dir: str) -> None:
    """Rank histograms per parameter on 20 equal bins: all active rows vs
    goal rows."""
    os.makedirs(out_dir, exist_ok=True)
    z = np.asarray(z, dtype=bool)
    edges = np.linspace(0.0, 1.0, _HIST_BINS + 1)
    for name in matrix.names:
        active = matrix.mask(name)
        u = matrix.column(name)
        all_counts, _ = np.histogram(u[active], bins=edges)
        goal_counts, _ = np.histogram(u[active & z], bins=edges)
        rows = [
            (repr(edges[i]), repr(edges[i + 1]), int(all_counts[i]), int(goal_counts[i]))
            for i in range(_HIST_BINS)
        ]
        _write_csv(
            os.path.join(out_dir, f"hist_{_slug(name)}.csv"),
            ("bin_lo", "bin_hi", "count_all", "count_goal"),
            rows,
        )
