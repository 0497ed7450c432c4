import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hsictune
from hsictune import analysis, cli as cli_module, space, twostep
from hsictune.analysis import interval_reduction, run_algorithm1, threshold
from hsictune.cli import cli
from hsictune.harness import load_trials, space_hash
from hsictune.hsic import select_bandwidth
from hsictune.objectives import ThreeTermObjective
from hsictune.reports import save_reduction_curve


def test_unknown_command_is_usage_error(capsys):
    assert cli(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli(["analyze", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "usage" in err


def test_missing_trials_file_is_runtime_error(capsys):
    assert cli(["analyze", "/nonexistent/trials.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


def test_search_then_analyze_then_report(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    out = str(tmp_path / "bundle")
    assert cli(["search", "--objective", "example2", "--n", "400",
                "--seed", "7", "--out", trials]) == 0
    assert cli(["analyze", trials, "--goal", "best", "--percentile", "0.1",
                "--seed", "7", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "group main" in text
    assert os.path.exists(os.path.join(out, "ranking_main.csv"))
    assert os.path.exists(os.path.join(out, "interactions.csv"))
    assert os.path.exists(os.path.join(out, "summary.json"))
    with open(os.path.join(out, "ranking_main.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "hsic", "se", "n", "m"]
    assert rows[1][0] == "x1"      # dominant input ranks first

    before = Path(trials).read_text()
    assert cli(["report", trials, "--seed", "7", "--out", out]) == 0
    assert Path(trials).read_text() == before     # report never mutates trials
    assert os.path.exists(os.path.join(out, "hist_x1.csv"))


@pytest.mark.parametrize("full", [False, True])
def test_analyze_interactions_scan_the_quiet_or_all_main_pairs(tmp_path, full):
    trials = str(tmp_path / "trials.jsonl")
    out = tmp_path / "bundle"
    cli(["search", "--objective", "example2", "--n", "400", "--seed", "7", "--out", trials])
    assert cli(["analyze", trials, "--seed", "7", "--out", str(out)]
               + ["--full-interactions"] * full) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["impactful"] == ["x1"]
    names = ["x1", "x2", "x3", "x4", "x5"] if full else ["x2", "x3", "x4", "x5"]
    with open(out / "interactions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "j", "hsic", "se"]
    assert [tuple(r[:2]) for r in rows[1:]] == [(a, b) for k, a in enumerate(names)
                                                for b in names[k + 1:]]
    assert [[r[0], r[1], float(r[2]), float(r[3])] for r in rows[1:]] == [
        [p["i"], p["j"], p["hsic"], p["se"]] for p in summary["interactions"]]


def test_analyze_worst_goal(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "example2", "--n", "300",
                "--seed", "3", "--out", trials]) == 0
    assert cli(["analyze", trials, "--goal", "worst", "--percentile", "0.1",
                "--seed", "3"]) == 0
    assert "group main" in capsys.readouterr().out


def test_analyze_outputs_are_byte_identical(tmp_path):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "300", "--seed", "5",
         "--out", trials])
    out1, out2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert cli(["analyze", trials, "--seed", "5", "--out", out1]) == 0
    assert cli(["analyze", trials, "--seed", "5", "--out", out2]) == 0
    for name in ("summary.json", "ranking_main.csv", "interactions.csv"):
        a = Path(os.path.join(out1, name)).read_bytes()
        b = Path(os.path.join(out2, name)).read_bytes()
        assert a == b, name


def test_reduce_emits_curve(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    out = str(tmp_path / "bundle")
    cli(["search", "--objective", "three_term", "--n", "300", "--seed", "1",
         "--out", trials])
    assert cli(["reduce", trials, "--param", "x3", "--seed", "1",
                "--out", out]) == 0
    assert "suggested cutoff" in capsys.readouterr().out
    path = os.path.join(out, "reduction_x3.csv")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["c", "hsic", "se", "n_retained", "is_cutoff"]
    assert len(rows) > 1


def test_optimize_two_step(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    result = str(tmp_path / "result.json")
    cli(["search", "--objective", "three_term", "--n", "200", "--seed", "2",
         "--out", trials])
    assert cli(["optimize", trials, "--objective", "three_term",
                "--mode", "acc+speed", "--speed", "x3=minimize",
                "--budget-step1", "8", "--budget-step2", "8", "--init", "6",
                "--seed", "2", "--out", result]) == 0
    text = capsys.readouterr().out
    assert "best error" in text
    payload = json.loads(Path(result).read_text())
    assert payload["n_evaluations"] == 200 + (6 + 8) + (6 + 8)
    assert payload["fixed"]["x3"] == 1


def test_demo_example2_orders_x1_first(tmp_path, capsys):
    out = str(tmp_path / "bundle")
    assert cli(["demo", "example2", "--n", "500", "--seed", "7",
                "--out", out]) == 0
    text = capsys.readouterr().out
    # first ranked row of the main group is x1
    first = next(l for l in text.splitlines() if "x1" in l or "x2" in l)
    assert "x1" in first
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_bad_speed_direction_is_usage_error(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "50", "--seed", "1",
         "--out", trials])
    assert cli(["optimize", trials, "--objective", "example2",
                "--speed", "x1=fast"]) == 1
    assert "speed direction" in capsys.readouterr().err


def test_non_object_trial_line_is_runtime_error(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    with open(trials, "a") as fh:
        fh.write("[1, 2]\n")
    assert cli(["analyze", trials]) == 2
    assert "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_jobs_variable_is_usage_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("HSIC_TUNE_JOBS", value)
    assert cli(["search", "--objective", "example2", "--n", "10",
                "--out", str(tmp_path / "trials.jsonl")]) == 1
    assert "HSIC_TUNE_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [[1, 2], {}, "extra-field"])
def test_malformed_manifest_is_runtime_error(tmp_path, capsys, manifest):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    lines = Path(trials).read_text().splitlines(keepends=True)
    if manifest == "extra-field":
        manifest = dict(json.loads(lines[0])["manifest"], colour="blue")
    lines[0] = json.dumps({"manifest": manifest}) + "\n"
    Path(trials).write_text("".join(lines))
    assert cli(["analyze", trials]) == 2
    assert "manifest" in capsys.readouterr().err


def test_non_object_line_on_resume_is_runtime_error(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "example2", "--n", "5", "--seed", "1",
                "--out", trials]) == 0
    with open(trials, "a") as fh:
        fh.write("[1, 2]\n")
    assert cli(["search", "--objective", "example2", "--n", "8", "--seed", "1",
                "--out", trials]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_reduce_curve_uses_the_analysis_noise_floor(tmp_path):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "400", "--seed", "4",
         "--out", trials])
    assert cli(["reduce", trials, "--param", "x1", "--seed", "4",
                "--out", str(tmp_path / "cli")]) == 0
    manifest, _, loaded = load_trials(trials)
    parsed = space.parse_space(json.dumps(manifest.space))
    goal = threshold(0.5, "le")          # example2 scores are 0/1 indicators
    report = run_algorithm1(parsed, loaded, goal, 4)
    curve = interval_reduction(parsed.param("x1"), loaded, report.matrix, goal,
                               report.groups[0].floor, seed=4)
    save_reduction_curve(curve, str(tmp_path / "lib"))
    name = "reduction_x1.csv"
    assert ((tmp_path / "cli" / name).read_bytes()
            == (tmp_path / "lib" / name).read_bytes())


def test_each_command_normalizes_the_trials_once(tmp_path, monkeypatch):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "three_term", "--n", "120", "--seed", "2",
         "--out", trials])
    calls = []
    original = space.normalize_trials

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (space, analysis, twostep, cli_module):
        if hasattr(module, "normalize_trials"):
            monkeypatch.setattr(module, "normalize_trials", counted, raising=True)
    commands = {
        "analyze": ["analyze", trials, "--seed", "2"],
        "reduce": ["reduce", trials, "--param", "x3", "--seed", "2",
                   "--out", str(tmp_path / "red")],
        "report": ["report", trials, "--seed", "2", "--out", str(tmp_path / "rep")],
        "optimize": ["optimize", trials, "--objective", "three_term",
                     "--speed", "x3=minimize", "--budget-step1", "2",
                     "--budget-step2", "2", "--init", "2", "--seed", "2"],
    }
    for name, argv in commands.items():
        calls.clear()
        assert cli(argv) == 0, name
        assert len(calls) == 1, name


def test_non_object_manifest_space_is_runtime_error(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    lines = Path(trials).read_text().splitlines(keepends=True)
    manifest = dict(json.loads(lines[0])["manifest"], space=[1, 2])
    lines[0] = json.dumps({"manifest": manifest}) + "\n"
    Path(trials).write_text("".join(lines))
    assert cli(["analyze", trials]) == 2
    assert "manifest space" in capsys.readouterr().err
    # the resume path of search reads the same manifest
    assert cli(["search", "--objective", "example2", "--n", "25", "--seed", "1",
                "--out", trials]) == 2
    assert "manifest space" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("score", "bad", "score is not a number"),
    ("i", [1], "trial index is not an integer"),
    ("config", 5, "config is not a JSON object"),
    ("status", 5, "unknown status 5"),
    ("status", "lost", "unknown status 'lost'"),
    ("score", None, "score must be finite exactly when status is ok"),
    ("seed", "abc", "seed is not an integer"),
    ("seed", True, "seed is not an integer"),
    ("wall_time_s", "x", "wall_time_s is not a number"),
    ("tags", 3, "tags is not a JSON object"),
    ("i", -3, "trial index -3 is negative"),
    pytest.param("score", 10**400, "score is beyond the float range",
                 id="score-10**400"),
])
def test_mistyped_trial_field_is_runtime_error(tmp_path, capsys, field, value, message):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    capsys.readouterr()
    lines = Path(trials).read_text().splitlines(keepends=True)
    assert json.loads(lines[3])["status"] == "ok"     # a null score then breaks the rule
    lines[3] = json.dumps(dict(json.loads(lines[3]), **{field: value})) + "\n"
    Path(trials).write_text("".join(lines))
    before = Path(trials).read_bytes()
    assert cli(["analyze", trials]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith(f"error: {trials}: line 4: ")
    assert cli(["search", "--objective", "example2", "--n", "25", "--seed", "1",
                "--out", trials]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith(f"error: {trials}: line 4: ")
    assert Path(trials).read_bytes() == before


def test_config_outside_the_space_is_runtime_error(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "example2", "--n", "30", "--seed", "1",
                "--out", trials]) == 0
    capsys.readouterr()
    lines = Path(trials).read_text().splitlines(keepends=True)
    rec = json.loads(lines[3])
    rec["config"]["x1"] = "abc"
    lines[3] = json.dumps(rec) + "\n"
    Path(trials).write_text("".join(lines))
    before = Path(trials).read_bytes()
    message = f"error: {trials}: line 4: x1: value 'abc' out of domain\n"
    assert cli(["search", "--objective", "example2", "--n", "35", "--seed", "1",
                "--out", trials]) == 2
    assert capsys.readouterr().err == message
    assert Path(trials).read_bytes() == before
    assert cli(["analyze", trials]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("field", ["score", "status", "seed", "wall_time_s", "i", "config"])
def test_trial_record_without_a_field_is_runtime_error(tmp_path, capsys, field):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    capsys.readouterr()
    lines = Path(trials).read_text().splitlines(keepends=True)
    rec = json.loads(lines[3])
    del rec[field]
    lines[3] = json.dumps(rec) + "\n"
    Path(trials).write_text("".join(lines))
    message = f"error: {trials}: line 4: trial record has no {field!r} field\n"
    assert cli(["analyze", trials]) == 2
    assert capsys.readouterr().err == message
    assert cli(["search", "--objective", "example2", "--n", "25", "--seed", "1",
                "--out", trials]) == 2
    assert capsys.readouterr().err == message


def _break_unknown_status(lines):
    lines[2] = json.dumps(dict(json.loads(lines[2]), status="lost")) + "\n"


def _break_duplicate_index(lines):
    lines.append(lines[3])


def _break_manifest_hash(lines):
    rec = json.loads(lines[0])
    rec["manifest"]["space"]["params"][0]["hi"] = 4.0    # space_hash left as it was
    lines[0] = json.dumps(rec) + "\n"


def _break_unterminated_manifest(lines):
    del lines[1:]
    lines[0] = lines[0].rstrip("\n")


def _break_utf8(lines):
    lines.insert(2, "\udcff\n")     # written back as the lone byte 0xff


@pytest.mark.parametrize("damage", [_break_unknown_status, _break_duplicate_index,
                                    _break_manifest_hash, _break_unterminated_manifest,
                                    _break_utf8])
def test_resume_rejects_a_bad_run_file_before_evaluating(tmp_path, capsys, damage):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "example2", "--n", "5", "--seed", "1",
                "--out", trials]) == 0
    lines = Path(trials).read_text().splitlines(keepends=True)
    damage(lines)
    Path(trials).write_text("".join(lines), errors="surrogateescape")
    before = Path(trials).read_bytes()
    assert cli(["search", "--objective", "example2", "--n", "40", "--seed", "1",
                "--out", trials]) == 2
    assert "error" in capsys.readouterr().err
    assert Path(trials).read_bytes() == before


def test_failed_gp_optimization_is_runtime_error(tmp_path, capsys, monkeypatch):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "three_term", "--n", "100", "--seed", "2",
         "--out", trials])

    def fault(self, config, seed):
        raise RuntimeError("synthetic fault")

    # every evaluation of the optimizer fails, so no step has an incumbent
    monkeypatch.setattr(ThreeTermObjective, "evaluate", fault)
    assert cli(["optimize", trials, "--objective", "three_term", "--init", "1",
                "--budget-step1", "0", "--budget-step2", "0", "--seed", "2"]) == 2
    assert "no successful evaluations" in capsys.readouterr().err


@pytest.mark.parametrize("init, step1, step2", [("0", "0", "3"), ("0", "3", "0"),
                                                ("0", "0", "0")])
def test_optimize_skips_a_step_with_no_evaluations(tmp_path, capsys, init, step1, step2):
    trials = str(tmp_path / "trials.jsonl")
    out = tmp_path / "optimize.json"
    assert cli(["search", "--objective", "three_term", "--n", "300", "--seed", "2",
                "--out", trials]) == 0
    capsys.readouterr()
    assert cli(["optimize", trials, "--objective", "three_term", "--init", init,
                "--budget-step1", step1, "--budget-step2", step2, "--seed", "2",
                "--out", str(out)]) == 0
    text = capsys.readouterr().out
    result = json.loads(out.read_text())
    h1, h2 = result["history_step1"], result["history_step2"]
    assert (len(h1), len(h2)) == (int(init) + int(step1), int(init) + int(step2))
    assert result["n_evaluations"] == 300 + len(h1) + len(h2)
    assert result["step1_dims"] and result["step2_dims"]
    if h1 or h2:
        assert "best error:" in text
    else:
        assert result["step1_incumbent"] is None and result["step2_incumbent"] is None
        assert "no optimization step ran (step 1: zero budget, step 2: zero budget)" in text


@pytest.mark.parametrize("argv", [
    ["search", "--objective", "example2", "--n", "-5", "--out", "new.jsonl"],
    ["demo", "example2", "--n", "-5"],
    ["optimize", "t.jsonl", "--objective", "example2", "--init", "-1"],
    ["optimize", "t.jsonl", "--objective", "example2", "--budget-step1", "-1"],
    ["optimize", "t.jsonl", "--objective", "example2", "--budget-step2", "-1"],
    ["search", "--objective", "example2", "--n", "20", "--jobs", "0", "--out", "new.jsonl"],
    ["search", "--objective", "example2", "--n", "20", "--jobs", "-4", "--out", "new.jsonl"],
    ["demo", "example2", "--n", "20", "--jobs", "0"],
])
def test_negative_count_is_usage_error(tmp_path, capsys, argv):
    assert cli(["search", "--objective", "example2", "--n", "50", "--seed", "1",
                "--out", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()
    argv = [str(tmp_path / a) if a.endswith(".jsonl") else a for a in argv]
    assert cli(argv) == 1
    assert "usage" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "new.jsonl")


@pytest.mark.parametrize("objective", ["example2", "three_term"])
@pytest.mark.parametrize("percentile", ["1.5", "0", "-0.1", "nan"])
def test_percentile_outside_unit_interval_is_usage_error(tmp_path, capsys,
                                                         objective, percentile):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", objective, "--n", "100", "--seed", "3",
                "--out", trials]) == 0
    commands = [
        ["analyze", trials],
        ["reduce", trials, "--param", "x1", "--out", str(tmp_path / "red")],
        ["report", trials, "--out", str(tmp_path / "rep")],
        ["optimize", trials, "--objective", objective],
        ["demo", objective, "--n", "100"],
    ]
    for argv in commands:
        assert cli(argv + ["--percentile", percentile]) == 1, argv
        assert "percentile" in capsys.readouterr().err, argv


def test_search_reports_the_trials_the_file_holds(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "example2", "--n", "12", "--seed", "4",
                "--out", trials]) == 0
    capsys.readouterr()
    before = Path(trials).read_bytes()
    assert cli(["search", "--objective", "example2", "--n", "3", "--seed", "4",
                "--out", trials]) == 0
    assert "12 trials" in capsys.readouterr().out
    assert Path(trials).read_bytes() == before


_X = '{"name": "x", "kind": "continuous", "lo": 0, "hi": 1}'


@pytest.mark.parametrize("params, rules, message", [
    ('{"name": "x", "kind": "continuous", "lo": "abc", "hi": 1}', "", "finite numbers"),
    ('{"name": "x", "kind": "continuous", "lo": 0, "hi": 1e400}', "", "finite numbers"),
    ('{"name": "x", "kind": "continuous", "lo": -1e308, "hi": 1e308}', "", "finite range"),
    ('{"name": "x", "kind": "continuous", "lo": true, "hi": 2}', "", "finite numbers"),
    ('{"name": "x", "kind": "integer", "lo": 1.5, "hi": 4}', "", "integral"),
    ('{"name": "x", "kind": "integer", "lo": 0, "hi": 1e19}', "", "int64"),
    ('{"name": "x", "kind": "integer", "lo": -5e18, "hi": 5e18}', "", "int64"),
    ('{"name": "x", "kind": "integer", "lo": 1, "hi": 4, "scale": "log"}', "",
     "unknown keys"),
    ('{"name": "x", "kind": "boolean", "levels": [true, false]}', "", "unknown keys"),
    ('{"name": "x", "kind": "boolean", "weight_true": "x"}', "", "weight_true"),
    ('{"name": "x", "kind": "categorical", "levels": 5}', "", "levels"),
    ('{"name": "x", "kind": "categorical", "levels": [[1], [2]]}', "", "levels"),
    ('{"name": "x", "kind": "categorical", "levels": ["a", "b"], "weights": "ab"}', "",
     "weights"),
    ('{"name": "b", "kind": "boolean"}, ' + _X,
     '{"child": "x", "parent": "b", "when": 5}', "when"),
    ('{"name": "b", "kind": "boolean"}, ' + _X, '{"parent": "b", "when": [true]}', "rule"),
], ids=["lo-string", "hi-overflow", "range-overflow", "lo-boolean", "integer-lo-fraction",
        "integer-hi-beyond-int64", "integer-range-beyond-int64",
        "integer-scale", "boolean-levels", "weight_true-string", "levels-number", "levels-arrays",
        "weights-string", "when-number", "rule-without-child"])
def test_mistyped_space_document_is_runtime_error(tmp_path, capsys, params, rules, message):
    doc = tmp_path / "space.json"
    doc.write_text(f'{{"params": [{params}], "rules": [{rules}]}}')
    trials = tmp_path / "trials.jsonl"
    assert cli(["search", "--objective", "quadratic1d", "--space", str(doc), "--n", "12",
                "--out", str(trials)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not trials.exists()


def test_space_document_that_is_not_utf8_is_runtime_error(tmp_path, capsys):
    doc = tmp_path / "space.json"
    doc.write_bytes(b'\xff{"params": [' + _X.encode() + b"]}")
    trials = tmp_path / "trials.jsonl"
    assert cli(["search", "--objective", "quadratic1d", "--space", str(doc), "--n", "12",
                "--out", str(trials)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(doc) in err and "UTF-8" in err
    assert "Traceback" not in err
    assert not trials.exists()


@pytest.mark.parametrize("change, message", [("seed", "master seed mismatch"),
                                             ("space", "space hash mismatch"),
                                             ("objective", "objective mismatch")])
def test_search_onto_another_run_is_runtime_error(tmp_path, capsys, change, message):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "quadratic1d", "--n", "6", "--seed", "1",
                "--out", trials]) == 0
    before = Path(trials).read_bytes()
    other = tmp_path / "space.json"
    other.write_text('{"params": [{"name": "x", "kind": "continuous", "lo": 0, "hi": 2}]}')
    same = tmp_path / "same.json"       # quadratic1d's own space, as a document
    same.write_text('{"params": [{"name": "x", "kind": "continuous", "lo": 0, "hi": 1}]}')
    argv = {"seed": ["--objective", "quadratic1d", "--seed", "2"],
            "space": ["--objective", "quadratic1d", "--seed", "1", "--space", str(other)],
            "objective": ["--objective", "three_term", "--seed", "1", "--space", str(same)]}
    capsys.readouterr()
    assert cli(["search", "--n", "9", *argv[change], "--out", trials]) == 2
    assert message in capsys.readouterr().err
    assert Path(trials).read_bytes() == before


def test_negative_seed_names_the_streams_of_its_32_bit_residue(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "three_term", "--n", "150", "--seed", "3",
                "--out", trials]) == 0
    commands = [
        ["analyze", trials],
        ["reduce", trials, "--param", "x3", "--out", str(tmp_path / "red")],
        ["optimize", trials, "--objective", "three_term", "--speed", "x3=minimize",
         "--init", "3", "--budget-step1", "2", "--budget-step2", "2"],
        ["demo", "example2", "--n", "150"],
    ]
    for argv in commands:
        capsys.readouterr()
        assert cli(argv + ["--seed", "4294967295"]) == 0, argv
        expected = capsys.readouterr().out
        assert cli(argv + ["--seed", "-1"]) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_optimize_with_every_knob_pinned_runs_no_step(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    out = str(tmp_path / "optimize.json")
    assert cli(["search", "--objective", "quadratic1d", "--n", "40", "--out", trials]) == 0
    capsys.readouterr()
    assert cli(["optimize", trials, "--objective", "quadratic1d", "--speed", "x=minimize",
                "--init", "2", "--budget-step1", "2", "--budget-step2", "2",
                "--out", out]) == 0
    assert ("no optimization step ran (step 1: every parameter is pinned, "
            "step 2: every parameter is pinned)") in capsys.readouterr().out
    result = json.loads(Path(out).read_text())
    assert result["step1_dims"] == [] and result["step2_dims"] == []
    assert result["step1_incumbent"] is None and result["step2_incumbent"] is None
    assert result["n_evaluations"] == 40


def test_resume_that_grows_a_run_reports_its_size(tmp_path):
    trials = str(tmp_path / "trials.jsonl")
    argv = ["search", "--objective", "example2", "--seed", "1", "--out", trials]
    assert cli(argv + ["--n", "5"]) == 0
    before = Path(trials).read_bytes().splitlines(keepends=True)
    assert cli(argv + ["--n", "12"]) == 0
    assert Path(trials).read_bytes().splitlines(keepends=True)[:6] == before
    manifest, _, loaded = load_trials(trials)
    assert manifest.n_s == 12 and len(loaded) == 12


@pytest.mark.parametrize("n_s", ["5", 5.0, True, None])
def test_non_integer_manifest_n_s_is_runtime_error(tmp_path, capsys, n_s):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    lines = Path(trials).read_text().splitlines(keepends=True)
    manifest = dict(json.loads(lines[0])["manifest"], n_s=n_s)
    lines[0] = json.dumps({"manifest": manifest}) + "\n"
    Path(trials).write_text("".join(lines))
    assert cli(["analyze", trials]) == 2
    assert "n_s is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("rules", ["null", "5", "{}"])
def test_non_array_space_rules_is_runtime_error(tmp_path, capsys, rules):
    doc = tmp_path / "space.json"
    doc.write_text(f'{{"params": [{_X}], "rules": {rules}}}')
    trials = tmp_path / "trials.jsonl"
    assert cli(["search", "--objective", "quadratic1d", "--space", str(doc), "--n", "12",
                "--out", str(trials)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and '"rules" must be an array' in err
    assert not trials.exists()
    # a trial file whose manifest space holds such rules is refused the same way
    assert cli(["search", "--objective", "quadratic1d", "--n", "12",
                "--out", str(trials)]) == 0
    lines = trials.read_text().splitlines(keepends=True)
    manifest = json.loads(lines[0])["manifest"]
    manifest["space"]["rules"] = json.loads(rules)
    manifest["space_hash"] = space_hash(manifest["space"])
    lines[0] = json.dumps({"manifest": manifest}) + "\n"
    trials.write_text("".join(lines))
    capsys.readouterr()
    assert cli(["analyze", str(trials)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and '"rules" must be an array' in err


def test_optimize_refuses_a_trial_file_of_another_objective(tmp_path, capsys):
    trials = str(tmp_path / "trials.jsonl")
    assert cli(["search", "--objective", "example2", "--n", "150", "--seed", "1",
                "--out", trials]) == 0
    capsys.readouterr()
    assert cli(["optimize", trials, "--objective", "example1", "--init", "2",
                "--budget-step1", "2", "--budget-step2", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "objective mismatch" in captured.err
    assert "'example2'" in captured.err and "'example1'" in captured.err
    assert captured.out == ""


def test_sparse_conditional_group_is_left_out_with_a_warning(tmp_path, capsys):
    # at seed 3 the 20 trials hold 2 goal rows, one of them in adam_beta2's group
    trials = str(tmp_path / "trials.jsonl")
    out = str(tmp_path / "bundle")
    assert cli(["search", "--objective", "runge_mlp", "--n", "20", "--seed", "3",
                "--out", trials]) == 0
    capsys.readouterr()
    assert cli(["analyze", trials, "--seed", "3", "--out", out]) == 0
    assert capsys.readouterr().err == ("warning: conditional group 'adam_beta2' has only 1 "
                                       "goal rows; left out of the report\n")
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert [(g["id"], g["n_goal"]) for g in summary["groups"]] == [("main", 2)]
    assert not os.path.exists(os.path.join(out, "ranking_adam_beta2.csv"))
    # a main group that small is still a runtime error
    capsys.readouterr()
    assert cli(["analyze", trials, "--percentile", "0.05", "--seed", "3"]) == 2
    assert "goal set too small" in capsys.readouterr().err


def test_a_warning_prints_as_one_line(monkeypatch, capsys):
    # hsic's degenerate-bandwidth warning, raised inside a command; a second
    # call prints it again
    def analyze(args):
        select_bandwidth([0.5, 0.5], [0.5])
        return 0

    monkeypatch.setitem(cli_module._COMMANDS, "analyze", analyze)
    for _ in range(2):
        assert cli(["analyze", "trials.jsonl"]) == 0
        assert capsys.readouterr().err == ("warning: all samples identical; "
                                           "bandwidth selection is degenerate\n")


_IMPORT_FOOTPRINT = textwrap.dedent("""
    import contextlib, io, json, os, sys, tempfile
    import hsictune, hsictune.cli
    from hsictune.objectives import OBJECTIVE_NAMES, build_objective

    for name in OBJECTIVE_NAMES:
        build_objective(name)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        trials = os.path.join(tmp, "trials.jsonl")
        for argv in (["search", "--objective", "example2", "--n", "200", "--seed", "7",
                      "--out", trials],
                     ["analyze", trials, "--seed", "7", "--out", os.path.join(tmp, "a")],
                     ["reduce", trials, "--param", "x1", "--seed", "7", "--out", os.path.join(tmp, "r")],
                     ["report", trials, "--seed", "7", "--out", os.path.join(tmp, "p")]):
            assert hsictune.cli.cli(argv) == 0, argv
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    kept = [m for m in ("hsictune.gp", "hsictune.twostep") if m in sys.modules]

    import numpy as np
    from hsictune.gp import gp_fit, gp_predict
    x = np.linspace(0.0, 1.0, 6)[:, None]
    model = gp_fit(x, np.sin(3.0 * x[:, 0]))
    mean, _ = gp_predict(model, [0.5])
    print(json.dumps({"scipy": loaded, "kept": kept, "fit_loads_scipy": "scipy" in sys.modules,
                      "mean": mean}))
""")


def test_the_command_line_loads_scipy_only_to_fit():
    # a fresh process: the package, the command line, every objective and the
    # commands that do not optimize load numpy alone; gp and twostep stay
    # imported (the bench tracer reads them from sys.modules); a fit loads
    # scipy on first use
    src = os.path.dirname(os.path.dirname(hsictune.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_FOOTPRINT], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["scipy"] == []
    assert got["kept"] == ["hsictune.gp", "hsictune.twostep"]
    assert got["fit_loads_scipy"]
    assert abs(got["mean"] - math.sin(1.5)) < 0.05
