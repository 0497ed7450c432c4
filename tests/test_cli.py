import csv
import json
import os

import pytest

from hsictune import analysis, cli as cli_module, space, twostep
from hsictune.analysis import interval_reduction, run_algorithm1, threshold
from hsictune.cli import cli
from hsictune.harness import load_trials
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

    before = open(trials).read()
    assert cli(["report", trials, "--seed", "7", "--out", out]) == 0
    assert open(trials).read() == before     # report never mutates trials
    assert os.path.exists(os.path.join(out, "hist_x1.csv"))


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
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
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
    payload = json.load(open(result))
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


def test_bad_jobs_variable_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HSIC_TUNE_JOBS", "abc")
    assert cli(["search", "--objective", "example2", "--n", "10",
                "--out", str(tmp_path / "trials.jsonl")]) == 1
    assert "HSIC_TUNE_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [[1, 2], {}, "extra-field"])
def test_malformed_manifest_is_runtime_error(tmp_path, capsys, manifest):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    lines = open(trials).read().splitlines(keepends=True)
    if manifest == "extra-field":
        manifest = dict(json.loads(lines[0])["manifest"], colour="blue")
    lines[0] = json.dumps({"manifest": manifest}) + "\n"
    open(trials, "w").write("".join(lines))
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
    manifest, loaded = load_trials(trials)
    parsed = space.parse_space(json.dumps(manifest.space))
    goal = threshold(0.5, "le")          # example2 scores are 0/1 indicators
    report = run_algorithm1(parsed, loaded, goal, 4)
    curve = interval_reduction(parsed.param("x1"), loaded, report.matrix, goal,
                               report.noise_floor, seed=4)
    save_reduction_curve(curve, str(tmp_path / "lib"))
    name = "reduction_x1.csv"
    assert (open(tmp_path / "cli" / name, "rb").read()
            == open(tmp_path / "lib" / name, "rb").read())


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
    lines = open(trials).read().splitlines(keepends=True)
    manifest = dict(json.loads(lines[0])["manifest"], space=[1, 2])
    lines[0] = json.dumps({"manifest": manifest}) + "\n"
    open(trials, "w").write("".join(lines))
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
])
def test_mistyped_trial_field_is_runtime_error(tmp_path, capsys, field, value, message):
    trials = str(tmp_path / "trials.jsonl")
    cli(["search", "--objective", "example2", "--n", "20", "--seed", "1",
         "--out", trials])
    lines = open(trials).read().splitlines(keepends=True)
    lines[3] = json.dumps(dict(json.loads(lines[3]), **{field: value})) + "\n"
    open(trials, "w").write("".join(lines))
    assert cli(["analyze", trials]) == 2
    assert message in capsys.readouterr().err
    assert cli(["search", "--objective", "example2", "--n", "25", "--seed", "1",
                "--out", trials]) == 2
    assert message in capsys.readouterr().err
