"""Tests of the benchmark's own parts: generator, wrappers, checks.

Run from the repository root: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from generate import MIN_HISTORY, generate  # noqa: E402

from directau.cli import main as directau  # noqa: E402

TINY = (120, 90)  # users, items


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a.tsv", tmp_path / "b.tsv", tmp_path / "c.tsv"
    assert generate(*TINY, 7, a) == generate(*TINY, 7, b)
    assert a.read_bytes() == b.read_bytes()
    assert generate(*TINY, 8, c) != generate(*TINY, 7, a)


def test_generator_writes_keyed_lines_with_history_floor(tmp_path):
    path = tmp_path / "raw.tsv"
    generate(*TINY, 3, path)
    items_by_user: dict[str, set[str]] = {}
    for line in path.read_text().splitlines():
        user, item, stamp = line.split("\t")
        assert user.startswith("u") and item.startswith("i") and stamp.isdigit()
        items_by_user.setdefault(user, set()).add(item)
    assert len(items_by_user) == TINY[0]
    assert min(len(items) for items in items_by_user.values()) >= MIN_HISTORY


def _originals():
    out = []
    for module_name, path, *_ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_wrappers_record_spans_and_restore_the_originals():
    from directau.encoders import GraphPropagator

    before = _originals()
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
        assert isinstance(vars(GraphPropagator)["build"], classmethod)
        training = importlib.import_module("directau.training")
        state = training.AdamState.for_params(np.zeros((4, 2)), lr=0.1)
        training.adam_step(state, np.zeros((4, 2)), np.array([1, 3]), np.ones((2, 2)))
    finally:
        restore()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)
    [span] = recorder.spans
    assert (span.name, span.layer, span.parent) == ("adam_step", "optim", None)
    assert span.counts == {"rows_updated": 2, "rows_held": 4}


def test_self_times_subtract_children_and_sum_to_the_root():
    spans = [
        {"name": "train", "layer": "cli", "start": 0.0, "end": 10.0, "parent": None, "counts": {}},
        {"name": "train", "layer": "training", "start": 1.0, "end": 9.0, "parent": 0, "counts": {}},
        {"name": "adam_step", "layer": "optim", "start": 2.0, "end": 3.0, "parent": 1, "counts": {}},
        {"name": "rank_eval", "layer": "evaluation", "start": 4.0, "end": 8.0, "parent": 1, "counts": {}},
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 1.0, 4.0]
    assert tracing.nesting_problems(spans) == []
    spans[3]["start"] = 2.5
    assert tracing.nesting_problems(spans)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A real preprocess -> train -> eval on a tiny generated log."""
    work = tmp_path_factory.mktemp("pipeline")
    generate(*TINY, 5, work / "raw.tsv")
    conf = work / "run.conf"
    conf.write_text("objective = direct_au\ngamma = 1\nlr = 1e-2\nd = 8\nmax_epochs = 2\npatience = 3\nseed = 5\n")
    clean, out = str(work / "clean.txt"), work / "run"
    assert directau(["preprocess", "--input", str(work / "raw.tsv"), "--output", clean]) == 0
    assert directau(["train", "--data", clean, "--config", str(conf), "--out-dir", str(out)]) == 0
    return out, clean


def _read(tiny_run, capsys) -> dict:
    out, clean = tiny_run
    capsys.readouterr()
    assert directau(["eval", "--checkpoint", str(out), "--data", clean, "--split", "test"]) == 0
    return checks.read_run(out, capsys.readouterr().out)


def test_checks_pass_on_a_real_run(tiny_run, capsys):
    run = _read(tiny_run, capsys)
    assert checks.check_run(run, 2, 0.0, reference=_read(tiny_run, capsys)) == []


def test_checks_reject_a_tampered_manifest(tiny_run, capsys):
    run = _read(tiny_run, capsys)
    run["manifest"]["metrics"]["geometry"]["l_uniform_item"] += 1e-15
    assert checks.check_geometry_roundtrip(run)
    run = _read(tiny_run, capsys)
    run["manifest"]["metrics"]["validation"]["ndcg"]["20"] = 0.001
    assert checks.check_above_untrained(run, untrained_ndcg20=0.001)


def test_checks_reject_a_short_or_non_finite_trace(tiny_run, capsys):
    run = _read(tiny_run, capsys)
    assert checks.check_trace(run["trace"][:-1], 2)
    run["trace"][0]["l_align"] = "nan"
    assert checks.check_trace(run["trace"], 2)


def test_checks_reject_runs_that_disagree(tiny_run, capsys):
    reference, run = _read(tiny_run, capsys), _read(tiny_run, capsys)
    run["trace"][1]["wall_seconds"] = "123"
    assert checks.check_agreement(reference, run) == []
    run["trace"][1]["train_loss"] = "0.5"
    assert checks.check_agreement(reference, run)


def test_benchmark_json_lists_every_metric_on_the_result_line():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    root = {"name": "x", "layer": "cli", "start": 0.0, "end": 1.0, "parent": None, "counts": {}}
    payloads = {cmd: {"spans": [root]} for cmd in ("preprocess", "train", "eval")}
    metrics, _ = tracing.layer_metrics(payloads, {cmd: 1.5 for cmd in payloads})
    traced = set(metrics) - tracing.ZERO_ON_SOME_WORKLOADS | {"trace.missing_wrappers", "trace_overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "train_s", "epoch_s", "eval_s", "peak_rss_mb",
        "val_ndcg20", "test_ndcg20", "l_align", "l_uniform",
    }


def test_a_failing_command_is_reported_as_a_failed_operation(tmp_path, monkeypatch, capsys):
    import run

    broken = run.Workload(*TINY, {"objective": "no_such_objective", "max_epochs": "1"}, frozenset())
    monkeypatch.setattr(run, "WORKLOADS", {"broken": broken})
    monkeypatch.setattr(run, "WORK", tmp_path)
    code = run.main(["--workload", "broken", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert any(line.startswith("FAILED pipeline 0: train exit code") for line in out)
    assert json.loads(out[-1]) == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    assert list(tmp_path.iterdir()) == []


def test_relative_speed_is_the_mean_over_the_interval():
    from hostspeed import SpeedProbe

    probe = SpeedProbe()
    probe.samples = [(0.5, 1.0), (1.0, 0.5), (1.5, 1.0), (3.0, 0.8)]
    assert probe.relative_speed(0.4, 1.6) == pytest.approx(2.5 / 3)
    assert probe.relative_speed(2.8, 2.9) == 0.8  # nearest probe
    with SpeedProbe() as live:
        time.sleep(0.3)
    assert live.samples and all(0.0 < speed < 10.0 for _, speed in live.samples)
