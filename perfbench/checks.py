"""Correctness checks on one benchmark pipeline's outputs.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

GEOMETRY_KEYS = ("l_align", "l_uniform", "l_uniform_user", "l_uniform_item")
# a trained model must beat the untrained Xavier table on validation
# NDCG@20 by at least this factor
MIN_GAIN_OVER_UNTRAINED = 3.0


def read_trace(path: Path) -> list[dict[str, str]]:
    """trace.csv rows as written, so comparisons are on the exact text."""
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_run(train_dir: Path, eval_stdout: str) -> dict:
    """The artifacts a pipeline's checks and metrics read."""
    return {
        "trace": read_trace(train_dir / "trace.csv"),
        "manifest": json.loads((train_dir / "manifest.json").read_text(encoding="utf-8")),
        "eval": json.loads(eval_stdout),
    }


def quality(run: dict) -> dict[str, float]:
    manifest, geometry = run["manifest"], run["manifest"]["metrics"]["geometry"]
    return {
        "val_ndcg20": manifest["metrics"]["validation"]["ndcg"]["20"],
        "test_ndcg20": run["eval"]["ndcg"]["20"],
        "l_align": geometry["l_align"],
        "l_uniform": geometry["l_uniform"],
    }


def check_trace(rows: list[dict[str, str]], max_epochs: int) -> list[str]:
    problems = []
    if len(rows) != max_epochs:
        problems.append(f"trace.csv has {len(rows)} rows, expected {max_epochs}")
    for row in rows:
        bad = [k for k, v in row.items() if not math.isfinite(float(v))]
        if bad:
            problems.append(f"trace.csv epoch {row['epoch']}: non-finite {', '.join(bad)}")
    return problems


def check_geometry_roundtrip(run: dict) -> list[str]:
    """eval on the checkpoint must reproduce the manifest's geometry exactly."""
    saved = run["manifest"]["metrics"]["geometry"]
    return [
        f"eval {key}={run['eval'][key]!r} differs from manifest {saved[key]!r}"
        for key in GEOMETRY_KEYS
        if run["eval"][key] != saved[key]
    ]


def check_above_untrained(run: dict, untrained_ndcg20: float) -> list[str]:
    val = quality(run)["val_ndcg20"]
    if val > MIN_GAIN_OVER_UNTRAINED * untrained_ndcg20:
        return []
    return [f"val_ndcg20={val:.6g} is not above {MIN_GAIN_OVER_UNTRAINED}x untrained {untrained_ndcg20:.6g}"]


def check_agreement(reference: dict, run: dict) -> list[str]:
    """Runs on the same input agree exactly, except on wall time."""
    problems = []
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_seconds"} for r in rows]
    if strip(reference["trace"]) != strip(run["trace"]):
        problems.append("trace.csv differs from the first run's outside wall_seconds")
    if reference["eval"] != run["eval"]:
        problems.append("eval output differs from the first run's")
    if quality(reference) != quality(run):
        problems.append("quality metrics differ from the first run's")
    return problems


def check_run(run: dict, max_epochs: int, untrained_ndcg20: float, reference: dict | None) -> list[str]:
    problems = check_trace(run["trace"], max_epochs)
    problems += check_geometry_roundtrip(run)
    problems += check_above_untrained(run, untrained_ndcg20)
    if reference is not None:
        problems += check_agreement(reference, run)
    return problems
