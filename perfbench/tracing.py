"""Span recorder and layer wrappers for the benchmark's traced run.

The wrappers are installed from outside the program: each public function a
layer exposes is replaced, on the module attribute its callers resolve, by a
function that records a span around the original call and counts the work
it was handed. Nothing in the `directau` package knows about tracing.

Run as a script, it executes one `directau` command in-process with the
wrappers installed and writes the spans once, as JSON, when it ends:

    python3 perfbench/tracing.py SPANS.json train --data ... --config ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; one thread, so spans nest strictly."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, layer: str) -> Span:
        span = Span(name, layer, 0.0, parent=self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()


# modules of the directau package that the wrappers attribute time to
LAYERS = ("data", "encoders", "losses", "optim", "evaluation", "training", "cli")

# Times of functions that some workload never calls: exactly 0 on every run
# of that workload, so they stay in the printed report, off the result line.
ZERO_ON_SOME_WORKLOADS = frozenset(
    "encoders.propagate_s encoders.backward_s encoders.graph_build_s "
    "losses.direct_au_s losses.bpr_s losses.sample_negatives_s".split()
)


# Work counters, computed from a call's bound arguments and its result.
def _graph_flops(a: dict, result) -> dict:
    prop = a["self"]
    d = prop.base.d if "grad_user_out" not in a else a["grad_user_out"].shape[1]
    return {"spmm_flops": 2 * prop.adjacency.nnz * d * prop.n_layers}


def _negatives(a: dict, result) -> dict:
    per_row = a["candidates"] if a["strategy"] == "dynamic" else 1
    return {"negatives_drawn": len(a["users"]) * per_row}


def _adam_rows(a: dict, result) -> dict:
    return {"rows_updated": len(a["rows"]), "rows_held": a["params"].shape[0]}


def _items_scored(a: dict, result) -> dict:
    return {"items_scored": result.n_users_evaluated * a["table"].n_items}


def _checkpoint_bytes(a: dict, result) -> dict:
    return {"checkpoint_bytes": os.path.getsize(a["path"])}


# (module, attribute its callers resolve, span name, layer, counter)
TARGETS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("directau.cli", "load_interactions", "load_interactions", "data", None),
    ("directau.cli", "preprocess", "preprocess", "data", None),
    ("directau.cli", "read_id_pairs", "read_id_pairs", "data", None),
    ("directau.cli", "split", "split", "data", None),
    ("directau.cli", "train", "train", "training", None),
    ("directau.cli", "rank_eval", "rank_eval", "evaluation", _items_scored),
    ("directau.cli", "geometry_report", "geometry", "evaluation", None),
    ("directau.training", "rank_eval", "rank_eval", "evaluation", _items_scored),
    ("directau.training", "geometry_report", "geometry", "evaluation", None),
    ("directau.training", "direct_au_loss", "direct_au", "losses", None),
    ("directau.training", "bpr_loss", "bpr", "losses", None),
    ("directau.training", "sample_negatives", "sample_negatives", "losses", _negatives),
    ("directau.training", "adam_step", "adam_step", "optim", _adam_rows),
    ("directau.training", "write_embeddings", "write_embeddings", "encoders", _checkpoint_bytes),
    ("directau.training", "read_embeddings", "read_embeddings", "encoders", None),
    ("directau.encoders", "GraphPropagator.build", "graph_build", "encoders", None),
    ("directau.encoders", "GraphPropagator.propagate", "propagate", "encoders", _graph_flops),
    ("directau.encoders", "GraphPropagator.backward", "backward", "encoders", _graph_flops),
)


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str, counter: Callable | None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound.arguments, result)
        return result

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target; return a function that puts the originals back."""
    saved: list[tuple[object, str, object]] = []
    for module_name, path, name, layer, counter in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patched = classmethod(_wrap(recorder, original.__func__, name, layer, counter))
        else:
            patched = _wrap(recorder, original, name, layer, counter)
        saved.append((owner, attr, original))
        setattr(owner, attr, patched)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(payloads: dict[str, dict], walls: dict[str, float]) -> tuple[dict[str, tuple[float, str]], set[str]]:
    """Per-layer metrics from the spans of traced commands.

    `payloads` maps each command to what run_traced wrote for it, `walls`
    to its process wall time. Returns the metrics as (value, unit) and the
    names of the wrapped functions that were called.
    """
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    cli_self: dict[str, float] = {}
    startup = traced_wall = 0.0
    for command, payload in payloads.items():
        spans = payload["spans"]
        for span, own in zip(spans, self_times(spans)):
            layer_self[span["layer"]] = layer_self.get(span["layer"], 0.0) + own
            if span["parent"] is None:
                cli_self[command] = own
                traced_wall += span["end"] - span["start"]
                startup += walls[command] - (span["end"] - span["start"])
                continue
            name = span["name"]
            seconds[name] = seconds.get(name, 0.0) + span["end"] - span["start"]
            calls[name] = calls.get(name, 0) + 1
            for key, val in span["counts"].items():
                counts[key] = counts.get(key, 0) + val
    s = lambda name: seconds.get(name, 0.0)
    n = lambda name: calls.get(name, 0)
    out = {
        "data.preprocess_s": (s("load_interactions") + s("preprocess"), "s"),
        "data.read_id_pairs_s": (s("read_id_pairs"), "s"),
        "data.split_s": (s("split"), "s"),
        "encoders.propagate_s": (s("propagate"), "s"),
        "encoders.propagate_calls": (n("propagate"), "count"),
        "encoders.backward_s": (s("backward"), "s"),
        "encoders.backward_calls": (n("backward"), "count"),
        "encoders.spmm_flops": (counts.get("spmm_flops", 0), "flop"),
        "encoders.graph_build_s": (s("graph_build"), "s"),
        "encoders.write_embeddings_s": (s("write_embeddings"), "s"),
        "encoders.read_embeddings_s": (s("read_embeddings"), "s"),
        "encoders.checkpoint_bytes": (counts.get("checkpoint_bytes", 0), "bytes"),
        "losses.direct_au_s": (s("direct_au"), "s"),
        "losses.direct_au_calls": (n("direct_au"), "count"),
        "losses.bpr_s": (s("bpr"), "s"),
        "losses.sample_negatives_s": (s("sample_negatives"), "s"),
        "losses.sample_negatives_calls": (n("sample_negatives"), "count"),
        "losses.negatives_drawn": (counts.get("negatives_drawn", 0), "count"),
        "optim.adam_step_s": (s("adam_step"), "s"),
        "optim.adam_step_calls": (n("adam_step"), "count"),
        "optim.rows_updated": (counts.get("rows_updated", 0), "count"),
        "optim.row_fraction": (counts.get("rows_updated", 0) / max(counts.get("rows_held", 0), 1), "1"),
        "evaluation.rank_eval_s": (s("rank_eval"), "s"),
        "evaluation.rank_eval_calls": (n("rank_eval"), "count"),
        "evaluation.items_scored": (counts.get("items_scored", 0), "count"),
        "evaluation.geometry_s": (s("geometry"), "s"),
        "evaluation.geometry_calls": (n("geometry"), "count"),
        "training.train_s": (s("train"), "s"),
        "training.batches": (n("direct_au") + n("bpr"), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    for command in ("preprocess", "train", "eval"):
        out[f"cli.{command}.self_s"] = (cli_self.get(command, 0.0), "s")
    out["cli.startup_s"] = (startup, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    return out, set(calls)


def nesting_problems(spans: list[dict]) -> list[str]:
    """Spans must nest strictly, or self times would not add up to the wall."""
    problems = []
    last_end: dict[int | None, float] = {}  # per parent, where its latest child ended
    for k, s in enumerate(spans):
        if s["end"] < s["start"]:
            problems.append(f"span {k} {s['name']} ends before it starts")
        if s["parent"] is not None:
            p = spans[s["parent"]]
            if s["start"] < p["start"] or s["end"] > p["end"]:
                problems.append(f"span {k} {s['name']} is not inside its parent {p['name']}")
        if s["start"] < last_end.get(s["parent"], -float("inf")):
            problems.append(f"span {k} {s['name']} overlaps an earlier sibling")
        last_end[s["parent"]] = s["end"]
    return problems


def run_traced(spans_path: str, argv: list[str]) -> int:
    """Run `directau <argv>` in this process under the wrappers; dump spans."""
    import directau.cli as cli

    recorder = Recorder()
    restore = install(recorder)
    try:
        root = recorder.begin(argv[0], "cli")
        try:
            code = cli.main(argv)
        finally:
            recorder.end(root)
    finally:
        restore()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"exit_code": code, "package": cli.__file__, "spans": [asdict(s) for s in recorder.spans]},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
