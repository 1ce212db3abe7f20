"""Benchmark of the documented `directau preprocess -> train -> eval` pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload mf-directau --seed 1 --seconds 40 --trace 0

Each run generates a seeded synthetic log (untimed), then runs the user
pipeline `directau preprocess -> train -> eval --split test` as child
processes of this one, as often as the `--seconds` window allows and at
least three times. The load is a closed loop with one client: one command at
a time, nothing concurrent beyond the BLAS threads, which are pinned below,
and the CPU speed probe.
Every pipeline's outputs are checked (see checks.py); a failed check counts
that pipeline as a failed operation.

The benchmark and its commands run pinned to one CPU, and the four timings
are reported at a reference CPU speed: each command's wall time is scaled by
the relative speed of that CPU while the command ran, which a background
probe measures (see hostspeed.py). On a shared host that removes the swing of
up to 2x in CPU speed that lasts longer than a run; the raw wall times and
the speeds are printed too.

With `--trace 0` the run reports the end-to-end metrics, each a median over
the run's pipelines. With `--trace 1` it runs one untraced pipeline and one
traced pipeline, whose commands call `directau.cli.main` in-process under the
wrappers of tracing.py, and reports per-layer metrics from the spans (raw
wall times); the traced train time against the untraced one, both at the
reference speed, is the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Pinned for this process and the commands it starts. BLAS reads its thread
# count when numpy is first loaded, so this precedes any import of numpy.
BLAS_THREADS = 1
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}
os.environ.update(PINNED_ENV)

import argparse
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from generate import generate
from hostspeed import PERIOD_S, REFERENCE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_PIPELINES = 3
CHILD_TIMEOUT_S = 60.0
# stop starting pipelines that would end later than this after start-up,
# so that a run always ends well inside its 180 s limit
LATEST_END_S = 150.0


@dataclass(frozen=True)
class Workload:
    n_users: int
    n_items: int
    config: dict[str, str]
    spans: frozenset[str]  # wrapped functions the traced run must reach


_COMMON = {"d": "64", "lr": "1e-2", "batch_size": "256"}
_BASE_SPANS = frozenset(
    "load_interactions preprocess read_id_pairs split train rank_eval geometry "
    "adam_step write_embeddings read_embeddings".split()
)
# Sized so that one pipeline takes about 3-10 s on a 2-vCPU machine and a
# 40 s window holds four or more: the spread left after the CPU speed
# adjustment comes from the host, and the median over pipelines damps it.
# The MF workloads train two epochs, so that validation NDCG is past its
# steepest rise and varies little with the seed; patience exceeds
# max_epochs, so every run does the same number of epochs.
WORKLOADS = {
    # half of size S; ranking and geometry dominate; no sampler, no graph, lazy Adam rows
    "mf-directau": Workload(
        3000,
        2250,
        {"objective": "direct_au", "encoder": "mf", "gamma": "1", "max_epochs": "2", "patience": "3"},
        _BASE_SPANS | {"direct_au"},
    ),
    # quarter S; the Python rejection sampler of dynamic negative sampling dominates
    "bprds-mf": Workload(
        1500,
        1125,
        {"objective": "bpr_ds", "encoder": "mf", "ds_candidates": "32", "max_epochs": "2", "patience": "3"},
        _BASE_SPANS | {"bpr", "sample_negatives"},
    ),
    # quarter S; full-graph propagate/backward per batch and dense all-rows Adam dominate
    "lgcn-directau": Workload(
        1500,
        1125,
        {"objective": "direct_au", "encoder": "lgcn", "layers": "2", "gamma": "1", "max_epochs": "1", "patience": "2"},
        _BASE_SPANS | {"direct_au", "graph_build", "propagate", "backward"},
    ),
}


class BenchmarkError(Exception):
    """The run cannot produce metrics at all."""


@dataclass
class Child:
    exit_code: int
    start: float  # perf_counter
    wall_s: float
    max_rss_mb: float
    stdout: str
    speed: float = 1.0  # mean relative CPU speed while it ran

    @property
    def ref_s(self) -> float:
        """Wall time at the reference CPU speed."""
        return self.wall_s * self.speed


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(argv: list[str], log: Path) -> Child:
    """Run one command to completion; wall time and its own peak RSS.

    os.wait4 gives the rusage of exactly this child; RUSAGE_CHILDREN would
    report the maximum over every child waited on so far.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, wall, usage.ru_maxrss / 1024.0, log.with_suffix(".out").read_text("utf-8"))


class Bench:
    """One benchmark run: its inputs, its operations and their outcomes."""

    def __init__(self, name: str, seed: int, work: Path, probe: SpeedProbe):
        self.name, self.workload, self.seed, self.work, self.probe = name, WORKLOADS[name], seed, work, probe
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops = 0
        self.notes: list[str] = []
        self.raw = work / "raw.tsv"
        self.raw_sha256 = generate(self.workload.n_users, self.workload.n_items, seed, self.raw)
        self.conf = work / "run.conf"
        cfg = {**_COMMON, **self.workload.config, "seed": str(seed)}
        self.conf.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
        self.max_epochs = int(cfg["max_epochs"])
        self.clean_sha256: str | None = None
        self.data_stats = ""
        self.reference: dict | None = None
        self.untrained_ndcg20: float | None = None

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def directau(self, args: list[str], log: str, spans: Path | None = None) -> Child:
        if spans is None:
            argv = [sys.executable, "-m", "directau.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans), *args]
        child = run_child(argv, self.work / log)
        child.speed = self.probe.relative_speed(child.start, child.start + child.wall_s)
        return child

    def untrained(self, clean: Path) -> float:
        """Validation NDCG@20 of the untrained Xavier table, the floor to beat."""
        from directau.data import read_id_pairs, split
        from directau.encoders import init_xavier
        from directau.evaluation import rank_eval

        data = read_id_pairs(clean)
        ds = split(data, seed=self.seed)
        table = init_xavier(data.n_users, data.n_items, int(_COMMON["d"]), self.seed)
        return rank_eval(table, ds, "validation", ks=(20,)).ndcg_at[20]

    def pipeline(self, tag: str, spans_dir: Path | None = None) -> dict | None:
        """One checked `preprocess -> train -> eval`.

        Returns its commands and outputs, or None when a command failed or
        its outputs cannot be read; failed checks are recorded either way.
        """
        clean, out_dir = self.work / f"clean-{tag}.txt", self.work / f"run-{tag}"
        steps = {
            "preprocess": ["--input", str(self.raw), "--output", str(clean)],
            "train": ["--data", str(clean), "--config", str(self.conf), "--out-dir", str(out_dir)],
            "eval": ["--checkpoint", str(out_dir), "--data", str(clean), "--split", "test", "--ks", "10,20,50"],
        }
        children: dict[str, Child] = {}
        problems: list[str] = []
        for command, args in steps.items():
            spans = spans_dir / f"{command}.json" if spans_dir else None
            child = children[command] = self.directau([command, *args], f"{command}-{tag}", spans)
            if child.exit_code != 0:
                problems.append(f"{command} exit code {child.exit_code}")
                break
            if command == "preprocess":
                digest = _sha256(clean)
                self.clean_sha256 = self.clean_sha256 or digest
                if digest != self.clean_sha256:
                    problems.append("preprocessed file differs from the first pipeline's")
                if self.untrained_ndcg20 is None:
                    self.data_stats = child.stdout.strip()
                    self.untrained_ndcg20 = self.untrained(clean)
        result = None
        if len(children) == len(steps) and children["eval"].exit_code == 0:
            try:
                run = checks.read_run(out_dir, children["eval"].stdout)
                problems += checks.check_run(run, self.max_epochs, self.untrained_ndcg20, self.reference)
                # epochs run inside train, so they take its speed
                epochs = [float(r["wall_seconds"]) * children["train"].speed for r in run["trace"]]
                result = {"run": run, **children, "epoch_s": sum(epochs) / len(epochs)}
                self.reference = self.reference or run
            except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
        self.record(f"pipeline {tag}", problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result


def measure_untraced(bench: Bench, seconds: float, started: float) -> dict[str, tuple[float, str]]:
    # repeat the pipeline while the next one is expected to end inside the window
    window = time.perf_counter()
    done: list[dict] = []
    last = 0.0
    while len(done) < MIN_PIPELINES or time.perf_counter() - window + last <= seconds:
        if time.perf_counter() - started + last > LATEST_END_S:
            break
        t0 = time.perf_counter()
        result = bench.pipeline(str(len(done)))
        last = time.perf_counter() - t0
        if result is None:
            break
        done.append(result)
    if not done:
        raise BenchmarkError("no pipeline completed")
    timings = {
        "setup_s": [p["preprocess"].ref_s for p in done],
        "train_s": [p["train"].ref_s for p in done],
        "epoch_s": [p["epoch_s"] for p in done],
        "eval_s": [p["eval"].ref_s for p in done],
    }
    metrics = {name: (statistics.median(values), "s") for name, values in timings.items()}
    rss = [max(p[c].max_rss_mb for c in ("preprocess", "train", "eval")) for p in done]
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    metrics.update({k: (v, "1") for k, v in checks.quality(done[0]["run"]).items()})
    for name, values in timings.items():
        listed = " ".join(f"{v:.3f}" for v in values)
        bench.notes.append(f"samples: {name} over {len(done)} pipelines: {listed}")
    for command in ("preprocess", "train", "eval"):
        raw = " ".join(f"{p[command].wall_s:.3f}" for p in done)
        speeds = " ".join(f"{p[command].speed:.3f}" for p in done)
        bench.notes.append(f"raw: {command} wall s {raw}; relative cpu speed {speeds}")
    return metrics


def expectations(name: str, m: dict[str, tuple[float, str]]) -> list[tuple[str, bool]]:
    """What each workload was chosen to show, confirmed from the trace."""
    v = {k: val for k, (val, _) in m.items()}
    layers = {k: v[f"{k}.self_s"] for k in tracing.LAYERS}
    out = []
    if name == "mf-directau":
        out.append(("evaluation has the largest layer self time", max(layers, key=layers.get) == "evaluation"))
    if name == "bprds-mf":
        others = [t for k, t in layers.items() if k != "losses"]
        out.append(("losses.sample_negatives_s exceeds every other layer's self time", v["losses.sample_negatives_s"] > max(others)))
    if name == "lgcn-directau":
        graph = v["encoders.propagate_s"] + v["encoders.backward_s"] + v["optim.adam_step_s"]
        others = [t for k, t in layers.items() if k not in ("encoders", "optim")]
        out.append(("propagate + backward + adam_step exceeds every other layer's self time", graph > max(others)))
    else:
        out.append(("encoders.propagate_calls is 0", v["encoders.propagate_calls"] == 0))
    return out


def measure_traced(bench: Bench) -> dict[str, tuple[float, str]]:
    untraced = bench.pipeline("untraced")
    spans_dir = bench.work / "spans"
    spans_dir.mkdir()
    traced = bench.pipeline("traced", spans_dir)
    if untraced is None or traced is None:
        raise BenchmarkError("a pipeline of the traced run failed")
    payloads = {cmd: json.loads((spans_dir / f"{cmd}.json").read_text("utf-8")) for cmd in ("preprocess", "train", "eval")}
    walls = {cmd: traced[cmd].wall_s for cmd in payloads}
    metrics, called = tracing.layer_metrics(payloads, walls)
    missing = sorted(bench.workload.spans - called)
    metrics["trace.missing_wrappers"] = (len(missing), "count")
    traced_train, untraced_train = traced["train"].ref_s, untraced["train"].ref_s
    metrics["trace_overhead_ratio"] = ((traced_train - untraced_train) / untraced_train, "1")

    problems = [f"traced {p['package']} is not under {SRC}" for p in payloads.values() if not Path(p["package"]).is_relative_to(SRC)]
    for payload in payloads.values():
        problems += tracing.nesting_problems(payload["spans"])
    bench.record("trace nesting", problems)
    bench.notes += [f"missing: wrapper {fn} was never called on {bench.name}" for fn in missing]
    bench.notes += [f"expect: {text}: {'yes' if ok else 'NO'}" for text, ok in expectations(bench.name, metrics)]
    return metrics


def environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "directau").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "speed_probe": {"period_s": PERIOD_S, "reference_s": REFERENCE_S},
        "blas_threads": BLAS_THREADS,
        "pinned_env": PINNED_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind as on an error: the running command is killed and
    # waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "directau" / "cli.py").is_file():
        print(f"error: no directau sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # this thread, the probe thread and every command share one CPU, whose
    # speed the probe measures
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    error = None
    try:
        with SpeedProbe() as probe:
            bench = Bench(args.workload, args.seed, work, probe)
            try:
                metrics = measure_traced(bench) if args.trace else measure_untraced(bench, args.seconds, started)
            except BenchmarkError as exc:
                error, metrics = exc, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}; closed loop, one client, one command at a time")
    print(f"input raw.tsv sha256 {bench.raw_sha256}")
    print(f"input preprocessed sha256 {bench.clean_sha256}; {bench.data_stats}")
    if bench.untrained_ndcg20 is not None:
        print(f"untrained validation ndcg@20 {bench.untrained_ndcg20:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for line in bench.notes:
        print(line)
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"checks: {bench.attempted - bench.failed_ops}/{bench.attempted} operations passed")
    print("environment " + json.dumps(environment(len(cpus), cpu)))
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    reported = [k for k in metrics if k not in tracing.ZERO_ON_SOME_WORKLOADS]
    print(
        json.dumps(
            {
                "correct": error is None and bench.failed_ops == 0,
                "attempted": bench.attempted,
                "failed": bench.failed_ops,
                "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
            }
        )
    )
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
