"""Seeded runs reproduce their committed outputs byte for byte.

Four seeded `preprocess -> train -> eval --split test` runs go through
`directau.cli.main` in one fresh interpreter with one BLAS thread, on a
log this module builds. The preprocessed file and its two key maps are
hashed, and so are each run's outputs: train's stdout, embeddings.npz,
manifest.json, the eval JSON and trace.csv with `wall_seconds` blanked.
The same interpreter also preprocesses a benchmark log (GENERATED), whose
clean file has 4-digit IDs, hashes its three files, and runs four more
seeded pipelines on it (GENERATED_RUNS), hashed the same way.
The digests hold for one machine and one set of libraries, so the check
skips where the fingerprint they were written with differs. Whatever the
fingerprint, a CLI run writes the same bytes under any BLAS thread count
the environment asks for.

Regenerate the digests with `python tests/test_seeded_outputs.py --write`;
`--print` writes the same JSON to stdout instead, and `--src DIR` runs
the pipeline from another source tree, so that two trees' digests can be
compared on one machine.
"""

import csv
import hashlib
import io
import json
import os
import platform
import random
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIGESTS = Path(__file__).with_name("seeded_outputs.json")

BASE = {"seed": "3", "d": "32", "lr": "0.01", "batch_size": "100", "max_epochs": "3"}
RUNS = {
    "direct_au-mf": {"objective": "direct_au", "gamma": "1"},
    "bpr-mf": {"objective": "bpr"},
    # small batches: many all-rows Adam steps, so a one-ulp change shows
    "bpr_ds-lgcn2": {"objective": "bpr_ds", "encoder": "lgcn", "layers": "2", "batch_size": "32"},
    "direct_au-early-stop": {
        "objective": "direct_au", "gamma": "0.5", "max_epochs": "30", "patience": "2",
    },
}
PREPROCESSED = ("clean.txt", "clean.txt.users.map", "clean.txt.items.map")
# users, items and seed of the log of perfbench/generate.py preprocessed under "generated"
GENERATED = (1500, 1100, 7)
GENERATED_BASE = {**BASE, "seed": "7", "batch_size": "256"}
GENERATED_RUNS = {
    "generated-direct_au-mf": {"objective": "direct_au", "gamma": "1"},
    "generated-bpr-mf": {"objective": "bpr"},
    "generated-bpr_ds-lgcn2": {"objective": "bpr_ds", "encoder": "lgcn", "layers": "2"},
    "generated-direct_au-early-stop": {
        "objective": "direct_au", "gamma": "0.5", "lr": "0.05", "max_epochs": "30", "patience": "1",
    },
}
OUTPUTS = ("train.stdout", "embeddings.npz", "manifest.json", "eval.json", "trace.csv")

SCRIPT = """
import contextlib, io, sys
from directau.cli import main

def run(argv, stdout=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    if stdout is not None:
        with open(stdout, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())

run(["preprocess", "--input", "raw.txt", "--output", "clean.txt"])
run(["preprocess", "--input", "generated.txt", "--output", "generated/clean.txt"])
for name in sys.argv[1:]:
    data = "generated/clean.txt" if name.startswith("generated-") else "clean.txt"
    run(["train", "--data", data, "--config", name + ".conf", "--out-dir", name],
        stdout=name + "/train.stdout")
    run(["eval", "--checkpoint", name, "--data", data, "--split", "test"],
        stdout=name + "/eval.json")
"""


def seeded_log(seed=11, n_users=300, n_items=150, groups=3):
    """A raw tab-separated log: each user picks 6 to 20 items, with repeats,
    weighted toward the popular ones and, four times in five, from the
    items of the user's own group (item i's group is i % groups)."""
    rng = random.Random(seed)
    weights = [1.0 / (j + 1) ** 0.7 for j in range(n_items)]
    own = [[w if j % groups == g else 0.0 for j, w in enumerate(weights)] for g in range(groups)]
    return "".join(
        f"user{u}\titem{i}\n"
        for u in range(n_users)
        for _ in range(rng.randint(6, 20))
        for i in rng.choices(range(n_items), own[u % groups] if rng.random() < 0.8 else weights)
    )


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint():
    """What the digests depend on besides the code, in the order a
    mismatch is reported."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # TypeError: a numpy without mode="dicts"
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu": cpu_model(),
    }


def trace_without_wall_seconds(path):
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({**row, "wall_seconds": ""} for row in rows)
    return out.getvalue().encode()


def run_digests(work, src=SRC):
    """Run the seeded pipeline in the empty directory `work`, importing
    `directau` from the directory `src`; the digests of the preprocessed
    files, under "preprocess" and "preprocess-generated", and of each run's
    outputs."""
    (work / "raw.txt").write_text(seeded_log(), encoding="utf-8")
    generate = runpy.run_path(str(ROOT / "perfbench" / "generate.py"))["generate"]
    generate(*GENERATED, work / "generated.txt")
    (work / "generated").mkdir()
    runs = {name: {**BASE, **overrides} for name, overrides in RUNS.items()}
    runs.update({name: {**GENERATED_BASE, **o} for name, o in GENERATED_RUNS.items()})
    for name, cfg in runs.items():
        (work / f"{name}.conf").write_text(
            "".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8"
        )
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run([sys.executable, "-c", SCRIPT, *runs], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr

    def digest(path):
        data = trace_without_wall_seconds(path) if path.name == "trace.csv" else path.read_bytes()
        return hashlib.sha256(data).hexdigest()

    digests = {
        "preprocess": {out: digest(work / out) for out in PREPROCESSED},
        "preprocess-generated": {out: digest(work / "generated" / out) for out in PREPROCESSED},
    }
    digests.update({name: {out: digest(work / name / out) for out in OUTPUTS} for name in runs})
    return digests


def test_seeded_runs_match_committed_digests(tmp_path):
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = fingerprint()
    for field, recorded in committed["fingerprint"].items():
        if here.get(field) != recorded:
            pytest.skip(f"digests were written with {field} {recorded!r}, here {here.get(field)!r}")
    assert run_digests(tmp_path) == committed["digests"]


def test_cli_runs_blas_on_one_thread(tmp_path):
    # OpenBLAS at 2 threads gives this shape's short last batch other last
    # bits than at 1 thread; the CLI runs BLAS on one thread whatever the
    # environment asks for, so both runs write the same directory
    from directau.data import (
        load_interactions, preprocess, read_id_pairs, split, write_interactions,
    )

    raw, clean, conf = tmp_path / "raw.txt", tmp_path / "clean.txt", tmp_path / "run.conf"
    raw.write_text(seeded_log(), encoding="utf-8")
    write_interactions(preprocess(*load_interactions(raw))[0], clean)
    cfg = {**BASE, "objective": "direct_au", "gamma": "1", "d": "64", "max_epochs": "1"}
    conf.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
    assert split(read_id_pairs(clean), int(cfg["seed"])).train.n_pairs % int(cfg["batch_size"])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        )
        done = subprocess.run(
            [sys.executable, "-m", "directau.cli", "train", "--data", str(clean),
             "--config", str(conf), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        runs.append({
            path.name: trace_without_wall_seconds(path) if path.name == "trace.csv"
            else path.read_bytes()
            for path in sorted(out.iterdir())
        })
    assert sorted(runs[0]) == ["embeddings.npz", "manifest.json", "trace.csv"]
    assert runs[0] == runs[1]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"rerun the seeded pipeline and rewrite {DIGESTS.name}")
    mode.add_argument("--print", action="store_true",
                      help=f"rerun the seeded pipeline and write {DIGESTS.name}'s JSON to stdout")
    parser.add_argument("--src", type=Path, default=SRC, metavar="DIR",
                        help="the source tree the runs import directau from (default: %(default)s)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        digests = run_digests(Path(work), args.src.resolve())
    text = json.dumps({"fingerprint": fingerprint(), "digests": digests}, indent=2) + "\n"
    if args.print:
        sys.stdout.write(text)
    else:
        DIGESTS.write_text(text, encoding="utf-8")
        print(f"wrote {DIGESTS}")
