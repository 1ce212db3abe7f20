"""Command-line pipeline: exit codes, artifacts, determinism."""

import io
import json
import os
import subprocess
import sys
import zipfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import directau
from directau import EmbeddingTable, InteractionSet, init_xavier, write_embeddings
from directau.cli import main
from directau.data import file_sha256, read_id_pairs, split, write_interactions
from directau.evaluation import geometry_report
from directau.training import load_checkpoint
from helpers import naive_uniformity, read_trace, two_cluster_dataset

BASE_CONFIG = """\
# synthetic smoke config
objective = direct_au
gamma = 1
d = 8
lr = 0.02
batch_size = 128
max_epochs = 3
patience = 100
seed = 5
"""


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "interactions.txt"
    write_interactions(two_cluster_dataset(), path)
    return path


def write_config(tmp_path, text=BASE_CONFIG):
    p = tmp_path / "run.conf"
    p.write_text(text)
    return p


def read_record(run):
    return json.loads((run / "manifest.json").read_text(encoding="utf-8"))


def copy_run(run, dest, record=None):
    """`run`'s dump and record copied into the new directory `dest`;
    `record`, a JSON value or raw bytes, replaces the record when given."""
    dest.mkdir()
    (dest / "embeddings.npz").write_bytes((run / "embeddings.npz").read_bytes())
    if record is None:
        record = (run / "manifest.json").read_bytes()
    elif not isinstance(record, bytes):
        record = json.dumps(record).encode()
    (dest / "manifest.json").write_bytes(record)
    return dest


def same_counts_dataset(path):
    """`data_file`'s dataset with one pair of user 0 moved to an item it
    never had: the same entity counts, another split."""
    data = two_cluster_dataset()
    items = data.items.copy()
    items[0] = next(j for j in range(data.n_items) if j not in items[data.users == 0])
    write_interactions(
        InteractionSet.from_pairs(data.users, items, data.n_users, data.n_items), path
    )
    return path


class TestPreprocessCommand:
    def test_stats_line_and_sidecars(self, tmp_path, capsys):
        inp = tmp_path / "raw.txt"
        inp.write_text(
            "".join(f"u{u}\ti{i}\n" for u in range(6) for i in range(5))
        )
        out = tmp_path / "clean.txt"
        rc = main(["preprocess", "--input", str(inp), "--output", str(out)])
        assert rc == 0
        stats = capsys.readouterr().out.strip()
        assert stats == "users=6 items=5 interactions=30 density=1"
        assert out.exists()
        assert (tmp_path / "clean.txt.users.map").exists()
        assert (tmp_path / "clean.txt.items.map").exists()

    def test_k_core_1_is_dedup_passthrough(self, tmp_path, capsys):
        inp = tmp_path / "raw.txt"
        inp.write_text("a\tx\na\tx\nb\ty\n")
        out = tmp_path / "clean.txt"
        rc = main(["preprocess", "--input", str(inp), "--output", str(out), "--k-core", "1"])
        assert rc == 0
        assert "interactions=2" in capsys.readouterr().out
        assert out.read_text() == "0\t0\n1\t1\n"

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # without the rule "\ufeffu1" is a user of its own
        text = "u1\ti1\nu1\ti2\nu2\ti1\nu2\ti2\n".encode()
        outputs = []
        for name, raw in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / name).mkdir()
            inp, out = tmp_path / name / "raw.txt", tmp_path / name / "clean.txt"
            inp.write_bytes(raw)
            assert main(["preprocess", "--input", str(inp), "--output", str(out),
                         "--k-core", "1"]) == 0
            outputs.append([capsys.readouterr().out] + [
                (tmp_path / name / f"clean.txt{ext}").read_bytes()
                for ext in ("", ".users.map", ".items.map")
            ])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("users=2 ")

    def test_missing_input_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "clean.txt"
        rc = main(["preprocess", "--input", str(tmp_path / "nope"), "--output", str(out)])
        assert rc == 3
        assert not out.exists()
        assert "data error" in capsys.readouterr().err

    def test_failed_write_keeps_the_previous_outputs(self, tmp_path, monkeypatch):
        import directau.data as data_mod

        inp = tmp_path / "raw.txt"
        inp.write_text("".join(f"u{u}\ti{i}\n" for u in range(6) for i in range(5)))
        out = tmp_path / "clean.txt"
        args = ["preprocess", "--input", str(inp), "--output", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        real = data_mod.open_atomic

        class FailsPartway:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2 + 1])
                raise OSError("disk full")

        @contextmanager
        def open_failing(path):
            with real(path) as fh:
                yield FailsPartway(fh)

        inp.write_text("".join(f"v{u}\tj{i}\n" for u in range(5) for i in range(7)))
        monkeypatch.setattr(data_mod, "open_atomic", open_failing)
        assert main(args) == 3
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(after) == set(before)
        for name in ("clean.txt", "clean.txt.users.map", "clean.txt.items.map"):
            assert after[name] == before[name]

    def test_comma_delimiter(self, tmp_path, capsys):
        inp = tmp_path / "raw.csv"
        inp.write_text("".join(f"u{u},i{i},4.0,123\n" for u in range(5) for i in range(5)))
        out = tmp_path / "clean.csv"
        rc = main(["preprocess", "--input", str(inp), "--output", str(out),
                   "--delimiter", "comma"])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "0\t0"

    def test_comma_input_gives_a_clean_file_that_trains(self, tmp_path, capsys):
        inp = tmp_path / "raw.csv"
        inp.write_text("".join(f"u{u},i{(u + t) % 40},5\n" for u in range(60) for t in range(10)))
        out = tmp_path / "clean.txt"
        assert main(["preprocess", "--input", str(inp), "--output", str(out),
                     "--delimiter", "comma"]) == 0
        assert all(line.count("\t") == 1 for line in out.read_text().splitlines())
        assert (tmp_path / "clean.txt.users.map").read_text().startswith("u0,0\n")
        assert (tmp_path / "clean.txt.items.map").read_text().startswith("i0,0\n")
        cfg = write_config(tmp_path, BASE_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        assert main(["train", "--data", str(out), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == 0


class TestTrainCommand:
    def test_missing_gamma_is_config_error(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG.replace("gamma = 1\n", ""))
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, BASE_CONFIG + "learningrate = 0.1\n")
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        assert "learningrate" in capsys.readouterr().err

    def test_lgcn_without_scipy_is_config_error(self, tmp_path, data_file, monkeypatch, capsys):
        # as in test_encoders' missing-kernel case: no scipy to be found
        import importlib.util

        from directau.encoders import _sparsetools

        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
        _sparsetools.cache_clear()
        try:
            rc = main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                       "--out-dir", str(tmp_path / "run"),
                       "--set", "encoder=lgcn", "--set", "layers=1"])
        finally:
            _sparsetools.cache_clear()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "scipy" in err and err.count("\n") == 1
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_other_import_errors_are_not_config_errors(self, tmp_path, data_file, monkeypatch):
        # only a missing sparse kernel is a config error; a module that
        # cannot be imported is a fault of the installation, and raises
        monkeypatch.setitem(sys.modules, "directau.training", None)
        with pytest.raises(ImportError, match="directau.training"):
            main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                  "--out-dir", str(tmp_path / "run")])

    def test_artifacts_and_manifest(self, tmp_path, data_file):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--out-dir", str(out)])
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {"embeddings.npz", "trace.csv", "manifest.json"}
        manifest = read_record(out)
        assert list(manifest) == [
            "config", "dataset", "best_epoch", "epochs_run", "metrics", "embeddings_sha256"
        ]
        assert manifest["embeddings_sha256"] == file_sha256(out / "embeddings.npz")
        assert manifest["config"]["objective"] == "direct_au"
        assert manifest["dataset"]["sha256"] == file_sha256(data_file)
        assert manifest["dataset"]["n_users"] == 200
        assert manifest["dataset"]["n_items"] == 100
        assert len(manifest["dataset"]["sha256"]) == 64
        assert manifest["best_epoch"] >= 1
        geo = manifest["metrics"]["geometry"]
        assert 0.0 <= geo["l_align"] <= 4.0
        assert -8.0 <= geo["l_uniform"] <= 0.0

    def test_determinism_identical_traces(self, tmp_path, data_file):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(data_file), "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
            outs.append((out / "trace.csv").read_text().splitlines())
        # all columns except the wall-clock measurement must match exactly
        for ra, rb in zip(*outs):
            assert ra.rsplit(",", 1)[0] == rb.rsplit(",", 1)[0]
        # the record names no file of its run directory, so it does not depend on --out-dir
        for name in ("embeddings.npz", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_byte_order_mark_is_dropped(self, tmp_path, data_file):
        # the first line is a key, which the mark would otherwise lead
        text = BASE_CONFIG.split("\n", 1)[1].replace("max_epochs = 3", "max_epochs = 1")
        records = []
        for name, raw in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            cfg = tmp_path / f"{name}.conf"
            cfg.write_bytes(raw)
            assert main(["train", "--data", str(data_file), "--config", str(cfg),
                         "--out-dir", str(tmp_path / name)]) == 0
            records.append((tmp_path / name / "manifest.json").read_bytes())
        assert records[0] == records[1]

    def test_set_overrides_config(self, tmp_path, data_file):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--out-dir", str(out), "--set", "max_epochs=1", "--set", "seed=9"])
        assert rc == 0
        config = read_record(out)["config"]
        assert config["max_epochs"] == "1" and config["seed"] == "9"

    @pytest.mark.parametrize("override", ["max_epochs", "max_epochs 1", ""])
    def test_set_without_equals_is_config_error(self, tmp_path, data_file, capsys, override):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(cfg),
                     "--out-dir", str(out), "--set", " seed = 9 ", "--set", override]) == 2
        assert f"--set: expected key=value, got {override!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        ["lr=nan", "lr=inf", "gamma=nan", "gamma=inf", "weight_decay=inf", "weight_decay=nan",
         "layers=-3"],
    )
    def test_non_finite_or_negative_value_is_config_error(
        self, tmp_path, data_file, capsys, override
    ):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and override.split("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, override",
        # the first array each asks for is about an EiB, past any address
        # space, so the allocation fails at once without touching memory
        [(BASE_CONFIG, "d=1000000000000000"),
         (BASE_CONFIG.replace("direct_au\ngamma = 1", "bpr_ds"), "ds_candidates=1000000000000000")],
        ids=["d", "ds_candidates"],
    )
    def test_failed_allocation_is_data_error(self, tmp_path, data_file, capsys, text, override):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path, text)),
                     "--out-dir", str(out), "--set", override]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: Unable to allocate") and err.count("\n") == 1
        assert not (out / "manifest.json").exists()

    def test_direct_au_batch_of_one_is_config_error(self, tmp_path, data_file, capsys):
        # every batch would be a singleton, with no pair for the uniformity
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--set", "batch_size=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: objective=direct_au requires batch_size >= 2")
        assert not out.exists()

    @pytest.mark.parametrize("max_epochs", [3, 0], ids=["trained", "untrained"])
    def test_train_measures_nothing_itself(self, tmp_path, data_file, monkeypatch, max_epochs):
        # train() measures the kept table; the command only records it
        import directau.cli as cli_mod
        import directau.training as training_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("cmd_train measured the table itself")

        calls = {"rank_eval": 0, "geometry_report": 0}

        def counted(name):
            real = getattr(training_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli_mod, name, forbidden)
            monkeypatch.setattr(training_mod, name, counted(name))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--set", f"max_epochs={max_epochs}"]) == 0
        epochs_run = json.loads((out / "manifest.json").read_text())["epochs_run"]
        assert epochs_run == max_epochs
        assert calls == dict.fromkeys(calls, max(epochs_run, 1))

    def test_degenerate_geometry_keeps_trace_and_checkpoint(
        self, tmp_path, data_file, monkeypatch, capsys
    ):
        import directau.training as training_mod
        from directau.errors import DegenerateEmbedding

        real = training_mod.geometry_report
        calls = {"n": 0}

        def degenerate_on_epoch_2(table, interactions):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DegenerateEmbedding("zero-norm row")
            return real(table, interactions)

        monkeypatch.setattr(training_mod, "geometry_report", degenerate_on_epoch_2)
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                   "--out-dir", str(out)])
        assert rc == 4
        assert "zero-norm row" in capsys.readouterr().err
        assert [t.epoch for t in read_trace(out / "trace.csv")] == [1]
        record = read_record(out)
        assert record["config"]["seed"] == "5"
        assert (record["best_epoch"], record["epochs_run"], record["metrics"]) == (1, 1, None)
        monkeypatch.undo()
        assert main(["eval", "--checkpoint", str(out), "--data", str(data_file)]) == 0

    def test_overflowing_gradient_is_a_diverged_run(self, tmp_path, data_file, capsys):
        # gamma = 1e200 gives gradient entries whose squares overflow float64;
        # the run stops at once, with one line on stderr and no warning
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--set", "gamma=1e200"]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("training diverged: epoch 1: ") and "square overflows" in line
        record = read_record(out)
        assert (record["best_epoch"], record["epochs_run"], record["metrics"]) == (0, 0, None)

    @pytest.mark.parametrize("objective, encoder", [
        ("direct_au", "mf"), ("bpr", "mf"), ("bpr_ds", "mf"), ("direct_au", "lgcn"),
    ])
    def test_overflowing_step_writes_one_stderr_line(self, tmp_path, data_file, capsys,
                                                     objective, encoder):
        # lr = 1e200 overflows the next batch's row norms (DirectAU) or
        # scores (BPR); numpy's overflow warnings are errors under pytest
        text = BASE_CONFIG if objective == "direct_au" else BASE_CONFIG.replace("gamma = 1\n", "")
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path, text)),
                     "--out-dir", str(tmp_path / "run"), "--set", "lr=1e200",
                     "--set", f"objective={objective}", "--set", f"encoder={encoder}",
                     "--set", "layers=2"]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("training diverged: epoch 1: ")

    def test_diverged_rerun_writes_its_own_record(self, tmp_path, data_file, monkeypatch):
        import directau.training as training_mod
        from directau.errors import DegenerateEmbedding

        out = tmp_path / "run"
        args = ["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                "--out-dir", str(out)]
        assert main(args + ["--set", "seed=3"]) == 0
        assert read_record(out)["config"]["seed"] == "3"

        def degenerate(table, interactions):
            raise DegenerateEmbedding("zero-norm row")

        monkeypatch.setattr(training_mod, "geometry_report", degenerate)
        assert main(args + ["--set", "seed=4"]) == 4
        record = read_record(out)
        assert record["config"]["seed"] == "4"
        # the initial table, since not one epoch was measured
        assert (record["best_epoch"], record["epochs_run"], record["metrics"]) == (0, 0, None)
        monkeypatch.undo()
        assert main(["eval", "--checkpoint", str(out), "--data", str(data_file)]) == 0

    def test_diverged_run_checks_the_dataset(self, tmp_path, data_file, monkeypatch, capsys):
        import directau.training as training_mod
        from directau.errors import DegenerateEmbedding

        def degenerate(table, interactions):
            raise DegenerateEmbedding("zero-norm row")

        monkeypatch.setattr(training_mod, "geometry_report", degenerate)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out)]) == 4
        monkeypatch.undo()
        other = same_counts_dataset(tmp_path / "other.txt")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out), "--data", str(other)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(other) in err and "manifest.json" in err
        assert main(["eval", "--checkpoint", str(out), "--data", str(data_file)]) == 0

    def test_failed_checkpoint_write_keeps_the_previous_file(
        self, tmp_path, data_file, monkeypatch
    ):
        out = tmp_path / "run"
        args = ["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                "--out-dir", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        real = np.lib.format.write_array

        def fails_partway(fh, rows, **kw):
            real(fh, rows[:5], **kw)
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", fails_partway)
        assert main(args + ["--set", "seed=6"]) == 3
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) == {"trace.csv", "embeddings.npz", "manifest.json"}
        assert after["embeddings.npz"] == before["embeddings.npz"]
        assert after["trace.csv"] == before["trace.csv"]
        assert after["manifest.json"] == before["manifest.json"]
        monkeypatch.undo()
        assert main(["eval", "--checkpoint", str(out), "--data", str(data_file)]) == 0

    @pytest.mark.parametrize("write", ["write_embeddings", "emit_trace", "file_sha256"],
                             ids=["dump", "trace", "record"])
    def test_failed_write_never_leaves_a_mixed_run_directory(
        self, tmp_path, data_file, monkeypatch, capsys, write
    ):
        # each of save_checkpoint's writes fails in turn: the directory is
        # then the previous run's, or eval rejects it
        import directau.training as training_mod

        out = tmp_path / "run"
        args = ["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                "--out-dir", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(training_mod, write, disk_full)
        capsys.readouterr()
        assert main(args + ["--set", "seed=6"]) == 3
        assert capsys.readouterr().err == "data error: disk full\n"
        monkeypatch.undo()
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(after) == set(before)
        assert after["manifest.json"] == before["manifest.json"]  # the commit point
        rc = main(["eval", "--checkpoint", str(out), "--data", str(data_file)])
        err = capsys.readouterr().err
        if after == before:
            assert rc == 0
        else:
            assert rc == 3
            assert str(out / "embeddings.npz") in err and str(out / "manifest.json") in err

    def test_bpr_trace_shows_dynamics_signature(self, tmp_path, data_file):
        # pairwise-ranking training first tightens alignment at the cost of
        # uniformity; the emitted trace must show it
        cfg = write_config(
            tmp_path,
            "objective = bpr\nd = 16\nlr = 0.04\nbatch_size = 128\n"
            "max_epochs = 25\npatience = 100\nseed = 0\n",
        )
        out = tmp_path / "run"
        rc = main(["train", "--data", str(data_file), "--config", str(cfg),
                   "--out-dir", str(out)])
        assert rc == 0

        traces = read_trace(out / "trace.csv")
        align = [t.l_align for t in traces]
        uniform = [(t.l_uniform_user + t.l_uniform_item) / 2 for t in traces]
        assert min(align) < align[0]
        assert max(uniform) > uniform[0]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_file):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert main(["train", "--data", str(data_file), "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    return out


# the config echo and best epoch that train wrote as metadata.txt before
# manifest.json became the run's one record
OLD_METADATA = (
    "objective=direct_au\nseed=5\nencoder=mf\nlayers=0\ngamma=1\nd=8\nlr=0.02\n"
    "batch_size=128\nweight_decay=0\nmax_epochs=3\npatience=100\nds_candidates=32\n"
    "best_epoch=3\n"
)


class TestEvalCommand:
    def test_eval_matches_manifest_exactly(self, trained, data_file, capsys):
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(data_file),
                   "--split", "validation"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        manifest = json.loads((trained / "manifest.json").read_text())
        assert report["recall"] == manifest["metrics"]["validation"]["recall"]
        assert report["ndcg"] == manifest["metrics"]["validation"]["ndcg"]
        geometry = manifest["metrics"]["geometry"]
        assert {key: report[key] for key in geometry} == geometry
        assert len(geometry) == 4

    def test_geometry_key_order(self, trained, data_file, capsys):
        geometry = ["l_align", "l_uniform", "l_uniform_user", "l_uniform_item"]
        manifest = json.loads((trained / "manifest.json").read_text())
        assert list(manifest["metrics"]["geometry"]) == geometry
        assert main(["eval", "--checkpoint", str(trained), "--data", str(data_file)]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["recall", "ndcg", *geometry]
        assert main(["probe", "--embeddings", str(trained / "embeddings.npz"),
                     "--interactions", str(data_file)]) == 0
        assert list(json.loads(capsys.readouterr().out)) == geometry

    def test_single_k(self, trained, data_file, capsys):
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(data_file),
                   "--split", "test", "--ks", "20"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["recall"]) == {"20"} and set(report["ndcg"]) == {"20"}
        assert 0.0 <= report["ndcg"]["20"] <= 1.0

    def test_determinism(self, trained, data_file, capsys):
        args = ["eval", "--checkpoint", str(trained), "--data", str(data_file)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_other_dataset_with_same_counts_is_data_error(self, trained, data_file, tmp_path, capsys):
        other = same_counts_dataset(tmp_path / "other.txt")
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(other)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(trained), "--data", str(data_file)]) == 0

    def test_fewer_users_with_a_matching_digest_is_data_error(self, trained, data_file,
                                                              tmp_path, capsys):
        # the entity counts have to agree even where the recorded SHA-256
        # does: the copy's record names the smaller file's digest
        data = two_cluster_dataset()
        keep = data.users != data.users.max()
        fewer = tmp_path / "fewer-users.txt"
        write_interactions(
            InteractionSet.from_pairs(data.users[keep], data.items[keep]), fewer
        )
        record = read_record(trained)
        record["dataset"]["sha256"] = file_sha256(fewer)
        run = copy_run(trained, tmp_path / "fewer-run", record)
        rc = main(["eval", "--checkpoint", str(run), "--data", str(fewer)])
        assert rc == 3
        assert "disagree on entity counts" in capsys.readouterr().err
        assert main(["eval", "--checkpoint", str(trained), "--data", str(data_file)]) == 0

    def test_torn_checkpoint_is_data_error(self, trained, data_file, tmp_path, capsys):
        # run B's dump beside run A's record, as a crash between the two
        # writes of save_checkpoint leaves them
        other = tmp_path / "b"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(other), "--set", "seed=6"]) == 0
        torn = copy_run(other, tmp_path / "torn", (trained / "manifest.json").read_bytes())
        assert main(["eval", "--checkpoint", str(torn), "--data", str(data_file)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err
        assert str(torn / "embeddings.npz") in err and str(torn / "manifest.json") in err

    def test_record_without_dump_digest_is_data_error(self, trained, data_file, tmp_path,
                                                      capsys):
        record = read_record(trained)
        del record["embeddings_sha256"]
        run = copy_run(trained, tmp_path / "run", record)
        assert main(["eval", "--checkpoint", str(run), "--data", str(data_file)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(run / "manifest.json") in err
        assert "embeddings_sha256" in err

    def test_text_dump_run_directory_is_data_error(self, data_file, tmp_path, capsys):
        # a run directory from before the binary dump holds embeddings.txt
        old = tmp_path / "old"
        old.mkdir()
        (old / "embeddings.txt").write_text("200 100 2\n" + "0.5 0.5\n" * 300)
        (old / "metadata.txt").write_text(OLD_METADATA)
        assert main(["eval", "--checkpoint", str(old), "--data", str(data_file)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "embeddings.npz" in err

    def test_metadata_txt_run_directory_is_data_error(self, trained, data_file, tmp_path,
                                                      capsys):
        # a run directory from before the one record: a binary dump beside
        # metadata.txt, and no manifest (a diverged run left none)
        old = tmp_path / "old"
        old.mkdir()
        (old / "embeddings.npz").write_bytes((trained / "embeddings.npz").read_bytes())
        digest = file_sha256(old / "embeddings.npz")
        (old / "metadata.txt").write_text(OLD_METADATA + f"embeddings_sha256={digest}\n")
        assert main(["eval", "--checkpoint", str(old), "--data", str(data_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(old / "manifest.json") in err
        assert err.count("\n") == 1

    def test_dimension_mismatch(self, trained, tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("0\t0\n0\t1\n1\t0\n1\t1\n201\t0\n")
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(small)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err


class TestProbeCommand:
    def test_all_equal_rows(self, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        t = EmbeddingTable.from_parts(np.tile([[1.0, 2.0]], (3, 1)), np.tile([[1.0, 2.0]], (4, 1)))
        write_embeddings(t, emb)
        inter = tmp_path / "inter.txt"
        inter.write_text("0\t0\n1\t1\n2\t2\n0\t3\n")
        rc = main(["probe", "--embeddings", str(emb), "--interactions", str(inter)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["l_align"] == pytest.approx(0.0, abs=1e-12)
        assert rep["l_uniform"] == pytest.approx(0.0, abs=1e-12)

    def test_random_dump_matches_naive_oracle(self, tmp_path, capsys):
        from directau import InteractionSet

        rng = np.random.default_rng(0)
        table = init_xavier(12, 15, 64, seed=3)
        grid = [(u, i) for u in range(12) for i in range(15)]
        sel = rng.choice(len(grid), size=30, replace=False)
        inter = InteractionSet.from_pairs(
            [grid[s][0] for s in sel], [grid[s][1] for s in sel], 12, 15
        )
        emb = tmp_path / "emb.npz"
        write_embeddings(table, emb)
        inter_path = tmp_path / "inter.txt"
        write_interactions(inter, inter_path)
        rc = main(["probe", "--embeddings", str(emb), "--interactions", str(inter_path)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        want = naive_uniformity(table, inter)
        assert rep["l_uniform_user"] == pytest.approx(want[0], abs=1e-10)
        assert rep["l_uniform_item"] == pytest.approx(want[1], abs=1e-10)

    def test_declared_counts_admit_ids_past_the_pair_count(self, tmp_path, capsys):
        # probe takes its counts from the dump, so two pairs may use IDs 11 and 14
        table = init_xavier(12, 15, 8, seed=3)
        emb, inter = tmp_path / "emb.npz", tmp_path / "inter.txt"
        write_embeddings(table, emb)
        inter.write_text("11\t14\n0\t0\n")
        assert main(["probe", "--embeddings", str(emb), "--interactions", str(inter)]) == 0
        want = geometry_report(table, InteractionSet.from_pairs([11, 0], [14, 0], 12, 15))
        assert json.loads(capsys.readouterr().out) == asdict(want)

    def test_row_count_mismatch(self, tmp_path, capsys):
        emb = tmp_path / "emb.npz"
        write_embeddings(init_xavier(2, 2, 3, seed=0), emb)
        inter = tmp_path / "inter.txt"
        inter.write_text("0\t0\n5\t1\n")
        rc = main(["probe", "--embeddings", str(emb), "--interactions", str(inter)])
        assert rc == 3

    def test_comma_copy_reports_like_the_tab_file(self, trained, data_file, tmp_path, capsys):
        probe = ["probe", "--embeddings", str(trained / "embeddings.npz"), "--interactions"]
        comma = tmp_path / "interactions.csv"
        comma.write_bytes(data_file.read_bytes().replace(b"\t", b","))
        assert main([*probe, str(data_file)]) == 0
        tab_report = capsys.readouterr().out
        assert main([*probe, str(comma), "--delimiter", "comma"]) == 0
        assert capsys.readouterr().out == tab_report
        # read as tab-separated, each line is one field
        assert main([*probe, str(comma)]) == 3
        assert "expected >=2 fields" in capsys.readouterr().err


def _malformed_dump(case, path):
    """Write at `path` a file that read_embeddings must reject, as `case`
    names it."""
    rng = np.random.default_rng(0)
    user, item = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    if case == "empty":
        path.write_bytes(b"")
    elif case == "truncated":
        write_embeddings(EmbeddingTable.from_parts(user, item), path)
        path.write_bytes(path.read_bytes()[:-40])
    elif case == "corrupted":
        write_embeddings(EmbeddingTable.from_parts(user, item), path)
        data = bytearray(path.read_bytes())
        at = bytes(data).index(item.tobytes())
        data[at] ^= 0x01
        path.write_bytes(bytes(data))
    elif case in ("unknown-compression", "bad-offset"):
        write_embeddings(EmbeddingTable.from_parts(user, item), path)
        data = bytearray(path.read_bytes())
        if case == "unknown-compression":  # method 99 in the local and central headers
            for sig, at in ((b"PK\x03\x04", 8), (b"PK\x01\x02", 10)):
                pos = bytes(data).index(sig)
                data[pos + at : pos + at + 2] = (99).to_bytes(2, "little")
        else:  # the end record places the central directory past where it is
            pos = bytes(data).rindex(b"PK\x05\x06") + 16
            offset = int.from_bytes(data[pos : pos + 4], "little") + 1000
            data[pos : pos + 4] = offset.to_bytes(4, "little")
        path.write_bytes(bytes(data))
    elif case == "huge-shape":  # a header declaring far more rows than the member holds
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**12, 3)}
        )
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("user_emb.npy", header.getvalue() + user.tobytes())
            with archive.open("item_emb.npy", "w") as member:
                np.lib.format.write_array(member, item)
    elif case == "text":
        path.write_text("2 2 3\n" + "0.5 0.5 0.5\n" * 4)
    elif case == "not-utf8":
        path.write_bytes(b"2 2 1\xff\n1\n2\n3\n4\n")
    elif case == "bare-npy":
        with path.open("wb") as fh:
            np.save(fh, np.concatenate([user, item]))
    elif case == "pickled":
        with path.open("wb") as fh:
            np.savez(fh, user_emb=np.array([[1.0, None]], dtype=object), item_emb=item)
    else:
        members = {"user_emb": user, "item_emb": item}
        if case == "missing-member":
            del members["item_emb"]
        elif case == "extra-member":
            members["bias"] = np.zeros(2)
        elif case == "float32":
            members["user_emb"] = user.astype(np.float32)
        elif case == "1-d":
            members["user_emb"] = user.ravel()
        elif case == "no-rows":
            members["item_emb"] = item[:0]
        elif case == "no-width":
            members = {"user_emb": user[:, :0], "item_emb": item[:, :0]}
        elif case == "width-mismatch":
            members["item_emb"] = item[:, :2]
        with path.open("wb") as fh:
            np.savez(fh, **members)


class TestDumpFormat:
    """probe reads any .npz with exactly the members user_emb and item_emb,
    and rejects everything else as a data error that names the file."""

    def test_probe_reads_numpy_savez(self, tmp_path, capsys):
        table = init_xavier(12, 15, 8, seed=3)
        inter = tmp_path / "inter.txt"
        inter.write_text("0\t0\n1\t1\n2\t14\n11\t3\n")
        ours, theirs = tmp_path / "ours.npz", tmp_path / "theirs.npz"
        write_embeddings(table, ours)
        np.savez(theirs, user_emb=table.user_emb, item_emb=table.item_emb)
        reports = []
        for emb in (ours, theirs):
            assert main(["probe", "--embeddings", str(emb), "--interactions", str(inter)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("case", [
        "empty", "truncated", "corrupted", "unknown-compression", "bad-offset", "huge-shape",
        "text", "not-utf8", "bare-npy", "pickled", "missing-member", "extra-member", "float32", "1-d",
        "no-rows", "no-width", "width-mismatch",
    ])
    def test_malformed_dump_is_data_error(self, case, tmp_path, data_file, capsys):
        emb = tmp_path / "emb.npz"
        _malformed_dump(case, emb)
        assert main(["probe", "--embeddings", str(emb), "--interactions", str(data_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(emb) in err and err.count("\n") == 1


class TestUsageErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_ks_is_usage_error(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(cfg),
                     "--out-dir", str(out), "--set", "max_epochs=1"]) == 0
        rc = main(["eval", "--checkpoint", str(out), "--data", str(data_file),
                   "--ks", "ten"])
        assert rc == 2

    def test_k_core_below_1_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "raw.txt"
        inp.write_text("a\tx\n")
        out = tmp_path / "clean.txt"
        rc = main(["preprocess", "--input", str(inp), "--output", str(out), "--k-core", "0"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ks", ["0", "20,-5"])
    def test_ks_below_1_is_usage_error(self, trained, data_file, ks, capsys):
        rc = main(["eval", "--checkpoint", str(trained), "--data", str(data_file), "--ks", ks])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


class TestUnreadableInputs:
    """Inputs the readers cannot take exit with their documented code and
    name the file, instead of ending in a traceback."""

    @staticmethod
    def args(command, tmp_path, trained, data):
        """`command`'s arguments, reading interactions from `data`; eval runs
        on a copy of `trained` whose record names `data`'s SHA-256, so that
        the interaction reader, not the digest check, meets the file."""
        if command == "preprocess":
            return ["--input", str(data), "--output", str(tmp_path / "clean.txt")]
        if command == "train":
            return ["--data", str(data), "--config", str(write_config(tmp_path)),
                    "--out-dir", str(tmp_path / "run")]
        if command == "eval":
            record = read_record(trained)
            record["dataset"]["sha256"] = file_sha256(data)
            run = copy_run(trained, tmp_path / "run", record)
            return ["--checkpoint", str(run), "--data", str(data)]
        return ["--embeddings", str(trained / "embeddings.npz"), "--interactions", str(data)]

    @pytest.mark.parametrize("command", ["train", "eval", "probe"])
    def test_id_past_int64_is_data_error(self, command, tmp_path, trained, capsys):
        data = tmp_path / "huge.txt"
        data.write_text(f"0\t0\n1\t1\n{2**63}\t0\n")
        assert main([command, *self.args(command, tmp_path, trained, data)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(data) in err and "SHA-256" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_id_past_the_pair_count_is_data_error(self, command, tmp_path, trained, capsys):
        # the counts train and eval infer are at most the number of pairs,
        # so this ID is refused before a count-sized array is made
        data = tmp_path / "sparse.txt"
        data.write_text("0\t0\n0\t1\n1\t0\n1\t1\n100000000000000000\t1\n")
        assert main([command, *self.args(command, tmp_path, trained, data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and "5 pairs" in err

    @pytest.mark.parametrize("command", ["preprocess", "train", "eval", "probe"])
    def test_interactions_not_utf8_is_data_error(self, command, tmp_path, trained, capsys):
        data = tmp_path / "latin1.txt"
        data.write_bytes(b"0\t0\n1\t1\n\xff\t0\n")
        assert main([command, *self.args(command, tmp_path, trained, data)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(data) in err and "SHA-256" not in err

    def test_config_not_utf8_is_config_error(self, tmp_path, data_file, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(BASE_CONFIG.encode() + b"# caf\xe9\n")
        assert main(["train", "--data", str(data_file), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(cfg) in err

    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_config_that_cannot_be_opened_is_config_error(self, case, tmp_path, data_file,
                                                          capsys):
        cfg, out = tmp_path / "run.conf", tmp_path / "run"
        if case == "directory":
            cfg.mkdir()
        assert main(["train", "--data", str(data_file), "--config", str(cfg),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", [
        "missing", "not-utf8", "not-json", "not-an-object", "config-not-an-object",
        "config-value-not-a-string", "best-epoch-missing", "best-epoch-not-int",
        "best-epoch-float", "best-epoch-bool", "best-epoch-negative", "dump-digest-missing",
        "dump-digest-not-a-string", "dataset-missing", "dataset-digest-missing",
        "dataset-digest-not-a-string",
    ])
    def test_malformed_record_is_data_error(self, case, tmp_path, trained, data_file, capsys):
        record = read_record(trained)
        if case == "missing":
            run = copy_run(trained, tmp_path / "run")
            (run / "manifest.json").unlink()
        else:
            if case == "not-utf8":
                record = (trained / "manifest.json").read_bytes() + b"\xff"
            elif case == "not-json":
                record = (trained / "manifest.json").read_bytes()[:-3]
            elif case == "not-an-object":
                record = [record]
            elif case == "config-not-an-object":
                record["config"] = [f"{k}={v}" for k, v in record["config"].items()]
            elif case == "config-value-not-a-string":
                record["config"]["seed"] = 5
            elif case == "best-epoch-missing":
                del record["best_epoch"]
            elif case.startswith("best-epoch-"):
                bad = {"not-int": "one", "float": 3.0, "bool": True, "negative": -1}
                record["best_epoch"] = bad[case.removeprefix("best-epoch-")]
            elif case == "dump-digest-missing":
                del record["embeddings_sha256"]
            elif case == "dump-digest-not-a-string":
                record["embeddings_sha256"] = [record["embeddings_sha256"]]
            elif case == "dataset-missing":
                del record["dataset"]
            elif case == "dataset-digest-missing":
                del record["dataset"]["sha256"]
            else:
                record["dataset"]["sha256"] = None
            run = copy_run(trained, tmp_path / "run", record)
        assert main(["eval", "--checkpoint", str(run), "--data", str(data_file)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(run / "manifest.json") in err
        assert err.count("\n") == 1

    def test_record_config_value_is_config_error(self, tmp_path, trained, data_file, capsys):
        # a well-formed record whose config TrainConfig rejects
        record = read_record(trained)
        record["config"]["lr"] = "fast"
        run = copy_run(trained, tmp_path / "run", record)
        assert main(["eval", "--checkpoint", str(run), "--data", str(data_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'lr'" in err and "'fast'" in err


class TestManifestGeometry:
    """The manifest's geometry is that of the saved checkpoint."""

    @staticmethod
    def checkpoint_geometry(out, data_file):
        table, cfg, _ = load_checkpoint(out)
        ds = split(read_id_pairs(data_file), seed=cfg.seed)
        return asdict(geometry_report(table, ds.train))

    def test_untrained_run(self, tmp_path, data_file, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--set", "max_epochs=0"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["best_epoch"] == 0 and manifest["epochs_run"] == 0
        assert manifest["metrics"]["geometry"] == self.checkpoint_geometry(out, data_file)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out), "--data", str(data_file),
                     "--split", "validation"]) == 0
        report = json.loads(capsys.readouterr().out)
        validation = manifest["metrics"]["validation"]
        assert {"recall": report["recall"], "ndcg": report["ndcg"]} == validation

    @pytest.mark.parametrize("encoder", ["encoder=mf", "encoder=lgcn"])
    def test_early_stopped_run(self, tmp_path, data_file, encoder):
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_file), "--config", str(write_config(tmp_path)),
                     "--out-dir", str(out), "--set", encoder, "--set", "layers=2",
                     "--set", "lr=0.1", "--set", "patience=1", "--set", "max_epochs=20"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the best epoch is neither the last one run nor the last one allowed
        assert 1 <= manifest["best_epoch"] < manifest["epochs_run"] < 20
        assert manifest["metrics"]["geometry"] == self.checkpoint_geometry(out, data_file)


def _python(tmp_path, *args):
    """Run a fresh interpreter with `args` in `tmp_path`, the package on its path."""
    src = str(Path(directau.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def _modules_after(tmp_path, script, prefix="scipy"):
    """Run `script` in a fresh interpreter; the modules named `prefix...`
    that it left loaded."""
    code = script + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n"
    )
    return json.loads(_python(tmp_path, "-c", code).stdout.strip().splitlines()[-1])


class TestStartup:
    """Only the graph encoder loads scipy code: its compiled sparse kernel,
    and no scipy module. Only commands that draw load numpy.random, and
    none loads numpy.ma."""

    def test_import_loads_no_scipy(self, tmp_path):
        assert _modules_after(tmp_path, "import directau.cli") == []

    @pytest.mark.parametrize("first, threads", [("", "1"), ("import numpy", "2")])
    def test_blas_pin_only_before_numpy_loads(self, tmp_path, first, threads):
        # once numpy is loaded, a pin would reach only the caller's child processes
        script = f"import os\nos.environ['OPENBLAS_NUM_THREADS'] = '2'\n{first}\nimport directau.cli\n"
        done = _python(tmp_path, "-c", script + "print(os.environ['OPENBLAS_NUM_THREADS'])")
        assert done.stdout.split() == [threads]

    def test_preprocess_command_loads_only_the_data_layer(self, tmp_path):
        # the command as the benchmark runs it; -X importtime lists each module it loads
        (tmp_path / "raw.txt").write_text("".join(f"u{u}\ti{u % 7}\n" for u in range(40)))
        done = _python(tmp_path, "-X", "importtime", "-m", "directau.cli", "preprocess",
                       "--input", "raw.txt", "--output", "clean.txt", "--k-core", "1")
        loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert {"directau", "directau.data", "directau.errors", "directau.rng"} <= loaded
        later = {"training", "evaluation", "encoders", "losses", "optim"}
        assert loaded.isdisjoint(f"directau.{m}" for m in later)

    def test_mf_pipeline_loads_no_scipy(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("".join(f"u{u}\ti{(u + t) % 40}\n" for u in range(60) for t in range(10)))
        write_config(tmp_path, BASE_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        script = """
from directau.cli import main
assert main(["preprocess", "--input", "raw.txt", "--output", "clean.txt"]) == 0
assert main(["train", "--data", "clean.txt", "--config", "run.conf", "--out-dir", "run"]) == 0
assert main(["eval", "--checkpoint", "run", "--data", "clean.txt"]) == 0
assert main(["probe", "--embeddings", "run/embeddings.npz", "--interactions", "clean.txt"]) == 0
"""
        assert _modules_after(tmp_path, script) == []

    def test_preprocess_loads_no_numpy_random(self, tmp_path):
        if _modules_after(tmp_path, "import numpy", "numpy.random"):
            pytest.skip("this numpy loads numpy.random with numpy itself")
        # keys wider than one 8-byte word, interned in numpy as rows of words
        (tmp_path / "raw.txt").write_text(
            "".join(f"user-{u:05d}\titem-{u % 7:05d}\n" for u in range(40))
        )
        script = """
from directau.cli import main
assert main(["preprocess", "--input", "raw.txt", "--output", "clean.txt", "--k-core", "1"]) == 0
"""
        assert _modules_after(tmp_path, script, "numpy.random") == []

    def test_mf_pipeline_loads_no_numpy_ma(self, tmp_path):
        # "numpy.ma." so that numpy.matrixlib does not match; numpy.ma loads numpy.ma.core
        if _modules_after(tmp_path, "import numpy", "numpy.ma."):
            pytest.skip("this numpy loads numpy.ma with numpy itself")
        raw = tmp_path / "raw.txt"
        # keys wider than one 8-byte word, interned in numpy as rows of words
        raw.write_text("".join(
            f"user-{u:05d}\titem-{(u + t) % 40:05d}\n" for u in range(60) for t in range(10)
        ))
        write_config(tmp_path, BASE_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        script = """
from directau.cli import main
assert main(["preprocess", "--input", "raw.txt", "--output", "clean.txt"]) == 0
assert main(["train", "--data", "clean.txt", "--config", "run.conf", "--out-dir", "run"]) == 0
assert main(["eval", "--checkpoint", "run", "--data", "clean.txt"]) == 0
assert main(["probe", "--embeddings", "run/embeddings.npz", "--interactions", "clean.txt"]) == 0
"""
        assert _modules_after(tmp_path, script, "numpy.ma.") == []

    def test_lgcn_train_loads_scipy(self, tmp_path, data_file):
        write_config(tmp_path, BASE_CONFIG.replace("max_epochs = 3", "max_epochs = 1"))
        script = f"""
from directau.cli import main
assert main(["train", "--data", {str(data_file)!r}, "--config", "run.conf", "--out-dir", "run",
             "--set", "encoder=lgcn", "--set", "layers=1"]) == 0
from directau.encoders import _sparsetools
assert _sparsetools.cache_info().currsize == 1
"""
        assert _modules_after(tmp_path, script) == []


class TestPackageNames:
    """The package's public names load their modules on first use."""

    @pytest.mark.parametrize("name", directau.__all__)
    def test_name_is_the_object_its_module_defines(self, name):
        value = getattr(directau, name)
        assert value.__module__.startswith("directau.")
        assert value is getattr(sys.modules[value.__module__], name)

    def test_dir_lists_every_name(self):
        assert set(directau.__all__) <= set(dir(directau))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            directau.no_such_name

    @pytest.mark.parametrize("script, loaded", [
        ("import directau", []),
        ("import directau\ndirectau.split", ["directau.data", "directau.errors", "directau.rng"]),
        ("from directau import data", ["directau.data", "directau.errors", "directau.rng"]),
    ])
    def test_a_name_or_submodule_loads_only_its_module(self, tmp_path, script, loaded):
        assert _modules_after(tmp_path, script, "directau.") == loaded
