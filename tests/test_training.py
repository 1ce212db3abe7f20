"""Training loop, early stopping, trace emission, checkpoints."""

import math
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest

import directau.training as training_mod
from directau import (
    EmbeddingTable,
    EpochTrace,
    TrainConfig,
    direct_au_loss,
    emit_trace,
    geometry_report,
    init_xavier,
    load_checkpoint,
    rank_eval,
    save_checkpoint,
    split,
    train,
    write_embeddings,
)
from directau.data import file_sha256
from directau.errors import ConfigError, DegenerateEmbedding
from directau.evaluation import GeometryReport
from directau.training import _training_batches, read_key_values, split_key_value
from helpers import naive_read_config_file, naive_split, read_trace


# every field away from its default
EVERY_FIELD_SET = TrainConfig(
    objective="direct_au", seed=7, encoder="lgcn", layers=3, gamma=0.25, d=8, lr=0.02,
    batch_size=17, weight_decay=1e-5, max_epochs=4, patience=2, ds_candidates=5,
)


class TestTrainConfig:
    def test_gamma_required_for_direct_au(self):
        with pytest.raises(ConfigError):
            TrainConfig(objective="direct_au", seed=0)

    def test_gamma_forbidden_for_bpr(self):
        with pytest.raises(ConfigError):
            TrainConfig(objective="bpr", seed=0, gamma=1.0)

    def test_lgcn_needs_layers(self):
        with pytest.raises(ConfigError):
            TrainConfig(objective="bpr", seed=0, encoder="lgcn")
        TrainConfig(objective="bpr", seed=0, encoder="lgcn", layers=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": "mse"},
            {"objective": "bpr", "d": 0},
            {"objective": "bpr", "lr": 0.0},
            {"objective": "bpr", "batch_size": 0},
            {"objective": "bpr", "weight_decay": -1e-6},
            {"objective": "bpr", "max_epochs": -1},
            {"objective": "bpr", "patience": 0},
            {"objective": "bpr", "seed": -1},
            {"objective": "direct_au", "gamma": -0.5},
        ],
    )
    def test_invalid_values(self, kwargs):
        kwargs.setdefault("seed", 0)
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_from_mapping_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            TrainConfig.from_mapping({"objective": "bpr", "seed": "1", "gama": "1"})

    def test_from_mapping_requires_objective_and_seed(self):
        with pytest.raises(ConfigError, match="'seed' is required"):
            TrainConfig.from_mapping({"objective": "bpr"})
        with pytest.raises(ConfigError, match="'objective' is required"):
            TrainConfig.from_mapping({"seed": "3"})
        # both missing: named in field order
        with pytest.raises(ConfigError, match="'objective' is required"):
            TrainConfig.from_mapping({})

    def test_mapping_roundtrip(self):
        defaults = TrainConfig(objective="bpr", seed=0)
        assert all(
            getattr(EVERY_FIELD_SET, f.name) != getattr(defaults, f.name)
            for f in fields(TrainConfig)
        )
        assert TrainConfig.from_mapping(EVERY_FIELD_SET.to_mapping()) == EVERY_FIELD_SET

    @pytest.mark.parametrize(
        "key",
        [f.name for f in fields(TrainConfig) if not isinstance(getattr(EVERY_FIELD_SET, f.name), str)],
    )
    def test_value_of_another_type_is_config_error(self, key):
        raw = EVERY_FIELD_SET.to_mapping()
        raw[key] = "1.5" if isinstance(getattr(EVERY_FIELD_SET, key), int) else "x"
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            TrainConfig.from_mapping(raw)

    def test_readme_config_block_is_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after = readme.split("A config file lists exactly these keys", 1)[1]
        block = after.split("```\n", 2)[1]
        raw = dict(
            split_key_value(line, "README")
            for line in map(str.strip, block.splitlines())
            if line and not line.startswith("#")
        )
        assert sorted(raw) == sorted(f.name for f in fields(TrainConfig))
        TrainConfig.from_mapping(raw)


def small_cfg(**kw):
    kw.setdefault("objective", "direct_au")
    if kw["objective"] == "direct_au":
        kw.setdefault("gamma", 1.0)
    kw.setdefault("seed", 0)
    kw.setdefault("d", 8)
    kw.setdefault("batch_size", 128)
    kw.setdefault("max_epochs", 3)
    kw.setdefault("lr", 0.02)
    return TrainConfig(**kw)


class TestTrain:
    def test_zero_epochs_returns_initial_table(self, two_cluster):
        ds = split(two_cluster, seed=0)
        cfg = small_cfg(max_epochs=0)
        best, traces = train(ds, cfg)
        init = init_xavier(two_cluster.n_users, two_cluster.n_items, cfg.d, cfg.seed)
        assert traces == [] and best.epoch == 0
        assert np.array_equal(best.table.user_emb, init.user_emb)
        assert np.array_equal(best.table.item_emb, init.item_emb)
        # the initial table is measured once, at the validation Ks
        assert best.geometry == geometry_report(init, ds.train)
        assert best.validation == rank_eval(init, ds, "validation")

    def test_early_stop_mechanics(self, two_cluster, monkeypatch):
        ds = split(two_cluster, seed=0)
        scripted = iter([0.5, 0.4, 0.9])  # drop at epoch 2 must stop the run

        class FakeMetrics:
            def __init__(self, v):
                self.ndcg_at = {20: v}

        snapshots = {}

        real_geometry = training_mod.geometry_report

        def fake_rank_eval(table, split_, target, ks=(10, 20, 50)):
            v = next(scripted)
            snapshots[v] = table.user_emb.copy()
            return FakeMetrics(v)

        monkeypatch.setattr(training_mod, "rank_eval", fake_rank_eval)
        best, traces = train(ds, small_cfg(patience=1, max_epochs=10))
        assert len(traces) == 2 and best.epoch == 1
        assert [t.val_ndcg20 for t in traces] == [0.5, 0.4]
        assert np.array_equal(best.table.user_emb, snapshots[0.5])
        assert best.validation.ndcg_at[20] == 0.5
        assert real_geometry is training_mod.geometry_report

    @pytest.mark.parametrize("encoder, layers", [("mf", 0), ("lgcn", 2)])
    def test_best_snapshot_carries_its_own_measurements(self, two_cluster, encoder, layers):
        # an early-stopped run: the kept table is not the last one trained
        ds = split(two_cluster, seed=5)
        cfg = small_cfg(encoder=encoder, layers=layers, lr=0.1, patience=1, max_epochs=20)
        best, traces = train(ds, cfg)
        assert 1 <= best.epoch < len(traces) < 20
        assert best.geometry == geometry_report(best.table, ds.train)
        assert best.validation == rank_eval(best.table, ds, "validation")
        assert best.validation.ndcg_at[20] == traces[best.epoch - 1].val_ndcg20

    def test_early_stop_pulls_no_further_epoch(self, two_cluster, monkeypatch):
        # epoch e + 1 shuffles its batches only once train pulls it
        calls = []
        real = training_mod._training_batches

        def counting(split_, cfg, epoch):
            calls.append(epoch)
            return real(split_, cfg, epoch)

        monkeypatch.setattr(training_mod, "_training_batches", counting)
        ds = split(two_cluster, seed=5)
        _, traces = train(ds, small_cfg(lr=0.1, patience=1, max_epochs=20))
        assert len(traces) < 20 and len(calls) == len(traces)

    @pytest.mark.parametrize("encoder, layers", [("mf", 0), ("lgcn", 2)])
    def test_epoch_k_table_is_a_k_epoch_runs_table(self, two_cluster, encoder, layers):
        # without validation a k-epoch run keeps its last table
        ds = naive_split(two_cluster, (1, 0, 0), seed=5)
        cfg = small_cfg(encoder=encoder, layers=layers)
        pulled = [(loss, table.emb) for loss, table in islice(training_mod._epochs(ds, cfg), 4)]
        _, traces = train(ds, replace(cfg, max_epochs=3))
        assert math.isnan(pulled[0][0])
        assert [loss for loss, _ in pulled[1:]] == [t.train_loss for t in traces]
        for k in (0, 1, 3):
            best, _ = train(ds, replace(cfg, max_epochs=k))
            assert best.table.emb.tobytes() == pulled[k][1].tobytes()

    def test_a_yielded_mf_table_is_the_callers(self, two_cluster, monkeypatch, tmp_path):
        # writing to epoch k's table changes neither epoch k + 1's table nor
        # the dump of a (k + 1)-epoch run, which without validation is k + 1's
        ds = naive_split(two_cluster, (1, 0, 0), seed=5)
        k, cfg = 2, small_cfg(max_epochs=3)
        want = [table.emb.copy() for _, table in islice(training_mod._epochs(ds, cfg), k + 2)]
        epochs = training_mod._epochs(ds, cfg)
        table = next(islice(epochs, k, None))[1]
        table.emb *= -1.0
        assert next(epochs)[1].emb.tobytes() == want[k + 1].tobytes()

        real = training_mod._epochs

        def writing(split_, cfg_):
            for epoch, (loss, table) in enumerate(real(split_, cfg_)):
                yield loss, table
                if epoch == k:
                    table.emb *= -1.0

        dumps = []
        for epochs_fn in (real, writing):
            monkeypatch.setattr(training_mod, "_epochs", epochs_fn)
            best, _ = train(ds, cfg)
            dumps.append(tmp_path / f"{len(dumps)}.npz")
            write_embeddings(best.table, dumps[-1])
        assert best.epoch == k + 1
        assert dumps[0].read_bytes() == dumps[1].read_bytes()

    def test_only_mf_copies_its_table(self, two_cluster, monkeypatch):
        # mf copies each table it yields; lgcn's propagated outputs are fresh
        calls = []
        real_copy = EmbeddingTable.copy

        def counting(self):
            calls.append(self.emb.shape)
            return real_copy(self)

        monkeypatch.setattr(EmbeddingTable, "copy", counting)
        ds = split(two_cluster, seed=5)
        _, traces = train(ds, small_cfg(max_epochs=3))
        assert len(calls) == len(traces) + 1
        calls.clear()
        train(ds, small_cfg(encoder="lgcn", layers=2, max_epochs=3))
        assert calls == []

    def test_determinism_identical_traces(self, two_cluster):
        ds = split(two_cluster, seed=1)
        cfg = small_cfg(max_epochs=3)
        _, tr_a = train(ds, cfg)
        _, tr_b = train(ds, cfg)
        for a, b in zip(tr_a, tr_b):
            # wall_seconds is a measurement, not a modeled quantity
            assert (a.epoch, a.train_loss, a.l_align, a.l_uniform_user,
                    a.l_uniform_item, a.val_ndcg20) == (
                b.epoch, b.train_loss, b.l_align, b.l_uniform_user,
                b.l_uniform_item, b.val_ndcg20)

    def test_training_does_not_read_the_geometry(self, two_cluster, monkeypatch):
        # the geometry is only reported: a fixed report leaves the run bit for bit
        ds = split(two_cluster, seed=3)
        cfg = small_cfg(objective="direct_au", encoder="mf", max_epochs=3, seed=4)
        best, traces = train(ds, cfg)
        fixed = GeometryReport(
            l_align=1.0, l_uniform=-2.0, l_uniform_user=-3.0, l_uniform_item=-1.0
        )
        monkeypatch.setattr(training_mod, "geometry_report", lambda table, interactions: fixed)
        best_f, traces_f = train(ds, cfg)
        assert best_f.table.emb.tobytes() == best.table.emb.tobytes()
        assert best_f.epoch == best.epoch and best_f.geometry is fixed
        assert len(traces_f) == len(traces) == 3
        for a, b in zip(traces, traces_f):
            assert np.array([a.train_loss, a.val_ndcg20]).tobytes() == np.array(
                [b.train_loss, b.val_ndcg20]).tobytes()

    def test_best_epoch_contract(self, two_cluster):
        ds = split(two_cluster, seed=2)
        cfg = small_cfg(max_epochs=6, objective="bpr", gamma=None)
        best, traces = train(ds, cfg)
        best_trace = max(t.val_ndcg20 for t in traces)
        got = rank_eval(best.table, ds, "validation", ks=(20,)).ndcg_at[20]
        assert got == best_trace
        assert traces[best.epoch - 1].val_ndcg20 == best_trace

    def test_train_loss_self_consistency_single_batch(self, two_cluster):
        # one batch per epoch and one epoch: the recorded loss must equal
        # the loss recomputed independently on the initial table
        ds = split(two_cluster, seed=3)
        cfg = small_cfg(batch_size=10**6, max_epochs=1, gamma=2.0)
        _, traces = train(ds, cfg)
        init = init_xavier(two_cluster.n_users, two_cluster.n_items, cfg.d, cfg.seed)
        (sel,) = _training_batches(ds, cfg, epoch=1)
        expected = direct_au_loss(
            init.user_emb[ds.train.users[sel]], init.item_emb[ds.train.items[sel]], cfg.gamma
        )[0]
        assert traces[0].train_loss == pytest.approx(expected, abs=1e-9)

    def test_trace_geometry_bounds(self, two_cluster):
        ds = split(two_cluster, seed=4)
        _, traces = train(ds, small_cfg(max_epochs=3))
        for t in traces:
            assert 0.0 <= t.l_align <= 4.0
            assert -8.0 <= t.l_uniform_user <= 0.0
            assert -8.0 <= t.l_uniform_item <= 0.0
            assert 0.0 <= t.val_ndcg20 <= 1.0

    def test_no_validation_disables_early_stopping(self):
        from directau import InteractionSet

        data = InteractionSet.from_pairs(
            [0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 2, 0, 1, 2], 3, 3
        )
        ds = split(data, seed=0)  # p(u)=3 < 10 -> empty val/test
        assert ds.validation.nnz == 0
        best, traces = train(ds, small_cfg(max_epochs=4, patience=1))
        assert len(traces) == 4 and best.epoch == 4
        assert all(math.isnan(t.val_ndcg20) for t in traces)
        assert best.validation is None
        # the returned table is the last epoch's, which its trace row measured
        geo = geometry_report(best.table, ds.train)
        assert best.geometry == geo
        last = traces[-1]
        assert (geo.l_align, geo.l_uniform_user, geo.l_uniform_item) == (
            last.l_align, last.l_uniform_user, last.l_uniform_item
        )

    def test_diverged_gradient_returns_the_epoch_before(self, two_cluster, monkeypatch):
        # the oracle: the same config stopped after epoch 1
        ds = split(two_cluster, seed=5)
        cfg = small_cfg(max_epochs=10)
        kept, kept_traces = train(ds, small_cfg(max_epochs=1))
        n_batches = len(_training_batches(ds, cfg, epoch=1))
        assert n_batches >= 2

        calls = {"n": 0}
        real = training_mod.direct_au_loss

        def poisoned(u, i, gamma):
            calls["n"] += 1
            value, grad = real(u, i, gamma)
            if calls["n"] == n_batches + 2:  # epoch 2's second batch
                grad[0, 0] = np.nan
            return value, grad

        monkeypatch.setattr(training_mod, "direct_au_loss", poisoned)
        best, traces = train(ds, cfg)
        assert best.diverged.startswith("epoch 2:")
        assert "non-finite gradient" in best.diverged
        assert best.geometry is None and best.validation is None
        assert best.epoch == kept.epoch == 1
        assert best.table.emb.tobytes() == kept.table.emb.tobytes()
        assert kept.diverged is None

        def untimed(rows):
            return [{**vars(t), "wall_seconds": None} for t in rows]

        assert len(traces) == 1 and untimed(traces) == untimed(kept_traces)

    def test_degenerate_first_measurement_returns_the_initial_table(
        self, two_cluster, monkeypatch
    ):
        # epoch 1's geometry fails on 2-layer lgcn: what is kept is the
        # initial propagated table, as a run of no epochs keeps it
        ds = split(two_cluster, seed=6)
        cfg = small_cfg(encoder="lgcn", layers=2, max_epochs=5)
        initial, _ = train(ds, small_cfg(encoder="lgcn", layers=2, max_epochs=0))

        def degenerate(table, interactions):
            raise DegenerateEmbedding("zero-norm row")

        monkeypatch.setattr(training_mod, "geometry_report", degenerate)
        best, traces = train(ds, cfg)
        assert best.diverged == "epoch 1: zero-norm row"
        assert best.geometry is None and best.validation is None
        assert best.epoch == initial.epoch == 0 and traces == []
        assert best.table.emb.tobytes() == initial.table.emb.tobytes()

    def test_lgcn_gradient_chain_matches_finite_differences(self):
        # end-to-end oracle for the trickiest composite: loss gradients,
        # scatter over batch rows, then the propagation transpose
        from directau import GraphPropagator, InteractionSet
        from directau.data import DatasetSplit, UserIndex
        from directau.training import _batch_loss_and_grads
        from helpers import finite_difference_gradients, relative_gradient_error

        inter = InteractionSet.from_pairs([0, 0, 1, 2, 2], [0, 1, 1, 2, 0], 3, 3)
        none = UserIndex.build(np.empty(0, np.int64), np.empty(0, np.int64), 3)
        ds = DatasetSplit(
            train=inter,
            train_index=UserIndex.build(inter.users, inter.items, 3),
            validation=none,
            test=none,
        )
        cfg = TrainConfig(objective="direct_au", gamma=1.5, seed=0, d=4,
                          encoder="lgcn", layers=2)
        table = init_xavier(3, 3, 4, seed=2)
        bu, bi = np.array([0, 2, 1, 0]), np.array([1, 0, 1, 0])

        def loss_of(emb):
            from directau import EmbeddingTable

            t = EmbeddingTable(emb, 3)
            prop = GraphPropagator.build(t, inter, n_layers=2)
            out = EmbeddingTable(prop.propagate(), 3)
            from directau import direct_au_loss

            return direct_au_loss(
                out.user_emb[bu], out.item_emb[bi], 1.5
            )[0]

        prop = GraphPropagator.build(table, inter, n_layers=2)
        _, rows, grads = _batch_loss_and_grads(
            bu, bi, table, prop, ds, cfg, np.random.default_rng(0)
        )
        (fd,) = finite_difference_gradients(loss_of, [table.emb])
        assert np.array_equal(rows, np.arange(6))
        assert relative_gradient_error(grads, fd) < 1e-4

    def test_flat_row_sum_matches_2d_scatter(self):
        # one item 87 times among 256 rows, and -0.0 entries: every entry
        # must be summed onto 0.0 in batch order, as np.add.at on rows does
        from directau.training import _sum_rows

        rng = np.random.default_rng(3)
        ids = np.concatenate([np.full(87, 11), [39, 39], rng.integers(0, 39, size=167)])
        rng.shuffle(ids)
        rows, inv = np.unique(ids, return_inverse=True)
        grads = rng.standard_normal((ids.size, 16)) * 10.0 ** rng.integers(-8, 8, (ids.size, 1))
        grads[rng.random(grads.shape) < 0.2] = -0.0
        grads[ids == 39] = -0.0  # a row summing -0.0 only
        want = np.zeros((rows.size, 16))
        np.add.at(want, inv, grads)
        got = _sum_rows(inv, grads)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "objective, encoder, layers",
        [
            ("direct_au", "mf", 0),
            ("bpr", "mf", 0),
            ("bpr_ds", "mf", 0),
            ("direct_au", "lgcn", 1),
            ("direct_au", "lgcn", 2),
            ("direct_au", "lgcn", 3),
            ("bpr", "lgcn", 2),
            ("bpr_ds", "lgcn", 2),
        ],
    )
    def test_stacked_step_matches_two_matrix_oracle(self, two_cluster, objective, encoder, layers):
        # one scatter and one adam_step on the stacked array must reproduce,
        # bit for bit, separate user/item matrices with their own Adam states
        from directau import AdamState, GraphPropagator
        from helpers import scipy_adjacency, train_step, two_matrix_step

        ds = split(two_cluster, seed=5)
        cfg = small_cfg(objective=objective, encoder=encoder, layers=layers, weight_decay=1e-3)
        table = init_xavier(two_cluster.n_users, two_cluster.n_items, cfg.d, cfg.seed)
        user, item = table.user_emb.copy(), table.item_emb.copy()
        prop = GraphPropagator.build(table, ds.train, layers) if encoder == "lgcn" else None
        state = AdamState.for_params(table.emb, cfg.lr, cfg.weight_decay)
        user_state = AdamState.for_params(user, cfg.lr, cfg.weight_decay)
        item_state = AdamState.for_params(item, cfg.lr, cfg.weight_decay)
        rng_stacked, rng_oracle = np.random.default_rng(7), np.random.default_rng(7)
        adjacency = None if prop is None else scipy_adjacency(ds.train)
        for batch in _training_batches(ds, cfg, epoch=1)[:3]:
            got = train_step(batch, table, prop, state, ds, cfg, rng_stacked)
            want = two_matrix_step(
                batch, user, item, user_state, item_state, ds, cfg, rng_oracle, adjacency
            )
            assert got == want
        nu = table.n_users
        assert np.array_equal(table.user_emb, user)
        assert np.array_equal(table.item_emb, item)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name)[:nu], getattr(user_state, name))
            assert np.array_equal(getattr(state, name)[nu:], getattr(item_state, name))
        assert state.step.max() == 3

    @pytest.mark.parametrize(
        "objective, bound", [("direct_au", 2.0), ("bpr", 1.5), ("bpr_ds", 3.5)]
    )
    def test_lgcn_step_allocates_no_table_sized_temporaries(self, objective, bound):
        # after warm-up, the propagator's and Adam's buffers hold every
        # full-table temporary; a step's peak stays under `bound` tables
        from directau import AdamState, GraphPropagator, InteractionSet
        from helpers import train_step

        rng = np.random.default_rng(0)
        n_users, n_items = 600, 400
        pairs = rng.choice(n_users * n_items, size=6000, replace=False)
        ds = split(InteractionSet.from_pairs(pairs // n_items, pairs % n_items, n_users, n_items),
                   seed=0)
        cfg = small_cfg(objective=objective, gamma=1.0 if objective == "direct_au" else None,
                        encoder="lgcn", layers=2, d=32, batch_size=64)
        table = init_xavier(ds.train.n_users, ds.train.n_items, cfg.d, cfg.seed)
        prop = GraphPropagator.build(table, ds.train, cfg.layers)
        state = AdamState.for_params(table.emb, cfg.lr)
        neg_rng = np.random.default_rng(1)
        batches = _training_batches(ds, cfg, epoch=1)
        for batch in batches[:3]:
            train_step(batch, table, prop, state, ds, cfg, neg_rng)
        tracemalloc.start()
        try:
            train_step(batches[3], table, prop, state, ds, cfg, neg_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * table.emb.nbytes

    @pytest.mark.parametrize("objective", ["direct_au", "bpr_ds"])
    def test_lgcn_step_arrays_never_alias(self, two_cluster, objective):
        # Adam reads the propagator's sum array as its gradient and works in
        # its own scratch: if any two of these arrays shared memory, a step
        # would overwrite what it still reads
        from directau import AdamState, GraphPropagator
        from helpers import train_step

        ds = split(two_cluster, seed=5)
        cfg = small_cfg(objective=objective, gamma=1.0 if objective == "direct_au" else None,
                        encoder="lgcn", layers=2, weight_decay=1e-3)
        table = init_xavier(ds.train.n_users, ds.train.n_items, cfg.d, cfg.seed)
        prop = GraphPropagator.build(table, ds.train, cfg.layers)
        state = AdamState.for_params(table.emb, cfg.lr, cfg.weight_decay)
        neg_rng = np.random.default_rng(1)
        for batch in _training_batches(ds, cfg, epoch=1)[:2]:
            train_step(batch, table, prop, state, ds, cfg, neg_rng)
        assert state.scratch.size >= 2 * table.emb.size
        assert prop.scratch.shape == (3, *table.emb.shape)
        arrays = (state.scratch, prop.scratch, table.emb, state.m, state.v)
        for a, b in combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("objective", ["direct_au", "bpr", "bpr_ds"])
    def test_lgcn_step_propagates_only_the_rows_it_reads(self, two_cluster, monkeypatch, objective):
        # every objective reads the outputs at the batch's unique rows (users,
        # positives, negatives); only the dynamic sampler, which scores
        # candidates from the whole catalog, propagates every row instead
        from directau import AdamState, GraphPropagator
        from helpers import train_step

        calls, drawn = [], []
        real_propagate = GraphPropagator.propagate
        real_sample = training_mod.sample_negatives

        def propagate(self, rows=slice(None)):
            calls.append(rows)
            return real_propagate(self, rows)

        def sample_negatives(*args, **kwargs):
            drawn.append(real_sample(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(GraphPropagator, "propagate", propagate)
        monkeypatch.setattr(training_mod, "sample_negatives", sample_negatives)
        ds = split(two_cluster, seed=5)
        cfg = small_cfg(objective=objective, gamma=1.0 if objective == "direct_au" else None,
                        encoder="lgcn", layers=2)
        table = init_xavier(ds.train.n_users, ds.train.n_items, cfg.d, cfg.seed)
        prop = GraphPropagator.build(table, ds.train, cfg.layers)
        state = AdamState.for_params(table.emb, cfg.lr)
        neg_rng = np.random.default_rng(7)
        nu = table.n_users
        for batch in _training_batches(ds, cfg, epoch=1)[:3]:
            calls.clear()
            drawn.clear()
            train_step(batch, table, prop, state, ds, cfg, neg_rng)
            (rows,) = calls
            if objective == "bpr_ds":
                assert rows == slice(None)
                continue
            negs = drawn[0] if drawn else np.empty(0, dtype=np.int64)
            ids = np.concatenate([ds.train.users[batch], nu + ds.train.items[batch], nu + negs])
            assert np.array_equal(rows, np.unique(ids))

    def test_mf_bpr_ds_step_gathers_no_whole_pool(self):
        # after a warm-up epoch the optimizer state's scratch holds Adam's
        # rows, the row sum has only the batch's rows, and the sampler
        # scores its pool in blocks: a step's peak stays under two pool
        # blocks, where the rows of the whole pool would take four
        from directau import AdamState, InteractionSet
        from directau.data import CACHE_BUDGET
        from helpers import train_step

        rng = np.random.default_rng(0)
        n_users, n_items = 600, 400
        pairs = rng.choice(n_users * n_items, size=6000, replace=False)
        ds = split(InteractionSet.from_pairs(pairs // n_items, pairs % n_items, n_users, n_items),
                   seed=0)
        cfg = small_cfg(objective="bpr_ds", gamma=None, d=32, batch_size=64, ds_candidates=128)
        assert cfg.batch_size * cfg.ds_candidates * cfg.d * 8 == 4 * CACHE_BUDGET
        table = init_xavier(ds.train.n_users, ds.train.n_items, cfg.d, cfg.seed)
        state = AdamState.for_params(table.emb, cfg.lr)
        neg_rng = np.random.default_rng(1)
        for batch in _training_batches(ds, cfg, epoch=1):
            train_step(batch, table, None, state, ds, cfg, neg_rng)
        batch = _training_batches(ds, cfg, epoch=2)[0]
        tracemalloc.start()
        try:
            train_step(batch, table, None, state, ds, cfg, neg_rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * CACHE_BUDGET

    def test_lgcn_smoke_and_determinism(self, two_cluster):
        ds = split(two_cluster, seed=6)
        cfg = small_cfg(encoder="lgcn", layers=2, max_epochs=2)
        b1, tr1 = train(ds, cfg)
        b2, tr2 = train(ds, cfg)
        assert np.array_equal(b1.table.user_emb, b2.table.user_emb)
        assert tr1[-1].train_loss == tr2[-1].train_loss
        assert 0.0 <= tr1[-1].l_align <= 4.0

    def test_trailing_singleton_batch_merged_for_direct_au(self):
        from directau import InteractionSet

        # 9 users x 1 interaction -> 9 train pairs; batch 4 leaves a singleton
        data = InteractionSet.from_pairs(list(range(9)), list(range(9)), 9, 9)
        ds = split(data, seed=0)
        cfg = small_cfg(batch_size=4, max_epochs=1)
        batches = _training_batches(ds, cfg, epoch=1)
        assert [len(b) for b in batches] == [4, 5]
        # bpr consumes batches as produced
        cfg_bpr = small_cfg(objective="bpr", gamma=None, batch_size=4, max_epochs=1)
        assert [len(b) for b in _training_batches(ds, cfg_bpr, epoch=1)] == [4, 4, 1]
        # and the full run trains without tripping the uniformity precondition
        _, traces = train(ds, cfg)
        assert len(traces) == 1

    def test_bpr_ds_smoke(self, two_cluster):
        ds = split(two_cluster, seed=7)
        cfg = small_cfg(objective="bpr_ds", gamma=None, max_epochs=2, ds_candidates=8)
        _, traces = train(ds, cfg)
        assert len(traces) == 2
        assert all(t.train_loss > 0 for t in traces)

    def test_training_improves_over_initialization(self, two_cluster):
        ds = split(two_cluster, seed=8)
        cfg = small_cfg(max_epochs=30, d=16, lr=0.04)
        best, _ = train(ds, cfg)
        init = init_xavier(two_cluster.n_users, two_cluster.n_items, cfg.d, cfg.seed)
        before = rank_eval(init, ds, "validation", ks=(20,)).ndcg_at[20]
        after = rank_eval(best.table, ds, "validation", ks=(20,)).ndcg_at[20]
        assert after > before


def trace_row(e):
    return EpochTrace(
        epoch=e,
        train_loss=0.123456789123,
        l_align=1.5,
        l_uniform_user=-3.25,
        l_uniform_item=-2.75,
        val_ndcg20=0.42,
        wall_seconds=12.5,
    )


class TestTraceSerialization:
    def test_empty_trace_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        emit_trace([], p)
        assert p.read_text() == (
            "epoch,train_loss,l_align,l_uniform_user,l_uniform_item,"
            "val_ndcg20,wall_seconds\n"
        )

    def test_two_epochs_three_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        emit_trace([trace_row(1), trace_row(2)], p)
        assert len(p.read_text().splitlines()) == 3

    def test_roundtrip_within_tolerance(self, tmp_path, two_cluster):
        ds = split(two_cluster, seed=9)
        _, traces = train(ds, small_cfg(max_epochs=2))
        p = tmp_path / "t.csv"
        emit_trace(traces, p)
        back = read_trace(p)
        assert len(back) == len(traces)
        for a, b in zip(traces, back):
            assert a.epoch == b.epoch
            for col in ("train_loss", "l_align", "l_uniform_user",
                        "l_uniform_item", "val_ndcg20", "wall_seconds"):
                x, y = getattr(a, col), getattr(b, col)
                # 9 significant digits guarantee <= 5e-9 relative error
                assert y == pytest.approx(x, rel=5e-9, abs=1e-12)

    def test_nan_val_roundtrips(self, tmp_path):
        row = trace_row(1)
        row.val_ndcg20 = float("nan")
        p = tmp_path / "t.csv"
        emit_trace([row], p)
        assert math.isnan(read_trace(p)[0].val_ndcg20)


class TestCheckpoint:
    @staticmethod
    def record(cfg, best_epoch):
        return {
            "config": cfg.to_mapping(),
            "dataset": {"sha256": "0" * 64},
            "best_epoch": best_epoch,
            "metrics": None,
        }

    def test_roundtrip(self, tmp_path):
        table = init_xavier(5, 7, 3, seed=1)
        cfg = TrainConfig(objective="direct_au", gamma=1.0, seed=4, d=3)
        record = self.record(cfg, best_epoch=11)
        traces = [trace_row(1), trace_row(2)]
        run = tmp_path / "run"
        save_checkpoint(run, table, traces, record)
        back_table, back_cfg, back_record = load_checkpoint(run)
        assert np.array_equal(back_table.user_emb, table.user_emb)
        assert np.array_equal(back_table.item_emb, table.item_emb)
        assert back_cfg == cfg
        dump_digest = file_sha256(run / "embeddings.npz")
        assert back_record == {**record, "embeddings_sha256": dump_digest}
        assert sorted(p.name for p in run.iterdir()) == [
            "embeddings.npz", "manifest.json", "trace.csv"
        ]
        emit_trace(traces, tmp_path / "trace.csv")
        assert (run / "trace.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()

    @pytest.mark.parametrize("cfg", [
        TrainConfig(objective="direct_au", gamma=1.0, seed=4, d=3),
        TrainConfig(objective="direct_au", gamma=0.1, seed=0, lr=1e-3, weight_decay=1e-7,
                    encoder="lgcn", layers=3),
        TrainConfig(objective="bpr", seed=11, lr=0.3, batch_size=1, max_epochs=0),
        TrainConfig(objective="bpr_ds", seed=2**40, ds_candidates=5, patience=1),
        EVERY_FIELD_SET,
    ])
    def test_record_config_roundtrips(self, tmp_path, cfg):
        save_checkpoint(tmp_path, init_xavier(2, 3, cfg.d, seed=0), [], self.record(cfg, 7))
        assert load_checkpoint(tmp_path)[1] == cfg


def outcome(fn, *args):
    """What `fn(*args)` returns, or the type and message it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle's exception is the expectation
        return type(exc), str(exc)


class TestKeyValueReader:
    """The config file reader, against the loop it replaced."""

    @pytest.mark.parametrize("text", [
        "# run\nobjective = bpr\n\n  seed=3  \n# d = 9\n",
        "objective=direct_au\r\ngamma = 0.5\r\n\r\nseed = 1\r\n",
        "seed = 1\nseed = 2\nlr = 1e-3 # not a comment\n",
        "a = b = c\n = empty key\nempty value =\n",
        "objective = bpr\nno separator here\n",
        "#only = comments\n\n",
        "",
    ])
    def test_matches_config_oracle(self, tmp_path, text):
        p = tmp_path / "run.conf"
        p.write_bytes(text.encode())
        assert outcome(read_key_values, p) == outcome(naive_read_config_file, p)
