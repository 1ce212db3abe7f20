"""Embedding table, graph propagation, row normalization, dump format."""

import importlib.machinery
import importlib.util
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp

from directau import (
    EmbeddingTable,
    GraphPropagator,
    InteractionSet,
    init_xavier,
    normalize_rows,
    read_embeddings,
    write_embeddings,
)
from directau.data import UserIndex
from directau.errors import DegenerateEmbedding
from directau.encoders import _sparsetools, _spmm_into
from helpers import (
    as_scipy,
    layer_mean,
    naive_backward,
    naive_propagate,
    scipy_adjacency,
)


class TestXavierInit:
    def test_bound_d64(self):
        t = init_xavier(100, 50, 64, seed=0)
        assert np.all(np.abs(t.user_emb) <= np.sqrt(6.0 / (100 + 64)))
        assert np.all(np.abs(t.item_emb) <= np.sqrt(6.0 / (50 + 64)))

    def test_deterministic(self):
        a = init_xavier(20, 30, 8, seed=42)
        b = init_xavier(20, 30, 8, seed=42)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_seed_changes_values(self):
        a = init_xavier(20, 30, 8, seed=42)
        b = init_xavier(20, 30, 8, seed=43)
        assert not np.array_equal(a.user_emb, b.user_emb)

    def test_singleton_scalars(self):
        t = init_xavier(1, 1, 1, seed=0)
        assert abs(t.user_emb[0, 0]) <= np.sqrt(3.0)
        assert abs(t.item_emb[0, 0]) <= np.sqrt(3.0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            init_xavier(2, 2, 0, seed=0)


class TestEmbeddingTable:
    def test_user_and_item_blocks_are_views_of_one_array(self):
        t = init_xavier(3, 4, 2, seed=0)
        assert t.emb.shape == (7, 2) and t.emb.flags.c_contiguous
        t.user_emb[2, 1] = 5.0
        t.item_emb[0, 0] = 7.0
        assert t.emb[2, 1] == 5.0 and t.emb[3, 0] == 7.0
        assert np.shares_memory(t.user_emb, t.emb) and np.shares_memory(t.item_emb, t.emb)

    def test_from_parts_stacks_users_first(self):
        user, item = np.arange(6.0).reshape(3, 2), -np.arange(4.0).reshape(2, 2)
        t = EmbeddingTable.from_parts(user, item)
        assert (t.n_users, t.n_items, t.d) == (3, 2, 2)
        assert np.array_equal(t.emb, np.concatenate([user, item]))
        assert not np.shares_memory(t.emb, user)

    def test_copy_shares_no_memory(self):
        t = init_xavier(3, 4, 2, seed=0)
        c = t.copy()
        assert not np.shares_memory(c.emb, t.emb)
        assert np.array_equal(c.emb, t.emb) and c.n_users == t.n_users
        c.user_emb[0, 0] = 9.0
        assert t.emb[0, 0] != 9.0


class TestGraphPropagator:
    def test_empty_graph_layer_mean(self):
        t = init_xavier(3, 2, 4, seed=2)
        none = np.empty(0, dtype=np.int64)
        g = GraphPropagator(
            base=t, n_layers=2, adjacency=UserIndex.build(none, none, 5), weights=np.empty(0),
            scratch=np.empty((3, *t.emb.shape)),
        )
        assert np.array_equal(g.propagate(), layer_mean(sp.csr_matrix((5, 5)), t.emb, 2))
        out = EmbeddingTable(g.propagate(), t.n_users)
        assert np.allclose(out.user_emb, t.user_emb / 3.0)
        assert np.allclose(out.item_emb, t.item_emb / 3.0)

    def test_single_edge_hand_propagation(self):
        t = init_xavier(1, 1, 4, seed=3)
        inter = InteractionSet.from_pairs([0], [0], 1, 1)
        g = GraphPropagator.build(t, inter, n_layers=1)
        out = EmbeddingTable(g.propagate(), t.n_users)
        assert np.allclose(out.user_emb[0], (t.user_emb[0] + t.item_emb[0]) / 2.0)
        assert np.allclose(out.item_emb[0], (t.item_emb[0] + t.user_emb[0]) / 2.0)

    def test_adjacency_weights(self):
        # u0 has degree 2, i0 degree 2, i1 degree 1 (via u1)
        inter = InteractionSet.from_pairs([0, 0, 1], [0, 1, 0], 2, 2)
        t = init_xavier(2, 2, 3, seed=0)
        g = GraphPropagator.build(t, inter, n_layers=1)
        assert_graph_equals(g, scipy_adjacency(inter))
        a = as_scipy(g).toarray()
        assert a[0, 2] == pytest.approx(1 / np.sqrt(2 * 2))  # (u0, i0)
        assert a[0, 3] == pytest.approx(1 / np.sqrt(2 * 1))  # (u0, i1)
        assert a[1, 2] == pytest.approx(1 / np.sqrt(1 * 2))  # (u1, i0)
        assert np.array_equal(a, a.T)

    def test_zero_embeddings_propagate_to_zero(self):
        t = EmbeddingTable.from_parts(np.zeros((2, 3)), np.zeros((2, 3)))
        inter = InteractionSet.from_pairs([0, 1], [0, 1], 2, 2)
        g = GraphPropagator.build(t, inter, n_layers=3)
        out = EmbeddingTable(g.propagate(), t.n_users)
        assert np.all(out.user_emb == 0) and np.all(out.item_emb == 0)

    def test_building_with_zero_layers_is_a_value_error(self):
        t = init_xavier(4, 5, 3, seed=4)
        inter = InteractionSet.from_pairs([0, 1, 2, 3], [0, 1, 2, 3], 4, 5)
        for n_layers in (0, -1):
            with pytest.raises(ValueError, match="n_layers must be >= 1"):
                GraphPropagator.build(t, inter, n_layers=n_layers)

    def test_finiteness_preserved(self):
        rng = np.random.default_rng(0)
        inter = InteractionSet.from_pairs(
            rng.permutation(12), rng.permutation(12), 12, 12
        )
        t = init_xavier(12, 12, 6, seed=5)
        g = GraphPropagator.build(t, inter, n_layers=4)
        out = EmbeddingTable(g.propagate(), t.n_users)
        assert np.all(np.isfinite(out.user_emb)) and np.all(np.isfinite(out.item_emb))

    def test_backward_is_transpose_of_forward(self):
        # <A x, y> == <x, A^T y>: the backward pass must be the exact adjoint
        rng = np.random.default_rng(1)
        inter = InteractionSet.from_pairs([0, 0, 1, 2], [0, 1, 1, 2], 3, 3)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 4))
        g = GraphPropagator.build(EmbeddingTable(x, 3), inter, n_layers=2)
        fwd = g.propagate()
        lhs = float(np.sum(fwd * y))
        rhs = float(np.sum(x * g.backward(np.arange(6), y)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @staticmethod
    def random_interactions(rng, n_users=40, n_items=30, n_pairs=200):
        pairs = rng.choice(n_users * n_items, size=n_pairs, replace=False)
        return InteractionSet.from_pairs(pairs // n_items, pairs % n_items, n_users, n_items)

    @staticmethod
    def random_graph(n_layers, seed=0, n_users=40, n_items=30, d=5):
        rng = np.random.default_rng(seed)
        inter = TestGraphPropagator.random_interactions(rng, n_users, n_items)
        t = init_xavier(n_users, n_items, d, seed=seed)
        return rng, GraphPropagator.build(t, inter, n_layers)

    @pytest.mark.parametrize(
        "case", ["single_edge", "every_degree_one", "star_and_isolated_user", "complete", 0, 1, 2, 3]
    )
    def test_graph_equals_the_scipy_oracle(self, case):
        rng = np.random.default_rng(9)
        if case == "single_edge":
            inter = InteractionSet.from_pairs([0], [0], 1, 1)
        elif case == "every_degree_one":
            inter = InteractionSet.from_pairs(rng.permutation(9), rng.permutation(9), 9, 9)
        elif case == "star_and_isolated_user":
            # user 0 meets every item (each of degree 1), user 1 none
            inter = InteractionSet.from_pairs(np.zeros(6, dtype=np.int64), np.arange(6), 2, 6)
        elif case == "complete":
            inter = self.random_interactions(rng, 7, 5, n_pairs=35)
        else:  # a random graph of random density, seeded by the case
            rng = np.random.default_rng(case)
            inter = self.random_interactions(rng, 60, 45, n_pairs=int(rng.integers(1, 900)))
        g = GraphPropagator.build(init_xavier(inter.n_users, inter.n_items, 2, 0), inter, 1)
        assert_graph_equals(g, scipy_adjacency(inter))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_propagate_at_rows_equals_the_full_pass_rows(self, n_layers):
        rng, g = self.random_graph(n_layers)
        n = g.base.emb.shape[0]
        full = g.propagate()
        dense = as_scipy(g).toarray()
        power, want = np.eye(n), np.zeros_like(full)
        for _ in range(n_layers + 1):
            want += power @ g.base.emb
            power = dense @ power
        assert np.allclose(full, want / (n_layers + 1), rtol=0.0, atol=1e-12)
        for rows in (np.unique(rng.integers(0, n, size=15)), np.arange(n), np.array([n - 1]),
                     rng.permutation(n)[:20]):
            assert np.array_equal(g.propagate(rows), full[rows])

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_backward_from_rows_equals_the_padded_full_layer_mean(self, n_layers):
        rng, g = self.random_graph(n_layers, seed=1)
        n = g.base.emb.shape[0]
        for rows in (np.unique(rng.integers(0, n, size=15)), np.arange(n), np.array([0])):
            grad_rows = rng.standard_normal((rows.size, g.base.d))
            grad_rows[0, 0] = -0.0
            padded = np.zeros((n, g.base.d))
            padded[rows] = grad_rows
            got = g.backward(rows, grad_rows)
            want = layer_mean(as_scipy(g), padded, n_layers)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_graph_equals(g, want):
    """The propagator's CSR arrays equal scipy's canonical ones."""
    assert np.array_equal(g.adjacency.indptr, want.indptr)
    assert np.array_equal(g.adjacency.indices, want.indices)
    assert np.array_equal(g.weights, want.data)
    assert g.adjacency.nnz == want.nnz


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBufferedGraphStepMatchesNaiveOracle:
    """propagate/backward run in the propagator's reused buffers; the
    fresh-array versions in tests/helpers.py are the oracle."""

    random_graph = staticmethod(TestGraphPropagator.random_graph)

    @staticmethod
    def row_sets(rng, n):
        return (np.unique(rng.integers(0, n, size=15)), np.arange(n), np.array([n - 1]),
                np.unique(rng.integers(0, n, size=40)), np.array([0]))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_consecutive_calls_on_one_propagator(self, n_layers):
        # each call sees the buffers the previous call left behind
        rng, g = self.random_graph(n_layers, seed=2)
        n = g.base.emb.shape[0]
        assert_same_bits(g.propagate(), naive_propagate(g))
        for rows in self.row_sets(rng, n):
            assert_same_bits(g.propagate(rows), naive_propagate(g, rows))
            grad_rows = rng.standard_normal((rows.size, g.base.d))
            grad_rows[rng.random(grad_rows.shape) < 0.2] = -0.0
            got = g.backward(rows, grad_rows)
            assert_same_bits(got, naive_backward(g, rows, grad_rows))
            g.base.emb[:] = rng.standard_normal(g.base.emb.shape)
        assert_same_bits(g.propagate(), naive_propagate(g))

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_negative_zero_gradient_entry(self, n_layers):
        rng, g = self.random_graph(n_layers, seed=3)
        rows = np.array([0, 7, 45])
        grad_rows = rng.standard_normal((3, g.base.d))
        grad_rows[0, 0] = grad_rows[2, :] = -0.0
        g.backward(rows, -grad_rows)  # leaves the buffers holding other values
        got = g.backward(rows, grad_rows)
        assert_same_bits(got, naive_backward(g, rows, grad_rows))

    def test_backward_result_is_reused_and_propagate_result_is_fresh(self):
        rng, g = self.random_graph(2, seed=4)
        rows = np.array([1, 2, 3])
        first = g.backward(rows, rng.standard_normal((3, g.base.d)))
        second = g.backward(rows, rng.standard_normal((3, g.base.d)))
        # the same sum array of the propagator's scratch, overwritten
        assert first.ctypes.data == second.ctypes.data and first.base is second.base
        table = g.propagate()
        assert first.base is g.scratch and g.scratch.shape == (3, *table.shape)
        assert not np.shares_memory(table, first.base)
        assert not np.shares_memory(g.propagate(rows), table)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_a_base_of_another_width_is_a_value_error(self, n_layers):
        # the scratch keeps the width `build` saw; a wider or narrower base
        # raises instead of reading stale layers
        rng, g = self.random_graph(n_layers, seed=5, d=5)
        n, rows = g.base.emb.shape[0], np.array([1, 4, 9])
        for d in (1, 3, 8):
            g.base = EmbeddingTable(rng.standard_normal((n, d)), g.base.n_users)
            with pytest.raises(ValueError):
                g.propagate()
            with pytest.raises(ValueError):
                g.propagate(rows)
            with pytest.raises(ValueError):
                g.backward(rows, rng.standard_normal((rows.size, d)))

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_spmm_into_matches_the_sparse_product(self, d):
        # the whole adjacency, a row slice, and the slice's transpose (its
        # CSR arrays read as CSC) against scipy's products on the oracle
        rng = np.random.default_rng(6)
        inter = TestGraphPropagator.random_interactions(rng)
        g = GraphPropagator.build(init_xavier(inter.n_users, inter.n_items, d, 6), inter, 2)
        a = scipy_adjacency(inter)
        n = a.shape[0]
        for rows in (np.unique(rng.integers(0, n, size=20)), rng.permutation(n)[:9], np.array([4])):
            k = rows.size
            cases = (("csr", (n, n), g._csr(), a), ("csr", (k, n), g._csr(rows), a[rows]),
                     ("csc", (n, k), g._csr(rows), a[rows].T))
            for fmt, shape, arrays, matrix in cases:
                x = rng.standard_normal((shape[1], d))
                x[rng.random(x.shape) < 0.2] = -0.0
                out = np.full((shape[0], d), np.nan)  # stale values must not leak
                got = _spmm_into(fmt, shape, arrays, x, out)
                assert got is out
                assert_same_bits(got, matrix @ x)

    def test_spmm_into_rejects_a_wrong_output_shape(self):
        _, g = self.random_graph(1, seed=7)
        n = g.base.emb.shape[0]
        with pytest.raises(ValueError):
            _spmm_into("csr", (n, n), g._csr(), np.ones((n, 3)), np.empty((n, 4)))

    def test_spmm_into_rejects_a_shape_that_disagrees_with_indptr(self):
        # the kernel would read past the pointer array
        _, g = self.random_graph(1, seed=7)
        n = g.base.emb.shape[0]
        rows = np.array([0, 3, 5])
        for fmt, shape, arrays in (("csr", (n + 1, n), g._csr()), ("csc", (n, 4), g._csr(rows))):
            x, out = np.ones((shape[1], 2)), np.empty((shape[0], 2))
            with pytest.raises(ValueError):
                _spmm_into(fmt, shape, arrays, x, out)


class TestSparseKernel:
    """The graph products run in scipy's compiled kernel, loaded alone."""

    def test_kernel_is_scipys_sparsetools_extension(self):
        import scipy.sparse._sparsetools as scipy_kernel

        assert _sparsetools().__file__ == scipy_kernel.__file__

    @pytest.mark.parametrize("missing", ["scipy", "kernel_file"])
    def test_missing_kernel_is_an_import_error_naming_scipy(self, monkeypatch, tmp_path, missing):
        spec = None
        if missing == "kernel_file":
            spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]
            (tmp_path / "sparse").mkdir()
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)
        _sparsetools.cache_clear()
        try:
            _, g = TestGraphPropagator.random_graph(1)
            with pytest.raises(ImportError, match="scipy"):
                g.propagate()
        finally:
            _sparsetools.cache_clear()


class TestNormalizeRows:
    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 5))
        once = normalize_rows(x)
        assert np.allclose(normalize_rows(once), once, atol=1e-15)
        assert np.allclose(np.linalg.norm(once, axis=1), 1.0, atol=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        c = rng.uniform(0.1, 10.0, size=(6, 1))
        assert np.allclose(normalize_rows(c * x), normalize_rows(x), atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateEmbedding):
            normalize_rows(np.array([[0.0, 0.0]]))

    def test_nan_row_raises(self):
        with pytest.raises(DegenerateEmbedding):
            normalize_rows(np.array([[np.nan, 1.0]]))


class TestEmbeddingDump:
    def test_lossless_roundtrip(self, tmp_path):
        t = init_xavier(7, 9, 5, seed=8)
        t.user_emb[0, 0] = 1.0 / 3.0  # non-terminating decimal
        p = tmp_path / "emb.npz"
        write_embeddings(t, p)
        back = read_embeddings(p)
        assert np.array_equal(back.user_emb, t.user_emb)
        assert np.array_equal(back.item_emb, t.item_emb)

    def test_special_values_roundtrip_bit_for_bit(self, tmp_path):
        specials = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1.0 / 3.0,
                    np.inf, -np.inf, np.nan, 1e16 + 2.0, -42.0, 2.0**-1074 * 3]
        rng = np.random.default_rng(9)
        user = rng.standard_normal((4, 6))
        user[0] = specials[:6]
        item = rng.standard_normal((3, 6)) * 1e-3
        item[1] = specials[6:]
        t = EmbeddingTable.from_parts(user, item)
        p = tmp_path / "emb.npz"
        write_embeddings(t, p)
        back = read_embeddings(p)
        assert back.n_users == 4 and back.n_items == 3
        assert np.array_equal(back.emb, t.emb, equal_nan=True)
        assert np.array_equal(np.signbit(back.emb), np.signbit(t.emb))
        assert np.array_equal(back.emb.view(np.uint64), t.emb.view(np.uint64))

    def test_two_writes_are_byte_identical(self, tmp_path):
        t = init_xavier(5, 4, 3, seed=1)
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        write_embeddings(t, a)
        write_embeddings(t.copy(), b)
        assert a.read_bytes() == b.read_bytes()
        with zipfile.ZipFile(a) as archive:
            infos = archive.infolist()
        # no clock in the file: every member carries zipfile's fixed default time
        assert [(i.filename, i.date_time, i.compress_type) for i in infos] == [
            (name, (1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)
            for name in ("user_emb.npy", "item_emb.npy")
        ]

    def test_numpy_reads_ours(self, tmp_path):
        t = init_xavier(3, 4, 2, seed=2)
        p = tmp_path / "emb.npz"
        write_embeddings(t, p)
        with np.load(p, allow_pickle=False) as dump:
            assert dump.files == ["user_emb", "item_emb"]
            assert np.array_equal(dump["user_emb"], t.user_emb)
            assert np.array_equal(dump["item_emb"], t.item_emb)

    @pytest.mark.parametrize("save", [np.savez, np.savez_compressed])
    def test_reads_numpy_savez(self, tmp_path, save):
        rng = np.random.default_rng(3)
        user, item = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        p = tmp_path / "other.npz"
        save(p, item_emb=item, user_emb=user)
        back = read_embeddings(p)
        assert back.n_users == 3
        assert np.array_equal(back.user_emb, user) and np.array_equal(back.item_emb, item)
