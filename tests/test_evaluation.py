"""Ranking metrics, geometry estimators, and the bound harness."""

import tracemalloc

import numpy as np
import pytest

from directau import evaluation
from directau import (
    EmbeddingTable,
    InteractionSet,
    bpr_loss,
    geometry_report,
    rank_eval,
)
from directau.encoders import normalize_rows
from directau.errors import DegenerateEmbedding, InsufficientData, NothingToEvaluate
from helpers import (
    blocked_potential_mean,
    bpr_bound_harness,
    naive_alignment,
    naive_rank_eval,
    naive_split,
    naive_uniformity,
    random_interaction_set,
    sphere_sample,
)


def manual_split(train_pairs, val_pairs, test_pairs, n_users, n_items):
    from directau.data import DatasetSplit, UserIndex

    def index(pairs):
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return UserIndex.build(pairs[:, 0], pairs[:, 1], n_users)

    tr = InteractionSet.from_pairs(
        [p[0] for p in train_pairs], [p[1] for p in train_pairs], n_users, n_items
    )
    return DatasetSplit(
        train=tr, train_index=index(train_pairs), validation=index(val_pairs), test=index(test_pairs)
    )


class TestRankEval:
    def table_for_scores(self, scores):
        """One user whose dot products with one-hot items equal `scores`."""
        n_items = len(scores)
        return EmbeddingTable.from_parts(
            np.array([scores], dtype=float), np.eye(n_items, dtype=float)
        )

    def test_perfect_ranking(self):
        t = self.table_for_scores([0.1, 0.9, 0.2, 0.0])
        ds = manual_split([(0, 0)], [(0, 1)], [], 1, 4)
        m = rank_eval(t, ds, "validation", ks=(10,))
        assert m.recall_at[10] == 1.0 and m.ndcg_at[10] == 1.0

    def test_target_ranked_second(self):
        t = self.table_for_scores([0.9, 0.8, 0.1, 0.0])
        ds = manual_split([(0, 3)], [(0, 1)], [], 1, 4)
        m = rank_eval(t, ds, "validation", ks=(2,))
        assert m.recall_at[2] == 1.0
        assert m.ndcg_at[2] == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)
        assert m.ndcg_at[2] == pytest.approx(0.63093, abs=1e-5)

    def test_pathological_target_masked(self):
        # the target is also a training item -> masked -> scores zero
        t = self.table_for_scores([0.9, 0.8, 0.1])
        ds = manual_split([(0, 1)], [(0, 1)], [], 1, 3)
        m = rank_eval(t, ds, "validation", ks=(3,))
        assert m.recall_at[3] == 0.0 and m.ndcg_at[3] == 0.0

    def test_training_items_never_ranked(self):
        # targets = every non-train item, K = n_items: if a training item
        # ever leaked into the top-K it would displace a target and drag
        # recall/ndcg below 1 for some user
        rng = np.random.default_rng(0)
        for _ in range(10):
            data = random_interaction_set(rng, max_users=6, max_items=8, max_pairs=25)
            train_pairs = list(zip(data.users.tolist(), data.items.tolist()))
            val_pairs = [
                (u, i)
                for u in range(data.n_users)
                for i in range(data.n_items)
                if (u, i) not in set(train_pairs)
            ]
            if not val_pairs:
                continue
            ds = manual_split(train_pairs, val_pairs, [], data.n_users, data.n_items)
            t = EmbeddingTable.from_parts(
                rng.standard_normal((data.n_users, 4)),
                rng.standard_normal((data.n_items, 4)),
            )
            m = rank_eval(t, ds, "validation", ks=(data.n_items,))
            assert m.recall_at[data.n_items] == pytest.approx(1.0, abs=1e-12)
            assert m.ndcg_at[data.n_items] == pytest.approx(1.0, abs=1e-12)

    def test_tie_break_by_ascending_item_id(self):
        t = self.table_for_scores([0.5, 0.5, 0.5, 0.1])
        ds = manual_split([(0, 3)], [(0, 1)], [], 1, 4)
        # items 0,1,2 tie: item 0 ranks first, target item 1 second
        m = rank_eval(t, ds, "validation", ks=(1, 2))
        assert m.recall_at[1] == 0.0
        assert m.recall_at[2] == 1.0
        assert m.ndcg_at[2] == pytest.approx(1.0 / np.log2(3.0), abs=1e-12)

    def test_users_without_targets_skipped(self):
        t = EmbeddingTable.from_parts(np.eye(2), np.eye(2))
        ds = manual_split([(0, 0), (1, 1)], [(0, 1)], [], 2, 2)
        m = rank_eval(t, ds, "validation", ks=(1,))
        assert m.n_users_evaluated == 1

    def test_nothing_to_evaluate(self):
        t = EmbeddingTable.from_parts(np.eye(2), np.eye(2))
        ds = manual_split([(0, 0), (1, 1)], [], [], 2, 2)
        with pytest.raises(NothingToEvaluate):
            rank_eval(t, ds, "validation", ks=(1,))

    def test_metrics_bounded_and_monotone_in_k(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            data = random_interaction_set(rng, max_users=7, max_items=9, max_pairs=40)
            ds = naive_split(data, (0.6, 0.2, 0.2), seed=2)
            if ds.validation.nnz == 0:
                continue
            t = EmbeddingTable.from_parts(
                rng.standard_normal((data.n_users, 3)),
                rng.standard_normal((data.n_items, 3)),
            )
            m = rank_eval(t, ds, "validation", ks=(1, 3, 5, 9))
            vals_r = [m.recall_at[k] for k in (1, 3, 5, 9)]
            vals_n = [m.ndcg_at[k] for k in (1, 3, 5, 9)]
            assert all(0.0 <= v <= 1.0 for v in vals_r + vals_n)
            assert vals_r == sorted(vals_r)
            assert vals_n == sorted(vals_n)

    def test_all_targets_on_top(self):
        t = self.table_for_scores([0.9, 0.8, 0.1, 0.05])
        ds = manual_split([(0, 3)], [(0, 0), (0, 1)], [], 1, 4)
        m = rank_eval(t, ds, "validation", ks=(2, 4))
        assert m.recall_at[2] == 1.0 and m.ndcg_at[2] == 1.0


class TestRankEvalMatchesOracle:
    """Ranks counted per target against the full stable sort of every row."""

    @staticmethod
    def random_split(rng, n_users, n_items, density):
        users, items = np.nonzero(rng.random((n_users, n_items)) < density)
        data = InteractionSet.from_pairs(users, items, n_users, n_items)
        return naive_split(data, (0.6, 0.2, 0.2), seed=int(rng.integers(1000)))

    @staticmethod
    def integer_table(rng, n_users, n_items):
        # entries in {-1, 0, 1} over two dimensions: five distinct scores
        return EmbeddingTable.from_parts(
            rng.integers(-1, 2, (n_users, 2)).astype(float),
            rng.integers(-1, 2, (n_items, 2)).astype(float),
        )

    @staticmethod
    def assert_matches(table, ds, ks):
        for target in ("validation", "test"):
            got = rank_eval(table, ds, target, ks)
            assert got == naive_rank_eval(table, ds, target, ks)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_float_tables(self, seed):
        rng = np.random.default_rng(seed)
        ds = self.random_split(rng, 60, 40, 0.3)
        t = EmbeddingTable.from_parts(rng.standard_normal((60, 8)), rng.standard_normal((40, 8)))
        self.assert_matches(t, ds, (1, 5, 10, 20))

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_tables_with_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        ds = self.random_split(rng, 60, 40, 0.3)
        t = self.integer_table(rng, 60, 40)
        self.assert_matches(t, ds, (1, 3, 10, 20))

    def test_k_beyond_unmasked_items(self):
        rng = np.random.default_rng(7)
        ds = self.random_split(rng, 30, 12, 0.9)
        unmasked = 12 - np.bincount(ds.train.users, minlength=30)
        assert unmasked.max() < 12
        for t in (
            EmbeddingTable.from_parts(rng.standard_normal((30, 4)), rng.standard_normal((12, 4))),
            self.integer_table(rng, 30, 12),
        ):
            self.assert_matches(t, ds, (int(unmasked.max()) + 1, 12, 40))
        # a target that is also a training item is masked, never a hit
        t = EmbeddingTable.from_parts(np.array([[0.9, 0.8, 0.1]]), np.eye(3))
        ds = manual_split([(0, 1), (0, 2)], [(0, 1), (0, 0)], [(0, 2)], 1, 3)
        self.assert_matches(t, ds, (1, 3, 5))

    @pytest.mark.parametrize("block_rows", [7, 24])
    def test_more_users_than_one_block(self, monkeypatch, block_rows):
        rng = np.random.default_rng(11)
        ds = self.random_split(rng, 300, 25, 0.3)
        # targets are ranked in chunks of block_rows // 8 (1 or 3), so one
        # user's targets straddle a chunk boundary
        monkeypatch.setattr(evaluation, "BLOCK_BUDGET", block_rows * 25 * 8)
        assert rank_eval(self.integer_table(rng, 300, 25), ds).n_users_evaluated > block_rows
        for t in (
            EmbeddingTable.from_parts(rng.standard_normal((300, 6)), rng.standard_normal((25, 6))),
            self.integer_table(rng, 300, 25),
        ):
            self.assert_matches(t, ds, (1, 10, 20))

    def test_peak_allocation_follows_the_budget(self, monkeypatch):
        budget = 1 << 20
        monkeypatch.setattr(evaluation, "BLOCK_BUDGET", budget)
        rng = np.random.default_rng(2)
        n_users, n_items = 400, 4000  # the full score table is 12.2x the budget
        ds = self.random_split(rng, n_users, n_items, 0.004)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((n_users, 16)), rng.standard_normal((n_items, 16))
        )
        rank_eval(t, ds)  # builds and caches the per-user indices
        tracemalloc.start()
        try:
            got = rank_eval(t, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.n_users_evaluated * n_items * 8 > 10 * budget
        assert peak < 1.5 * budget

    def test_non_finite_table_is_rejected(self):
        rng = np.random.default_rng(3)
        ds = self.random_split(rng, 20, 10, 0.5)
        t = EmbeddingTable.from_parts(rng.standard_normal((20, 3)), rng.standard_normal((10, 3)))
        t.item_emb[4, 1] = np.nan
        with pytest.raises(DegenerateEmbedding):
            rank_eval(t, ds)


def uniformity(table, inter):
    """geometry_report's (user side, item side, combined) uniformity."""
    rep = geometry_report(table, inter)
    return rep.l_uniform_user, rep.l_uniform_item, rep.l_uniform


class TestMeasureAlignment:
    def test_all_equal_is_zero(self):
        t = EmbeddingTable.from_parts(np.tile([[1.0, 1.0]], (3, 1)), np.tile([[2.0, 2.0]], (4, 1)))
        inter = InteractionSet.from_pairs([0, 1, 2], [0, 1, 3], 3, 4)
        assert geometry_report(t, inter).l_align == pytest.approx(0.0, abs=1e-12)

    def test_single_orthogonal_pair(self):
        # geometry needs two interactions: two copies of one orthogonal pair
        t = EmbeddingTable.from_parts(np.array([[1.0, 0.0]] * 2), np.array([[0.0, 1.0]] * 2))
        inter = InteractionSet.from_pairs([0, 1], [0, 1], 2, 2)
        assert geometry_report(t, inter).l_align == 2.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        data = random_interaction_set(rng, max_pairs=20)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((data.n_users, 4)),
            rng.standard_normal((data.n_items, 4)),
        )
        assert geometry_report(t, data).l_align == pytest.approx(
            naive_alignment(t, data), abs=1e-12
        )

    def test_rescale_invariant(self):
        rng = np.random.default_rng(6)
        data = random_interaction_set(rng)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((data.n_users, 4)),
            rng.standard_normal((data.n_items, 4)),
        )
        scaled = EmbeddingTable.from_parts(
            t.user_emb * rng.uniform(0.5, 3.0, size=(data.n_users, 1)),
            t.item_emb * rng.uniform(0.5, 3.0, size=(data.n_items, 1)),
        )
        assert geometry_report(scaled, data).l_align == pytest.approx(
            geometry_report(t, data).l_align, abs=1e-12
        )

    @staticmethod
    def unblocked(table, inter):
        """The alignment expression before it took row blocks."""
        un, im = normalize_rows(table.user_emb), normalize_rows(table.item_emb)
        diff = un[inter.users] - im[inter.items]
        return float(np.mean(np.sum(diff * diff, axis=1)))

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 61, 10**6])
    def test_row_blocks_equal_the_unblocked_expression(self, monkeypatch, block_rows):
        rng = np.random.default_rng(block_rows)
        for d in (1, 5, 33):
            monkeypatch.setattr(evaluation, "CACHE_BUDGET", 8 * d * block_rows)
            data = random_interaction_set(rng, max_users=30, max_items=40, max_pairs=400)
            t = EmbeddingTable.from_parts(
                rng.standard_normal((data.n_users, d)), rng.standard_normal((data.n_items, d))
            )
            assert geometry_report(t, data).l_align == self.unblocked(t, data)

    def test_peak_allocation_follows_the_budget(self, monkeypatch):
        budget = 64 << 10
        monkeypatch.setattr(evaluation, "BLOCK_BUDGET", budget)
        monkeypatch.setattr(evaluation, "CACHE_BUDGET", budget)
        rng = np.random.default_rng(7)
        n_users, n_items, d = 400, 300, 32
        pairs = rng.choice(n_users * n_items, size=30000, replace=False)
        data = InteractionSet.from_pairs(pairs // n_items, pairs % n_items, n_users, n_items)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((n_users, d)), rng.standard_normal((n_items, d))
        )
        tracemalloc.start()
        try:
            geometry_report(t, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pairs' (|R|, d) differences are 117x the budget; the blocks,
        # the per-pair sums and the normalized tables stay under 10 budgets
        assert data.n_pairs * d * 8 > 100 * budget
        assert peak < 3 * budget + 8 * data.n_pairs + 3 * t.emb.nbytes


class TestMeasureUniformity:
    def test_two_interactions_antipodal_users(self):
        t = EmbeddingTable.from_parts(
            np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 1.0]])
        )
        inter = InteractionSet.from_pairs([0, 1], [0, 1], 2, 2)
        lu, li, combined = uniformity(t, inter)
        assert lu == pytest.approx(-8.0, abs=1e-12)
        assert li == pytest.approx(0.0, abs=1e-12)
        assert combined == pytest.approx(-4.0, abs=1e-12)

    def test_all_identical_is_zero(self):
        t = EmbeddingTable.from_parts(np.tile([[1.0, 2.0]], (3, 1)), np.tile([[3.0, 1.0]], (4, 1)))
        inter = InteractionSet.from_pairs([0, 0, 1, 2], [0, 1, 2, 3], 3, 4)
        lu, li, combined = uniformity(t, inter)
        assert lu == pytest.approx(0.0, abs=1e-12)
        assert li == pytest.approx(0.0, abs=1e-12)
        assert combined == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data = random_interaction_set(rng, max_users=6, max_items=7, max_pairs=30)
            t = EmbeddingTable.from_parts(
                rng.standard_normal((data.n_users, 3)),
                rng.standard_normal((data.n_items, 3)),
            )
            got = uniformity(t, data)
            want = naive_uniformity(t, data)
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("budget_rows", [1, 2, 5])
    def test_gram_blocks_match_naive_double_loop(self, monkeypatch, budget_rows):
        rng = np.random.default_rng(budget_rows)
        for _ in range(10):
            data = random_interaction_set(rng, max_users=8, max_items=9, max_pairs=40)
            # budget_rows rows of the wider side's gram per block
            width = max(data.n_users, data.n_items)
            monkeypatch.setattr(evaluation, "BLOCK_BUDGET", 8 * width * budget_rows)
            t = EmbeddingTable.from_parts(
                rng.standard_normal((data.n_users, 3)),
                rng.standard_normal((data.n_items, 3)),
            )
            got = uniformity(t, data)
            assert got == pytest.approx(naive_uniformity(t, data), abs=1e-10)

    @pytest.mark.parametrize("budget_rows", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 7, 11])
    def test_strips_match_the_blocked_oracle(self, monkeypatch, budget_rows, n):
        # 7 and 11 are not multiples of 2 or 5; n = 1 is a side with one entity
        monkeypatch.setattr(evaluation, "BLOCK_BUDGET", 8 * n * budget_rows)
        rng = np.random.default_rng(10 * n + budget_rows)
        for _ in range(10):
            xn = normalize_rows(rng.standard_normal((n, 4)))
            pop = rng.integers(0, 4, n)  # entities with zero popularity too
            pop[0] = max(pop[0], 2)
            n_pairs = int(pop.sum())
            got = evaluation._weighted_potential_mean(xn, pop, n_pairs)
            assert got == pytest.approx(blocked_potential_mean(xn, pop, n_pairs), abs=1e-12)

    def test_items_without_training_popularity(self):
        # the items only validation/test pairs use have popularity 0 in the train side
        rng = np.random.default_rng(6)
        data = random_interaction_set(rng, max_users=8, max_items=9, max_pairs=40)
        inter = InteractionSet.from_pairs(data.users, data.items, data.n_users, data.n_items + 3)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((inter.n_users, 3)), rng.standard_normal((inter.n_items, 3))
        )
        rep = geometry_report(t, inter)
        im = normalize_rows(t.item_emb)
        item_pop = np.bincount(inter.items, minlength=inter.n_items)
        want = blocked_potential_mean(im, item_pop, inter.n_pairs)
        assert rep.l_uniform_item == pytest.approx(want, abs=1e-12)
        assert rep.l_uniform_item == pytest.approx(naive_uniformity(t, inter)[1], abs=1e-10)

    def test_strips_match_the_blocked_oracle_at_the_real_budget(self):
        # several row blocks per side at 8 MiB, the last one short
        rng = np.random.default_rng(15)
        n_users, n_items = 1500, 1100
        users = np.repeat(np.arange(n_users), 3)
        items = (users * 7 + np.tile([0, 1, 5], n_users)) % n_items
        data = InteractionSet.from_pairs(users, items, n_users, n_items)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((n_users, 32)), rng.standard_normal((n_items, 32))
        )
        assert n_users * n_users * 8 > evaluation.BLOCK_BUDGET
        rep = geometry_report(t, data)
        un, im = normalize_rows(t.user_emb), normalize_rows(t.item_emb)
        lu = blocked_potential_mean(un, np.bincount(data.users, minlength=n_users), data.n_pairs)
        li = blocked_potential_mean(im, np.bincount(data.items, minlength=n_items), data.n_pairs)
        assert rep.l_uniform_user == pytest.approx(lu, abs=1e-12)
        assert rep.l_uniform_item == pytest.approx(li, abs=1e-12)
        assert rep.l_uniform == pytest.approx((lu + li) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("budget_rows", [1, 3, 1000])
    def test_permuting_the_entities(self, monkeypatch, budget_rows):
        n = 40
        monkeypatch.setattr(evaluation, "BLOCK_BUDGET", 8 * n * budget_rows)
        rng = np.random.default_rng(budget_rows)
        xn = normalize_rows(rng.standard_normal((n, 8)))
        pop = rng.integers(0, 6, n)
        n_pairs = int(pop.sum())
        want = evaluation._weighted_potential_mean(xn, pop, n_pairs)
        for _ in range(5):
            perm = rng.permutation(n)
            got = evaluation._weighted_potential_mean(xn[perm], pop[perm], n_pairs)
            assert got == pytest.approx(want, abs=1e-12)

    def test_peak_allocation_follows_the_budget(self, monkeypatch):
        budget = 1 << 20
        monkeypatch.setattr(evaluation, "BLOCK_BUDGET", budget)
        rng = np.random.default_rng(4)
        n_users, n_items = 1500, 300  # the user gram is 17x the budget
        users = np.repeat(np.arange(n_users), 2)
        items = np.column_stack([np.arange(n_users), np.arange(n_users) + 1]).ravel() % n_items
        data = InteractionSet.from_pairs(users, items, n_users, n_items)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((n_users, 16)), rng.standard_normal((n_items, 16))
        )
        tracemalloc.start()
        try:
            geometry_report(t, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_users * n_users * 8 > 10 * budget
        assert peak < 3 * budget

    def test_insufficient_data(self):
        t = EmbeddingTable.from_parts(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        inter = InteractionSet.from_pairs([0], [0], 1, 1)
        with pytest.raises(InsufficientData):
            geometry_report(t, inter)

    def test_geometry_report_bounds(self):
        rng = np.random.default_rng(8)
        data = random_interaction_set(rng)
        t = EmbeddingTable.from_parts(
            rng.standard_normal((data.n_users, 5)),
            rng.standard_normal((data.n_items, 5)),
        )
        rep = geometry_report(t, data)
        assert 0.0 <= rep.l_align <= 4.0
        assert -8.0 <= rep.l_uniform_user <= 0.0
        assert -8.0 <= rep.l_uniform_item <= 0.0
        assert rep.l_uniform == pytest.approx(
            (rep.l_uniform_user + rep.l_uniform_item) / 2.0, abs=1e-15
        )


class TestBoundHarness:
    def test_aligned_uniform_within_error(self):
        rng = np.random.default_rng(10)
        r = bpr_bound_harness(8, 10_000, rng)
        combined_se = np.hypot(r.measured_se, r.bound_se)
        assert abs(r.measured_bpr - r.bound) <= 3.0 * combined_se

    def test_broken_alignment_exceeds_bound(self):
        base = bpr_bound_harness(8, 10_000, np.random.default_rng(11))
        broken = bpr_bound_harness(8, 10_000, np.random.default_rng(12), "antipodal")
        assert broken.measured_bpr > base.bound + 0.1

    def test_broken_uniformity_exceeds_bound(self):
        r = bpr_bound_harness(2, 10_000, np.random.default_rng(13), "collapse")
        assert r.measured_bpr > r.bound
        # collapsed positives and negatives coincide: the loss is exactly ln 2
        assert r.measured_bpr == pytest.approx(np.log(2.0), abs=1e-12)

    def test_measured_side_matches_loss_module(self):
        rng = np.random.default_rng(14)
        n, d = 2_000, 8
        pts = sphere_sample(rng, n, d)
        negs = pts[rng.integers(0, n, size=n)]
        direct = bpr_loss(pts, pts, negs)[0]
        rng2 = np.random.default_rng(14)
        r = bpr_bound_harness(d, n, rng2)
        assert r.measured_bpr == pytest.approx(direct, abs=1e-12)

    def test_preconditions(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            bpr_bound_harness(1, 10_000, rng)
        with pytest.raises(ValueError):
            bpr_bound_harness(4, 10, rng)
        with pytest.raises(ValueError):
            bpr_bound_harness(4, 10_000, rng, "sideways")
