"""Loss values, analytic gradients vs finite differences, negative sampling."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from directau import (
    EmbeddingTable,
    InteractionSet,
    bpr_loss,
    direct_au_loss,
    sample_negatives,
)
from directau import losses
from directau.errors import InsufficientBatch, NoNegativeAvailable
from helpers import (
    align_loss,
    finite_difference_gradients,
    naive_bpr_loss,
    naive_direct_au_loss,
    naive_sample_negatives,
    naive_split,
    naive_uniform_loss,
    per_user_negatives,
    relative_gradient_error,
    uniform_loss,
)

SHAPES = [(n, d) for n in (2, 3, 8) for d in (2, 4, 16)]


def batch(rng, n, d):
    # norms kept away from zero so finite differences stay well-conditioned
    x = rng.standard_normal((n, d))
    return x + 0.1 * np.sign(x)


class TestGradients:
    @pytest.mark.parametrize("n,d", SHAPES)
    def test_align(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        u, i = batch(rng, n, d), batch(rng, n, d)
        _, grad_u, grad_i = align_loss(u, i)
        fu, fi = finite_difference_gradients(lambda a, b: align_loss(a, b)[0], [u, i])
        assert relative_gradient_error(grad_u, fu) < 1e-4
        assert relative_gradient_error(grad_i, fi) < 1e-4

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_uniform(self, n, d):
        rng = np.random.default_rng(n * 200 + d)
        x = batch(rng, n, d)
        _, grad = uniform_loss(x)
        (fx,) = finite_difference_gradients(lambda a: uniform_loss(a)[0], [x])
        assert relative_gradient_error(grad, fx) < 1e-4

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_direct_au(self, n, d):
        rng = np.random.default_rng(n * 300 + d)
        u, i = batch(rng, n, d), batch(rng, n, d)
        _, grad = direct_au_loss(u, i, gamma=2.0)
        fu, fi = finite_difference_gradients(
            lambda a, b: direct_au_loss(a, b, gamma=2.0)[0], [u, i]
        )
        assert relative_gradient_error(grad[:n], fu) < 1e-4
        assert relative_gradient_error(grad[n:], fi) < 1e-4

    # each id names the score: bpr_loss scores by dot product
    @pytest.mark.parametrize("n,d", SHAPES, ids=[f"{n}-{d}-dot" for n, d in SHAPES])
    def test_bpr(self, n, d):
        rng = np.random.default_rng(n * 400 + d)
        u, i, j = batch(rng, n, d), batch(rng, n, d), batch(rng, n, d)
        _, grad = bpr_loss(u, i, j)
        fu, fi, fj = finite_difference_gradients(
            lambda a, b, c: bpr_loss(a, b, c)[0], [u, i, j]
        )
        assert relative_gradient_error(grad[:n], fu) < 1e-4
        assert relative_gradient_error(grad[n : 2 * n], fi) < 1e-4
        assert relative_gradient_error(grad[2 * n :], fj) < 1e-4


class TestAlignValues:
    def test_identical_pairs_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert align_loss(x, 2.5 * x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert align_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0] == 2.0

    def test_antipodal_pair(self):
        assert align_loss(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))[0] == 4.0


class TestUniformValues:
    def test_identical_rows_zero(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
        assert uniform_loss(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_rows(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert uniform_loss(x)[0] == pytest.approx(-8.0, abs=1e-12)

    def test_three_rows_at_120_degrees(self):
        angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        x = np.array([[np.cos(a), np.sin(a)] for a in angles])
        assert uniform_loss(x)[0] == pytest.approx(-6.0, abs=1e-12)

    def test_insufficient_batch(self):
        with pytest.raises(InsufficientBatch):
            uniform_loss(np.array([[1.0, 0.0]]))

    def test_strictly_negative_when_rows_differ(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((4, 3))
            assert uniform_loss(x)[0] < 0.0


class TestDirectAUValues:
    def test_gamma_zero_equals_align(self):
        rng = np.random.default_rng(1)
        u, i = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        au_value, au_grad = direct_au_loss(u, i, gamma=0.0)
        al_value, al_u, al_i = align_loss(u, i)
        assert au_value == al_value
        assert np.array_equal(au_grad, np.concatenate([al_u, al_i]))

    def test_identical_batch_is_zero(self):
        x = np.tile([[0.0, 2.0]], (4, 1))
        assert direct_au_loss(x, x, gamma=3.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_composition_identity(self):
        rng = np.random.default_rng(2)
        u, i = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        combined = direct_au_loss(u, i, gamma=1.0)[0]
        parts = (
            align_loss(u, i)[0]
            + (uniform_loss(u)[0] + uniform_loss(i)[0]) / 2.0
        )
        assert combined == pytest.approx(parts, abs=1e-12)

    def test_negative_gamma_rejected(self):
        x = np.ones((2, 2))
        with pytest.raises(ValueError):
            direct_au_loss(x, x, gamma=-0.1)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def oracle_batch(rng, n, kind, d=64):
    """Independent rows (kind False); every row one of n // 4 rows (True;
    all one row at n = 2); or rows capped at the logit 0 ("one_row": every
    row one vector, "one_pair": independent rows but for one duplicate
    pair). A capped row is a power of two times random signs, so its unit
    row's self dot product is exactly 1 in any summation order."""
    x = rng.standard_normal((n, d))
    if kind is True:
        x = x[rng.integers(0, max(1, n // 4), size=n)]
    elif kind:
        capped = 2.0 ** rng.integers(-4, 5) * rng.choice([-1.0, 1.0], size=d)
        x[np.arange(n) if kind == "one_row" else [0, n - 1]] = capped
    return x


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the oracle's exception type is the expectation
        return type(exc)
    return None


ORACLE_SIZES = [2, 24, 256, 257, 1024]
BATCH_KINDS = [False, True, "one_row", "one_pair"]
BAD_BATCHES = {
    "shape_mismatch": (np.ones((3, 4)), np.ones((3, 5))),
    "one_dimensional": (np.ones(4), np.ones(4)),
    "one_dimensional_user": (np.ones(4), np.ones((1, 4))),
    "one_dimensional_item": (np.ones((1, 4)), np.ones(4)),
    "empty": (np.empty((0, 4)), np.empty((0, 4))),
    "single_pair": (np.ones((1, 4)), np.ones((1, 4))),
    "zero_row": (np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]]), np.ones((3, 2))),
}


class TestMatchesNaiveOracle:
    """The in-place uniformity kernel reproduces the out-of-place
    expressions bit for bit: values and gradients equal with sign bits."""

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_direct_au(self, n, gamma, kind):
        rng = np.random.default_rng(n)
        u, i = oracle_batch(rng, n, kind), oracle_batch(rng, n, kind)
        got_value, got_grad = direct_au_loss(u, i, gamma)
        want_value, *want_grads = naive_direct_au_loss(u, i, gamma)
        assert same_bits(got_value, want_value)
        # one C-contiguous array: the arguments' gradients in argument order
        assert got_grad.flags.c_contiguous and got_grad.dtype == np.float64
        assert same_bits(got_grad, np.concatenate(want_grads))

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_uniform(self, n, kind):
        x = oracle_batch(np.random.default_rng(n + 1), n, kind)
        (got_value, got_grad), (want_value, want_grad) = uniform_loss(x), naive_uniform_loss(x)
        assert same_bits(got_value, want_value)
        assert same_bits(got_grad, want_grad)
        if kind == "one_row":  # every weight exp(0): the mean potential is 1
            assert same_bits(got_value, 0.0)

    @pytest.mark.parametrize("case", sorted(BAD_BATCHES))
    def test_direct_au_raises_like_oracle(self, case):
        u, i = BAD_BATCHES[case]
        want = raised(naive_direct_au_loss, u, i, 1.0)
        assert want is not None
        assert raised(direct_au_loss, u, i, 1.0) is want

    @pytest.mark.parametrize("case", ["empty", "single_pair", "zero_row"])
    def test_uniform_raises_like_oracle(self, case):
        x = BAD_BATCHES[case][0]
        want = raised(naive_uniform_loss, x)
        assert want is not None
        assert raised(uniform_loss, x) is want

    def test_direct_au_allocates_one_square_buffer(self):
        # the oracle holds about six (n, n) float64 arrays per uniformity;
        # the kernel needs one, shared by both sides, plus (n, d) arrays
        n, d = 512, 64
        rng = np.random.default_rng(8)
        u, i = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        direct_au_loss(u, i, 1.0)
        tracemalloc.start()
        try:
            direct_au_loss(u, i, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


def test_losses_return_no_loss_output_type():
    import directau

    assert not hasattr(losses, "LossOutput")
    assert "LossOutput" not in directau.__all__
    with pytest.raises(AttributeError):
        directau.LossOutput


class TestBPRValues:
    def test_equal_scores_ln2(self):
        u = np.array([[1.0, 0.0]])
        assert bpr_loss(u, u, u)[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturation(self):
        u = np.array([[1.0, 0.0]])
        pos = np.array([[20.5, 0.0]])
        neg = np.array([[0.5, 0.0]])
        assert bpr_loss(u, pos, neg)[0] < 1e-8

    def test_scalar_margin_half(self):
        u = np.array([[1.0, 0.0]])
        pos = np.array([[1.0, 0.0]])
        neg = np.array([[0.5, 0.0]])
        expected = np.log1p(np.exp(-0.5))  # -ln sigmoid(0.5) = 0.474077...
        assert bpr_loss(u, pos, neg)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.474077, abs=1e-6)

    def test_one_exponential_matches_softplus_and_sigmoid_bit_for_bit(self):
        # margins where a one-sided exp would overflow or underflow, and signed zeros
        margins = np.array([-800.0, -40.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 40.0, 800.0])
        rng = np.random.default_rng(5)
        cases = [
            (np.ones((10, 1)), margins[:, None], np.zeros((10, 1))),
            tuple(3.0 * rng.standard_normal((64, 8)) for _ in range(3)),
        ]
        for u, pos, neg in cases:
            (got_value, got_grad), (want_value, *want_grads) = (
                bpr_loss(u, pos, neg), naive_bpr_loss(u, pos, neg)
            )
            assert got_value == want_value
            # one C-contiguous array: the arguments' gradients in argument order
            assert got_grad.flags.c_contiguous and got_grad.dtype == np.float64
            assert same_bits(got_grad, np.concatenate(want_grads))

    def test_always_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, i, j = (rng.standard_normal((4, 3)) for _ in range(3))
            assert bpr_loss(u, i, j)[0] > 0.0

    @pytest.mark.parametrize("flat", [(0, 1, 2), (0,), (1,), (2,)])
    def test_one_dimensional_batches_rejected(self, flat):
        # each listed input is the 1-D row [1, 0]; the others are one 2-D row
        reps = [np.array([1.0, 0.0]) if k in flat else np.array([[1.0, 0.0]]) for k in range(3)]
        with pytest.raises(ValueError, match="2-D"):
            bpr_loss(*reps)


class TestInvariances:
    def test_scale_invariance_of_normalized_losses(self):
        rng = np.random.default_rng(4)
        u, i = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        cu = rng.uniform(0.2, 8.0, size=(6, 1))
        ci = rng.uniform(0.2, 8.0, size=(6, 1))
        assert align_loss(cu * u, ci * i)[0] == pytest.approx(
            align_loss(u, i)[0], abs=1e-10
        )
        assert uniform_loss(cu * u)[0] == pytest.approx(
            uniform_loss(u)[0], abs=1e-10
        )
        assert direct_au_loss(cu * u, ci * i, 1.5)[0] == pytest.approx(
            direct_au_loss(u, i, 1.5)[0], abs=1e-10
        )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        u, i = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
        perm = rng.permutation(7)
        for fn in (
            lambda a, b: align_loss(a, b),
            lambda a, b: direct_au_loss(a, b, 1.0),
        ):
            base = fn(u, i)
            permuted = fn(u[perm], i[perm])
            assert permuted[0] == pytest.approx(base[0], abs=1e-12)
            # both return their gradients in argument order: users' rows, then items'
            grad, grad_permuted = np.concatenate(base[1:]), np.concatenate(permuted[1:])
            assert np.allclose(grad_permuted[:7], grad[:7][perm], atol=1e-12)
            assert np.allclose(grad_permuted[7:], grad[7:][perm], atol=1e-12)

    def test_value_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            u, i = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
            assert 0.0 <= align_loss(u, i)[0] <= 4.0
            assert -8.0 <= uniform_loss(u)[0] <= 0.0


class TestSampleNegatives:
    def make_split(self, users, items, n_users, n_items):
        data = InteractionSet.from_pairs(users, items, n_users, n_items)
        return naive_split(data, (1.0, 0.0, 0.0), seed=0)

    def test_forced_choice(self):
        # the user interacted with every item but the last one
        ds = self.make_split([0, 0, 0], [0, 1, 2], 1, 4)
        rng = np.random.default_rng(0)
        out = sample_negatives(ds, np.array([0, 0, 0]), "uniform", rng=rng)
        assert np.all(out == 3)

    def test_uniform_reproducible_and_valid(self):
        ds = self.make_split([0, 0, 1, 1], [0, 1, 2, 3], 2, 6)
        a = sample_negatives(
            ds, np.array([0, 1, 0, 1]), "uniform", rng=np.random.default_rng(9)
        )
        b = sample_negatives(
            ds, np.array([0, 1, 0, 1]), "uniform", rng=np.random.default_rng(9)
        )
        assert np.array_equal(a, b)
        for u, neg in zip([0, 1, 0, 1], a.tolist()):
            assert neg not in ds.train.items[ds.train.users == u]

    def test_negatives_lie_outside_training_rows(self):
        rng = np.random.default_rng(4)
        n_users, n_items = 30, 25
        dense = rng.random((n_users, n_items)) < rng.uniform(0.1, 0.9, size=(n_users, 1))
        dense[:, 0] = True  # every user has a training item and misses another
        dense[np.arange(n_users), rng.integers(1, n_items, size=n_users)] = False
        users, items = np.nonzero(dense)
        ds = self.make_split(users, items, n_users, n_items)
        table = EmbeddingTable.from_parts(
            rng.standard_normal((n_users, 4)), rng.standard_normal((n_items, 4))
        )
        batch_users = rng.integers(0, n_users, size=500)
        for strategy in ("uniform", "dynamic"):
            negs = sample_negatives(ds, batch_users, strategy, table, 8, rng=rng)
            assert negs.shape == batch_users.shape
            assert not dense[batch_users, negs].any()

    def test_uniform_is_uniform_over_non_interacted_items(self):
        n_items, draws = 12, 8000
        rows = {0: [0, 3, 4, 11], 1: [5], 2: [1, 2, 3, 4, 5, 6, 7, 8, 9]}
        users = [u for u, r in rows.items() for _ in r]
        ds = self.make_split(users, sum(rows.values(), []), 3, n_items)
        batch_users = np.repeat([0, 1, 2], draws)
        negs = sample_negatives(ds, batch_users, "uniform", rng=np.random.default_rng(5))
        for u, row in rows.items():
            allowed = [i for i in range(n_items) if i not in row]
            counts = np.bincount(negs[batch_users == u], minlength=n_items)
            assert counts[row].sum() == 0
            # chi-square goodness of fit against the uniform over allowed items
            assert stats.chisquare(counts[allowed]).pvalue > 1e-3

    def test_dynamic_pick_frequencies_match_the_oracle(self):
        # user 0 has item 0; scores of items 1..5 are fixed, and a pool of 3
        # i.i.d. candidates makes the pick depend on both pool and softmax
        ds = self.make_split([0, 1], [0, 1], 2, 6)
        scores = np.array([0.0, -1.0, 0.0, 0.5, 1.0, 2.0])
        table = EmbeddingTable.from_parts(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.column_stack([scores, np.zeros(6)])
        )
        draws, candidates = 6000, 3
        users = np.zeros(draws, dtype=np.int64)
        got = sample_negatives(
            ds, users, "dynamic", table, candidates, rng=np.random.default_rng(6)
        )
        want = per_user_negatives(
            ds, users, "dynamic", table, candidates, np.random.default_rng(7)
        )
        got_counts = np.bincount(got, minlength=6)[1:]
        want_counts = np.bincount(want, minlength=6)[1:]
        assert got_counts.sum() == want_counts.sum() == draws
        # two-sample chi-square: both samplers draw from the same distribution
        assert stats.chi2_contingency([got_counts, want_counts]).pvalue > 1e-3
        # and the sampler's frequencies match the exact pick distribution
        exact = np.zeros(6)
        for pool in itertools.product(range(1, 6), repeat=candidates):
            w = np.exp(scores[list(pool)])
            for item, share in zip(pool, w / w.sum()):
                exact[item] += share / 5**candidates
        assert stats.chisquare(got_counts, draws * exact[1:]).pvalue > 1e-3

    def test_dynamic_prefers_high_scores(self):
        ds = self.make_split([0, 0], [0, 1], 1, 8)
        # item 7 massively outscores the rest for user 0
        user = np.array([[1.0, 0.0]])
        items = np.zeros((8, 2))
        items[2:7, 0] = 0.0
        items[7, 0] = 50.0
        table = EmbeddingTable.from_parts(user, items)
        rng = np.random.default_rng(1)
        # pool of 64 with-replacement draws over 6 candidates: the top item
        # misses the pool with probability (5/6)^64 ~ 1e-5
        picks = np.concatenate(
            [
                sample_negatives(ds, np.array([0]), "dynamic", table, 64, rng=rng)
                for _ in range(1000)
            ]
        )
        assert np.mean(picks == 7) > 0.99

    def test_no_negative_available(self):
        ds = self.make_split([0, 0], [0, 1], 1, 2)
        with pytest.raises(NoNegativeAvailable):
            sample_negatives(ds, np.array([0]), "uniform", rng=np.random.default_rng(0))

    def test_full_row_raises_before_any_draw(self):
        # user 1 holds every item, user 0 does not
        ds = self.make_split([0, 1, 1, 1], [0, 0, 1, 2], 2, 3)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(NoNegativeAvailable, match="user 1"):
            sample_negatives(ds, np.array([0, 0, 1]), "uniform", rng=rng)
        assert rng.bit_generator.state == before

    def test_unknown_strategy(self):
        ds = self.make_split([0, 0], [0, 1], 1, 3)
        with pytest.raises(ValueError):
            sample_negatives(ds, np.array([0]), "hard", rng=np.random.default_rng(0))


def sampler_split(rng, n_users, n_items, free):
    """Users holding all but `free` random items each (at least one), and
    the training-only split of them."""
    dense = np.ones((n_users, n_items), dtype=bool)
    for u in range(n_users):
        dense[u, rng.choice(n_items, size=free, replace=False)] = False
    users, items = np.nonzero(dense)
    data = InteractionSet.from_pairs(users, items, n_users, n_items)
    return naive_split(data, (1.0, 0.0, 0.0), seed=0)


def random_table(rng, n_users, n_items, d=5):
    return EmbeddingTable.from_parts(
        rng.standard_normal((n_users, d)), rng.standard_normal((n_items, d))
    )


class TestSamplerMatchesNaiveOracle:
    """Same draws and the same generator state afterwards as the sampler
    that tests every slot with a rebuilt binary search and scores the whole
    pool in one einsum."""

    @staticmethod
    def assert_same(ds, users, strategy, table, candidates, seed):
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_negatives(ds, users, strategy, table, candidates, rng=rng_got)
        want = naive_sample_negatives(ds, users, strategy, table, candidates, rng=rng_want)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng_got.bit_generator.state == rng_want.bit_generator.state

    @pytest.fixture(params=[None, 1, 3 * 7 * 5 * 8], ids=["one-block", "per-user", "3-users"])
    def pool_block(self, request, monkeypatch):
        # bytes of gathered candidate rows per einsum: the default holds
        # every test batch; 1 scores one user at a time; the last, three
        # users at candidates=7, d=5, with a short last block
        if request.param is not None:
            monkeypatch.setattr(losses, "CACHE_BUDGET", request.param)

    @pytest.mark.parametrize("strategy", ["uniform", "dynamic"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches(self, pool_block, strategy, seed):
        rng = np.random.default_rng(100 + seed)
        n_users, n_items = 12, 30
        ds = sampler_split(rng, n_users, n_items, free=int(rng.integers(1, n_items)))
        users = rng.integers(0, n_users, size=int(rng.integers(1, 40)))
        self.assert_same(ds, users, strategy, random_table(rng, n_users, n_items), 7, seed)

    @pytest.mark.parametrize("strategy", ["uniform", "dynamic"])
    def test_near_full_rows(self, pool_block, strategy):
        # one or two free items out of 40: dozens of redraw rounds
        rng = np.random.default_rng(3)
        ds = sampler_split(rng, 6, 40, free=1)
        users = rng.integers(0, 6, size=25)
        self.assert_same(ds, users, strategy, random_table(rng, 6, 40), 7, 3)
        ds = sampler_split(rng, 6, 40, free=2)
        self.assert_same(ds, users, strategy, random_table(rng, 6, 40), 7, 4)

    def test_one_candidate(self, pool_block):
        rng = np.random.default_rng(5)
        ds = sampler_split(rng, 8, 20, free=6)
        users = rng.integers(0, 8, size=30)
        self.assert_same(ds, users, "dynamic", random_table(rng, 8, 20), 1, 5)

    @pytest.mark.parametrize("strategy", ["uniform", "dynamic"])
    def test_one_user(self, pool_block, strategy):
        rng = np.random.default_rng(6)
        ds = sampler_split(rng, 4, 20, free=3)
        self.assert_same(ds, np.array([2]), strategy, random_table(rng, 4, 20), 7, 6)

    @pytest.mark.parametrize("strategy", ["uniform", "dynamic"])
    def test_repeated_users(self, pool_block, strategy):
        rng = np.random.default_rng(7)
        ds = sampler_split(rng, 5, 25, free=4)
        users = np.array([3, 3, 3, 0, 3, 0, 0, 4, 3, 3])
        self.assert_same(ds, users, strategy, random_table(rng, 5, 25), 7, 7)

    def test_tied_scores(self, pool_block):
        # every item row is equal, so every candidate of a pool ties
        rng = np.random.default_rng(8)
        ds = sampler_split(rng, 6, 20, free=5)
        table = EmbeddingTable.from_parts(
            rng.standard_normal((6, 5)), np.tile(rng.standard_normal(5), (20, 1))
        )
        users = rng.integers(0, 6, size=30)
        self.assert_same(ds, users, "dynamic", table, 7, 8)
