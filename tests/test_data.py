"""Dataset ingestion, k-core filtering, splitting, and epoch batches."""

import importlib.util
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from directau import (
    InteractionSet,
    TrainConfig,
    load_interactions,
    preprocess,
    split,
)
from directau import data as data_mod
from directau.data import (
    UserIndex,
    read_id_pairs,
    write_id_map,
    write_interactions,
)
from directau.errors import (
    DataError,
    EmptyAfterFiltering,
    EmptyInput,
    MalformedLine,
)
from directau.rng import substream
from directau.training import _training_batches
from helpers import (
    naive_contains,
    naive_load_interactions,
    naive_preprocess,
    naive_read_id_pairs,
    naive_split,
    naive_split_labels,
    naive_write_interactions,
)


def interned(user_keys, item_keys):
    """Aligned key lists in the form load_interactions returns and
    preprocess takes, interned by the line reader's `_intern`."""
    (users, user_keys), (items, item_keys) = map(data_mod._intern, (user_keys, item_keys))
    return users, items, user_keys, item_keys


def keys(*pairs):
    """preprocess's arguments for the (user, item) pairs."""
    return interned([u for u, _ in pairs], [i for _, i in pairs])


def key_lists(users, items, user_keys, item_keys):
    """Each line's user key and item key, from interned columns."""
    return [user_keys[c] for c in users.tolist()], [item_keys[c] for c in items.tolist()]


def same_index(a, b):
    """Whether two UserIndexes hold equal arrays."""
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def index_pairs(index):
    """The (user, item) pairs of a UserIndex, as a set."""
    users = np.repeat(np.arange(index.indptr.size - 1), np.diff(index.indptr))
    return set(zip(users.tolist(), index.indices.tolist()))


class TestLoadInteractions:
    def test_basic_tab_parse(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("u1\ti1\nu1\ti2\n")
        assert key_lists(*load_interactions(p)) == (["u1", "u1"], ["i1", "i2"])

    def test_duplicates_survive_parsing(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("u1\ti1\nu1\ti1\n")
        assert key_lists(*load_interactions(p)) == (["u1", "u1"], ["i1", "i1"])

    def test_empty_file_raises(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("")
        with pytest.raises(EmptyInput):
            load_interactions(p)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("# header\n\nu1\ti1\n   \nu2\ti2\n")
        assert key_lists(*load_interactions(p)) == (["u1", "u2"], ["i1", "i2"])

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("u1\ti1\nonlyonefield\n")
        with pytest.raises(MalformedLine) as exc:
            load_interactions(p)
        assert exc.value.lineno == 2

    def test_comma_delimiter_with_extra_columns(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("u1,i1,5.0,1234\nu2,i2,3.0,5678\n")
        # columns past the second are ignored
        assert key_lists(*load_interactions(p, delimiter=",")) == (["u1", "u2"], ["i1", "i2"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_interactions(tmp_path / "nope.txt")

    def test_only_one_leading_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "a.txt"
        bom = b"\xef\xbb\xbf"
        p.write_bytes(bom + b"u1\ti1\n" + bom + b"u2\ti2\n")
        assert key_lists(*load_interactions(p)) == (["u1", "\ufeffu2"], ["i1", "i2"])
        p.write_bytes(bom + bom + b"u1\ti1\n")
        assert key_lists(*load_interactions(p)) == (["\ufeffu1"], ["i1"])


def brute_force_k_core(pairs, k):
    """Oracle: iteratively delete under-connected users/items until stable."""
    pairs = list(dict.fromkeys(pairs))
    while True:
        uc = Counter(u for u, _ in pairs)
        ic = Counter(i for _, i in pairs)
        keep = [(u, i) for u, i in pairs if uc[u] >= k and ic[i] >= k]
        if len(keep) == len(pairs):
            return pairs
        pairs = keep


class TestPreprocess:
    def test_already_k_core_retained(self):
        # 6 users x 5 items, every item appears 6 times
        pairs = [(f"u{u}", f"i{i}") for u in range(6) for i in range(5)]
        out, _, _ = preprocess(*keys(*pairs), k_core=5)
        assert out.n_users == 6 and out.n_items == 5 and out.n_pairs == 30

    def test_iterative_removal_matches_brute_force(self):
        # u_weak has 4 interactions; dropping it pushes i9 under the threshold
        pairs = [(f"u{u}", f"i{i}") for u in range(5) for i in range(5)]
        pairs += [("u_weak", "i0"), ("u_weak", "i1"), ("u_weak", "i2"), ("u_weak", "i9")]
        pairs += [("u0", "i9"), ("u1", "i9"), ("u2", "i9"), ("u3", "i9")]
        expected = brute_force_k_core(pairs, 5)
        out, user_keys, item_keys = preprocess(*keys(*pairs), k_core=5)
        back = [(user_keys[u], item_keys[i])
                for u, i in zip(out.users.tolist(), out.items.tolist())]
        assert back == expected
        assert "u_weak" not in user_keys and "i9" not in item_keys

    @pytest.mark.parametrize("trial", range(20))
    def test_random_instances_match_brute_force(self, trial):
        rng = np.random.default_rng(trial)
        pairs = [
            (f"u{rng.integers(0, 5)}", f"i{rng.integers(0, 5)}")
            for _ in range(int(rng.integers(8, 21)))
        ]
        k = int(rng.integers(1, 4))
        expected = brute_force_k_core(pairs, k)
        if not expected:
            with pytest.raises(EmptyAfterFiltering):
                preprocess(*keys(*pairs), k_core=k)
            return
        out, user_keys, item_keys = preprocess(*keys(*pairs), k_core=k)
        back = [(user_keys[u], item_keys[i])
                for u, i in zip(out.users.tolist(), out.items.tolist())]
        assert back == expected

    def test_empty_fixpoint_raises(self):
        with pytest.raises(EmptyAfterFiltering):
            preprocess(*keys(("u1", "i1"), ("u2", "i2")), k_core=5)

    def test_min_popularity_after_filtering(self):
        rng = np.random.default_rng(5)
        pairs = list({(f"u{rng.integers(0, 12)}", f"i{rng.integers(0, 12)}") for _ in range(120)})
        out, _, _ = preprocess(*keys(*pairs), k_core=3)
        assert np.bincount(out.users, minlength=out.n_users).min() >= 3
        assert np.bincount(out.items, minlength=out.n_items).min() >= 3

    def test_dedup_keeps_first_and_first_seen_ids(self):
        pairs = [("b", "y"), ("a", "x"), ("b", "y"), ("a", "y"), ("b", "x"), ("a", "x")]
        out, user_keys, item_keys = preprocess(*keys(*pairs), k_core=1)
        assert user_keys == ("b", "a")
        assert item_keys == ("y", "x")
        assert out.n_pairs == 4

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        pairs = [(f"u{rng.integers(0, 8)}", f"i{rng.integers(0, 8)}") for _ in range(80)]
        once, _, _ = preprocess(*keys(*pairs), k_core=3)
        again, _, _ = preprocess(
            *interned([str(u) for u in once.users.tolist()], [str(i) for i in once.items.tolist()]),
            k_core=3,
        )
        assert np.array_equal(once.users, again.users)
        assert np.array_equal(once.items, again.items)
        assert (once.n_users, once.n_items) == (again.n_users, again.n_items)

    def test_interaction_set_holds_only_the_pairs(self):
        # popularity is counted from the pairs where it is read, not stored
        names = [f.name for f in fields(InteractionSet)]
        assert names == ["n_users", "n_items", "users", "items"]

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_validate_rejects_an_unused_id(self, side):
        # the side under test never uses ID 1; the other uses all three
        gap, full = [0, 2, 2], [0, 1, 2]
        users, items = (gap, full) if side == "user" else (full, gap)
        data = InteractionSet.from_pairs(users, items, 3, 3)
        with pytest.raises(DataError, match=f"some {side} IDs"):
            data.validate()


class TestFromPairs:
    """`from_pairs` checks pairs read from outside; the sets that split and
    preprocess derive from checked pairs are built directly."""

    def test_wide_ids_are_not_called_duplicates(self):
        # (0, 5) and (2**31, 5) shared one int64 pair key once the key wrapped
        with pytest.raises(DataError) as raised:
            InteractionSet.from_pairs([0, 2**31, 1], [5, 5, 2**33 - 1])
        assert "duplicate" not in str(raised.value) and "3 pairs" in str(raised.value)

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_undeclared_counts_stay_below_the_pair_count(self, side):
        low, high = [0, 1, 2], [0, 1, 3]
        users, items = (high, low) if side == "user" else (low, high)
        with pytest.raises(DataError, match="3 pairs"):
            InteractionSet.from_pairs(users, items)
        counts = {"n_users": 4} if side == "user" else {"n_items": 4}
        assert InteractionSet.from_pairs(users, items, **counts).n_pairs == 3
        data = InteractionSet.from_pairs(low, low)
        assert (data.n_users, data.n_items) == (3, 3)

    def test_declared_counts_past_int64_keys(self):
        # (0, 5) and (2**31, 5) would share one wrapped key under these counts
        with pytest.raises(DataError) as raised:
            InteractionSet.from_pairs([0, 2**31, 1], [5, 5, 2**33 - 1], 2**31 + 1, 2**33)
        assert "duplicate" not in str(raised.value) and "too large" in str(raised.value)

    def test_largest_int64_key_still_finds_duplicates(self):
        # n_users * n_items == 2**63: the last pair's key is 2**63 - 1
        users, items, counts = [2**32 - 1, 0], [2**31 - 1, 0], (2**32, 2**31)
        data = InteractionSet.from_pairs(users, items, *counts)
        assert data.users.tolist() == users and data.items.tolist() == items
        with pytest.raises(DataError, match="duplicate"):
            InteractionSet.from_pairs([*users, 2**32 - 1], [*items, 2**31 - 1], *counts)
        with pytest.raises(DataError, match="too large"):
            InteractionSet.from_pairs(users, items, 2**32, 2**31 + 1)

    def test_split_and_preprocess_check_no_pairs_again(self, monkeypatch):
        monkeypatch.setattr(InteractionSet, "from_pairs", classmethod(refuse))
        pairs = [(f"u{u}", f"i{(u + t) % 9}") for u in range(12) for t in range(6)]
        data, _, _ = preprocess(*keys(*pairs), k_core=2)
        # six pairs a user hold nothing out, so every pair trains
        assert split(data, seed=0).train.n_pairs == data.n_pairs == 72


def k_core_rounds(pairs, k):
    """Removal rounds the k-core fixpoint of the deduplicated pairs takes."""
    pairs, rounds = list(dict.fromkeys(pairs)), 0
    while True:
        uc = Counter(u for u, _ in pairs)
        ic = Counter(i for _, i in pairs)
        keep = [(u, i) for u, i in pairs if uc[u] >= k and ic[i] >= k]
        if len(keep) == len(pairs):
            return rounds
        pairs, rounds = keep, rounds + 1


class TestPreprocessMatchesNaive:
    """The integer-code preprocess against the string-keyed reference."""

    @staticmethod
    def check(pairs, k_core):
        want, want_users, want_items = naive_preprocess(*zip(*pairs), k_core=k_core)
        got, got_users, got_items = preprocess(*keys(*pairs), k_core=k_core)
        assert np.array_equal(got.users, want.users)
        assert np.array_equal(got.items, want.items)
        assert got_users == want_users
        assert got_items == want_items
        assert (got.n_users, got.n_items) == (want.n_users, want.n_items)
        return got, got_users, got_items

    @pytest.mark.parametrize("k_core", [1, 2, 5])
    def test_seeded_synthetic_log(self, k_core):
        rng = np.random.default_rng(17)
        users = rng.zipf(1.6, size=3000) % 400
        items = rng.zipf(1.4, size=3000) % 300
        pairs = [(f"user-{u}", f"item-{i}") for u, i in zip(users.tolist(), items.tolist())]
        out, _, _ = self.check(pairs, k_core)
        assert out.n_pairs < len(set(pairs)) or k_core == 1

    @pytest.mark.parametrize("k_core", [1, 2])
    def test_first_seen_order_differs_from_sort_order(self, k_core):
        pairs = [("10", "b"), ("9", "a"), ("10", "a"), ("9", "b"), ("9", "c"), ("10", "c")]
        _, user_keys, item_keys = self.check(pairs, k_core)
        assert user_keys == ("10", "9")
        assert item_keys == ("b", "a", "c")

    def test_duplicates_before_and_after_removals(self):
        core = [(f"u{u}", f"i{i}") for u in range(3) for i in range(3)]
        # "weak" has four lines but two distinct items, so it falls below k = 3
        # only if dedup comes first; dropping it leaves "i_weak" with two users,
        # whose "i_weak" lines repeat again after the removed ones
        pairs = (
            [("weak", "i0"), ("weak", "i0")] + core[:4] + [("weak", "i_weak")]
            + [("u0", "i_weak"), ("u1", "i_weak"), ("weak", "i_weak")]
            + core[4:] + core[::-1] + [("u0", "i_weak"), ("u1", "i_weak")]
        )
        out, user_keys, _ = self.check(pairs, 3)
        assert user_keys == ("u0", "u1", "u2") and out.n_pairs == 9

    def test_cascade_of_several_rounds(self):
        # a 3 x 3 core with a path hanging off user c0: each round peels one
        # end of the path, so the fixpoint needs six removal rounds
        pairs = [(f"c{u}", f"x{i}") for u in range(3) for i in range(3)]
        pairs += [("c0", "p1"), ("q1", "p1"), ("q1", "p2"), ("q2", "p2"), ("q2", "p3"), ("q3", "p3")]
        assert k_core_rounds(pairs, 2) == 6
        out, _, _ = self.check(pairs, 2)
        assert out.n_pairs == 9

    @pytest.mark.parametrize("k_core", [1, 2])
    def test_keys_differing_by_a_trailing_nul_stay_apart(self, k_core):
        pairs = [("a", "x"), ("a\x00", "x"), ("a", "x\x00"), ("a\x00", "x\x00"), ("a", "x")]
        out, user_keys, item_keys = self.check(pairs, k_core)
        assert user_keys == ("a", "a\x00") and item_keys == ("x", "x\x00")
        assert out.n_pairs == 4

    def test_errors(self):
        with pytest.raises(EmptyInput):
            preprocess([], [], [], [])
        with pytest.raises(EmptyAfterFiltering):
            preprocess(*keys(("u1", "i1"), ("u1", "i2"), ("u2", "i1")), k_core=2)
        with pytest.raises(ValueError):
            preprocess(*keys(("u1", "i1")), k_core=0)
        with pytest.raises(ValueError):
            preprocess([0, 1], [0], ["u1", "u2"], ["i1"])


class TestSplit:
    def make(self, counts, seed=0):
        users, items = [], []
        nxt = 0
        for u, c in enumerate(counts):
            for _ in range(c):
                users.append(u)
                items.append(nxt)
                nxt += 1
        return InteractionSet.from_pairs(users, items)

    def test_user_with_10_gets_8_1_1(self):
        data = self.make([10])
        ds = split(data, seed=1)
        assert ds.train.n_pairs == 8 and ds.validation.nnz == 1 and ds.test.nnz == 1

    def test_user_with_5_gets_5_0_0(self):
        data = self.make([5])
        ds = split(data, seed=1)
        assert ds.train.n_pairs == 5 and ds.validation.nnz == 0 and ds.test.nnz == 0

    def test_determinism(self, two_cluster):
        a = split(two_cluster, seed=7)
        b = split(two_cluster, seed=7)
        assert np.array_equal(a.train.users, b.train.users)
        assert np.array_equal(a.train.items, b.train.items)
        for part in ("train_index", "validation", "test"):
            assert same_index(getattr(a, part), getattr(b, part))

    def test_different_seed_differs(self, two_cluster):
        a = split(two_cluster, seed=7)
        b = split(two_cluster, seed=8)
        assert not (same_index(a.validation, b.validation) and same_index(a.test, b.test))

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        counts = [int(rng.integers(1, 15)) for _ in range(10)]
        data = self.make(counts)
        ds = split(data, seed=4)
        src = set(zip(data.users.tolist(), data.items.tolist()))
        tr = set(zip(ds.train.users.tolist(), ds.train.items.tolist()))
        va, te = index_pairs(ds.validation), index_pairs(ds.test)
        assert tr | va | te == src
        assert len(tr) + len(va) + len(te) == len(src)
        # per-user floor rule
        for u, c in enumerate(counts):
            n_val = sum(1 for p in va if p[0] == u)
            n_test = sum(1 for p in te if p[0] == u)
            assert n_val == c // 10 and n_test == c // 10
        assert np.bincount(ds.train.users, minlength=ds.train.n_users).min() >= 1

    def test_shares_for_every_count_up_to_1000(self):
        # user u has p = u + 1 pairs
        counts = np.arange(1, 1001)
        users = np.repeat(np.arange(counts.size), counts)
        items = np.arange(users.size) - np.repeat(np.cumsum(counts) - counts, counts)
        ds = split(InteractionSet.from_pairs(users, items), seed=0)
        held = np.floor(0.1 * counts).astype(np.int64)
        assert np.array_equal(np.diff(ds.validation.indptr), held)
        assert np.array_equal(np.diff(ds.test.indptr), held)
        train = np.diff(ds.train_index.indptr)
        assert np.array_equal(train, counts - 2 * held) and train.min() >= 1

    @staticmethod
    def profile(seed):
        """Users of 0, 1, 2, 5, 10 and 37 pairs in a seeded mix, their pairs
        in a shuffled source order."""
        rng = np.random.default_rng(seed)
        counts = rng.choice([0, 1, 2, 5, 10, 37], size=30)
        users = np.repeat(np.arange(counts.size), counts)
        items = np.concatenate([rng.choice(50, c, replace=False) for c in counts])
        order = rng.permutation(users.size)
        return InteractionSet.from_pairs(users[order], items[order], counts.size + 2, 50)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_user_loop(self, monkeypatch, seed):
        data = self.profile(seed)
        streams = []

        def recorded(*args):
            streams.append(substream(*args))
            return streams[-1]

        monkeypatch.setattr(data_mod, "substream", recorded)
        got = split(data, seed=seed)
        want = naive_split(data, (0.8, 0.1, 0.1), seed=seed)
        assert np.array_equal(got.train.users, want.train.users)
        assert np.array_equal(got.train.items, want.train.items)
        for part in ("train_index", "validation", "test"):
            assert same_index(getattr(got, part), getattr(want, part))
        # the split left its substream where the per-user permutations did
        reference = substream(seed, "split")
        for count in np.bincount(data.users, minlength=data.n_users).tolist():
            reference.permutation(count)
        assert streams[0].integers(2**62, size=4).tolist() == reference.integers(2**62, size=4).tolist()


class TestUserIndex:
    def test_rows_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n_users = int(rng.integers(1, 9))
            users = rng.integers(0, n_users, size=int(rng.integers(0, 30)))
            values = rng.integers(0, 50, size=users.size)
            index = UserIndex.build(users, values, n_users)
            rows = [np.sort(values[users == u]) for u in range(n_users)]
            for u in range(n_users):
                row = index.indices[index.indptr[u] : index.indptr[u + 1]]
                assert np.array_equal(row, rows[u])
            picked = rng.integers(0, n_users, size=int(rng.integers(0, 6)))
            pos, got = index.gather(picked)
            want = [(r, v) for r, u in enumerate(picked.tolist()) for v in rows[u].tolist()]
            assert list(zip(pos.tolist(), got.tolist())) == want

    def test_contains_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n_users, width = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            users = rng.integers(0, n_users, size=int(rng.integers(0, 40)))
            values = rng.integers(0, width, size=users.size)
            index = UserIndex.build(users, values, n_users)
            members = set(zip(users.tolist(), values.tolist()))
            # a column of users against a row of values, every value 0..width-1 included
            q_users = rng.integers(0, n_users, size=(int(rng.integers(1, 5)), 1))
            q_values = np.arange(width)[None, :]
            got = index.contains(q_users, q_values, width)
            want = [[(u, v) in members for v in range(width)] for u in q_users[:, 0].tolist()]
            assert got.shape == (q_users.shape[0], width)
            assert got.tolist() == want
            # elementwise pairs of equal shape, and one user against many values
            flat_u = rng.integers(0, n_users, size=15)
            flat_v = rng.integers(0, width, size=15)
            assert index.contains(flat_u, flat_v, width).tolist() == [
                (u, v) in members for u, v in zip(flat_u.tolist(), flat_v.tolist())
            ]
            assert index.contains(n_users - 1, q_values[0], width).tolist() == [
                (n_users - 1, v) in members for v in range(width)
            ]

    @pytest.mark.parametrize("budget", [25, 1])
    def test_contains_in_row_blocks_matches_brute_force(self, monkeypatch, budget):
        # the default budget marks every queried row above in one block; 25
        # bytes hold two to 25 rows of marks per block, 1 byte one row
        monkeypatch.setattr(data_mod, "BLOCK_BUDGET", budget)
        self.test_contains_matches_brute_force()

    def test_contains_peak_follows_the_budget(self, monkeypatch):
        budget = 1 << 16
        monkeypatch.setattr(data_mod, "BLOCK_BUDGET", budget)
        rng = np.random.default_rng(10)
        n_users, width = 64, 4096  # one block of every queried row: 4x the budget
        users = np.repeat(np.arange(n_users), 50)
        index = UserIndex.build(users, rng.integers(0, width, size=users.size), n_users)
        q_users = rng.permutation(n_users)[:, None]
        q_values = rng.integers(0, width, size=(n_users, 16))
        q_values[:, 0] = index.indices[index.indptr[q_users[:, 0]]]  # some hits
        want = naive_contains(index, q_users, q_values, width)
        tracemalloc.start()
        try:
            got = index.contains(q_users, q_values, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want) and want[:, 0].all()
        # one block of marks, and less than that again for gather's arrays
        # over the 800 entries of a block's rows and the 1024 queries' positions
        assert peak < 2 * budget

    def test_contains_on_empty_index(self):
        index = UserIndex.build(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3)
        got = index.contains(np.array([[0], [2]]), np.array([0, 4]), 5)
        assert got.shape == (2, 2) and not got.any()
        assert not UserIndex.build(np.array([1]), np.array([0]), 2).contains(0, 0, 3)

    def test_contains_at_the_edges_of_each_row(self):
        # rows hold the first and last value, so a neighbour row's key is one off
        index = UserIndex.build(np.array([0, 0, 1, 2]), np.array([4, 0, 0, 4]), 3)
        got = index.contains(np.arange(3)[:, None], np.arange(5)[None, :], 5)
        want = np.zeros((3, 5), dtype=bool)
        want[0, [0, 4]] = want[1, 0] = want[2, 4] = True
        assert np.array_equal(got, want)

    def test_split_builds_each_part(self, two_cluster):
        ds = split(two_cluster, seed=3)
        assert [f.name for f in fields(ds)] == ["train", "train_index", "validation", "test"]
        part = naive_split_labels(two_cluster, seed=3)
        for k, index in enumerate((ds.train_index, ds.validation, ds.test)):
            users, items = two_cluster.users[part == k], two_cluster.items[part == k]
            assert same_index(index, UserIndex.build(users, items, two_cluster.n_users))
            assert index_pairs(index) == set(zip(users.tolist(), items.tolist()))
        n_items = two_cluster.n_items
        row_5 = set(ds.train.items[ds.train.users == 5].tolist())
        got = ds.train_index.contains(5, np.arange(n_items), n_items)
        assert got.tolist() == [i in row_5 for i in range(n_items)]


def batch_cfg(**kw):
    """A TrainConfig for batching tests; only objective, batch_size and seed matter."""
    kw.setdefault("objective", "direct_au")
    if kw["objective"] == "direct_au":
        kw.setdefault("gamma", 1.0)
    kw.setdefault("seed", 0)
    return TrainConfig(**kw)


class TestIterBatches:
    """An epoch's batches (training._training_batches) are positions into
    the training pairs."""

    def test_partition_sizes(self):
        data = InteractionSet.from_pairs(list(range(10)), [0] * 10, 10, 1)
        tiny = split(data, seed=0)  # one pair per user: every pair trains
        sizes = [b.size for b in _training_batches(tiny, batch_cfg(batch_size=4), epoch=1)]
        assert sizes == [4, 4, 2]

    def test_single_batch_when_outsized(self, two_cluster):
        ds = split(two_cluster, seed=0)
        batches = _training_batches(ds, batch_cfg(batch_size=10**6), epoch=1)
        assert len(batches) == 1 and batches[0].size == ds.train.n_pairs

    def test_determinism_and_epoch_variation(self, two_cluster):
        ds = split(two_cluster, seed=0)
        cfg = batch_cfg(batch_size=64, seed=5)
        a = _training_batches(ds, cfg, epoch=2)
        b = _training_batches(ds, cfg, epoch=2)
        c = _training_batches(ds, cfg, epoch=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_union_covers_train_exactly_once(self, two_cluster):
        ds = split(two_cluster, seed=0)
        batches = _training_batches(ds, batch_cfg(batch_size=33, seed=1), epoch=4)
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(ds.train.n_pairs))

    @pytest.mark.parametrize("objective, batch_size", [("bpr", 33), ("direct_au", 41)])
    def test_positions_are_the_shuffle_cut_at_batch_size(self, two_cluster, objective,
                                                          batch_size):
        ds = split(two_cluster, seed=0)
        n = ds.train.n_pairs
        cfg = batch_cfg(objective=objective, batch_size=batch_size, seed=3)
        perm = substream(cfg.seed, "shuffle", 2).permutation(n)
        want = [perm[start : start + batch_size] for start in range(0, n, batch_size)]
        if objective == "direct_au":
            # the last batch is a singleton here, and joins the one before it
            assert want[-1].size == 1
            want[-2:] = [perm[n - 1 - batch_size :]]
        got = _training_batches(ds, cfg, epoch=2)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w)


class TestSerialization:
    def test_interaction_roundtrip(self, tmp_path, two_cluster):
        p = tmp_path / "inter.txt"
        write_interactions(two_cluster, p)
        back = read_id_pairs(p)
        assert np.array_equal(back.users, two_cluster.users)
        assert np.array_equal(back.items, two_cluster.items)

    def test_writer_matches_naive_oracle_on_a_generated_log(self, tmp_path, generated_log):
        data = preprocess(*load_interactions(generated_log))[0]
        got, want = tmp_path / "clean.txt", tmp_path / "want.txt"
        write_interactions(data, got)
        naive_write_interactions(data, want)
        assert got.read_bytes() == want.read_bytes()
        assert same_interactions(read_id_pairs(got), data)

    # up to 18 digits read_id_pairs parses the file in numpy, past them line by line
    @pytest.mark.parametrize("widest", [18, 19])
    def test_writer_matches_naive_oracle_at_every_digit_count(self, tmp_path, monkeypatch, widest):
        edges = [0, 9, 10, *(v for k in range(2, 19) for v in (10**k - 1, 10**k)), 2**63 - 1]
        edges = [v for v in edges if len(str(v)) <= widest]
        users = np.array(edges, dtype=np.int64)
        items = users[::-1].copy()
        # IDs this wide overflow from_pairs' pair keys, so the set is built directly
        data = InteractionSet(0, 0, users, items)
        got, want = tmp_path / "clean.txt", tmp_path / "want.txt"
        write_interactions(data, got)
        naive_write_interactions(data, want)
        assert got.read_bytes() == want.read_bytes()
        # read_id_pairs parses them back exactly, up to the count it builds
        columns = {}
        monkeypatch.setattr(InteractionSet, "from_pairs", classmethod(
            lambda cls, users, items, n_users, n_items: columns.update(users=users, items=items)
        ))
        read_id_pairs(got)
        assert columns["users"].tolist() == edges and columns["items"].tolist() == edges[::-1]

    def test_id_map_format(self, tmp_path):
        p = tmp_path / "m.map"
        write_id_map(("alice", "bob"), p)
        assert p.read_text() == "alice\t0\nbob\t1\n"

    def test_read_rejects_duplicates(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("0\t0\n0\t0\n")
        with pytest.raises(DataError):
            read_id_pairs(p)

    def test_read_rejects_non_integer(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("a\tb\n")
        with pytest.raises(DataError):
            read_id_pairs(p)


def outcome(fn, *args):
    """What `fn(*args)` returns, with the arrays of a returned tuple as
    lists, or the type and line number it raises."""
    try:
        got = fn(*args)
    except Exception as exc:  # the oracle's exception is the expectation
        return type(exc), getattr(exc, "lineno", None)
    if isinstance(got, tuple):
        return tuple(v.tolist() if isinstance(v, np.ndarray) else v for v in got)
    return got


def refuse(*args):
    raise AssertionError("the line reader was called")


def same_interactions(a, b):
    return (a.n_users, a.n_items) == (b.n_users, b.n_items) and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("users", "items")
    )


@pytest.fixture(scope="module")
def generated_log(tmp_path_factory):
    """A seeded log from the benchmark's generator (tab-separated, a
    timestamp column, repeated lines)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", Path(__file__).parents[1] / "perfbench" / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path_factory.mktemp("log") / "raw.txt"
    module.generate(300, 200, seed=3, path=path)
    return path


class TestReadersMatchNaiveOracles:
    """The one-loop readers parse every file as the two-pass ones did."""

    def test_generated_log(self, generated_log, tmp_path, monkeypatch):
        want = outcome(naive_load_interactions, generated_log)
        # the generated log is plain, so the line reader's interning never runs
        with monkeypatch.context() as patched:
            patched.setattr(data_mod, "_intern", refuse)
            assert outcome(load_interactions, generated_log) == want
        clean = tmp_path / "clean.txt"
        write_interactions(preprocess(*load_interactions(generated_log))[0], clean)
        assert same_interactions(read_id_pairs(clean), naive_read_id_pairs(clean))

    @pytest.mark.parametrize("text", [
        "# header\n\nu1\ti1\n   \nu2\ti2\n#u3\ti3\n",
        "u1\ti1\r\nu2\ti2\r\n\r\nu1\ti2",
        "u1\ti1\t5.0\t1234\nu2\t i2 \textra\n\tu3\ti3\t\n",
        "u1,i1\tu2\ti2\n",
        "x\ty\rz\tw\n",
        "u1\ti1\nonlyonefield\n",
        "u1\ti1\n\n  u2 \t \t i2\n",
        "u1\ti1\n#\n \tx\n",
        "",
        "# nothing\n\n  \n",
        # the edges of the plain form, which is split and interned in numpy
        "\ufeffu1\ti1\nu2\ti2\n",
        "\ufeff\ufeffu1\ti1\nu2\ti2\n",
        "u1\ti1\nu2\ti1\nu1\ti2",
        "u1\ti1\n\nu2\ti2\n",
        "u1\ti1\n# note\nu2\ti2\n",
        "u1\ti1\n#u2\ti2\n",
        "u#1\ti1\nu2\ti#2\n",
        "u1\ti1\r\nu2\ti2\n",
        "u1\ti1\ru2\ti2\n",
        "u1\ri1\nu2\ri2\n",
        "u 1\ti1\nu2\t i2\n",
        " u1\ti1\nu2\ti2 \n",
        "u1\ti1\t\nu2\ti2\t\n",
        "u1\ti1\t5\nu2\ti2\tx\ty\n",
        "u1\ti1\nu2\n",
        "u1\ti1\n\ti2\n",
        "u1\t\ti1\n",
        "u1,i1\nu2,i\t2\n",
        "u1\ti1\nu\x002\ti2\n",
        "u1\ti1\nu2\t\u00ef2\n",
        b"u1\ti1\nu2\t\xff\n",
        b"u1\ti1\n\xef\xbb\n",
        "a\tb\n12345678\t123456789\n1234567890123456\t12345678901234567\n"
        "12345678\tb\na\t123456789\n12345678901234567\t1234567890123456\n",
        "a\tx\na\x00\tx\na\tx\x00\na\x00\tx\x00\n",
        "abcdefgh\tx\nabcdefgh\x00\tx\n",
    ])
    def test_line_forms(self, tmp_path, text):
        p = tmp_path / "a.txt"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        for delimiter in ("\t", ",", "\r"):
            got = outcome(load_interactions, p, delimiter)
            assert got == outcome(naive_load_interactions, p, delimiter)

    def test_wide_keys_take_the_numpy_path(self, tmp_path, monkeypatch):
        # shaped like the Amazon Beauty ratings file: comma-separated 14-byte
        # user and 10-byte item IDs, then a rating and a timestamp
        rng = np.random.default_rng(4)
        alphabet = np.array(list("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
        users = ["A" + "".join(rng.choice(alphabet, 13)) for _ in range(300)]
        items = ["B" + "".join(rng.choice(alphabet, 9)) for _ in range(200)]
        rows = zip(
            rng.integers(0, 300, 3000).tolist(),
            (rng.zipf(1.5, 3000).clip(max=200) - 1).tolist(),
            rng.integers(1, 6, 3000).tolist(),
            rng.integers(10**9, 2 * 10**9, 3000).tolist(),
        )
        p = tmp_path / "ratings.csv"
        p.write_text("".join(f"{users[u]},{items[i]},{r}.0,{t}\n" for u, i, r, t in rows))
        want = outcome(naive_load_interactions, p, ",")
        monkeypatch.setattr(data_mod, "_intern", refuse)
        assert outcome(load_interactions, p, ",") == want
        assert len(want[2]) > 250 and len(want[3]) > 50

    @pytest.mark.parametrize("text", [
        "+4\t 5\n1_0\t7\n٣\t+0\n",
        "00012\t3\n12\t4\n",
        "4\t5.0\n",
        "0x10\t1\n",
        "1__0\t1\n",
        "-1\t0\n",
        "0\t0\n0\t0\n",
        "0\t0\n1\n",
        "0\t\t1\n",
        "",
        # the edges of the form parsed in numpy (see test_canonical_columns)
        "999999999999999999\t0\n",
        "1000000000000000000\t0\n",
        "0\t9223372036854775807\n",
        "000000000000000003\t0000000000000000004\n0\t00\n",
        "0\t1\n2\t3",
        "0\t1\n2",
        "0\t1\r\n2\t3\r\n",
        "0\t1\n2\t3\n\n",
        "0\t1\n\t\t\n",
        "0\t1\t2\n",
        "\ufeff0\t1\n",
        "\n",
        "0,1\n2,3\n",
    ])
    def test_integer_ids(self, tmp_path, text):
        p = tmp_path / "ids.txt"
        p.write_bytes(text.encode())
        got, want = outcome(read_id_pairs, p), outcome(naive_read_id_pairs, p)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_interactions(got, want)

    @pytest.mark.parametrize("seed", range(40))
    def test_mutated_canonical_files(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        pairs = rng.permutation(60)[:n]
        chars = list("".join(f"{k // 8}\t{k % 8}\n" for k in pairs.tolist()))
        inserts = ["0", "3", "7", "\t", "\n", "\r", " ", "#", "+", "-", "_", ",", "\ufeff", "\u0663"]
        for _ in range(int(rng.integers(0, 4))):
            at = int(rng.integers(0, len(chars) + 1))
            kind = int(rng.integers(3))
            if kind == 0:
                chars.insert(at, inserts[int(rng.integers(len(inserts)))])
            elif kind == 1:
                del chars[at : at + 1]
            else:
                chars[at : at + 1] = [inserts[int(rng.integers(len(inserts)))]]
        p = tmp_path / "ids.txt"
        p.write_bytes("".join(chars).encode())
        got, want = outcome(read_id_pairs, p), outcome(naive_read_id_pairs, p)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert same_interactions(got, want)

    @pytest.mark.parametrize("text", [
        b"0\t0\n",
        b"999999999999999999\t000000000000000000\n12\t3\n",
        b"0001\t20\n300\t4\n5\t60000\n",
    ])
    def test_canonical_columns(self, text):
        users, items = data_mod._id_columns(text)
        fields = [line.split(b"\t") for line in text.splitlines()]
        assert users.tolist() == [int(u) for u, _ in fields]
        assert items.tolist() == [int(i) for _, i in fields]

    @pytest.mark.parametrize("text", [
        b"", b"\n", b"0\t1", b"0\t1\n2", b"0\t1\r\n", b"0\t1\n\n", b"0\t\t1\n", b"\t1\n",
        b"0\t1\t2\n", b"0\n1\t2\n", b"0 \t1\n", b"1000000000000000000\t0\n",
        b"0\t1000000000000000000\n", b"\xef\xbb\xbf0\t1\n", b"#0\t1\n",
    ])
    def test_other_bytes_are_not_canonical(self, text):
        assert data_mod._id_columns(text) is None

    def test_only_other_files_use_the_line_reader(self, tmp_path, monkeypatch):
        canonical, other = tmp_path / "clean.txt", tmp_path / "other.txt"
        canonical.write_bytes(b"0\t0\n1\t1\n")
        other.write_bytes(b"0\t0\r\n1\t1\r\n")
        want = naive_read_id_pairs(canonical)
        monkeypatch.setattr(data_mod, "load_interactions", refuse)
        assert same_interactions(read_id_pairs(canonical), want)
        with pytest.raises(AssertionError, match="line reader"):
            read_id_pairs(other)
        # a comma-separated file always goes through the line reader
        with pytest.raises(AssertionError, match="line reader"):
            read_id_pairs(canonical, ",")

    @pytest.mark.parametrize("bad", [str(2**63), str(-(2**63) - 1), str(10**30)])
    def test_ids_past_int64_are_data_errors(self, tmp_path, bad):
        p = tmp_path / "ids.txt"
        p.write_text(f"0\t0\n{bad}\t1\n")
        with pytest.raises(DataError, match="expected integer IDs"):
            read_id_pairs(p)
        p.write_text(f"0\t{bad}\n")
        with pytest.raises(DataError, match="expected integer IDs"):
            read_id_pairs(p)
