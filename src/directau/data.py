"""Interaction ingestion, k-core preprocessing, per-user splits.

File format: UTF-8 text, one interaction per line, `user<delim>item[<delim>...]`,
lines starting with '#' ignored. Columns past the second are ignored. The
integer-ID file that preprocessing writes is always tab-separated, the form
`read_id_pairs` reads by default; its `.users.map`/`.items.map` sidecars keep
the input delimiter, which no key can contain. Config files are key=value
text read by `training.read_key_values`. Both readers drop one leading UTF-8
byte-order mark. A file that is not UTF-8 raises DataError (exit 3), or
ConfigError (exit 2) for a config file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError, EmptyAfterFiltering, EmptyInput, MalformedLine
from .rng import substream

# bytes of one work block: user x item scores or a gram row block in
# evaluation, the membership marks of UserIndex.contains
BLOCK_BUDGET = 8 << 20
# share of each user's pairs that split() holds out for validation, and again for test
HELD_OUT_SHARE = 0.1


class Workspace:
    """Named work arrays that a run reuses from call to call. Distinct
    names never share memory; a name's contents are what its last user
    left there."""

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous `shape` view of the array held as `name`. That
        array is replaced only when the request needs more elements or
        another dtype, and then by one of at least twice the old size, so a
        run touches fresh pages a few times, not at each new largest step."""
        size = prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            held = 0 if flat is None else flat.size
            flat = self._flat[name] = np.empty(max(size, 2 * held), dtype)
        return flat[:size].reshape(shape)


@dataclass
class InteractionSet:
    """Deduplicated (user, item) pairs over contiguous integer IDs.

    `user_pop[u]` / `item_pop[i]` count the interactions touching u / i.
    """

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray
    user_pop: np.ndarray
    item_pop: np.ndarray

    @classmethod
    def from_pairs(
        cls,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
        n_users: int | None = None,
        n_items: int | None = None,
    ) -> "InteractionSet":
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be 1-D arrays of equal length")
        if users.size == 0:
            raise DataError("interaction set has no pairs")
        if users.min() < 0 or items.min() < 0:
            raise DataError("negative IDs in interaction pairs")
        n_users = int(users.max()) + 1 if n_users is None else int(n_users)
        n_items = int(items.max()) + 1 if n_items is None else int(n_items)
        if users.max() >= n_users or items.max() >= n_items:
            raise DataError("interaction IDs exceed declared user/item counts")
        key = np.sort(users * n_items + items)
        if (key[1:] == key[:-1]).any():
            raise DataError("duplicate (user, item) pairs")
        return cls(
            n_users=n_users,
            n_items=n_items,
            users=users,
            items=items,
            user_pop=np.bincount(users, minlength=n_users),
            item_pop=np.bincount(items, minlength=n_items),
        )

    @property
    def n_pairs(self) -> int:
        return int(self.users.size)

    def validate(self) -> None:
        """Check the full invariants (every ID used, popularity sums)."""
        if not self.user_pop.sum() == self.n_pairs == self.item_pop.sum():
            raise DataError("popularity counts do not sum to the number of pairs")
        if _distinct_count(self.users) != self.n_users:
            raise DataError("some user IDs in [0, n_users) never appear")
        if _distinct_count(self.items) != self.n_items:
            raise DataError("some item IDs in [0, n_items) never appear")


def _distinct_count(values: np.ndarray) -> int:
    """np.unique(values).size, without the numpy.ma import a bare np.unique makes."""
    ordered = np.sort(values, axis=None)
    return int(ordered.size > 0) + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


class UserIndex(NamedTuple):
    """Per-user rows in CSR form: row u is indices[indptr[u]:indptr[u + 1]], ascending."""

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def build(cls, users: np.ndarray, values: np.ndarray, n_users: int) -> "UserIndex":
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=n_users), out=indptr[1:])
        return cls(indptr, values[np.lexsort((values, users))])

    @property
    def nnz(self) -> int:
        """Number of entries over all rows."""
        return self.indices.size

    def entries(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given users' rows stacked in order: their indptr, and each
        entry's row (position in `users`) and position in `indices`."""
        starts = self.indptr[users]
        counts = self.indptr[users + 1] - starts
        indptr = np.zeros(users.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows = np.repeat(np.arange(users.size), counts)
        # entry j of row r is indices[starts[r] + j] and lands at indptr[r] + j
        return indptr, rows, np.arange(rows.size) + (starts - indptr[:-1])[rows]

    def gather(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in `users`, value) for every entry of the given users' rows."""
        _, rows, at = self.entries(users)
        return rows, self.indices[at]

    def contains(self, users: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
        """Whether each value is in its user's row, broadcasting `users`
        against `values`; every row value and query value lies in [0, width).

        Each entry of `users` gets a row of `width` boolean marks, set from
        `gather`, and each query reads its mark. The marks are built in
        blocks of rows of at most BLOCK_BUDGET bytes.
        """
        users = np.asarray(users, dtype=np.int64)
        flat_users = users.reshape(-1)
        # flat position of each query's mark: its user's position in `users`
        # selects the row of marks, its value the column
        at = np.arange(users.size).reshape(users.shape) * width + np.asarray(values, np.int64)
        n_rows = max(1, BLOCK_BUDGET // width)
        block = np.empty(min(n_rows, users.size) * width, dtype=bool)
        out = np.empty(at.shape, dtype=bool)
        for start in range(0, users.size, n_rows):
            part = flat_users[start : start + n_rows]
            marks = block[: part.size * width]
            marks.fill(False)
            rows, row_values = self.gather(part)
            marks[rows * width + row_values] = True
            if part.size == users.size:
                return marks[at]
            here = (at >= start * width) & (at < start * width + marks.size)
            out[here] = marks[at[here] - start * width]
        return out


@dataclass(frozen=True)
class DatasetSplit:
    """Per-user train/validation/test partition of an InteractionSet.

    `train` holds the training pairs in source order; `train_index`,
    `validation` and `test` hold each part's items per user, over all of the
    source set's users.
    """

    train: InteractionSet
    train_index: UserIndex
    validation: UserIndex
    test: UserIndex


def load_interactions(path: str | Path, delimiter: str = "\t") -> tuple[list[str], list[str]]:
    """Parse an interaction file into its user keys and item keys, aligned
    and in file order.

    Duplicate lines survive here; deduplication belongs to preprocess().
    Raises MalformedLine with the offending line number, EmptyInput when
    nothing parses, DataError naming the file when it is not UTF-8.
    """
    path = Path(path)
    user_keys: list[str] = []
    item_keys: list[str] = []
    with path.open("r", encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split(delimiter)
                if len(fields) < 2:
                    detail = f"expected >=2 fields, got {len(fields)}"
                    raise MalformedLine(str(path), lineno, detail)
                user_key, item_key = fields[0].strip(), fields[1].strip()
                if not user_key or not item_key:
                    raise MalformedLine(str(path), lineno, "empty user or item field")
                user_keys.append(user_key)
                item_keys.append(item_key)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if not user_keys:
        raise EmptyInput(f"no interactions in {path}")
    return user_keys, item_keys


def _intern(keys: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Integer code of every key, codes in first-appearance order, and the
    distinct keys by code. Keys stay Python strings: numpy's fixed-width
    string dtype drops trailing NULs and would merge "a\x00" with "a"."""
    codes: dict[str, int] = {}
    coded = np.fromiter(
        (codes.setdefault(k, len(codes)) for k in keys), dtype=np.int64, count=len(keys)
    )
    return coded, list(codes)


def _first_seen_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous IDs numbering the distinct codes in order of first
    position, and those codes by ID."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank[inverse], distinct[order]


def preprocess(
    user_keys: Sequence[str], item_keys: Sequence[str], k_core: int = 5
) -> tuple[InteractionSet, tuple[str, ...], tuple[str, ...]]:
    """Dedup, k-core filter to a fixpoint, remap keys to contiguous IDs.

    `user_keys[n]` and `item_keys[n]` form the n-th interaction. The keys
    are interned to integer codes and all the work runs on the codes.
    Deduplication keeps the first occurrence. Filtering repeatedly removes
    users/items with fewer than k_core interactions until none remain (a
    single pass is not enough: dropping a user can push an item below the
    threshold). Surviving keys get IDs in first-seen input order.
    Returns the remapped pairs and the user and item keys by ID.
    """
    if len(user_keys) != len(item_keys):
        raise ValueError("user_keys and item_keys must have equal length")
    if not user_keys:
        raise EmptyInput("no interactions to preprocess")
    if k_core < 1:
        raise ValueError(f"k_core must be >= 1, got {k_core}")

    users, user_names = _intern(user_keys)
    items, item_names = _intern(item_keys)
    # the first occurrence of every distinct pair, kept in input order
    _, first = np.unique(users * len(item_names) + items, return_index=True)
    kept = np.sort(first)
    users, items = users[kept], items[kept]

    while True:
        user_cnt = np.bincount(users, minlength=len(user_names))
        item_cnt = np.bincount(items, minlength=len(item_names))
        keep = (user_cnt[users] >= k_core) & (item_cnt[items] >= k_core)
        if keep.all():
            break
        users, items = users[keep], items[keep]
        if users.size == 0:
            raise EmptyAfterFiltering(f"no interactions survive {k_core}-core filtering")

    users, user_codes = _first_seen_ids(users)
    items, item_codes = _first_seen_ids(items)
    out = InteractionSet.from_pairs(users, items, user_codes.size, item_codes.size)
    out.validate()
    return (
        out,
        tuple(user_names[c] for c in user_codes.tolist()),
        tuple(item_names[c] for c in item_codes.tolist()),
    )


def split(data: InteractionSet, seed: int = 0) -> DatasetSplit:
    """Per-user random 80/10/10 partition into train/validation/test.

    For each user independently, in user order, the user's interactions
    are shuffled with the seeded split substream, which each user advances
    as `rng.permutation(p(u))` would; the first floor(0.1 * p(u)) go to
    validation, the next floor(0.1 * p(u)) to test and the rest, at least
    one, to train. The training pairs keep their source order, and each
    part's per-user index is built here, once.
    """
    by_user = UserIndex.build(data.users, np.arange(data.n_pairs, dtype=np.int64), data.n_users)
    counts = np.diff(by_user.indptr)
    n_val = np.floor(HELD_OUT_SHARE * counts).astype(np.int64)
    n_held = 2 * n_val

    rng = substream(seed, "split")
    order = by_user.indices.copy()
    bounds = by_user.indptr.tolist()
    for u in range(data.n_users):
        rng.shuffle(order[bounds[u] : bounds[u + 1]])
    # a pair's rank in its user's shuffled slice picks its part
    rank = np.arange(data.n_pairs) - np.repeat(by_user.indptr[:-1], counts)
    part = np.empty(data.n_pairs, dtype=np.int8)  # 0 train, 1 validation, 2 test
    part[order] = np.where(
        rank < np.repeat(n_val, counts), 1, np.where(rank < np.repeat(n_held, counts), 2, 0)
    )

    tr, va, te = (np.flatnonzero(part == k) for k in range(3))
    train = InteractionSet.from_pairs(data.users[tr], data.items[tr], data.n_users, data.n_items)
    train_index, validation, test = (
        UserIndex.build(data.users[at], data.items[at], data.n_users) for at in (tr, va, te)
    )
    return DatasetSplit(train, train_index, validation, test)


@contextmanager
def open_atomic(path: str | Path, newline: str | None = None, binary: bool = False) -> Iterator[IO]:
    """Write UTF-8 text, or bytes when `binary`, to a temporary file beside
    `path` that replaces `path` (os.replace) when the block exits cleanly;
    if the block raises, the temporary file is removed and `path` keeps its
    previous content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of the bytes of the file at `path`."""
    import hashlib  # here, so that preprocess does not load OpenSSL

    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_interactions(data: InteractionSet, path: str | Path) -> None:
    """Serialize remapped integer-ID pairs tab-separated, one per line,
    input order, replacing the file at `path` whole.

    The text is built in numpy as the inverse of `_id_columns`: each
    non-negative ID's decimal digits, then TAB after a user and LF after
    an item, as `f"{u}\\t{i}\\n"` would write them."""
    values = np.column_stack((data.users, data.items)).reshape(-1)
    widths = np.searchsorted(10 ** np.arange(1, 19), values, side="right") + 1
    ends = np.cumsum(widths + 1) - 1  # the byte after each field
    text = np.empty(widths.sum() + widths.size, dtype=np.uint8)
    text[ends[0::2]] = ord("\t")
    text[ends[1::2]] = ord("\n")
    for k in range(int(widths.max(initial=0))):
        # the k-th digit from the right of every field longer than k
        live = np.flatnonzero(widths > k)
        text[ends[live] - 1 - k] = values[live] // 10**k % 10 + ord("0")
    with open_atomic(path) as fh:
        fh.write(text.tobytes().decode("ascii"))


def write_id_map(keys: Sequence[str], path: str | Path, delimiter: str = "\t") -> None:
    """Two-column sidecar: original key, remapped contiguous ID, replacing
    the file at `path` whole."""
    with open_atomic(path) as fh:
        for new_id, key in enumerate(keys):
            fh.write(f"{key}{delimiter}{new_id}\n")


def read_id_pairs(
    path: str | Path,
    delimiter: str = "\t",
    n_users: int | None = None,
    n_items: int | None = None,
) -> InteractionSet:
    """Load a preprocessed integer-ID interaction file.

    IDs need not be contiguous (popularity is zero for unused IDs), but
    duplicates and out-of-range IDs are rejected. Each ID parses as Python's
    int() does, and must fit in int64. A tab-separated file in the form
    `write_interactions` writes (see `_id_columns`) is parsed in numpy;
    every other file goes through `load_interactions` and int().
    """
    columns = _id_columns(Path(path).read_bytes()) if delimiter == "\t" else None
    if columns is None:
        user_keys, item_keys = load_interactions(path, delimiter)
        try:
            columns = np.array(user_keys, dtype=np.int64), np.array(item_keys, dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: expected integer IDs ({exc})") from exc
    return InteractionSet.from_pairs(*columns, n_users, n_items)


def _id_columns(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The two int64 columns of `raw` when it is exactly one or more lines
    of 1-18 ASCII digits, TAB, 1-18 ASCII digits, LF; None for any other
    bytes. On that form int() reads each field as its decimal digits, and
    18 digits fit in int64, so the values are int()'s."""
    codes = np.frombuffer(raw, dtype=np.uint8)
    digits = codes - np.uint8(ord("0"))  # every other byte wraps past 9
    ends = np.flatnonzero(digits > 9)  # the byte after each field
    if ends.size == 0 or ends.size % 2 or ends[-1] != codes.size - 1:
        return None
    delims = codes[ends]
    if not ((delims[0::2] == ord("\t")).all() and (delims[1::2] == ord("\n")).all()):
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    values = np.zeros(ends.size, dtype=np.int64)
    for k in range(int(lengths.max())):
        # the k-th digit from the right of every field longer than k; for a
        # shorter field the position lies before it (or wraps round to the
        # buffer's end) and is masked
        digit = np.where(lengths > k, digits[ends - 1 - k], np.uint8(0))
        values += digit.astype(np.int64) * 10**k
    return values[0::2].copy(), values[1::2].copy()
