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
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError, EmptyAfterFiltering, EmptyInput, MalformedLine
from .rng import substream

# bytes of one work block: rank_eval's user x item scores, a uniformity gram
# row block in geometry_report and the membership marks of UserIndex.contains
BLOCK_BUDGET = 8 << 20
# bytes of a block kept in cache: sampled candidates' rows, alignment differences
CACHE_BUDGET = 512 << 10
# share of each user's pairs that split() holds out for validation, and again for test
HELD_OUT_SHARE = 0.1


@dataclass
class InteractionSet:
    """Deduplicated (user, item) pairs over integer IDs in [0, n_users) and
    [0, n_items). A user's or item's popularity is its count in `users` or
    `items`."""

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray

    @classmethod
    def from_pairs(
        cls,
        users: Sequence[int] | np.ndarray,
        items: Sequence[int] | np.ndarray,
        n_users: int | None = None,
        n_items: int | None = None,
    ) -> "InteractionSet":
        """Pairs read from outside, checked. A count left out (largest ID + 1)
        may not exceed the pair count, and each key users * n_items + items fits int64."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape or users.ndim != 1:
            raise ValueError("users and items must be 1-D arrays of equal length")
        if users.size == 0:
            raise DataError("interaction set has no pairs")
        if users.min() < 0 or items.min() < 0:
            raise DataError("negative IDs in interaction pairs")
        if (n_users is None and users.max() >= users.size
                or n_items is None and items.max() >= items.size):
            raise DataError(f"IDs of undeclared counts must lie below the {users.size} pairs")
        n_users = int(users.max()) + 1 if n_users is None else int(n_users)
        n_items = int(items.max()) + 1 if n_items is None else int(n_items)
        if users.max() >= n_users or items.max() >= n_items:
            raise DataError("interaction IDs exceed declared user/item counts")
        if n_users * n_items > 2**63:
            raise DataError("declared user/item counts too large for int64 pair keys")
        key = np.sort(users * n_items + items)
        if (key[1:] == key[:-1]).any():
            raise DataError("duplicate (user, item) pairs")
        return cls(n_users, n_items, users, items)

    @property
    def n_pairs(self) -> int:
        return int(self.users.size)

    def validate(self) -> None:
        """Check that every ID in [0, n_users) and [0, n_items) is used."""
        if np.count_nonzero(np.bincount(self.users)) != self.n_users:
            raise DataError("some user IDs in [0, n_users) never appear")
        if np.count_nonzero(np.bincount(self.items)) != self.n_items:
            raise DataError("some item IDs in [0, n_items) never appear")


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


# the bytes of a plain line besides its delimiter: printable ASCII but space and '#', and LF
_PLAIN_BYTES = bytes(range(0x21, 0x7F)).replace(b"#", b"") + b"\n"


def load_interactions(
    path: str | Path, delimiter: str = "\t"
) -> tuple[np.ndarray, np.ndarray, list[str], list[str]]:
    """Interned columns `(users, items, user_keys, item_keys)` of an
    interaction file: line n is (user_keys[users[n]], item_keys[items[n]]),
    codes in order of first appearance, duplicate lines kept. Plain lines
    (`_two_fields`, `_PLAIN_BYTES`) after one UTF-8 BOM, with a one-byte
    ASCII delimiter but CR and keys of at most 64 bytes, are interned in
    numpy; any other file by the line loop and `_intern`, to the same
    result. Raises MalformedLine with the offending line number, EmptyInput
    when nothing parses, DataError naming the file when it is not UTF-8."""
    path = Path(path)
    body = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    plain = len(delimiter) == 1 and delimiter.isascii() and delimiter not in "\r\n"
    spans = _two_fields(body, ord(delimiter), _PLAIN_BYTES) if plain else None
    # a key's padded width bounds each line's memory, as the line loop's strings do
    if spans is not None and max((ends - starts).max() for starts, ends in spans) <= 64:
        (users, user_keys), (items, item_keys) = (_intern_spans(body, *span) for span in spans)
        return users, items, user_keys, item_keys
    user_keys, item_keys = [], []
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
    (users, user_keys), (items, item_keys) = _intern(user_keys), _intern(item_keys)
    return users, items, user_keys, item_keys


def _two_fields(raw: bytes, delim: int, other: bytes) -> tuple[tuple[np.ndarray, ...], ...] | None:
    """The (starts, ends) of the first two fields of every line of `raw`, a
    second field ending at the next `delim` or LF; None unless `raw` is
    lines that each end in LF (the last may not), hold only `delim` and
    bytes in `other`, and start with two non-empty fields."""
    if not raw or raw.translate(None, other + bytes([delim])):
        return None
    codes = np.frombuffer(raw if raw[-1] == 10 else raw + b"\n", dtype=np.uint8)
    cuts = np.flatnonzero((codes == 10) | (codes == delim))  # the byte after each field
    lasts = np.flatnonzero(codes[cuts] == 10)  # each line's last cut, its LF
    heads = np.concatenate(([0], lasts[:-1] + 1))  # each line's first cut
    if not (heads < lasts).all():  # a line without a delimiter
        return None
    starts = np.concatenate(([0], cuts[lasts[:-1]] + 1))
    first, second = cuts[heads], cuts[heads + 1]
    if not ((starts < first) & (first + 1 < second)).all():
        return None
    return (starts, first), (first + 1, second)


def _intern_spans(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """`_intern` of the ASCII keys raw[starts[n]:ends[n]], which hold no
    NUL: the keys, NUL-padded to whole uint64 words, are sorted as rows of
    words, and only the distinct keys are decoded."""
    codes, lengths = np.frombuffer(raw, dtype=np.uint8), ends - starts
    width = -(-int(lengths.max()) // 8) * 8
    if starts[-1] + width > codes.size:  # the last key's row runs past the bytes
        codes = np.concatenate((codes, np.zeros(width, dtype=np.uint8)))
    rows = np.lib.stride_tricks.sliding_window_view(codes, width)[starts]
    if lengths.min() < width:
        rows *= np.arange(width) < lengths[:, None]
    coded, first = _first_seen_ids(rows.view(np.uint64))
    return coded, [raw[a:b].decode() for a, b in zip(starts[first].tolist(), ends[first].tolist())]


def _intern(keys: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Integer code of every key, codes in first-appearance order, and the
    distinct keys by code. Keys stay Python strings: numpy's fixed-width
    string dtype drops trailing NULs and would merge "a\x00" with "a"."""
    codes: dict[str, int] = {}
    coded = np.fromiter((codes.setdefault(k, len(codes)) for k in keys), np.int64, len(keys))
    return coded, list(codes)


def _first_seen_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous IDs numbering the distinct rows of the 2-D `rows` in
    order of first position, and the first position of each ID."""
    # one column sorts fastest unstably; a row's first position is the least of its run
    order = np.argsort(rows[:, 0]) if rows.shape[1] == 1 else np.lexsort(rows.T)
    ordered = rows[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    by_first = np.argsort(first)
    rank = np.empty(first.size, dtype=np.int64)
    rank[by_first] = np.arange(first.size)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, first[by_first]


def preprocess(
    users: np.ndarray, items: np.ndarray, user_keys: Sequence[str], item_keys: Sequence[str],
    k_core: int = 5,
) -> tuple[InteractionSet, tuple[str, ...], tuple[str, ...]]:
    """Dedup, k-core filter to a fixpoint, remap keys to contiguous IDs.

    Interaction n is (user_keys[users[n]], item_keys[items[n]]), as
    `load_interactions` returns them. Deduplication keeps the first
    occurrence. Filtering repeatedly removes users/items with fewer than
    k_core interactions until none remain (a single pass is not enough:
    dropping a user can push an item below the threshold). Surviving keys
    get IDs in first-seen input order. Returns the remapped pairs (built
    here, so only `validate` checks them) and the user and item keys by ID.
    """
    users, items = np.asarray(users, dtype=np.int64), np.asarray(items, dtype=np.int64)
    if users.shape != items.shape:
        raise ValueError("users and items must have equal length")
    if not users.size:
        raise EmptyInput("no interactions to preprocess")
    if k_core < 1:
        raise ValueError(f"k_core must be >= 1, got {k_core}")

    # the first occurrence of every distinct pair, kept in input order
    _, kept = _first_seen_ids((users * len(item_keys) + items)[:, None])
    users, items = users[kept], items[kept]

    while True:
        user_cnt = np.bincount(users, minlength=len(user_keys))
        item_cnt = np.bincount(items, minlength=len(item_keys))
        keep = (user_cnt[users] >= k_core) & (item_cnt[items] >= k_core)
        if keep.all():
            break
        users, items = users[keep], items[keep]
        if users.size == 0:
            raise EmptyAfterFiltering(f"no interactions survive {k_core}-core filtering")

    user_ids, user_first = _first_seen_ids(users[:, None])
    item_ids, item_first = _first_seen_ids(items[:, None])
    out = InteractionSet(user_first.size, item_first.size, user_ids, item_ids)
    out.validate()
    return (
        out,
        tuple(user_keys[c] for c in users[user_first].tolist()),
        tuple(item_keys[c] for c in items[item_first].tolist()),
    )


def split(data: InteractionSet, seed: int = 0) -> DatasetSplit:
    """Per-user random 80/10/10 partition into train/validation/test.

    For each user independently, in user order, the user's interactions
    are shuffled with the seeded split substream, which each user advances
    as `rng.permutation(p(u))` would; the first floor(0.1 * p(u)) go to
    validation, the next floor(0.1 * p(u)) to test and the rest, at least
    one, to train. The training pairs, a part of the checked `data`, keep
    their source order; each part's per-user index is built here, once.
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
    train = InteractionSet(data.n_users, data.n_items, data.users[tr], data.items[tr])
    train_index, validation, test = (
        UserIndex.build(data.users[at], data.items[at], data.n_users) for at in (tr, va, te)
    )
    return DatasetSplit(train, train_index, validation, test)


@contextmanager
def open_atomic(path: str | Path) -> Iterator[IO[bytes]]:
    """Write bytes to a temporary file beside `path` that replaces `path`
    (os.replace) when the block exits cleanly; if the block raises, the
    temporary file is removed and `path` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
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
    input order, replacing the file at `path` whole. One %-format writes
    the lines `f"{u}\\t{i}\\n"` would; `_id_columns` reads them back."""
    pairs = np.column_stack((data.users, data.items)).reshape(-1).tolist()
    with open_atomic(path) as fh:
        fh.write(("%d\t%d\n" * data.n_pairs % tuple(pairs)).encode())


def write_id_map(keys: Sequence[str], path: str | Path, delimiter: str = "\t") -> None:
    """Two-column UTF-8 sidecar: original key, remapped contiguous ID, one
    LF-ended line each, replacing the file at `path` whole."""
    text = "".join(f"{key}{delimiter}{new_id}\n" for new_id, key in enumerate(keys))
    with open_atomic(path) as fh:
        fh.write(text.encode())


def read_id_pairs(
    path: str | Path, delimiter: str = "\t", n_users: int | None = None, n_items: int | None = None
) -> InteractionSet:
    """Load a preprocessed integer-ID interaction file, checked once by
    `InteractionSet.from_pairs`: no pair twice, no ID at or past a declared
    count or, where a count is inferred, the number of pairs. Below that,
    IDs need not be contiguous. Each ID parses as Python's int() does, and
    must fit in int64. A tab-separated file in the form `write_interactions`
    writes (see `_id_columns`) is parsed by numpy's text parser; every
    other file goes through `load_interactions` and int().
    """
    columns = _id_columns(Path(path).read_bytes()) if delimiter == "\t" else None
    if columns is None:
        users, items, user_keys, item_keys = load_interactions(path, delimiter)
        try:
            user_ids, item_ids = (np.array(k, dtype=np.int64) for k in (user_keys, item_keys))
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: expected integer IDs ({exc})") from exc
        columns = user_ids[users], item_ids[items]
    return InteractionSet.from_pairs(*columns, n_users, n_items)


def _id_columns(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The two int64 columns of `raw` when it is exactly one or more lines
    of 1-18 ASCII digits, TAB, 1-18 ASCII digits, LF; None for any other
    bytes. On that form int() reads each field as its decimal digits, and
    18 digits fit in int64, so numpy's text parser, whose " " separator
    matches TAB and LF, reads int()'s values."""
    spans = _two_fields(raw, ord("\t"), b"0123456789\n")
    codes = np.frombuffer(raw, dtype=np.uint8)
    # a final LF, and every item field ending at LF: no line has a third field
    if (spans is None or raw[-1] != 10 or (codes[spans[1][1]] != 10).any()
            or max((ends - starts).max() for starts, ends in spans) > 18):
        return None
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    return values[0::2], values[1::2]
