"""End-to-end training loop with early stopping and geometry tracing.

Each epoch, the generator _epochs steps Adam on deterministically shuffled
positive-pair batches (lazy on the batch rows for mf, on every row for
lgcn); train() then records: the epoch-mean training loss,
alignment/uniformity of the full learned representations over the
training interactions, and the validation ranking at K = 10, 20, 50.
Early stopping reads NDCG@20 and keeps the snapshot from the best
validation epoch, together with what that epoch measured on it; an epoch
that hits a NumericError ends the run with the last good one, `diverged`.

Ranking and validation use raw dot-product scores even though the losses
normalize; for the graph encoder, the traced/scored representations are
the propagated outputs.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields, replace
from itertools import count
from math import inf, nan
from pathlib import Path

import numpy as np

from .data import DatasetSplit, file_sha256, open_atomic
from .encoders import (
    EmbeddingTable,
    GraphPropagator,
    init_xavier,
    read_embeddings,
    write_embeddings,
)
from .errors import ConfigError, DataError, InsufficientBatch, NumericError
from .evaluation import GeometryReport, RankingMetrics, geometry_report, rank_eval
from .losses import bpr_loss, direct_au_loss, sample_negatives
from .optim import AdamState, adam_step
from .rng import substream

OBJECTIVES = ("direct_au", "bpr", "bpr_ds")
ENCODERS = ("mf", "lgcn")
# a config value's parser, by its TrainConfig field's annotation
_PARSE = {"str": str, "int": int, "float": float, "float | None": float}


@dataclass
class TrainConfig:
    """All run hyperparameters; validated on construction."""

    objective: str
    seed: int
    encoder: str = "mf"
    layers: int = 0
    gamma: float | None = None
    d: int = 64
    lr: float = 1e-3
    batch_size: int = 256
    weight_decay: float = 0.0
    max_epochs: int = 300
    patience: int = 10
    ds_candidates: int = 32

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.encoder not in ENCODERS:
            raise ConfigError(f"encoder must be one of {ENCODERS}, got {self.encoder!r}")
        for name, least in (("layers", 0), ("d", 1), ("batch_size", 1), ("max_epochs", 0),
                            ("patience", 1), ("seed", 0), ("ds_candidates", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.encoder == "lgcn" and self.layers < 1:
            raise ConfigError("encoder=lgcn requires layers >= 1")
        if self.objective == "direct_au":
            if self.gamma is None:
                raise ConfigError("objective=direct_au requires gamma")
            if not 0 <= self.gamma < inf:
                raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        elif self.gamma is not None:
            raise ConfigError("gamma is only valid with objective=direct_au")
        if not 0 < self.lr < inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.objective == "direct_au" and self.batch_size < 2:
            raise ConfigError("objective=direct_au requires batch_size >= 2")
        if not 0 <= self.weight_decay < inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "TrainConfig":
        """Build from string key/values (a config file, or a run record's
        `config`); each value parses as its field's type, and the fields
        without a default are required.

        Unknown keys are errors: a typo must never fall back to a default.
        """
        schema = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, text in raw.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                kwargs[key] = _PARSE[schema[key].type](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
        for f in schema.values():
            if f.default is MISSING and f.name not in kwargs:
                raise ConfigError(f"config key {f.name!r} is required")
        return cls(**kwargs)

    def to_mapping(self) -> dict[str, str]:
        """Echo as string key/values (inverse of from_mapping)."""
        out: dict[str, str] = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None:
                continue
            out[f.name] = f"{val:.17g}" if isinstance(val, float) else str(val)
        return out


@dataclass
class EpochTrace:
    """One epoch's record; geometry fields are full-data metrics, while
    train_loss averages the in-batch objective over the epoch's batches."""

    epoch: int
    train_loss: float
    l_align: float
    l_uniform_user: float
    l_uniform_item: float
    val_ndcg20: float
    wall_seconds: float


TRACE_COLUMNS = tuple(f.name for f in fields(EpochTrace))


@dataclass
class Snapshot:
    """The representations a run keeps, from `epoch` (0: the initial
    table), with the geometry and validation ranking measured on them;
    `validation` is None without validation pairs. A diverged run keeps
    its last good table, nothing measured (both None), and `diverged` says
    which epoch failed and why."""

    table: EmbeddingTable
    epoch: int
    geometry: GeometryReport | None
    validation: RankingMetrics | None
    diverged: str | None = None


def _training_batches(split: DatasetSplit, cfg: TrainConfig, epoch: int) -> list[np.ndarray]:
    """The epoch's batches as positions into split.train: one permutation
    from the (seed, "shuffle", epoch) substream, cut at the multiples of
    batch_size, so the last batch may be short and their union is the
    training set. A singleton batch has no pairwise uniformity, so for
    direct_au a trailing one joins the batch before it."""
    n = split.train.n_pairs
    starts = np.arange(cfg.batch_size, n, cfg.batch_size)
    if cfg.objective == "direct_au" and n % cfg.batch_size == 1:
        if n == 1:
            raise InsufficientBatch("direct_au needs at least two training pairs")
        starts = starts[:-1]
    return np.split(substream(cfg.seed, "shuffle", epoch).permutation(n), starts)


def _epochs(split: DatasetSplit, cfg: TrainConfig) -> Iterator[tuple[float, EmbeddingTable]]:
    """Train, one epoch per pull: yields (nan, the initial table), then
    (mean batch loss, scoring table) after each epoch's batches. Epoch
    e + 1 runs, and draws, only when the caller pulls again. Each yielded
    table is the caller's: a copy of the parameters for mf, the fresh
    propagated outputs for lgcn.
    """
    n_users = split.train.n_users
    table = init_xavier(n_users, split.train.n_items, cfg.d, cfg.seed)
    propagator = GraphPropagator.build(table, split.train, cfg.layers) if cfg.encoder == "lgcn" else None
    state = AdamState.for_params(table.emb, cfg.lr, cfg.weight_decay)
    neg_rng = substream(cfg.seed, "negatives")

    def scoring_table() -> EmbeddingTable:
        return EmbeddingTable(propagator.propagate(), n_users) if propagator is not None else table.copy()

    yield nan, scoring_table()
    for epoch in count(1):
        batches = _training_batches(split, cfg, epoch)
        loss_sum = 0.0
        for sel in batches:
            value, rows, grads = _batch_loss_and_grads(
                split.train.users[sel], split.train.items[sel],
                table, propagator, split, cfg, neg_rng,
            )
            adam_step(state, table.emb, rows, grads)
            loss_sum += value
        yield loss_sum / len(batches), scoring_table()


def train(split: DatasetSplit, cfg: TrainConfig) -> tuple[Snapshot, list[EpochTrace]]:
    """Run the configured objective/encoder; return the best snapshot.

    Returns (best, traces) where `best.table` holds the scoring
    representations (propagated outputs for lgcn) from the epoch with the
    highest validation NDCG@20, and its geometry and ranking are the ones
    that epoch measured. Without a validation split, early stopping is
    disabled, val_ndcg20 is NaN, and the final epoch is returned. When no
    epoch runs, the initial table is measured once. An epoch that hits a
    NumericError ends the run: `best` is the best snapshot before it, with
    nothing measured and `diverged` = "epoch {e}: {error}". The epochs
    come from _epochs, and train stops pulling them when patience runs out.
    """
    has_val = split.validation.nnz > 0

    def measure(epoch: int, scoring: EmbeddingTable) -> Snapshot:
        geo = geometry_report(scoring, split.train)
        return Snapshot(scoring, epoch, geo, rank_eval(scoring, split, "validation") if has_val else None)

    epochs = _epochs(split, cfg)
    best = Snapshot(next(epochs)[1], 0, None, None)
    best_val, stale, traces = -inf, 0, []
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        try:
            loss, scoring = next(epochs)
            now = measure(epoch, scoring)
        except NumericError as exc:
            diverged = f"epoch {epoch}: {exc}"
            return replace(best, geometry=None, validation=None, diverged=diverged), traces
        val, geo = now.validation.ndcg_at[20] if has_val else nan, now.geometry
        traces.append(EpochTrace(
            epoch, loss, geo.l_align, geo.l_uniform_user, geo.l_uniform_item, val,
            wall_seconds=time.perf_counter() - t0,
        ))

        # without validation every epoch is the best so far
        if not has_val or val > best_val:
            best_val, stale = val, 0
            best = now
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    if best.geometry is None:  # no epoch ran
        best = measure(0, best.table)
    return best, traces


def _sum_rows(inv: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """A fresh array whose row k is the sum of the rows grads[inv == k],
    for k up to inv's largest value, each entry added in batch order onto
    0.0 by one np.bincount over the flat entries."""
    d = grads.shape[1]
    flat = (inv[:, None] * d + np.arange(d)).reshape(-1)
    return np.bincount(flat, weights=grads.reshape(-1)).reshape(-1, d)


def _batch_loss_and_grads(
    bu: np.ndarray, bi: np.ndarray, table: EmbeddingTable, propagator: GraphPropagator | None,
    split: DatasetSplit, cfg: TrainConfig, neg_rng: np.random.Generator,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss of the batch of positive pairs (bu[k], bi[k]) and its gradients
    w.r.t. the stacked base parameter rows.

    Returns (value, rows, grads) with rows indexing `table.emb` (items
    offset by n_users). The loss's gradient comes stacked in the batch ids'
    order [users; positives; negatives], and _sum_rows sums its duplicate
    rows into a fresh array; for the graph encoder the sums are pulled back
    through the propagation (every row) into the propagator's scratch. The
    negatives are drawn first and the outputs read only at the batch rows;
    only `bpr_ds` on the graph encoder propagates every row, to score its
    candidates drawn from the whole catalog, and uniform `bpr` reads no table.
    """
    n_users, b = table.n_users, bu.size
    out = table
    if propagator is not None:
        out = EmbeddingTable(propagator.propagate(), n_users) if cfg.objective == "bpr_ds" else None
    negs = np.empty(0, dtype=np.int64)
    if cfg.objective != "direct_au":
        strategy = "dynamic" if cfg.objective == "bpr_ds" else "uniform"
        negs = sample_negatives(
            split, bu, strategy, table=out, candidates=cfg.ds_candidates, rng=neg_rng
        )
    ids = np.concatenate([bu, n_users + bi, n_users + negs])
    rows, inv = np.unique(ids, return_inverse=True)
    reps = propagator.propagate(rows)[inv] if out is None else out.emb[ids]
    if cfg.objective == "direct_au":
        value, grads = direct_au_loss(reps[:b], reps[b:], cfg.gamma)
    else:
        value, grads = bpr_loss(reps[:b], reps[b : 2 * b], reps[2 * b :])
    acc = _sum_rows(inv, grads)
    if propagator is None:
        return value, rows, acc
    return value, np.arange(table.emb.shape[0]), propagator.backward(rows, acc)


def emit_trace(traces: list[EpochTrace], path: str | Path) -> None:
    """Write the per-epoch trace as UTF-8 CSV with LF line ends at 9
    significant digits, replacing the file at `path` whole."""
    lines = [TRACE_COLUMNS] + [
        [str(t.epoch)] + [f"{getattr(t, col):.9g}" for col in TRACE_COLUMNS[1:]] for t in traces
    ]
    with open_atomic(path) as fh:
        fh.write("".join(",".join(vals) + "\n" for vals in lines).encode())


def save_checkpoint(
    out_dir: str | Path, table: EmbeddingTable, traces: list[EpochTrace], record: dict
) -> None:
    """Write the run directory: embeddings.npz, then trace.csv, then
    manifest.json, the run's one record (`record` plus the dump's
    `embeddings_sha256`). Each file is replaced whole and the record goes
    last, as the commit point: a write that fails leaves the previous
    run's files, or a new dump that load_checkpoint rejects."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = out_dir / "embeddings.npz"
    write_embeddings(table, dump)
    emit_trace(traces, out_dir / "trace.csv")
    text = json.dumps({**record, "embeddings_sha256": file_sha256(dump)}, indent=2) + "\n"
    with open_atomic(out_dir / "manifest.json") as fh:
        fh.write(text.encode())


def split_key_value(text: str, where: str) -> tuple[str, str]:
    """`text` split at its first '=', both sides stripped."""
    key, sep, val = text.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), val.strip()


def read_key_values(path: str | Path) -> dict[str, str]:
    """Flat key=value lines (split_key_value); blank lines and '#'
    comments allowed, a later key overrides an earlier one. Raises
    ConfigError on a line without '=', or a file that cannot be read or is
    not UTF-8."""
    try:
        with Path(path).open("r", encoding="utf-8-sig") as fh:
            return dict(
                split_key_value(line, f"{path}:{lineno}")
                for lineno, line in enumerate(map(str.strip, fh), start=1)
                if line and not line.startswith("#")
            )
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc


def load_checkpoint(out_dir: str | Path) -> tuple[EmbeddingTable, TrainConfig, dict]:
    """Inverse of save_checkpoint: the table, its config and the whole
    record. A missing or malformed record, or a dump that is not the one it
    records, is a DataError; a config value that from_mapping rejects
    stays a ConfigError."""
    out_dir = Path(out_dir)
    dump, path = out_dir / "embeddings.npz", out_dir / "manifest.json"
    table = read_embeddings(dump)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        raw, best, digest = record["config"], record["best_epoch"], record["embeddings_sha256"]
        trained_on = record["dataset"]["sha256"]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError: not UTF-8 or not JSON
        raise DataError(f"{path}: malformed run record ({exc!r})") from exc
    if not (isinstance(raw, dict) and all(isinstance(v, str) for v in raw.values())):
        raise DataError(f"{path}: 'config' must map keys to strings, got {raw!r}")
    if type(best) is not int or best < 0:  # a bool is an int, but not a best epoch
        raise DataError(f"{path}: 'best_epoch' must be an integer >= 0, got {best!r}")
    if not (isinstance(digest, str) and isinstance(trained_on, str)):
        raise DataError(f"{path}: the SHA-256 entries must be strings")
    if digest != file_sha256(dump):
        raise DataError(f"{dump} is not the dump {path} records (SHA-256 differs)")
    return table, TrainConfig.from_mapping(raw), record
