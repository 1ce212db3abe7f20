"""End-to-end training loop with early stopping and geometry tracing.

Each epoch consumes deterministically shuffled positive-pair batches,
updates embeddings with lazy Adam, then records: the epoch-mean training
loss, alignment/uniformity of the full learned representations over the
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
from dataclasses import MISSING, dataclass, fields
from math import inf, nan
from pathlib import Path

import numpy as np

from .data import DatasetSplit, Workspace, file_sha256, open_atomic
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
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.encoder == "lgcn" and self.layers < 1:
            raise ConfigError("encoder=lgcn requires layers >= 1")
        if self.objective == "direct_au":
            if self.gamma is None:
                raise ConfigError("objective=direct_au requires gamma")
            if not 0 <= self.gamma < inf:
                raise ConfigError(f"gamma must be finite and >= 0, got {self.gamma}")
        elif self.gamma is not None:
            raise ConfigError("gamma is only valid with objective=direct_au")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not 0 < self.lr < inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.objective == "direct_au" and self.batch_size < 2:
            raise ConfigError("objective=direct_au requires batch_size >= 2")
        if not 0 <= self.weight_decay < inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.max_epochs < 0:
            raise ConfigError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.ds_candidates < 1:
            raise ConfigError(f"ds_candidates must be >= 1, got {self.ds_candidates}")

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


def train(split: DatasetSplit, cfg: TrainConfig) -> tuple[Snapshot, list[EpochTrace]]:
    """Run the configured objective/encoder; return the best snapshot.

    Returns (best, traces) where `best.table` holds the scoring
    representations (propagated outputs for lgcn) from the epoch with the
    highest validation NDCG@20, and its geometry and ranking are the ones
    that epoch measured. Without a validation split, early stopping is
    disabled, val_ndcg20 is NaN, and the final epoch is returned. When no
    epoch runs, the initial table is measured once. An epoch that hits a
    NumericError ends the run: `best` is the best snapshot before it, with
    nothing measured and `diverged` = "epoch {e}: {error}".
    """
    n_users, n_items = split.train.n_users, split.train.n_items
    table = init_xavier(n_users, n_items, cfg.d, cfg.seed)
    # the step's reused arrays: graph layers, row sums and Adam temporaries
    work = Workspace()
    propagator = (
        GraphPropagator.build(table, split.train, cfg.layers, work)
        if cfg.encoder == "lgcn"
        else None
    )
    state = AdamState.for_params(table.emb, cfg.lr, cfg.weight_decay, work)
    neg_rng = substream(cfg.seed, "negatives")

    def scoring_table() -> EmbeddingTable:
        return EmbeddingTable(propagator.propagate(), n_users) if propagator is not None else table

    has_val = split.validation.nnz > 0

    def measure(scoring: EmbeddingTable) -> tuple[GeometryReport, RankingMetrics | None]:
        geo = geometry_report(scoring, split.train)
        return geo, (rank_eval(scoring, split, "validation") if has_val else None)

    traces: list[EpochTrace] = []
    best_table = scoring_table().copy()
    best_epoch = 0
    measured = None  # what best_table's epoch measured on it
    best_val = -np.inf
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        loss_sum = 0.0
        try:
            batches = _training_batches(split, cfg, epoch)
            for sel in batches:
                value, rows, grads = _batch_loss_and_grads(
                    split.train.users[sel], split.train.items[sel],
                    table, propagator, work, split, cfg, neg_rng,
                )
                adam_step(state, table.emb, rows, grads)
                loss_sum += value
            scoring = scoring_table()
            geo, ranked = measure(scoring)
        except NumericError as exc:
            return Snapshot(best_table, best_epoch, None, None, f"epoch {epoch}: {exc}"), traces
        val = ranked.ndcg_at[20] if has_val else nan
        traces.append(
            EpochTrace(
                epoch=epoch,
                train_loss=loss_sum / len(batches),
                l_align=geo.l_align,
                l_uniform_user=geo.l_uniform_user,
                l_uniform_item=geo.l_uniform_item,
                val_ndcg20=val,
                wall_seconds=time.perf_counter() - t0,
            )
        )

        # without validation every epoch is the best so far
        if not has_val or val > best_val:
            best_val, best_epoch, stale = val, epoch, 0
            best_table, measured = scoring.copy(), (geo, ranked)
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    if measured is None:  # no epoch ran
        measured = measure(best_table)
    return Snapshot(best_table, best_epoch, *measured), traces


def _sum_rows(inv: np.ndarray, grads: np.ndarray, out: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Row k of `out` becomes the sum of the rows grads[inv == k], each
    entry added in batch order onto 0.0, through one scatter on the flat
    arrays; the flat index is written into the int64 `at`, shaped like
    `grads`. `out` must be C-contiguous, so that the scatter writes through
    its flat view."""
    d = grads.shape[1]
    out.fill(0.0)
    np.add(inv[:, None] * d, np.arange(d), out=at)
    np.add.at(out.reshape(-1), at.reshape(-1), grads.reshape(-1))
    return out


def _batch_loss_and_grads(
    bu: np.ndarray,
    bi: np.ndarray,
    table: EmbeddingTable,
    propagator: GraphPropagator | None,
    work: Workspace,
    split: DatasetSplit,
    cfg: TrainConfig,
    neg_rng: np.random.Generator,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss of the batch of positive pairs (bu[k], bi[k]) and its gradients
    w.r.t. the stacked base parameter rows.

    Returns (value, rows, grads) with rows indexing `table.emb` (items
    offset by n_users); duplicate batch rows are pre-accumulated in
    arrays of `work`, which the next batch overwrites, and for
    the graph encoder the gradients are pulled back through the
    propagation (every row). The negatives are drawn first; every
    objective then reads its outputs only at the batch rows (users,
    positives and negatives). Only `bpr_ds` on the graph encoder
    propagates every row, because its sampler scores candidates drawn from
    the whole catalog; uniform `bpr` never reads the table while sampling.
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
        lo = direct_au_loss(reps[:b], reps[b:], cfg.gamma)
        grads = np.concatenate([lo.grad_user, lo.grad_item])
    else:
        lo = bpr_loss(reps[:b], reps[b : 2 * b], reps[2 * b :])
        grads = np.concatenate([lo.grad_user, lo.grad_item, lo.grad_neg])

    # adam_step works in other arrays of `work`, so the sums may be its gradient
    sums = work.take("sums", (rows.size, grads.shape[1]))
    acc = _sum_rows(inv, grads, sums, work.take("sum_index", grads.shape, np.int64))
    if propagator is None:
        return lo.value, rows, acc
    return lo.value, np.arange(table.emb.shape[0]), propagator.backward(rows, acc)


def emit_trace(traces: list[EpochTrace], path: str | Path) -> None:
    """Write the per-epoch trace as CSV at 9 significant digits, replacing
    the file at `path` whole."""
    with open_atomic(path, newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for t in traces:
            vals = [str(t.epoch)] + [
                f"{getattr(t, col):.9g}" for col in TRACE_COLUMNS[1:]
            ]
            fh.write(",".join(vals) + "\n")


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
    with open_atomic(out_dir / "manifest.json") as fh:
        json.dump({**record, "embeddings_sha256": file_sha256(dump)}, fh, indent=2)
        fh.write("\n")


def split_key_value(text: str, where: str) -> tuple[str, str]:
    """`text` split at its first '=', both sides stripped."""
    key, sep, val = text.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    return key.strip(), val.strip()


def read_key_values(path: str | Path) -> dict[str, str]:
    """Flat key=value lines (split_key_value); blank lines and '#'
    comments allowed, a later key overrides an earlier one. Raises
    ConfigError on a line without '=' or a file that is not UTF-8."""
    with Path(path).open("r", encoding="utf-8-sig") as fh:
        try:
            return dict(
                split_key_value(line, f"{path}:{lineno}")
                for lineno, line in enumerate(map(str.strip, fh), start=1)
                if line and not line.startswith("#")
            )
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc


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
