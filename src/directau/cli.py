"""Command-line pipeline: preprocess, train, eval, probe.

Exit codes: 0 success, 2 usage/config error (a graph encoder without
scipy among them), 3 data error, 4 numeric divergence. One command = one
process; all randomness flows from the config's single seed through named
substreams. BLAS runs on one thread, whatever the environment asks for.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

# numpy reads these as it loads, below: OpenBLAS's thread count moves seeded
# bits. Where numpy is loaded already they would reach only child processes.
if "numpy" not in sys.modules:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from .data import (  # noqa: E402
    file_sha256,
    load_interactions,
    preprocess,
    read_id_pairs,
    split,
    write_id_map,
    write_interactions,
)
from .errors import ConfigError, DataError, NumericError  # noqa: E402

if TYPE_CHECKING:
    from .data import DatasetSplit, InteractionSet
    from .encoders import EmbeddingTable
    from .evaluation import GeometryReport, RankingMetrics
    from .training import EpochTrace, Snapshot, TrainConfig

_DELIMITERS = {"tab": "\t", "comma": ","}


# The layers past data load on a command's first call into them, so that
# preprocess loads only the data layer. These three keep the parameter
# names of the functions they call, so that a wrapper which binds its
# arguments by name (perfbench/tracing.py) can replace them here.
def train(split: DatasetSplit, cfg: TrainConfig) -> tuple[Snapshot, list[EpochTrace]]:
    from .training import train as run

    return run(split, cfg)


def rank_eval(
    table: EmbeddingTable, split: DatasetSplit, target: str, ks: tuple[int, ...]
) -> RankingMetrics:
    from .evaluation import rank_eval as run

    return run(table, split, target, ks)


def geometry_report(table: EmbeddingTable, interactions: InteractionSet) -> GeometryReport:
    from .evaluation import geometry_report as run

    return run(table, interactions)


def _ranking_json(ranked: RankingMetrics) -> dict[str, dict[str, float]]:
    """The one JSON shape of ranking metrics: the manifest's validation
    metrics and eval's report."""
    return {
        "recall": {str(k): v for k, v in ranked.recall_at.items()},
        "ndcg": {str(k): v for k, v in ranked.ndcg_at.items()},
    }


def cmd_preprocess(args: argparse.Namespace) -> int:
    if args.k_core < 1:
        raise ConfigError(f"--k-core must be >= 1, got {args.k_core}")
    delim = _DELIMITERS[args.delimiter]
    data, user_keys, item_keys = preprocess(*load_interactions(args.input, delim), args.k_core)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the clean file is tab-separated, as train and eval read it; a key
    # may hold a tab but never the input delimiter, so the maps keep it
    write_interactions(data, out)
    write_id_map(user_keys, Path(str(out) + ".users.map"), delim)
    write_id_map(item_keys, Path(str(out) + ".items.map"), delim)
    density = data.n_pairs / (data.n_users * data.n_items)
    print(
        f"users={data.n_users} items={data.n_items} "
        f"interactions={data.n_pairs} density={density:.6g}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .training import TrainConfig, read_key_values, save_checkpoint, split_key_value

    raw_cfg = read_key_values(args.config)
    raw_cfg.update(split_key_value(override, "--set") for override in args.set or [])
    cfg = TrainConfig.from_mapping(raw_cfg)

    data_path = Path(args.data)
    data = read_id_pairs(data_path)
    ds = split(data, seed=cfg.seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "config": cfg.to_mapping(),
        "dataset": {
            "path": str(data_path),
            "n_users": data.n_users,
            "n_items": data.n_items,
            "n_interactions": data.n_pairs,
            "sha256": file_sha256(data_path),
        },
    }
    best, traces = train(ds, cfg)
    # a diverged run keeps its last good snapshot, with nothing measured to record
    metrics = None if best.diverged else {
        "validation": _ranking_json(best.validation) if best.validation else None,
        "geometry": asdict(best.geometry),
    }
    record.update(best_epoch=best.epoch, epochs_run=len(traces), metrics=metrics)
    save_checkpoint(out_dir, best.table, traces, record)
    if best.diverged:
        print(f"training diverged: {best.diverged}; last good snapshot saved", file=sys.stderr)
        return 4
    print(f"best_epoch={best.epoch} epochs_run={len(traces)} out_dir={out_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    import json

    from .training import load_checkpoint

    try:
        ks = tuple(int(k) for k in args.ks.split(","))
    except ValueError as exc:
        raise ConfigError(f"--ks expects comma-separated integers: {exc}") from exc
    if min(ks) < 1:
        raise ConfigError(f"--ks values must be >= 1, got {args.ks}")
    checkpoint, data_path = Path(args.checkpoint), Path(args.data)
    table, cfg, record = load_checkpoint(checkpoint)
    # a file with the same counts would split differently, silently
    if record["dataset"]["sha256"] != file_sha256(data_path):
        raise DataError(
            f"{data_path} is not the dataset this checkpoint was trained on "
            f"(SHA-256 differs from {checkpoint / 'manifest.json'})"
        )
    data = read_id_pairs(data_path)  # counts inferred, as train infers them
    if data.n_users != table.n_users or data.n_items != table.n_items:
        raise DataError("checkpoint and dataset disagree on entity counts")
    ds = split(data, seed=cfg.seed)
    report = _ranking_json(rank_eval(table, ds, args.split, ks=ks))
    report.update(asdict(geometry_report(table, ds.train)))
    print(json.dumps(report, indent=2))
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    import json

    from .encoders import read_embeddings

    table = read_embeddings(Path(args.embeddings))
    delim = _DELIMITERS[args.delimiter]
    data = read_id_pairs(
        Path(args.interactions), delim, n_users=table.n_users, n_items=table.n_items
    )
    print(json.dumps(asdict(geometry_report(table, data)), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="directau",
        description="Hypersphere-geometry collaborative filtering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="dedup + k-core filter + ID remapping")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--delimiter", choices=sorted(_DELIMITERS), default="tab")
    p.add_argument("--k-core", type=int, default=5)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="split + train + trace + checkpoint")
    p.add_argument("--data", required=True, help="preprocessed integer-ID interaction file")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="full-ranking metrics + geometry for a checkpoint")
    p.add_argument("--checkpoint", required=True, help="directory written by train")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("validation", "test"), default="test")
    p.add_argument("--ks", default="10,20,50")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="geometry report for an external embedding dump")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--interactions", required=True)
    p.add_argument("--delimiter", choices=sorted(_DELIMITERS), default="tab")
    p.set_defaults(func=cmd_probe)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # MissingKernel among them: encoder = lgcn where scipy's sparse kernel is missing
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, MemoryError, OSError) as exc:  # MemoryError: an array too large to make
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
