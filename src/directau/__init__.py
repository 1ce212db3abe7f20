"""Collaborative filtering on the hypersphere.

Trains implicit-feedback recommenders with either the joint
alignment+uniformity objective or pairwise ranking baselines, evaluates
by full-ranking Recall/NDCG, and measures representation geometry with an
exact popularity-weighted uniformity estimator.

Importing the package loads none of its modules: each public name below
imports the module that defines it on first access, so a command loads
only the layers it uses.
"""

from importlib import import_module

# the public names, by the module that defines them
_EXPORTS = {
    "data": "DatasetSplit InteractionSet load_interactions preprocess split",
    "encoders": "EmbeddingTable GraphPropagator init_xavier normalize_rows "
    "read_embeddings write_embeddings",
    "evaluation": "GeometryReport RankingMetrics geometry_report rank_eval",
    "losses": "bpr_loss direct_au_loss sample_negatives",
    "optim": "AdamState adam_step",
    "training": "EpochTrace Snapshot TrainConfig emit_trace load_checkpoint "
    "save_checkpoint train",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
