"""Collaborative filtering on the hypersphere.

Trains implicit-feedback recommenders with either the joint
alignment+uniformity objective or pairwise ranking baselines, evaluates
by full-ranking Recall/NDCG, and measures representation geometry with an
exact popularity-weighted uniformity estimator.
"""

from .data import (
    DatasetSplit,
    InteractionSet,
    load_interactions,
    preprocess,
    split,
)
from .encoders import (
    EmbeddingTable,
    GraphPropagator,
    init_xavier,
    normalize_rows,
    read_embeddings,
    write_embeddings,
)
from .evaluation import (
    GeometryReport,
    RankingMetrics,
    geometry_report,
    rank_eval,
)
from .losses import (
    LossOutput,
    bpr_loss,
    direct_au_loss,
    sample_negatives,
)
from .optim import AdamState, adam_step
from .training import (
    EpochTrace,
    Snapshot,
    TrainConfig,
    emit_trace,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
