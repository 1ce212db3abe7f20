"""Full-ranking top-K metrics and representation-geometry measurement.

Ranking scores every item per user by raw dot product, masks the user's
training items, and breaks score ties by ascending item ID so results are
deterministic across platforms.

The uniformity metric over an interaction multiset is computed exactly in
O(|U|^2 d + |I|^2 d) by popularity weighting: summing p(u) p(u') times the
Gaussian potential over all ordered entity pairs equals the sum over all
ordered interaction pairs; subtracting the |R| identical-interaction
self-pairs (each contributing exp(0) = 1) and dividing by |R| (|R| - 1)
yields the mean over ordered pairs of distinct interactions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BLOCK_BUDGET as _SCORE_BUDGET
from .data import DatasetSplit, InteractionSet
from .encoders import EmbeddingTable, normalize_rows
from .errors import DegenerateEmbedding, InsufficientData, NothingToEvaluate
from .losses import UNIFORMITY_SCALE, softplus


@dataclass
class RankingMetrics:
    recall_at: dict[int, float]
    ndcg_at: dict[int, float]
    n_users_evaluated: int


@dataclass
class GeometryReport:
    """Alignment and uniformity of a set of representations over interactions."""

    l_align: float
    l_uniform: float
    l_uniform_user: float
    l_uniform_item: float


def rank_eval(
    table: EmbeddingTable,
    split: DatasetSplit,
    target: str = "validation",
    ks: tuple[int, ...] = (10, 20, 50),
) -> RankingMetrics:
    """Recall@K and NDCG@K over the full item ranking.

    Users without target items are skipped. NDCG uses binary gains,
    discount 1/log2(rank + 1), and IDCG truncated at min(K, |targets|).
    Each target's 0-based rank is counted in score blocks of at most
    _SCORE_BUDGET bytes: the items scoring higher, plus those scoring equal
    with a lower item ID. A masked (training) target is never a hit.
    """
    if target not in ("validation", "test"):
        raise ValueError(f"target must be 'validation' or 'test', got {target!r}")
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be non-empty positive integers")
    targets = split.validation_index if target == "validation" else split.test_index
    if targets.indices.size == 0:
        raise NothingToEvaluate(f"{target} split is empty")
    if not (np.isfinite(table.user_emb).all() and np.isfinite(table.item_emb).all()):
        raise DegenerateEmbedding("non-finite embedding entries cannot be ranked")

    n_items = table.n_items
    n_targets = np.diff(targets.indptr)
    eval_users = np.flatnonzero(n_targets)
    n_targets = n_targets[eval_users]

    ks = tuple(sorted(set(int(k) for k in ks)))
    kmax = min(max(ks), n_items)
    discounts = 1.0 / np.log2(np.arange(1, kmax + 1) + 1.0)
    idcg_prefix = np.concatenate([[0.0], np.cumsum(discounts)])

    n_rows = min(max(1, _SCORE_BUDGET // (8 * n_items)), eval_users.size)
    chunk = max(1, n_rows // 8)  # target score rows gathered at a time
    score_buf = np.empty((n_rows, n_items))
    item_ids = np.arange(n_items)
    is_hit = np.zeros((eval_users.size, kmax), dtype=bool)
    for start in range(0, eval_users.size, n_rows):
        users = eval_users[start : start + n_rows]
        scores = np.matmul(table.user_emb[users], table.item_emb.T, out=score_buf[: users.size])
        scores[split.train_index.gather(users)] = -np.inf
        rows, items = targets.gather(users)
        own = scores[rows, items]
        ranks = np.empty(rows.size, dtype=np.int64)
        for at in range(0, rows.size, chunk):
            part = slice(at, at + chunk)
            row_scores = scores[rows[part]]
            ahead = (row_scores == own[part, None]) & (item_ids < items[part, None])
            ahead |= row_scores > own[part, None]
            ranks[part] = np.count_nonzero(ahead, axis=1)
        # a masked (-inf) target is not a recommendation, even when K
        # exceeds the number of unmasked candidates
        hit = (ranks < kmax) & (own != -np.inf)
        is_hit[start + rows[hit], ranks[hit]] = True

    # cumsum adds per-user values left to right in user order; np.sum would pair them
    hit_disc = np.where(is_hit, discounts, 0.0)
    n_eval = int(eval_users.size)
    recall_at, ndcg_at = {}, {}
    for k in ks:
        kk = min(k, kmax)
        recall_at[k] = float(np.cumsum(is_hit[:, :kk].sum(axis=1) / n_targets)[-1]) / n_eval
        idcg = idcg_prefix[np.minimum(k, n_targets)]
        ndcg_at[k] = float(np.cumsum(hit_disc[:, :kk].sum(axis=1) / idcg)[-1]) / n_eval
    return RankingMetrics(recall_at, ndcg_at, n_eval)


def measure_alignment(table: EmbeddingTable, interactions: InteractionSet) -> float:
    """Mean squared distance between normalized rows over all pairs in R.

    The pairs' differences are taken in row blocks of at most
    _SCORE_BUDGET bytes; each pair's squared distance is one row sum, so
    the blocks do not change it, and the mean runs once over all of them.
    """
    un = normalize_rows(table.user_emb)
    im = normalize_rows(table.item_emb)
    users, items = interactions.users, interactions.items
    per_pair = np.empty(users.size)
    n_rows = max(1, _SCORE_BUDGET // (8 * table.d))
    for start in range(0, users.size, n_rows):
        block = slice(start, start + n_rows)
        diff = un[users[block]]
        diff -= im[items[block]]
        diff *= diff
        np.sum(diff, axis=1, out=per_pair[block])
    return float(np.mean(per_pair))


def _weighted_potential_mean(xn: np.ndarray, pop: np.ndarray, n_pairs: int) -> float:
    """log of the popularity-weighted Gaussian-potential mean for one side.

    Sums p(a) p(b) exp(-2 ||x_a - x_b||^2) over distinct entity pairs,
    adds sum_a p(a)(p(a) - 1) for same-entity distinct interactions (the
    exact diagonal correction, computed in integers so no cancellation),
    and normalizes by |R| (|R| - 1). Gram row blocks of at most
    _SCORE_BUDGET bytes set the summation grouping.
    """
    p = pop.astype(np.float64)
    n = xn.shape[0]
    n_rows = max(1, _SCORE_BUDGET // (8 * n))
    gram_buf = np.empty((min(n_rows, n), n))
    off_diag = 0.0
    for start in range(0, n, n_rows):
        stop = min(start + n_rows, n)
        pot = np.matmul(xn[start:stop], xn.T, out=gram_buf[: stop - start])
        pot -= 1.0
        pot *= 2.0 * UNIFORMITY_SCALE
        np.exp(pot, out=pot)
        cols = np.arange(start, stop)
        pot[cols - start, cols] = 0.0
        off_diag += float(p[start:stop] @ pot @ p)
    same_entity = float(np.sum(pop.astype(np.int64) * (pop.astype(np.int64) - 1)))
    return float(np.log((off_diag + same_entity) / (n_pairs * (n_pairs - 1))))


def measure_uniformity(
    table: EmbeddingTable, interactions: InteractionSet
) -> tuple[float, float, float]:
    """(user side, item side, combined) log Gaussian-potential means.

    Equals the O(|R|^2) mean over ordered pairs of distinct interactions,
    computed via the popularity-weighted form.
    """
    if interactions.n_pairs < 2:
        raise InsufficientData("uniformity needs at least two interactions")
    un = normalize_rows(table.user_emb)
    im = normalize_rows(table.item_emb)
    lu = _weighted_potential_mean(un, interactions.user_pop, interactions.n_pairs)
    li = _weighted_potential_mean(im, interactions.item_pop, interactions.n_pairs)
    return lu, li, (lu + li) / 2.0


def geometry_report(table: EmbeddingTable, interactions: InteractionSet) -> GeometryReport:
    lu, li, combined = measure_uniformity(table, interactions)
    return GeometryReport(
        l_align=measure_alignment(table, interactions),
        l_uniform=combined,
        l_uniform_user=lu,
        l_uniform_item=li,
    )


@dataclass
class HarnessResult:
    """Monte Carlo estimates from the ranking-loss lower-bound harness."""

    measured_bpr: float
    bound: float
    measured_se: float
    bound_se: float


def sphere_sample(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points approximately uniform on the unit sphere in d dimensions."""
    return normalize_rows(rng.standard_normal((n, d)))


def bpr_bound_harness(
    d: int,
    n_samples: int,
    rng: np.random.Generator,
    perturbation: str | None = None,
) -> HarnessResult:
    """Compare cosine-score pairwise ranking loss against its lower bound.

    Constructs a configuration of positive pairs (by default perfectly
    aligned: item point = user point, users near-uniform on the sphere),
    estimates the ranking loss with negatives drawn from the item cloud,
    and estimates the bound -1 + E log(e + e^{x.y}) over independent
    uniform sphere pairs. For the aligned near-uniform configuration both
    estimates agree up to Monte Carlo error; breaking alignment
    ('antipodal': item = -user) or uniformity ('collapse': one point)
    pushes the measured loss strictly above the bound.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")

    if perturbation in (None, "none"):
        users = sphere_sample(rng, n_samples, d)
        items = users
    elif perturbation == "antipodal":
        users = sphere_sample(rng, n_samples, d)
        items = -users
    elif perturbation == "collapse":
        point = sphere_sample(rng, 1, d)
        users = np.tile(point, (n_samples, 1))
        items = users
    else:
        raise ValueError(f"unknown perturbation {perturbation!r}")

    negatives = items[rng.integers(0, n_samples, size=n_samples)]
    delta = np.sum(users * items, axis=1) - np.sum(users * negatives, axis=1)
    per_sample = softplus(-delta)
    measured = float(per_sample.mean())
    measured_se = float(per_sample.std(ddof=1) / np.sqrt(n_samples))

    x = sphere_sample(rng, n_samples, d)
    y = sphere_sample(rng, n_samples, d)
    logs = np.logaddexp(1.0, np.sum(x * y, axis=1))
    bound = -1.0 + float(logs.mean())
    bound_se = float(logs.std(ddof=1) / np.sqrt(n_samples))
    return HarnessResult(measured, bound, measured_se, bound_se)
