"""Full-ranking top-K metrics and representation-geometry measurement.

Ranking scores every item per user by raw dot product, masks the user's
training items, and breaks score ties by ascending item ID so results are
deterministic across platforms.

The uniformity metric over an interaction multiset is computed exactly by
popularity weighting: summing p(u) p(u') times the Gaussian potential over
all ordered entity pairs equals the sum over all ordered interaction pairs;
subtracting the |R| identical-interaction self-pairs (each contributing
exp(0) = 1) and dividing by |R| (|R| - 1) yields the mean over ordered
pairs of distinct interactions. The potential is symmetric, so the gram is
taken in upper-triangle strips and the off-diagonal sum doubled, about
half of O(|U|^2 d + |I|^2 d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BLOCK_BUDGET as _SCORE_BUDGET
from .data import DatasetSplit, InteractionSet
from .encoders import EmbeddingTable, normalize_rows
from .errors import DegenerateEmbedding, InsufficientData, NothingToEvaluate
from .losses import UNIFORMITY_SCALE


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
    targets = split.validation if target == "validation" else split.test
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


def _weighted_potential_mean(xn: np.ndarray, pop: np.ndarray, n_pairs: int) -> float:
    """log of the popularity-weighted Gaussian-potential mean for one side.

    Sums p(a) p(b) exp(-2 ||x_a - x_b||^2) over distinct entity pairs,
    adds sum_a p(a)(p(a) - 1) for same-entity distinct interactions (the
    exact diagonal correction, computed in integers so no cancellation),
    and normalizes by |R| (|R| - 1). The potential is symmetric, so row
    block [start, stop) of at most _SCORE_BUDGET bytes takes the gram only
    against columns start: (an upper-triangle strip): its diagonal square,
    diagonal zeroed, counts once and the rest of the strip twice, about
    half the full gram's work. Scaling the block's rows by the power of two
    2 * UNIFORMITY_SCALE before the product is exact, so the exponent
    4 x.y - 4 has the bits of 4 (x.y - 1).
    """
    p = pop.astype(np.float64)
    n = xn.shape[0]
    n_rows = max(1, _SCORE_BUDGET // (8 * n))
    gram_buf = np.empty(min(n_rows, n) * n)
    off_diag = 0.0
    for start in range(0, n, n_rows):
        stop = min(start + n_rows, n)
        r = stop - start
        pot = gram_buf[: r * (n - start)].reshape(r, n - start)
        np.matmul(xn[start:stop] * (2.0 * UNIFORMITY_SCALE), xn[start:].T, out=pot)
        pot -= 2.0 * UNIFORMITY_SCALE
        np.exp(pot, out=pot)
        np.fill_diagonal(pot, 0.0)
        q = p[start:stop] @ pot
        off_diag += float(q[:r] @ p[start:stop]) + 2.0 * float(q[r:] @ p[stop:])
    same_entity = float(np.sum(pop.astype(np.int64) * (pop.astype(np.int64) - 1)))
    return float(np.log((off_diag + same_entity) / (n_pairs * (n_pairs - 1))))


def geometry_report(table: EmbeddingTable, interactions: InteractionSet) -> GeometryReport:
    """Alignment and uniformity of the normalized rows over `interactions`,
    each side normalized once.

    Uniformity is the log Gaussian-potential mean per side (and their
    mean), equal to the O(|R|^2) mean over ordered pairs of distinct
    interactions through the popularity-weighted form. Alignment is the
    mean squared distance over all pairs in R, whose differences are taken
    in row blocks of at most _SCORE_BUDGET bytes; each pair's squared
    distance is one row sum, so the blocks do not change it, and the mean
    runs once over all of them.
    """
    if interactions.n_pairs < 2:
        raise InsufficientData("uniformity needs at least two interactions")
    un = normalize_rows(table.user_emb)
    im = normalize_rows(table.item_emb)
    lu = _weighted_potential_mean(un, interactions.user_pop, interactions.n_pairs)
    li = _weighted_potential_mean(im, interactions.item_pop, interactions.n_pairs)

    users, items = interactions.users, interactions.items
    per_pair = np.empty(users.size)
    n_rows = max(1, _SCORE_BUDGET // (8 * table.d))
    for start in range(0, users.size, n_rows):
        block = slice(start, start + n_rows)
        diff = un[users[block]]
        diff -= im[items[block]]
        diff *= diff
        np.sum(diff, axis=1, out=per_pair[block])
    return GeometryReport(
        l_align=float(np.mean(per_pair)),
        l_uniform=(lu + li) / 2.0,
        l_uniform_user=lu,
        l_uniform_item=li,
    )
