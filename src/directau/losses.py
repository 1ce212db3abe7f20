"""Training objectives: values plus analytic gradients w.r.t. raw inputs.

Each loss returns (value, grad): grad is one fresh C-contiguous float64
array, the gradients w.r.t. its arguments' *raw* (pre-normalization) rows
stacked in argument order; normalization is part of each loss, chained
through the Jacobian d(x/||x||)/dx = (I - x_n x_n^T) / ||x||.

Numerical conventions: BPR's -log(sigmoid(x)) and its gradient both come
from one exp(-|x|), which cannot overflow; log-mean-exp uses
max-subtraction. DirectAU normalizes each side once and runs both
in-batch uniformities in one B x B buffer, as exp(min(2t x.y - 2t, 0)).
"""

from __future__ import annotations

import numpy as np

from .data import CACHE_BUDGET, DatasetSplit
from .encoders import EmbeddingTable, _unit_rows
from .errors import InsufficientBatch, NoNegativeAvailable


# scale t of the pairwise Gaussian potential exp(-t * dist^2)
UNIFORMITY_SCALE = 2.0


def _chain(grad_xn: np.ndarray, xn: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. unit rows back to the raw rows."""
    radial = np.sum(grad_xn * xn, axis=1, keepdims=True)
    return (grad_xn - radial * xn) / norms


def _unit_pairs(u_reps: np.ndarray, i_reps: np.ndarray) -> tuple[np.ndarray, ...]:
    """(xn, xnorm, yn, ynorm): both sides of a paired batch as unit rows and
    norms, checked to align."""
    if u_reps.ndim != 2 or u_reps.shape != i_reps.shape:
        raise ValueError("paired batches must be 2-D with identical shapes")
    if u_reps.shape[0] < 1:
        raise ValueError("alignment needs at least one pair")
    return *_unit_rows(u_reps), *_unit_rows(i_reps)


def _align(xn: np.ndarray, xnorm: np.ndarray, yn: np.ndarray, ynorm: np.ndarray) -> tuple:
    """(value, grad_x, grad_y) of the alignment of unit rows xn and yn."""
    n = xn.shape[0]
    diff = xn - yn
    value = float(np.mean(np.sum(diff * diff, axis=1)))
    g = (2.0 / n) * diff
    return value, _chain(g, xn, xnorm), _chain(-g, yn, ynorm)


def _uniformity(xn: np.ndarray, norms: np.ndarray, buf: np.ndarray) -> tuple[float, np.ndarray]:
    """Uniformity value of the unit rows `xn` and its gradient w.r.t. the
    raw rows, computed in the (n, n) buffer `buf`, which is overwritten.

    On unit rows the logits -t ||x - y||^2 are min(2t x.y - 2t, 0), from
    rows scaled by sqrt(2t) = 2; that scale is exact, so the bits are those
    of -t * clip(2 - 2 x.y, 0, None), but for a capped logit's signed zero.
    """
    n = xn.shape[0]
    x2 = xn * np.sqrt(2.0 * UNIFORMITY_SCALE)
    # numpy runs the x2 @ x2.T form as one symmetric rank-k update; a gemm
    # on a copy of x2.T differs in the last bits
    np.matmul(x2, x2.T, out=buf)
    buf -= 2.0 * UNIFORMITY_SCALE
    np.minimum(buf, 0.0, out=buf)
    np.fill_diagonal(buf, -np.inf)
    m = float(np.max(buf))
    buf -= m
    weights = np.exp(buf, out=buf)  # exp(-inf - m) = 0 on the diagonal
    total = weights.sum() / 2.0  # symmetric, unordered pairs counted once
    n_pairs = n * (n - 1) / 2.0
    value = m + float(np.log(total / n_pairs))

    # d value / d x_j = (-4 / W) * sum_k w_jk (x_j - x_k), with w_jk / W
    # computed from the max-shifted weights.
    row_sum = weights.sum(axis=1, keepdims=True)
    g = (-2.0 * UNIFORMITY_SCALE / total) * (xn * row_sum - weights @ xn)
    return value, _chain(g, xn, norms)


def direct_au_loss(u_reps: np.ndarray, i_reps: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """Alignment plus gamma-weighted mean of the two in-batch uniformities.

    Each side is normalized once, and both uniformities run in turn in one
    (B, B) buffer.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    xn, xnorm, yn, ynorm = _unit_pairs(u_reps, i_reps)
    a_value, grad_u, grad_i = _align(xn, xnorm, yn, ynorm)
    n = xn.shape[0]
    if n < 2:
        raise InsufficientBatch("uniformity needs at least two rows")
    buf = np.empty((n, n))
    uu_value, uu_grad = _uniformity(xn, xnorm, buf)
    ui_value, ui_grad = _uniformity(yn, ynorm, buf)
    grad = np.empty((2 * n, xn.shape[1]))
    np.add(grad_u, (gamma / 2.0) * uu_grad, out=grad[:n])
    np.add(grad_i, (gamma / 2.0) * ui_grad, out=grad[n:])
    return a_value + gamma * (uu_value + ui_value) / 2.0, grad


def bpr_loss(
    u_reps: np.ndarray, i_pos_reps: np.ndarray, i_neg_reps: np.ndarray
) -> tuple[float, np.ndarray]:
    """Pairwise ranking loss: mean of -log sigmoid(s(u,i) - s(u,i-)) with
    raw dot-product scores s, over 2-D batches of one shape."""
    if not (u_reps.ndim == 2 and u_reps.shape == i_pos_reps.shape == i_neg_reps.shape):
        raise ValueError("user, positive, and negative batches must be 2-D and align")
    n = u_reps.shape[0]
    # a diverged run's scores overflow here; adam_step reports its non-finite gradient
    with np.errstate(over="ignore", invalid="ignore"):
        gap = i_pos_reps - i_neg_reps
        delta = np.sum(u_reps * gap, axis=1)
        e = np.exp(-np.abs(delta))
        value = float(np.mean(np.maximum(-delta, 0.0) + np.log1p(e)))
        # sigmoid(-delta) is 1 / (1 + e) where delta <= 0, else e / (1 + e)
        c = (-np.where(delta > 0, e, 1.0) / (1.0 + e) / n)[:, None]
        grad = np.empty((3 * n, u_reps.shape[1]))
        np.multiply(c, gap, out=grad[:n])
        np.multiply(c, u_reps, out=grad[n : 2 * n])
        np.multiply(-c, u_reps, out=grad[2 * n :])
    return value, grad


def sample_negatives(
    split: DatasetSplit, users: np.ndarray, strategy: str, table: EmbeddingTable | None = None,
    candidates: int = 32, *, rng: np.random.Generator,
) -> np.ndarray:
    """One negative item per user, drawn outside the user's training items.

    Every slot is drawn at once and only slots hitting a training item are
    redrawn. 'uniform' returns the draws; 'dynamic' draws `candidates` per
    user and picks one by the softmax of their dot scores (harder negatives
    more likely).
    """
    if strategy not in ("uniform", "dynamic"):
        raise ValueError(f"unknown negative-sampling strategy {strategy!r}")
    if strategy == "dynamic" and table is None:
        raise ValueError("dynamic sampling needs an embedding table for scoring")
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")

    n_items = split.train.n_items
    index = split.train_index
    users = np.asarray(users, dtype=np.int64)
    full = np.diff(index.indptr)[users] >= n_items
    if full.any():
        raise NoNegativeAvailable(f"user {users[full][0]} interacted with every item")

    per_user = 1 if strategy == "uniform" else candidates
    drawn = rng.integers(0, n_items, size=users.size * per_user)
    pool = drawn.reshape(users.size, per_user)
    # redraw rounds run in ascending slot order and test only the redrawn slots
    todo = np.flatnonzero(index.contains(users[:, None], pool, n_items))
    while todo.size:
        drawn[todo] = rng.integers(0, n_items, size=todo.size)
        todo = todo[index.contains(users[todo // per_user], drawn[todo], n_items)]
    if strategy == "uniform":
        return drawn

    scores = np.empty(pool.shape)
    n_rows = max(1, CACHE_BUDGET // (candidates * table.d * 8))
    for start in range(0, users.size, n_rows):
        block = slice(start, start + n_rows)
        np.einsum("bd,bcd->bc", table.user_emb[users[block]], table.item_emb[pool[block]],
                  out=scores[block])
    # Gumbel-max: argmax of the scores plus i.i.d. Gumbel noise is an exact softmax draw
    pick = np.argmax(scores + rng.gumbel(size=scores.shape), axis=1)
    return pool[np.arange(users.size), pick]
