"""Shared test utilities: oracles and synthetic data builders."""

import csv
from collections import Counter
from dataclasses import dataclass
from math import floor
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from directau import (
    EmbeddingTable,
    InteractionSet,
    adam_step,
    bpr_loss,
    direct_au_loss,
    sample_negatives,
)
from directau.data import BLOCK_BUDGET, DatasetSplit, UserIndex
from directau.encoders import _unit_rows, normalize_rows
from directau.errors import (
    ConfigError,
    DataError,
    DivergedGradient,
    EmptyAfterFiltering,
    EmptyInput,
    InsufficientBatch,
    MalformedLine,
    NoNegativeAvailable,
    NothingToEvaluate,
)
from directau.evaluation import RankingMetrics
from directau.losses import (
    UNIFORMITY_SCALE,
    _align,
    _chain,
    _uniformity,
    _unit_pairs,
)
from directau.rng import substream
from directau.training import TRACE_COLUMNS, EpochTrace, _batch_loss_and_grads


def softplus(x):
    """log(1 + e^x), stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def naive_bpr_loss(u, pos, neg):
    """The ranking loss from a separate softplus and a masked two-branch
    sigmoid, each with its own exponential: (value, grad_u, grad_pos,
    grad_neg)."""
    delta = np.sum(u * (pos - neg), axis=1)
    x = -delta
    sigmoid = np.empty_like(x)
    up = x >= 0
    sigmoid[up] = 1.0 / (1.0 + np.exp(-x[up]))
    ex = np.exp(x[~up])
    sigmoid[~up] = ex / (1.0 + ex)
    c = (-sigmoid / u.shape[0])[:, None]
    return float(np.mean(softplus(x))), c * (pos - neg), c * u, -c * u


def scipy_adjacency(interactions):
    """Reference normalized adjacency: scipy's CSR matrix built from COO
    triples, (|U|+|I|) square, users first, with entries (u, i) and (i, u)
    1/sqrt(p(u) * p(i)) for every training pair."""
    n = interactions.n_users + interactions.n_items
    u = interactions.users
    i = interactions.items + interactions.n_users
    user_pop = np.bincount(interactions.users, minlength=interactions.n_users)
    item_pop = np.bincount(interactions.items, minlength=interactions.n_items)
    w = 1.0 / np.sqrt(user_pop[interactions.users] * item_pop[interactions.items])
    rows = np.concatenate([u, i])
    cols = np.concatenate([i, u])
    return sp.csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))


def as_scipy(prop):
    """A GraphPropagator's adjacency as a scipy CSR matrix over its arrays."""
    n = prop.adjacency.indptr.size - 1
    return sp.csr_matrix(
        (prop.weights, prop.adjacency.indices, prop.adjacency.indptr), shape=(n, n)
    )


def layer_mean(adjacency, x, n_layers):
    """Reference graph propagation: the mean of x, A x, ..., A^L x, every
    layer a full-graph product."""
    acc, cur = x.copy(), x
    for _ in range(n_layers):
        cur = adjacency @ cur
        acc += cur
    return acc / (n_layers + 1)


def naive_propagate(prop, rows=slice(None)):
    """Reference GraphPropagator.propagate: scipy products, every layer a
    fresh array, the layers before the last full, the last at `rows` only."""
    adjacency = as_scipy(prop)
    x = prop.base.emb
    acc = x[rows].copy()
    cur = x
    for _ in range(prop.n_layers - 1):
        cur = adjacency @ cur
        acc += cur[rows]
    acc += adjacency[rows] @ cur
    return acc / (prop.n_layers + 1)


def naive_backward(prop, rows, grad_rows):
    """Reference GraphPropagator.backward: scipy products, a fresh zeroed
    sum, the first layer from the row slice's transpose, every layer a
    fresh array."""
    adjacency = as_scipy(prop)
    acc = np.zeros((adjacency.shape[0], grad_rows.shape[1]))
    acc[rows] = grad_rows
    cur = adjacency[rows].T @ grad_rows
    acc += cur
    for _ in range(prop.n_layers - 1):
        cur = adjacency @ cur
        acc += cur
    return acc / (prop.n_layers + 1)


def align_loss(u_reps, i_reps):
    """Mean squared distance between normalized positive pairs; range [0, 4].
    Runs the alignment kernel of direct_au_loss: (value, grad_u, grad_i)."""
    return _align(*_unit_pairs(u_reps, i_reps))


def uniform_loss(reps):
    """log mean over distinct unordered row pairs of exp(-2 ||x_j - x_k||^2).

    Range [-8, 0]; 0 iff all normalized rows coincide. Runs the uniformity
    kernel of direct_au_loss: (value, grad).
    """
    reps = np.atleast_2d(reps)
    n = reps.shape[0]
    if n < 2:
        raise InsufficientBatch("uniformity needs at least two rows")
    xn, norms = _unit_rows(reps)
    return _uniformity(xn, norms, np.empty((n, n)))


def naive_align_loss(u_reps, i_reps):
    """Reference alignment over 2-D batches: normalizes both sides itself;
    (value, grad_u, grad_i)."""
    if u_reps.ndim != 2 or u_reps.shape != i_reps.shape:
        raise ValueError("paired batches must be 2-D with identical shapes")
    n = u_reps.shape[0]
    if n < 1:
        raise ValueError("alignment needs at least one pair")
    xn, xnorm = _unit_rows(u_reps)
    yn, ynorm = _unit_rows(i_reps)
    diff = xn - yn
    value = float(np.mean(np.sum(diff * diff, axis=1)))
    g = (2.0 / n) * diff
    return value, _chain(g, xn, xnorm), _chain(-g, yn, ynorm)


def naive_uniform_loss(reps):
    """Reference uniformity: out-of-place expressions, each step a fresh
    (n, n) array; (value, grad)."""
    reps = np.atleast_2d(reps)
    n = reps.shape[0]
    if n < 2:
        raise InsufficientBatch("uniformity needs at least two rows")
    xn, norms = _unit_rows(reps)
    gram = xn @ xn.T
    d2 = np.clip(2.0 - 2.0 * gram, 0.0, None)
    logits = -UNIFORMITY_SCALE * d2
    np.fill_diagonal(logits, -np.inf)
    m = float(np.max(logits))
    weights = np.exp(logits - m)  # exp(-inf - m) = 0 on the diagonal
    total = weights.sum() / 2.0  # symmetric, unordered pairs counted once
    n_pairs = n * (n - 1) / 2.0
    value = m + float(np.log(total / n_pairs))
    row_sum = weights.sum(axis=1, keepdims=True)
    g = (-2.0 * UNIFORMITY_SCALE / total) * (xn * row_sum - weights @ xn)
    return value, _chain(g, xn, norms)


def naive_direct_au_loss(u_reps, i_reps, gamma):
    """Reference DirectAU: three separate losses, each side normalized
    twice; (value, grad_u, grad_i)."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    a_value, a_user, a_item = naive_align_loss(u_reps, i_reps)
    uu_value, uu_grad = naive_uniform_loss(u_reps)
    ui_value, ui_grad = naive_uniform_loss(i_reps)
    return (
        a_value + gamma * (uu_value + ui_value) / 2.0,
        a_user + (gamma / 2.0) * uu_grad,
        a_item + (gamma / 2.0) * ui_grad,
    )


def naive_key_pairs(path, delimiter):
    """Reference interaction parser: (user key, item key) of every line, in
    file order, from a generator; MalformedLine, EmptyInput and DataError
    (not UTF-8) as the library raises them."""
    path = Path(path)
    found = False
    with path.open("r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.removeprefix("\ufeff") if lineno == 1 else line
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
                found = True
                yield user_key, item_key
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
    if not found:
        raise EmptyInput(f"no interactions in {path}")


def naive_load_interactions(path, delimiter="\t"):
    """Reference interned columns, as load_interactions returns them: each
    line's user and item code, and the distinct keys by code, numbered in
    order of first appearance by a dict."""
    users, items, user_ids, item_ids = [], [], {}, {}
    for u, i in naive_key_pairs(path, delimiter):
        users.append(user_ids.setdefault(u, len(user_ids)))
        items.append(item_ids.setdefault(i, len(item_ids)))
    users, items = np.array(users, dtype=np.int64), np.array(items, dtype=np.int64)
    return users, items, list(user_ids), list(item_ids)


def naive_read_id_pairs(path, delimiter="\t", n_users=None, n_items=None):
    """Reference integer-ID reader: int() on every key, then from_pairs on
    Python lists."""
    keys = list(naive_key_pairs(path, delimiter))
    try:
        users = [int(u) for u, _ in keys]
        items = [int(i) for _, i in keys]
    except ValueError as exc:
        raise DataError(f"{path}: expected integer IDs ({exc})") from exc
    return InteractionSet.from_pairs(users, items, n_users, n_items)


def naive_write_interactions(data, path):
    """Reference clean-file writer: one f-string line per pair, written
    line by line in text mode."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for u, i in zip(data.users.tolist(), data.items.tolist()):
            fh.write(f"{u}\t{i}\n")


def naive_split_labels(data, ratios=(0.8, 0.1, 0.1), seed=0):
    """Reference per-user split: one permutation per user, in user order,
    from the split substream, each user's parts labelled in the loop; the
    ratio check comes after that user's draw. The part of every source
    pair: 0 train, 1 validation, 2 test."""
    rng = substream(seed, "split")
    by_user = UserIndex.build(data.users, np.arange(data.n_pairs, dtype=np.int64), data.n_users)
    bounds = by_user.indptr.tolist()
    part = np.zeros(data.n_pairs, dtype=np.int8)
    for u in range(data.n_users):
        idx = by_user.indices[bounds[u] : bounds[u + 1]]
        p = idx.size
        shuffled = idx[rng.permutation(p)]
        n_val = floor(ratios[1] * p)
        n_test = floor(ratios[2] * p)
        # shares a test passes may leave a user without a training pair
        if p and n_val + n_test >= p:
            raise DataError(f"ratios {ratios} leave user {u} without training pairs")
        part[shuffled[:n_val]] = 1
        part[shuffled[n_val : n_val + n_test]] = 2
    return part


def naive_split(data, ratios=(0.8, 0.1, 0.1), seed=0):
    """naive_split_labels' parts as a DatasetSplit: the training pairs in
    source order, and each part's UserIndex built from its pairs."""
    tr, va, te = (np.flatnonzero(naive_split_labels(data, ratios, seed) == k) for k in range(3))
    return DatasetSplit(
        train=InteractionSet.from_pairs(data.users[tr], data.items[tr], data.n_users, data.n_items),
        train_index=UserIndex.build(data.users[tr], data.items[tr], data.n_users),
        validation=UserIndex.build(data.users[va], data.items[va], data.n_users),
        test=UserIndex.build(data.users[te], data.items[te], data.n_users),
    )


def naive_read_config_file(path):
    """Reference config reader: flat key=value lines, blank lines and '#'
    comments allowed."""
    raw = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removeprefix("\ufeff") if lineno == 1 else line
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            raw[key.strip()] = val.strip()
    return raw


def gather_adam_step(state, params, rows, grads):
    """Reference lazy Adam step: gathers the listed rows, updates them
    out of place and scatters them back, for any row order."""
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if rows.size == 0:
        return params
    if np.unique(rows).size != rows.size:
        raise ValueError("duplicate rows in one adam_step call; pre-accumulate instead")
    if not np.all(np.isfinite(grads)):
        raise DivergedGradient("non-finite gradient entries")
    b1, b2, eps = 0.9, 0.999, 1e-8
    g = grads
    if state.weight_decay > 0.0:
        g = g + state.weight_decay * params[rows]
    state.step[rows] += 1
    t = state.step[rows][:, None].astype(np.float64)
    state.m[rows] = b1 * state.m[rows] + (1.0 - b1) * g
    state.v[rows] = b2 * state.v[rows] + (1.0 - b2) * g * g
    m_hat = state.m[rows] / (1.0 - b1**t)
    v_hat = state.v[rows] / (1.0 - b2**t)
    params[rows] -= state.lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def train_step(sel, table, propagator, state, split, cfg, neg_rng):
    """One step of _epochs' batch loop on the training pairs at positions
    `sel` of split.train; returns the batch loss."""
    value, rows, grads = _batch_loss_and_grads(
        split.train.users[sel], split.train.items[sel],
        table, propagator, split, cfg, neg_rng,
    )
    adam_step(state, table.emb, rows, grads)
    return value


def two_matrix_step(sel, user, item, user_state, item_state, split, cfg, neg_rng,
                    adjacency=None):
    """Reference training step, on the training pairs at positions `sel`
    of split.train, on separate user and item matrices.

    Each matrix has its own AdamState and takes its own gather_adam_step;
    batch gradients are scattered per matrix, and with an adjacency (the
    graph encoder, cfg.layers layers) the two halves are stacked to
    propagate over the full graph and split again. Updates user, item and
    both states in place and returns the batch loss.
    """
    nu = user.shape[0]
    if adjacency is None:
        out_user, out_item = user, item
    else:
        out = layer_mean(adjacency, np.vstack([user, item]), cfg.layers)
        out_user, out_item = out[:nu], out[nu:]
    bu, bi = split.train.users[sel], split.train.items[sel]
    u_reps, i_reps = out_user[bu], out_item[bi]

    negs = None
    if cfg.objective == "direct_au":
        value, grad = direct_au_loss(u_reps, i_reps, cfg.gamma)
    else:
        strategy = "dynamic" if cfg.objective == "bpr_ds" else "uniform"
        scoring = EmbeddingTable.from_parts(out_user, out_item)
        negs = sample_negatives(
            split, bu, strategy, table=scoring, candidates=cfg.ds_candidates, rng=neg_rng
        )
        value, grad = bpr_loss(u_reps, i_reps, out_item[negs])

    # the gradient stacks the users' rows, then the items' in item_ids' order
    item_ids = bi if negs is None else np.concatenate([bi, negs])
    user_grads, item_grads = grad[: bu.size], grad[bu.size :]
    if adjacency is None:
        rows_u, inv_u = np.unique(bu, return_inverse=True)
        grad_u = np.zeros((rows_u.size, user.shape[1]))
        np.add.at(grad_u, inv_u, user_grads)
        rows_i, inv_i = np.unique(item_ids, return_inverse=True)
        grad_i = np.zeros((rows_i.size, item.shape[1]))
        np.add.at(grad_i, inv_i, item_grads)
    else:
        g_user = np.zeros_like(user)
        g_item = np.zeros_like(item)
        np.add.at(g_user, bu, user_grads)
        np.add.at(g_item, item_ids, item_grads)
        g = layer_mean(adjacency, np.vstack([g_user, g_item]), cfg.layers)
        rows_u, grad_u = np.arange(nu), g[:nu]
        rows_i, grad_i = np.arange(item.shape[0]), g[nu:]
    gather_adam_step(user_state, user, rows_u, grad_u)
    gather_adam_step(item_state, item, rows_i, grad_i)
    return value


def per_user_negatives(split, users, strategy, table=None, candidates=32, rng=None):
    """Reference sampler: one user at a time, each draw rejection-sampled
    against the user's training items on its own; 'dynamic' picks from its
    candidate pool with the normalized softmax and rng.choice."""
    n_items = split.train.n_items
    bounds, items = split.train_index.indptr, split.train_index.indices
    out = np.empty(len(users), dtype=np.int64)
    for k, u in enumerate(np.asarray(users).tolist()):
        interacted = frozenset(items[bounds[u] : bounds[u + 1]].tolist())

        def draw():
            while True:
                j = int(rng.integers(0, n_items))
                if j not in interacted:
                    return j

        if strategy == "uniform":
            out[k] = draw()
            continue
        cands = np.array([draw() for _ in range(candidates)], dtype=np.int64)
        scores = table.item_emb[cands] @ table.user_emb[u]
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        out[k] = int(rng.choice(cands, p=probs))
    return out


def naive_contains(index, users, values, width):
    """Reference membership test: a binary search over the keys
    row * width + value of the whole index, rebuilt on every call."""
    n_rows = index.indptr.size - 1
    rows = np.repeat(np.arange(n_rows), np.diff(index.indptr))
    keys = np.append(rows * width + index.indices, n_rows * width)
    queries = np.asarray(users, dtype=np.int64) * width + np.asarray(values, dtype=np.int64)
    return keys[np.searchsorted(keys, queries)] == queries


def naive_sample_negatives(split, users, strategy, table=None, candidates=32, *, rng):
    """Reference bulk sampler: every slot drawn at once, each round testing
    the slots still to redraw with naive_contains, and the 'dynamic' pool
    scored by one einsum over all of its gathered rows before the
    Gumbel-max pick. The error checks are sample_negatives' own."""
    n_items = split.train.n_items
    index = split.train_index
    users = np.asarray(users, dtype=np.int64)
    if (np.diff(index.indptr)[users] >= n_items).any():
        raise NoNegativeAvailable("a user interacted with every item")
    owners = np.repeat(users, 1 if strategy == "uniform" else candidates)
    drawn = np.empty(owners.size, dtype=np.int64)
    todo = np.arange(owners.size)
    while todo.size:
        drawn[todo] = rng.integers(0, n_items, size=todo.size)
        todo = todo[naive_contains(index, owners[todo], drawn[todo], n_items)]
    if strategy == "uniform":
        return drawn
    pool = drawn.reshape(users.size, candidates)
    scores = np.einsum("bd,bcd->bc", table.user_emb[users], table.item_emb[pool])
    pick = np.argmax(scores + rng.gumbel(size=scores.shape), axis=1)
    return pool[np.arange(users.size), pick]


def finite_difference_gradients(fn, arrays, h=1e-5):
    """Central-difference gradients of a scalar function of several arrays."""
    grads = [np.zeros_like(a) for a in arrays]
    for ai, a in enumerate(arrays):
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = a[idx]
            a[idx] = orig + h
            fp = fn(*arrays)
            a[idx] = orig - h
            fm = fn(*arrays)
            a[idx] = orig
            grads[ai][idx] = (fp - fm) / (2.0 * h)
    return grads


def relative_gradient_error(analytic, numeric):
    """Max elementwise |a - n| / max(1, |n|)."""
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))))


def two_cluster_dataset(n_users=200, n_items=100, per_user=10):
    """Two disjoint user/item blocks with learnable within-block structure.

    Inside each block, user j interacts with a contiguous window of
    per_user items starting at its offset (mod the block size); the second
    half of each block's users take stride-2 windows so no two users have
    identical histories. Held-out items are therefore predictable from the
    window overlap, unlike uniform within-block sampling.
    """
    users, items = [], []
    half_u, half_i = n_users // 2, n_items // 2
    for u in range(n_users):
        block = 0 if u < half_u else 1
        j = u - block * half_u
        base = block * half_i
        off = j % half_i
        stride = 2 if j >= half_i else 1
        for t in range(per_user):
            users.append(u)
            items.append(base + (off + stride * t) % half_i)
    return InteractionSet.from_pairs(users, items, n_users, n_items)


def naive_uniformity(table, inter):
    """Literal O(|R|^2) double loop over ordered pairs of distinct interactions."""
    un = normalize_rows(table.user_emb)
    im = normalize_rows(table.item_emb)
    n = inter.n_pairs
    sum_user = sum_item = 0.0
    for a in range(n):
        du = un[inter.users[a]] - un[inter.users]
        di = im[inter.items[a]] - im[inter.items]
        wu = np.exp(-2.0 * np.sum(du * du, axis=1))
        wi = np.exp(-2.0 * np.sum(di * di, axis=1))
        wu[a] = 0.0
        wi[a] = 0.0
        sum_user += wu.sum()
        sum_item += wi.sum()
    lu = float(np.log(sum_user / (n * (n - 1))))
    li = float(np.log(sum_item / (n * (n - 1))))
    return lu, li, (lu + li) / 2.0


def blocked_potential_mean(xn, pop, n_pairs):
    """log of the popularity-weighted Gaussian-potential mean for one side,
    with each gram row block taken against every column, so that each
    distinct pair is weighted twice (the oracle for the strips of
    evaluation._weighted_potential_mean).

    Sums p(a) p(b) exp(-2 ||x_a - x_b||^2) over distinct entity pairs,
    adds sum_a p(a)(p(a) - 1) for same-entity distinct interactions (the
    exact diagonal correction, computed in integers so no cancellation),
    and normalizes by |R| (|R| - 1). Gram row blocks of at most
    BLOCK_BUDGET bytes set the summation grouping.
    """
    p = pop.astype(np.float64)
    n = xn.shape[0]
    n_rows = max(1, BLOCK_BUDGET // (8 * n))
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


def naive_alignment(table, inter):
    """Direct per-pair summation of squared normalized distances."""
    un = normalize_rows(table.user_emb)
    im = normalize_rows(table.item_emb)
    total = 0.0
    for u, i in zip(inter.users.tolist(), inter.items.tolist()):
        diff = un[u] - im[i]
        total += float(diff @ diff)
    return total / inter.n_pairs


def naive_preprocess(user_keys, item_keys, k_core=5):
    """Reference preprocess on the key strings themselves: set dedup,
    Counter rounds of k-core filtering, dict remap in first-seen order.
    Returns the pairs and the user and item keys by ID, as preprocess does."""
    if not user_keys:
        raise EmptyInput("no interactions to preprocess")
    if k_core < 1:
        raise ValueError(f"k_core must be >= 1, got {k_core}")

    seen = set()
    pairs = []
    for key in zip(user_keys, item_keys):
        if key not in seen:
            seen.add(key)
            pairs.append(key)

    while True:
        user_cnt = Counter(u for u, _ in pairs)
        item_cnt = Counter(i for _, i in pairs)
        bad_users = {u for u, c in user_cnt.items() if c < k_core}
        bad_items = {i for i, c in item_cnt.items() if c < k_core}
        if not bad_users and not bad_items:
            break
        pairs = [(u, i) for u, i in pairs if u not in bad_users and i not in bad_items]
        if not pairs:
            raise EmptyAfterFiltering(f"no interactions survive {k_core}-core filtering")

    user_ids = {}
    item_ids = {}
    users = np.empty(len(pairs), dtype=np.int64)
    items = np.empty(len(pairs), dtype=np.int64)
    for k, (u, i) in enumerate(pairs):
        users[k] = user_ids.setdefault(u, len(user_ids))
        items[k] = item_ids.setdefault(i, len(item_ids))

    out = InteractionSet.from_pairs(users, items, len(user_ids), len(item_ids))
    out.validate()
    return out, tuple(user_ids), tuple(item_ids)


def random_interaction_set(rng, max_users=8, max_items=9, max_pairs=60):
    """A random small InteractionSet with distinct pairs."""
    nu = int(rng.integers(2, max_users))
    ni = int(rng.integers(2, max_items))
    n_pairs = int(rng.integers(2, min(max_pairs, nu * ni) + 1))
    grid = [(u, i) for u in range(nu) for i in range(ni)]
    sel = rng.choice(len(grid), size=n_pairs, replace=False)
    users = np.array([grid[s][0] for s in sel], dtype=np.int64)
    items = np.array([grid[s][1] for s in sel], dtype=np.int64)
    return InteractionSet.from_pairs(users, items, nu, ni)


def _items_by_user(pairs, n_users):
    """Per-user item arrays of a (k, 2) pair array, input order kept."""
    out = [np.empty(0, dtype=np.int64) for _ in range(n_users)]
    for u in np.unique(pairs[:, 0]).tolist():
        out[u] = pairs[pairs[:, 0] == u, 1]
    return out


def naive_rank_eval(table, split, target="validation", ks=(10, 20, 50)):
    """Reference full ranking: a stable argsort of every user's whole score
    row in blocks of 1024 users, and per-user membership tests."""
    index = split.validation if target == "validation" else split.test
    if index.nnz == 0:
        raise NothingToEvaluate(f"{target} split is empty")
    n_users, n_items = table.n_users, table.n_items
    bounds = index.indptr.tolist()
    targets_by_user = [index.indices[bounds[u] : bounds[u + 1]] for u in range(n_users)]
    train_by_user = _items_by_user(
        np.column_stack([split.train.users, split.train.items]), n_users
    )
    eval_users = [u for u in range(n_users) if targets_by_user[u].size > 0]

    ks = tuple(sorted(set(int(k) for k in ks)))
    kmax = min(max(ks), n_items)
    discounts = 1.0 / np.log2(np.arange(1, kmax + 1) + 1.0)
    idcg_prefix = np.concatenate([[0.0], np.cumsum(discounts)])

    recall_sum = {k: 0.0 for k in ks}
    ndcg_sum = {k: 0.0 for k in ks}
    for start in range(0, len(eval_users), 1024):
        chunk = eval_users[start : start + 1024]
        scores = table.user_emb[chunk] @ table.item_emb.T
        for r, u in enumerate(chunk):
            scores[r, train_by_user[u]] = -np.inf
        # stable sort of -scores: equal scores keep ascending item-ID order
        top = np.argsort(-scores, axis=1, kind="stable")[:, :kmax]
        for r, u in enumerate(chunk):
            tgt = targets_by_user[u]
            is_hit = np.isin(top[r], tgt) & (scores[r, top[r]] != -np.inf)
            hit_disc = np.where(is_hit, discounts, 0.0)
            for k in ks:
                kk = min(k, kmax)
                n_hits = int(is_hit[:kk].sum())
                recall_sum[k] += n_hits / tgt.size
                idcg = idcg_prefix[min(k, tgt.size)]
                ndcg_sum[k] += float(hit_disc[:kk].sum()) / idcg
    n_eval = len(eval_users)
    return RankingMetrics(
        recall_at={k: recall_sum[k] / n_eval for k in ks},
        ndcg_at={k: ndcg_sum[k] / n_eval for k in ks},
        n_users_evaluated=n_eval,
    )


def read_trace(path):
    """trace.csv rows as EpochTrace records (the inverse of emit_trace, up
    to its 9 significant digits)."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        return [
            EpochTrace(
                epoch=int(row["epoch"]),
                **{col: float(row[col]) for col in TRACE_COLUMNS[1:]},
            )
            for row in csv.DictReader(fh)
        ]


@dataclass
class HarnessResult:
    """Monte Carlo estimates from the ranking-loss lower-bound harness."""

    measured_bpr: float
    bound: float
    measured_se: float
    bound_se: float


def sphere_sample(rng, n, d):
    """n points approximately uniform on the unit sphere in d dimensions."""
    return normalize_rows(rng.standard_normal((n, d)))


def bpr_bound_harness(d, n_samples, rng, perturbation=None):
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
