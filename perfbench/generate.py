"""Seeded synthetic interaction logs in the raw keyed format `directau preprocess` reads.

Users and items get latent factors drawn around 40 orthonormal centroids.
Each user draws a history length from a geometric distribution with a
floor of 5, then picks that many distinct items without replacement with
probability proportional to exp(beta * <user factor, item factor>) times a
Zipf-like popularity prior. The clusters make held-out items predictable
(NDCG well above chance) while keeping every item in reach of some users,
so the 5-core filter leaves most of the catalog. Keys are opaque strings,
every line carries an integer timestamp and a few lines are repeated, so
ingestion does the same work as on a real export.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

MIN_HISTORY = 5
MEAN_HISTORY = 12.0
RANK = 40
CLUSTERS = 40
NOISE = 0.3  # spread of a factor around its centroid
BETA = 9.0  # weight of the latent affinity against the popularity prior
ZIPF = 0.6
DUPLICATE_RATE = 0.02


def generate(n_users: int, n_items: int, seed: int, path: Path) -> str:
    """Write a tab-separated `user_key item_key timestamp` log; return its SHA-256."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA]))
    # orthonormal centroids: every seed gets equally separated clusters
    centroids = np.linalg.qr(rng.standard_normal((RANK, CLUSTERS)))[0].T

    def factors(n: int) -> np.ndarray:
        noise = rng.standard_normal((n, RANK)) * (NOISE / np.sqrt(RANK))
        return centroids[rng.integers(0, CLUSTERS, n)] + noise

    user_f = factors(n_users)
    item_f = factors(n_items)
    prior = -ZIPF * np.log(rng.permutation(n_items) + 1.0)
    # geometric on {1, 2, ...} with mean m has p = 1/m; shift it onto the floor
    lengths = MIN_HISTORY - 1 + rng.geometric(1.0 / (MEAN_HISTORY - MIN_HISTORY + 1.0), n_users)
    lengths = np.minimum(lengths, n_items // 2)
    user_keys = [f"u{k:07x}" for k in rng.choice(1 << 28, n_users, replace=False)]
    item_keys = [f"i{k:07x}" for k in rng.choice(1 << 28, n_items, replace=False)]

    lines: list[str] = []
    chunk = 512
    for start in range(0, n_users, chunk):
        stop = min(start + chunk, n_users)
        # Gumbel top-k: the k largest perturbed logits are a draw of k
        # distinct items without replacement from softmax(logits)
        keys = BETA * (user_f[start:stop] @ item_f.T) + prior
        keys += rng.gumbel(size=keys.shape)
        longest = int(lengths[start:stop].max())
        top = np.argpartition(-keys, longest - 1, axis=1)[:, :longest]
        top = np.take_along_axis(top, np.argsort(-np.take_along_axis(keys, top, 1), 1), 1)
        for r, u in enumerate(range(start, stop)):
            picked = top[r, : lengths[u]]
            repeats = rng.choice(picked, rng.binomial(picked.size, DUPLICATE_RATE))
            picked = np.concatenate([picked, repeats])
            stamps = 1_600_000_000 + np.sort(rng.integers(0, 10**7, picked.size))
            for item, ts in zip(picked.tolist(), stamps.tolist()):
                lines.append(f"{user_keys[u]}\t{item_keys[item]}\t{ts}\n")
    data = "".join(lines).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()

