"""Named, independent random substreams derived from one master seed.

Every consumer of randomness (embedding init, dataset split, per-epoch
shuffling, negative sampling) draws from its own substream, so adding or
reordering draws in one consumer never perturbs the others.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Generator for the substream `name` (plus optional indices, e.g. epoch).

    The name is folded into the seed material via a stable hash, so the
    mapping is identical across platforms and interpreter runs.
    """
    import hashlib  # here, so that preprocess does not load OpenSSL

    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    tag = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
    entropy = [seed, tag, *(int(e) for e in extra)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
