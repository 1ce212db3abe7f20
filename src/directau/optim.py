"""Adam with lazy, rows-touched-only updates for embedding matrices.

Each row carries its own step counter, so bias correction for a row
depends only on how often that row was actually updated (standard
practice for sparse embedding training). Weight decay is classic
L2-into-gradient, applied before the moment updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergedGradient

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state of one parameter array; exclusively owned by one trainer."""

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    lr: float
    weight_decay: float = 0.0

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float, weight_decay: float = 0.0) -> "AdamState":
        if lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        return cls(
            m=np.zeros_like(params),
            v=np.zeros_like(params),
            step=np.zeros(params.shape[0], dtype=np.int64),
            lr=lr,
            weight_decay=weight_decay,
        )


def adam_step(
    state: AdamState, params: np.ndarray, rows: np.ndarray, grads: np.ndarray
) -> np.ndarray:
    """Apply one Adam update to the given rows of `params`, in place.

    `rows` must be unique (accumulate duplicate-row gradients before
    calling); rows not listed are untouched, including their moments.
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if rows.size == 0:
        return params
    if np.unique(rows).size != rows.size:
        raise ValueError("duplicate rows in one adam_step call; pre-accumulate instead")
    if not np.all(np.isfinite(grads)):
        raise DivergedGradient("non-finite gradient entries")

    g = grads
    if state.weight_decay > 0.0:
        g = g + state.weight_decay * params[rows]

    state.step[rows] += 1
    t = state.step[rows][:, None].astype(np.float64)
    state.m[rows] = BETA1 * state.m[rows] + (1.0 - BETA1) * g
    state.v[rows] = BETA2 * state.v[rows] + (1.0 - BETA2) * g * g
    m_hat = state.m[rows] / (1.0 - BETA1**t)
    v_hat = state.v[rows] / (1.0 - BETA2**t)
    params[rows] -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params
