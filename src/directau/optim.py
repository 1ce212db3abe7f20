"""Adam with lazy, rows-touched-only updates for embedding matrices.

Each row carries its own step counter, so bias correction for a row
depends only on how often that row was actually updated (standard
practice for sparse embedding training). Weight decay is classic
L2-into-gradient, applied before the moment updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedGradient

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state of one parameter array; exclusively owned by one trainer.

    An every-row step computes its temporaries in two scratch arrays of the
    parameters' shape, allocated on the first such step.
    """

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    lr: float
    weight_decay: float = 0.0
    _scratch: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False, compare=False)

    def scratch(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._scratch:
            self._scratch = (np.empty_like(self.m), np.empty_like(self.m))
        return self._scratch

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
    Strictly ascending rows (as `np.unique` returns them) are known unique
    from one pass; other orders are checked by sorting.
    When `rows` is every row in order, the update runs on views of the
    arrays instead of gathering and scattering the rows, and its
    temporaries go to the state's scratch arrays.
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if rows.size == 0:
        return params
    ascending = bool(np.all(rows[1:] > rows[:-1]))
    if not ascending and np.unique(rows).size != rows.size:
        raise ValueError("duplicate rows in one adam_step call; pre-accumulate instead")
    every_row = (
        ascending and rows.size == len(params) and rows[0] == 0 and rows[-1] == rows.size - 1
    )
    if not np.all(np.isfinite(grads)):
        raise DivergedGradient("non-finite gradient entries")

    at = slice(None) if every_row else rows
    p, m, v, step = params[at], state.m[at], state.v[at], state.step[at]
    g = grads
    if state.weight_decay > 0.0:
        g = g + state.weight_decay * p

    # in place, in the operation order of BETA1 * m + (1 - BETA1) * g,
    # BETA2 * v + (1 - BETA2) * g * g and lr * m_hat / (sqrt(v_hat) + EPS),
    # so the results equal those out-of-place formulas bit for bit; with
    # out=None (gathered rows) each temporary is a fresh array
    tmp, v_hat = state.scratch() if every_row else (None, None)
    step += 1
    t = step[:, None].astype(np.float64)
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=tmp)
    v *= BETA2
    g2 = np.multiply(1.0 - BETA2, g, out=tmp)
    g2 *= g
    v += g2
    update = np.divide(m, 1.0 - BETA1**t, out=tmp)
    update *= state.lr
    v_hat = np.divide(v, 1.0 - BETA2**t, out=v_hat)
    np.sqrt(v_hat, out=v_hat)
    v_hat += EPS
    update /= v_hat
    p -= update
    if not every_row:
        params[rows], state.m[rows], state.v[rows], state.step[rows] = p, m, v, step
    return params
