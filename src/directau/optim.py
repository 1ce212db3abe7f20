"""Adam with lazy, rows-touched-only updates for embedding matrices.

Each row carries its own step counter, so bias correction for a row
depends only on how often that row was actually updated (standard
practice for sparse embedding training). Weight decay is classic
L2-into-gradient, applied before the moment updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import DivergedGradient

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Optimizer state of one parameter array; exclusively owned by one trainer.

    A step computes its temporaries in the flat float64 `scratch`: an
    every-row step in two arrays of the parameters' shape, a gathered-rows
    step in five arrays of its rows. `scratch` is replaced only when a step
    needs more room, and then by one of at least twice its size, so a run
    touches fresh pages a few times, not at each new largest step.
    """

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    lr: float
    weight_decay: float = 0.0
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False, compare=False)

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

    def _take(self, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous `shape` view of the front of `scratch`."""
        size = prod(shape)
        if self.scratch.size < size:
            self.scratch = np.empty(max(size, 2 * self.scratch.size))
        return self.scratch[:size].reshape(shape)


def adam_step(
    state: AdamState, params: np.ndarray, rows: np.ndarray, grads: np.ndarray
) -> np.ndarray:
    """Apply one Adam update to the given rows of `params`, in place.

    `rows` must be strictly ascending, as `np.unique` returns them
    (accumulate duplicate-row gradients before calling), and in
    [0, len(params)); any other `rows` is a ValueError that writes nothing.
    Rows not listed are untouched, including their moments. When `rows` is
    every row, the update runs on views of the arrays, with its
    temporaries in the state's scratch; otherwise the rows are gathered
    into the scratch, updated there and written back once.
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if rows.size == 0:
        return params
    if not np.all(rows[1:] > rows[:-1]):
        raise ValueError("rows must be strictly ascending, as np.unique returns them")
    if rows[0] < 0 or rows[-1] >= len(params):
        raise ValueError(f"rows must lie in [0, {len(params)})")
    # strictly ascending, in bounds and len(params) of them: every row in order
    every_row = rows.size == len(params)
    if not np.all(np.isfinite(grads)):
        raise DivergedGradient("non-finite gradient entries")

    if every_row:
        p, m, v, step = params, state.m, state.v, state.step
        tmp, v_hat = state._take((2, *params.shape))
    else:
        p, m, v, tmp, v_hat = state._take((5, rows.size, params.shape[1]))
        # the rows are in bounds, so mode="clip" never clips; unlike the
        # default mode="raise", it writes into `out` without a buffered copy
        for src, dst in ((params, p), (state.m, m), (state.v, v)):
            np.take(src, rows, axis=0, out=dst, mode="clip")
        step = state.step[rows]
    g = grads
    if state.weight_decay > 0.0:
        # v_hat is free until the last moment update has read g
        g = np.multiply(state.weight_decay, p, out=v_hat)
        np.add(grads, g, out=g)

    # in place, in the operation order of grads + weight_decay * p,
    # BETA1 * m + (1 - BETA1) * g, BETA2 * v + (1 - BETA2) * g * g and
    # lr * m_hat / (sqrt(v_hat) + EPS), so the results equal those
    # out-of-place formulas bit for bit
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
