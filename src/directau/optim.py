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


def _grown(
    buf: np.ndarray | None, n_rows: int, lead: tuple[int, ...], d: int, dtype=np.float64
) -> np.ndarray:
    """`buf` when its rows (axis -2) number at least n_rows, else a new
    (*lead, rows, d) buffer with rows = max(n_rows, twice the old rows), so
    a run touches fresh pages a few times, not at each new largest step."""
    held = 0 if buf is None else buf.shape[-2]
    if held >= n_rows:
        return buf
    return np.empty((*lead, max(n_rows, 2 * held), d), dtype=dtype)


@dataclass
class AdamState:
    """Optimizer state of one parameter array; exclusively owned by one trainer.

    An every-row step computes its temporaries in two scratch arrays of the
    parameters' shape, allocated on the first such step. A gathered-rows
    step works in row scratch, and the trainer sums a step's gradient rows
    in sum scratch; both grow only when a step has more rows than they hold.
    """

    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    lr: float
    weight_decay: float = 0.0
    _scratch: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False, compare=False)
    _rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _sums: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _at: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def scratch(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._scratch:
            self._scratch = (np.empty_like(self.m), np.empty_like(self.m))
        return self._scratch

    def row_scratch(self, n_rows: int) -> np.ndarray:
        """(5, n_rows, d) work rows of a gathered-rows step."""
        self._rows = _grown(self._rows, n_rows, (5,), self.m.shape[1])
        return self._rows[:, :n_rows]

    def sum_scratch(self, n_rows: int, n_ids: int) -> tuple[np.ndarray, np.ndarray]:
        """An (n_rows, d) float64 array for a step's summed gradient rows and
        an (n_ids, d) int64 array for the flat index that sums its n_ids
        batch rows (training._sum_rows). adam_step never writes them, so the
        sums may be the gradient it is given."""
        d = self.m.shape[1]
        self._sums = _grown(self._sums, n_rows, (), d)
        self._at = _grown(self._at, n_ids, (), d, np.int64)
        return self._sums[:n_rows], self._at[:n_ids]

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

    `rows` must be unique and in [0, len(params)) (accumulate duplicate-row
    gradients before calling); rows not listed are untouched, including
    their moments. Strictly ascending rows (as `np.unique` returns them) are
    known unique from one pass; other orders are checked by sorting.
    When `rows` is every row in order, the update runs on views of the
    arrays, with its temporaries in the state's scratch arrays; otherwise
    the rows are gathered into the state's row scratch, updated there and
    written back once.
    """
    rows = np.asarray(rows, dtype=np.int64)
    grads = np.asarray(grads, dtype=np.float64)
    if rows.size == 0:
        return params
    ascending = bool(np.all(rows[1:] > rows[:-1]))
    ordered = rows if ascending else np.unique(rows)
    if ordered.size != rows.size:
        raise ValueError("duplicate rows in one adam_step call; pre-accumulate instead")
    if ordered[0] < 0 or ordered[-1] >= len(params):
        raise ValueError(f"rows must lie in [0, {len(params)})")
    # strictly ascending, in bounds and len(params) of them: every row in order
    every_row = ascending and rows.size == len(params)
    if not np.all(np.isfinite(grads)):
        raise DivergedGradient("non-finite gradient entries")

    if every_row:
        p, m, v, step = params, state.m, state.v, state.step
        tmp, v_hat = state.scratch()
    else:
        p, m, v, tmp, v_hat = state.row_scratch(rows.size)
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
