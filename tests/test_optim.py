"""Lazy per-row Adam."""

import numpy as np
import pytest

from directau import AdamState, adam_step
from directau.errors import DivergedGradient
from directau.optim import BETA2, EPS
from helpers import gather_adam_step


def fresh(shape=(4, 3), lr=1e-3, wd=0.0):
    params = np.zeros(shape)
    return AdamState.for_params(params, lr=lr, weight_decay=wd), params


class TestAdamStep:
    def test_zero_gradient_fresh_state_noop(self):
        state, params = fresh()
        before = params.copy()
        adam_step(state, params, np.array([0, 2]), np.zeros((2, 3)))
        assert np.array_equal(params, before)

    def test_hand_computed_first_step(self):
        state, params = fresh(shape=(1, 1))
        adam_step(state, params, np.array([0]), np.array([[1.0]]))
        # m=0.1, v=0.001; bias-corrected m_hat=1, v_hat=1 -> step ~ -lr
        assert params[0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_deterministic(self):
        s1, p1 = fresh()
        s2, p2 = fresh()
        g = np.arange(6, dtype=float).reshape(2, 3)
        for _ in range(3):
            adam_step(s1, p1, np.array([1, 3]), g)
            adam_step(s2, p2, np.array([1, 3]), g)
        assert np.array_equal(p1, p2)

    def test_per_row_update_independence(self):
        g = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
        s_joint, p_joint = fresh()
        adam_step(s_joint, p_joint, np.array([0, 2]), g)
        s_sep, p_sep = fresh()
        adam_step(s_sep, p_sep, np.array([0]), g[:1])
        adam_step(s_sep, p_sep, np.array([2]), g[1:])
        assert np.array_equal(p_joint, p_sep)
        assert np.array_equal(s_joint.m, s_sep.m)
        assert np.array_equal(s_joint.step, s_sep.step)

    def test_untouched_rows_keep_state(self):
        state, params = fresh()
        adam_step(state, params, np.array([1]), np.ones((1, 3)))
        assert np.all(params[0] == 0) and np.all(params[2:] == 0)
        assert state.step[1] == 1 and state.step[0] == 0

    def test_lr_zero_is_fixed_point(self):
        state, params = fresh(lr=0.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            adam_step(state, params, np.array([0, 1, 2, 3]), rng.standard_normal((4, 3)))
        assert np.array_equal(params, np.zeros((4, 3)))

    def test_step_magnitude_bounded(self):
        rng = np.random.default_rng(1)
        state, params = fresh(shape=(8, 4), lr=1e-3)
        for _ in range(50):
            before = params.copy()
            adam_step(state, params, np.arange(8), rng.standard_normal((8, 4)) * 10)
            assert np.max(np.abs(params - before)) <= 10 * state.lr

    def test_weight_decay_enters_gradient(self):
        state, params = fresh(shape=(1, 1), wd=0.5)
        params[0, 0] = 2.0
        adam_step(state, params, np.array([0]), np.array([[0.0]]))
        # effective g = 0 + 0.5*2 = 1 -> first step is ~ -lr
        assert params[0, 0] == pytest.approx(2.0 - 1e-3, rel=1e-6)

    def test_non_finite_gradient_raises(self):
        state, params = fresh()
        with pytest.raises(DivergedGradient):
            adam_step(state, params, np.array([0]), np.array([[np.nan, 0.0, 0.0]]))
        with pytest.raises(DivergedGradient):
            adam_step(state, params, np.array([0]), np.array([[np.inf, 0.0, 0.0]]))

    def test_duplicate_rows_rejected(self):
        state, params = fresh()
        with pytest.raises(ValueError):
            adam_step(state, params, np.array([1, 1]), np.ones((2, 3)))

    def test_bias_correction_uses_per_row_counters(self):
        # row 0 stepped twice, row 1 once; a joint third call must apply
        # different corrections per row
        state, params = fresh(shape=(2, 1))
        g = np.array([[1.0]])
        adam_step(state, params, np.array([0]), g)
        adam_step(state, params, np.array([0]), g)
        adam_step(state, params, np.array([1]), g)
        p_before = params.copy()
        adam_step(state, params, np.array([0, 1]), np.ones((2, 1)))
        assert state.step.tolist() == [3, 2]
        # identical constant gradients keep m_hat/sqrt(v_hat) = 1 per row
        assert np.allclose(params, p_before - state.lr, rtol=1e-6)


def warmed(wd, n=9, d=4):
    """Random parameters whose rows have taken different numbers of steps."""
    rng = np.random.default_rng(5)
    params = rng.standard_normal((n, d))
    state = AdamState.for_params(params, lr=1e-2, weight_decay=wd)
    for k in range(4):
        rows = rng.choice(n, size=k + 2, replace=False)
        gather_adam_step(state, params, rows, rng.standard_normal((rows.size, d)))
    assert len(set(state.step.tolist())) > 1
    return rng, state, params


def clone(state, params):
    return (
        AdamState(state.m.copy(), state.v.copy(), state.step.copy(), state.lr, state.weight_decay),
        params.copy(),
    )


def row_sets(rng, n):
    """Row lists in the orders a caller may hold them; only `in_order` and
    `ascending` are in the np.unique order that adam_step accepts."""
    permuted = rng.permutation(n)
    while np.array_equal(permuted, np.arange(n)):
        permuted = rng.permutation(n)
    subset = rng.choice(n, size=4, replace=False)
    return {
        "in_order": np.arange(n),
        "permuted": permuted,
        "subset": subset,
        "ascending": np.sort(subset),
        "unsorted": np.sort(subset)[::-1],
    }


ROW_KINDS = ["in_order", "permuted", "subset", "ascending", "unsorted"]


def ascending(rows, grads):
    """`rows` in np.unique order, each with its gradient row, as a caller
    that holds them in another order passes them to adam_step."""
    order = np.argsort(rows)
    return rows[order], grads[order]


class TestAdamStepMatchesGatherOracle:
    @pytest.mark.parametrize("wd", [0.0, 0.05])
    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_bit_equal_to_oracle(self, wd, kind):
        # the oracle takes the rows in the caller's order, adam_step in
        # ascending order (the same rows for in_order and ascending)
        rng, state, params = warmed(wd)
        want_state, want = clone(state, params)
        for _ in range(3):
            rows = row_sets(rng, len(params))[kind]
            grads = rng.standard_normal((rows.size, params.shape[1]))
            adam_step(state, params, *ascending(rows, grads))
            gather_adam_step(want_state, want, rows, grads)
        assert np.array_equal(params, want)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name), getattr(want_state, name))

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_diverged_gradient_writes_nothing(self, kind):
        rng, state, params = warmed(0.05)
        before_state, before = clone(state, params)
        rows = row_sets(rng, len(params))[kind]
        grads = rng.standard_normal((rows.size, params.shape[1]))
        grads[-1, -1] = np.inf
        with pytest.raises(DivergedGradient):
            adam_step(state, params, *ascending(rows, grads))
        assert np.array_equal(params, before)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name), getattr(before_state, name))

    @pytest.mark.parametrize("rows", [[3, 1, 3], [1, 1, 2]])
    def test_duplicate_rows_write_nothing(self, rows):
        rng, state, params = warmed(0.05)
        before_state, before = clone(state, params)
        with pytest.raises(ValueError):
            adam_step(state, params, np.array(rows), rng.standard_normal((3, params.shape[1])))
        assert np.array_equal(params, before)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name), getattr(before_state, name))

    @pytest.mark.parametrize("rows", [[1, 0], [0, 2, 1], [8, 5, 3, 0], [1, 4, 4, 6]])
    def test_rows_not_in_unique_order_write_nothing(self, rows):
        rng, state, params = warmed(0.05)
        before_state, before = clone(state, params)
        grads = rng.standard_normal((len(rows), params.shape[1]))
        with pytest.raises(ValueError, match="strictly ascending"):
            adam_step(state, params, np.array(rows), grads)
        assert np.array_equal(params, before)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name), getattr(before_state, name))

    def test_every_row_steps_reuse_two_scratch_arrays(self):
        # the step's temporaries are two parameter-shaped arrays of the
        # state's scratch; the second holds sqrt(v_hat) + EPS when the step ends
        rng, state, params = warmed(0.05)
        rows = np.arange(len(params))
        grads = rng.standard_normal(params.shape)
        kept = grads.copy()
        adam_step(state, params, rows, grads)
        held = state.scratch[: 2 * params.size].reshape(2, *params.shape)
        for _ in range(2):
            t = state.step[:, None].astype(np.float64)
            assert np.array_equal(held[1], np.sqrt(state.v / (1.0 - BETA2**t)) + EPS)
            adam_step(state, params, rows, grads)
        assert state.scratch is held.base
        assert np.array_equal(grads, kept)

    @pytest.mark.parametrize("rows", [[-1, 8], [-9, 0], [0, 9], [1, 3, 12]])
    def test_rows_outside_the_array_write_nothing(self, rows):
        # [-1, 8] is strictly ascending, but -1 names row 8 again
        rng, state, params = warmed(0.05)
        before_state, before = clone(state, params)
        grads = rng.standard_normal((len(rows), params.shape[1]))
        with pytest.raises(ValueError, match="rows must lie in"):
            adam_step(state, params, np.array(rows), grads)
        assert np.array_equal(params, before)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name), getattr(before_state, name))

    @pytest.mark.parametrize("wd", [0.0, 0.05])
    def test_gathered_steps_in_growing_row_scratch(self, wd):
        # row counts that grow, shrink and grow past the held scratch
        rng, state, params = warmed(wd, n=40)
        want_state, want = clone(state, params)
        held = []
        for size in (3, 2, 4, 7, 5, 16, 31, 9, 39, 12):
            rows = np.sort(rng.choice(len(params), size=size, replace=False))
            grads = rng.standard_normal((size, params.shape[1]))
            adam_step(state, params, rows, grads)
            gather_adam_step(want_state, want, rows, grads)
            held.append(state.scratch)
        assert np.array_equal(params, want)
        for name in ("m", "v", "step"):
            assert np.array_equal(getattr(state, name), getattr(want_state, name))
        # grown to 3, 6, 12, 24 and 48 rows at sizes 3, 4, 7, 16 and 31
        assert held[-1].size == 5 * 48 * params.shape[1] and held[-1] is held[-4]
        assert len({id(b) for b in held}) == 5
