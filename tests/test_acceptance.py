"""Acceptance suite: one test per binding criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Criteria 7 and 8 need the raw Amazon Beauty reviews file
(see the environment variables below) and skip when it is absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from directau import (
    TrainConfig,
    bpr_loss,
    direct_au_loss,
    init_xavier,
    geometry_report,
    load_interactions,
    preprocess,
    rank_eval,
    split,
    train,
)
from directau import EmbeddingTable
from helpers import (
    align_loss,
    bpr_bound_harness,
    finite_difference_gradients,
    naive_uniformity,
    random_interaction_set,
    relative_gradient_error,
    two_cluster_dataset,
    uniform_loss,
)

BEAUTY_RAW = os.environ.get("DIRECTAU_BEAUTY_RAW", "data/beauty_ratings.csv")
RUN_FULL_SCALE = os.environ.get("DIRECTAU_FULL_SCALE") == "1"

# shared budget for the synthetic end-to-end runs (criteria 5 and 6)
SYNTH = dict(d=16, lr=0.04, batch_size=128, max_epochs=100, patience=100, seed=0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_batches = 0
    for n in (2, 3, 8):
        for d in (2, 4, 16):
            for _ in range(6):
                u = rng.standard_normal((n, d)) + 0.05
                i = rng.standard_normal((n, d)) - 0.05
                neg = rng.standard_normal((n, d)) + 0.02
                n_batches += 1

                out = align_loss(u, i)
                fu, fi = finite_difference_gradients(
                    lambda a, b: align_loss(a, b).value, [u, i]
                )
                worst = max(worst, relative_gradient_error(out.grad_user, fu))
                worst = max(worst, relative_gradient_error(out.grad_item, fi))

                out = uniform_loss(u)
                (fx,) = finite_difference_gradients(
                    lambda a: uniform_loss(a).value, [u]
                )
                worst = max(worst, relative_gradient_error(out.grad_user, fx))

                out = direct_au_loss(u, i, 1.0)
                fu, fi = finite_difference_gradients(
                    lambda a, b: direct_au_loss(a, b, 1.0).value, [u, i]
                )
                worst = max(worst, relative_gradient_error(out.grad_user, fu))
                worst = max(worst, relative_gradient_error(out.grad_item, fi))

                out = bpr_loss(u, i, neg)
                fu, fi, fn = finite_difference_gradients(
                    lambda a, b, c: bpr_loss(a, b, c).value, [u, i, neg]
                )
                worst = max(worst, relative_gradient_error(out.grad_user, fu))
                worst = max(worst, relative_gradient_error(out.grad_item, fi))
                worst = max(worst, relative_gradient_error(out.grad_neg, fn))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and n_batches >= 50 and elapsed < 10.0
    report(
        "criterion 1 (gradient oracle)",
        ok,
        f"{n_batches} batches, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_estimator_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        inter = random_interaction_set(rng, max_users=8, max_items=9, max_pairs=60)
        d = int(rng.integers(2, 6))
        table = EmbeddingTable.from_parts(
            rng.standard_normal((inter.n_users, d)),
            rng.standard_normal((inter.n_items, d)),
        )
        rep = geometry_report(table, inter)
        got = (rep.l_uniform_user, rep.l_uniform_item, rep.l_uniform)
        want = naive_uniformity(table, inter)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(
        "criterion 2 (estimator equivalence)",
        ok,
        f"200 instances, worst abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_analytic_fixed_points():
    x = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    align0 = align_loss(x, 4.0 * x).value
    uniform0 = uniform_loss(np.array([[1.0, 0.0], [3.0, 0.0]])).value
    antipodal = uniform_loss(np.array([[1.0, 0.0], [-1.0, 0.0]])).value
    u = np.array([[1.0, 0.0]])
    ln2 = bpr_loss(u, u, u).value
    errors = {
        "align(identical)": abs(align0),
        "uniform(identical)": abs(uniform0),
        "uniform(antipodal)+8": abs(antipodal + 8.0),
        "bpr(equal)-ln2": abs(ln2 - np.log(2.0)),
    }
    worst = max(errors.values())
    ok = worst <= 1e-12
    report("criterion 3 (analytic fixed points)", ok, f"worst abs err {worst:.2e}")


def test_criterion_4_bound_harness():
    start = time.perf_counter()
    d, n = 8, 10_000
    base = bpr_bound_harness(d, n, np.random.default_rng(101))
    combined_se = float(np.hypot(base.measured_se, base.bound_se))
    gap = abs(base.measured_bpr - base.bound)
    within = gap <= 3.0 * combined_se

    n_above = 0
    for k in range(100):
        mode = "antipodal" if k % 2 == 0 else "collapse"
        r = bpr_bound_harness(d, n, np.random.default_rng(1000 + k), mode)
        if r.measured_bpr > base.bound:
            n_above += 1
    elapsed = time.perf_counter() - start
    ok = within and n_above == 100 and elapsed < 30.0
    report(
        "criterion 4 (ranking-loss lower bound)",
        ok,
        f"aligned gap {gap:.4f} <= 3*SE {3 * combined_se:.4f}; "
        f"{n_above}/100 perturbed above bound; {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def synthetic_runs():
    data = two_cluster_dataset()
    ds = split(data, seed=SYNTH["seed"])
    runs = {}
    t0 = time.perf_counter()
    _, traces_b = train(ds, TrainConfig(objective="bpr", **SYNTH))
    runs["bpr"] = (traces_b, time.perf_counter() - t0)
    t0 = time.perf_counter()
    best_a, traces_a = train(ds, TrainConfig(objective="direct_au", gamma=1.0, **SYNTH))
    runs["direct_au"] = (traces_a, time.perf_counter() - t0)
    runs["au_table"] = best_a.table
    runs["split"] = ds
    runs["data"] = data
    return runs


def combined_uniformity(trace_row):
    return (trace_row.l_uniform_user + trace_row.l_uniform_item) / 2.0


def test_criterion_5_learning_dynamics_signature(synthetic_runs):
    traces, elapsed = synthetic_runs["bpr"]
    assert len(traces) == SYNTH["max_epochs"]
    align = [t.l_align for t in traces]
    uniform = [combined_uniformity(t) for t in traces]
    align_drops = min(align[:25]) < align[0]
    uniform_rises = max(uniform[:25]) > uniform[0]
    ok = align_drops and uniform_rises and elapsed < 120.0
    report(
        "criterion 5 (learning-dynamics signature)",
        ok,
        f"align e1 {align[0]:.3f} -> min {min(align[:25]):.3f}; "
        f"uniform e1 {uniform[0]:.3f} -> max {max(uniform[:25]):.3f}; {elapsed:.1f}s",
    )


def test_criterion_6_end_to_end_ordering(synthetic_runs):
    start = time.perf_counter()
    ds = synthetic_runs["split"]
    data = synthetic_runs["data"]
    traces_b, time_b = synthetic_runs["bpr"]
    traces_a, time_a = synthetic_runs["direct_au"]

    table0 = init_xavier(data.n_users, data.n_items, SYNTH["d"], SYNTH["seed"])
    ndcg0 = rank_eval(table0, ds, "test", ks=(20,)).ndcg_at[20]
    ndcg = rank_eval(synthetic_runs["au_table"], ds, "test", ks=(20,)).ndcg_at[20]

    final_a_au, final_u_au = traces_a[-1].l_align, combined_uniformity(traces_a[-1])
    final_a_b, final_u_b = traces_b[-1].l_align, combined_uniformity(traces_b[-1])
    elapsed = time_a + time_b + (time.perf_counter() - start)
    ok = (
        ndcg >= 0.5
        and ndcg >= 5.0 * ndcg0
        and final_a_au < final_a_b
        and final_u_au < final_u_b
        and elapsed < 300.0
    )
    report(
        "criterion 6 (end-to-end ordering)",
        ok,
        f"NDCG@20 {ndcg:.3f} (epoch-0 {ndcg0:.3f}, x{ndcg / max(ndcg0, 1e-12):.1f}); "
        f"align {final_a_au:.3f} vs bpr {final_a_b:.3f}; "
        f"uniform {final_u_au:.3f} vs bpr {final_u_b:.3f}; {elapsed:.1f}s",
    )


needs_beauty = pytest.mark.skipif(
    not Path(BEAUTY_RAW).exists(),
    reason=f"raw Beauty ratings file not present at {BEAUTY_RAW} "
    "(set DIRECTAU_BEAUTY_RAW); optional criterion",
)


@needs_beauty
def test_criterion_7_beauty_preprocessing():
    data, _, _ = preprocess(*load_interactions(BEAUTY_RAW, delimiter=","), k_core=5)
    targets = {"users": 22_400, "items": 12_100, "interactions": 198_500}
    got = {"users": data.n_users, "items": data.n_items, "interactions": data.n_pairs}
    ok = all(abs(got[k] - v) / v <= 0.02 for k, v in targets.items())
    report("criterion 7 (Beauty 5-core counts)", ok, f"{got} vs {targets} (+/-2%)")


@pytest.mark.skipif(
    not RUN_FULL_SCALE or not Path(BEAUTY_RAW).exists(),
    reason="long-running full-scale check; set DIRECTAU_FULL_SCALE=1 "
    "and provide the raw Beauty file",
)
def test_criterion_8_full_scale_beauty():
    data, _, _ = preprocess(*load_interactions(BEAUTY_RAW, delimiter=","), k_core=5)
    ds = split(data, seed=0)
    base = dict(d=64, lr=1e-3, batch_size=256, max_epochs=300, patience=10, seed=0)

    best_ndcg, best_gamma, best_table = -1.0, None, None
    for gamma in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        best, traces = train(ds, TrainConfig(objective="direct_au", gamma=gamma, **base))
        val = max(t.val_ndcg20 for t in traces)
        if val > best_ndcg:
            best_ndcg, best_gamma, best_table = val, gamma, best.table
    au_test = rank_eval(best_table, ds, "test", ks=(20,)).ndcg_at[20]

    bpr_best, _ = train(ds, TrainConfig(objective="bpr", **base))
    bpr_test = rank_eval(bpr_best.table, ds, "test", ks=(20,)).ndcg_at[20]

    ok = 0.060 <= au_test <= 0.075 and au_test > bpr_test
    report(
        "criterion 8 (full-scale Beauty)",
        ok,
        f"direct_au test NDCG@20 {au_test:.4f} (gamma {best_gamma}), bpr {bpr_test:.4f}",
    )
