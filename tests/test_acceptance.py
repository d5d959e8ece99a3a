"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 4, 5 and 9 run real desk-scale training; the whole module is
budgeted to finish in well under twenty minutes on one desktop core.
"""

import math
import time

import numpy as np
import pytest

from mlpst import checkpoint, evaluation, gradcheck, griddata, ingestion, mixer, tensor, training, tree
from mlpst.gradcheck import central_diff, compare_grads, merge_results
from mlpst.griddata import TemporalConfig, apply_norm, invert_norm
from mlpst.ingestion import synth
from mlpst.training import LossConfig, TrainConfig


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


# -------------------------------------------------------------------------
# 1. gradient suite


def _random_mlp(rng, dim, hidden):
    p = tensor.MlpBlockParams(
        w_in=rng.normal(size=(dim, hidden)),
        b_in=rng.normal(size=hidden),
        w_out=rng.normal(size=(hidden, dim)),
        b_out=rng.normal(size=dim),
    )
    ln = tensor.LayerNormParams(gamma=rng.normal(size=dim), beta=rng.normal(size=dim))
    return p, ln


def _random_mixer_layer(rng, n_tok, n_ch, hidden):
    return mixer.MixerLayerParams(
        token_mlp=_random_mlp(rng, n_tok, hidden)[0],
        channel_mlp=_random_mlp(rng, n_ch, hidden)[0],
        ln_tokens=tensor.LayerNormParams(
            gamma=rng.normal(size=n_ch), beta=rng.normal(size=n_ch)
        ),
        ln_channels=tensor.LayerNormParams(
            gamma=rng.normal(size=n_ch), beta=rng.normal(size=n_ch)
        ),
    )


def _gelu_results(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=24) * 2.0
    analytic = tensor.gelu_grad(x)
    numeric = np.array([
        (tensor.gelu(v + 1e-5) - tensor.gelu(v - 1e-5)) / 2e-5 for v in x
    ])
    return [compare_grads(analytic, numeric)]


def _layernorm_results(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 6))
    p = tensor.LayerNormParams(gamma=rng.normal(size=6), beta=rng.normal(size=6))
    upstream = rng.normal(size=(3, 6))

    def f():
        y, _ = tensor.layernorm_fwd(x, p)
        return float((y * upstream).sum())

    _, cache = tensor.layernorm_fwd(x, p)
    dx, dgamma, dbeta = tensor.layernorm_bwd(upstream, cache, p)
    return [
        compare_grads(analytic, central_diff(f, arr))
        for analytic, arr in ((dx, x), (dgamma, p.gamma), (dbeta, p.beta))
    ]


def _mlp_block_results(seed):
    rng = np.random.default_rng(seed)
    p, ln = _random_mlp(rng, 4, 3)
    x = rng.normal(size=(3, 4))
    upstream = rng.normal(size=(3, 4))

    def f():
        y, _ = tensor.mlp_block_fwd(x, p, ln)
        return float((y * upstream).sum())

    _, cache = tensor.mlp_block_fwd(x, p, ln)
    dx, gp, gln = tensor.mlp_block_bwd(upstream, cache, p, ln)
    pairs = [(dx, x), (gp.w_in, p.w_in), (gp.b_in, p.b_in),
             (gp.w_out, p.w_out), (gp.b_out, p.b_out),
             (gln.gamma, ln.gamma), (gln.beta, ln.beta)]
    return [compare_grads(a, central_diff(f, arr)) for a, arr in pairs]


def _mixer_layer_results(seed):
    rng = np.random.default_rng(seed)
    p = _random_mixer_layer(rng, 5, 4, 3)
    v = rng.normal(size=(5, 4))
    upstream = rng.normal(size=(5, 4))

    def f():
        y, _ = mixer.mixer_layer_fwd(v, p)
        return float((y * upstream).sum())

    _, cache = mixer.mixer_layer_fwd(v, p)
    grads = tree.tree_zeros_like(p)
    dv = mixer.mixer_layer_bwd(upstream, cache, p, grads)
    out = [compare_grads(dv, central_diff(f, v))]
    for (_, g), (_, arr) in zip(tree.iter_leaves(grads), tree.iter_leaves(p)):
        out.append(compare_grads(g, central_diff(f, arr)))
    return out


def _model_results(seed):
    # the stated desk config: 4x4 grid, P=2, C_S=4, N=2, T=6, (t,p,c)=(2,2,2)
    cfg = mixer.ModelConfig(
        temporal=TemporalConfig(trend=2, period=2, closeness=2,
                                trend_interval=4, period_interval=2,
                                closeness_interval=1),
        patch=2, channels_spatial=4, channels_temporal=4, expansion=4, n_layers=2,
    )
    params = mixer.build_params(cfg, 4, 4, 2, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    history = rng.uniform(0.0, 1.0, size=(10, 4, 4, 2))
    upstream = rng.normal(size=(4, 4, 2))
    # built mixing MLPs start with w_out = 0, which zeroes every gradient
    # upstream of them; redraw each unique leaf in place (sharing kept), at
    # half-unit scale so the central difference is not lost to roundoff
    for _, arr in tree.unique_leaves(params):
        arr[...] = rng.normal(scale=0.5, size=arr.shape)

    def f():
        pred, _ = mixer.model_forward(history, params)
        return float((pred * upstream).sum())

    _, cache = mixer.model_forward(history, params)
    grads = mixer.batch_backward(cache, upstream[np.newaxis], params)
    out = []
    for (_, g), (_, arr) in zip(tree.unique_leaves(grads), tree.unique_leaves(params)):
        out.append(compare_grads(g, central_diff(f, arr)))
    return out


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    components = {
        "gelu": _gelu_results,
        "layernorm": _layernorm_results,
        "mlp_block": _mlp_block_results,
        "mixer_layer": _mixer_layer_results,
        "model": _model_results,
    }
    summaries = {}
    for name, fn in components.items():
        results = []
        for seed in range(20):
            results.extend(fn(seed))
        summaries[name] = merge_results(results)
    elapsed = time.monotonic() - t0

    ok = all(
        s.frac_within >= 0.99 and s.max_rel <= 1e-3 for s in summaries.values()
    ) and elapsed < 120.0
    detail = "; ".join(
        f"{name}: {s.frac_within:.4%} within 1e-4, worst {s.max_rel:.2e}"
        for name, s in summaries.items()
    )
    report("1 gradient-suite", ok, f"{detail}; {elapsed:.1f}s")
    for name, s in summaries.items():
        assert s.frac_within >= 0.99, (name, s)
        assert s.max_rel <= 1e-3, (name, s)
    assert elapsed < 120.0


# -------------------------------------------------------------------------
# 2. residual identity


def test_criterion_2_residual_identity():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        n_tok = int(rng.integers(1, 10))
        n_ch = int(rng.integers(1, 10))
        p = _random_mixer_layer(rng, n_tok, n_ch, int(rng.integers(1, 6)))
        p.token_mlp.w_out[:] = 0.0
        p.token_mlp.b_out[:] = 0.0
        p.channel_mlp.w_out[:] = 0.0
        p.channel_mlp.b_out[:] = 0.0
        v = rng.normal(size=(n_tok, n_ch))
        y, _ = mixer.mixer_layer_fwd(v, p)
        ok = ok and bool(np.array_equal(y, v))
    report("2 residual-identity", ok, "50 random shapes, bitwise")
    assert ok


# -------------------------------------------------------------------------
# 3. shape / round-trip invariants


def test_criterion_3_round_trips(tmp_path):
    rng = np.random.default_rng(7)

    x = rng.uniform(size=(6, 8, 2))
    # 3x4 patches of 2x2 cells; undo the patch order and the flattening
    tokens = griddata.patchify(x, 2)
    patch_ok = np.array_equal(tokens.reshape(3, 4, 2, 2, 2).swapaxes(1, 2).reshape(6, 8, 2), x)

    dataset = ingestion.GridDataset(
        h=3, w=4, d=2, interval_seconds=600, box=(1.0, 2.0, 3.0, 4.0),
        values=rng.uniform(0, 50, size=(9, 3, 4, 2)),
    )
    ingestion.write_dataset(tmp_path / "d.stgrid", dataset)
    back = ingestion.read_dataset(tmp_path / "d.stgrid")
    stgrid_ok = (
        np.array_equal(back.values, dataset.values)
        and (back.h, back.w, back.d, back.interval_seconds, back.box)
        == (dataset.h, dataset.w, dataset.d, dataset.interval_seconds, dataset.box)
    )

    cfg = mixer.ModelConfig(
        temporal=TemporalConfig(trend=2, period=2, closeness=4,
                                trend_interval=6, period_interval=3,
                                closeness_interval=1),
        patch=2, channels_spatial=4, channels_temporal=3, expansion=5, n_layers=2,
    )
    params = mixer.build_params(cfg, 4, 6, 2, seed=3)
    stats = griddata.NormStats(lo=rng.uniform(size=2), hi=rng.uniform(size=2) + 2.0)
    checkpoint.save_checkpoint(tmp_path / "m.ckpt", params, cfg.temporal, "seed=3\n", stats)
    loaded = checkpoint.load_checkpoint(tmp_path / "m.ckpt")
    ckpt_ok = all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(tree.iter_leaves(params), tree.iter_leaves(loaded.params))
    ) and np.array_equal(loaded.stats.lo, stats.lo) and np.array_equal(loaded.stats.hi, stats.hi)

    ok = patch_ok and stgrid_ok and ckpt_ok
    report("3 round-trips", ok,
           f"patchify={patch_ok} stgrid={stgrid_ok} checkpoint={ckpt_ok}")
    assert patch_ok and stgrid_ok and ckpt_ok


# -------------------------------------------------------------------------
# 4. overfit check (pinned desk-scale config)

OVERFIT_TEMPORAL = TemporalConfig(
    trend=2, period=2, closeness=8,
    trend_interval=168, period_interval=24, closeness_interval=1,
)


def _default_small_config(temporal, variant="full"):
    return mixer.ModelConfig(
        temporal=temporal, patch=2, channels_spatial=8, channels_temporal=8,
        expansion=8, n_layers=2, variant=variant,
    )


def _train_mae(data, result, temporal):
    normed = apply_norm(data.values, result.stats)
    preds = training.predict_batches(
        result.params, normed, result.anchors.train, temporal, 64
    )
    preds = invert_norm(preds, result.stats)
    return float(np.abs(preds - data.values[result.anchors.train]).mean())


def test_criterion_4_overfit():
    t0 = time.monotonic()
    data = synth("periodic", 10, 10, steps=600, seed=0, period=24, noise=0.0)
    sigma = float(data.values.std())
    cfg = _default_small_config(OVERFIT_TEMPORAL)
    result = training.train(
        data.values, cfg,
        TrainConfig(batch_size=64, max_epochs=500, patience=500, seed=0, lr=1e-3),
        LossConfig(q=2),
    )
    train_mae = _train_mae(data, result, cfg.temporal)
    elapsed = time.monotonic() - t0
    ok = train_mae < 0.02 * sigma and elapsed < 600.0
    report("4 overfit", ok,
           f"train MAE {train_mae:.5f} vs bar {0.02 * sigma:.5f} "
           f"({train_mae / sigma:.4f} of std), {elapsed:.0f}s")
    assert train_mae < 0.02 * sigma
    assert elapsed < 600.0


# -------------------------------------------------------------------------
# 5. temporal-dependency ordering


def test_criterion_5_temporal_ordering():
    cfg_c10_p2 = TemporalConfig(trend=0, period=2, closeness=10,
                                period_interval=24, closeness_interval=1)
    cfg_c12 = TemporalConfig(trend=0, period=0, closeness=12, closeness_interval=1)
    min_history = 49  # aligns anchors across both window configurations
    noise = 1.0

    mae_a, mae_b, mae_p = [], [], []
    for seed in (0, 1, 2):
        data = synth("periodic", 10, 10, steps=600, seed=seed, period=24, noise=noise)
        per_cfg = {}
        for key, temporal in (("a", cfg_c10_p2), ("b", cfg_c12)):
            cfg = _default_small_config(temporal)
            result = training.train(
                data.values, cfg,
                TrainConfig(batch_size=32, max_epochs=100, patience=25, seed=seed,
                            min_history=min_history, lr=3e-3),
                LossConfig(q=2),
            )
            rep = evaluation.evaluate_model(
                result.params, temporal, data.values, result.anchors.test, result.stats
            )
            per_cfg[key] = (rep.mae, result.anchors.test)
        mae_a.append(per_cfg["a"][0])
        mae_b.append(per_cfg["b"][0])
        mae_p.append(
            evaluation.evaluate_baseline("persistence", data.values, per_cfg["a"][1]).mae
        )

    mean_a, mean_b, mean_p = map(lambda v: float(np.mean(v)), (mae_a, mae_b, mae_p))
    ok = mean_a <= mean_b and mean_a < mean_p and mean_b < mean_p
    report("5 temporal-ordering", ok,
           f"(c,p,t)=(10,2,0) {mean_a:.5f} <= (12,0,0) {mean_b:.5f}; "
           f"persistence {mean_p:.5f}; 3 seeds, noise {noise}")
    assert mean_a <= mean_b
    assert mean_a < mean_p and mean_b < mean_p


# -------------------------------------------------------------------------
# 6. complexity linearity


def _token_mixing_count(n_patches, c_s=6, hidden=8):
    rng = np.random.default_rng(0)
    p = _random_mixer_layer(rng, n_patches, c_s, hidden)
    v = rng.normal(size=(n_patches, c_s))
    with tensor.count_multiplies() as counter:
        tensor.mlp_block_fwd(v, p.token_mlp, p.ln_tokens, tensor.column_mlp_fwd)
    return counter.count


def _temporal_total_count(t, p, c, d_t=24):
    rng = np.random.default_rng(1)
    total = 0
    for length in (t, p, c):
        if length == 0:
            continue
        layer = _random_mixer_layer(rng, length, d_t, 4)
        tp = mixer.TemporalMixerParams(seq_len=length, layers=[layer], n_layers=2)
        e = rng.normal(size=(length, d_t))
        with tensor.count_multiplies() as counter:
            mixer.temporal_mixer_fwd(e, tp)
        total += counter.count
    return total


def test_criterion_6_complexity_linearity():
    token_counts = {n: _token_mixing_count(n) for n in (8, 16, 32)}
    s1 = (token_counts[16] - token_counts[8]) / 8
    s2 = (token_counts[32] - token_counts[16]) / 16
    token_ok = s1 == s2

    temporal_counts = {}
    for scale in (1, 2, 4):
        t, p, c = 2 * scale, 2 * scale, 4 * scale
        temporal_counts[t + p + c] = _temporal_total_count(t, p, c)
    ts = sorted(temporal_counts)
    u1 = (temporal_counts[ts[1]] - temporal_counts[ts[0]]) / (ts[1] - ts[0])
    u2 = (temporal_counts[ts[2]] - temporal_counts[ts[1]]) / (ts[2] - ts[1])
    temporal_ok = u1 == u2

    ok = token_ok and temporal_ok
    report("6 complexity-linearity", ok,
           f"token counts {token_counts} exact-affine={token_ok}; "
           f"temporal counts {temporal_counts} exact-affine={temporal_ok}")
    assert token_ok and temporal_ok


# -------------------------------------------------------------------------
# 7. metric oracles


def test_criterion_7_metric_oracles():
    pred = np.array([1.0, 2.0, 3.0])
    target = np.array([2.0, 2.0, 2.0])
    checks = [
        abs(evaluation.mae(pred, target) - 2.0 / 3.0) < 1e-12,
        abs(evaluation.rmse(pred, target) - math.sqrt(2.0 / 3.0)) < 1e-12,
        abs(evaluation.mae(target, target)) < 1e-12,
        abs(evaluation.r2(target, np.array([1.0, 2.0, 3.0])) - 0.0) < 1e-12,
        abs(evaluation.r2(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) - 1.0) < 1e-12,
    ]
    residuals = np.array([1.0, -2.0, 3.0])
    value1, _ = training.loss(residuals, np.zeros(3), LossConfig(q=1))
    value2, _ = training.loss(residuals, np.zeros(3), LossConfig(q=2))
    checks.append(abs(value1 - 6.0) < 1e-12)
    checks.append(abs(value2 - math.sqrt(14.0)) < 1e-12)
    ok = all(checks)
    report("7 metric-oracles", ok, f"{sum(checks)}/{len(checks)} closed forms at 1e-12")
    assert ok


# -------------------------------------------------------------------------
# 8. parameter economy


def test_criterion_8_parameter_economy():
    paper_cfg = mixer.ModelConfig()  # P=2, C_S=C_T=20, N=8, expansion=8, shared
    shared = mixer.build_params(paper_cfg, 10, 20, 2, seed=0)
    total_shared = mixer.param_total(shared)

    unshared_cfg = mixer.ModelConfig(share_layers=False)
    unshared = mixer.build_params(unshared_cfg, 10, 20, 2, seed=0)
    total_unshared = mixer.param_total(unshared)

    ok = total_shared < 10**6 and total_shared < total_unshared
    report("8 parameter-economy", ok,
           f"shared total {total_shared} < 1e6; unshared {total_unshared}")
    assert total_shared < 10**6
    assert total_shared < total_unshared


# -------------------------------------------------------------------------
# 9. ablation containment


def test_criterion_9_ablation_containment():
    temporal = OVERFIT_TEMPORAL
    noise = 1.0
    maes = {"full": [], "mlp_at": [], "mlp_sa": []}
    for seed in (0, 1, 2):
        data = synth("periodic", 10, 10, steps=600, seed=seed, period=24, noise=noise)
        for variant in maes:
            cfg = _default_small_config(temporal, variant=variant)
            result = training.train(
                data.values, cfg,
                TrainConfig(batch_size=32, max_epochs=100, patience=25, seed=seed, lr=3e-3),
                LossConfig(q=2),
            )
            rep = evaluation.evaluate_model(
                result.params, temporal, data.values, result.anchors.test, result.stats
            )
            maes[variant].append(rep.mae)
    means = {k: float(np.mean(v)) for k, v in maes.items()}
    ok = means["full"] <= means["mlp_at"] and means["full"] <= means["mlp_sa"]
    report("9 ablation-containment", ok,
           f"full {means['full']:.5f} <= mlp_at {means['mlp_at']:.5f} "
           f"and <= mlp_sa {means['mlp_sa']:.5f}; 3 seeds, noise {noise}")
    assert means["full"] <= means["mlp_at"]
    assert means["full"] <= means["mlp_sa"]


# -------------------------------------------------------------------------
# 10. determinism


def test_criterion_10_determinism():
    temporal = TemporalConfig(trend=0, period=2, closeness=4,
                              period_interval=12, closeness_interval=1)
    cfg = mixer.ModelConfig(temporal=temporal, patch=2, channels_spatial=4,
                            channels_temporal=4, expansion=4, n_layers=1)
    data = synth("periodic", 4, 4, steps=150, seed=9, period=12, noise=0.3)

    def run():
        result = training.train(
            data.values, cfg,
            TrainConfig(batch_size=16, max_epochs=6, patience=10, seed=4),
            LossConfig(q=2),
        )
        rep = evaluation.evaluate_model(
            result.params, temporal, data.values, result.anchors.test, result.stats
        )
        return result.log_lines, (rep.mae, rep.rmse, rep.r2)

    logs1, metrics1 = run()
    logs2, metrics2 = run()
    ok = logs1 == logs2 and metrics1 == metrics2
    report("10 determinism", ok,
           f"{len(logs1)} epoch lines byte-identical={logs1 == logs2}, "
           f"metrics identical={metrics1 == metrics2}")
    assert logs1 == logs2
    assert metrics1 == metrics2
