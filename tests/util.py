"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from toilcast import nn
from toilcast.autodiff import Tensor, backward, capture, concat, reshape
from toilcast.iec import load_bracket
from toilcast.metrics import _pair, pinball
from toilcast.series import (CHANNELS, STEP_5MIN_S, STEP_HOUR_S, AffineScaler, TimeSeries,
                             TransformerDataset, check_real, format_instant, load_dataset,
                             write_csv)

IDENTITY = AffineScaler({n: (1.0, 0.0) for n in CHANNELS})


def make_dataset(n: int, start: int = 1_600_000_000, seed: int = 0) -> TransformerDataset:
    """Random but valid dataset on the 5-minute grid."""
    rng = np.random.default_rng(seed)
    ts = start + STEP_5MIN_S * np.arange(n, dtype=np.int64)
    top = TimeSeries(ts, 40.0 + 5.0 * rng.standard_normal(n))
    amb = TimeSeries(ts, 10.0 + 3.0 * rng.standard_normal(n))
    load = TimeSeries(ts, rng.uniform(0.1, 1.2, n))
    return TransformerDataset(top, amb, load)


def load_current(folder, current, rated_current_a, start: int = 1_600_000_000):
    """`load_dataset` with `rated_current_a` on a measurements CSV whose
    current_a column holds `current` (written with repr, NaN as an empty
    cell) at 5-minute steps from `start`, top-oil 40 degC throughout, and an
    ambient CSV of hourly 10 degC readings that spans it; both in `folder`."""
    m, a = Path(folder) / "current.csv", Path(folder) / "ambient.csv"
    ts = start + STEP_5MIN_S * np.arange(len(current))
    write_csv(m, ["timestamp", "top_oil_c", "current_a"],
              ((format_instant(t), "40.0", "" if np.isnan(c) else repr(float(c)))
               for t, c in zip(ts, current)))
    write_csv(a, ["timestamp", "ambient_c"],
              ((format_instant(t), "10.0") for t in range(start, ts[-1] + STEP_HOUR_S,
                                                           STEP_HOUR_S)))
    return load_dataset(m, a, rated_current_a=rated_current_a)


def relu_oracle(a) -> np.ndarray:
    """max(a, 0) with NaN mapped to 0: the oracle of `autodiff.relu`."""
    return np.where(a > 0, a, 0.0)


def affine_oracle(x, w, b) -> np.ndarray:
    """`x @ w + b`: the forward of `autodiff.affine` for any row count, and
    the oracle of its one-row form."""
    return x @ w + b


def layer_norm_oracle(x, gamma, beta, eps) -> np.ndarray:
    """Layer norm over the last axis with numpy's row sums (`_sum_last` gives
    their bits): the forward of `autodiff.layer_norm` for any row count, and
    the oracle of its one-row form."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) * (1.0 / n)
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * (1.0 / n)
    return centered * (var + eps) ** -0.5 * gamma + beta


def causal_conv1d_oracle(x, w, b, dilation=1, start=0, stride=1) -> np.ndarray:
    """The causal convolution as one matmul per tap over the whole batch, each
    tap added from the first output position it reaches into the sequence:
    the forward of `autodiff.causal_conv1d` for any batch, and the oracle of
    its one-row form."""
    T = x.shape[1]
    out = x[:, start::stride] @ w[0] + b
    for i in range(1, w.shape[0]):
        s = i * dilation
        j0 = max(0, -((start - s) // stride))
        lo = start + j0 * stride
        if lo < T:
            out[:, j0:] += x[:, lo - s: T - s: stride] @ w[i]
    return out


def replay_oracle(plan, *inputs) -> np.ndarray:
    """The interpreted replay of a captured plan: each step's forward called
    on its argument slots in one list of values. The oracle of `Plan.run`."""
    vals = list(plan._vals)
    vals[:len(inputs)] = inputs
    for fwd, slots, k in plan._steps:
        vals[k] = fwd(*[vals[s] for s in slots])
    return vals[plan._out]


def stacked_decode(tide, params, x3, proj, rng=None) -> Tensor:
    """TiDE's decode as it once joined its horizon steps: each temporal
    block's output reshaped to (B, 1, T * Q), the steps concatenated along
    axis 1, one step alone too, and the stack flattened. The oracle of
    `Tide.decode`, which concatenates the steps' (B, T * Q) rows."""
    cfg = tide.cfg
    B, L, H, T = x3.shape[0], cfg.lookback, cfg.horizon, cfg.n_targets
    y_flat = reshape(x3[:, :, :T], (B, L * T))
    e = concat([y_flat, reshape(proj, (B, (L + H) * cfg.temporal_width))], axis=1)
    for i in range(cfg.n_encoder_layers):
        e = tide._block(e, params, f"encoder{i}", rng)
    for i in range(cfg.n_decoder_layers):
        e = tide._block(e, params, f"decoder{i}", rng)
    D = reshape(e, (B, H, cfg.decoder_output_dim))
    steps = [reshape(tide._block(concat([D[:, t, :], proj[:, L + t, :]], axis=1), params,
                                 "temporal", rng), (B, 1, T * cfg.n_quantiles))
             for t in range(H)]
    decoded = reshape(concat(steps, axis=1), (B, cfg.n_outputs))
    return decoded + nn.linear(y_flat, params, "global")


def window_views(model, scaled, proj, i) -> tuple:
    """A plan's inputs at step i as plain views: rows i-L .. i-1 of the
    scaled slice flattened, or for TiDE as (1, L, C) with projected rows
    i-L .. i+H-1."""
    L = model.config.lookback
    if proj is None:
        return (scaled[None, i - L: i].reshape(1, -1),)
    return scaled[None, i - L: i], proj[None, i - L: i + model.config.horizon]


def rollout_oracle(model, valid) -> np.ndarray:
    """The rollout of a TrainedModel as a per-step loop over `replay_oracle`:
    the slice scaled here by numpy, the forward (TiDE: `decode`, on the
    covariates projected here) captured here on the first window, the window
    as plain views, the output unscaled and sorted by numpy, a finiteness
    check, and the median scaled by numpy and written back into the slice.
    Returns the (n, T, Q) predictions; FloatingPointError names the first
    non-finite step. The oracle of `autoregressive_predict`."""
    cfg, L = model.config, model.config.lookback
    gain, offset = model.scaler.vectors(model.input_channels)
    scaled = (valid.matrix(model.input_channels) - offset) * gain
    forward, proj = model.model.forward, None
    if model.family == "tide":
        forward = model.model.decode
        proj = model.model.project(model.params,
                                   np.ascontiguousarray(scaled[:, cfg.n_targets:])).data
    plan = capture(forward, model.params, *window_views(model, scaled, proj, L))
    cols = [model.input_channels.index(c) for c in model.target_channels]
    mid = model.quantiles.index(0.5) if model.quantiles else 0
    out = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(L, valid.n):
            y = replay_oracle(plan, *window_views(model, scaled, proj, i))
            y = y.reshape(cfg.horizon, cfg.n_targets, -1) / gain[cols][:, None] \
                + offset[cols][:, None]
            y = np.sort(y, axis=-1)
            if not np.isfinite(y).all():
                raise FloatingPointError(f"non-finite prediction at timestep {i - L}")
            out.append(y[0])
            scaled[i, cols] = (y[0, :, mid] - offset[cols]) * gain[cols]
    return np.array(out)


def simulate_oracle(K, Ta, t0, p) -> TimeSeries:
    """The IEC Euler solver as a loop per interval with a nested loop per
    sub-step, each interval's sub-step count and step worked out in Python
    from its length, each state stored into a numpy array, with the same
    checks and messages. The oracle of `iec.simulate`."""
    if len(K) != len(Ta) or (K.timestamps != Ta.timestamps).any():
        raise ValueError("load and ambient series are not aligned")
    t0 = check_real("simulate", "t0", t0)
    for row, value in enumerate(Ta.values.tolist()):
        if not np.isfinite(value):
            raise ValueError(f"simulate: ambient at row {row} is {value}, not finite")
    drive = (load_bracket(K.values, p) * p.delta_t_or_k).tolist()
    ta = Ta.values.tolist()
    ts = K.timestamps.tolist()
    out = np.empty(len(K), dtype=np.float64)
    out[0] = t_oil = float(t0)
    for i in range(1, len(K)):
        gap_s = ts[i] - ts[i - 1]
        n_sub = math.ceil(gap_s / (30.0 * p.tau_w_min))   # dt = gap / n <= tau_w / 2
        alpha = gap_s / n_sub / 60.0 / (p.k11 * p.tau_o_min)
        d = drive[i - 1]
        a = ta[i - 1]
        for _ in range(n_sub):
            t_oil += alpha * (d - (t_oil - a))
        out[i] = t_oil
    if not np.isfinite(out).all():
        bad = int(np.argmax(~np.isfinite(out)))
        raise FloatingPointError(f"solver diverged at step {bad}")
    return TimeSeries(K.timestamps, out)


def ar1_oracle(eps, ar_coeff) -> np.ndarray:
    """Hourly AR(1) noise stored per index into a numpy array, starting at 0
    and ignoring eps[0]. The oracle of the ambient noise in
    `synth.gen_profiles`."""
    noise = np.zeros(len(eps))
    for i in range(1, len(eps)):
        noise[i] = ar_coeff * noise[i - 1] + eps[i]
    return noise


def mql(y, y_hat, alpha) -> float:
    """Mean pinball loss over a sample; for several levels, the unweighted
    average of the per-level means. The oracle of the quantile loss."""
    y, y_hat = _pair(y, y_hat)
    alphas = (alpha,) if np.isscalar(alpha) else tuple(alpha)
    return float(np.mean([np.mean(pinball(y, y_hat, a)) for a in alphas]))


def seeded_backward(output, params, seed) -> dict[str, np.ndarray]:
    """`backward` with the output gradient `seed` in place of ones: the
    gradients of sum(output * seed). The product's VJP passes `seed` on
    unchanged, so the bytes are those of a backward pass seeded with it; the
    product's own value, which may overflow, is never read."""
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = output * Tensor(seed)
    return backward(weighted, params)


def finite_difference_grads(make_loss, params, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar loss over every parameter
    coordinate; the independent oracle for reverse-mode gradients."""
    out = {}
    for name, t in params.items():
        flat = t.data.ravel()
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(make_loss().data)
            flat[i] = orig - h
            lm = float(make_loss().data)
            flat[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        out[name] = g.reshape(t.data.shape)
    return out


def max_rel_err(make_loss, params, h: float = 1e-5, abs_floor: float = 1e-8) -> float:
    """Worst relative error between reverse-mode and finite-difference
    gradients over all parameters.

    Absolute gaps at or below `abs_floor` pass outright: central differences
    carry ~1e-11 cancellation noise, which would otherwise swamp the relative
    comparison on coordinates whose true gradient is zero.
    """
    rev = backward(make_loss(), params)
    fd = finite_difference_grads(make_loss, params, h)
    worst = 0.0
    for name in params:
        a, b = rev[name].ravel(), fd[name].ravel()
        gap = np.abs(a - b)
        mask = gap > abs_floor
        if mask.any():
            rel = gap[mask] / np.maximum(np.abs(a[mask]), np.abs(b[mask]))
            worst = max(worst, float(np.max(rel)))
    return worst
