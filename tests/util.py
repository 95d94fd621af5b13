"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from toilcast.autodiff import backward
from toilcast.metrics import _pair, pinball
from toilcast.series import CHANNELS, STEP_5MIN_S, AffineScaler, TimeSeries, TransformerDataset

IDENTITY = AffineScaler({n: (1.0, 0.0) for n in CHANNELS})


def make_dataset(n: int, start: int = 1_600_000_000, seed: int = 0,
                 step: int = STEP_5MIN_S) -> TransformerDataset:
    """Random but valid dataset on a uniform grid."""
    rng = np.random.default_rng(seed)
    ts = start + step * np.arange(n, dtype=np.int64)
    top = TimeSeries(ts, 40.0 + 5.0 * rng.standard_normal(n), step)
    amb = TimeSeries(ts, 10.0 + 3.0 * rng.standard_normal(n), step)
    load = TimeSeries(ts, rng.uniform(0.1, 1.2, n), step)
    return TransformerDataset.from_channels(top, amb, load)


def relu_oracle(a) -> np.ndarray:
    """max(a, 0) with NaN mapped to 0: the oracle of `autodiff.relu`."""
    return np.where(a > 0, a, 0.0)


def mql(y, y_hat, alpha) -> float:
    """Mean pinball loss over a sample; for several levels, the unweighted
    average of the per-level means. The oracle of the quantile loss."""
    y, y_hat = _pair(y, y_hat)
    alphas = (alpha,) if np.isscalar(alpha) else tuple(alpha)
    return float(np.mean([np.mean(pinball(y, y_hat, a)) for a in alphas]))


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
