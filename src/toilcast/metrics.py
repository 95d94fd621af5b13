"""Point and quantile losses plus prediction-interval metrics."""

from __future__ import annotations

import numpy as np

from .series import check_real


def validate_quantiles(alphas) -> tuple[float, ...]:
    if not isinstance(alphas, (list, tuple)):
        raise ValueError(f"quantiles must be a list of levels, got {alphas!r}")
    alphas = tuple(check_real("quantiles", "level", a, "> 0", "< 1") for a in alphas)
    if not alphas:
        raise ValueError("quantile loss needs at least one level")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"quantile levels must be strictly increasing, got {alphas}")
    return alphas


def _pair(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    return y, y_hat


def mae(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def mse(y, y_hat) -> float:
    """Mean squared error; FloatingPointError when finite inputs overflow it."""
    y, y_hat = _pair(y, y_hat)
    with np.errstate(over="ignore"):
        err = y - y_hat
        out = float(np.mean(err ** 2))
    if np.isinf(out) and np.isfinite(y).all() and np.isfinite(y_hat).all():
        raise FloatingPointError(f"mse: the squared error of finite inputs overflows "
                                 f"float64 (largest |y - y_hat| {np.abs(err).max():.3g})")
    return out


def pinball(y, y_hat, alpha: float):
    """max(alpha * (y - y_hat), (alpha - 1) * (y - y_hat)).

    Underestimates cost alpha per unit, overestimates 1 - alpha; the
    minimizing constant is the alpha-quantile.
    """
    check_real("pinball", "alpha", alpha, "> 0", "< 1")
    d = np.asarray(y, dtype=np.float64) - np.asarray(y_hat, dtype=np.float64)
    out = np.maximum(alpha * d, (alpha - 1.0) * d)
    return float(out) if out.ndim == 0 else out


def _interval(lower, upper):
    lower, upper = _pair(lower, upper)
    if (lower > upper).any():
        raise ValueError("crossed interval bounds: sort each row of quantiles first")
    return lower, upper


def picp(y, lower, upper) -> float:
    """Fraction of true values inside [lower, upper], bounds inclusive."""
    lower, upper = _interval(lower, upper)
    y, lower = _pair(y, lower)
    return float(np.mean((y >= lower) & (y <= upper)))


def mean_interval_width(lower, upper) -> float:
    lower, upper = _interval(lower, upper)
    return float(np.mean(upper - lower))

