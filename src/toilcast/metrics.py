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


def _no_overflow(metric: str, fn, a, b):
    """`fn(a, b)` computed with overflow ignored; FloatingPointError naming
    `metric` where the result is infinite though the values it reads are
    finite (all of them, for a mean), so float64 overflowed on the way."""
    with np.errstate(over="ignore"):
        out = fn(a, b)
    finite = np.isfinite(a) & np.isfinite(b)
    if np.ndim(out) == 0:
        finite = finite.all()
    if (np.isinf(out) & finite).any():
        raise FloatingPointError(f"{metric}: finite inputs overflow float64 (largest |value| "
                                 f"{max(np.abs(a).max(), np.abs(b).max()):.3g})")
    return out


def mae(y, y_hat) -> float:
    """Mean absolute error; FloatingPointError when finite inputs overflow it."""
    return float(_no_overflow("mae", lambda y, y_hat: np.mean(np.abs(y - y_hat)),
                              *_pair(y, y_hat)))


def mse(y, y_hat) -> float:
    """Mean squared error; FloatingPointError when finite inputs overflow it."""
    return float(_no_overflow("mse", lambda y, y_hat: np.mean((y - y_hat) ** 2),
                              *_pair(y, y_hat)))


def pinball(y, y_hat, alpha: float):
    """max(alpha * (y - y_hat), (alpha - 1) * (y - y_hat)).

    Underestimates cost alpha per unit, overestimates 1 - alpha; the
    minimizing constant is the alpha-quantile. FloatingPointError where
    finite inputs overflow it.
    """
    check_real("pinball", "alpha", alpha, "> 0", "< 1")

    def loss(y, y_hat):
        d = y - y_hat
        return np.maximum(alpha * d, (alpha - 1.0) * d)

    out = _no_overflow("pinball", loss, np.asarray(y, dtype=np.float64),
                       np.asarray(y_hat, dtype=np.float64))
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
    """Mean of upper - lower; FloatingPointError when finite bounds overflow it."""
    return float(_no_overflow("mean_interval_width", lambda lower, upper: np.mean(upper - lower),
                              *_interval(lower, upper)))

