"""Autoregressive one-step evaluation over a validation slice.

Future target measurements are treated as unavailable: after a seed window
of measured values, each model's own predictions replace the measured target
channels in its look-back, while measured ambient and load covariates are
always used. The IEC solver free-runs from the first measured top-oil value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iec import IecParams, simulate
from .metrics import mae, mean_interval_width, mse, picp
from .series import TransformerDataset, format_instant


@dataclass
class ForecastTrace:
    """Per-timestep predictions aligned to the tail of the validation grid."""

    model_id: str
    timestamps: np.ndarray
    target_channels: tuple[str, ...]
    values: np.ndarray                      # (n, n_targets) point predictions
    quantiles: np.ndarray | None = None     # (n, n_targets, n_quantiles)
    alphas: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def interval(self) -> tuple[tuple[float, float], np.ndarray, np.ndarray] | None:
        """The primary target's outermost quantile pair, as ((lower level,
        upper level), lower, upper); None without two quantile levels."""
        if self.quantiles is None or len(self.alphas) < 2:
            return None
        return (self.alphas[0], self.alphas[-1]), self.quantiles[:, 0, 0], self.quantiles[:, 0, -1]


def autoregressive_predict(model, valid: TransformerDataset) -> ForecastTrace:
    """Roll a one-step model over the validation slice.

    The first window seeds from measured targets; thereafter predicted
    targets are fed back while covariates stay measured. Quantile models
    feed back their median (alpha = 0.5) trace: one `model.forecast` over
    the slice.
    """
    L = model.config.lookback
    # an overflow inside a step surfaces as the non-finite check below, which
    # names the step, rather than as a numpy warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        preds = model.forecast(valid.matrix(model.input_channels))   # (n, T, Q)
    finite = np.isfinite(preds).all(axis=(1, 2))
    if not finite.all():
        k = int(finite.argmin())
        raise FloatingPointError(f"non-finite prediction at timestep {k} "
                                 f"({format_instant(valid.timestamps[L + k])})")

    return ForecastTrace(model.family, valid.timestamps[L:].copy(), model.target_channels,
                         preds[:, :, model.median].copy(),
                         preds if model.quantiles else None, model.quantiles)


def iec_predict(params: IecParams, valid: TransformerDataset) -> ForecastTrace:
    """IEC solver trace: seeded at the first measured top-oil value, then
    free-running on measured load factor and ambient."""
    t0 = float(valid.top_oil.values[0])
    traj = simulate(valid.load_factor, valid.ambient, t0, params)
    return ForecastTrace("iec", valid.timestamps.copy(), ("top_oil",),
                         traj.values.reshape(-1, 1))


@dataclass
class EvaluationReport:
    """Per-model, per-target MAE/MSE, plus interval coverage and width for
    quantile models."""

    models: dict[str, dict]
    metadata: dict

    def to_dict(self) -> dict:
        return {"models": self.models, "metadata": self.metadata}


def evaluate(traces: list[ForecastTrace], valid: TransformerDataset) -> EvaluationReport:
    """Score every trace against the measured validation channels.

    Quantile traces report point metrics from the median and PICP / mean
    width over their outermost quantile pair (PI98 for the 0.01/0.99 head).
    """
    models: dict[str, dict] = {}
    for trace in traces:
        offset = valid.n - len(trace)
        if offset < 0 or (valid.timestamps[offset:] != trace.timestamps).any():
            raise ValueError(f"trace '{trace.model_id}' is not aligned with the "
                             "validation grid")
        entry: dict = {"targets": {}}
        for j, name in enumerate(trace.target_channels):
            truth = valid.channel(name).values[offset:]
            entry["targets"][name] = {"mae": mae(truth, trace.values[:, j]),
                                      "mse": mse(truth, trace.values[:, j])}
        if trace.interval is not None:
            levels, lower, upper = trace.interval
            truth = valid.channel(trace.target_channels[0]).values[offset:]
            entry["picp"] = picp(truth, lower, upper)
            entry["mean_interval_width"] = mean_interval_width(lower, upper)
            entry["interval_levels"] = list(levels)
        key, n = trace.model_id, 1
        while key in models:  # keep report keys unique
            key, n = f"{trace.model_id}_{n}", n + 1
        models[key] = entry

    return EvaluationReport(models, {"data_start": format_instant(valid.timestamps[0]),
                                     "data_end": format_instant(valid.timestamps[-1]),
                                     "n_points": int(valid.n)})
