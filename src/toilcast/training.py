"""Deterministic mini-batch training and hyperparameter grid search."""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import nn
from .autodiff import Tensor, absolute, backward, maximum, mean, reshape
from .metrics import mae, mse
from .models import TrainedModel, build_model, config_from_dict, family_classes
from .rolling import autoregressive_predict
from .series import (AffineScaler, TransformerDataset, WindowSet, check_count, check_object,
                     check_real, make_windows, scale_windows)

TARGET_CHANNELS_SINGLE = ("top_oil",)
TARGET_CHANNELS_MULTI = ("top_oil", "temp_rise")
COVARIATES = ("ambient", "load_factor")


class DivergenceError(RuntimeError):
    """Raised when training hits a non-finite loss."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    max_epochs: int = 200
    learning_rate: float = 1e-4
    seed: int = 0
    loss: str = "point"                       # 'point' (MAE) | 'quantile'
    quantiles: tuple[float, ...] = (0.01, 0.5, 0.99)
    patience: int | None = None               # early stop after this many epochs
                                              # without improvement; off by default

    def __post_init__(self):
        check_count("TrainConfig", "batch_size", self.batch_size)
        check_count("TrainConfig", "max_epochs", self.max_epochs)
        if self.patience is not None:   # None: no early stop
            check_count("TrainConfig", "patience", self.patience)
        check_count("TrainConfig", "seed", self.seed, minimum=0)
        check_real("TrainConfig", "learning_rate", self.learning_rate, ">= 0")
        if self.loss not in ("point", "quantile"):
            raise ValueError(f"loss must be 'point' or 'quantile', got '{self.loss}'")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    wall_time_s: float
    param_checksum: str

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_losses)

    def to_dict(self) -> dict:
        return {"epoch_losses": self.epoch_losses, "epochs_run": self.epochs_run,
                "wall_time_s": self.wall_time_s, "param_checksum": self.param_checksum}


def point_loss(pred: Tensor, y: np.ndarray) -> Tensor:
    """Mean absolute error."""
    return mean(absolute(pred - Tensor(y)))


def quantile_loss(pred: Tensor, y: np.ndarray, alphas: tuple[float, ...]) -> Tensor:
    """Mean pinball loss averaged over the quantile levels.

    pred carries len(alphas) slots per target value, quantile-minor; y holds
    the target values.
    """
    n_q = len(alphas)
    B = y.shape[0]
    p3 = reshape(pred, (B, y.size // B, n_q))
    diff = Tensor(y.reshape(B, -1, 1)) - p3
    a = np.asarray(alphas, dtype=np.float64)
    return mean(maximum(diff * a, diff * (a - 1.0)))


def train(model, params: dict[str, Tensor], windows: WindowSet,
          cfg: TrainConfig) -> TrainReport:
    """Run up to max_epochs of seeded shuffled mini-batches, updating
    `params` in place; aborts on a non-finite loss. ValueError, before the
    first batch, if the model's head does not fit the loss and the targets."""
    n = windows.n_windows
    if n == 0:
        raise ValueError("empty window set")
    quantiles = cfg.quantiles if cfg.loss == "quantile" else ()
    if model.cfg.quantiles != quantiles:
        raise ValueError(f"model head quantiles {model.cfg.quantiles} do not match the "
                         f"{cfg.loss} loss, which needs quantiles {quantiles}")
    width = windows.targets.shape[1]
    need = width * max(1, len(quantiles))
    if model.cfg.n_outputs != need:
        raise ValueError(f"model head has {model.cfg.n_outputs} outputs, the {cfg.loss} "
                         f"loss on {width} target values per window needs {need}")

    rng = nn.rng_from_seed(cfg.seed, 1)
    dropout_rng = nn.rng_from_seed(cfg.seed, 2) if getattr(model.cfg, "dropout", 0.0) > 0 \
        else None
    opt_state = nn.AdamState(learning_rate=cfg.learning_rate)

    t_start = time.perf_counter()
    epoch_losses: list[float] = []
    best = np.inf
    stale = 0
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for bi, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo: lo + cfg.batch_size]
            xb = windows.inputs[idx]
            yb = windows.targets[idx]
            fb = Tensor(windows.future_cov[idx]) if windows.future_cov is not None else None
            pred = model.forward(params, Tensor(xb), fb, rng=dropout_rng)
            if cfg.loss == "quantile":
                loss = quantile_loss(pred, yb, cfg.quantiles)
            else:
                loss = point_loss(pred, yb)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergenceError(epoch, bi)
            grads = backward(loss, params)
            nn.adam_update(params, grads, opt_state)
            loss_sum += value * len(idx)
        epoch_losses.append(loss_sum / n)
        if cfg.patience is not None:
            if epoch_losses[-1] < best - 1e-12:
                best, stale = epoch_losses[-1], 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    return TrainReport(epoch_losses, time.perf_counter() - t_start,
                       nn.param_checksum(params))


def fit_dataset(family: str, model_cfg, train_ds: TransformerDataset,
                scaler: AffineScaler, cfg: TrainConfig) -> tuple[TrainedModel, TrainReport]:
    """Window, scale, and train one model on a dataset slice; the first
    `model_cfg.n_targets` of TARGET_CHANNELS_MULTI are its targets."""
    if model_cfg.n_targets > len(TARGET_CHANNELS_MULTI):
        raise ValueError(f"n_targets {model_cfg.n_targets} exceeds the "
                         f"{len(TARGET_CHANNELS_MULTI)} target channels {TARGET_CHANNELS_MULTI}")
    targets = TARGET_CHANNELS_MULTI[:model_cfg.n_targets]
    inputs = targets + COVARIATES
    future = COVARIATES if family == "tide" else ()
    ws = make_windows(train_ds, model_cfg.lookback, model_cfg.horizon,
                      inputs, targets, future)
    ws = scale_windows(ws, scaler)
    model = build_model(family, model_cfg)
    params = model.init_params(cfg.seed)
    report = train(model, params, ws, cfg)
    trained = TrainedModel(family, model_cfg, params, inputs, targets, scaler, cfg.seed)
    return trained, report


# -------- grid search --------

@dataclass(frozen=True)
class GridSpec:
    """Cartesian hyperparameter grid crossed with a set of look-back windows,
    enumerated in deterministic (sorted-key) order."""

    family: str
    param_values: dict[str, tuple]
    lookbacks: tuple[int, ...] = (24, 48, 96)

    def __post_init__(self):
        def values(name, vals) -> tuple:
            if not isinstance(vals, (list, tuple)) or not vals:
                raise ValueError(f"grid value '{name}' must be a non-empty list, got {vals!r}")
            return tuple(vals)
        raw = check_object(f"grid.{self.family}", self.param_values,
                           family_classes(self.family)[0].__dataclass_fields__)
        object.__setattr__(self, "param_values", {k: values(k, v) for k, v in raw.items()})
        # stored as ints: a numpy integer would not serialize into a trial's params JSON
        object.__setattr__(self, "lookbacks", tuple(
            check_count("GridSpec", "lookbacks", lb) for lb in values("lookbacks", self.lookbacks)))

    def enumerate(self) -> list[dict]:
        keys = sorted(self.param_values)
        combos = []
        for lookback in self.lookbacks:
            for values in itertools.product(*(self.param_values[k] for k in keys)):
                combo = dict(zip(keys, values))
                combo["lookback"] = lookback
                combos.append(combo)
        return combos

    @property
    def n_trials(self) -> int:
        return len(self.enumerate())


@dataclass
class TrialResult:
    trial_id: int
    family: str
    params: dict
    lookback: int
    val_mae: float | None
    val_mse: float | None
    status: str                      # 'ok' | 'failed'
    error: str | None = None
    n_params: int | None = None

    def params_json(self) -> str:
        return json.dumps(self.params, sort_keys=True, separators=(",", ":"))


def grid_search(grid: GridSpec, base_cfg, train_ds: TransformerDataset,
                valid_ds: TransformerDataset, scaler: AffineScaler,
                train_cfg: TrainConfig, on_trial=None) -> list[TrialResult]:
    """Train and score every grid configuration. A trial that fails with a
    ValueError, FloatingPointError or DivergenceError is recorded, with the
    exception type, and the search goes on; any other exception propagates.
    Scoring is autoregressive validation MAE on the primary target (the
    median trace for quantile models). Results return ranked ascending.
    """
    combos = grid.enumerate()
    results: list[TrialResult] = []
    base = asdict(base_cfg)
    for trial_id, combo in enumerate(combos):
        overrides = dict(base)
        overrides.update(combo)
        trial_train = replace(
            train_cfg,
            seed=int(np.random.SeedSequence((train_cfg.seed, trial_id)).generate_state(1)[0]),
        )
        try:
            cfg = config_from_dict(grid.family, overrides)
            trained, _ = fit_dataset(grid.family, cfg, train_ds, scaler, trial_train)
            trace = autoregressive_predict(trained, valid_ds)
            truth = valid_ds.channel(trained.target_channels[0]).values[cfg.lookback:]
            result = TrialResult(trial_id, grid.family, combo, combo["lookback"],
                                 mae(truth, trace.values[:, 0]),
                                 mse(truth, trace.values[:, 0]), "ok",
                                 n_params=nn.n_params(trained.params))
        except (ValueError, FloatingPointError, DivergenceError) as exc:
            # a trial's invalid config or numeric failure; a bug still raises
            result = TrialResult(trial_id, grid.family, combo, combo["lookback"],
                                 None, None, "failed",
                                 error=f"{type(exc).__name__}: {exc}")
        results.append(result)
        if on_trial is not None:
            on_trial(result)
    return rank_trials(results)


def rank_trials(results: list[TrialResult]) -> list[TrialResult]:
    """Scored trials ascending by validation MAE (ties: fewer parameters,
    then config order); failed trials trail."""
    def key(r: TrialResult):
        failed = r.status != "ok"
        return (failed, r.val_mae if not failed else np.inf,
                r.n_params if r.n_params is not None else np.inf, r.params_json())

    return sorted(results, key=key)


def select_best(ranked: list[TrialResult]) -> TrialResult:
    for r in rank_trials(ranked):
        if r.status == "ok":
            return r
    raise ValueError("all grid trials failed")
