"""Forecasting architectures: MLP, TCN, and TiDE.

Each model maps a flattened look-back window (plus, for TiDE, covariates over
the forecast steps) to horizon * n_targets * n_quantile output values. Point
models are the degenerate single-quantile case.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import nn
from .autodiff import Tensor, as_tensor, causal_conv1d, concat, no_grad, reshape
from .metrics import validate_quantiles
from .series import AffineScaler


class _ModelConfig:
    """Validation and output sizing shared by the three family configs, each
    a frozen dataclass that names its fields that must be >= 1 in `_positive`."""

    _positive = ()

    def __post_init__(self):
        for name in self._positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{type(self).__name__}.{name} must be >= 1")
        object.__setattr__(self, "quantiles",
                           validate_quantiles(self.quantiles) if self.quantiles else ())

    @property
    def n_quantiles(self) -> int:
        return max(1, len(self.quantiles))

    @property
    def n_outputs(self) -> int:
        return self.horizon * self.n_targets * self.n_quantiles


@dataclass(frozen=True)
class MlpConfig(_ModelConfig):
    n_layers: int = 4
    n_neurons: int = 64
    lookback: int = 48
    n_channels: int = 3
    n_targets: int = 1
    horizon: int = 1
    activation: str = "relu"
    quantiles: tuple[float, ...] = ()

    _positive = ("n_layers", "n_neurons", "lookback", "n_channels", "n_targets", "horizon")


@dataclass(frozen=True)
class TcnConfig(_ModelConfig):
    kernel: int = 2
    n_filters: int = 16
    n_blocks: int | None = None   # None: smallest stack whose receptive field covers L
    lookback: int = 48
    n_channels: int = 3
    n_targets: int = 1
    horizon: int = 1
    activation: str = "relu"
    quantiles: tuple[float, ...] = ()
    dropout: float = 0.0          # regularization switches, off by default
    weight_norm: bool = False

    _positive = ("kernel", "n_filters", "lookback", "n_channels", "n_targets", "horizon")


@dataclass(frozen=True)
class TideConfig(_ModelConfig):
    temporal_width: int = 4           # covariate projection size r-tilde
    decoder_output_dim: int = 8       # p: per-step decoded vector size
    temporal_decoder_hidden: int = 8
    hidden_size: int = 32             # width of encoder/decoder residual blocks
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    lookback: int = 48
    horizon: int = 1
    n_targets: int = 1
    n_covariates: int = 2
    n_static: int = 0                 # kept for checkpoints; must be 0
    activation: str = "relu"
    quantiles: tuple[float, ...] = ()
    dropout: float = 0.0          # regularization switches, off by default
    use_layer_norm: bool = False

    _positive = ("temporal_width", "decoder_output_dim", "temporal_decoder_hidden",
                 "hidden_size", "n_encoder_layers", "n_decoder_layers", "lookback",
                 "horizon", "n_targets", "n_covariates")

    def __post_init__(self):
        super().__post_init__()
        if self.n_static != 0:
            raise ValueError(f"TideConfig.n_static must be 0 (static covariates are "
                             f"not supported), got {self.n_static}")

    @property
    def n_channels(self) -> int:
        return self.n_targets + self.n_covariates


# -------- MLP --------

class Mlp:
    """Fully connected stack: n_layers hidden layers of n_neurons, then a
    linear head over the flattened look-back."""

    def __init__(self, cfg: MlpConfig):
        self.cfg = cfg

    def init_params(self, seed: int) -> dict[str, Tensor]:
        rng = nn.rng_from_seed(seed, 0)
        params: dict[str, Tensor] = {}
        n_in = self.cfg.lookback * self.cfg.n_channels
        for i in range(self.cfg.n_layers):
            nn.init_linear(params, rng, f"hidden{i}", n_in, self.cfg.n_neurons)
            n_in = self.cfg.n_neurons
        nn.init_linear(params, rng, "head", n_in, self.cfg.n_outputs)
        return params

    def forward(self, params: dict, x, future=None, rng=None) -> Tensor:
        h = as_tensor(x)
        for i in range(self.cfg.n_layers):
            h = nn.dense(h, params, f"hidden{i}", self.cfg.activation)
        return nn.linear(h, params, "head")


# -------- TCN --------

def _rf(kernel: int, n_blocks: int, convs_per_block: int = 2) -> int:
    # dilation doubles per block: sum of 1, 2, 4, ... is 2^blocks - 1
    return 1 + (kernel - 1) * convs_per_block * (2 ** n_blocks - 1)


def _resolve_blocks(cfg: TcnConfig) -> int:
    """The configured block count, or else the smallest stack whose receptive
    field covers the look-back."""
    if cfg.n_blocks is not None:
        return cfg.n_blocks
    if cfg.kernel < 2:
        if cfg.lookback == 1:
            return 1
        raise ValueError("kernel=1 convolutions are pointwise; receptive field "
                         f"cannot reach lookback {cfg.lookback}")
    b = 1
    while _rf(cfg.kernel, b) < cfg.lookback:
        b += 1
    return b


def receptive_field(cfg: TcnConfig) -> int:
    """Past steps visible to the final output: 1 + (k-1) * convs_per_block *
    sum of dilations."""
    return _rf(cfg.kernel, _resolve_blocks(cfg))


class Tcn:
    """Stack of residual blocks of two dilated causal convolutions each,
    dilation doubling per block; forecast read from the last timestep."""

    def __init__(self, cfg: TcnConfig):
        self.cfg = cfg
        self.n_blocks = _resolve_blocks(cfg)
        rf = _rf(cfg.kernel, self.n_blocks)
        if rf < cfg.lookback:
            raise ValueError(f"receptive field {rf} < lookback {cfg.lookback}; "
                             "increase n_blocks or kernel")

    def init_params(self, seed: int) -> dict[str, Tensor]:
        rng = nn.rng_from_seed(seed, 0)
        params: dict[str, Tensor] = {}
        n_in = self.cfg.n_channels
        for i in range(self.n_blocks):
            nn.init_conv(params, rng, f"block{i}.conv1", self.cfg.kernel, n_in,
                         self.cfg.n_filters, self.cfg.weight_norm)
            nn.init_conv(params, rng, f"block{i}.conv2", self.cfg.kernel,
                         self.cfg.n_filters, self.cfg.n_filters, self.cfg.weight_norm)
            if n_in != self.cfg.n_filters:
                nn.init_conv(params, rng, f"block{i}.skip", 1, n_in, self.cfg.n_filters)
            n_in = self.cfg.n_filters
        nn.init_linear(params, rng, "head", self.cfg.n_filters, self.cfg.n_outputs)
        return params

    def _features(self, params: dict, x, rng=None, last_only: bool = False) -> Tensor:
        """Block outputs, (B, n, n_filters).

        By default every block computes all n = L positions, block i with
        dilation 2^i. With `last_only`, block i computes only the positions
        the last step's output reads: those congruent to L-1 mod 2^i, with
        dilation 1 in those coordinates. A tap that reaches before the start
        does so in both coordinates, so the last position is the same.
        Dropout masks are drawn at the full (B, L, n_filters) shape either
        way, so one seed gives one stream of masks.
        """
        x = as_tensor(x)
        B, L = x.shape[0], self.cfg.lookback
        h = reshape(x, (B, L, self.cfg.n_channels))
        act = nn.activation(self.cfg.activation)
        rate, mask_shape = self.cfg.dropout, (B, L, self.cfg.n_filters)
        for i in range(self.n_blocks):
            stride = 2 ** i
            d, keep = stride, ...
            if last_only:
                if i:  # every other position, ending at the last
                    h = h[:, (h.shape[1] - 1) % 2::2]
                d, keep = 1, (slice(None), slice((L - 1) % stride, None, stride))
            h1 = act(causal_conv1d(h, nn.conv_kernel(params, f"block{i}.conv1"),
                                   params[f"block{i}.conv1.b"], d))
            h1 = nn.dropout(h1, rate, rng, mask_shape, keep)
            h2 = causal_conv1d(h1, nn.conv_kernel(params, f"block{i}.conv2"),
                               params[f"block{i}.conv2.b"], d)
            h2 = nn.dropout(h2, rate, rng, mask_shape, keep)
            if f"block{i}.skip.w" in params:
                skip = causal_conv1d(h, params[f"block{i}.skip.w"],
                                     params[f"block{i}.skip.b"], 1)
            else:
                skip = h
            h = h2 + skip
        return h

    def forward(self, params: dict, x, future=None, rng=None) -> Tensor:
        h = self._features(params, x, rng, last_only=True)
        return nn.linear(h[:, -1, :], params, "head")

    def forward_sequence(self, params: dict, x) -> Tensor:
        """Per-timestep head readout, (B, L, n_outputs); used to probe
        causality."""
        return nn.linear(self._features(params, x), params, "head")


# -------- TiDE --------

class Tide:
    """Dense encoder-decoder with per-step covariate projection, a temporal
    decoder over each horizon step, and a global linear residual of the
    look-back."""

    def __init__(self, cfg: TideConfig):
        self.cfg = cfg

    def init_params(self, seed: int) -> dict[str, Tensor]:
        cfg = self.cfg
        rng = nn.rng_from_seed(seed, 0)
        params: dict[str, Tensor] = {}
        ln = cfg.use_layer_norm
        nn.init_residual_block(params, rng, "proj", cfg.n_covariates, cfg.hidden_size,
                               cfg.temporal_width, ln)
        enc_in = (cfg.lookback * cfg.n_targets
                  + (cfg.lookback + cfg.horizon) * cfg.temporal_width)
        for i in range(cfg.n_encoder_layers):
            nn.init_residual_block(params, rng, f"encoder{i}",
                                   enc_in if i == 0 else cfg.hidden_size,
                                   cfg.hidden_size, cfg.hidden_size, ln)
        for i in range(cfg.n_decoder_layers):
            out = cfg.decoder_output_dim * cfg.horizon if i == cfg.n_decoder_layers - 1 \
                else cfg.hidden_size
            nn.init_residual_block(params, rng, f"decoder{i}", cfg.hidden_size,
                                   cfg.hidden_size, out, ln)
        nn.init_residual_block(params, rng, "temporal",
                               cfg.decoder_output_dim + cfg.temporal_width,
                               cfg.temporal_decoder_hidden,
                               cfg.n_targets * cfg.n_quantiles, ln)
        nn.init_linear(params, rng, "global", cfg.lookback * cfg.n_targets,
                       cfg.n_outputs)
        return params

    def _block(self, h, params: dict, prefix: str, rng) -> Tensor:
        return nn.residual_block(h, params, prefix, self.cfg.activation, self.cfg.dropout, rng)

    def project(self, params: dict, cov, rng=None) -> Tensor:
        """Per-timestep feature projection of scaled covariates, (..., r) ->
        (..., temporal_width). It is pointwise in time, so one call over a
        whole slice gives the rows of every window in it."""
        proj = self._block(reshape(cov, (-1, self.cfg.n_covariates)), params, "proj", rng)
        return reshape(proj, (*cov.shape[:-1], self.cfg.temporal_width))

    def forward(self, params: dict, x, future=None, rng=None) -> Tensor:
        cfg = self.cfg
        if future is None:
            raise ValueError("TiDE requires covariates over the forecast steps")
        x = as_tensor(x)
        future = as_tensor(future)
        if future.shape[-1] != cfg.horizon * cfg.n_covariates:
            raise ValueError(f"future covariates cover {future.shape[-1]} values, "
                             f"need horizon*n_covariates = {cfg.horizon * cfg.n_covariates}")
        B, T, r = x.shape[0], cfg.n_targets, cfg.n_covariates
        x3 = reshape(x, (B, cfg.lookback, T + r))
        cov = concat([x3[:, :, T:], reshape(future, (B, cfg.horizon, r))], axis=1)
        return self.decode(params, x3, self.project(params, cov, rng), rng)

    def decode(self, params: dict, x3: Tensor, proj: Tensor, rng=None) -> Tensor:
        """The forecast from a scaled (B, L, T + r) look-back, targets first,
        and the projection of its L + H covariate rows, (B, L + H,
        temporal_width)."""
        cfg = self.cfg
        B = x3.shape[0]
        L, H, T = cfg.lookback, cfg.horizon, cfg.n_targets

        y_flat = reshape(x3[:, :, :T], (B, L * T))            # target look-back
        e = concat([y_flat, reshape(proj, (B, (L + H) * cfg.temporal_width))], axis=1)
        for i in range(cfg.n_encoder_layers):
            e = self._block(e, params, f"encoder{i}", rng)

        g = e
        for i in range(cfg.n_decoder_layers):
            g = self._block(g, params, f"decoder{i}", rng)
        D = reshape(g, (B, H, cfg.decoder_output_dim))

        steps = []
        for t in range(H):
            td_in = concat([D[:, t, :], proj[:, L + t, :]], axis=1)
            y_t = self._block(td_in, params, "temporal", rng)
            steps.append(reshape(y_t, (B, 1, T * cfg.n_quantiles)))
        decoded = reshape(concat(steps, axis=1), (B, cfg.n_outputs))

        return decoded + nn.linear(y_flat, params, "global")


# -------- shared --------

FAMILIES = {"ann": (MlpConfig, Mlp), "tcn": (TcnConfig, Tcn), "tide": (TideConfig, Tide)}


def _family(family: str):
    """The (config class, model class) pair of a family name."""
    if family not in FAMILIES:
        raise ValueError(f"unknown model family '{family}' (expected one of {sorted(FAMILIES)})")
    return FAMILIES[family]


def build_model(family: str, cfg):
    return _family(family)[1](cfg)


def config_from_dict(family: str, raw: dict):
    cls = _family(family)[0]
    known = cls.__dataclass_fields__
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
    cleaned = {k: (tuple(v) if k == "quantiles" else v) for k, v in raw.items()}
    return cls(**cleaned)


def enforce_non_crossing(q: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sort per-quantile outputs ascending along the quantile axis.

    Idempotent; leaves already-monotone slices untouched.
    """
    return np.sort(np.asarray(q, dtype=np.float64), axis=axis)


@dataclass
class TrainedModel:
    """Architecture config plus learned parameters and the feature scaler,
    ready for autoregressive prediction in raw units."""

    family: str
    config: MlpConfig | TcnConfig | TideConfig
    params: dict[str, Tensor]
    input_channels: tuple[str, ...]
    target_channels: tuple[str, ...]
    scaler: AffineScaler
    seed: int
    config_hash: str = ""
    _model: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.input_channels = tuple(self.input_channels)
        self.target_channels = tuple(self.target_channels)
        if len(self.input_channels) != getattr(self.config, "n_channels"):
            raise ValueError(f"config expects {self.config.n_channels} input channels, "
                             f"got {self.input_channels}")
        if len(self.target_channels) != self.config.n_targets:
            raise ValueError(f"config expects {self.config.n_targets} targets, "
                             f"got {self.target_channels}")
        if not self.config_hash:
            self.config_hash = config_fingerprint(self)

    @property
    def quantiles(self) -> tuple[float, ...]:
        return self.config.quantiles

    @property
    def model(self):
        if self._model is None:
            self._model = build_model(self.family, self.config)
        return self._model

    @property
    def covariate_channels(self) -> tuple[str, ...]:
        return tuple(c for c in self.input_channels if c not in self.target_channels)

    @cached_property
    def _scaling(self) -> tuple[np.ndarray, ...]:
        """Gain and offset vectors of the input channels, the columns of the
        target channels among them, and the target vectors: the scaler's map
        as arrays, built once."""
        gain, offset = self.scaler.vectors(self.input_channels)
        cols = np.array([self.input_channels.index(c) for c in self.target_channels])
        return gain, offset, cols, gain[cols], offset[cols]

    def prepare(self, matrix: np.ndarray) -> tuple:
        """The per-slice work of a forecast over a raw-unit (n, C) input
        matrix: the matrix scaled once and, for TiDE, the covariates of every
        row projected once. `step` reads windows of the result and `feed`
        writes fed-back targets into it."""
        gain, offset = self._scaling[:2]
        scaled = (np.asarray(matrix, dtype=np.float64) - offset) * gain
        proj = None
        if self.family == "tide":
            cov = np.ascontiguousarray(scaled[:, self.config.n_targets:])
            with no_grad():
                proj = self.model.project(self.params, cov).data
        return scaled, proj

    def step(self, prepared: tuple, i: int) -> np.ndarray:
        """One forward pass, recording no tape, on rows i-L .. i-1 of a
        prepared slice (TiDE also reads the covariates of rows i .. i+H-1);
        returns (H, T, Q) predictions in raw units with non-crossing
        enforced."""
        scaled, proj = prepared
        cfg = self.config
        x = scaled[None, i - cfg.lookback: i]
        with no_grad():
            if proj is None:
                out = self.model.forward(self.params, Tensor(x.reshape(1, -1)))
            else:
                rows = proj[None, i - cfg.lookback: i + cfg.horizon]
                out = self.model.decode(self.params, Tensor(x), Tensor(rows))
        tgt_gain, tgt_off = self._scaling[3:]
        out = out.data.reshape(cfg.horizon, cfg.n_targets, cfg.n_quantiles)
        raw = out / tgt_gain[:, None] + tgt_off[:, None]
        return enforce_non_crossing(raw) if cfg.n_quantiles > 1 else raw

    def feed(self, prepared: tuple, i: int, targets: np.ndarray) -> None:
        """Write raw-unit target values into row i of a prepared slice,
        scaled as `prepare` scales the matrix."""
        _, _, cols, tgt_gain, tgt_off = self._scaling
        prepared[0][i, cols] = (targets - tgt_off) * tgt_gain

    def predict_window(self, window: np.ndarray, future: np.ndarray | None = None) -> np.ndarray:
        """`step` on one prepared raw-unit (L, C) window, plus for TiDE the
        (H, n_covariates) covariates over the forecast steps."""
        cfg = self.config
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (cfg.lookback, len(self.input_channels)):
            raise ValueError(f"window shape {window.shape} != "
                             f"({cfg.lookback}, {len(self.input_channels)})")
        if self.family == "tide":
            if future is None:
                raise ValueError("TiDE prediction needs covariates over the forecast steps")
            window = np.vstack([window, np.zeros((cfg.horizon, window.shape[1]))])
            window[cfg.lookback:, cfg.n_targets:] = np.reshape(future, (cfg.horizon, -1))
        return self.step(self.prepare(window), cfg.lookback)


def _description(model: TrainedModel) -> dict:
    """Everything but the parameters: the document the config hash covers
    and the body of a checkpoint."""
    return {
        "family": model.family,
        "config": asdict(model.config),
        "input_channels": list(model.input_channels),
        "target_channels": list(model.target_channels),
        "scaling": {n: {"gain": g, "offset": o} for n, (g, o) in sorted(model.scaler.channels.items())},
        "seed": model.seed,
    }


def config_fingerprint(model: TrainedModel) -> str:
    blob = json.dumps(_description(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


CHECKPOINT_FORMAT = "toilcast-checkpoint-v1"


def save_checkpoint(path, model: TrainedModel) -> None:
    """Write the trained model as deterministic JSON: named parameter arrays
    (base64 little-endian float64), shapes, config, and the config hash."""
    doc = _description(model)
    doc["format"] = CHECKPOINT_FORMAT
    doc["config_hash"] = model.config_hash
    doc["params"] = {
        name: {
            "shape": list(t.data.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(t.data, dtype="<f8").tobytes()).decode("ascii"),
        }
        for name, t in sorted(model.params.items())
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint written by `save_checkpoint`.

    The stored config hash must equal the fingerprint recomputed from the
    file, and the parameter names and shapes must be the ones the
    architecture initializes; otherwise ValueError names the field or
    parameter that differs.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    cfg = config_from_dict(doc["family"], doc["config"])
    scaler = AffineScaler({n: (c["gain"], c["offset"]) for n, c in doc["scaling"].items()})
    params: dict[str, Tensor] = {}
    model = TrainedModel(doc["family"], cfg, params, tuple(doc["input_channels"]),
                         tuple(doc["target_channels"]), scaler, doc["seed"],
                         doc["config_hash"])
    fingerprint = config_fingerprint(model)
    if model.config_hash != fingerprint:
        raise ValueError(f"{path}: config_hash {model.config_hash[:12]} does not match the "
                         f"fingerprint {fingerprint[:12]} of the stored family, config, "
                         "channels, scaling and seed")
    expected = {n: t.data.shape for n, t in model.model.init_params(model.seed).items()}
    stored = doc["params"]
    missing, unexpected = sorted(set(expected) - set(stored)), sorted(set(stored) - set(expected))
    if missing or unexpected:
        raise ValueError(f"{path}: parameters differ from the {model.family} architecture: "
                         f"missing {missing}, unexpected {unexpected}")
    for name, entry in stored.items():
        shape = tuple(entry["shape"])
        if shape != expected[name]:
            raise ValueError(f"{path}: parameter '{name}' has shape {shape}, the "
                             f"architecture expects {expected[name]}")
        raw, size = base64.b64decode(entry["data"]), math.prod(shape)
        if len(raw) != 8 * size:
            raise ValueError(f"{path}: parameter '{name}' holds {len(raw)} bytes, "
                             f"shape {shape} needs {8 * size}")
        data = np.frombuffer(raw, dtype="<f8").reshape(shape)
        params[name] = Tensor(data.copy(), requires_grad=True, name=name)
    return model
