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
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import add, truediv

import numpy as np

from . import nn
from .autodiff import Tensor, as_tensor, capture, causal_conv1d, concat, reshape
from .metrics import validate_quantiles
from .series import (CHANNELS, AffineScaler, check_count, check_flag, check_object, check_real,
                     read_json, strided_windows, write_json)


@dataclass(frozen=True)
class _ModelConfig:
    """The fields, validation and output sizing shared by the three family
    configs. Each family config is a frozen dataclass that adds its own
    fields and extends `_positive`, the integer fields that must be >= 1."""

    lookback: int = 48
    n_targets: int = 1
    horizon: int = 1
    activation: str = "relu"
    quantiles: tuple[float, ...] = ()

    _positive = ("lookback", "n_targets", "horizon")

    def __post_init__(self):
        for name in self._positive:
            check_count(type(self).__name__, name, getattr(self, name))
        check_real(type(self).__name__, "dropout", getattr(self, "dropout", 0.0), ">= 0", "< 1")
        # only an empty list is a point head: 0, false or null are bad levels
        object.__setattr__(self, "quantiles", () if self.quantiles in ((), [])
                           else validate_quantiles(self.quantiles))
        if not isinstance(self.activation, str) or self.activation not in nn._ACTIVATIONS:
            raise ValueError(f"{type(self).__name__}.activation must be one of "
                             f"{sorted(nn._ACTIVATIONS)}, got {self.activation!r}")

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
    n_channels: int = 3

    _positive = _ModelConfig._positive + ("n_layers", "n_neurons", "n_channels")


@dataclass(frozen=True)
class TcnConfig(_ModelConfig):
    kernel: int = 2
    n_filters: int = 16
    n_blocks: int | None = None   # None: smallest stack whose receptive field covers L
    n_channels: int = 3
    dropout: float = 0.0          # regularization switches, off by default
    weight_norm: bool = False

    _positive = _ModelConfig._positive + ("kernel", "n_filters", "n_channels")

    def __post_init__(self):
        super().__post_init__()
        if self.n_blocks is not None:
            check_count("TcnConfig", "n_blocks", self.n_blocks)
        check_flag("TcnConfig", "weight_norm", self.weight_norm)


@dataclass(frozen=True)
class TideConfig(_ModelConfig):
    temporal_width: int = 4           # covariate projection size r-tilde
    decoder_output_dim: int = 8       # p: per-step decoded vector size
    temporal_decoder_hidden: int = 8
    hidden_size: int = 32             # width of encoder/decoder residual blocks
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    n_covariates: int = 2
    n_static: int = 0                 # kept for checkpoints; must be 0
    dropout: float = 0.0          # regularization switches, off by default
    use_layer_norm: bool = False

    _positive = _ModelConfig._positive + (
        "temporal_width", "decoder_output_dim", "temporal_decoder_hidden", "hidden_size",
        "n_encoder_layers", "n_decoder_layers", "n_covariates")

    def __post_init__(self):
        super().__post_init__()
        check_flag("TideConfig", "use_layer_norm", self.use_layer_norm)
        if self.n_static != 0:
            raise ValueError(f"TideConfig.n_static must be 0 (static covariates are "
                             f"not supported), got {self.n_static}")

    @property
    def n_channels(self) -> int:
        return self.n_targets + self.n_covariates


class _Family:
    """What the model classes share: parameters built by `_init_params(rng)`."""

    def __init__(self, cfg):
        self.cfg = cfg

    def init_params(self, seed: int) -> dict[str, Tensor]:
        return self._init_params(nn.rng_from_seed(seed, 0))

    def param_shapes(self) -> dict[str, tuple]:
        """Name -> shape of the parameters `init_params` makes, drawing nothing."""
        return {name: t.shape for name, t in self._init_params(None).items()}


# -------- MLP --------

class Mlp(_Family):
    """Fully connected stack: n_layers hidden layers of n_neurons, then a
    linear head over the flattened look-back."""

    def _init_params(self, rng) -> dict[str, Tensor]:
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

def _rf(kernel: int, n_blocks: int) -> int:
    # two convolutions per block, dilation doubling per block: 1 + 2 + 4 + ... = 2^blocks - 1
    return 1 + (kernel - 1) * 2 * (2 ** n_blocks - 1)


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


class Tcn(_Family):
    """Stack of residual blocks of two dilated causal convolutions each,
    dilation doubling per block; forecast read from the last timestep."""

    def __init__(self, cfg: TcnConfig):
        super().__init__(cfg)
        self.n_blocks = _resolve_blocks(cfg)
        rf = _rf(cfg.kernel, self.n_blocks)
        if rf < cfg.lookback:
            raise ValueError(f"receptive field {rf} < lookback {cfg.lookback}; "
                             "increase n_blocks or kernel")

    def _init_params(self, rng) -> dict[str, Tensor]:
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
        dilation 2^i. With `last_only`, block i runs only on the positions
        the last step's output reads: those congruent to L-1 mod 2^i, with
        dilation 1 in those coordinates. A tap that reaches before the start
        does so in both coordinates, so the last position is the same. Its
        second convolution and skip emit only the positions block i+1 reads,
        every other one ending at the last; the last block emits the last
        two (a one-row product goes to gemv, which rounds unlike the gemm of
        the full path). Dropout masks are drawn at the full (B, L, n_filters)
        shape either way and read at the emitted positions, so one seed gives
        one stream of masks.
        """
        x = as_tensor(x)
        B, L = x.shape[0], self.cfg.lookback
        h = reshape(x, (B, L, self.cfg.n_channels))
        act = nn.activation(self.cfg.activation)
        rate, mask_shape = self.cfg.dropout, (B, L, self.cfg.n_filters)
        n = L   # positions block i reads
        for i in range(self.n_blocks):
            d, start, stride, keep, keep2 = 2 ** i, 0, 1, ..., ...
            if last_only:   # block coordinate j is position first + j * 2^i
                first, d = (L - 1) % 2 ** i, 1
                start, stride = ((n - 1) % 2, 2) if i < self.n_blocks - 1 \
                    else (max(n - 2, 0), 1)
                keep = (slice(None), slice(first, None, 2 ** i))
                keep2 = (slice(None), slice(first + start * 2 ** i, None, stride * 2 ** i))
            h1 = act(causal_conv1d(h, nn.conv_kernel(params, f"block{i}.conv1"),
                                   params[f"block{i}.conv1.b"], d))
            h1 = nn.dropout(h1, rate, rng, mask_shape, keep)
            h2 = causal_conv1d(h1, nn.conv_kernel(params, f"block{i}.conv2"),
                               params[f"block{i}.conv2.b"], d, start, stride)
            h2 = nn.dropout(h2, rate, rng, mask_shape, keep2)
            if f"block{i}.skip.w" in params:
                skip = causal_conv1d(h, params[f"block{i}.skip.w"],
                                     params[f"block{i}.skip.b"], 1, start, stride)
            else:
                skip = h if (start, stride) == (0, 1) else h[:, start::stride]
            h = h2 + skip
            n = len(range(start, n, stride))
        return h

    def forward(self, params: dict, x, future=None, rng=None) -> Tensor:
        h = self._features(params, x, rng, last_only=True)
        return nn.linear(h[:, -1, :], params, "head")


# -------- TiDE --------

def _future_covariates(cfg: TideConfig, future, convert):
    """`convert(future)`, or ValueError unless its last axis holds horizon * n_covariates values."""
    need = cfg.horizon * cfg.n_covariates
    n = 0 if future is None else (future := convert(future)).shape[-1]
    if n != need:
        raise ValueError(f"future covariates cover {n} values, need horizon*n_covariates = {need}")
    return future


class Tide(_Family):
    """Dense encoder-decoder with per-step covariate projection, a temporal
    decoder over each horizon step, and a global linear residual of the
    look-back."""

    def _init_params(self, rng) -> dict[str, Tensor]:
        cfg = self.cfg
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
        x, future = as_tensor(x), _future_covariates(cfg, future, as_tensor)
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
        # at H = 1 the temporal block reads the decoder output itself
        D = reshape(g, (B, H, cfg.decoder_output_dim)) if H > 1 else None

        steps = []     # each horizon step's (B, T * n_quantiles) values
        for t in range(H):
            td_in = concat([g if D is None else D[:, t, :], proj[:, L + t, :]], axis=1)
            steps.append(self._block(td_in, params, "temporal", rng))
        decoded = steps[0] if H == 1 else concat(steps, axis=1)

        return decoded + nn.linear(y_flat, params, "global")


# -------- shared --------

FAMILIES = {"ann": (MlpConfig, Mlp), "tcn": (TcnConfig, Tcn), "tide": (TideConfig, Tide)}


def family_classes(family: str):
    """The (config class, model class) pair of a family name."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown model family '{family}' (expected one of {sorted(FAMILIES)})")
    return FAMILIES[family]


def build_model(family: str, cfg):
    return family_classes(family)[1](cfg)


def config_from_dict(family: str, raw: dict):
    cls = family_classes(family)[0]
    return cls(**check_object(cls.__name__, raw, cls.__dataclass_fields__))


@dataclass(frozen=True)
class TrainedModel:
    """Architecture config plus learned parameters and the feature scaler,
    ready for autoregressive prediction in raw units. Frozen, so that what
    is derived from it (`model`, `config_hash`) cannot go stale: make a
    changed copy with `dataclasses.replace`."""

    family: str
    config: MlpConfig | TcnConfig | TideConfig
    params: dict[str, Tensor]
    input_channels: tuple[str, ...]
    target_channels: tuple[str, ...]
    scaler: AffineScaler
    seed: int

    def __post_init__(self):
        for name in ("input_channels", "target_channels"):
            channels = getattr(self, name)
            if not isinstance(channels, (list, tuple)) or any(c not in CHANNELS for c in channels):
                raise ValueError(f"TrainedModel.{name} must be a list of channels among "
                                 f"{CHANNELS}, got {channels!r}")
            object.__setattr__(self, name, tuple(channels))
        if len(self.input_channels) != getattr(self.config, "n_channels"):
            raise ValueError(f"config expects {self.config.n_channels} input channels, "
                             f"got {self.input_channels}")
        if len(self.target_channels) != self.config.n_targets:
            raise ValueError(f"config expects {self.config.n_targets} targets, "
                             f"got {self.target_channels}")
        if self.family == "tide" and \
                self.input_channels[:len(self.target_channels)] != self.target_channels:
            raise ValueError(f"TiDE reads its targets {self.target_channels} from the leading "
                             f"input channels, got {self.input_channels}")

    @property
    def quantiles(self) -> tuple[float, ...]:
        return self.config.quantiles

    @cached_property
    def model(self):
        return build_model(self.family, self.config)

    @cached_property
    def config_hash(self) -> str:
        """The fingerprint of everything but the parameters."""
        return config_fingerprint(self)

    @cached_property
    def median(self) -> int | None:
        """The output slot a rollout feeds back: the 0.5 level's, 0 for a
        point head, None if the head has no 0.5 level."""
        levels = self.quantiles or (0.5,)   # a point head's one output is its median
        return levels.index(0.5) if 0.5 in levels else None

    def forecast(self, matrix: np.ndarray, feed: bool = True) -> np.ndarray:
        """The (n, H, T, Q) predictions in raw units, quantile levels sorted,
        over a raw-unit (N, C) input matrix. The matrix is scaled once into a
        copy, and the forward pass (TiDE: `decode`, on covariates projected
        once) is captured on its first window. Step i replays it on rows
        i-L .. i-1 (TiDE also reads the covariates of rows i .. i+H-1). With
        `feed`, steps L .. N-1 run in turn, each writing its `median` level
        into row i of the copy, where later windows read it; ValueError if
        `median` is None. Without, one step runs on every measured window.
        ValueError if the matrix is shorter than one window."""
        cfg, L = self.config, self.config.lookback
        H, T, Q = cfg.horizon, cfg.n_targets, cfg.n_quantiles
        cols = [self.input_channels.index(c) for c in self.target_channels]
        if feed:   # the median's slot and column of each target
            if self.median is None:
                raise ValueError("autoregressive feedback needs the 0.5 quantile in "
                                 f"the head, got {cfg.quantiles}")
            fed = [(t * Q + self.median, j) for t, j in enumerate(cols)]
        gain, offset = self.scaler.vectors(self.input_channels)
        # C order, so that a flattened window is a view that `strided_windows` can stride
        scaled = np.ascontiguousarray((np.asarray(matrix, dtype=np.float64) - offset) * gain)
        forward, tide = self.model.forward, self.family == "tide"
        need = L + (H if tide else 0)
        if len(scaled) < need:
            raise ValueError(f"forecast: the slice has {len(scaled)} rows, one window needs "
                             f"{need} (lookback {L}" + (f" + horizon {H})" if tide else ")"))
        if tide:
            proj = self.model.project(
                self.params, np.ascontiguousarray(scaled[:, cfg.n_targets:])).data
            forward = self.model.decode
            windows = (strided_windows(scaled, scaled[None, :L], L),
                       strided_windows(proj, proj[None, :need], need))
        else:
            windows = (strided_windows(scaled, scaled[None, :L].reshape(1, -1), L),)
        replay = capture(forward, self.params, *(w[0] for w in windows)).run
        stop = len(scaled) if feed else L + min(map(len, windows))
        # each output value's target gain and offset, in (H, T, Q) order
        gains = [float(gain[j]) for _ in range(H) for j in cols for _ in range(Q)]
        offsets = [float(offset[j]) for _ in range(H) for j in cols for _ in range(Q)]
        rows, width = memoryview(scaled.reshape(-1)), scaled.shape[1]
        # in Python floats: the same IEEE double operations, in the same order,
        # as numpy's, without a numpy call on a handful of values. `sorted`
        # orders finite levels as np.sort does; a NaN it may leave in any
        # slot, where the caller's finiteness check finds it
        out = array("d")
        for i, inputs in zip(range(L, stop), zip(*windows)):
            y = list(map(add, map(truediv, replay(*inputs).tolist()[0], gains), offsets))
            if Q > 1:
                y = [v for q in range(0, len(y), Q) for v in sorted(y[q: q + Q])]
            out.extend(y)
            if feed:
                for m, j in fed:
                    rows[i * width + j] = (y[m] - offsets[m]) * gains[m]
        return np.frombuffer(out).reshape(-1, H, T, Q)

    def predict_window(self, window: np.ndarray, future: np.ndarray | None = None) -> np.ndarray:
        """The forecast from one raw-unit (L, C) window, plus for TiDE the
        (H, n_covariates) covariates over the forecast steps."""
        cfg = self.config
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (cfg.lookback, len(self.input_channels)):
            raise ValueError(f"window shape {window.shape} != "
                             f"({cfg.lookback}, {len(self.input_channels)})")
        if self.family == "tide":
            future = _future_covariates(cfg, future, lambda f: np.reshape(f, (1, -1)))
            window = np.vstack([window, np.zeros((cfg.horizon, window.shape[1]))])
            window[cfg.lookback:, cfg.n_targets:] = future.reshape(cfg.horizon, -1)
        return self.forecast(window, feed=False)[0]


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
CHECKPOINT_KEYS = ("family", "config", "input_channels", "target_channels", "scaling", "seed",
                   "format", "config_hash", "params")


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
    write_json(path, doc)


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint written by `save_checkpoint`.

    The stored config hash must equal the fingerprint recomputed from the
    file, the parameter names and shapes must be the ones the architecture
    initializes, and every parameter value must be finite; otherwise
    ValueError names the field or parameter at fault.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    check_object(str(path), doc, CHECKPOINT_KEYS, required=True)
    params: dict[str, Tensor] = {}
    model = TrainedModel(doc["family"], config_from_dict(doc["family"], doc["config"]), params,
                         doc["input_channels"], doc["target_channels"],
                         AffineScaler.from_config(doc["scaling"]), doc["seed"])
    if doc["config_hash"] != model.config_hash:
        raise ValueError(f"{path}: config_hash {str(doc['config_hash'])[:12]} does not match "
                         f"the fingerprint {model.config_hash[:12]} of the stored family, "
                         "config, channels, scaling and seed")
    expected = model.model.param_shapes()
    stored = check_object(f"{path}: params", doc["params"], expected, required=True)
    for name, entry in stored.items():
        where, shape = f"{path}: parameter '{name}'", expected[name]
        entry = check_object(where, entry, ("shape", "data"), required=True)
        if entry["shape"] != list(shape):
            raise ValueError(f"{where} has shape {entry['shape']}, the architecture expects "
                             f"{list(shape)}")
        try:   # validate: a character outside the alphabet fails instead of being dropped
            raw = base64.b64decode(entry["data"] if isinstance(entry["data"], str) else b"",
                                   validate=True)
        except ValueError as exc:   # binascii.Error, or a string that is not ASCII
            raise ValueError(f"{where} is not base64 data ({exc})") from None
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"{where} holds {len(raw)} bytes, shape {shape} needs "
                             f"{8 * math.prod(shape)}")
        data = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise ValueError(f"{where} holds a non-finite value; parameters must be finite")
        params[name] = Tensor(data.copy(), name=name)   # as training leaves them: no gradient
    return model
