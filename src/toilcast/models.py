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
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import nn
from .autodiff import Tensor, as_tensor, capture, causal_conv1d, concat, no_grad, reshape
from .metrics import validate_quantiles
from .series import AffineScaler, check_count, check_flag, check_real, strided_windows


class _ModelConfig:
    """Validation and output sizing shared by the three family configs, each
    a frozen dataclass that names its integer fields that must be >= 1 in
    `_positive`."""

    _positive = ()

    def __post_init__(self):
        for name in self._positive:
            check_count(type(self).__name__, name, getattr(self, name))
        check_real(type(self).__name__, "dropout", getattr(self, "dropout", 0.0), ">= 0", "< 1")
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

    def forward_sequence(self, params: dict, x) -> Tensor:
        """Per-timestep head readout, (B, L, n_outputs); used to probe
        causality."""
        return nn.linear(self._features(params, x), params, "head")


# -------- TiDE --------

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

    @cached_property
    def model(self):
        return build_model(self.family, self.config)

    @cached_property
    def _scaling(self) -> tuple:
        """The scaler's map, built once: the gain and offset vectors of the
        input channels, which scale a slice, and each target's input column,
        offset and gain as Python numbers, which `feed` applies."""
        gain, offset = self.scaler.vectors(self.input_channels)
        cols = [self.input_channels.index(c) for c in self.target_channels]
        return gain, offset, tuple((j, float(offset[j]), float(gain[j])) for j in cols)

    @cached_property
    def _stepping(self) -> tuple:
        """What `step` reads, bound once: the look-back, the (H, T, Q) output
        shape, whether it sorts quantiles, and the target gains and offsets
        as (T, 1) columns, which unscale an output."""
        cfg = self.config
        gain, offset, targets = self._scaling
        cols = [j for j, _, _ in targets]
        return (cfg.lookback, (cfg.horizon, cfg.n_targets, cfg.n_quantiles),
                cfg.n_quantiles > 1, gain[cols][:, None], offset[cols][:, None])

    def prepare(self, matrix: np.ndarray) -> tuple:
        """The per-slice work of a forecast over a raw-unit (n, C) input
        matrix: the matrix scaled once, for TiDE the covariates of every row
        projected once, the plan's inputs at every step as windows onto
        those, and the forward pass (TiDE: `decode`) captured on the first
        window as the plan that `step` replays. `feed` writes fed-back
        targets into the scaled matrix, which the windows show. ValueError
        if the matrix is shorter than one window."""
        gain, offset = self._scaling[:2]
        # C order, so that a flattened window is a view that `strided_windows` can stride
        scaled = np.ascontiguousarray((np.asarray(matrix, dtype=np.float64) - offset) * gain)
        forward, cfg, L = self.model.forward, self.config, self.config.lookback
        tide = self.family == "tide"
        need = L + (cfg.horizon if tide else 0)
        if len(scaled) < need:
            raise ValueError(f"prepare: the slice has {len(scaled)} rows, one window needs "
                             f"{need} (lookback {L}"
                             + (f" + horizon {cfg.horizon})" if tide else ")"))
        if tide:
            with no_grad():
                proj = self.model.project(
                    self.params, np.ascontiguousarray(scaled[:, cfg.n_targets:])).data
            forward = self.model.decode
            windows = (strided_windows(scaled, scaled[None, :L], L),
                       strided_windows(proj, proj[None, :need], need))
        else:
            windows = (strided_windows(scaled, scaled[None, :L].reshape(1, -1), L),)
        return scaled, windows, capture(forward, self.params, *(w[0] for w in windows))

    def step(self, prepared: tuple, i: int) -> np.ndarray:
        """The captured forward pass replayed on rows i-L .. i-1 of a prepared
        slice (TiDE also reads the covariates of rows i .. i+H-1): (H, T, Q)
        predictions in raw units with non-crossing enforced. IndexError for a
        step before the first full window or past the slice."""
        _, windows, plan = prepared
        L, shape, sort, gain_col, off_col = self._stepping
        if i < L:   # a negative window index would read a window from the end
            raise IndexError(f"step {i} precedes the first full window (lookback {L})")
        # the plan returns an array of its own: unscale and sort it in place
        out = plan.run(*[w[i - L] for w in windows]).reshape(shape)
        out /= gain_col
        out += off_col
        if sort:
            out.sort(axis=-1)
        return out

    def feed(self, prepared: tuple, i: int, targets: np.ndarray) -> None:
        """Write raw-unit target values into row i of a prepared slice,
        scaled as `prepare` scales the matrix (in Python floats: the same
        IEEE double arithmetic as numpy's)."""
        scaled = prepared[0]
        for (j, offset, gain), value in zip(self._scaling[2], targets.tolist()):
            scaled[i, j] = (value - offset) * gain

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
    expected = model.model.param_shapes()
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
