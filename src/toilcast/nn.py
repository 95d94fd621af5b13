"""Layers, parameter initialization, and optimizers on the autodiff substrate.

Parameters are named float64 Tensors in an ordered dict; optimizers update
them in place. Initialization is fan-in-scaled uniform with zero biases,
fully reproducible from a 64-bit seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor, affine, power, relu, sigmoid, sum_axis, tanh


def activation(name: str):
    table = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid, "identity": lambda t: t}
    if name not in table:
        raise ValueError(f"unknown activation '{name}' (expected one of {sorted(table)})")
    return table[name]


def rng_from_seed(seed, *subkey: int) -> np.random.Generator:
    """Deterministic generator; subkeys derive independent named streams."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(subkey)))


def fan_in_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_linear(params: dict, rng: np.random.Generator, prefix: str,
                n_in: int, n_out: int) -> None:
    params[f"{prefix}.w"] = Tensor(fan_in_uniform(rng, n_in, (n_in, n_out)),
                                   requires_grad=True, name=f"{prefix}.w")
    params[f"{prefix}.b"] = Tensor(np.zeros(n_out), requires_grad=True, name=f"{prefix}.b")


def linear(x, params: dict, prefix: str):
    return affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def dense(x, params: dict, prefix: str, act: str = "relu"):
    """phi(W x + b) — the fully connected layer."""
    return activation(act)(linear(x, params, prefix))


def dropout(x, rate: float, rng: np.random.Generator | None):
    """Inverted dropout; identity when rate is 0 or no generator is given
    (evaluation mode)."""
    if rate <= 0.0 or rng is None:
        return x
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def init_layer_norm(params: dict, prefix: str, n: int) -> None:
    params[f"{prefix}.ln_gamma"] = Tensor(np.ones(n), requires_grad=True,
                                          name=f"{prefix}.ln_gamma")
    params[f"{prefix}.ln_beta"] = Tensor(np.zeros(n), requires_grad=True,
                                         name=f"{prefix}.ln_beta")


def layer_norm(x, params: dict, prefix: str, eps: float = 1e-5):
    """Normalize over the last axis, with learned per-feature gain and shift."""
    return autodiff.layer_norm(x, params[f"{prefix}.ln_gamma"], params[f"{prefix}.ln_beta"],
                               eps)


def init_residual_block(params: dict, rng: np.random.Generator, prefix: str,
                        n_in: int, n_hidden: int, n_out: int,
                        use_layer_norm: bool = False) -> None:
    init_linear(params, rng, f"{prefix}.dense1", n_in, n_hidden)
    init_linear(params, rng, f"{prefix}.dense2", n_hidden, n_out)
    init_linear(params, rng, f"{prefix}.skip", n_in, n_out)
    # normalizing a single feature collapses it to the shift parameter, so
    # layer norm only applies to blocks with a real feature axis
    if use_layer_norm and n_out > 1:
        init_layer_norm(params, prefix, n_out)


def residual_block(x, params: dict, prefix: str, act: str = "relu",
                   dropout_rate: float = 0.0, rng: np.random.Generator | None = None):
    """dense -> activation -> dense (-> dropout), plus a linear skip of the
    input; layer norm on the sum when the block was initialized with it."""
    h = dense(x, params, f"{prefix}.dense1", act)
    h = dropout(linear(h, params, f"{prefix}.dense2"), dropout_rate, rng)
    out = h + linear(x, params, f"{prefix}.skip")
    if f"{prefix}.ln_gamma" in params:
        out = layer_norm(out, params, prefix)
    return out


def init_conv(params: dict, rng: np.random.Generator, prefix: str,
              kernel: int, n_in: int, n_out: int, weight_norm: bool = False) -> None:
    fan_in = kernel * n_in
    v = fan_in_uniform(rng, fan_in, (kernel, n_in, n_out))
    params[f"{prefix}.w"] = Tensor(v, requires_grad=True, name=f"{prefix}.w")
    params[f"{prefix}.b"] = Tensor(np.zeros(n_out), requires_grad=True, name=f"{prefix}.b")
    if weight_norm:
        # scale initialized to ||v|| per filter so the effective kernel
        # starts equal to the raw one
        g0 = np.sqrt((v * v).sum(axis=(0, 1)))
        params[f"{prefix}.wn_g"] = Tensor(g0, requires_grad=True, name=f"{prefix}.wn_g")


def conv_kernel(params: dict, prefix: str):
    """Effective convolution kernel, applying weight normalization when the
    layer carries a scale parameter."""
    v = params[f"{prefix}.w"]
    g = params.get(f"{prefix}.wn_g")
    if g is None:
        return v
    inv_norm = power(sum_axis(v * v, axis=(0, 1), keepdims=True), -0.5)
    return v * (g * inv_norm)


def n_params(params: dict) -> int:
    return sum(t.size for t in params.values())


def param_checksum(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()


# -------- optimizers --------

@dataclass
class AdamState:
    """Adam moment estimates with bias correction."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(params: dict, grads: dict, state: AdamState) -> None:
    """Standard Adam step, in place; errors on a non-finite gradient."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        p.data = p.data - state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)


@dataclass
class SgdState:
    learning_rate: float = 1e-3
    step_count: int = 0


def sgd_update(params: dict, grads: dict, state: SgdState) -> None:
    state.step_count += 1
    for name, p in params.items():
        g = grads[name]
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
        p.data = p.data - state.learning_rate * g
