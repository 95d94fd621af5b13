"""Layers, parameter initialization, and the Adam optimizer on the autodiff
substrate.

Parameters are named float64 Tensors in an ordered dict; Adam updates them
through one flat buffer. Initialization is fan-in-scaled uniform with zero
biases, fully reproducible from a 64-bit seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor, affine, power, relu, sigmoid, sum_axis, tanh


_ACTIVATIONS = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid, "identity": lambda t: t}


def activation(name: str):
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation '{name}' (expected one of {sorted(_ACTIVATIONS)})")
    return _ACTIVATIONS[name]


def rng_from_seed(seed, *subkey: int) -> np.random.Generator:
    """Deterministic generator; subkeys derive independent named streams."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=tuple(subkey)))


def fan_in_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _weights(rng: np.random.Generator | None, fan_in: int, shape) -> np.ndarray:
    """`fan_in_uniform` draws, or zeros (a description: nothing drawn) without `rng`."""
    return np.zeros(shape) if rng is None else fan_in_uniform(rng, fan_in, shape)


def init_linear(params: dict, rng: np.random.Generator | None, prefix: str,
                n_in: int, n_out: int) -> None:
    params[f"{prefix}.w"] = Tensor(_weights(rng, n_in, (n_in, n_out)),
                                   requires_grad=True, name=f"{prefix}.w")
    params[f"{prefix}.b"] = Tensor(np.zeros(n_out), requires_grad=True, name=f"{prefix}.b")


def linear(x, params: dict, prefix: str):
    return affine(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def dense(x, params: dict, prefix: str, act: str = "relu"):
    """phi(W x + b) — the fully connected layer."""
    return activation(act)(linear(x, params, prefix))


def dropout(x, rate: float, rng: np.random.Generator | None, draw_shape=None,
            key=...):
    """Inverted dropout; identity when rate is 0 or no generator is given
    (evaluation mode). The mask is drawn at `draw_shape` (default: x's shape)
    and indexed by `key` down to x's shape, so a caller that computes only
    some positions draws the same random numbers as one that computes all."""
    if rate <= 0.0 or rng is None:
        return x
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    mask = (rng.random(draw_shape or x.shape)[key] >= rate) / (1.0 - rate)
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


def init_residual_block(params: dict, rng: np.random.Generator | None, prefix: str,
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


def init_conv(params: dict, rng: np.random.Generator | None, prefix: str,
              kernel: int, n_in: int, n_out: int, weight_norm: bool = False) -> None:
    v = _weights(rng, kernel * n_in, (kernel, n_in, n_out))
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


# -------- optimizer --------

@dataclass
class AdamState:
    """Adam moment estimates with bias correction, each one flat vector over
    the parameters in the params dict's order."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # the parameters after the last step and the views of it bound to them
    _flat: np.ndarray | None = field(default=None, repr=False, compare=False)
    _views: tuple = field(default=(), repr=False, compare=False)


def adam_update(params: dict, grads: dict, state: AdamState) -> None:
    """Standard Adam step over one flat buffer of all the parameters.

    A non-finite gradient raises FloatingPointError naming the first bad
    parameter before any parameter, moment or the step count changes. Each
    parameter's data is rebound to a view of a new flat vector, so an array
    a caller still holds (such as a captured plan's constant) keeps its
    values; a parameter rebound since the last step is read afresh."""
    if not params:
        raise ValueError("adam_update: no parameters to update")
    tensors = tuple(params.values())
    g = np.concatenate([np.ravel(grads[name]) for name in params])
    if not np.isfinite(g).all():
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise FloatingPointError(f"non-finite gradient for parameter '{bad}'")
    if len(tensors) == len(state._views) and all(
            p.data is view for p, view in zip(tensors, state._views)):
        flat = state._flat
    else:
        flat = np.concatenate([np.ravel(p.data) for p in tensors])
    if g.size != flat.size:
        raise ValueError(f"adam_update: {g.size} gradient values for {flat.size} "
                         "parameter values")
    if state.m is not None and state.m.size != flat.size:
        raise ValueError(f"adam_update: the state's moments cover {state.m.size} values, "
                         f"the parameters {flat.size}")
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    state.step_count += 1
    c1 = 1.0 - state.beta1 ** state.step_count
    c2 = 1.0 - state.beta2 ** state.step_count
    # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and the new parameters
    # flat - lr (m / c1) / (sqrt(v / c2) + eps), operation by operation in
    # that order but in place; g's buffer, this step's own, becomes the result
    m, v = state.m, state.v
    tmp = (1.0 - state.beta1) * g
    m *= state.beta1
    m += tmp
    np.multiply(g, 1.0 - state.beta2, out=tmp)
    tmp *= g
    v *= state.beta2
    v += tmp
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    np.divide(m, c1, out=g)
    g *= state.learning_rate
    g /= tmp
    flat = np.subtract(flat, g, out=g)
    k = 0
    for p in tensors:
        n = p.data.size
        p.data = flat[k: k + n].reshape(p.data.shape)
        k += n
    state._flat, state._views = flat, tuple(p.data for p in tensors)
