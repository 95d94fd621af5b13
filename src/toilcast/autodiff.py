"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every primitive is a numpy forward `fwd(*arrays, *static) -> out`, registered
once in the table `_VJP` with its vector-Jacobian function, and runs through
one generic `_apply`. The tape is lazy: `_apply` records the inputs and the
VJP only when grad mode is on and some input requires a gradient, and its
result then requires one too. Otherwise it returns a bare constant Tensor, so
inference runs the same forward code without building a graph. `no_grad()`
switches recording off for a block. `backward` replays the recorded graph in
reverse topological order and returns gradients for a named parameter set.
`capture` records one no-grad forward pass as a `Plan`, the flat list of the
primitive forwards it ran, which replays on new inputs with numpy alone.
Small, deterministic, CPU-only.
"""

from __future__ import annotations

import operator
from contextvars import ContextVar
from functools import partial
from operator import itemgetter

import numpy as np

_grad_enabled: ContextVar[bool] = ContextVar("toilcast_grad_enabled", default=True)
_capturing: ContextVar[Plan | None] = ContextVar("toilcast_capturing", default=None)


class no_grad:
    """Record no tape nodes inside the block; restores the previous mode on
    exit, also after an exception or when nested."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)


class Tensor:
    """A numpy array plus the tape node that produced it."""

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = f" '{self.name}'" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __pow__(self, n):
        return power(self, n)

    def __getitem__(self, key):
        return take(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _label(t: Tensor) -> str:
    return f"'{t.name}'" if t.name else f"tensor{t.data.shape}"


def _apply(fwd, n_in: int, *args) -> Tensor:
    """Run primitive `fwd` on the arrays of its first `n_in` arguments
    (Tensors, or literals as constants), then its static arguments. The
    result records its inputs and VJP when grad mode is on and some input
    requires a gradient; under `capture` the call is also recorded as a step."""
    inputs, static = tuple(map(as_tensor, args[:n_in])), args[n_in:]
    out = fwd(*[t.data for t in inputs], *static)
    t = Tensor.__new__(Tensor)
    t.data, t.name = out, None
    if _grad_enabled.get() and any(p.requires_grad for p in inputs):
        t.requires_grad, t._parents = True, inputs
        t._vjp = partial(_VJP[fwd], out, *inputs, *static)
    else:
        t.requires_grad, t._parents, t._vjp = False, (), None
    plan = _capturing.get()
    if plan is not None:
        plan._record(fwd, args[:n_in], inputs, static, t)
    return t


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _grad_for(t: Tensor, g: np.ndarray):
    """`g` summed down to the shape of `t`, or None when `t` takes no gradient."""
    return _unbroadcast(g, t.data.shape) if t.requires_grad else None


# -------- primitives --------
# A forward is numpy alone: a builtin, or one of the functions below. Its VJP
# takes the output, the input Tensors, the static arguments and the output
# gradient, and returns one gradient per input (None if it takes none).

def _affine(x, w, b): return x @ w + b
def _layer_norm(x, gamma, beta, eps): return _normalized(x, eps)[0] * gamma + beta
def _sigmoid(a): return 1.0 / (1.0 + np.exp(-a))
def _maximum(a, b): return np.where(a >= b, a, b)
def _mean(a): return np.asarray(a.mean())
def _reshape(a, shape): return a.reshape(shape)
def _sum_axis(a, axis, keepdims): return a.sum(axis=axis, keepdims=keepdims)
def _concat(*args): return np.concatenate(args[:-1], axis=args[-1])


def _matmul_vjp(out, a, b, g):
    ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
    gb = np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None
    return (None if ga is None else _unbroadcast(ga, a.data.shape),
            None if gb is None else _unbroadcast(gb, b.data.shape))


def _normalized(x, eps):
    """x standardized over the last axis, and the inverse deviation."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) * (1.0 / n)
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + eps) ** -0.5
    return centered * inv, inv


def _layer_norm_vjp(out, x, gamma, beta, eps, g):
    xhat, inv = _normalized(x.data, eps)
    gx = None
    if x.requires_grad:
        gxhat = g * gamma.data
        n = xhat.shape[-1]
        gx = inv * (gxhat - gxhat.sum(axis=-1, keepdims=True) * (1.0 / n)
                    - xhat * ((gxhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n)))
    ggamma = _grad_for(gamma, g * xhat) if gamma.requires_grad else None
    return gx, ggamma, _grad_for(beta, g)


def _maximum_vjp(out, a, b, g):
    take_a = a.data >= b.data   # at ties the gradient follows the first operand
    return (_grad_for(a, g * take_a) if a.requires_grad else None,
            _grad_for(b, g * ~take_a) if b.requires_grad else None)


def _take_vjp(out, a, key, g):
    ga = np.zeros_like(a.data)
    parts = key if isinstance(key, tuple) else (key,)
    if all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
           for k in parts):
        ga[key] = g     # basic indexing selects each element at most once
    else:
        np.add.at(ga, key, g)  # integer-array keys can repeat an element
    return (ga,)


def _concat_vjp(out, *args):
    *tensors, axis, g = args
    offsets = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])
    return tuple(part if t.requires_grad else None
                 for t, part in zip(tensors, np.split(g, offsets, axis=axis)))


def _causal_conv1d(x, w, b, rows, taps):
    out = x[:, rows] @ w[0] + b
    for i, j0, src in taps:
        out[:, j0:] += x[:, src] @ w[i]
    return out


def _causal_conv1d_vjp(out, x, w, b, rows, taps, g):
    C, O = w.data.shape[1:]
    gx = gw = None
    if x.requires_grad:
        gx = g @ w.data[0].T
        if g.shape[1] != x.data.shape[1]:   # scatter the emitted rows
            gx, emitted = np.zeros_like(x.data), gx
            gx[:, rows] = emitted
    if w.requires_grad:
        gw = np.zeros_like(w.data)
        gw[0] = x.data[:, rows].reshape(-1, C).T @ g.reshape(-1, O)
    for i, j0, src in taps:
        if gx is not None:
            gx[:, src] += g[:, j0:] @ w.data[i].T
        if gw is not None:
            gw[i] = x.data[:, src].reshape(-1, C).T @ g[:, j0:].reshape(-1, O)
    gb = g.sum(axis=(0, 1)) if b.requires_grad else None
    return gx, gw, gb


# The primitive table: each forward and its vector-Jacobian function.
_VJP = {
    operator.add: lambda out, a, b, g: (_grad_for(a, g), _grad_for(b, g)),
    operator.sub: lambda out, a, b, g: (_grad_for(a, g),
                                        _grad_for(b, -g) if b.requires_grad else None),
    operator.mul: lambda out, a, b, g: (_grad_for(a, g * b.data) if a.requires_grad else None,
                                        _grad_for(b, g * a.data) if b.requires_grad else None),
    _affine: lambda out, x, w, b, g: (*_matmul_vjp(out, x, w, g), _grad_for(b, g)),
    _layer_norm: _layer_norm_vjp,
    operator.pow: lambda out, a, n, g: (g * n * a.data ** (n - 1.0),),
    np.fmax: lambda out, a, zero, g: (g * (out > 0),),
    np.tanh: lambda out, a, g: (g * (1.0 - out * out),),
    _sigmoid: lambda out, a, g: (g * out * (1.0 - out),),
    np.abs: lambda out, a, g: (g * np.sign(a.data),),
    _maximum: _maximum_vjp,
    _reshape: lambda out, a, shape, g: (g.reshape(a.data.shape),),
    operator.getitem: _take_vjp,
    _concat: _concat_vjp,
    _mean: lambda out, a, g: (np.full_like(a.data, float(g) / a.data.size),),
    _sum_axis: lambda out, a, axis, keepdims, g: (np.broadcast_to(
        g if keepdims else np.expand_dims(g, axis), a.data.shape).copy(),),
    _causal_conv1d: _causal_conv1d_vjp,
}

# primitives with no checks or defaults: Tensor arguments, then static ones
add = partial(_apply, operator.add, 2)
sub = partial(_apply, operator.sub, 2)
mul = partial(_apply, operator.mul, 2)
power = partial(_apply, operator.pow, 1)
tanh = partial(_apply, np.tanh, 1)
sigmoid = partial(_apply, _sigmoid, 1)
absolute = partial(_apply, np.abs, 1)
maximum = partial(_apply, _maximum, 2)
reshape = partial(_apply, _reshape, 1)
take = partial(_apply, operator.getitem, 1)
mean = partial(_apply, _mean, 1)


def relu(a) -> Tensor:
    """max(a, 0) as the one ufunc `np.fmax(a, 0.0)`, which a replayed plan
    calls with no Python frame. `np.maximum` would keep NaN where `fmax`, like
    `np.where(a > 0, a, 0.0)`, gives 0; the two forms differ only in the sign
    of the zero that an input of -0.0 gives."""
    return _apply(np.fmax, 1, a, 0.0)


def _matmul_operands(a, b) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape} "
                         f"({_label(a)} @ {_label(b)})")
    return a, b


def affine(x, w, b) -> Tensor:
    """`x @ w + b` as one tape node."""
    return _apply(_affine, 3, *_matmul_operands(x, w), b)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale by `gamma` and shift by
    `beta`, as one tape node."""
    return _apply(_layer_norm, 3, x, gamma, beta, eps)


def concat(tensors, axis: int = 0) -> Tensor:
    return _apply(_concat, len(tensors), *tensors, axis)


def sum_axis(a, axis, keepdims: bool = False) -> Tensor:
    return _apply(_sum_axis, 1, a, axis, keepdims)


def causal_conv1d(x, w, b, dilation: int = 1, start: int = 0, stride: int = 1) -> Tensor:
    """Dilated causal 1-D convolution.

    x: (B, T, C_in) sequence; w: (k, C_in, C_out); b: (C_out,).
    The output holds positions start, start + stride, ... < T (by default all
    T) and out[t] depends only on x[<= t]: tap i reads x[t - i*dilation], and
    positions before the start read zeros, so the taps are added only where
    they reach into the sequence.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3:
        raise ValueError(f"causal_conv1d expects (B, T, C) input, got {x.data.shape}")
    B, T, C = x.data.shape
    if T == 0:
        raise ValueError("causal_conv1d: empty sequence")
    k = w.data.shape[0]
    if k < 1 or dilation < 1:
        raise ValueError(f"kernel ({k}) and dilation ({dilation}) must be >= 1")
    if stride < 1:
        raise ValueError(f"causal_conv1d: stride ({stride}) must be >= 1")
    if not 0 <= start < T:
        raise ValueError(f"causal_conv1d: start ({start}) outside [0, {T})")
    if w.data.shape[1] != C:
        raise ValueError(f"causal_conv1d: input has {C} channels but kernel {_label(w)} "
                         f"expects {w.data.shape[1]}")
    # each tap i that reaches into the sequence as (i, j0, src): it adds to the
    # output rows from j0 on (positions >= i*dilation), which read the input
    # positions src; built once here, so a replayed plan only slices
    taps = []
    for i in range(1, k):
        s = i * dilation
        j0 = max(0, -((start - s) // stride))
        lo = start + j0 * stride
        if lo >= T:
            break  # taps that only ever read the zero padding
        taps.append((i, j0, slice(lo - s, T - s, stride)))
    return _apply(_causal_conv1d, 3, x, w, b, slice(start, None, stride), tuple(taps))


# -------- captured forward passes --------

class Plan:
    """A forward pass recorded by `capture`, replayed with numpy alone.

    One list of values holds the inputs, the constants (parameters, static
    arguments and results folded at capture) and each step's output, None
    until a replay computes it. A step is a primitive forward, an
    `itemgetter` of its argument slots and its output slot. A replay returns
    an array that no input or constant shares memory with, so the caller may
    write to it."""

    def __init__(self, params: dict, inputs: tuple):
        self._vals, self._steps = [None] * len(inputs), []
        self._params = {id(p) for p in params.values()}
        # id -> (slot, tensor); holding the tensor keeps its id unique while recording
        self._slots = {id(t): (k, t) for k, t in enumerate(inputs)}

    def _new(self, value, t: Tensor | None = None) -> int:
        self._vals.append(value)
        if t is not None:
            self._slots[id(t)] = (len(self._vals) - 1, t)
        return len(self._vals) - 1

    def _slot(self, t: Tensor, given) -> int:
        if id(t) in self._slots:
            return self._slots[id(t)][0]
        if id(t) in self._params or (t is not given and np.ndim(given) == 0):
            return self._new(t.data, t)     # a parameter or a scalar literal
        raise RuntimeError(f"capture: operand {_label(t)} is neither an input, a parameter, "
                           "a scalar nor a primitive's result; the forward read .data "
                           "outside a primitive")

    def _record(self, fwd, args, inputs, static, out: Tensor) -> None:
        slots = [self._slot(t, given) for t, given in zip(inputs, args)]
        if all(self._vals[s] is not None for s in slots):
            self._new(out.data, out)        # constants in, constant out: folded
            return
        slots += [self._new(s) for s in static]
        # itemgetter of one index returns the bare item, a one-wide slice a list
        gather = itemgetter(*slots) if len(slots) > 1 else \
            itemgetter(slice(slots[0], slots[0] + 1))
        self._steps.append((fwd, gather, self._new(None, out)))

    def __call__(self, *inputs: np.ndarray) -> np.ndarray:
        vals = self._vals.copy()
        vals[:len(inputs)] = inputs
        for fwd, gather, k in self._steps:
            vals[k] = fwd(*gather(vals))
        return vals[self._out]


def capture(forward, params: dict, *inputs: np.ndarray) -> Plan:
    """Record `forward(params, *inputs)`, run once with grad off on the inputs
    as Tensors, as a Plan that repeats its numpy operations on new inputs.

    The forward's control flow may depend on shapes, not on values. The
    parameters, and results computed from constants alone, are bound as
    constants. Any other operand must be an input, a scalar or a primitive's
    result, or else RuntimeError says that the forward read `.data` outside a
    primitive; so does a plan whose replay on `inputs` differs from the forward.
    """
    tensors = tuple(map(Tensor, inputs))
    plan = Plan(params, tensors)
    token = _capturing.set(plan)
    try:
        with no_grad():
            out = forward(params, *tensors)
    finally:
        _capturing.reset(token)
    k = plan._slot(out, out)
    if any(isinstance(v, np.ndarray) and np.may_share_memory(out.data, v)
           for v in (*(t.data for t in tensors), *plan._vals)):
        # an input, a constant or a view of one: replay into an array of its own
        plan._steps.append((np.copy, itemgetter(slice(k, k + 1)), plan._new(None)))
        k = len(plan._vals) - 1
    plan._out = k
    del plan._slots, plan._params
    if not np.array_equal(plan(*inputs), out.data, equal_nan=True):
        raise RuntimeError("capture: replaying the plan does not reproduce the forward pass")
    return plan


# -------- reverse pass --------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order  # producers before consumers


def backward(output: Tensor, params: dict[str, Tensor],
             output_grad=None) -> dict[str, np.ndarray]:
    """Gradients of `output` with respect to each named parameter.

    Parameters that do not feed into the output get a zero gradient, and so
    does every parameter when the output requires no gradient at all (a
    constant, or a result computed under `no_grad`). The output gradient
    seed defaults to ones (i.e. d(sum)/d(params) for non-scalar outputs).
    """
    if not output.requires_grad:
        return {name: np.zeros_like(t.data) for name, t in params.items()}
    if output._vjp is None:
        raise RuntimeError("backward called on a leaf tensor; run a forward pass first")
    seed = np.ones_like(output.data) if output_grad is None else \
        np.broadcast_to(np.asarray(output_grad, dtype=np.float64), output.data.shape)
    acc: dict[int, np.ndarray] = {id(output): np.array(seed, dtype=np.float64)}
    for node in reversed(_toposort(output)):
        if node._vjp is None or id(node) not in acc:
            continue  # a leaf keeps its gradient for the parameter lookup below
        for parent, pg in zip(node._parents, node._vjp(acc.pop(id(node)))):
            if pg is None:
                continue
            prev = acc.get(id(parent))
            acc[id(parent)] = pg if prev is None else prev + pg
    return {name: acc[id(t)] if id(t) in acc else np.zeros_like(t.data)
            for name, t in params.items()}
