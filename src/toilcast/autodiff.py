"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The tape is lazy: a primitive records its inputs and a vector-Jacobian
function only when grad mode is on and some input requires a gradient, and
its result then requires one too. Otherwise it returns a bare constant
Tensor, so inference runs the same forward code without building a graph.
`no_grad()` switches recording off for a block. `backward` replays the
recorded graph in reverse topological order and returns gradients for a
named parameter set. Small, deterministic, CPU-only.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import partial

import numpy as np

_grad_enabled: ContextVar[bool] = ContextVar("toilcast_grad_enabled", default=True)


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

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, n):
        return power(self, n)

    def __getitem__(self, key):
        return take(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _label(t: Tensor) -> str:
    return f"'{t.name}'" if t.name else f"tensor{t.data.shape}"


def _node(data, parents: tuple, vjp, *ctx) -> Tensor:
    """The result of every primitive.

    When grad mode is on and some parent requires a gradient, the result
    records its parents and `vjp(*ctx, *parents, g)` as its vector-Jacobian
    function, and requires a gradient itself; otherwise it is a bare
    constant with no tape node.
    """
    t = Tensor.__new__(Tensor)
    t.data = data
    t.name = None
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        t.requires_grad, t._parents, t._vjp = True, parents, partial(vjp, *ctx, *parents)
    else:
        t.requires_grad, t._parents, t._vjp = False, (), None
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
# Each vector-Jacobian function takes the primitive's saved context, its
# inputs and the output gradient, and returns one gradient per input (None
# for an input that does not require one).

def _add_vjp(a, b, g):
    return _grad_for(a, g), _grad_for(b, g)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, (a, b), _add_vjp)


def _sub_vjp(a, b, g):
    return _grad_for(a, g), (_grad_for(b, -g) if b.requires_grad else None)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data - b.data, (a, b), _sub_vjp)


def _mul_vjp(a, b, g):
    return (_grad_for(a, g * b.data) if a.requires_grad else None,
            _grad_for(b, g * a.data) if b.requires_grad else None)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, (a, b), _mul_vjp)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 1 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape} "
                         f"({_label(a)} @ {_label(b)})")


def _matmul_vjp(a, b, g):
    ga = g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None
    gb = np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None
    return (None if ga is None else _unbroadcast(ga, a.data.shape),
            None if gb is None else _unbroadcast(gb, b.data.shape))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul(a, b)
    return _node(a.data @ b.data, (a, b), _matmul_vjp)


def _affine_vjp(x, w, b, g):
    gx, gw = _matmul_vjp(x, w, g)
    return gx, gw, _grad_for(b, g)


def affine(x, w, b) -> Tensor:
    """`x @ w + b` as one tape node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul(x, w)
    return _node(x.data @ w.data + b.data, (x, w, b), _affine_vjp)


def _layer_norm_vjp(xhat, inv, x, gamma, beta, g):
    gx = None
    if x.requires_grad:
        gxhat = g * gamma.data
        n = xhat.shape[-1]
        gx = inv * (gxhat - gxhat.sum(axis=-1, keepdims=True) * (1.0 / n)
                    - xhat * ((gxhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n)))
    ggamma = _grad_for(gamma, g * xhat) if gamma.requires_grad else None
    return gx, ggamma, _grad_for(beta, g)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale by `gamma` and shift by
    `beta`, as one tape node."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    return _node(xhat * gamma.data + beta.data, (x, gamma, beta), _layer_norm_vjp,
                 xhat, inv)


def _power_vjp(n, a, g):
    return (g * n * a.data ** (n - 1.0),)


def power(a, n) -> Tensor:
    a = as_tensor(a)
    n = float(n)
    return _node(a.data ** n, (a,), _power_vjp, n)


def _relu_vjp(mask, a, g):
    return (g * mask,)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a,), _relu_vjp, mask)


def _tanh_vjp(out, a, g):
    return (g * (1.0 - out * out),)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _node(out, (a,), _tanh_vjp, out)


def _sigmoid_vjp(out, a, g):
    return (g * out * (1.0 - out),)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _node(out, (a,), _sigmoid_vjp, out)


def _absolute_vjp(a, g):
    return (g * np.sign(a.data),)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.abs(a.data), (a,), _absolute_vjp)


def _maximum_vjp(take_a, a, b, g):
    return (_grad_for(a, g * take_a) if a.requires_grad else None,
            _grad_for(b, g * ~take_a) if b.requires_grad else None)


def maximum(a, b) -> Tensor:
    """Elementwise max; at ties the gradient follows the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    return _node(np.where(take_a, a.data, b.data), (a, b), _maximum_vjp, take_a)


def _reshape_vjp(a, g):
    return (g.reshape(a.data.shape),)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), _reshape_vjp)


def _is_basic_index(key) -> bool:
    """True when `key` is basic indexing (ints, slices, None, Ellipsis), which
    selects each element at most once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
               for k in parts)


def _take_vjp(key, a, g):
    ga = np.zeros_like(a.data)
    if _is_basic_index(key):
        ga[key] = g
    else:
        np.add.at(ga, key, g)  # integer-array keys can repeat an element
    return (ga,)


def take(a, key) -> Tensor:
    """Indexing; the gradient is assigned back for basic keys and
    scatter-added for integer-array keys."""
    a = as_tensor(a)
    return _node(a.data[key], (a,), _take_vjp, key)


def _concat_vjp(axis, *args):
    *tensors, g = args
    offsets = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])
    return tuple(part if t.requires_grad else None
                 for t, part in zip(tensors, np.split(g, offsets, axis=axis)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    return _node(out, tensors, _concat_vjp, axis)


def _mean_vjp(a, g):
    return (np.full_like(a.data, float(g) / a.data.size),)


def mean(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.asarray(a.data.mean()), (a,), _mean_vjp)


def _sum_axis_vjp(axis, keepdims, a, g):
    gg = g if keepdims else np.expand_dims(g, axis)
    return (np.broadcast_to(gg, a.data.shape).copy(),)


def sum_axis(a, axis, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), _sum_axis_vjp,
                 axis, keepdims)


def _causal_conv1d_vjp(dilation, x, w, b, g):
    k, C, O = w.data.shape
    T = g.shape[1]
    gx = gw = None
    if x.requires_grad:
        gx = g @ w.data[0].T
    if w.requires_grad:
        gw = np.zeros_like(w.data)
        gw[0] = x.data.reshape(-1, C).T @ g.reshape(-1, O)
    for i in range(1, k):
        s = i * dilation
        if s >= T:
            break  # taps that only ever read the zero padding
        if gx is not None:
            gx[:, :T - s] += g[:, s:] @ w.data[i].T
        if gw is not None:
            gw[i] = x.data[:, :T - s].reshape(-1, C).T @ g[:, s:].reshape(-1, O)
    gb = g.sum(axis=(0, 1)) if b.requires_grad else None
    return gx, gw, gb


def causal_conv1d(x, w, b, dilation: int = 1) -> Tensor:
    """Dilated causal 1-D convolution.

    x: (B, T, C_in) sequence; w: (k, C_in, C_out); b: (C_out,).
    The output keeps length T and out[t] depends only on x[<= t]: tap i reads
    x[t - i*dilation], and positions before the start read zeros, so the
    taps are added only where they reach into the sequence.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 3:
        raise ValueError(f"causal_conv1d expects (B, T, C) input, got {x.data.shape}")
    B, T, C = x.data.shape
    if T == 0:
        raise ValueError("causal_conv1d: empty sequence")
    k = w.data.shape[0]
    if k < 1 or dilation < 1:
        raise ValueError(f"kernel ({k}) and dilation ({dilation}) must be >= 1")
    if w.data.shape[1] != C:
        raise ValueError(f"causal_conv1d: input has {C} channels but kernel {_label(w)} "
                         f"expects {w.data.shape[1]}")
    out = x.data @ w.data[0] + b.data
    for i in range(1, k):
        s = i * dilation
        if s >= T:
            break
        out[:, s:] += x.data[:, :T - s] @ w.data[i]
    return _node(out, (x, w, b), _causal_conv1d_vjp, dilation)


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
        g = acc.pop(id(node), None)
        if g is None or node._vjp is None:
            if g is not None and node._vjp is None:
                acc[id(node)] = g  # leaf: keep for the parameter lookup below
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None:
                continue
            prev = acc.get(id(parent))
            acc[id(parent)] = pg if prev is None else prev + pg
    grads = {}
    for name, t in params.items():
        g = acc.get(id(t))
        grads[name] = g if g is not None else np.zeros_like(t.data)
    return grads
