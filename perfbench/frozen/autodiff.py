"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every operation on Tensors records its inputs and a vector-Jacobian closure;
`backward` replays the recorded graph in reverse topological order and
returns gradients for a named parameter set. Small, deterministic, CPU-only.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A numpy array plus the tape node that produced it."""

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._vjp = _vjp

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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -------- primitives --------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data + b.data, _parents=(a, b),
                  _vjp=lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data - b.data, _parents=(a, b),
                  _vjp=lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.data * b.data, _parents=(a, b),
                  _vjp=lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                  _unbroadcast(g * a.data, b.data.shape)))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape} "
                         f"({_label(a)} @ {_label(b)})")
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return Tensor(out, _parents=(a, b), _vjp=vjp)


def power(a, n) -> Tensor:
    a = as_tensor(a)
    n = float(n)
    return Tensor(a.data ** n, _parents=(a,),
                  _vjp=lambda g: (g * n * a.data ** (n - 1.0),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    return Tensor(np.where(mask, a.data, 0.0), _parents=(a,),
                  _vjp=lambda g: (g * mask,))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return Tensor(out, _parents=(a,), _vjp=lambda g: (g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(out, _parents=(a,), _vjp=lambda g: (g * out * (1.0 - out),))


def absolute(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(np.abs(a.data), _parents=(a,), _vjp=lambda g: (g * np.sign(a.data),))


def maximum(a, b) -> Tensor:
    """Elementwise max; at ties the gradient follows the first operand."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    return Tensor(np.where(take_a, a.data, b.data), _parents=(a, b),
                  _vjp=lambda g: (_unbroadcast(g * take_a, a.data.shape),
                                  _unbroadcast(g * ~take_a, b.data.shape)))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _vjp=lambda g: (g.reshape(a.data.shape),))


def take(a, key) -> Tensor:
    """Basic slicing/indexing with gradient scatter-add."""
    a = as_tensor(a)
    out = a.data[key]

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, key, g)
        return (ga,)

    return Tensor(out, _parents=(a,), _vjp=vjp)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(tensors)))

    return Tensor(out, _parents=tuple(tensors), _vjp=vjp)


def mean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return Tensor(a.data.mean(), _parents=(a,),
                  _vjp=lambda g: (np.full_like(a.data, float(g) / n),))


def sum_axis(a, axis, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return Tensor(out, _parents=(a,), _vjp=vjp)


def total(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.sum(), _parents=(a,),
                  _vjp=lambda g: (np.full_like(a.data, float(g)),))


def causal_conv1d(x, w, b, dilation: int = 1) -> Tensor:
    """Dilated causal 1-D convolution.

    x: (B, T, C_in) sequence; w: (k, C_in, C_out); b: (C_out,).
    The input is left-padded with (k-1)*dilation zeros so the output keeps
    length T and out[t] depends only on x[<= t].
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
    pad = (k - 1) * dilation
    xp = np.concatenate([np.zeros((B, pad, C)), x.data], axis=1) if pad else x.data
    out = np.broadcast_to(b.data, (B, T, w.data.shape[2])).copy()
    for i in range(k):
        out += xp[:, pad - i * dilation: pad - i * dilation + T, :] @ w.data[i]

    def vjp(g):
        gw = np.empty_like(w.data)
        gxp = np.zeros_like(xp)
        g2 = g.reshape(-1, g.shape[2])
        for i in range(k):
            lo = pad - i * dilation
            gw[i] = xp[:, lo: lo + T, :].reshape(-1, C).T @ g2
            gxp[:, lo: lo + T, :] += g @ w.data[i].T
        gx = gxp[:, pad:, :] if pad else gxp
        return gx, gw, g.sum(axis=(0, 1))

    return Tensor(out, _parents=(x, w, b), _vjp=vjp)


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
            if id(p) not in seen:
                stack.append((p, False))
    return order  # producers before consumers


def backward(output: Tensor, params: dict[str, Tensor],
             output_grad=None) -> dict[str, np.ndarray]:
    """Gradients of `output` with respect to each named parameter.

    Parameters that do not feed into the output get a zero gradient. The
    output gradient seed defaults to ones (i.e. d(sum)/d(params) for
    non-scalar outputs).
    """
    if output._vjp is None and not output._parents:
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
