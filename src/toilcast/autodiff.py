"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Every primitive is a numpy forward `fwd(*arrays, *static) -> out`, registered
once in the table `_VJP` with its vector-Jacobian function, and runs through
one generic `_apply`. The tape is lazy: `_apply` records a node (its inputs,
its VJP and its call) only when some input requires a gradient, and its
result then requires one too. Otherwise it returns a bare constant Tensor, so
the same forward code on constants builds no graph. `backward` walks the
recorded graph in reverse topological order and returns gradients for a named
parameter set. `capture` runs a forward pass once on inputs and parameters
that require a gradient and compiles its tape into a `Plan`: one
straight-line function that replays the recorded forwards on new inputs with
numpy alone.
Small, deterministic, CPU-only.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache, partial
from types import CodeType, FunctionType

import numpy as np


class Tensor:
    """A numpy array plus the tape node that produced it."""

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp", "_call")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.name = name
        self._parents, self._vjp, self._call = (), None, None

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

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

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
    result records its node when some input requires a gradient."""
    inputs, static = tuple(map(as_tensor, args[:n_in])), args[n_in:]
    out = fwd(*[t.data for t in inputs], *static)
    t = Tensor.__new__(Tensor)
    t.data, t.name = out, None
    if any(p.requires_grad for p in inputs):
        t.requires_grad, t._parents = True, inputs
        t._vjp = partial(_VJP[fwd], out, *inputs, *static)
        t._call = (fwd, args[:n_in], static)     # the arguments as given, for `capture`
    else:
        t.requires_grad, t._parents, t._vjp, t._call = False, (), None, None
    return t


def _sum_leading(g: np.ndarray, n: int) -> np.ndarray:
    """`g.sum(axis=tuple(range(n)))` with numpy's bits, 3-5x faster on a
    training batch. numpy sums a C-contiguous `g` one row of its (-1, m)
    matrix at a time, as `einsum` does, when the kept size m is at least 2.
    At m = 1 einsum adds the column in another order, and another layout can
    change numpy's order, so those keep numpy's sum. From m = 8 the sign of
    a NaN may differ; every other bit is equal."""
    shape = g.shape[n:]
    m = math.prod(shape)
    if m >= 2 and g.flags.c_contiguous:
        return np.einsum("ij->j", g.reshape(-1, m)).reshape(shape)
    return g.sum(axis=tuple(range(n)))


def _sum_last(x: np.ndarray) -> np.ndarray:
    """`np.add.reduce(x, axis=-1, keepdims=True)` with numpy's bits. Below 8
    values a row, numpy adds them one by one onto 0.0, as the column adds
    below do, 4-5x faster on 6,400 rows; from 8 on it sums pairwise with
    unrolled partial sums. Wide rows, and fewer than 512 rows (where each
    column's own ufunc call costs more than it saves), keep numpy's sum."""
    n = x.shape[-1]
    if not 0 < n < 8 or x.size < 512 * n:
        return np.add.reduce(x, -1, keepdims=True)
    s = 0.0 + x[..., 0:1]
    for k in range(1, n):
        s += x[..., k:k + 1]
    return s


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = _sum_leading(g, extra)
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
    mu = _sum_last(x) * (1.0 / n)
    centered = x - mu
    var = _sum_last(centered * centered) * (1.0 / n)
    inv = (var + eps) ** -0.5
    return centered * inv, inv


def _layer_norm_vjp(out, x, gamma, beta, eps, g):
    xhat, inv = _normalized(x.data, eps)
    gx = None
    if x.requires_grad:
        gxhat = g * gamma.data
        n = xhat.shape[-1]
        gx = inv * (gxhat - _sum_last(gxhat) * (1.0 / n)
                    - xhat * (_sum_last(gxhat * xhat) * (1.0 / n)))
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
    gb = _sum_leading(g, 2) if b.requires_grad else None
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


# relu's zero: a 0-d array, which numpy need not convert on each call, shared read-only
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def relu(a) -> Tensor:
    """max(a, 0) as the one ufunc `np.fmax(a, 0)`, which a replayed plan
    calls with no Python frame. `np.maximum` would keep NaN where `fmax`, like
    `np.where(a > 0, a, 0.0)`, gives 0; the two forms differ only in the sign
    of the zero that an input of -0.0 gives."""
    return _apply(np.fmax, 1, a, _ZERO)


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
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 3:
        raise ValueError(f"causal_conv1d expects (B, T, C) input, got {x.data.shape}")
    if w.data.ndim != 3:
        raise ValueError(f"causal_conv1d: kernel {_label(w)} must be (k, C_in, C_out), "
                         f"got {w.data.shape}")
    if b.data.shape != w.data.shape[2:]:
        raise ValueError(f"causal_conv1d: bias {_label(b)} must have shape "
                         f"({w.data.shape[2]},), got {b.data.shape}")
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

# A captured step of the affine map, layer norm or causal convolution replays
# as numpy's own arithmetic in fewer, cheaper calls, written into the plan's
# code. Where matmul sends a row to BLAS, `ndarray.dot` makes the same call
# with less set-up, if the kernel, and a convolution's input, is C-ordered
# (dot copies another layout, and BLAS can round the copy otherwise) and the
# rows are at least 2 wide (dot scales by a lone value without BLAS, so
# 0 * inf gives 0, not NaN). Each form takes the plan, the step's output
# slot, its argument slots, and the recorded output and arguments; it returns
# the step's lines, or None where the operands fail its guard and the step
# keeps its forward's call. A step that owns a buffer (`k in plan._bound`)
# makes its first write into it with `out=`, and each product it adds in
# place into a scratch buffer of its own. A replay sees the shapes and
# layouts of the capture, so the guard is decided once. tests/util.py holds
# the multi-row forwards as the oracles of these forms.

def _shaped(plan, j: int, shape: tuple) -> str:
    """The name of argument slot j for an operation on arrays of `shape`. A
    constant of as many values is bound once more as a view of that shape: a
    ufunc sets up far less for equal shapes than to broadcast a row, and runs
    the same inner loop on the same values and strides."""
    if j in plan._computed or np.size(plan._vals[j]) != math.prod(shape):
        return f"s{j}"
    return f"s{plan._new(np.reshape(plan._vals[j], shape))}"


def _at(plan, base: tuple, key) -> tuple:
    """`base[key]` for a (name, bound array or None) pair, as such a pair:
    bound once at capture where the array is bound and the result is a view
    of it, else the expression, evaluated per replay, with a slice key bound
    as a constant."""
    name, array = base
    if array is not None:
        view = array[key]
        if np.shares_memory(view, array):
            return f"s{plan._bind(view)}", view
    index = repr(key) if isinstance(key, int) else f"s{plan._new(key)}"
    return f"{name}[{index}]", None


def _out(plan, k: int, shape: tuple | None = None) -> str:
    """The out argument of a write by step k: its buffer, or with `shape` a
    new scratch buffer; none where the step makes its result afresh."""
    if k not in plan._bound:
        return ""
    return f", s{k}" if shape is None else f", s{plan._bind(np.full(shape, np.nan))}"


def _pairwise(terms: list) -> str:
    """`np.add.reduce` over at most 128 values as one Python expression of
    their `terms`, in numpy's order: below 8 values one by one onto 0.0;
    from 8, eight interleaved partial sums combined pairwise, then the
    values left over, then the total onto 0.0. Wider rows numpy splits in
    halves first."""
    n = len(terms)
    if n < 8:
        return " + ".join(["0.0", *terms])
    r = terms[:8]
    for i in range(8, n - n % 8, 8):
        r = [f"({a} + {b})" for a, b in zip(r, terms[i:i + 8])]
    pairs = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
    return f"0.0 + ({' + '.join([pairs, *terms[n - n % 8:]])})"


def _row_sum(total: str, row: str, n: int, term: str, numpy_sum: str) -> list[str]:
    """Lines that set the Python float `total` to `numpy_sum`, an
    `np.add.reduce` over the `term` (a format of one value's name) of each
    of the n values of the (1, n) array `row`, with numpy's bits: the values
    as Python floats, summed in numpy's order. A NaN total is numpy's own, so
    that its sign and payload are numpy's. Over 32 values numpy sums: from
    about 40, Python's adds cost more than numpy's call."""
    if n > 32:
        return [f"{total} = _float({numpy_sum})"]
    names = [f"r{i}" for i in range(n)]
    return [f"{', '.join(names)}, = {row}.tolist()[0]",
            f"{total} = {_pairwise([term.format(v) for v in names])}",
            f"if {total} != {total}: {total} = _float({numpy_sum})"]


def _affine_form(plan, k, slots, out, x, w, b):
    if x.ndim == w.ndim == 2 and len(x) == 1 < len(w) and w.flags.c_contiguous \
            and out.shape == (1, w.shape[1]):
        x, w = (f"s{j}" for j in slots[:2])
        b = _shaped(plan, slots[2], out.shape)
        # one value: the forward's own sum, which sets up less than an add in
        # place and keeps the NaN that x @ w + b keeps of NaN + NaN
        if out.size == 1:
            return [f"s{k} = _add({x}.dot({w}{_out(plan, k, out.shape)}), {b}{_out(plan, k)})"]
        return [f"s{k} = {x}.dot({w}{_out(plan, k)})", f"s{k} += {b}"]
    return None


def _layer_norm_form(plan, k, slots, out, x, gamma, beta, eps):
    if x.ndim != 2 or len(x) != 1 or out.shape != x.shape:
        return None
    # the sums and moments in Python floats; the power stays numpy's, whose
    # SIMD loop can round unlike Python's **
    row = _at(plan, plan._named(slots[0]), 0)[0]
    x, eps = f"s{slots[0]}", f"s{slots[3]}"
    gamma, beta = (_shaped(plan, j, out.shape) for j in slots[1:3])
    n = out.shape[1]
    inv = repr(1.0 / n)
    return [*_row_sum(f"m{k}", x, n, "{}", f"_reduce({row})"),
            f"s{k} = _subtract({x}, m{k} * {inv}{_out(plan, k)})",
            *_row_sum(f"v{k}", f"s{k}", n, "{0} * {0}", f"_reduce((s{k} * s{k})[0])"),
            f"s{k} *= _float(_power(_array(v{k} * {inv} + {eps}), -0.5))",
            f"s{k} *= {gamma}", f"s{k} += {beta}"]


def _causal_conv1d_form(plan, k, slots, out, x, w, b, rows, taps):
    # the kernel's taps and the input rows they read are bound as constants
    if len(x) != 1 or x.shape[2] < 2 or not (x.flags.c_contiguous and w.flags.c_contiguous) \
            or slots[1] in plan._computed:
        return None
    const = lambda value: f"s{plan._new(value)}"
    lines, x = [], _at(plan, plan._named(slots[0]), 0)
    if x[1] is None:     # a view of an input, taken once per replay
        lines, x = [f"x{k} = {x[0]}"], (f"x{k}", None)
    # the product's rows: a view of the step's buffer, or a fresh product
    own = k in plan._bound
    y = _at(plan, plan._named(k), 0) if own else (f"s{k}", None)
    product = f"{_at(plan, x, rows)[0]}.dot({const(w[0])}"
    o = f", {y[0]}" if own else ""
    if out.size == 1:     # one value: the forward's own sum, as in the affine form
        lines.append(f"{y[0]} = _add({product}{_out(plan, k, out.shape[1:])}), s{slots[2]}{o})")
    else:
        lines.append(f"{y[0]} = {product}{o})")
        # a constant bias tiled to the product's shape adds in the loop that
        # adds the broadcast row; a strided or one-value bias goes to another
        # loop, which can keep the other NaN of NaN + NaN
        tiled = slots[2] not in plan._computed and len(b) > 1 and b.flags.c_contiguous
        bias = const(np.tile(b, (out.shape[1], 1))) if tiled else f"s{slots[2]}"
        lines.append(f"{y[0]} += {bias}")
    for i, j0, src in taps:
        rows_j0 = _at(plan, y, slice(j0, None))[0] if j0 else y[0]
        product = f"{_at(plan, x, src)[0]}.dot({const(w[i])}"
        lines.append(f"{rows_j0} += {product}{_out(plan, k, (out.shape[1] - j0, out.shape[2]))})")
    return lines if own else [*lines, f"s{k} = s{k}[None]"]


_FORMS = {_affine: _affine_form, _layer_norm: _layer_norm_form,
          _causal_conv1d: _causal_conv1d_form}
# forwards that a replay writes as one numpy call made from their argument
# names, `o` the out argument of a step that owns its buffer
_EXPRESSIONS = {operator.add: "_add({}, {}{o})".format,
                operator.sub: "_subtract({}, {}{o})".format,
                operator.mul: "_multiply({}, {}{o})".format, np.fmax: "_fmax({}, {}{o})".format,
                _concat: lambda *args, o: f"_concatenate(({', '.join(args[:-1])},), {args[-1]}{o})"}
# forwards that give a view of their first argument where numpy can: bound
# once at capture on a buffer, else written as the expression
_VIEWS = {operator.getitem: "{}[{}]".format, _reshape: "{}.reshape({})".format}
# the names the forms and expressions call
_REPLAY_GLOBALS = {"_float": float, "_reduce": np.add.reduce, "_power": np.power,
                   "_array": np.array, "_add": np.add, "_subtract": np.subtract,
                   "_multiply": np.multiply, "_fmax": np.fmax, "_concatenate": np.concatenate}


def _write(plan, k: int, args: tuple, node: Tensor, fresh: bool) -> list[str] | None:
    """The lines of the step that gives `node` in slot k, or None where it
    keeps its forward's call. A view of a bound slot is bound in turn, and
    writes nothing; any other step with a form or an expression owns a
    buffer, NaN until its first write, unless it is `fresh`."""
    fwd, _, static = node._call
    if fwd in _VIEWS:
        base = plan._bound.get(args[0])
        if base is not None:
            view = fwd(base, *static)
            if np.shares_memory(view, base):
                plan._bound[k] = view
                return []
        return [f"s{k} = " + _VIEWS[fwd](*(f"s{j}" for j in args))]
    if fwd not in _FORMS and fwd not in _EXPRESSIONS:
        return None
    if not fresh and isinstance(node.data, np.ndarray):
        plan._bound[k] = np.full_like(node.data, np.nan)
    if fwd in _EXPRESSIONS:
        return [f"s{k} = " + _EXPRESSIONS[fwd](*(f"s{j}" for j in args), o=_out(plan, k))]
    lines = _FORMS[fwd](plan, k, args, node.data, *(p.data for p in node._parents), *static)
    if lines is None:
        plan._bound.pop(k, None)
    return lines


class Plan:
    """A forward pass compiled from its tape by `capture`, replayed with numpy.

    The record is one list of values and a list of steps. The values are the
    inputs, the constants (parameters, static arguments and results folded
    at capture) and each step's output; a step is a primitive forward, the
    value slots of its arguments and its output slot. `capture` compiles the
    record into `run`, one function whose body makes the steps' numpy calls
    in order on local variables, its text in `source`: the inputs are its
    parameters, and the constants and buffers its code names and the
    forwards it calls are bound as their defaults.
    A step that has a form, or that is one operator, is written out in
    place of its forward's call, and owns a buffer that each replay
    overwrites: its first write fills it with `out=`. A view of a buffer is
    bound once as a view. Views of the inputs, the steps whose forward is
    called and the output step are made afresh on every replay, so a replay
    returns an array of its own. The buffers make a plan not re-entrant: one
    replay must end before the next begins. A replay takes inputs of the
    shapes and layouts of the capture's."""

    def __init__(self, n_inputs: int):
        self._vals, self._steps, self._n_inputs = [None] * n_inputs, [], n_inputs
        self._computed = set(range(n_inputs))     # slots a replay fills
        self._bound: dict[int, np.ndarray] = {}     # slot -> buffer, or view of one
        self._lines: dict[int, list[str]] = {}      # output slot -> written-out step

    def _new(self, value) -> int:
        self._vals.append(value)
        return len(self._vals) - 1

    def _named(self, j: int) -> tuple:
        return f"s{j}", self._bound.get(j)

    def _bind(self, array: np.ndarray) -> int:
        """A new slot bound to `array`, which a replay writes or reads through."""
        k = self._new(None)
        self._computed.add(k)
        self._bound[k] = array
        return k

    def _compile(self) -> None:
        """Bind `run`: the steps as straight-line code on the slots' names."""
        body, calls = [], {}
        for fwd, slots, k in self._steps:
            if k in self._lines:
                body += self._lines[k]
            else:
                calls[f"f{k}"] = fwd
                body.append(f"s{k} = f{k}({', '.join(f's{j}' for j in slots)})")
        body.append(f"return s{self._out}")
        # the constants and buffers the code names: a form may read an
        # argument through its own
        named = {int(j) for j in re.findall(r"\bs(\d+)\b", "\n".join(body))}
        bound = sorted(j for j in named if j in self._bound or j not in self._computed)
        names = [*(f"s{k}" for k in (*range(self._n_inputs), *bound)), *calls]
        self.source = "\n".join([f"def replay({', '.join(names)}):",
                                  *(f"    {line}" for line in body)])
        self.run = FunctionType(_compiled(self.source), _REPLAY_GLOBALS, "replay",
                                (*(self._bound.get(j, self._vals[j]) for j in bound),
                                 *calls.values()))

    def __call__(self, *inputs: np.ndarray) -> np.ndarray:
        if len(inputs) != self._n_inputs:
            raise TypeError(f"plan takes {self._n_inputs} inputs, got {len(inputs)}")
        return self.run(*inputs)


@lru_cache(maxsize=256)
def _compiled(source: str) -> CodeType:
    """The code of the function `source` defines, compiled once per text: the
    text holds slot numbers and shapes alone, so plans of one shape share it."""
    scope: dict = {}
    exec(compile(source, "<plan>", "exec"), scope)
    return scope["replay"].__code__


def capture(forward, params: dict, *inputs: np.ndarray) -> Plan:
    """Run `forward(params, *inputs)` once, on Tensors over the inputs and
    parameters that require a gradient, and compile the tape of its output
    into a Plan that repeats its numpy operations on new inputs.

    The forward's control flow may depend on shapes, not on values. The
    parameters, and results computed from them alone, are bound as
    constants. The plan owns a buffer per written-out step, so it is not
    re-entrant; each replay still returns a fresh array (or the input or
    constant the forward returns). Any other operand must be an input, a
    scalar or a primitive's result, or else RuntimeError says that the
    forward read `.data` outside a primitive; so does a plan whose replay on
    `inputs` differs from the forward in any byte.
    """
    tensors = tuple(Tensor(x, requires_grad=True) for x in inputs)
    params = {k: Tensor(t.data, requires_grad=True, name=t.name) for k, t in params.items()}
    out = forward(params, *tensors)
    plan = Plan(len(tensors))
    # id -> value slot; the tape holds every Tensor read, so their ids stay unique
    slots = {id(t): k for k, t in enumerate(tensors)}
    param_ids = {id(t) for t in params.values()}

    def slot(t: Tensor, given) -> int:
        if id(t) not in slots:
            if id(t) not in param_ids and (t is given or np.ndim(given)):
                raise RuntimeError(f"capture: operand {_label(t)} is neither an input, a "
                                   "parameter, a scalar nor a primitive's result; the forward "
                                   "read .data outside a primitive")
            slots[id(t)] = plan._new(t.data)     # a parameter or a scalar literal
        return slots[id(t)]

    # the output, and the results it is a view of, are made afresh by each replay
    fresh, t = {id(out)}, out
    while t._call is not None and t._call[0] in _VIEWS \
            and np.shares_memory(t.data, t._parents[0].data):
        t = t._parents[0]
        fresh.add(id(t))
    for node in _toposort(out):     # producers before consumers
        if node._call is None:
            continue
        fwd, given, static = node._call
        args = [slot(*a) for a in zip(node._parents, given)]
        if plan._computed.isdisjoint(args):    # constants in, constant out: folded
            slots[id(node)] = plan._new(node.data)
            continue
        args = (*args, *map(plan._new, static))
        slots[id(node)] = k = plan._new(None)
        plan._computed.add(k)
        plan._steps.append((fwd, args, k))
        lines = _write(plan, k, args, node, id(node) in fresh)
        if lines is not None:
            plan._lines[k] = lines
    plan._out = slot(out, out)
    plan._compile()
    del plan._computed, plan._bound, plan._lines
    got, want = np.asarray(plan(*inputs)), out.data
    if got.shape != want.shape or got.tobytes() != want.tobytes():
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


def backward(output: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of `output` with respect to each named parameter.

    Parameters that do not feed into the output get a zero gradient, and so
    does every parameter when the output requires no gradient at all (a
    result computed from constants alone). The output gradient is seeded
    with ones: a non-scalar output gives d(sum)/d(params).
    """
    if not output.requires_grad:
        return {name: np.zeros_like(t.data) for name, t in params.items()}
    if output._vjp is None:
        raise RuntimeError("backward called on a leaf tensor; run a forward pass first")
    acc: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
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
