import re

import numpy as np
import pytest

from toilcast import autodiff, nn
from toilcast.autodiff import (Plan, Tensor, absolute, add, affine, backward, capture,
                               causal_conv1d, concat, layer_norm, maximum, mean, power,
                               relu, reshape, sigmoid, sum_axis, take, tanh)
from util import (affine_oracle, causal_conv1d_oracle, layer_norm_oracle, max_rel_err,
                  relu_oracle, replay_oracle, seeded_backward)

TOL = 1e-4


class TestForward:
    def test_identity_layer(self):
        params = {"w": Tensor(np.eye(3), requires_grad=True),
                  "b": Tensor(np.zeros(3), requires_grad=True)}
        x = np.array([[1.5, -2.0, 0.25]])
        out = affine(Tensor(x), params["w"], params["b"])
        assert np.array_equal(out.data, x)

    def test_single_neuron_hand_value(self):
        # w=[2], b=1, x=[3], identity activation -> 7
        out = affine(Tensor([[3.0]]), Tensor([[2.0]]), Tensor([1.0]))
        assert out.data.item() == 7.0

    def test_relu(self):
        assert np.array_equal(relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_unknown_activation_lists_the_valid_names(self):
        with pytest.raises(ValueError, match=r"'swish'.*\['identity', 'relu', 'sigmoid', 'tanh'\]"):
            nn.activation("swish")

    def test_shape_mismatch_names_node(self):
        a = Tensor(np.zeros((2, 3)), name="hidden0.out")
        w = Tensor(np.zeros((4, 5)), name="hidden1.w")
        with pytest.raises(ValueError, match="hidden1.w"):
            affine(a, w, Tensor(np.zeros(5)))


_F = np.finfo(np.float64)
# zeros of both signs, NaN, infinities, the smallest subnormals, the smallest
# and the largest normals, and ones
RELU_EDGES = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, _F.tiny,
                       -_F.tiny, _F.max, -_F.max, 1.0, -1.0])
# sizes that end inside and just past a SIMD body, and long ones with a tail
RELU_SIZES = [*range(1, 20), 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 1003]


def relu_layouts(rng, n):
    """Edge values drawn to size n as a contiguous vector, a strided view, a
    transposed 2-D array and a contiguous 2-D block."""
    a = rng.choice(RELU_EDGES, size=3 * n)
    return a[:n], a[::3], a.reshape(n, 3).T, a.reshape(n, 3)


class TestRelu:
    """`relu` against `np.where(a > 0, a, 0.0)`: equal in value everywhere
    (only the sign of a zero from a -0.0 input may differ), with the same
    gradient mask, and the same bytes once an affine map follows it."""

    @pytest.mark.parametrize("n", RELU_SIZES)
    def test_values_equal_the_oracle(self, n):
        for a in relu_layouts(np.random.default_rng(n), n):
            got = relu(Tensor(a)).data
            assert got.shape == a.shape and np.array_equal(got, relu_oracle(a))

    @pytest.mark.parametrize("n", [1, 7, 64, 1003])
    def test_gradient_mask_unchanged(self, n):
        rng = np.random.default_rng(n)
        a = rng.choice(RELU_EDGES[np.isfinite(RELU_EDGES)], size=n)
        g = rng.normal(size=n)
        x = Tensor(a, requires_grad=True)
        got = seeded_backward(relu(x), {"x": x}, g)["x"]
        assert got.tobytes() == (g * (relu_oracle(a) > 0)).tobytes()

    @pytest.mark.parametrize("rows, n_in", [(1, 1), (1, 17), (2, 3), (5, 64), (33, 8)])
    def test_affine_after_relu_gives_the_same_bytes(self, rows, n_in):
        rng = np.random.default_rng(rows * 100 + n_in)
        x = rng.choice(np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, -2.5]),
                       size=(rows, n_in))
        w = rng.normal(size=(n_in, 4))
        for b in (np.zeros(4), np.full(4, -0.0), rng.normal(size=4)):
            got = affine(relu(Tensor(x)), w, b).data
            assert got.tobytes() == (relu_oracle(x) @ w + b).tobytes()


class TestBackward:
    def test_square(self):
        w = Tensor(3.0, requires_grad=True, name="w")
        grads = backward(w * w, {"w": w})
        assert grads["w"] == pytest.approx(6.0, abs=1e-12)

    def test_constant_output_zero_grad(self):
        w = Tensor(3.0, requires_grad=True, name="w")
        out = Tensor(5.0) * Tensor(2.0)
        grads = backward(out, {"w": w})
        assert grads["w"] == 0.0

    def test_unused_parameter_gets_zeros(self):
        w = Tensor(np.ones(4), requires_grad=True, name="w")
        u = Tensor(np.ones((2, 2)), requires_grad=True, name="unused")
        grads = backward(mean(w * w), {"w": w, "unused": u})
        assert np.array_equal(grads["unused"], np.zeros((2, 2)))

    def test_two_layer_net_matches_finite_differences(self):
        # exactly 20 parameters: 3x4 weights + 4 biases + 4x1 head weights
        rng = np.random.default_rng(42)
        params = {}
        nn.init_linear(params, rng, "l1", 3, 4)
        params["head.w"] = Tensor(nn.fan_in_uniform(rng, 4, (4, 1)),
                                  requires_grad=True, name="head.w")
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 1))
        assert nn.n_params(params) == 20

        def loss():
            h = nn.dense(Tensor(x), params, "l1", "tanh")
            return mean((affine(h, params["head.w"], 0.0) - Tensor(y)) ** 2)

        assert max_rel_err(loss, params) <= TOL

    def test_backward_before_forward_rejected(self):
        w = Tensor(1.0, requires_grad=True, name="w")
        with pytest.raises(RuntimeError, match="forward"):
            backward(w, {"w": w})

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="w")
        x = Tensor(rng.normal(size=(2, 3)))

        def f():
            return mean(tanh(affine(x, w, 0.0)))

        def g():
            return mean(affine(x, w, 0.0) ** 2)

        a, b = 2.5, -1.25
        combined = backward(f() * a + g() * b, {"w": w})["w"]
        separate = a * backward(f(), {"w": w})["w"] + b * backward(g(), {"w": w})["w"]
        assert np.abs(combined - separate).max() <= 1e-12


class TestConv:
    def test_kernel_one_is_pointwise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(1, 3, 4))
        b = rng.normal(size=4)
        out = causal_conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=3)
        assert np.allclose(out.data, x @ w[0] + b, atol=1e-12)

    def test_hand_convolution(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        w = Tensor(np.ones((2, 1, 1)))
        b = Tensor(np.zeros(1))
        out = causal_conv1d(x, w, b, 1)
        assert np.array_equal(out.data.ravel(), [1.0, 3.0, 5.0])

    def test_causality_bitwise(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 9, 2))
        w = Tensor(rng.normal(size=(3, 2, 2)))
        b = Tensor(rng.normal(size=2))
        base = causal_conv1d(Tensor(x), w, b, 2).data
        bumped = x.copy()
        bumped[0, 5, :] += 10.0
        out = causal_conv1d(Tensor(bumped), w, b, 2).data
        assert np.array_equal(out[0, :5], base[0, :5])
        assert not np.array_equal(out[0, 5:], base[0, 5:])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            causal_conv1d(Tensor(np.zeros((1, 0, 2))), Tensor(np.zeros((2, 2, 2))),
                          Tensor(np.zeros(2)))

    @pytest.mark.parametrize("k, d, T", [(3, 2, 9), (3, 3, 5), (4, 2, 3), (2, 5, 4)])
    def test_matches_zero_padded_reference(self, k, d, T):
        # reference: left-pad with (k-1)*d zeros and sum every tap; the last
        # cases have taps that reach only into the padding
        rng = np.random.default_rng(k * 100 + d * 10 + T)
        x = rng.normal(size=(2, T, 3))
        w, b = rng.normal(size=(k, 3, 4)), rng.normal(size=4)
        g = rng.normal(size=(2, T, 4))
        pad = (k - 1) * d
        xp = np.concatenate([np.zeros((2, pad, 3)), x], axis=1)
        want = b + sum(xp[:, pad - i * d: pad - i * d + T] @ w[i] for i in range(k))
        want_gx = np.zeros_like(xp)
        for i in range(k):
            want_gx[:, pad - i * d: pad - i * d + T] += g @ w[i].T
        want_gw = np.stack([xp[:, pad - i * d: pad - i * d + T].reshape(-1, 3).T
                            @ g.reshape(-1, 4) for i in range(k)])
        params = {"x": Tensor(x, requires_grad=True), "w": Tensor(w, requires_grad=True),
                  "b": Tensor(b, requires_grad=True)}
        out = causal_conv1d(params["x"], params["w"], params["b"], d)
        grads = seeded_backward(out, params, g)
        assert np.abs(out.data - want).max() <= 1e-12
        assert np.abs(grads["x"] - want_gx[:, pad:]).max() <= 1e-12
        assert np.abs(grads["w"] - want_gw).max() <= 1e-12
        assert np.abs(grads["b"] - g.sum(axis=(0, 1))).max() <= 1e-12

    @pytest.mark.parametrize("k", (2, 3, 4))
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_strided_output_is_the_full_conv_rows(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        T = 16
        x = Tensor(rng.normal(size=(2, T, 3)))
        w, b = Tensor(rng.normal(size=(k, 3, 4))), Tensor(rng.normal(size=4))
        full = causal_conv1d(x, w, b, d).data
        for start, stride in ((0, 1), (0, 2), (1, 2), (2, 3), (1, 4), (5, 2), (14, 1),
                              (3, 5), (15, 1)):
            got = causal_conv1d(x, w, b, d, start, stride).data
            want = full[:, start::stride]
            emitted = range(start, T, stride)
            tap_rows = [sum(p >= i * d for p in emitted) for i in range(k)]
            if min(r for r in tap_rows if r) >= 2:
                assert np.array_equal(got, want), (start, stride)
            else:
                # numpy hands a one-row product to gemv, which rounds unlike gemm
                assert np.abs(got - want).max() <= 1e-13, (start, stride)

    @pytest.mark.parametrize("k, d, start, stride", [(2, 1, 1, 2), (3, 2, 0, 2), (4, 1, 5, 3),
                                                     (2, 3, 7, 1), (3, 1, 8, 4)])
    def test_strided_gradients_are_the_full_conv_ones(self, k, d, start, stride):
        # the full conv with an output gradient that is zero off the emitted rows
        rng = np.random.default_rng(k + 10 * start + 100 * stride)
        params = {"x": Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True),
                  "w": Tensor(rng.normal(size=(k, 3, 4)), requires_grad=True),
                  "b": Tensor(rng.normal(size=4), requires_grad=True)}
        out = causal_conv1d(params["x"], params["w"], params["b"], d, start, stride)
        g = rng.normal(size=out.shape)
        g_full = np.zeros((2, 9, 4))
        g_full[:, start::stride] = g
        full = causal_conv1d(params["x"], params["w"], params["b"], d)
        got, want = seeded_backward(out, params, g), seeded_backward(full, params, g_full)
        for name in params:
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("shape", [(1,), (5, 3), (1, 3), ()])
    def test_bias_of_the_wrong_shape_named(self, shape):
        # a (1,) bias used to broadcast, and its gradient came back (3,)
        x, w = Tensor(np.ones((1, 5, 2))), Tensor(np.ones((2, 2, 3)))
        b = Tensor(np.zeros(shape), name="c.b")
        with pytest.raises(ValueError, match=re.escape(
                f"causal_conv1d: bias 'c.b' must have shape (3,), got {shape}")):
            causal_conv1d(x, w, b)

    def test_kernel_that_is_not_3d_named(self):
        # used to fail inside numpy with "operands could not be broadcast"
        with pytest.raises(ValueError, match=re.escape(
                "causal_conv1d: kernel 'c.w' must be (k, C_in, C_out), got (2, 2)")):
            causal_conv1d(Tensor(np.ones((1, 5, 2))), Tensor(np.ones((2, 2)), name="c.w"),
                          Tensor(np.zeros(2)))

    @pytest.mark.parametrize("start, stride, named", [(0, 0, r"stride \(0\)"),
                                                      (1, -2, r"stride \(-2\)"),
                                                      (-1, 1, r"start \(-1\)"),
                                                      (5, 1, r"start \(5\)")])
    def test_bad_start_or_stride_names_the_argument(self, start, stride, named):
        with pytest.raises(ValueError, match=named):
            causal_conv1d(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((2, 2, 2))),
                          Tensor(np.zeros(2)), 1, start, stride)


# -------- reductions: the fast forms against numpy's own --------

# zeros of both signs, infinities, NaN, the extremes and a subnormal
SUM_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, _F.max, -_F.max,
                      5e-324, -_F.tiny])
SUM_ROWS = [1, 2, 7, 8, 9, 63, 511, 512, 513, 6400, 12288]


def _draws(rng, shape):
    """Values over 16 decades, then the same with a tenth of them edge
    values, then all edge values."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    mixed = x.copy()
    mask = rng.random(shape) < 0.1
    mixed[mask] = rng.choice(SUM_EDGES, size=int(mask.sum()))
    return x, mixed, rng.choice(SUM_EDGES, size=shape)


def _layouts(x):
    """x as itself (C-ordered), F-ordered, and as row- and column-strided
    views of larger arrays."""
    rows = np.empty((2 * x.shape[0], *x.shape[1:]))
    rows[::2] = x
    cols = np.empty((*x.shape[:-1], 2 * x.shape[-1]))
    cols[..., 1::2] = x
    return x, np.asfortranarray(x), rows[::2], cols[..., 1::2]


def assert_same_bits(got, want):
    """Equal shapes and values, NaN where numpy gives NaN, and the sign of
    every other value, zeros included. A NaN's own sign is not compared."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    keep = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[keep]), np.signbit(want[keep]))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
class TestReductions:
    """`_sum_leading` against `ndarray.sum` over the leading axes, and
    `_sum_last` against `np.add.reduce` over the last axis: bit-equal for
    every width, row count, layout and edge value."""

    @pytest.mark.parametrize("width", range(1, 18))
    def test_sum_leading_equals_numpy(self, width):
        rng = np.random.default_rng(width)
        for rows in SUM_ROWS:
            for x in _draws(rng, (rows, width)):
                for v in _layouts(x):
                    assert_same_bits(autodiff._sum_leading(v, 1), v.sum(axis=0))

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 16, 17])
    def test_sum_leading_3d_equals_numpy(self, width):
        # the TCN bias sum over (B, T) and a 3-D weight gradient over B
        rng = np.random.default_rng(100 + width)
        for shape in [(1, 1, width), (3, 5, width), (64, 24, width), (512, 24, width)]:
            for x in _draws(rng, shape):
                for v in _layouts(x):
                    assert_same_bits(autodiff._sum_leading(v, 2), v.sum(axis=(0, 1)))
                    assert_same_bits(autodiff._sum_leading(v, 1), v.sum(axis=0))

    @pytest.mark.parametrize("width", range(1, 18))
    def test_sum_last_equals_numpy(self, width):
        rng = np.random.default_rng(200 + width)
        for rows in SUM_ROWS:
            for x in _draws(rng, (rows, width)):
                for v in _layouts(x):
                    assert_same_bits(autodiff._sum_last(v),
                                     np.add.reduce(v, axis=-1, keepdims=True))

    @pytest.mark.parametrize("width", [1, 2, 4, 7, 8, 9])
    def test_sum_last_3d_equals_numpy(self, width):
        rng = np.random.default_rng(300 + width)
        for shape in [(1, 1, width), (2, 300, width), (256, 25, width)]:
            for x in _draws(rng, shape):
                for v in _layouts(x):
                    assert_same_bits(autodiff._sum_last(v),
                                     np.add.reduce(v, axis=-1, keepdims=True))

    def test_sum_leading_takes_numpy_at_width_1_and_off_c_order(self, monkeypatch):
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a: calls.append(a[1].shape) or einsum(*a))
        x = np.random.default_rng(0).normal(size=(6400, 4))
        for v in (x[:, :1], np.ascontiguousarray(x[:, :1]), *_layouts(x)[1:]):
            autodiff._sum_leading(v, 1)
        assert calls == []
        autodiff._sum_leading(x, 1)
        autodiff._sum_leading(x.reshape(256, 25, 4), 2)
        assert calls == [(6400, 4), (6400, 4)]

    def test_sum_last_takes_numpy_for_wide_rows_and_few_rows(self):
        class Spy(np.ndarray):
            """Counts the column slices that the column adds take."""
            slices = 0

            def __getitem__(self, key):
                Spy.slices += 1
                return super().__getitem__(key)

        rng = np.random.default_rng(1)
        for shape in [(6400, 8), (6400, 17), (511, 4), (1, 3), (6400, 0)]:
            autodiff._sum_last(rng.normal(size=shape).view(Spy))
        assert Spy.slices == 0
        autodiff._sum_last(rng.normal(size=(512, 4)).view(Spy))
        assert Spy.slices == 4

def _chain_layer_norm(x, gamma, beta, eps=1e-5):
    """Layer norm composed of primitives: the reference for the fused op."""
    n = x.shape[-1]
    mu = sum_axis(x, axis=-1, keepdims=True) * (1.0 / n)
    centered = x - mu
    var = sum_axis(centered * centered, axis=-1, keepdims=True) * (1.0 / n)
    return centered * power(var + eps, -0.5) * gamma + beta


def _fused_vs_chain(fused, chain, shapes, rng):
    """Forward outputs and gradients (for a random output gradient) of the
    fused primitive and of its composed chain on the same random inputs."""
    params = {name: Tensor(rng.normal(size=shape), requires_grad=True, name=name)
              for name, shape in shapes.items()}
    out_f, out_c = fused(*params.values()), chain(*params.values())
    g = rng.normal(size=out_f.shape)
    return (out_f.data, out_c.data, seeded_backward(out_f, params, g),
            seeded_backward(out_c, params, g))


class TestFusedPrimitives:
    @pytest.mark.parametrize("x_shape, b_shape", [((5, 3), (4,)), ((5, 3), (1, 4)),
                                                  ((2, 6, 3), (4,)), ((1, 3), (4,))])
    def test_affine_matches_matmul_add(self, x_shape, b_shape):
        # reference: numpy's x @ w + b and the closed-form VJP, g @ w.T for x,
        # x.T @ g over all leading axes for w, and g summed to b's shape
        rng = np.random.default_rng(len(x_shape) * 10 + len(b_shape))
        for _ in range(20):
            x, w, b = (rng.normal(size=s) for s in (x_shape, (3, 4), b_shape))
            params = {n: Tensor(a, requires_grad=True, name=n)
                      for n, a in (("x", x), ("w", w), ("b", b))}
            out = affine(*params.values())
            g = rng.normal(size=out.shape)
            grads = seeded_backward(out, params, g)
            assert np.array_equal(out.data, x @ w + b)
            want = {"x": g @ w.T, "w": x.reshape(-1, 3).T @ g.reshape(-1, 4),
                    "b": g.reshape(-1, 4).sum(axis=0).reshape(b_shape)}
            for name in params:
                assert grads[name].shape == want[name].shape
                assert np.abs(grads[name] - want[name]).max() <= 1e-12

    @pytest.mark.parametrize("x_shape, p_shape", [((4, 6), (6,)), ((2, 5, 3), (3,)),
                                                  ((3, 7), (1, 7))])
    def test_layer_norm_matches_chain(self, x_shape, p_shape):
        rng = np.random.default_rng(x_shape[-1])
        for _ in range(20):
            f, c, gf, gc = _fused_vs_chain(layer_norm, _chain_layer_norm,
                                           {"x": x_shape, "gamma": p_shape,
                                            "beta": p_shape}, rng)
            assert np.array_equal(f, c)
            for name in gf:
                assert gf[name].shape == gc[name].shape
                assert np.abs(gf[name] - gc[name]).max() <= 1e-12

    def test_affine_shape_mismatch_names_node(self):
        with pytest.raises(ValueError, match="head.w"):
            affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 1)), name="head.w"),
                   Tensor(np.zeros(1)))


# -------- one-row forms: a batch-1 step against today's forwards --------

ONE_ROW_CASES = 1200


def _one_row_operand(rng, shape):
    """Values of one magnitude between 1e-4 and 1e4, with edge values in a
    quarter of the draws, laid out as a C- or F-ordered array or as a row- or
    column-strided view of a larger one."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4)
    if rng.random() < 0.25:
        mask = rng.random(shape) < 0.3
        x[mask] = rng.choice(SUM_EDGES, size=int(mask.sum()))
    return _layouts(x)[rng.integers(4)]


def _width(rng, most: int = 64) -> int:
    """2 to `most`, or in one draw of eight 1, which the one-row forms leave
    to matmul."""
    return 1 if rng.random() < 0.125 else int(rng.integers(2, most + 1))


def _rows(rng) -> tuple:
    """The leading shape: one row in four draws of five, else several rows
    or a batch of one sequence of several."""
    return (1,) if rng.random() < 0.8 else ((3,), (1, 3))[rng.integers(2)]


# the row sums' edge values: zeros of both signs, infinities, NaN of both
# signs, and values near the ends of the exponent range
ROW_SUM_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300,
                          1e-300, -1e-300, 1.0])


def _row_sum_draw(rng, n):
    """One (1, n) row over 16 decades, with edge values in none, some or all
    of its places, laid out as `_layouts` draws."""
    x = rng.normal(size=(1, n)) * 10.0 ** rng.integers(-8, 8, size=(1, n))
    mask = rng.random((1, n)) < rng.choice([0.0, 0.1, 0.5, 1.0])
    x[mask] = rng.choice(ROW_SUM_EDGES, size=int(mask.sum()))
    return _layouts(x)[rng.integers(4)]


def _captured(fn, x, *operands) -> Plan:
    """`fn(x, *operands)` captured with `x` as the input and the operands as
    parameters, which keep their layouts."""
    params = {str(k): Tensor(v) for k, v in enumerate(operands)}
    return capture(lambda p, x: fn(x, *p.values()), params, x)


def _replays(fn, x, *operands) -> list[bytes]:
    """The bytes of `fn(x, *operands)` replayed on `x` by two captured
    plans: one whose output it is, made afresh, and one in which it writes
    into a buffer of its own that a concatenate then copies out."""
    return [_captured(fn, x, *operands).run(x).tobytes(),
            _captured(lambda *a: concat([fn(*a)], axis=0), x, *operands).run(x).tobytes()]


def calls(plan: Plan, fwd) -> bool:
    """Whether the plan's replay calls the forward `fwd`, bound as a default."""
    return any(v is fwd for v in plan.run.__defaults__ or ())


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
class TestOneRowForms:
    """The forms that a captured plan writes for the affine map, layer norm
    and causal convolution, and its relu and concatenation, against their
    multi-row forwards (tests/util.py) or numpy's own calls, byte for byte.
    Most cases are one row; the layouts, widths and row counts that keep the
    forward's call are drawn too, and must match as well. Each form is
    replayed both as a plan's fresh output and writing into its own buffer."""

    def test_affine(self):
        rng = np.random.default_rng(17)
        for _ in range(ONE_ROW_CASES):
            k, n = _width(rng), _width(rng)
            x, w = _one_row_operand(rng, (*_rows(rng), k)), _one_row_operand(rng, (k, n))
            b = _one_row_operand(rng, (n,))
            assert _replays(affine, x, w, b) == [affine_oracle(x, w, b).tobytes()] * 2

    def test_layer_norm(self):
        # past 32 values the row sums are numpy's own
        rng = np.random.default_rng(18)
        for _ in range(ONE_ROW_CASES):
            n = _width(rng, 130)
            # an offset as large as the spread, or far larger
            x = _one_row_operand(rng, (*_rows(rng), n)) + rng.normal() * 10.0 ** rng.uniform(-4, 4)
            gamma, beta = _one_row_operand(rng, (n,)), _one_row_operand(rng, (n,))
            eps = float(rng.choice([1e-5, 1e-12, 0.1]))
            got = _replays(lambda x, g, b: layer_norm(x, g, b, eps), x, gamma, beta)
            assert got == [layer_norm_oracle(x, gamma, beta, eps).tobytes()] * 2

    def test_causal_conv1d(self):
        rng = np.random.default_rng(19)
        for _ in range(ONE_ROW_CASES):
            T, k, d = int(rng.integers(1, 41)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            most = 64 if rng.random() < 0.2 else 16
            c_in, c_out = _width(rng, most), _width(rng, most)
            start, stride = int(rng.integers(0, T)), int(rng.integers(1, 5))
            batch = 1 if rng.random() < 0.8 else 2
            x = _one_row_operand(rng, (batch, T, c_in))
            w, b = _one_row_operand(rng, (k, c_in, c_out)), _one_row_operand(rng, (c_out,))
            got = _replays(lambda x, w, b: causal_conv1d(x, w, b, d, start, stride), x, w, b)
            assert got == [causal_conv1d_oracle(x, w, b, d, start, stride).tobytes()] * 2

    @pytest.mark.parametrize("width", range(1, 131))
    def test_row_sum_equals_numpy(self, width):
        # the generated sum and sum of squares against np.add.reduce, NaN's
        # sign and payload included, with numpy's own sum for a NaN total and
        # for rows over 32 values; the expression alone, which keeps numpy's
        # order up to 128 values, against it too, NaN's bits aside
        numpy_sums = []
        scope = dict(autodiff._REPLAY_GLOBALS,
                     _reduce=lambda v: numpy_sums.append(v.shape) or np.add.reduce(v))
        body = [*autodiff._row_sum("t", "x", width, "{}", "_reduce(x[0])"),
                *autodiff._row_sum("q", "x", width, "{0} * {0}", "_reduce((x * x)[0])")]
        code = "\n    ".join(["def row_sums(x):", *body, "return t, q"])
        exec(compile(code, "<row sums>", "exec"), scope)
        expression = eval("lambda r: " + autodiff._pairwise([f"r[{i}]" for i in range(width)])) \
            if width <= 128 else None
        rng = np.random.default_rng(500 + width)
        for _ in range(200):
            x = _row_sum_draw(rng, width)
            numpy_sums.clear()
            got = np.array(scope["row_sums"](x))
            want = np.array([np.add.reduce(x[0]), np.add.reduce((x * x)[0])])
            assert got.tobytes() == want.tobytes()
            assert len(numpy_sums) == (2 if width > 32 else np.isnan(want).sum())
            if expression is not None:
                total = np.array(expression(x[0].tolist()))
                assert_same_bits(total, want[0])

    def test_causal_conv1d_with_a_non_finite_bias(self):
        # NaN of both signs in the product and in a C-ordered, strided or
        # one-value bias: each keeps the NaN that the broadcast add keeps
        rng = np.random.default_rng(23)
        edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0])
        for _ in range(300):
            T, k, d = int(rng.integers(1, 25)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            c_in, c_out = int(rng.integers(2, 17)), int(rng.integers(1, 17))
            start, stride = int(rng.integers(0, T)), int(rng.integers(1, 3))
            x = rng.choice(edges, size=(1, T, c_in)) * rng.normal(size=(1, T, c_in))
            w = rng.normal(size=(k, c_in, c_out))
            b = _layouts(rng.choice(edges, size=(1, c_out)))[rng.integers(4)][0]
            plan = _captured(lambda x, w, b: causal_conv1d(x, w, b, d, start, stride), x, w, b)
            assert not calls(plan, autodiff._causal_conv1d)
            got = _replays(lambda x, w, b: causal_conv1d(x, w, b, d, start, stride), x, w, b)
            assert got == [causal_conv1d_oracle(x, w, b, d, start, stride).tobytes()] * 2

    def test_affine_with_one_output_value(self):
        # NaN of either sign in the product and in the bias: the one-value sum
        # keeps the NaN that x @ w + b keeps
        rng = np.random.default_rng(24)
        edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0])
        for _ in range(ONE_ROW_CASES // 4):
            k = int(rng.integers(2, 65))
            x = _layouts(rng.choice(edges, size=(1, k)) * rng.normal(size=(1, k)))[rng.integers(4)]
            w = _one_row_operand(rng, (k, 1))
            b = rng.choice(edges, size=((1,), (1, 1))[rng.integers(2)])
            plan = _captured(affine, x, w, b)
            assert _replays(affine, x, w, b) == [affine_oracle(x, w, b).tobytes()] * 2
            assert w.flags.c_contiguous == (".dot(" in plan.source) and "+=" not in plan.source

    def test_relu_of_signed_zeros_and_nan(self):
        # the zero bound as a 0-d array gives fmax's bytes with a Python zero
        a = np.array([[-0.0, 0.0, np.nan, -np.nan, -1.0, 2.0, np.inf, -np.inf, 5e-324]])
        plan = _captured(relu, a)
        assert any(isinstance(v, np.ndarray) and v.shape == () for v in plan.run.__defaults__)
        for x in (a, a[:, ::-1], a * -1.0):
            assert plan.run(x).tobytes() == np.fmax(x, 0.0).tobytes()

    @pytest.mark.parametrize("forward", [
        lambda x: concat([x], axis=1),
        lambda x: concat([x[:, 1:]], axis=1),
        lambda x: concat([reshape(x, (3, 1))], axis=0),
        lambda x: concat([reshape(x * 2.0, (3, 1))], axis=0),
        lambda x: concat([x * 2.0, x], axis=1),
    ], ids=["input", "input-slice", "input-view", "fresh", "two-operands"])
    def test_one_operand_concatenate_never_returns_the_input(self, forward):
        # a concatenate copies, also of one operand that a step makes afresh
        x = np.array([[0.5, -0.0, np.nan]])
        plan = _captured(forward, x)
        assert "_concatenate" in plan.source
        got = plan.run(x)
        assert not np.shares_memory(got, x)
        assert got.tobytes() == forward(Tensor(x)).data.tobytes()

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "relu", "concat"])
    def test_expressions_written_into_a_buffer(self, op):
        # an operator, relu and a concatenate that write with out= into the
        # step's buffer give the bytes of the fresh result: NaN of both
        # signs, signed zeros, infinities, layouts and broadcast rows drawn
        fn = {"add": lambda x, c: x + c, "sub": lambda x, c: x - c, "mul": lambda x, c: x * c,
              "relu": lambda x, c: relu(x), "concat": lambda x, c: concat([x, c], axis=-1)}[op]
        rng = np.random.default_rng(25)
        edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 5e-324])
        for _ in range(300):
            n = int(rng.integers(1, 40))
            x, c = (_layouts(rng.choice(edges, size=(1, n)) * rng.normal(size=(1, n)))
                    [rng.integers(4)] for _ in range(2))
            if op != "concat" and rng.random() < 0.3:
                c = c[0]
            assert _replays(fn, x, c) == [fn(Tensor(x), Tensor(c)).data.tobytes()] * 2

    def test_lone_values_keep_matmuls_bits(self):
        # `dot` scales by a lone value without BLAS, which turns 0 * inf into
        # 0: rows one value wide must keep matmul, which gives NaN
        for v in SUM_EDGES:
            for u in SUM_EDGES:
                x, w, b = np.full((1, 1), v), np.full((1, 3), u), np.zeros(3)
                assert _replays(affine, x, w, b) == [affine_oracle(x, w, b).tobytes()] * 2
                x = np.array([[[1.0], [2.0], [v]]])
                for w in (np.full((2, 1, 3), u), np.full((2, 1, 1), u)):
                    b = np.zeros(w.shape[2])
                    # the last position alone, so one row of one value
                    got = _replays(lambda x, w, b: causal_conv1d(x, w, b, 1, 2), x, w, b)
                    assert got == [causal_conv1d_oracle(x, w, b, 1, 2).tobytes()] * 2

    def test_one_row_forms_taken(self, monkeypatch):
        class Spy(np.ndarray):
            """Counts the `dot` calls of the one-row affine map and convolution."""
            dots = 0

            def dot(self, *args):
                Spy.dots += 1
                return np.asarray(self).dot(*args)

        rng = np.random.default_rng(20)
        x, w, b = rng.normal(size=(2, 16)), rng.normal(size=(16, 8)), rng.normal(size=8)
        gamma, beta, kernel = rng.normal(size=16), rng.normal(size=16), w.reshape(2, 4, 16)

        def replay(rows, conv_x, w):
            """Capture the three primitives on plain arrays, then replay them
            on Spy views; returns the shapes `_sum_last` was called on."""
            plans = [(_captured(affine, rows, w, b), rows),
                     (_captured(layer_norm, rows, gamma, beta), rows),
                     (_captured(causal_conv1d, conv_x, kernel, beta), conv_x)]
            sums = []
            with monkeypatch.context() as m:
                m.setattr(autodiff, "_sum_last", lambda x: sums.append(x.shape) or
                          np.add.reduce(x, -1, keepdims=True))
                for plan, given in plans:
                    plan.run(given.view(Spy))
            return sums

        assert replay(x[:1], x.reshape(1, 8, 4), w) == [] and Spy.dots == 3
        # several rows, a kernel that is not C-ordered: numpy's multi-row calls
        assert replay(x, x.reshape(2, 4, 4), w) == [(2, 16), (2, 16)] and Spy.dots == 3
        assert replay(x[:1], x.reshape(1, 8, 4), np.asfortranarray(w)) == []
        assert Spy.dots == 3 + 2    # the layer norm and convolution keep their forms

    # operands, drawn by `r`, that each fail a guard of the one-row forms
    GUARD_FAILURES = {
        "affine-F-kernel": (affine, lambda r: (r((1, 4)), np.asfortranarray(r((4, 3))), r(3))),
        "affine-1-wide": (affine, lambda r: (r((1, 1)), r((1, 3)), r(3))),
        "affine-2-rows": (affine, lambda r: (r((2, 4)), r((4, 3)), r(3))),
        "layer-norm-2-rows": (layer_norm, lambda r: (r((2, 4)), r(4), r(4))),
        "conv-1-wide": (causal_conv1d, lambda r: (r((1, 5, 1)), r((2, 1, 3)), r(3))),
        "conv-strided-input": (causal_conv1d,
                               lambda r: (r((1, 5, 8))[:, :, ::2], r((2, 4, 3)), r(3))),
        "conv-F-kernel": (causal_conv1d,
                          lambda r: (r((1, 5, 4)), np.asfortranarray(r((2, 4, 3))), r(3))),
    }

    @pytest.mark.parametrize("case", list(GUARD_FAILURES))
    def test_guard_failing_operands_keep_the_call(self, case):
        primitive, draw = self.GUARD_FAILURES[case]
        fwd, oracle, extra = {affine: (autodiff._affine, affine_oracle, ()),
                              layer_norm: (autodiff._layer_norm, layer_norm_oracle, (1e-5,)),
                              causal_conv1d: (autodiff._causal_conv1d, causal_conv1d_oracle,
                                              ())}[primitive]
        rng = np.random.default_rng(22)
        x, *operands = draw(lambda shape: rng.normal(size=shape))
        plan = _captured(primitive, x, *operands)
        assert calls(plan, fwd) and ".dot(" not in plan.source
        assert plan.run(x).tobytes() == oracle(x, *operands, *extra).tobytes()


class TestTake:
    def test_repeated_indices_accumulate(self):
        a = Tensor(np.arange(4.0), requires_grad=True, name="a")
        grads = backward(take(a, np.array([0, 2, 0, 0])), {"a": a})
        assert np.array_equal(grads["a"], [3.0, 0.0, 1.0, 0.0])

    def test_basic_slice_gradient(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True, name="a")
        g = np.arange(8.0).reshape(2, 4) + 1.0
        grads = seeded_backward(a[:, -1, :], {"a": a}, g)
        want = np.zeros((2, 3, 4))
        want[:, -1, :] = g
        assert np.array_equal(grads["a"], want)


class TestLazyTape:
    def test_constants_record_nothing(self):
        out = tanh(affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), 0.0))
        assert not out.requires_grad and out._parents == () and out._vjp is None
        assert out._call is None
        # so backward gives a parameter that does not feed it a zero gradient
        w = Tensor(np.ones((3, 2)), requires_grad=True, name="w")
        assert np.array_equal(backward(out, {"w": w})["w"], np.zeros((3, 2)))

    def test_gradient_flow_marks_results(self):
        w = Tensor(np.ones(3), requires_grad=True, name="w")
        out = add(Tensor(np.ones(3)), w)
        assert out.requires_grad and len(out._parents) == 2

    def test_input_without_gradient_skipped(self):
        # the first layer's input takes no gradient, so its VJP returns None
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((3, 2)), requires_grad=True, name="w")
        b = Tensor(np.zeros(2), requires_grad=True, name="b")
        gx, gw, gb = affine(x, w, b)._vjp(np.ones((2, 2)))
        assert gx is None and gw.shape == (3, 2) and gb.shape == (2,)


class TestCapture:
    PARAMS = {"w": Tensor(np.arange(6.0).reshape(3, 2) - 2.5, requires_grad=True, name="w"),
              "b": Tensor(np.array([0.5, -1.0]), requires_grad=True, name="b")}

    def test_replay_on_new_inputs_equals_forward(self):
        def forward(p, x):
            # a scalar literal, and a factor computed from parameters alone
            scale = power(sum_axis(p["w"] * p["w"], axis=0), -0.5)
            return concat([tanh(affine(x, p["w"], p["b"])) * 0.5, x[:, :2] * scale], axis=1)

        plan = capture(forward, self.PARAMS, np.ones((1, 3)))
        for x in np.random.default_rng(0).normal(size=(5, 1, 3)):
            assert np.array_equal(plan(x), forward(self.PARAMS, Tensor(x)).data)

    @pytest.mark.parametrize("forward", [
        lambda p, x: x,
        lambda p, x: reshape(x, (3,)),
        lambda p, x: x[:, 1:],
        lambda p, x: p["b"],
        lambda p, x: reshape(p["w"], (6,)),
        lambda p, x: affine(x, p["w"], p["b"]),
    ], ids=["input", "input-view", "input-slice", "parameter", "folded", "fresh"])
    def test_replay_of_an_input_view_or_constant_equals_forward(self, forward):
        plan = capture(forward, self.PARAMS, np.ones((1, 3)))
        x = np.array([[0.5, -2.0, 3.0]])
        assert np.array_equal(plan(x), forward(self.PARAMS, Tensor(x)).data)

    @staticmethod
    def mixed_forward(p, x):
        # a scalar literal, a static argument, a view and a factor from parameters alone
        scale = power(sum_axis(p["w"] * p["w"], axis=0), -0.5)
        h = relu(affine(x, p["w"], p["b"]))
        return concat([tanh(h) * 0.5, x[:, :2] * scale, reshape(h, (-1, 2))], axis=1)

    def test_compiled_replay_equals_the_interpreted_one(self):
        x0 = np.ones((4, 3))
        plan = capture(self.mixed_forward, self.PARAMS, x0)
        assert len(plan._steps) == 8     # the parameter-only factor is folded
        for x in np.random.default_rng(1).normal(size=(5, 4, 3)):
            got = plan.run(x)
            assert got.tobytes() == replay_oracle(plan, x).tobytes() == plan(x).tobytes()

    def test_plans_of_one_shape_share_their_code(self):
        other = {k: Tensor(-2.0 * t.data, requires_grad=True) for k, t in self.PARAMS.items()}
        x = np.random.default_rng(2).normal(size=(4, 3))
        one, two = (capture(self.mixed_forward, p, x) for p in (self.PARAMS, other))
        assert one.run.__code__ is two.run.__code__
        for plan, p in ((one, self.PARAMS), (two, other)):
            assert np.array_equal(plan(x), self.mixed_forward(p, Tensor(x)).data)
        assert not np.array_equal(one(x), two(x))

    def test_wrong_number_of_inputs_rejected(self):
        plan = capture(lambda p, x, y: affine(x, p["w"], p["b"]) + y, self.PARAMS,
                       np.ones((1, 3)), np.ones((1, 2)))
        for inputs in ((np.ones((1, 3)),), (np.ones((1, 3)), np.ones((1, 2)), np.ones(2))):
            with pytest.raises(TypeError, match=f"plan takes 2 inputs, got {len(inputs)}"):
                plan(*inputs)

    def test_data_read_outside_a_primitive_rejected(self):
        def forward(p, x):
            h = affine(x, p["w"], p["b"])
            return relu(Tensor(h.data))

        with pytest.raises(RuntimeError, match="outside a primitive"):
            capture(forward, self.PARAMS, np.ones((1, 3)))

    def test_scalar_tensor_from_data_rejected(self):
        # a literal scalar is a constant, but a 0-d Tensor made from `.data`
        # is a value the replay would not recompute
        def forward(p, x):
            h = affine(x, p["w"], p["b"])
            return h * Tensor(h.data[0, 0])

        with pytest.raises(RuntimeError, match="outside a primitive"):
            capture(forward, self.PARAMS, np.ones((1, 3)))

    def test_parameters_without_gradient_captured(self):
        # a trained model's parameters take no gradient; capture wraps them,
        # so a weight-norm kernel computed from them alone still folds
        from toilcast.models import TcnConfig, build_model

        model = build_model("tcn", TcnConfig(kernel=2, n_filters=3, lookback=6,
                                             weight_norm=True))
        params = model.init_params(3)
        bare = {k: Tensor(t.data, name=t.name) for k, t in params.items()}
        xs = np.random.default_rng(3).normal(size=(6, 1, 18))
        plans = [capture(model.forward, p, xs[0]) for p in (params, bare)]
        assert plans[0].source == plans[1].source
        assert not any(calls(plans[1], f) for f in autodiff._VJP if f not in autodiff._FORMS)
        for x in xs:
            want = model.forward(bare, Tensor(x)).data
            assert plans[1](x).tobytes() == want.tobytes() == plans[0](x).tobytes()

    def test_replay_that_differs_from_the_forward_rejected(self, monkeypatch):
        monkeypatch.setattr(Plan, "__call__", lambda self, *inputs: np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="does not reproduce"):
            capture(lambda p, x: affine(x, p["w"], p["b"]), self.PARAMS, np.ones((1, 3)))

    def test_replay_that_differs_only_in_a_zeros_sign_rejected(self, monkeypatch):
        # equal values one bit apart: the replay gives 0.0 for -0.0 and back
        monkeypatch.setattr(Plan, "__call__", lambda self, *inputs: -self.run(*inputs))
        with pytest.raises(RuntimeError, match="does not reproduce"):
            capture(lambda p, x: affine(x, p["w"], p["b"]) * 0.0, self.PARAMS, np.ones((1, 3)))

    def test_step_that_misses_its_first_write_rejected(self, monkeypatch):
        # each buffer is NaN until its step writes it, whatever its memory
        # held before, so an affine map that only adds its bias into its
        # buffer fails capture
        first_replay, call = [], Plan.__call__

        def recording(plan, *inputs):
            if not first_replay:
                first_replay.extend((v, v.copy()) for v in plan.run.__defaults__
                                    if isinstance(v, np.ndarray))
            return call(plan, *inputs)

        monkeypatch.setattr(Plan, "__call__", recording)
        capture(self.mixed_forward, self.PARAMS, np.ones((1, 3)))
        written = [was for v, was in first_replay if v.tobytes() != was.tobytes()]
        assert written and all(np.isnan(was).all() for was in written)
        form = autodiff._FORMS[autodiff._affine]
        monkeypatch.setitem(autodiff._FORMS, autodiff._affine, lambda *args: form(*args)[1:])
        with pytest.raises(RuntimeError, match="does not reproduce"):
            capture(lambda p, x: affine(x, p["w"], p["b"]) * 2.0, self.PARAMS, np.ones((1, 3)))

    @pytest.mark.parametrize("forward", [
        mixed_forward,
        lambda p, x: affine(x, p["w"], p["b"])[:, 1:],
        lambda p, x: reshape(relu(affine(x, p["w"], p["b"]))[:, ::-1], (2,)),
        lambda p, x: relu(affine(x, p["w"], p["b"])) * 2.0,
    ], ids=["concatenate", "view-of-a-form", "views-of-an-operator", "operator"])
    def test_replays_return_arrays_of_their_own(self, forward):
        # the output step, and the steps it is a view of, make a fresh array
        # on every replay, which the next replay leaves as it was
        plan = capture(forward, self.PARAMS, np.ones((1, 3)))
        x, y = np.random.default_rng(4).normal(size=(2, 1, 3))
        one = plan(x)
        kept = one.copy()
        two = plan(y)
        assert not np.shares_memory(one, two) and one.tobytes() == kept.tobytes()
        assert two.tobytes() == forward(self.PARAMS, Tensor(y)).data.tobytes()

    @pytest.mark.parametrize("family", ["tcn", "tide"])
    def test_replay_leaves_nothing_to_the_next(self, family):
        # a plan replayed on window A and then on B gives on B the bytes of
        # a plan captured on B: each replay writes every buffer in full
        from toilcast.models import TcnConfig, TideConfig, build_model

        rng = np.random.default_rng(5)
        if family == "tcn":
            model = build_model("tcn", TcnConfig(kernel=2, n_filters=3, lookback=6))
            params, forward = model.init_params(3), model.forward
            a, b = ((rng.normal(size=(1, 18)),) for _ in range(2))
        else:
            model = build_model("tide", TideConfig(temporal_width=2, decoder_output_dim=3,
                                                   hidden_size=8, lookback=6,
                                                   use_layer_norm=True))
            params, forward = model.init_params(3), model.decode
            a, b = ((rng.normal(size=(1, 6, 3)),
                     model.project(params, rng.normal(size=(1, 7, 2))).data) for _ in range(2))
        plan = capture(forward, params, *a)
        plan(*a)
        assert plan(*b).tobytes() == capture(forward, params, *b)(*b).tobytes()
        if family == "tcn":     # a tap that adds onto the product from its second row on
            assert any(j0 >= 1 for fwd, args, _ in plan._steps if fwd is autodiff._causal_conv1d
                       for _, j0, _ in plan._vals[args[4]])

    @pytest.mark.parametrize("key", [np.array([1, 0, 1]), slice(1, None)],
                             ids=["integer-array", "slice"])
    def test_only_views_of_a_step_are_bound(self, key):
        # numpy copies on an integer-array index, so that getitem of a step's
        # buffer is made on every replay; a slice is a view, bound at capture
        def forward(p, x):
            return relu(affine(x, p["w"], p["b"]))[:, key] * 2.0

        plan = capture(forward, self.PARAMS, np.ones((1, 3)))
        per_replay = re.search(r"^    s\d+ = s\d+\[s\d+\]$", plan.source, re.M)
        assert bool(per_replay) == isinstance(key, np.ndarray)
        for x in np.random.default_rng(6).normal(size=(3, 1, 3)):
            assert plan(x).tobytes() == forward(self.PARAMS, Tensor(x)).data.tobytes()


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True, name="w")}
        state = nn.AdamState(learning_rate=0.1)
        before = p["w"].data.copy()
        nn.adam_update(p, {"w": np.zeros(2)}, state)
        assert np.array_equal(p["w"].data, before)
        assert state.step_count == 1

    def test_determinism_across_runs(self):
        def run():
            rng = nn.rng_from_seed(7, 0)
            p = {"w": Tensor(rng.normal(size=(3,)), requires_grad=True, name="w")}
            state = nn.AdamState(learning_rate=0.05)
            for _ in range(2):
                g = backward(mean(p["w"] * p["w"]), p)
                nn.adam_update(p, g, state)
            return p["w"].data

        assert np.array_equal(run(), run())

    def test_first_step_magnitude(self):
        # bias-corrected first step moves by ~lr regardless of the gradient scale
        p = {"w": Tensor(1.0, requires_grad=True, name="w")}
        nn.adam_update(p, {"w": np.asarray(1.0)}, nn.AdamState(learning_rate=0.1))
        assert p["w"].data == pytest.approx(0.9, abs=1e-8)

    def test_non_finite_gradient_names_parameter(self):
        p = {"bad_param": Tensor(1.0, requires_grad=True, name="bad_param")}
        with pytest.raises(FloatingPointError, match="bad_param"):
            nn.adam_update(p, {"bad_param": np.asarray(np.nan)}, nn.AdamState())

    def test_non_finite_gradient_changes_nothing(self):
        p = {"a": Tensor(1.0, requires_grad=True, name="a"),
             "b": Tensor(np.ones(2), requires_grad=True, name="b")}
        state = nn.AdamState(learning_rate=0.1)
        nn.adam_update(p, {"a": np.asarray(0.5), "b": np.full(2, 0.25)}, state)
        before = {name: t.data.copy() for name, t in p.items()}
        m, v = state.m.copy(), state.v.copy()
        with pytest.raises(FloatingPointError, match="'b'"):
            nn.adam_update(p, {"a": np.asarray(1.0), "b": np.array([1.0, np.nan])}, state)
        assert state.step_count == 1
        for name in p:
            assert np.array_equal(p[name].data, before[name]), name
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    def test_empty_parameter_set_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            nn.adam_update({}, {}, nn.AdamState())

    def test_flat_update_equals_the_per_parameter_loop(self):
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "s": (), "k": (2, 3, 1)}
        p = {n: Tensor(rng.normal(size=s), requires_grad=True, name=n) for n, s in shapes.items()}
        ref = {n: t.data.copy() for n, t in p.items()}
        state, m, v = nn.AdamState(learning_rate=0.05), {}, {}
        held = p["w"].data
        for t in range(1, 5):
            if t == 3:  # a parameter rebound between steps is read afresh
                p["b"].data = ref["b"] = rng.normal(size=4)
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            nn.adam_update(p, grads, state)
            b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for n, g in grads.items():   # the per-parameter update, as a reference
                m[n] = b1 * m.get(n, 0.0) + (1.0 - b1) * g
                v[n] = b2 * v.get(n, 0.0) + (1.0 - b2) * g * g
                ref[n] = ref[n] - state.learning_rate * (m[n] / c1) / (
                    np.sqrt(v[n] / c2) + nn.ADAM_EPS)
            for n in p:
                assert p[n].data.shape == shapes[n]
                assert np.array_equal(p[n].data, ref[n]), (t, n)
        # arrays bound before a step, such as a captured plan's constants, keep their values
        assert held is not p["w"].data and not np.array_equal(held, p["w"].data)


class TestInit:
    def test_same_seed_identical(self):
        make = lambda: nn.fan_in_uniform(nn.rng_from_seed(3, 0), 8, (8, 4))
        assert np.array_equal(make(), make())

    def test_different_seeds_differ(self):
        a = nn.fan_in_uniform(nn.rng_from_seed(3, 0), 8, (8, 4))
        b = nn.fan_in_uniform(nn.rng_from_seed(4, 0), 8, (8, 4))
        assert (a != b).any()

    def test_fan_in_bound(self):
        n = 17
        w = nn.fan_in_uniform(nn.rng_from_seed(0, 0), n, (n, 64))
        assert np.abs(w).max() <= np.sqrt(6.0 / n)

    def test_biases_zero(self):
        params = {}
        nn.init_linear(params, nn.rng_from_seed(0, 0), "l", 4, 4)
        assert np.array_equal(params["l.b"].data, np.zeros(4))


def _gradcheck_config(kind: str, rng: np.random.Generator) -> float:
    """One random tiny configuration of a layer primitive, checked against
    central finite differences."""
    params = {}
    if kind in ("dense_relu", "dense_tanh", "dense_sigmoid", "dense_identity"):
        act = kind.split("_")[1]
        n_in, n_hidden = rng.integers(2, 6), rng.integers(2, 6)
        nn.init_linear(params, rng, "l", n_in, n_hidden)
        x = rng.normal(size=(3, n_in)) + 0.1  # keep preactivations off the relu kink
        f = lambda: mean(nn.dense(Tensor(x), params, "l", act) ** 2)
    elif kind == "conv":
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nn.init_conv(params, rng, "c", k, c_in, c_out)
        x = rng.normal(size=(2, int(rng.integers(4, 9)), c_in))
        f = lambda: mean(causal_conv1d(Tensor(x), params["c.w"], params["c.b"], d) ** 2)
    elif kind == "conv_strided":
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nn.init_conv(params, rng, "c", k, c_in, c_out)
        T = int(rng.integers(4, 12))
        start, stride = int(rng.integers(0, T)), int(rng.integers(1, 4))
        params["x"] = Tensor(rng.normal(size=(2, T, c_in)), requires_grad=True)
        f = lambda: mean(causal_conv1d(params["x"], params["c.w"], params["c.b"], d,
                                       start, stride) ** 2)
    elif kind == "residual":
        n = int(rng.integers(2, 5))
        nn.init_residual_block(params, rng, "r", n, n + 1, n)
        x = rng.normal(size=(3, n))
        f = lambda: mean(nn.residual_block(Tensor(x), params, "r", "tanh") ** 2)
    elif kind == "composite":
        # concat/reshape/abs/max mixed into one graph
        n = int(rng.integers(2, 5))
        nn.init_linear(params, rng, "a", n, n)
        nn.init_linear(params, rng, "b", n, n)
        x = rng.normal(size=(2, n))
        y = rng.normal(size=(2, 2 * n))

        def f():
            ha = nn.dense(Tensor(x), params, "a", "tanh")
            hb = nn.dense(Tensor(x), params, "b", "sigmoid")
            h = reshape(concat([ha, hb], axis=1), (2, 2 * n))
            return mean(maximum(absolute(h - Tensor(y)), (h - Tensor(y)) * 0.3))
    else:
        raise AssertionError(kind)
    return max_rel_err(f, params)


PRIMITIVES = ("dense_relu", "dense_tanh", "dense_sigmoid", "dense_identity",
              "conv", "conv_strided", "residual", "composite")


@pytest.mark.parametrize("kind", PRIMITIVES)
def test_universal_gradient_check(kind):
    rng = np.random.default_rng(hash(kind) % 2 ** 32)
    worst = max(_gradcheck_config(kind, rng) for _ in range(100))
    assert worst <= TOL, f"{kind}: worst rel err {worst:.2e}"


class TestRegularizationSwitches:
    def test_dropout_identity_in_eval_mode(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert nn.dropout(x, 0.5, None) is x
        assert nn.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones((4, 1000)))
        out = nn.dropout(x, 0.25, np.random.default_rng(1))
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_dropout_gradcheck_with_fixed_mask(self):
        params = {}
        nn.init_linear(params, np.random.default_rng(2), "l", 4, 5)
        x = np.random.default_rng(3).normal(size=(3, 4))

        def loss():
            h = nn.dense(Tensor(x), params, "l", "tanh")
            return mean(nn.dropout(h, 0.4, np.random.default_rng(7)) ** 2)

        assert max_rel_err(loss, params) <= TOL

    def test_weight_norm_kernel_matches_raw_at_init(self):
        params = {}
        nn.init_conv(params, np.random.default_rng(4), "c", 2, 3, 4, weight_norm=True)
        eff = nn.conv_kernel(params, "c")
        assert np.abs(eff.data - params["c.w"].data).max() <= 1e-12

    def test_weight_norm_gradcheck(self):
        params = {}
        nn.init_conv(params, np.random.default_rng(5), "c", 2, 2, 3, weight_norm=True)
        x = np.random.default_rng(6).normal(size=(2, 6, 2))

        def loss():
            k = nn.conv_kernel(params, "c")
            return mean(causal_conv1d(Tensor(x), k, params["c.b"], 2) ** 2)

        assert max_rel_err(loss, params) <= TOL

    def test_layer_norm_statistics(self):
        params = {}
        nn.init_layer_norm(params, "r", 16)
        x = Tensor(np.random.default_rng(7).normal(3.0, 5.0, size=(8, 16)))
        out = nn.layer_norm(x, params, "r").data
        assert np.abs(out.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.std(axis=-1) - 1.0).max() < 1e-3

    def test_layer_norm_residual_block_gradcheck(self):
        params = {}
        nn.init_residual_block(params, np.random.default_rng(8), "r", 4, 5, 4,
                               use_layer_norm=True)
        assert "r.ln_gamma" in params
        x = np.random.default_rng(9).normal(size=(3, 4))

        def loss():
            return mean(nn.residual_block(Tensor(x), params, "r", "tanh") ** 2)

        assert max_rel_err(loss, params) <= TOL

    def test_layer_norm_skipped_for_scalar_output_blocks(self):
        # normalizing one feature would erase the signal entirely
        params = {}
        nn.init_residual_block(params, np.random.default_rng(10), "r", 4, 5, 1,
                               use_layer_norm=True)
        assert "r.ln_gamma" not in params
        x = np.random.default_rng(11).normal(size=(3, 4))
        out = nn.residual_block(Tensor(x), params, "r", "tanh").data
        assert np.std(out) > 0.0
