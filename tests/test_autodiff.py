import numpy as np
import pytest

from toilcast import nn
from toilcast.autodiff import (Plan, Tensor, absolute, add, affine, backward, capture,
                               causal_conv1d, concat, layer_norm, maximum, mean,
                               no_grad, power, relu, reshape, sigmoid, sum_axis, take, tanh)
from util import max_rel_err, relu_oracle

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
        got = backward(relu(x), {"x": x}, g)["x"]
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
        combined = backward(a * f() + b * g(), {"w": w})["w"]
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
        grads = backward(out, params, output_grad=g)
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
        got, want = backward(out, params, g), backward(full, params, g_full)
        for name in params:
            assert np.abs(got[name] - want[name]).max() <= 1e-12, name

    @pytest.mark.parametrize("start, stride, named", [(0, 0, r"stride \(0\)"),
                                                      (1, -2, r"stride \(-2\)"),
                                                      (-1, 1, r"start \(-1\)"),
                                                      (5, 1, r"start \(5\)")])
    def test_bad_start_or_stride_names_the_argument(self, start, stride, named):
        with pytest.raises(ValueError, match=named):
            causal_conv1d(Tensor(np.zeros((1, 5, 2))), Tensor(np.zeros((2, 2, 2))),
                          Tensor(np.zeros(2)), 1, start, stride)


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
    return out_f.data, out_c.data, backward(out_f, params, g), backward(out_c, params, g)


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
            grads = backward(out, params, g)
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


class TestTake:
    def test_repeated_indices_accumulate(self):
        a = Tensor(np.arange(4.0), requires_grad=True, name="a")
        grads = backward(take(a, np.array([0, 2, 0, 0])), {"a": a})
        assert np.array_equal(grads["a"], [3.0, 0.0, 1.0, 0.0])

    def test_basic_slice_gradient(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True, name="a")
        g = np.arange(8.0).reshape(2, 4) + 1.0
        grads = backward(a[:, -1, :], {"a": a}, output_grad=g)
        want = np.zeros((2, 3, 4))
        want[:, -1, :] = g
        assert np.array_equal(grads["a"], want)


class TestLazyTape:
    def test_constants_record_nothing(self):
        out = tanh(affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), 0.0))
        assert not out.requires_grad and out._parents == () and out._vjp is None

    def test_gradient_flow_marks_results(self):
        w = Tensor(np.ones(3), requires_grad=True, name="w")
        out = add(Tensor(np.ones(3)), w)
        assert out.requires_grad and len(out._parents) == 2

    def test_no_grad_records_nothing_and_backward_gives_zeros(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True, name="w")
        with no_grad():
            out = mean(relu(affine(Tensor(np.ones((4, 3))), w, 0.0)))
        assert not out.requires_grad and out._parents == ()
        assert np.array_equal(backward(out, {"w": w})["w"], np.zeros((3, 2)))

    def test_no_grad_nests_and_restores(self):
        w = Tensor(np.ones(2), requires_grad=True, name="w")
        with no_grad():
            with no_grad():
                assert not (w * w).requires_grad
            assert not (w * w).requires_grad
        assert (w * w).requires_grad

    def test_no_grad_restores_after_exception(self):
        w = Tensor(np.ones(2), requires_grad=True, name="w")
        with pytest.raises(ValueError, match="incompatible"):
            with no_grad():
                affine(w, Tensor(np.ones((3, 3))), 0.0)
        assert (w * w).requires_grad

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
            with no_grad():
                want = forward(self.PARAMS, Tensor(x)).data
            assert np.array_equal(plan(x), want)

    @pytest.mark.parametrize("forward", [
        lambda p, x: x,
        lambda p, x: reshape(x, (3,)),
        lambda p, x: x[:, 1:],
        lambda p, x: p["b"],
        lambda p, x: reshape(p["w"], (6,)),
        lambda p, x: affine(x, p["w"], p["b"]),
    ], ids=["input", "input-view", "input-slice", "parameter", "folded", "fresh"])
    def test_replay_result_is_the_callers_own(self, forward):
        x = np.ones((1, 3))
        plan = capture(forward, self.PARAMS, x)
        out = plan(x)
        with no_grad():
            assert np.array_equal(out, forward(self.PARAMS, Tensor(x)).data)
        for v in (x, *self.PARAMS.values(), *plan._vals):
            data = v.data if isinstance(v, Tensor) else v
            assert not (isinstance(data, np.ndarray) and np.may_share_memory(out, data))
        assert not np.may_share_memory(out, plan(x))

    def test_data_read_outside_a_primitive_rejected(self):
        def forward(p, x):
            h = affine(x, p["w"], p["b"])
            return relu(Tensor(h.data))

        with pytest.raises(RuntimeError, match="outside a primitive"):
            capture(forward, self.PARAMS, np.ones((1, 3)))

    def test_replay_that_differs_from_the_forward_rejected(self, monkeypatch):
        monkeypatch.setattr(Plan, "__call__", lambda self, *inputs: np.zeros((1, 2)))
        with pytest.raises(RuntimeError, match="does not reproduce"):
            capture(lambda p, x: affine(x, p["w"], p["b"]), self.PARAMS, np.ones((1, 3)))


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
            c1, c2 = 1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t
            for n, g in grads.items():   # the per-parameter update, as a reference
                m[n] = state.beta1 * m.get(n, 0.0) + (1.0 - state.beta1) * g
                v[n] = state.beta2 * v.get(n, 0.0) + (1.0 - state.beta2) * g * g
                ref[n] = ref[n] - state.learning_rate * (m[n] / c1) / (
                    np.sqrt(v[n] / c2) + state.eps)
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
            return mean(maximum(absolute(h - Tensor(y)), 0.3 * (h - Tensor(y))))
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
