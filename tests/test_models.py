import base64
import json
import re

import numpy as np
import pytest

from toilcast import autodiff, nn
from toilcast.autodiff import Tensor, absolute, mean
from toilcast.models import (Mlp, MlpConfig, Tcn, TcnConfig, Tide, TideConfig,
                             TrainedModel, build_model, config_from_dict,
                             _rf, load_checkpoint, save_checkpoint)
from toilcast.series import AffineScaler
from util import max_rel_err

RNG = np.random.default_rng(2024)


class TestMlp:
    def test_zeroed_network_returns_head_bias(self):
        cfg = MlpConfig(n_layers=2, n_neurons=4, lookback=3, n_channels=2)
        m = Mlp(cfg)
        params = m.init_params(0)
        for t in params.values():
            t.data = np.zeros_like(t.data)
        params["head.b"].data = np.array([3.75])
        out = m.forward(params, RNG.normal(size=(5, 6)))
        assert np.array_equal(out.data, np.full((5, 1), 3.75))

    def test_paper_best_configuration_runs(self):
        # 8 layers, 128 neurons, 4-hour look-back
        cfg = MlpConfig(n_layers=8, n_neurons=128, lookback=48, n_channels=3)
        m = Mlp(cfg)
        out = m.forward(m.init_params(1), RNG.normal(size=(2, 144)))
        assert out.shape == (2, 1) and np.isfinite(out.data).all()

    def test_quantile_head_output_length(self):
        cfg = MlpConfig(n_layers=2, n_neurons=8, lookback=4, n_channels=3,
                        quantiles=(0.01, 0.5, 0.99))
        m = Mlp(cfg)
        out = m.forward(m.init_params(0), RNG.normal(size=(1, 12)))
        assert out.shape == (1, 3)

    def test_shape_mismatch_rejected(self):
        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=3, n_channels=2)
        m = Mlp(cfg)
        with pytest.raises(ValueError, match="matmul"):
            m.forward(m.init_params(0), RNG.normal(size=(1, 5)))


def receptive_field(cfg: TcnConfig) -> int:
    return _rf(cfg.kernel, Tcn(cfg).n_blocks)


class TestReceptiveField:
    def test_kernel2_five_blocks(self):
        assert receptive_field(TcnConfig(kernel=2, n_blocks=5, lookback=48)) == 63

    def test_kernel1_pointwise(self):
        assert receptive_field(TcnConfig(kernel=1, n_blocks=7, lookback=1)) == 1

    def test_kernel4_two_blocks(self):
        assert receptive_field(TcnConfig(kernel=4, n_blocks=2, lookback=19)) == 19

    def test_kernel2_one_block(self):
        assert receptive_field(TcnConfig(kernel=2, n_blocks=1, lookback=3)) == 3


class TestTcn:
    def test_auto_blocks_cover_lookback(self):
        for L in (24, 48, 96):
            t = Tcn(TcnConfig(kernel=2, n_filters=4, lookback=L))
            assert receptive_field(TcnConfig(kernel=2, n_blocks=t.n_blocks,
                                             lookback=L)) >= L

    def test_explicit_blocks_too_small_rejected(self):
        with pytest.raises(ValueError, match="receptive field"):
            Tcn(TcnConfig(kernel=2, n_blocks=2, lookback=48))

    def test_oldest_sample_reaches_output(self):
        cfg = TcnConfig(kernel=2, n_filters=8, lookback=48, n_channels=3)
        t = Tcn(cfg)
        params = t.init_params(3)
        x = RNG.normal(size=(1, 144))
        base = t.forward(params, x).data
        bumped = x.copy()
        bumped[0, 0] += 1.0  # oldest timestep, first channel
        assert not np.array_equal(t.forward(params, bumped).data, base)

    def test_causality_bitwise(self):
        cfg = TcnConfig(kernel=2, n_filters=4, lookback=12, n_channels=2)
        t = Tcn(cfg)
        params = t.init_params(5)
        x = RNG.normal(size=(1, 24))
        base = t.forward_sequence(params, x).data
        for step in (3, 7, 11):
            bumped = x.reshape(1, 12, 2).copy()
            bumped[0, step, :] += 5.0
            out = t.forward_sequence(params, bumped.reshape(1, 24)).data
            assert np.array_equal(out[0, :step], base[0, :step])
            assert not np.array_equal(out[0, step:], base[0, step:])

    @pytest.mark.parametrize("weight_norm", (False, True))
    @pytest.mark.parametrize("n_channels", (3, 4))  # 3: 1x1 skip conv; 4: identity
    @pytest.mark.parametrize("extra_blocks", (0, 2))
    @pytest.mark.parametrize("lookback", (1, 5, 24, 31))
    @pytest.mark.parametrize("kernel", (2, 3, 4))
    def test_forward_computes_only_the_last_receptive_field(
            self, kernel, lookback, extra_blocks, n_channels, weight_norm):
        auto = Tcn(TcnConfig(kernel=kernel, lookback=lookback)).n_blocks
        t = Tcn(TcnConfig(kernel=kernel, n_filters=4, lookback=lookback,
                          n_blocks=auto + extra_blocks, n_channels=n_channels,
                          weight_norm=weight_norm))
        params = t.init_params(11)
        x = RNG.normal(size=(5, lookback * n_channels))
        got = t.forward(params, x)
        want = nn.linear(t._features(params, x)[:, -1], params, "head")
        if extra_blocks:
            # the late blocks of a deeper stack run on one row, and numpy
            # hands a one-row product to gemv, which rounds unlike gemm
            assert np.abs(got.data - want.data).max() <= 1e-13
        else:
            # every product keeps at least two rows at these sizes: same
            # BLAS route, same bits
            assert np.array_equal(got.data, want.data)
        seq = t.forward_sequence(params, x).data[:, -1]
        assert np.abs(got.data - seq).max() <= 1e-13  # 3-D head: another route
        g_got = autodiff.backward(mean(got), params)
        g_want = autodiff.backward(mean(want), params)
        for name in params:
            assert np.abs(g_got[name] - g_want[name]).max() <= 1e-12, name

    def test_pruned_dropout_draws_the_full_masks(self):
        cfg = TcnConfig(kernel=2, n_filters=4, lookback=24, n_channels=3, dropout=0.2)
        t = Tcn(cfg)
        params = t.init_params(2)
        x = RNG.normal(size=(6, 72))
        got = t.forward(params, x, rng=np.random.default_rng(9)).data
        want = nn.linear(t._features(params, x, np.random.default_rng(9))[:, -1],
                         params, "head").data
        assert np.array_equal(got, want)
        assert not np.array_equal(got, t.forward(params, x).data)  # masks applied

    def test_paper_best_configuration_runs(self):
        # kernel 2, 16 filters, 4-hour look-back
        cfg = TcnConfig(kernel=2, n_filters=16, lookback=48, n_channels=3)
        t = Tcn(cfg)
        out = t.forward(t.init_params(1), RNG.normal(size=(2, 144)))
        assert out.shape == (2, 1) and np.isfinite(out.data).all()


class TestTide:
    def test_shape_arithmetic(self):
        # L=48, H=1, r=2, r-tilde=4, p=8: decoder vector has 8 entries,
        # reshaped 8x1; one output per target
        cfg = TideConfig(temporal_width=4, decoder_output_dim=8, lookback=48,
                         horizon=1, n_targets=1, n_covariates=2)
        m = Tide(cfg)
        params = m.init_params(0)
        assert params["decoder1.dense2.w"].shape[1] == 8
        out = m.forward(params, RNG.normal(size=(2, 144)), RNG.normal(size=(2, 2)))
        assert out.shape == (2, 1)

    def test_residual_isolation(self):
        cfg = TideConfig(temporal_width=4, decoder_output_dim=8,
                         temporal_decoder_hidden=8, lookback=48, horizon=1,
                         n_targets=1, n_covariates=2)
        m = Tide(cfg)
        params = m.init_params(7)
        for name, t in params.items():
            if not name.startswith("global"):
                t.data = np.zeros_like(t.data)
        x = RNG.normal(size=(3, 144))
        fut = RNG.normal(size=(3, 2))
        lookback_only = x.reshape(3, 48, 3)[:, :, 0]
        expect = lookback_only @ params["global.w"].data + params["global.b"].data
        got = m.forward(params, x, fut).data
        assert np.abs(got - expect).max() <= 1e-12

    def test_multi_step_horizon_shapes(self):
        cfg = TideConfig(temporal_width=2, decoder_output_dim=3, lookback=6,
                         horizon=4, n_targets=2, n_covariates=2,
                         quantiles=(0.01, 0.5, 0.99))
        m = Tide(cfg)
        out = m.forward(m.init_params(0), RNG.normal(size=(2, 24)),
                        RNG.normal(size=(2, 8)))
        assert out.shape == (2, 4 * 2 * 3)

    def test_short_future_covariates_rejected(self):
        cfg = TideConfig(lookback=6, horizon=2, n_targets=1, n_covariates=2)
        m = Tide(cfg)
        with pytest.raises(ValueError, match="covariates"):
            m.forward(m.init_params(0), RNG.normal(size=(1, 18)),
                      RNG.normal(size=(1, 2)))  # needs 2 steps * 2 covariates


class TestShapeContract:
    @pytest.mark.parametrize("quantiles", [(), (0.01, 0.5, 0.99)])
    def test_all_families_emit_h_t_q(self, quantiles):
        L, H, T = 6, 2, 2
        n_q = max(1, len(quantiles))
        x = RNG.normal(size=(3, L * 4))
        fut = RNG.normal(size=(3, H * 2))
        mlp = Mlp(MlpConfig(n_layers=1, n_neurons=4, lookback=L, n_channels=4,
                            n_targets=T, horizon=H, quantiles=quantiles))
        tcn = Tcn(TcnConfig(kernel=2, n_filters=3, lookback=L, n_channels=4,
                            n_targets=T, horizon=H, quantiles=quantiles))
        tide = Tide(TideConfig(temporal_width=2, decoder_output_dim=3, lookback=L,
                               horizon=H, n_targets=T, n_covariates=2,
                               quantiles=quantiles))
        assert mlp.forward(mlp.init_params(0), x).shape == (3, H * T * n_q)
        assert tcn.forward(tcn.init_params(0), x).shape == (3, H * T * n_q)
        assert tide.forward(tide.init_params(0), x, fut).shape == (3, H * T * n_q)


class TestFullModelGradients:
    def test_mlp(self):
        rng = np.random.default_rng(211)
        cfg = MlpConfig(n_layers=2, n_neurons=4, lookback=4, n_channels=2)
        m = Mlp(cfg)
        params = m.init_params(11)
        x = rng.normal(size=(3, 8))
        y = rng.normal(size=(3, 1))
        loss = lambda: mean(absolute(m.forward(params, x) - Tensor(y)))
        assert max_rel_err(loss, params) <= 1e-4

    def test_tcn(self):
        rng = np.random.default_rng(212)
        cfg = TcnConfig(kernel=2, n_filters=3, lookback=6, n_channels=2)
        m = Tcn(cfg)
        params = m.init_params(12)
        x = rng.normal(size=(2, 12))
        y = rng.normal(size=(2, 1))
        loss = lambda: mean(absolute(m.forward(params, x) - Tensor(y)))
        assert max_rel_err(loss, params) <= 1e-4

    def test_tide(self):
        rng = np.random.default_rng(213)
        cfg = TideConfig(temporal_width=2, decoder_output_dim=3,
                         temporal_decoder_hidden=4, hidden_size=5, lookback=5,
                         horizon=2, n_targets=1, n_covariates=2)
        m = Tide(cfg)
        params = m.init_params(13)
        x = rng.normal(size=(2, 15))
        fut = rng.normal(size=(2, 4))
        y = rng.normal(size=(2, 2))
        loss = lambda: mean(absolute(m.forward(params, x, fut) - Tensor(y)))
        assert max_rel_err(loss, params) <= 1e-4


def make_trained(quantiles=(), family="ann"):
    scaler = AffineScaler({"top_oil": (0.01, 0.0), "ambient": (0.01, 0.0),
                           "load_factor": (1.0, 0.0), "temp_rise": (0.01, 0.0)})
    if family == "ann":
        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=4, n_channels=3,
                        quantiles=quantiles)
    elif family == "tcn":
        cfg = TcnConfig(kernel=2, n_filters=3, lookback=4, quantiles=quantiles)
    else:
        cfg = TideConfig(temporal_width=2, decoder_output_dim=3, lookback=4,
                         n_covariates=2, quantiles=quantiles, use_layer_norm=True)
    model = build_model(family, cfg)
    return TrainedModel(family, cfg, model.init_params(5),
                        ("top_oil", "ambient", "load_factor"), ("top_oil",),
                        scaler, seed=5)


class TestTrainedModel:
    def test_predict_window_shape_and_units(self):
        tm = make_trained()
        window = RNG.normal(40.0, 5.0, size=(4, 3))
        out = tm.predict_window(window, RNG.normal(size=(1, 2)))
        assert out.shape == (1, 1, 1) and np.isfinite(out).all()

    def test_predict_enforces_non_crossing(self):
        tm = make_trained(quantiles=(0.01, 0.5, 0.99))
        window = RNG.normal(40.0, 5.0, size=(4, 3))
        out = tm.predict_window(window, RNG.normal(size=(1, 2)))
        assert out.shape == (1, 1, 3)
        assert (np.diff(out[0, 0]) >= 0).all()

    def test_tide_needs_future(self):
        tm = make_trained(family="tide")
        with pytest.raises(ValueError, match="covariates"):
            tm.predict_window(RNG.normal(size=(4, 3)), None)

    @pytest.mark.parametrize("future", [[5.0], np.zeros((1, 3)), np.zeros((2, 2))])
    def test_tide_future_of_the_wrong_size_rejected(self, future):
        # one value was broadcast into both covariates: [5.0] forecast as [5.0, 5.0]
        tm = make_trained(family="tide")
        window = RNG.normal(40.0, 5.0, size=(4, 3))
        with pytest.raises(ValueError, match=rf"future covariates cover {np.size(future)} "
                                             r"values, need horizon\*n_covariates = 2"):
            tm.predict_window(window, future)
        assert tm.predict_window(window, [5.0, 5.0]).shape == (1, 1, 1)

    def test_wrong_window_shape_rejected(self):
        tm = make_trained()
        with pytest.raises(ValueError, match="window shape"):
            tm.predict_window(RNG.normal(size=(3, 3)))

    def test_checkpoint_round_trip(self, tmp_path):
        tm = make_trained(quantiles=(0.01, 0.5, 0.99))
        path = tmp_path / "model.checkpoint.json"
        save_checkpoint(path, tm)
        back = load_checkpoint(path)
        assert back.family == tm.family
        assert back.config == tm.config
        assert back.config_hash == tm.config_hash
        assert back.scaler == tm.scaler
        assert set(back.params) == set(tm.params)
        for name in tm.params:
            assert np.array_equal(back.params[name].data, tm.params[name].data)
        # as a trained model's: so a TiDE rollout's projection records no tape
        assert not any(t.requires_grad for t in back.params.values())
        window = RNG.normal(40.0, 5.0, size=(4, 3))
        assert np.array_equal(back.predict_window(window), tm.predict_window(window))

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        tm = make_trained()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, tm)
        save_checkpoint(p2, tm)
        assert p1.read_bytes() == p2.read_bytes()

    def _tampered(self, tmp_path, edit):
        path = tmp_path / "model.checkpoint.json"
        save_checkpoint(path, make_trained(family="tide"))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_checkpoint_tampered_hash_rejected(self, tmp_path):
        def edit(doc):
            doc["scaling"]["top_oil"]["gain"] = 0.02
        with pytest.raises(ValueError, match="config_hash"):
            load_checkpoint(self._tampered(tmp_path, edit))

    def test_checkpoint_wrong_shape_names_parameter(self, tmp_path):
        def edit(doc):
            entry = doc["params"]["global.b"]
            entry["shape"] = [2]
            entry["data"] = base64.b64encode(np.zeros(2, dtype="<f8").tobytes()).decode()
        with pytest.raises(ValueError, match="'global.b' has shape"):
            load_checkpoint(self._tampered(tmp_path, edit))

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_checkpoint_load_draws_no_weights(self, family, tmp_path, monkeypatch):
        tm = make_trained(family=family)
        path = tmp_path / "model.checkpoint.json"
        save_checkpoint(path, tm)

        def no_draws(*args):
            raise AssertionError("load_checkpoint drew initial weights")

        monkeypatch.setattr(nn, "fan_in_uniform", no_draws)
        back = load_checkpoint(path)
        assert {n: t.shape for n, t in back.params.items()} == back.model.param_shapes()
        window = RNG.normal(40.0, 5.0, size=(4, 3))
        future = RNG.normal(size=(1, 2))
        assert np.array_equal(back.predict_window(window, future),
                              tm.predict_window(window, future))

    @pytest.mark.parametrize("value", [0.5, 0, False, None])
    def test_checkpoint_bare_or_falsy_quantiles_named(self, tmp_path, value):
        # 0, false and null used to load as a point head, 0.5 to raise TypeError
        def edit(doc):
            doc["config"]["quantiles"] = value
        with pytest.raises(ValueError, match=rf"quantiles must be a list of levels, got {value}"):
            load_checkpoint(self._tampered(tmp_path, edit))

    @pytest.mark.parametrize("channels", ["top_oil", ["top_oil", "ambient", "load"]],
                             ids=["bare-string", "unknown-name"])
    def test_channels_must_be_a_list_of_known_names(self, channels):
        # a bare string was split into its letters
        tm = make_trained()
        with pytest.raises(ValueError, match=r"TrainedModel\.input_channels must be a list of "
                                             r"channels among \('top_oil', "):
            TrainedModel(tm.family, tm.config, tm.params, channels, tm.target_channels,
                         tm.scaler, tm.seed)

    def test_checkpoint_missing_parameter_named(self, tmp_path):
        with pytest.raises(ValueError, match="temporal.skip.w"):
            load_checkpoint(self._tampered(tmp_path,
                                           lambda doc: doc["params"].pop("temporal.skip.w")))

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_predict_window_records_no_tape(self, family, monkeypatch):
        # beyond the tape of capturing on its one window, whose values do not
        # change which nodes are recorded, the step records nothing
        tm = make_trained(quantiles=(0.01, 0.5, 0.99), family=family)
        # `_apply` looks up a primitive's VJP only to record a tape node
        taped = []

        class WatchedTable(dict):
            def __getitem__(self, fwd):
                taped.append(fwd)
                return super().__getitem__(fwd)

        monkeypatch.setattr(autodiff, "_VJP", WatchedTable(autodiff._VJP))
        tapes = []
        for _ in range(2):
            taped.clear()
            out = tm.predict_window(RNG.normal(40.0, 5.0, size=(4, 3)), RNG.normal(size=(1, 2)))
            tapes.append(taped.copy())
        taped.clear()
        tm.forecast(np.zeros((4 + (tm.config.horizon if family == "tide" else 0), 3)), feed=False)
        assert out.shape == (1, 1, 3) and tapes[0] == tapes[1] == taped
        assert autodiff._affine in taped

    @pytest.mark.parametrize("family", ["ann", "tide"])
    def test_predict_window_matches_channel_loop(self, family):
        # reference: scale and unscale each channel through the scaler
        tm = make_trained(quantiles=(0.01, 0.5, 0.99), family=family)
        window = RNG.normal(40.0, 5.0, size=(4, 3))
        future = RNG.normal(size=(1, 2))

        def scaled(values, names):
            return np.stack([(values[:, c] - tm.scaler.channels[n][1]) * tm.scaler.channels[n][0]
                             for c, n in enumerate(names)], axis=1)

        x = scaled(window, tm.input_channels)
        f = scaled(future, ("ambient", "load_factor"))
        out = tm.model.forward(tm.params, x.reshape(1, -1), f.reshape(1, -1))
        gain, offset = tm.scaler.channels["top_oil"]
        want = out.data.reshape(1, 1, 3) / gain + offset
        assert np.array_equal(tm.predict_window(window, future), np.sort(want, axis=-1))


class TestConfigParsing:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="n_layer"):
            config_from_dict("ann", {"n_layer": 3})

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            config_from_dict("lstm", {})

    @pytest.mark.parametrize("value", [0.5, 0, False, None])
    def test_bare_or_falsy_quantiles_named(self, value):
        # 0, false and null used to give a point head, 0.5 a TypeError
        with pytest.raises(ValueError, match=rf"quantiles must be a list of levels, got {value}"):
            config_from_dict("ann", {"quantiles": value})

    @pytest.mark.parametrize("family, cls", [("ann", "MlpConfig"), ("tcn", "TcnConfig"),
                                             ("tide", "TideConfig")])
    @pytest.mark.parametrize("value", [["relu"], "swish", 5, None])
    def test_bad_activation_named_at_config_time(self, family, cls, value):
        # a list used to pass here and fail at the first forward with a TypeError
        with pytest.raises(ValueError, match=rf"{cls}\.activation must be one of \['identity', "
                                             rf"'relu', 'sigmoid', 'tanh'\], got "):
            config_from_dict(family, {"activation": value})

    @pytest.mark.parametrize("value", [[], ()])
    def test_empty_quantiles_are_a_point_head(self, value):
        assert config_from_dict("ann", {"quantiles": value}).quantiles == ()

    @pytest.mark.parametrize("raw", [5, [1], "n_layers"])
    def test_config_must_be_an_object(self, raw):
        with pytest.raises(ValueError, match=r"MlpConfig must be an object with keys 'n_layers', "):
            config_from_dict("ann", raw)

    def test_quantile_list_coerced(self):
        cfg = config_from_dict("ann", {"quantiles": [0.01, 0.5, 0.99]})
        assert cfg.quantiles == (0.01, 0.5, 0.99)

    @pytest.mark.parametrize("cls", [MlpConfig, TcnConfig, TideConfig])
    def test_config_validation(self, cls):
        for name in cls._positive:
            with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be >= 1"):
                cls(**{name: 0})
        with pytest.raises(ValueError, match="increasing"):
            cls(quantiles=(0.9, 0.5))
        cfg = cls(horizon=3, n_targets=2, quantiles=[0.1, 0.5, 0.9])
        assert cfg.quantiles == (0.1, 0.5, 0.9)
        assert cfg.n_outputs == 3 * 2 * 3
        assert cls(horizon=2, n_targets=2).n_outputs == 4

    @pytest.mark.parametrize("cls", [MlpConfig, TcnConfig, TideConfig])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 4.0, True, "8"],
                             ids=["nan", "inf", "2.5", "4.0", "true", "str"])
    def test_non_integer_size_names_the_field(self, cls, value):
        # MlpConfig(lookback=nan) used to fail only in init_params, with an OverflowError
        for name in cls._positive:
            with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must be >= 1 and "
                                                 rf"an integer, got {re.escape(repr(value))}"):
                cls(**{name: value})
        assert cls(lookback=np.int64(6)).lookback == 6
        if cls is TcnConfig:   # n_blocks=2.5 used to fail in init_params with a TypeError
            with pytest.raises(ValueError, match=r"TcnConfig\.n_blocks must be >= 1"):
                TcnConfig(n_blocks=value, lookback=6)

    def test_tcn_block_count_zero_rejected(self):
        with pytest.raises(ValueError, match=r"TcnConfig\.n_blocks must be >= 1"):
            TcnConfig(n_blocks=0)
        assert TcnConfig(n_blocks=None).n_blocks is None

    @pytest.mark.parametrize("cls", [TcnConfig, TideConfig])
    @pytest.mark.parametrize("rate", [-0.5, 1.0, 1.5, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, cls, rate):
        with pytest.raises(ValueError, match=rf"{cls.__name__}\.dropout must be finite and "
                                             rf">= 0 and < 1"):
            cls(dropout=rate)

    def test_tide_static_covariates_rejected(self):
        with pytest.raises(ValueError, match=r"TideConfig\.n_static"):
            TideConfig(n_static=1)
