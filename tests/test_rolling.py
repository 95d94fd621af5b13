import math
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from toilcast.iec import IecParams, steady_state
from toilcast.models import load_checkpoint
from toilcast.rolling import (ForecastTrace, autoregressive_predict, evaluate,
                              iec_predict)
from toilcast.series import AffineScaler, TimeSeries, TransformerDataset, format_instant
from toilcast.synth import SynthSpec, gen_dataset
from util import IDENTITY, make_dataset, rollout_oracle, simulate_oracle, window_views

P = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
              tau_w_min=10.0)
CHANNELS = ("top_oil", "ambient", "load_factor")


class StubModel:
    """Duck-typed stand-in driven by a window -> scalar rule, with identity
    scaling: its `forecast` calls `step` on a copy of the raw matrix at every
    step and writes the step's level `median` into the copy, as a
    TrainedModel's does."""

    family = "stub"
    input_channels = CHANNELS
    target_channels = ("top_oil",)
    quantiles = ()

    def __init__(self, lookback, fn):
        self.config = SimpleNamespace(lookback=lookback)
        self.fn = fn

    @property
    def median(self):
        return self.quantiles.index(0.5) if self.quantiles else 0

    def forecast(self, matrix):
        rows, out = np.array(matrix, dtype=float), []
        for i in range(self.config.lookback, len(rows)):
            out.append(self.step(rows, i))
            rows[i, :1] = out[-1][:, self.median]   # top_oil is the first input channel
        return np.array(out)

    def step(self, rows, i):
        window = rows[i - self.config.lookback: i]
        return np.asarray([[self.fn(window)]], dtype=float)


class OracleModel(StubModel):
    """Replays the measured series: a perfect one-step forecaster."""

    def __init__(self, truth, lookback):
        super().__init__(lookback, None)
        self.truth = truth
        self.i = lookback

    def step(self, rows, i):
        v = self.truth[self.i]
        self.i += 1
        return np.asarray([[v]], dtype=float)


class QuantileStub(StubModel):
    """A persistence forecast with a 1 K band either side, whose step k puts
    `bad` into quantile slot `slot`."""

    quantiles = (0.01, 0.5, 0.99)

    def __init__(self, lookback, k, slot, bad):
        super().__init__(lookback, None)
        self.k, self.slot, self.bad = k, slot, bad

    def step(self, rows, i):
        v = rows[i - 1, 0]
        out = np.array([[v - 1.0, v, v + 1.0]])
        if i - self.config.lookback == self.k:
            out[0, self.slot] = self.bad
        return out


class TestAutoregressive:
    def test_oracle_model_reproduces_measurements(self):
        valid = make_dataset(60, seed=1)
        model = OracleModel(valid.top_oil.values, 8)
        trace = autoregressive_predict(model, valid)
        assert np.array_equal(trace.values[:, 0], valid.top_oil.values[8:])

    def test_persistence_model_holds_last_seed(self):
        valid = make_dataset(40, seed=2)
        model = StubModel(6, lambda w: w[-1, 0])
        trace = autoregressive_predict(model, valid)
        assert np.all(trace.values[:, 0] == valid.top_oil.values[5])

    def test_trace_length(self):
        valid = make_dataset(53, seed=3)
        trace = autoregressive_predict(StubModel(7, lambda w: w[-1, 0]), valid)
        assert len(trace) == 53 - 7
        assert np.array_equal(trace.timestamps, valid.timestamps[7:])

    def test_measured_targets_after_seed_never_read(self):
        valid = make_dataset(50, seed=4)
        L = 6
        model = StubModel(L, lambda w: 0.9 * w[-1, 0] + 0.1 * w[-1, 1])
        base = autoregressive_predict(model, valid)

        zeroed_top = valid.top_oil.values.copy()
        zeroed_top[L:] = 0.0
        top = valid.top_oil.with_values(zeroed_top)
        blinded = TransformerDataset(top, valid.ambient, valid.load_factor)
        again = autoregressive_predict(model, blinded)
        assert np.array_equal(base.values, again.values)

    def test_covariate_perturbation_is_causal(self):
        valid = make_dataset(50, seed=5)
        L, t = 6, 20
        model = StubModel(L, lambda w: 0.7 * w[-1, 0] + 0.3 * w[-1, 1])
        base = autoregressive_predict(model, valid)

        bumped = valid.ambient.values.copy()
        bumped[t] += 5.0
        amb = valid.ambient.with_values(bumped)
        pert = TransformerDataset(valid.top_oil, amb, valid.load_factor)
        out = autoregressive_predict(model, pert)
        # prediction index i reads covariates up to grid index i+L-1
        first_affected = t - L + 1
        assert np.array_equal(out.values[:first_affected], base.values[:first_affected])
        assert not np.array_equal(out.values[first_affected:], base.values[first_affected:])

    def test_non_finite_prediction_aborts_with_timestep(self):
        valid = make_dataset(30, seed=6)
        model = StubModel(5, lambda w: math.nan)
        with pytest.raises(FloatingPointError, match="timestep 0"):
            autoregressive_predict(model, valid)

    @pytest.mark.parametrize("slot, bad", [(0, -math.inf), (2, math.nan), (2, math.inf),
                                           (1, math.nan), (1, math.inf)],
                             ids=["lower-inf", "upper-nan", "upper-inf", "median-nan",
                                  "median-inf"])
    def test_first_non_finite_quantile_names_its_step(self, slot, bad):
        # an outer quantile, or the median that is fed back into later steps
        valid, L, k = make_dataset(30, seed=9), 5, 7
        model = QuantileStub(L, k, slot, bad)
        when = re.escape(format_instant(valid.timestamps[L + k]))
        with pytest.raises(FloatingPointError,
                           match=rf"non-finite prediction at timestep {k} \({when}\)"):
            autoregressive_predict(model, valid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_aborts_with_timestep_not_warning(self):
        from toilcast.models import MlpConfig, TrainedModel, build_model
        from toilcast.series import AffineScaler

        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=5, n_channels=3)
        params = build_model("ann", cfg).init_params(3)
        params["head.b"].data = params["head.b"].data + 1e307
        scaler = AffineScaler({"top_oil": (0.01, 0.0), "ambient": (0.01, 0.0),
                               "load_factor": (1.0, 0.0)})
        model = TrainedModel("ann", cfg, params, CHANNELS, ("top_oil",), scaler, seed=3)
        with pytest.raises(FloatingPointError, match=r"timestep 0 \("):
            autoregressive_predict(model, make_dataset(30, seed=6))

    @pytest.mark.parametrize("slot", [0, 2], ids=["q01", "q99"])
    def test_outer_level_nan_before_the_median_names_its_step(self, slot):
        # a NaN in an outer level: np.sort moved it last, a sort of Python
        # floats may leave it anywhere, and the step still fails by name
        from toilcast.models import MlpConfig, TrainedModel, build_model

        valid, L, k = make_dataset(30, seed=9), 5, 7
        cfg = MlpConfig(n_layers=1, n_neurons=3, lookback=L, n_channels=3,
                        activation="identity", quantiles=(0.01, 0.5, 0.99))
        params = build_model("ann", cfg).init_params(3)
        hidden, head = np.zeros((3 * L, 3)), np.zeros((3, 3))
        last_top, last_load = 3 * (L - 1), 3 * (L - 1) + 2
        # two equal units of the last load, whose difference is exactly 0
        # until the load is 4, where each overflows 16-fold: inf - inf
        hidden[last_load, :2] = 5e306
        hidden[last_top, 2] = 1.0         # the median: the last top oil
        head[:, slot], head[2, 1] = (16.0, -16.0, 0.0), 1.0
        params["hidden0.w"].data, params["head.w"].data = hidden, head
        params["head.b"].data = np.array([-1e3, 0.0, 1e3])
        load = valid.load_factor.values.copy()
        assert load.max() < 1.5
        load[L + k - 1] = 4.0
        valid = TransformerDataset(valid.top_oil, valid.ambient,
                                   valid.load_factor.with_values(load))
        model = TrainedModel("ann", cfg, params, CHANNELS, ("top_oil",), IDENTITY, seed=3)
        when = re.escape(format_instant(valid.timestamps[L + k]))
        with pytest.raises(FloatingPointError,
                           match=rf"non-finite prediction at timestep {k} \({when}\)"):
            autoregressive_predict(model, valid)
        # one step earlier, the rollout is finite, levels in order
        short = valid.slice_range(int(valid.timestamps[0]), int(valid.timestamps[L + k - 1]))
        trace = autoregressive_predict(model, short)
        assert np.array_equal(trace.quantiles[:, 0, ::2], np.tile([-1e3, 1e3], (k, 1)))
        assert np.array_equal(trace.values[1:, 0], trace.values[:-1, 0])

    def test_quantile_feedback_requires_median(self):
        valid = make_dataset(30, seed=7)
        with pytest.raises(ValueError, match=r"needs the 0.5 quantile in the head, "
                                             r"got \(0.1, 0.9\)"):
            autoregressive_predict(make_model("ann", (0.1, 0.9)), valid)

    def test_too_short_validation_rejected(self):
        # `forecast` owns the check: a slice of L rows has no step to run
        valid = make_dataset(6, seed=8)
        with pytest.raises(ValueError, match=r"the matrix has shape \(6, 3\), need more than "
                                             r"L=6 rows"):
            autoregressive_predict(make_model("ann"), valid)


class TestIecPredict:
    def test_constant_inputs_fixed_point(self):
        n = 100
        ts = 1_600_000_000 + 300 * np.arange(n, dtype=np.int64)
        ss = steady_state(0.8, 12.0, P)
        top = TimeSeries(ts, np.full(n, ss))
        amb = TimeSeries(ts, np.full(n, 12.0))
        load = TimeSeries(ts, np.full(n, 0.8))
        valid = TransformerDataset(top, amb, load)
        trace = iec_predict(P, valid)
        assert np.abs(trace.values[:, 0] - ss).max() <= 1e-9

    def test_zero_noise_self_consistency(self):
        spec = SynthSpec(days=3, seed=11, measurement_noise_k=0.0)
        ds, clean, _ = gen_dataset(spec)
        trace = iec_predict(spec.iec, ds)
        err = np.abs(trace.values[:, 0] - clean.values).max()
        assert err <= 1e-9  # identical solver, identical inputs
        assert err <= 0.05

    def test_timestep_rule_met_by_a_smaller_dt(self):
        # tau_w = 4 min bounds dt at 2 min, under the 5-minute step: this used
        # to be an error, and is now three sub-steps of 100 s per interval
        spec = SynthSpec(days=1, seed=13, measurement_noise_k=0.0)
        ds, _, _ = gen_dataset(spec)
        tight = replace(spec.iec, tau_w_min=4.0)
        trace = iec_predict(tight, ds)
        oracle = simulate_oracle(ds.load_factor, ds.ambient, ds.top_oil.values[0], tight)
        assert np.array_equal(trace.values[:, 0], oracle.values)
        assert not np.array_equal(trace.values, iec_predict(spec.iec, ds).values)

    def test_misspecified_params_strictly_worse(self):
        spec = SynthSpec(days=3, seed=12, measurement_noise_k=0.0)
        ds, _, _ = gen_dataset(spec)
        good = iec_predict(spec.iec, ds)
        bad_params = replace(spec.iec, delta_t_or_k=spec.iec.delta_t_or_k * 1.3)
        bad = iec_predict(bad_params, ds)
        truth = ds.top_oil.values
        assert np.mean(np.abs(bad.values[:, 0] - truth)) > \
            np.mean(np.abs(good.values[:, 0] - truth))


def brute_force_mae(y, p):
    return math.fsum(abs(a - b) for a, b in zip(y, p)) / len(y)


class TestEvaluate:
    def test_oracle_trace_scores_zero(self):
        valid = make_dataset(40, seed=20)
        trace = autoregressive_predict(OracleModel(valid.top_oil.values, 8), valid)
        report = evaluate([trace], valid)
        entry = report.models["stub"]["targets"]["top_oil"]
        assert entry["mae"] == 0.0 and entry["mse"] == 0.0

    def test_unit_band_coverage_and_width(self):
        valid = make_dataset(30, seed=21)
        y = valid.top_oil.values[5:]
        n = len(y)
        quants = np.stack([y - 1.0, y, y + 1.0], axis=-1).reshape(n, 1, 3)
        trace = ForecastTrace("banded", valid.timestamps[5:], ("top_oil",),
                              y.reshape(-1, 1), quants, (0.01, 0.5, 0.99))
        entry = evaluate([trace], valid).models["banded"]
        assert entry["picp"] == 1.0
        assert entry["mean_interval_width"] == pytest.approx(2.0, abs=1e-12)
        assert entry["interval_levels"] == [0.01, 0.99]

    def test_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(22)
        valid = make_dataset(50, seed=22)
        y = valid.top_oil.values[10:]
        pred = y + rng.normal(0, 2, size=len(y))
        trace = ForecastTrace("m", valid.timestamps[10:], ("top_oil",),
                              pred.reshape(-1, 1))
        got = evaluate([trace], valid).models["m"]["targets"]["top_oil"]
        assert abs(got["mae"] - brute_force_mae(y, pred)) <= 1e-12
        want_mse = math.fsum((a - b) ** 2 for a, b in zip(y, pred)) / len(y)
        assert abs(got["mse"] - want_mse) <= 1e-12

    def test_misaligned_trace_rejected(self):
        valid = make_dataset(30, seed=23)
        trace = ForecastTrace("m", valid.timestamps[5:] + 300, ("top_oil",),
                              np.zeros((25, 1)))
        with pytest.raises(ValueError, match="aligned"):
            evaluate([trace], valid)

    def test_report_determinism(self):
        valid = make_dataset(30, seed=24)
        trace = autoregressive_predict(StubModel(5, lambda w: w[-1, 0] + 0.1), valid)
        a = evaluate([trace], valid).to_dict()
        b = evaluate([trace], valid).to_dict()
        assert a == b

    def test_report_keys_unique(self):
        valid = make_dataset(30, seed=26)
        traces = []
        for i, model_id in enumerate(["a", "a_2", "a", "a"]):
            trace = autoregressive_predict(StubModel(5, lambda w, i=i: w[-1, 0] + i), valid)
            trace.model_id = model_id
            traces.append(trace)
        report = evaluate(traces, valid)
        assert list(report.models) == ["a", "a_2", "a_1", "a_3"]
        maes = [report.models[k]["targets"]["top_oil"]["mae"] for k in report.models]
        assert len(set(maes)) == 4

    def test_metadata_span(self):
        valid = make_dataset(30, seed=25)
        trace = autoregressive_predict(StubModel(5, lambda w: w[-1, 0]), valid)
        report = evaluate([trace], valid)
        assert report.metadata == {"data_start": format_instant(valid.timestamps[0]),
                                   "data_end": format_instant(valid.timestamps[-1]),
                                   "n_points": 30}


class TestMultiTarget:
    def test_both_targets_fed_back_and_reported(self):
        from toilcast.models import MlpConfig
        from toilcast.training import TrainConfig, fit_dataset

        train_ds = make_dataset(120, seed=30)
        valid = make_dataset(40, start=1_700_000_000, seed=31)
        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=6, n_channels=4,
                        n_targets=2)
        model, _ = fit_dataset("ann", cfg, train_ds, IDENTITY,
                               TrainConfig(batch_size=64, max_epochs=2,
                                           learning_rate=1e-3))
        trace = autoregressive_predict(model, valid)
        assert trace.values.shape == (40 - 6, 2)
        entry = evaluate([trace], valid).models["ann"]
        assert set(entry["targets"]) == {"top_oil", "temp_rise"}

        # predictions replace both target channels: blanking measured targets
        # after the seed changes nothing
        top = valid.top_oil.values.copy()
        top[6:] = 0.0
        blinded = TransformerDataset(
            valid.top_oil.with_values(top), valid.ambient, valid.load_factor)
        again = autoregressive_predict(model, blinded)
        assert np.array_equal(trace.values, again.values)


SCALER_CHANNELS = {"top_oil": (0.02, 40.0), "ambient": (0.05, 10.0),
                   "load_factor": (1.5, 0.6), "temp_rise": (0.03, 30.0)}


def make_model(family, quantiles=(), n_targets=1, **overrides):
    from toilcast.models import (MlpConfig, TcnConfig, TideConfig, TrainedModel,
                                 build_model)
    from toilcast.series import AffineScaler

    targets = ("top_oil", "temp_rise")[:n_targets]
    if family == "ann":
        cfg = MlpConfig(n_layers=2, n_neurons=8, lookback=6,
                        n_channels=n_targets + 2, n_targets=n_targets, quantiles=quantiles)
    elif family == "tcn":
        cfg = TcnConfig(kernel=2, n_filters=4, lookback=6, n_targets=n_targets,
                        n_channels=n_targets + 2, quantiles=quantiles)
    else:
        cfg = TideConfig(temporal_width=3, decoder_output_dim=3, hidden_size=8,
                         lookback=6, n_targets=n_targets, n_covariates=2,
                         quantiles=quantiles, use_layer_norm=True)
    cfg = replace(cfg, **overrides)
    params = build_model(family, cfg).init_params(17)
    return TrainedModel(family, cfg, params, targets + ("ambient", "load_factor"), targets,
                        AffineScaler(SCALER_CHANNELS), seed=17)


def reference_rollout(model, valid):
    """The per-step loop that `autoregressive_predict` replaces: scale the raw
    window (and TiDE's future covariates) at every step, run `forward`,
    unscale, sort the quantiles and feed the raw median back. Returns the
    (n, T, Q) predictions."""
    from toilcast.autodiff import Tensor

    cfg, L = model.config, model.config.lookback
    ins, tgts = model.input_channels, model.target_channels
    covs = tuple(c for c in ins if c not in tgts)
    in_gain, in_off = model.scaler.vectors(ins)
    cov_gain, cov_off = model.scaler.vectors(covs)
    tgt_gain, tgt_off = model.scaler.vectors(tgts)
    feed, cov = valid.matrix(ins).copy(), valid.matrix(covs)
    cols = [ins.index(c) for c in tgts]
    mid = model.quantiles.index(0.5) if model.quantiles else 0
    out = []
    for i in range(L, valid.n):
        x = Tensor(((feed[i - L: i] - in_off) * in_gain).reshape(1, -1))
        fut = None
        if model.family == "tide":
            fut = Tensor(((cov[i: i + 1] - cov_off) * cov_gain).reshape(1, -1))
        y = model.model.forward(model.params, x, fut)
        raw = y.data.reshape(1, cfg.n_targets, cfg.n_quantiles)
        raw = np.sort(raw / tgt_gain[:, None] + tgt_off[:, None], axis=-1)
        out.append(raw[0])
        feed[i, cols] = raw[0, :, mid]
    return np.array(out)
Q = (0.01, 0.5, 0.99)
# case -> (family, quantiles, n_targets, config overrides); "tcn-deep" stacks
# more blocks than the look-back needs, which leaves one-row matrix products
ROLLOUT_CASES = {"ann": ("ann", (), 1, {}), "ann-q": ("ann", Q, 1, {}),
                 "tcn": ("tcn", (), 1, {}), "tide": ("tide", (), 1, {}),
                 "tide-q": ("tide", Q, 1, {}), "ann-2-targets": ("ann", (), 2, {}),
                 "tcn-q": ("tcn", Q, 1, {}), "tcn-wn": ("tcn", (), 1, {"weight_norm": True}),
                 "tcn-deep": ("tcn", (), 1, {"n_blocks": 4}),
                 "tide-no-ln": ("tide", (), 1, {"use_layer_norm": False}),
                 "ann-tanh": ("ann", (), 1, {"activation": "tanh"}),
                 "ann-sigmoid": ("ann", (), 1, {"activation": "sigmoid"}),
                 "ann-identity": ("ann", (), 1, {"activation": "identity"})}
# the benchmark's four trained checkpoints, by rollout label
BENCHMARK_CHECKPOINTS = {name: Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
                         / f"{name}.checkpoint.json" for name in ("ann", "ann-q", "tcn", "tide")}
# heads with no 0.5 level: they forecast without feed, and cannot roll out
NO_MEDIAN_CASES = {"ann-q90": ("ann", (0.9,), 1, {}), "tcn-q90": ("tcn", (0.9,), 1, {}),
                   "tide-q90": ("tide", (0.9,), 1, {})}


def scaled_slice(model, matrix):
    """The raw matrix scaled by numpy, and for TiDE its covariates projected."""
    gain, offset = model.scaler.vectors(model.input_channels)
    scaled = (matrix - offset) * gain
    proj = None
    if model.family == "tide":
        proj = model.model.project(
            model.params, np.ascontiguousarray(scaled[:, model.config.n_targets:])).data
    return scaled, proj


def traced_forecast(model, matrix, feed=True, on_capture=None):
    """`model.forecast(matrix, feed)`, the one plan it captured, and the inputs
    of each replay as the views it was given; `on_capture(plan)` runs once the
    plan is captured, before any step."""
    from toilcast import models
    from toilcast.autodiff import capture

    plans, inputs = [], []

    def capturing(*args):
        plans.append(capture(*args))
        run = plans[-1].run
        plans[-1].run = lambda *xs: inputs.append(xs) or run(*xs)
        if on_capture is not None:
            on_capture(plans[-1])
        return plans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "capture", capturing)
        out = model.forecast(matrix, feed)
    (plan,) = plans
    return out, plan, inputs


class TestPreparedRollout:
    @pytest.mark.parametrize("case", list(ROLLOUT_CASES))
    def test_equal_to_per_step_scaling(self, case):
        family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        valid = make_dataset(70, seed=40)   # 64 steps: more than ten look-backs
        trace = autoregressive_predict(model, valid)
        want = reference_rollout(model, valid)
        assert np.isfinite(want).all() and np.ptp(want[:, 0, 0]) > 0
        got = trace.quantiles if quantiles else trace.values[:, :, None]
        assert np.array_equal(got, want)
        assert np.array_equal(trace.values, want[:, :, quantiles.index(0.5) if quantiles else 0])
        # and to the interpreted replay in a per-step loop of numpy updates
        assert np.array_equal(rollout_oracle(model, valid), want)

    @pytest.mark.parametrize("case", ["ann", "tcn", "tide"])
    def test_windows_are_the_plain_views(self, case):
        model = make_model(*ROLLOUT_CASES[case][:3])
        matrix = make_dataset(30, seed=52).matrix(model.input_channels)
        _, _, inputs = traced_forecast(model, matrix, feed=False)
        scaled, proj = scaled_slice(model, matrix)
        L = model.config.lookback   # 6: one window per step i = L .. 29
        assert len(inputs) == 24
        for i, views in enumerate(inputs, start=L):
            for got, want in zip(views, window_views(model, scaled, proj, i), strict=True):
                assert got.shape == want.shape and got.strides == want.strides
                assert np.array_equal(got, want) and not got.flags.writeable
        # views onto one scaled copy, not copies of the windows
        assert np.shares_memory(inputs[0][0], inputs[1][0])

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_one_step_per_measured_window(self, family):
        # without feed, step k reads rows k .. k+L-1 and forecasts row k+L:
        # the first reads rows 0 .. L-1 and the last rows n-L-1 .. n-2 (TiDE:
        # and covariate row n-1)
        model = make_model(family)   # look-back 6
        matrix = make_dataset(20, seed=54).matrix(model.input_channels)
        out, _, inputs = traced_forecast(model, matrix, feed=False)
        assert out.shape == (14, 1, 1) and len(inputs) == len(out)
        for k in (0, len(out) - 1):
            future = matrix[k + 6: k + 7, 1:] if family == "tide" else None
            assert model.predict_window(matrix[k: k + 6], future).tobytes() == \
                out[k].tobytes()

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_one_level_head_without_a_median_feeds_nothing(self, family, monkeypatch):
        # a (0.9,) head has no median to feed back: it fails before capture
        from toilcast import models

        model = make_model(family, (0.9,))
        matrix = make_dataset(20, seed=55).matrix(model.input_channels)
        kept = matrix.copy()
        assert model.median is None
        with monkeypatch.context() as mp:
            mp.setattr(models, "capture", lambda *args: pytest.fail("captured a plan"))
            with pytest.raises(ValueError,
                               match=r"needs the 0.5 quantile in the head, got \(0.9,\)"):
                model.forecast(matrix)
        assert matrix.tobytes() == kept.tobytes()
        # a step from each window, or from one window, still forecasts with any head
        steps = model.forecast(matrix, feed=False)
        assert steps.shape == (14, 1, 1)
        assert np.isfinite(steps).all() and matrix.tobytes() == kept.tobytes()
        future = matrix[6:7, 1:] if family == "tide" else None
        assert model.predict_window(matrix[:6], future).tobytes() == steps[0].tobytes()

    @pytest.mark.parametrize("quantiles, median", [((), 0), ((0.5,), 0), ((0.01, 0.5, 0.99), 1),
                                                   ((0.5, 0.9), 0)])
    def test_median_is_the_fed_level(self, quantiles, median):
        model = make_model("ann", quantiles)
        valid = make_dataset(20, seed=56)
        assert model.median == median
        trace = autoregressive_predict(model, valid)
        want = reference_rollout(model, valid)
        assert np.array_equal(trace.values, want[:, :, median])

    @pytest.mark.parametrize("n_targets, inputs", [
        (1, ("ambient", "top_oil", "load_factor")), (1, ("load_factor", "ambient", "top_oil")),
        (2, ("top_oil", "ambient", "temp_rise", "load_factor")),
        (2, ("temp_rise", "top_oil", "ambient", "load_factor"))])
    def test_tide_targets_must_lead_its_inputs(self, n_targets, inputs):
        # TiDE reads its targets from the leading columns, so another order
        # would roll out on a covariate as if it were top-oil
        model = make_model("tide", n_targets=n_targets)
        with pytest.raises(ValueError, match=re.escape(
                f"TiDE reads its targets {model.target_channels} from the leading input "
                f"channels, got {inputs}")):
            replace(model, input_channels=inputs)
        # the ANN reads any order
        replace(make_model("ann", n_targets=n_targets), input_channels=inputs)

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_fortran_ordered_matrix_gives_the_same_steps(self, family):
        # the windows stride over the scaled slice, which must be laid out by rows
        model = make_model(family, Q)
        matrix = make_dataset(30, seed=53).matrix(model.input_channels)
        for feed in (False, True):
            assert model.forecast(matrix, feed).tobytes() == \
                model.forecast(np.asfortranarray(matrix), feed).tobytes()

    @pytest.mark.parametrize("case", [*ROLLOUT_CASES, *NO_MEDIAN_CASES])
    def test_replay_equals_forward(self, case):
        # without feed, each step replays the plan on a measured window: the
        # bytes of `forward` on that window, unscaled and sorted
        from toilcast.autodiff import Tensor

        family, quantiles, n_targets, overrides = {**ROLLOUT_CASES, **NO_MEDIAN_CASES}[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        matrix = make_dataset(40, seed=43).matrix(model.input_channels)
        got = model.forecast(matrix, feed=False)
        scaled, _ = scaled_slice(model, matrix)
        gain, offset = model.scaler.vectors(model.input_channels)
        cols = [model.input_channels.index(c) for c in model.target_channels]
        L, T, tide = model.config.lookback, n_targets, family == "tide"
        assert got.shape == (40 - L, T, len(quantiles) or 1)
        for i in range(L, 40):
            future = Tensor(scaled[i: i + 1, T:].reshape(1, -1)) if tide else None
            want = model.model.forward(model.params, Tensor(scaled[i - L: i].reshape(1, -1)),
                                       future).data.reshape(T, -1)
            want = np.sort(want / gain[cols][:, None] + offset[cols][:, None], axis=-1)
            assert got[i - L].tobytes() == want.tobytes()
            future = matrix[i: i + 1, T:] if tide else None
            assert model.predict_window(matrix[i - L: i], future).tobytes() == want.tobytes()

    @pytest.mark.parametrize("family, method", [("ann", "forward"), ("tcn", "forward"),
                                                ("tide", "decode")])
    def test_forward_captured_once_per_rollout(self, family, method, monkeypatch):
        model = make_model(family, Q)
        cls, calls = type(model.model), []
        original = getattr(cls, method)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, counting)
        trace = autoregressive_predict(model, make_dataset(30, seed=44))
        assert len(trace) == 24 and len(calls) == 1
        model.forecast(make_dataset(30, seed=44).matrix(model.input_channels), feed=False)
        assert len(calls) == 2

    def test_weight_norm_kernel_folded_at_capture(self):
        matrix = make_dataset(20, seed=45).matrix(CHANNELS)
        plans = [traced_forecast(make_model("tcn", weight_norm=wn), matrix, False)[1]
                 for wn in (False, True)]
        assert len(plans[0]._steps) == len(plans[1]._steps)

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_rollout_records_no_tape(self, family, monkeypatch):
        # the steps replay the plan and record nothing: a forecast records the
        # tape of its capture (TiDE: and of its one projection) whatever its
        # length, and all of it before the first step
        from toilcast import autodiff, models

        # `_apply` looks up a primitive's VJP only to record a tape node
        taped, at_capture = [], []

        class WatchedTable(dict):
            def __getitem__(self, fwd):
                taped.append(fwd)
                return super().__getitem__(fwd)

        def capturing(*args):
            plan = autodiff.capture(*args)
            at_capture.append(len(taped))
            return plan

        monkeypatch.setattr(autodiff, "_VJP", WatchedTable(autodiff._VJP))
        monkeypatch.setattr(models, "capture", capturing)
        model = make_model(family, Q)
        tapes = []
        for n in (30, 60):
            taped.clear()
            assert len(autoregressive_predict(model, make_dataset(n, seed=41))) == n - 6
            tapes.append(taped.copy())
        taped.clear()
        model.forecast(make_dataset(60, seed=41).matrix(model.input_channels), feed=False)
        assert tapes[0] == tapes[1] == taped and autodiff._affine in taped
        assert at_capture == [len(tapes[0])] * 3

    def test_tide_q_step_calls_no_row_sum_helper(self, monkeypatch):
        # the 3-wide layer norms of this quantile TiDE (its temporal and last
        # decoder blocks) summed their rows through `_sum_last` at every step;
        # a one-row layer norm sums them itself
        from toilcast import autodiff

        model = make_model("tide", Q)
        calls, sum_last = [], autodiff._sum_last

        def watch(plan):
            monkeypatch.setattr(autodiff, "_sum_last",
                                lambda x: calls.append(x.shape) or sum_last(x))

        out, _, _ = traced_forecast(model, make_dataset(30, seed=56).matrix(model.input_channels),
                                    on_capture=watch)
        assert len(out) == 24 and calls == []

    @pytest.mark.parametrize("case", ["ann", "ann-q", "tcn", "tcn-wn", "tide", "tide-q"])
    def test_batch_1_plans_call_no_primitive_forward(self, case):
        # every affine map, layer norm and convolution of a rollout's plan is
        # written out as its one-row form
        from toilcast import autodiff

        family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        plan = traced_forecast(model, make_dataset(20, seed=57).matrix(model.input_channels))[1]
        forwards = (autodiff._affine, autodiff._layer_norm, autodiff._causal_conv1d)
        assert not [v for v in plan.run.__defaults__ or () if any(v is f for f in forwards)]
        assert ".dot(" in plan.source

    @staticmethod
    def benchmark_plan(case):
        """The plan that a forecast without feed captures for a benchmark
        fixture, or for a rollout case."""
        if case in BENCHMARK_CHECKPOINTS:
            model = load_checkpoint(BENCHMARK_CHECKPOINTS[case])
        else:
            family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
            model = make_model(family, quantiles, n_targets, **overrides)
        matrix = make_dataset(60, seed=59).matrix(model.input_channels)
        return traced_forecast(model, matrix, feed=False)[1]

    @pytest.mark.parametrize("case", [*BENCHMARK_CHECKPOINTS, "tcn-wn"])
    def test_replay_takes_only_what_its_body_reads(self, case):
        # a constant or buffer that no line of the plan names is not bound,
        # such as a convolution's kernel, which its form reads through the
        # taps it binds, or a weight-normed kernel folded at capture
        plan = self.benchmark_plan(case)
        # the replay's parameters, and the names its body reads
        header, body = (set(re.findall(r"\b[sf]\d+\b", text))
                        for text in plan.source.split("\n", 1))
        assert header - body == set()

    @pytest.mark.parametrize("case", [*BENCHMARK_CHECKPOINTS, "tcn-wn"])
    def test_replay_makes_no_view_of_a_bound_array(self, case):
        # every view of a step's buffer or of a constant (a convolution's rows
        # and taps, a residual's skip slice, a [0] or [None]) is bound once
        # at capture; a replay indexes or reshapes only an input, or a view
        # of one that it made
        plan = self.benchmark_plan(case)
        body, inputs = plan.source.split("\n", 1)[1], {f"s{k}" for k in range(plan._n_inputs)}
        for name, base in re.findall(r"^ +(s\d+) = (s\d+)(?:\[|\.reshape\()", body, re.M):
            if base in inputs:
                inputs.add(name)
        viewed = set(re.findall(r"\b(s\d+)(?:\[|\.reshape\()", body))
        assert "[None]" not in body and viewed <= inputs

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_point_rollout_replays_once_per_step(self, family, monkeypatch):
        from toilcast import models
        from toilcast.autodiff import capture

        replays = []

        def counting_capture(*args):
            plan = capture(*args)
            run = plan.run
            plan.run = lambda *inputs: replays.append(len(inputs)) or run(*inputs)
            return plan

        monkeypatch.setattr(models, "capture", counting_capture)
        trace = autoregressive_predict(make_model(family), make_dataset(30, seed=58))
        assert len(trace) == 24 and replays == [2 if family == "tide" else 1] * 24

    def test_tide_projects_covariates_once_per_rollout(self, monkeypatch):
        from toilcast import nn

        model = make_model("tide")
        prefixes = []
        block = nn.residual_block

        def counting_block(x, params, prefix, *args):
            prefixes.append(prefix)
            return block(x, params, prefix, *args)

        monkeypatch.setattr(nn, "residual_block", counting_block)
        trace = autoregressive_predict(model, make_dataset(40, seed=42))
        assert len(trace) == 34
        # the projection runs over the slice, the temporal block at capture
        assert prefixes.count("proj") == 1 and prefixes.count("temporal") == 1
        model.forecast(make_dataset(40, seed=42).matrix(model.input_channels), feed=False)
        assert prefixes.count("proj") == 2 and prefixes.count("temporal") == 2

    @pytest.mark.parametrize("case", ["ann", "ann-q", "tcn-q", "tide-q"])
    def test_held_step_results_stay_distinct(self, case):
        family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        matrix = make_dataset(20, seed=48).matrix(model.input_channels)
        first = model.forecast(matrix, feed=False)
        kept = first.copy()
        second = model.forecast(matrix, feed=False)
        again = model.forecast(matrix[1:], feed=False)
        assert not np.shares_memory(first, second) and not np.shares_memory(first, again)
        assert first.tobytes() == kept.tobytes() == second.tobytes()
        assert first[1:].tobytes() == again.tobytes()

    @pytest.mark.parametrize("case", ["ann-q", "tcn-q", "tide-q", "tcn-wn"])
    def test_second_rollout_gives_the_same_bytes(self, case):
        family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        valid = make_dataset(40, seed=49)
        one, two = autoregressive_predict(model, valid), autoregressive_predict(model, valid)
        assert one.values.tobytes() == two.values.tobytes()
        if quantiles:
            assert one.quantiles.tobytes() == two.quantiles.tobytes()

    @pytest.mark.parametrize("case", ["ann-q", "tcn-q", "tide-q", "tcn-wn"])
    def test_steps_write_only_what_feed_writes(self, case):
        # each window reads the scaled slice with the fed medians in its
        # target columns, and nothing else written: not the raw matrix, not
        # TiDE's projected covariates, not the plan's constants
        family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        matrix = make_dataset(30, seed=50).matrix(model.input_channels)
        kept, constants = matrix.copy(), []

        def keep_constants(plan):
            constants.extend((v, v.copy()) for v in plan._vals if isinstance(v, np.ndarray))

        out, _, inputs = traced_forecast(model, matrix, on_capture=keep_constants)
        want, proj = scaled_slice(model, matrix)
        mid = quantiles.index(0.5) if quantiles else 0
        gain, offset = model.scaler.vectors(model.input_channels)
        cols = [model.input_channels.index(c) for c in model.target_channels]
        points = out[:, :, mid]
        assert len(points) == len(inputs) == 24
        want[6:, cols] = (points - offset[cols]) * gain[cols]
        for i, views in enumerate(inputs, start=6):
            for got, expected in zip(views, window_views(model, want, proj, i), strict=True):
                assert got.tobytes() == expected.tobytes()
        assert matrix.tobytes() == kept.tobytes()
        assert constants and all(v.tobytes() == c.tobytes() for v, c in constants)

    @pytest.mark.parametrize("family", ["ann", "tide"])
    def test_a_new_scaler_takes_a_new_model(self, family):
        # the scaling was cached on first use, so a reassigned scaler went unread
        model = make_model(family, Q)
        valid = make_dataset(30, seed=55)
        before = autoregressive_predict(model, valid)
        # not gains alone: with zero biases a ReLU net maps 2x to 2 f(x)
        moved = AffineScaler({n: (2.0 * g, o + 1.0)
                              for n, (g, o) in model.scaler.channels.items()})
        with pytest.raises(FrozenInstanceError):
            model.scaler = moved
        other = replace(model, scaler=moved)
        trace = autoregressive_predict(other, valid)
        assert np.array_equal(trace.quantiles, reference_rollout(other, valid))
        assert not np.array_equal(trace.quantiles, before.quantiles)
        assert other.config_hash != model.config_hash
        assert autoregressive_predict(model, valid).quantiles.tobytes() == \
            before.quantiles.tobytes()

    @pytest.mark.parametrize("family, rows", [("ann", 7), ("tcn", 7), ("tide", 7)])
    def test_slice_shorter_than_a_window_rejected(self, family, rows):
        # look-back 6: every family needs a row after its first window to forecast
        model = make_model(family)
        matrix = make_dataset(rows, seed=47).matrix(model.input_channels)
        for feed in (False, True):
            with pytest.raises(ValueError, match=rf"forecast: the matrix has shape \({rows - 1}, "
                                                 r"3\), need more than L=6 rows"):
                model.forecast(matrix[:-1], feed)
            assert len(model.forecast(matrix, feed)) == 1

    @pytest.mark.parametrize("case", ["ann", "ann-q", "tcn", "tcn-q", "tide", "tide-q",
                                      "ann-2-targets"])
    def test_both_modes_forecast_rows_l_to_n_minus_1(self, case):
        # either mode runs steps L .. N-1, so row k forecasts row L + k: without
        # feed, from the measured window before it; the first step reads only
        # measured rows, so the modes share it. ANN and TCN ran one more
        # step without feed, on the last window, forecasting past the slice
        family, quantiles, n_targets, overrides = ROLLOUT_CASES[case]
        model = make_model(family, quantiles, n_targets, **overrides)
        matrix = make_dataset(25, seed=60).matrix(model.input_channels)
        L, T = model.config.lookback, n_targets
        fed, measured = model.forecast(matrix), model.forecast(matrix, feed=False)
        assert fed.shape == measured.shape == (25 - L, T, len(quantiles) or 1)
        assert fed[0].tobytes() == measured[0].tobytes()
        for k in range(25 - L):
            future = matrix[L + k, T:] if family == "tide" else None
            assert model.predict_window(matrix[k: L + k], future).tobytes() == \
                measured[k].tobytes()

    @pytest.mark.parametrize("family", ["ann", "tcn", "tide"])
    def test_multi_step_model_rejected(self, family):
        # the rollout steps one row at a time, in both modes; the model trains
        model = make_model(family, horizon=2)
        valid = make_dataset(20, seed=61)
        message = "forecast steps one row at a time, got horizon 2"
        for feed in (False, True):
            with pytest.raises(ValueError, match=message):
                model.forecast(valid.matrix(model.input_channels), feed)
        with pytest.raises(ValueError, match=message):
            autoregressive_predict(model, valid)

    @pytest.mark.parametrize("shape", [(20, 1), (20, 2), (20, 4), (60,), (20, 3, 1)])
    @pytest.mark.parametrize("family", ["ann", "tide"])
    def test_matrix_of_another_shape_rejected(self, family, shape):
        # one column was broadcast into all three channels: a top-oil-only
        # matrix forecast as if ambient and load were top oil too
        model = make_model(family)
        for feed in (False, True):
            with pytest.raises(ValueError, match=re.escape(
                    f"forecast: the matrix has shape {shape}, need more than L=6 rows and a "
                    f"column per input channel {model.input_channels}")):
                model.forecast(np.full(shape, 40.0), feed)

    @pytest.mark.parametrize("inputs", [("top_oil", "temp_rise", "ambient", "load_factor"),
                                        ("top_oil", "ambient", "temp_rise", "load_factor")])
    def test_feed_writes_the_target_columns(self, inputs):
        model = replace(make_model("ann", n_targets=2), input_channels=inputs)
        matrix = make_dataset(20, seed=46).matrix(inputs)
        out, _, inputs_seen = traced_forecast(model, matrix)
        want, _ = scaled_slice(model, matrix)
        cols = [inputs.index("top_oil"), inputs.index("temp_rise")]
        gain, offset = model.scaler.vectors(inputs)
        want[6:, cols] = (out[:, :, 0] - offset[cols]) * gain[cols]
        assert [got.tobytes() for (got,) in inputs_seen] == \
            [want[i - 6: i].tobytes() for i in range(6, 20)]
