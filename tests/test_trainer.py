import re

import numpy as np
import pytest

from toilcast import metrics, training
from toilcast.autodiff import Tensor
from toilcast.models import Mlp, MlpConfig, build_model, config_from_dict
from toilcast.series import WindowSet, make_windows, scale_windows
from toilcast.training import (DivergenceError, GridSpec, TrainConfig, TrialResult,
                               fit_dataset, grid_search, point_loss, quantile_loss,
                               rank_trials, select_best, train)
from util import IDENTITY, make_dataset, mql


def linear_windows(n=64, seed=0):
    """Toy supervised problem y = 2x + 1 packaged as a window set."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 1))
    return WindowSet(x, 2.0 * x + 1.0, 1, 1, ("top_oil",), ("top_oil",))


def tiny_model(seed=0, **kw):
    cfg = MlpConfig(n_layers=1, n_neurons=8, lookback=1, n_channels=1, **kw)
    m = Mlp(cfg)
    return m, m.init_params(seed)


class TestTrain:
    def test_zero_learning_rate_is_identity(self):
        model, params = tiny_model()
        before = {k: t.data.copy() for k, t in params.items()}
        report = train(model, params, linear_windows(),
                       TrainConfig(batch_size=16, max_epochs=5, learning_rate=0.0))
        for k in params:
            assert np.array_equal(params[k].data, before[k])
        assert max(report.epoch_losses) - min(report.epoch_losses) <= 1e-12

    def test_learns_linear_target(self):
        model, params = tiny_model()
        report = train(model, params, linear_windows(),
                       TrainConfig(batch_size=16, max_epochs=200, learning_rate=1e-2))
        assert report.epoch_losses[-1] < 0.1 * report.epoch_losses[0]

    def test_same_seed_bitwise_identical(self):
        def run():
            model, params = tiny_model(seed=3)
            report = train(model, params, linear_windows(),
                           TrainConfig(batch_size=16, max_epochs=20,
                                       learning_rate=1e-2, seed=3))
            return {k: t.data.copy() for k, t in params.items()}, report

        pa, ra = run()
        pb, rb = run()
        for k in pa:
            assert np.array_equal(pa[k], pb[k])
        assert ra.param_checksum == rb.param_checksum
        assert ra.epoch_losses == rb.epoch_losses

    def test_non_finite_loss_aborts_with_location(self):
        model, params = tiny_model()
        ws = linear_windows()
        bad = ws.targets.copy()
        bad[5, 0] = np.inf
        ws = WindowSet(ws.inputs, bad, 1, 1, ws.input_channels, ws.target_channels)
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(model, params, ws, TrainConfig(batch_size=64, max_epochs=2,
                                                 learning_rate=1e-2))

    def test_quantile_head_mismatch_rejected(self):
        model, params = tiny_model()
        with pytest.raises(ValueError, match="quantiles"):
            train(model, params, linear_windows(),
                  TrainConfig(batch_size=16, max_epochs=1, loss="quantile"))

    @pytest.mark.parametrize("head, loss, match", [
        ({"quantiles": (0.01, 0.5, 0.99)}, "point",
         r"quantiles \(0.01, 0.5, 0.99\) do not match the point loss"),
        ({"n_targets": 2}, "point", "2 outputs, the point loss on 1 target values per "
                                    "window needs 1"),
        ({"n_targets": 2, "quantiles": (0.01, 0.5, 0.99)}, "quantile",
         "6 outputs, the quantile loss on 1 target values per window needs 3")],
        ids=["point-loss-quantile-head", "two-target-head", "quantile-two-target-head"])
    def test_head_that_does_not_fit_the_loss_rejected(self, head, loss, match, monkeypatch):
        model, params = tiny_model(**head)
        calls = []
        monkeypatch.setattr(model, "forward", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=match):
            train(model, params, linear_windows(),
                  TrainConfig(batch_size=16, max_epochs=1, loss=loss))
        assert calls == []   # rejected before the first batch

    def test_patience_stops_early(self):
        model, params = tiny_model()
        report = train(model, params, linear_windows(),
                       TrainConfig(batch_size=16, max_epochs=50, learning_rate=0.0,
                                   patience=3))
        assert report.epochs_run == 4  # constant loss: first epoch plus patience

    def test_patience_below_one_rejected(self):
        with pytest.raises(ValueError, match="TrainConfig.patience"):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 4.0, True, "8", 0, -3],
                             ids=["nan", "inf", "2.5", "4.0", "true", "str", "0", "-3"])
    def test_bad_count_names_the_field(self, name, value):
        # patience=nan used to switch early stopping off: `stale >= nan` never holds
        with pytest.raises(ValueError, match=rf"TrainConfig\.{name} must be >= 1 and an "
                                             rf"integer, got {re.escape(repr(value))}"):
            TrainConfig(**{name: value})

    def test_integer_counts_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(8), max_epochs=1, patience=None)
        assert cfg.batch_size == 8 and cfg.patience is None
        assert TrainConfig(patience=1).patience == 1

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, -1e-3])
    def test_bad_learning_rate_names_the_field(self, rate):
        with pytest.raises(ValueError, match=rf"TrainConfig.learning_rate must be finite "
                                             rf"and >= 0, got {rate}"):
            TrainConfig(learning_rate=rate)


    @pytest.mark.parametrize("rate", ["1e-3", True, None], ids=["str", "true", "none"])
    def test_learning_rate_that_is_no_number_names_the_field(self, rate):
        with pytest.raises(ValueError, match=rf"TrainConfig.learning_rate must be finite "
                                             rf"and >= 0, got {re.escape(repr(rate))}"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("family, model", [
        ("ann", {"n_layers": 1, "n_neurons": 8}),
        ("tcn", {"kernel": 2, "n_filters": 4}),
        ("tide", {"temporal_width": 2, "decoder_output_dim": 2, "hidden_size": 4})])
    def test_view_windows_train_as_their_copies(self, family, model):
        # the gather copies a batch's rows, whatever the windows' strides
        inputs, targets = ("top_oil", "ambient", "load_factor"), ("top_oil",)
        future = inputs[1:] if family == "tide" else ()
        views = scale_windows(make_windows(make_dataset(300, seed=4), 6, 1, inputs, targets,
                                           future), IDENTITY)
        copies = WindowSet(np.array(views.inputs), np.array(views.targets), 6, 1, inputs,
                           targets, None if views.future_cov is None
                           else np.array(views.future_cov), future)
        cfg = config_from_dict(family, dict(model, lookback=6))
        tc = TrainConfig(batch_size=32, max_epochs=2, learning_rate=1e-3, seed=5)
        reports = []
        for ws in (views, copies):
            m = build_model(family, cfg)
            reports.append(train(m, m.init_params(tc.seed), ws, tc))
        assert reports[0].epoch_losses == reports[1].epoch_losses
        assert reports[0].param_checksum == reports[1].param_checksum


class TestLosses:
    def test_point_loss_matches_metric(self):
        rng = np.random.default_rng(8)
        pred = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 3))
        assert float(point_loss(Tensor(pred), y).data) == pytest.approx(
            metrics.mae(y.ravel(), pred.ravel()), abs=1e-12)

    def test_quantile_loss_matches_averaged_mql(self):
        rng = np.random.default_rng(9)
        alphas = (0.01, 0.5, 0.99)
        pred = rng.normal(size=(11, 2 * len(alphas)))
        y = rng.normal(size=(11, 2))
        got = float(quantile_loss(Tensor(pred), y, alphas).data)
        p3 = pred.reshape(11, 2, 3)
        want = float(np.mean([mql(y.ravel(), p3[:, :, i].ravel(), a)
                              for i, a in enumerate(alphas)]))
        assert got == pytest.approx(want, abs=1e-12)


class TestGridSearch:
    def make_data(self):
        return make_dataset(160, seed=4), make_dataset(60, start=1_700_000_000, seed=5)

    def test_singleton_grid(self):
        train_ds, valid_ds = self.make_data()
        grid = GridSpec("ann", {"n_neurons": (4,), "n_layers": (1,)}, lookbacks=(8,))
        ranked = grid_search(grid, MlpConfig(n_layers=1, n_neurons=4, lookback=8),
                             train_ds, valid_ds, IDENTITY,
                             TrainConfig(batch_size=64, max_epochs=2, learning_rate=1e-3))
        assert len(ranked) == 1
        best = select_best(ranked)
        assert best.params == {"lookback": 8, "n_layers": 1, "n_neurons": 4}
        assert best.status == "ok"

    def test_paper_grid_enumerates_27_trials(self):
        grid = GridSpec("ann", {"n_neurons": (32, 64, 128), "n_layers": (2, 4, 8)},
                        lookbacks=(24, 48, 96))
        assert grid.n_trials == 27
        combos = grid.enumerate()
        assert len(combos) == 27
        assert len({tuple(sorted(c.items())) for c in combos}) == 27

    def test_failed_trial_isolated(self):
        train_ds, valid_ds = self.make_data()
        # n_blocks=1 cannot cover a 16-step look-back; n_blocks=4 can
        grid = GridSpec("tcn", {"n_blocks": (1, 4)}, lookbacks=(16,))
        from toilcast.models import TcnConfig
        ranked = grid_search(grid, TcnConfig(kernel=2, n_filters=2, lookback=16),
                             train_ds, valid_ds, IDENTITY,
                             TrainConfig(batch_size=64, max_epochs=1, learning_rate=1e-3))
        by_status = {r.status for r in ranked}
        assert by_status == {"ok", "failed"}
        failed = [r for r in ranked if r.status == "failed"][0]
        assert "receptive field" in failed.error
        assert ranked[0].status == "ok"  # scored trials rank ahead of failures

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("fit_dataset() got an unexpected keyword argument")

        monkeypatch.setattr(training, "fit_dataset", broken)
        train_ds, valid_ds = self.make_data()
        grid = GridSpec("ann", {"n_neurons": (2,)}, lookbacks=(8,))
        with pytest.raises(TypeError, match="unexpected keyword"):
            grid_search(grid, MlpConfig(n_layers=1, n_neurons=2, lookback=8), train_ds,
                        valid_ds, IDENTITY, TrainConfig(batch_size=64, max_epochs=1))

    def test_failed_trial_names_the_exception_type(self, monkeypatch):
        def diverging(*args, **kwargs):
            raise DivergenceError(0, 3)

        monkeypatch.setattr(training, "fit_dataset", diverging)
        train_ds, valid_ds = self.make_data()
        grid = GridSpec("ann", {"n_neurons": (2,)}, lookbacks=(8,))
        [result] = grid_search(grid, MlpConfig(n_layers=1, n_neurons=2, lookback=8),
                               train_ds, valid_ds, IDENTITY,
                               TrainConfig(batch_size=64, max_epochs=1))
        assert result.status == "failed"
        assert result.error.startswith("DivergenceError: ")

    def test_overflowing_score_fails_the_trial(self, monkeypatch):
        rollout = training.autoregressive_predict

        def huge(model, valid):
            trace = rollout(model, valid)
            trace.values[:] = 1e200   # finite, but its squared error overflows
            return trace

        monkeypatch.setattr(training, "autoregressive_predict", huge)
        train_ds, valid_ds = self.make_data()
        grid = GridSpec("ann", {"n_neurons": (2,)}, lookbacks=(8,))
        [result] = grid_search(grid, MlpConfig(n_layers=1, n_neurons=2, lookback=8),
                               train_ds, valid_ds, IDENTITY,
                               TrainConfig(batch_size=64, max_epochs=1))
        assert result.status == "failed"
        assert result.error.startswith("FloatingPointError: mse: ")

    def test_trial_seeds_differ_but_run_is_reproducible(self):
        train_ds, valid_ds = self.make_data()
        grid = GridSpec("ann", {"n_neurons": (2, 4)}, lookbacks=(8,))
        run = lambda: grid_search(
            grid, MlpConfig(n_layers=1, n_neurons=2, lookback=8), train_ds, valid_ds,
            IDENTITY, TrainConfig(batch_size=64, max_epochs=1, learning_rate=1e-3))
        a, b = run(), run()
        assert [(r.trial_id, r.val_mae) for r in a] == [(r.trial_id, r.val_mae) for r in b]


class TestSelectBest:
    def trial(self, i, mae_val, n_params=10, status="ok"):
        return TrialResult(i, "ann", {"n_neurons": i}, 24, mae_val,
                           None if mae_val is None else mae_val ** 2, status,
                           n_params=n_params)

    def test_argmin(self):
        ranked = rank_trials([self.trial(0, 2.0), self.trial(1, 1.5), self.trial(2, 3.0)])
        assert select_best(ranked).trial_id == 1

    def test_tie_breaks_to_smaller_model(self):
        a = self.trial(0, 1.5, n_params=500)
        b = self.trial(1, 1.5, n_params=50)
        assert select_best([a, b]).trial_id == 1

    def test_single_survivor(self):
        a = self.trial(0, None, status="failed")
        b = self.trial(1, 9.9)
        assert select_best([a, b]).trial_id == 1

    def test_all_failed(self):
        with pytest.raises(ValueError, match="failed"):
            select_best([self.trial(0, None, status="failed")])


class TestFitDataset:
    def test_reproducible_end_to_end(self):
        ds = make_dataset(80, seed=6)
        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=6, n_channels=3)
        tc = TrainConfig(batch_size=32, max_epochs=3, learning_rate=1e-3, seed=9)
        a, ra = fit_dataset("ann", cfg, ds, IDENTITY, tc)
        b, rb = fit_dataset("ann", cfg, ds, IDENTITY, tc)
        assert ra.param_checksum == rb.param_checksum
        assert a.config_hash == b.config_hash

    def test_multi_target_channels(self):
        ds = make_dataset(80, seed=7)
        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=6, n_channels=4, n_targets=2)
        tm, _ = fit_dataset("ann", cfg, ds, IDENTITY,
                            TrainConfig(batch_size=32, max_epochs=1, learning_rate=1e-3))
        assert tm.target_channels == ("top_oil", "temp_rise")
        assert tm.input_channels == ("top_oil", "temp_rise", "ambient", "load_factor")

    def test_more_targets_than_target_channels_rejected(self):
        cfg = MlpConfig(n_layers=1, n_neurons=4, lookback=6, n_channels=5, n_targets=3)
        with pytest.raises(ValueError, match=r"n_targets 3 exceeds the 2 target channels"):
            fit_dataset("ann", cfg, make_dataset(80, seed=7), IDENTITY,
                        TrainConfig(batch_size=32, max_epochs=1))
