import base64
import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from toilcast.cli import _train_config, _write_predictions_csv, main
from toilcast.models import load_checkpoint, save_checkpoint
from toilcast.rolling import ForecastTrace
from toilcast.series import AffineScaler
from util import make_dataset

ORIGIN_DAY1 = "2020-07-01T00:00:00+00:00"


def base_config(tmp_path, days=2, noise=0.0, seed=11):
    cfg = {
        "seed": seed,
        "out_dir": str(tmp_path / "out"),
        "data": {"synth": {"days": days, "measurement_noise_k": noise,
                           "load": {"noise_sigma": 0.02},
                           "ambient": {"noise_sigma": 0.1}}},
        "split": {"train": ["2020-07-01T00:00:00Z", "2020-07-02T00:00:00Z"],
                  "valid": ["2020-07-02T00:05:00Z", "2020-07-03T00:00:00Z"]},
        "models": {"ann": {"n_layers": 1, "n_neurons": 4, "lookback": 6},
                   "tcn": {"kernel": 2, "n_filters": 2, "lookback": 6},
                   "tide": {"temporal_width": 2, "decoder_output_dim": 2,
                            "hidden_size": 4, "lookback": 6}},
        "train": {"ann": {"batch_size": 64, "max_epochs": 3, "learning_rate": 1e-3},
                  "tcn": {"batch_size": 64, "max_epochs": 2, "learning_rate": 1e-3},
                  "tide": {"batch_size": 64, "max_epochs": 2, "learning_rate": 1e-3}},
        "iec_params": str(tmp_path / "iec.json"),
    }
    (tmp_path / "iec.json").write_text(json.dumps(
        {"psi": 5.0, "delta_t_or_k": 38.3, "chi": 0.8, "k11": 1.0,
         "tau_o_min": 180.0, "tau_w_min": 10.0}))
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


class TestSynthCommand:
    def test_writes_expected_row_counts(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["synth", "--config", cfg_path]) == 0
        meas = (tmp_path / "out" / "measurements.csv").read_text().splitlines()
        amb = (tmp_path / "out" / "ambient.csv").read_text().splitlines()
        assert len(meas) == 2 * 288 + 2  # header + days*288 + 1
        assert len(amb) == 2 * 24 + 2
        assert (tmp_path / "out" / "clean_top_oil.csv").exists()

    def test_missing_spec_names_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        del cfg["data"]["synth"]
        cfg["data"]["measurements"] = "m.csv"
        del cfg["data"]["measurements"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", cfg_path]) == 2
        assert "data" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["synth", "--config", cfg_path]) == 0
        first = (tmp_path / "out" / "measurements.csv").read_bytes()
        assert main(["synth", "--config", cfg_path]) == 0
        assert (tmp_path / "out" / "measurements.csv").read_bytes() == first


class TestTrainCommand:
    def test_point_training_smoke(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 0
        ckpt = tmp_path / "out" / "ann_point.checkpoint.json"
        assert ckpt.exists()
        assert (tmp_path / "out" / "ann_point.train_report.json").exists()
        model = load_checkpoint(ckpt)
        assert model.family == "ann" and model.quantiles == ()

    def test_quantile_checkpoint_declares_levels(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["train", "--config", cfg_path, "--model", "ann",
                     "--loss", "quantile"]) == 0
        model = load_checkpoint(tmp_path / "out" / "ann_quantile.checkpoint.json")
        assert model.quantiles == (0.01, 0.5, 0.99)

    def test_unknown_model_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg_path, "--model", "lstm"])
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergent_data_exits_3(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["train"]["ann"]["learning_rate"] = 1e300  # blows up within an epoch
        cfg_path = write_config(tmp_path, cfg)
        code = main(["train", "--config", cfg_path, "--model", "ann"])
        assert code == 3
        assert "epoch" in capsys.readouterr().err

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, base_config(tmp_path, seed=11))
        monkeypatch.setenv("TOILCAST_SEED", "99")
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 0
        model = load_checkpoint(tmp_path / "out" / "ann_point.checkpoint.json")
        assert model.seed == 99


class TestEvalCommand:
    def run_train(self, tmp_path, cfg, loss="point", family="ann"):
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", family,
                     "--loss", loss]) == 0
        return cfg_path, tmp_path / "out" / f"{family}_{loss}.checkpoint.json"

    def test_eval_outputs_and_iec_self_consistency(self, tmp_path):
        cfg = base_config(tmp_path, noise=0.0)
        cfg_path, ckpt = self.run_train(tmp_path, cfg)
        assert main(["eval", "--config", cfg_path, str(ckpt), "--iec"]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "evaluation_report.json").read_text())
        assert (out / "predictions_ann_point.csv").exists()
        assert (out / "predictions_iec.csv").exists()
        svg = (out / "eval_plot.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        # zero measurement noise: the IEC trace re-runs the generator exactly
        assert report["models"]["iec"]["targets"]["top_oil"]["mae"] <= 0.05

    def test_quantile_report_has_interval_metrics(self, tmp_path):
        cfg = base_config(tmp_path, noise=0.3)
        cfg_path, ckpt = self.run_train(tmp_path, cfg, loss="quantile")
        assert main(["eval", "--config", cfg_path, str(ckpt)]) == 0
        report = json.loads((tmp_path / "out" / "evaluation_report.json").read_text())
        entry = report["models"]["ann_quantile"]
        assert "picp" in entry and "mean_interval_width" in entry
        assert 0.0 <= entry["picp"] <= 1.0
        header = (tmp_path / "out" / "predictions_ann_quantile.csv") \
            .read_text().splitlines()[0]
        assert header == "timestamp,measured,predicted,q01,q50,q99"

    @pytest.mark.parametrize("alphas, names", [
        ((0.01, 0.5, 0.99), "q01,q50,q99"), ((0.1, 0.5, 0.9), "q10,q50,q90"),
        ((0.025, 0.5, 0.975), "q025,q50,q975"), ((0.001, 0.004, 0.5), "q001,q004,q50"),
        ((1e-05, 0.5, 0.99999), "q00001,q50,q99999")],
        ids=["percents", "tenths", "half-percents", "tenths-of-percents", "exponent-levels"])
    def test_quantile_columns_name_each_level(self, tmp_path, alphas, names):
        # rounded percents named 0.025 and 0.975 q02 and q98, and both 0.001 and 0.004 q00
        valid = make_dataset(10, seed=3)
        y = valid.top_oil.values[4:]
        quants = np.stack([y + k for k in range(len(alphas))], axis=-1)[:, None, :]
        trace = ForecastTrace("m", valid.timestamps[4:], ("top_oil",), y[:, None], quants,
                              alphas)
        _write_predictions_csv(tmp_path / "p.csv", trace, valid)
        rows = list(csv.reader((tmp_path / "p.csv").read_text().splitlines()))
        assert rows[0] == ["timestamp", "measured", "predicted", *names.split(",")]
        assert [float(v) for v in rows[1][3:]] == quants[0, 0].tolist()

    def test_short_winding_time_constant_runs_on_a_smaller_dt(self, tmp_path, capsys):
        # tau_w = 4 min bounds dt at 2 min, under the 5-minute step: this used
        # to exit 2 unless the config set a smaller dt; the solver now takes
        # three sub-steps of 100 s per interval with no setting
        cfg = base_config(tmp_path)
        (tmp_path / "iec.json").write_text(json.dumps(
            {"psi": 5.0, "delta_t_or_k": 38.3, "chi": 0.8, "k11": 1.0,
             "tau_o_min": 180.0, "tau_w_min": 4.0}))
        cfg_path = write_config(tmp_path, cfg)
        assert main(["eval", "--config", cfg_path, "--iec"]) == 0
        report = json.loads((tmp_path / "out" / "evaluation_report.json").read_text())
        assert list(report["models"]) == ["iec"]

    def test_eval_without_inputs_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(tmp_path))
        assert main(["eval", "--config", cfg_path]) == 2

    def test_checkpoints_sharing_a_stem_keep_both_predictions(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg_path, ckpt = self.run_train(tmp_path, cfg)
        other = tmp_path / "other"
        assert main(["train", "--config", write_config(tmp_path, dict(cfg, seed=12), "b.json"),
                     "--model", "ann", "--out", str(other)]) == 0
        out = tmp_path / "out"
        assert main(["eval", "--config", cfg_path, str(ckpt)]) == 0
        alone = (out / "predictions_ann_point.csv").read_bytes()
        assert main(["eval", "--config", cfg_path, str(ckpt),
                     str(other / "ann_point.checkpoint.json")]) == 0
        report = json.loads((out / "evaluation_report.json").read_text())
        assert list(report["models"]) == ["ann_point", "ann_point_1"]
        assert (out / "predictions_ann_point.csv").read_bytes() == alone
        second = (out / "predictions_ann_point_1.csv").read_bytes()
        assert second.splitlines()[0] == alone.splitlines()[0] and second != alone
        assert ">ann_point_1<" in (out / "eval_plot.svg").read_text()

    def test_checkpoint_path_is_read_against_the_working_directory(self, tmp_path,
                                                                    monkeypatch):
        # a relative checkpoint argument was read against the config's folder
        cfg_path, ckpt = self.run_train(tmp_path, base_config(tmp_path))
        work = tmp_path / "work"
        (work / "ck").mkdir(parents=True)
        ckpt.rename(work / "ck" / ckpt.name)
        monkeypatch.chdir(work)
        assert main(["eval", "--config", cfg_path, f"ck/{ckpt.name}"]) == 0
        report = json.loads((tmp_path / "out" / "evaluation_report.json").read_text())
        assert list(report["models"]) == ["ann_point"]

    def test_tide_checkpoint_evaluates(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg_path, ckpt = self.run_train(tmp_path, cfg, family="tide")
        assert main(["eval", "--config", cfg_path, str(ckpt)]) == 0
        report = json.loads((tmp_path / "out" / "evaluation_report.json").read_text())
        assert "tide_point" in report["models"]


class TestGridCommand:
    def test_singleton_grid_one_row(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"ann": {"n_neurons": [4]}, "lookbacks": [6]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["grid", "--config", cfg_path, "--model", "ann"]) == 0
        rows = (tmp_path / "out" / "grid_ann_point.csv").read_text().splitlines()
        assert rows[0] == "trial_id,family,params_json,lookback,val_mae,val_mse,status,error"
        assert len(rows) == 2
        assert rows[1].endswith("ok,")

    def test_lookback_in_the_model_grid_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"ann": {"lookback": [6, 12]}, "lookbacks": [8]}
        assert main(["grid", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid.lookbacks" in err
        assert not (tmp_path / "out" / "grid_ann_point.csv").exists()

    def test_failed_trial_row_names_error(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"tcn": {"kernel": [1, 2]}, "lookbacks": [6]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["grid", "--config", cfg_path, "--model", "tcn"]) == 0
        with open(tmp_path / "out" / "grid_tcn_point.csv", newline="") as fh:
            rows = {json.loads(r["params_json"])["kernel"]: r for r in csv.DictReader(fh)}
        assert rows[1]["status"] == "failed"
        assert rows[1]["error"].startswith("ValueError: kernel=1")
        assert rows[2]["status"] == "ok" and rows[2]["error"] == ""

    def test_small_grid_counts(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"ann": {"n_neurons": [2, 4], "n_layers": [1, 2]},
                       "lookbacks": [4, 8]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["grid", "--config", cfg_path, "--model", "ann"]) == 0
        rows = (tmp_path / "out" / "grid_ann_point.csv").read_text().splitlines()
        assert len(rows) == 1 + 8

    @pytest.mark.parametrize("lookbacks", [[6.7], [6, 0], 6], ids=["6.7", "0", "scalar"])
    def test_bad_lookbacks_exit_2(self, tmp_path, capsys, lookbacks):
        # [6.7] used to run its trial at look-back 6 and exit 0
        cfg = base_config(tmp_path)
        cfg["grid"] = {"ann": {"n_neurons": [4]}, "lookbacks": lookbacks}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["grid", "--config", cfg_path, "--model", "ann"]) == 2
        assert "invalid grid settings" in capsys.readouterr().err
        assert not (tmp_path / "out" / "grid_ann_point.csv").exists()

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"ann": {}}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["grid", "--config", cfg_path, "--model", "ann"]) == 2


class TestIdempotence:
    def test_train_and_eval_outputs_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path, noise=0.2)
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        ckpt = out / "ann_point.checkpoint.json"
        train_report = out / "ann_point.train_report.json"

        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 0
        first_ckpt = ckpt.read_bytes()
        first_train_report = train_report.read_bytes()
        assert main(["eval", "--config", cfg_path, str(ckpt)]) == 0
        first_report = (out / "evaluation_report.json").read_bytes()
        first_svg = (out / "eval_plot.svg").read_bytes()

        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 0
        assert ckpt.read_bytes() == first_ckpt
        # the wall time goes to the summary line, not into the report
        assert train_report.read_bytes() == first_train_report
        assert main(["eval", "--config", cfg_path, str(ckpt)]) == 0
        assert (out / "evaluation_report.json").read_bytes() == first_report
        assert (out / "eval_plot.svg").read_bytes() == first_svg


class TestTrainingDefaults:
    def test_paper_training_parameters(self, tmp_path):
        from toilcast.cli import _train_config
        cfg = base_config(tmp_path)
        del cfg["train"]
        for family, (batch, epochs, lr) in {"ann": (256, 4000, 1e-5),
                                            "tcn": (512, 500, 1e-4),
                                            "tide": (512, 100, 1e-6)}.items():
            tc = _train_config(cfg, family, "point")
            assert (tc.batch_size, tc.max_epochs, tc.learning_rate) == (batch, epochs, lr)
        # quantile TiDE runs use the higher learning rate
        assert _train_config(cfg, "tide", "quantile").learning_rate == 1e-5
        assert _train_config(cfg, "ann", "quantile").learning_rate == 1e-5


class TestMultiTargetCli:
    def test_eval_reports_both_targets(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["multi_target"] = True
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 0
        ckpt = tmp_path / "out" / "ann_point.checkpoint.json"
        assert main(["eval", "--config", cfg_path, str(ckpt)]) == 0
        report = json.loads((tmp_path / "out" / "evaluation_report.json").read_text())
        targets = report["models"]["ann_point"]["targets"]
        assert set(targets) == {"top_oil", "temp_rise"}
        header = (tmp_path / "out" / "predictions_ann_point.csv") \
            .read_text().splitlines()[0]
        assert header == "timestamp,measured,predicted,measured_temp_rise,predicted_temp_rise"


class TestConfigValidation:
    def test_missing_config_file(self, capsys):
        assert main(["synth", "--config", "/nonexistent/run.json"]) == 2

    def test_both_data_sources_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["data"]["measurements"] = "m.csv"
        cfg["data"]["ambient"] = "a.csv"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["synth", "--config", cfg_path]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_train_keys_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["train"]["ann"]["max_epoch"] = 5
        cfg["train"]["ann"]["optimizer"] = "sgd"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 2
        err = capsys.readouterr().err
        assert "train.ann" in err and "'max_epoch'" in err and "'optimizer'" in err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    @pytest.mark.parametrize("key, value", [("quantile", [0.1, 0.5, 0.9]),
                                            ("iec_dt_minutes", 1.0),
                                            ("iec_dt_min", 1.0),
                                            ("iec_enforce_timestep", False)])
    def test_unknown_root_key_rejected(self, tmp_path, capsys, key, value):
        # a misspelt root key would otherwise run on the default it meant to replace
        cfg = base_config(tmp_path)
        cfg[key] = value
        assert main(["train", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config has unknown keys [{key!r}]; expected 'seed'")
        assert not (tmp_path / "out").exists()

    def test_non_object_root_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        assert main(["synth", "--config", str(path)]) == 2
        assert "config must be an object with keys 'seed'" in capsys.readouterr().err

    def test_bad_timezone_names_the_offset(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["synth", "--config", write_config(tmp_path, cfg)]) == 0
        del cfg["data"]["synth"]
        cfg["data"].update(measurements=str(tmp_path / "out" / "measurements.csv"),
                           ambient=str(tmp_path / "out" / "ambient.csv"),
                           timezone="Europe/Paris")
        assert main(["train", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        assert "UTC offset 'Europe/Paris' must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    def test_unparseable_timestamp_in_measurements_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["synth", "--config", write_config(tmp_path, cfg)]) == 0
        meas = tmp_path / "out" / "measurements.csv"
        lines = meas.read_text().splitlines()
        lines[11] = "2020-07-01T00:50:00 UTC" + lines[11][lines[11].index(","):]
        meas.write_text("\n".join(lines) + "\n")
        del cfg["data"]["synth"]
        cfg["data"].update(measurements=str(meas), ambient=str(tmp_path / "out" / "ambient.csv"))
        assert main(["train", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        assert f"{meas}: the timestamp does not parse on rows [10]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    @pytest.mark.parametrize("key, value", [("batch_size", None), ("patience", 0)])
    def test_invalid_train_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = base_config(tmp_path)
        cfg["train"]["ann"][key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 2
        assert "invalid train.ann settings" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    @pytest.mark.parametrize("command", ["train", "synth"])
    @pytest.mark.parametrize("seed", [2.5, -1, True, "3"])
    def test_bad_seed_names_the_field(self, tmp_path, capsys, command, seed):
        # "seed": 2.5 used to train with seed 2 and exit 0
        cfg = base_config(tmp_path, seed=seed)
        if command == "train":   # the data keeps a seed of its own, so TrainConfig sees it
            cfg["data"]["synth"]["seed"] = 0
        args = ["--model", "ann"] if command == "train" else []
        assert main([command, "--config", write_config(tmp_path, cfg), *args]) == 2
        err = capsys.readouterr().err
        assert ("TrainConfig.seed" if command == "train" else "SynthSpec.seed") in err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    def test_null_patience_is_off(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["train"]["ann"]["patience"] = None
        assert _train_config(cfg, "ann", "point").patience is None
        cfg["train"]["ann"]["patience"] = 2
        assert _train_config(cfg, "ann", "point").patience == 2

    @pytest.mark.parametrize("key, value", [
        ("max_epochs", 2.5), ("batch_size", True), ("patience", "3"),
        ("learning_rate", "1e-3"), ("learning_rate", True)])
    def test_train_value_of_the_wrong_type_names_the_field(self, tmp_path, capsys, key,
                                                           value):
        # the JSON value reaches TrainConfig as written: nothing rounds or parses it
        cfg = base_config(tmp_path)
        cfg["train"]["ann"][key] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 2
        err = capsys.readouterr().err
        assert "invalid train.ann settings" in err and f"TrainConfig.{key}" in err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    @pytest.mark.parametrize("family", ["ann", "tcn"])
    @pytest.mark.parametrize("value", ["two", 2.5, True])
    def test_n_targets_of_the_wrong_type_names_the_field(self, tmp_path, capsys, family,
                                                         value):
        cfg = base_config(tmp_path)
        cfg["models"][family]["n_targets"] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", family]) == 2
        err = capsys.readouterr().err
        assert f"invalid models.{family} config" in err and ".n_targets must be" in err

    def test_channels_follow_the_targets(self, tmp_path):
        from toilcast.cli import _model_config
        cfg = base_config(tmp_path)
        assert _model_config(cfg, "tcn", "point").n_channels == 3
        cfg["multi_target"] = True
        assert _model_config(cfg, "tcn", "point").n_channels == 4
        cfg["models"]["tcn"]["n_channels"] = 7    # given: kept as written
        assert _model_config(cfg, "tcn", "point").n_channels == 7

    def test_partial_scaling_keeps_the_channels_other_default(self, tmp_path):
        # an offset alone used to reset the top-oil gain to 1.0
        from toilcast.cli import _scaler
        cfg = base_config(tmp_path)
        cfg["scaling"] = {"top_oil": {"offset": 10.0}, "ambient": {"gain": 0.5}}
        channels = _scaler(cfg).channels
        assert channels["top_oil"] == (0.01, 10.0) and channels["ambient"] == (0.5, 0.0)
        assert channels["load_factor"] == (1.0, 0.0)

    def test_non_finite_scaling_names_the_channel(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["scaling"] = {"ambient": {"gain": float("nan")}}   # written as JSON NaN
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 2
        assert "AffineScaler.ambient.gain" in capsys.readouterr().err

    @pytest.mark.parametrize("scaling, message", [
        ({"ambient": 5}, "AffineScaler.ambient must be an object with keys 'gain' and "
                         "'offset', got 5"),
        ({"top_oil": {"gian": 0.01}}, "AffineScaler.top_oil has unknown keys ['gian']")])
    def test_malformed_scaling_exits_2(self, tmp_path, capsys, scaling, message):
        # used to end in an AttributeError traceback, or to read "gian" as gain 1.0
        cfg = base_config(tmp_path)
        cfg["scaling"] = scaling
        assert main(["train", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    @pytest.mark.parametrize("loss", ["point", "quantile"])
    def test_bare_quantile_level_exits_2(self, tmp_path, capsys, loss):
        # with the quantile loss this used to end in a TypeError traceback
        cfg = base_config(tmp_path)
        cfg["quantiles"] = 0.5
        argv = ["train", "--config", write_config(tmp_path, cfg), "--model", "ann",
                "--loss", loss]
        assert main(argv) == 2
        assert "quantiles must be a list of levels, got 0.5" in capsys.readouterr().err
        assert not (tmp_path / "out" / f"ann_{loss}.checkpoint.json").exists()

    @pytest.mark.parametrize("value", ["false", "true", 0, None])
    def test_multi_target_must_be_a_json_boolean(self, tmp_path, capsys, value):
        # "multi_target": "false" used to train a 2-target model
        cfg = base_config(tmp_path)
        cfg["multi_target"] = value
        assert main(["train", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        assert (f"config.multi_target must be true or false, got {value!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()

    def test_null_model_field_exits_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["models"]["ann"]["n_targets"] = None
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 2
        assert "invalid models.ann config" in capsys.readouterr().err

    def test_invalid_split_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["split"]["valid"] = ["2020-06-30T00:00:00Z", "2020-07-01T00:00:00Z"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["train", "--config", cfg_path, "--model", "ann"]) == 2

    @pytest.mark.parametrize("triple", [["2020-07-01T00:00:00Z", "2020-07-02T00:00:00Z",
                                         "2020-07-02T00:00:00Z"], 5],
                             ids=["three-entries", "integer"])
    def test_split_range_must_be_a_pair(self, tmp_path, capsys, triple):
        # three entries used to run with the third ignored, an integer to end in a traceback
        cfg = base_config(tmp_path)
        cfg["split"]["train"] = triple
        assert main(["train", "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
        assert f"split.train must be a [start, end] list, got {triple!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ann_point.checkpoint.json").exists()


def set_key(cfg: dict, dotted: str, value) -> None:
    *sections, last = dotted.split(".")
    for name in sections:
        cfg = cfg.setdefault(name, {})
    cfg[last] = value


MALFORMED_CONFIGS = [("train.ann", 5, "train"), ("models.ann", 5, "train"),
                     ("scaling", 5, "train"), ("split.train", 5, "train"),
                     ("data.synth", 5, "train"), ("grid.ann", [1, 2], "grid"),
                     ("models", [1], "train"), ("train", [1], "train")]


@pytest.mark.parametrize("key, value, command", MALFORMED_CONFIGS,
                         ids=[f"{k}={v}" for k, v, _ in MALFORMED_CONFIGS])
def test_malformed_config_section_exits_2_naming_the_key(tmp_path, capsys, key, value,
                                                         command):
    # each used to end in a TypeError or AttributeError traceback (exit 1)
    cfg = base_config(tmp_path)
    set_key(cfg, key, value)
    assert main([command, "--config", write_config(tmp_path, cfg), "--model", "ann"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and f"got {value!r}" in err
    assert not list((tmp_path / "out").glob("*.checkpoint.json"))


@pytest.fixture(scope="module")
def trained_ann(tmp_path_factory):
    """A config and the checkpoint it trains, shared by the corruption cases."""
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg_path = write_config(tmp_path, base_config(tmp_path))
    assert main(["train", "--config", cfg_path, "--model", "ann"]) == 0
    return cfg_path, json.loads((tmp_path / "out" / "ann_point.checkpoint.json").read_text())


def _first_value(name, value):
    """An edit that sets the first value of parameter `name` to `value`."""
    def edit(doc):
        entry = doc["params"][name]
        data = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        data[0] = value
        entry["data"] = base64.b64encode(data.tobytes()).decode()
    return edit


CORRUPTIONS = {
    "config": (lambda d: d.update(config=5), "MlpConfig must be an object with keys "),
    "quantiles-0.5": (lambda d: d["config"].update(quantiles=0.5),
                      "quantiles must be a list of levels, got 0.5"),
    "quantiles-0": (lambda d: d["config"].update(quantiles=0),
                    "quantiles must be a list of levels, got 0"),
    "scaling.top_oil": (lambda d: d["scaling"].update(top_oil=5),
                        "AffineScaler.top_oil must be an object with keys 'gain' and 'offset'"),
    "params.head.b": (lambda d: d["params"].update({"head.b": 5}),
                      "parameter 'head.b' must be an object with keys 'shape' and 'data'"),
    "no-family": (lambda d: d.pop("family") and None, "is missing keys ['family']"),
    "list": (lambda d: [1], "bad.checkpoint.json is not a toilcast-checkpoint-v1 file"),
    "input_channels": (lambda d: d.update(input_channels="top_oil"),
                       "TrainedModel.input_channels must be a list of channels among "),
    # a bare "Incorrect padding", and characters outside the alphabet dropped
    "base64-padding": (lambda d: d["params"]["head.b"].update(data="abc"),
                       "parameter 'head.b' is not base64 data (Incorrect padding)"),
    "base64-alphabet": (lambda d: d["params"]["head.b"].update(data="AAAA!!!!AAAAAAAA"),
                        "parameter 'head.b' is not base64 data (Only base64 data is allowed)"),
    # used to load, then fail at the first forward with a TypeError
    "activation": (lambda d: d["config"].update(activation=["relu"]),
                   "MlpConfig.activation must be one of ['identity', 'relu', 'sigmoid', "
                   "'tanh'], got ['relu']"),
    # used to load, then fail the rollout's first step and exit 3
    "head.w-nan": (_first_value("head.w", np.nan),
                   "bad.checkpoint.json: parameter 'head.w' holds a non-finite value"),
    "head.w-inf": (_first_value("head.w", -np.inf),
                   "bad.checkpoint.json: parameter 'head.w' holds a non-finite value"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_checkpoint_exits_2_naming_the_entry(tmp_path, capsys, trained_ann, name):
    # each used to exit 1 with a traceback, or 2 with a bare "'family'"; a bare
    # string of input channels was split into its letters
    cfg_path, doc = trained_ann
    edit, message = CORRUPTIONS[name]
    doc = json.loads(json.dumps(doc))
    ckpt = tmp_path / "bad.checkpoint.json"
    ckpt.write_text(json.dumps(edit(doc) or doc))
    assert main(["eval", "--config", cfg_path, str(ckpt), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o" / "evaluation_report.json").exists()


def test_checkpoint_scaling_without_an_input_channel_exits_2(tmp_path, capsys, trained_ann):
    # a checkpoint, its hash intact, whose scaling omits an input channel
    # used to end the rollout with a bare KeyError traceback and exit 1
    cfg_path, doc = trained_ann
    good = tmp_path / "good.checkpoint.json"
    good.write_text(json.dumps(doc))
    model = load_checkpoint(good)
    scaler = AffineScaler({n: v for n, v in model.scaler.channels.items() if n != "ambient"})
    ckpt = tmp_path / "bad.checkpoint.json"
    save_checkpoint(ckpt, replace(model, scaler=scaler))
    assert main(["eval", "--config", cfg_path, str(ckpt), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no gain and offset for ['ambient']" in err


@pytest.mark.parametrize("reader", ["config", "iec_params", "checkpoint"])
def test_malformed_json_file_exits_2_naming_it(tmp_path, capsys, reader):
    # an IEC file or a checkpoint that is not JSON used to exit 2 with the
    # decoder's bare message, which names no file
    cfg = base_config(tmp_path)
    bad = tmp_path / f"bad_{reader}.json"
    bad.write_text('{"psi": 5.0, }')
    if reader == "iec_params":
        cfg["iec_params"] = str(bad)
    cfg_path = str(bad) if reader == "config" else write_config(tmp_path, cfg)
    argv = ["eval", "--config", cfg_path, *([str(bad)] if reader == "checkpoint" else ["--iec"])]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {bad} is not valid JSON: Expecting property "
                                       "name enclosed in double quotes: line 1 column 14 "
                                       "(char 13)\n")
    assert not (tmp_path / "out" / "evaluation_report.json").exists()


@pytest.mark.parametrize("reader", ["config", "iec_params", "checkpoint", "measurements"])
def test_directory_in_place_of_a_file_exits_2_naming_it(tmp_path, capsys, reader):
    # an IsADirectoryError used to end in a traceback and exit 1
    cfg = base_config(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    if reader == "iec_params":
        cfg["iec_params"] = str(folder)
    if reader == "measurements":
        del cfg["data"]["synth"]
        cfg["data"].update(measurements=str(folder), ambient=str(folder))
    cfg_path = str(folder) if reader == "config" else write_config(tmp_path, cfg)
    argv = ["eval", "--config", cfg_path, *([str(folder)] if reader == "checkpoint" else ["--iec"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Is a directory: '{folder}'" in err
    assert not (tmp_path / "out" / "evaluation_report.json").exists()
