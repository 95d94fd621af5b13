"""Command-line entry point.

One JSON config drives every command; flags override config scalars:

    toilcast synth --config run.json [--out DIR]
    toilcast train --config run.json --model ann [--loss point|quantile]
    toilcast grid  --config run.json --model ann [--loss point|quantile]
    toilcast eval  --config run.json [CHECKPOINT ...] [--iec]

Paths inside the config are read against the config's folder; paths on the
command line (the config, --out, checkpoints) against the working directory.

Exit codes: 0 success, 2 config/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

from .iec import IecParams
from .metrics import validate_quantiles
from .models import FAMILIES, config_from_dict, load_checkpoint, save_checkpoint
from .rolling import autoregressive_predict, evaluate, iec_predict
from .series import (AffineScaler, SplitSpec, check_flag, check_object, format_instant,
                     load_dataset, read_json, split, write_csv, write_json)
from .svgplot import line_plot_svg
from .synth import SynthSpec, gen_dataset, write_dataset_csvs
from .training import (COVARIATES, TARGET_CHANNELS_MULTI, GridSpec, TrainConfig, fit_dataset,
                       grid_search, select_best)

DEFAULT_SCALING = {
    "top_oil": {"gain": 0.01, "offset": 0.0},
    "ambient": {"gain": 0.01, "offset": 0.0},
    "load_factor": {"gain": 1.0, "offset": 0.0},
    "temp_rise": {"gain": 0.01, "offset": 0.0},
}

# Training parameters reproduced per model family (quantile TiDE runs use a
# higher rate than its point runs).
DEFAULT_TRAIN = {
    "ann": {"batch_size": 256, "max_epochs": 4000, "learning_rate": 1e-5},
    "tcn": {"batch_size": 512, "max_epochs": 500, "learning_rate": 1e-4},
    "tide": {"batch_size": 512, "max_epochs": 100, "learning_rate": 1e-6},
}
DEFAULT_TRAIN_QUANTILE_LR = {"tide": 1e-5}
TRAIN_KEYS = ("batch_size", "max_epochs", "learning_rate", "patience")

DEFAULT_GRID = {
    "ann": {"n_neurons": (32, 64, 128), "n_layers": (2, 4, 8)},
    "tcn": {"kernel": (2, 4), "n_filters": (8, 16, 32)},
    "tide": {"temporal_decoder_hidden": (8, 16), "decoder_output_dim": (2, 4, 8)},
}

# the keys the config root and each config section may hold
SECTIONS = {"config": ("seed", "out_dir", "data", "split", "scaling", "quantiles", "multi_target",
                       "models", "train", "grid", "iec_params"),
            "data": ("synth", "measurements", "ambient", "rated_current_a", "timezone"),
            "split": ("train", "valid"), "models": tuple(DEFAULT_TRAIN),
            "train": tuple(DEFAULT_TRAIN), "grid": (*DEFAULT_GRID, "lookbacks"),
            "scaling": tuple(DEFAULT_SCALING)}


def _require(cfg: dict, key: str, default=...):
    """The value at the dotted `key`, else `default` (no default: ValueError).
    Each section it reaches must be an object with keys from `SECTIONS`."""
    parts, cur = key.split("."), cfg
    for i, part in enumerate(parts):
        if part not in cur:
            if default is ...:
                raise ValueError(f"config is missing required key '{key}'")
            return default
        section, cur = ".".join(parts[:i + 1]), cur[part]
        if section in SECTIONS:
            cur = check_object(section, cur, SECTIONS[section])
    return cur


def _load_config(path: Path) -> dict:
    cfg = check_object("config", read_json(path), SECTIONS["config"])
    env_seed = os.environ.get("TOILCAST_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"TOILCAST_SEED must be an integer, got '{env_seed}'")
    cfg.setdefault("seed", 0)
    return cfg


def _path(cfg: dict, base: Path, key: str, default=...) -> Path:
    """The path at config `key`, relative to `base` unless it is absolute."""
    p = _require(cfg, key, default)
    if not isinstance(p, str):
        raise ValueError(f"{key} must be a path string, got {p!r}")
    return base / p


def _synth_spec(cfg: dict) -> SynthSpec | None:
    """The synth source's spec, None for measurement files; the config names exactly one."""
    data = _require(cfg, "data")
    has_files = "measurements" in data or "ambient" in data
    if ("synth" in data) == has_files:
        raise ValueError("config data section must have exactly one source: "
                         "either 'synth' or 'measurements'+'ambient'")
    if has_files:
        return None
    try:
        return SynthSpec.from_config(data["synth"], seed=cfg["seed"])
    except ValueError as exc:
        raise ValueError(f"invalid data.synth spec: {exc}") from exc


def _splits(cfg: dict, base: Path):
    """The (train, validation) datasets of the config's data source and split."""
    spec, data = _synth_spec(cfg), cfg["data"]
    ds = gen_dataset(spec)[0] if spec else load_dataset(
        _path(cfg, base, "data.measurements"), _path(cfg, base, "data.ambient"),
        rated_current_a=data.get("rated_current_a"), default_offset=data.get("timezone"))
    s = _require(cfg, "split")
    try:
        return split(ds, SplitSpec.from_isoformat(
            _require(cfg, "split.train"), _require(cfg, "split.valid"), data.get("timezone")))
    except ValueError as exc:
        raise ValueError(f"invalid split {s}: {exc}") from exc


def _scaler(cfg: dict) -> AffineScaler:
    """The config's scaling, each channel's fields over that channel's default."""
    def entry(name, default):
        given = _require(cfg, f"scaling.{name}", {})
        return {**default, **given} if isinstance(given, dict) else given
    return AffineScaler.from_config({n: entry(n, d) for n, d in DEFAULT_SCALING.items()})


def _train_config(cfg: dict, family: str, loss: str) -> TrainConfig:
    raw = dict(DEFAULT_TRAIN[family])
    if loss == "quantile" and family in DEFAULT_TRAIN_QUANTILE_LR:
        raw["learning_rate"] = DEFAULT_TRAIN_QUANTILE_LR[family]
    raw.update(check_object(f"train.{family}", _require(cfg, f"train.{family}", {}), TRAIN_KEYS))
    try:
        return TrainConfig(**raw, seed=cfg["seed"], loss=loss, quantiles=_quantiles(cfg))
    except ValueError as exc:
        raise ValueError(f"invalid train.{family} settings: {exc}") from exc


def _quantiles(cfg: dict) -> tuple[float, ...]:
    return validate_quantiles(cfg.get("quantiles", TrainConfig.quantiles))


def _model_config(cfg: dict, family: str, loss: str):
    raw = _require(cfg, f"models.{family}", {})
    given = {"quantiles": _quantiles(cfg)} if loss == "quantile" else {}
    if check_flag("config", "multi_target", cfg.get("multi_target", False)):
        given["n_targets"] = len(TARGET_CHANNELS_MULTI)
    try:
        model_cfg = replace(config_from_dict(family, raw), **given)
        if family != "tide" and "n_channels" not in raw:   # the targets and the covariates
            model_cfg = replace(model_cfg, n_channels=model_cfg.n_targets + len(COVARIATES))
        return model_cfg
    except ValueError as exc:
        raise ValueError(f"invalid models.{family} config: {exc}") from exc


def _out_dir(cfg: dict, base: Path, flag: str | None) -> Path:
    out = Path(flag) if flag else _path(cfg, base, "out_dir", "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


# -------- commands --------

def cmd_synth(cfg: dict, base: Path, out_dir: Path) -> int:
    # with measurement files, _require raises the missing-key error
    spec = _synth_spec(cfg) or _require(cfg, "data.synth")
    ds, clean, hourly = gen_dataset(spec)
    paths = write_dataset_csvs(out_dir, ds, hourly, clean)
    print(f"wrote {ds.n} samples over {spec.days} days "
          f"(seed {spec.seed}, noise {spec.measurement_noise_k} K)")
    for name, p in paths.items():
        print(f"  {name}: {p}")
    return 0


def _describe(name: str, ds) -> None:
    span_h = (ds.timestamps[-1] - ds.timestamps[0]) / 3600.0
    print(f"{name}: {ds.n} points over {span_h / 24.0:.2f} days "
          f"[{format_instant(ds.timestamps[0])} .. {format_instant(ds.timestamps[-1])}]")


def cmd_train(cfg: dict, base: Path, out_dir: Path, family: str, loss: str) -> int:
    train_ds, _ = _splits(cfg, base)
    _describe("train split", train_ds)
    model_cfg = _model_config(cfg, family, loss)
    train_cfg = _train_config(cfg, family, loss)
    start = time.perf_counter()
    trained, report = fit_dataset(family, model_cfg, train_ds, _scaler(cfg), train_cfg)
    seconds = time.perf_counter() - start
    ckpt = out_dir / f"{family}_{loss}.checkpoint.json"
    save_checkpoint(ckpt, trained)
    report_path = out_dir / f"{family}_{loss}.train_report.json"
    write_json(report_path, report.to_dict())
    print(f"trained {family} ({loss}) for {report.epochs_run} epochs in "
          f"{seconds:.1f} s, final loss {report.epoch_losses[-1]:.6g}")
    print(f"  checkpoint: {ckpt}")
    print(f"  report: {report_path}")
    return 0


def cmd_grid(cfg: dict, base: Path, out_dir: Path, family: str, loss: str) -> int:
    train_ds, valid_ds = _splits(cfg, base)
    raw = _require(cfg, f"grid.{family}", DEFAULT_GRID[family])
    if not raw:
        raise ValueError(f"empty grid for '{family}'")
    try:
        grid = GridSpec(family, raw, _require(cfg, "grid.lookbacks", GridSpec.lookbacks))
    except ValueError as exc:
        raise ValueError(f"invalid grid settings: {exc}") from exc
    base_cfg = _model_config(cfg, family, loss)
    train_cfg = _train_config(cfg, family, loss)

    results_path = out_dir / f"grid_{family}_{loss}.csv"
    with open(results_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", "family", "params_json", "lookback",
                         "val_mae", "val_mse", "status", "error"])

        def on_trial(r):  # append-on-complete so interrupts keep finished rows
            writer.writerow([r.trial_id, r.family, r.params_json(), r.lookback,
                             "" if r.val_mae is None else repr(r.val_mae),
                             "" if r.val_mse is None else repr(r.val_mse), r.status,
                             r.error or ""])
            fh.flush()

        ranked = grid_search(grid, base_cfg, train_ds, valid_ds, _scaler(cfg),
                             train_cfg, on_trial=on_trial)

    print(f"{grid.n_trials} trials -> {results_path}")
    print("rank  trial  lookback  val_mae    params")
    for rank, r in enumerate(ranked):
        score = f"{r.val_mae:.4f}" if r.val_mae is not None else f"({r.status})"
        print(f"{rank:>4}  {r.trial_id:>5}  {r.lookback:>8}  {score:<9}  {r.params_json()}")
    best = select_best(ranked)
    print(f"best: trial {best.trial_id}, val MAE {best.val_mae:.4f}")
    return 0


def cmd_eval(cfg: dict, base: Path, out_dir: Path, checkpoints: list[str],
             use_iec: bool) -> int:
    if not checkpoints and not use_iec:
        raise ValueError("eval needs at least one checkpoint or --iec")
    _, valid_ds = _splits(cfg, base)
    _describe("validation split", valid_ds)

    traces = []
    for ck in checkpoints:
        model = load_checkpoint(ck)
        trace = autoregressive_predict(model, valid_ds)
        trace.model_id = Path(ck).stem.replace(".checkpoint", "")
        traces.append(trace)
    if use_iec:
        params = IecParams.from_json(_path(cfg, base, "iec_params"))
        traces.append(iec_predict(params, valid_ds))

    report = evaluate(traces, valid_ds)
    report_path = out_dir / "evaluation_report.json"
    write_json(report_path, report.to_dict())

    # report keys are the model ids made unique, one per trace in order
    keyed = list(zip(report.models, traces))
    for key, trace in keyed:
        _write_predictions_csv(out_dir / f"predictions_{key}.csv", trace, valid_ds)

    band = None
    for trace in traces:   # the first quantile trace's scored interval
        if trace.interval is not None:
            (lo, hi), lower, upper = trace.interval
            band = {"lower": lower, "upper": upper, "label": f"PI [{lo:g}, {hi:g}]"}
            break
    series = [{"label": "measured", "values": valid_ds.top_oil.values,
               "color": "#333333"}]
    series += [{"label": key, "values": t.values[:, 0]} for key, t in keyed]
    plot_path = out_dir / "eval_plot.svg"
    line_plot_svg(plot_path, valid_ds.timestamps, series, band,
                  title="top-oil temperature: measurements vs. estimates")

    print(f"report: {report_path}")
    print(f"plot: {plot_path}")
    for model_id, entry in report.models.items():
        for target, m in entry["targets"].items():
            line = f"{model_id} {target}: MAE {m['mae']:.3f} MSE {m['mse']:.3f}"
            if "picp" in entry and target == "top_oil":
                line += f" | PICP {entry['picp']:.3f} width {entry['mean_interval_width']:.3f}"
            print(line)
    return 0


def _write_predictions_csv(path: Path, trace, valid_ds) -> None:
    offset = valid_ds.n - len(trace)
    header, columns = ["timestamp"], []
    for j, name in enumerate(trace.target_channels):   # the first target unsuffixed
        suffix = f"_{name}" if j else ""
        header += [f"measured{suffix}", f"predicted{suffix}"]
        columns += [valid_ds.channel(name).values[offset:], trace.values[:, j]]
    if trace.quantiles is not None:
        # a level's decimal digits, at least two: 0.01 -> q01, 0.5 -> q50, 0.025 -> q025
        header += ["q" + format(Decimal(repr(a)), "f")[2:].ljust(2, "0") for a in trace.alphas]
        columns += list(trace.quantiles[:, 0, :].T)
    write_csv(path, header, ([format_instant(ts), *(repr(float(v)) for v in values)]
                             for ts, *values in zip(trace.timestamps, *columns)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="toilcast",
                                     description="transformer top-oil forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    add_common(sub.add_parser("synth", help="generate a synthetic dataset"))

    for command, help_text in (("train", "train one model"),
                               ("grid", "hyperparameter grid search")):
        p = sub.add_parser(command, help=help_text)
        add_common(p)
        p.add_argument("--model", required=True, choices=tuple(FAMILIES))
        p.add_argument("--loss", default="point", choices=("point", "quantile"))

    p_eval = sub.add_parser("eval", help="autoregressive evaluation")
    add_common(p_eval)
    p_eval.add_argument("checkpoints", nargs="*", help="checkpoint JSON files")
    p_eval.add_argument("--iec", action="store_true", help="also run the IEC solver")

    args = parser.parse_args(argv)
    try:
        config_path = Path(args.config)
        cfg = _load_config(config_path)
        base = config_path.resolve().parent
        out_dir = _out_dir(cfg, base, args.out)
        if args.command == "synth":
            return cmd_synth(cfg, base, out_dir)
        if args.command == "train":
            return cmd_train(cfg, base, out_dir, args.model, args.loss)
        if args.command == "grid":
            return cmd_grid(cfg, base, out_dir, args.model, args.loss)
        return cmd_eval(cfg, base, out_dir, args.checkpoints, args.iec)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
