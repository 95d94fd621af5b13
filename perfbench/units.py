"""The benchmark's units of work and the checks on their outputs.

A unit drives one path of the library through its public API:

- `train`: fixed-epoch training of the ann, tcn and tide families;
- `rollout`: `autoregressive_predict` of the four fixture checkpoints, then
  `iec_predict` and `evaluate`;
- `grid`: the 27-trial ANN `grid_search`.

A unit is a sequence of pieces (one per family, one per fixture plus the
IEC/evaluate tail, or the whole grid search). `run_unit` runs them for one
copy of the library; `run_paired` runs each piece for the program and for
the frozen copy back to back. Each run of a piece records its wall time and
its outputs in a `UnitResult` under a flat dict of output arrays ("canonical
outputs"). The same comparison checks those outputs against the stored
default-seed reference and against the run's first round, and `invariants`
checks what must hold for any seed.
"""

from __future__ import annotations

import gc
import json
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import workload as wl

KINDS = ("train", "rollout", "grid")


@dataclass
class Inputs:
    """Everything a unit needs for one copy of the library, built in set-up."""

    lib: object
    scaler: object
    data: tuple = ()                                    # (train_ds, valid_ds)
    windows: dict = field(default_factory=dict)        # family -> WindowSet
    fixtures: dict = field(default_factory=dict)       # name -> TrainedModel
    setup_failures: list = field(default_factory=list)


def _head(ds, n_points: int):
    return ds.slice_range(int(ds.timestamps[0]), int(ds.timestamps[n_points - 1]))


def _days(ds, days: int):
    return _head(ds, days * 288)


def _windows(lib, family: str, ds, scaler, lookback: int):
    """The scaled windows `fit_dataset` would build for this family."""
    targets = lib.training.TARGET_CHANNELS_SINGLE
    future = lib.training.COVARIATES if family == "tide" else ()
    ws = lib.series.make_windows(ds, lookback, 1, targets + lib.training.COVARIATES, targets,
                                 future)
    return lib.series.scale_windows(ws, scaler)


def verify_fixture(name: str, model, expected: dict, lib=wl.PROGRAM) -> list[str]:
    """Recompute the fixture's config fingerprint and parameter checksum."""
    errors = []
    fingerprint = lib.models.config_fingerprint(model)
    if fingerprint != expected["config_hash"]:
        errors.append(f"fixture {name}: config fingerprint {fingerprint[:12]} != "
                      f"manifest {expected['config_hash'][:12]}")
    if model.config_hash != expected["config_hash"]:
        errors.append(f"fixture {name}: stored config_hash differs from the manifest")
    checksum = lib.nn.param_checksum(model.params)
    if checksum != expected["param_checksum"]:
        errors.append(f"fixture {name}: parameter checksum {checksum[:12]} != "
                      f"manifest {expected['param_checksum'][:12]}")
    return errors


def setup(spec: dict, seed: int, kind: str, lib=wl.PROGRAM) -> Inputs:
    """Generate the seed's dataset and prepare what unit `kind` reads."""
    train_ds, valid_ds = wl.dataset(spec, seed, lib)
    inp = Inputs(lib, wl.scaler(spec, lib))
    cfg = spec["bench"][kind]
    tr = _days(train_ds, cfg["train_days"]) if "train_days" in cfg else train_ds
    va = _head(valid_ds, cfg["valid_points"]) if "valid_points" in cfg else valid_ds
    inp.data = (tr, va)
    if kind == "train":
        for family in wl.FAMILIES:
            lookback = spec["models"][family]["lookback"]
            inp.windows[family] = _windows(lib, family, tr, inp.scaler, lookback)
    if kind == "rollout":
        manifest = json.loads(wl.FIXTURE_MANIFEST.read_text())
        for name in wl.FIXTURES:
            model = lib.models.load_checkpoint(wl.FIXTURE_DIR / f"{name}.checkpoint.json")
            inp.setup_failures += verify_fixture(name, model, manifest[name], lib)
            inp.fixtures[name] = model
    return inp


@dataclass
class UnitResult:
    outputs: dict = field(default_factory=dict)   # canonical output arrays
    ops: dict = field(default_factory=dict)       # operation label -> output keys it produced
    errors: dict = field(default_factory=dict)    # operation label -> message
    piece_s: dict = field(default_factory=dict)   # piece name -> wall seconds
    extra: dict = field(default_factory=dict)


def _guarded(result: UnitResult, op: str, fn):
    """Run one operation; an exception marks it failed instead of ending the run."""
    try:
        return fn()
    except Exception as exc:  # the benchmark reports failed operations and keeps going
        result.errors[op] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
        return None


def train_piece(spec: dict, inp: Inputs, seed: int, family: str, res: UnitResult) -> None:
    """Train a fresh `family` model for the configured epochs."""
    lib, ws = inp.lib, inp.windows[family]
    epochs = spec["bench"]["train"]["epochs"]
    cfg = wl.model_config(spec, family, lib=lib)
    tcfg = wl.train_config(spec, family, seed, max_epochs=epochs, lib=lib)
    op = f"train.{family}"
    res.ops[op] = [f"{op}.losses"]

    def fit():
        model = lib.models.build_model(family, cfg)
        return lib.training.train(model, model.init_params(tcfg.seed), ws, tcfg)

    report = _guarded(res, op, fit)
    if report is not None:
        res.outputs[f"{op}.losses"] = np.asarray(report.epoch_losses)
    res.extra["epochs"] = epochs
    res.extra.setdefault("work", {})[op] = ws.n_windows * epochs


def rollout_piece(spec: dict, inp: Inputs, seed: int, name: str, res: UnitResult) -> None:
    """Roll fixture `name` over the validation slice."""
    model, (_, valid) = inp.fixtures[name], inp.data
    op = f"rollout.{name}"
    res.ops[op] = [f"{op}.values"] + ([f"{op}.quantiles"] if model.quantiles else [])
    trace = _guarded(res, op, lambda: inp.lib.rolling.autoregressive_predict(model, valid))
    if trace is None:
        return
    trace.model_id = name
    res.extra.setdefault("traces", {})[name] = trace
    res.extra.setdefault("work", {})[op] = len(trace)
    res.outputs[f"{op}.values"] = trace.values
    if trace.quantiles is not None:
        res.outputs[f"{op}.quantiles"] = trace.quantiles


def evaluate_piece(spec: dict, inp: Inputs, seed: int, _, res: UnitResult) -> None:
    """`iec_predict`, then `evaluate` over every trace of the round."""
    lib, (_, valid) = inp.lib, inp.data
    traces = dict(res.extra.get("traces", {}))
    res.ops["rollout.iec"] = ["rollout.iec.values"]
    iec = _guarded(res, "rollout.iec",
                   lambda: lib.rolling.iec_predict(wl.iec_params(spec, lib), valid))
    if iec is not None:
        traces["iec"] = iec
        res.outputs["rollout.iec.values"] = iec.values
    report = _guarded(res, "rollout.evaluate",
                      lambda: lib.rolling.evaluate(list(traces.values()), valid))
    res.ops["rollout.evaluate"] = []
    if report is not None:
        for key, entry in report.models.items():
            res.outputs[f"rollout.evaluate.{key}.mae"] = np.array(
                entry["targets"]["top_oil"]["mae"])
            res.ops["rollout.evaluate"].append(f"rollout.evaluate.{key}.mae")
            if "picp" in entry:
                res.outputs[f"rollout.evaluate.{key}.picp"] = np.array(entry["picp"])
                res.ops["rollout.evaluate"].append(f"rollout.evaluate.{key}.picp")
    lookbacks = {name: m.config.lookback for name, m in inp.fixtures.items()}
    res.extra.update(traces=traces, valid=valid, lookbacks=dict(lookbacks, iec=0))


def grid_piece(spec: dict, inp: Inputs, seed: int, _, res: UnitResult) -> None:
    """One `grid_search` over the example grid; trial times come from `on_trial`."""
    lib, (train_ds, valid) = inp.lib, inp.data
    grid = lib.training.GridSpec("ann", {k: tuple(v) for k, v in spec["grid"].items()},
                                 tuple(spec["lookbacks"]))
    tcfg = wl.train_config(spec, "ann", seed, max_epochs=spec["bench"]["grid"]["epochs"],
                           lib=lib)
    stamps = []

    def search():
        stamps.append(perf_counter())
        return lib.training.grid_search(grid, wl.model_config(spec, "ann", lib=lib), train_ds,
                                        valid, inp.scaler, tcfg,
                                        on_trial=lambda r: stamps.append(perf_counter()))

    ranked = _guarded(res, "grid.search", search)
    for trial in range(grid.n_trials):
        res.ops[f"grid.trial{trial:02d}"] = [f"grid.trial{trial:02d}.val_mae"]
    res.ops["grid.ranking"] = ["grid.ranking"]
    res.extra.setdefault("work", {})["grid"] = grid.n_trials
    if ranked is None:
        return
    for r in ranked:
        res.outputs[f"grid.trial{r.trial_id:02d}.val_mae"] = np.array(
            r.val_mae if r.status == "ok" else np.nan)
    res.outputs["grid.ranking"] = np.array([r.trial_id for r in ranked])
    res.extra.update(ranked=ranked, n_trials=grid.n_trials, trial_s=np.diff(stamps),
                     valid=valid)


def pieces(kind: str) -> list[tuple[str, object, object]]:
    """(piece name, piece function, its argument) in the order a round runs them."""
    if kind == "train":
        return [(f"train.{f}", train_piece, f) for f in wl.FAMILIES]
    if kind == "rollout":
        return [(f"rollout.{n}", rollout_piece, n) for n in wl.FIXTURES] \
            + [("rollout.evaluate", evaluate_piece, None)]
    return [("grid", grid_piece, None)]


def _run_piece(spec, inp, seed, piece, res) -> None:
    name, fn, arg = piece
    # Start every piece from a collected heap, so that neither copy of a pair
    # pays for the garbage the other left behind.
    gc.collect()
    t0 = perf_counter()
    fn(spec, inp, seed, arg, res)
    res.piece_s[name] = perf_counter() - t0


def run_unit(kind: str, spec: dict, inp: Inputs, seed: int) -> UnitResult:
    """One round of the unit for one copy of the library."""
    res = UnitResult()
    for piece in pieces(kind):
        _run_piece(spec, inp, seed, piece, res)
    return res


def run_paired(kind: str, spec: dict, inps: list[Inputs], seed: int,
               flip: bool) -> list[UnitResult]:
    """One round for each of `inps`, piece by piece: each piece runs for every
    copy back to back, in reversed order when `flip` is set."""
    results = [UnitResult() for _ in inps]
    order = list(reversed(range(len(inps)))) if flip else list(range(len(inps)))
    for piece in pieces(kind):
        for i in order:
            _run_piece(spec, inps[i], seed, piece, results[i])
    return results


# -------- checks --------

# Stable rollouts (ann, tcn, the IEC solver) are pinned to 1e-12 K, as the
# roadmap requires of any faster path. TiDE's rollout diverges geometrically,
# which amplifies a last-bit rounding difference at the same rate as the trace
# itself, so it is compared relatively. Losses, MAE and grid scores allow a
# reordering of floating-point sums but not a different answer.
def tolerance(key: str) -> tuple[float, float]:
    """(rtol, atol) for comparing the output `key`."""
    if key == "grid.ranking":
        return 0.0, 0.0
    if key.startswith("rollout.tide."):
        return 1e-9, 0.0
    if key.startswith("rollout.") and key.endswith((".values", ".quantiles")):
        return 0.0, 1e-12
    if key.endswith(".picp"):
        return 0.0, 1e-12
    return 1e-9, 0.0


def compare(observed: dict, expected: dict, keys) -> list[str]:
    """Messages for each key whose observed array departs from the expected."""
    errors = []
    for key in keys:
        if key not in expected:
            errors.append(f"{key}: no reference value")
            continue
        if key not in observed:
            errors.append(f"{key}: missing output")
            continue
        a, b = np.asarray(observed[key]), np.asarray(expected[key])
        if a.shape != b.shape:
            errors.append(f"{key}: shape {a.shape} != reference {b.shape}")
            continue
        rtol, atol = tolerance(key)
        if a.dtype.kind in "iub":
            ok = np.array_equal(a, b)
        else:
            ok = np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=False)
        if not ok:
            diff = np.abs(a.astype(float) - b.astype(float))
            errors.append(f"{key}: max |diff| {np.nanmax(diff):.3g} beyond "
                          f"rtol {rtol:g} / atol {atol:g}")
    return errors


def invariants(kind: str, res: UnitResult) -> dict:
    """Operation label -> messages for what must hold on any seed."""
    out: dict[str, list[str]] = {op: [] for op in res.ops}
    o = res.outputs
    if kind == "train":
        for op in res.ops:
            losses = o.get(f"{op}.losses")
            if losses is None:
                continue
            if len(losses) != res.extra["epochs"] or not np.isfinite(losses).all() \
                    or (losses <= 0).any():
                out[op].append(f"{op}: losses not {res.extra['epochs']} finite positive "
                               f"values: {losses}")
    elif kind == "rollout":
        valid = res.extra["valid"]
        for name, trace in res.extra["traces"].items():
            op = f"rollout.{name}"
            offset = valid.n - len(trace)
            expect_offset = res.extra["lookbacks"][name]
            if offset != expect_offset or (trace.timestamps != valid.timestamps[offset:]).any():
                out[op].append(f"{op}: trace covers {len(trace)} of {valid.n} points, "
                               f"expected {valid.n - expect_offset}")
            if not np.isfinite(trace.values).all():
                out[op].append(f"{op}: non-finite values")
            if trace.quantiles is not None:
                q = trace.quantiles
                if (np.diff(q, axis=-1) < 0).any():
                    out[op].append(f"{op}: crossing quantiles")
                if not np.array_equal(q[:, :, trace.alphas.index(0.5)], trace.values):
                    out[op].append(f"{op}: point trace is not the median quantile")
            truth = valid.top_oil.values[offset:]
            mae = o.get(f"rollout.evaluate.{name}.mae")
            if mae is not None and not np.isclose(mae, np.mean(np.abs(truth - trace.values[:, 0])),
                                                  rtol=1e-12, atol=0):
                out["rollout.evaluate"].append(f"evaluate MAE of {name} differs from "
                                               "its recomputation")
            picp = o.get(f"rollout.evaluate.{name}.picp")
            if picp is not None:
                lo, hi = trace.quantiles[:, 0, 0], trace.quantiles[:, 0, -1]
                if picp != np.mean((truth >= lo) & (truth <= hi)):
                    out["rollout.evaluate"].append(f"evaluate PICP of {name} differs "
                                                   "from its recomputation")
    elif kind == "grid" and "ranked" in res.extra:
        ranked = res.extra["ranked"]
        for r in ranked:
            if r.status != "ok" or not np.isfinite(r.val_mae):
                out[f"grid.trial{r.trial_id:02d}"].append(
                    f"trial {r.trial_id} {r.status}: {r.error or r.val_mae}")
        maes = [r.val_mae for r in ranked if r.status == "ok"]
        if sorted(r.trial_id for r in ranked) != list(range(res.extra["n_trials"])) \
                or maes != sorted(maes):
            out["grid.ranking"].append("ranking is not the trials in ascending MAE")
    return out


def check(kind: str, res: UnitResult, reference: dict | None,
          first: UnitResult | None) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one unit execution."""
    failures = invariants(kind, res)
    for op, keys in res.ops.items():
        if op in res.errors:
            failures[op].insert(0, res.errors[op])
        if reference is not None:
            failures[op] += [f"vs reference: {m}" for m in compare(res.outputs, reference, keys)]
        if first is not None:
            failures[op] += [f"vs first round: {m}" for m in compare(res.outputs, first.outputs, keys)]
    for op, msg in res.errors.items():
        failures.setdefault(op, [msg])
    failed = [f"{op}: {'; '.join(msgs)}" for op, msgs in failures.items() if msgs]
    return len(failures), failed
