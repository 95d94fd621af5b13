"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two end-to-end
benchmarks train a real model on a 60-day synthetic dataset and take a
couple of minutes; everything else is fast.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from toilcast import nn
from toilcast.autodiff import Tensor, absolute, causal_conv1d, mean
from toilcast.iec import IecParams, simulate, steady_state
from toilcast.metrics import mae, mean_interval_width, picp, pinball
from toilcast.models import (Mlp, MlpConfig, Tcn, TcnConfig, Tide, TideConfig,
                             save_checkpoint)
from toilcast.rolling import ForecastTrace, autoregressive_predict, evaluate, iec_predict
from toilcast.series import AffineScaler, SplitSpec, TimeSeries, parse_instant, split
from toilcast.synth import SynthSpec, gen_dataset
from toilcast.training import TrainConfig, fit_dataset
from util import make_dataset, max_rel_err, mql

SEED = 7
GRAD_TOL = 1e-4


def report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---- criterion 1: ODE fidelity ----

def test_c1_ode_fidelity():
    t_start = time.perf_counter()
    p = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
                  tau_w_min=10.0)
    t_ss = steady_state(1.0, 20.0, p)
    t0 = t_ss + 4.0

    def max_err(spacing_min):   # one sub-step per interval: the grid spacing is the step
        horizon_min = 10.0 * p.k11 * p.tau_o_min
        n = int(round(horizon_min / spacing_min)) + 1
        dt_s = int(round(spacing_min * 60))
        ts = np.arange(n, dtype=np.int64) * dt_s
        K = TimeSeries(ts, np.full(n, 1.0))
        Ta = TimeSeries(ts, np.full(n, 20.0))
        traj = simulate(K, Ta, t0, p)
        exact = t_ss + (t0 - t_ss) * np.exp(-(ts / 60.0) / (p.k11 * p.tau_o_min))
        return float(np.abs(traj.values - exact).max())

    e1 = max_err(p.tau_o_min / 100.0)
    e2 = max_err(p.tau_o_min / 200.0)
    elapsed = time.perf_counter() - t_start
    ok = e1 <= 0.01 and 1.7 <= e1 / e2 <= 2.3 and elapsed < 5.0
    report("criterion 1: ODE fidelity", ok,
           f"max err {e1:.5f} K (<= 0.01), halving ratio {e1 / e2:.3f} "
           f"(in [1.7, 2.3]), {elapsed:.2f}s (< 5s)")


# ---- criterion 2: gradient suite ----

def _grad_config(i: int) -> tuple[str, float]:
    """One of 100 random configurations cycling through every layer primitive
    and all three architectures."""
    kinds = ("dense_relu", "dense_tanh", "dense_sigmoid", "conv", "residual",
             "mlp", "tcn", "tide")
    kind = kinds[i % len(kinds)]
    rng = np.random.default_rng(10_000 + i)
    params = {}
    if kind.startswith("dense"):
        act = kind.split("_")[1]
        n_in, n_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        nn.init_linear(params, rng, "l", n_in, n_out)
        x = rng.normal(size=(3, n_in)) + 0.1
        f = lambda: mean(nn.dense(Tensor(x), params, "l", act) ** 2)
    elif kind == "conv":
        k, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nn.init_conv(params, rng, "c", k, c_in, c_out)
        x = rng.normal(size=(2, int(rng.integers(4, 9)), c_in))
        f = lambda: mean(causal_conv1d(Tensor(x), params["c.w"], params["c.b"], d) ** 2)
    elif kind == "residual":
        n = int(rng.integers(2, 5))
        nn.init_residual_block(params, rng, "r", n, n + 1, n)
        x = rng.normal(size=(3, n))
        f = lambda: mean(nn.residual_block(Tensor(x), params, "r", "tanh") ** 2)
    elif kind == "mlp":
        cfg = MlpConfig(n_layers=int(rng.integers(1, 3)), n_neurons=int(rng.integers(2, 5)),
                        lookback=int(rng.integers(2, 5)), n_channels=2)
        model = Mlp(cfg)
        params = model.init_params(int(rng.integers(0, 1000)))
        x = rng.normal(size=(2, cfg.lookback * 2))
        y = rng.normal(size=(2, 1))
        f = lambda: mean(absolute(model.forward(params, x) - Tensor(y)))
    elif kind == "tcn":
        cfg = TcnConfig(kernel=2, n_filters=int(rng.integers(2, 4)),
                        lookback=int(rng.integers(3, 7)), n_channels=2)
        model = Tcn(cfg)
        params = model.init_params(int(rng.integers(0, 1000)))
        x = rng.normal(size=(2, cfg.lookback * 2))
        y = rng.normal(size=(2, 1))
        f = lambda: mean(absolute(model.forward(params, x) - Tensor(y)))
    else:
        cfg = TideConfig(temporal_width=2, decoder_output_dim=int(rng.integers(2, 4)),
                         temporal_decoder_hidden=3, hidden_size=4,
                         lookback=int(rng.integers(3, 6)), horizon=int(rng.integers(1, 3)),
                         n_targets=1, n_covariates=2)
        model = Tide(cfg)
        params = model.init_params(int(rng.integers(0, 1000)))
        x = rng.normal(size=(2, cfg.lookback * 3))
        fut = rng.normal(size=(2, cfg.horizon * 2))
        y = rng.normal(size=(2, cfg.horizon))
        f = lambda: mean(absolute(model.forward(params, x, fut) - Tensor(y)))
    return kind, max_rel_err(f, params, abs_floor=1e-8)


def test_c2_gradient_suite():
    t_start = time.perf_counter()
    worst = {"kind": None, "err": 0.0}
    for i in range(100):
        kind, err = _grad_config(i)
        if err > worst["err"]:
            worst = {"kind": kind, "err": err}
    elapsed = time.perf_counter() - t_start
    ok = worst["err"] <= GRAD_TOL and elapsed < 120.0
    where = f"worst rel err {worst['err']:.2e} ({worst['kind']})" if worst["kind"] \
        else "every gap under the 1e-8 absolute floor"
    report("criterion 2: gradient suite", ok,
           f"100 configs over primitives + MLP/TCN/TiDE, {where} (tol 1e-4), "
           f"{elapsed:.1f}s (< 120s)")


# ---- criterion 3: quantile identities ----

def test_c3_quantile_identities():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y = rng.normal(0, 20, size=n)
        y_hat = y + rng.normal(0, 5, size=n)
        worst = max(worst, abs(mql(y, y_hat, 0.5) - 0.5 * mae(y, y_hat)))
    identity_ok = worst <= 1e-12

    asym_ok = True
    for _ in range(500):
        y = float(rng.integers(-3200, 3200)) / 64.0
        d = float(rng.integers(1, 1920)) / 64.0
        a = rng.uniform(0.01, 0.99)
        asym_ok &= pinball(y, y - d, a) == a * d
        asym_ok &= pinball(y, y + d, a) == (1.0 - a) * d

    minimizer_ok = True
    for _ in range(50):
        n = int(rng.integers(5, 12))
        y = rng.normal(0, 10, size=n)
        alpha = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
        if n * alpha == int(n * alpha):
            alpha += 0.03
        candidates = np.sort(np.concatenate(
            [y, 0.5 * (np.sort(y)[1:] + np.sort(y)[:-1]), [y.min() - 1, y.max() + 1]]))
        scores = [mql(y, np.full(n, c), alpha) for c in candidates]
        best = candidates[int(np.argmin(scores))]
        minimizer_ok &= best == np.sort(y)[int(np.ceil(n * alpha)) - 1]

    ok = identity_ok and asym_ok and minimizer_ok
    report("criterion 3: quantile identities", ok,
           f"MQL(0.5)=MAE/2 worst gap {worst:.2e} (<= 1e-12) on 1000 vectors, "
           f"asymmetry law exact: {asym_ok}, grid-search minimizer on 50 samples: "
           f"{minimizer_ok}")


# ---- criterion 4: TCN causality ----

def test_c4_tcn_causality():
    t_start = time.perf_counter()
    violations = 0
    for i in range(20):
        rng = np.random.default_rng(400 + i)
        cfg = TcnConfig(kernel=int(rng.choice([2, 4])),
                        n_filters=int(rng.integers(2, 6)),
                        lookback=int(rng.integers(6, 20)), n_channels=2)
        model = Tcn(cfg)
        params = model.init_params(i)
        x = rng.normal(size=(1, cfg.lookback * 2))
        base = nn.linear(model._features(params, x), params, "head").data
        for t in sorted(rng.choice(cfg.lookback, size=3, replace=False)):
            bumped = x.reshape(1, cfg.lookback, 2).copy()
            bumped[0, t, :] += rng.normal(1.0, 0.5, size=2)
            out = nn.linear(model._features(params, bumped.reshape(1, -1)), params,
                            "head").data
            if not np.array_equal(out[0, :t], base[0, :t]):
                violations += 1
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and elapsed < 30.0
    report("criterion 4: TCN causality", ok,
           f"20 random configs, 3 perturbations each, {violations} bitwise "
           f"violations before the perturbed step, {elapsed:.1f}s (< 30s)")


# ---- criterion 5: TiDE residual isolation ----

def test_c5_tide_residual_isolation():
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(500 + i)
        cfg = TideConfig(temporal_width=int(rng.integers(2, 5)),
                         decoder_output_dim=int(rng.integers(2, 9)),
                         temporal_decoder_hidden=int(rng.integers(2, 9)),
                         hidden_size=int(rng.integers(4, 9)),
                         lookback=int(rng.integers(4, 16)),
                         horizon=int(rng.integers(1, 3)), n_targets=1, n_covariates=2)
        model = Tide(cfg)
        params = model.init_params(i)
        for name, t in params.items():
            if not name.startswith("global"):
                t.data = np.zeros_like(t.data)
        B = 3
        x = rng.normal(size=(B, cfg.lookback * 3))
        fut = rng.normal(size=(B, cfg.horizon * 2))
        lookback_targets = x.reshape(B, cfg.lookback, 3)[:, :, 0]
        expect = lookback_targets @ params["global.w"].data + params["global.b"].data
        got = model.forward(params, x, fut).data
        worst = max(worst, float(np.abs(got - expect).max()))
    ok = worst <= 1e-12
    report("criterion 5: TiDE residual isolation", ok,
           f"zeroed nonlinear path reduces to the global linear map, worst "
           f"deviation {worst:.2e} (<= 1e-12) over 10 configs")


# ---- criteria 6/7/9: end-to-end synthetic benchmark ----

SPEC = SynthSpec(days=60, seed=SEED, measurement_noise_k=0.5)
SCALER = AffineScaler({"top_oil": (0.01, 0.0), "ambient": (0.01, 0.0),
                       "load_factor": (1.0, 0.0), "temp_rise": (0.01, 0.0)})


def benchmark_split():
    ds, _, _ = gen_dataset(SPEC)
    start = parse_instant(SPEC.origin)
    day = 86400
    spec = SplitSpec(start, start + 42 * day - 300, start + 42 * day,
                     start + 60 * day)
    return split(ds, spec)


def run_point_benchmark(tmp_path, tag: str):
    """Criterion 6 pipeline; returns (mae value, iec mae, checkpoint bytes,
    train/eval report JSON, elapsed seconds)."""
    t_start = time.perf_counter()
    train_ds, valid_ds = benchmark_split()
    cfg = MlpConfig(n_layers=4, n_neurons=64, lookback=48, n_channels=3)
    tcfg = TrainConfig(batch_size=256, max_epochs=200, learning_rate=1e-4, seed=SEED)
    trained, train_report = fit_dataset("ann", cfg, train_ds, SCALER, tcfg)

    trace = autoregressive_predict(trained, valid_ds)
    perturbed = replace(SPEC.iec, delta_t_or_k=SPEC.iec.delta_t_or_k * 1.3,
                        tau_o_min=SPEC.iec.tau_o_min * 1.3)
    iec_trace = iec_predict(perturbed, valid_ds)
    eval_report = evaluate([trace, iec_trace], valid_ds)

    ckpt = tmp_path / f"bench_{tag}.checkpoint.json"
    save_checkpoint(ckpt, trained)
    blob = json.dumps({"train": train_report.to_dict(), "eval": eval_report.to_dict()},
                      sort_keys=True)
    model_mae = eval_report.models["ann"]["targets"]["top_oil"]["mae"]
    iec_mae = eval_report.models["iec"]["targets"]["top_oil"]["mae"]
    return model_mae, iec_mae, ckpt.read_bytes(), blob, time.perf_counter() - t_start


@pytest.fixture(scope="module")
def point_benchmark(tmp_path_factory):
    return run_point_benchmark(tmp_path_factory.mktemp("bench"), "first")


def test_c6_point_benchmark(point_benchmark):
    model_mae, iec_mae, _, _, elapsed = point_benchmark
    ok = model_mae <= 1.5 and model_mae < iec_mae and elapsed < 600.0
    report("criterion 6: end-to-end point benchmark", ok,
           f"MLP autoregressive val MAE {model_mae:.3f} K (<= 1.5) vs mis-specified "
           f"IEC {iec_mae:.3f} K, {elapsed:.0f}s (< 600s)")


def test_c7_quantile_benchmark():
    t_start = time.perf_counter()
    train_ds, valid_ds = benchmark_split()
    alphas = (0.01, 0.5, 0.99)
    cfg = MlpConfig(n_layers=4, n_neurons=64, lookback=48, n_channels=3,
                    quantiles=alphas)
    tcfg = TrainConfig(batch_size=256, max_epochs=200, learning_rate=1e-4,
                       seed=SEED, loss="quantile", quantiles=alphas)
    trained, _ = fit_dataset("ann", cfg, train_ds, SCALER, tcfg)
    trace = autoregressive_predict(trained, valid_ds)
    truth = valid_ds.top_oil.values[cfg.lookback:]
    coverage = picp(truth, trace.quantiles[:, 0, 0], trace.quantiles[:, 0, -1])
    width = mean_interval_width(trace.quantiles[:, 0, 0], trace.quantiles[:, 0, -1])
    elapsed = time.perf_counter() - t_start
    ok = coverage >= 0.80 and coverage >= 0.60 and width <= 10.0 and elapsed < 600.0
    report("criterion 7: end-to-end quantile benchmark", ok,
           f"PI98 PICP {coverage:.3f} (target >= 0.80, hard floor 0.60), mean width "
           f"{width:.2f} K (<= 10), {elapsed:.0f}s (< 600s)")


# ---- criterion 8: evaluator oracle equivalence ----

def test_c8_evaluator_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst = 0.0
    for i in range(100):
        n_valid = int(rng.integers(30, 200))
        offset = int(rng.integers(0, 10))
        valid = make_dataset(n_valid, seed=8800 + i)
        y = valid.top_oil.values[offset:]
        n = len(y)
        pred = y + rng.normal(0, 2, size=n)
        lower = pred - np.abs(rng.normal(1, 0.3, size=n))
        upper = pred + np.abs(rng.normal(1, 0.3, size=n))
        quants = np.stack([lower, pred, upper], axis=-1).reshape(n, 1, 3)
        trace = ForecastTrace("m", valid.timestamps[offset:], ("top_oil",),
                              pred.reshape(-1, 1), quants, (0.01, 0.5, 0.99))
        entry = evaluate([trace], valid).models["m"]

        bf_mae = math.fsum(abs(a - b) for a, b in zip(y, pred)) / n
        bf_mse = math.fsum((a - b) ** 2 for a, b in zip(y, pred)) / n
        bf_picp = sum(1 for a, lo, hi in zip(y, lower, upper) if lo <= a <= hi) / n
        bf_width = math.fsum(hi - lo for lo, hi in zip(lower, upper)) / n
        worst = max(worst,
                    abs(entry["targets"]["top_oil"]["mae"] - bf_mae),
                    abs(entry["targets"]["top_oil"]["mse"] - bf_mse),
                    abs(entry["picp"] - bf_picp),
                    abs(entry["mean_interval_width"] - bf_width))
    ok = worst <= 1e-12
    report("criterion 8: evaluator oracle equivalence", ok,
           f"report pipeline vs brute-force recomputation on 100 random traces, "
           f"worst gap {worst:.2e} (<= 1e-12)")


# ---- criterion 9: determinism ----

def test_c9_determinism(point_benchmark, tmp_path):
    _, _, ckpt_a, blob_a, _ = point_benchmark
    _, _, ckpt_b, blob_b, _ = run_point_benchmark(tmp_path, "repeat")
    ok = ckpt_a == ckpt_b and blob_a == blob_b
    report("criterion 9: determinism", ok,
           f"repeated criterion-6 run: checkpoint bytes identical: "
           f"{ckpt_a == ckpt_b}, reports identical: "
           f"{blob_a == blob_b}")
