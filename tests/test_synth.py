from dataclasses import replace

import numpy as np
import pytest

from toilcast.iec import steady_state
from toilcast.series import load_dataset, resample_ambient_linear
from toilcast.synth import (AmbientProfile, LoadProfile, SynthSpec, _stream, gen_dataset,
                            gen_profiles, write_dataset_csvs)
from util import ar1_oracle, simulate_oracle


def quiet_spec(**kw):
    base = dict(days=2, seed=0,
                load=LoadProfile(mean_pu=0.7, diurnal_amplitude=0.0,
                                 weekly_amplitude=0.0, noise_sigma=0.0),
                ambient=AmbientProfile(mean_c=10.0, diurnal_amplitude=0.0,
                                       ar_coeff=0.0, noise_sigma=0.0),
                measurement_noise_k=0.0)
    base.update(kw)
    return SynthSpec(**base)


class TestProfiles:
    def test_degenerate_spec_constant_profiles(self):
        K, Ta, hourly = gen_profiles(quiet_spec())
        assert np.all(K.values == 0.7)
        assert np.all(Ta.values == 10.0)
        assert np.all(hourly.values == 10.0)

    def test_expected_length(self):
        K, _, hourly = gen_profiles(SynthSpec(days=60, seed=1))
        assert len(K) == 60 * 288 + 1
        assert len(hourly) == 60 * 24 + 1

    def test_same_seed_identical(self):
        a = gen_profiles(SynthSpec(days=3, seed=9))
        b = gen_profiles(SynthSpec(days=3, seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x.values, y.values)

    def test_different_seeds_differ(self):
        a, _, _ = gen_profiles(SynthSpec(days=3, seed=1))
        b, _, _ = gen_profiles(SynthSpec(days=3, seed=2))
        assert (a.values != b.values).any()

    def test_diurnal_extrema(self):
        spec = quiet_spec(load=LoadProfile(mean_pu=0.7, diurnal_amplitude=0.3,
                                           weekly_amplitude=0.0, noise_sigma=0.0))
        K, _, _ = gen_profiles(spec)
        daily = K.values[:288]
        assert daily.min() == pytest.approx(0.4, abs=1e-9)
        assert daily.max() == pytest.approx(1.0, abs=1e-9)

    def test_load_clamped_nonnegative(self):
        spec = SynthSpec(days=2, seed=3,
                         load=LoadProfile(mean_pu=0.1, diurnal_amplitude=0.5,
                                          noise_sigma=0.3))
        K, _, _ = gen_profiles(spec)
        assert K.values.min() >= 0.0


class TestDataset:
    def test_zero_noise_matches_clean_oracle(self):
        ds, clean, _ = gen_dataset(quiet_spec(days=3))
        assert np.array_equal(ds.top_oil.values, clean.values)

    def test_constant_profiles_sit_at_steady_state(self):
        spec = quiet_spec()
        ds, clean, _ = gen_dataset(spec)
        ss = steady_state(0.7, 10.0, spec.iec)
        assert np.abs(clean.values - ss).max() <= 1e-9

    def test_noise_mean_within_lln_bound(self):
        spec = SynthSpec(days=60, seed=5, measurement_noise_k=0.5)
        ds, clean, _ = gen_dataset(spec)
        n = ds.n
        assert n == 17_281
        resid = ds.top_oil.values - clean.values
        assert abs(resid.mean()) <= 3.0 * 0.5 / np.sqrt(n)

    def test_noise_level_does_not_touch_profiles(self):
        a, _, _ = gen_dataset(SynthSpec(days=2, seed=6, measurement_noise_k=0.0))
        b, _, _ = gen_dataset(SynthSpec(days=2, seed=6, measurement_noise_k=2.0))
        assert np.array_equal(a.load_factor.values, b.load_factor.values)
        assert np.array_equal(a.ambient.values, b.ambient.values)
        assert (a.top_oil.values != b.top_oil.values).any()

    def test_short_winding_time_constant_generates_data(self):
        # tau_w = 4 min bounds dt at 2 min, under the 5-minute step: this used
        # to fail, as no synth setting reached the solver's step
        spec = SynthSpec(days=2, seed=8, measurement_noise_k=0.0,
                         iec=replace(SynthSpec().iec, tau_w_min=4.0))
        ds, clean, _ = gen_dataset(spec)
        t0 = steady_state(float(ds.load_factor.values[0]), float(ds.ambient.values[0]), spec.iec)
        assert np.array_equal(clean.values,
                              simulate_oracle(ds.load_factor, ds.ambient, t0, spec.iec).values)

    def test_temp_rise_consistency(self):
        ds, _, _ = gen_dataset(SynthSpec(days=2, seed=7))
        assert np.abs(ds.temp_rise.values
                      - (ds.top_oil.values - ds.ambient.values)).max() <= 1e-9


def oracle_hourly(spec):
    """The hourly ambient with its AR(1) noise from `ar1_oracle`: the
    sinusoid is the noiseless profile of the same spec, the innovations the
    ambient stream's draws."""
    ap = spec.ambient
    _, _, base = gen_profiles(replace(spec, ambient=replace(ap, noise_sigma=0.0)))
    eps = _stream(spec, 1).normal(0.0, ap.noise_sigma, size=len(base))
    return base.values + ar1_oracle(eps, ap.ar_coeff)


class TestFlatLoopsMatchOracles:
    """The ambient AR(1) and the IEC solver run as flat loops over Python
    floats; their per-index oracles store numpy scalars. Both sides do the same
    IEEE double operations in the same order."""

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("ar_coeff", [0.0, 0.9])
    def test_dataset_clean_and_hourly(self, seed, ar_coeff):
        spec = SynthSpec(days=3, seed=seed, ambient=AmbientProfile(ar_coeff=ar_coeff))
        ds, clean, hourly = gen_dataset(spec)
        hourly_values = oracle_hourly(spec)
        assert np.array_equal(hourly.values, hourly_values)
        Ta = resample_ambient_linear(replace(hourly, values=hourly_values), ds.timestamps)
        assert np.array_equal(ds.ambient.values, Ta.values)
        K = ds.load_factor
        t0 = steady_state(float(K.values[0]), float(Ta.values[0]), spec.iec)
        expected = simulate_oracle(K, Ta, t0, spec.iec).values
        assert np.array_equal(clean.values, expected)
        noise = _stream(spec, 2).normal(0.0, spec.measurement_noise_k, size=len(expected))
        assert np.array_equal(ds.top_oil.values, expected + noise)


class TestCsvRoundTrip:
    def test_loader_reproduces_generated_dataset(self, tmp_path):
        spec = SynthSpec(days=2, seed=8)
        ds, clean, hourly = gen_dataset(spec)
        paths = write_dataset_csvs(tmp_path, ds, hourly, clean)
        back = load_dataset(paths["measurements"], paths["ambient"])
        assert back.n == ds.n
        # repr round trip plus node-exact interpolation keep this bitwise
        assert np.array_equal(back.top_oil.values, ds.top_oil.values)
        assert np.array_equal(back.ambient.values, ds.ambient.values)
        assert np.array_equal(back.load_factor.values, ds.load_factor.values)

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = SynthSpec(days=1, seed=9)
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            ds, clean, hourly = gen_dataset(spec)
            write_dataset_csvs(out, ds, hourly, clean)
        for name in ("measurements.csv", "ambient.csv", "clean_top_oil.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSpecValidation:
    def test_bad_days(self):
        with pytest.raises(ValueError, match="days"):
            SynthSpec(days=0)

    def test_fractional_days_names_the_field(self):
        # 1.5 used to fail inside numpy with a TypeError that named no field
        with pytest.raises(ValueError, match=r"SynthSpec\.days must be >= 1 and an integer"):
            SynthSpec(days=1.5)

    def test_bad_noise(self):
        with pytest.raises(ValueError, match="noise"):
            SynthSpec(days=1, measurement_noise_k=-1.0)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "3", -1])
    def test_bad_seed_names_the_field(self, seed):
        with pytest.raises(ValueError, match=r"SynthSpec\.seed must be >= 0 and an integer"):
            SynthSpec(days=1, seed=seed)

    def test_integer_seed_keeps_its_stream(self):
        a, _, _ = gen_profiles(SynthSpec(days=1, seed=np.int64(5)))
        b, _, _ = gen_profiles(SynthSpec(days=1, seed=5))
        assert a.values.tobytes() == b.values.tobytes()

    def test_from_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            SynthSpec.from_config({"days": 2, "sigma": 1.0})

    def test_from_config_nested(self):
        spec = SynthSpec.from_config({"days": 2, "seed": 4,
                                      "load": {"mean_pu": 0.5},
                                      "iec": {"psi": 5.0, "delta_t_or_k": 38.3,
                                              "chi": 0.8, "k11": 1.0,
                                              "tau_o_min": 180.0, "tau_w_min": 10.0}})
        assert spec.load.mean_pu == 0.5
        assert spec.iec.tau_o_min == 180.0
