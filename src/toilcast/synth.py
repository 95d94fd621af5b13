"""Synthetic dataset oracle.

Plausible diurnal/weekly load and ambient profiles are driven through the
IEC top-oil solver; Gaussian measurement noise is added on top while the
clean trajectory is kept as ground truth. Stands in for the proprietary
measurements the real study used.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .iec import IecParams, simulate, steady_state
from .series import (STEP_5MIN_S, STEP_HOUR_S, TimeSeries, TransformerDataset, check_count,
                     check_object, check_real, check_real_fields, format_instant, parse_instant,
                     resample_ambient_linear, write_csv)

# the first instant of every series, and the hours of day the load and the ambient peak at
ORIGIN = "2020-07-01T00:00:00+00:00"
LOAD_PEAK_HOUR = 14.0
AMBIENT_PEAK_HOUR = 15.0

# Illustrative ONAN constants; the paper's transformer constants are not public.
DEFAULT_IEC = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0,
                        tau_o_min=180.0, tau_w_min=10.0)


@dataclass(frozen=True)
class LoadProfile:
    mean_pu: float = 0.65
    diurnal_amplitude: float = 0.25
    weekly_amplitude: float = 0.08
    noise_sigma: float = 0.04

    def __post_init__(self):
        check_real_fields(self, noise_sigma=(">= 0",))


@dataclass(frozen=True)
class AmbientProfile:
    mean_c: float = 12.0
    diurnal_amplitude: float = 5.0
    ar_coeff: float = 0.9            # hourly AR(1) noise memory
    noise_sigma: float = 0.4         # AR(1) innovation std [K]

    def __post_init__(self):
        check_real_fields(self, noise_sigma=(">= 0",), ar_coeff=(">= 0", "< 1"))


@dataclass(frozen=True)
class SynthSpec:
    days: int = 60
    seed: int = 0
    iec: IecParams = DEFAULT_IEC
    load: LoadProfile = field(default_factory=LoadProfile)
    ambient: AmbientProfile = field(default_factory=AmbientProfile)
    measurement_noise_k: float = 0.5

    def __post_init__(self):
        check_count("SynthSpec", "days", self.days)
        check_count("SynthSpec", "seed", self.seed, minimum=0)
        check_real("SynthSpec", "measurement_noise_k", self.measurement_noise_k, ">= 0")

    @classmethod
    def from_config(cls, raw: dict, **defaults) -> "SynthSpec":
        """From a JSON object; `defaults` fill the fields it leaves out."""
        kwargs = {**defaults, **check_object("SynthSpec", raw, cls.__dataclass_fields__)}
        for key, part in (("iec", IecParams), ("load", LoadProfile), ("ambient", AmbientProfile)):
            if key in kwargs:
                kwargs[key] = part(**check_object(f"SynthSpec.{key}", kwargs[key],
                                                  part.__dataclass_fields__,
                                                  required=part is IecParams))
        return cls(**kwargs)


def _stream(spec: SynthSpec, index: int) -> np.random.Generator:
    # independent named streams so e.g. changing the noise level never
    # perturbs the load or ambient draws
    return np.random.default_rng(np.random.SeedSequence(int(spec.seed), spawn_key=(index,)))


def gen_profiles(spec: SynthSpec) -> tuple[TimeSeries, TimeSeries, TimeSeries]:
    """Load factor and ambient profiles on the 5-minute grid.

    Returns (K, Ta, hourly ambient). Ambient is generated hourly (diurnal
    sinusoid plus AR(1) noise) and linearly interpolated to 5 minutes, so a
    round trip through the hourly CSV reproduces it exactly.
    """
    start = parse_instant(ORIGIN)
    n = spec.days * 288 + 1
    grid = start + STEP_5MIN_S * np.arange(n, dtype=np.int64)
    hours_of_day = (grid - start) / 3600.0
    days = (grid - start) / 86400.0

    lp = spec.load
    load_rng = _stream(spec, 0)
    K = (lp.mean_pu
         + lp.diurnal_amplitude * np.sin(2.0 * np.pi * (hours_of_day - LOAD_PEAK_HOUR + 6.0) / 24.0)
         + lp.weekly_amplitude * np.sin(2.0 * np.pi * days / 7.0))
    if lp.noise_sigma > 0:
        K = K + load_rng.normal(0.0, lp.noise_sigma, size=n)
    K = np.clip(K, 0.0, None)

    ap = spec.ambient
    amb_rng = _stream(spec, 1)
    n_h = spec.days * 24 + 1
    hourly_ts = start + STEP_HOUR_S * np.arange(n_h, dtype=np.int64)
    hod = (hourly_ts - start) / 3600.0
    base = ap.mean_c + ap.diurnal_amplitude * np.sin(
        2.0 * np.pi * (hod - AMBIENT_PEAK_HOUR + 6.0) / 24.0)
    noise = np.zeros(n_h)
    if ap.noise_sigma > 0:
        eps = amb_rng.normal(0.0, ap.noise_sigma, size=n_h)
        # Python floats, as in iec.simulate: the same IEEE doubles as numpy's
        x = 0.0
        states = array("d", [x])
        for e in memoryview(eps[1:]):
            x = ap.ar_coeff * x + e
            states.append(x)
        noise = np.frombuffer(states)
    hourly = TimeSeries(hourly_ts, base + noise)
    Ta = resample_ambient_linear(hourly, grid)

    return TimeSeries(grid, K), Ta, hourly


def gen_dataset(spec: SynthSpec) -> tuple[TransformerDataset, TimeSeries, TimeSeries]:
    """Full synthetic dataset plus ground truth.

    Returns (dataset, clean top-oil trajectory, hourly ambient). The
    dataset's top-oil channel is the clean IEC trajectory (seeded at steady
    state) plus N(0, measurement_noise_k^2) noise.
    """
    K, Ta, hourly = gen_profiles(spec)
    t0 = steady_state(float(K.values[0]), float(Ta.values[0]), spec.iec)
    clean = simulate(K, Ta, t0, spec.iec)
    noise_rng = _stream(spec, 2)
    noisy = clean.values
    if spec.measurement_noise_k > 0:
        noisy = noisy + noise_rng.normal(0.0, spec.measurement_noise_k, size=len(clean))
    top_oil = TimeSeries(K.timestamps, noisy)
    ds = TransformerDataset(top_oil, Ta, K)
    return ds, clean, hourly


def write_dataset_csvs(out_dir, ds: TransformerDataset, hourly: TimeSeries,
                       clean: TimeSeries) -> dict[str, Path]:
    """Write the measurement/ambient CSV pair the loader reads, plus the
    clean top-oil oracle. Floats use repr so the round trip is exact."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "measurements": out / "measurements.csv",
        "ambient": out / "ambient.csv",
        "clean": out / "clean_top_oil.csv",
    }
    stamps = [format_instant(t) for t in ds.timestamps]
    write_csv(paths["measurements"], ["timestamp", "top_oil_c", "load_factor"],
              ((s, repr(float(v)), repr(float(k)))
               for s, v, k in zip(stamps, ds.top_oil.values, ds.load_factor.values)))
    write_csv(paths["ambient"], ["timestamp", "ambient_c"],
              ((format_instant(t), repr(float(v)))
               for t, v in zip(hourly.timestamps, hourly.values)))
    write_csv(paths["clean"], ["timestamp", "clean_top_oil_c"],
              ((s, repr(float(v))) for s, v in zip(stamps, clean.values)))
    return paths
