"""IEC 60076-7 top-oil temperature model.

First-order thermal ODE for the bulk oil:

    [(1 + K(t)^2 * psi) / (1 + psi)]^chi * dT_or = k11 * tau_o * dTo/dt + (To - Ta)

solved with the explicit (forward) Euler update, inputs held constant within
each sub-interval. ONAN cooling only; constants must come from a parameter
file since they are transformer-specific.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .series import TimeSeries, check_object, check_real, check_real_fields


@dataclass(frozen=True)
class IecParams:
    """Thermal constants of the top-oil equation.

    psi: ratio of load losses at rated current to no-load losses [-]
    delta_t_or_k: top-oil rise in steady state at rated losses [K]
    chi: exponent of total losses vs. top-oil rise [-]
    k11: thermal model constant [-]
    tau_o_min: oil time constant [min]
    tau_w_min: smallest winding time constant [min] (governs the step rule)
    """

    psi: float
    delta_t_or_k: float
    chi: float
    k11: float
    tau_o_min: float
    tau_w_min: float

    def __post_init__(self):
        check_real_fields(self, ("> 0",), chi=("> 0", "<= 2"))

    @classmethod
    def from_json(cls, path) -> "IecParams":
        with open(path) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):   # a `comment` may sit beside the six constants
            raw.pop("comment", None)
        return cls(**check_object(f"IEC parameter file {path}", raw,
                                  [f.name for f in fields(cls)], required=True))


def load_bracket(K, p: IecParams):
    """[(1 + K^2 psi) / (1 + psi)]^chi — equals 1 at rated load (K=1)."""
    K = np.asarray(K, dtype=np.float64)
    return ((1.0 + K * K * p.psi) / (1.0 + p.psi)) ** p.chi


def steady_state(K: float, t_ambient: float, p: IecParams) -> float:
    """Top-oil temperature [degC] the ODE settles to for constant load and
    ambient."""
    if np.any(np.asarray(K) < 0):
        raise ValueError("load factor K must be >= 0")
    return t_ambient + p.delta_t_or_k * float(load_bracket(K, p))


def check_timestep(dt_min: float, p: IecParams) -> bool:
    """True iff dt, a finite number > 0, satisfies the step rule dt <= tau_w / 2."""
    return check_real("iec", "dt_min", dt_min, "> 0") <= p.tau_w_min / 2.0


def simulate(K: TimeSeries, Ta: TimeSeries, t0: float, dt_min: float, p: IecParams,
             enforce_timestep: bool = True) -> TimeSeries:
    """Integrate the top-oil trajectory over aligned load and ambient series.

    The output has one value per input instant, starting at t0. Each
    interval between instants is integrated in sub-steps of dt, which must
    equal or evenly divide its length; load and ambient are held constant
    (left endpoint) across the sub-steps of each interval.
    """
    if len(K) != len(Ta) or (K.timestamps != Ta.timestamps).any():
        raise ValueError("load and ambient series are not aligned")
    # check_timestep first: it rejects a bad dt even when the rule is not enforced
    if not check_timestep(dt_min, p) and enforce_timestep:
        raise ValueError(
            f"dt={dt_min} min violates the step rule dt <= tau_w/2 = {p.tau_w_min / 2.0} min "
            "(pass enforce_timestep=False to override)"
        )
    gaps_s = np.diff(K.timestamps) if len(K) > 1 else np.array([K.step])
    n_sub = gaps_s / (dt_min * 60.0)
    uneven = (np.abs(n_sub - np.round(n_sub)) > 1e-9) | (n_sub < 1)
    if uneven.any():
        row = int(np.argmax(uneven)) + 1
        raise ValueError(f"dt={dt_min} min must equal or evenly divide the series step; "
                         f"the interval before row {row} is {gaps_s[row - 1] / 60.0} min")
    n_sub = np.round(n_sub[:len(K) - 1]).astype(np.int64)

    alpha = dt_min / (p.k11 * p.tau_o_min)
    # one Euler loop over every sub-step, with each interval's inputs repeated
    # per sub-step; memoryview yields Python floats (the same IEEE doubles as
    # numpy's) and array('d') keeps no float objects alive
    drive = np.repeat((load_bracket(K.values, p) * p.delta_t_or_k)[:-1], n_sub)
    ta = np.repeat(Ta.values[:-1], n_sub)
    t_oil = float(t0)
    states = array("d", [t_oil])
    for d, a in zip(memoryview(drive), memoryview(ta)):
        t_oil += alpha * (d - (t_oil - a))
        states.append(t_oil)
    # the state at each instant is the one after its interval's last sub-step
    out = np.frombuffer(states)[np.concatenate(([0], np.cumsum(n_sub)))]
    if not np.isfinite(out).all():
        bad = int(np.argmax(~np.isfinite(out)))
        raise FloatingPointError(f"solver diverged at step {bad} (dt too large?)")
    return TimeSeries(K.timestamps, out, K.step)
