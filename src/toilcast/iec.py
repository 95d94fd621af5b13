"""IEC 60076-7 top-oil temperature model.

First-order thermal ODE for the bulk oil:

    [(1 + K(t)^2 * psi) / (1 + psi)]^chi * dT_or = k11 * tau_o * dTo/dt + (To - Ta)

solved with the explicit (forward) Euler update, inputs held constant within
each sub-interval. ONAN cooling only; constants must come from a parameter
file since they are transformer-specific.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .series import TimeSeries, check_object, check_real, check_real_fields, read_json

MAX_SUB_STEPS = 10**8   # the most Euler sub-steps one `simulate` call takes


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
        raw = read_json(path)
        if isinstance(raw, dict):   # a `comment` may sit beside the six constants
            raw.pop("comment", None)
        return cls(**check_object(f"IEC parameter file {path}", raw,
                                  [f.name for f in fields(cls)], required=True))


def load_bracket(K, p: IecParams):
    """[(1 + K^2 psi) / (1 + psi)]^chi — equals 1 at rated load (K=1).
    ValueError naming the first K (and its row) that is not finite and >= 0."""
    K = np.asarray(K, dtype=np.float64)
    if not ((K >= 0) & (K < np.inf)).all():
        row = int(np.argmin((K >= 0) & (K < np.inf)))
        raise ValueError(f"load factor K must be finite and >= 0, got {K.flat[row]}"
                         + (f" at row {row}" if K.ndim else ""))
    return ((1.0 + K * K * p.psi) / (1.0 + p.psi)) ** p.chi


def steady_state(K: float, t_ambient: float, p: IecParams) -> float:
    """Top-oil temperature [degC] the ODE settles to for constant load and
    ambient."""
    t_ambient = check_real("steady_state", "t_ambient", t_ambient)
    return t_ambient + p.delta_t_or_k * float(load_bracket(K, p))


def simulate(K: TimeSeries, Ta: TimeSeries, t0: float, p: IecParams) -> TimeSeries:
    """Integrate the top-oil trajectory over aligned load and ambient series.

    The output has one value per input instant, starting at t0. Each
    interval between instants is cut into the fewest equal sub-steps that
    meet the step rule dt <= tau_w / 2, so any strictly increasing grid
    integrates; load and ambient are held constant (left endpoint) across
    the sub-steps of each interval. Load, ambient and t0 must be finite and
    the load >= 0 (`load_bracket`); ValueError names the series and row.
    A `tau_w_min` that cuts an interval into no sub-step or past int64, or
    the series past MAX_SUB_STEPS sub-steps, is a ValueError naming it.
    """
    if len(K) != len(Ta) or (K.timestamps != Ta.timestamps).any():
        raise ValueError("load and ambient series are not aligned")
    t0 = check_real("simulate", "t0", t0)
    if not np.isfinite(Ta.values).all():
        row = int(np.argmin(np.isfinite(Ta.values)))
        raise ValueError(f"simulate: ambient at row {row} is {Ta.values[row]}, not finite")
    gaps_s = np.diff(K.timestamps)
    with np.errstate(over="ignore"):   # an overflow is an infinite count, rejected below
        n_sub = np.ceil(gaps_s / (30.0 * p.tau_w_min))
    fits = (n_sub >= 1) & (n_sub < 2.0 ** 63)
    if not fits.all():
        row = int(np.argmin(fits))
        raise ValueError(f"simulate: IecParams.tau_w_min = {p.tau_w_min} cuts the "
                         f"{gaps_s[row]} s interval after row {row} into {n_sub[row]} "
                         "sub-steps; the count must be a whole number from 1 to 2**63 - 1")
    if (total := n_sub.sum()) > MAX_SUB_STEPS:
        raise ValueError(f"simulate: IecParams.tau_w_min = {p.tau_w_min} cuts the series into "
                         f"{total:.4g} sub-steps, more than MAX_SUB_STEPS = {MAX_SUB_STEPS}")
    n_sub = n_sub.astype(np.int64)
    alpha = gaps_s / n_sub / 60.0 / (p.k11 * p.tau_o_min)   # dt [min] / (k11 tau_o)

    # the Euler loop over Python floats from memoryviews (the same IEEE
    # doubles as numpy's), each interval's inputs held over its sub-steps and
    # its last state stored; array('d') keeps no float objects alive
    drive = memoryview((load_bracket(K.values, p) * p.delta_t_or_k)[:-1])
    ta = memoryview(np.ascontiguousarray(Ta.values[:-1], dtype=np.float64))
    t_oil = t0
    states = array("d", [t_oil])
    if len(gaps_s) and (gaps_s == gaps_s[0]).all() and n_sub[0] == 1:
        step = float(alpha[0])   # a uniform grid in one sub-step each: no inner loop
        for d, a in zip(drive, ta):
            t_oil += step * (d - (t_oil - a))
            states.append(t_oil)
    else:
        for d, a, m, step in zip(drive, ta, n_sub.tolist(), alpha.tolist()):
            for _ in repeat(None, m):
                t_oil += step * (d - (t_oil - a))
            states.append(t_oil)
    out = np.frombuffer(states)
    if not np.isfinite(out).all():
        bad = int(np.argmax(~np.isfinite(out)))
        raise FloatingPointError(f"solver diverged at step {bad}")
    return TimeSeries(K.timestamps, out)
