"""Every config value is checked once, as written: a real number must be
finite and inside its field's bounds, a count an integer, a flag true or
false. A value that is not fails with a ValueError naming the owner, the
field and the value."""

from dataclasses import fields

import numpy as np
import pytest

from toilcast.iec import IecParams, check_timestep
from toilcast.metrics import pinball, validate_quantiles
from toilcast.models import TcnConfig, TideConfig
from toilcast.series import AffineScaler, TimeSeries, derive_load_factor, make_windows
from toilcast.synth import AmbientProfile, LoadProfile, SynthSpec
from toilcast.training import TrainConfig
from util import make_dataset

IEC = dict(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0, tau_w_min=10.0)
CURRENT = TimeSeries(np.array([0, 300]), np.array([100.0, 200.0]))


def _profile(cls, name):
    return lambda v: cls(**{name: v})


# (owner.field, a call that gives the field the value, the field's bounds)
REALS = [
    *[(f"IecParams.{k}", lambda v, k=k: IecParams(**dict(IEC, **{k: v})),
       ("> 0", "<= 2") if k == "chi" else ("> 0",)) for k in IEC],
    ("iec.dt_min", lambda v: check_timestep(v, IecParams(**IEC)), ("> 0",)),
    ("AffineScaler.ambient.gain", lambda v: AffineScaler({"ambient": (v, 0.0)}), ("!= 0",)),
    ("AffineScaler.ambient.offset", lambda v: AffineScaler({"ambient": (0.01, v)}), ()),
    ("derive_load_factor.rated_current", lambda v: derive_load_factor(CURRENT, v), ("> 0",)),
    ("TrainConfig.learning_rate", lambda v: TrainConfig(learning_rate=v), (">= 0",)),
    ("TcnConfig.dropout", lambda v: TcnConfig(dropout=v), (">= 0", "< 1")),
    ("TideConfig.dropout", lambda v: TideConfig(dropout=v), (">= 0", "< 1")),
    *[(f"LoadProfile.{f.name}", _profile(LoadProfile, f.name),
       (">= 0",) if f.name == "noise_sigma" else ()) for f in fields(LoadProfile)],
    *[(f"AmbientProfile.{f.name}", _profile(AmbientProfile, f.name),
       {"noise_sigma": (">= 0",), "ar_coeff": (">= 0", "< 1")}.get(f.name, ()))
      for f in fields(AmbientProfile)],
    ("SynthSpec.measurement_noise_k", lambda v: SynthSpec(days=1, measurement_noise_k=v),
     (">= 0",)),
    ("quantiles.level", lambda v: validate_quantiles((v,)), ("> 0", "< 1")),
    ("pinball.alpha", lambda v: pinball(1.0, 0.0, v), ("> 0", "< 1")),
]


def outside(bounds, rng) -> list[float]:
    """Values each bound rejects: an open bound's own limit, and the limit
    moved a random distance to the wrong side."""
    out = []
    for bound in bounds:
        op, limit = bound.split()
        step = float(rng.uniform(1e-3, 100.0))
        if op in (">", "!=", "<"):
            out.append(float(limit))
        if op in (">", ">="):
            out.append(float(limit) - step)
        if op in ("<", "<="):
            out.append(float(limit) + step)
    return out


@pytest.mark.parametrize("field, make, bounds", REALS, ids=[r[0] for r in REALS])
def test_real_field_rejects_what_is_no_finite_number_in_bounds(field, make, bounds):
    rng = np.random.default_rng(sum(map(ord, field)))
    for value in [np.nan, np.inf, -np.inf, 10**400, True, False, "0.5", None,
                  *outside(bounds, rng)]:
        with pytest.raises(ValueError) as exc_info:
            make(value)
        assert str(exc_info.value) == (f"{field} must be {' and '.join(('finite', *bounds))}, "
                                       f"got {value!r}")


@pytest.mark.parametrize("field, make, bounds", REALS, ids=[r[0] for r in REALS])
def test_real_field_keeps_a_closed_bound(field, make, bounds):
    for bound in bounds:
        op, limit = bound.split()
        if op in (">=", "<="):
            make(float(limit))


def test_whole_json_numbers_are_stored_as_floats():
    params = IecParams(**dict(IEC, psi=5, k11=1))
    assert (params.psi, params.k11) == (5.0, 1.0)
    assert all(type(getattr(params, k)) is float for k in IEC)
    assert AffineScaler.from_config({"ambient": {"gain": 1}}).channels["ambient"] == (1.0, 0.0)


@pytest.mark.parametrize("make, field", [
    (lambda v: TcnConfig(weight_norm=v), "TcnConfig.weight_norm"),
    (lambda v: TideConfig(use_layer_norm=v), "TideConfig.use_layer_norm"),
])
@pytest.mark.parametrize("value", ["false", "no", "true", 0, 1, None])
def test_flag_must_be_true_or_false(make, field, value):
    # "false" and "no" used to switch the feature on
    with pytest.raises(ValueError) as exc_info:
        make(value)
    assert str(exc_info.value) == f"{field} must be true or false, got {value!r}"


@pytest.mark.parametrize("name", ["lookback", "horizon"])
@pytest.mark.parametrize("value", [2.7, 2.0, 0, True, "2", np.nan])
def test_window_counts_are_integers(name, value):
    # a look-back of 2.7 used to run as 2
    counts = {"lookback": 3, "horizon": 1}
    counts[name] = value
    with pytest.raises(ValueError, match=rf"make_windows\.{name} must be >= 1 and an integer"):
        make_windows(make_dataset(20), counts["lookback"], counts["horizon"],
                     ("top_oil",), ("top_oil",))
