"""Every config value is checked once, as written: a real number must be
finite and inside its field's bounds, a count an integer, a flag true or
false. A value that is not fails with a ValueError naming the owner, the
field and the value."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from toilcast.iec import IecParams, simulate
from toilcast.metrics import pinball, validate_quantiles
from toilcast.models import TcnConfig, TideConfig
from toilcast.series import (AffineScaler, TimeSeries, check_object, derive_load_factor,
                             make_windows)
from toilcast.synth import AmbientProfile, LoadProfile, SynthSpec
from toilcast.training import GridSpec, TrainConfig
from util import make_dataset

IEC = dict(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0, tau_w_min=10.0)
CURRENT = TimeSeries(np.array([0, 300]), np.array([100.0, 200.0]))


def _profile(cls, name):
    return lambda v: cls(**{name: v})


# (owner.field, a call that gives the field the value, the field's bounds)
REALS = [
    *[(f"IecParams.{k}", lambda v, k=k: IecParams(**dict(IEC, **{k: v})),
       ("> 0", "<= 2") if k == "chi" else ("> 0",)) for k in IEC],
    ("iec.dt_min", lambda v: simulate(CURRENT, CURRENT, 30.0, v, IecParams(**IEC)), ("> 0",)),
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
    scaler = AffineScaler.from_config({"ambient": {"gain": 1, "offset": 0}})
    assert [type(v) for v in scaler.channels["ambient"]] == [float, float]


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


def test_check_object_returns_a_conforming_object():
    raw = {"gain": 1.0}
    assert check_object("owner", raw, ("gain", "offset")) is raw
    assert check_object("owner", {}, ("gain", "offset")) == {}
    assert check_object("owner", {"offset": 0, "gain": 1}, ("gain", "offset"), required=True)


@pytest.mark.parametrize("raw, required, message", [
    (5, False, "owner must be an object with keys 'gain' and 'offset', got 5"),
    ([1], True, "owner must be an object with keys 'gain' and 'offset', got [1]"),
    ("gain", False, "owner must be an object with keys 'gain' and 'offset', got 'gain'"),
    ({"gian": 1, "gain": 1}, False, "owner has unknown keys ['gian']; expected 'gain' and "
                                    "'offset'"),
    ({"gain": 1}, True, "owner is missing keys ['offset']"),
])
def test_check_object_names_the_owner(raw, required, message):
    with pytest.raises(ValueError) as exc_info:
        check_object("owner", raw, ("gain", "offset"), required)
    assert str(exc_info.value) == message


def _iec_file(doc, tmp_path):
    path = tmp_path / "iec.json"
    path.write_text(json.dumps(doc))
    return IecParams.from_json(path)


# (a reader of a JSON object, the object it is given, what its error names)
READERS = [
    ("SynthSpec", lambda raw, _: SynthSpec.from_config(raw), 5, "SynthSpec must be"),
    ("SynthSpec.load", lambda raw, _: SynthSpec.from_config({"load": raw}), [1],
     "SynthSpec.load must be"),
    ("SynthSpec.iec", lambda raw, _: SynthSpec.from_config({"iec": raw}), {"psi": 5.0, "x": 1},
     "SynthSpec.iec has unknown keys ['x']"),
    ("scaling", lambda raw, _: AffineScaler.from_config(raw), 5, "scaling must be"),
    ("scaling-channel", lambda raw, _: AffineScaler.from_config(raw), {"top_oill": {}},
     "scaling has unknown keys ['top_oill']"),
    ("IecParams", _iec_file, [1], "iec.json must be"),
    ("IecParams-missing", _iec_file, {"psi": 5.0, "comment": "c"}, "iec.json is missing keys "
                                                                   "['delta_t_or_k', "),
    ("IecParams-unknown", _iec_file, {**IEC, "note": "c"}, "iec.json has unknown keys ['note']"),
    ("grid", lambda raw, _: GridSpec("ann", raw), [1, 2], "grid.ann must be"),
    ("grid-key", lambda raw, _: GridSpec("ann", raw), {"n_neuron": [4]},
     "grid.ann has unknown keys ['n_neuron']"),
    ("grid-value", lambda raw, _: GridSpec("ann", raw), {"n_neurons": 4},
     "grid value 'n_neurons' must be a non-empty list, got 4"),
    ("grid-lookbacks", lambda raw, _: GridSpec("ann", {"n_neurons": [4]}, raw), 24,
     "grid value 'lookbacks' must be a non-empty list, got 24"),
]


@pytest.mark.parametrize("make, raw, message", [r[1:] for r in READERS],
                         ids=[r[0] for r in READERS])
def test_every_json_reader_checks_its_object(tmp_path, make, raw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make(raw, tmp_path)


def test_iec_file_may_hold_a_comment(tmp_path):
    assert _iec_file({**IEC, "comment": "illustrative"}, tmp_path) == IecParams(**IEC)
