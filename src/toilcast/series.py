"""Time-series data model for transformer telemetry.

Channels live on a shared 5-minute UTC grid. Ingestion, gap repair,
resampling of hourly ambient readings, train/validation splitting,
per-channel affine scaling, and sliding-window extraction all live here.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

STEP_5MIN_S = 300
STEP_HOUR_S = 3600


def check_count(owner: str, name: str, value, minimum: int = 1) -> int:
    """`value` as an int, or ValueError naming `owner.name` unless it is an
    integer >= `minimum`; a bool, a float (whole, NaN or infinite) or any
    other type is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{owner}.{name} must be >= {minimum} and an integer, got {value!r}")
    return int(value)


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
            "!=": operator.ne}


def check_real(owner: str, name: str, value, *bounds: str) -> float:
    """`value` as a float, or ValueError naming `owner.name` unless it is a
    finite real number, not a bool, that meets every bound, such as "> 0"."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value)
              and all(_COMPARE[op](value, float(limit)) for op, limit in map(str.split, bounds)))
    except OverflowError:   # an integer past the largest float
        ok = False
    if not ok:
        raise ValueError(f"{owner}.{name} must be {' and '.join(('finite', *bounds))}, "
                         f"got {value!r}")
    return float(value)


def check_real_fields(obj, bounds=(), **named_bounds) -> None:
    """`check_real` on every field of the frozen dataclass `obj`, each held
    to its entry in `named_bounds`, else to `bounds`; stores each as a float."""
    for f in fields(obj):
        value = check_real(type(obj).__name__, f.name, getattr(obj, f.name),
                           *named_bounds.get(f.name, bounds))
        object.__setattr__(obj, f.name, value)


def check_flag(owner: str, name: str, value) -> bool:
    """`value`, or ValueError naming `owner.name` unless it is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{owner}.{name} must be true or false, got {value!r}")
    return value


def check_object(owner: str, raw, keys, required: bool = False) -> dict:
    """`raw`, or ValueError naming `owner` unless it is a JSON object whose
    keys are all among `keys` and, with `required`, include every one of them."""
    listed = " and ".join(", ".join(map(repr, keys)).rsplit(", ", 1))
    if not isinstance(raw, dict):
        raise ValueError(f"{owner} must be an object with keys {listed}, got {raw!r}")
    unknown, missing = [k for k in raw if k not in keys], [k for k in keys if k not in raw]
    if unknown or required and missing:
        raise ValueError(f"{owner} has unknown keys {unknown}; expected {listed}" if unknown
                         else f"{owner} is missing keys {missing}")
    return raw


# -------- instants --------

def utc_offset(text: str | None) -> timezone:
    """The zone of a UTC offset such as '+01:00', '+0100' or 'Z'; None and
    'UTC' are UTC. ValueError naming the offset otherwise."""
    if text is None or text == "UTC":
        return timezone.utc
    try:
        return datetime.strptime(text, "%z").tzinfo
    except (TypeError, ValueError):
        raise ValueError(f"UTC offset {text!r} must be 'UTC', 'Z' or of the form "
                         "'+HH:MM' or '+HHMM'") from None


def parse_instant(text: str, zone: timezone = timezone.utc) -> int:
    """Parse an ISO-8601 timestamp to epoch seconds (UTC); a naive timestamp
    is read in `zone` (see `utc_offset`)."""
    if not isinstance(text, str):
        raise ValueError(f"timestamp {text!r} must be a string")
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=zone)
    return int(dt.timestamp())


def format_instant(epoch_s: int) -> str:
    return datetime.fromtimestamp(int(epoch_s), tz=timezone.utc).isoformat()


def _order_fault(ts: np.ndarray) -> str | None:
    """What is wrong with the order of the instants `ts`: the first row that
    repeats or goes back from the one before it; None if they strictly increase."""
    deltas = np.diff(ts)
    if (deltas > 0).all():
        return None
    bad = int(np.argmax(deltas <= 0)) + 1
    if deltas[bad - 1] == 0:
        return f"duplicated timestamp {format_instant(ts[bad])} at row {bad}"
    return f"non-monotonic timestamp at row {bad} ({format_instant(ts[bad])})"


# -------- core types --------

@dataclass(frozen=True)
class TimeSeries:
    """Timestamped values.

    timestamps: int64 epoch seconds (UTC), strictly increasing.
    values: float64, same length; NaN marks a missing sample.
    """

    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or vals.ndim != 1:
            raise ValueError("timestamps and values must be 1-D")
        if len(ts) != len(vals):
            raise ValueError(f"length mismatch: {len(ts)} timestamps, {len(vals)} values")
        if len(ts) == 0:
            raise ValueError("empty series")
        if fault := _order_fault(ts):
            raise ValueError(fault)

    def __len__(self) -> int:
        return len(self.timestamps)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        return TimeSeries(self.timestamps, values)

    def slice_range(self, start: int, end: int) -> "TimeSeries":
        """Inclusive [start, end] sub-series by instant."""
        i0 = int(np.searchsorted(self.timestamps, start, side="left"))
        i1 = int(np.searchsorted(self.timestamps, end, side="right"))
        if i1 <= i0:
            raise ValueError(
                f"empty slice [{format_instant(start)}, {format_instant(end)}]"
            )
        return TimeSeries(self.timestamps[i0:i1], self.values[i0:i1])


CHANNELS = ("top_oil", "ambient", "load_factor", "temp_rise")


@dataclass(frozen=True)
class TransformerDataset:
    """Aligned 5-minute channels: top-oil [degC], ambient [degC] and load
    factor [p.u.], every sample finite; the temperature rise over ambient
    [K] is derived."""

    top_oil: TimeSeries
    ambient: TimeSeries
    load_factor: TimeSeries

    def __post_init__(self):
        ts = self.top_oil.timestamps
        for name in ("top_oil", "ambient", "load_factor"):
            s = getattr(self, name)
            if s is not self.top_oil and (len(s) != len(ts) or (s.timestamps != ts).any()):
                raise ValueError(f"channel '{name}' not aligned with top_oil grid")
            if not np.isfinite(s.values).all():
                row = int(np.argmin(np.isfinite(s.values)))
                raise ValueError(f"channel '{name}' holds {s.values[row]} at "
                                 f"{format_instant(ts[row])}; every sample must be finite")
        if self.load_factor.values.min() < 0:
            raise ValueError("load_factor must be >= 0")

    @property
    def temp_rise(self) -> TimeSeries:
        return self.top_oil.with_values(self.top_oil.values - self.ambient.values)

    @property
    def timestamps(self) -> np.ndarray:
        return self.top_oil.timestamps

    @property
    def n(self) -> int:
        return len(self.top_oil)

    def channel(self, name: str) -> TimeSeries:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel '{name}' (expected one of {CHANNELS})")
        return getattr(self, name)

    def slice_range(self, start: int, end: int) -> "TransformerDataset":
        return TransformerDataset(*(s.slice_range(start, end)
                                    for s in (self.top_oil, self.ambient, self.load_factor)))

    def matrix(self, channels) -> np.ndarray:
        """Column-stacked channel values, shape (n, len(channels))."""
        return np.column_stack([self.channel(c).values for c in channels])


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive train/validation instant ranges; train must end before
    validation starts."""

    train_start: int
    train_end: int
    valid_start: int
    valid_end: int

    def __post_init__(self):
        if self.train_end < self.train_start:
            raise ValueError("train range is empty")
        if self.valid_end < self.valid_start:
            raise ValueError("validation range is empty")
        if self.train_end >= self.valid_start:
            raise ValueError("train range must end strictly before validation starts")

    @classmethod
    def from_isoformat(cls, train: list[str], valid: list[str],
                       default_offset: str | None = None) -> "SplitSpec":
        """From [start, end] lists of ISO-8601 instants, or ValueError."""
        zone = utc_offset(default_offset)

        def pair(name, r):
            if not isinstance(r, (list, tuple)) or len(r) != 2:
                raise ValueError(f"split.{name} must be a [start, end] list, got {r!r}")
            return [parse_instant(t, zone) for t in r]
        return cls(*pair("train", train), *pair("valid", valid))


@dataclass(frozen=True)
class AffineScaler:
    """Per-channel affine map: scaled = (x - offset) * gain."""

    channels: dict[str, tuple[float, float]]  # name -> (gain, offset)

    def __post_init__(self):
        object.__setattr__(self, "channels", {
            name: (check_real("AffineScaler", f"{name}.gain", gain, "!= 0"),
                   check_real("AffineScaler", f"{name}.offset", offset))
            for name, (gain, offset) in self.channels.items()})

    @classmethod
    def from_config(cls, cfg: dict) -> "AffineScaler":
        """From {channel: {"gain": g, "offset": o}}; each channel given needs
        both fields."""
        def pair(name, c):
            c = check_object(f"AffineScaler.{name}", c, ("gain", "offset"), required=True)
            return c["gain"], c["offset"]
        return cls({n: pair(n, c) for n, c in check_object("scaling", cfg, CHANNELS).items()})

    def vectors(self, names) -> tuple[np.ndarray, np.ndarray]:
        """Gain and offset arrays over `names`, to scale a matrix whose last
        axis runs over those channels; ValueError names any channel it lacks."""
        missing = [n for n in names if n not in self.channels]
        if missing:
            raise ValueError(f"AffineScaler has no gain and offset for {missing}")
        pairs = [self.channels[n] for n in names]
        return np.array([g for g, _ in pairs]), np.array([o for _, o in pairs])


@dataclass(frozen=True)
class WindowSet:
    """Sliding windows: each input row is the flattened (L, C) look-back
    immediately preceding its flattened (H, T) target row. `make_windows`
    makes each a read-only view onto one (n, C) matrix: O(n * C) memory.

    Optional future_cov rows carry covariate values over the target steps
    (needed by architectures that consume future covariates).
    """

    inputs: np.ndarray            # (n_windows, L * n_channels), time-major rows
    targets: np.ndarray           # (n_windows, H * n_targets)
    lookback: int
    horizon: int
    input_channels: tuple[str, ...]
    target_channels: tuple[str, ...]
    future_cov: np.ndarray | None = None      # (n_windows, H * n_future)
    future_channels: tuple[str, ...] = ()

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]


# -------- operations --------

def read_json(path):
    """The JSON document in the file at `path`; ValueError naming the path
    if the file does not hold valid JSON, or is not text."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def write_json(path, doc) -> None:
    """Write `doc` as JSON with sorted keys, one-space indents and a final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the header row, then `rows`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, default_offset: str | None = None):
    """Read the CSV table at `path` in one pass: (header, timestamps, column).

    `header` is the header row as `csv` parses it, quotes taken off;
    `timestamps` the epoch seconds of the `timestamp` column, a naive one
    read at the UTC offset `default_offset` (see `utc_offset`); `column(name)`
    the float64 values of the column `name`, an empty or `nan` cell read as
    NaN (missing). ValueError naming the path for a file that `csv` cannot
    read as text, for a missing column, for the rows (0-based, after the
    header) whose timestamp does not parse, for a table with no rows or whose
    timestamps do not strictly increase, and, with the row and the column,
    for a cell that is not a finite number.
    """
    zone = utc_offset(default_offset)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path} is not a CSV table: {exc}") from None
    header = reader.fieldnames or []

    def cells(name):
        if name not in header:
            raise ValueError(f"missing column '{name}' in {path} (header: {header})")
        return [(row[name] or "").strip() for row in rows]

    stamps, rejected = [], []
    for idx, text in enumerate(cells("timestamp")):
        try:
            stamps.append(parse_instant(text, zone))
        except ValueError:
            rejected.append(idx)
    if rejected:
        raise ValueError(f"{path}: the timestamp does not parse on rows {rejected[:10]} "
                         f"(0-based, after the header; {len(rejected)} in all)")
    if not stamps:
        raise ValueError(f"no rows in {path}")
    ts = np.asarray(stamps, dtype=np.int64)
    if fault := _order_fault(ts):
        raise ValueError(f"{path}: {fault}")

    def column(name) -> np.ndarray:
        values = []
        for idx, cell in enumerate(cells(name)):
            try:
                values.append(float(cell or "nan"))
            except ValueError:
                values.append(math.inf)
            if math.isinf(values[-1]):
                raise ValueError(f"{path}: row {idx}, column '{name}' holds {cell!r}, "
                                 "not a finite number")
        return np.array(values)
    return header, ts, column


def fill_gaps_adjacent_mean(values: np.ndarray) -> np.ndarray:
    """Replace missing (NaN) interior values of evenly spaced samples.

    A single missing sample becomes the arithmetic mean of its present
    neighbors; a run of k missing samples is filled linearly between the
    bounding present values, which reduces to the neighbor mean at k=1.
    The first and last samples must be present (no extrapolation). With
    none missing, `values` itself is returned.
    """
    missing = np.isnan(values)
    if not missing.any():
        return values
    if missing[0] or missing[-1]:
        raise ValueError("the first or last value is missing, and a gap at the series "
                         "boundary cannot be filled (no extrapolation)")
    idx = np.arange(len(values))
    out = values.copy()
    out[missing] = np.interp(idx[missing], idx[~missing], values[~missing])
    return out


def resample_ambient_linear(hourly: TimeSeries, grid: np.ndarray) -> TimeSeries:
    """Linearly interpolate hourly readings onto a finer grid.

    Exact at the hourly nodes; grid instants outside the hourly span are an
    error (no extrapolation).
    """
    grid = np.asarray(grid, dtype=np.int64)
    if np.isnan(hourly.values).any():
        raise ValueError("hourly series has missing values; repair before resampling")
    if grid.min() < hourly.timestamps[0] or grid.max() > hourly.timestamps[-1]:
        raise ValueError(
            f"grid [{format_instant(grid.min())}, {format_instant(grid.max())}] extends "
            f"outside hourly span [{format_instant(hourly.timestamps[0])}, "
            f"{format_instant(hourly.timestamps[-1])}]"
        )
    vals = np.interp(grid.astype(np.float64), hourly.timestamps.astype(np.float64),
                     hourly.values)
    return TimeSeries(grid, vals)


def split(ds: TransformerDataset, spec: SplitSpec) -> tuple[TransformerDataset, TransformerDataset]:
    """Cut the dataset into the train and validation ranges of `spec`."""
    ts = ds.timestamps
    if spec.train_start < ts[0] or spec.valid_end > ts[-1]:
        raise ValueError("split ranges extend outside the dataset span")
    train = ds.slice_range(spec.train_start, spec.train_end)
    valid = ds.slice_range(spec.valid_start, spec.valid_end)
    return train, valid


def strided_windows(a: np.ndarray, first: np.ndarray, rows: int) -> np.ndarray:
    """Read-only views of `a` whose [k] is `first`, a view of rows
    0 .. rows-1, moved down k rows, for every k that stays inside `a`.
    Each has the shape and strides of the plain slice view (other strides,
    or a contiguous copy, could change the last bits of a product), and shows
    later writes to `a`. ValueError if `first` is a copy, as flattening a
    Fortran-ordered or column-sliced `a` makes: the strides would read past it."""
    if first.ctypes.data != a.ctypes.data:
        raise ValueError("strided_windows: the first window is a copy, not a view of the matrix")
    return as_strided(first, (len(a) - rows + 1, *first.shape),
                      (a.strides[0], *first.strides), writeable=False)


def _flat_windows(mat: np.ndarray, rows: int) -> np.ndarray:
    """Rows k .. k+rows-1 of the C-ordered `mat`, flattened, for every k."""
    return strided_windows(mat, mat[:rows].reshape(-1), rows)


def make_windows(ds: TransformerDataset, lookback: int, horizon: int,
                 input_channels, target_channels,
                 future_channels=()) -> WindowSet:
    """Extract all contiguous (look-back, target) window pairs.

    For source length N there are N - L - H + 1 windows; target row i starts
    at the grid instant immediately after input row i ends.
    """
    L = check_count("make_windows", "lookback", lookback)
    H = check_count("make_windows", "horizon", horizon)
    N = ds.n
    if N < L + H:
        raise ValueError(f"need at least L+H={L + H} points, dataset has {N}")
    input_channels = tuple(input_channels)
    target_channels = tuple(target_channels)
    future_channels = tuple(future_channels)

    # rows 0 .. N-H-1 feed the inputs, rows L .. N-1 the targets
    inputs = _flat_windows(ds.matrix(input_channels)[:N - H], L)
    targets = _flat_windows(ds.matrix(target_channels)[L:], H)
    future = _flat_windows(ds.matrix(future_channels)[L:], H) if future_channels else None
    return WindowSet(inputs, targets, L, H, input_channels, target_channels,
                     future, future_channels)


def scale_windows(ws: WindowSet, scaler: AffineScaler) -> WindowSet:
    """Scale the matrix under each window matrix once and window it as
    before. The windows must be views as `make_windows` lays them out, row
    k + 1 starting one matrix row after row k; ValueError otherwise."""
    def scaled(windows, rows, channels):
        C, size = len(channels), windows.itemsize
        if windows.strides != (C * size, size) or windows.shape[1] != rows * C:
            raise ValueError(f"scale_windows: windows of shape {windows.shape} and strides "
                             f"{windows.strides} are not views onto one {C}-channel series")
        # such windows cover one run of memory: the matrix under them
        mat = as_strided(windows, (len(windows) + rows - 1, C), (C * size, size), writeable=False)
        gain, offset = scaler.vectors(channels)
        return _flat_windows((mat - offset) * gain, rows)

    future = ws.future_cov
    if future is not None:
        future = scaled(future, ws.horizon, ws.future_channels)
    return replace(ws, inputs=scaled(ws.inputs, ws.lookback, ws.input_channels),
                   targets=scaled(ws.targets, ws.horizon, ws.target_channels), future_cov=future)


def load_dataset(measurements_path, ambient_path, rated_current_a: float | None = None,
                 default_offset: str | None = None) -> TransformerDataset:
    """Load the standard CSV pair into a repaired, aligned dataset.

    The measurements file provides top_oil_c plus either current_a (divided
    by `rated_current_a`, which must then be > 0) or load_factor; current_a
    is taken when the header has both. The ambient file provides hourly
    ambient_c readings which are linearly interpolated onto the measurement
    grid; measurements outside the ambient span are dropped (no extrapolation).
    Each file is read once, by `read_csv`, whose errors name the file.
    """
    header, stamps, column = read_csv(measurements_path, default_offset)
    load_column = next((c for c in ("current_a", "load_factor") if c in header), None)
    if load_column is None:
        raise ValueError(f"{measurements_path} needs a current_a or load_factor column, "
                         f"got header {header}")

    def repaired(name):
        values = column(name)
        try:
            return fill_gaps_adjacent_mean(values)
        except ValueError as exc:
            raise ValueError(f"{measurements_path}: column '{name}': {exc}") from None

    top_oil, load = repaired("top_oil_c"), repaired(load_column)
    if load_column == "current_a":
        load /= check_real("load_dataset", "rated_current_a", rated_current_a, "> 0")

    _, hourly_stamps, ambient_column = read_csv(ambient_path, default_offset)
    readings = ambient_column("ambient_c")
    # Hourly rows with missing readings are dropped; interpolation then spans them.
    present = ~np.isnan(readings)
    if not present.any():
        raise ValueError(f"{ambient_path}: column 'ambient_c' holds no reading")
    hourly = TimeSeries(hourly_stamps[present], readings[present])

    # Trim the grid to the ambient span so interpolation never extrapolates.
    i0 = int(np.searchsorted(stamps, hourly.timestamps[0]))
    i1 = int(np.searchsorted(stamps, hourly.timestamps[-1], side="right"))
    if i1 <= i0:
        raise ValueError(f"the spans of {measurements_path} and {ambient_path} do not overlap")
    grid = stamps[i0:i1]
    if (np.diff(grid) != STEP_5MIN_S).any():
        raise ValueError(f"{measurements_path}: measurement grid is not uniform at "
                         f"{STEP_5MIN_S}-s cadence")
    return TransformerDataset(TimeSeries(grid, top_oil[i0:i1]),
                              resample_ambient_linear(hourly, grid),
                              TimeSeries(grid, load[i0:i1]))
