import csv
import math
import re

import numpy as np
import pytest

from toilcast.series import (CHANNELS, AffineScaler, SplitSpec, TimeSeries,
                             TransformerDataset, WindowSet, fill_gaps_adjacent_mean,
                             format_instant, load_dataset, make_windows, parse_instant,
                             read_csv, read_json, resample_ambient_linear, scale_windows, split,
                             strided_windows, utc_offset)
from toilcast.synth import SynthSpec, gen_dataset, write_dataset_csvs
from util import load_current, make_dataset

START = 1_600_000_000  # on the 5-minute grid


def write_csv(path, rows, header=("timestamp", "top_oil_c")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def synth_csvs(folder, days=1, seed=3):
    """A synthetic dataset and the paths of the CSV pair it was written to."""
    ds, clean, hourly = gen_dataset(SynthSpec(days=days, seed=seed))
    return ds, write_dataset_csvs(folder, ds, hourly, clean)


def edit_rows(path, edit):
    """Rewrite the CSV at `path` with `edit` applied to its list of data
    rows (0-based, after the header), each a line of text."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(rows)]) + "\n")


class TestIngest:
    def test_identity_load(self, tmp_path):
        p = tmp_path / "m.csv"
        stamps = [format_instant(START + 300 * i) for i in range(3)]
        write_csv(p, [(s, str(40.0 + i)) for i, s in enumerate(stamps)])
        header, ts, column = read_csv(p)
        assert header == ["timestamp", "top_oil_c"]
        assert ts.tolist() == [START, START + 300, START + 600]
        assert np.array_equal(column("top_oil_c"), [40.0, 41.0, 42.0])

    def test_duplicate_timestamp_named(self, tmp_path):
        for name in ("measurements", "ambient"):
            _, paths = synth_csvs(tmp_path / name)
            edit_rows(paths[name], lambda rows: rows[:5] + rows[4:])
            t = paths[name].read_text().splitlines()[6].split(",")[0]
            with pytest.raises(ValueError, match=re.escape(
                    f"{paths[name]}: duplicated timestamp {t} at row 5")):
                load_dataset(paths["measurements"], paths["ambient"])

    def test_190_day_file_point_count(self, tmp_path):
        n = 190 * 288 + 1
        p = tmp_path / "m.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["timestamp", "top_oil_c"])
            for i in range(n):
                w.writerow([format_instant(START + 300 * i), "40.0"])
        _, ts, column = read_csv(p)
        assert len(ts) == len(column("top_oil_c")) == 54_721

    def test_unparseable_rows_rejected_with_index(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [(format_instant(START), "1"), ("not-a-date", "2"),
                      (format_instant(START + 300), "3")])
        message = f"{p}: the timestamp does not parse on rows [1] (0-based, after the header"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_csv(p)

    def test_row_without_a_timestamp_cell_rejected(self, tmp_path):
        # the timestamp of a short row reads as None: an AttributeError traceback
        p = tmp_path / "m.csv"
        write_csv(p, [("1", format_instant(START)), ("2",)], header=("top_oil_c", "timestamp"))
        with pytest.raises(ValueError, match=re.escape("does not parse on rows [1]")):
            read_csv(p)

    def test_missing_file_and_column(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "absent.csv")
        p = tmp_path / "m.csv"
        write_csv(p, [(format_instant(START), "1")], header=("timestamp", "other"))
        column = read_csv(p)[2]
        with pytest.raises(ValueError, match=re.escape(
                f"missing column 'top_oil_c' in {p} (header: ['timestamp', 'other'])")):
            column("top_oil_c")
        write_csv(p, [(format_instant(START), "1")], header=("time", "top_oil_c"))
        with pytest.raises(ValueError, match=re.escape(f"missing column 'timestamp' in {p}")):
            read_csv(p)

    def test_non_monotonic_reports_row(self, tmp_path):
        for name in ("measurements", "ambient"):
            _, paths = synth_csvs(tmp_path / name)
            edit_rows(paths[name], lambda rows: rows[:3] + [rows[4], rows[3]] + rows[5:])
            with pytest.raises(ValueError, match=re.escape(
                    f"{paths[name]}: non-monotonic timestamp at row 4")):
                load_dataset(paths["measurements"], paths["ambient"])

    def test_empty_cell_becomes_missing(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [(format_instant(START), "1"), (format_instant(START + 300), ""),
                      (format_instant(START + 600), "3")])
        got = read_csv(p)[2]("top_oil_c")
        assert got[[0, 2]].tolist() == [1.0, 3.0] and np.isnan(got[1])

    @pytest.mark.parametrize("cell", ["nan", "NaN", " nan "])
    def test_nan_cell_becomes_missing(self, tmp_path, cell):
        p = tmp_path / "m.csv"
        write_csv(p, [(format_instant(START), "1"), (format_instant(START + 300), cell)])
        got = read_csv(p)[2]("top_oil_c")
        assert got[0] == 1.0 and np.isnan(got[1])

    @pytest.mark.parametrize("cell", ["abc", "inf", "-inf", "1e999", "4O.5"])
    def test_cell_that_is_not_a_finite_number_named(self, tmp_path, cell):
        # "abc" used to fail with float()'s bare message, and inf passed silently
        p = tmp_path / "m.csv"
        write_csv(p, [(format_instant(START + 300 * i), "40.0", "10.0") for i in range(3)]
                  + [(format_instant(START + 900), "41.0", cell)],
                  header=("timestamp", "top_oil_c", "ambient_c"))
        column = read_csv(p)[2]
        assert column("top_oil_c").tolist() == [40.0, 40.0, 40.0, 41.0]
        message = f"{p}: row 3, column 'ambient_c' holds '{cell}', not a finite number"
        with pytest.raises(ValueError, match=re.escape(message)):
            column("ambient_c")

    @pytest.mark.parametrize("content, message", [
        (b"timestamp,top_oil_c\n\xff\xfe,1\n", "'utf-8' codec can't decode byte 0xff"),
        (b"timestamp,top_oil_c\n2020-07-01T00:00:00Z," + b"4" * 200_000 + b"\n",
         "field larger than field limit"),
    ], ids=["bytes", "long-field"])
    def test_file_csv_cannot_read_is_named(self, tmp_path, content, message):
        # each used to raise the bare error: no file named, and csv.Error a traceback
        p = tmp_path / "m.csv"
        p.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{p} is not a CSV table: {message}")):
            read_csv(p)

    def test_quoted_header_is_unquoted(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(f'"timestamp","top_oil_c"\n{format_instant(START)},40.5\n')
        header, ts, column = read_csv(p)
        assert header == ["timestamp", "top_oil_c"] and column("top_oil_c").tolist() == [40.5]


def corrupt_timestamp(path, row):
    """Replace the timestamp of data row `row` (0-based, after the header)."""
    lines = path.read_text().splitlines()
    lines[row + 1] = "not-a-date" + lines[row + 1][lines[row + 1].index(","):]
    path.write_text("\n".join(lines) + "\n")


class TestLoadDataset:
    @pytest.mark.parametrize("name, rows", [("measurements", [0]), ("measurements", [10]),
                                            ("measurements", [3, 4]), ("ambient", [2])],
                             ids=["first-row", "row-10", "two-rows", "ambient"])
    def test_unparseable_timestamp_names_the_rows(self, tmp_path, name, rows):
        # a bad first row used to start the dataset 5 minutes late without a word,
        # a bad row 10 to fail as a grid that is not uniform, naming no row
        ds, clean, hourly = gen_dataset(SynthSpec(days=1, seed=3))
        paths = write_dataset_csvs(tmp_path, ds, hourly, clean)
        for row in rows:
            corrupt_timestamp(paths[name], row)
        message = (f"{paths[name]}: the timestamp does not parse on rows {rows} "
                   f"(0-based, after the header; {len(rows)} in all)")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(paths["measurements"], paths["ambient"])

    def test_measurement_grid_off_the_5_minute_cadence_rejected(self, tmp_path):
        ds, clean, hourly = gen_dataset(SynthSpec(days=1, seed=3))
        paths = write_dataset_csvs(tmp_path, ds, hourly, clean)
        lines = paths["measurements"].read_text().splitlines()
        paths["measurements"].write_text("\n".join(lines[:11] + lines[12:]) + "\n")
        with pytest.raises(ValueError, match="measurement grid is not uniform at 300-s cadence"):
            load_dataset(paths["measurements"], paths["ambient"])

    @pytest.mark.parametrize("edit", ["quoted-header", "crlf"])
    def test_quoted_header_and_crlf_load_as_the_plain_file(self, tmp_path, edit):
        # a quoted header used to fail as a file without a load column
        _, plain = synth_csvs(tmp_path / "plain")
        _, paths = synth_csvs(tmp_path / "edited")
        for path in (paths["measurements"], paths["ambient"]):
            header, rest = path.read_text().split("\n", 1)
            if edit == "crlf":
                path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            else:
                path.write_text(",".join(f'"{name}"' for name in header.split(",")) + "\n"
                                + rest)
        want = load_dataset(plain["measurements"], plain["ambient"])
        got = load_dataset(paths["measurements"], paths["ambient"])
        assert got.timestamps.tobytes() == want.timestamps.tobytes()
        for name in ("top_oil", "ambient", "load_factor"):
            assert got.channel(name).values.tobytes() == want.channel(name).values.tobytes()

    @pytest.mark.parametrize("column", ["top_oil_c", "load_factor"])
    @pytest.mark.parametrize("row", [0, -1], ids=["first", "last"])
    def test_boundary_gap_names_the_file_and_column(self, tmp_path, column, row):
        # used to say only "cannot fill gaps at series boundary (no extrapolation)"
        _, paths = synth_csvs(tmp_path)
        path = paths["measurements"]
        j = path.read_text().splitlines()[0].split(",").index(column)

        def blank(rows):
            cells = rows[row].split(",")
            cells[j] = ""
            rows[row] = ",".join(cells)
            return rows
        edit_rows(path, blank)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: column '{column}': the first or last value is missing")):
            load_dataset(path, paths["ambient"])

    def test_ambient_without_a_reading_names_the_file(self, tmp_path):
        # used to say only "empty series"
        _, paths = synth_csvs(tmp_path)
        edit_rows(paths["ambient"], lambda rows: [r[:r.index(",") + 1] for r in rows])
        with pytest.raises(ValueError, match=re.escape(
                f"{paths['ambient']}: column 'ambient_c' holds no reading")):
            load_dataset(paths["measurements"], paths["ambient"])

    def test_spans_that_do_not_overlap_name_both_files(self, tmp_path):
        _, paths = synth_csvs(tmp_path)
        edit_rows(paths["ambient"], lambda rows: [r.replace("2020-07-", "2020-09-") for r in rows])
        with pytest.raises(ValueError, match=re.escape(
                f"the spans of {paths['measurements']} and {paths['ambient']} do not overlap")):
            load_dataset(paths["measurements"], paths["ambient"])

    def test_temp_rise_is_top_oil_minus_ambient(self, tmp_path):
        ds, clean, hourly = gen_dataset(SynthSpec(days=1, seed=3))
        paths = write_dataset_csvs(tmp_path, ds, hourly, clean)
        loaded = load_dataset(paths["measurements"], paths["ambient"])
        ts = loaded.timestamps
        for part in (loaded, loaded.slice_range(ts[7], ts[40])):
            assert part.temp_rise.values.tobytes() == \
                (part.top_oil.values - part.ambient.values).tobytes()
            assert np.array_equal(part.temp_rise.timestamps, part.timestamps)


def series_of(vals, step=300):
    ts = START + step * np.arange(len(vals), dtype=np.int64)
    return TimeSeries(ts, np.asarray(vals, dtype=float))


class TestFillGaps:
    def test_single_gap_neighbor_mean(self):
        out = fill_gaps_adjacent_mean(np.array([50.0, np.nan, 54.0]))
        assert np.array_equal(out, [50.0, 52.0, 54.0])

    def test_no_gaps_identity(self):
        values = np.array([1.0, 2.0, 3.0])
        assert fill_gaps_adjacent_mean(values) is values

    def test_run_of_gaps_linear(self):
        out = fill_gaps_adjacent_mean(np.array([10.0, np.nan, np.nan, 16.0]))
        assert np.allclose(out, [10.0, 12.0, 14.0, 16.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("vals", [[np.nan, 1.0, 2.0], [1.0, 2.0, np.nan]])
    def test_boundary_gap_rejected(self, vals):
        with pytest.raises(ValueError, match="boundary"):
            fill_gaps_adjacent_mean(np.array(vals))

    def test_random_gaps_properties(self):
        # seeded random NaN patterns, from none missing to most of the interior
        rng = np.random.default_rng(63)
        lone_gaps = 0
        for _ in range(400):
            n = int(rng.integers(2, 40))
            vals = rng.normal(40.0, 10.0, n)
            missing = rng.random(n) < rng.uniform(0.0, 0.9)
            missing[[0, -1]] = False
            holed = np.where(missing, np.nan, vals)
            out = fill_gaps_adjacent_mean(holed.copy())
            assert np.array_equal(out[~missing], vals[~missing])
            idx = np.arange(n)
            assert np.array_equal(out[missing],
                                  np.interp(idx[missing], idx[~missing], vals[~missing]))
            lone = np.flatnonzero(missing[1:-1] & ~missing[:-2] & ~missing[2:]) + 1
            mean = (vals[lone - 1] + vals[lone + 1]) / 2
            assert (np.abs(out[lone] - mean) <= np.spacing(np.abs(mean))).all()
            lone_gaps += len(lone)
            for end in (0, n - 1):
                edge = holed.copy()
                edge[end] = np.nan
                with pytest.raises(ValueError, match="boundary"):
                    fill_gaps_adjacent_mean(edge)
        assert lone_gaps > 100


class TestResample:
    def test_midpoint(self):
        hourly = series_of([10.0, 12.0], step=3600)
        out = resample_ambient_linear(hourly, np.array([START + 1800], dtype=np.int64))
        assert out.values[0] == pytest.approx(11.0, abs=1e-12)

    def test_node_exactness(self):
        hourly = series_of([10.0, 12.0], step=3600)
        out = resample_ambient_linear(hourly, hourly.timestamps)
        assert np.array_equal(out.values, hourly.values)

    def test_five_minutes_into_hour(self):
        hourly = series_of([0.0, 6.0], step=3600)
        out = resample_ambient_linear(hourly, np.array([START + 300], dtype=np.int64))
        assert out.values[0] == pytest.approx(0.5, abs=1e-12)

    def test_no_extrapolation(self):
        hourly = series_of([0.0, 6.0], step=3600)
        with pytest.raises(ValueError, match="outside"):
            resample_ambient_linear(hourly, np.array([START - 300], dtype=np.int64))

    def test_interpolation_bounded_by_bracketing_pair(self):
        rng = np.random.default_rng(3)
        hourly = series_of(rng.normal(10, 8, 48), step=3600)
        grid = START + 300 * np.arange(47 * 12 + 1, dtype=np.int64)
        out = resample_ambient_linear(hourly, grid)
        for i in range(47):
            seg = out.values[i * 12:(i + 1) * 12 + 1]
            lo = min(hourly.values[i], hourly.values[i + 1])
            hi = max(hourly.values[i], hourly.values[i + 1])
            assert seg.min() >= lo - 1e-12 and seg.max() <= hi + 1e-12


class TestLoadFactor:
    """A current_a file loads as current_a / rated_current_a."""

    def test_rated_gives_unity(self, tmp_path):
        assert load_current(tmp_path, [400.0] * 13, 400.0).load_factor.values.tolist() == \
            [1.0] * 13

    def test_zero_current(self, tmp_path):
        assert load_current(tmp_path, [0.0], 400.0).load_factor.values.tolist() == [0.0]

    def test_overload(self, tmp_path):
        assert load_current(tmp_path, [500.0], 400.0).load_factor.values.tolist() == [1.25]

    def test_load_is_current_over_rated_bit_for_bit(self, tmp_path):
        current = np.random.default_rng(5).uniform(0.0, 600.0, 40)
        current[[7, 20, 21]] = np.nan
        ds = load_current(tmp_path, current, 437.3)
        assert ds.load_factor.values.tobytes() == \
            (fill_gaps_adjacent_mean(current) / 437.3).tobytes()

    @pytest.mark.parametrize("rated", [0.0, -5.0, None])
    def test_bad_rated(self, tmp_path, rated):
        with pytest.raises(ValueError, match=re.escape(
                f"load_dataset.rated_current_a must be finite and > 0, got {rated!r}")):
            load_current(tmp_path, [1.0], rated)

    def test_header_without_a_load_column_names_both(self, tmp_path):
        _, paths = synth_csvs(tmp_path)
        path = paths["measurements"]
        path.write_text(path.read_text().replace("load_factor", "load", 1))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} needs a current_a or load_factor column, "
                "got header ['timestamp', 'top_oil_c', 'load']")):
            load_dataset(path, paths["ambient"])


class TestSplit:
    def test_seven_three(self):
        ds = make_dataset(10, start=START)
        ts = ds.timestamps
        spec = SplitSpec(ts[0], ts[6], ts[7], ts[9])
        train, valid = split(ds, spec)
        assert (train.n, valid.n) == (7, 3)

    def test_42_18_day_counts(self):
        # a 60-day-plus-one-step grid makes both slices full inclusive days
        n = 60 * 288 + 2
        ds = make_dataset(n, start=START)
        day = 86400
        spec = SplitSpec(START, START + 42 * day, START + 42 * day + 300,
                         START + 60 * day + 300)
        train, valid = split(ds, spec)
        assert (train.n, valid.n) == (12_097, 5_185)

    def test_empty_valid_rejected(self):
        ds = make_dataset(10, start=START)
        ts = ds.timestamps
        with pytest.raises(ValueError):
            SplitSpec(ts[0], ts[9], ts[9] + 300, ts[9])  # inverted/empty valid range

    def test_overlap_rejected(self):
        ts0 = START
        with pytest.raises(ValueError, match="strictly before"):
            SplitSpec(ts0, ts0 + 3000, ts0 + 3000, ts0 + 6000)

    def test_outside_span_rejected(self):
        ds = make_dataset(10, start=START)
        ts = ds.timestamps
        with pytest.raises(ValueError, match="outside"):
            split(ds, SplitSpec(ts[0] - 300, ts[6], ts[7], ts[9]))

    def test_temp_rise_identity_survives_split(self):
        ds = make_dataset(50, start=START)
        ts = ds.timestamps
        train, valid = split(ds, SplitSpec(ts[0], ts[29], ts[30], ts[49]))
        for part in (train, valid):
            assert np.abs(part.temp_rise.values
                          - (part.top_oil.values - part.ambient.values)).max() <= 1e-9


class TestWindows:
    def test_count(self):
        ws = make_windows(make_dataset(10), 3, 1, ("top_oil",), ("top_oil",))
        assert ws.n_windows == 7

    def test_boundary_single_window(self):
        ws = make_windows(make_dataset(4), 3, 1, ("top_oil",), ("top_oil",))
        assert ws.n_windows == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="L\\+H"):
            make_windows(make_dataset(3), 3, 1, ("top_oil",), ("top_oil",))

    def test_target_follows_input(self):
        ds = make_dataset(20)
        L, C = 4, 2
        ws = make_windows(ds, L, 1, ("top_oil", "ambient"), ("top_oil",))
        X = ds.matrix(("top_oil", "ambient"))
        for i in range(ws.n_windows):
            assert np.array_equal(ws.inputs[i], X[i:i + L].ravel())
            assert ws.targets[i, 0] == ds.top_oil.values[i + L]

    def test_future_covariates_align_with_targets(self):
        ds = make_dataset(15)
        ws = make_windows(ds, 4, 2, ("top_oil", "ambient", "load_factor"),
                          ("top_oil",), ("ambient", "load_factor"))
        F = ds.matrix(("ambient", "load_factor"))
        for i in range(ws.n_windows):
            assert np.array_equal(ws.future_cov[i], F[i + 4:i + 6].ravel())


def random_channels(rng, allow_empty=False) -> tuple[str, ...]:
    """A random subset of the channels in random order."""
    k = int(rng.integers(0 if allow_empty else 1, len(CHANNELS) + 1))
    return tuple(rng.permutation(CHANNELS)[:k].tolist())


def random_windows(rng, seed):
    """make_windows over random N, L, H and channel subsets, with the
    (N, C) matrices of its three channel sets."""
    N = int(rng.integers(2, 60))
    L = int(rng.integers(1, N))
    H = int(rng.integers(1, N - L + 1))
    ds = make_dataset(N, seed=seed)
    chans = random_channels(rng), random_channels(rng), random_channels(rng, allow_empty=True)
    ws = make_windows(ds, L, H, *chans)
    return ds, ws, [ds.matrix(c) if c else None for c in chans]


def random_scaler(rng) -> AffineScaler:
    return AffineScaler({n: (rng.uniform(0.001, 10) * rng.choice([-1.0, 1.0]),
                             rng.uniform(-50, 50)) for n in CHANNELS})


def window_arrays(ws):
    return [a for a in (ws.inputs, ws.targets, ws.future_cov) if a is not None]


class TestWindowProperties:
    """Seeded loops over N, L, H and the channel subsets."""

    def test_rows_equal_the_plain_slices(self):
        rng = np.random.default_rng(101)
        for trial in range(80):
            ds, ws, (X, Y, F) = random_windows(rng, trial)
            L, H, n = ws.lookback, ws.horizon, ds.n - ws.lookback - ws.horizon + 1
            assert ws.n_windows == n
            assert ws.inputs.shape == (n, L * X.shape[1])
            for i in range(n):
                assert np.array_equal(ws.inputs[i], X[i:i + L].ravel())
                assert np.array_equal(ws.targets[i], Y[i + L:i + L + H].ravel())
                if F is None:
                    assert ws.future_cov is None
                else:
                    assert np.array_equal(ws.future_cov[i], F[i + L:i + L + H].ravel())

    def test_scaled_windows_bit_equal_the_scaled_copies(self):
        # the arithmetic of scaling each copied window row: (x - offset) * gain
        rng = np.random.default_rng(102)
        for trial in range(80):
            _, ws, _ = random_windows(rng, trial)
            sc = random_scaler(rng)
            scaled = scale_windows(ws, sc)
            pairs = [(ws.inputs, scaled.inputs, ws.input_channels, ws.lookback),
                     (ws.targets, scaled.targets, ws.target_channels, ws.horizon)]
            if ws.future_cov is not None:
                pairs.append((ws.future_cov, scaled.future_cov, ws.future_channels,
                              ws.horizon))
            for raw, got, channels, steps in pairs:
                gain, offset = sc.vectors(channels)
                want = (np.array(raw) - np.tile(offset, steps)) * np.tile(gain, steps)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_views_are_read_only(self):
        rng = np.random.default_rng(103)
        for trial in range(20):
            _, ws, _ = random_windows(rng, trial)
            for a in window_arrays(ws) + window_arrays(scale_windows(ws, random_scaler(rng))):
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0, 0] = 1.0

    def test_scaling_leaves_the_dataset_and_the_windows_untouched(self):
        rng = np.random.default_rng(104)
        for trial in range(20):
            ds, ws, _ = random_windows(rng, trial)
            before = [ds.channel(c).values.tobytes() for c in CHANNELS]
            windows = [a.tobytes() for a in window_arrays(ws)]
            scale_windows(ws, random_scaler(rng))
            assert [ds.channel(c).values.tobytes() for c in CHANNELS] == before
            assert [a.tobytes() for a in window_arrays(ws)] == windows

    def test_windows_are_views_onto_the_series(self):
        # one (N, C) matrix under each window set, not N - L - H + 1 rows of L * C
        ds = make_dataset(500)
        ws = make_windows(ds, 48, 1, ("top_oil", "ambient", "load_factor"), ("top_oil",))
        scaled = scale_windows(ws, random_scaler(np.random.default_rng(0)))
        for a in (ws.inputs, scaled.inputs):
            assert a.strides == (3 * 8, 8)   # row k + 1 starts one matrix row later
            assert np.shares_memory(a[0], a[1])

    @pytest.mark.parametrize("layout", ["fortran", "column-slice"])
    def test_matrix_whose_flat_window_is_a_copy_rejected(self, layout):
        rng = np.random.default_rng(105)
        wide = rng.normal(size=(20, 5))
        a = np.asfortranarray(wide[:, :3]) if layout == "fortran" else wide[:, 1:4]
        L = 4
        with pytest.raises(ValueError, match="copy"):
            strided_windows(a, a[:L].reshape(-1), L)
        # a view of the first rows, unflattened, strides along the matrix as it lies
        views = strided_windows(a, a[None, :L], L)
        assert views.shape == (len(a) - L + 1, 1, L, 3)
        for k in range(len(views)):
            assert np.array_equal(views[k], a[None, k:k + L])

    def test_plain_window_copies_not_scaled(self):
        ws = make_windows(make_dataset(20), 3, 1, ("top_oil", "ambient"), ("top_oil",))
        copied = WindowSet(np.array(ws.inputs), np.array(ws.targets), 3, 1,
                           ws.input_channels, ws.target_channels)
        with pytest.raises(ValueError, match="not views onto one 2-channel series"):
            scale_windows(copied, random_scaler(np.random.default_rng(0)))

    def test_hand_built_single_step_windows_scale(self):
        # L = H = 1: a plain (n, C) matrix is its own window view
        x = np.random.default_rng(106).normal(size=(30, 2))
        ws = WindowSet(x, x[:, :1].copy(), 1, 1, ("top_oil", "ambient"), ("top_oil",))
        sc = random_scaler(np.random.default_rng(1))
        gain, offset = sc.vectors(ws.input_channels)
        assert scale_windows(ws, sc).inputs.tobytes() == ((x - offset) * gain).tobytes()


class TestScaler:
    def test_round_trip(self):
        # scale_windows, then invert the map read back through `vectors`
        rng = np.random.default_rng(11)
        ws = make_windows(make_dataset(40), 4, 1, ("top_oil", "ambient"), ("top_oil",))
        for _ in range(50):
            sc = AffineScaler({n: (rng.uniform(0.001, 10) * rng.choice([-1.0, 1.0]),
                                   rng.uniform(-50, 50)) for n in ("top_oil", "ambient")})
            gain, offset = sc.vectors(ws.input_channels)
            back = scale_windows(ws, sc).inputs / np.tile(gain, 4) + np.tile(offset, 4)
            assert np.abs(back - ws.inputs).max() <= 1e-9

    def test_vectors_name_the_missing_channels(self):
        # used to raise a bare KeyError: 'ambient'
        sc = AffineScaler({"top_oil": (0.01, 0.0)})
        with pytest.raises(ValueError, match=re.escape(
                "AffineScaler has no gain and offset for ['ambient', 'load_factor']")):
            sc.vectors(("top_oil", "ambient", "load_factor"))

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            AffineScaler({"top_oil": (0.0, 1.0)})

    @pytest.mark.parametrize("pair", [(math.nan, 0.0), (0.01, math.inf), (-math.inf, 1.0),
                                      (1.0, math.nan)])
    def test_non_finite_gain_or_offset_names_the_channel(self, pair):
        with pytest.raises(ValueError, match=r"AffineScaler\.ambient\.(gain|offset) must be "
                                             r"finite"):
            AffineScaler({"top_oil": (0.01, 0.0), "ambient": pair})

    def test_from_config_requires_gain_and_offset(self):
        # {"offset": 0.0} used to be read as gain 1.0
        with pytest.raises(ValueError, match=re.escape(
                "AffineScaler.top_oil is missing keys ['gain']")):
            AffineScaler.from_config({"top_oil": {"offset": 0.0}})
        sc = AffineScaler.from_config({"top_oil": {"gain": 0.01, "offset": 0},
                                       "ambient": {"gain": 1, "offset": 5}})
        assert sc.channels == {"top_oil": (0.01, 0.0), "ambient": (1.0, 5.0)}

    @pytest.mark.parametrize("entry", [5, 0.01, None, [0.01, 0.0], "gain"])
    def test_from_config_entry_must_be_an_object(self, entry):
        with pytest.raises(ValueError, match=r"AffineScaler\.ambient must be an object with "
                                             r"keys 'gain' and 'offset', got "):
            AffineScaler.from_config({"top_oil": {"gain": 0.01, "offset": 0.0}, "ambient": entry})

    def test_from_config_misspelt_key_names_channel_and_key(self):
        # {"gian": 0.01} used to be read as gain 1.0
        with pytest.raises(ValueError, match=r"AffineScaler\.top_oil has unknown keys "
                                             r"\['gian'\]"):
            AffineScaler.from_config({"top_oil": {"gian": 0.01}})

    def test_scale_windows_per_channel(self):
        ds = make_dataset(12)
        ws = make_windows(ds, 3, 1, ("top_oil", "ambient"), ("top_oil",))
        sc = AffineScaler({"top_oil": (0.01, 0.0), "ambient": (2.0, 5.0)})
        scaled = scale_windows(ws, sc)
        assert np.allclose(scaled.inputs[:, 0::2], ws.inputs[:, 0::2] * 0.01)
        assert np.allclose(scaled.inputs[:, 1::2], (ws.inputs[:, 1::2] - 5.0) * 2.0)
        assert np.allclose(scaled.targets, ws.targets * 0.01)


class TestInstants:
    def test_zulu_and_offset(self):
        base = parse_instant("2020-07-01T00:00:00Z")
        assert parse_instant("2020-07-01T02:00:00+02:00") == base
        assert parse_instant("2020-07-01T00:00:00", utc_offset("+01:00")) == base - 3600

    @pytest.mark.parametrize("text, hours", [("+01:00", 1), ("+0100", 1), ("-05:30", -5.5),
                                             ("Z", 0), ("UTC", 0), (None, 0)])
    def test_utc_offset_forms(self, text, hours):
        naive = parse_instant("2020-07-01T00:00:00")
        assert parse_instant("2020-07-01T00:00:00", utc_offset(text)) == naive - hours * 3600

    @pytest.mark.parametrize("text", ["Europe/Paris", "+25:00", "+01", ""])
    def test_bad_utc_offset_named(self, text):
        with pytest.raises(ValueError, match=re.escape(f"UTC offset {text!r} must be")):
            utc_offset(text)

    def test_bad_offset_named_for_naive_rows(self, tmp_path):
        # the offset is parsed once per file, so the error names it, not every naive row
        p = tmp_path / "m.csv"
        write_csv(p, [("2020-07-01T00:00:00", "40.0"), ("2020-07-01T00:05:00", "41.0")])
        with pytest.raises(ValueError, match=re.escape("UTC offset 'Europe/Paris' must be")):
            read_csv(p, default_offset="Europe/Paris")
        assert read_csv(p, default_offset="+0100")[1].tolist() == [parse_instant("2020-06-30T23:00:00Z"),
                                           parse_instant("2020-06-30T23:05:00Z")]

    def test_bad_offset_named_by_the_split(self):
        with pytest.raises(ValueError, match=re.escape("UTC offset '+1:30' must be")):
            SplitSpec.from_isoformat(["2020-07-01T00:00:00", "2020-07-02T00:00:00"],
                                     ["2020-07-03T00:00:00", "2020-07-04T00:00:00"], "+1:30")

    def test_round_trip(self):
        t = parse_instant("2020-11-19T09:35:00Z")
        assert parse_instant(format_instant(t)) == t

    @pytest.mark.parametrize("text, offset", [(5, None), (None, None),
                                              ("2020-07-01T00:00:00", 1)])
    def test_non_string_timestamp_or_offset_rejected(self, text, offset):
        message = (f"timestamp {text!r} must be a string" if offset is None
                   else f"UTC offset {offset!r} must be")
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_instant(text, utc_offset(offset))


class TestDatasetInvariants:
    def test_negative_load_rejected(self):
        ds = make_dataset(5)
        bad = ds.load_factor.with_values(ds.load_factor.values - 10.0)
        with pytest.raises(ValueError, match="load_factor"):
            TransformerDataset(ds.top_oil, ds.ambient, bad)

    @pytest.mark.parametrize("name", ["top_oil", "ambient", "load_factor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_names_the_channel_and_instant(self, name, value):
        # a NaN top-oil sample used to reach training as a non-finite gradient,
        # and evaluation as an MAE of NaN
        ds = make_dataset(6)
        channels = {n: getattr(ds, n) for n in ("top_oil", "ambient", "load_factor")}
        values = channels[name].values.copy()
        values[[3, 5]] = value
        channels[name] = channels[name].with_values(values)
        with pytest.raises(ValueError, match=re.escape(
                f"channel '{name}' holds {value} at {format_instant(ds.timestamps[3])}")):
            TransformerDataset(**channels)

    def test_unknown_channel_is_a_value_error(self):
        # used to raise KeyError, which no `except ValueError` on the way caught
        with pytest.raises(ValueError, match=re.escape("unknown channel 'oil' (expected one of")):
            make_dataset(5).channel("oil")

    def test_misaligned_channel_rejected(self):
        ds = make_dataset(5)
        shifted = TimeSeries(ds.timestamps + 300, ds.ambient.values)
        with pytest.raises(ValueError, match="aligned"):
            TransformerDataset(ds.top_oil, shifted, ds.load_factor)


@pytest.mark.parametrize("content", [b'{"psi": 5.0, }', b"\xff\xfe{}"], ids=["json", "bytes"])
def test_read_json_names_the_file(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"{path} is not valid JSON: ")):
        read_json(path)
