import re
from dataclasses import replace

import numpy as np
import pytest

from toilcast import iec
from toilcast.iec import IecParams, load_bracket, simulate, steady_state
from toilcast.series import TimeSeries
from util import simulate_oracle

P = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
              tau_w_min=10.0)


def const_series(value, n, dt_s=300):
    ts = (np.arange(n, dtype=np.int64)) * dt_s
    return TimeSeries(ts, np.full(n, float(value)))


def held_input_run(K, Ta, t0, p, step_s):
    """`simulate` on an explicit grid of `step_s` seconds from K's first
    instant, each point holding the inputs of the interval it falls in, read
    back at K's instants."""
    ts = np.arange(K.timestamps[0], K.timestamps[-1] + 1, step_s)
    left = np.searchsorted(K.timestamps, ts, side="right") - 1
    fine = simulate(TimeSeries(ts, K.values[left]), TimeSeries(ts, Ta.values[left]), t0, p)
    return fine.values[np.searchsorted(ts, K.timestamps)]


class TestSteadyState:
    def test_rated_load_bracket_is_one(self):
        # at K=1 the loss bracket collapses to 1 regardless of psi and chi
        assert steady_state(1.0, 20.0, P) == pytest.approx(58.3, abs=1e-12)

    def test_no_load_hand_value(self):
        p = IecParams(psi=5.0, delta_t_or_k=38.3, chi=1.0, k11=1.0, tau_o_min=180.0,
                      tau_w_min=10.0)
        assert steady_state(0.0, 20.0, p) == pytest.approx(20.0 + 38.3 / 6.0, abs=1e-12)

    def test_large_psi_limit_at_no_load(self):
        p = IecParams(psi=1e9, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
                      tau_w_min=10.0)
        assert steady_state(0.0, 20.0, p) == pytest.approx(20.0, abs=0.01)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="K"):
            steady_state(-0.1, 20.0, P)

    def test_non_finite_load_rejected(self):
        # a NaN load used to give a NaN steady state
        with pytest.raises(ValueError, match="load factor K must be finite and >= 0, got nan$"):
            steady_state(np.nan, 20.0, P)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ambient_rejected(self, value):
        # an infinite ambient used to give an infinite steady state, a NaN one NaN
        with pytest.raises(ValueError, match=re.escape(
                f"steady_state.t_ambient must be finite, got {value!r}")):
            steady_state(1.0, value, P)


class TestStep:
    """One Euler update: a two-point `simulate` run whose interval is one sub-step."""

    def test_steady_state_is_fixed_point(self):
        ss = steady_state(0.8, 15.0, P)
        out = simulate(const_series(0.8, 2), const_series(15.0, 2), ss, P)
        assert abs(out.values[1] - ss) <= 1e-9

    def test_hand_update(self):
        # K=1 puts the drive at delta_t_or; starting at ambient, one minute
        # over k11*tau_o = 100 min moves 1% of the way
        p = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=100.0,
                      tau_w_min=10.0)
        out = simulate(const_series(1.0, 2, dt_s=60), const_series(20.0, 2, dt_s=60),
                       20.0, p)
        assert out.values[1] == pytest.approx(20.0 + 0.01 * 38.3, abs=1e-12)


class TestCheckTimestep:
    """`simulate` meets the step rule dt <= tau_w / 2 (tau_w = 10 min) by
    cutting each interval into the fewest equal sub-steps that do."""

    def test_boundary_accepted(self):
        # an interval of exactly tau_w / 2 is one Euler update of 5 / 180 of the way
        traj = simulate(const_series(1.0, 3), const_series(20.0, 3), 30.0, P)
        assert traj.values[1] == pytest.approx(30.0 + 5.0 / 180.0 * (38.3 - 10.0), abs=1e-12)

    def test_boundary_exceeded(self):
        # a 6-minute interval used to raise; it is now two sub-steps of 3 minutes
        K, Ta = const_series(1.0, 3, dt_s=360), const_series(20.0, 3, dt_s=360)
        traj = simulate(K, Ta, 30.0, P)
        assert np.array_equal(traj.values, held_input_run(K, Ta, 30.0, P, 180))
        half = 30.0 + 3.0 / 180.0 * (38.3 - 10.0)
        assert traj.values[1] == pytest.approx(half + 3.0 / 180.0 * (38.3 - (half - 20.0)),
                                               abs=1e-12)

    def test_small_step(self):
        # tau_w = 1 min cuts each 5-minute interval into ten sub-steps of 30 s
        K, Ta, p = const_series(1.0, 3), const_series(20.0, 3), replace(P, tau_w_min=1.0)
        assert np.array_equal(simulate(K, Ta, 30.0, p).values,
                              held_input_run(K, Ta, 30.0, p, 30))

    @pytest.mark.parametrize("tau_w_min, count", [(1e-300, "1e+301"), (1e-320, "inf"),
                                                  (1e307, "0.0")])
    def test_sub_step_count_outside_int64_names_tau_w(self, tau_w_min, count):
        # tau_w_min=1e-300 used to give a constant trace and an invalid-cast
        # warning: 1e+301 sub-steps cast to int64 became a negative count
        K, Ta, p = const_series(1.0, 3), const_series(20.0, 3), replace(P, tau_w_min=tau_w_min)
        with pytest.raises(ValueError, match=re.escape(
                f"IecParams.tau_w_min = {tau_w_min} cuts the 300 s interval after row 0 "
                f"into {count} sub-steps")):
            simulate(K, Ta, 30.0, p)

    def test_sub_step_total_past_the_ceiling_names_tau_w(self):
        # 2e16 sub-steps in each 5-minute interval fit in int64, and the loop
        # ran without end
        K, Ta, p = const_series(1.0, 5), const_series(20.0, 5), replace(P, tau_w_min=5e-16)
        with pytest.raises(ValueError, match=re.escape(
                "IecParams.tau_w_min = 5e-16 cuts the series into 8e+16 sub-steps, "
                f"more than MAX_SUB_STEPS = {iec.MAX_SUB_STEPS}")):
            simulate(K, Ta, 30.0, p)

    def test_sub_step_total_at_the_ceiling_accepted(self, monkeypatch):
        # tau_w = 1 min: two intervals of ten sub-steps each
        K, Ta, p = const_series(1.0, 3), const_series(20.0, 3), replace(P, tau_w_min=1.0)
        monkeypatch.setattr(iec, "MAX_SUB_STEPS", 20)
        assert np.array_equal(simulate(K, Ta, 30.0, p).values, held_input_run(K, Ta, 30.0, p, 30))
        monkeypatch.setattr(iec, "MAX_SUB_STEPS", 19)
        with pytest.raises(ValueError, match="into 20 sub-steps, more than MAX_SUB_STEPS = 19"):
            simulate(K, Ta, 30.0, p)


def closed_form(t_min, t0, t_ss, p):
    return t_ss + (t0 - t_ss) * np.exp(-t_min / (p.k11 * p.tau_o_min))


class TestSimulate:
    def test_constant_at_steady_state_stays(self):
        ss = steady_state(0.7, 10.0, P)
        K = const_series(0.7, 200)
        Ta = const_series(10.0, 200)
        traj = simulate(K, Ta, ss, P)
        assert np.abs(traj.values - ss).max() <= 1e-9

    def run_vs_closed_form(self, spacing_min):
        # one sub-step per interval: the grid spacing is the step
        t_ss = steady_state(1.0, 20.0, P)
        t0 = t_ss + 4.0
        horizon_min = 10.0 * P.k11 * P.tau_o_min
        n = int(round(horizon_min / spacing_min)) + 1
        dt_s = int(round(spacing_min * 60))
        K = const_series(1.0, n, dt_s)
        Ta = const_series(20.0, n, dt_s)
        traj = simulate(K, Ta, t0, P)
        exact = closed_form(K.timestamps / 60.0, t0, t_ss, P)
        return float(np.abs(traj.values - exact).max())

    def test_matches_closed_form(self):
        assert self.run_vs_closed_form(P.tau_o_min / 100.0) <= 0.01

    def test_first_order_convergence(self):
        e1 = self.run_vs_closed_form(P.tau_o_min / 100.0)
        e2 = self.run_vs_closed_form(P.tau_o_min / 200.0)
        assert 1.7 <= e1 / e2 <= 2.3

    def test_substepping_matches_fine_cadence_run(self):
        rng = np.random.default_rng(5)
        n = 80
        ts5 = np.arange(n, dtype=np.int64) * 300
        K5 = TimeSeries(ts5, rng.uniform(0.2, 1.1, n))
        Ta5 = TimeSeries(ts5, rng.uniform(5.0, 20.0, n))
        p = replace(P, tau_w_min=5.0)
        sub = simulate(K5, Ta5, 40.0, p)  # two sub-steps per interval

        # same trajectory on an explicit 2.5-minute grid with held inputs
        ts_f = np.arange(2 * (n - 1) + 1, dtype=np.int64) * 150
        K_f = TimeSeries(ts_f, np.repeat(K5.values, 2)[:len(ts_f)])
        Ta_f = TimeSeries(ts_f, np.repeat(Ta5.values, 2)[:len(ts_f)])
        fine = simulate(K_f, Ta_f, 40.0, p)
        assert np.array_equal(sub.values, fine.values[::2])

    def test_ambient_shift_equivariance(self):
        rng = np.random.default_rng(0)
        n = 300
        ts = np.arange(n, dtype=np.int64) * 300
        K = TimeSeries(ts, rng.uniform(0.2, 1.2, n))
        Ta = TimeSeries(ts, rng.uniform(0.0, 20.0, n))
        c = 7.5
        base = simulate(K, Ta, 30.0, P)
        shifted = simulate(K, TimeSeries(ts, Ta.values + c), 30.0 + c, P)
        assert np.abs(shifted.values - (base.values + c)).max() <= 1e-9

    def test_monotone_relaxation(self):
        # inside the explicit-Euler stability region the distance to steady
        # state never grows under constant inputs
        t_ss = steady_state(0.5, 10.0, P)
        n = 500
        K = const_series(0.5, n)
        Ta = const_series(10.0, n)
        for t0 in (t_ss + 25.0, t_ss - 25.0):
            traj = simulate(K, Ta, t0, P)
            gap = np.abs(traj.values - t_ss)
            assert (np.diff(gap) <= 1e-12).all()

    def test_misaligned_inputs_rejected(self):
        K = const_series(1.0, 10)
        Ta = TimeSeries(K.timestamps + 300, np.full(10, 20.0))
        with pytest.raises(ValueError, match="aligned"):
            simulate(K, Ta, 30.0, P)

    def test_step_rule_enforced(self):
        # tau_w = 4 min bounds dt at 2 min, which used to be an error on
        # 5-minute data: each interval is now three sub-steps of 100 s
        rng = np.random.default_rng(3)
        ts = np.arange(10, dtype=np.int64) * 300
        K, Ta = TimeSeries(ts, rng.uniform(0.2, 1.2, 10)), TimeSeries(ts, rng.uniform(5, 20, 10))
        tight = replace(P, tau_w_min=4.0)
        traj = simulate(K, Ta, 30.0, tight)
        assert np.array_equal(traj.values, held_input_run(K, Ta, 30.0, tight, 100))
        assert not np.array_equal(traj.values, simulate(K, Ta, 30.0, P).values)

    def test_non_uniform_grid_substeps_each_interval(self):
        # a 50-minute gap after two 5-minute steps is 10 Euler steps, not one
        ts = np.array([0, 300, 600, 3600], dtype=np.int64)
        K = TimeSeries(ts, np.ones(4))
        Ta = TimeSeries(ts, np.full(4, 20.0))
        traj = simulate(K, Ta, 20.0, P)
        uniform = simulate(const_series(1.0, 13), const_series(20.0, 13), 20.0, P)
        assert np.array_equal(traj.values, uniform.values[[0, 1, 2, 12]])
        assert traj.values[-1] == pytest.approx(30.99, abs=0.01)

    def test_interval_of_any_length_integrates(self):
        # a 400-s interval used to be an error, as 5 minutes does not divide
        # it: it is now two sub-steps of 200 s, the held-input run on a 200-s grid
        ts = np.array([0, 300, 600, 1000], dtype=np.int64)
        K = TimeSeries(ts, np.array([1.0, 0.6, 1.2, 0.8]))
        Ta = TimeSeries(ts, np.array([20.0, 18.0, 15.0, 17.0]))
        traj = simulate(K, Ta, 20.0, P)
        assert np.array_equal(traj.values[:3], simulate(K.slice_range(0, 600),
                                                        Ta.slice_range(0, 600), 20.0, P).values)
        last = held_input_run(K.slice_range(600, 1000), Ta.slice_range(600, 1000),
                              traj.values[2], P, 200)
        assert traj.values[-1] == last[-1]

    @pytest.mark.parametrize("name, value", [("load", np.nan), ("load", np.inf),
                                             ("ambient", np.nan), ("ambient", -np.inf)])
    def test_non_finite_input_names_the_series_and_row(self, name, value):
        # a NaN load used to surface as "solver diverged at step 3 (dt too large?)"
        K, Ta = const_series(1.0, 6), const_series(20.0, 6)
        (K if name == "load" else Ta).values[2] = value
        message = (f"load factor K must be finite and >= 0, got {value} at row 2"
                   if name == "load" else f"simulate: ambient at row 2 is {value}, not finite")
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(K, Ta, 30.0, P)

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError, match="simulate.t0 must be finite, got nan"):
            simulate(const_series(1.0, 6), const_series(20.0, 6), np.nan, P)

    def test_negative_load_names_the_row(self):
        # -0.8 used to run as +0.8: the load enters the bracket squared
        K = const_series(0.8, 6)
        K.values[2] = -0.8
        message = "load factor K must be finite and >= 0, got -0.8 at row 2"
        with pytest.raises(ValueError, match=message):
            simulate(K, const_series(20.0, 6), 30.0, P)
        with pytest.raises(ValueError, match=message):
            load_bracket(K.values, P)

    def test_dt_must_divide_series_step(self):
        # tau_w = 4.5 min allows 2.25 min, which does not divide 5 minutes:
        # the step taken is the 100 s that does, not 2.25 min and a remainder
        K, Ta, p = const_series(1.0, 10), const_series(20.0, 10), replace(P, tau_w_min=4.5)
        assert np.array_equal(simulate(K, Ta, 30.0, p).values,
                              held_input_run(K, Ta, 30.0, p, 100))


def random_inputs(seed, n, keep=1.0):
    """Seeded load and ambient on a 5-minute grid, each row after the first
    kept with probability `keep`, plus a random starting temperature."""
    rng = np.random.default_rng(seed)
    ts = 300 * np.arange(n, dtype=np.int64)
    rows = np.flatnonzero(np.r_[True, rng.random(n - 1) < keep])
    K = TimeSeries(ts[rows], rng.uniform(0.0, 1.5, n)[rows])
    Ta = TimeSeries(ts[rows], rng.normal(15.0, 8.0, n)[rows])
    return K, Ta, float(rng.uniform(10.0, 90.0))


def outcome(solver, *args):
    """The trajectory a solver returns, or the type and message it raises."""
    try:
        return solver(*args).values
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


def same_outcome(a, b):
    return (np.array_equal(a, b) if isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            else a == b)


class TestFlatLoopMatchesNestedOracle:
    """`simulate` runs one loop over the intervals of a uniform grid taken in
    one sub-step each, and a nested loop over the sub-steps otherwise; the
    oracle always loops per interval, then per sub-step, working out each
    interval's sub-steps in Python. Both do the same float operations in the
    same order, so every value and every message agrees bit for bit.

    `dt` is the sub-step on the 5-minute grid: tau_w = 2 dt gives 1, 2, 3
    and 5 sub-steps per interval."""

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("dt", [5.0, 2.5, 5 / 3, 1.0])
    def test_uniform_grid(self, seed, dt):
        K, Ta, t0 = random_inputs(seed, 400)
        p = replace(P, tau_w_min=2 * dt)
        new, old = simulate(K, Ta, t0, p), simulate_oracle(K, Ta, t0, p)
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.timestamps, old.timestamps)

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("dt", [5.0, 2.5])
    def test_grid_with_dropped_rows(self, seed, dt):
        K, Ta, t0 = random_inputs(seed, 400, keep=0.7)
        p = replace(P, tau_w_min=2 * dt)
        assert (np.diff(K.timestamps) > 300).any()
        assert np.array_equal(simulate(K, Ta, t0, p).values,
                              simulate_oracle(K, Ta, t0, p).values)

    @pytest.mark.parametrize("dt", [5.0, 2.5, 1.0])
    def test_one_point_series(self, dt):
        K, Ta, t0 = random_inputs(7, 1)
        p = replace(P, tau_w_min=2 * dt)
        traj = simulate(K, Ta, t0, p)
        assert np.array_equal(traj.values, simulate_oracle(K, Ta, t0, p).values)
        assert traj.values.tolist() == [t0]

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("dt", [5.0, 2.5])
    def test_diverging_run_names_the_same_step(self, seed, dt):
        # alpha = dt / tau_o > 2: the Euler update overshoots and grows until inf - inf
        fast = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=1.0,
                         tau_w_min=2 * dt)
        K, Ta, t0 = random_inputs(seed, 1200, keep=0.9)
        with pytest.raises(FloatingPointError) as new:
            simulate(K, Ta, t0, fast)
        with pytest.raises(FloatingPointError) as old:
            simulate_oracle(K, Ta, t0, fast)
        assert str(new.value) == str(old.value)
        assert "diverged at step" in str(new.value)

    @pytest.mark.parametrize("case", ["misaligned", "step rule", "uneven row", "uneven step",
                                      "smaller dt", "non-finite input", "non-finite start"])
    def test_checks_and_messages_are_unchanged(self, case):
        # the step rule and an interval that 5 minutes does not divide used to
        # be errors; now they, and a grid of random gaps, integrate
        K, Ta, t0 = random_inputs(11, 50)
        p = P
        if case == "misaligned":
            Ta = TimeSeries(Ta.timestamps + 300, Ta.values)
        elif case == "step rule":
            p = replace(P, tau_w_min=4.0)
        elif case == "uneven row":
            ts = K.timestamps.copy()
            ts[20:] += 100
            K, Ta = TimeSeries(ts, K.values), TimeSeries(ts, Ta.values)
        elif case == "uneven step":
            ts = np.cumsum(np.random.default_rng(5).integers(1, 1000, 50))
            K, Ta = TimeSeries(ts, K.values), TimeSeries(ts, Ta.values)
        elif case == "smaller dt":
            p = replace(P, tau_w_min=1.0)
        elif case == "non-finite start":
            t0 = np.nan
        else:
            values = Ta.values.copy()
            values[30] = np.inf
            Ta = TimeSeries(Ta.timestamps, values)
        new = outcome(simulate, K, Ta, t0, p)
        assert same_outcome(new, outcome(simulate_oracle, K, Ta, t0, p))
        assert isinstance(new, np.ndarray) == (
            case in ("step rule", "uneven row", "uneven step", "smaller dt"))


class TestParams:
    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="psi"):
            IecParams(psi=0.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
                      tau_w_min=10.0)

    @pytest.mark.parametrize("name", ["psi", "delta_t_or_k", "chi", "k11", "tau_o_min",
                                      "tau_w_min"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_names_the_field(self, name, value):
        fields = dict(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
                      tau_w_min=10.0)
        with pytest.raises(ValueError, match=rf"IecParams\.{name} must be finite and > 0"
                                             rf".*, got {value}"):
            IecParams(**dict(fields, **{name: value}))

    def test_chi_range(self):
        with pytest.raises(ValueError, match="chi"):
            IecParams(psi=5.0, delta_t_or_k=38.3, chi=2.5, k11=1.0, tau_o_min=180.0,
                      tau_w_min=10.0)

    def test_json_round_trip(self, tmp_path):
        import json
        path = tmp_path / "iec.json"
        path.write_text(json.dumps({"psi": 5.0, "delta_t_or_k": 38.3, "chi": 0.8,
                                    "k11": 1.0, "tau_o_min": 180.0, "tau_w_min": 10.0,
                                    "comment": "illustrative"}))
        assert IecParams.from_json(path) == P

    def test_json_missing_key(self, tmp_path):
        path = tmp_path / "iec.json"
        path.write_text('{"psi": 5.0}')
        with pytest.raises(ValueError, match="missing"):
            IecParams.from_json(path)
