import numpy as np
import pytest

from toilcast.iec import IecParams, check_timestep, simulate, steady_state
from toilcast.series import TimeSeries
from util import simulate_oracle

P = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
              tau_w_min=10.0)


def const_series(value, n, dt_s=300):
    ts = (np.arange(n, dtype=np.int64)) * dt_s
    return TimeSeries(ts, np.full(n, float(value)), dt_s)


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


class TestStep:
    """One Euler update: a two-point `simulate` run whose interval is dt."""

    def test_steady_state_is_fixed_point(self):
        ss = steady_state(0.8, 15.0, P)
        out = simulate(const_series(0.8, 2), const_series(15.0, 2), ss, 5.0, P)
        assert abs(out.values[1] - ss) <= 1e-9

    def test_hand_update(self):
        # K=1 puts the drive at delta_t_or; starting at ambient, one minute
        # over k11*tau_o = 100 min moves 1% of the way
        p = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=100.0,
                      tau_w_min=10.0)
        out = simulate(const_series(1.0, 2, dt_s=60), const_series(20.0, 2, dt_s=60),
                       20.0, 1.0, p)
        assert out.values[1] == pytest.approx(20.0 + 0.01 * 38.3, abs=1e-12)

    def test_negative_dt_rejected(self):
        for dt_min in (-1.0, 0.0):
            with pytest.raises(ValueError, match=r"iec\.dt_min must be finite and > 0"):
                simulate(const_series(0.9, 2), const_series(12.0, 2), 47.3, dt_min, P)


class TestCheckTimestep:
    def test_boundary_accepted(self):
        assert check_timestep(5.0, P) is True

    def test_boundary_exceeded(self):
        assert check_timestep(6.0, P) is False

    def test_small_step(self):
        assert check_timestep(0.5, P) is True

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            check_timestep(0.0, P)


def closed_form(t_min, t0, t_ss, p):
    return t_ss + (t0 - t_ss) * np.exp(-t_min / (p.k11 * p.tau_o_min))


class TestSimulate:
    def test_constant_at_steady_state_stays(self):
        ss = steady_state(0.7, 10.0, P)
        K = const_series(0.7, 200)
        Ta = const_series(10.0, 200)
        traj = simulate(K, Ta, ss, 5.0, P)
        assert np.abs(traj.values - ss).max() <= 1e-9

    def run_vs_closed_form(self, dt_min):
        t_ss = steady_state(1.0, 20.0, P)
        t0 = t_ss + 4.0
        horizon_min = 10.0 * P.k11 * P.tau_o_min
        n = int(round(horizon_min / dt_min)) + 1
        dt_s = int(round(dt_min * 60))
        K = const_series(1.0, n, dt_s)
        Ta = const_series(20.0, n, dt_s)
        traj = simulate(K, Ta, t0, dt_min, P)
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
        K5 = TimeSeries(ts5, rng.uniform(0.2, 1.1, n), 300)
        Ta5 = TimeSeries(ts5, rng.uniform(5.0, 20.0, n), 300)
        sub = simulate(K5, Ta5, 40.0, 2.5, P)  # two sub-steps per interval

        # same trajectory on an explicit 2.5-minute grid with held inputs
        ts_f = np.arange(2 * (n - 1) + 1, dtype=np.int64) * 150
        K_f = TimeSeries(ts_f, np.repeat(K5.values, 2)[:len(ts_f)], 150)
        Ta_f = TimeSeries(ts_f, np.repeat(Ta5.values, 2)[:len(ts_f)], 150)
        fine = simulate(K_f, Ta_f, 40.0, 2.5, P)
        assert np.array_equal(sub.values, fine.values[::2])

    def test_ambient_shift_equivariance(self):
        rng = np.random.default_rng(0)
        n = 300
        ts = np.arange(n, dtype=np.int64) * 300
        K = TimeSeries(ts, rng.uniform(0.2, 1.2, n), 300)
        Ta = TimeSeries(ts, rng.uniform(0.0, 20.0, n), 300)
        c = 7.5
        base = simulate(K, Ta, 30.0, 5.0, P)
        shifted = simulate(K, TimeSeries(ts, Ta.values + c, 300), 30.0 + c, 5.0, P)
        assert np.abs(shifted.values - (base.values + c)).max() <= 1e-9

    def test_monotone_relaxation(self):
        # inside the explicit-Euler stability region the distance to steady
        # state never grows under constant inputs
        t_ss = steady_state(0.5, 10.0, P)
        n = 500
        K = const_series(0.5, n)
        Ta = const_series(10.0, n)
        for t0 in (t_ss + 25.0, t_ss - 25.0):
            traj = simulate(K, Ta, t0, 5.0, P)
            gap = np.abs(traj.values - t_ss)
            assert (np.diff(gap) <= 1e-12).all()

    def test_misaligned_inputs_rejected(self):
        K = const_series(1.0, 10)
        Ta = TimeSeries(K.timestamps + 300, np.full(10, 20.0), 300)
        with pytest.raises(ValueError, match="aligned"):
            simulate(K, Ta, 30.0, 5.0, P)

    def test_step_rule_enforced_with_override(self):
        K = const_series(1.0, 10)
        Ta = const_series(20.0, 10)
        tight = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0,
                          tau_o_min=180.0, tau_w_min=4.0)
        with pytest.raises(ValueError, match="tau_w"):
            simulate(K, Ta, 30.0, 5.0, tight)
        traj = simulate(K, Ta, 30.0, 5.0, tight, enforce_timestep=False)
        assert len(traj) == 10

    def test_non_uniform_grid_substeps_each_interval(self):
        # a 50-minute gap after two 5-minute steps is 10 Euler steps, not one
        ts = np.array([0, 300, 600, 3600], dtype=np.int64)
        K = TimeSeries(ts, np.ones(4), 300)
        Ta = TimeSeries(ts, np.full(4, 20.0), 300)
        traj = simulate(K, Ta, 20.0, 5.0, P)
        uniform = simulate(const_series(1.0, 13), const_series(20.0, 13), 20.0, 5.0, P)
        assert np.array_equal(traj.values, uniform.values[[0, 1, 2, 12]])
        assert traj.values[-1] == pytest.approx(30.99, abs=0.01)

    def test_interval_dt_does_not_divide_is_named(self):
        ts = np.array([0, 300, 600, 1000], dtype=np.int64)
        K = TimeSeries(ts, np.ones(4), 300)
        Ta = TimeSeries(ts, np.full(4, 20.0), 300)
        with pytest.raises(ValueError, match="before row 3"):
            simulate(K, Ta, 20.0, 5.0, P)

    def test_dt_must_divide_series_step(self):
        K = const_series(1.0, 10)
        Ta = const_series(20.0, 10)
        with pytest.raises(ValueError, match="divide"):
            simulate(K, Ta, 30.0, 3.0, P)


def random_inputs(seed, n, keep=1.0):
    """Seeded load and ambient on a 5-minute grid, each row after the first
    kept with probability `keep`, plus a random starting temperature."""
    rng = np.random.default_rng(seed)
    ts = 300 * np.arange(n, dtype=np.int64)
    rows = np.flatnonzero(np.r_[True, rng.random(n - 1) < keep])
    K = TimeSeries(ts[rows], rng.uniform(0.0, 1.5, n)[rows], 300)
    Ta = TimeSeries(ts[rows], rng.normal(15.0, 8.0, n)[rows], 300)
    return K, Ta, float(rng.uniform(10.0, 90.0))


def outcome(solver, *args, **kw):
    """The trajectory a solver returns, or the type and message it raises."""
    try:
        return solver(*args, **kw).values
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


def same_outcome(a, b):
    return (np.array_equal(a, b) if isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            else a == b)


class TestFlatLoopMatchesNestedOracle:
    """`simulate` runs one flat loop over every sub-step; the oracle loops per
    interval, then per sub-step. Both do the same float operations in the same
    order, so every value and every message agrees bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("dt", [5.0, 2.5, 1.0])
    def test_uniform_grid(self, seed, dt):
        K, Ta, t0 = random_inputs(seed, 400)
        new, old = simulate(K, Ta, t0, dt, P), simulate_oracle(K, Ta, t0, dt, P)
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.timestamps, old.timestamps) and new.step == old.step

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("dt", [5.0, 2.5])
    def test_grid_with_dropped_rows(self, seed, dt):
        K, Ta, t0 = random_inputs(seed, 400, keep=0.7)
        assert (np.diff(K.timestamps) > 300).any()
        assert np.array_equal(simulate(K, Ta, t0, dt, P).values,
                              simulate_oracle(K, Ta, t0, dt, P).values)

    @pytest.mark.parametrize("dt", [5.0, 2.5, 1.0])
    def test_one_point_series(self, dt):
        K, Ta, t0 = random_inputs(7, 1)
        traj = simulate(K, Ta, t0, dt, P)
        assert np.array_equal(traj.values, simulate_oracle(K, Ta, t0, dt, P).values)
        assert traj.values.tolist() == [t0]

    @pytest.mark.parametrize("seed", [0, 7, 11, 31])
    @pytest.mark.parametrize("dt", [5.0, 2.5])
    def test_diverging_run_names_the_same_step(self, seed, dt):
        # alpha = dt / tau_o > 2: the Euler update overshoots and grows until inf - inf
        fast = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=1.0,
                         tau_w_min=10.0)
        K, Ta, t0 = random_inputs(seed, 1200, keep=0.9)
        with pytest.raises(FloatingPointError) as new:
            simulate(K, Ta, t0, dt, fast)
        with pytest.raises(FloatingPointError) as old:
            simulate_oracle(K, Ta, t0, dt, fast)
        assert str(new.value) == str(old.value)
        assert "diverged at step" in str(new.value)

    @pytest.mark.parametrize("case", ["misaligned", "step rule", "uneven row", "uneven step",
                                      "override", "non-finite input", "non-finite start"])
    def test_checks_and_messages_are_unchanged(self, case):
        K, Ta, t0 = random_inputs(11, 50)
        dt, p, kw = 5.0, P, {}
        tight = IecParams(psi=5.0, delta_t_or_k=38.3, chi=0.8, k11=1.0, tau_o_min=180.0,
                          tau_w_min=4.0)
        if case == "misaligned":
            Ta = TimeSeries(Ta.timestamps + 300, Ta.values, 300)
        elif case == "step rule":
            p = tight
        elif case == "uneven row":
            ts = K.timestamps.copy()
            ts[20:] += 100
            K, Ta = TimeSeries(ts, K.values, 300), TimeSeries(ts, Ta.values, 300)
        elif case == "uneven step":
            dt = 3.0
        elif case == "override":
            p, kw = tight, {"enforce_timestep": False}
        elif case == "non-finite start":
            t0 = np.nan
        else:
            values = Ta.values.copy()
            values[30] = np.inf
            Ta = TimeSeries(Ta.timestamps, values, 300)
        new = outcome(simulate, K, Ta, t0, dt, p, **kw)
        assert same_outcome(new, outcome(simulate_oracle, K, Ta, t0, dt, p, **kw))
        assert isinstance(new, np.ndarray) == (case == "override")


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
