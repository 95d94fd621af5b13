import warnings

import numpy as np
import pytest

from toilcast.metrics import mae, mean_interval_width, mse, picp, pinball, validate_quantiles
from util import mql


class TestPointMetrics:
    def test_mae_exact(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mae_symmetry(self):
        assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_mae_hand_sum(self):
        assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(1.0, abs=1e-15)

    def test_mse_exact(self):
        assert mse([4.0], [4.0]) == 0.0

    def test_mse_square(self):
        assert mse([0.0], [3.0]) == 9.0

    def test_mse_hand_sum(self):
        assert mse([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_mse_overflow_raises_naming_mse(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="mse"):
                mse([0.0], [1e200])

    @pytest.mark.parametrize("metric, args", [
        ("mae", ([1e308], [-1e308])),
        ("mae", ([1e308, 1e308], [0.0, 0.0])),      # the differences fit, their sum does not
        ("mse", ([1e308], [-1e308])),
        ("mean_interval_width", ([-1e308], [1e308])),
        ("pinball", ([1e308, 0.0], [-1e308, 0.0], 0.5)),
    ], ids=["mae", "mae-sum", "mse", "mean_interval_width", "pinball"])
    def test_finite_inputs_that_overflow_raise_naming_the_metric(self, metric, args):
        fn = {"mae": mae, "mse": mse, "mean_interval_width": mean_interval_width,
              "pinball": pinball}[metric]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=f"^{metric}: .*1e\\+308"):
                fn(*args)

    def test_non_finite_inputs_keep_their_non_finite_result(self):
        # an infinite input is not an overflow: the metric is infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert mae([np.inf, 1e308], [0.0, -1e308]) == np.inf
            assert mean_interval_width([0.0, -1e308], [np.inf, 1e308]) == np.inf
            assert list(pinball([np.inf, 1.0], [0.0, 0.0], 0.5)) == [np.inf, 0.5]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mae([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mae([], [])


class TestPinball:
    def test_exact_prediction_zero_for_all_alpha(self):
        for a in (0.01, 0.25, 0.5, 0.99):
            assert pinball(10.0, 10.0, a) == 0.0

    def test_median_case_is_half_absolute(self):
        assert pinball(10.0, 8.0, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert pinball(10.0, 8.0, 0.5) == pytest.approx(0.5 * abs(10.0 - 8.0), abs=1e-15)

    def test_asymmetric_branches(self):
        # at alpha=0.9 an underestimate costs 9x an overestimate of equal size
        assert pinball(10.0, 8.0, 0.9) == pytest.approx(1.8, abs=1e-15)
        assert pinball(8.0, 10.0, 0.9) == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_outside_open_interval(self, alpha):
        with pytest.raises(ValueError):
            pinball(1.0, 0.0, alpha)

    def test_asymmetry_law_exact(self):
        # exact binary fractions keep y -+ d free of rounding, so the law
        # holds bitwise
        rng = np.random.default_rng(0)
        for _ in range(200):
            y = float(rng.integers(-3200, 3200)) / 64.0
            d = float(rng.integers(1, 1920)) / 64.0
            a = rng.uniform(0.01, 0.99)
            assert pinball(y, y - d, a) == a * d
            assert pinball(y, y + d, a) == (1.0 - a) * d

    def test_nonnegative_zero_iff_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            y, y_hat = rng.normal(size=2)
            a = rng.uniform(0.01, 0.99)
            v = pinball(y, y_hat, a)
            assert v >= 0.0
            assert (v == 0.0) == (y == y_hat)

    def test_convex_in_prediction(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            y = rng.normal(0, 10)
            p, q = rng.normal(0, 10, size=2)
            a = rng.uniform(0.01, 0.99)
            mid = pinball(y, 0.5 * (p + q), a)
            assert mid <= 0.5 * pinball(y, p, a) + 0.5 * pinball(y, q, a) + 1e-12


class TestMql:
    def test_all_exact(self):
        assert mql([1.0, 2.0], [1.0, 2.0], 0.3) == 0.0

    def test_median_is_half_mae(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.normal(0, 20, size=rng.integers(1, 50))
            y_hat = y + rng.normal(0, 5, size=y.shape)
            assert abs(mql(y, y_hat, 0.5) - 0.5 * mae(y, y_hat)) <= 1e-12

    def test_hand_sum(self):
        assert mql([10.0, 8.0], [8.0, 10.0], 0.9) == pytest.approx(1.0, abs=1e-15)

    def test_multi_level_average(self):
        y = np.array([10.0, 8.0])
        y_hat = np.array([8.0, 10.0])
        expect = 0.5 * (mql(y, y_hat, 0.1) + mql(y, y_hat, 0.9))
        assert mql(y, y_hat, (0.1, 0.9)) == pytest.approx(expect, abs=1e-15)

    def test_empirical_quantile_minimizer(self):
        # the constant prediction minimizing mean pinball is the empirical
        # alpha-quantile; brute-force grid over candidate constants
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(5, 12))
            y = rng.normal(0, 10, size=n)
            alpha = float(rng.choice([0.1, 0.25, 0.5, 0.9]))
            if (n * alpha) == int(n * alpha):
                alpha += 0.03  # keep the minimizer unique
            candidates = np.sort(np.concatenate([
                y, 0.5 * (np.sort(y)[1:] + np.sort(y)[:-1]),
                [y.min() - 1.0, y.max() + 1.0]]))
            scores = [mql(y, np.full(n, c), alpha) for c in candidates]
            best = candidates[int(np.argmin(scores))]
            k = int(np.ceil(n * alpha)) - 1  # inverted-CDF order statistic
            assert best == np.sort(y)[k]


class TestIntervals:
    def test_full_coverage(self):
        y = np.array([1.0, 2.0, 3.0])
        assert picp(y, y - 1.0, y + 1.0) == 1.0

    def test_half_coverage_hand_count(self):
        y = np.array([0.5, 2.0, -1.0, 0.3])
        assert picp(y, np.zeros(4), np.ones(4)) == 0.5

    def test_boundary_inclusive(self):
        y = np.array([1.0])
        assert picp(y, np.array([1.0]), np.array([2.0])) == 1.0
        assert picp(y, np.array([0.0]), np.array([1.0])) == 1.0

    def test_min_max_interval_covers_everything(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=100)
        lo = np.full(100, y.min())
        hi = np.full(100, y.max())
        assert picp(y, lo, hi) == 1.0

    def test_crossed_bounds_direct_to_enforcement(self):
        with pytest.raises(ValueError, match="crossed interval bounds: sort"):
            picp(np.array([1.0]), np.array([2.0]), np.array([1.0]))

    def test_width_degenerate(self):
        assert mean_interval_width(np.array([4.0]), np.array([4.0])) == 0.0

    def test_width_constant(self):
        assert mean_interval_width(np.full(3, 40.0), np.full(3, 50.0)) == 10.0

    def test_width_mean(self):
        assert mean_interval_width(np.array([0.0, 0.0]), np.array([1.0, 3.0])) == 2.0

    def test_unequal_bound_shapes_rejected_alike(self):
        # the width used to broadcast one upper bound over three lower ones and return 1.0
        lower, upper = np.zeros(3), np.array([1.0])
        with pytest.raises(ValueError, match=r"length mismatch: \(3,\) vs \(1,\)"):
            mean_interval_width(lower, upper)
        with pytest.raises(ValueError, match=r"length mismatch: \(3,\) vs \(1,\)"):
            picp(np.zeros(3), lower, upper)
        with pytest.raises(ValueError, match=r"length mismatch: \(2,\) vs \(3,\)"):
            picp(np.zeros(2), lower, np.ones(3))

    def test_crossed_bounds_rejected_by_the_width_too(self):
        with pytest.raises(ValueError, match="crossed interval bounds: sort"):
            mean_interval_width(np.array([2.0]), np.array([1.0]))


class TestLossKind:
    @pytest.mark.parametrize("alphas", [0.5, "0.5", None, {0.5: 1}],
                             ids=["float", "str", "none", "dict"])
    def test_validate_quantiles_needs_a_list(self, alphas):
        # a bare 0.5 used to end in TypeError: 'float' object is not iterable
        with pytest.raises(ValueError, match=r"quantiles must be a list of levels, got "):
            validate_quantiles(alphas)

    def test_validate_quantiles_ordering(self):
        with pytest.raises(ValueError, match="increasing"):
            validate_quantiles((0.5, 0.5))
        with pytest.raises(ValueError, match=r"quantiles\.level must be finite and > 0"):
            validate_quantiles((0.0, 0.5))
