"""Statistics and grid operations checked against brute-force oracles.

The oracle functions below are deliberately naive pure-Python loops so the
vectorized implementations have an independent reference.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mpe, rmspe
from hvacdisagg.errors import AlignmentError, DegenerateSeriesError, SeriesError
from hvacdisagg.timeseries import (
    TimeSeries,
    Unit,
    align,
    pearson,
    resample,
    rmse,
)

# Hand-computed expectations, frozen before the implementation existed.
RMSE_3_4_VS_0_0 = 3.5355339059327378  # sqrt((9 + 16) / 2)
RMSPE_110_VS_100 = 10.0
RMSPE_90_110_VS_100_100 = 10.0
MPE_90_VS_100 = -10.0
MPE_90_110_VS_100_100 = 0.0
PEARSON_123_VS_124 = 0.9819805060619659  # 9 / (2 * sqrt(21))

T0 = 1_700_000_100  # deliberately not a multiple of 900


def brute_rmse(a, b):
    pairs = [(x, y) for x, y in zip(a, b) if not (math.isnan(x) or math.isnan(y))]
    return math.sqrt(sum((x - y) ** 2 for x, y in pairs) / len(pairs))


def brute_rmspe(m, r, eps=1e-9):
    pairs = [(x, y) for x, y in zip(m, r) if not (math.isnan(x) or math.isnan(y))]
    kept = [(x, y) for x, y in pairs if abs(y) >= eps]
    assert len(kept) * 2 >= len(pairs)
    return math.sqrt(sum(((x - y) / y * 100.0) ** 2 for x, y in kept) / len(kept))


def brute_mpe(m, r, eps=1e-9):
    pairs = [(x, y) for x, y in zip(m, r) if not (math.isnan(x) or math.isnan(y))]
    kept = [(x, y) for x, y in pairs if abs(y) >= eps]
    assert len(kept) * 2 >= len(pairs)
    return sum((x - y) / y * 100.0 for x, y in kept) / len(kept)


def brute_pearson(a, b):
    pairs = [(x, y) for x, y in zip(a, b) if not (math.isnan(x) or math.isnan(y))]
    n = len(pairs)
    ma = sum(x for x, _ in pairs) / n
    mb = sum(y for _, y in pairs) / n
    cov = sum((x - ma) * (y - mb) for x, y in pairs)
    sa = math.sqrt(sum((x - ma) ** 2 for x, _ in pairs))
    sb = math.sqrt(sum((y - mb) ** 2 for _, y in pairs))
    return cov / (sa * sb)


def series(values, start=T0, interval=900, unit=Unit.DEG_F, point="P1"):
    return TimeSeries(point, start, interval, unit, np.asarray(values, dtype=float))


class TestFrozenValues:
    def test_rmse(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(RMSE_3_4_VS_0_0, rel=1e-12)

    def test_rmspe(self):
        assert rmspe([110.0], [100.0]) == pytest.approx(RMSPE_110_VS_100, rel=1e-12)
        assert rmspe([90.0, 110.0], [100.0, 100.0]) == pytest.approx(
            RMSPE_90_110_VS_100_100, rel=1e-12
        )

    def test_mpe_sign_convention(self):
        # measured below reference reads negative
        assert mpe([90.0], [100.0]) == pytest.approx(MPE_90_VS_100, rel=1e-12)
        assert mpe([90.0, 110.0], [100.0, 100.0]) == pytest.approx(
            MPE_90_110_VS_100_100, abs=1e-12
        )

    def test_pearson(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(PEARSON_123_VS_124, rel=1e-12)


class TestAgainstBruteForce:
    def test_random_vectors(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 1001))
            a = rng.normal(50.0, 20.0, n)
            b = rng.normal(50.0, 20.0, n)
            assert rmse(a, b) == pytest.approx(brute_rmse(a, b), rel=1e-9)
            assert rmspe(a, b) == pytest.approx(brute_rmspe(a, b), rel=1e-9)
            assert mpe(a, b) == pytest.approx(brute_mpe(a, b), rel=1e-9)
            assert pearson(a, b) == pytest.approx(brute_pearson(a, b), rel=1e-9)

    def test_random_vectors_with_gaps(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(10, 400))
            a = rng.normal(70.0, 5.0, n)
            b = rng.normal(70.0, 5.0, n)
            a[rng.random(n) < 0.2] = np.nan
            b[rng.random(n) < 0.2] = np.nan
            if np.all(np.isnan(a) | np.isnan(b)):
                continue
            assert rmse(a, b) == pytest.approx(brute_rmse(a, b), rel=1e-9)
            assert pearson(a, b) == pytest.approx(brute_pearson(a, b), rel=1e-9)


class TestGuards:
    def test_length_mismatch(self):
        with pytest.raises(SeriesError, match="length mismatch"):
            rmse([1.0, 2.0], [1.0])

    def test_no_overlap_after_gap_deletion(self):
        with pytest.raises(DegenerateSeriesError, match="no overlapping"):
            rmse([np.nan, 1.0], [2.0, np.nan])

    def test_rmspe_degenerate_reference(self):
        # 2 of 3 rows below eps busts the 50% budget
        with pytest.raises(DegenerateSeriesError, match="degenerate"):
            rmspe([1.0, 2.0, 3.0], [0.0, 0.0, 100.0], eps=1.0)

    def test_rmspe_half_excluded_is_allowed(self):
        val = rmspe([1.0, 110.0], [0.0, 100.0], eps=1.0)
        assert val == pytest.approx(10.0, rel=1e-12)

    def test_mpe_degenerate_reference(self):
        with pytest.raises(DegenerateSeriesError, match="degenerate"):
            mpe([1.0, 2.0, 3.0], [0.2, 0.3, 100.0], eps=0.5)

    def test_pearson_constant_series(self):
        with pytest.raises(DegenerateSeriesError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_pearson_needs_two_rows(self):
        with pytest.raises(DegenerateSeriesError, match="at least 2"):
            pearson([1.0], [2.0])


@given(
    st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=60),
    st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_rmse_symmetric_and_nonnegative(xs, ys):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    forward = rmse(a, b)
    assert forward >= 0.0
    assert forward == pytest.approx(rmse(b, a), rel=1e-12, abs=1e-12)


@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=50, unique=True),
    st.floats(0.1, 50.0),
    st.floats(-200.0, 200.0),
)
@settings(max_examples=150, deadline=None)
def test_pearson_affine_invariance(xs, scale, shift):
    a = np.array(xs)
    # a spread much smaller than the shift vanishes in float64 rounding,
    # and the invariance genuinely stops holding
    assume(np.ptp(a) > 1e-3)
    assert pearson(a, scale * a + shift) == pytest.approx(1.0, abs=1e-9)
    assert pearson(a, -scale * a + shift) == pytest.approx(-1.0, abs=1e-9)


class TestResample:
    def test_mean_downsample_hand_case(self):
        # six 5-minute samples starting on a 15-minute boundary collapse to [3, 9]
        s = series([1, 3, 5, 7, 9, 11], start=1_700_000_100 - 300, interval=300)
        aligned_start = (s.start // 900) * 900
        s = series([1, 3, 5, 7, 9, 11], start=aligned_start, interval=300)
        out = resample(s, 900, "mean")
        assert out.start == aligned_start
        assert out.interval_s == 900
        np.testing.assert_allclose(out.values, [3.0, 9.0])

    def test_identity_when_already_on_grid(self):
        start = (T0 // 900) * 900
        s = series([55.2, 55.4, np.nan, 55.9], start=start, interval=900)
        for policy in ("mean", "last"):
            out = resample(s, 900, policy)
            assert out.start == s.start
            np.testing.assert_array_equal(out.values, s.values)

    def test_all_gap_bucket_stays_gap(self):
        start = (T0 // 900) * 900
        s = series([1.0, np.nan, np.nan, np.nan, 2.0, 4.0], start=start, interval=300)
        out = resample(s, 900, "mean")
        assert out.values[0] == pytest.approx(1.0)
        assert math.isnan(out.values[1]) or out.values[1] == pytest.approx(3.0)
        # first bucket holds only the first sample; verify bucketing explicitly
        s2 = series([np.nan, np.nan, np.nan, 2.0, 4.0, 6.0], start=start, interval=300)
        out2 = resample(s2, 900, "mean")
        assert math.isnan(out2.values[0])
        assert out2.values[1] == pytest.approx(4.0)

    def test_last_policy_keeps_final_sample(self):
        start = (T0 // 900) * 900
        s = series([1.0, 2.0, 3.0], start=start, interval=300)
        out = resample(s, 900, "last")
        np.testing.assert_allclose(out.values, [3.0])

    def test_mean_cannot_upsample(self):
        s = series([1.0, 2.0], interval=900)
        with pytest.raises(SeriesError, match="cannot upsample"):
            resample(s, 300, "mean")

    def test_interp_upsample_respects_max_gap(self):
        start = (T0 // 900) * 900
        s = series([0.0, np.nan, np.nan, 30.0], start=start, interval=900)
        wide = resample(s, 300, "interp", max_gap_s=3600)
        # 2700 s between known samples, linear ramp
        idx_1800 = int((start + 1800 - wide.start) // 300)
        assert wide.values[idx_1800] == pytest.approx(20.0)
        tight = resample(s, 300, "interp", max_gap_s=900)
        assert math.isnan(tight.values[idx_1800])
        # known endpoints survive even inside an over-wide gap
        assert tight.values[0] == pytest.approx(0.0)

    def test_empty_series_rejected(self):
        s = series([])
        with pytest.raises(SeriesError, match="empty"):
            resample(s, 900, "mean")

    def test_mean_idempotent(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(60, 5, 96)
        vals[rng.random(96) < 0.1] = np.nan
        s = series(vals, start=(T0 // 300) * 300, interval=300)
        once = resample(s, 900, "mean")
        twice = resample(once, 900, "mean")
        assert once.start == twice.start
        np.testing.assert_array_equal(once.values, twice.values)


class TestAlign:
    def test_common_span(self):
        a = series(np.arange(10.0), start=900 * 100, interval=900, point="A")
        b = series(np.arange(8.0), start=900 * 103, interval=900, point="B")
        frame = align({"a": a, "b": b})
        assert frame.start == 900 * 103
        assert frame.n_rows == 7
        np.testing.assert_allclose(frame.columns["a"], np.arange(3.0, 10.0))
        np.testing.assert_allclose(frame.columns["b"], np.arange(0.0, 7.0))

    def test_mixed_intervals_rejected(self):
        a = series([1, 2, 3], interval=900)
        b = series([1, 2, 3], interval=300)
        with pytest.raises(AlignmentError, match="mixed intervals"):
            align({"a": a, "b": b})

    def test_phase_mismatch_rejected(self):
        a = series([1, 2, 3], start=900 * 10, interval=900)
        b = series([1, 2, 3], start=900 * 10 + 60, interval=900)
        with pytest.raises(AlignmentError, match="phase"):
            align({"a": a, "b": b})

    def test_disjoint_ranges_rejected(self):
        a = series([1, 2, 3], start=900 * 10, interval=900)
        b = series([1, 2, 3], start=900 * 50, interval=900)
        with pytest.raises(AlignmentError, match="no temporal overlap"):
            align({"a": a, "b": b})

    def test_complete_mask(self):
        a = series([1.0, np.nan, 3.0], start=0, interval=900)
        b = series([np.nan, 2.0, 4.0], start=0, interval=900)
        frame = align({"a": a, "b": b})
        # align keeps each column's own gaps; it neither fills nor drops rows
        np.testing.assert_array_equal(frame.columns["a"], [1.0, np.nan, 3.0])
        np.testing.assert_array_equal(frame.columns["b"], [np.nan, 2.0, 4.0])


class TestTimeSeriesBasics:
    def test_interval_must_be_positive(self):
        with pytest.raises(SeriesError, match="positive"):
            TimeSeries("P", 0, 0, Unit.CFM, np.array([1.0]))

    def test_values_frozen(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0
