"""Statistics checked against brute-force oracles, and assemble's common grid.

The oracle functions below are deliberately naive pure-Python loops so the
vectorized implementations have an independent reference.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mpe, rmspe
from hvacdisagg.building import AhuNode, EquipmentGraph, PointBinding, PointRole, VavNode
from hvacdisagg.energy import assemble
from hvacdisagg.errors import AlignmentError, DegenerateSeriesError, SeriesError
from hvacdisagg.timeseries import TimeSeries, Unit, frozen, pearson, rmse

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


def _assembled(cooling, heating):
    """assemble on a one-AHU, one-VAV building with these two meters and
    every other input flat across both meters' spans, on the cooling
    meter's grid."""
    start, end = min(cooling.start, heating.start), max(cooling.end, heating.end)
    interval = cooling.interval_s

    def flat(value):
        return series(np.full((end - start) // interval, value), start, interval)

    graph = EquipmentGraph("B1", (AhuNode("AH1"),), (VavNode("VAV1", "AH1"),),
                           "B1.CLGMTR", "B1.HTGMTR")
    series_map = {
        ("B1", PointRole.BUILDING_COOLING_POWER): cooling,
        ("B1", PointRole.BUILDING_HEATING_POWER): heating,
        ("AH1", PointRole.AHU_SUPPLY_AIR_TEMP): flat(55.0),
        ("AH1", PointRole.AHU_MIXED_AIR_TEMP): flat(70.0),
        ("VAV1", PointRole.ZONE_TEMP): flat(72.0),
        ("VAV1", PointRole.VAV_SUPPLY_FLOW): flat(400.0),
    }
    return assemble(graph, PointBinding(bindings={}), series_map)


class TestAlign:
    """assemble cuts every series to their common span, and refuses series
    that share no grid or no time."""

    def test_common_span(self):
        a = series(np.arange(10.0), start=900 * 100, interval=900, point="A")
        b = series(np.arange(8.0), start=900 * 103, interval=900, point="B")
        data = _assembled(a, b)
        assert data.start == 900 * 103
        assert data.n_rows == 7
        np.testing.assert_allclose(data.cooling_meter, np.arange(3.0, 10.0))
        np.testing.assert_allclose(data.heating_meter, np.arange(0.0, 7.0))
        np.testing.assert_allclose(data.vavs["VAV1"].zone_temp, np.full(7, 72.0))

    def test_mixed_intervals_rejected(self):
        a = series([1, 2, 3], interval=900)
        b = series([1, 2, 3], interval=300)
        with pytest.raises(AlignmentError, match=r"^mixed intervals \[300, 900\]$"):
            _assembled(a, b)

    def test_phase_mismatch_rejected(self):
        a = series([1, 2, 3], start=900 * 10, interval=900)
        b = series([1, 2, 3], start=900 * 10 + 60, interval=900)
        with pytest.raises(AlignmentError, match="^grid phase mismatch between series$"):
            _assembled(a, b)

    def test_disjoint_ranges_rejected(self):
        a = series([1, 2, 3], start=900 * 10, interval=900)
        b = series([1, 2, 3], start=900 * 50, interval=900)
        with pytest.raises(AlignmentError, match="no temporal overlap"):
            _assembled(a, b)

    def test_complete_mask(self):
        a = series([1.0, np.nan, 3.0], start=0, interval=900)
        b = series([np.nan, 2.0, 4.0], start=0, interval=900)
        data = _assembled(a, b)
        # each column keeps its own gaps; nothing is filled and no row dropped
        np.testing.assert_array_equal(data.cooling_meter, [1.0, np.nan, 3.0])
        np.testing.assert_array_equal(data.heating_meter, [np.nan, 2.0, 4.0])


class TestTimeSeriesBasics:
    def test_interval_must_be_positive(self):
        with pytest.raises(SeriesError, match="positive"):
            TimeSeries("P", 0, 0, Unit.CFM, np.array([1.0]))

    def test_values_frozen(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_frozen_array_it_owns_is_taken_over(self):
        values = frozen(np.array([1.0, 2.0, 3.0]))
        assert TimeSeries("P", T0, 900, Unit.CFM, values).values is values

    def test_view_of_immutable_bytes_is_taken_over(self):
        payload = np.array([1.0, 2.0, 3.0, 4.0]).tobytes()
        values = np.frombuffer(payload, dtype="<f8")[1:3]
        s = TimeSeries("P", T0, 900, Unit.CFM, values)
        assert s.values is values
        assert s.values.tolist() == [2.0, 3.0]

    def test_writeable_array_is_copied(self):
        values = np.array([1.0, 2.0])
        s = TimeSeries("P", T0, 900, Unit.CFM, values)
        values[0] = 9.0
        assert not np.shares_memory(s.values, values)
        assert s.values.tolist() == [1.0, 2.0]
        assert values.flags.writeable

    def test_read_only_view_of_a_writeable_base_is_copied(self):
        base = np.array([1.0, 2.0, 3.0])
        view = base[1:]
        view.flags.writeable = False
        s = TimeSeries("P", T0, 900, Unit.CFM, view)
        base[1] = 9.0
        assert not np.shares_memory(s.values, base)
        assert s.values.tolist() == [2.0, 3.0]

    @pytest.mark.parametrize("values", [
        frozen(np.array([1, 2])),
        frozen(np.array([1.0, 2.0], dtype=">f8")),
        frozen(np.frombuffer(bytearray(np.array([1.0, 2.0]).tobytes()))),
    ], ids=["int", "big-endian", "bytearray"])
    def test_other_read_only_arrays_are_copied(self, values):
        s = TimeSeries("P", T0, 900, Unit.CFM, values)
        assert not np.shares_memory(s.values, values)
        assert s.values.dtype == np.float64
        assert s.values.tolist() == [1.0, 2.0]
        assert not s.values.flags.writeable
