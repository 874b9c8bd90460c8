from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvacdisagg.building import (
    FALLBACK_MEAN_ZONE_TEMPS,
    FALLBACK_OAT_DAMPER_MIX,
    FALLBACK_PARENT_AHU_SAT,
    AhuNode,
    EquipmentGraph,
    PointBinding,
    PointRole,
    VavNode,
)
from hvacdisagg.energy import (
    AhuData,
    BuildingData,
    VavData,
    ahu_mode,
    ahu_power,
    assemble,
    economizer_term,
    estimate_mixed_air,
    occupancy_schedule,
    vav_cooling_power,
    vav_heating_power,
)
from hvacdisagg.errors import AlignmentError, DisaggError, SeriesError
from hvacdisagg.timeseries import TimeSeries, Unit

# frozen hand calculations: k * cfm * dT / 1e6
VAV_CLG_1000CFM_19F = 0.02052
ECON_2000CFM_10F = 0.0216
AHU_3000CFM_15F = 0.0486
VAV_HTG_500CFM_85F_HALF_OPEN = 0.02295

GRID = 900
T0 = 1_750_000_000 // GRID * GRID  # falls on a Sunday; schedule tests shift from here


class TestEstimators:
    def test_vav_cooling_hand_value(self):
        p = vav_cooling_power(np.array([1000.0]), np.array([74.0]), np.array([55.0]))
        assert p[0] == pytest.approx(VAV_CLG_1000CFM_19F, rel=1e-12)

    def test_vav_cooling_clamped(self):
        p = vav_cooling_power(np.array([1000.0]), np.array([54.0]), np.array([55.0]))
        assert p[0] == 0.0

    def test_vav_cooling_gap_propagates(self):
        p = vav_cooling_power(np.array([np.nan]), np.array([74.0]), np.array([55.0]))
        assert np.isnan(p[0])

    def test_economizer_signed(self):
        term = economizer_term(np.array([2000.0]), np.array([75.0]), np.array([65.0]))
        assert term[0] == pytest.approx(ECON_2000CFM_10F, rel=1e-12)
        term = economizer_term(np.array([2000.0]), np.array([65.0]), np.array([75.0]))
        assert term[0] == pytest.approx(-ECON_2000CFM_10F, rel=1e-12)

    def test_mixed_air_estimate(self):
        est = estimate_mixed_air(np.array([90.0]), np.array([70.0]), np.array([0.5]))
        assert est[0] == pytest.approx(80.0)

    def test_mixed_air_damper_range_checked(self):
        with pytest.raises(SeriesError, match="damper"):
            estimate_mixed_air(np.array([90.0]), np.array([70.0]), np.array([1.2]))

    def test_ahu_power_cooling(self):
        clg, htg = ahu_power(np.array([70.0]), np.array([55.0]), np.array([3000.0]))
        assert clg[0] == pytest.approx(AHU_3000CFM_15F, rel=1e-12)
        assert htg[0] == 0.0

    def test_ahu_power_heating(self):
        clg, htg = ahu_power(np.array([50.0]), np.array([55.0]), np.array([3000.0]))
        assert clg[0] == 0.0
        assert htg[0] == pytest.approx(1.08 * 3000 * 5 / 1e6, rel=1e-12)

    def test_ahu_deadband_idles(self):
        clg, htg = ahu_power(np.array([55.3]), np.array([55.0]), np.array([3000.0]))
        assert clg[0] == 0.0 and htg[0] == 0.0
        mode = ahu_mode(np.array([55.3, 56.0, 54.0, np.nan]), np.array([55.0] * 4))
        assert mode[0] == 0.0 and mode[1] == 1.0 and mode[2] == -1.0 and np.isnan(mode[3])

    def test_ahu_power_gap_propagates(self):
        clg, htg = ahu_power(np.array([np.nan]), np.array([55.0]), np.array([3000.0]))
        assert np.isnan(clg[0]) and np.isnan(htg[0])

    def test_vav_heating_hand_value(self):
        p = vav_heating_power(
            np.array([140.0]), np.array([55.0]), np.array([500.0]), np.array([0.5])
        )
        assert p[0] == pytest.approx(VAV_HTG_500CFM_85F_HALF_OPEN, rel=1e-12)

    def test_vav_heating_closed_valve_is_zero(self):
        p = vav_heating_power(
            np.array([140.0]), np.array([55.0]), np.array([500.0]), np.array([0.0])
        )
        assert p[0] == 0.0

    def test_vav_heating_clamped(self):
        # hot water colder than discharge air would be negative reheat
        p = vav_heating_power(
            np.array([50.0]), np.array([55.0]), np.array([500.0]), np.array([1.0])
        )
        assert p[0] == 0.0


class TestOccupancySchedule:
    def test_weekday_window(self):
        # 2026-01-05 is a Monday
        monday_8am = 1_767_600_000  # 2026-01-05T08:00:00Z
        monday_6am = monday_8am - 2 * 3600
        saturday_noon = monday_8am + 5 * 86400 + 4 * 3600
        ts = np.array([monday_8am, monday_6am, saturday_noon])
        occ = occupancy_schedule(ts, 7 * 3600, 19 * 3600, weekdays_only=True)
        np.testing.assert_array_equal(occ, [1.0, 0.0, 0.0])

    def test_seven_day_schedule(self):
        saturday_noon = 1_767_600_000 + 5 * 86400 + 4 * 3600
        occ = occupancy_schedule(np.array([saturday_noon]), 7 * 3600, 19 * 3600, False)
        assert occ[0] == 1.0


def _graph(n_ahus=1, vavs_per_ahu=2):
    ahus = tuple(AhuNode(f"AH{i+1}") for i in range(n_ahus))
    vavs = []
    for a in range(n_ahus):
        for v in range(vavs_per_ahu):
            vavs.append(VavNode(f"VAV{a+1}{v+1}", f"AH{a+1}", min_flow_cfm=100.0,
                                zone_upper_limit_f=76.0))
    return EquipmentGraph(
        building_id="B1",
        ahus=ahus,
        vavs=tuple(vavs),
        cooling_meter_point="B1.CLGMTR",
        heating_meter_point="B1.HTGMTR",
        oat_point="B1.OAT",
    )


def _series(name, values, unit=Unit.DEG_F, start=T0):
    return TimeSeries(name, start, GRID, unit, np.asarray(values, dtype=float))


def _series_map(n=8, start=T0):
    """Minimal healthy single-AHU dataset: meters, OAT, one AHU, two VAVs."""
    smap = {
        ("B1", PointRole.BUILDING_COOLING_POWER): _series("m1", np.full(n, 0.05), Unit.MMBTU_HR, start),
        ("B1", PointRole.BUILDING_HEATING_POWER): _series("m2", np.full(n, 0.02), Unit.MMBTU_HR, start),
        ("B1", PointRole.OUTSIDE_AIR_TEMP): _series("oat", np.full(n, 80.0), start=start),
        ("AH1", PointRole.AHU_SUPPLY_AIR_TEMP): _series("sat", np.full(n, 55.0), start=start),
        ("AH1", PointRole.ECONOMIZER_DAMPER_POS): _series(
            "dmp", np.full(n, 0.5), Unit.FRACTION, start
        ),
        ("VAV11", PointRole.ZONE_TEMP): _series("z1", np.full(n, 72.0), start=start),
        ("VAV12", PointRole.ZONE_TEMP): _series("z2", np.full(n, 74.0), start=start),
        ("VAV11", PointRole.VAV_SUPPLY_FLOW): _series("f1", np.full(n, 400.0), Unit.CFM, start),
        ("VAV12", PointRole.VAV_SUPPLY_FLOW): _series("f2", np.full(n, 600.0), Unit.CFM, start),
    }
    return smap


def _binding():
    return PointBinding(bindings={}, unresolved=())


class TestAssemble:
    def test_fallback_chain(self):
        data = assemble(_graph(), _binding(), _series_map())
        tags = {(e, r): t for e, r, t in data.fallbacks_used}
        assert tags[("VAV11", PointRole.VAV_SUPPLY_AIR_TEMP)] == FALLBACK_PARENT_AHU_SAT
        assert tags[("AH1", PointRole.AHU_RETURN_AIR_TEMP)] == FALLBACK_MEAN_ZONE_TEMPS
        assert tags[("AH1", PointRole.AHU_MIXED_AIR_TEMP)] == FALLBACK_OAT_DAMPER_MIX
        ahu = data.ahus["AH1"]
        # return = mean(72, 74) = 73; mixed = 0.5*80 + 0.5*73 = 76.5
        assert ahu.return_temp[0] == pytest.approx(73.0)
        assert ahu.mixed_temp[0] == pytest.approx(76.5)
        np.testing.assert_allclose(ahu.flow_sum, 1000.0)
        # VAV discharge fell back to the AHU supply temp
        np.testing.assert_allclose(data.vavs["VAV11"].supply_temp, 55.0)

    def test_power_sums(self):
        data = assemble(_graph(), _binding(), _series_map())
        total = data.sum_vav_cooling()
        # 1.08*(400*17 + 600*19)/1e6
        assert total[0] == pytest.approx(1.08 * (400 * 17 + 600 * 19) / 1e6, rel=1e-12)
        clg = data.sum_ahu_cooling()
        # mixed 76.5, supply 55, flow 1000
        assert clg[0] == pytest.approx(1.08 * 1000 * 21.5 / 1e6, rel=1e-12)

    def test_flow_gap_poisons_sum(self):
        smap = _series_map()
        vals = smap[("VAV11", PointRole.VAV_SUPPLY_FLOW)].values.copy()
        vals[3] = np.nan
        smap[("VAV11", PointRole.VAV_SUPPLY_FLOW)] = _series("f1", vals, Unit.CFM)
        data = assemble(_graph(), _binding(), smap)
        assert np.isnan(data.ahus["AH1"].flow_sum[3])
        assert not np.isnan(data.ahus["AH1"].flow_sum[2])

    def test_missing_ahu_supply_temp_refuses(self):
        smap = _series_map()
        del smap[("AH1", PointRole.AHU_SUPPLY_AIR_TEMP)]
        with pytest.raises(DisaggError, match="supply air temperature"):
            assemble(_graph(), _binding(), smap)

    def test_missing_meter_refuses(self):
        smap = _series_map()
        del smap[("B1", PointRole.BUILDING_COOLING_POWER)]
        with pytest.raises(DisaggError, match="meter"):
            assemble(_graph(), _binding(), smap)

    def test_no_mixed_air_story_refuses(self):
        smap = _series_map()
        del smap[("AH1", PointRole.ECONOMIZER_DAMPER_POS)]
        with pytest.raises(DisaggError, match="mixed-air"):
            assemble(_graph(), _binding(), smap)

    def test_vav_without_flow_excluded(self):
        smap = _series_map()
        del smap[("VAV12", PointRole.VAV_SUPPLY_FLOW)]
        data = assemble(_graph(), _binding(), smap)
        assert "VAV12" in data.excluded_vavs
        np.testing.assert_allclose(data.ahus["AH1"].flow_sum, 400.0)

    def test_disjoint_ranges_raise(self):
        smap = _series_map()
        smap[("B1", PointRole.OUTSIDE_AIR_TEMP)] = _series(
            "oat", np.full(8, 80.0), start=T0 + 8 * GRID
        )
        with pytest.raises(AlignmentError, match="no temporal overlap"):
            assemble(_graph(), _binding(), smap)

    def test_mode_row_predicates(self):
        smap = _series_map(n=4)
        # drive mixed air via a measured sensor: cooling, idle, heating, gap
        smap[("AH1", PointRole.AHU_MIXED_AIR_TEMP)] = _series(
            "mat", [70.0, 55.2, 50.0, np.nan]
        )
        data = assemble(_graph(), _binding(), smap)
        np.testing.assert_array_equal(data.cooling_rows(), [True, True, False, False])
        np.testing.assert_array_equal(data.heating_rows(), [False, True, True, False])


def _numbered_frame(start, interval, n):
    """A frame whose every array is distinct, with some optional fields left None."""
    rows = np.arange(n, dtype=float)
    vav = VavData("VAV11", "AH1", rows + 1, rows + 2, rows + 3,
                  flow_setpoint=rows + 4, min_flow=rows + 5)
    ahu = AhuData("AH1", rows + 6, rows + 7, rows + 8, mixed_temp=rows + 9,
                  damper=rows / max(n, 1))
    return BuildingData(graph=_graph(vavs_per_ahu=1), start=start, interval_s=interval,
                        n_rows=n, cooling_meter=rows + 10, heating_meter=rows + 11,
                        vavs={"VAV11": vav}, ahus={"AH1": ahu}, oat=rows + 12)


class TestWindow:
    @settings(max_examples=300, deadline=None)
    @given(interval=st.sampled_from([60, 420, 900, 3600, 25200]),
           n=st.integers(0, 60),
           phase=st.integers(0, 25199),
           lo=st.integers(-3 * 86400, 20 * 86400),
           hi=st.integers(-3 * 86400, 20 * 86400))
    @example(interval=420, n=40, phase=0, lo=5 * 420 + 1, hi=9 * 420 - 1)  # off-grid
    @example(interval=420, n=40, phase=0, lo=-86400, hi=86400 * 9)  # beyond both ends
    @example(interval=420, n=40, phase=0, lo=3000, hi=1000)  # reversed
    @example(interval=420, n=40, phase=0, lo=2100, hi=2100)  # empty
    def test_view_matches_row_mask(self, interval, n, phase, lo, hi):
        data = _numbered_frame(T0 + phase, interval, n)
        start, end = T0 + lo, T0 + hi
        view = data.window(start, end)
        mask = data.row_mask(start, end)
        np.testing.assert_array_equal(view.timestamps(), data.timestamps()[mask])
        assert view.n_rows == int(mask.sum())
        assert view.interval_s == interval and view.graph is data.graph
        pairs = [(data, view), (data.vavs["VAV11"], view.vavs["VAV11"]),
                 (data.ahus["AH1"], view.ahus["AH1"])]
        for parent, child in pairs:
            for f in fields(parent):
                p, c = getattr(parent, f.name), getattr(child, f.name)
                if isinstance(p, np.ndarray):
                    np.testing.assert_array_equal(c, p[mask])
                    assert c.size == 0 or np.shares_memory(c, p), f.name
                elif p is None:
                    assert c is None, f.name
        assert data.n_rows == n and data.start == T0 + phase
