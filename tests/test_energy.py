import shutil
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvacdisagg import energy
from hvacdisagg.building import (
    AhuNode,
    EquipmentGraph,
    PointBinding,
    PointRole,
    VavNode,
)
from hvacdisagg.energy import (
    FALLBACKS,
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
from hvacdisagg.cli import main
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


def _measured_series_map(n=8, start=T0):
    """_series_map plus a measured series for every role FALLBACKS covers,
    each unlike what its fallback would give."""
    smap = _series_map(n, start)
    for vid in ("VAV11", "VAV12"):
        smap[(vid, PointRole.VAV_SUPPLY_AIR_TEMP)] = _series("dat", np.full(n, 58.0),
                                                            start=start)
        smap[(vid, PointRole.OCCUPIED_CMD)] = _series("occ", np.arange(n) % 2,
                                                     Unit.BOOL, start)
    smap[("AH1", PointRole.AHU_RETURN_AIR_TEMP)] = _series("rat", np.full(n, 75.0),
                                                           start=start)
    smap[("AH1", PointRole.AHU_MIXED_AIR_TEMP)] = _series("mat", np.full(n, 70.0),
                                                          start=start)
    return smap


def _binding(warnings=()):
    return PointBinding(bindings={}, warnings=warnings)


class TestAssemble:
    def test_fallback_chain(self):
        data = assemble(_graph(), _binding(), _series_map())
        tags = {(e, r): t for e, r, t in data.fallbacks_used}
        assert tags[("VAV11", PointRole.VAV_SUPPLY_AIR_TEMP)] == "parent-ahu-sat"
        assert tags[("AH1", PointRole.AHU_RETURN_AIR_TEMP)] == "mean-zone-temps"
        assert tags[("AH1", PointRole.AHU_MIXED_AIR_TEMP)] == "oat-damper-mix"
        ahu = data.ahus["AH1"]
        # return = mean(72, 74) = 73; mixed = 0.5*80 + 0.5*73 = 76.5
        assert ahu.return_temp[0] == pytest.approx(73.0)
        assert ahu.mixed_temp[0] == pytest.approx(76.5)
        np.testing.assert_allclose(ahu.flow_sum, 1000.0)
        # VAV discharge fell back to the AHU supply temp
        np.testing.assert_allclose(data.vavs["VAV11"].supply_temp, 55.0)

    def test_configured_constants_are_read_only_columns(self):
        # one value broadcast to every row, not an n-row array per VAV; a
        # window cuts it like any other column
        data = assemble(_graph(), _binding(), _series_map(n=8))
        for vav in data.vavs.values():
            for column, value in ((vav.min_flow, 100.0), (vav.zone_upper_limit, 76.0)):
                assert not column.flags.writeable
                assert column.shape == (8,) and column.tolist() == [value] * 8
                assert column.strides == (0,)
        window = data.window(T0 + 2 * GRID, T0 + 5 * GRID)
        assert window.vavs["VAV11"].min_flow.tolist() == [100.0] * 3

    def test_power_sums(self):
        data = assemble(_graph(), _binding(), _series_map())
        total = data.powers().sum_vav_cooling
        # 1.08*(400*17 + 600*19)/1e6
        assert total[0] == pytest.approx(1.08 * (400 * 17 + 600 * 19) / 1e6, rel=1e-12)
        clg = data.powers().sum_ahu_cooling
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
        assert data.excluded_vavs == (("VAV12", "no supply flow"),)
        np.testing.assert_allclose(data.ahus["AH1"].flow_sum, 400.0)

    def test_every_role_measured_takes_no_fallback(self):
        data = assemble(_graph(), _binding(), _measured_series_map())
        assert data.fallbacks_used == ()
        assert data.excluded_vavs == ()

    @pytest.mark.parametrize("role", list(FALLBACKS), ids=lambda role: role.name)
    def test_each_fallback_alone(self, role):
        # one day from Monday 15:00, so the schedule has both states
        graph, n, start = _graph(), 96, T0 + 86400
        smap = _measured_series_map(n, start)
        units = [unit for unit, r in smap if r is role]
        for unit in units:
            del smap[(unit, role)]
        data = assemble(graph, _binding(), smap)
        assert units and data.fallbacks_used == tuple(
            (unit, role, FALLBACKS[role]) for unit in units)

        schedule = occupancy_schedule(data.timestamps(), graph.occupied_start_s,
                                      graph.occupied_end_s, graph.occupied_weekdays_only)
        assert 0.0 < schedule.mean() < 1.0
        field, want = {
            PointRole.VAV_SUPPLY_AIR_TEMP: ("supply_temp", np.full(n, 55.0)),  # AH1 supply
            PointRole.OCCUPIED_CMD: ("occupied", schedule),
            PointRole.AHU_RETURN_AIR_TEMP: ("return_temp", np.full(n, 73.0)),  # mean of zones
            PointRole.AHU_MIXED_AIR_TEMP: (
                "mixed_temp", estimate_mixed_air(np.full(n, 80.0), np.full(n, 75.0),
                                                 np.full(n, 0.5))),
        }[role]
        for unit in units:
            frame = data.vavs[unit] if unit in data.vavs else data.ahus[unit]
            np.testing.assert_array_equal(getattr(frame, field), want)

    def test_exclusion_reported_beside_a_warning_naming_the_vav(self):
        smap = _series_map()
        del smap[("VAV12", PointRole.VAV_SUPPLY_FLOW)]
        claimant = "ZoneTemp on VAV12: keeping 'z2', ignoring duplicate claimant 'z2b'"
        data = assemble(_graph(), _binding((claimant,)), smap)
        assert [w for w in data.warnings if "VAV12" in w and "excluded" in w] == [
            "VAV 'VAV12' excluded from sums: no supply flow"]
        assert data.warnings.count(claimant) == 1

    def test_exclusion_reported_beside_a_warning_naming_a_longer_id(self):
        graph = replace(_graph(), vavs=(VavNode("VAV1", "AH1"), VavNode("VAV10", "AH1")))
        smap = _series_map()
        for vid, old in (("VAV1", "VAV11"), ("VAV10", "VAV12")):
            for role in (PointRole.ZONE_TEMP, PointRole.VAV_SUPPLY_FLOW):
                smap[(vid, role)] = smap.pop((old, role))
        del smap[("VAV1", PointRole.VAV_SUPPLY_FLOW)]
        claimant = "ZoneTemp on VAV10: keeping 'z2', ignoring duplicate claimant 'z2b'"
        data = assemble(graph, _binding((claimant,)), smap)
        assert [w for w in data.warnings if "excluded" in w] == [
            "VAV 'VAV1' excluded from sums: no supply flow"]
        assert data.excluded_vavs == (("VAV1", "no supply flow"),)

    def test_vav_without_air_handler_reported_once(self):
        graph = replace(_graph(), vavs=(VavNode("VAV11", "AH1"), VavNode("VAV12", None)),
                        warnings=("VAV 'VAV12' has no air handler; left unmapped",))
        data = assemble(graph, _binding(), _series_map())
        assert data.excluded_vavs == (("VAV12", "no air handler"),)
        assert [w for w in data.warnings if "excluded" in w] == [
            "VAV 'VAV12' excluded from sums: no air handler"]

    def test_vav_naming_an_unknown_air_handler_excluded(self):
        graph = replace(_graph(), vavs=(VavNode("VAV11", "AH1"), VavNode("VAV12", "AH9")))
        data = assemble(graph, _binding(), _series_map())
        assert data.excluded_vavs == (("VAV12", "no air handler"),)
        assert list(data.vavs) == ["VAV11"]

    def test_supply_temp_refusal_comes_before_a_childless_air_handler(self):
        graph = replace(_graph(), ahus=(AhuNode("AH0"), AhuNode("AH1")))
        smap = _series_map()
        smap[("AH0", PointRole.AHU_SUPPLY_AIR_TEMP)] = smap[("AH1", PointRole.AHU_SUPPLY_AIR_TEMP)]
        del smap[("AH1", PointRole.AHU_SUPPLY_AIR_TEMP)]
        with pytest.raises(DisaggError, match="'AH1' has no supply air temperature"):
            assemble(graph, _binding(), smap)

    def test_graph_without_air_handlers_has_no_usable_vavs(self):
        graph = replace(_graph(), ahus=())
        with pytest.raises(DisaggError, match="no usable VAVs"):
            assemble(graph, _binding(), _series_map())

    def test_disjoint_ranges_raise(self):
        smap = _series_map()
        smap[("B1", PointRole.OUTSIDE_AIR_TEMP)] = _series(
            "oat", np.full(8, 80.0), start=T0 + 8 * GRID
        )
        with pytest.raises(AlignmentError, match="no temporal overlap"):
            assemble(_graph(), _binding(), smap)

    def test_mode_row_predicates(self):
        smap = _series_map(n=6)
        # drive mixed air via a measured sensor: cooling, idle, heating, gap,
        # then MAT - SAT of exactly -0.5 (heating) and +0.5 (cooling), so each
        # deadband edge row leaves the other mode's rows
        smap[("AH1", PointRole.AHU_MIXED_AIR_TEMP)] = _series(
            "mat", [70.0, 55.2, 50.0, np.nan, 54.5, 55.5]
        )
        data = assemble(_graph(), _binding(), smap)
        np.testing.assert_array_equal(data.powers().cooling_rows,
                                      [True, True, False, False, False, True])
        np.testing.assert_array_equal(data.powers().heating_rows,
                                      [False, True, True, False, True, False])


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


class TestPowers:
    def test_refuses_air_handler_without_mixed_air(self):
        data = _numbered_frame(T0, GRID, 4)
        data.ahus["AH1"].mixed_temp = None
        with pytest.raises(DisaggError, match="'AH1': no mixed-air temperature"):
            data.powers()

    def test_each_estimator_once_per_unit_and_view(self, recovery_loaded, tmp_path, monkeypatch):
        # estimate evaluates each estimator once per unit; fit once per unit
        # for each of its two views, the train and the test window. An air
        # handler's mode feeds both its coil power and the mode-row masks,
        # and is evaluated once for the two.
        data = recovery_loaded.data
        per_unit = {
            "vav_cooling_power": len(data.vavs),
            "vav_heating_power": sum(v.heating_valve is not None for v in data.vavs.values()),
            "ahu_power": len(data.ahus),
            "ahu_mode": len(data.ahus),
            "economizer_term": len(data.ahus),
        }
        assert all(per_unit.values()) and data.hot_water_temp is not None
        calls = Counter()
        for name in per_unit:
            def counted(*args, _name=name, _real=getattr(energy, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(energy, name, counted)
        work = tmp_path / "bundle"
        shutil.copytree(recovery_loaded.bundle.out_dir, work)
        conf = str(work / "run.conf")

        assert main(["fit", "--config", conf]) == 0
        assert dict(calls) == {name: 2 * n for name, n in per_unit.items()}
        calls.clear()
        assert main(["estimate", "--config", conf]) == 0
        assert dict(calls) == per_unit
