"""Detection rule tests on hand-built frames.

Each rule is fed a frame where the fault signature is planted directly,
so the expected statistic is arithmetic done in the test: a supply held
10 degF under a 60 degF mixed stream is a -16.67% bias, a flow at 1.3x
its setpoint is exactly 30% RMS error, and so on. The sliding-window
behaviour of run_all is checked with violations of known duration.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mpe, rmspe, traced_peak_bytes
from hvacdisagg import faults
from hvacdisagg.building import AhuNode, EquipmentGraph, VavNode
from hvacdisagg.energy import AhuData, BuildingData, VavData
from hvacdisagg.errors import (
    ConfigError,
    DegenerateSeriesError,
    DisaggError,
    FaultRuleError,
    IngestError,
)
from hvacdisagg.faults import (
    _FLOW_EPS_CFM,
    _RULES,
    _TEMP_EPS_F,
    _Windows,
    FINDING,
    INCONCLUSIVE,
    OK,
    RULE_NAMES,
    DetectionResult,
    FaultFinding,
    InconclusiveNote,
    RuleResult,
    Thresholds,
    read_findings,
    run_all,
    write_findings,
)
from hvacdisagg.timeseries import pearson

T0 = 1_767_571_200  # 2026-01-05T00:00:00Z
GRID = 900
DAY_ROWS = 86400 // GRID

TH = Thresholds()

# -16.67% planted cooling-leak bias: (50 - 60) / 60 * 100
LEAK_BIAS_PCT = -100.0 / 6.0
# flow at 1.3x setpoint on every row
DAMPER_RMSPE_PCT = 30.0


def _graph():
    vavs = (
        VavNode("V1", "A1", min_flow_cfm=100.0, zone_upper_limit_f=76.0),
        VavNode("V2", "A1", min_flow_cfm=100.0, zone_upper_limit_f=76.0),
    )
    return EquipmentGraph(
        building_id="B1", ahus=(AhuNode("A1"),), vavs=vavs,
        cooling_meter_point="clg", heating_meter_point="htg",
    )


def _frame(days=8, seed=5, grid=GRID):
    """Healthy single-AHU frame: mix tracks the damper, coils tight, flows
    on setpoint, boxes idle at min flow overnight."""
    n = days * 86400 // grid
    rng = np.random.default_rng(seed)
    t = np.arange(n)

    damper = 0.5 + 0.3 * np.sin(2 * np.pi * t / 96)
    oat = 52.0 + 9.0 * np.sin(2 * np.pi * t / 96 + 0.4)
    ret = 72.0 + 0.6 * np.sin(2 * np.pi * t / 96 + 1.2)
    mixed = damper * oat + (1.0 - damper) * ret
    supply = mixed.copy()  # both coils closed: the air passes through
    clg_valve = np.zeros(n)
    htg_valve = np.zeros(n)

    second = t * grid % 86400
    occupied = ((second >= 7 * 3600) & (second < 19 * 3600)).astype(float)
    setpoint = np.where(occupied > 0.0, 420.0, 100.0)
    zone = 72.0 + 1.0 * np.sin(2 * np.pi * t / 96 + 0.9) + rng.normal(0, 0.1, n)

    def vav(vid):
        return VavData(
            vid, "A1", zone.copy(), setpoint.copy(), supply,
            flow_setpoint=setpoint.copy(), occupied=occupied.copy(),
            min_flow=np.full(n, 100.0), zone_upper_limit=np.full(n, 76.0),
        )

    ahu = AhuData(
        "A1", supply, ret, 2.0 * setpoint, mixed_temp=mixed,
        mixed_temp_measured=mixed.copy(), mixed_temp_estimated=mixed.copy(),
        damper=damper, cooling_valve=clg_valve, heating_valve=htg_valve,
    )
    return BuildingData(
        graph=_graph(), start=T0, interval_s=grid, n_rows=n,
        cooling_meter=np.zeros(n), heating_meter=np.zeros(n),
        vavs={"V1": vav("V1"), "V2": vav("V2")}, ahus={"A1": ahu},
    )


def judge_whole_frame(rule_id, data, unit, th):
    """Rule rule_id's verdict on the whole frame judged as one window."""
    screen = _RULES[rule_id][0]
    return screen(data, unit, th, _Windows(np.array([0]), np.array([data.n_rows]))).result(0)


class TestEconomizerRule:
    def test_tracking_mix_is_ok(self):
        res = judge_whole_frame(1, _frame(), "A1", TH)
        assert res.verdict == OK
        assert res.statistic == pytest.approx(1.0, abs=1e-12)

    def test_stuck_damper_flagged(self):
        data = _frame()
        ahu = data.ahus["A1"]
        n = data.n_rows
        rng = np.random.default_rng(9)
        # command keeps sweeping but the measured mix no longer answers it
        ahu.mixed_temp_estimated = 72.0 - 22.0 * ahu.damper
        ahu.mixed_temp_measured = np.full(n, 61.0) + rng.normal(0, 0.05, n)
        res = judge_whole_frame(1, data, "A1", TH)
        assert res.verdict == FINDING
        assert abs(res.statistic) < 0.2

    def test_no_mixed_sensor_inconclusive(self):
        data = _frame()
        data.ahus["A1"].mixed_temp_measured = None
        res = judge_whole_frame(1, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "sensor" in res.detail

    def test_no_estimate_inconclusive(self):
        data = _frame()
        data.ahus["A1"].mixed_temp_estimated = None
        res = judge_whole_frame(1, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE

    def test_parked_damper_inconclusive(self):
        data = _frame()
        data.ahus["A1"].damper = np.full(data.n_rows, 0.5)
        res = judge_whole_frame(1, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "barely moves" in res.detail

    def test_sparse_sensor_inconclusive(self):
        data = _frame()
        measured = data.ahus["A1"].mixed_temp_measured
        measured[: int(0.6 * data.n_rows)] = np.nan
        res = judge_whole_frame(1, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "usable" in res.detail

    def test_flatlined_sensor_inconclusive(self):
        data = _frame()
        data.ahus["A1"].mixed_temp_measured = np.full(data.n_rows, 61.0)
        res = judge_whole_frame(1, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "flatlined" in res.detail

    def test_unknown_ahu(self):
        with pytest.raises(FaultRuleError, match="unknown AHU"):
            judge_whole_frame(1, _frame(), "A9", TH)


class TestValveLeakRules:
    def test_cooling_leak_flagged(self):
        data = _frame()
        ahu = data.ahus["A1"]
        ahu.mixed_temp = np.full(data.n_rows, 60.0)
        ahu.supply_temp = np.full(data.n_rows, 50.0)
        res = judge_whole_frame(2, data, "A1", TH)
        assert res.verdict == FINDING
        assert res.statistic == pytest.approx(LEAK_BIAS_PCT, rel=1e-12)

    def test_heating_leak_flagged(self):
        data = _frame()
        ahu = data.ahus["A1"]
        ahu.mixed_temp = np.full(data.n_rows, 60.0)
        ahu.supply_temp = np.full(data.n_rows, 70.0)
        res = judge_whole_frame(3, data, "A1", TH)
        assert res.verdict == FINDING
        assert res.statistic == pytest.approx(-LEAK_BIAS_PCT, rel=1e-12)

    def test_cold_bias_does_not_trip_heating_rule(self):
        data = _frame()
        ahu = data.ahus["A1"]
        ahu.mixed_temp = np.full(data.n_rows, 60.0)
        ahu.supply_temp = np.full(data.n_rows, 50.0)
        res = judge_whole_frame(3, data, "A1", TH)
        assert res.verdict == OK

    def test_tight_valve_is_ok(self):
        res = judge_whole_frame(2, _frame(), "A1", TH)
        assert res.verdict == OK
        assert res.statistic == pytest.approx(0.0, abs=1e-12)

    def test_only_closed_instants_count(self):
        data = _frame()
        ahu = data.ahus["A1"]
        n = data.n_rows
        half = n // 2
        # coil legitimately driving the air down while commanded open
        ahu.cooling_valve = np.where(np.arange(n) < half, 0.8, 0.0)
        ahu.mixed_temp = np.full(n, 60.0)
        ahu.supply_temp = np.where(np.arange(n) < half, 45.0, 60.0)
        res = judge_whole_frame(2, data, "A1", TH)
        assert res.verdict == OK
        assert res.statistic == pytest.approx(0.0, abs=1e-12)

    def test_never_closed_inconclusive(self):
        data = _frame()
        data.ahus["A1"].cooling_valve = np.full(data.n_rows, 0.4)
        res = judge_whole_frame(2, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "never commanded closed" in res.detail

    def test_missing_valve_trend_inconclusive(self):
        data = _frame()
        data.ahus["A1"].heating_valve = None
        res = judge_whole_frame(3, data, "A1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "valve command" in res.detail


class TestConfigRule:
    def test_pinned_unoccupied_flow_flagged(self):
        data = _frame()
        vav = data.vavs["V1"]
        vav.flow = np.where(vav.occupied > 0.0, vav.flow, 300.0)
        res = judge_whole_frame(4, data, "V1", TH)
        assert res.verdict == FINDING
        assert res.statistic == pytest.approx(1.0)

    def test_night_setback_is_ok(self):
        res = judge_whole_frame(4, _frame(), "V1", TH)
        assert res.verdict == OK
        assert res.statistic == pytest.approx(0.0)

    def test_slack_boundary_not_over(self):
        data = _frame()
        vav = data.vavs["V1"]
        # exactly at the slack multiple: not a violation
        vav.flow = np.where(vav.occupied > 0.0, vav.flow, 110.0)
        res = judge_whole_frame(4, data, "V1", TH)
        assert res.verdict == OK

    def test_warm_zone_rows_excluded(self):
        data = _frame()
        vav = data.vavs["V1"]
        vav.flow = np.where(vav.occupied > 0.0, vav.flow, 300.0)
        vav.zone_temp = np.where(vav.occupied > 0.0, vav.zone_temp, 77.5)
        res = judge_whole_frame(4, data, "V1", TH)
        assert res.verdict == INCONCLUSIVE
        assert "below the zone limit" in res.detail

    def test_always_occupied_inconclusive(self):
        data = _frame()
        data.vavs["V1"].occupied = np.ones(data.n_rows)
        res = judge_whole_frame(4, data, "V1", TH)
        assert res.verdict == INCONCLUSIVE

    def test_missing_min_flow_raises(self):
        data = _frame()
        data.vavs["V1"].min_flow = None
        with pytest.raises(FaultRuleError, match="min-flow"):
            judge_whole_frame(4, data, "V1", TH)


class TestDamperRule:
    def test_flow_off_setpoint_flagged(self):
        data = _frame()
        vav = data.vavs["V2"]
        vav.flow = 1.3 * vav.flow_setpoint
        res = judge_whole_frame(5, data, "V2", TH)
        assert res.verdict == FINDING
        assert res.statistic == pytest.approx(DAMPER_RMSPE_PCT, rel=1e-12)

    def test_tracking_flow_is_ok(self):
        res = judge_whole_frame(5, _frame(), "V2", TH)
        assert res.verdict == OK
        assert res.statistic == pytest.approx(0.0, abs=1e-12)

    def test_missing_setpoint_inconclusive(self):
        data = _frame()
        data.vavs["V2"].flow_setpoint = None
        res = judge_whole_frame(5, data, "V2", TH)
        assert res.verdict == INCONCLUSIVE

    def test_zero_setpoint_inconclusive(self):
        data = _frame()
        data.vavs["V2"].flow_setpoint = np.zeros(data.n_rows)
        res = judge_whole_frame(5, data, "V2", TH)
        assert res.verdict == INCONCLUSIVE
        assert "setpoint sits at zero" in res.detail

    def test_unknown_vav(self):
        with pytest.raises(FaultRuleError, match="unknown VAV"):
            judge_whole_frame(5, _frame(), "V9", TH)


class TestRunAll:
    def test_healthy_frame_quiet(self):
        result = run_all(_frame())
        assert result.findings == ()
        assert result.warnings == ()

    def test_one_finding_per_equipment(self):
        data = _frame()
        vav = data.vavs["V2"]
        # stuck low: excess flow would also trip the min-flow rule overnight
        vav.flow = 0.7 * vav.flow_setpoint
        result = run_all(data)
        assert [(f.rule, f.equipment) for f in result.findings] == [(5, "V2")]
        f = result.findings[0]
        # violating every window, so the merged span covers the frame
        assert f.window_start == data.start
        assert f.window_end == data.start + data.n_rows * GRID
        assert f.statistic == pytest.approx(DAMPER_RMSPE_PCT, rel=1e-12)
        assert f.threshold == TH.flow_rmspe_pct

    def test_short_excursion_stays_quiet(self):
        data = _frame(days=10)
        vav = data.vavs["V2"]
        bad = np.arange(data.n_rows) < DAY_ROWS
        # one day at 1.4x setpoint dilutes to 40 * sqrt(1/7) = 15% RMS
        # inside every 7-day window, under the 20% threshold
        vav.flow = np.where(bad, 1.4 * vav.flow_setpoint, vav.flow)
        result = run_all(data)
        assert result.findings == ()

    def test_findings_sorted_by_rule_then_equipment(self):
        data = _frame()
        v1 = data.vavs["V1"]
        # a misconfigured minimum moves the setpoint too; the box tracks it
        v1.flow = np.where(v1.occupied > 0.0, v1.flow, 300.0)
        v1.flow_setpoint = v1.flow.copy()
        data.vavs["V2"].flow = 0.7 * data.vavs["V2"].flow_setpoint
        result = run_all(data)
        assert [(f.rule, f.equipment) for f in result.findings] == [(4, "V1"), (5, "V2")]

    def test_rule_error_degrades_to_note(self):
        data = _frame()
        data.vavs["V1"].min_flow = None
        result = run_all(data)
        notes = [(n.rule, n.equipment) for n in result.inconclusive]
        assert (4, "V1") in notes
        assert all(f.equipment != "V1" or f.rule != 4 for f in result.findings)

    def test_short_frame_warns_and_skips(self):
        result = run_all(_frame(days=3))
        assert result.findings == ()
        assert result.warnings and "persistence" in result.warnings[0]


def _masked(data, start, end):
    """The window as a boolean-masked copy of every array in the frame."""
    mask = data.row_mask(start, end)

    def cut(obj, **changes):
        arrays = {f.name: getattr(obj, f.name)[mask] for f in dataclasses.fields(obj)
                  if isinstance(getattr(obj, f.name), np.ndarray)}
        return dataclasses.replace(obj, **arrays, **changes)

    return cut(data, start=int(data.timestamps()[mask][0]), n_rows=int(mask.sum()),
               vavs={k: cut(v) for k, v in data.vavs.items()},
               ahus={k: cut(a) for k, a in data.ahus.items()})


# Reference rule bodies: each judges the one window it is handed as a
# frame, with boolean masks over that frame and the whole-series timeseries
# statistics. run_all must agree with them window for window.

def _ref_ahu(data, ahu_id):
    try:
        return data.ahus[ahu_id]
    except KeyError:
        raise FaultRuleError(f"unknown AHU '{ahu_id}'") from None


def _ref_vav(data, vav_id):
    try:
        return data.vavs[vav_id]
    except KeyError:
        raise FaultRuleError(f"unknown VAV '{vav_id}'") from None


def _ref_covered(valid, floor):
    if len(valid) == 0:
        return None, "window holds no rows"
    frac = int(valid.sum()) / len(valid)
    if frac < floor:
        return None, f"only {frac:.0%} of the window is usable (need {floor:.0%})"
    return frac, None


def _ref_economizer_stuck(data, ahu_id, th):
    ahu = _ref_ahu(data, ahu_id)
    if ahu.mixed_temp_measured is None:
        return RuleResult(INCONCLUSIVE, detail="no mixed-air temperature sensor")
    if ahu.mixed_temp_estimated is None:
        return RuleResult(
            INCONCLUSIVE,
            detail="no outside-air temp and damper command to estimate the mix")
    measured = ahu.mixed_temp_measured
    estimated = ahu.mixed_temp_estimated
    valid = ~np.isnan(measured) & ~np.isnan(estimated) & ~np.isnan(ahu.damper)
    _, short = _ref_covered(valid, th.min_coverage)
    if short:
        return RuleResult(INCONCLUSIVE, detail=short)
    d = ahu.damper[valid]
    travel = float(d.max() - d.min())
    if travel < th.damper_range_min:
        return RuleResult(
            INCONCLUSIVE,
            detail=f"damper travelled only {travel:.2f} of its range; "
                   "correlation says nothing when the command barely moves")
    try:
        corr = pearson(measured[valid], estimated[valid])
    except DegenerateSeriesError:
        return RuleResult(INCONCLUSIVE, detail="flatlined sensor")
    if corr < th.correlation_min:
        return RuleResult(FINDING, corr,
                          f"mixed-air correlation {corr:.2f} < {th.correlation_min}")
    return RuleResult(OK, corr)


def _ref_valve_leak(data, ahu_id, th, *, heating):
    ahu = _ref_ahu(data, ahu_id)
    valve = ahu.heating_valve if heating else ahu.cooling_valve
    side = "heating" if heating else "cooling"
    if valve is None:
        return RuleResult(INCONCLUSIVE, detail=f"no {side} valve command trend")
    valid = ~np.isnan(valve) & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.mixed_temp)
    _, short = _ref_covered(valid, th.min_coverage)
    if short:
        return RuleResult(INCONCLUSIVE, detail=short)
    closed = valid & (valve <= th.valve_closed_tolerance)
    if not closed.any():
        return RuleResult(INCONCLUSIVE,
                          detail=f"{side} valve never commanded closed in window")
    try:
        bias = mpe(ahu.supply_temp[closed], ahu.mixed_temp[closed], eps=_TEMP_EPS_F)
    except DegenerateSeriesError:
        return RuleResult(INCONCLUSIVE, detail="mixed-air temperature near zero; "
                                               "percentage bias undefined")
    if heating:
        if bias > th.heating_mpe_pct:
            return RuleResult(FINDING, bias,
                              f"supply runs {bias:+.1f}% above mixed air with the "
                              "heating valve shut")
    else:
        if bias < th.cooling_mpe_pct:
            return RuleResult(FINDING, bias,
                              f"supply runs {bias:+.1f}% below mixed air with the "
                              "cooling valve shut")
    return RuleResult(OK, bias)


def _ref_config_error(data, vav_id, th):
    vav = _ref_vav(data, vav_id)
    if vav.min_flow is None:
        raise FaultRuleError(f"{vav_id}: VAV missing min-flow config")
    valid = (~np.isnan(vav.flow) & ~np.isnan(vav.zone_temp)
             & ~np.isnan(vav.occupied) & ~np.isnan(vav.min_flow))
    _, short = _ref_covered(valid, th.min_coverage)
    if short:
        return RuleResult(INCONCLUSIVE, detail=short)
    eligible = valid & (vav.occupied <= 0.0)
    if vav.zone_upper_limit is not None:
        eligible &= vav.zone_temp < vav.zone_upper_limit
    if not eligible.any():
        return RuleResult(INCONCLUSIVE,
                          detail="no unoccupied instants below the zone limit")
    over = vav.flow > th.occupied_flow_slack * vav.min_flow
    frac = float(np.mean(over[eligible]))
    if frac > th.config_violation_fraction:
        return RuleResult(FINDING, frac,
                          f"{frac:.0%} of unoccupied instants exceed "
                          f"{th.occupied_flow_slack:g}x the configured minimum")
    return RuleResult(OK, frac)


def _ref_damper_stuck(data, vav_id, th):
    vav = _ref_vav(data, vav_id)
    if vav.flow_setpoint is None:
        return RuleResult(INCONCLUSIVE, detail="no flow setpoint trend")
    valid = ~np.isnan(vav.flow) & ~np.isnan(vav.flow_setpoint)
    _, short = _ref_covered(valid, th.min_coverage)
    if short:
        return RuleResult(INCONCLUSIVE, detail=short)
    try:
        err = rmspe(vav.flow[valid], vav.flow_setpoint[valid], eps=_FLOW_EPS_CFM)
    except DegenerateSeriesError:
        return RuleResult(INCONCLUSIVE,
                          detail="flow setpoint sits at zero through the window")
    if err > th.flow_rmspe_pct:
        return RuleResult(FINDING, err,
                          f"flow misses setpoint by {err:.0f}% RMS")
    return RuleResult(OK, err)


reference_rules = {
    1: _ref_economizer_stuck,
    2: lambda data, unit, th: _ref_valve_leak(data, unit, th, heating=False),
    3: lambda data, unit, th: _ref_valve_leak(data, unit, th, heating=True),
    4: _ref_config_error,
    5: _ref_damper_stuck,
}


def reference_run_all(data, th=TH):
    """A rule-major sweep: each (rule, unit) walks every window, judged by
    reference_rules on a masked copy of the frame."""
    day, persist = 86400, th.min_persistence_days * 86400
    starts = range(data.start, data.end - persist + 1, day)
    windows = {s: _masked(data, s, s + persist) for s in starts}
    findings, notes = [], []
    for rule_id, (_, kind, pick, worse) in sorted(_RULES.items()):
        func = reference_rules[rule_id]
        for unit in sorted(data.ahus if kind == "ahu" else data.vavs):
            hits, reason = [], None
            for s in starts:
                try:
                    res = func(windows[s], unit, th)
                except DisaggError as exc:
                    res = RuleResult(INCONCLUSIVE, detail=str(exc))
                if res.verdict == FINDING:
                    hits.append((s, s + persist, res.statistic, res.detail))
                elif res.verdict == INCONCLUSIVE and reason is None:
                    reason = res.detail
            if hits:
                stat = worse(h[2] for h in hits)
                findings.append(FaultFinding(
                    rule_id, RULE_NAMES[rule_id], unit, min(h[0] for h in hits),
                    max(h[1] for h in hits), stat, pick(th),
                    next(h[3] for h in hits if h[2] == stat)))
            elif reason is not None:
                notes.append(InconclusiveNote(rule_id, unit, reason))
    return DetectionResult(tuple(findings), tuple(notes), ())


def _gappy_frame(grid=GRID):
    """Gaps and faults that come and go, so verdicts change between windows."""
    data = _frame(days=12, grid=grid)
    day = np.arange(data.n_rows) * grid // 86400
    ahu = data.ahus["A1"]
    ahu.mixed_temp_measured[day < 4] = np.nan  # coverage short, then enough
    ahu.cooling_valve[(day >= 2) & (day < 6)] = np.nan
    ahu.supply_temp = np.where(day >= 6, ahu.mixed_temp - 6.0, ahu.supply_temp)
    v1, v2 = data.vavs["V1"], data.vavs["V2"]
    v1.flow = np.where((day >= 3) & (v1.occupied <= 0.0), 300.0, v1.flow)
    v1.zone_temp[day == 8] = np.nan
    v2.flow = np.where(day >= 5, (0.8 - 0.02 * day) * v2.flow_setpoint, v2.flow)
    v2.flow_setpoint[day < 3] = np.nan
    return data


class TestSweepOracle:
    @pytest.mark.parametrize("make", [
        lambda: _frame(),
        _gappy_frame,
        lambda: _gappy_frame(grid=420),
    ], ids=["healthy", "gappy", "gappy-420s"])
    def test_hand_built_frames(self, make):
        data = make()
        assert run_all(data) == reference_run_all(make())

    def test_vav_without_min_flow(self):
        data = _gappy_frame()
        data.vavs["V1"].min_flow = None
        result = run_all(data)
        assert result == reference_run_all(data)
        assert InconclusiveNote(4, "V1", "V1: VAV missing min-flow config") in result.inconclusive

    def test_gappy_frame_has_findings_and_notes(self):
        result = run_all(_gappy_frame())
        assert [(f.rule, f.equipment) for f in result.findings] == [
            (2, "A1"), (4, "V1"), (5, "V1"), (5, "V2")]
        assert [(n.rule, n.equipment) for n in result.inconclusive] == [(1, "A1")]

    def test_faulted_bundle(self, faulted_loaded):
        result = run_all(faulted_loaded.data)
        assert result.findings
        assert result == reference_run_all(faulted_loaded.data)

    def test_healthy_bundle(self, healthy_loaded):
        assert run_all(healthy_loaded.data) == reference_run_all(healthy_loaded.data)


def _random_frame(grid, days, seed, clg_closed, htg_closed, near_zero, parked, flatlined,
                  extreme=False):
    """A frame whose inputs change day by day: NaN runs in every input, leaks,
    pinned overnight flow and flow off setpoint that come and go, and
    mixed-air temperatures and flow setpoints that straddle the percentage
    floors. Any optional input may be missing. extreme plants a few rows of
    +-inf or overflow scale in each input a statistic pairs, so windows hold
    pairs that _paired drops and sums that overflow."""
    data = _frame(days=days, seed=seed, grid=grid)
    n = data.n_rows
    rng = np.random.default_rng(seed)
    day = np.arange(n) * grid // 86400

    def per_day(values):
        return np.asarray(values)[day]

    def gappy(x):
        x = np.array(x, dtype=float)
        for _ in range(rng.integers(0, 4)):
            i = rng.integers(0, n)
            x[i:i + rng.integers(1, max(2, n // 4))] = np.nan
        return x

    def maybe(x):
        return None if rng.random() < 0.1 else x

    def planted(x):
        if not extreme or x is None:
            return x
        x = x.copy()
        rows = rng.integers(0, n, rng.integers(1, 6))
        x[rows] = rng.choice([np.inf, -np.inf, 1e308, -1e308, 1.7e308], len(rows))
        return x

    ahu = data.ahus["A1"]
    cold = per_day(rng.random(days + 1) < near_zero)
    mixed = np.where(cold, rng.uniform(-1.0, 1.0, n), ahu.mixed_temp)
    estimated = mixed.copy()
    damper = ahu.damper
    if parked:
        damper = np.full(n, 0.5)
    stuck = per_day(rng.random(days + 1) < 0.5)
    measured = np.where(stuck, 61.0 + rng.normal(0, 0.05, n), mixed)
    if flatlined:
        measured = np.full(n, 61.0)
    offset = per_day(rng.uniform(-0.25, 0.25, days + 1))
    ahu.supply_temp = gappy(mixed * (1.0 + offset))
    ahu.mixed_temp = gappy(mixed)
    ahu.mixed_temp_measured = maybe(gappy(measured))
    ahu.mixed_temp_estimated = maybe(gappy(estimated))
    ahu.damper = gappy(damper)
    ahu.cooling_valve = maybe(gappy(np.where(rng.random(n) < clg_closed, 0.0, 0.6)))
    ahu.heating_valve = maybe(gappy(np.where(rng.random(n) < htg_closed, 0.005, 0.3)))

    for vav in data.vavs.values():
        low = per_day(rng.random(days + 1) < near_zero)
        setpoint = np.where(low, rng.uniform(0.0, 2.0, n), vav.flow_setpoint)
        flow = setpoint * per_day(rng.uniform(0.6, 1.4, days + 1))
        pinned = per_day(rng.random(days + 1) < 0.5) & (vav.occupied <= 0.0)
        vav.flow = gappy(np.where(pinned, 300.0, flow))
        vav.flow_setpoint = maybe(gappy(setpoint))
        warm = per_day(rng.random(days + 1) < 0.3)
        vav.zone_temp = gappy(np.where(warm, 77.5, vav.zone_temp))
        vav.occupied = gappy(vav.occupied)
        vav.min_flow = maybe(gappy(vav.min_flow))
        vav.zone_upper_limit = maybe(gappy(vav.zone_upper_limit))
        vav.flow, vav.flow_setpoint = planted(vav.flow), planted(vav.flow_setpoint)
    ahu.supply_temp, ahu.mixed_temp = planted(ahu.supply_temp), planted(ahu.mixed_temp)
    ahu.mixed_temp_measured = planted(ahu.mixed_temp_measured)
    ahu.mixed_temp_estimated = planted(ahu.mixed_temp_estimated)
    return data


class TestSweepProperty:
    @settings(max_examples=200, deadline=None)
    @given(grid=st.sampled_from([420, 900, 3600, 21600]),
           days=st.integers(7, 30),
           seed=st.integers(0, 2**32 - 1),
           clg_closed=st.floats(0.0, 1.0),
           htg_closed=st.floats(0.0, 1.0),
           near_zero=st.floats(0.0, 1.0),
           parked=st.booleans(),
           flatlined=st.booleans(),
           persistence=st.integers(1, 10),
           coverage=st.floats(0.1, 1.0),
           extreme=st.booleans())
    # 8 days on a 420 s grid span 7.997 days, a hair under an 8-day floor
    @example(grid=420, days=8, seed=0, clg_closed=0.5, htg_closed=0.5, near_zero=0.0,
             parked=False, flatlined=False, persistence=8, coverage=0.5, extreme=False)
    def test_sweep_matches_reference(self, grid, days, seed, clg_closed, htg_closed,
                                     near_zero, parked, flatlined, persistence, coverage,
                                     extreme):
        data = _random_frame(grid, days, seed, clg_closed, htg_closed, near_zero,
                             parked, flatlined, extreme)
        th = Thresholds(min_persistence_days=persistence, min_coverage=coverage)
        result = run_all(data, th)
        if data.end - data.start < persistence * 86400:
            assert result.warnings and not result.findings and not result.inconclusive
            (shown,) = re.findall(r"frame covers ([0-9.]+) days", result.warnings[0])
            assert float(shown) < th.min_persistence_days
        else:
            assert result == reference_run_all(data, th)

    def test_generator_reaches_every_reason(self):
        """The generated frames do reach the degenerate-base, parked-damper
        and flatlined-sensor reasons the property is meant to cover."""
        reasons = set()
        for seed, (near_zero, parked, flatlined) in enumerate(
                [(0.9, False, False), (0.0, True, False), (0.0, False, True)]):
            data = _random_frame(900, 14, seed, 0.5, 0.5, near_zero, parked, flatlined)
            th = Thresholds(min_persistence_days=3, min_coverage=0.1)
            for rule_id, func in reference_rules.items():
                unit = "A1" if _RULES[rule_id][1] == "ahu" else "V1"
                for s in range(data.start, data.end - 3 * 86400 + 1, 86400):
                    try:
                        reasons.add(func(_masked(data, s, s + 3 * 86400), unit, th).detail)
                    except DisaggError:
                        pass
        assert {"mixed-air temperature near zero; percentage bias undefined",
                "flow setpoint sits at zero through the window",
                "flatlined sensor"} <= reasons
        assert any("barely moves" in r for r in reasons)

    def test_sweep_never_cuts_a_window_view(self, monkeypatch):
        data = _random_frame(900, 30, 11, 0.5, 0.5, 0.2, False, False)
        expected = reference_run_all(data)

        def refuse(*args, **kwargs):
            raise AssertionError("run_all cut a per-window view")

        monkeypatch.setattr(BuildingData, "window", refuse)
        assert run_all(data) == expected


class TestSweepCost:
    @pytest.fixture
    def calls(self, monkeypatch):
        """(statistic, windows judged) of every statistic call run_all makes;
        None for a call on one window alone."""
        made = []
        for name in ("pearson", "mpe_of", "rmspe_of"):
            def counted(first, *args, real=getattr(faults, name), name=name):
                made.append((name, len(first) if np.ndim(first) == 2 else None))
                return real(first, *args)
            monkeypatch.setattr(faults, name, counted)
        return made

    def test_statistic_calls_scale_with_length_groups(self, calls, faulted_loaded):
        # a window needs its own call only for a non-finite pair or a flat
        # series, and the faulted bundle has neither
        result = run_all(faulted_loaded.data)
        assert result == reference_run_all(faulted_loaded.data)
        assert calls and None not in {n for _, n in calls}
        assert 2 * len(calls) < sum(n for _, n in calls)

    def test_one_call_per_pair_when_every_window_has_one_length(self, calls):
        # 54 windows of 28 rows: one stack each for A1's three statistics
        # and V1's and V2's damper rule. On this grid the damper swings once
        # in 24 days, so 10 windows see it barely move and need no pearson.
        run_all(_frame(days=60, grid=21600))
        assert sorted(calls) == [("mpe_of", 54), ("mpe_of", 54), ("pearson", 44),
                                 ("rmspe_of", 54), ("rmspe_of", 54)]

    def test_memory_is_set_by_the_block(self):
        """Two years at 3600 s, 17,520 rows and 724 windows a pair, peak at
        1.0 MB above the frame as tracemalloc sees it, mostly running counts
        of the row masks. Gathers are bounded by ingest._BLOCK_CELLS cells;
        unbounded they peaked at 6.5 MB on this frame, and judging each
        window alone, with running counts kept as lists, at 4.9 MB."""
        data = _frame(days=730, grid=3600)
        run_all(data)
        assert traced_peak_bytes(lambda: run_all(data)) < 1.5e6


class TestSweepNotes:
    def test_first_inconclusive_reason_is_the_note(self):
        data = _frame(days=9)
        ahu = data.ahus["A1"]
        day = np.arange(data.n_rows) // DAY_ROWS
        # 4 of the first window's 7 days lack a valve trend; later windows
        # have enough rows but the valve never shuts
        ahu.cooling_valve = np.where(day < 4, np.nan, 0.4)
        result = run_all(data)
        notes = {(n.rule, n.equipment): n.reason for n in result.inconclusive}
        assert notes[(2, "A1")] == "only 43% of the window is usable (need 50%)"

    def test_unit_with_a_hit_gets_no_note(self):
        data = _frame(days=10)
        vav = data.vavs["V2"]
        day = np.arange(data.n_rows) // DAY_ROWS
        vav.flow = 0.7 * vav.flow_setpoint
        vav.flow_setpoint[day < 4] = np.nan  # first window inconclusive
        result = run_all(data)
        assert [(f.rule, f.equipment) for f in result.findings] == [(5, "V2")]
        assert result.findings[0].window_start == data.start + 86400
        assert (5, "V2") not in {(n.rule, n.equipment) for n in result.inconclusive}


class TestThresholdValidation:
    def test_correlation_range(self):
        with pytest.raises(ConfigError, match="correlation_min"):
            Thresholds(correlation_min=1.5)

    def test_cooling_bias_sign(self):
        with pytest.raises(ConfigError, match="must be < 0"):
            Thresholds(cooling_mpe_pct=3.0)

    def test_heating_bias_sign(self):
        with pytest.raises(ConfigError, match="must be > 0"):
            Thresholds(heating_mpe_pct=-3.0)

    def test_slack_floor(self):
        with pytest.raises(ConfigError, match="occupied_flow_slack"):
            Thresholds(occupied_flow_slack=0.9)

    def test_coverage_range(self):
        with pytest.raises(ConfigError, match="min_coverage"):
            Thresholds(min_coverage=0.0)


class TestFindingsIO:
    def _findings(self):
        return [
            FaultFinding(2, "cooling valve leak", "AH2", T0, T0 + 7 * 86400,
                         -13.04, -5.0, "supply runs -13.0% below mixed air"),
            FaultFinding(5, "damper stuck", "VAV3-02", T0, T0 + 11 * 86400,
                         66.15, 20.0, "flow misses setpoint by 66% RMS"),
        ]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "findings.csv")
        originals = self._findings()
        write_findings(originals, path)
        assert read_findings(path) == originals

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("timestamp,point,value\n")
        with pytest.raises(IngestError, match="not a findings file"):
            read_findings(str(path))

    def test_malformed_row_rejected(self, tmp_path):
        path = str(tmp_path / "findings.csv")
        write_findings(self._findings(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("5,damper stuck,VAV1\n")
        with pytest.raises(IngestError,
                           match=f"^{re.escape(path)}:4: expected 8 columns, got 3$"):
            read_findings(str(path))
