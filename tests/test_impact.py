"""Impact estimation tests.

Oracles are closed forms, frozen before the assertions were written. The
stuck-damper scenario pins the zone-to-supply difference at 19 degF with
300 CFM of excess flow for 168 hours, so the metered waste is

    1.08 * 300 * 19 * 168 / 1e6 * c1  =  1.1376288 MMBTU  (c1 = 1.1)

and the flat annualization of a 7-day window is that times 365/7. The
annualizer is checked against a direct sum over the reference year done
in plain Python, never through the module under test.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hvacdisagg.calibrate import fit_model
from hvacdisagg.energy import ahu_power, vav_cooling_power, vav_heating_power
from hvacdisagg.errors import FitError
from hvacdisagg.faults import RULE_NAMES, FaultFinding, Thresholds, run_all
from hvacdisagg.impact import (
    METHOD_MODEL,
    METHOD_NOT_ESTIMABLE,
    METHOD_SETPOINT,
    MIN_WINDOW_DAYS,
    REPORT_HEADER,
    ImpactEstimate,
    _daily_pairs,
    _NotEstimable,
    _window_delta,
    annualize,
    build_report,
    estimate_all,
    estimate_impact,
    format_report,
    prioritize,
    write_report_csv,
)

# hand value: 1.08 * 300 * 19 * 168 / 1e6 * 1.1
DAMPER_LOSS_MMBTU = 1.1376288
# same window extrapolated flat: every fault day wastes the same amount
DAMPER_ANNUAL_MMBTU = DAMPER_LOSS_MMBTU * 365.0 / 7.0

DAY = 86400


def brute_annual(slope, intercept, reference):
    """Clamped sum over the reference year, plain Python."""
    total = 0.0
    for x in reference:
        v = slope * float(x) + intercept
        if v > 0.0:
            total += v
    return total


def _reference_year():
    d = np.arange(1, 366)
    return 50.0 + 20.0 * np.sin(2 * np.pi * (d - 201) / 365.0)


def _finding(rule, equipment, start, end):
    return FaultFinding(rule=rule, rule_name=RULE_NAMES[rule],
                        equipment=equipment, window_start=start,
                        window_end=end, statistic=0.0, threshold=0.0)


@pytest.fixture(scope="module")
def impact_model(impact_loaded):
    return fit_model(impact_loaded.data)


@pytest.fixture(scope="module")
def faulted_model(faulted_loaded):
    return fit_model(faulted_loaded.data)


class TestAnnualize:
    def test_linear_law_matches_direct_sum(self):
        oat = np.linspace(45.0, 65.0, 30)
        losses = 0.1 * oat - 4.0
        ref = _reference_year()
        res = annualize(losses, oat, ref)
        assert not res.fallback
        assert res.slope == pytest.approx(0.1, rel=1e-9)
        assert res.intercept == pytest.approx(-4.0, rel=1e-9)
        assert abs(res.r) == pytest.approx(1.0, abs=1e-12)
        assert res.annual_mmbtu == pytest.approx(brute_annual(0.1, -4.0, ref), rel=1e-6)

    def test_cold_weather_law_clamps_hot_days(self):
        # heating-season waste: negative slope, so the reference summer
        # would predict negative loss and must contribute zero instead
        oat = np.linspace(20.0, 55.0, 24)
        losses = 10.0 - 0.2 * oat
        ref = _reference_year()
        res = annualize(losses, oat, ref)
        want = brute_annual(-0.2, 10.0, ref)
        assert res.annual_mmbtu == pytest.approx(want, rel=1e-6)
        assert res.annual_mmbtu >= 0.0
        assert want < 365.0 * float(np.mean(losses))  # the clamp actually bit

    def test_uncorrelated_losses_fall_back_to_mean(self):
        # loss period 2 against weather period 3: correlation exactly zero
        oat = np.array([40.0, 50.0, 60.0] * 4)
        losses = np.array([1.0, 2.0] * 6)
        res = annualize(losses, oat, _reference_year())
        assert res.fallback
        assert res.r == pytest.approx(0.0, abs=1e-12)
        assert res.annual_mmbtu == pytest.approx(1.5 * 365.0, rel=1e-12)

    def test_flat_weather_falls_back_to_mean(self):
        losses = np.array([1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0])
        res = annualize(losses, np.full(7, 50.0), _reference_year())
        assert res.fallback
        assert res.annual_mmbtu == pytest.approx(float(np.mean(losses)) * 365.0)
        assert res.slope == 0.0

    def test_too_few_days(self):
        with pytest.raises(FitError, match="at least 7"):
            annualize(np.ones(6), np.linspace(40, 60, 6), _reference_year())

    def test_shape_mismatch(self):
        with pytest.raises(FitError, match="equal-length"):
            annualize(np.ones(10), np.ones(9), _reference_year())


@given(slope=st.floats(-2.0, 2.0), intercept=st.floats(-50.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_annualize_reproduces_any_exact_law(slope, intercept):
    assume(abs(slope) > 0.02)
    oat = np.linspace(30.0, 70.0, 20)
    ref = _reference_year()
    res = annualize(slope * oat + intercept, oat, ref)
    assert not res.fallback
    want = brute_annual(slope, intercept, ref)
    assert res.annual_mmbtu == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestFaultEnergyLoss:
    def test_damper_loss_closed_form(self, impact_loaded, impact_model):
        (inj,) = impact_loaded.truth.injections
        finding = _finding(5, inj.equipment, inj.start, inj.end)
        est = estimate_impact(finding, impact_model, impact_loaded.data,
                              impact_loaded.reference_oat)
        assert est.method == METHOD_SETPOINT
        assert est.observed_mmbtu == pytest.approx(DAMPER_LOSS_MMBTU, rel=1e-9)

    def test_short_window_rejected(self, impact_loaded, impact_model):
        (inj,) = impact_loaded.truth.injections
        finding = _finding(5, inj.equipment, inj.start, inj.start + 3 * DAY)
        est = estimate_impact(finding, impact_model, impact_loaded.data,
                              impact_loaded.reference_oat)
        assert est.method == METHOD_NOT_ESTIMABLE
        assert est.observed_mmbtu is None
        assert est.notes == "finding window is shorter than 7 days"

    def test_missing_setpoint_not_estimable(self, impact_loaded, impact_model):
        data = impact_loaded.data
        (inj,) = impact_loaded.truth.injections
        crippled = dataclasses.replace(
            data.vavs[inj.equipment], flow_setpoint=None)
        data = dataclasses.replace(data, vavs={**data.vavs, inj.equipment: crippled})
        finding = _finding(5, inj.equipment, inj.start, inj.end)
        est = estimate_impact(finding, impact_model, data, impact_loaded.reference_oat)
        assert est.method == METHOD_NOT_ESTIMABLE
        assert est.observed_mmbtu is None

    def test_loss_clamped_at_zero(self, impact_loaded, impact_model):
        # a box delivering under setpoint saves coil energy; that must
        # never surface as negative waste
        data = impact_loaded.data
        vav = data.vavs["VAV1-01"]
        starved = dataclasses.replace(vav, flow=vav.flow_setpoint - 100.0)
        data = dataclasses.replace(data, vavs={**data.vavs, "VAV1-01": starved})
        finding = _finding(5, "VAV1-01", data.start, data.start + 8 * DAY)
        est = estimate_impact(finding, impact_model, data, impact_loaded.reference_oat)
        assert est.method == METHOD_SETPOINT
        assert est.observed_mmbtu == 0.0


def masked_delta_series(finding, model, data, thresholds):
    """The full-frame path the window view replaced: per-row (faulty -
    ideal) MMBTU over the whole frame, zero outside row_mask of the finding
    window, plus the method tag. Raises _NotEstimable as impact does."""
    if finding.window_end - finding.window_start < MIN_WINDOW_DAYS * DAY:
        raise _NotEstimable(f"finding window is shorter than {MIN_WINDOW_DAYS} days")
    k = model.constants.air_power_k
    deadband = model.constants.mode_deadband_f
    window = data.row_mask(finding.window_start, finding.window_end)
    dt_hr = data.interval_s / 3600.0
    rule = finding.rule
    if rule in (4, 5):
        vav = data.vavs.get(finding.equipment)
        if vav is None:
            raise _NotEstimable(f"VAV '{finding.equipment}' not in the assembled frame")
        rows = (window & ~np.isnan(vav.flow) & ~np.isnan(vav.zone_temp)
                & ~np.isnan(vav.supply_temp))
        if rule == 5:
            if vav.flow_setpoint is None:
                raise _NotEstimable("no flow setpoint to define the ideal flow")
            rows &= ~np.isnan(vav.flow_setpoint)
            ideal_flow = vav.flow_setpoint
        else:
            if vav.min_flow is None:
                raise _NotEstimable("VAV missing min-flow config")
            if vav.occupied is None:
                raise _NotEstimable("no occupancy signal to scope the ideal flow")
            rows &= ~np.isnan(vav.min_flow) & ~np.isnan(vav.occupied)
            held = vav.occupied <= 0.0
            if vav.zone_upper_limit is not None:
                held &= vav.zone_temp < vav.zone_upper_limit
            ideal_flow = np.where(held, vav.min_flow, vav.flow)
        if not rows.any():
            raise _NotEstimable("no usable instants in the finding window")
        delta = model["c1"] * (
            vav_cooling_power(vav.flow, vav.zone_temp, vav.supply_temp, k)
            - vav_cooling_power(ideal_flow, vav.zone_temp, vav.supply_temp, k))
        if (model.reheat_fitted and vav.heating_valve is not None
                and data.hot_water_temp is not None):
            delta = delta + model["c7"] * (
                vav_heating_power(data.hot_water_temp, vav.supply_temp,
                                  vav.flow, vav.heating_valve, k)
                - vav_heating_power(data.hot_water_temp, vav.supply_temp,
                                    ideal_flow, vav.heating_valve, k))
        return np.where(rows, delta, 0.0) * dt_hr, METHOD_SETPOINT
    ahu = data.ahus.get(finding.equipment)
    if ahu is None:
        raise _NotEstimable(f"AHU '{finding.equipment}' not in the assembled frame")
    if rule in (2, 3):
        valve = ahu.cooling_valve if rule == 2 else ahu.heating_valve
        if valve is None:
            raise _NotEstimable("no valve command to isolate closed instants")
        rows = (window & ~np.isnan(valve) & (valve <= thresholds.valve_closed_tolerance)
                & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.mixed_temp)
                & ~np.isnan(ahu.flow_sum))
        if not rows.any():
            raise _NotEstimable("valve never commanded closed in the finding window")
        cooling, heating = ahu_power(ahu.mixed_temp, ahu.supply_temp,
                                     ahu.flow_sum, k, deadband)
        coil = model["c4"] * cooling if rule == 2 else model["c6"] * heating
        return np.where(rows, coil, 0.0) * dt_hr, METHOD_MODEL
    if ahu.mixed_temp_measured is None or ahu.mixed_temp_estimated is None:
        raise _NotEstimable("need both a mixed-air sensor and an estimated mix")
    rows = (window & ~np.isnan(ahu.mixed_temp_measured)
            & ~np.isnan(ahu.mixed_temp_estimated)
            & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.flow_sum))
    if not rows.any():
        raise _NotEstimable("no usable instants in the finding window")
    clg_f, htg_f = ahu_power(ahu.mixed_temp_measured, ahu.supply_temp,
                             ahu.flow_sum, k, deadband)
    clg_i, htg_i = ahu_power(ahu.mixed_temp_estimated, ahu.supply_temp,
                             ahu.flow_sum, k, deadband)
    delta = model["c4"] * (clg_f - clg_i) + model["c6"] * (htg_f - htg_i)
    return np.where(rows, delta, 0.0) * dt_hr, METHOD_MODEL


def _stripped(data):
    """data without the inputs each rule's counterfactual needs."""
    vavs = {k: dataclasses.replace(v, flow_setpoint=None, min_flow=None)
            for k, v in data.vavs.items()}
    ahus = {k: dataclasses.replace(a, cooling_valve=None, heating_valve=None,
                                   mixed_temp_measured=None)
            for k, a in data.ahus.items()}
    return dataclasses.replace(data, vavs=vavs, ahus=ahus)


def _outcome(delta_fn, finding, model, data):
    try:
        delta, method = delta_fn(finding, model, data, Thresholds())
    except _NotEstimable as why:
        return None, METHOD_NOT_ESTIMABLE, str(why)
    return delta, method, ""


@pytest.mark.parametrize("bundle", ["faulted", "impact"])
@pytest.mark.parametrize("strip", [False, True], ids=["full", "stripped"])
def test_view_delta_matches_masked_delta(bundle, strip, request):
    loaded = request.getfixturevalue(f"{bundle}_loaded")
    model = request.getfixturevalue(f"{bundle}_model")
    data = _stripped(loaded.data) if strip else loaded.data
    findings = list(run_all(loaded.data).findings)
    assert findings
    if bundle == "impact":
        # a window under a week takes the not-estimable path before any cut
        (inj,) = loaded.truth.injections
        findings.append(_finding(5, inj.equipment, inj.start, inj.start + 3 * DAY))
    for finding in findings:
        got, got_method, got_note = _outcome(
            lambda *a: _window_delta(*a)[1:], finding, model, data)
        want, want_method, want_note = _outcome(masked_delta_series, finding, model, data)
        assert (got_method, got_note) == (want_method, want_note), finding
        if want is not None:
            mask = data.row_mask(finding.window_start, finding.window_end)
            assert got.tobytes() == want[mask].tobytes(), finding


class TestEstimateImpact:
    def test_flat_fallback_on_steady_weather(self, impact_loaded, impact_model):
        # the scenario's daily-mean OAT is the same every day, so the
        # weather regression is degenerate and the mean carries the year
        (inj,) = impact_loaded.truth.injections
        finding = _finding(5, inj.equipment, inj.start, inj.end)
        est = estimate_impact(finding, impact_model, impact_loaded.data,
                              impact_loaded.reference_oat)
        assert est.method == METHOD_SETPOINT
        assert est.observed_mmbtu == pytest.approx(DAMPER_LOSS_MMBTU, rel=1e-9)
        assert est.annual_mmbtu == pytest.approx(DAMPER_ANNUAL_MMBTU, rel=1e-9)
        assert est.r == 0.0
        assert "flat extrapolation" in est.notes

    def test_no_weather_data_still_extrapolates(self, impact_loaded, impact_model):
        data = dataclasses.replace(impact_loaded.data, oat=None)
        (inj,) = impact_loaded.truth.injections
        finding = _finding(5, inj.equipment, inj.start, inj.end)
        est = estimate_impact(finding, impact_model, data,
                              impact_loaded.reference_oat)
        assert est.annual_mmbtu == pytest.approx(DAMPER_ANNUAL_MMBTU, rel=1e-9)
        assert "outdoor-air" in est.notes

    def test_not_estimable_has_no_numbers(self, impact_loaded, impact_model):
        data = impact_loaded.data
        (inj,) = impact_loaded.truth.injections
        crippled = dataclasses.replace(data.vavs[inj.equipment], flow_setpoint=None)
        data = dataclasses.replace(data, vavs={**data.vavs, inj.equipment: crippled})
        finding = _finding(5, inj.equipment, inj.start, inj.end)
        est = estimate_impact(finding, impact_model, data, impact_loaded.reference_oat)
        assert est.method == METHOD_NOT_ESTIMABLE
        assert not est.estimable
        assert est.observed_mmbtu is None
        assert est.annual_mmbtu is None
        assert "setpoint" in est.notes

    def test_short_finding_not_estimable_beside_normal_one(self, impact_loaded,
                                                           impact_model):
        # min_persistence_days = 3 is legal, so a 3-day finding must be
        # listed as not estimable instead of failing every other finding
        (inj,) = impact_loaded.truth.injections
        short = _finding(5, inj.equipment, inj.start, inj.start + 3 * DAY)
        normal = _finding(5, inj.equipment, inj.start, inj.end)
        got_short, got_normal = estimate_all(
            [short, normal], impact_model, impact_loaded.data,
            impact_loaded.reference_oat)
        assert got_short.method == METHOD_NOT_ESTIMABLE
        assert got_short.annual_mmbtu is None
        assert "shorter than 7 days" in got_short.notes
        assert got_normal.method == METHOD_SETPOINT
        assert got_normal.annual_mmbtu == pytest.approx(DAMPER_ANNUAL_MMBTU, rel=1e-9)

    def test_valve_closed_uses_configured_tolerance(self, faulted_loaded, faulted_model):
        # AH2's shut cooling valve reads 0.03: closed under a 0.05 tolerance
        # only, so detection finds the leak and impact must price it
        data = faulted_loaded.data
        ahu = data.ahus["AH2"]
        valve = np.where(ahu.cooling_valve <= 0.01, 0.03, ahu.cooling_valve)
        ahus = {**data.ahus, "AH2": dataclasses.replace(ahu, cooling_valve=valve)}
        data = dataclasses.replace(data, ahus=ahus)
        th = Thresholds(valve_closed_tolerance=0.05)
        (finding,) = [f for f in run_all(data, th).findings if f.rule == 2]
        assert finding.equipment == "AH2"
        (est,) = estimate_all([finding], faulted_model, data,
                              faulted_loaded.reference_oat, th)
        assert est.method == METHOD_MODEL
        assert est.observed_mmbtu > 0.0
        (strict,) = estimate_all([finding], faulted_model, data,
                                 faulted_loaded.reference_oat)
        assert strict.method == METHOD_NOT_ESTIMABLE
        assert "never commanded closed" in strict.notes

    def test_method_tags_by_rule(self, faulted_loaded, faulted_model):
        result = run_all(faulted_loaded.data)
        estimates = estimate_all(result.findings, faulted_model,
                                 faulted_loaded.data, faulted_loaded.reference_oat)
        methods = {e.finding.rule: e.method for e in estimates}
        assert methods == {
            1: METHOD_MODEL, 2: METHOD_MODEL, 3: METHOD_MODEL,
            4: METHOD_SETPOINT, 5: METHOD_SETPOINT,
        }
        for est in estimates:
            assert est.observed_mmbtu >= 0.0
            assert est.annual_mmbtu >= 0.0


class TestPrioritize:
    def _estimate(self, rule, equipment, annual, method=METHOD_SETPOINT):
        finding = _finding(rule, equipment, 0, 7 * DAY)
        if annual is None:
            return ImpactEstimate(finding=finding, method=METHOD_NOT_ESTIMABLE)
        return ImpactEstimate(finding=finding, method=method,
                              observed_mmbtu=annual / 52.0, annual_mmbtu=annual)

    def test_descending_annual_not_estimable_last(self):
        ests = [
            self._estimate(2, "AH2", 15.0),
            self._estimate(1, "AH1", None),
            self._estimate(5, "VAV1", 40.0),
            self._estimate(3, "AH3", 22.0),
        ]
        ordered = prioritize(ests)
        assert [e.annual_mmbtu for e in ordered] == [40.0, 22.0, 15.0, None]

    def test_ties_break_on_rule_then_equipment(self):
        ests = [
            self._estimate(5, "VAV2", 10.0),
            self._estimate(5, "VAV1", 10.0),
            self._estimate(4, "VAV9", 10.0),
        ]
        ordered = prioritize(ests)
        assert [(e.finding.rule, e.finding.equipment) for e in ordered] == [
            (4, "VAV9"), (5, "VAV1"), (5, "VAV2")]

    def test_order_independent_of_input_order(self):
        ests = [self._estimate(r, f"E{r}{i}", float(a))
                for i, (r, a) in enumerate([(1, 5), (2, 9), (3, 9), (4, 1), (5, 30)])]
        ests.append(self._estimate(2, "E99", None))
        want = prioritize(ests)
        for seed in range(5):
            shuffled = list(ests)
            random.Random(seed).shuffle(shuffled)
            assert prioritize(shuffled) == want


class TestReport:
    def _impacts(self):
        mk = TestPrioritize()._estimate
        return prioritize([
            mk(5, "VAV1", 10.0), mk(5, "VAV2", 5.0),
            mk(2, "AH1", 30.0, METHOD_MODEL),
            mk(4, "VAV3", None),
        ])

    def test_rows_grouped_by_rule(self):
        rows = build_report(self._impacts())
        assert [(r.rule, r.count, r.annual_mmbtu, r.not_estimable) for r in rows] == [
            (2, 1, 30.0, 0),
            (5, 2, 15.0, 0),
            (4, 1, None, 1),
        ]
        assert rows[0].possible_fault == RULE_NAMES[2]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(build_report(self._impacts()), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_HEADER)
        assert lines[1] == "2,cooling valve leak,1,30.000,0"
        assert lines[-1] == "4,min-flow config error,1,,1"

    def test_text_table(self):
        text = format_report(build_report(self._impacts()))
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0].startswith("rule")
        assert set(lines[1]) == {"-", " "}
        assert any("not estimable" in ln for ln in lines)
        assert all(ln == ln.rstrip() for ln in lines)

    def test_report_stable_under_shuffling(self):
        impacts = list(self._impacts())
        want = build_report(impacts)
        for seed in range(5):
            shuffled = list(impacts)
            random.Random(seed).shuffle(shuffled)
            assert build_report(prioritize(shuffled)) == want


def masked_daily_pairs(delta, data):
    """The per-day mask loop the contiguous day slices replaced."""
    days = data.timestamps() // DAY
    losses, oat = [], []
    for day in np.unique(days):
        sel = days == day
        losses.append(max(0.0, float(delta[sel].sum())))
        vals = data.oat[sel]
        vals = vals[~np.isnan(vals)]
        oat.append(float(vals.mean()) if len(vals) else np.nan)
    return np.array(losses), np.array(oat)


def test_daily_pairs_match_per_day_masks(faulted_loaded):
    # windows that start and end mid-day, a day whose OAT is all gaps, and
    # an empty window; every sum keeps its bits
    data = faulted_loaded.data
    oat = data.oat.copy()
    oat[(data.timestamps() // DAY) == data.start // DAY + 3] = np.nan
    oat[::5] = np.nan
    data = dataclasses.replace(data, oat=oat)
    rng = np.random.default_rng(21)
    for start, end in [(data.start, data.end),
                       (data.start + DAY // 3, data.start + 9 * DAY + 7 * 3600),
                       (data.start + DAY, data.start + DAY)]:
        view = data.window(start, end)
        delta = rng.normal(0.0, 0.01, view.n_rows)
        got, want = _daily_pairs(delta, view), masked_daily_pairs(delta, view)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
