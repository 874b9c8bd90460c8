"""Energy impact of detected faults, annualized against reference weather.

For each finding an ideal-state counterfactual is built from the same trend
data: flows snap back to their setpoint or configured minimum, leaking coils
stop leaking, a stuck economizer mixes what its command says it should. The
calibrated coefficients turn both the faulty and the ideal series into plant
energy, and the clamped difference integrated over the finding window is the
observed waste. Daily waste regressed on daily mean outdoor temperature then
extrapolates over a 365-day reference year.

Losses are never negative, and a finding whose inputs cannot support the
counterfactual carries no number at all rather than a zero; a zero means
"measured, nothing wasted", absence means "could not measure".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import CalibratedModel
from .energy import BuildingData, ahu_power, vav_cooling_power, vav_heating_power
from .errors import DegenerateSeriesError, FitError
from .faults import RULE_NAMES, FaultFinding, Thresholds
from .ingest import _write_rows, format_timestamp
from .timeseries import pearson

__all__ = [
    "ImpactEstimate",
    "AnnualResult",
    "ReportRow",
    "METHOD_SETPOINT",
    "METHOD_MODEL",
    "METHOD_NOT_ESTIMABLE",
    "annualize",
    "estimate_impact",
    "estimate_all",
    "prioritize",
    "build_report",
    "write_impacts_csv",
    "write_report_csv",
    "format_report",
    "format_table",
]

METHOD_SETPOINT = "setpoint-ideal"
METHOD_MODEL = "model-ideal"
METHOD_NOT_ESTIMABLE = "not-estimable"

MIN_WINDOW_DAYS = 7
MIN_ANNUALIZE_DAYS = 7

# below this, a loss-vs-weather slope is treated as noise and the mean
# daily loss is extrapolated flat across the year
CORRELATION_FLOOR = 0.3


@dataclass(frozen=True)
class ImpactEstimate:
    finding: FaultFinding
    method: str
    observed_mmbtu: float | None = None
    slope: float | None = None
    intercept: float | None = None
    r: float | None = None
    annual_mmbtu: float | None = None
    notes: str = ""

    @property
    def estimable(self) -> bool:
        return self.method != METHOD_NOT_ESTIMABLE


@dataclass(frozen=True)
class AnnualResult:
    annual_mmbtu: float
    slope: float
    intercept: float
    r: float
    fallback: bool


class _NotEstimable(Exception):
    """Internal: the counterfactual cannot be built from this data."""


def _delta_series(finding: FaultFinding, model: CalibratedModel,
                  data: BuildingData, thresholds: Thresholds):
    """Per-row (faulty - ideal) energy in MMBTU across data, zero at rows
    the counterfactual cannot use, plus the method tag. The rows are
    signed; clamping happens where a loss is summed. A valve counts as
    closed at the same tolerance detection used. Raises _NotEstimable."""
    k = model.constants.air_power_k
    deadband = model.constants.mode_deadband_f
    dt_hr = data.interval_s / 3600.0
    rule = finding.rule

    if rule in (4, 5):
        vav = data.vavs.get(finding.equipment)
        if vav is None:
            raise _NotEstimable(f"VAV '{finding.equipment}' not in the assembled frame")
        rows = ~np.isnan(vav.flow) & ~np.isnan(vav.zone_temp) & ~np.isnan(vav.supply_temp)
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
        rows = (~np.isnan(valve) & (valve <= thresholds.valve_closed_tolerance)
                & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.mixed_temp)
                & ~np.isnan(ahu.flow_sum))
        if not rows.any():
            raise _NotEstimable("valve never commanded closed in the finding window")
        cooling, heating = ahu_power(ahu.mixed_temp, ahu.supply_temp,
                                     ahu.flow_sum, k, deadband)
        # ideal supply equals mixed air, so the ideal coil power is zero and
        # the waste is the full coil output across closed instants
        coil = model["c4"] * cooling if rule == 2 else model["c6"] * heating
        return np.where(rows, coil, 0.0) * dt_hr, METHOD_MODEL

    # rule 1: charge the coils for the gap between the mix the damper was
    # told to make and the one the sensor reports
    if ahu.mixed_temp_measured is None or ahu.mixed_temp_estimated is None:
        raise _NotEstimable("need both a mixed-air sensor and an estimated mix")
    rows = (~np.isnan(ahu.mixed_temp_measured)
            & ~np.isnan(ahu.mixed_temp_estimated)
            & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.flow_sum))
    if not rows.any():
        raise _NotEstimable("no usable instants in the finding window")
    clg_f, htg_f = ahu_power(ahu.mixed_temp_measured, ahu.supply_temp,
                             ahu.flow_sum, k, deadband)
    clg_i, htg_i = ahu_power(ahu.mixed_temp_estimated, ahu.supply_temp,
                             ahu.flow_sum, k, deadband)
    delta = (model["c4"] * (clg_f - clg_i) + model["c6"] * (htg_f - htg_i))
    return np.where(rows, delta, 0.0) * dt_hr, METHOD_MODEL


def _window_delta(finding: FaultFinding, model: CalibratedModel,
                  data: BuildingData, thresholds: Thresholds):
    """The finding window of data as a view, its delta series and the
    method tag. Raises _NotEstimable, also for a window under a week."""
    if finding.window_end - finding.window_start < MIN_WINDOW_DAYS * 86400:
        raise _NotEstimable(f"finding window is shorter than {MIN_WINDOW_DAYS} days")
    view = data.window(finding.window_start, finding.window_end)
    return (view, *_delta_series(finding, model, view, thresholds))


def annualize(daily_losses, daily_oat, reference_year_oat) -> AnnualResult:
    """Extrapolate daily losses to a year through the weather correlation.

    Fits loss = slope*OAT + intercept and sums the clamped prediction over
    the reference year. A correlation weaker than the floor falls back to
    mean daily loss times 365; a negative-slope fit on noise must not turn
    a real loss into phantom savings.
    """
    losses = np.asarray(daily_losses, dtype=float)
    oat = np.asarray(daily_oat, dtype=float)
    ref = np.asarray(reference_year_oat, dtype=float)
    if losses.shape != oat.shape or losses.ndim != 1:
        raise FitError("daily losses and daily OAT must be equal-length vectors")
    if len(losses) < MIN_ANNUALIZE_DAYS:
        raise FitError(
            f"annualize needs at least {MIN_ANNUALIZE_DAYS} daily pairs, got {len(losses)}")
    try:
        r = float(pearson(losses, oat))
    except DegenerateSeriesError:
        # flat weather or flat losses; the line is meaningless either way
        return AnnualResult(float(np.mean(losses)) * 365.0, 0.0,
                            float(np.mean(losses)), 0.0, True)
    slope, intercept = np.polyfit(oat, losses, 1)
    if abs(r) < CORRELATION_FLOOR:
        annual = float(np.mean(losses)) * 365.0
        return AnnualResult(annual, float(slope), float(intercept), r, True)
    annual = float(np.sum(np.maximum(slope * ref + intercept, 0.0)))
    return AnnualResult(annual, float(slope), float(intercept), r, False)


def _daily_pairs(delta: np.ndarray, data: BuildingData):
    """Aggregate the delta series over data's rows into per-calendar-day
    losses (each day clamped, same contract as the window loss) with that
    day's mean OAT. The rows are ascending in time, so each day is one
    contiguous slice of them."""
    days = data.timestamps() // 86400
    # each day's first row, then one past the last row
    edges = [*np.flatnonzero(np.diff(days, prepend=days[:1] - 1)).tolist(), len(days)]
    daily_losses = []
    daily_oat = []
    for i0, i1 in zip(edges, edges[1:]):
        daily_losses.append(max(0.0, float(delta[i0:i1].sum())))
        if data.oat is None:
            daily_oat.append(np.nan)
        else:
            vals = data.oat[i0:i1]
            vals = vals[~np.isnan(vals)]
            daily_oat.append(float(vals.mean()) if len(vals) else np.nan)
    return np.array(daily_losses), np.array(daily_oat)


def estimate_impact(finding: FaultFinding, model: CalibratedModel,
                    data: BuildingData, reference_year_oat,
                    thresholds: Thresholds = Thresholds()) -> ImpactEstimate:
    """Full impact pipeline for one finding: observed loss, weather
    regression, annual extrapolation. A finding shorter than a week is
    listed as not estimable rather than failing the whole report.
    thresholds are the ones detection ran with."""
    try:
        view, delta, method = _window_delta(finding, model, data, thresholds)
    except _NotEstimable as why:
        return ImpactEstimate(finding=finding, method=METHOD_NOT_ESTIMABLE,
                              notes=str(why))
    observed = max(0.0, float(delta.sum()))
    daily_losses, daily_oat = _daily_pairs(delta, view)
    have_oat = ~np.isnan(daily_oat)
    if have_oat.sum() >= MIN_ANNUALIZE_DAYS:
        res = annualize(daily_losses[have_oat], daily_oat[have_oat],
                        reference_year_oat)
        notes = "weak weather correlation; flat extrapolation" if res.fallback else ""
        return ImpactEstimate(finding=finding, method=method,
                              observed_mmbtu=observed, slope=res.slope,
                              intercept=res.intercept, r=res.r,
                              annual_mmbtu=res.annual_mmbtu, notes=notes)
    annual = float(np.mean(daily_losses)) * 365.0
    return ImpactEstimate(finding=finding, method=method,
                          observed_mmbtu=observed, annual_mmbtu=annual,
                          notes="too little outdoor-air data; flat extrapolation")


def estimate_all(findings, model: CalibratedModel, data: BuildingData,
                 reference_year_oat, thresholds: Thresholds = Thresholds()):
    return tuple(estimate_impact(f, model, data, reference_year_oat, thresholds)
                 for f in findings)


def prioritize(impacts):
    """Estimable impacts by descending annual loss, ties by (rule,
    equipment); whatever could not be estimated goes last, same tiebreak."""
    def key(est: ImpactEstimate):
        if not est.estimable:
            return (1, 0.0, est.finding.rule, est.finding.equipment)
        return (0, -est.annual_mmbtu, est.finding.rule, est.finding.equipment)
    return tuple(sorted(impacts, key=key))


# ----------------------------------------------------------------------
# rolled-up report, one row per rule, mirroring how operators read it

@dataclass(frozen=True)
class ReportRow:
    rule: int
    possible_fault: str
    count: int
    annual_mmbtu: float | None
    not_estimable: int


def build_report(impacts) -> tuple:
    by_rule: dict = {}
    for est in impacts:
        by_rule.setdefault(est.finding.rule, []).append(est)
    rows = []
    for rule, group in by_rule.items():
        estimable = [e for e in group if e.estimable]
        total = sum(e.annual_mmbtu for e in estimable) if estimable else None
        rows.append(ReportRow(
            rule=rule,
            possible_fault=RULE_NAMES.get(rule, f"rule {rule}"),
            count=len(group),
            annual_mmbtu=total,
            not_estimable=len(group) - len(estimable),
        ))
    rows.sort(key=lambda r: (r.annual_mmbtu is None,
                             -(r.annual_mmbtu or 0.0), r.rule))
    return tuple(rows)


IMPACTS_HEADER = ["rule", "equipment", "method", "window_start", "window_end",
                  "observed_mmbtu", "annual_mmbtu", "slope", "intercept", "r",
                  "notes"]


def write_impacts_csv(impacts, path: str) -> None:
    def cell(value):
        return "" if value is None else repr(float(value))

    _write_rows(path, IMPACTS_HEADER, (
        [est.finding.rule, est.finding.equipment, est.method,
         format_timestamp(est.finding.window_start), format_timestamp(est.finding.window_end),
         cell(est.observed_mmbtu), cell(est.annual_mmbtu),
         cell(est.slope), cell(est.intercept), cell(est.r), est.notes]
        for est in impacts))


REPORT_HEADER = ["rule", "possible_fault", "count", "mmbtu_per_year", "not_estimable"]


def write_report_csv(rows, path: str) -> None:
    _write_rows(path, REPORT_HEADER, (
        [row.rule, row.possible_fault, row.count,
         "" if row.annual_mmbtu is None else f"{row.annual_mmbtu:.3f}", row.not_estimable]
        for row in rows))


def format_table(header, rows) -> str:
    """Columns left-justified two spaces apart under a dash rule, trailing
    blanks cut, no final newline."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return "\n".join([line(header), line("-" * w for w in widths), *map(line, rows)])


def format_report(rows) -> str:
    """Fixed-width table for terminals and log files."""
    body = []
    for row in rows:
        if row.annual_mmbtu is None:
            energy = "not estimable"
        else:
            energy = f"{row.annual_mmbtu:.1f}"
            if row.not_estimable:
                energy += f" (+{row.not_estimable} not estimable)"
        body.append((str(row.rule), row.possible_fault, str(row.count), energy))
    return format_table(("rule", "possible fault", "count", "MMBTU/year"), body) + "\n"
