"""Rule-based fault detection over an assembled building frame.

Five rules, each tied to one physical failure with a visible signature in
ordinary trend data:

 1. economizer stuck     measured mixed-air temp stops tracking the mix the
                         damper command implies
 2. cooling valve leak   supply air runs well below mixed air while the
                         cooling valve is commanded closed
 3. heating valve leak   supply air runs well above mixed air while the
                         heating valve is commanded closed
 4. min-flow config      unoccupied flow sits far above the configured
                         minimum even with the zone below its upper limit
 5. damper stuck         supply flow ignores its own setpoint

run_all slides a persistence-length window across the whole frame a day at
a time, so a fault only surfaces when its signature holds for the configured
number of consecutive days, and short excursions stay quiet. A rule's row
masks (usable rows, valve closed, unoccupied below the zone limit, flow over
the minimum, reference clear of the percentage floor) depend on the row
alone, so each rule prepares each unit once over the whole frame: it decides
the reasons no window can change (a missing sensor, valve trend, setpoint or
min-flow config) and builds its masks, their running counts and the usable
rows' values. A window is then a row range [i0, i1): counts come from
differences of running counts, and each statistic is taken over a contiguous
slice of the usable rows, the same values in the same order a masked copy
of the window would give. Each rule_* function is the one-window case of
its screen.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

import numpy as np

from .energy import BuildingData
from .errors import (
    ConfigError,
    DegenerateSeriesError,
    DisaggError,
    FaultRuleError,
    IngestError,
)
from .ingest import format_timestamp, parse_timestamp
from .timeseries import mpe_of, pearson, percent_errors, rmspe_of

__all__ = [
    "Thresholds",
    "RuleResult",
    "FaultFinding",
    "InconclusiveNote",
    "DetectionResult",
    "FINDING",
    "OK",
    "INCONCLUSIVE",
    "RULE_NAMES",
    "rule_economizer_stuck",
    "rule_cooling_valve_leak",
    "rule_heating_valve_leak",
    "rule_config_error",
    "rule_damper_stuck",
    "run_all",
    "write_findings",
    "read_findings",
]

FINDING = "finding"
OK = "ok"
INCONCLUSIVE = "inconclusive"

RULE_NAMES = {
    1: "economizer stuck",
    2: "cooling valve leak",
    3: "heating valve leak",
    4: "min-flow config error",
    5: "damper stuck",
}

# denominator floors for percentage statistics, in the reference's own unit
_TEMP_EPS_F = 0.5
_FLOW_EPS_CFM = 1.0


@dataclass(frozen=True)
class Thresholds:
    """Tunable detection limits. Defaults are deliberately conservative;
    loosening any of them can only shrink the set of findings.

    occupied_flow_slack is the one knob that is not free: 1.1 reflects how
    far real boxes overshoot a working minimum, and moving it invalidates
    the config-error rule's calibration against commissioning data.
    """

    correlation_min: float = 0.5
    cooling_mpe_pct: float = -5.0
    heating_mpe_pct: float = 5.0
    occupied_flow_slack: float = 1.1
    flow_rmspe_pct: float = 20.0
    min_persistence_days: int = 7
    min_coverage: float = 0.5
    config_violation_fraction: float = 0.9
    damper_range_min: float = 0.2
    valve_closed_tolerance: float = 0.01

    def __post_init__(self):
        if not -1.0 < self.correlation_min < 1.0:
            raise ConfigError(
                f"correlation_min must be inside (-1, 1), got {self.correlation_min}")
        if self.cooling_mpe_pct >= 0.0:
            raise ConfigError("cooling_mpe_pct is a floor on a negative bias; must be < 0")
        if self.heating_mpe_pct <= 0.0:
            raise ConfigError("heating_mpe_pct is a ceiling on a positive bias; must be > 0")
        if self.occupied_flow_slack < 1.0:
            raise ConfigError("occupied_flow_slack below 1 would flag the minimum itself")
        if self.flow_rmspe_pct <= 0.0:
            raise ConfigError("flow_rmspe_pct must be positive")
        if self.min_persistence_days < 1:
            raise ConfigError("min_persistence_days must be at least 1")
        if not 0.0 < self.min_coverage <= 1.0:
            raise ConfigError(f"min_coverage must be in (0, 1], got {self.min_coverage}")
        if not 0.0 < self.config_violation_fraction <= 1.0:
            raise ConfigError("config_violation_fraction must be in (0, 1]")
        if not 0.0 < self.damper_range_min < 1.0:
            raise ConfigError("damper_range_min must be a fraction of damper travel")
        if not 0.0 <= self.valve_closed_tolerance < 0.5:
            raise ConfigError("valve_closed_tolerance must be a small command fraction")


@dataclass(frozen=True)
class RuleResult:
    verdict: str
    statistic: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class FaultFinding:
    rule: int
    rule_name: str
    equipment: str
    window_start: int
    window_end: int
    statistic: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class InconclusiveNote:
    rule: int
    equipment: str
    reason: str


@dataclass(frozen=True)
class DetectionResult:
    findings: tuple
    inconclusive: tuple
    warnings: tuple


def _ahu(data: BuildingData, ahu_id: str):
    try:
        return data.ahus[ahu_id]
    except KeyError:
        raise FaultRuleError(f"unknown AHU '{ahu_id}'") from None


def _vav(data: BuildingData, vav_id: str):
    try:
        return data.vavs[vav_id]
    except KeyError:
        raise FaultRuleError(f"unknown VAV '{vav_id}'") from None


def _prefix(mask: np.ndarray) -> list:
    """Running count of a row mask: entry i is the number of set rows before
    row i. A list, because judges read it one window at a time."""
    return [0, *np.cumsum(mask).tolist()]


def _always(res: RuleResult):
    """A judge for a verdict no window can change."""
    return lambda i0, i1: res


def _coverage(valid: np.ndarray, floor: float):
    """Prepare the usable-row check of any row range [i0, i1).

    The returned function gives the inconclusive verdict of a range that
    falls short of floor (None when it does not) and where the range's
    valid rows start and stop among valid's set rows.
    """
    count = _prefix(valid)

    def covered(i0: int, i1: int):
        if i1 <= i0:
            return RuleResult(INCONCLUSIVE, detail="window holds no rows"), 0, 0
        a, b = count[i0], count[i1]
        frac = (b - a) / (i1 - i0)
        if frac < floor:
            return RuleResult(INCONCLUSIVE, detail=f"only {frac:.0%} of the window is "
                                                   f"usable (need {floor:.0%})"), a, b
        return None, a, b

    return covered


def _economizer_screen(data: BuildingData, ahu_id: str, th: Thresholds):
    ahu = _ahu(data, ahu_id)
    if ahu.mixed_temp_measured is None:
        return _always(RuleResult(INCONCLUSIVE, detail="no mixed-air temperature sensor"))
    if ahu.mixed_temp_estimated is None:
        return _always(RuleResult(
            INCONCLUSIVE,
            detail="no outside-air temp and damper command to estimate the mix"))
    measured = ahu.mixed_temp_measured
    estimated = ahu.mixed_temp_estimated
    valid = ~np.isnan(measured) & ~np.isnan(estimated) & ~np.isnan(ahu.damper)
    covered = _coverage(valid, th.min_coverage)
    damper, measured, estimated = ahu.damper[valid], measured[valid], estimated[valid]

    def judge(i0: int, i1: int) -> RuleResult:
        short, a, b = covered(i0, i1)
        if short:
            return short
        d = damper[a:b]
        travel = float(d.max() - d.min())
        if travel < th.damper_range_min:
            return RuleResult(
                INCONCLUSIVE,
                detail=f"damper travelled only {travel:.2f} of its range; "
                       "correlation says nothing when the command barely moves")
        try:
            corr = pearson(measured[a:b], estimated[a:b])
        except DegenerateSeriesError:
            return RuleResult(INCONCLUSIVE, detail="flatlined sensor")
        if corr < th.correlation_min:
            return RuleResult(FINDING, corr,
                              f"mixed-air correlation {corr:.2f} < {th.correlation_min}")
        return RuleResult(OK, corr)

    return judge


def _valve_leak_screen(data: BuildingData, ahu_id: str, th: Thresholds, *, heating: bool):
    ahu = _ahu(data, ahu_id)
    valve = ahu.heating_valve if heating else ahu.cooling_valve
    side = "heating" if heating else "cooling"
    if valve is None:
        return _always(RuleResult(INCONCLUSIVE, detail=f"no {side} valve command trend"))
    valid = ~np.isnan(valve) & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.mixed_temp)
    covered = _coverage(valid, th.min_coverage)
    closed = valid & (valve <= th.valve_closed_tolerance)
    n_closed = _prefix(closed)
    ok, errors = percent_errors(ahu.supply_temp[closed], ahu.mixed_temp[closed], _TEMP_EPS_F)
    n_ok = _prefix(ok)

    def judge(i0: int, i1: int) -> RuleResult:
        short, _, _ = covered(i0, i1)
        if short:
            return short
        c0, c1 = n_closed[i0], n_closed[i1]
        if c0 == c1:
            return RuleResult(INCONCLUSIVE,
                              detail=f"{side} valve never commanded closed in window")
        try:
            bias = mpe_of(errors[n_ok[c0]:n_ok[c1]], c1 - c0, _TEMP_EPS_F)
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

    return judge


def _config_screen(data: BuildingData, vav_id: str, th: Thresholds):
    vav = _vav(data, vav_id)
    if vav.min_flow is None:
        raise FaultRuleError(f"{vav_id}: VAV missing min-flow config")
    valid = (~np.isnan(vav.flow) & ~np.isnan(vav.zone_temp)
             & ~np.isnan(vav.occupied) & ~np.isnan(vav.min_flow))
    covered = _coverage(valid, th.min_coverage)
    eligible = valid & (vav.occupied <= 0.0)
    if vav.zone_upper_limit is not None:
        eligible &= vav.zone_temp < vav.zone_upper_limit
    n_eligible = _prefix(eligible)
    n_over = _prefix(eligible & (vav.flow > th.occupied_flow_slack * vav.min_flow))

    def judge(i0: int, i1: int) -> RuleResult:
        short, _, _ = covered(i0, i1)
        if short:
            return short
        n = n_eligible[i1] - n_eligible[i0]
        if n == 0:
            return RuleResult(INCONCLUSIVE,
                              detail="no unoccupied instants below the zone limit")
        frac = (n_over[i1] - n_over[i0]) / n
        if frac > th.config_violation_fraction:
            return RuleResult(FINDING, frac,
                              f"{frac:.0%} of unoccupied instants exceed "
                              f"{th.occupied_flow_slack:g}x the configured minimum")
        return RuleResult(OK, frac)

    return judge


def _damper_screen(data: BuildingData, vav_id: str, th: Thresholds):
    vav = _vav(data, vav_id)
    if vav.flow_setpoint is None:
        return _always(RuleResult(INCONCLUSIVE, detail="no flow setpoint trend"))
    valid = ~np.isnan(vav.flow) & ~np.isnan(vav.flow_setpoint)
    covered = _coverage(valid, th.min_coverage)
    ok, errors = percent_errors(vav.flow[valid], vav.flow_setpoint[valid], _FLOW_EPS_CFM)
    n_ok = _prefix(ok)

    def judge(i0: int, i1: int) -> RuleResult:
        short, a, b = covered(i0, i1)
        if short:
            return short
        try:
            err = rmspe_of(errors[n_ok[a]:n_ok[b]], b - a, _FLOW_EPS_CFM)
        except DegenerateSeriesError:
            return RuleResult(INCONCLUSIVE,
                              detail="flow setpoint sits at zero through the window")
        if err > th.flow_rmspe_pct:
            return RuleResult(FINDING, err,
                              f"flow misses setpoint by {err:.0f}% RMS")
        return RuleResult(OK, err)

    return judge


def rule_economizer_stuck(data: BuildingData, ahu_id: str, th: Thresholds) -> RuleResult:
    """Correlate the measured mixed-air temperature with the one the damper
    command implies. A working economizer keeps the two moving together; a
    stuck damper decouples them."""
    return _economizer_screen(data, ahu_id, th)(0, data.n_rows)


def rule_cooling_valve_leak(data: BuildingData, ahu_id: str, th: Thresholds) -> RuleResult:
    """Supply air biased cold across the instants the cooling valve is shut."""
    return _valve_leak_screen(data, ahu_id, th, heating=False)(0, data.n_rows)


def rule_heating_valve_leak(data: BuildingData, ahu_id: str, th: Thresholds) -> RuleResult:
    """Supply air biased warm across the instants the heating valve is shut."""
    return _valve_leak_screen(data, ahu_id, th, heating=True)(0, data.n_rows)


def rule_config_error(data: BuildingData, vav_id: str, th: Thresholds) -> RuleResult:
    """Unoccupied flow pinned above the configured minimum.

    Only instants where the zone is below its upper limit count: a warm zone
    legitimately drives flow, a cool one does not. A VAV with no upper limit
    configured is screened on occupancy alone.
    """
    return _config_screen(data, vav_id, th)(0, data.n_rows)


def rule_damper_stuck(data: BuildingData, vav_id: str, th: Thresholds) -> RuleResult:
    """Flow that no longer follows its own setpoint."""
    return _damper_screen(data, vav_id, th)(0, data.n_rows)


# rule id -> (screen, equipment kind, threshold picker, worse-of pair); a
# screen prepares one unit over the whole frame and returns the judge of any
# row range [i0, i1)
_RULES = {
    1: (_economizer_screen, "ahu", lambda t: t.correlation_min, min),
    2: (partial(_valve_leak_screen, heating=False), "ahu", lambda t: t.cooling_mpe_pct, min),
    3: (partial(_valve_leak_screen, heating=True), "ahu", lambda t: t.heating_mpe_pct, max),
    4: (_config_screen, "vav", lambda t: t.config_violation_fraction, max),
    5: (_damper_screen, "vav", lambda t: t.flow_rmspe_pct, max),
}


def run_all(data: BuildingData, th: Thresholds | None = None) -> DetectionResult:
    """Evaluate every rule against every matching piece of equipment.

    The persistence window slides across the frame in one-day steps. Each
    (rule, equipment) pair is prepared once and judges every window as a row
    range. A pair that violates in any window yields exactly one finding
    spanning the union of its violating windows, carrying the worst statistic
    seen. Rule errors on one unit degrade to an inconclusive note rather than
    aborting the sweep.
    """
    if th is None:
        th = Thresholds()
    day = 86400
    persist = th.min_persistence_days * day
    span = data.end - data.start
    if span < persist:
        return DetectionResult(
            findings=(), inconclusive=(),
            warnings=(f"frame covers {span / day:.1f} days, below the "
                      f"{th.min_persistence_days}-day persistence floor; "
                      "no detection run",))

    starts = np.arange(data.start, data.end - persist + 1, day, dtype=np.int64)
    ts = data.timestamps()
    windows = list(zip(starts.tolist(), (starts + persist).tolist(),
                       np.searchsorted(ts, starts).tolist(),
                       np.searchsorted(ts, starts + persist).tolist()))
    findings = []
    notes = []
    for rule_id, (screen, kind, pick, worse) in sorted(_RULES.items()):
        for unit in sorted(data.ahus if kind == "ahu" else data.vavs):
            try:
                judge = screen(data, unit, th)
            except DisaggError as exc:
                judge = _always(RuleResult(INCONCLUSIVE, detail=str(exc)))
            hits = []
            reason = None
            for s, e, i0, i1 in windows:
                res = judge(i0, i1)
                if res.verdict == FINDING:
                    hits.append((s, e, res.statistic, res.detail))
                elif res.verdict == INCONCLUSIVE and reason is None:
                    reason = res.detail
            if hits:
                stat = worse(h[2] for h in hits)
                findings.append(FaultFinding(
                    rule=rule_id,
                    rule_name=RULE_NAMES[rule_id],
                    equipment=unit,
                    window_start=hits[0][0],
                    window_end=hits[-1][1],
                    statistic=stat,
                    threshold=pick(th),
                    detail=next(h[3] for h in hits if h[2] == stat),
                ))
            elif reason is not None:
                notes.append(InconclusiveNote(rule_id, unit, reason))

    return DetectionResult(findings=tuple(findings), inconclusive=tuple(notes),
                           warnings=())


FINDINGS_HEADER = ["rule", "rule_name", "equipment", "window_start",
                   "window_end", "statistic", "threshold", "detail"]


def write_findings(findings, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FINDINGS_HEADER)
        for f in findings:
            writer.writerow([
                f.rule, f.rule_name, f.equipment,
                format_timestamp(f.window_start), format_timestamp(f.window_end),
                repr(float(f.statistic)), repr(float(f.threshold)), f.detail,
            ])


def read_findings(path: str):
    findings = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FINDINGS_HEADER:
            raise IngestError(f"{path}: not a findings file")
        for row in reader:
            if len(row) != len(FINDINGS_HEADER):
                raise IngestError(f"{path}: malformed findings row: {row!r}")
            findings.append(FaultFinding(
                rule=int(row[0]), rule_name=row[1], equipment=row[2],
                window_start=parse_timestamp(row[3]),
                window_end=parse_timestamp(row[4]),
                statistic=float(row[5]), threshold=float(row[6]), detail=row[7],
            ))
    return findings
