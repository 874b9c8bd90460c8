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

Each rule screens one piece of equipment over whatever frame it is given
and returns a verdict. run_all slides a persistence-length window across the
whole frame a day at a time and hands every rule each window as a view of
the frame's rows (BuildingData.window), so a fault only surfaces when its
signature holds for the configured number of consecutive days, and short
excursions stay quiet.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
from .timeseries import mpe, pearson, rmspe

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


def _covered(valid: np.ndarray, floor: float):
    """Coverage of usable rows in the frame, or a reason it falls short."""
    if len(valid) == 0:
        return None, "window holds no rows"
    frac = int(valid.sum()) / len(valid)
    if frac < floor:
        return None, f"only {frac:.0%} of the window is usable (need {floor:.0%})"
    return frac, None


def rule_economizer_stuck(data: BuildingData, ahu_id: str, th: Thresholds) -> RuleResult:
    """Correlate the measured mixed-air temperature with the one the damper
    command implies. A working economizer keeps the two moving together; a
    stuck damper decouples them."""
    ahu = _ahu(data, ahu_id)
    if ahu.mixed_temp_measured is None:
        return RuleResult(INCONCLUSIVE, detail="no mixed-air temperature sensor")
    if ahu.mixed_temp_estimated is None:
        return RuleResult(
            INCONCLUSIVE,
            detail="no outside-air temp and damper command to estimate the mix")
    measured = ahu.mixed_temp_measured
    estimated = ahu.mixed_temp_estimated
    valid = ~np.isnan(measured) & ~np.isnan(estimated) & ~np.isnan(ahu.damper)
    _, short = _covered(valid, th.min_coverage)
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


def _valve_leak(data, ahu_id, th, *, heating: bool):
    ahu = _ahu(data, ahu_id)
    valve = ahu.heating_valve if heating else ahu.cooling_valve
    side = "heating" if heating else "cooling"
    if valve is None:
        return RuleResult(INCONCLUSIVE, detail=f"no {side} valve command trend")
    valid = ~np.isnan(valve) & ~np.isnan(ahu.supply_temp) & ~np.isnan(ahu.mixed_temp)
    _, short = _covered(valid, th.min_coverage)
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


def rule_cooling_valve_leak(data: BuildingData, ahu_id: str, th: Thresholds) -> RuleResult:
    """Supply air biased cold across the instants the cooling valve is shut."""
    return _valve_leak(data, ahu_id, th, heating=False)


def rule_heating_valve_leak(data: BuildingData, ahu_id: str, th: Thresholds) -> RuleResult:
    """Supply air biased warm across the instants the heating valve is shut."""
    return _valve_leak(data, ahu_id, th, heating=True)


def rule_config_error(data: BuildingData, vav_id: str, th: Thresholds) -> RuleResult:
    """Unoccupied flow pinned above the configured minimum.

    Only instants where the zone is below its upper limit count: a warm zone
    legitimately drives flow, a cool one does not. A VAV with no upper limit
    configured is screened on occupancy alone.
    """
    vav = _vav(data, vav_id)
    if vav.min_flow is None:
        raise FaultRuleError(f"{vav_id}: VAV missing min-flow config")
    valid = (~np.isnan(vav.flow) & ~np.isnan(vav.zone_temp)
             & ~np.isnan(vav.occupied) & ~np.isnan(vav.min_flow))
    _, short = _covered(valid, th.min_coverage)
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


def rule_damper_stuck(data: BuildingData, vav_id: str, th: Thresholds) -> RuleResult:
    """Flow that no longer follows its own setpoint."""
    vav = _vav(data, vav_id)
    if vav.flow_setpoint is None:
        return RuleResult(INCONCLUSIVE, detail="no flow setpoint trend")
    valid = ~np.isnan(vav.flow) & ~np.isnan(vav.flow_setpoint)
    _, short = _covered(valid, th.min_coverage)
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


# rule id -> (evaluator, equipment kind, threshold picker, worse-of pair)
_RULES = {
    1: (rule_economizer_stuck, "ahu", lambda t: t.correlation_min, min),
    2: (rule_cooling_valve_leak, "ahu", lambda t: t.cooling_mpe_pct, min),
    3: (rule_heating_valve_leak, "ahu", lambda t: t.heating_mpe_pct, max),
    4: (rule_config_error, "vav", lambda t: t.config_violation_fraction, max),
    5: (rule_damper_stuck, "vav", lambda t: t.flow_rmspe_pct, max),
}


def run_all(data: BuildingData, th: Thresholds | None = None) -> DetectionResult:
    """Evaluate every rule against every matching piece of equipment.

    The persistence window slides across the frame in one-day steps, and
    every rule judges every unit on one view of each window. A
    (rule, equipment) pair that violates in any window yields exactly one
    finding spanning the union of its violating windows, carrying the worst
    statistic seen. Rule errors on one unit degrade to an inconclusive note
    rather than aborting the sweep.
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

    hits = {(rule_id, unit): [] for rule_id, (_, kind, _, _) in sorted(_RULES.items())
            for unit in sorted(data.ahus if kind == "ahu" else data.vavs)}
    first_reason = {}
    for s in range(data.start, data.end - persist + 1, day):
        view = data.window(s, s + persist)
        for rule_id, unit in hits:
            func = _RULES[rule_id][0]
            try:
                res = func(view, unit, th)
            except DisaggError as exc:
                res = RuleResult(INCONCLUSIVE, detail=str(exc))
            if res.verdict == FINDING:
                hits[rule_id, unit].append((s, s + persist, res.statistic, res.detail))
            elif res.verdict == INCONCLUSIVE:
                first_reason.setdefault((rule_id, unit), res.detail)

    findings = []
    notes = []
    for (rule_id, unit), unit_hits in hits.items():
        _, _, pick, worse = _RULES[rule_id]
        if unit_hits:
            stat = worse(h[2] for h in unit_hits)
            detail = next(h[3] for h in unit_hits if h[2] == stat)
            findings.append(FaultFinding(
                rule=rule_id,
                rule_name=RULE_NAMES[rule_id],
                equipment=unit,
                window_start=min(h[0] for h in unit_hits),
                window_end=max(h[1] for h in unit_hits),
                statistic=stat,
                threshold=pick(th),
                detail=detail,
            ))
        elif (rule_id, unit) in first_reason:
            notes.append(InconclusiveNote(rule_id, unit, first_reason[rule_id, unit]))

    findings.sort(key=lambda f: (f.rule, f.equipment))
    notes.sort(key=lambda n: (n.rule, n.equipment))
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
