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
alone, so each rule's screen takes one unit over the whole frame: it decides
the reasons no window can change (a missing sensor, valve trend, setpoint or
min-flow config), builds its masks and their running counts, and judges
every window at once. A window is a row range [i0, i1), and its counts are
differences of running counts. A screen returns one verdict code per window
and states each code's reason in its own words, never naming the unit;
run_all names the unit and words only the finding and the note it reports.

Each statistic is taken over a contiguous slice of the rows a mask keeps,
the same values in the same order a masked copy of the window would give.
The windows whose slices have one length are gathered into a C-contiguous
stack, one row per window and at most _BLOCK_CELLS cells at a time, and the
statistic reduces each row along the last axis. numpy sums a row of such a
stack with the same pairwise order as the slice alone, so every window gets
the bits a call on its own slice gives (tests/test_timeseries.py pins this;
np.add.reduceat sums left to right and gives other bits). A window the
stack cannot take, one holding a non-finite pair that pearson drops or a
flat series, is asked again alone. The percentage statistics take as their
complete rows those with a finite pair, as pearson does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .energy import BuildingData
from .errors import ConfigError, DegenerateSeriesError, DisaggError
from .ingest import _BLOCK_CELLS, _Records, _write_rows, format_timestamp, parse_timestamp
from .timeseries import mpe_of, pearson, percent_errors, rmspe_of

__all__ = [
    "Thresholds",
    "FaultFinding",
    "InconclusiveNote",
    "DetectionResult",
    "RULE_NAMES",
    "run_all",
    "write_findings",
    "read_findings",
]

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


# a verdict code per window: OK, FINDING, then the inconclusive reasons.
# Every screen shares _SHORT and _EMPTY; its own reasons count from _OWN.
_OK, _FINDING, _SHORT, _EMPTY, _OWN = 0, 1, 2, 3, 4


class _Windows:
    """The sweep's row ranges [i0, i1), and what every screen derives from
    them alone."""

    def __init__(self, i0: np.ndarray, i1: np.ndarray):
        self.i0, self.i1 = i0, i1
        width = i1 - i0
        # NaN for a window without rows, so its usable share is never short
        self.width = np.where(width > 0, width, np.nan)
        self.blank = np.where(width > 0, _OK, _EMPTY)

    def __len__(self) -> int:
        return len(self.i0)

    def counts(self, *masks):
        """Per row mask, how many of its set rows come before each window,
        and before its end."""
        run = np.zeros((len(masks), len(masks[0]) + 1), dtype=np.intp)
        for row, mask in zip(run, masks):
            row[1:] = mask
        run.cumsum(axis=1, out=run)
        return zip(run[:, self.i0], run[:, self.i1])

    def covered(self, a: np.ndarray, b: np.ndarray, floor: float):
        """Each window's verdict code with the shared reasons set, and its
        usable share, when a window's usable rows are [a, b) among them."""
        share = (b - a) / self.width
        return np.where(share < floor, _SHORT, self.blank), share


class _Verdicts:
    """Every window's verdict for one (rule, unit) pair.

    code[k] is _OK, _FINDING or an inconclusive reason, and value[k] the
    statistic or the number the reason reports. details holds each code's
    detail: text, or a function of the value. run_all formats a detail only
    for the windows it reports.
    """

    def __init__(self, code: np.ndarray, value: np.ndarray, th: Thresholds, finding,
                 *own):
        self.code, self.value = code, value
        self.details = ("", finding,
                        lambda v: f"only {v:.0%} of the window is usable "
                                  f"(need {th.min_coverage:.0%})",
                        "window holds no rows", *own)

    def detail(self, k: int) -> str:
        """Window k's detail: a finding's wording or an inconclusive reason."""
        detail = self.details[int(self.code[k])]
        return detail(float(self.value[k])) if callable(detail) else detail


def _always(w: _Windows, th: Thresholds, detail: str) -> _Verdicts:
    """Every window inconclusive for a reason no window can change."""
    return _Verdicts(np.full(len(w), _OWN), np.full(len(w), np.nan), th, None, detail)


def _stacks(lengths: np.ndarray, which: np.ndarray):
    """The windows `which` grouped by their slice length, at least 1, in
    chunks of at most _BLOCK_CELLS cells: yields (window indices, length)."""
    lengths = lengths[which]
    for n in sorted(set(lengths.tolist())):
        group = which[lengths == n]
        step = max(1, _BLOCK_CELLS // n)
        for j in range(0, len(group), step):
            yield group[j:j + step], n


def _gather(values: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """The slices values[a_k:a_k + n] as the rows of a C-contiguous stack."""
    return values[a[:, None] + np.arange(n)]


def _economizer_screen(data: BuildingData, ahu_id: str, th: Thresholds, w: _Windows):
    """Correlate the measured mixed-air temperature with the one the damper
    command implies. A working economizer keeps the two moving together; a
    stuck damper decouples them."""
    ahu = data.ahus[ahu_id]
    if ahu.mixed_temp_measured is None:
        return _always(w, th, "no mixed-air temperature sensor")
    if ahu.mixed_temp_estimated is None:
        return _always(w, th, "no outside-air temp and damper command to estimate the mix")
    measured = ahu.mixed_temp_measured
    estimated = ahu.mixed_temp_estimated
    valid = ~(np.isnan(measured) | np.isnan(estimated) | np.isnan(ahu.damper))
    ((a, b),) = w.counts(valid)
    code, value = w.covered(a, b, th.min_coverage)
    damper, measured, estimated = ahu.damper[valid], measured[valid], estimated[valid]
    left = code == _OK
    for k, n in _stacks(b - a, left.nonzero()[0]):
        d = _gather(damper, a[k], n)
        value[k] = d.max(axis=-1) - d.min(axis=-1)
    parked = left & (value < th.damper_range_min)
    code[parked] = _OWN
    left &= ~parked
    for k, n in _stacks(b - a, left.nonzero()[0]):
        value[k] = pearson(_gather(measured, a[k], n), _gather(estimated, a[k], n))
    for k in (left & np.isnan(value)).nonzero()[0].tolist():
        try:
            value[k] = pearson(measured[a[k]:b[k]], estimated[a[k]:b[k]])
        except DegenerateSeriesError:
            code[k] = _OWN + 1
    code[left & (value < th.correlation_min)] = _FINDING
    return _Verdicts(
        code, value, th, lambda v: f"mixed-air correlation {v:.2f} < {th.correlation_min}",
        lambda v: f"damper travelled only {v:.2f} of its range; "
                  "correlation says nothing when the command barely moves",
        "flatlined sensor")


def _relative_errors(base, measured, reference, eps: float):
    """percent_errors over the rows of base: the rows it keeps, and their
    relative errors in row order."""
    ok, errors = percent_errors(measured[base], reference[base], eps)
    kept = base.copy()
    kept[base] = ok
    return kept, errors


def _percent_statistic(code, value, left, n_rows, e0, e1, errors, statistic, eps: float,
                       degenerate: int):
    """Put statistic in value for every window left: over its n_rows
    complete rows, whose relative errors are errors[e0:e1]. A window with no
    complete row, or a mostly near-zero reference, gets reason degenerate
    instead. Returns the windows judged."""
    n_ok = e1 - e0
    refused = left & (n_ok * 2 < np.maximum(n_rows, 1))
    code[refused] = degenerate
    left &= ~refused
    for k, n in _stacks(n_ok, left.nonzero()[0]):
        value[k] = statistic(_gather(errors, e0[k], n), n_rows[k], eps)
    return left


def _valve_leak_screen(data: BuildingData, ahu_id: str, th: Thresholds, w: _Windows, *,
                       heating: bool):
    """Supply air biased cold (warm) across the instants the cooling
    (heating) valve is shut."""
    ahu = data.ahus[ahu_id]
    valve = ahu.heating_valve if heating else ahu.cooling_valve
    side = "heating" if heating else "cooling"
    if valve is None:
        return _always(w, th, f"no {side} valve command trend")
    supply, mixed = ahu.supply_temp, ahu.mixed_temp
    valid = ~(np.isnan(valve) | np.isnan(supply) | np.isnan(mixed))
    closed = valid & (valve <= th.valve_closed_tolerance)
    # the statistic's complete rows: closed rows with a finite pair
    base = closed & np.isfinite(supply) & np.isfinite(mixed)
    kept, errors = _relative_errors(base, supply, mixed, _TEMP_EPS_F)
    (a, b), (c0, c1), (n0, n1), (e0, e1) = w.counts(valid, closed, base, kept)
    code, value = w.covered(a, b, th.min_coverage)
    left = code == _OK
    never = left & (c0 == c1)
    code[never] = _OWN
    left = _percent_statistic(code, value, left & ~never, n1 - n0, e0, e1, errors, mpe_of,
                              _TEMP_EPS_F, _OWN + 1)
    if heating:
        code[left & (value > th.heating_mpe_pct)] = _FINDING
        finding = "above mixed air with the heating valve shut"
    else:
        code[left & (value < th.cooling_mpe_pct)] = _FINDING
        finding = "below mixed air with the cooling valve shut"
    return _Verdicts(code, value, th, lambda v: f"supply runs {v:+.1f}% {finding}",
                     f"{side} valve never commanded closed in window",
                     "mixed-air temperature near zero; percentage bias undefined")


def _config_screen(data: BuildingData, vav_id: str, th: Thresholds, w: _Windows):
    """Unoccupied flow pinned above the configured minimum.

    Only instants where the zone is below its upper limit count: a warm zone
    legitimately drives flow, a cool one does not. A VAV with no upper limit
    configured is screened on occupancy alone.
    """
    vav = data.vavs[vav_id]
    if vav.min_flow is None:
        return _always(w, th, "VAV missing min-flow config")
    valid = ~(np.isnan(vav.flow) | np.isnan(vav.zone_temp)
              | np.isnan(vav.occupied) | np.isnan(vav.min_flow))
    eligible = valid & (vav.occupied <= 0.0)
    if vav.zone_upper_limit is not None:
        eligible &= vav.zone_temp < vav.zone_upper_limit
    over = eligible & (vav.flow > th.occupied_flow_slack * vav.min_flow)
    (a, b), (n0, n1), (o0, o1) = w.counts(valid, eligible, over)
    code, value = w.covered(a, b, th.min_coverage)
    n = n1 - n0
    left = code == _OK
    none = left & (n == 0)
    code[none] = _OWN
    left &= ~none
    np.divide(o1 - o0, n, out=value, where=left)
    code[left & (value > th.config_violation_fraction)] = _FINDING
    return _Verdicts(code, value, th,
                     lambda v: f"{v:.0%} of unoccupied instants exceed "
                               f"{th.occupied_flow_slack:g}x the configured minimum",
                     "no unoccupied instants below the zone limit")


def _damper_screen(data: BuildingData, vav_id: str, th: Thresholds, w: _Windows):
    """Flow that no longer follows its own setpoint."""
    vav = data.vavs[vav_id]
    if vav.flow_setpoint is None:
        return _always(w, th, "no flow setpoint trend")
    flow, setpoint = vav.flow, vav.flow_setpoint
    valid = ~(np.isnan(flow) | np.isnan(setpoint))
    # the statistic's complete rows: those with a finite pair
    base = np.isfinite(flow) & np.isfinite(setpoint)
    kept, errors = _relative_errors(base, flow, setpoint, _FLOW_EPS_CFM)
    (a, b), (n0, n1), (e0, e1) = w.counts(valid, base, kept)
    code, value = w.covered(a, b, th.min_coverage)
    left = _percent_statistic(code, value, code == _OK, n1 - n0, e0, e1, errors, rmspe_of,
                              _FLOW_EPS_CFM, _OWN)
    code[left & (value > th.flow_rmspe_pct)] = _FINDING
    return _Verdicts(code, value, th, lambda v: f"flow misses setpoint by {v:.0f}% RMS",
                     "flow setpoint sits at zero through the window")


# rule id -> (screen, equipment kind, threshold picker, worse-of pair); a
# screen judges one unit in every window at once
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
    (rule, equipment) pair judges every window at once. A pair that violates
    in any window yields exactly one finding spanning the union of its
    violating windows, carrying the worst statistic seen and that window's
    detail. A pair with no finding but an inconclusive window yields one note
    for that unit, the reason of its first such window. A screen states each
    reason without naming the unit. A DisaggError out of a screen is the last
    resort: it becomes a note for that one unit rather than aborting the sweep.
    """
    if th is None:
        th = Thresholds()
    day = 86400
    persist = th.min_persistence_days * day
    span = data.end - data.start
    if span < persist:
        # tenths of a day rounded down, so a span just under the floor never
        # prints as the floor itself
        return DetectionResult(
            findings=(), inconclusive=(),
            warnings=(f"frame covers {span * 10 // day / 10:.1f} days, below the "
                      f"{th.min_persistence_days}-day persistence floor; "
                      "no detection run",))

    starts = np.arange(data.start, data.end - persist + 1, day, dtype=np.int64)
    ts = data.timestamps()
    w = _Windows(np.searchsorted(ts, starts), np.searchsorted(ts, starts + persist))
    findings = []
    notes = []
    for rule_id, (screen, kind, pick, worse) in sorted(_RULES.items()):
        for unit in sorted(data.ahus if kind == "ahu" else data.vavs):
            try:
                verdicts = screen(data, unit, th, w)
            except DisaggError as exc:
                verdicts = _always(w, th, str(exc))
            hits = (verdicts.code == _FINDING).nonzero()[0].tolist()
            if hits:
                stats = verdicts.value[hits].tolist()
                stat = worse(stats)
                findings.append(FaultFinding(
                    rule=rule_id,
                    rule_name=RULE_NAMES[rule_id],
                    equipment=unit,
                    window_start=int(starts[hits[0]]),
                    window_end=int(starts[hits[-1]]) + persist,
                    statistic=stat,
                    threshold=pick(th),
                    detail=verdicts.detail(hits[stats.index(stat)]),
                ))
                continue
            stuck = (verdicts.code >= _SHORT).nonzero()[0]
            if stuck.size:
                notes.append(InconclusiveNote(rule_id, unit, verdicts.detail(stuck[0])))

    return DetectionResult(findings=tuple(findings), inconclusive=tuple(notes),
                           warnings=())


FINDINGS_HEADER = ["rule", "rule_name", "equipment", "window_start",
                   "window_end", "statistic", "threshold", "detail"]


def write_findings(findings, path: str) -> None:
    _write_rows(path, FINDINGS_HEADER, (
        [f.rule, f.rule_name, f.equipment,
         format_timestamp(f.window_start), format_timestamp(f.window_end),
         repr(float(f.statistic)), repr(float(f.threshold)), f.detail]
        for f in findings))


def read_findings(path: str):
    """The findings write_findings wrote. Besides the refusals every CSV
    input shares (ingest._Records), a file without the exact header is
    refused, and so is a row with an unparsable cell or a rule id outside
    RULE_NAMES, naming its path:line."""
    findings = []
    records = _Records(path, FINDINGS_HEADER, required="not a findings file")
    for rule, rule_name, equipment, start, end, statistic, threshold, detail in records:
        try:
            finding = FaultFinding(int(rule), rule_name, equipment, parse_timestamp(start),
                                   parse_timestamp(end), float(statistic), float(threshold),
                                   detail)
        except ValueError as exc:
            raise records.error(f"unreadable findings row: {exc}") from exc
        if finding.rule not in RULE_NAMES:
            raise records.error(f"unknown rule {finding.rule}")
        findings.append(finding)
    return findings
