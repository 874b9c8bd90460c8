"""Deterministic synthetic building scenarios with known ground truth.

The generator works backward from the calibration equations: it designs
smooth zone, flow, and air-temperature signals, then computes the meter
series exactly from those signals with chosen coefficients. The meters
are the pipeline's own `predict_cooling_vav` and `predict_heating` at the
true coefficients, over `BuildingData.powers` of the frame `assemble`
builds from the written signals, bound as the bundle's files are.
Recovery of the coefficients by the fitting pipeline therefore has a
well-defined answer. Faults are injected at the actuator or sensor level
and every downstream signal is derived from the faulty values, so faulty
bundles stay self-consistent.

The one subtle piece is joint exactness of the VAV-side and AHU-side
cooling balances against a single meter. With the return-air temperature
written as the exact flow-weighted mix of zone temperatures, per-AHU coil
power equals VAV cooling minus the economizer credit. Making the
economizer credit affine in the VAV sum during cooling hours
(E = alpha*V + beta, solved through the damper position) then lets both
balances hold with independent positive coefficient sets.

Daily regime is hour-banded: a heating band, an optional economizer band
where both coils idle and supply equals mixed air, and a cooling band.
Mode transitions are steps, never drifting through the deadband.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .building import AhuNode, BindRule, EquipmentGraph, PointInfo, PointRole, VavNode, \
    bind_points, dump_metadata
from .calibrate import COEFFICIENT_NAMES, DEFAULT_SPLIT_FRACTION, predict_cooling_vav, \
    predict_heating
from .energy import _MMBTU, DEFAULT_CONSTANTS, PhysicalConstants, Powers, assemble, \
    estimate_mixed_air, occupancy_schedule, vav_cooling_power
from .errors import ScenarioError, _Ini
from .faults import Thresholds
from .ingest import _write_numeric_csv, format_timestamp, parse_timestamp, write_points, \
    write_reference_year, write_trends
from .timeseries import TimeSeries, Unit

RNG_NAME = "numpy-PCG64"

FAULT_ECONOMIZER = "economizer_stuck"
FAULT_COOLING_LEAK = "cooling_valve_leak"
FAULT_HEATING_LEAK = "heating_valve_leak"
FAULT_CONFIG = "config_error"
FAULT_DAMPER = "damper_stuck"

FAULT_TYPES = (
    FAULT_ECONOMIZER,
    FAULT_COOLING_LEAK,
    FAULT_HEATING_LEAK,
    FAULT_CONFIG,
    FAULT_DAMPER,
)

_AHU_FAULTS = {FAULT_ECONOMIZER, FAULT_COOLING_LEAK, FAULT_HEATING_LEAK}

_K = DEFAULT_CONSTANTS.air_power_k

# Feedforward valve spans, degF of coil action per unit command.
_CLG_SPAN = 25.0
_HTG_SPAN = 12.0


@dataclass(frozen=True)
class FaultInjection:
    """One fault to inject: what, where, when, how hard.

    magnitude meaning by type: economizer_stuck = stuck damper fraction;
    valve leaks = degF of supply-air shift while the valve is commanded
    closed; config_error = unoccupied flow as a multiple of min flow;
    damper_stuck = excess CFM above setpoint.
    """

    fault: str
    equipment: str
    start: int
    duration_s: int
    magnitude: float


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 0
    n_ahus: int = 2
    n_vavs_per_ahu: int = 10
    duration_days: int = 14
    start: str = "2026-01-05T00:00:00+00:00"
    interval_s: int = 900
    # c1..c8; defaults all positive and comfortably independent
    coefficients: tuple[float, ...] = (1.1, 0.9, 0.05, 1.2, 0.06, 1.15, 0.95, 0.012)
    meter_noise_rel: float = 0.0
    sensor_noise_rel: float = 0.0
    oat_base_f: float = 48.0
    oat_daily_amp_f: float = 10.0
    oat_trend_amp_f: float = 4.0
    cooling_start_hour: int = 8
    cooling_end_hour: int = 22
    econ_band_hours: int = 0
    occupied_start_hour: int = 7
    occupied_end_hour: int = 19
    weekdays_only: bool = True
    zone_base_f: float = 71.0
    zone_amp_f: float = 1.3
    day_sat_f: float = 55.0
    night_sat_f: float = 63.0
    sat_amp_f: float = 0.8
    night_mixed_f: float = 56.0
    night_mixed_amp_f: float = 2.5
    min_flow_cfm: float = 100.0
    occ_flow_base_cfm: float = 300.0
    occ_flow_amp_cfm: float = 60.0
    zone_upper_limit_f: float = 76.0
    hot_water_f: float = 140.0
    reheat: bool = True
    faults: tuple = ()

    def __post_init__(self):
        if len(self.coefficients) != 8:
            raise ScenarioError("need exactly 8 coefficients c1..c8")
        if any(c <= 0.0 for c in self.coefficients):
            raise ScenarioError("coefficients must all be positive")
        c1, c2, _, c4, _, _, _, _ = self.coefficients
        if c4 + c2 <= 1e-9 or (c4 - c1) / (c4 + c2) >= 0.9:
            raise ScenarioError("c1/c2/c4 leave no feasible economizer split")
        if self.n_ahus < 1 or self.n_vavs_per_ahu < 1:
            raise ScenarioError("need at least one AHU and one VAV per AHU")
        if self.duration_days < 1:
            raise ScenarioError("duration must be at least one day")
        if self.interval_s <= 0 or 86400 % self.interval_s:
            raise ScenarioError("interval must divide one day")
        if not 0 <= self.cooling_start_hour < self.cooling_end_hour <= 24:
            raise ScenarioError("cooling band hours out of order")
        if self.econ_band_hours < 0 or \
                self.cooling_start_hour - self.econ_band_hours < 0 or \
                self.cooling_end_hour + self.econ_band_hours > 24:
            raise ScenarioError("economizer band does not fit around the cooling band")
        if not 0 <= self.occupied_start_hour < self.occupied_end_hour <= 24:
            raise ScenarioError("occupied hours out of order")
        for rel in (self.meter_noise_rel, self.sensor_noise_rel):
            if not 0.0 <= rel < 0.2:
                raise ScenarioError("noise level must be in [0, 0.2)")
        if self.min_flow_cfm <= 0.0:
            raise ScenarioError("min flow must be positive")
        vavs = {v for a in range(self.n_ahus) for v in self.vav_ids(a)}
        faulty = set()
        for inj in self.faults:
            if inj.fault not in FAULT_TYPES:
                raise ScenarioError(f"unknown fault type '{inj.fault}'")
            if inj.fault in _AHU_FAULTS:
                if inj.equipment not in self.ahu_ids():
                    raise ScenarioError(
                        f"{inj.fault}: '{inj.equipment}' is not an AHU in this scenario")
            elif inj.equipment not in vavs:
                raise ScenarioError(
                    f"{inj.fault}: '{inj.equipment}' is not a VAV in this scenario")
            start = self.start_epoch
            if inj.duration_s <= 0 or inj.start < start or \
                    inj.start + inj.duration_s > start + self.n_rows * self.interval_s:
                raise ScenarioError(
                    f"{inj.fault} on {inj.equipment}: injection window outside the scenario range")
            if inj.equipment in faulty:
                raise ScenarioError(f"'{inj.equipment}' already has an injected fault")
            faulty.add(inj.equipment)
            if inj.fault == FAULT_ECONOMIZER and not 0.0 <= inj.magnitude <= 1.0:
                raise ScenarioError("economizer stuck position must be a fraction")
            if inj.fault == FAULT_CONFIG and inj.magnitude <= 1.0:
                raise ScenarioError(
                    "config error magnitude is a multiple of min flow, must exceed 1")
            if inj.fault == FAULT_DAMPER and inj.magnitude <= -self.min_flow_cfm:
                raise ScenarioError("stuck damper offset would drive the flow negative")

    @property
    def start_epoch(self) -> int:
        return parse_timestamp(self.start)

    @property
    def n_rows(self) -> int:
        return self.duration_days * 86400 // self.interval_s

    @property
    def alpha(self) -> float:
        c1, c2, _, c4 = self.coefficients[:4]
        return (c4 - c1) / (c4 + c2)

    @property
    def beta(self) -> float:
        _, c2, c3, c4, c5 = self.coefficients[:5]
        return (c5 - c3) / (c2 + c4)

    def ahu_ids(self) -> list:
        return [f"AH{i + 1}" for i in range(self.n_ahus)]

    def vav_ids(self, ahu_index: int) -> list:
        return [f"VAV{ahu_index + 1}-{j + 1:02d}" for j in range(self.n_vavs_per_ahu)]


@dataclass(frozen=True)
class TraceSet:
    """Complete signal state for one scenario: the base schedules, and the
    parts _derive_physics builds from them and the spec's injections."""

    spec: ScenarioSpec
    start: int
    n: int
    ts: np.ndarray
    cooling_band: np.ndarray
    heating_band: np.ndarray
    econ_band: np.ndarray
    occupied: np.ndarray
    oat: np.ndarray
    hot_water: np.ndarray
    ahu_ids: list
    children: dict
    parent: dict
    zone_temp: dict
    flow_sp_base: dict
    reheat_valve: dict
    sat_setpoint: dict
    night_mixed_target: dict
    # derived by _derive_physics
    flow_sp: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    flow_sum: dict = field(default_factory=dict)
    return_temp: dict = field(default_factory=dict)
    sat_actual: dict = field(default_factory=dict)
    mixed_healthy: dict = field(default_factory=dict)
    mixed_actual: dict = field(default_factory=dict)
    damper_cmd: dict = field(default_factory=dict)
    clg_valve: dict = field(default_factory=dict)
    htg_valve: dict = field(default_factory=dict)

    def window_rows(self, inj: FaultInjection) -> np.ndarray:
        return (self.ts >= inj.start) & (self.ts < inj.start + inj.duration_s)


@dataclass(frozen=True)
class ScenarioBundle:
    out_dir: str
    topology_path: str
    points_path: str
    trends_path: str
    reference_year_path: str
    ground_truth_path: str
    truth_powers_path: str
    run_config_path: str


def _build_base(spec: ScenarioSpec, rng: np.random.Generator) -> TraceSet:
    n = spec.n_rows
    start = spec.start_epoch
    ts = start + spec.interval_s * np.arange(n, dtype=np.int64)
    hour = (ts % 86400) / 3600.0
    day_idx = (ts - start) / 86400.0
    # absolute hours since start; texture sinusoids run on this with periods
    # that do not divide 24h, otherwise every day would repeat the same rows
    # and the fits would see far fewer distinct samples than the row count
    th = (ts - start) / 3600.0

    cool_lo, cool_hi = spec.cooling_start_hour, spec.cooling_end_hour
    econ = spec.econ_band_hours
    cooling_band = (hour >= cool_lo) & (hour < cool_hi)
    econ_band = np.zeros(n, dtype=bool)
    if econ:
        econ_band = ((hour >= cool_lo - econ) & (hour < cool_lo)) | (
            (hour >= cool_hi) & (hour < cool_hi + econ))
    heating_band = ~cooling_band & ~econ_band

    occupied = occupancy_schedule(
        ts, spec.occupied_start_hour * 3600, spec.occupied_end_hour * 3600,
        spec.weekdays_only)

    oat = (spec.oat_base_f
           + spec.oat_daily_amp_f * np.sin(2 * np.pi * (hour - 9.0) / 24.0)
           + spec.oat_trend_amp_f * np.sin(2 * np.pi * day_idx / max(spec.duration_days, 1)))
    hot_water = spec.hot_water_f + 2.0 * np.sin(2 * np.pi * th / 26.3)

    ahu_ids = spec.ahu_ids()
    children: dict = {}
    parent: dict = {}
    zone_temp: dict = {}
    flow_sp_base: dict = {}
    reheat_valve: dict = {}
    sat_setpoint: dict = {}
    night_mixed_target: dict = {}

    for a, ahu in enumerate(ahu_ids):
        sat_phase = rng.uniform(0, 2 * np.pi)
        ma_phase = rng.uniform(0, 2 * np.pi)
        sat_base = np.where(cooling_band, spec.day_sat_f, spec.night_sat_f)
        sat_setpoint[ahu] = sat_base + spec.sat_amp_f * np.sin(2 * np.pi * th / 6.31 + sat_phase)
        night_mixed_target[ahu] = (spec.night_mixed_f
                                   + spec.night_mixed_amp_f
                                   * np.sin(2 * np.pi * th / 9.37 + ma_phase))
        kids = spec.vav_ids(a)
        children[ahu] = kids
        for vav in kids:
            parent[vav] = ahu
            z_off = spec.zone_amp_f * rng.uniform(-0.6, 0.6)
            z_phase = rng.uniform(0, 2 * np.pi)
            f_off = spec.occ_flow_amp_cfm * rng.uniform(-0.5, 0.5)
            f_phase = rng.uniform(0, 2 * np.pi)
            r_phase = rng.uniform(0, 2 * np.pi)
            zone_temp[vav] = (spec.zone_base_f + z_off
                              + 0.7 * spec.zone_amp_f
                              * np.sin(2 * np.pi * (hour - 14.0) / 24.0 + 0.3 * z_phase)
                              + 0.3 * spec.zone_amp_f
                              * np.sin(2 * np.pi * th / 31.7 + z_phase))
            day_flow = (spec.occ_flow_base_cfm + f_off
                        + spec.occ_flow_amp_cfm * np.sin(2 * np.pi * th / 12.7 + f_phase))
            flow_sp_base[vav] = np.where(occupied > 0.0, day_flow, spec.min_flow_cfm)
            if spec.reheat:
                reheat_valve[vav] = np.where(
                    heating_band,
                    np.clip(0.35 + 0.3 * np.sin(2 * np.pi * th / 10.3 + r_phase), 0.0, 1.0),
                    0.0)

    return TraceSet(
        spec=spec, start=start, n=n, ts=ts,
        cooling_band=cooling_band, heating_band=heating_band, econ_band=econ_band,
        occupied=occupied, oat=oat, hot_water=hot_water,
        ahu_ids=ahu_ids, children=children, parent=parent,
        zone_temp=zone_temp, flow_sp_base=flow_sp_base, reheat_valve=reheat_valve,
        sat_setpoint=sat_setpoint, night_mixed_target=night_mixed_target,
    )


def _leak_rows(tr: TraceSet, inj: FaultInjection) -> np.ndarray:
    """Hour-band slice where the leaking valve is commanded closed."""
    win = tr.window_rows(inj)
    if inj.fault == FAULT_COOLING_LEAK:
        return win & ~tr.cooling_band
    return win & (tr.cooling_band | tr.econ_band)


def _derive_physics(tr: TraceSet) -> TraceSet:
    """tr with all derived signals built from its base schedules plus the
    spec's injections; tr itself is left as it was."""
    spec = tr.spec
    alpha, beta_each = spec.alpha, spec.beta / spec.n_ahus

    flow_sp = {v: arr.copy() for v, arr in tr.flow_sp_base.items()}
    flow = {v: arr.copy() for v, arr in flow_sp.items()}
    for inj in spec.faults:
        if inj.fault == FAULT_CONFIG:
            rows = tr.window_rows(inj) & (tr.occupied <= 0.0)
            bad = inj.magnitude * spec.min_flow_cfm
            flow_sp[inj.equipment][rows] = bad
            flow[inj.equipment][rows] = bad
        elif inj.fault == FAULT_DAMPER:
            rows = tr.window_rows(inj)
            flow[inj.equipment][rows] = flow_sp[inj.equipment][rows] + inj.magnitude

    sat_actual = {a: tr.sat_setpoint[a].copy() for a in tr.ahu_ids}
    mixed_healthy: dict = {}
    mixed_actual: dict = {}
    damper_cmd: dict = {}
    flow_sum: dict = {}
    return_temp: dict = {}

    stuck = {inj.equipment: inj for inj in spec.faults if inj.fault == FAULT_ECONOMIZER}

    for ahu in tr.ahu_ids:
        kids = tr.children[ahu]
        qsum = np.sum([flow[v] for v in kids], axis=0)
        t_ra = np.sum([flow[v] * tr.zone_temp[v] for v in kids], axis=0) / qsum
        flow_sum[ahu] = qsum
        return_temp[ahu] = t_ra

        # cooling band: economizer credit pinned to alpha*V + beta so both
        # cooling balances stay exact. V here is the scheduled VAV load at
        # the discharge setpoint, which keeps the mix, and so the coil
        # commands, independent of any injected supply-temperature shift.
        v_sched = np.sum([vav_cooling_power(flow[v], tr.zone_temp[v],
                                            tr.sat_setpoint[ahu], _K)
                          for v in kids], axis=0)
        econ_credit = alpha * v_sched + beta_each
        mix_day = t_ra - econ_credit * _MMBTU / (_K * qsum)
        mix_econ = tr.sat_setpoint[ahu]
        target = np.where(tr.cooling_band, mix_day,
                          np.where(tr.econ_band, mix_econ, tr.night_mixed_target[ahu]))

        denom = tr.oat - t_ra
        if np.min(np.abs(denom)) < 1.5:
            raise ScenarioError(
                "outside air temperature runs too close to return air; "
                "the damper position would be unbounded")
        d_cmd = (target - t_ra) / denom
        lo, hi = float(d_cmd.min()), float(d_cmd.max())
        if lo < 0.02 or hi > 0.98:
            raise ScenarioError(
                f"derived damper position {lo:.3f}..{hi:.3f} leaves [0.02, 0.98]; "
                "adjust weather, zone temps, or coefficients")
        damper_cmd[ahu] = d_cmd

        d_act = d_cmd
        if ahu in stuck:
            inj = stuck[ahu]
            d_act = d_cmd.copy()
            d_act[tr.window_rows(inj)] = inj.magnitude
        t_ma = estimate_mixed_air(tr.oat, t_ra, d_act)
        mixed_healthy[ahu] = estimate_mixed_air(tr.oat, t_ra, d_cmd)
        mixed_actual[ahu] = t_ma

        # supply air rides the mix through the idle band: same air, no coil
        sat_actual[ahu] = np.where(tr.econ_band, t_ma, sat_actual[ahu])

        # leaks shift the actual discharge temperature on the closed-valve band
        for inj in spec.faults:
            if inj.equipment != ahu or inj.fault not in (FAULT_COOLING_LEAK, FAULT_HEATING_LEAK):
                continue
            rows = _leak_rows(tr, inj)
            shift = -inj.magnitude if inj.fault == FAULT_COOLING_LEAK else inj.magnitude
            sat_actual[ahu] = np.where(rows, sat_actual[ahu] + shift, sat_actual[ahu])

    # feedforward coil commands from the discharge setpoint; forced shut
    # through the economizer band
    clg_valve: dict = {}
    htg_valve: dict = {}
    for ahu in tr.ahu_ids:
        err = mixed_actual[ahu] - tr.sat_setpoint[ahu]
        clg = np.clip(err / _CLG_SPAN, 0.0, 1.0)
        htg = np.clip(-err / _HTG_SPAN, 0.0, 1.0)
        clg[tr.econ_band] = 0.0
        htg[tr.econ_band] = 0.0
        clg_valve[ahu] = clg
        htg_valve[ahu] = htg

    for inj in spec.faults:
        if inj.fault in (FAULT_COOLING_LEAK, FAULT_HEATING_LEAK):
            rows = _leak_rows(tr, inj)
            valve = clg_valve if inj.fault == FAULT_COOLING_LEAK else htg_valve
            if np.any(valve[inj.equipment][rows] > 0.0):
                raise ScenarioError(
                    f"{inj.fault} on {inj.equipment}: leak window overlaps "
                    "rows where the valve is commanded open")

    return replace(tr, flow_sp=flow_sp, flow=flow, flow_sum=flow_sum,
                   return_temp=return_temp, sat_actual=sat_actual,
                   mixed_healthy=mixed_healthy, mixed_actual=mixed_actual, damper_cmd=damper_cmd,
                   clg_valve=clg_valve, htg_valve=htg_valve)


def _waste(tr: TraceSet, inj: FaultInjection) -> float:
    """Analytic equipment-side waste integral for one injection, MMBTU."""
    dt_hr = tr.spec.interval_s / 3600.0
    win = tr.window_rows(inj)
    if inj.fault == FAULT_DAMPER:
        vav = inj.equipment
        excess = np.maximum(tr.flow[vav] - tr.flow_sp[vav], 0.0)
        dt = np.maximum(tr.zone_temp[vav] - tr.sat_actual[tr.parent[vav]], 0.0)
        return float(np.sum((_K * excess * dt / _MMBTU)[win]) * dt_hr)
    if inj.fault == FAULT_CONFIG:
        vav = inj.equipment
        rows = win & (tr.occupied <= 0.0)
        excess = np.maximum(tr.flow[vav] - tr.spec.min_flow_cfm, 0.0)
        dt = np.maximum(tr.zone_temp[vav] - tr.sat_actual[tr.parent[vav]], 0.0)
        return float(np.sum((_K * excess * dt / _MMBTU)[rows]) * dt_hr)
    if inj.fault in (FAULT_COOLING_LEAK, FAULT_HEATING_LEAK):
        rows = _leak_rows(tr, inj)
        qsum = tr.flow_sum[inj.equipment]
        return float(np.sum((_K * qsum * inj.magnitude / _MMBTU)[rows]) * dt_hr)
    # economizer: extra coil effort against the discharge setpoint
    ahu = inj.equipment
    qsum = tr.flow_sum[ahu]
    sp = tr.sat_setpoint[ahu]
    effort_act = _K * qsum * np.abs(tr.mixed_actual[ahu] - sp) / _MMBTU
    effort_healthy = _K * qsum * np.abs(tr.mixed_healthy[ahu] - sp) / _MMBTU
    return float(np.sum(np.maximum(effort_act - effort_healthy, 0.0)[win]) * dt_hr)


# ----------------------------------------------------------------------
# point naming and file emission

_AHU_SUFFIXES = (
    ("SAT", PointRole.AHU_SUPPLY_AIR_TEMP),
    ("MAT", PointRole.AHU_MIXED_AIR_TEMP),
    ("RAT", PointRole.AHU_RETURN_AIR_TEMP),
    ("DMPR", PointRole.ECONOMIZER_DAMPER_POS),
    ("CLG-VLV", PointRole.AHU_COOLING_VALVE_CMD),
    ("HTG-VLV", PointRole.AHU_HEATING_VALVE_CMD),
)

_VAV_SUFFIXES = (
    ("ZN-T", PointRole.ZONE_TEMP),
    ("FLOW", PointRole.VAV_SUPPLY_FLOW),
    ("FLOW-SP", PointRole.VAV_SUPPLY_FLOW_SETPOINT),
    ("RH-VLV", PointRole.VAV_HEATING_VALVE_CMD),
    ("OCC", PointRole.OCCUPIED_CMD),
)

BUILDING_ID = "B1"


def _point(equip: str, suffix: str) -> str:
    return f"{BUILDING_ID}.{equip}.{suffix}"


def _graph_for(spec: ScenarioSpec) -> EquipmentGraph:
    ahus = tuple(AhuNode(a) for a in spec.ahu_ids())
    vavs = []
    for a in range(spec.n_ahus):
        for vav in spec.vav_ids(a):
            vavs.append(VavNode(
                vav_id=vav, ahu_id=f"AH{a + 1}", zone=f"zone-{vav[3:]}",
                min_flow_cfm=spec.min_flow_cfm,
                zone_upper_limit_f=spec.zone_upper_limit_f))
    rules = [BindRule(f"{BUILDING_ID}.{{id}}.{suffix}", "ahu", role)
             for suffix, role in _AHU_SUFFIXES]
    rules += [BindRule(f"{BUILDING_ID}.{{id}}.{suffix}", "vav", role)
              for suffix, role in _VAV_SUFFIXES
              if spec.reheat or role is not PointRole.VAV_HEATING_VALVE_CMD]
    return EquipmentGraph(
        building_id=BUILDING_ID,
        ahus=ahus,
        vavs=tuple(vavs),
        cooling_meter_point=f"{BUILDING_ID}.CLG-MTR",
        heating_meter_point=f"{BUILDING_ID}.HTG-MTR",
        oat_point=f"{BUILDING_ID}.OAT",
        hot_water_temp_point=f"{BUILDING_ID}.HWS-T" if spec.reheat else None,
        occupied_start_s=spec.occupied_start_hour * 3600,
        occupied_end_s=spec.occupied_end_hour * 3600,
        occupied_weekdays_only=spec.weekdays_only,
        bind_rules=tuple(rules),
    )


def _written_series(tr: TraceSet, rng: np.random.Generator) -> dict:
    """point_id -> TimeSeries of each written signal, sensor noise applied
    where a real sensor would sit; commands, setpoints, and schedules stay
    exact."""
    spec = tr.spec
    rel = spec.sensor_noise_rel

    def noisy(values: np.ndarray) -> np.ndarray:
        if rel <= 0.0:
            return values
        return values * (1.0 + rel * rng.standard_normal(tr.n))

    out = [(f"{BUILDING_ID}.OAT", Unit.DEG_F, noisy(tr.oat))]
    if spec.reheat:
        out.append((f"{BUILDING_ID}.HWS-T", Unit.DEG_F, noisy(tr.hot_water)))
    for ahu in tr.ahu_ids:
        out += [
            (_point(ahu, "SAT"), Unit.DEG_F, noisy(tr.sat_actual[ahu])),
            (_point(ahu, "MAT"), Unit.DEG_F, noisy(tr.mixed_actual[ahu])),
            (_point(ahu, "RAT"), Unit.DEG_F, noisy(tr.return_temp[ahu])),
            (_point(ahu, "DMPR"), Unit.FRACTION, tr.damper_cmd[ahu]),
            (_point(ahu, "CLG-VLV"), Unit.FRACTION, tr.clg_valve[ahu]),
            (_point(ahu, "HTG-VLV"), Unit.FRACTION, tr.htg_valve[ahu]),
        ]
        for vav in tr.children[ahu]:
            out += [
                (_point(vav, "ZN-T"), Unit.DEG_F, noisy(tr.zone_temp[vav])),
                (_point(vav, "FLOW"), Unit.CFM, noisy(tr.flow[vav])),
                (_point(vav, "FLOW-SP"), Unit.CFM, tr.flow_sp[vav]),
                (_point(vav, "OCC"), Unit.BOOL, tr.occupied),
            ]
            if spec.reheat:
                out.append((_point(vav, "RH-VLV"), Unit.FRACTION, tr.reheat_valve[vav]))
    return {pid: TimeSeries(pid, tr.start, spec.interval_s, unit, values)
            for pid, unit, values in out}


def _signals(spec: ScenarioSpec, rng: np.random.Generator) -> tuple[dict, list]:
    """The written series (point_id -> TimeSeries, meters not yet in) and
    the waste of each injection, MMBTU. The traces they come from are freed
    on return, so only what the bundle needs outlives this call."""
    tr = _derive_physics(_build_base(spec, rng))
    # every injection is in before any waste integral, so faults that share
    # an AHU see each other's effect on flows and temperatures
    wastes = [_waste(tr, inj) for inj in spec.faults]
    return _written_series(tr, rng), wastes


def _truth_powers(graph: EquipmentGraph, points: list, series: dict) -> Powers:
    """Powers of the frame assemble builds from series (point_id ->
    TimeSeries) bound through points, as the pipeline builds it from the
    bundle's files."""
    binding = bind_points(graph, points)
    slots = {slot: series[pid] for slot, pid in binding.bindings.items()}
    return assemble(graph, binding, slots).powers()


def _reference_year(spec: ScenarioSpec) -> np.ndarray:
    days = np.arange(1, 366)
    return spec.oat_base_f + 12.0 * np.sin(2 * np.pi * (days - 201) / 365.0)


def _write_truth_powers(path: str, ts: np.ndarray, powers: Powers,
                        cooling_meter, heating_meter) -> None:
    """Each unit's powers, four building sums and the meters, one column
    each, on the grid ts; sum_vav_reheat is a zero column when no VAV has
    reheat."""
    per_unit = {f"{v}.cooling": p for v, p in powers.vav_cooling.items()}
    per_unit.update((f"{v}.reheat", p) for v, p in powers.vav_heating.items())
    for ahu, (cooling, heating) in powers.ahu_coil.items():
        per_unit[f"{ahu}.cooling"], per_unit[f"{ahu}.heating"] = cooling, heating
    reheat = powers.sum_vav_heating
    sums = {"sum_vav_cooling": powers.sum_vav_cooling,
            "sum_economizer": powers.sum_economizer,
            "sum_ahu_heating": powers.sum_ahu_heating,
            "sum_vav_reheat": np.zeros(len(ts)) if reheat is None else reheat}
    columns = sorted(per_unit) + sorted(sums) + ["cooling_meter", "heating_meter"]
    arrays = {**per_unit, **sums,
              "cooling_meter": cooling_meter, "heating_meter": heating_meter}
    _write_numeric_csv(path, ["timestamp"] + columns,
                       [[ts] + [np.asarray(arrays[c], dtype=float) for c in columns]])


def _write_ground_truth(path: str, spec: ScenarioSpec, wastes,
                        n_cooling: int, n_heating: int) -> None:
    sections = {
        "generator": {"rng": RNG_NAME, "seed": str(spec.seed)},
        "scenario": {
            "start": spec.start,
            "interval_s": str(spec.interval_s),
            "duration_days": str(spec.duration_days),
            "n_ahus": str(spec.n_ahus),
            "n_vavs_per_ahu": str(spec.n_vavs_per_ahu),
            "meter_noise_rel": repr(spec.meter_noise_rel),
            "sensor_noise_rel": repr(spec.sensor_noise_rel),
            "reheat": str(spec.reheat).lower(),
        },
        "coefficients": {f"c{i + 1}": repr(float(c)) for i, c in enumerate(spec.coefficients)},
        "economizer split": {"alpha": repr(spec.alpha), "beta": repr(spec.beta)},
        "rows": {
            "n_rows": str(spec.n_rows),
            "n_cooling_rows": str(n_cooling),
            "n_heating_rows": str(n_heating),
        },
    }
    for i, (inj, waste) in enumerate(zip(spec.faults, wastes), start=1):
        sections[f"injection {i}"] = {
            "fault": inj.fault,
            "equipment": inj.equipment,
            "start": format_timestamp(inj.start),
            "end": format_timestamp(inj.start + inj.duration_s),
            "magnitude": repr(float(inj.magnitude)),
            "waste_mmbtu": repr(waste),
        }
    _Ini.write(path, sections)


def _write_run_config(path: str, spec: ScenarioSpec) -> None:
    _Ini.write(path, {
        "paths": {
            "topology": "topology.ini",
            "points": "points.csv",
            "trends": "trends.csv",
            "reference_year": "reference_year.csv",
            "model": "model.ini",
            "findings": "findings.csv",
            "output_dir": "out",
        },
        "thresholds": {f.name: repr(f.default) for f in fields(Thresholds)},
        "constants": {**{f.name: repr(f.default) for f in fields(PhysicalConstants)},
                      "interval_s": str(spec.interval_s)},
        "fit": {"split_fraction": repr(DEFAULT_SPLIT_FRACTION)},
    })


def generate(spec: ScenarioSpec, out_dir: str) -> ScenarioBundle:
    """Emit a complete scenario bundle into out_dir.

    Same spec and seed produce byte-identical files. The meter series are
    computed from the written (noise-applied) signals, so calibration on a
    bundle always has a self-consistent target.
    """
    rng = np.random.default_rng(spec.seed)
    series, wastes = _signals(spec, rng)
    n = spec.n_rows
    graph = _graph_for(spec)
    # the meters stand in as gaps until priced on the frame's powers
    meters = {graph.cooling_meter_point: predict_cooling_vav,
              graph.heating_meter_point: predict_heating}
    for pid in meters:
        series[pid] = TimeSeries(pid, spec.start_epoch, spec.interval_s, Unit.MMBTU_HR,
                                 np.full(n, np.nan))
    points = [PointInfo(pid, pid, s.unit) for pid, s in series.items()]
    powers = _truth_powers(graph, points, series)
    truth = dict(zip(COEFFICIENT_NAMES, spec.coefficients))
    for pid, predict in meters.items():
        meter = predict(truth, powers)
        if spec.meter_noise_rel > 0.0:
            sigma = spec.meter_noise_rel * float(np.mean(np.abs(meter)))
            meter += rng.normal(0.0, sigma, n)
        series[pid] = replace(series[pid], values=meter)

    os.makedirs(out_dir, exist_ok=True)
    bundle = ScenarioBundle(
        out_dir=out_dir,
        topology_path=os.path.join(out_dir, "topology.ini"),
        points_path=os.path.join(out_dir, "points.csv"),
        trends_path=os.path.join(out_dir, "trends.csv"),
        reference_year_path=os.path.join(out_dir, "reference_year.csv"),
        ground_truth_path=os.path.join(out_dir, "ground_truth.ini"),
        truth_powers_path=os.path.join(out_dir, "truth_powers.csv"),
        run_config_path=os.path.join(out_dir, "run.conf"),
    )

    dump_metadata(graph, bundle.topology_path)
    write_points(points, bundle.points_path)
    write_trends(list(series.values()), bundle.trends_path)
    write_reference_year(_reference_year(spec), bundle.reference_year_path)
    _write_ground_truth(bundle.ground_truth_path, spec, wastes,
                        int(powers.cooling_rows.sum()), int(powers.heating_rows.sum()))
    cooling_meter, heating_meter = (series[pid] for pid in meters)
    _write_truth_powers(bundle.truth_powers_path, cooling_meter.timestamps(), powers,
                        cooling_meter.values, heating_meter.values)
    _write_run_config(bundle.run_config_path, spec)
    return bundle


# ----------------------------------------------------------------------
# standard scenarios used by the test suite and the examples in README

def scenario_recovery(seed: int = 101, meter_noise_rel: float = 0.0) -> ScenarioSpec:
    """Two AHUs, ten VAVs each, two weeks, exact coefficients recoverable."""
    return ScenarioSpec(seed=seed, n_ahus=2, n_vavs_per_ahu=10, duration_days=14,
                        meter_noise_rel=meter_noise_rel)


def scenario_mixed_season(seed: int = 404) -> ScenarioSpec:
    """Longer run with a strong weather trend; both plant modes well covered."""
    return ScenarioSpec(seed=seed, n_ahus=2, n_vavs_per_ahu=6, duration_days=28,
                        oat_trend_amp_f=7.0, night_mixed_f=58.0)


def _faulted_spec(seed: int, faults: tuple) -> ScenarioSpec:
    # cold winter block with a mild discharge setpoint: every AHU spends two
    # bands a day with one or both coils closed, which is where the leak
    # rules have any contrast to work with
    return ScenarioSpec(
        seed=seed, n_ahus=3, n_vavs_per_ahu=4, duration_days=21,
        sensor_noise_rel=0.02, meter_noise_rel=0.02,
        oat_base_f=42.0, day_sat_f=64.0, econ_band_hours=2,
        faults=faults)


def scenario_faulted(seed: int = 202) -> ScenarioSpec:
    """One injected fault of each rule type, each on its own equipment."""
    start = parse_timestamp(ScenarioSpec().start)
    day = 86400
    window = dict(start=start + 7 * day, duration_s=11 * day)
    faults = (
        FaultInjection(FAULT_ECONOMIZER, "AH1", magnitude=0.0, **window),
        FaultInjection(FAULT_COOLING_LEAK, "AH2", magnitude=12.0, **window),
        FaultInjection(FAULT_HEATING_LEAK, "AH3", magnitude=12.0, **window),
        FaultInjection(FAULT_CONFIG, "VAV2-01", magnitude=3.0, **window),
        # stuck low: excess-flow faults would also trip the min-flow config
        # rule, and one injected fault should raise exactly one finding
        FaultInjection(FAULT_DAMPER, "VAV3-02", magnitude=-80.0, **window),
    )
    return _faulted_spec(seed, faults)


def scenario_healthy_twin(seed: int = 202) -> ScenarioSpec:
    """Same building and noise as scenario_faulted, nothing injected."""
    return _faulted_spec(seed, ())


def scenario_impact(seed: int = 303) -> ScenarioSpec:
    """Constant 19 degF zone-to-supply difference and a 300 CFM stuck damper,
    so the waste integral has a closed form.

    The short heating band matters: with cooling around the clock the
    economizer credit would be an exact affine function of the VAV sum and
    the meter fit would be rank deficient."""
    start = parse_timestamp(ScenarioSpec().start)
    day = 86400
    fault = FaultInjection(FAULT_DAMPER, "VAV1-02", start=start + day,
                           duration_s=7 * day, magnitude=300.0)
    return ScenarioSpec(
        seed=seed, n_ahus=1, n_vavs_per_ahu=3, duration_days=9,
        cooling_start_hour=6, cooling_end_hour=24,
        zone_base_f=74.0, zone_amp_f=0.0,
        day_sat_f=55.0, night_sat_f=55.0, sat_amp_f=0.0,
        night_mixed_f=50.0, night_mixed_amp_f=0.0,
        oat_base_f=45.0, oat_daily_amp_f=6.0, oat_trend_amp_f=0.0,
        min_flow_cfm=250.0,
        reheat=False, faults=(fault,))
