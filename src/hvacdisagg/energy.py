"""Heat transfer estimators and the assembled per-building dataset.

All power figures are MMBTU/hr. The folded air constant 1.08 BTU/(hr*CFM*degF)
is standard-air density times specific heat with the unit conversions baked
in. Estimators are elementwise over aligned vectors; NaN rows stay NaN so the
complete-row policy downstream keeps working.

`BuildingData.powers` evaluates each estimator once per unit and returns a
frozen `Powers`: the per-unit powers, the five building sums the meter
regressions scale, and the cooling-mode and heating-mode row masks.
Calibration and `estimate` read everything they need from that one record,
and `synth` computes its meters and `truth_powers.csv` from it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .building import EquipmentGraph, PointBinding, PointRole
from .errors import DisaggError, SeriesError
from .timeseries import align

__all__ = [
    "PhysicalConstants",
    "vav_cooling_power",
    "economizer_term",
    "estimate_mixed_air",
    "ahu_power",
    "ahu_mode",
    "rows_in_mode",
    "vav_heating_power",
    "occupancy_schedule",
    "VavData",
    "AhuData",
    "BuildingData",
    "Powers",
    "FALLBACKS",
    "assemble",
]

_MMBTU = 1e6

# the estimators' decorator: a finite reading whose power overflows gives an
# inf row, which every consumer drops as non-finite, without a numpy warning
_overflow_to_inf = np.errstate(over="ignore")


@dataclass(frozen=True)
class PhysicalConstants:
    air_power_k: float = 1.08  # BTU/(hr*CFM*degF)
    mode_deadband_f: float = 0.5  # degF on (mixed - supply) before an AHU counts as active

    def __post_init__(self):
        # ValueError, which each file reader reports as its own ConfigError
        if self.air_power_k <= 0.0 or self.mode_deadband_f < 0.0:
            raise ValueError("physical constants out of range")


DEFAULT_CONSTANTS = PhysicalConstants()


@_overflow_to_inf
def vav_cooling_power(flow_cfm, zone_temp_f, supply_temp_f,
                      k: float = DEFAULT_CONSTANTS.air_power_k):
    """Cooling delivered to a zone, clamped at zero (Btu balance, MMBTU/hr)."""
    p = k * np.asarray(flow_cfm, float) * (
        np.asarray(zone_temp_f, float) - np.asarray(supply_temp_f, float)
    ) / _MMBTU
    return np.maximum(p, 0.0)


@_overflow_to_inf
def economizer_term(flow_cfm, return_temp_f, mixed_temp_f,
                    k: float = DEFAULT_CONSTANTS.air_power_k):
    """Signed outside-air credit: positive when the mix is cooler than return."""
    return (
        k
        * np.asarray(flow_cfm, float)
        * (np.asarray(return_temp_f, float) - np.asarray(mixed_temp_f, float))
        / _MMBTU
    )


def _command_fraction(command, what: str) -> np.ndarray:
    """A 0..1 command clipped onto [0, 1]. Anything outside that range (beyond
    float fuzz) is a data error, not something to clamp away."""
    c = np.asarray(command, dtype=float)
    finite = c[~np.isnan(c)]
    if finite.size and (finite.min() < -1e-6 or finite.max() > 1.0 + 1e-6):
        raise SeriesError(
            f"{what} outside [0, 1]: range {finite.min():.4f}..{finite.max():.4f}"
        )
    return np.clip(c, 0.0, 1.0)


def estimate_mixed_air(oat_f, return_temp_f, damper_fraction):
    """Mixed-air temperature from linear damper mixing.

    The damper command must already be a 0..1 fraction.
    """
    d = _command_fraction(damper_fraction, "damper command")
    return d * np.asarray(oat_f, float) + (1.0 - d) * np.asarray(return_temp_f, float)


def ahu_mode(mixed_temp_f, supply_temp_f,
             deadband_f: float = DEFAULT_CONSTANTS.mode_deadband_f):
    """+1 cooling, -1 heating, 0 within the deadband, NaN where inputs are gaps."""
    dt = np.asarray(mixed_temp_f, float) - np.asarray(supply_temp_f, float)
    mode = np.zeros_like(dt)
    mode[dt >= deadband_f] = 1.0
    mode[dt <= -deadband_f] = -1.0
    mode[np.isnan(dt)] = np.nan
    return mode


def rows_in_mode(modes, n_rows: int, sign: float) -> np.ndarray:
    """Rows where every air handler's mode is sign (+1 cooling, -1 heating)
    or idle. A gap in any mode drops the row."""
    mask = np.ones(n_rows, dtype=bool)
    for mode in modes:
        mask &= sign * mode >= 0.0  # NaN compares False
    return mask


@_overflow_to_inf
def ahu_power(mixed_temp_f, supply_temp_f, flow_cfm,
              k: float = DEFAULT_CONSTANTS.air_power_k,
              deadband_f: float = DEFAULT_CONSTANTS.mode_deadband_f, mode=None):
    """Coil power at the air handler, split by mode.

    Returns (cooling, heating) vectors in MMBTU/hr. A temperature difference
    inside the deadband counts as neither; both sides read zero there. mode,
    when given, is ahu_mode of the same temperatures and deadband.
    """
    mixed = np.asarray(mixed_temp_f, float)
    supply = np.asarray(supply_temp_f, float)
    flow = np.asarray(flow_cfm, float)
    p = k * flow * (mixed - supply) / _MMBTU
    if mode is None:
        mode = ahu_mode(mixed, supply, deadband_f)
    cooling = np.where(mode == 1.0, p, 0.0)
    heating = np.where(mode == -1.0, -p, 0.0)
    bad = np.isnan(p)
    cooling[bad] = np.nan
    heating[bad] = np.nan
    return cooling, heating


@_overflow_to_inf
def vav_heating_power(hot_water_f, supply_air_f, flow_cfm, valve_fraction,
                      k: float = DEFAULT_CONSTANTS.air_power_k):
    """Reheat power scaled by valve position, clamped at zero."""
    v = _command_fraction(valve_fraction, "heating valve command")
    p = (
        k
        * (np.asarray(hot_water_f, float) - np.asarray(supply_air_f, float))
        * np.asarray(flow_cfm, float)
        * v
        / _MMBTU
    )
    return np.maximum(p, 0.0)


def occupancy_schedule(timestamps, start_s: int, end_s: int, weekdays_only: bool = True):
    """Fallback occupancy from a fixed daily window, evaluated on UTC wall clock."""
    ts = np.asarray(timestamps, dtype=np.int64)
    second = ts % 86400
    occupied = (second >= start_s) & (second < end_s)
    if weekdays_only:
        weekday = (ts // 86400 + 3) % 7  # epoch day zero was a Thursday
        occupied &= weekday < 5
    return occupied.astype(float)


@dataclass
class VavData:
    vav_id: str
    ahu_id: str | None
    zone_temp: np.ndarray
    flow: np.ndarray
    supply_temp: np.ndarray
    flow_setpoint: np.ndarray | None = None
    heating_valve: np.ndarray | None = None
    occupied: np.ndarray | None = None
    min_flow: np.ndarray | None = None
    zone_upper_limit: np.ndarray | None = None


@dataclass
class AhuData:
    ahu_id: str
    supply_temp: np.ndarray
    return_temp: np.ndarray
    flow_sum: np.ndarray
    mixed_temp: np.ndarray | None = None
    mixed_temp_measured: np.ndarray | None = None
    mixed_temp_estimated: np.ndarray | None = None
    damper: np.ndarray | None = None
    cooling_valve: np.ndarray | None = None
    heating_valve: np.ndarray | None = None


@dataclass
class BuildingData:
    """Everything on one grid: per-VAV and per-AHU vectors plus meters."""

    graph: EquipmentGraph
    start: int
    interval_s: int
    n_rows: int
    cooling_meter: np.ndarray
    heating_meter: np.ndarray
    vavs: dict
    ahus: dict
    oat: np.ndarray | None = None
    hot_water_temp: np.ndarray | None = None
    fallbacks_used: tuple = ()  # (unit_id, role, FALLBACKS[role])
    excluded_vavs: tuple = ()  # (vav_id, reason)
    warnings: tuple = ()

    def timestamps(self) -> np.ndarray:
        return self.start + self.interval_s * np.arange(self.n_rows, dtype=np.int64)

    @property
    def end(self) -> int:
        return self.start + self.n_rows * self.interval_s

    def row_mask(self, window_start: int | None = None, window_end: int | None = None):
        """Rows inside [window_start, window_end); a bound left as None is open."""
        ts = self.timestamps()
        mask = np.ones(self.n_rows, dtype=bool)
        if window_start is not None:
            mask &= ts >= window_start
        if window_end is not None:
            mask &= ts < window_end
        return mask

    def window(self, start: int, end: int) -> BuildingData:
        """The rows row_mask(start, end) picks, as a frame whose arrays are
        slices of this frame's arrays, not copies. A reversed or empty window
        gives a frame with no rows."""
        i0, i1 = (int(i) for i in np.searchsorted(self.timestamps(), (start, end)))
        rows = slice(i0, max(i0, i1))
        return _sliced(self, rows, start=self.start + i0 * self.interval_s,
                       n_rows=rows.stop - i0,
                       vavs={k: _sliced(v, rows) for k, v in self.vavs.items()},
                       ahus={k: _sliced(a, rows) for k, a in self.ahus.items()})

    def powers(self, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> Powers:
        """Every derived power of the frame, each estimator evaluated once
        per unit. Refuses an air handler without a mixed-air temperature."""
        for a in self.ahus.values():
            if a.mixed_temp is None:
                raise DisaggError(f"AHU '{a.ahu_id}': no mixed-air temperature available")
        k, deadband = constants.air_power_k, constants.mode_deadband_f
        # each VAV sum, whose stacked copy is the widest, is taken before
        # the next units' powers exist
        vav_cooling = {v.vav_id: vav_cooling_power(v.flow, v.zone_temp, v.supply_temp, k)
                       for v in self.vavs.values()}
        sum_vav_cooling = np.sum(list(vav_cooling.values()), axis=0)
        vav_heating = {}
        if self.hot_water_temp is not None:
            vav_heating = {v.vav_id: vav_heating_power(self.hot_water_temp, v.supply_temp,
                                                       v.flow, v.heating_valve, k)
                           for v in self.vavs.values() if v.heating_valve is not None}
        sum_vav_heating = np.sum(list(vav_heating.values()), axis=0) if vav_heating else None
        modes = {a.ahu_id: ahu_mode(a.mixed_temp, a.supply_temp, deadband)
                 for a in self.ahus.values()}
        ahu_coil = {a.ahu_id: ahu_power(a.mixed_temp, a.supply_temp, a.flow_sum, k, deadband,
                                        modes[a.ahu_id])
                    for a in self.ahus.values()}
        economizer = {a.ahu_id: economizer_term(a.flow_sum, a.return_temp, a.mixed_temp, k)
                      for a in self.ahus.values()}
        return Powers(
            vav_cooling=vav_cooling,
            vav_heating=vav_heating,
            ahu_coil=ahu_coil,
            economizer=economizer,
            sum_vav_cooling=sum_vav_cooling,
            sum_economizer=np.sum(list(economizer.values()), axis=0),
            sum_ahu_cooling=np.sum([c for c, _ in ahu_coil.values()], axis=0),
            sum_ahu_heating=np.sum([h for _, h in ahu_coil.values()], axis=0),
            sum_vav_heating=sum_vav_heating,
            cooling_rows=rows_in_mode(modes.values(), self.n_rows, 1.0),
            heating_rows=rows_in_mode(modes.values(), self.n_rows, -1.0),
        )


@dataclass(frozen=True)
class Powers:
    """BuildingData.powers: vectors aligned to the frame rows, MMBTU/hr."""

    vav_cooling: dict  # vav_id -> cooling delivered to the zone
    vav_heating: dict  # vav_id -> reheat, only for boxes with a bound heating valve
    ahu_coil: dict  # ahu_id -> (cooling, heating) coil power
    economizer: dict  # ahu_id -> signed outside-air credit
    sum_vav_cooling: np.ndarray
    sum_economizer: np.ndarray
    sum_ahu_cooling: np.ndarray
    sum_ahu_heating: np.ndarray
    sum_vav_heating: np.ndarray | None  # None when no VAV has reheat
    cooling_rows: np.ndarray  # every air handler cooling or idle (gap rows excluded)
    heating_rows: np.ndarray  # every air handler heating or idle (gap rows excluded)


def _sliced(obj, rows: slice, **changes):
    """A copy of the dataclass obj with every array field cut to rows."""
    arrays = {f.name: value[rows] for f in fields(obj)
              if isinstance(value := getattr(obj, f.name), np.ndarray)}
    return replace(obj, **arrays, **changes)


# what assemble substitutes, by role, for an input with no series; it records
# (unit_id, role, tag) in BuildingData.fallbacks_used for each one it takes
FALLBACKS = {
    PointRole.VAV_SUPPLY_AIR_TEMP: "parent-ahu-sat",
    PointRole.OCCUPIED_CMD: "occupancy-schedule",
    PointRole.AHU_RETURN_AIR_TEMP: "mean-zone-temps",
    PointRole.AHU_MIXED_AIR_TEMP: "oat-damper-mix",
}


def assemble(
    graph: EquipmentGraph,
    binding: PointBinding,
    series_map: dict,
) -> BuildingData:
    """Align all bound series and take the FALLBACKS for missing inputs.

    A VAV without an air handler in the graph, a zone temperature or a
    supply flow is excluded from the sums, with the reason. Refuses to run when a required
    input has neither a series nor a fallback: air handler supply
    temperature, the two building meters, and a mixed-air story (measured,
    or outside air plus damper to estimate one); or when an air handler has
    no usable VAV.
    """
    if not series_map:
        raise DisaggError("no trend data to assemble")

    frame = align(series_map)

    def col(equipment_id, role):
        return frame.columns.get((equipment_id, role))

    bid = graph.building_id
    cooling_meter = col(bid, PointRole.BUILDING_COOLING_POWER)
    heating_meter = col(bid, PointRole.BUILDING_HEATING_POWER)
    if any(meter is None for meter in (cooling_meter, heating_meter)):
        raise DisaggError("building meter series missing from trend data")
    oat = col(bid, PointRole.OUTSIDE_AIR_TEMP)
    hot_water = col(bid, PointRole.HOT_WATER_SUPPLY_TEMP)

    schedule = occupancy_schedule(
        frame.timestamps(), graph.occupied_start_s, graph.occupied_end_s, graph.occupied_weekdays_only
    )

    fallbacks: list = []
    warnings = list(graph.warnings) + list(binding.warnings)
    excluded: list = []

    def fell_back(unit_id, role):
        fallbacks.append((unit_id, role, FALLBACKS[role]))

    ahu_supply = {}
    for node in graph.ahus:
        supply = col(node.ahu_id, PointRole.AHU_SUPPLY_AIR_TEMP)
        if supply is None:
            raise DisaggError(
                f"AHU '{node.ahu_id}' has no supply air temperature point; cannot model")
        ahu_supply[node.ahu_id] = supply

    vavs: dict = {}
    for node in graph.vavs:
        vid = node.vav_id
        zone = col(vid, PointRole.ZONE_TEMP)
        flow = col(vid, PointRole.VAV_SUPPLY_FLOW)
        missing = [name for name, value in (("air handler", ahu_supply.get(node.ahu_id)),
                                            ("zone temp", zone), ("supply flow", flow))
                   if value is None]
        if missing:
            excluded.append((vid, "no " + ", no ".join(missing)))
            continue
        supply = col(vid, PointRole.VAV_SUPPLY_AIR_TEMP)
        if supply is None:
            supply = ahu_supply[node.ahu_id]
            fell_back(vid, PointRole.VAV_SUPPLY_AIR_TEMP)

        occ = col(vid, PointRole.OCCUPIED_CMD)
        if occ is None:
            occ = schedule
            fell_back(vid, PointRole.OCCUPIED_CMD)

        # a configured constant is one read-only value broadcast to every row
        min_flow = col(vid, PointRole.VAV_MIN_FLOW)
        if min_flow is None and node.min_flow_cfm is not None:
            min_flow = np.broadcast_to(float(node.min_flow_cfm), frame.n_rows)
        zone_upper = col(vid, PointRole.ZONE_UPPER_LIMIT)
        if zone_upper is None and node.zone_upper_limit_f is not None:
            zone_upper = np.broadcast_to(float(node.zone_upper_limit_f), frame.n_rows)

        vavs[vid] = VavData(
            vav_id=vid,
            ahu_id=node.ahu_id,
            zone_temp=zone,
            flow=flow,
            supply_temp=supply,
            flow_setpoint=col(vid, PointRole.VAV_SUPPLY_FLOW_SETPOINT),
            heating_valve=col(vid, PointRole.VAV_HEATING_VALVE_CMD),
            occupied=occ,
            min_flow=min_flow,
            zone_upper_limit=zone_upper,
        )

    warnings += [f"VAV '{vid}' excluded from sums: {reason}" for vid, reason in excluded]

    ahus: dict = {}
    for node in graph.ahus:
        aid = node.ahu_id
        children = [v for v in vavs.values() if v.ahu_id == aid]
        if not children:
            raise DisaggError(f"AHU flow unknown: '{aid}' has no child VAVs with flow data")
        flow_sum = np.sum([v.flow for v in children], axis=0)

        ret = col(aid, PointRole.AHU_RETURN_AIR_TEMP)
        if ret is None:
            ret = np.mean(np.vstack([v.zone_temp for v in children]), axis=0)
            fell_back(aid, PointRole.AHU_RETURN_AIR_TEMP)

        damper = col(aid, PointRole.ECONOMIZER_DAMPER_POS)
        measured_mix = col(aid, PointRole.AHU_MIXED_AIR_TEMP)
        estimated_mix = None
        if damper is not None and oat is not None:
            estimated_mix = estimate_mixed_air(oat, ret, damper)
        mixed = measured_mix
        if mixed is None:
            if estimated_mix is None:
                raise DisaggError(
                    f"AHU '{aid}' has neither a mixed-air sensor nor outside-air "
                    "temp plus damper to estimate one"
                )
            mixed = estimated_mix
            fell_back(aid, PointRole.AHU_MIXED_AIR_TEMP)

        ahus[aid] = AhuData(
            ahu_id=aid,
            supply_temp=ahu_supply[aid],
            return_temp=ret,
            flow_sum=flow_sum,
            mixed_temp=mixed,
            mixed_temp_measured=measured_mix,
            mixed_temp_estimated=estimated_mix,
            damper=damper,
            cooling_valve=col(aid, PointRole.AHU_COOLING_VALVE_CMD),
            heating_valve=col(aid, PointRole.AHU_HEATING_VALVE_CMD),
        )

    if not vavs:
        raise DisaggError("no usable VAVs; nothing to disaggregate")

    return BuildingData(
        graph=graph,
        start=frame.start,
        interval_s=frame.interval_s,
        n_rows=frame.n_rows,
        cooling_meter=cooling_meter,
        heating_meter=heating_meter,
        vavs=vavs,
        ahus=ahus,
        oat=oat,
        hot_water_temp=hot_water,
        fallbacks_used=tuple(fallbacks),
        excluded_vavs=tuple(excluded),
        warnings=tuple(warnings),
    )
