"""Equipment metadata and the mapping from raw BMS point names to roles.

A building is a flat two-level graph: air handlers, and VAV boxes that each
belong to one air handler. The topology file also carries the building-level
point ids (meters, outside air, hot water) and an ordered list of naming
rules that bind the rest of the inventory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import BindingError, TopologyError, UnitMismatchError, _Ini
from .timeseries import Unit

__all__ = [
    "PointRole",
    "AhuNode",
    "VavNode",
    "EquipmentGraph",
    "BindRule",
    "PointInfo",
    "PointBinding",
    "load_metadata",
    "dump_metadata",
    "bind_points",
]


class PointRole(Enum):
    ZONE_TEMP = "ZoneTemp"
    VAV_SUPPLY_FLOW = "VavSupplyFlow"
    VAV_SUPPLY_FLOW_SETPOINT = "VavSupplyFlowSetpoint"
    VAV_SUPPLY_AIR_TEMP = "VavSupplyAirTemp"
    VAV_HEATING_VALVE_CMD = "VavHeatingValveCmd"
    VAV_MIN_FLOW = "VavMinFlow"
    ZONE_UPPER_LIMIT = "ZoneUpperLimit"
    OCCUPIED_CMD = "OccupiedCmd"
    AHU_SUPPLY_AIR_TEMP = "AhuSupplyAirTemp"
    AHU_MIXED_AIR_TEMP = "AhuMixedAirTemp"
    AHU_RETURN_AIR_TEMP = "AhuReturnAirTemp"
    AHU_COOLING_VALVE_CMD = "AhuCoolingValveCmd"
    AHU_HEATING_VALVE_CMD = "AhuHeatingValveCmd"
    ECONOMIZER_DAMPER_POS = "EconomizerDamperPos"
    OUTSIDE_AIR_TEMP = "OutsideAirTemp"
    HOT_WATER_SUPPLY_TEMP = "HotWaterSupplyTemp"
    BUILDING_COOLING_POWER = "BuildingCoolingPower"
    BUILDING_HEATING_POWER = "BuildingHeatingPower"


# units each role may carry in the point inventory; commands arrive either
# as 0-100 percent or already as 0-1 fraction, the reader normalizes by tag
_CMD = frozenset({Unit.PERCENT, Unit.FRACTION})
ROLE_UNITS = {
    PointRole.ZONE_TEMP: frozenset({Unit.DEG_F}),
    PointRole.VAV_SUPPLY_FLOW: frozenset({Unit.CFM}),
    PointRole.VAV_SUPPLY_FLOW_SETPOINT: frozenset({Unit.CFM}),
    PointRole.VAV_SUPPLY_AIR_TEMP: frozenset({Unit.DEG_F}),
    PointRole.VAV_HEATING_VALVE_CMD: _CMD,
    PointRole.VAV_MIN_FLOW: frozenset({Unit.CFM}),
    PointRole.ZONE_UPPER_LIMIT: frozenset({Unit.DEG_F}),
    PointRole.OCCUPIED_CMD: frozenset({Unit.BOOL}),
    PointRole.AHU_SUPPLY_AIR_TEMP: frozenset({Unit.DEG_F}),
    PointRole.AHU_MIXED_AIR_TEMP: frozenset({Unit.DEG_F}),
    PointRole.AHU_RETURN_AIR_TEMP: frozenset({Unit.DEG_F}),
    PointRole.AHU_COOLING_VALVE_CMD: _CMD,
    PointRole.AHU_HEATING_VALVE_CMD: _CMD,
    PointRole.ECONOMIZER_DAMPER_POS: _CMD,
    PointRole.OUTSIDE_AIR_TEMP: frozenset({Unit.DEG_F}),
    PointRole.HOT_WATER_SUPPLY_TEMP: frozenset({Unit.DEG_F}),
    PointRole.BUILDING_COOLING_POWER: frozenset({Unit.MMBTU_HR}),
    PointRole.BUILDING_HEATING_POWER: frozenset({Unit.MMBTU_HR}),
}

VAV_ROLES = {
    PointRole.ZONE_TEMP,
    PointRole.VAV_SUPPLY_FLOW,
    PointRole.VAV_SUPPLY_FLOW_SETPOINT,
    PointRole.VAV_SUPPLY_AIR_TEMP,
    PointRole.VAV_HEATING_VALVE_CMD,
    PointRole.VAV_MIN_FLOW,
    PointRole.ZONE_UPPER_LIMIT,
    PointRole.OCCUPIED_CMD,
}
AHU_ROLES = {
    PointRole.AHU_SUPPLY_AIR_TEMP,
    PointRole.AHU_MIXED_AIR_TEMP,
    PointRole.AHU_RETURN_AIR_TEMP,
    PointRole.AHU_COOLING_VALVE_CMD,
    PointRole.AHU_HEATING_VALVE_CMD,
    PointRole.ECONOMIZER_DAMPER_POS,
}
BUILDING_ROLES = {
    PointRole.OUTSIDE_AIR_TEMP,
    PointRole.HOT_WATER_SUPPLY_TEMP,
    PointRole.BUILDING_COOLING_POWER,
    PointRole.BUILDING_HEATING_POWER,
}

@dataclass(frozen=True)
class AhuNode:
    ahu_id: str


@dataclass(frozen=True)
class VavNode:
    vav_id: str
    ahu_id: str | None
    zone: str | None = None
    min_flow_cfm: float | None = None
    zone_upper_limit_f: float | None = None


@dataclass(frozen=True)
class BindRule:
    """raw-name pattern to (equipment kind, role). '{id}' captures the equipment id."""

    pattern: str
    kind: str  # "vav" | "ahu" | "building"
    role: PointRole

    def compiled(self) -> re.Pattern:
        rx = re.escape(self.pattern)
        rx = rx.replace(r"\*", ".*").replace(r"\?", ".")
        rx = rx.replace(r"\{id\}", r"(?P<id>[A-Za-z0-9_\-]+)")
        return re.compile(rx + r"\Z")


@dataclass(frozen=True)
class PointInfo:
    point_id: str
    raw_name: str
    unit: Unit


@dataclass(frozen=True)
class EquipmentGraph:
    building_id: str
    ahus: tuple
    vavs: tuple
    cooling_meter_point: str
    heating_meter_point: str
    oat_point: str | None = None
    hot_water_temp_point: str | None = None
    occupied_start_s: int = 7 * 3600
    occupied_end_s: int = 19 * 3600
    occupied_weekdays_only: bool = True
    bind_rules: tuple = ()
    warnings: tuple = ()

    def ahu_ids(self) -> list[str]:
        return [a.ahu_id for a in self.ahus]

    def vav_ids(self) -> list[str]:
        return [v.vav_id for v in self.vavs]


def _parse_schedule(text: str) -> tuple[int, int] | None:
    """(start, end) seconds of day of 'HH:MM-HH:MM'; None for empty text."""
    if not text:
        return None
    m = re.fullmatch(r"(\d{2}):(\d{2})-(\d{2}):(\d{2})", text)
    if not m:
        raise ValueError(f"expected HH:MM-HH:MM, got '{text}'")
    start = int(m.group(1)) * 3600 + int(m.group(2)) * 60
    end = int(m.group(3)) * 3600 + int(m.group(4)) * 60
    if not 0 <= start < end <= 24 * 3600:
        raise ValueError(f"'{text}' out of order")
    return start, end


def _parse_rule(text: str) -> BindRule:
    m = re.fullmatch(r"(\S+)\s*->\s*(vav|ahu|building)\s+(\S+)", text)
    if not m:
        raise ValueError(f"expected 'PATTERN -> kind Role', got '{text}'")
    pattern, kind, role_name = m.groups()
    try:
        role = PointRole(role_name)
    except ValueError:
        raise ValueError(f"unknown role '{role_name}'") from None
    expected = {"vav": VAV_ROLES, "ahu": AHU_ROLES, "building": BUILDING_ROLES}[kind]
    if role not in expected:
        raise ValueError(f"role {role.value} is not a {kind} role")
    return BindRule(pattern=pattern, kind=kind, role=role)


def load_metadata(path: str) -> EquipmentGraph:
    """Parse a topology file into a validated EquipmentGraph.

    Duplicate ids and dangling VAV->AHU references are errors. A VAV without
    an assigned air handler is auto-assigned when the building has exactly
    one, otherwise it is left unmapped and later excluded from the sums.
    """
    ini = _Ini(path, TopologyError)
    building_id = ini.get("building", "id")
    if not building_id:
        raise ini.refused("building", "id", "empty")
    cooling_meter = ini.get("building", "cooling_meter_point", fallback="")
    heating_meter = ini.get("building", "heating_meter_point", fallback="")
    if not cooling_meter or not heating_meter:
        raise TopologyError(f"{path}: missing building meter point")

    warnings: list[str] = []
    ahus: list[AhuNode] = []
    vavs: list[VavNode] = []
    rules: list[BindRule] = []
    seen: set[str] = set()

    for section in ini.sections():
        if section == "building":
            continue
        if section == "rules":
            rules += [ini.get("rules", key, _parse_rule) for key in ini.keys("rules")]
            continue
        parts = section.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("ahu", "vav"):
            raise TopologyError(f"{path}: unrecognized section [{section}]")
        kind, equip_id = parts[0], parts[1].strip()
        if equip_id in seen:
            raise TopologyError(f"{path}: duplicate equipment id '{equip_id}'")
        seen.add(equip_id)
        if kind == "ahu":
            ahus.append(AhuNode(ahu_id=equip_id))
        else:
            vavs.append(
                VavNode(
                    vav_id=equip_id,
                    ahu_id=ini.get(section, "ahu", fallback="") or None,
                    zone=ini.get(section, "zone", fallback="") or None,
                    min_flow_cfm=ini.get(section, "min_flow_cfm", float, fallback=None),
                    zone_upper_limit_f=ini.get(section, "zone_upper_limit_f", float,
                                               fallback=None),
                )
            )

    if not ahus:
        raise TopologyError(f"{path}: no air handlers declared")
    ahu_ids = {a.ahu_id for a in ahus}
    fixed: list[VavNode] = []
    for v in vavs:
        if v.ahu_id is None:
            if len(ahus) == 1:
                warnings.append(
                    f"VAV '{v.vav_id}' has no air handler; assigned to '{ahus[0].ahu_id}'"
                )
                v = VavNode(v.vav_id, ahus[0].ahu_id, v.zone, v.min_flow_cfm, v.zone_upper_limit_f)
            else:
                warnings.append(f"VAV '{v.vav_id}' has no air handler; left unmapped")
        elif v.ahu_id not in ahu_ids:
            raise TopologyError(f"{path}: VAV '{v.vav_id}' references unknown AHU '{v.ahu_id}'")
        fixed.append(v)

    occ_start, occ_end = (
        ini.get("building", "occupied_schedule", _parse_schedule, fallback=None)
        or (EquipmentGraph.occupied_start_s, EquipmentGraph.occupied_end_s))

    return EquipmentGraph(
        building_id=building_id,
        ahus=tuple(ahus),
        vavs=tuple(fixed),
        cooling_meter_point=cooling_meter,
        heating_meter_point=heating_meter,
        oat_point=ini.get("building", "oat_point", fallback="") or None,
        hot_water_temp_point=ini.get("building", "hot_water_temp_point", fallback="") or None,
        occupied_start_s=occ_start,
        occupied_end_s=occ_end,
        occupied_weekdays_only=ini.get("building", "occupied_weekdays_only", bool,
                                       fallback=True),
        bind_rules=tuple(rules),
        warnings=tuple(warnings),
    )


def dump_metadata(graph: EquipmentGraph, path: str) -> None:
    """Write a graph back out in the topology file format."""
    def present(keys: dict) -> dict:
        """The keys whose value is set, as text; numbers in %g."""
        return {key: f"{value:g}" if isinstance(value, (int, float)) else value
                for key, value in keys.items() if value not in (None, "")}

    start, end = graph.occupied_start_s, graph.occupied_end_s
    sections = {"building": present({
        "id": graph.building_id,
        "cooling_meter_point": graph.cooling_meter_point,
        "heating_meter_point": graph.heating_meter_point,
        "oat_point": graph.oat_point,
        "hot_water_temp_point": graph.hot_water_temp_point,
        "occupied_schedule": "%02d:%02d-%02d:%02d"
        % (start // 3600, start % 3600 // 60, end // 3600, end % 3600 // 60),
        "occupied_weekdays_only": str(graph.occupied_weekdays_only).lower(),
    })}
    sections.update((f"ahu {a.ahu_id}", {}) for a in graph.ahus)
    for v in graph.vavs:
        sections[f"vav {v.vav_id}"] = present({
            "ahu": v.ahu_id, "zone": v.zone, "min_flow_cfm": v.min_flow_cfm,
            "zone_upper_limit_f": v.zone_upper_limit_f})
    if graph.bind_rules:
        sections["rules"] = {f"rule{i}": f"{rule.pattern} -> {rule.kind} {rule.role.value}"
                             for i, rule in enumerate(graph.bind_rules, start=1)}
    _Ini.write(path, sections)


@dataclass(frozen=True)
class PointBinding:
    """Resolved (equipment, role) -> point_id map."""

    bindings: dict
    warnings: tuple = ()
    units: dict = field(default_factory=dict)  # point_id -> inventory Unit


def _rule_targets(graph: EquipmentGraph, compiled, pools: dict, point: PointInfo):
    """All distinct (equipment_id, role) targets the rule list assigns this point."""
    targets = []
    for rule, pattern in compiled:
        m = pattern.match(point.raw_name)
        if not m:
            continue
        captured = m.groupdict().get("id")
        if rule.kind == "building":
            equip = graph.building_id
            if captured is not None and captured != graph.building_id:
                continue
        else:
            if captured is None or captured not in pools[rule.kind]:
                continue
            equip = captured
        if (equip, rule.role) not in targets:
            targets.append((equip, rule.role))
    return targets


def bind_points(graph: EquipmentGraph, point_inventory) -> PointBinding:
    """Assign inventory points to (equipment, role) slots.

    Deterministic regardless of inventory order: points are processed sorted
    by point_id and the first claimant of a slot wins. A single point matched
    to two different targets is a configuration error, as is a unit mismatch.
    """
    warnings: list[str] = []
    bindings: dict = {}

    # building meters and directly named building points bypass the rules
    direct = [
        (graph.cooling_meter_point, PointRole.BUILDING_COOLING_POWER),
        (graph.heating_meter_point, PointRole.BUILDING_HEATING_POWER),
        (graph.oat_point, PointRole.OUTSIDE_AIR_TEMP),
        (graph.hot_water_temp_point, PointRole.HOT_WATER_SUPPLY_TEMP),
    ]
    by_id = {p.point_id: p for p in point_inventory}
    for point_id, role in direct:
        if not point_id:
            continue
        info = by_id.get(point_id)
        if info is None:
            if role in (PointRole.BUILDING_COOLING_POWER, PointRole.BUILDING_HEATING_POWER):
                raise BindingError(
                    f"building meter point '{point_id}' is not in the point inventory"
                )
            warnings.append(f"declared point '{point_id}' not in inventory; left unbound")
            continue
        if info.unit not in ROLE_UNITS[role]:
            allowed = "/".join(sorted(u.value for u in ROLE_UNITS[role]))
            raise UnitMismatchError(
                f"point '{point_id}' bound to {role.value} must be "
                f"{allowed}, inventory says {info.unit.value}"
            )
        bindings[(graph.building_id, role)] = point_id

    compiled = [(rule, rule.compiled()) for rule in graph.bind_rules]
    pools = {"vav": set(graph.vav_ids()), "ahu": set(graph.ahu_ids())}
    for point in sorted(point_inventory, key=lambda p: p.point_id):
        targets = _rule_targets(graph, compiled, pools, point)
        if not targets:
            continue
        if len(targets) > 1:
            names = ", ".join(f"{r.value} on {e}" for e, r in targets)
            raise BindingError(f"point '{point.point_id}' claimed for multiple roles: {names}")
        equip, role = targets[0]
        if point.unit not in ROLE_UNITS[role]:
            allowed = "/".join(sorted(u.value for u in ROLE_UNITS[role]))
            raise UnitMismatchError(
                f"point '{point.point_id}' matched role {role.value} on {equip}; "
                f"expected {allowed}, inventory says {point.unit.value}"
            )
        slot = (equip, role)
        if slot in bindings and bindings[slot] != point.point_id:
            warnings.append(
                f"{role.value} on {equip}: keeping '{bindings[slot]}', "
                f"ignoring duplicate claimant '{point.point_id}'"
            )
            continue
        bindings[slot] = point.point_id

    roles_per_point: dict = {}
    for (equip, role), point_id in bindings.items():
        prev = roles_per_point.setdefault((equip, point_id), role)
        if prev is not role:
            raise BindingError(
                f"point '{point_id}' bound to both {prev.value} and {role.value} on {equip}"
            )

    bound_ids = set(bindings.values())
    units = {p.point_id: p.unit for p in point_inventory if p.point_id in bound_ids}
    return PointBinding(
        bindings=bindings,
        warnings=tuple(warnings),
        units=units,
    )
