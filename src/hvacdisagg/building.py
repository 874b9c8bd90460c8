"""Equipment metadata and the mapping from raw BMS point names to roles.

A building is a flat two-level graph: air handlers, and VAV boxes that each
belong to one air handler. The topology file also carries the building-level
point ids (meters, outside air, hot water) and an ordered list of naming
rules that bind the rest of the inventory.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import BindingError, TopologyError, UnitMismatchError
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

# what the pipeline does when a role is not bound
FALLBACK_PARENT_AHU_SAT = "parent-ahu-sat"
FALLBACK_MEAN_ZONE_TEMPS = "mean-zone-temps"
FALLBACK_OAT_DAMPER_MIX = "oat-damper-mix"
FALLBACK_EXCLUDE_VAV = "exclude-vav"
FALLBACK_SCHEDULE = "occupancy-schedule"


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


def _parse_schedule(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d{2}):(\d{2})-(\d{2}):(\d{2})", text.strip())
    if not m:
        raise TopologyError(f"bad occupied_schedule '{text}', expected HH:MM-HH:MM")
    start = int(m.group(1)) * 3600 + int(m.group(2)) * 60
    end = int(m.group(3)) * 3600 + int(m.group(4)) * 60
    if not 0 <= start < end <= 24 * 3600:
        raise TopologyError(f"occupied_schedule '{text}' out of order")
    return start, end


def _parse_rule(key: str, text: str) -> BindRule:
    m = re.fullmatch(r"(\S+)\s*->\s*(vav|ahu|building)\s+(\S+)", text.strip())
    if not m:
        raise TopologyError(f"rule '{key}': expected 'PATTERN -> kind Role', got '{text}'")
    pattern, kind, role_name = m.groups()
    try:
        role = PointRole(role_name)
    except ValueError:
        raise TopologyError(f"rule '{key}': unknown role '{role_name}'") from None
    expected = {"vav": VAV_ROLES, "ahu": AHU_ROLES, "building": BUILDING_ROLES}[kind]
    if role not in expected:
        raise TopologyError(f"rule '{key}': role {role.value} is not a {kind} role")
    return BindRule(pattern=pattern, kind=kind, role=role)


def load_metadata(path: str) -> EquipmentGraph:
    """Parse a topology file into a validated EquipmentGraph.

    Duplicate ids and dangling VAV->AHU references are errors. A VAV without
    an assigned air handler is auto-assigned when the building has exactly
    one, otherwise it is left unmapped and later excluded from the sums.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.DuplicateSectionError as exc:
        raise TopologyError(f"{path}: duplicate equipment id (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise TopologyError(f"{path}: {exc}") from exc
    if not read:
        raise OSError(f"topology file not found: {path}")
    if "building" not in cp:
        raise TopologyError(f"{path}: missing [building] section")
    b = cp["building"]
    building_id = b.get("id", "").strip()
    if not building_id:
        raise TopologyError(f"{path}: [building] needs an id")
    cooling_meter = b.get("cooling_meter_point", "").strip()
    heating_meter = b.get("heating_meter_point", "").strip()
    if not cooling_meter or not heating_meter:
        raise TopologyError(f"{path}: missing building meter point")

    warnings: list[str] = []
    ahus: list[AhuNode] = []
    vavs: list[VavNode] = []
    rules: list[BindRule] = []
    seen: set[str] = set()

    for section in cp.sections():
        if section == "building":
            continue
        if section == "rules":
            for key, value in cp.items("rules"):
                rules.append(_parse_rule(key, value))
            continue
        parts = section.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("ahu", "vav"):
            raise TopologyError(f"{path}: unrecognized section [{section}]")
        kind, equip_id = parts[0], parts[1].strip()
        if equip_id in seen:
            raise TopologyError(f"{path}: duplicate equipment id '{equip_id}'")
        seen.add(equip_id)
        sec = cp[section]
        if kind == "ahu":
            ahus.append(AhuNode(ahu_id=equip_id))
        else:
            vavs.append(
                VavNode(
                    vav_id=equip_id,
                    ahu_id=sec.get("ahu", "").strip() or None,
                    zone=sec.get("zone", "").strip() or None,
                    min_flow_cfm=sec.getfloat("min_flow_cfm", fallback=None),
                    zone_upper_limit_f=sec.getfloat("zone_upper_limit_f", fallback=None),
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
                warnings.append(f"VAV '{v.vav_id}' has no air handler; excluded from sums")
        elif v.ahu_id not in ahu_ids:
            raise TopologyError(f"{path}: VAV '{v.vav_id}' references unknown AHU '{v.ahu_id}'")
        fixed.append(v)

    sched = b.get("occupied_schedule", "").strip()
    occ_start, occ_end = (_parse_schedule(sched) if sched else
                          (EquipmentGraph.occupied_start_s, EquipmentGraph.occupied_end_s))

    return EquipmentGraph(
        building_id=building_id,
        ahus=tuple(ahus),
        vavs=tuple(fixed),
        cooling_meter_point=cooling_meter,
        heating_meter_point=heating_meter,
        oat_point=b.get("oat_point", "").strip() or None,
        hot_water_temp_point=b.get("hot_water_temp_point", "").strip() or None,
        occupied_start_s=occ_start,
        occupied_end_s=occ_end,
        occupied_weekdays_only=b.getboolean("occupied_weekdays_only", fallback=True),
        bind_rules=tuple(rules),
        warnings=tuple(warnings),
    )


def dump_metadata(graph: EquipmentGraph, path: str) -> None:
    """Write a graph back out in the topology file format."""
    lines = ["[building]", f"id = {graph.building_id}"]
    lines.append(f"cooling_meter_point = {graph.cooling_meter_point}")
    lines.append(f"heating_meter_point = {graph.heating_meter_point}")
    if graph.oat_point:
        lines.append(f"oat_point = {graph.oat_point}")
    if graph.hot_water_temp_point:
        lines.append(f"hot_water_temp_point = {graph.hot_water_temp_point}")
    start, end = graph.occupied_start_s, graph.occupied_end_s
    lines.append(
        "occupied_schedule = %02d:%02d-%02d:%02d"
        % (start // 3600, start % 3600 // 60, end // 3600, end % 3600 // 60)
    )
    lines.append(f"occupied_weekdays_only = {'true' if graph.occupied_weekdays_only else 'false'}")
    for a in graph.ahus:
        lines += ["", f"[ahu {a.ahu_id}]"]
    for v in graph.vavs:
        lines += ["", f"[vav {v.vav_id}]"]
        if v.ahu_id:
            lines.append(f"ahu = {v.ahu_id}")
        if v.zone:
            lines.append(f"zone = {v.zone}")
        if v.min_flow_cfm is not None:
            lines.append(f"min_flow_cfm = {v.min_flow_cfm:g}")
        if v.zone_upper_limit_f is not None:
            lines.append(f"zone_upper_limit_f = {v.zone_upper_limit_f:g}")
    if graph.bind_rules:
        lines += ["", "[rules]"]
        for i, rule in enumerate(graph.bind_rules, start=1):
            lines.append(f"rule{i} = {rule.pattern} -> {rule.kind} {rule.role.value}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class PointBinding:
    """Resolved (equipment, role) -> point_id map plus what stayed unresolved."""

    bindings: dict
    unresolved: tuple  # (equipment_id, role, fallback_tag)
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


def bind_points(graph: EquipmentGraph, point_inventory, rules=None) -> PointBinding:
    """Assign inventory points to (equipment, role) slots.

    Deterministic regardless of inventory order: points are processed sorted
    by point_id and the first claimant of a slot wins. A single point matched
    to two different targets is a configuration error, as is a unit mismatch.
    """
    if rules is None:
        rules = graph.bind_rules
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

    compiled = [(rule, rule.compiled()) for rule in rules]
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

    unresolved: list = []
    for v in graph.vavs:
        if not (v.vav_id, PointRole.VAV_SUPPLY_FLOW) in bindings:
            unresolved.append((v.vav_id, PointRole.VAV_SUPPLY_FLOW, FALLBACK_EXCLUDE_VAV))
            warnings.append(f"VAV '{v.vav_id}' has no supply flow point; excluded from sums")
        if not (v.vav_id, PointRole.ZONE_TEMP) in bindings:
            unresolved.append((v.vav_id, PointRole.ZONE_TEMP, FALLBACK_EXCLUDE_VAV))
            warnings.append(f"VAV '{v.vav_id}' has no zone temp point; excluded from sums")
        if not (v.vav_id, PointRole.VAV_SUPPLY_AIR_TEMP) in bindings:
            unresolved.append((v.vav_id, PointRole.VAV_SUPPLY_AIR_TEMP, FALLBACK_PARENT_AHU_SAT))
        if not (v.vav_id, PointRole.OCCUPIED_CMD) in bindings:
            unresolved.append((v.vav_id, PointRole.OCCUPIED_CMD, FALLBACK_SCHEDULE))
    for a in graph.ahus:
        if not (a.ahu_id, PointRole.AHU_RETURN_AIR_TEMP) in bindings:
            unresolved.append((a.ahu_id, PointRole.AHU_RETURN_AIR_TEMP, FALLBACK_MEAN_ZONE_TEMPS))
        if not (a.ahu_id, PointRole.AHU_MIXED_AIR_TEMP) in bindings:
            unresolved.append((a.ahu_id, PointRole.AHU_MIXED_AIR_TEMP, FALLBACK_OAT_DAMPER_MIX))

    bound_ids = set(bindings.values())
    units = {p.point_id: p.unit for p in point_inventory if p.point_id in bound_ids}
    return PointBinding(
        bindings=bindings,
        unresolved=tuple(unresolved),
        warnings=tuple(warnings),
        units=units,
    )
