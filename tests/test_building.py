import dataclasses
import random

import pytest

from hvacdisagg.building import (
    BindRule,
    EquipmentGraph,
    AhuNode,
    VavNode,
    PointInfo,
    PointRole,
    bind_points,
    dump_metadata,
    load_metadata,
)
from hvacdisagg.errors import BindingError, TopologyError, UnitMismatchError
from hvacdisagg.timeseries import Unit

TOPOLOGY = """\
[building]
id = B1
cooling_meter_point = B1.CLGMTR
heating_meter_point = B1.HTGMTR
oat_point = B1.OAT
hot_water_temp_point = B1.HWST
occupied_schedule = 07:00-19:00

[ahu AH1]

[ahu AH2]

[vav VAV101]
ahu = AH1
zone = Z101
min_flow_cfm = 120
zone_upper_limit_f = 76

[vav VAV201]
ahu = AH2

[rules]
rule1 = B1.{id}.ZNT -> vav ZoneTemp
rule2 = B1.{id}.SF -> vav VavSupplyFlow
rule3 = B1.{id}.SAT -> ahu AhuSupplyAirTemp
rule4 = B1.{id}.MAT -> ahu AhuMixedAirTemp
rule5 = B1.{id}.DMPR -> ahu EconomizerDamperPos
"""


@pytest.fixture()
def topo_path(tmp_path):
    p = tmp_path / "topology.ini"
    p.write_text(TOPOLOGY)
    return str(p)


def inventory():
    return [
        PointInfo("B1.CLGMTR", "B1.CLGMTR", Unit.MMBTU_HR),
        PointInfo("B1.HTGMTR", "B1.HTGMTR", Unit.MMBTU_HR),
        PointInfo("B1.OAT", "B1.OAT", Unit.DEG_F),
        PointInfo("B1.HWST", "B1.HWST", Unit.DEG_F),
        PointInfo("B1.VAV101.ZNT", "B1.VAV101.ZNT", Unit.DEG_F),
        PointInfo("B1.VAV101.SF", "B1.VAV101.SF", Unit.CFM),
        PointInfo("B1.VAV201.ZNT", "B1.VAV201.ZNT", Unit.DEG_F),
        PointInfo("B1.VAV201.SF", "B1.VAV201.SF", Unit.CFM),
        PointInfo("B1.AH1.SAT", "B1.AH1.SAT", Unit.DEG_F),
        PointInfo("B1.AH2.SAT", "B1.AH2.SAT", Unit.DEG_F),
        PointInfo("B1.AH1.MAT", "B1.AH1.MAT", Unit.DEG_F),
        PointInfo("B1.AH1.DMPR", "B1.AH1.DMPR", Unit.PERCENT),
        PointInfo("B1.MISC.JUNK", "B1.MISC.JUNK", Unit.DEG_F),
    ]


class TestLoadMetadata:
    def test_basic_parse(self, topo_path):
        g = load_metadata(topo_path)
        assert g.building_id == "B1"
        assert g.ahu_ids() == ["AH1", "AH2"]
        assert g.vav_ids() == ["VAV101", "VAV201"]
        vav101 = next(v for v in g.vavs if v.vav_id == "VAV101")
        assert vav101.min_flow_cfm == 120
        assert vav101.zone_upper_limit_f == 76
        assert [v.vav_id for v in g.vavs if v.ahu_id == "AH2"] == ["VAV201"]
        assert g.occupied_start_s == 7 * 3600
        assert len(g.bind_rules) == 5

    def test_round_trip(self, topo_path, tmp_path):
        g = load_metadata(topo_path)
        out = tmp_path / "copy.ini"
        dump_metadata(g, str(out))
        g2 = load_metadata(str(out))
        assert g2 == g

    def test_duplicate_id_rejected(self, tmp_path):
        bad = TOPOLOGY.replace("[vav VAV201]\nahu = AH2", "[vav VAV101]\nahu = AH2", 1)
        p = tmp_path / "t.ini"
        p.write_text(bad)
        with pytest.raises(TopologyError, match="duplicate"):
            load_metadata(str(p))

    def test_unknown_ahu_reference(self, tmp_path):
        bad = TOPOLOGY.replace("ahu = AH2", "ahu = AH9")
        p = tmp_path / "t.ini"
        p.write_text(bad)
        with pytest.raises(TopologyError, match="VAV201.*AH9"):
            load_metadata(str(p))

    def test_missing_meter_point(self, tmp_path):
        bad = TOPOLOGY.replace("cooling_meter_point = B1.CLGMTR\n", "")
        p = tmp_path / "t.ini"
        p.write_text(bad)
        with pytest.raises(TopologyError, match="meter point"):
            load_metadata(str(p))

    def test_single_ahu_auto_assign(self, tmp_path):
        text = """\
[building]
id = B1
cooling_meter_point = M1
heating_meter_point = M2

[ahu AH1]

[vav VAV1]
"""
        p = tmp_path / "t.ini"
        p.write_text(text)
        g = load_metadata(str(p))
        assert [(v.vav_id, v.ahu_id) for v in g.vavs] == [("VAV1", "AH1")]
        assert any("assigned" in w for w in g.warnings)

    def test_multi_ahu_leaves_unmapped(self, tmp_path):
        text = """\
[building]
id = B1
cooling_meter_point = M1
heating_meter_point = M2

[ahu AH1]

[ahu AH2]

[vav VAV1]
"""
        p = tmp_path / "t.ini"
        p.write_text(text)
        g = load_metadata(str(p))
        assert [(v.vav_id, v.ahu_id) for v in g.vavs] == [("VAV1", None)]
        assert any("VAV1" in w and "no air handler" in w for w in g.warnings)

    def test_missing_file_is_io_error(self):
        with pytest.raises(OSError):
            load_metadata("/nonexistent/topology.ini")


class TestBindPoints:
    def test_binding_and_fallbacks(self, topo_path):
        g = load_metadata(topo_path)
        binding = bind_points(g, inventory())
        assert binding.bindings[("VAV101", PointRole.ZONE_TEMP)] == "B1.VAV101.ZNT"
        assert binding.bindings[("AH1", PointRole.AHU_SUPPLY_AIR_TEMP)] == "B1.AH1.SAT"
        assert binding.bindings[("B1", PointRole.BUILDING_COOLING_POWER)] == "B1.CLGMTR"
        # AH2 has no mixed-air sensor, VAVs have no discharge temp sensor:
        # those slots stay empty, and what stands in for them is assemble's
        # call (tests/test_energy.py)
        assert ("AH2", PointRole.AHU_MIXED_AIR_TEMP) not in binding.bindings
        assert ("VAV101", PointRole.VAV_SUPPLY_AIR_TEMP) not in binding.bindings
        assert binding.warnings == ()

    def test_order_insensitive(self, topo_path):
        g = load_metadata(topo_path)
        inv = inventory()
        base = bind_points(g, inv)
        for seed in (1, 2, 3):
            shuffled = inv[:]
            random.Random(seed).shuffle(shuffled)
            assert bind_points(g, shuffled).bindings == base.bindings

    def test_unit_mismatch(self, topo_path):
        g = load_metadata(topo_path)
        inv = inventory()
        inv[5] = PointInfo("B1.VAV101.SF", "B1.VAV101.SF", Unit.DEG_F)
        with pytest.raises(UnitMismatchError, match="B1.VAV101.SF"):
            bind_points(g, inv)

    def test_meter_missing_from_inventory(self, topo_path):
        g = load_metadata(topo_path)
        inv = [p for p in inventory() if p.point_id != "B1.CLGMTR"]
        with pytest.raises(BindingError, match="meter point"):
            bind_points(g, inv)

    def test_conflicting_rules_rejected(self, topo_path):
        g = load_metadata(topo_path)
        g = dataclasses.replace(g, bind_rules=g.bind_rules + (
            BindRule("B1.{id}.ZNT", "vav", PointRole.VAV_SUPPLY_AIR_TEMP),
        ))
        with pytest.raises(BindingError, match="multiple roles"):
            bind_points(g, inventory())

    def test_missing_flow_left_unbound(self, topo_path):
        # excluding the VAV is assemble's call, made on the series it gets
        g = load_metadata(topo_path)
        inv = [p for p in inventory() if p.point_id != "B1.VAV201.SF"]
        binding = bind_points(g, inv)
        assert ("VAV201", PointRole.VAV_SUPPLY_FLOW) not in binding.bindings
        assert ("VAV201", PointRole.ZONE_TEMP) in binding.bindings
        assert binding.warnings == ()

    def test_duplicate_claimants_keep_first_sorted(self, topo_path):
        g = load_metadata(topo_path)
        inv = inventory() + [PointInfo("B1.VAV101.ZNT2", "B1.VAV101.ZNT", Unit.DEG_F)]
        binding = bind_points(g, inv)
        assert binding.bindings[("VAV101", PointRole.ZONE_TEMP)] == "B1.VAV101.ZNT"
        assert any("duplicate claimant" in w for w in binding.warnings)

    def test_unmatched_points_ignored(self, topo_path):
        g = load_metadata(topo_path)
        binding = bind_points(g, inventory())
        bound_ids = set(binding.bindings.values())
        assert "B1.MISC.JUNK" not in bound_ids
