"""Run configuration: one sectioned text file drives every command.

Paths are resolved relative to the config file's own directory, so a
scenario bundle can carry its run.conf anywhere. Thresholds must be listed
completely; a missing key is a config error, not a silent default, because
detection results that depend on invisible defaults are not reproducible
from the file alone.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .energy import PhysicalConstants
from .errors import ConfigError, _Ini
from .faults import Thresholds
from .ingest import parse_timestamp
from .synth import FaultInjection, ScenarioSpec, scenario_faulted, \
    scenario_healthy_twin, scenario_impact, scenario_mixed_season, scenario_recovery

__all__ = [
    "RunConfig",
    "load_run_config",
    "load_scenario_spec",
    "SCENARIO_PRESETS",
]

_INPUT_PATH_KEYS = ("topology", "points", "trends", "reference_year")
_OUTPUT_PATH_KEYS = ("model", "findings", "output_dir")


@dataclass(frozen=True)
class RunConfig:
    topology_path: str
    points_path: str
    trends_path: str
    reference_year_path: str
    model_path: str
    findings_path: str
    output_dir: str
    thresholds: Thresholds
    constants: PhysicalConstants
    interval_s: int
    split_fraction: float

    def check_inputs_exist(self) -> None:
        """Inputs must exist before a run; outputs are created by commands."""
        missing = [p for p in (self.topology_path, self.points_path,
                               self.trends_path, self.reference_year_path)
                   if not os.path.exists(p)]
        if missing:
            raise ConfigError("missing input file(s): " + ", ".join(missing))


def load_run_config(path: str) -> RunConfig:
    ini = _Ini(path, ConfigError, "config")
    base = os.path.dirname(os.path.abspath(path))
    resolved = {key: os.path.normpath(os.path.join(base, ini.get("paths", key)))
                for key in _INPUT_PATH_KEYS + _OUTPUT_PATH_KEYS}
    thresholds = ini.build(Thresholds, "thresholds")
    constants = ini.build(PhysicalConstants, "constants")
    interval_s = ini.get("constants", "interval_s", int)
    if interval_s <= 0:
        raise ini.refused("constants", "interval_s", "must be positive")
    split_fraction = ini.get("fit", "split_fraction", float)

    return RunConfig(
        topology_path=resolved["topology"],
        points_path=resolved["points"],
        trends_path=resolved["trends"],
        reference_year_path=resolved["reference_year"],
        model_path=resolved["model"],
        findings_path=resolved["findings"],
        output_dir=resolved["output_dir"],
        thresholds=thresholds,
        constants=constants,
        interval_s=interval_s,
        split_fraction=split_fraction,
    )


# ----------------------------------------------------------------------
# scenario spec files for the synth command

SCENARIO_PRESETS = {
    "recovery": scenario_recovery,
    "mixed_season": scenario_mixed_season,
    "faulted": scenario_faulted,
    "healthy": scenario_healthy_twin,
    "impact": scenario_impact,
}


def _injection_start(text: str) -> int:
    """An injection's start: epoch seconds, or an ISO-8601 timestamp."""
    return int(text) if text.lstrip("-").isdigit() else parse_timestamp(text)


def load_scenario_spec(path: str, seed: int | None = None) -> ScenarioSpec:
    """Build a scenario from a sectioned spec file.

    [scenario] may name a preset and/or override individual generator
    fields; [injection N] sections replace the preset's fault list when
    present. A seed argument (the --seed flag) wins over everything.
    """
    ini = _Ini(path, ConfigError, "scenario")
    names = [key for key in ini.keys("scenario") if key != "preset"]
    preset = ini.get("scenario", "preset", fallback=None)
    if preset is not None and preset not in SCENARIO_PRESETS:
        known = ", ".join(sorted(SCENARIO_PRESETS))
        raise ini.refused("scenario", "preset", f"unknown preset '{preset}' (known: {known})")
    overrides = ini.fields(ScenarioSpec, "scenario", names)
    injections = tuple(FaultInjection(**ini.fields(FaultInjection, name,
                                                   start=_injection_start))
                       for name in ini.sections() if name.startswith("injection"))
    if injections:
        overrides["faults"] = injections
    if seed is not None:
        overrides["seed"] = seed
    spec = SCENARIO_PRESETS[preset]() if preset is not None else ScenarioSpec()
    return dataclasses.replace(spec, **overrides) if overrides else spec
