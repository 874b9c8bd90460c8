"""Run configuration: one sectioned text file drives every command.

Paths are resolved relative to the config file's own directory, so a
scenario bundle can carry its run.conf anywhere. Thresholds must be listed
completely; a missing key is a config error, not a silent default, because
detection results that depend on invisible defaults are not reproducible
from the file alone.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .energy import PhysicalConstants
from .errors import ConfigError, utf8_text
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


def _section(cp: configparser.ConfigParser, name: str, path: str):
    if not cp.has_section(name):
        raise ConfigError(f"{path}: missing [{name}] section")
    return cp[name]


def _get(section, key: str, path: str) -> str:
    if key not in section:
        raise ConfigError(f"{path}: [{section.name}] is missing '{key}'")
    return section[key]


def _read(path: str, what: str) -> configparser.ConfigParser:
    """The sectioned file at path; a missing or unparsable one is a
    ConfigError naming it."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with utf8_text(path, ConfigError):
            read = cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read {what} file: {path}")
    return cp


def load_run_config(path: str) -> RunConfig:
    cp = _read(path, "config")
    base = os.path.dirname(os.path.abspath(path))

    paths = _section(cp, "paths", path)
    resolved = {}
    for key in _INPUT_PATH_KEYS + _OUTPUT_PATH_KEYS:
        value = _get(paths, key, path)
        resolved[key] = os.path.normpath(os.path.join(base, value))

    th_sec = _section(cp, "thresholds", path)
    th_kwargs = {}
    for f in dataclasses.fields(Thresholds):
        raw = _get(th_sec, f.name, path)
        try:
            # field types are postponed-evaluation strings here
            th_kwargs[f.name] = int(raw) if f.type in (int, "int") else float(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: thresholds.{f.name}: {exc}") from exc
    thresholds = Thresholds(**th_kwargs)

    const_sec = _section(cp, "constants", path)
    try:
        constants = PhysicalConstants(**{
            f.name: float(_get(const_sec, f.name, path))
            for f in dataclasses.fields(PhysicalConstants)})
        interval_s = int(_get(const_sec, "interval_s", path))
    except ValueError as exc:
        raise ConfigError(f"{path}: constants: {exc}") from exc
    if interval_s <= 0:
        raise ConfigError(f"{path}: constants.interval_s must be positive")

    fit_sec = _section(cp, "fit", path)
    try:
        split_fraction = float(_get(fit_sec, "split_fraction", path))
    except ValueError as exc:
        raise ConfigError(f"{path}: fit.split_fraction: {exc}") from exc

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

_SPEC_SKIP = {"faults"}


def _parse_spec_value(field: dataclasses.Field, raw: str):
    if field.name == "coefficients":
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(float(p) for p in parts)
    if field.type in (bool, "bool"):
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if field.type in (int, "int"):
        return int(raw)
    if field.type in (float, "float"):
        return float(raw)
    return raw


def load_scenario_spec(path: str, seed: int | None = None) -> ScenarioSpec:
    """Build a scenario from a sectioned spec file.

    [scenario] may name a preset and/or override individual generator
    fields; [injection N] sections replace the preset's fault list when
    present. A seed argument (the --seed flag) wins over everything.
    """
    cp = _read(path, "scenario")
    sec = _section(cp, "scenario", path)

    overrides = {}
    preset = None
    fields = {f.name: f for f in dataclasses.fields(ScenarioSpec)}
    for key, raw in sec.items():
        if key == "preset":
            if raw not in SCENARIO_PRESETS:
                known = ", ".join(sorted(SCENARIO_PRESETS))
                raise ConfigError(f"{path}: unknown preset '{raw}' (known: {known})")
            preset = raw
            continue
        if key in _SPEC_SKIP or key not in fields:
            raise ConfigError(f"{path}: unknown scenario field '{key}'")
        try:
            overrides[key] = _parse_spec_value(fields[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: scenario.{key}: {exc}") from exc

    injections = []
    for name in cp.sections():
        if not name.startswith("injection"):
            continue
        inj = cp[name]
        raw_start = _get(inj, "start", path)
        try:
            start = int(raw_start) if raw_start.lstrip("-").isdigit() \
                else parse_timestamp(raw_start)
            injections.append(FaultInjection(
                fault=_get(inj, "fault", path),
                equipment=_get(inj, "equipment", path),
                start=start,
                duration_s=int(_get(inj, "duration_s", path)),
                magnitude=float(_get(inj, "magnitude", path)),
            ))
        except ValueError as exc:
            raise ConfigError(f"{path}: [{name}]: {exc}") from exc

    if preset is not None:
        spec = SCENARIO_PRESETS[preset]()
    else:
        spec = ScenarioSpec()
    if injections:
        overrides["faults"] = tuple(injections)
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        spec = dataclasses.replace(spec, **overrides)
    return spec
