"""Exception taxonomy, and the refusals every file reader shares.

Everything raised on bad data, bad config, or a failed fit derives from
DisaggError so the CLI can map it to exit code 1. Plain OSError (missing or
unreadable files) maps to exit code 2. ``_Ini`` reads and writes every
sectioned (INI) file: run.conf, scenario files, topology.ini, model.ini.
"""

import configparser
import dataclasses
from contextlib import contextmanager
from math import isfinite


class DisaggError(Exception):
    """Base class for validation, data, and fit errors."""


class SeriesError(DisaggError):
    """Malformed time series or unsupported series operation."""


class AlignmentError(SeriesError):
    """Series cannot be placed on one common grid."""


class DegenerateSeriesError(SeriesError):
    """A statistic has no meaningful value on this input."""


class TopologyError(DisaggError):
    """Equipment metadata file is inconsistent."""


class BindingError(DisaggError):
    """Point inventory cannot be mapped onto the equipment graph."""


class UnitMismatchError(BindingError):
    """A point's unit does not match the unit its role requires."""


class IngestError(DisaggError):
    """Trend or weather file contents are invalid."""


class ConfigError(DisaggError):
    """Run configuration file is missing or incomplete."""


class FitError(DisaggError):
    """Regression could not be performed."""


class RankDeficiencyError(FitError):
    """Design matrix is rank deficient."""

    def __init__(self, message: str, column: str | None = None):
        super().__init__(message)
        self.column = column


class ScenarioError(DisaggError):
    """Synthetic scenario specification is invalid."""


@contextmanager
def utf8_text(path: str, error: type):
    """Refuse a file that is not UTF-8 as error, naming path: a
    UnicodeDecodeError raised in the block becomes error(f"{path}:{line}:
    ..."), naming the line and byte offset of the file's first bad byte."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(_first_bad_byte(path) or f"{path}: {exc}") from exc


def _first_bad_byte(path: str) -> str | None:
    """'path:line: ...' for the first byte of path that is not UTF-8, found
    by decoding the file again a line at a time; None if it decodes. No
    character spans a newline, so each line decodes on its own."""
    offset = 0
    with open(path, "rb") as fh:
        for line, data in enumerate(fh, start=1):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (f"{path}:{line}: 'utf-8' codec can't decode byte 0x{data[exc.start]:02x}"
                        f" in position {offset + exc.start}: {exc.reason}")
            offset += len(data)
    return None


def _finite(text: str) -> float:
    value = float(text)
    if not isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


# what _Ini.get converts a value with, by Python type or by a dataclass
# field's annotation; any other kind is itself the converter
_CONVERTERS = {
    float: _finite, "float": _finite, bool: _boolean, "bool": _boolean,
    "int": int, "str": str, "int | None": int, "float | None": _finite,
    "tuple[float, ...]": lambda text: tuple(_finite(p.strip()) for p in text.split(",")
                                            if p.strip()),
}

_REQUIRED = object()


class _Ini:
    """The sectioned file at path, under one refusal policy: a file that is
    not UTF-8 or does not parse is refused as error naming path, and one that
    cannot be opened raises its OSError, or with missing set is refused as
    "cannot read {missing} file". get refuses a missing section or key, a
    value that does not convert and a float that is not finite, each as
    error(f"{path}: [section] key: ...")."""

    def __init__(self, path: str, error: type, missing: str | None = None):
        self.path, self.error = path, error
        self._parser = configparser.ConfigParser(interpolation=None)
        try:
            with utf8_text(path, error), open(path, encoding="utf-8") as fh:
                self._parser.read_file(fh, source=path)
        except OSError:
            if missing is None:
                raise
            raise error(f"cannot read {missing} file: {path}") from None
        except configparser.DuplicateSectionError as exc:
            raise error(f"{path}:{exc.lineno}: duplicate section [{exc.section}]") from exc
        except configparser.Error as exc:
            raise error(f"{path}: {exc}") from exc

    def refused(self, section: str, key: str | None, what: str) -> DisaggError:
        """The refusal of section's key (of the whole section when key is None)."""
        where = f"[{section}] {key}" if key is not None else f"[{section}]"
        return self.error(f"{self.path}: {where}: {what}")

    def sections(self) -> list[str]:
        return self._parser.sections()

    def keys(self, section: str) -> list[str]:
        if not self._parser.has_section(section):
            raise self.refused(section, None, "missing section")
        return list(self._parser[section])

    def has(self, section: str, key: str) -> bool:
        return self._parser.has_option(section, key)

    def get(self, section: str, key: str, kind=str, fallback=_REQUIRED):
        """section's key converted by kind: str, int, float (finite only),
        bool, a dataclass field annotation, or a function of the text that
        raises ValueError. A missing key gives fallback when one is passed;
        a missing section is refused either way."""
        if not self._parser.has_section(section):
            raise self.refused(section, key, "missing section")
        if not self._parser.has_option(section, key):
            if fallback is not _REQUIRED:
                return fallback
            raise self.refused(section, key, "missing key")
        try:
            return _CONVERTERS.get(kind, kind)(self._parser.get(section, key))
        except ValueError as exc:
            raise self.refused(section, key, str(exc)) from None

    def fields(self, cls, section: str, names=None, **kinds) -> dict:
        """{name: value} for each field of dataclass cls in names (every
        field when None), each required and read by its annotation or by
        the converter kinds gives for it. A name that is not a field of a
        readable type is refused as an unknown field."""
        annotations = {f.name: f.type for f in dataclasses.fields(cls)}
        out = {}
        for name in annotations if names is None else names:
            kind = kinds.get(name, annotations.get(name))
            if kind not in _CONVERTERS and not callable(kind):
                raise self.refused(section, name, "unknown field")
            out[name] = self.get(section, name, kind)
        return out

    def build(self, cls, section: str):
        """cls from every one of its fields in section; a ValueError or
        ConfigError cls raises on the values is refused naming the section."""
        values = self.fields(cls, section)
        try:
            return cls(**values)
        except (ValueError, ConfigError) as exc:
            raise self.refused(section, None, str(exc)) from None

    @staticmethod
    def write(path: str, sections: dict) -> None:
        """Write sections, {name: {key: text}}, to path in their order."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(sections)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            parser.write(fh)
