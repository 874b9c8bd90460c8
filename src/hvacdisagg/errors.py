"""Exception taxonomy.

Everything raised on bad data, bad config, or a failed fit derives from
DisaggError so the CLI can map it to exit code 1. Plain OSError (missing or
unreadable files) maps to exit code 2.
"""

from contextlib import contextmanager


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


class FaultRuleError(DisaggError):
    """A detection rule cannot run against this equipment's data."""


class ScenarioError(DisaggError):
    """Synthetic scenario specification is invalid."""


@contextmanager
def utf8_text(path: str, error: type):
    """Refuse a file that is not UTF-8 as error, naming path: a
    UnicodeDecodeError raised in the block becomes error(f"{path}: ...")."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
