"""Gap-aware regular time series plus the error statistics used everywhere else.

Timestamps are UTC epoch seconds on a fixed-interval grid. Gaps are explicit
NaN markers in the value array; nothing in this module fills one in. The
statistics see complete rows only: rmse and pearson drop incomplete and
non-finite rows themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSeriesError, SeriesError

__all__ = [
    "Unit",
    "TimeSeries",
    "frozen",
    "bucket",
    "rmse",
    "percent_errors",
    "rmspe_of",
    "mpe_of",
    "pearson",
]


# a finite reading whose square, sum or power overflows gives inf, which
# every consumer treats as non-finite, without a numpy warning
_overflow_to_inf = np.errstate(over="ignore")


class Unit(Enum):
    DEG_F = "degF"
    CFM = "cfm"
    PERCENT = "percent"
    FRACTION = "fraction"
    MMBTU_HR = "mmbtu_hr"
    BOOL = "bool"


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One point's samples on a regular grid.

    start is the epoch second of the first sample, interval_s the grid step.
    values is a float array with NaN where the sample is missing, and it is
    read-only: derive new series instead of mutating. A read-only float64
    array that no other array can write, because it owns its memory or
    views immutable bytes, is taken over as it is; anything else is copied
    and the copy frozen. A producer hands an array over with frozen() and
    keeps no writeable view of it.
    """

    point_id: str
    start: int
    interval_s: int
    unit: Unit
    values: np.ndarray

    def __post_init__(self):
        if self.interval_s <= 0:
            raise SeriesError(
                f"{self.point_id}: interval must be positive, got {self.interval_s}"
            )
        if not _handed_over(self.values):
            object.__setattr__(self, "values", frozen(np.array(self.values, dtype=float)))
        object.__setattr__(self, "start", int(self.start))
        object.__setattr__(self, "interval_s", int(self.interval_s))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        """Epoch second one interval past the last sample (half-open span)."""
        return self.start + len(self.values) * self.interval_s

    def timestamps(self) -> np.ndarray:
        return self.start + self.interval_s * np.arange(len(self.values), dtype=np.int64)


def frozen(values: np.ndarray) -> np.ndarray:
    """values, made read-only in place: how a producer hands an array it
    owns to a TimeSeries without a copy."""
    values.flags.writeable = False
    return values


def _handed_over(values) -> bool:
    """values is a read-only float64 array that owns its memory or views
    immutable bytes, so nothing else can write it."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64
            and not values.flags.writeable):
        return False
    base = values.base
    while isinstance(base, np.ndarray) and not base.flags.owndata:
        base = base.base
    return base is None or type(base) is bytes


def bucket(idx, values, n_out: int, policy: str) -> np.ndarray:
    """Samples into n_out slots by slot index: "mean" averages each slot,
    "last" keeps its final sample; a slot with no sample is a gap."""
    out = np.full(n_out, np.nan)
    if policy == "mean":
        sums = np.zeros(n_out)
        counts = np.zeros(n_out)
        np.add.at(sums, idx, values)
        np.add.at(counts, idx, 1.0)
        got = counts > 0
        out[got] = sums[got] / counts[got]
    else:
        out[idx] = values  # later samples in a slot overwrite earlier ones
    return out


def _paired(a, b, what: str):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise SeriesError(f"{what}: length mismatch {a.shape} vs {b.shape}")
    keep = np.isfinite(a) & np.isfinite(b)
    if not keep.any():
        raise DegenerateSeriesError(f"{what}: no overlapping samples")
    return a[keep], b[keep]


def rmse(a, b) -> float:
    """Root mean square difference over complete, finite rows. Symmetric in a and b."""
    x, y = _paired(a, b, "rmse")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def _mean(x) -> np.float64:
    """np.mean of a 1-D float array: the same pairwise sum and division, so
    the same bits, without its per-call overhead, which dominates on the
    short slices detection judges by the thousand."""
    return np.add.reduce(x) / len(x)


def percent_errors(measured, reference, eps: float):
    """The per-row base of rmspe_of and mpe_of over complete rows: the mask
    of rows whose |reference| >= eps, and the relative error (m - r) / r on
    exactly those rows, in row order. Pick eps in the unit of the reference
    (1 CFM for flows, 0.5 degF for temperatures)."""
    ok = np.abs(reference) >= eps
    return ok, (measured[ok] - reference[ok]) / reference[ok]


def _check_base(n_ok: int, n_rows: int, eps: float, what: str) -> None:
    """Refuse a mostly near-zero reference."""
    if n_ok * 2 < n_rows:
        raise DegenerateSeriesError(
            f"{what}: reference degenerate, {n_rows - n_ok} of {n_rows} rows below eps={eps}"
        )


@_overflow_to_inf
def rmspe_of(errors, n_rows: int, eps: float) -> float:
    """Root mean square percentage error from percent_errors' relative
    errors over n_rows complete rows. More than half the rows below eps
    means the reference is too close to zero to be a meaningful base."""
    _check_base(len(errors), n_rows, eps, "rmspe")
    pct = errors * 100.0
    return float(np.sqrt(_mean(pct**2)))


@_overflow_to_inf
def mpe_of(errors, n_rows: int, eps: float) -> float:
    """Signed mean percentage error from percent_errors' relative errors over
    n_rows complete rows; the sign tells which way measured is biased."""
    _check_base(len(errors), n_rows, eps, "mpe")
    return float(_mean(errors) * 100.0)


@_overflow_to_inf
def pearson(a, b) -> float:
    """Pearson correlation over complete, finite rows.

    Raises DegenerateSeriesError when either side is constant; a flatlined
    sensor has no correlation, and callers must decide what that means.
    """
    x, y = _paired(a, b, "pearson")
    if len(x) < 2:
        raise DegenerateSeriesError("pearson: need at least 2 complete rows")
    dx = x - _mean(x)
    dy = y - _mean(y)
    sx = float(np.sqrt(np.sum(dx**2)))
    sy = float(np.sqrt(np.sum(dy**2)))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSeriesError("pearson: constant series")
    return float(np.sum(dx * dy) / (sx * sy))
