"""Gap-aware regular time series plus the error statistics used everywhere else.

Timestamps are UTC epoch seconds on a fixed-interval grid. Gaps are explicit
NaN markers in the value array; nothing in this module fills one in unless the
caller asked for interpolation. All statistics drop incomplete rows first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, DegenerateSeriesError, SeriesError

__all__ = [
    "Unit",
    "TimeSeries",
    "AlignedFrame",
    "frozen",
    "bucket",
    "resample",
    "align",
    "rmse",
    "percent_errors",
    "rmspe_of",
    "mpe_of",
    "pearson",
]


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


@dataclass(frozen=True, eq=False)
class AlignedFrame:
    """Several series on one shared grid. Columns keep their NaN gaps."""

    start: int
    interval_s: int
    columns: dict

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def timestamps(self) -> np.ndarray:
        return self.start + self.interval_s * np.arange(self.n_rows, dtype=np.int64)


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


def resample(
    series: TimeSeries,
    target_interval_s: int,
    policy: str = "mean",
    max_gap_s: int | None = None,
) -> TimeSeries:
    """Move a series onto an epoch-aligned grid of target_interval_s seconds.

    policy "mean" averages the in-bucket samples, "last" keeps the final one,
    "interp" linearly interpolates between neighbours no further than max_gap_s
    apart. mean/last only coarsen; a bucket with no values stays a gap.
    """
    if target_interval_s <= 0:
        raise SeriesError(f"target interval must be positive, got {target_interval_s}")
    if len(series) == 0:
        raise SeriesError(f"{series.point_id}: cannot resample an empty series")

    if policy in ("mean", "last"):
        if target_interval_s < series.interval_s:
            raise SeriesError(
                f"{series.point_id}: policy '{policy}' cannot upsample "
                f"{series.interval_s}s data to {target_interval_s}s; use 'interp'"
            )
        ts = series.timestamps()
        first_bucket = (series.start // target_interval_s) * target_interval_s
        last_bucket = ((series.end - 1) // target_interval_s) * target_interval_s
        n_out = (last_bucket - first_bucket) // target_interval_s + 1
        idx = (ts - first_bucket) // target_interval_s
        valid = ~np.isnan(series.values)
        out = bucket(idx[valid], series.values[valid], n_out, policy)
        return TimeSeries(series.point_id, int(first_bucket), int(target_interval_s), series.unit, out)

    if policy == "interp":
        if max_gap_s is None:
            raise SeriesError("policy 'interp' requires max_gap_s")
        ts = series.timestamps().astype(float)
        valid = ~np.isnan(series.values)
        if not valid.any():
            raise SeriesError(f"{series.point_id}: no values to interpolate from")
        known_t = ts[valid]
        known_v = series.values[valid]
        first_out = math.ceil(known_t[0] / target_interval_s) * target_interval_s
        last_out = math.floor(known_t[-1] / target_interval_s) * target_interval_s
        if last_out < first_out:
            raise SeriesError(f"{series.point_id}: span too short for {target_interval_s}s grid")
        out_t = np.arange(first_out, last_out + 1, target_interval_s, dtype=np.int64)
        right = np.searchsorted(known_t, out_t, side="left")
        right = np.clip(right, 0, len(known_t) - 1)
        left = np.clip(right - 1, 0, len(known_t) - 1)
        exact = known_t[right] == out_t
        left[exact] = right[exact]
        span = known_t[right] - known_t[left]
        frac = np.zeros(len(out_t))
        interp_rows = span > 0
        frac[interp_rows] = (out_t[interp_rows] - known_t[left][interp_rows]) / span[interp_rows]
        out = known_v[left] + frac * (known_v[right] - known_v[left])
        out[span > max_gap_s] = np.nan
        return TimeSeries(series.point_id, int(first_out), int(target_interval_s), series.unit, out)

    raise SeriesError(f"unsupported resample policy '{policy}'")


def align(series_by_name: dict) -> AlignedFrame:
    """Cut a set of same-interval series down to their common span.

    Raises AlignmentError on mixed intervals, mismatched grid phase, or when
    the spans do not overlap at all.
    """
    if not series_by_name:
        raise AlignmentError("nothing to align")
    intervals = {s.interval_s for s in series_by_name.values()}
    if len(intervals) != 1:
        raise AlignmentError(f"mixed intervals {sorted(intervals)}; resample first")
    interval = intervals.pop()
    phases = {s.start % interval for s in series_by_name.values()}
    if len(phases) != 1:
        raise AlignmentError("grid phase mismatch between series; resample first")
    lo = max(s.start for s in series_by_name.values())
    hi = min(s.end for s in series_by_name.values())
    if hi <= lo:
        raise AlignmentError("no temporal overlap between series")
    cols = {}
    for name, s in series_by_name.items():
        i0 = (lo - s.start) // interval
        i1 = (hi - s.start) // interval
        cols[name] = s.values[i0:i1]
    return AlignedFrame(start=int(lo), interval_s=int(interval), columns=cols)


def _paired(a, b, what: str):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise SeriesError(f"{what}: length mismatch {a.shape} vs {b.shape}")
    keep = ~(np.isnan(a) | np.isnan(b))
    if not keep.any():
        raise DegenerateSeriesError(f"{what}: no overlapping samples")
    return a[keep], b[keep]


def rmse(a, b) -> float:
    """Root mean square difference over complete rows. Symmetric in a and b."""
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


def rmspe_of(errors, n_rows: int, eps: float) -> float:
    """Root mean square percentage error from percent_errors' relative
    errors over n_rows complete rows. More than half the rows below eps
    means the reference is too close to zero to be a meaningful base."""
    _check_base(len(errors), n_rows, eps, "rmspe")
    pct = errors * 100.0
    return float(np.sqrt(_mean(pct**2)))


def mpe_of(errors, n_rows: int, eps: float) -> float:
    """Signed mean percentage error from percent_errors' relative errors over
    n_rows complete rows; the sign tells which way measured is biased."""
    _check_base(len(errors), n_rows, eps, "mpe")
    return float(_mean(errors) * 100.0)


def pearson(a, b) -> float:
    """Pearson correlation over complete rows.

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
