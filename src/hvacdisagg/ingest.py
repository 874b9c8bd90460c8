"""Reading and writing the on-disk CSV formats.

Every CSV input, the findings of ``faults`` included, is read through
``_Records``, which holds the one refusal policy: a file that is not UTF-8,
a record of the wrong width, a cell the csv module cannot read. The
readers keep only their own field parsing.

Trend logs are long-format CSV with header ``timestamp,point,value``;
timestamps are ISO-8601 with a UTC offset and values are plain decimals.
Raw samples land on the canonical grid by bucket: mean for analog points,
last-wins for boolean ones. Percent-tagged commands are divided by 100 so
everything downstream works in fractions. ``read_trends_cached`` puts a
one-file cache in front of ``read_trends``, so the commands of one run
parse the same trend file once between them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice, repeat
from math import isfinite

import numpy as np

from .building import PointBinding, PointInfo
from .errors import IngestError, utf8_text
from .timeseries import TimeSeries, Unit, bucket, frozen

__all__ = [
    "IngestStats",
    "parse_timestamp",
    "format_timestamp",
    "read_points",
    "write_points",
    "read_trends",
    "read_trends_cached",
    "write_trends",
    "read_reference_year",
    "write_reference_year",
]

TREND_HEADER = ["timestamp", "point", "value"]
POINTS_HEADER = ["point_id", "name", "unit"]
REFERENCE_YEAR_HEADER = ["day_of_year", "oat_f"]

# read_trends_cached's file under the output directory, and the version of
# its layout; bump the version whenever what read_trends returns changes.
TRENDS_CACHE_NAME = ".trends-cache"
TRENDS_CACHE_FORMAT = 1

# cells per write in _write_numeric_csv: one block's text is alive at once,
# and synth, whose peak RSS the benchmark bounds, writes the widest files
_BLOCK_CELLS = 4096


def parse_timestamp(text: str) -> int:
    """ISO-8601 with offset to UTC epoch seconds. Naive timestamps are rejected."""
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp '{text}' has no UTC offset")
    return int(dt.timestamp())


def format_timestamp(epoch: int) -> str:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()


@dataclass
class IngestStats:
    rows: int = 0
    skipped: int = 0
    duplicates: int = 0
    unknown_points: int = 0
    messages: list = field(default_factory=list)


_NORMALIZED_UNIT = {Unit.PERCENT: Unit.FRACTION}


class _Records:
    """The records of the CSV input file at path, under one refusal policy.

    Iterating yields each record as wide as header, skipping blank records
    and a first record equal to header (cells stripped and lowercased). With
    required set, the first record must be header exactly, or the file is
    refused with that text. A file that is not UTF-8 is refused naming
    path. A record of another width, or one the csv module cannot read (a
    cell over its field limit), goes to bad(): refused naming path:line,
    the physical line the record ends on, or counted in skipped when
    lenient, reading going on at the next line.
    """

    def __init__(self, path: str, header: list[str], lenient: bool = False,
                 required: str = ""):
        self.path, self.header, self.lenient, self.required = path, header, lenient, required
        self.skipped = 0

    def error(self, what: str) -> IngestError:
        return IngestError(f"{self.path}:{self._reader.line_num}: {what}")

    def bad(self, what: str) -> None:
        if not self.lenient:
            raise self.error(what)
        self.skipped += 1

    def __iter__(self):
        width = len(self.header)
        with utf8_text(self.path, IngestError), \
                open(self.path, "r", encoding="utf-8", newline="") as fh:
            rows = self._reader = csv.reader(fh)
            # csv.Error is caught around the loop, so a good row costs nothing
            # more; after one, the reader picks up again at the next line
            while True:
                try:
                    if self._reader.line_num == 0:
                        first = next(rows, None)
                        if self.required:
                            if first != self.header:
                                raise IngestError(f"{self.path}: {self.required}")
                        elif first and [c.strip().lower() for c in first] != self.header:
                            rows = chain((first,), rows)
                    for row in rows:
                        if len(row) == width:
                            yield row
                        elif row:
                            self.bad(f"expected {width} columns, got {len(row)}")
                    return
                except csv.Error as exc:
                    self.bad(str(exc))


def _slots_by_point(binding: PointBinding) -> dict:
    """point_id -> its bound slots, both in binding order."""
    slots_by_point: dict = {}
    for slot, point_id in binding.bindings.items():
        slots_by_point.setdefault(point_id, []).append(slot)
    return slots_by_point


def read_trends(
    path: str,
    binding: PointBinding,
    interval_s: int,
    strict: bool = False,
) -> tuple[dict, IngestStats]:
    """Load a trend CSV into per-(equipment, role) series on the interval_s grid.

    Duplicate (timestamp, point) rows keep the last occurrence. Unknown points
    are counted and dropped. Malformed rows raise in strict mode and are
    skipped (and counted) otherwise.
    """
    slots_by_point = _slots_by_point(binding)

    # one (epochs, values) column pair per bound point, in file order
    columns = {pid: (array("q"), array("d")) for pid in slots_by_point}
    appenders = {pid: (epochs.append, values.append)
                 for pid, (epochs, values) in columns.items()}
    # each distinct timestamp text repeats once per point; parse it once
    epoch_of: dict = {}
    unknown: set = set()
    rows = 0

    records = _Records(path, TREND_HEADER, lenient=not strict)
    for text, point, value in records:
        rows += 1
        point_id = point.strip()
        append = appenders.get(point_id)
        if append is None:
            unknown.add(point_id)
            continue
        try:
            epoch = epoch_of.get(text)
            if epoch is None:
                epoch = epoch_of[text] = parse_timestamp(text)
            value = float(value)
            if not isfinite(value):
                raise ValueError("non-finite value")
        except ValueError as exc:
            records.bad(str(exc))
            continue
        append[0](epoch)
        append[1](value)

    stats = IngestStats(rows=rows, skipped=records.skipped, unknown_points=len(unknown))
    if unknown:
        shown = ", ".join(sorted(unknown)[:5])
        stats.messages.append(f"{len(unknown)} unbound point(s) ignored ({shown} ...)")

    # the parse's lookups go first, and each point's sample columns as
    # soon as its series is built
    del appenders, epoch_of
    result: dict = {}
    for point_id in list(columns):
        epoch_col, value_col = columns.pop(point_id)
        if not epoch_col:
            continue
        unit = binding.units[point_id]
        # last occurrence of each epoch wins: first occurrence in reverse
        epochs, last = np.unique(np.frombuffer(epoch_col, dtype=np.int64)[::-1],
                                 return_index=True)
        values = np.frombuffer(value_col, dtype=float)[::-1][last]
        stats.duplicates += len(epoch_col) - len(epochs)
        if unit is Unit.PERCENT:
            values = values / 100.0
        elif unit is Unit.BOOL:
            values = (values != 0.0).astype(float)

        first = (int(epochs[0]) // interval_s) * interval_s
        end = (int(epochs[-1]) // interval_s) * interval_s
        n_out = (end - first) // interval_s + 1
        idx = (epochs - first) // interval_s
        out = bucket(idx, values, n_out, "last" if unit is Unit.BOOL else "mean")
        series = TimeSeries(
            point_id=point_id,
            start=first,
            interval_s=interval_s,
            unit=_NORMALIZED_UNIT.get(unit, unit),
            values=frozen(out),
        )
        for slot in slots_by_point[point_id]:
            result[slot] = series
    return result, stats


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_trends_cached(
    path: str,
    binding: PointBinding,
    interval_s: int,
    strict: bool,
    cache_dir: str,
) -> tuple[dict, IngestStats]:
    """read_trends, answered from cache_dir/TRENDS_CACHE_NAME when it holds
    the result for these exact arguments.

    The cache file is one JSON header line (its key, then point id, start,
    unit and length of each series, then the IngestStats) followed by every
    series' values as little-endian float64 bytes. The key covers the trend
    file's sha256, interval_s, strict, everything read_trends reads of the
    binding and TRENDS_CACHE_FORMAT. A missing, stale or damaged cache is
    parsed over, and a cache that cannot be written is skipped; neither is
    an error. The trend file is read for its hash on every call, so a
    missing or unreadable one raises OSError as read_trends would.
    """
    slots_by_point = _slots_by_point(binding)
    key = {
        "format": TRENDS_CACHE_FORMAT,
        "sha256": _file_sha256(path),
        "interval_s": interval_s,
        "strict": bool(strict),
        "points": [[pid, binding.units[pid].value,
                    [[equip, role.name] for equip, role in slots]]
                   for pid, slots in slots_by_point.items()],
    }
    cache_path = os.path.join(cache_dir, TRENDS_CACHE_NAME)
    try:
        return _load_trends_cache(cache_path, key, slots_by_point, interval_s)
    except (OSError, ValueError, TypeError, KeyError):
        pass
    # looked up as a module global, so a tracer wrapping read_trends sees
    # every real parse
    result, stats = read_trends(path, binding, interval_s, strict)
    _store_trends_cache(cache_path, key, result, stats)
    return result, stats


def _load_trends_cache(cache_path: str, key: dict, slots_by_point: dict,
                       interval_s: int) -> tuple[dict, IngestStats]:
    """The cached result for key; raises when the file does not hold it."""
    with open(cache_path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["key"] != key:
            raise ValueError("trend cache is stale")
        payload = fh.read()
    entries = header["series"]
    if len(payload) != 8 * sum(n for _, _, _, n in entries):
        raise ValueError("trend cache is truncated")
    flat = np.frombuffer(payload, dtype="<f8")
    result: dict = {}
    pos = 0
    for point_id, start, unit, n in entries:
        series = TimeSeries(point_id=point_id, start=start, interval_s=interval_s,
                            unit=Unit(unit), values=flat[pos:pos + n])
        pos += n
        for slot in slots_by_point[point_id]:
            result[slot] = series
    return result, IngestStats(**header["stats"])


def _store_trends_cache(cache_path: str, key: dict, result: dict,
                        stats: IngestStats) -> None:
    """Write the cache next to its final name, then move it into place."""
    unique = list({s.point_id: s for s in result.values()}.values())
    header = {"key": key,
              "series": [[s.point_id, s.start, s.unit.value, len(s)] for s in unique],
              "stats": asdict(stats)}
    tmp = f"{cache_path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for s in unique:
                fh.write(s.values.astype("<f8", copy=False).tobytes())
        os.replace(tmp, cache_path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass


def read_points(path: str) -> list[PointInfo]:
    """Point inventory CSV: point_id, display name, unit tag."""
    points: list[PointInfo] = []
    seen: set[str] = set()
    records = _Records(path, POINTS_HEADER)
    for row in records:
        point_id, name, unit_text = (c.strip() for c in row)
        if point_id in seen:
            raise records.error(f"duplicate point id '{point_id}'")
        seen.add(point_id)
        try:
            unit = Unit(unit_text)
        except ValueError:
            raise records.error(f"unknown unit '{unit_text}' for point '{point_id}'") from None
        points.append(PointInfo(point_id=point_id, raw_name=name, unit=unit))
    return points


def _write_rows(path: str, header, rows) -> None:
    """Write header, then rows, through csv.writer: the files with free text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_points(points, path: str) -> None:
    _write_rows(path, POINTS_HEADER, ([p.point_id, p.raw_name, p.unit.value]
                                      for p in sorted(points, key=lambda p: p.point_id)))


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell among others: quoted, with
    its quotes doubled, exactly where csv.writer would quote it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text, ""])
    return buf.getvalue()[1:-3]


class _Stamps(dict):
    """epoch -> format_timestamp(epoch), each epoch formatted on first use."""

    def __missing__(self, epoch: int) -> str:
        text = self[epoch] = format_timestamp(epoch)
        return text


def _block_rows(width: int) -> int:
    """Rows per write block of a file width columns wide."""
    return max(1, _BLOCK_CELLS // width)


def _cell_blocks(column, stamps: _Stamps, rows: int):
    """column's cells as text, rows rows per item: a float array's through
    repr, an integer array's as timestamps of those epochs, and anything
    else (text arrays, iterables of text) as it is."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        text = repr if column.dtype.kind == "f" else stamps.__getitem__
        for i in range(0, len(column), rows):
            yield map(text, column[i:i + rows].tolist())
    else:
        cells = iter(column)
        while block := list(islice(cells, rows)):
            yield block


def _write_numeric_csv(path: str, header, groups) -> None:
    """Write header, then the rows of each group in turn, byte for byte as
    csv.writer would: cells joined by ',' and each row ended by '\\r\\n'.

    A group is two or more equal-length columns. A float array's cells are
    its repr floats and an int array's are format_timestamp of its epochs;
    any other column (an object or str array, an iterable) is text that
    csv.writer leaves unquoted, such as an int's str or a _csv_cell, and
    is written as it is. Columns of unequal length raise ValueError. The
    columns are turned into text about _BLOCK_CELLS cells at a time, as
    many rows as fit (at least one), so the memory this needs is set by
    the block, not by the file's length or width. One stamp per distinct
    epoch is kept for the whole file."""
    stamps = _Stamps()
    rows = _block_rows(len(header))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for columns in groups:
            blocks = (_cell_blocks(c, stamps, rows) for c in columns)
            for block in zip(*blocks, strict=True):
                fh.write("\r\n".join(map(",".join, zip(*block, strict=True))))
                fh.write("\r\n")


def write_trends(series_list, path: str) -> None:
    """Write series out in the trend CSV format, gaps omitted.

    Values go through repr() so a read-back reproduces the exact floats;
    rows are point-major and time-ordered, which keeps output byte-stable.
    One series' rows are in memory at a time.
    """
    def groups():
        for s in sorted(series_list, key=lambda s: s.point_id):
            kept = ~np.isnan(s.values)
            epochs = s.timestamps()[kept]
            yield epochs, repeat(_csv_cell(s.point_id), len(epochs)), s.values[kept]

    _write_numeric_csv(path, TREND_HEADER, groups())


def read_reference_year(path: str) -> np.ndarray:
    """Daily outdoor temps for a reference year, indexed day-of-year 1..365."""
    out = np.full(365, np.nan)
    records = _Records(path, REFERENCE_YEAR_HEADER)
    for day_text, oat_text in records:
        try:
            day = int(day_text)
            oat = float(oat_text)
            if not isfinite(oat):
                raise ValueError("non-finite value")
        except ValueError as exc:
            raise records.error(str(exc)) from exc
        if day == 366:
            continue  # leap day has no slot in the 365-day reference
        if not 1 <= day <= 365:
            raise records.error(f"day_of_year {day} out of range")
        out[day - 1] = oat
    missing = int(np.isnan(out).sum())
    if missing:
        raise IngestError(f"{path}: reference year incomplete, {missing} day(s) missing")
    return out


def write_reference_year(daily_oat_f, path: str) -> None:
    vals = np.asarray(daily_oat_f, dtype=float)
    if len(vals) != 365:
        raise IngestError(f"reference year needs 365 values, got {len(vals)}")
    _write_numeric_csv(path, REFERENCE_YEAR_HEADER, [(map(str, range(1, 366)), vals)])
