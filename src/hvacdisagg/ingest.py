"""Reading and writing the on-disk CSV formats.

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
import io
import json
import math
import os
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice, repeat

import numpy as np

from .building import PointBinding, PointInfo
from .errors import IngestError
from .timeseries import TimeSeries, Unit, bucket

__all__ = [
    "IngestStats",
    "parse_timestamp",
    "format_timestamp",
    "format_timestamps",
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

# rows per write in _write_numeric_csv: one block's text is alive at once,
# and synth, whose peak RSS the benchmark bounds, writes the largest files
_BLOCK_ROWS = 256


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


def format_timestamps(epochs) -> list[str]:
    """format_timestamp over an array of epochs, each distinct epoch once."""
    distinct, inverse = np.unique(np.asarray(epochs, dtype=np.int64), return_inverse=True)
    texts = [format_timestamp(e) for e in distinct.tolist()]
    return [texts[i] for i in inverse.tolist()]


@dataclass
class IngestStats:
    rows: int = 0
    skipped: int = 0
    duplicates: int = 0
    unknown_points: int = 0
    messages: list = field(default_factory=list)


_NORMALIZED_UNIT = {Unit.PERCENT: Unit.FRACTION}


def _records(reader, header: list[str]):
    """reader's rows, less the first when it is header (cells stripped and
    lowercased). A refusal names reader.line_num, the physical line the
    current row ends on, so a quoted cell spanning lines keeps the count."""
    first = next(reader, None)
    if first is None or [c.strip().lower() for c in first] == header:
        return reader
    return chain((first,), reader)


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
    stats = IngestStats()

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in _records(reader, TREND_HEADER):
            if not row:
                continue
            if len(row) != 3:
                if strict:
                    raise IngestError(
                        f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}")
                stats.skipped += 1
                continue
            stats.rows += 1
            point_id = row[1].strip()
            append = appenders.get(point_id)
            if append is None:
                unknown.add(point_id)
                continue
            text = row[0]
            try:
                epoch = epoch_of.get(text)
                if epoch is None:
                    epoch = epoch_of[text] = parse_timestamp(text)
                value = float(row[2])
            except ValueError as exc:
                if strict:
                    raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc
                stats.skipped += 1
                continue
            if not math.isfinite(value):
                if strict:
                    raise IngestError(f"{path}:{reader.line_num}: non-finite value")
                stats.skipped += 1
                continue
            append[0](epoch)
            append[1](value)

    stats.unknown_points = len(unknown)
    if unknown:
        shown = ", ".join(sorted(unknown)[:5])
        stats.messages.append(f"{len(unknown)} unbound point(s) ignored ({shown} ...)")

    result: dict = {}
    for point_id, (epoch_col, value_col) in columns.items():
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
            values=out,
        )
        for slot in slots_by_point[point_id]:
            result[slot] = series
    return result, stats


def _file_sha256(path: str) -> str:
    # imported here: OpenSSL adds about 3.5 MB of RSS, and synth never hashes
    import hashlib

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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in _records(reader, POINTS_HEADER):
            if not row:
                continue
            if len(row) != 3:
                raise IngestError(
                    f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}")
            point_id, name, unit_text = (c.strip() for c in row)
            if point_id in seen:
                raise IngestError(
                    f"{path}:{reader.line_num}: duplicate point id '{point_id}'")
            seen.add(point_id)
            try:
                unit = Unit(unit_text)
            except ValueError:
                raise IngestError(
                    f"{path}:{reader.line_num}: "
                    f"unknown unit '{unit_text}' for point '{point_id}'"
                ) from None
            points.append(PointInfo(point_id=point_id, raw_name=name, unit=unit))
    return points


def write_points(points, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POINTS_HEADER)
        for p in sorted(points, key=lambda p: p.point_id):
            writer.writerow([p.point_id, p.raw_name, p.unit.value])


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell among others: quoted, with
    its quotes doubled, exactly where csv.writer would quote it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text, ""])
    return buf.getvalue()[1:-3]


def _write_numeric_csv(path: str, header, columns) -> None:
    """Write header, then the rows of two or more equal-length columns,
    byte for byte as csv.writer would: cells joined by ',' and each row
    ended by '\\r\\n'. Every cell must already be text that csv.writer
    leaves unquoted: a float's repr, a format_timestamps stamp, an int's
    str or a _csv_cell. Rows go out _BLOCK_ROWS at a time."""
    rows = zip(*columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        while block := "\r\n".join(map(",".join, islice(rows, _BLOCK_ROWS))):
            fh.write(block)
            fh.write("\r\n")


def write_trends(series_list, path: str) -> None:
    """Write series out in the trend CSV format, gaps omitted.

    Values go through repr() so a read-back reproduces the exact floats;
    rows are point-major and time-ordered, which keeps output byte-stable.
    """
    ordered = sorted(series_list, key=lambda s: s.point_id)
    kept = [~np.isnan(s.values) for s in ordered]
    epochs = [s.timestamps()[k] for s, k in zip(ordered, kept)]
    stamps = format_timestamps(np.concatenate(epochs)) if epochs else []
    _write_numeric_csv(path, TREND_HEADER, [
        stamps,
        chain.from_iterable(repeat(_csv_cell(s.point_id), len(e))
                            for s, e in zip(ordered, epochs)),
        chain.from_iterable(map(repr, s.values[k].tolist()) for s, k in zip(ordered, kept)),
    ])


def read_reference_year(path: str) -> np.ndarray:
    """Daily outdoor temps for a reference year, indexed day-of-year 1..365."""
    out = np.full(365, np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in _records(reader, REFERENCE_YEAR_HEADER):
            if not row:
                continue
            if len(row) != 2:
                raise IngestError(f"{path}:{reader.line_num}: expected 2 columns")
            try:
                day = int(row[0])
                oat = float(row[1])
            except ValueError as exc:
                raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc
            if day == 366:
                continue  # leap day has no slot in the 365-day reference
            if not 1 <= day <= 365:
                raise IngestError(
                    f"{path}:{reader.line_num}: day_of_year {day} out of range")
            out[day - 1] = oat
    missing = int(np.isnan(out).sum())
    if missing:
        raise IngestError(f"{path}: reference year incomplete, {missing} day(s) missing")
    return out


def write_reference_year(daily_oat_f, path: str) -> None:
    vals = np.asarray(daily_oat_f, dtype=float)
    if len(vals) != 365:
        raise IngestError(f"reference year needs 365 values, got {len(vals)}")
    _write_numeric_csv(path, REFERENCE_YEAR_HEADER,
                       [map(str, range(1, 366)), map(repr, vals.tolist())])
