"""Reading and writing the on-disk CSV formats.

Every CSV input, the findings of ``faults`` included, is read through
``_Records``, which holds the one refusal policy: a file that is not UTF-8,
a record of the wrong width, a cell the csv module cannot read. The
readers keep only their own field parsing. The one exception is a clean
trend file, which ``read_trends`` tokenizes in blocks with numpy; a file
with anything that policy or a row's parse could act on goes through
``_Records`` whole.

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

# bytes per read of read_trends' block parse, each cut back to whole lines:
# a block's working arrays stay well under a megabyte
_TREND_BLOCK_BYTES = 1 << 16
# a block's cells are gathered as wide as its widest, so a block whose
# longest line is this many times its average line goes to _Records instead
_UNEVEN_LINES = 16


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


class _NotClean(Exception):
    """The trend file holds something the block parse does not read."""


class _Lexicon:
    """Each distinct cell text of one file -> its int code, a block at a time.

    code_of(text) gives the code of a text on its first sighting, once per
    distinct text; later sightings are found by binary search in sorted
    runs of the texts seen so far. A lexicon of up to SMALL texts is one
    run. Above that, runs of like size are merged, so a file of many
    distinct texts costs a few runs to search, not a merge per block.
    """

    SMALL = 4096

    def __init__(self, code_of):
        self.code_of = code_of
        self.runs: list = []

    def codes(self, cells: np.ndarray) -> np.ndarray:
        codes = np.empty(len(cells), np.int64)
        todo = np.arange(len(cells))
        for texts, run_codes in self.runs:
            if not len(todo):
                return codes
            wanted = cells[todo]
            at = np.searchsorted(texts, wanted)
            at[at == len(texts)] = 0
            found = texts[at] == wanted
            codes[todo[found]] = run_codes[at[found]]
            todo = todo[~found]
        if len(todo):
            texts, inverse = np.unique(cells[todo], return_inverse=True)
            new = np.array([self.code_of(t) for t in texts.tolist()], np.int64)
            codes[todo] = new[inverse]
            self.runs.append((texts, new))
            while len(self.runs) > 1 and (len(self.runs[-2][0]) < self.SMALL
                                          or len(self.runs[-2][0]) <= 2 * len(texts)):
                # the runs hold no text twice, so the later one's texts go
                # in where a search of the earlier would find them, each
                # kept whole: the merged run is as wide as the wider
                (a, a_codes), (b, b_codes) = self.runs[-2:]
                at = np.searchsorted(a, b)
                texts = np.insert(a.astype(np.promote_types(a.dtype, b.dtype)), at, b)
                self.runs[-2:] = [(texts, np.insert(a_codes, at, b_codes))]
        return codes


def _cells(buf: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The bytes buf[begin:end] of each row as one bytes-dtype array, each
    cell NUL-padded to the widest; buf has that width of padding past its
    last cell."""
    lengths = end - begin
    width = int(lengths.max(initial=1))
    windows = np.ndarray((len(buf) - width + 1,), f"S{width}", buf, strides=(1,))
    cells = windows[begin]
    if lengths.min(initial=width) < width:
        np.copyto(cells.view(np.uint8).reshape(-1, width), 0,
                  where=np.arange(width, dtype=lengths.dtype) >= lengths[:, None])
    return cells


def _line_blocks(fh, line_limit: int):
    """The file's bytes about _TREND_BLOCK_BYTES at a time, each block cut
    back to whole lines ending in b"\\n" (a last line without one gets one).
    A line running past line_limit raises _NotClean."""
    line, held = [], 0  # the reads since the last newline, and their length
    while chunk := fh.read(_TREND_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            line.append(chunk)
            held += len(chunk)
            if held > line_limit + 1:
                raise _NotClean
            continue
        line.append(chunk[:cut])
        block = b"".join(line)
        line, held = [chunk[cut:]], len(chunk) - cut
        del chunk
        yield block
    if held:
        yield b"".join(line) + b"\n"


def _tokenize(block: bytes, line_limit: int, header: bool):
    """The timestamp, point and value cells of the records in block, one
    bytes-dtype array each; with header set, a first line that is the trend
    header is left out. Raises _NotClean unless _Records would read every
    line of block as three plain cells."""
    if b'"' in block or b"\0" in block or not block.isascii():
        raise _NotClean
    buf = np.frombuffer(block, np.uint8)
    is_sep = buf == 44
    is_sep |= buf == 10
    seps = np.flatnonzero(is_sep).astype(np.int32)  # half the working bytes of intp
    del is_sep
    if len(seps) % 3 or not (buf[seps].reshape(-1, 3) == (44, 44, 10)).all():
        raise _NotClean  # a blank line, or a record not three cells wide
    first_comma, second_comma, ends = seps[0::3], seps[1::3], seps[2::3]
    starts = np.concatenate((np.zeros(1, np.int32), ends[:-1] + 1))
    crlf = buf[ends - 1] == 13
    if np.count_nonzero(buf == 13) != np.count_nonzero(crlf):
        raise _NotClean  # a CR that does not end its line
    stops = ends - crlf
    longest = int((stops - starts).max())
    if longest > line_limit or longest * len(stops) > _UNEVEN_LINES * len(block):
        raise _NotClean
    if header:
        cells = block[:stops[0]].decode("ascii").split(",")
        if [c.strip().lower() for c in cells] == TREND_HEADER:
            starts, first_comma, second_comma, stops = (
                a[1:] for a in (starts, first_comma, second_comma, stops))
    # _cells reads up to a row's widest cell past its start
    buf = np.frombuffer(block + bytes(longest), np.uint8)
    return (_cells(buf, starts, first_comma), _cells(buf, first_comma + 1, second_comma),
            _cells(buf, second_comma + 1, stops))


def _read_trend_blocks(path: str, point_ids: list):
    """read_trends' parse of a clean trend file, tokenized a block of lines
    at a time with numpy: (columns, rows, skipped, unknown point ids), where
    columns holds an (epochs, values) array pair per point of point_ids.

    Clean means that _Records would read every line as three plain cells
    and read_trends would keep every row, so no line is skipped or refused.
    Anything else raises _NotClean before the file's end: a '"', a NUL, a
    byte outside ASCII, a CR not ending its line, a blank line, a record
    not three cells wide, a line longer than the csv module's field limit,
    or a timestamp or value that does not parse or is not finite. A line
    far longer than its block's average raises too, as the block's cells
    are as wide as its widest.
    """
    index = {pid: i for i, pid in enumerate(point_ids)}
    columns = [(array("q"), array("d")) for _ in point_ids]
    unknown: set = set()
    rows = 0

    def point_code(raw: bytes) -> int:
        point_id = raw.decode("ascii").strip()
        code = index.get(point_id, -1)
        if code < 0:
            unknown.add(point_id)
        return code

    def epoch(raw: bytes) -> int:
        try:
            return parse_timestamp(raw.decode("ascii"))
        except ValueError:
            raise _NotClean from None

    points, stamps = _Lexicon(point_code), _Lexicon(epoch)
    line_limit = csv.field_size_limit()
    header_unread = True
    with open(path, "rb") as fh:
        for block in _line_blocks(fh, line_limit):
            rows += _append_block(_tokenize(block, line_limit, header_unread),
                                  stamps, points, columns)
            header_unread = False
    return columns, rows, 0, unknown


def _append_block(cells, stamps: _Lexicon, points: _Lexicon, columns: list) -> int:
    """Append the rows of one block's (timestamp, point, value) cells to
    their points' columns, in file order; the number of rows."""
    stamp_cells, point_cells, value_cells = cells
    del cells  # so that each cell array goes once its codes are found
    if not len(point_cells):
        return 0
    try:
        values = value_cells.astype(np.float64)
    except ValueError:
        raise _NotClean from None
    if not np.isfinite(values).all():
        raise _NotClean
    epochs = stamps.codes(stamp_cells)
    codes = points.codes(point_cells)
    del stamp_cells, point_cells, value_cells
    order = np.argsort(codes, kind="stable")
    codes, epochs, values = codes[order], epochs[order], values[order]
    cuts = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), len(codes)]
    for a, b in zip(cuts, cuts[1:]):
        code = int(codes[a])
        if code >= 0:
            epoch_col, value_col = columns[code]
            epoch_col.frombytes(epochs[a:b].data.cast("B"))
            value_col.frombytes(values[a:b].data.cast("B"))
    return len(codes)


def _read_trend_records(path: str, point_ids: list, strict: bool):
    """read_trends' parse of any trend file through _Records, a row at a
    time, as _read_trend_blocks returns it."""
    columns = [(array("q"), array("d")) for _ in point_ids]
    appenders = {pid: (epochs.append, values.append)
                 for pid, (epochs, values) in zip(point_ids, columns)}
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
    return columns, rows, records.skipped, unknown


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

    A clean file (see _read_trend_blocks) is parsed a block at a time; any
    other is read through _Records from its start, so a result, a count or
    a refusal is the same whichever parse ran.
    """
    slots_by_point = _slots_by_point(binding)
    point_ids = list(slots_by_point)
    try:
        parsed = _read_trend_blocks(path, point_ids)
    except _NotClean:
        parsed = None  # a partial parse is dropped with its exception
    columns, rows, skipped, unknown = parsed or _read_trend_records(path, point_ids, strict)
    del parsed

    stats = IngestStats(rows=rows, skipped=skipped, unknown_points=len(unknown))
    if unknown:
        shown = ", ".join(sorted(unknown)[:5])
        stats.messages.append(f"{len(unknown)} unbound point(s) ignored ({shown} ...)")

    # each point's sample columns go as soon as its series is built
    columns = dict(zip(point_ids, columns))
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
