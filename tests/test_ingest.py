import csv
import dataclasses
import functools
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_edge_lengths, counted_parses, extreme_column, traced_peak_bytes
from hvacdisagg import ingest
from hvacdisagg.building import PointBinding, PointRole
from hvacdisagg.errors import IngestError
from hvacdisagg.faults import FINDINGS_HEADER, read_findings
from hvacdisagg.ingest import (
    TREND_HEADER,
    TRENDS_CACHE_NAME,
    IngestStats,
    _block_rows,
    _write_numeric_csv,
    format_timestamp,
    parse_timestamp,
    read_points,
    read_reference_year,
    read_trends,
    read_trends_cached,
    write_reference_year,
    write_trends,
)
from hvacdisagg.timeseries import TimeSeries, Unit

GRID = 900
T0 = 1_750_000_000 // GRID * GRID


def binding_for(points):
    """points: list of (equip, role, point_id, unit)"""
    return PointBinding(
        bindings={(e, r): pid for e, r, pid, _ in points},
        units={pid: u for _, _, pid, u in points},
    )


class TestTimestamps:
    def test_offset_becomes_utc_epoch(self):
        # 00:15 at UTC-7 is 07:15 UTC
        a = parse_timestamp("2015-06-01T00:15:00-07:00")
        b = parse_timestamp("2015-06-01T07:15:00+00:00")
        assert a == b

    def test_zulu_suffix(self):
        assert parse_timestamp("2015-06-01T07:15:00Z") == parse_timestamp(
            "2015-06-01T07:15:00+00:00"
        )

    def test_naive_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            parse_timestamp("2015-06-01T07:15:00")

    def test_format_round_trip(self):
        assert parse_timestamp(format_timestamp(T0)) == T0


class TestReadTrends:
    def test_basic_read_and_grid(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["timestamp,point,value"]
        for i, v in enumerate([55.2, 55.4, 55.6]):
            rows.append(f"{format_timestamp(T0 + i * GRID)},AH1.SAT,{v}")
        p.write_text("\n".join(rows) + "\n")
        b = binding_for([("AH1", PointRole.AHU_SUPPLY_AIR_TEMP, "AH1.SAT", Unit.DEG_F)])
        series, stats = read_trends(str(p), b, GRID)
        s = series[("AH1", PointRole.AHU_SUPPLY_AIR_TEMP)]
        assert s.start == T0
        np.testing.assert_allclose(s.values, [55.2, 55.4, 55.6])
        assert stats.rows == 3 and stats.skipped == 0

    def test_subinterval_samples_averaged(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["timestamp,point,value"]
        for i, v in enumerate([1, 3, 5, 7, 9, 11]):
            rows.append(f"{format_timestamp(T0 + i * 300)},P,{v}")
        p.write_text("\n".join(rows) + "\n")
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        series, _ = read_trends(str(p), b, GRID)
        np.testing.assert_allclose(series[("V1", PointRole.ZONE_TEMP)].values, [3.0, 9.0])

    def test_percent_normalized_to_fraction(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "timestamp,point,value\n"
            f"{format_timestamp(T0)},D,35.0\n"
            f"{format_timestamp(T0 + GRID)},D,100.0\n"
        )
        b = binding_for([("AH1", PointRole.ECONOMIZER_DAMPER_POS, "D", Unit.PERCENT)])
        series, _ = read_trends(str(p), b, GRID)
        s = series[("AH1", PointRole.ECONOMIZER_DAMPER_POS)]
        np.testing.assert_allclose(s.values, [0.35, 1.0])
        assert s.unit is Unit.FRACTION

    def test_bool_coerced_last_wins_in_bucket(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "timestamp,point,value\n"
            f"{format_timestamp(T0)},OCC,0\n"
            f"{format_timestamp(T0 + 60)},OCC,3.0\n"
            f"{format_timestamp(T0 + GRID)},OCC,0\n"
        )
        b = binding_for([("V1", PointRole.OCCUPIED_CMD, "OCC", Unit.BOOL)])
        series, _ = read_trends(str(p), b, GRID)
        np.testing.assert_array_equal(series[("V1", PointRole.OCCUPIED_CMD)].values, [1.0, 0.0])

    def test_duplicate_timestamp_last_occurrence_wins(self, tmp_path):
        p = tmp_path / "t.csv"
        ts = format_timestamp(T0)
        p.write_text(f"timestamp,point,value\n{ts},P,1.0\n{ts},P,2.0\n")
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        series, stats = read_trends(str(p), b, GRID)
        assert series[("V1", PointRole.ZONE_TEMP)].values[0] == 2.0
        assert stats.duplicates == 1

    def test_gaps_stay_gaps(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "timestamp,point,value\n"
            f"{format_timestamp(T0)},P,1.0\n"
            f"{format_timestamp(T0 + 3 * GRID)},P,4.0\n"
        )
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        series, _ = read_trends(str(p), b, GRID)
        vals = series[("V1", PointRole.ZONE_TEMP)].values
        assert len(vals) == 4
        assert np.isnan(vals[1]) and np.isnan(vals[2])

    def test_unknown_points_counted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "timestamp,point,value\n"
            f"{format_timestamp(T0)},KNOWN,1.0\n"
            f"{format_timestamp(T0)},MYSTERY,9.9\n"
        )
        b = binding_for([("V1", PointRole.ZONE_TEMP, "KNOWN", Unit.DEG_F)])
        _, stats = read_trends(str(p), b, GRID)
        assert stats.unknown_points == 1

    def test_lenient_skips_bad_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "timestamp,point,value\n"
            f"not-a-time,P,1.0\n"
            f"{format_timestamp(T0)},P,not-a-number\n"
            f"{format_timestamp(T0)},P,2.5\n"
        )
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        series, stats = read_trends(str(p), b, GRID)
        assert stats.skipped == 2
        assert series[("V1", PointRole.ZONE_TEMP)].values[0] == 2.5

    def test_strict_raises_with_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(f"timestamp,point,value\n{format_timestamp(T0)},P,oops\n")
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        with pytest.raises(IngestError, match=":2:"):
            read_trends(str(p), b, GRID, strict=True)

    def test_strict_line_number_counts_a_quoted_line_break(self, tmp_path):
        # the quoted point id spans lines 2 and 3, so the bad value is on line 4
        p = tmp_path / "t.csv"
        p.write_text(f'timestamp,point,value\n{format_timestamp(T0)},"P\nQ",1.0\n'
                     f"{format_timestamp(T0)},P,oops\n")
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        with pytest.raises(IngestError, match=f"^{re.escape(str(p))}:4: "):
            read_trends(str(p), b, GRID, strict=True)

    def test_missing_file_is_os_error(self):
        b = binding_for([("V1", PointRole.ZONE_TEMP, "P", Unit.DEG_F)])
        with pytest.raises(OSError):
            read_trends("/nonexistent/trends.csv", b, GRID)

    def test_read_trends_memory_per_row_on_a_long_file(self, tmp_path):
        """Peak traced bytes per row of read_trends on 40 points over 2,000
        timestamps (80,000 rows): measured 21.8 B/row. That is about the
        17 B/row of sample columns the block parse fills (16 B and the
        arrays' spare room) plus one 64 KB block's working arrays, which go
        before the next block is read; each point's columns are freed as
        its series is built, and each series takes its array over. The
        row-at-a-time reader peaked at 20.9 B/row, and the one before it,
        which kept every point's columns to the end and copied each
        series' array, at 31.0 B/row."""
        path = str(tmp_path / "t.csv")
        binding, rows = _long_trend_file(path)
        peak = traced_peak_bytes(lambda: read_trends(path, binding, GRID))
        assert peak <= 25 * rows, (peak / rows, rows)

    def test_read_trends_memory_per_row_on_a_time_major_file(self, tmp_path):
        """The same file with its rows re-ordered time-major, so that every
        block holds every point: measured 21.5 B/row."""
        path = str(tmp_path / "t.csv")
        binding, rows = _long_trend_file(path, time_major=True)
        peak = traced_peak_bytes(lambda: read_trends(path, binding, GRID))
        assert peak <= 25 * rows, (peak / rows, rows)


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        vals = rng.normal(0.0, 50.0, 200)
        vals[rng.random(200) < 0.15] = np.nan
        original = TimeSeries("B1.P1", T0, GRID, Unit.DEG_F, vals)
        path = tmp_path / "out.csv"
        write_trends([original], str(path))
        b = binding_for([("V1", PointRole.ZONE_TEMP, "B1.P1", Unit.DEG_F)])
        series, _ = read_trends(str(path), b, GRID)
        got = series[("V1", PointRole.ZONE_TEMP)]
        assert got.start == original.start
        # trailing gaps cannot survive (no rows to mark them), interior ones must
        np.testing.assert_array_equal(got.values, original.values[: len(got.values)])

    def test_written_file_byte_stable(self, tmp_path):
        s1 = TimeSeries("A", T0, GRID, Unit.CFM, np.array([1.5, 2.5]))
        s2 = TimeSeries("B", T0, GRID, Unit.CFM, np.array([3.5]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trends([s1, s2], str(p1))
        write_trends([s2, s1], str(p2))  # input order must not matter
        assert p1.read_bytes() == p2.read_bytes()

    def test_matches_per_row_writer(self, tmp_path):
        # the row-at-a-time writer it replaced, formatting every row's stamp
        def reference_write(series_list, path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(TREND_HEADER)
                for series in sorted(series_list, key=lambda s: s.point_id):
                    ts = series.timestamps()
                    for i, v in enumerate(series.values):
                        if math.isnan(v):
                            continue
                        writer.writerow([format_timestamp(int(ts[i])), series.point_id,
                                         repr(float(v))])

        rng = np.random.default_rng(11)
        series = []
        for i, offset in enumerate([0, 3, -5, 40]):  # overlapping, shifted grids
            vals = rng.normal(0.0, 1e3, 60)
            vals[rng.random(60) < 0.3] = np.nan
            series.append(TimeSeries(f"P{i}", T0 + offset * GRID, GRID, Unit.CFM, vals))
        gaps = TimeSeries("GAPS", T0, GRID, Unit.CFM, np.full(5, np.nan))
        series.append(gaps)
        # ids csv.writer must quote, then ids it must leave bare
        for i, pid in enumerate(["P,comma", 'P"quote"', "P\rcr", "P\nlf", " P lead", ""]):
            series.append(TimeSeries(pid, T0 + i * GRID, GRID, Unit.CFM,
                                     rng.normal(0.0, 1.0, 3)))
        extremes = [-0.0, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, np.nan, 0.0]
        series.append(TimeSeries("EXTREMES", T0, GRID, Unit.CFM, np.array(extremes)))
        # long enough to end several write blocks inside one series
        series.append(TimeSeries("LONG", T0, GRID, Unit.CFM, rng.normal(0.0, 1.0, 777)))
        for n in block_edge_lengths(len(TREND_HEADER)):
            series.append(TimeSeries(f"EDGE{n}", T0, GRID, Unit.CFM, extreme_column(n, rng)))
        for name, case in [("mixed", series), ("empty", []), ("all-gaps", [gaps])]:
            got, want = tmp_path / f"got-{name}.csv", tmp_path / f"want-{name}.csv"
            write_trends(case, str(got))
            reference_write(case, str(want))
            assert got.read_bytes() == want.read_bytes(), name

    def test_fraction_series_round_trips_exactly(self, tmp_path):
        vals = np.array([0.37, 0.123456789012345, 1.0, 0.0])
        original = TimeSeries("VLV", T0, GRID, Unit.FRACTION, vals)
        path = tmp_path / "v.csv"
        write_trends([original], str(path))
        b = binding_for([("AH1", PointRole.AHU_COOLING_VALVE_CMD, "VLV", Unit.FRACTION)])
        series, _ = read_trends(str(path), b, GRID)
        np.testing.assert_array_equal(
            series[("AH1", PointRole.AHU_COOLING_VALVE_CMD)].values, vals
        )


class TestNumericCsv:
    def test_matches_per_row_writer(self, tmp_path):
        # float arrays through repr, int64 epochs as stamps, and text (an
        # object array, a str array, an iterator) written as it is, never
        # quoted; two groups in one file share the stamps
        rng = np.random.default_rng(12)
        header = ["timestamp", "value", "stamp_text", "stamp_str", "id"]
        for n in block_edge_lengths(len(header)):
            epochs = T0 + GRID * np.arange(n, dtype=np.int64)
            stamps = np.array([format_timestamp(e) for e in epochs.tolist()], dtype=object)
            groups = [(epochs, extreme_column(n, rng), stamps, stamps.astype(str),
                       [f"id{i}" for i in range(n)]) for _ in range(2)]
            got, want = tmp_path / f"got-{n}.csv", tmp_path / f"want-{n}.csv"
            _write_numeric_csv(str(got), header, [(e, v, t, u, iter(ids))
                                                  for e, v, t, u, ids in groups])
            # the per-row writer it replaced
            with open(want, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for epochs_, values, text, _, ids in groups:
                    for e, v, t, i in zip(epochs_, values, text, ids):
                        writer.writerow([format_timestamp(int(e)), repr(float(v)), t, t, i])
            assert got.read_bytes() == want.read_bytes(), n
            assert "'" not in got.read_text(encoding="utf-8")

    def test_unequal_columns_raise(self, tmp_path):
        # one column short by less than a block, by more than one, or a
        # text column that runs out: never a file silently cut to the
        # shortest column
        rows = _block_rows(3)
        epochs = T0 + GRID * np.arange(3 * rows, dtype=np.int64)
        values = np.zeros(3 * rows)
        for group in [(epochs, values, values[:-1]),
                      (epochs, values[:rows], values),
                      (epochs, values, iter(["x"] * (len(epochs) - 5)))]:
            with pytest.raises(ValueError):
                _write_numeric_csv(str(tmp_path / "u.csv"), ["a", "b", "c"], [group])

    def test_write_trends_memory_is_set_by_the_block(self, tmp_path):
        """Peak traced bytes of write_trends on 200 series of 1,100 rows
        with 5% gaps (208,873 rows): measured 0.34 MB, 1.6 B/row, since
        one series' arrays, one block of text and one stamp per distinct
        timestamp are alive at once. The writer that formatted the whole
        file's stamps and values up front peaked at 14.0 MB, 67 B/row."""
        rng = np.random.default_rng(13)
        series = []
        for i in range(200):
            values = rng.normal(0.0, 1.0, 1100)
            values[rng.random(1100) < 0.05] = np.nan
            series.append(TimeSeries(f"B1.P{i:03d}", T0, GRID, Unit.CFM, values))
        rows = sum(int(np.count_nonzero(~np.isnan(s.values))) for s in series)
        assert rows >= 200_000
        peak = traced_peak_bytes(lambda: write_trends(series, str(tmp_path / "t.csv")))
        assert peak <= 4 * rows + (1 << 20), (peak, rows)


class TestReferenceYear:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        oat = rng.normal(55, 15, 365)
        p = tmp_path / "ref.csv"
        write_reference_year(oat, str(p))
        np.testing.assert_array_equal(read_reference_year(str(p)), oat)

    def test_matches_per_row_writer(self, tmp_path):
        oat = np.random.default_rng(4).normal(55, 15, 365)
        oat[:3] = [-0.0, 5e-324, 1.7976931348623157e308]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_reference_year(oat, str(got))
        # the per-row writer it replaced
        with open(want, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["day_of_year", "oat_f"])
            for day, value in enumerate(oat, start=1):
                writer.writerow([day, repr(float(value))])
        assert got.read_bytes() == want.read_bytes()

    def test_incomplete_year_rejected(self, tmp_path):
        p = tmp_path / "ref.csv"
        p.write_text("day_of_year,oat_f\n1,50.0\n2,51.0\n")
        with pytest.raises(IngestError, match="incomplete"):
            read_reference_year(str(p))

    def test_line_number_counts_a_quoted_line_break(self, tmp_path):
        # the quoted day spans lines 2 and 3, so the bad value is on line 4
        p = tmp_path / "ref.csv"
        p.write_text('day_of_year,oat_f\n"1\n",50.0\n2,oops\n')
        with pytest.raises(IngestError, match=f"^{re.escape(str(p))}:4: "):
            read_reference_year(str(p))

    @pytest.mark.parametrize("oat", ["inf", "nan", "-inf", "1e999"])
    def test_non_finite_oat_refused_with_its_line(self, tmp_path, oat):
        p = tmp_path / "ref.csv"
        p.write_text("day_of_year,oat_f\n" + "".join(f"{d},50.0\n" for d in range(1, 100))
                     + f"100,{oat}\n" + "".join(f"{d},50.0\n" for d in range(101, 366)))
        with pytest.raises(IngestError) as refused:
            read_reference_year(str(p))
        assert str(refused.value) == f"{p}:101: non-finite value"

    def test_out_of_range_day_rejected(self, tmp_path):
        p = tmp_path / "ref.csv"
        p.write_text("day_of_year,oat_f\n0,50.0\n")
        with pytest.raises(IngestError, match="out of range"):
            read_reference_year(str(p))


def test_points_line_number_counts_a_quoted_line_break(tmp_path):
    # the quoted display name spans lines 2 and 3; the bad unit is on line 4
    p = tmp_path / "points.csv"
    p.write_text('point_id,name,unit\nP,"two\nlines",degF\nQ,q,furlongs\n')
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}:4: unknown unit"):
        read_points(str(p))

# -- oracle: the per-row reader the columnar one replaced ---------------------

_NORMALIZED = {Unit.PERCENT: Unit.FRACTION}


def reference_read_trends(path, binding, interval_s, strict=False):
    """Row-at-a-time reader: one parse per row, a dict of samples per point."""
    slots_by_point = {}
    for slot, point_id in binding.bindings.items():
        slots_by_point.setdefault(point_id, []).append(slot)

    samples = {pid: {} for pid in slots_by_point}
    unknown = set()
    stats = IngestStats()

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if lineno == 1 and [c.strip().lower() for c in row] == TREND_HEADER:
                continue
            if len(row) != 3:
                if strict:
                    raise IngestError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
                stats.skipped += 1
                continue
            stats.rows += 1
            point_id = row[1].strip()
            if point_id not in samples:
                unknown.add(point_id)
                continue
            try:
                epoch = parse_timestamp(row[0])
                value = float(row[2])
            except ValueError as exc:
                if strict:
                    raise IngestError(f"{path}:{lineno}: {exc}") from exc
                stats.skipped += 1
                continue
            if not math.isfinite(value):
                if strict:
                    raise IngestError(f"{path}:{lineno}: non-finite value")
                stats.skipped += 1
                continue
            bucket = samples[point_id]
            if epoch in bucket:
                stats.duplicates += 1
            bucket[epoch] = value

    stats.unknown_points = len(unknown)
    if unknown:
        shown = ", ".join(sorted(unknown)[:5])
        stats.messages.append(f"{len(unknown)} unbound point(s) ignored ({shown} ...)")

    series_by_point = {}
    for point_id, by_epoch in samples.items():
        if not by_epoch:
            continue
        unit = binding.units[point_id]
        epochs = np.fromiter(by_epoch.keys(), dtype=np.int64, count=len(by_epoch))
        values = np.fromiter(by_epoch.values(), dtype=float, count=len(by_epoch))
        order = np.argsort(epochs, kind="stable")
        epochs, values = epochs[order], values[order]
        if unit is Unit.PERCENT:
            values = values / 100.0
        elif unit is Unit.BOOL:
            values = (values != 0.0).astype(float)

        first = (int(epochs[0]) // interval_s) * interval_s
        last = (int(epochs[-1]) // interval_s) * interval_s
        n_out = (last - first) // interval_s + 1
        idx = (epochs - first) // interval_s
        out = np.full(n_out, np.nan)
        if unit is Unit.BOOL:
            out[idx] = values
        else:
            sums = np.zeros(n_out)
            counts = np.zeros(n_out)
            np.add.at(sums, idx, values)
            np.add.at(counts, idx, 1.0)
            got = counts > 0
            out[got] = sums[got] / counts[got]
        series_by_point[point_id] = TimeSeries(
            point_id=point_id, start=first, interval_s=interval_s,
            unit=_NORMALIZED.get(unit, unit), values=out)

    result = {}
    for point_id, series in series_by_point.items():
        for slot in slots_by_point[point_id]:
            result[slot] = series
    return result, stats


# A analog, P percent (bound to two slots), B bool; U1/U2 are not bound.
ORACLE_BINDING = PointBinding(
    bindings={
        ("V1", PointRole.ZONE_TEMP): "A",
        ("AH1", PointRole.ECONOMIZER_DAMPER_POS): "P",
        ("AH2", PointRole.ECONOMIZER_DAMPER_POS): "P",
        ("V1", PointRole.OCCUPIED_CMD): "B",
    },
    units={"A": Unit.DEG_F, "P": Unit.PERCENT, "B": Unit.BOOL},
)


def _spell(epoch, spelling):
    text = format_timestamp(epoch)  # ...+00:00
    if spelling == "zulu":
        return text[:-6] + "Z"
    if spelling == "offset":  # the same instant at UTC-07:00
        return format_timestamp(epoch - 7 * 3600)[:-6] + "-07:00"
    if spelling == "padded":
        return f" {text} "
    return text


_good_row = st.builds(
    lambda point, step, spelling, value: [
        _spell(T0 + step * 300, spelling), point,
        repr(float(value)) if point != "B" else str(value % 3)],
    st.sampled_from(["A", "P", "B", " A ", "U1", "U2"]),
    st.integers(0, 11),  # 300 s steps: three samples per 900 s bucket
    st.sampled_from(["plain", "zulu", "offset", "padded"]),
    st.integers(-2000, 2000) | st.floats(-1e4, 1e4, allow_nan=False),
)

_bad_row = st.sampled_from([
    [format_timestamp(T0), "A"],
    [format_timestamp(T0), "A", "1.0", "extra"],
    [format_timestamp(T0), "A", "oops"],
    [format_timestamp(T0), "P", "nan"],
    [format_timestamp(T0), "B", "-inf"],
    ["not-a-time", "A", "1.0"],
    ["2015-06-01T07:15:00", "A", "1.0"],  # naive
    [format_timestamp(T0), "U1", "oops"],  # unknown wins over a bad value
    [],
])


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(TREND_HEADER)
        writer.writerows(rows)


def _outcome(reader, path, strict):
    try:
        return reader(path, ORACLE_BINDING, interval_s=GRID, strict=strict)
    except IngestError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    header=st.booleans(),
    rows=st.lists(st.one_of(_good_row, _good_row, _good_row, _bad_row), max_size=40),
    strict=st.booleans(),
)
def test_columnar_reader_matches_per_row_oracle(header, rows, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        _write_rows(path, header, rows)
        got = _outcome(read_trends, path, strict)
        want = _outcome(reference_read_trends, path, strict)
    if isinstance(want, str):
        assert got == want
        return
    assert_same_read(got, want)


# -- raw bytes: the block parse and its hand-over to _Records ----------------

def _stamp(step):
    return _spell(T0 + step * 300, "plain")


# (step, line): every line here is one that _Records reads as three plain
# cells and read_trends keeps, so a file of them takes the block parse
_clean_line = st.builds(
    lambda step, spelling, point, value, end: (step, (
        f"{_spell(T0 + step * 300, spelling)},{point},{value}".encode("ascii") + end)),
    st.integers(0, 11),
    st.sampled_from(["plain", "zulu", "offset", "padded"]),
    st.sampled_from(["A", "P", "B", " A ", "U1", "Bx", "\x1cA\x1f", "\x1dP", "B\x1e"]),
    st.sampled_from(["0", "1", "2", "-3", " 2.5 ", "1_000", "+.5", "5e-324", "1e-400"])
    | st.floats(-1e4, 1e4, allow_nan=False).map(repr),
    st.sampled_from([b"\r\n", b"\n"]),
)

# the lines that hand a file over to _Records, one list per cause; the
# long line has no cell over the csv module's field limit, so both readers
# read it, and the lone CRs keep three cells to the line
_FALLBACK_LINES = [
    [f'{_stamp(2)},"A",1.5\r\n', f'"{_stamp(2)}",B,1\n'],          # a quote
    [f"{_stamp(2)},A,1.5\x00\r\n", f"{_stamp(2)},A\x00,1.5\n"],     # a NUL
    [f"{_stamp(2)},\u00a0A,1.5\r\n", f"{_stamp(2)},\u00c4,1.5\n"],  # outside ASCII
    [f"{_stamp(2)},A\r,1.5\n", f"{_stamp(2)}\r,B,1\r\n",             # a lone CR
     f"{_stamp(2)},A,1.5\r{_stamp(3)},B,1\r\n"],
    ["\n", "\r\n"],                                                  # a blank line
    [f"{_stamp(2)},A\n", f"{_stamp(2)},A,1.5,9\r\n", f"{_stamp(2)}\r\n"],  # not 3 wide
    [f"{_stamp(2)},{' ' * 65_600}A,{'0' * 65_600}1.5\n"],           # over the limit
    ["not-a-time,A,1.5\n", "2015-06-01T07:15:00,B,1\r\n"],          # no timestamp
    [f"{_stamp(2)},A,oops\n", f"{_stamp(2)},U1,oops\r\n", f"{_stamp(2)},A,\n"],  # no value
    [f"{_stamp(2)},P,nan\n", f"{_stamp(2)},B,-inf\r\n", f"{_stamp(2)},A,1e400\n"],  # not finite
]
_fallback_line = st.sampled_from(_FALLBACK_LINES).flatmap(st.sampled_from).map(
    lambda line: (2, line.encode("utf-8")))


@settings(max_examples=500, deadline=None)
@given(
    header=st.sampled_from([b"", b"timestamp,point,value\r\n", b" Timestamp ,POINT,value\n"]),
    clean=st.lists(_clean_line, max_size=40),
    fallbacks=st.lists(st.tuples(st.integers(0, 40), _fallback_line), max_size=2),
    time_major=st.booleans(),
    final_newline=st.booleans(),
    block_bytes=st.sampled_from([32, 256, 1 << 16]),
    strict=st.booleans(),
)
# a wider id seen after a narrower one, then an id that it starts with: the
# lexicon of point texts must keep each text whole
@example(header=b"", clean=[(step, f"{_stamp(step)},{point},1\n".encode())
                            for step, point in ((1, "A"), (2, "Bx"), (3, "B"))],
         fallbacks=[], time_major=False, final_newline=True, block_bytes=32, strict=False)
def test_block_parse_matches_per_row_oracle_on_raw_bytes(
        header, clean, fallbacks, time_major, final_newline, block_bytes, strict):
    # small blocks put a file's lines, and what hands it over to _Records,
    # past its first block
    lines = list(clean)
    for at, line in fallbacks:
        lines.insert(at, line)
    if time_major:
        lines.sort(key=lambda step_line: step_line[0])
    data = header + b"".join(line for _, line in lines)
    if not final_newline:
        data = data.rstrip(b"\r\n")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_TREND_BLOCK_BYTES", block_bytes)
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        got = _outcome(read_trends, path, strict)
        want = _outcome(reference_read_trends, path, strict)
    if isinstance(want, str):
        assert got == want
        return
    assert_same_read(got, want)


def _records_passes(monkeypatch):
    """The path of every pass _Records makes over a file, in order."""
    passes = []
    real = ingest._Records.__iter__

    def counted(self):
        passes.append(self.path)
        return real(self)

    monkeypatch.setattr(ingest._Records, "__iter__", counted)
    return passes


def _long_trend_file(path, time_major=False):
    """40 points over 2,000 timestamps written by write_trends, point-major
    or re-ordered time-major; (binding, rows)."""
    rng = np.random.default_rng(17)
    points = [(f"V{i:02d}", PointRole.VAV_SUPPLY_FLOW, f"B1.V{i:02d}.FLOW", Unit.CFM)
              for i in range(40)]
    write_trends([TimeSeries(pid, T0, GRID, unit, rng.normal(400.0, 50.0, 2000))
                  for _, _, pid, unit in points], path)
    if time_major:
        head, *body = Path(path).read_bytes().splitlines(keepends=True)
        Path(path).write_bytes(head + b"".join(body[p * 2000 + t] for t in range(2000)
                                               for p in range(40)))
    return binding_for(points), 40 * 2000


def test_a_late_quote_reads_the_file_once_through_records(tmp_path, monkeypatch):
    # blocks before the quoted cell parse cleanly; their rows must not leak
    # into the result, and _Records reads the whole file once
    path = str(tmp_path / "t.csv")
    binding, _ = _long_trend_file(path)
    data, cell = Path(path).read_bytes(), b",B1.V39.FLOW,"
    at = data.rindex(cell, 0, len(data) - 1000)
    Path(path).write_bytes(data[:at] + b',"B1.V39.FLOW",' + data[at + len(cell):])
    passes = _records_passes(monkeypatch)
    got = read_trends(path, binding, GRID)
    assert passes == [path]
    assert_same_read(got, reference_read_trends(path, binding, GRID))


def test_a_clean_file_never_reaches_records(tmp_path, monkeypatch):
    # interleaved points in every block still take the block parse
    path = str(tmp_path / "t.csv")
    binding, rows = _long_trend_file(path, time_major=True)
    passes = _records_passes(monkeypatch)
    got = read_trends(path, binding, GRID)
    assert passes == [] and got[1].rows == rows
    assert_same_read(got, reference_read_trends(path, binding, GRID))


def assert_same_read(got, want):
    """Two read_trends results agree bit for bit, slot order included."""
    (got_series, got_stats), (want_series, want_stats) = got, want
    assert got_stats == want_stats
    assert list(got_series) == list(want_series)
    for slot, w in want_series.items():
        g = got_series[slot]
        assert (g.point_id, g.start, g.interval_s, g.unit) == (
            w.point_id, w.start, w.interval_s, w.unit)
        assert g.values.tobytes() == w.values.tobytes()


def test_oracle_inputs_exercise_duplicates_and_spellings(tmp_path):
    # one out-of-order, non-adjacent duplicate spelled three ways, plus a
    # bucket that averages and a bool bucket that keeps its last sample
    p = tmp_path / "t.csv"
    rows = [
        [_spell(T0 + 600, "plain"), "A", "4.0"],
        [_spell(T0, "plain"), "A", "1.0"],
        [_spell(T0 + 300, "plain"), "B", "0"],
        [_spell(T0 + 600, "zulu"), "A", "5.0"],
        [_spell(T0 + 300, "plain"), "P", "50"],
        [_spell(T0 + 600, "offset"), "A", "7.0"],
        [_spell(T0 + 600, "plain"), "B", "2"],
    ]
    _write_rows(p, True, rows)
    series, stats = read_trends(str(p), ORACLE_BINDING, interval_s=GRID)
    want_series, want_stats = reference_read_trends(str(p), ORACLE_BINDING, interval_s=GRID)
    assert stats == want_stats
    assert stats.duplicates == 2
    assert series[("V1", PointRole.ZONE_TEMP)].values.tolist() == [4.0]
    assert series[("V1", PointRole.OCCUPIED_CMD)].values.tolist() == [1.0]
    assert series[("AH2", PointRole.ECONOMIZER_DAMPER_POS)].values.tolist() == [0.5]
    for slot, w in want_series.items():
        assert series[slot].values.tobytes() == w.values.tobytes()


@pytest.mark.parametrize("bad, message", [
    ([format_timestamp(T0), "A"], "expected 3 columns, got 2"),
    ([format_timestamp(T0), "A", "oops"], "could not convert"),
    (["not-a-time", "A", "1.0"], "Invalid isoformat"),
    ([format_timestamp(T0), "A", "inf"], "non-finite value"),
])
def test_strict_error_names_the_malformed_line(tmp_path, bad, message):
    # the good rows parse the same timestamp first, so a cached epoch must
    # not hide a later bad row
    p = tmp_path / "t.csv"
    good = [[format_timestamp(T0), "A", "1.0"], [format_timestamp(T0), "B", "1"]]
    _write_rows(p, True, good + [[], bad] + good)
    with pytest.raises(IngestError, match=f"^{re.escape(str(p))}:5: .*{message}") as got:
        read_trends(str(p), ORACLE_BINDING, interval_s=GRID, strict=True)
    with pytest.raises(IngestError) as want:
        reference_read_trends(str(p), ORACLE_BINDING, interval_s=GRID, strict=True)
    assert str(got.value) == str(want.value)


# -- the trend cache in front of read_trends ----------------------------------

@settings(max_examples=100, deadline=None)
@given(
    header=st.booleans(),
    rows=st.lists(st.one_of(_good_row, _good_row, _good_row, _bad_row), max_size=40),
    strict=st.booleans(),
)
def test_cache_hit_matches_fresh_read(header, rows, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        _write_rows(path, header, rows)
        cached = functools.partial(read_trends_cached, cache_dir=os.path.join(tmp, "out"))
        want = _outcome(read_trends, path, strict)
        with counted_parses() as parses:
            miss = _outcome(cached, path, strict)
            hit = _outcome(cached, path, strict)
    if isinstance(want, str):
        # a failed parse leaves nothing to cache
        assert miss == hit == want
        assert len(parses) == 2
        return
    assert len(parses) == 1
    assert_same_read(miss, want)
    assert_same_read(hit, want)


CACHE_ROWS = [
    [format_timestamp(T0), "A", "1.0"],
    [format_timestamp(T0 + 300), "P", "50"],
    [format_timestamp(T0 + 600), "B", "2"],
    [format_timestamp(T0 + GRID), "A", "4.0"],
    [format_timestamp(T0 + GRID), "U1", "9.0"],
    [format_timestamp(T0 + 2 * GRID), "P", "75"],
]


@pytest.fixture
def cache_case(tmp_path):
    """A clean trend file, its output directory, and a primed cache."""
    path = tmp_path / "t.csv"
    _write_rows(path, True, CACHE_ROWS)
    out = tmp_path / "out"
    read_trends_cached(str(path), ORACLE_BINDING, GRID, False, str(out))
    assert (out / TRENDS_CACHE_NAME).is_file()
    return path, out


def _change_byte(path):
    data = bytearray(path.read_bytes())
    at = data.index(b"4.0")
    data[at] = ord("5")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("change", ["trend byte", "interval_s", "strict",
                                    "point dropped", "unit changed"])
def test_cache_misses_when_its_key_changes(cache_case, change):
    path, out = cache_case
    binding, interval_s, strict = ORACLE_BINDING, GRID, False
    if change == "trend byte":
        _change_byte(path)
    elif change == "interval_s":
        interval_s = 2 * GRID
    elif change == "strict":
        strict = True
    elif change == "point dropped":
        binding = PointBinding(
            bindings={slot: pid for slot, pid in ORACLE_BINDING.bindings.items()
                      if pid != "B"},
            units=ORACLE_BINDING.units)
    else:
        binding = dataclasses.replace(
            ORACLE_BINDING, units={**ORACLE_BINDING.units, "P": Unit.FRACTION})
    want = read_trends(str(path), binding, interval_s, strict)
    with counted_parses() as parses:
        miss = read_trends_cached(str(path), binding, interval_s, strict, str(out))
        hit = read_trends_cached(str(path), binding, interval_s, strict, str(out))
    assert len(parses) == 1
    assert_same_read(miss, want)
    assert_same_read(hit, want)


def _truncate(cache):
    # one whole value short, so only the length check can tell
    cache.write_bytes(cache.read_bytes()[:-8])


def _empty(cache):
    cache.write_bytes(b"")


def _garbage(cache):
    cache.write_bytes(bytes(range(256)) * 8)


def _directory(cache):
    cache.unlink()
    cache.mkdir()


@pytest.mark.parametrize("damage", [_truncate, _empty, _garbage, _directory],
                         ids=["truncated", "empty", "garbage", "directory"])
def test_damaged_cache_is_parsed_over(cache_case, damage):
    path, out = cache_case
    damage(out / TRENDS_CACHE_NAME)
    want = read_trends(str(path), ORACLE_BINDING, GRID)
    with counted_parses() as parses:
        got = read_trends_cached(str(path), ORACLE_BINDING, GRID, False, str(out))
    assert len(parses) == 1
    assert_same_read(got, want)
    assert sorted(os.listdir(out)) == [TRENDS_CACHE_NAME]  # no temp file left


@pytest.mark.parametrize("blocked", ["read-only", "file in the way"])
def test_unwritable_output_dir_is_not_an_error(tmp_path, blocked):
    path = tmp_path / "t.csv"
    _write_rows(path, True, CACHE_ROWS)
    if blocked == "read-only":
        out = tmp_path / "out"
        out.mkdir()
        out.chmod(stat.S_IRUSR | stat.S_IXUSR)
    else:
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    want = read_trends(str(path), ORACLE_BINDING, GRID)
    try:
        got = read_trends_cached(str(path), ORACLE_BINDING, GRID, False, str(out))
    finally:
        if blocked == "read-only":
            out.chmod(stat.S_IRWXU)
    assert_same_read(got, want)
    if blocked == "read-only":
        # a superuser may still write the cache, but never a stray temp file
        assert set(os.listdir(out)) <= {TRENDS_CACHE_NAME}


def test_lenient_cache_does_not_answer_a_strict_call(tmp_path):
    path = tmp_path / "t.csv"
    _write_rows(path, True, CACHE_ROWS[:3] + [[format_timestamp(T0), "A", "oops"]])
    out = str(tmp_path / "out")
    lenient = read_trends_cached(str(path), ORACLE_BINDING, GRID, False, out)
    assert lenient[1].skipped == 1
    with pytest.raises(IngestError, match=f"^{re.escape(str(path))}:5: "):
        read_trends_cached(str(path), ORACLE_BINDING, GRID, True, out)


def test_missing_trend_file_with_warm_cache_is_os_error(cache_case):
    path, out = cache_case
    path.unlink()
    with pytest.raises(OSError):
        read_trends_cached(str(path), ORACLE_BINDING, GRID, False, str(out))


# -- one refusal policy for every CSV reader ----------------------------------

# reader, header, one good record; the records' cells hold no comma
_CSV_READERS = {
    "trends": (functools.partial(read_trends, binding=ORACLE_BINDING, interval_s=GRID,
                                 strict=True),
               TREND_HEADER, [format_timestamp(T0), "A", "1.0"]),
    "points": (read_points, ["point_id", "name", "unit"], ["A", "a", "degF"]),
    "reference-year": (read_reference_year, ["day_of_year", "oat_f"], ["1", "50.0"]),
    "findings": (read_findings, FINDINGS_HEADER,
                 ["2", "cooling valve leak", "AH1", format_timestamp(T0),
                  format_timestamp(T0 + 7 * 86400), "-13.0", "-5.0", "x"]),
}
_READER_IDS = list(_CSV_READERS)


def _csv_file(path, name, bad):
    """header, a good record, a blank line, then bad on line 4."""
    _, header, good = _CSV_READERS[name]
    path.write_bytes(b"".join(",".join(r).encode("utf-8") + b"\r\n"
                              for r in (header, good, [])) + bad + b"\r\n")
    return str(path)


@pytest.mark.parametrize("name", _READER_IDS)
def test_cell_over_the_field_limit_is_refused_with_its_line(tmp_path, name):
    read, _, good = _CSV_READERS[name]
    bad = ",".join([good[0], "x" * 140_000] + good[2:]).encode("utf-8")
    path = _csv_file(tmp_path / "f.csv", name, bad)
    with pytest.raises(IngestError, match=f"^{re.escape(path)}:4: field larger than field "
                                          r"limit \(131072\)$"):
        read(path)


@pytest.mark.parametrize("name", _READER_IDS)
def test_every_reader_refuses_bad_width_and_bad_utf8_alike(tmp_path, name):
    read, _, good = _CSV_READERS[name]
    for bad, got in [(good + ["extra"], len(good) + 1), (good[:1], 1)]:
        path = _csv_file(tmp_path / f"w{got}.csv", name, ",".join(bad).encode("utf-8"))
        with pytest.raises(IngestError, match=f"^{re.escape(path)}:4: expected {len(good)} "
                                              f"columns, got {got}$"):
            read(path)
    path = _csv_file(tmp_path / "latin1.csv", name, "caf\xe9".encode("latin-1"))
    offset = Path(path).read_bytes().index(b"\xe9")
    with pytest.raises(IngestError, match=f"^{re.escape(path)}:4: 'utf-8' codec can't "
                                          f"decode byte 0xe9 in position {offset}: "
                                          "invalid continuation byte$"):
        read(path)


@pytest.mark.parametrize("tail, reason", [
    (b"caf\xe9\r\n", "invalid continuation byte"),
    (b"caf\xc3", "unexpected end of data"),
])
def test_utf8_refusal_names_the_byte_offset_in_the_file(tmp_path, tail, reason):
    # the text decoder reads in chunks; the refusal must give the bad byte's
    # offset and line in the whole file, far past the first chunk
    head = b"point_id,name,unit\r\n" + b"".join(b"P%d,caf\xc3\xa9,degF\r\n" % i
                                                 for i in range(1, 60_000))
    path = tmp_path / "points.csv"
    path.write_bytes(head + b"Q,q,degF\r\nR," + tail)
    offset = len(head) + len(b"Q,q,degF\r\nR,") + 3
    lineno = head.count(b"\n") + 2
    with pytest.raises(IngestError) as refused:
        read_points(str(path))
    assert str(refused.value) == (f"{path}:{lineno}: 'utf-8' codec can't decode byte "
                                  f"0x{tail[3]:02x} in position {offset}: {reason}")


def test_lenient_read_skips_an_unreadable_record_and_reads_on(tmp_path):
    # the record csv cannot tokenize counts as skipped, like any malformed
    # row, and every row after it is read as if it were not there
    rows = [[format_timestamp(T0 + 300 * i), point, str(float(i))]
            for i in range(6) for point in ("A", "P", "B")]
    plain, huge = tmp_path / "plain.csv", tmp_path / "huge.csv"
    _write_rows(plain, True, rows)
    _write_rows(huge, True, rows[:4] + [[format_timestamp(T0), "A", "9" * 140_000]]
                + rows[4:])
    want_series, want_stats = read_trends(str(plain), ORACLE_BINDING, interval_s=GRID)
    got_series, got_stats = read_trends(str(huge), ORACLE_BINDING, interval_s=GRID)
    assert got_stats == dataclasses.replace(want_stats, skipped=want_stats.skipped + 1)
    assert_same_read((got_series, want_stats), (want_series, want_stats))
    # the strict read refuses it on its own line, the header being line 1
    with pytest.raises(IngestError, match=f"^{re.escape(str(huge))}:6: field larger"):
        read_trends(str(huge), ORACLE_BINDING, interval_s=GRID, strict=True)
