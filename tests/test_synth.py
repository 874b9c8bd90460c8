"""Scenario generator checks.

The generator promises analytic ground truth, so the oracles here are
closed forms worked out by hand rather than anything recomputed through
the generator's own code paths. The stuck-damper scenario holds the
zone-to-supply difference at exactly 19 degF and injects 300 CFM of
excess flow for 7 days, so the wasted coil energy is

    1.08 BTU/(hr CFM degF) * 300 CFM * 19 degF * 168 h / 1e6

independent of every other knob. The meter identities are checked by
rebuilding the power sums from the written trend files through the same
loading pipeline the CLI uses and comparing against coefficients read
back from the ground-truth file.
"""

import csv
import dataclasses
import gc
import os

import numpy as np
import pytest

from conftest import block_edge_lengths, extreme_column, load_ground_truth, traced_peak_bytes
from hvacdisagg import synth
from hvacdisagg.building import PointInfo
from hvacdisagg.energy import Powers
from hvacdisagg.errors import ScenarioError
from hvacdisagg.ingest import format_timestamp, parse_timestamp
from hvacdisagg.synth import (
    FAULT_CONFIG,
    FAULT_COOLING_LEAK,
    FAULT_DAMPER,
    FAULT_ECONOMIZER,
    FaultInjection,
    ScenarioSpec,
    generate,
    scenario_impact,
    scenario_recovery,
)
from hvacdisagg.timeseries import TimeSeries, Unit

# hand value: 1.08 * 300 * 19 * 168 / 1e6
DAMPER_WASTE_MMBTU = 1.034208

DAY = 86400
START = ScenarioSpec().start_epoch


def _file_map(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def load_truth_powers(path):
    """truth_powers.csv as (epochs, column name -> values)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)[1:]
        ts = []
        data = [[] for _ in columns]
        for row in reader:
            ts.append(parse_timestamp(row[0]))
            for i, cell in enumerate(row[1:]):
                data[i].append(float(cell))
    return (np.array(ts, dtype=np.int64),
            {c: np.array(vals) for c, vals in zip(columns, data)})


def _trend_values(path):
    """(point, timestamp) -> value string, straight off the file."""
    out = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for ts, point, value in reader:
            out[(point, ts)] = value
    return out


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a = generate(scenario_impact(), str(tmp_path / "a"))
        b = generate(scenario_impact(), str(tmp_path / "b"))
        left, right = _file_map(a.out_dir), _file_map(b.out_dir)
        assert sorted(left) == sorted(right)
        for name in left:
            assert left[name] == right[name], name

    def test_seed_changes_trends(self, tmp_path):
        a = generate(scenario_recovery(seed=11), str(tmp_path / "a"))
        b = generate(scenario_recovery(seed=12), str(tmp_path / "b"))
        with open(a.trends_path, "rb") as fa, open(b.trends_path, "rb") as fb:
            assert fa.read() != fb.read()


class TestTruthFrame:
    def test_generate_assembles_one_frame(self, tmp_path, monkeypatch):
        # the meters are priced on the frame the pipeline's own assemble
        # builds, and on no second frame built by hand
        calls = []
        real = synth.assemble

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(synth, "assemble", counted)
        generate(scenario_impact(), str(tmp_path / "b"))
        assert len(calls) == 1

    def test_no_traces_alive_while_pricing_or_writing(self, tmp_path, monkeypatch):
        # the traces are freed once the written series and the wastes are
        # out, before the frame is assembled or any file written
        def traces():
            return sum(isinstance(o, synth.TraceSet) for o in gc.get_objects())

        alive = []

        def counted(real):
            def call(*args, **kwargs):
                alive.append(traces())
                return real(*args, **kwargs)
            return call

        for name in ("assemble", "write_trends", "_write_truth_powers"):
            monkeypatch.setattr(synth, name, counted(getattr(synth, name)))
        before = traces()
        generate(synth.scenario_faulted(), str(tmp_path / "b"))
        assert alive == [before] * 3

    def test_powers_freed_before_trends_are_written(self, tmp_path, monkeypatch):
        # truth_powers.csv is written first, so no Powers is alive while
        # the widest file is
        def powers():
            return sum(isinstance(o, Powers) for o in gc.get_objects())

        alive = []
        real = synth.write_trends

        def counted(*args, **kwargs):
            alive.append(powers())
            return real(*args, **kwargs)

        monkeypatch.setattr(synth, "write_trends", counted)
        before = powers()
        generate(synth.scenario_faulted(), str(tmp_path / "b"))
        assert alive == [before]

    def test_generate_memory_on_the_faulted_preset(self, tmp_path):
        """Peak traced bytes of generate on the faulted preset (3 AHUs x 4
        VAVs, 21 days at 900 s, 2% sensor noise on every sensor signal),
        numpy.random already imported: measured 2.28 MB. Generate that
        noised each signal into a new array, copied every signal into its
        series and wrote trends.csv while the frame's powers were alive
        peaked at 3.43 MB."""
        np.random.default_rng(0)  # its first import is not generate's cost
        peak = traced_peak_bytes(
            lambda: generate(synth.scenario_faulted(), str(tmp_path / "b")))
        assert peak <= 2_900_000, peak

    def test_generate_memory_on_a_wide_building(self, tmp_path):
        """Peak traced bytes of generate on the recovery building at 8 AHUs
        x 10 VAVs, 10 days at 1800 s (480 rows, 183 truth-power columns):
        measured 3.93 MB. Generate that held its traces to the end and
        wrote 256 rows at a time whatever the width peaked at 9.06 MB."""
        spec = dataclasses.replace(scenario_recovery(), n_ahus=8, n_vavs_per_ahu=10,
                                   duration_days=10, interval_s=1800)
        peak = traced_peak_bytes(lambda: generate(spec, str(tmp_path / "b")))
        assert peak <= 6_000_000, peak


class TestGroundTruth:
    def test_round_trip(self, impact_bundle):
        truth = load_ground_truth(impact_bundle.ground_truth_path)
        spec = scenario_impact()
        assert truth.seed == spec.seed
        assert truth.rng == synth.RNG_NAME
        assert truth.start == spec.start_epoch
        assert truth.interval_s == spec.interval_s
        assert truth.n_rows == spec.n_rows
        for i, c in enumerate(spec.coefficients, start=1):
            assert truth.coefficients[f"c{i}"] == c

    def test_economizer_split_matches_coefficients(self, impact_bundle):
        truth = load_ground_truth(impact_bundle.ground_truth_path)
        c = truth.coefficients
        assert truth.alpha == pytest.approx(
            (c["c4"] - c["c1"]) / (c["c4"] + c["c2"]), rel=1e-12)
        assert truth.beta == pytest.approx(
            (c["c5"] - c["c3"]) / (c["c2"] + c["c4"]), rel=1e-12)

    def test_modes_partition_rows(self, impact_loaded):
        # step transitions, no noise: every row is in exactly one band
        truth = impact_loaded.truth
        assert truth.n_cooling_rows + truth.n_heating_rows == truth.n_rows
        assert truth.n_cooling_rows > 0 and truth.n_heating_rows > 0

    def test_damper_waste_closed_form(self, impact_loaded):
        (inj,) = impact_loaded.truth.injections
        assert inj.fault == FAULT_DAMPER
        assert inj.equipment == "VAV1-02"
        assert inj.end - inj.start == 7 * DAY
        assert inj.waste_mmbtu == pytest.approx(DAMPER_WASTE_MMBTU, rel=1e-9)


class TestMeterIdentities:
    """With zero noise the written meters satisfy the calibration balances
    exactly, using the same power sums the fitting stage computes."""

    def test_cooling_meter_vav_side(self, recovery_loaded):
        data, c = recovery_loaded.data, recovery_loaded.truth.coefficients
        powers = data.powers()
        lhs = c["c1"] * powers.sum_vav_cooling + c["c2"] * powers.sum_economizer + c["c3"]
        assert np.allclose(lhs, data.cooling_meter, rtol=0.0, atol=1e-9)

    def test_cooling_meter_ahu_side(self, recovery_loaded):
        data, c = recovery_loaded.data, recovery_loaded.truth.coefficients
        rows = data.powers().cooling_rows
        lhs = c["c4"] * data.powers().sum_ahu_cooling + c["c5"]
        assert np.allclose(lhs[rows], data.cooling_meter[rows], rtol=0.0, atol=1e-9)

    def test_heating_meter(self, recovery_loaded):
        data, c = recovery_loaded.data, recovery_loaded.truth.coefficients
        lhs = (c["c6"] * data.powers().sum_ahu_heating
               + c["c7"] * data.powers().sum_vav_heating + c["c8"])
        # both heating terms vanish outside the heating band, so the
        # identity holds on every row, not just heating rows
        assert np.allclose(lhs, data.heating_meter, rtol=0.0, atol=1e-9)

    def test_mode_counts_match_pipeline(self, recovery_loaded):
        data, truth = recovery_loaded.data, recovery_loaded.truth
        assert int(data.powers().cooling_rows.sum()) == truth.n_cooling_rows
        assert int(data.powers().heating_rows.sum()) == truth.n_heating_rows

    def test_mode_counts_at_deadband_edges(self):
        # MAT - SAT of exactly -0.5 is heating and +0.5 is cooling, so each
        # edge row leaves the other mode's count, as the generator's truth
        # frame counts them for ground_truth.ini
        sat = np.full(4, 55.0)
        bid = synth.BUILDING_ID
        signals = {synth._point("AH1", "MAT"): (Unit.DEG_F, sat + [-0.5, 0.5, 0.0, 1.0]),
                   synth._point("AH1", "SAT"): (Unit.DEG_F, sat),
                   synth._point("AH1", "RAT"): (Unit.DEG_F, sat + 15.0),
                   synth._point("VAV1-01", "ZN-T"): (Unit.DEG_F, sat + 17.0),
                   synth._point("VAV1-01", "FLOW"): (Unit.CFM, np.full(4, 500.0)),
                   f"{bid}.OAT": (Unit.DEG_F, np.full(4, 60.0)),
                   f"{bid}.CLG-MTR": (Unit.MMBTU_HR, np.full(4, np.nan)),
                   f"{bid}.HTG-MTR": (Unit.MMBTU_HR, np.full(4, np.nan))}
        series = {pid: TimeSeries(pid, START, 900, unit, values)
                  for pid, (unit, values) in signals.items()}
        points = [PointInfo(pid, pid, s.unit) for pid, s in series.items()]
        graph = synth._graph_for(ScenarioSpec(n_ahus=1, n_vavs_per_ahu=1))
        powers = synth._truth_powers(graph, points, series)
        assert (int(powers.cooling_rows.sum()), int(powers.heating_rows.sum())) == (3, 2)

    def test_truth_powers_align_with_pipeline(self, impact_loaded, recovery_loaded,
                                              faulted_loaded):
        # every column is bit-equal to the pipeline's powers of the re-read
        # bundle, without reheat (impact) and with it (recovery), and under
        # sensor and meter noise, an economizer band and five injections
        # on three AHUs (faulted)
        for loaded in (impact_loaded, recovery_loaded, faulted_loaded):
            ts, cols = load_truth_powers(loaded.bundle.truth_powers_path)
            data = loaded.data
            powers = data.powers()
            reheat = powers.sum_vav_heating
            want = {"sum_vav_cooling": powers.sum_vav_cooling,
                    "sum_economizer": powers.sum_economizer,
                    "sum_ahu_heating": powers.sum_ahu_heating,
                    "sum_vav_reheat": np.zeros(data.n_rows) if reheat is None else reheat,
                    "cooling_meter": data.cooling_meter,
                    "heating_meter": data.heating_meter}
            want.update((f"{v}.cooling", p) for v, p in powers.vav_cooling.items())
            want.update((f"{v}.reheat", p) for v, p in powers.vav_heating.items())
            for ahu, (cooling, heating) in powers.ahu_coil.items():
                want[f"{ahu}.cooling"], want[f"{ahu}.heating"] = cooling, heating
            assert (reheat is None) == (loaded is impact_loaded)
            assert np.array_equal(ts, data.timestamps())
            assert sorted(cols) == sorted(want)
            for name, values in cols.items():
                assert np.array_equal(values, want[name]), name


class TestTruthPowersFile:
    def test_matches_per_row_writer(self, tmp_path):
        # row counts around the write block of a timestamp and twelve
        # columns, extreme floats in every column
        rng = np.random.default_rng(8)
        for n in block_edge_lengths(13):
            ts = START + 900 * np.arange(n, dtype=np.int64)

            def col():
                return extreme_column(n, rng)

            powers = Powers(
                vav_cooling={"VAV1-02": col(), "VAV1-01": col()},
                vav_heating={"VAV1-02": col(), "VAV1-01": col()},
                ahu_coil={"AH1": (col(), col())},
                economizer={"AH1": col()},
                sum_vav_cooling=col(), sum_economizer=col(), sum_ahu_cooling=col(),
                sum_ahu_heating=col(), sum_vav_heating=col(),
                cooling_rows=np.ones(n, dtype=bool), heating_rows=np.ones(n, dtype=bool))
            cooling, heating = col(), col()
            got, want = tmp_path / f"got-{n}.csv", tmp_path / f"want-{n}.csv"
            synth._write_truth_powers(str(got), ts, powers, cooling, heating)

            # the per-row writer it replaced
            arrays = {
                "AH1.cooling": powers.ahu_coil["AH1"][0],
                "AH1.heating": powers.ahu_coil["AH1"][1],
                "VAV1-01.cooling": powers.vav_cooling["VAV1-01"],
                "VAV1-01.reheat": powers.vav_heating["VAV1-01"],
                "VAV1-02.cooling": powers.vav_cooling["VAV1-02"],
                "VAV1-02.reheat": powers.vav_heating["VAV1-02"],
                "sum_ahu_heating": powers.sum_ahu_heating,
                "sum_economizer": powers.sum_economizer,
                "sum_vav_cooling": powers.sum_vav_cooling,
                "sum_vav_reheat": powers.sum_vav_heating,
                "cooling_meter": cooling, "heating_meter": heating}
            columns = list(arrays)
            with open(want, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["timestamp"] + columns)
                for i, epoch in enumerate(ts):
                    writer.writerow([format_timestamp(int(epoch))]
                                    + [repr(float(arrays[c][i])) for c in columns])
            assert got.read_bytes() == want.read_bytes(), n

    def test_memory_per_row(self, tmp_path):
        """Peak traced bytes of _write_truth_powers on 20,000 rows of
        twelve columns, no reheat: measured 3.17 MB, 159 B/row. Nearly all
        of it is the one stamp kept per distinct timestamp, and every row
        of this file has its own; the rest is one block of text and the
        zero sum_vav_reheat column. The writer that called tolist() on
        every column at once and formatted every stamp up front peaked at
        8.40 MB, 420 B/row."""
        n = 20_000
        rng = np.random.default_rng(14)

        def col():
            return rng.normal(0.0, 0.05, n)

        ts = START + 900 * np.arange(n, dtype=np.int64)
        powers = Powers(
            vav_cooling={"VAV1-01": col(), "VAV1-02": col()}, vav_heating={},
            ahu_coil={"AH1": (col(), col())}, economizer={"AH1": col()},
            sum_vav_cooling=col(), sum_economizer=col(), sum_ahu_cooling=col(),
            sum_ahu_heating=col(), sum_vav_heating=None,
            cooling_rows=np.ones(n, dtype=bool), heating_rows=np.ones(n, dtype=bool))
        cooling, heating = col(), col()
        peak = traced_peak_bytes(lambda: synth._write_truth_powers(
            str(tmp_path / "t.csv"), ts, powers, cooling, heating))
        assert peak <= 200 * n + (1 << 20), peak

    def test_memory_is_set_by_the_block_not_the_width(self, tmp_path):
        """Peak traced bytes of _write_truth_powers on 300 rows of 300
        VAVs with reheat (609 columns): measured 0.82 MB, one block of six
        rows and the state of 609 column readers. The writer that turned 256
        rows into text at a time, whatever the width, peaked at 12.0 MB."""
        n = 300
        rng = np.random.default_rng(15)

        def col():
            return rng.normal(0.0, 0.05, n)

        vavs = [f"VAV1-{i:03d}" for i in range(300)]
        powers = Powers(
            vav_cooling={v: col() for v in vavs}, vav_heating={v: col() for v in vavs},
            ahu_coil={"AH1": (col(), col())}, economizer={"AH1": col()},
            sum_vav_cooling=col(), sum_economizer=col(), sum_ahu_cooling=col(),
            sum_ahu_heating=col(), sum_vav_heating=col(),
            cooling_rows=np.ones(n, dtype=bool), heating_rows=np.ones(n, dtype=bool))
        cooling, heating = col(), col()
        path = tmp_path / "t.csv"
        peak = traced_peak_bytes(lambda: synth._write_truth_powers(
            str(path), START + 900 * np.arange(n, dtype=np.int64), powers, cooling, heating))
        with open(path, encoding="utf-8", newline="") as fh:
            assert len(next(csv.reader(fh))) >= 600
        assert peak <= 1_500_000, peak


class TestDerivePhysics:
    def test_fault_free_twin_on_the_same_draws(self):
        # the faulted base with its injections emptied derives exactly the
        # healthy preset; deriving leaves the base as it was built
        faulted, healthy = synth.scenario_faulted(), synth.scenario_healthy_twin()
        base = synth._build_base(faulted, np.random.default_rng(faulted.seed))
        built = synth._build_base(faulted, np.random.default_rng(faulted.seed))
        derived = synth._derive_physics(base)
        twin = synth._derive_physics(dataclasses.replace(
            base, spec=dataclasses.replace(faulted, faults=())))
        want = synth._derive_physics(
            synth._build_base(healthy, np.random.default_rng(healthy.seed)))
        assert not _same_traces(derived, twin)
        assert _same_traces(twin, want)
        assert _same_traces(base, built)
        assert base.flow == {} and derived.flow != {}


class TestWrittenSeries:
    @staticmethod
    def _traces(spec):
        rng = np.random.default_rng(spec.seed)
        return synth._derive_physics(synth._build_base(spec, rng)), rng

    @pytest.mark.parametrize("spec", [synth.scenario_faulted(), synth.scenario_recovery()],
                             ids=["noisy", "exact"])
    def test_no_two_points_share_an_array(self, spec):
        # each series takes its array over without a copy, and the noise
        # goes in place, so one array handed to two points would be noised
        # twice and either point's values would be the other's
        values = [s.values for s in synth._written_series(*self._traces(spec)).values()]
        assert all(not v.flags.writeable for v in values)
        for i, a in enumerate(values):
            assert not any(np.may_share_memory(a, b) for b in values[i + 1:])

    def test_noise_in_place_has_the_bits_of_the_product(self):
        # values *= 1 + rel * z step by step gives exactly values * (1.0 +
        # rel * z), on the same draws in the same order
        spec = synth.scenario_faulted()
        tr, rng = self._traces(spec)
        clean = [("B1.OAT", tr.oat.copy()), ("B1.HWS-T", tr.hot_water.copy())]
        for ahu in tr.ahu_ids:
            clean += [(f"B1.{ahu}.SAT", tr.sat_actual[ahu].copy()),
                      (f"B1.{ahu}.MAT", tr.mixed_actual[ahu].copy()),
                      (f"B1.{ahu}.RAT", tr.return_temp[ahu].copy())]
            for vav in tr.children[ahu]:
                clean += [(f"B1.{vav}.ZN-T", tr.zone_temp[vav].copy()),
                          (f"B1.{vav}.FLOW", tr.flow[vav].copy())]
        state = rng.bit_generator.state
        got = synth._written_series(tr, rng)
        rng.bit_generator.state = state
        rel = spec.sensor_noise_rel
        for pid, values in clean:
            want = values * (1.0 + rel * rng.standard_normal(tr.n))
            assert np.array_equal(got[pid].values, want), pid


def _same_traces(a, b):
    """Every field of two TraceSets equal, arrays and dicts of arrays exactly."""
    def same(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
        if isinstance(x, np.ndarray):
            return np.array_equal(x, y)
        return x == y
    return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


class TestInjectionValidation:
    def _generate(self, tmp_path, **overrides):
        spec = dataclasses.replace(scenario_impact(), **overrides)
        return generate(spec, str(tmp_path / "bad"))

    def test_unknown_fault_type(self):
        bad = FaultInjection("fan_wobble", "VAV1-01", START, DAY, 1.0)
        with pytest.raises(ScenarioError, match="unknown fault type"):
            dataclasses.replace(scenario_impact(), faults=(bad,))

    def test_vav_fault_on_ahu(self, tmp_path):
        bad = FaultInjection(FAULT_DAMPER, "AH1", START, DAY, 50.0)
        with pytest.raises(ScenarioError, match="not a VAV"):
            self._generate(tmp_path, faults=(bad,))

    def test_ahu_fault_on_vav(self, tmp_path):
        bad = FaultInjection(FAULT_ECONOMIZER, "VAV1-01", START, DAY, 0.3)
        with pytest.raises(ScenarioError, match="not an AHU"):
            self._generate(tmp_path, faults=(bad,))

    def test_window_outside_scenario(self, tmp_path):
        bad = FaultInjection(FAULT_DAMPER, "VAV1-01", START - DAY, DAY, 50.0)
        with pytest.raises(ScenarioError, match="outside the scenario range"):
            self._generate(tmp_path, faults=(bad,))

    def test_duplicate_equipment(self, tmp_path):
        first = FaultInjection(FAULT_DAMPER, "VAV1-01", START, DAY, 50.0)
        second = FaultInjection(FAULT_CONFIG, "VAV1-01", START + DAY, DAY, 2.0)
        with pytest.raises(ScenarioError, match="already has an injected fault"):
            self._generate(tmp_path, faults=(first, second))

    def test_economizer_position_is_fraction(self, tmp_path):
        bad = FaultInjection(FAULT_ECONOMIZER, "AH1", START, DAY, 1.5)
        with pytest.raises(ScenarioError, match="must be a fraction"):
            self._generate(tmp_path, faults=(bad,))

    def test_config_magnitude_exceeds_one(self, tmp_path):
        bad = FaultInjection(FAULT_CONFIG, "VAV1-01", START, DAY, 1.0)
        with pytest.raises(ScenarioError, match="must exceed 1"):
            self._generate(tmp_path, faults=(bad,))

    def test_damper_offset_keeps_flow_positive(self, tmp_path):
        bad = FaultInjection(FAULT_DAMPER, "VAV1-01", START, DAY, -250.0)
        with pytest.raises(ScenarioError, match="flow negative"):
            self._generate(tmp_path, faults=(bad,))

    def test_leak_window_must_avoid_open_valve(self, tmp_path):
        # night mixed air above the discharge setpoint keeps the cooling
        # valve cracked open overnight, which contradicts a leak there
        bad = FaultInjection(FAULT_COOLING_LEAK, "AH1", START + DAY, 2 * DAY, 5.0)
        with pytest.raises(ScenarioError, match="valve is commanded open"):
            self._generate(tmp_path, night_mixed_f=60.0, faults=(bad,))

    def test_oat_too_close_to_return_air(self, tmp_path):
        with pytest.raises(ScenarioError, match="too close to return air"):
            self._generate(tmp_path, oat_base_f=74.0, oat_daily_amp_f=0.0, faults=())

    def test_infeasible_damper_position(self, tmp_path):
        with pytest.raises(ScenarioError, match=r"leaves \[0.02, 0.98\]"):
            self._generate(tmp_path, night_mixed_f=73.9, faults=())


class TestSpecValidation:
    def test_coefficient_count(self):
        with pytest.raises(ScenarioError, match="exactly 8"):
            ScenarioSpec(coefficients=(1.0, 2.0, 3.0))

    def test_coefficients_positive(self):
        with pytest.raises(ScenarioError, match="positive"):
            ScenarioSpec(coefficients=(1.1, 0.9, -0.05, 1.2, 0.06, 1.15, 0.95, 0.012))

    def test_interval_divides_day(self):
        with pytest.raises(ScenarioError, match="divide one day"):
            ScenarioSpec(interval_s=7000)

    def test_noise_bounds(self):
        with pytest.raises(ScenarioError, match="noise level"):
            ScenarioSpec(meter_noise_rel=0.5)

    def test_econ_band_must_fit(self):
        with pytest.raises(ScenarioError, match="economizer band"):
            ScenarioSpec(cooling_start_hour=8, cooling_end_hour=23, econ_band_hours=2)


class TestHealthyTwin:
    """scenario_healthy_twin shares seed and noise draws with
    scenario_faulted, so written sensor values differ only where a fault
    touched the underlying signal."""

    def test_untouched_points_identical(self, faulted_bundle, healthy_bundle):
        faulted = _trend_values(faulted_bundle.trends_path)
        healthy = _trend_values(healthy_bundle.trends_path)
        same = [k for k in faulted
                if k[0] == "B1.VAV1-01.FLOW" and faulted[k] == healthy[k]]
        total = [k for k in faulted if k[0] == "B1.VAV1-01.FLOW"]
        assert len(same) == len(total) > 0

    def test_faulted_flow_differs_inside_window(self, faulted_bundle, healthy_bundle):
        faulted = _trend_values(faulted_bundle.trends_path)
        healthy = _trend_values(healthy_bundle.trends_path)
        truth = load_ground_truth(faulted_bundle.ground_truth_path)
        stuck = next(i for i in truth.injections if i.fault == FAULT_DAMPER)
        assert stuck.equipment == "VAV3-02"
        point = f"B1.{stuck.equipment}.FLOW"
        differs = same = 0
        for (pid, ts), value in faulted.items():
            if pid != point:
                continue
            epoch = parse_timestamp(ts)
            inside = stuck.start <= epoch < stuck.end
            if value != healthy[(pid, ts)]:
                differs += 1
                assert inside, ts
            elif not inside:
                same += 1
        assert differs > 0 and same > 0
