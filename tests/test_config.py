"""Run-config parsing and command-line behaviour.

Commands run in-process through main(), so exit codes are plain return
values and output lands in capsys. The broken-input cases copy a real
generated bundle and damage one file at a time: every failure must come
back as exit code 1 with a message naming the problem, and exit code 2
stays reserved for the operating system refusing a file.
"""

import csv
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import block_edge_lengths, extreme_column
from hvacdisagg.cli import _write_comparison, main
from hvacdisagg.config import SCENARIO_PRESETS, load_run_config, load_scenario_spec
from hvacdisagg.errors import ConfigError
from hvacdisagg.faults import FaultFinding, Thresholds, write_findings
from hvacdisagg.ingest import TRENDS_CACHE_NAME, _block_rows, format_timestamp, \
    parse_timestamp
from hvacdisagg.synth import scenario_faulted, scenario_impact

BASE_CONF = """\
[paths]
topology = topology.ini
points = points.csv
trends = trends.csv
reference_year = reference_year.csv
model = model.ini
findings = findings.csv
output_dir = out

[thresholds]
correlation_min = 0.5
cooling_mpe_pct = -5.0
heating_mpe_pct = 5.0
occupied_flow_slack = 1.1
flow_rmspe_pct = 20.0
min_persistence_days = 7
min_coverage = 0.5
config_violation_fraction = 0.9
damper_range_min = 0.2
valve_closed_tolerance = 0.01

[constants]
air_power_k = 1.08
mode_deadband_f = 0.5
interval_s = 900

[fit]
split_fraction = 0.7
"""


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRunConfig:
    def test_generated_bundle_config(self, impact_bundle):
        cfg = load_run_config(impact_bundle.run_config_path)
        assert cfg.trends_path == impact_bundle.trends_path
        assert cfg.model_path == os.path.join(impact_bundle.out_dir, "model.ini")
        assert cfg.thresholds == Thresholds()
        assert cfg.constants.air_power_k == 1.08
        assert cfg.constants.mode_deadband_f == 0.5
        assert cfg.interval_s == 900
        assert cfg.split_fraction == 0.7
        cfg.check_inputs_exist()

    def test_paths_resolve_against_config_dir(self, tmp_path):
        nested = tmp_path / "conf"
        nested.mkdir()
        text = BASE_CONF.replace("trends = trends.csv", "trends = ../data/trends.csv")
        cfg = load_run_config(_write(nested / "run.conf", text))
        assert cfg.trends_path == str(tmp_path / "data" / "trends.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_run_config(str(tmp_path / "nope.conf"))

    def test_missing_section(self, tmp_path):
        path = _write(tmp_path / "run.conf", BASE_CONF.replace("[thresholds]", "[limits]"))
        with pytest.raises(ConfigError) as refused:
            load_run_config(path)
        assert str(refused.value) == f"{path}: [thresholds] correlation_min: missing section"

    def test_missing_threshold_key(self, tmp_path):
        path = _write(tmp_path / "run.conf", BASE_CONF.replace("correlation_min = 0.5\n", ""))
        with pytest.raises(ConfigError) as refused:
            load_run_config(path)
        assert str(refused.value) == f"{path}: [thresholds] correlation_min: missing key"

    def test_unparseable_threshold(self, tmp_path):
        text = BASE_CONF.replace("correlation_min = 0.5", "correlation_min = high")
        with pytest.raises(ConfigError, match="correlation_min"):
            load_run_config(_write(tmp_path / "run.conf", text))

    def test_threshold_validation_applies(self, tmp_path):
        text = BASE_CONF.replace("cooling_mpe_pct = -5.0", "cooling_mpe_pct = 5.0")
        path = _write(tmp_path / "run.conf", text)
        with pytest.raises(ConfigError) as refused:
            load_run_config(path)
        assert str(refused.value) == (f"{path}: [thresholds]: cooling_mpe_pct is a floor "
                                      "on a negative bias; must be < 0")

    def test_bad_interval(self, tmp_path):
        path = _write(tmp_path / "run.conf", BASE_CONF.replace("interval_s = 900",
                                                               "interval_s = 0"))
        with pytest.raises(ConfigError) as refused:
            load_run_config(path)
        assert str(refused.value) == f"{path}: [constants] interval_s: must be positive"

    @pytest.mark.parametrize("value", ["0", "-0.5", "1.0000001", "2"])
    def test_split_fraction_out_of_range(self, tmp_path, value):
        path = _write(tmp_path / "run.conf", BASE_CONF.replace("split_fraction = 0.7",
                                                               f"split_fraction = {value}"))
        with pytest.raises(ConfigError) as refused:
            load_run_config(path)
        assert str(refused.value) == (f"{path}: [fit] split_fraction: "
                                      f"must be in (0, 1], got {float(value)!r}")

    def test_whole_history_split_fraction_accepted(self, tmp_path):
        path = _write(tmp_path / "run.conf", BASE_CONF.replace("split_fraction = 0.7",
                                                               "split_fraction = 1"))
        assert load_run_config(path).split_fraction == 1.0

    @pytest.mark.parametrize("section, key, value", [
        ("constants", "mode_deadband_f", "-inf"),
        ("fit", "split_fraction", "nan"),
    ])
    def test_non_finite_number_refused(self, tmp_path, section, key, value):
        # the thresholds and air_power_k are refused through the CLI in
        # TestCli.test_non_finite_setting_exits_one
        text, n = re.subn(f"^{key} = .*$", f"{key} = {value}", BASE_CONF, flags=re.M)
        assert n == 1
        path = _write(tmp_path / "run.conf", text)
        with pytest.raises(ConfigError) as refused:
            load_run_config(path)
        assert str(refused.value) == (f"{path}: [{section}] {key}: "
                                      f"not a finite number: '{value}'")

    def test_inputs_must_exist(self, tmp_path):
        cfg = load_run_config(_write(tmp_path / "run.conf", BASE_CONF))
        with pytest.raises(ConfigError, match="missing input file"):
            cfg.check_inputs_exist()


class TestScenarioSpecFile:
    def test_preset(self, tmp_path):
        spec = load_scenario_spec(_write(tmp_path / "s.conf",
                                         "[scenario]\npreset = impact\n"))
        assert spec == scenario_impact()

    def test_preset_names(self):
        assert sorted(SCENARIO_PRESETS) == [
            "faulted", "healthy", "impact", "mixed_season", "recovery"]

    def test_field_overrides(self, tmp_path):
        text = ("[scenario]\npreset = recovery\nduration_days = 10\n"
                "meter_noise_rel = 0.01\nreheat = off\n"
                "coefficients = 1.0, 0.8, 0.05, 1.1, 0.06, 1.2, 0.9, 0.01\n")
        spec = load_scenario_spec(_write(tmp_path / "s.conf", text))
        assert spec.duration_days == 10
        assert spec.meter_noise_rel == 0.01
        assert spec.reheat is False
        assert spec.coefficients == (1.0, 0.8, 0.05, 1.1, 0.06, 1.2, 0.9, 0.01)
        # untouched preset fields survive
        assert spec.n_vavs_per_ahu == 10

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown preset 'winter'"):
            load_scenario_spec(_write(tmp_path / "s.conf",
                                      "[scenario]\npreset = winter\n"))

    def test_unknown_field(self, tmp_path):
        path = _write(tmp_path / "s.conf", "[scenario]\nchillers = 2\n")
        with pytest.raises(ConfigError) as refused:
            load_scenario_spec(path)
        assert str(refused.value) == f"{path}: [scenario] chillers: unknown field"

    def test_bad_boolean(self, tmp_path):
        path = _write(tmp_path / "s.conf", "[scenario]\nreheat = maybe\n")
        with pytest.raises(ConfigError) as refused:
            load_scenario_spec(path)
        assert str(refused.value) == f"{path}: [scenario] reheat: Not a boolean: maybe"

    @pytest.mark.parametrize("section, key, value, message", [
        ("scenario", "oat_base_f", "nan", "not a finite number: 'nan'"),
        ("scenario", "coefficients", "1.1, 0.9, inf, 1.2, 0.06, 1.15, 0.95, 0.012",
         "not a finite number: 'inf'"),
        ("scenario", "faults", "none", "unknown field"),
        ("injection 1", "magnitude", "nan", "not a finite number: 'nan'"),
        ("injection 1", "duration_s", "1.5", "invalid literal for int() with base 10: '1.5'"),
    ], ids=["oat", "coefficients", "faults", "magnitude", "duration"])
    def test_bad_scenario_value_refused(self, tmp_path, section, key, value, message):
        text = ("[scenario]\npreset = impact\n[injection 1]\nfault = config_error\n"
                "equipment = VAV1-01\nstart = 1767657600\nduration_s = 604800\n"
                "magnitude = 2\n")
        text, n = re.subn(f"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if not n:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        path = _write(tmp_path / "s.conf", text)
        with pytest.raises(ConfigError) as refused:
            load_scenario_spec(path)
        assert str(refused.value) == f"{path}: [{section}] {key}: {message}"

    def test_injections_replace_preset_faults(self, tmp_path):
        start = scenario_impact().start_epoch + 86400
        text = ("[scenario]\npreset = faulted\n"
                "[injection 1]\n"
                "fault = damper_stuck\nequipment = VAV1-01\n"
                f"start = {format_timestamp(start)}\n"
                "duration_s = 604800\nmagnitude = 120\n")
        spec = load_scenario_spec(_write(tmp_path / "s.conf", text))
        assert len(spec.faults) == 1
        inj = spec.faults[0]
        assert inj.fault == "damper_stuck"
        assert inj.equipment == "VAV1-01"
        assert inj.start == start
        assert inj.duration_s == 604800
        assert inj.magnitude == 120.0

    def test_injection_start_accepts_epoch(self, tmp_path):
        start = scenario_impact().start_epoch
        text = ("[scenario]\npreset = impact\n"
                "[injection 1]\n"
                "fault = config_error\nequipment = VAV1-01\n"
                f"start = {start + 86400}\nduration_s = 604800\nmagnitude = 2\n")
        spec = load_scenario_spec(_write(tmp_path / "s.conf", text))
        assert spec.faults[0].start == start + 86400

    def test_injection_end_accepted_in_place_of_duration(self, tmp_path):
        start = scenario_impact().start_epoch + 86400
        text = ("[scenario]\npreset = impact\n[injection 1]\n"
                "fault = config_error\nequipment = VAV1-01\nmagnitude = 2\n"
                f"start = {format_timestamp(start)}\n"
                f"end = {format_timestamp(start + 604800)}\n")
        (inj,) = load_scenario_spec(_write(tmp_path / "s.conf", text)).faults
        assert (inj.start, inj.duration_s) == (start, 604800)

    def test_ground_truth_injections_regenerate_the_spec(self, faulted_bundle, tmp_path):
        # every [injection N] section ground_truth.ini writes, waste_mmbtu
        # included, pasted into a scenario file gives the same injections
        text = Path(faulted_bundle.ground_truth_path).read_text(encoding="utf-8")
        sections = text[text.index("[injection 1]"):]
        assert sections.count("[injection") == len(scenario_faulted().faults)
        path = _write(tmp_path / "s.conf", "[scenario]\npreset = healthy\n\n" + sections)
        assert load_scenario_spec(path).faults == scenario_faulted().faults

    @pytest.mark.parametrize("window, where, message", [
        ("duration_s = 604800\nend = 2026-01-13T00:00:00+00:00\n", "",
         "needs exactly one of end and duration_s"),
        ("", "", "needs exactly one of end and duration_s"),
        ("end = 2026-01-06T00:00:00+00:00\n", " end", "must be after start"),
        ("end = 2026-01-05T00:00:00+00:00\n", " end", "must be after start"),
        ("end = soon\n", " end", "Invalid isoformat string: 'soon'"),
    ], ids=["both", "neither", "before-start", "at-start", "garbled"])
    def test_bad_injection_window_refused(self, tmp_path, window, where, message):
        text = ("[scenario]\npreset = impact\n[injection 1]\n"
                "fault = config_error\nequipment = VAV1-01\nmagnitude = 2\n"
                "start = 2026-01-06T00:00:00+00:00\n" + window)
        path = _write(tmp_path / "s.conf", text)
        with pytest.raises(ConfigError) as refused:
            load_scenario_spec(path)
        assert str(refused.value) == f"{path}: [injection 1]{where}: {message}"

    def test_seed_argument_wins(self, tmp_path):
        text = "[scenario]\npreset = impact\nseed = 11\n"
        path = _write(tmp_path / "s.conf", text)
        assert load_scenario_spec(path).seed == 11
        assert load_scenario_spec(path, seed=99).seed == 99


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    """One bundle generated through the synth command itself."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "scenario.conf"
    spec.write_text("[scenario]\npreset = impact\n", encoding="utf-8")
    out = root / "bundle"
    assert main(["synth", "--config", str(spec), "--out", str(out)]) == 0
    return out


def _huge_first_flow(faulted_bundle, tmp_path, value, at=".*"):
    """A copy of the faulted bundle whose first B1.VAV1-01.FLOW reading, or
    first one at a timestamp matching the pattern at, is value."""
    work = tmp_path / "bundle"
    shutil.copytree(faulted_bundle.out_dir, work)
    trends = work / "trends.csv"
    text = trends.read_text(encoding="utf-8")
    row = re.search(rf"^({at},B1\.VAV1-01\.FLOW,).*$", text, flags=re.M)
    trends.write_text(text[:row.start()] + row.group(1) + value + text[row.end():],
                      encoding="utf-8")
    return work


def _damaged(cli_bundle, tmp_path, edit):
    """Copy of the bundle with one file broken; returns its run.conf."""
    work = tmp_path / "broken"
    shutil.copytree(cli_bundle, work)
    edit(work)
    return str(work / "run.conf")


class TestCli:
    def test_synth_requires_out(self, cli_bundle, tmp_path, capsys):
        spec = _write(tmp_path / "s.conf", "[scenario]\npreset = impact\n")
        assert main(["synth", "--config", spec]) == 1
        assert "synth needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        *((command, "--seed=3")
          for command in ("validate", "fit", "estimate", "detect", "report")),
        ("synth", "--strict"),
    ])
    def test_flag_of_another_command_exits_two(self, command, flag, capsys):
        # --seed is synth's alone, and --strict only the pipeline commands'
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "run.conf", "--out", "out", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_validate(self, cli_bundle, capsys):
        rc = main(["validate", "--config", str(cli_bundle / "run.conf")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "building B1: 1 AHU(s), 3 VAV(s)" in out
        assert "validation passed" in out

    def test_fit_detect_estimate_report_chain(self, cli_bundle, capsys):
        conf = str(cli_bundle / "run.conf")

        assert main(["fit", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "coefficients: c1=1.1" in out
        assert "train/test windows: disjoint" in out
        assert (cli_bundle / "model.ini").exists()

        assert main(["detect", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "finding(s)" in out
        assert (cli_bundle / "findings.csv").exists()
        assert (cli_bundle / "out" / "inconclusive.log").exists()

        assert main(["estimate", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "per-equipment powers" in out
        assert (cli_bundle / "out" / "equipment_powers.csv").exists()
        assert (cli_bundle / "out" / "cooling_vav_comparison.csv").exists()
        assert (cli_bundle / "out" / "cooling_ahu_comparison.csv").exists()
        assert (cli_bundle / "out" / "heating_comparison.csv").exists()

        assert main(["report", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rule")
        assert "MMBTU/year" in out
        with open(cli_bundle / "out" / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "rule"
        assert len(rows) > 1

    def test_report_byte_deterministic(self, cli_bundle, capsys):
        conf = str(cli_bundle / "run.conf")
        assert main(["report", "--config", conf]) == 0
        first = {name: (cli_bundle / "out" / name).read_bytes()
                 for name in ("report.csv", "impacts.csv")}
        assert main(["report", "--config", conf]) == 0
        capsys.readouterr()
        for name, blob in first.items():
            assert (cli_bundle / "out" / name).read_bytes() == blob, name

    def test_comparison_matches_per_row_writer(self, tmp_path, capsys):
        def reference_write(path, stamps, estimated, measured):
            # the per-row writer it replaced
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["timestamp", "estimated", "measured"])
                for stamp, est, meas in zip(stamps, estimated, measured):
                    writer.writerow([stamp, repr(float(est)), repr(float(meas))])

        # the impact building over 15 days, so the file spans write blocks
        spec = _write(tmp_path / "s.conf", "[scenario]\npreset = impact\nduration_days = 15\n")
        conf = str(tmp_path / "bundle" / "run.conf")
        assert main(["synth", "--config", spec, "--out", str(tmp_path / "bundle")]) == 0
        assert main(["fit", "--config", conf]) == 0
        assert main(["estimate", "--config", conf]) == 0
        capsys.readouterr()
        path = os.path.join(load_run_config(conf).output_dir, "cooling_vav_comparison.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        block = _block_rows(3)
        assert len(rows) > block and len(rows) % block  # ends on a short block
        stamps = np.array([r[0] for r in rows], dtype=object)
        estimated, measured = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
        want = tmp_path / "want.csv"
        reference_write(want, stamps, estimated, measured)
        with open(path, "rb") as fh:
            assert fh.read() == want.read_bytes()

        estimated[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -np.inf]
        got = tmp_path / "got.csv"
        _write_comparison(str(got), stamps, estimated, measured)
        reference_write(want, stamps, estimated, measured)
        assert got.read_bytes() == want.read_bytes()

        # stamps as text, as estimate passes them, which must come out
        # unquoted, or epochs; row counts around the write block
        rng = np.random.default_rng(9)
        for n in block_edge_lengths(3):
            epochs = parse_timestamp("2026-01-05T00:00:00+00:00") + 900 * np.arange(n)
            texts = np.array([format_timestamp(e) for e in epochs.tolist()], dtype=object)
            estimated, measured = extreme_column(n, rng), extreme_column(n, rng)
            reference_write(want, texts, estimated, measured)
            for given in (epochs, texts):
                _write_comparison(str(got), given, estimated, measured)
                assert got.read_bytes() == want.read_bytes(), (n, given.dtype)

    def test_out_flag_redirects_outputs(self, cli_bundle, tmp_path, capsys):
        conf = str(cli_bundle / "run.conf")
        other = tmp_path / "elsewhere"
        assert main(["estimate", "--config", conf, "--out", str(other)]) == 0
        capsys.readouterr()
        assert (other / "equipment_powers.csv").exists()

    def test_missing_meter_point_exits_one(self, cli_bundle, tmp_path, capsys):
        def drop_meter(work):
            path = work / "points.csv"
            with open(path, newline="") as fh:
                rows = [r for r in csv.reader(fh) if "CLG-MTR" not in r[0]]
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)

        rc = main(["validate", "--config", _damaged(cli_bundle, tmp_path, drop_meter)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "meter point" in err and "not in the point inventory" in err

    def test_unit_mismatch_exits_one(self, cli_bundle, tmp_path, capsys):
        def break_unit(work):
            path = work / "points.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            for row in rows:
                if "CLG-MTR" in row[0]:
                    row[-1] = "degF"
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)

        rc = main(["validate", "--config", _damaged(cli_bundle, tmp_path, break_unit)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "must be mmbtu_hr, inventory says degF" in err

    def test_disjoint_ranges_exit_one(self, cli_bundle, tmp_path, capsys):
        def shift_meter(work):
            path = work / "trends.csv"
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            for row in rows[1:]:
                if row[1] == "B1.CLG-MTR":
                    row[0] = format_timestamp(parse_timestamp(row[0]) + 365 * 86400)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)

        rc = main(["validate", "--config", _damaged(cli_bundle, tmp_path, shift_meter)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "no temporal overlap between series" in err

    def test_unreadable_trends_exit_two(self, cli_bundle, tmp_path, capsys):
        def dir_in_the_way(work):
            os.remove(work / "trends.csv")
            os.mkdir(work / "trends.csv")

        rc = main(["validate", "--config",
                   _damaged(cli_bundle, tmp_path, dir_in_the_way)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("io error:")

    @pytest.mark.parametrize("column, cell", [
        (0, "2.5"),  # non-integer rule
        (3, "last tuesday"),  # unparsable window start
        (5, "high"),  # non-numeric statistic
        (0, "7"),  # a rule id no rule has
    ], ids=["rule", "timestamp", "statistic", "unknown-rule"])
    def test_damaged_findings_refused(self, cli_bundle, tmp_path, capsys, column, cell):
        conf = _damaged(cli_bundle, tmp_path, lambda work: None)
        assert main(["fit", "--config", conf]) == 0
        cfg = load_run_config(conf)
        start = parse_timestamp("2026-01-05T00:00:00+00:00")
        write_findings([FaultFinding(1, "economizer stuck", "AH1", start, start + 7 * 86400,
                                     0.1, 0.5, "planted")], cfg.findings_path)
        with open(cfg.findings_path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][column] = cell
        with open(cfg.findings_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()

        rc = main(["report", "--config", conf])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cfg.findings_path}:2: ")

    def test_blank_line_in_findings_changes_no_output(self, cli_bundle, tmp_path, capsys):
        conf = _damaged(cli_bundle, tmp_path, lambda work: None)
        cfg = load_run_config(conf)

        def report():
            assert main(["report", "--config", conf]) == 0
            return capsys.readouterr().out, {
                name: (Path(cfg.output_dir) / name).read_bytes()
                for name in ("report.csv", "impacts.csv")}

        assert main(["fit", "--config", conf]) == 0
        assert main(["detect", "--config", conf]) == 0
        capsys.readouterr()
        want = report()
        assert want[1]["report.csv"].count(b"\r\n") > 1  # some finding is ranked
        with open(cfg.findings_path, "a", encoding="utf-8", newline="") as fh:
            fh.write("\r\n")
        assert report() == want

    @pytest.mark.parametrize("filename, line, command", [
        ("trends.csv", b"2026-01-05T00:00:00+00:00,B1.caf\xe9,1.0\r\n", "validate"),
        ("run.conf", b"; caf\xe9\n", "validate"),
        ("topology.ini", b"; caf\xe9\n", "validate"),
        ("points.csv", b"B1.caf\xe9,caf\xe9,degF\r\n", "validate"),
        ("model.ini", b"; caf\xe9\n", "estimate"),
        ("findings.csv", b"caf\xe9\r\n", "report"),
        ("reference_year.csv", b"1,caf\xe9\r\n", "report"),
    ], ids=["csv", "ini", "topology", "points", "model", "findings", "reference-year"])
    def test_non_utf8_input_exits_one(self, cli_bundle, tmp_path, capsys, filename, line,
                                      command):
        # each reader refuses its own file by name; the model and the
        # findings are written by the commands before the one that reads them
        conf = _damaged(cli_bundle, tmp_path,
                        lambda work: shutil.rmtree(work / "out", ignore_errors=True))
        for earlier in {"estimate": ["fit"], "report": ["fit", "detect"]}.get(command, []):
            assert main([earlier, "--config", conf]) == 0
        path = Path(conf).parent / filename
        before = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(line)
        capsys.readouterr()
        rc = main([command, "--config", conf])
        err = capsys.readouterr().err
        # the appended line is the file's last, and the position its byte
        # offset in the whole file
        lineno = before.count(b"\n") + 1
        offset = len(before) + line.index(b"\xe9")
        assert (rc, err) == (1, f"error: {path}:{lineno}: 'utf-8' codec can't decode byte "
                                f"0xe9 in position {offset}: invalid continuation byte\n")
        if command == "validate":  # refused before or while the trends are parsed
            assert not (Path(conf).parent / "out" / TRENDS_CACHE_NAME).exists()

    @pytest.mark.parametrize("filename, record, command", [
        ("trends.csv", "2026-01-05T00:00:00+00:00,{cell},1.0", ["validate", "--strict"]),
        ("points.csv", "B1.X,{cell},degF", ["validate"]),
        ("reference_year.csv", "1,{cell}", ["report"]),
        ("findings.csv", "2,{cell},AH1,2026-01-05T00:00:00+00:00,"
                         "2026-01-12T00:00:00+00:00,-13.0,-5.0,x", ["report"]),
    ], ids=["trends", "points", "reference-year", "findings"])
    def test_cell_over_the_field_limit_exits_one(self, cli_bundle, tmp_path, capsys,
                                                 filename, record, command):
        # csv's own error becomes the reader's refusal, naming path:line
        conf = _damaged(cli_bundle, tmp_path,
                        lambda work: shutil.rmtree(work / "out", ignore_errors=True))
        if command == ["report"]:
            assert main(["fit", "--config", conf]) == 0
            assert main(["detect", "--config", conf]) == 0
        path = Path(conf).parent / filename
        line = path.read_bytes().count(b"\n") + 1
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write(record.format(cell="x" * 140_000) + "\r\n")
        capsys.readouterr()
        rc = main([*command, "--config", conf])
        err = capsys.readouterr().err
        assert (rc, err) == (1, f"error: {path}:{line}: field larger than field limit "
                                f"(131072)\n")

    @pytest.mark.parametrize("section, key, value, message", [
        ("vav VAV1-01", "min_flow_cfm", "lots", "could not convert string to float: 'lots'"),
        ("vav VAV1-01", "zone_upper_limit_f", "7 6",
         "could not convert string to float: '7 6'"),
        ("building", "occupied_weekdays_only", "maybe", "Not a boolean: maybe"),
        ("building", "occupied_schedule", "7-19", "expected HH:MM-HH:MM, got '7-19'"),
        ("rules", "rule1", "junk", "expected 'PATTERN -> kind Role', got 'junk'"),
        ("vav VAV1-01", "min_flow_cfm", "nan", "not a finite number: 'nan'"),
    ], ids=["min-flow", "zone-limit", "weekdays-only", "schedule", "rule", "min-flow-nan"])
    def test_bad_typed_topology_value_exits_one(self, cli_bundle, tmp_path, capsys,
                                                section, key, value, message):
        # the first occurrence of key is in section
        conf = _damaged(cli_bundle, tmp_path, lambda work: None)
        path = Path(conf).parent / "topology.ini"
        text, n = re.subn(f"^{key} = .*$", f"{key} = {value}",
                          path.read_text(encoding="utf-8"), count=1, flags=re.M)
        assert n == 1
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        for command in ("validate", "fit"):
            rc = main([command, "--config", conf])
            assert (rc, capsys.readouterr().err) == (
                1, f"error: {path}: [{section}] {key}: {message}\n")

    @pytest.mark.parametrize("filename", ["model.ini", "run.conf"])
    @pytest.mark.parametrize("key, value", [("air_power_k", "-1.08"), ("mode_deadband_f", "-3")])
    def test_constants_out_of_range_refused(self, cli_bundle, tmp_path, capsys,
                                            filename, key, value):
        # run.conf and model.ini each carry the physical constants, and
        # estimate reads both
        conf = _damaged(cli_bundle, tmp_path, lambda work: None)
        assert main(["fit", "--config", conf]) == 0
        path = os.path.join(os.path.dirname(conf), filename)
        with open(path, encoding="utf-8") as fh:
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", fh.read(), flags=re.M)
        assert n == 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        capsys.readouterr()

        rc = main(["estimate", "--config", conf])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert path in err and "physical constants out of range" in err

    def test_split_fraction_out_of_range_fails_validate(self, cli_bundle, tmp_path, capsys):
        def whole_and_more(work):
            path = work / "run.conf"
            text = re.sub("^split_fraction = .*$", "split_fraction = 2",
                          path.read_text(encoding="utf-8"), flags=re.M)
            path.write_text(text, encoding="utf-8")

        conf = _damaged(cli_bundle, tmp_path, whole_and_more)
        rc = main(["validate", "--config", conf])
        assert (rc, capsys.readouterr().err) == (
            1, f"error: {conf}: [fit] split_fraction: must be in (0, 1], got 2.0\n")

    @pytest.mark.parametrize("value, runs", [
        # the power overflows to inf and the row drops out like a gap; the
        # flow statistics of detection and the loss correlation of report
        # leave out the non-finite rows, and an overflowing square is inf
        ("1.7e308", (("fit", 0, ""), ("detect", 0, ""), ("report", 0, ""),
                     ("estimate", 0, ""))),
        # the power is finite, but this one row then sets both features of
        # the VAV-side balance, which leaves them collinear to the last bit
        ("1e307", (("fit", 1, "error: cooling_vav: features are collinear or constant: "
                              "column 'c1' adds no independent information\n"),
                   ("detect", 0, ""))),
    ], ids=["overflow", "huge"])
    def test_huge_flow_reading_prints_no_warning(self, faulted_bundle, tmp_path, value, runs):
        work = _huge_first_flow(faulted_bundle, tmp_path, value)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for command, code, err in runs:
            done = subprocess.run(
                [sys.executable, "-m", "hvacdisagg.cli", command, "--config",
                 str(work / "run.conf")], capture_output=True, text=True, env=env)
            assert (done.returncode, done.stderr) == (code, err), command

    def test_overflow_in_an_economizer_window_prints_no_warning(self, faulted_bundle, tmp_path):
        # inside AH1's economizer finding window the overflowing flow sum
        # makes both coil powers inf on one row; the counterfactual's inf
        # less inf stays quiet, and that row makes the one finding not
        # estimable
        work = _huge_first_flow(faulted_bundle, tmp_path, "1.7e308",
                                at=re.escape("2026-01-10T04:45:00+00:00"))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for command in ("fit", "detect", "report"):
            done = subprocess.run(
                [sys.executable, "-m", "hvacdisagg.cli", command, "--config",
                 str(work / "run.conf")], capture_output=True, text=True, env=env)
            assert (done.returncode, done.stderr) == (0, ""), command
        assert ("not estimable: rule 1 AH1: energy loss is not finite on 1 row(s) "
                "of the finding window\n") in done.stdout

    def test_overflowing_loss_is_not_estimable(self, faulted_bundle, tmp_path, capsys):
        # the 1.7e308 row fires VAV1-01's damper rule at an infinite RMS error
        # and makes its loss inf on that row; report calls that one finding
        # not estimable instead of writing NaN beside a finite r
        conf = str(_huge_first_flow(faulted_bundle, tmp_path, "1.7e308") / "run.conf")
        for command in ("fit", "detect", "report"):
            assert main([command, "--config", conf]) == 0
        out = capsys.readouterr().out
        assert ("not estimable: rule 5 VAV1-01: energy loss is not finite on 1 row(s) "
                "of the finding window\n") in out
        with open(tmp_path / "bundle" / "out" / "impacts.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["equipment"], r["method"]) for r in rows if r["rule"] == "5"] == [
            ("VAV3-02", "setpoint-ideal"), ("VAV1-01", "not-estimable")]
        numbers = [float(r[key]) for r in rows if r["method"] != "not-estimable"
                   for key in ("observed_mmbtu", "annual_mmbtu", "slope", "intercept", "r")
                   if r[key]]
        assert len(numbers) > 20 and np.isfinite(numbers).all()

    def test_comparison_rows_are_the_scored_rows(self, faulted_bundle, tmp_path, capsys):
        # rmse leaves out non-finite rows, so a comparison file holds only
        # finite rows and its printed count is the count rmse scored
        work = _huge_first_flow(faulted_bundle, tmp_path, "1.7e308")
        conf = str(work / "run.conf")
        assert main(["fit", "--config", conf]) == 0
        assert main(["estimate", "--config", conf]) == 0
        printed = dict(re.findall(r"^(\w+_comparison\.csv): (\d+) rows", capsys.readouterr().out,
                                  flags=re.M))
        assert len(printed) == 3
        for name, count in printed.items():
            with open(work / "out" / name, encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            values = np.array([[float(v) for v in row[1:]] for row in rows])
            assert len(rows) == int(count) and np.isfinite(values).all(), name

    def test_repeated_config_section_exits_one(self, cli_bundle, tmp_path, capsys):
        def repeat_paths(work):
            with open(work / "run.conf", "a", encoding="utf-8") as fh:
                fh.write("\n[paths]\ntopology = topology.ini\n")

        conf = _damaged(cli_bundle, tmp_path, repeat_paths)
        line = Path(conf).read_text(encoding="utf-8").splitlines().index("[paths]", 1) + 1
        rc = main(["validate", "--config", conf])
        err = capsys.readouterr().err
        assert (rc, err) == (1, f"error: {conf}:{line}: duplicate section [paths]\n")

    @pytest.mark.parametrize("filename, section, key, value, command", [
        *(("run.conf", "thresholds", key, "nan", "detect")
          for key in ("flow_rmspe_pct", "cooling_mpe_pct", "heating_mpe_pct",
                      "occupied_flow_slack")),
        ("run.conf", "constants", "air_power_k", "inf", "fit"),
        ("model.ini", "coefficients", "c1", "nan", "estimate"),
        ("scenario.conf", "scenario", "oat_base_f", "nan", "synth"),
    ])
    def test_non_finite_setting_exits_one(self, cli_bundle, tmp_path, capsys,
                                          filename, section, key, value, command):
        conf = _damaged(cli_bundle, tmp_path, lambda work: None)
        work = Path(conf).parent
        (work / "scenario.conf").write_text("[scenario]\npreset = faulted\n",
                                            encoding="utf-8")
        if filename == "model.ini":
            assert main(["fit", "--config", conf]) == 0
        path = work / filename
        text, n = re.subn(f"^{key} = .*$", f"{key} = {value}",
                          path.read_text(encoding="utf-8"), flags=re.M)
        if not n:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        path.write_text(text, encoding="utf-8")
        argv = ([command, "--config", str(path), "--out", str(work / "bundle")]
                if command == "synth" else [command, "--config", conf])
        capsys.readouterr()
        rc = main(argv)
        assert (rc, capsys.readouterr().err) == (
            1, f"error: {path}: [{section}] {key}: not a finite number: '{value}'\n")

    def test_headerless_scenario_file_exits_one(self, tmp_path, capsys):
        spec = _write(tmp_path / "s.conf", "preset = impact\n")
        rc = main(["synth", "--config", spec, "--out", str(tmp_path / "bundle")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {spec}: ")
        assert "no section headers" in err
        assert not (tmp_path / "bundle").exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(tmp_path / "ghost.conf")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot read config file" in err
