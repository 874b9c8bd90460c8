"""Release acceptance gate.

One test per criterion, each stating its tolerance and runtime budget
inline; the pytest -v line for a test is the pass/fail record for that
criterion. Oracles are independent of the library: statistics against
naive pure-Python loops, coefficients against generator ground truth,
the damper waste against its closed form, annualization against a
direct clamped sum. Criteria that time an operation generate their own
scenario inside the timed window.
"""

import csv
import dataclasses
import math
import os
import shutil
import time
from collections import Counter

import numpy as np
import pytest

from conftest import counted_parses, fit_sub, load_bundle, mpe, rmspe
from hvacdisagg import synth
from hvacdisagg.building import PointRole, bind_points, load_metadata
from hvacdisagg.calibrate import fit_model, save_model
from hvacdisagg.cli import main
from hvacdisagg.config import load_run_config
from hvacdisagg.energy import assemble
from hvacdisagg.errors import AlignmentError, BindingError, UnitMismatchError
from hvacdisagg.faults import (
    RULE_NAMES,
    FaultFinding,
    Thresholds,
    run_all,
    write_findings,
)
from hvacdisagg.impact import METHOD_SETPOINT, annualize, estimate_impact
from hvacdisagg.ingest import (
    TRENDS_CACHE_NAME,
    format_timestamp,
    parse_timestamp,
    read_points,
    read_trends,
    write_trends,
)
from hvacdisagg.timeseries import Unit, pearson, rmse

RULE_BY_FAULT = {
    synth.FAULT_ECONOMIZER: 1,
    synth.FAULT_COOLING_LEAK: 2,
    synth.FAULT_HEATING_LEAK: 3,
    synth.FAULT_CONFIG: 4,
    synth.FAULT_DAMPER: 5,
}

# closed form for the stuck-damper scenario: 1.08 * 300 CFM * 19 degF
# * 168 h / 1e6, scaled onto the meter by the true c1 = 1.1
DAMPER_LOSS_ANALYTIC = 1.08 * 300.0 * 19.0 * 168.0 / 1e6 * 1.1


def _generated(tmp_path, name, spec):
    return load_bundle(synth.generate(spec, str(tmp_path / name)))


# --- criterion 1 -------------------------------------------------------
# brute-force references, naive on purpose

def _brute_rmse(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / len(a))


def _brute_pct(a, b, eps=1e-9):
    return [(x - y) / y * 100.0 for x, y in zip(a, b) if abs(y) >= eps]


def _brute_pearson(a, b):
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    sa = math.sqrt(sum((x - ma) ** 2 for x in a))
    sb = math.sqrt(sum((y - mb) ** 2 for y in b))
    return cov / (sa * sb)


def test_criterion_1_statistics_match_brute_force():
    """rmse/rmspe/mpe/pearson within 1e-9 relative on 100 random vectors."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    for case in range(100):
        n = int(rng.integers(2, 1001))
        a = rng.normal(60.0, 25.0, n)
        b = rng.normal(60.0, 25.0, n)
        la, lb = a.tolist(), b.tolist()
        pct = _brute_pct(la, lb)
        assert rmse(a, b) == pytest.approx(_brute_rmse(la, lb), rel=1e-9), case
        assert rmspe(a, b) == pytest.approx(
            math.sqrt(sum(p * p for p in pct) / len(pct)), rel=1e-9), case
        assert mpe(a, b) == pytest.approx(sum(pct) / len(pct), rel=1e-9), case
        assert pearson(a, b) == pytest.approx(_brute_pearson(la, lb), rel=1e-9), case
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"statistics oracle sweep took {elapsed:.2f}s"


# --- criteria 2 and 3 --------------------------------------------------

TRUE_COEFFS = dict(zip(
    (f"c{i}" for i in range(1, 9)),
    synth.ScenarioSpec().coefficients,
))


def test_criterion_2_noise_free_coefficient_recovery(tmp_path):
    """2 AHUs x 10 VAVs, 14 days, no noise: c1..c8 within 1e-6 relative."""
    t0 = time.perf_counter()
    loaded = _generated(tmp_path, "clean", synth.scenario_recovery())
    model = fit_model(loaded.data)
    for name, want in TRUE_COEFFS.items():
        assert model[name] == pytest.approx(want, rel=1e-6), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"noise-free recovery took {elapsed:.2f}s"


def test_criterion_3_noisy_coefficient_recovery(tmp_path):
    """Same scenario with 1% meter noise: coefficients within 2% relative,
    test RMSE at or under the mean baseline, improvement at least 40%."""
    t0 = time.perf_counter()
    loaded = _generated(tmp_path, "noisy",
                        synth.scenario_recovery(meter_noise_rel=0.01))
    model = fit_model(loaded.data)
    for name, want in TRUE_COEFFS.items():
        assert model[name] == pytest.approx(want, rel=0.02), name
    for name, sub in model.submodels.items():
        assert sub.test_rmse <= sub.baseline_test_rmse, name
        assert sub.improvement_pct >= 40.0, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"noisy recovery took {elapsed:.2f}s"


# --- criterion 4 -------------------------------------------------------

def test_criterion_4_mode_filtering(mixed_loaded):
    """Every row the AHU-side cooling fit uses satisfies the cooling-mode
    predicate, and the row count equals the generator's count exactly."""
    data = mixed_loaded.data
    fit = fit_sub("cooling_ahu", data)

    # cooling-or-idle means no AHU is past the heating side of the
    # deadband; re-derive that from the raw per-AHU arrays
    rows = data.powers().cooling_rows
    for ahu in data.ahus.values():
        dt = ahu.mixed_temp[rows] - ahu.supply_temp[rows]
        assert np.all(dt > -0.5), ahu.ahu_id
    assert fit.n_train == int(rows.sum())
    assert fit.n_train == mixed_loaded.truth.n_cooling_rows


# --- criterion 5 -------------------------------------------------------

def test_criterion_5_detection_completeness(tmp_path):
    """One injected fault per rule type: exactly those five (rule,
    equipment) findings; the healthy twin at the same 2% noise is quiet."""
    t0 = time.perf_counter()
    faulted = _generated(tmp_path, "faulted", synth.scenario_faulted())
    healthy = _generated(tmp_path, "healthy", synth.scenario_healthy_twin())

    expected = {(RULE_BY_FAULT[inj.fault], inj.equipment)
                for inj in faulted.truth.injections}
    assert len(expected) == 5

    result = run_all(faulted.data)
    assert {(f.rule, f.equipment) for f in result.findings} == expected
    assert len(result.findings) == 5

    quiet = run_all(healthy.data)
    assert quiet.findings == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"detection run took {elapsed:.2f}s"


# --- criterion 6 -------------------------------------------------------

# rule it guards, then the values from the default outward; loosening a
# limit may only ever shrink that rule's finding count
_SWEEPS = [
    ("correlation_min", 1, (0.5, 0.3, 0.1)),
    ("cooling_mpe_pct", 2, (-5.0, -10.0, -20.0)),
    ("heating_mpe_pct", 3, (5.0, 10.0, 20.0)),
    ("config_violation_fraction", 4, (0.9, 0.95, 0.99)),
    ("flow_rmspe_pct", 5, (20.0, 40.0, 80.0)),
]


def test_criterion_6_threshold_monotonicity(faulted_loaded):
    data = faulted_loaded.data
    for knob, rule, values in _SWEEPS:
        counts = []
        for value in values:
            th = dataclasses.replace(Thresholds(), **{knob: value})
            found = run_all(data, th).findings
            counts.append(Counter(f.rule for f in found)[rule])
        for tight, loose in zip(counts, counts[1:]):
            assert loose <= tight, (knob, values, counts)


# --- criterion 7 -------------------------------------------------------

def test_criterion_7_impact_accuracy(impact_loaded):
    """Stuck-damper loss within 10% of its closed form; annualization of
    the law 0.1*OAT - 4 within 1e-6 of direct summation."""
    model = fit_model(impact_loaded.data)
    (inj,) = impact_loaded.truth.injections
    finding = FaultFinding(rule=5, rule_name=RULE_NAMES[5],
                           equipment=inj.equipment, window_start=inj.start,
                           window_end=inj.end, statistic=0.0, threshold=0.0)
    est = estimate_impact(finding, model, impact_loaded.data, impact_loaded.reference_oat)
    assert est.method == METHOD_SETPOINT
    assert est.observed_mmbtu == pytest.approx(DAMPER_LOSS_ANALYTIC, rel=0.10)

    oat = np.linspace(35.0, 70.0, 28)
    losses = 0.1 * oat - 4.0
    reference = impact_loaded.reference_oat
    want = sum(max(0.0, 0.1 * float(x) - 4.0) for x in reference)
    res = annualize(losses, oat, reference)
    assert res.annual_mmbtu == pytest.approx(want, rel=1e-6)


# --- criterion 8 -------------------------------------------------------

def test_criterion_8a_bundle_byte_identical(tmp_path):
    a = synth.generate(synth.scenario_faulted(), str(tmp_path / "a"))
    b = synth.generate(synth.scenario_faulted(), str(tmp_path / "b"))
    names = sorted(os.listdir(a.out_dir))
    assert names == sorted(os.listdir(b.out_dir))
    for name in names:
        with open(os.path.join(a.out_dir, name), "rb") as fa, \
                open(os.path.join(b.out_dir, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_criterion_8b_trend_round_trip(impact_loaded, tmp_path):
    path = str(tmp_path / "trends.csv")
    unique = {s.point_id: s for s in impact_loaded.series.values()}
    write_trends(list(unique.values()), path)
    reread, _ = read_trends(path, impact_loaded.binding, impact_loaded.data.interval_s)
    assert set(reread) == set(impact_loaded.series)
    for slot, original in impact_loaded.series.items():
        got = reread[slot]
        assert got.start == original.start
        assert got.interval_s == original.interval_s
        assert np.array_equal(got.values, original.values, equal_nan=True), slot


def test_criterion_8c_report_order_independent(faulted_loaded, tmp_path, capsys):
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(faulted_loaded.bundle.out_dir, bundle_dir)
    conf = str(bundle_dir / "run.conf")

    model = fit_model(faulted_loaded.data)
    save_model(model, str(bundle_dir / "model.ini"))
    findings = list(run_all(faulted_loaded.data).findings)

    outputs = []
    for ordering in (findings, findings[::-1], findings[2:] + findings[:2]):
        write_findings(ordering, str(bundle_dir / "findings.csv"))
        assert main(["report", "--config", conf]) == 0
        stdout = capsys.readouterr().out
        blobs = {name: (bundle_dir / "out" / name).read_bytes()
                 for name in ("report.csv", "impacts.csv")}
        outputs.append((stdout, blobs))
    first = outputs[0]
    for other in outputs[1:]:
        assert other == first


def test_criterion_8d_warm_trend_cache_changes_no_byte(impact_bundle, tmp_path, capsys):
    """The README sequence plus estimate, on a fresh output directory and
    again on the warm trend cache the first pass left: every output file
    and every stdout byte-identical, one trend parse in all. A warm cache
    never stands in for a missing trend file: that stays an I/O error."""
    work = tmp_path / "bundle"
    shutil.copytree(impact_bundle.out_dir, work)
    conf = str(work / "run.conf")
    cache = work / "out" / TRENDS_CACHE_NAME

    def run_all_commands():
        stdouts = []
        for command in ("validate", "fit", "detect", "report", "estimate"):
            assert main([command, "--config", conf]) == 0, command
            stdouts.append(capsys.readouterr().out)
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file() and p != cache}
        return stdouts, files

    shutil.rmtree(work / "out", ignore_errors=True)
    with counted_parses() as parses:
        cold = run_all_commands()
        assert len(parses) == 1 and cache.is_file()
        warm = run_all_commands()
        assert len(parses) == 1
    assert warm[0] == cold[0]
    assert list(warm[1]) == list(cold[1])
    for name, blob in cold[1].items():
        assert warm[1][name] == blob, name

    os.remove(work / "trends.csv")
    assert main(["fit", "--config", conf]) == 2
    assert capsys.readouterr().err.startswith("io error:")


# --- criterion 9 -------------------------------------------------------

def _copy_bundle(bundle, tmp_path, name):
    work = tmp_path / name
    shutil.copytree(bundle.out_dir, work)
    return work


def test_criterion_9_named_validation_errors(impact_bundle, tmp_path, capsys):
    """Missing meter point, unit-mismatched binding, and disjoint time
    ranges raise their named errors and exit with code 1; an unreadable
    file is an I/O failure and exits with code 2."""
    graph = load_metadata(impact_bundle.topology_path)
    points = read_points(impact_bundle.points_path)

    with pytest.raises(BindingError, match="not in the point inventory"):
        bind_points(graph, [p for p in points if "CLG-MTR" not in p.point_id])

    mangled = [dataclasses.replace(p, unit=Unit.DEG_F)
               if "CLG-MTR" in p.point_id else p for p in points]
    with pytest.raises(UnitMismatchError, match="must be mmbtu_hr"):
        bind_points(graph, mangled)

    binding = bind_points(graph, points)
    interval_s = load_run_config(impact_bundle.run_config_path).interval_s
    series, _ = read_trends(impact_bundle.trends_path, binding, interval_s)
    slot = ("B1", PointRole.BUILDING_COOLING_POWER)
    series[slot] = dataclasses.replace(
        series[slot], start=series[slot].start + 365 * 86400)
    with pytest.raises(AlignmentError, match="no temporal overlap between series"):
        assemble(graph, binding, series)

    # the same failures through the command line, one exit code each
    def damaged(name, edit):
        work = _copy_bundle(impact_bundle, tmp_path, name)
        edit(work)
        return str(work / "run.conf")

    def drop_meter(work):
        path = work / "points.csv"
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if "CLG-MTR" not in r[0]]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def shift_meter(work):
        path = work / "trends.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if row[1] == "B1.CLG-MTR":
                row[0] = format_timestamp(parse_timestamp(row[0]) + 365 * 86400)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def unreadable(work):
        os.remove(work / "trends.csv")
        os.mkdir(work / "trends.csv")

    assert main(["validate", "--config", damaged("missing", drop_meter)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["validate", "--config", damaged("disjoint", shift_meter)]) == 1
    assert "no temporal overlap" in capsys.readouterr().err
    assert main(["validate", "--config", damaged("io", unreadable)]) == 2
    assert capsys.readouterr().err.startswith("io error:")


def test_criterion_9b_validate_reports_what_assemble_used(faulted_bundle, tmp_path, capsys):
    """validate on a bundle where one VAV's flow point no longer matches a
    rule (and its zone temp has a duplicate claimant) and another VAV's
    occupancy rows are gone: the excluded VAV is reported once, every
    fallback assemble took gets one line, and no warning prints twice."""
    work = _copy_bundle(faulted_bundle, tmp_path, "degraded")
    with open(work / "points.csv", newline="") as fh:
        rows = [r if r[0] != "B1.VAV1-01.FLOW" else [r[0], "B1.VAV1-01.FLOW-OLD", r[2]]
                for r in csv.reader(fh)]
    rows.append(["B1.VAV1-01.ZN-T2", "B1.VAV1-01.ZN-T", "degF"])
    with open(work / "points.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    trends = work / "trends.csv"
    with open(trends, newline="") as fh:
        kept = [line for line in fh if ",B1.VAV2-01.OCC," not in line]
    with open(trends, "w", newline="") as fh:
        fh.writelines(kept)

    assert main(["validate", "--config", str(work / "run.conf")]) == 0
    out = capsys.readouterr().out.splitlines()

    graph = load_metadata(str(work / "topology.ini"))
    binding = bind_points(graph, read_points(str(work / "points.csv")))
    series, _ = read_trends(str(trends), binding,
                            load_run_config(str(work / "run.conf")).interval_s)
    data = assemble(graph, binding, series)
    assert ("VAV2-01", PointRole.OCCUPIED_CMD, "occupancy-schedule") in data.fallbacks_used
    assert [line for line in out if line.startswith("fallback: ")] == [
        f"fallback: {unit} {role.name} <- {tag}" for unit, role, tag in data.fallbacks_used]
    warnings = [line for line in out if line.startswith("warning: ")]
    assert warnings == [f"warning: {w}" for w in data.warnings]
    assert [w for w, n in Counter(warnings).items() if n > 1] == []
    assert any("duplicate claimant" in w for w in warnings)
    assert [w for w in warnings if "excluded" in w] == [
        "warning: VAV 'VAV1-01' excluded from sums: no supply flow"]
