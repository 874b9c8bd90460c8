"""Command line front end.

One config file, explicit subcommands, stable exit codes: 0 success,
1 validation or fit error (or input that is not UTF-8), 2 I/O error or
a bad command line. Output files are derived purely
from the inputs, never from the wall clock, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .building import bind_points, load_metadata
from .calibrate import SUBMODELS, fit_model, load_model, predictions, save_model
from .config import RunConfig, load_run_config, load_scenario_spec
from .energy import assemble
from .errors import ConfigError, DisaggError
from .faults import read_findings, run_all, write_findings
from .impact import build_report, estimate_all, format_report, format_table, prioritize, \
    write_impacts_csv, write_report_csv
from .ingest import _write_numeric_csv, format_timestamp, read_points, read_reference_year, \
    read_trends_cached, write_trends
from .synth import generate
from .timeseries import TimeSeries, Unit, rmse


def _load_building(cfg: RunConfig, strict: bool):
    """(data, binding, series, stats): the assembled frame first, then the
    binding and ingest results that validate reports on."""
    graph = load_metadata(cfg.topology_path)
    points = read_points(cfg.points_path)
    binding = bind_points(graph, points)
    series, stats = read_trends_cached(cfg.trends_path, binding, cfg.interval_s,
                                       strict, cfg.output_dir)
    return assemble(graph, binding, series), binding, series, stats


def _point_coverage(binding, series, data) -> list:
    """Non-gap fraction per bound point over the assembled frame."""
    by_point: dict = {}
    for slot, point_id in binding.bindings.items():
        if point_id in by_point:
            continue
        ts = series.get(slot)
        if ts is None:
            by_point[point_id] = 0.0
            continue
        stamps = ts.timestamps()
        in_frame = (stamps >= data.start) & (stamps < data.end)
        good = int(np.count_nonzero(~np.isnan(ts.values[in_frame])))
        by_point[point_id] = good / data.n_rows if data.n_rows else 0.0
    return sorted(by_point.items())


def cmd_validate(cfg, data, binding, series, stats) -> int:
    """check topology, point binding, and trend coverage"""
    graph = data.graph
    print(f"building {graph.building_id}: "
          f"{len(graph.ahus)} AHU(s), {len(graph.vavs)} VAV(s)")
    print(f"points bound: {len(set(binding.bindings.values()))} "
          f"({len(binding.bindings)} slots)")
    print(f"trend rows: {stats.rows}, skipped: {stats.skipped}, "
          f"duplicates: {stats.duplicates}, unknown points: {stats.unknown_points}")
    print(f"frame: {data.n_rows} rows at {data.interval_s}s, "
          f"{format_timestamp(data.start)} .. {format_timestamp(data.end)}")

    gaps = [(pid, cov) for pid, cov in _point_coverage(binding, series, data)
            if cov < 0.99]
    if gaps:
        print("coverage warnings:")
        for pid, cov in gaps:
            print(f"  {pid}: {100.0 * cov:.1f}% of frame rows")
    else:
        print("coverage: all bound points above 99%")

    for msg in stats.messages:
        print(f"note: {msg}")
    for msg in data.warnings:
        print(f"warning: {msg}")
    for equip, role, fallback in data.fallbacks_used:
        print(f"fallback: {equip} {role.name} <- {fallback}")
    print("validation passed")
    return 0


_DIAG_COLUMNS = ("sub-model", "n_train", "train RMSE", "train baseline",
                 "n_test", "test RMSE", "test baseline", "improvement")


def _diagnostics_table(model) -> str:
    rows = []
    for name, sub in sorted(model.submodels.items()):
        rows.append((
            name, str(sub.n_train),
            f"{sub.train_rmse:.6g}", f"{sub.baseline_train_rmse:.6g}",
            "-" if sub.n_test is None else str(sub.n_test),
            "-" if sub.test_rmse is None else f"{sub.test_rmse:.6g}",
            "-" if sub.baseline_test_rmse is None else f"{sub.baseline_test_rmse:.6g}",
            "-" if sub.improvement_pct is None else f"{sub.improvement_pct:.1f}%",
        ))
    return format_table(_DIAG_COLUMNS, rows)


def cmd_fit(cfg, data, *_) -> int:
    """calibrate the meter models and write the model file"""
    model = fit_model(data, cfg.split_fraction, cfg.constants)
    save_model(model, cfg.model_path)

    print("coefficients: " + "  ".join(
        f"{name}={model[name]:.6g}" for name in sorted(model.coefficients)))
    train_s, train_e = model.train_window
    print(f"train window: {format_timestamp(train_s)} .. {format_timestamp(train_e)}")
    if model.test_window is not None:
        test_s, test_e = model.test_window
        print(f"test window:  {format_timestamp(test_s)} .. {format_timestamp(test_e)}")
        overlap = "disjoint" if train_e <= test_s or test_e <= train_s else "OVERLAPPING"
        print(f"train/test windows: {overlap}")
    else:
        print("test window:  none (all rows used for training)")
    print(_diagnostics_table(model))
    for msg in model.warnings:
        print(f"warning: {msg}")
    print(f"model written to {cfg.model_path}")
    return 0


def _write_comparison(path: str, stamps, estimated: np.ndarray,
                      measured: np.ndarray) -> None:
    """stamps: int64 epochs, or their text."""
    _write_numeric_csv(path, ["timestamp", "estimated", "measured"],
                       [(stamps, estimated, measured)])


def cmd_estimate(cfg, data, *_) -> int:
    """write per-equipment power series and meter comparisons"""
    model = load_model(cfg.model_path)
    os.makedirs(cfg.output_dir, exist_ok=True)
    powers = data.powers(model.constants)
    bid = data.graph.building_id

    def series(point_id, values):
        return TimeSeries(point_id=point_id, start=data.start,
                          interval_s=data.interval_s, unit=Unit.MMBTU_HR,
                          values=np.asarray(values, float))

    # raw physics powers per equipment; building-level scaling lives in the
    # comparison files, so these stay additive across equipment
    out_series = []
    for vav_id, power in powers.vav_cooling.items():
        out_series.append(series(f"{bid}.{vav_id}.CLG-POWER", power))
    for vav_id, power in powers.vav_heating.items():
        out_series.append(series(f"{bid}.{vav_id}.RH-POWER", power))
    for ahu_id, (cooling, heating) in powers.ahu_coil.items():
        out_series.append(series(f"{bid}.{ahu_id}.CLG-POWER", cooling))
        out_series.append(series(f"{bid}.{ahu_id}.HTG-POWER", heating))
    for ahu_id, econ in powers.economizer.items():
        out_series.append(series(f"{bid}.{ahu_id}.ECON-POWER", econ))
    powers_path = os.path.join(cfg.output_dir, "equipment_powers.csv")
    write_trends(out_series, powers_path)
    print(f"per-equipment powers: {powers_path} ({len(out_series)} series)")

    # each sub-model is compared only where its balance applies, mirroring
    # the fit diagnostics: VAV cooling on every row, AHU cooling where every
    # AHU is cooling or idle, heating where every AHU is heating or idle
    stamps = np.array([format_timestamp(e) for e in data.timestamps().tolist()],
                      dtype=object)
    for name, estimated in predictions(model, powers).items():
        spec = SUBMODELS[name]
        measured = getattr(data, spec.meter)
        keep = spec.mode_rows(powers) & np.isfinite(estimated) & np.isfinite(measured)
        filename = f"{name}_comparison.csv"
        _write_comparison(os.path.join(cfg.output_dir, filename),
                          stamps[keep], estimated[keep], measured[keep])
        score = rmse(estimated[keep], measured[keep]) if keep.any() else float("nan")
        print(f"{filename}: {int(keep.sum())} rows, rmse {score:.6g} MMBTU/hr")
    return 0


def cmd_detect(cfg, data, *_) -> int:
    """run the fault rules and write the findings file"""
    result = run_all(data, cfg.thresholds)
    write_findings(result.findings, cfg.findings_path)

    os.makedirs(cfg.output_dir, exist_ok=True)
    log_path = os.path.join(cfg.output_dir, "inconclusive.log")
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        for note in result.inconclusive:
            fh.write(f"rule {note.rule} {note.equipment}: {note.reason}\n")

    for w in result.warnings:
        print(f"warning: {w}")
    for f in result.findings:
        print(f"rule {f.rule} ({f.rule_name}) {f.equipment}: "
              f"statistic {f.statistic:.4g} vs threshold {f.threshold:.4g}, "
              f"{format_timestamp(f.window_start)} .. {format_timestamp(f.window_end)}")
    print(f"{len(result.findings)} finding(s), "
          f"{len(result.inconclusive)} inconclusive (see {log_path})")
    print(f"findings written to {cfg.findings_path}")
    return 0


def cmd_report(cfg, data, *_) -> int:
    """rank findings by annual energy waste"""
    model = load_model(cfg.model_path)
    findings = read_findings(cfg.findings_path)
    reference = read_reference_year(cfg.reference_year_path)

    ordered = prioritize(estimate_all(findings, model, data, reference, cfg.thresholds))
    os.makedirs(cfg.output_dir, exist_ok=True)
    impacts_path = os.path.join(cfg.output_dir, "impacts.csv")
    write_impacts_csv(ordered, impacts_path)
    rows = build_report(ordered)
    report_path = os.path.join(cfg.output_dir, "report.csv")
    write_report_csv(rows, report_path)

    sys.stdout.write(format_report(rows))
    skipped = [e for e in ordered if not e.estimable]
    for est in skipped:
        print(f"not estimable: rule {est.finding.rule} "
              f"{est.finding.equipment}: {est.notes}")
    print(f"report written to {report_path}; per-finding detail in {impacts_path}")
    return 0


def cmd_synth(args) -> int:
    """generate a synthetic scenario bundle"""
    if args.out is None:
        raise ConfigError("synth needs --out for the bundle directory")
    spec = load_scenario_spec(args.config, seed=args.seed)
    bundle = generate(spec, args.out)
    print(f"scenario bundle in {bundle.out_dir} "
          f"(seed {spec.seed}, {spec.n_ahus} AHU(s) x {spec.n_vavs_per_ahu} VAV(s), "
          f"{spec.duration_days} days, {len(spec.faults)} injection(s))")
    for path in (bundle.topology_path, bundle.points_path, bundle.trends_path,
                 bundle.reference_year_path, bundle.ground_truth_path,
                 bundle.truth_powers_path, bundle.run_config_path):
        print(f"  {path}")
    return 0


# in `hvacdisagg --help` order; every command but synth runs on one loaded building
_COMMANDS = (cmd_validate, cmd_fit, cmd_estimate, cmd_detect, cmd_report, cmd_synth)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvacdisagg",
        description="meter disaggregation and fault detection for HVAC trend data")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for func in _COMMANDS:
        sp = sub.add_parser(func.__name__.removeprefix("cmd_"), help=func.__doc__)
        sp.set_defaults(func=func)
        if func is cmd_synth:
            sp.add_argument("--config", required=True, help="scenario spec")
            sp.add_argument("--out", default=None, help="bundle directory (required)")
            sp.add_argument("--seed", type=int, default=None,
                            help="override the scenario seed")
        else:
            sp.add_argument("--config", required=True, help="run config")
            sp.add_argument("--out", default=None, help="override output directory")
            sp.add_argument("--strict", action="store_true",
                            help="fail on malformed trend rows instead of skipping")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_synth:
            return cmd_synth(args)
        cfg = load_run_config(args.config)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, output_dir=args.out)
        if args.func is cmd_validate:
            cfg.check_inputs_exist()
        return args.func(cfg, *_load_building(cfg, args.strict))
    except DisaggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
