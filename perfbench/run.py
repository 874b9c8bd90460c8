"""Benchmark of the hvacdisagg command line pipeline, timed from outside.

    python3 perfbench/run.py --workload long-2y --seed 202 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Run from a checkout of the repository; the package is imported from its
`src/`. For each workload the benchmark writes a scenario spec, generates
bundles with `hvacdisagg synth --seed`, and runs `validate`, `fit`,
`detect`, `report` and `estimate` on them, each as its own process and one
at a time: a closed loop with one client. Every command's exit code, its
output digests and the workload's correctness check count as operations;
any that fails makes the result incorrect.

Two bundles are generated, from the given seed and from a held-out seed
derived from it, and the measured loop alternates between them, so every
check also holds on a seed nobody tuned against. Every other pair of
passes regenerates its bundle, which checks that `synth` is deterministic,
and runs `estimate`; the passes between run the four pipeline commands
only. Each time reported is the fastest sample of the run.

With `--trace 1` the loop alternates plain runs with runs of
`perfbench/traced_cli.py`, which calls `hvacdisagg.cli.main` in-process
under the span recorder of `perfbench/tracer.py`, and reports per-layer
metrics instead of end-to-end ones. The last line of standard output is a
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
Full results (samples, output digests, spans) go to
`.perfbench_results/<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import compileall
import configparser
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

PIPELINE = ("validate", "fit", "detect", "report")
COMMANDS = PIPELINE + ("estimate",)

# Each workload stresses a different layer. Sizes are cut so that one
# synth-pipeline-estimate pass takes 8-12 s on a shared 2-core machine,
# which leaves five to seven passes in a 55 s run.
WORKLOADS = {
    # 8 AHU x 10 VAV: 452 points per timestamp, so trend parsing is most of
    # every command. `recovery` because `faulted` cannot be generated this
    # wide; 10 days at 1800 s leaves detection four windows.
    "wide-80vav": {"scenario": {"preset": "recovery", "n_ahus": 8,
                                "n_vavs_per_ahu": 10, "duration_days": 10,
                                "interval_s": 1800},
                   "check": "coefficients"},
    # two years at a 6-hour interval: detection's one-day-step window sweep
    # grows with days x rows, so `run_all` is a large share of `detect`
    # while every other command parses a modest file.
    "long-2y": {"scenario": {"preset": "faulted", "duration_days": 730,
                             "interval_s": 21600},
                "check": "findings"},
}

DEFAULT_SEED = 202
HELD_OUT_OFFSET = 100_003
MIN_ITERATIONS = 3
COMMAND_TIMEOUT_S = 120
COEFFICIENT_RTOL = 1e-6
# CPU probe before each command: the fastest of a few ~7 ms loops per CPU
PROBE_LOOP = 100_000
PROBE_REPEATS = 4

# ground_truth.ini fault type -> the rule number findings.csv reports
FAULT_RULE = {"economizer_stuck": 1, "cooling_valve_leak": 2,
              "heating_valve_leak": 3, "config_error": 4, "damper_stuck": 5}

BUNDLE_FILES = ("topology.ini", "points.csv", "trends.csv",
                "reference_year.csv", "ground_truth.ini", "truth_powers.csv",
                "run.conf")
PIPELINE_FILES = ("model.ini", "findings.csv", "out/inconclusive.log",
                  "out/report.csv", "out/impacts.csv")
OUTPUT_FILES = PIPELINE_FILES + (
                "out/equipment_powers.csv", "out/cooling_vav_comparison.csv",
                "out/cooling_ahu_comparison.csv", "out/heating_comparison.csv")


class Ledger:
    """Operations attempted, and a description of each one that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


class Bundle:
    """One generated scenario bundle and the facts the checks need."""

    def __init__(self, seed: int, path: Path):
        self.seed = seed
        self.path = path
        self.conf = path / "run.conf"
        self.digests: dict | None = None
        with open(path / "trends.csv", "rb") as fh:
            self.trend_rows = sum(chunk.count(b"\n")
                                  for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        truth = configparser.ConfigParser(interpolation=None)
        truth.read(path / "ground_truth.ini", encoding="utf-8")
        self.coefficients = {k: float(v) for k, v in truth["coefficients"].items()}
        self.injected = sorted((FAULT_RULE[truth[s]["fault"]], truth[s]["equipment"])
                               for s in truth.sections()
                               if s.startswith("injection "))


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _probe_loop() -> float:
    start = time.process_time()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return time.process_time() - start


def quietest_cpu() -> int:
    """The CPU, of those this process may use, on which a short fixed loop
    runs fastest just now.

    On a shared host each virtual CPU is slowed by neighbours at its own
    times, often one while the other runs at full speed; the command then
    runs on the CPU least slowed at its start.
    """
    cpus = os.sched_getaffinity(0)
    best = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(_probe_loop() for _ in range(PROBE_REPEATS))
    finally:
        os.sched_setaffinity(0, cpus)
    return min(best, key=best.get)


def run_process(argv: list, log_path: Path, env: dict):
    """Run argv to completion, on the quietest CPU.

    Returns the exit code, the wall seconds, the CPU (user plus system)
    seconds and the peak RSS in MB of the process.
    """
    cpu = quietest_cpu()
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def prepare(env: dict) -> None:
    """Byte-compile the checkout's package and make sure it is the one imported."""
    if not (SRC / "hvacdisagg" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no hvacdisagg sources in {SRC}; "
                         "run it from a checkout of the repository")
    if not compileall.compile_dir(str(SRC / "hvacdisagg"), quiet=1):
        raise SystemExit("perfbench: hvacdisagg does not compile")
    found = subprocess.run(
        [sys.executable, "-c", "import hvacdisagg.cli; print(hvacdisagg.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    where = Path(found.stdout.strip() or "?").resolve()
    if found.returncode != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: hvacdisagg imports from {where}, not {SRC}: "
                         f"{found.stderr.strip()}")


class WorkloadRun:
    """One benchmark run of one workload: set-up, measured loop, checks."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool, env: dict):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.held_out_seed = seed + HELD_OUT_OFFSET
        self.seconds = seconds
        self.traced = traced
        self.env = env
        self.work = WORK_ROOT / f"{name}-{os.getpid()}"
        self.ledger = Ledger()
        self.setup_times = {"cpu": [], "wall": []}
        self.iterations: list = []   # one dict per pipeline-plus-estimate pass
        self.processes: list = []    # one dict per traced process
        self.rss: list = []
        self.digests: dict = {}

    # -- running commands ------------------------------------------------

    def command(self, args: list, seed: int, label: str, traced: bool):
        """Run one hvacdisagg command; return its CPU and wall seconds."""
        run_id = f"{self.name}/{seed}/{label}/{args[0]}"
        log = self.work / "command.log"
        if not traced:
            argv = [sys.executable, "-m", "hvacdisagg.cli", *args]
            code, wall, cpu, rss = run_process(argv, log, self.env)
        else:
            spans_path = self.work / "spans.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    "--spans", str(spans_path), "--run-id", run_id, "--", *args]
            code, wall, cpu, rss = run_process(argv, log, self.env)
            self.record_spans(args[0], seed, run_id, spans_path,
                              {"wall": wall, "cpu": cpu, "rss": rss})
        self.rss.append(rss)
        if not self.ledger.check(code == 0, f"{run_id}: exit code {code}"):
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
        return cpu, wall

    def record_spans(self, command: str, seed: int, run_id: str, path: Path,
                     usage: dict) -> None:
        if not self.ledger.check(path.is_file(), f"{run_id}: no spans written"):
            return
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        spans = trace["spans"]
        selfs = self_times(spans)
        root = spans[0]["end"] - spans[0]["start"] if spans else 0.0
        # every instant of the root span belongs to exactly one span's self time
        self.ledger.check(
            bool(spans) and spans[0]["parent"] is None
            and abs(sum(selfs) - root) <= 1e-6,
            f"{run_id}: span self times do not add up to the command's time")
        self.processes.append({"command": command, "seed": seed, "run": run_id,
                               **usage, "import_s": trace["import_s"],
                               "spans": spans, "self": selfs})

    # -- set-up ----------------------------------------------------------

    def synth(self, seed: int, out: Path, label: str, traced: bool) -> dict:
        """Generate one bundle, time it as set-up; return its files' digests."""
        cpu, wall = self.command(["synth", "--config", str(self.work / "scenario.conf"),
                                  "--out", str(out), "--seed", str(seed)],
                                 seed, label, traced)
        self.setup_times["cpu"].append(cpu)
        self.setup_times["wall"].append(wall)
        return {f: sha256(out / f) for f in BUNDLE_FILES}

    def setup(self) -> list:
        lines = ["[scenario]"] + [f"{k} = {v}" for k, v in self.spec["scenario"].items()]
        (self.work / "scenario.conf").write_text("\n".join(lines) + "\n", encoding="utf-8")
        bundles = []
        for label, seed in (("main", self.seed), ("held-out", self.held_out_seed)):
            inputs = self.synth(seed, self.work / label, f"setup-{label}", self.traced)
            self.ledger.check(None not in inputs.values(),
                              f"synth seed {seed} left out bundle files")
            self.digests[str(seed)] = {"bundle": inputs}
            bundles.append(Bundle(seed, self.work / label))
        return bundles

    # -- measured loop -----------------------------------------------------

    def iterate(self, index: int, bundle: Bundle, traced: bool, full: bool) -> None:
        """One pass: the README pipeline, after `synth` and followed by
        `estimate` if `full`, then the checks on what it wrote."""
        if full:
            # set-up is timed during the run like the commands; each
            # regeneration must reproduce the bundle byte for byte
            regen = self.work / "regenerated"
            inputs = self.synth(bundle.seed, regen, f"pass-{index}", traced)
            self.ledger.check(inputs == self.digests[str(bundle.seed)]["bundle"],
                              f"synth seed {bundle.seed} gave different bundles on two runs")
            shutil.rmtree(regen)
        for name in ("model.ini", "findings.csv"):
            (bundle.path / name).unlink(missing_ok=True)
        shutil.rmtree(bundle.path / "out", ignore_errors=True)
        cpu, wall = {}, {}
        for cmd in COMMANDS if full else PIPELINE:
            cpu[cmd], wall[cmd] = self.command([cmd, "--config", str(bundle.conf)],
                                               bundle.seed, f"pass-{index}", traced)

        files = OUTPUT_FILES if full else PIPELINE_FILES
        digests = {f: sha256(bundle.path / f) for f in files}
        if bundle.digests is None:
            bundle.digests = digests
            self.digests[str(bundle.seed)]["outputs"] = digests
        else:
            changed = sorted(f for f in files if digests[f] != bundle.digests[f])
            self.ledger.check(not changed, f"seed {bundle.seed} pass {index}: "
                                           f"outputs differ from the first pass: {changed}")
        if self.spec["check"] == "findings":
            self.ledger.check(*self.check_findings(bundle))
        else:
            self.ledger.check(*self.check_coefficients(bundle))
        self.iterations.append({"seed": bundle.seed, "traced": traced, "full": full,
                                "rows": bundle.trend_rows, "cpu": cpu, "wall": wall})

    def check_findings(self, bundle: Bundle):
        path = bundle.path / "findings.csv"
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                found = sorted((int(r["rule"]), r["equipment"]) for r in csv.DictReader(fh))
        except (OSError, KeyError, ValueError) as exc:
            return False, f"seed {bundle.seed}: cannot read {path}: {exc}"
        return (len(bundle.injected) == 5 and found == bundle.injected,
                f"seed {bundle.seed}: findings {found} != injected {bundle.injected}")

    def check_coefficients(self, bundle: Bundle):
        model = configparser.ConfigParser(interpolation=None)
        try:
            model.read(bundle.path / "model.ini", encoding="utf-8")
            fitted = {k: float(model["coefficients"][k]) for k in bundle.coefficients}
        except (KeyError, ValueError, configparser.Error) as exc:
            return False, f"seed {bundle.seed}: cannot read fitted coefficients: {exc}"
        worst = max(abs(fitted[k] - v) / abs(v) for k, v in bundle.coefficients.items())
        return (len(fitted) == 8 and worst <= COEFFICIENT_RTOL,
                f"seed {bundle.seed}: fitted coefficients off by {worst:.3g} relative")

    def run(self) -> dict:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        try:
            bundles = self.setup()
            main, held_out = bundles
            # (bundle, traced, full); each seed's first pass is full, so
            # that every output has a reference digest
            if self.traced:
                schedule = ((main, False, True), (held_out, True, True),
                            (main, True, True), (held_out, False, True))
            else:
                schedule = ((main, False, True), (held_out, False, True),
                            (main, False, False), (held_out, False, False))
            # no pass starts that would end after `seconds` if it took as
            # long as the slowest one so far
            start = time.perf_counter()
            index, slowest = 0, 0.0
            while (index < MIN_ITERATIONS
                   or time.perf_counter() - start + slowest <= self.seconds):
                began = time.perf_counter()
                self.iterate(index, *schedule[index % len(schedule)])
                slowest = max(slowest, time.perf_counter() - began)
                index += 1
            self.measured_s = time.perf_counter() - start
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self.layer_metrics() if self.traced else self.end_to_end_metrics()

    # -- metrics -----------------------------------------------------------

    def end_to_end_metrics(self) -> dict:
        """Fastest CPU seconds of each command; all samples are kept beside them.

        Neighbours on a shared host slow a process down and never speed it
        up, and how long they do so differs from run to run; the fastest
        sample is the one least disturbed. `pipeline_s` is the sum of the
        four commands' fastest samples.
        """
        def samples(clock):
            its = self.iterations
            pipeline = [sum(it[clock][c] for c in PIPELINE) for it in its]
            out = {"setup_s": self.setup_times[clock], "pipeline_s": pipeline}
            for cmd in COMMANDS:
                out[f"{cmd}_s"] = [it[clock][cmd] for it in its if cmd in it[clock]]
            out["trend_rows_per_s"] = [it["rows"] / p for it, p in zip(its, pipeline)]
            return out

        self.samples = {"cpu": samples("cpu"), "wall": samples("wall")}
        fastest = {k: min(v) for k, v in self.samples["cpu"].items()}
        metrics = {"setup_s": fastest["setup_s"],
                   "pipeline_s": sum(fastest[f"{c}_s"] for c in PIPELINE)}
        metrics["trend_rows_per_s"] = self.iterations[0]["rows"] / metrics["pipeline_s"]
        metrics.update((f"{c}_s", fastest[f"{c}_s"]) for c in COMMANDS)
        metrics["peak_rss_mb"] = max(self.rss)
        return metrics

    def layer_metrics(self) -> dict:
        med = statistics.median
        procs = self.processes

        def by_command(cmd):
            return [p for p in procs if p["command"] == cmd]

        def per_round(name, value):
            """Per pass (synth plus each command once): summed per command,
            median over that command's processes."""
            total = 0.0
            for cmd in ("synth",) + COMMANDS:
                per_proc = [sum(value(s, own) for s, own in zip(p["spans"], p["self"])
                                if s["name"] == name) for p in by_command(cmd)]
                if any(per_proc):
                    total += med(per_proc)
            return total

        def seconds(name):
            return per_round(name, lambda s, own: s["end"] - s["start"])

        def count(name, key):
            """Median count over the main seed's calls; the held-out bundle
            has the same size but other counts."""
            values = [s["counts"].get(key, 0) for p in procs if p["seed"] == self.seed
                      for s in p["spans"] if s["name"] == name]
            return med(values) if values else 0

        def share(name, cmd):
            return med(sum(s["end"] - s["start"] for s in p["spans"] if s["name"] == name)
                       / p["wall"] for p in by_command(cmd))

        m = {"cli.import_s": med(p["import_s"] for p in procs)}
        for cmd in COMMANDS:
            m[f"cli.{cmd}.self_s"] = med(p["self"][0] for p in by_command(cmd))
            m[f"cli.{cmd}.peak_rss_mb"] = med(p["rss"] for p in by_command(cmd))
        m["building.load_metadata.s"] = seconds("building.load_metadata")
        m["building.bind_points.s"] = seconds("building.bind_points")
        m["building.points"] = count("building.bind_points", "points")

        read_s = seconds("ingest.read_trends")
        rows = count("ingest.read_trends", "rows")
        m["ingest.read_trends.s"] = read_s
        m["ingest.read_trends.calls"] = per_round("ingest.read_trends", lambda s, own: 1)
        m["ingest.read_trends.rows_per_s"] = (
            per_round("ingest.read_trends", lambda s, own: s["counts"]["rows"]) / read_s)
        m["ingest.read_trends.share_of_validate"] = share("ingest.read_trends", "validate")
        m["ingest.rows"] = rows
        m["ingest.rows_skipped"] = count("ingest.read_trends", "rows_skipped")
        m["ingest.duplicates"] = count("ingest.read_trends", "duplicates")
        m["ingest.unknown_points"] = count("ingest.read_trends", "unknown_points")
        m["ingest.rows_per_timestamp"] = rows / count("ingest.read_trends", "timestamps")
        write_s = seconds("ingest.write_trends")
        m["ingest.write_trends.s"] = write_s
        m["ingest.write_trends.rows"] = per_round(
            "ingest.write_trends", lambda s, own: s["counts"]["rows"])
        m["ingest.write_trends.rows_per_s"] = m["ingest.write_trends.rows"] / write_s

        m["synth.generate.s"] = seconds("synth.generate")
        m["synth.generate.self_s"] = per_round("synth.generate", lambda s, own: own)
        m["energy.assemble.s"] = seconds("energy.assemble")
        m["energy.frame_rows"] = count("energy.assemble", "frame_rows")
        m["energy.units"] = count("energy.assemble", "units")
        m["calibrate.fit_model.s"] = seconds("calibrate.fit_model")
        for sub in ("cooling_vav", "cooling_ahu", "heating"):
            m[f"calibrate.{sub}.n_train"] = count("calibrate.fit_model", f"{sub}.n_train")
        m["faults.run_all.s"] = seconds("faults.run_all")
        m["faults.run_all.share_of_detect"] = share("faults.run_all", "detect")
        for key in ("row_mask_calls", "rows_masked", "findings", "inconclusive"):
            m[f"faults.{key}"] = count("faults.run_all", key)
        m["impact.estimate_all.s"] = seconds("impact.estimate_all")
        m["impact.estimable"] = count("impact.estimate_all", "estimable")
        m["impact.not_estimable"] = count("impact.estimate_all", "not_estimable")

        pipelines = {flag: [sum(it["cpu"][c] for c in PIPELINE) for it in self.iterations
                            if it["traced"] is flag] for flag in (False, True)}
        m["trace.overhead_s"] = med(pipelines[True]) - med(pipelines[False])
        return m


# -- reporting ---------------------------------------------------------------

def tail(values: list) -> str:
    """Fastest, median, then the highest percentile with at least ten samples
    beyond it."""
    n = len(values)
    text = f"fastest {min(values):.4g}, median {statistics.median(values):.4g}, n={n}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        return text + f", p{pct} {value:.4g}"
    return text + ", no tail percentile below n=20"


def declared_units(kind: str) -> dict:
    """Metric name -> unit for the "end_to_end" or "per_layer" list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(run: WorkloadRun, metrics: dict, units: dict) -> dict:
    """Print every metric by name and unit; return the result object.

    Metrics computed but not declared in BENCHMARK.json (the per-command
    times of a plain run) are printed and kept in the results file only.
    """
    if set(units) - set(metrics):
        raise RuntimeError(f"BENCHMARK.json declares {sorted(set(units) - set(metrics))}, "
                           "which this run does not compute")
    ledger = run.ledger
    print(f"== {run.name}: seed {run.seed}, held-out seed {run.held_out_seed}, "
          f"{len(run.iterations)} passes in {run.measured_s:.1f} s, "
          f"closed loop with one client{', traced' if run.traced else ''}")
    samples = run.samples if not run.traced else {"cpu": {}, "wall": {}}
    for name, value in metrics.items():
        declared = "" if name in units else "  [printed only, no bound]"
        print(f"  {name:40s} {value!r} {units.get(name, 's')}{declared}")
        if name in samples["cpu"]:
            print(f"  {'':40s} CPU {tail(samples['cpu'][name])}")
            print(f"  {'':40s} wall {tail(samples['wall'][name])}")
    print(f"  {'failed_ops':40s} {len(ledger.failures) / ledger.attempted!r} fraction"
          f"  ({len(ledger.failures)} of {ledger.attempted} operations)")
    if run.traced:
        for cmd in ("synth",) + COMMANDS:
            procs = [p for p in run.processes if p["command"] == cmd]
            if procs:
                p = procs[-1]
                timed = p["spans"][0]["end"] - p["spans"][0]["start"]
                print(f"  {cmd:9s} traced wall {p['wall']:.3f} s = import {p['import_s']:.3f}"
                      f" + sum of span self times {sum(p['self']):.3f} (root span {timed:.3f})"
                      f" + outside {p['wall'] - p['import_s'] - timed:.3f}")

    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": run.name, "seed": run.seed, "held_out_seed": run.held_out_seed,
              "scenario": run.spec["scenario"], "result": result,
              "failures": ledger.failures, "all_metrics": metrics,
              "setup": run.setup_times,
              "iterations": run.iterations, "digests": run.digests,
              "processes": run.processes}
    path = RESULTS / f"{run.name}-seed{run.seed}-trace{int(run.traced)}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"  results in {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hvacdisagg CLI pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    # a terminated benchmark kills its running command and removes its bundles
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    prepare(env)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = WorkloadRun(name, args.seed, args.seconds, bool(args.trace), env)
        results[name] = report(run, run.run(), units)
        sys.stdout.flush()

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
