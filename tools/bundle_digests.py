"""Digest every output of the pipeline on fixed bundles, to check that two
checkouts behave byte for byte alike.

    python3 tools/bundle_digests.py path/to/checkout/src > digests.txt
    python3 tools/bundle_digests.py other/checkout/src | diff digests.txt -

Builds 14 bundles with `hvacdisagg synth`: the five scenario presets and the
two benchmark workloads of perfbench/run.py, each at the benchmark's seed and
its held-out seed. On each bundle it runs validate, fit, detect, report and
estimate, each as its own process, twice: cold (no trend cache yet) and
warm. It prints one line per bundle, `<bundle> <seed> <sha256>`, over every
file in the bundle except the trend cache after each pass, and every
command's exit code, stdout and stderr, with the path of the directory
holding the bundle written as `<work>`. `--detail` also prints the digest
of each file and each command before its bundle's line, so a diff of two
runs points at what differed. Bundles go to a temporary directory (under
TMPDIR when set), removed at the end.

The package is imported from the given `src/`; the workload specs come from
this checkout's perfbench/run.py, read as a module and left unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("recovery", "mixed_season", "faulted", "healthy", "impact")
COMMANDS = ("validate", "fit", "detect", "report", "estimate")
SKIPPED = {Path("out") / ".trends-cache"}
COMMAND_TIMEOUT_S = 600


def _benchmark():
    """perfbench/run.py as a module, without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports its tracer by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def scenarios():
    """(name, [scenario] settings, seed) of every bundle, in print order."""
    bench = _benchmark()
    seeds = (bench.DEFAULT_SEED, bench.DEFAULT_SEED + bench.HELD_OUT_OFFSET)
    specs = [(name, {"preset": name}) for name in PRESETS]
    specs += [(name, workload["scenario"]) for name, workload in bench.WORKLOADS.items()]
    return [(name, settings, seed) for name, settings in specs for seed in seeds]


def _run(argv: list, env: dict, work: Path) -> str:
    """Run one command; the digest of its exit code, stdout and stderr, with
    work's path written as <work>."""
    done = subprocess.run([sys.executable, "-m", "hvacdisagg.cli", *argv], env=env,
                          capture_output=True, timeout=COMMAND_TIMEOUT_S)
    digest = hashlib.sha256(str(done.returncode).encode())
    for stream in (done.stdout, done.stderr):
        digest.update(b"\0" + stream.replace(str(work).encode(), b"<work>"))
    return digest.hexdigest()


def _files(bundle: Path) -> list:
    """(relative path, sha256) of every file in bundle but the skipped ones."""
    found = []
    for path in sorted(p for p in bundle.rglob("*") if p.is_file()):
        rel = path.relative_to(bundle)
        if rel not in SKIPPED:
            found.append((rel.as_posix(), hashlib.sha256(path.read_bytes()).hexdigest()))
    return found


def bundle_digest(work: Path, settings: dict, seed: int, env: dict) -> tuple:
    """(sha256 over the bundle's runs and files, [(what, sha256)] of each)."""
    conf = work / "scenario.conf"
    conf.write_text("[scenario]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()),
                    encoding="utf-8")
    bundle = work / "bundle"
    parts = [("synth", _run(["synth", "--config", str(conf), "--out", str(bundle),
                             "--seed", str(seed)], env, work))]
    for label in ("cold", "warm"):
        for command in COMMANDS:
            parts.append((f"{label} {command}",
                          _run([command, "--config", str(bundle / "run.conf")], env, work)))
        parts += [(f"{label} {rel}", digest) for rel, digest in _files(bundle)]
    total = hashlib.sha256()
    for what, digest in parts:
        total.update(f"{what}\0{digest}\n".encode())
    shutil.rmtree(bundle)
    return total.hexdigest(), parts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src/ directory of the checkout to run")
    parser.add_argument("--detail", action="store_true",
                        help="also print the digest of each file and command")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "hvacdisagg" / "cli.py").is_file():
        parser.error(f"{src} holds no hvacdisagg package")
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory(prefix="bundle-digests-") as tmp:
        for name, settings, seed in scenarios():
            total, parts = bundle_digest(Path(tmp), settings, seed, env)
            if args.detail:
                for what, digest in parts:
                    print(f"  {name} {seed} {what} {digest}")
            print(f"{name} {seed} {total}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
