"""Guards for the benchmark and the package's surface.

perfbench/tracer.py is loaded as a plain module (nothing is installed or
wrapped), so a refactor that renames or moves a traced function fails here
instead of breaking `perfbench/run.py --trace 1`. Every public name in src/
must be used by src/ itself or by README's library example, so nothing
ships that only tests call.
"""

import ast
import importlib
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# public names kept without a caller in src/ or README's example
UNREFERENCED_OK = {
    # perfbench/tracer.py patches it to count masked rows
    "energy.BuildingData.row_mask",
}


def _readme_example() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, re.S)
    return example


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundle_digests_covers_every_preset_and_workload():
    # tools/bundle_digests.py checks byte identity on the presets and the
    # benchmark's workloads, each at the benchmark's two seeds
    from hvacdisagg.config import SCENARIO_PRESETS

    spec = importlib.util.spec_from_file_location("bundle_digests",
                                                  ROOT / "tools" / "bundle_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    got = [(name, seed) for name, _, seed in module.scenarios()]
    names = [*SCENARIO_PRESETS, "wide-80vav", "long-2y"]
    assert got == [(name, seed) for name in names for seed in (202, 100205)]


def test_every_wrapped_name_resolves():
    wrapped = _tracer_module().WRAPPED
    missing = [f"{name}.{attr}" for name, attrs in wrapped.items()
               for attr in attrs
               if not callable(getattr(importlib.import_module(f"hvacdisagg.{name}"),
                                       attr, None))]
    assert missing == []


def test_row_mask_counter_target_exists():
    from hvacdisagg.energy import BuildingData

    assert callable(BuildingData.row_mask)


def test_fit_imports_neither_scipy_nor_zipfile(impact_bundle, tmp_path):
    # Either import would quietly bring back a peak RSS the benchmark bounds.
    # The child skips site (-S), because an environment's site hooks may
    # import zipfile on their own, and gets this process's path instead.
    work = tmp_path / "bundle"
    shutil.copytree(impact_bundle.out_dir, work)
    code = ("import sys\n"
            "from hvacdisagg.cli import main\n"
            "assert main(['fit', '--config', sys.argv[1]]) == 0\n"
            "print(sorted(m for m in ('scipy', 'zipfile') if m in sys.modules))\n")
    path = os.pathsep.join([str(ROOT / "src")] + [p for p in sys.path if p])
    done = subprocess.run([sys.executable, "-S", "-c", code, str(work / "run.conf")],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.splitlines()[-1] == "[]"


def _run_each_command(tmp_path, *flags):
    """Synth the impact bundle, then run every command on it, each in its
    own `python -S *flags` child (as in the scipy check above) that prints
    the sorted list of numpy.ma and numpy.random it imported as its last
    line; returns (command, CompletedProcess)."""
    (tmp_path / "scenario.conf").write_text("[scenario]\npreset = impact\n",
                                            encoding="utf-8")
    bundle = tmp_path / "bundle"
    conf = str(bundle / "run.conf")
    code = ("import sys\n"
            "from hvacdisagg.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in ('numpy.ma', 'numpy.random') if m in sys.modules))\n")
    path = os.pathsep.join([str(ROOT / "src")] + [p for p in sys.path if p])
    runs = []
    for argv in (["synth", "--config", str(tmp_path / "scenario.conf"), "--out", str(bundle)],
                 ["validate", "--config", conf], ["fit", "--config", conf],
                 ["detect", "--config", conf], ["report", "--config", conf],
                 ["estimate", "--config", conf]):
        runs.append((argv[0], subprocess.run(
            [sys.executable, "-S", *flags, "-c", code, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})))
    return runs


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 1.6 MB of RSS and 19 ms of CPU per process; the
    # plain np.unique(x), with no return_* flag, is one way to import it.
    # numpy.random costs about 6 MB, 3.5 MB of it the OpenSSL that secrets
    # and hmac load; synth draws its noise from it, and no other command may.
    runs = _run_each_command(tmp_path)
    assert [(command, done.returncode) for command, done in runs if done.returncode] == []
    assert {command: done.stdout.splitlines()[-1] for command, done in runs} == {
        "synth": "['numpy.random']", "validate": "[]", "fit": "[]", "detect": "[]",
        "report": "[]", "estimate": "[]"}


def test_no_command_opens_text_in_the_locale_encoding(tmp_path):
    # every file is UTF-8 whatever the locale says; a text-mode open (or
    # configparser read) without an encoding raises EncodingWarning here
    runs = _run_each_command(tmp_path, "-X", "warn_default_encoding",
                             "-W", "error::EncodingWarning")
    assert [(command, done.stderr.strip().splitlines()[-1:])
            for command, done in runs if done.returncode] == []


def test_traced_estimate_records_each_prediction_once(impact_bundle, tmp_path):
    # estimate reaches the predict functions through calibrate.predictions,
    # which must find the tracer's wrappers, not the functions it imported
    work = tmp_path / "bundle"
    shutil.copytree(impact_bundle.out_dir, work)
    code = ("import collections, importlib.util, sys\n"
            "from hvacdisagg.cli import main\n"
            "conf = sys.argv[1]\n"
            "assert main(['fit', '--config', conf]) == 0\n"
            "spec = importlib.util.spec_from_file_location('tracer', sys.argv[2])\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "t = tracer.Tracer('estimate')\n"
            "t.install()\n"
            "assert main(['estimate', '--config', conf]) == 0\n"
            "counts = collections.Counter(span['name'] for span in t.spans)\n"
            "print(sorted((n, c) for n, c in counts.items() if '.predict_' in n))\n")
    path = os.pathsep.join([str(ROOT / "src")] + [p for p in sys.path if p])
    done = subprocess.run([sys.executable, "-c", code, str(work / "run.conf"), str(TRACER)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.splitlines()[-1] == str([("calibrate.predict_cooling_ahu", 1),
                                                ("calibrate.predict_cooling_vav", 1),
                                                ("calibrate.predict_heating", 1)])


def test_readme_library_example_runs(faulted_bundle, tmp_path, monkeypatch):
    # README's library example, run as written against a copy of the
    # bundle its quick start makes in demo/
    example = _readme_example()
    shutil.copytree(faulted_bundle.out_dir, tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["ranked"]


def _public_definitions(tree):
    """(qualified name, name a caller uses) of every public top-level
    function and class, and of every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _src_modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "hvacdisagg").glob("*.py"))}


def test_every_public_name_has_a_caller_outside_tests():
    # by name only: a use of any attribute called `get` covers every
    # public method called `get`
    modules = _src_modules()
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in (*modules.values(), ast.parse(_readme_example()))
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{qualname}" for module, tree in modules.items()
              for qualname, name in _public_definitions(tree)
              if name not in used and f"{module}.{qualname}" not in UNREFERENCED_OK]
    assert unused == []


def test_every_unreferenced_ok_entry_names_a_definition():
    # the allowlist cannot outlive what it excuses: an entry whose
    # definition is gone or renamed fails here
    defined = {f"{module}.{qualname}" for module, tree in _src_modules().items()
               for qualname, _ in _public_definitions(tree)}
    assert sorted(UNREFERENCED_OK - defined) == []


def test_only_ingest_uses_the_csv_module():
    # the CSV format is ingest's alone: every input is read through one
    # csv.reader in _Records, so a fifth reader cannot skip its refusals
    # (not UTF-8, a record of the wrong width, a cell csv cannot read)
    importers, readers = [], []
    for path in sorted((ROOT / "src" / "hvacdisagg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                importers.append(path.stem)
            if (isinstance(node, ast.Attribute) and node.attr == "reader"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"):
                readers.append(path.stem)
    assert (importers, readers) == (["ingest"], ["ingest"])


def test_only_errors_uses_the_configparser_module():
    # every sectioned file (run.conf, scenario files, topology.ini,
    # model.ini) is read and written through errors._Ini, so no reader can
    # skip its refusals (a missing key, a value that does not convert, a
    # number that is not finite)
    importers = []
    for path in sorted((ROOT / "src" / "hvacdisagg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "configparser" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "configparser"):
                importers.append(path.stem)
    assert importers == ["errors"]
