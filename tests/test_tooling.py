"""Guards for the benchmark: traced names stay alive, heavy imports stay out.

perfbench/tracer.py is loaded as a plain module (nothing is installed or
wrapped), so a refactor that renames or moves a traced function fails here
instead of breaking `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
