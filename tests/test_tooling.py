"""The benchmark tracer wraps package functions by name; keep those names alive.

perfbench/tracer.py is loaded as a plain module (nothing is installed or
wrapped), so a refactor that renames or moves a traced function fails here
instead of breaking `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
