"""The benchmark tracer (`gtbench/tracer.py`) wraps gtpoly functions by
module and name; every name it lists must exist, or `--trace 1` runs fail
to install."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "gtbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("gtbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"gtpoly.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gtpoly.{layer}.{name}"
