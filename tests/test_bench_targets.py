"""The benchmark's tracer wraps package functions by module and name; a rename
or deletion must fail here rather than in the traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

from mehybrid.surrogate import LimitStateModel

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, home, attr in tracer.TARGETS:
        module = importlib.import_module(f"mehybrid.{home}")
        assert callable(getattr(module, attr, None)), f"mehybrid.{home}.{attr} is gone"
    assert callable(LimitStateModel.evaluate_many)
