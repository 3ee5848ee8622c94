"""The traced benchmark run wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for span, module_name, qualname, _ in targets:
        owner = importlib.import_module(f"rowsync.{module_name}")
        for part in qualname.split("."):
            assert hasattr(owner, part), f"{span}: rowsync.{module_name}.{qualname} is missing"
            owner = getattr(owner, part)
        assert callable(owner), span
