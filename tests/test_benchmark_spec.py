"""The benchmark's traced run wraps fanosolve functions by name; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spec.py"


def test_traced_functions_resolve():
    mod_spec = importlib.util.spec_from_file_location("bench_spec", SPEC_PATH)
    bench_spec = importlib.util.module_from_spec(mod_spec)
    mod_spec.loader.exec_module(bench_spec)
    assert bench_spec.TRACED_FUNCTIONS
    missing = []
    for qual in bench_spec.TRACED_FUNCTIONS:
        mod_name, fn_name = qual.split(".")
        fn = getattr(importlib.import_module(f"fanosolve.{mod_name}"), fn_name, None)
        if not callable(fn):
            missing.append(qual)
    assert missing == []
