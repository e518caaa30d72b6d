"""The names the benchmark's layer trace wraps must exist in rctc.

bench/layertrace.py replaces rctc functions by (module, attribute); a name it
cannot resolve leaves its layer metrics absent and the benchmark output
malformed.  This test loads the trace module read-only and checks every name
here instead.
"""
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = load_layertrace()
NAMES = sorted({(module, attr) for _, module, attr, _ in layertrace.WRAPPED}
               | {("rctc.harness", "derive_seed")})


@pytest.mark.parametrize("module,attr", NAMES)
def test_wrapped_name_resolves(module, attr):
    owner, name = layertrace._resolve(module, attr)
    assert owner is not None, f"{module}.{attr} is gone but bench/layertrace.py wraps it"
    assert callable(getattr(owner, name))
