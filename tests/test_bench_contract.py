"""The names the benchmark's layer trace wraps must exist in rctc.

bench/layertrace.py replaces rctc functions by (module, attribute); a name it
cannot resolve leaves its layer metrics absent and the benchmark output
malformed, and so does a count hook that cannot read what it expects.  These
tests load the trace module read-only and check every name, then run two tiny
sweeps through the benchmark's worker in trace mode and check that every
layer metric is reported.
"""
import importlib.util
import json
import os
import subprocess
import sys
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


SWEEPS = {
    "source_realized": """kind = source
n = 3
rate = 4
p_grid = 0.1
schemes = no_coding, plt, rtc_tc, rc_tc
quantizer_mode = realized
sim_frames = 200
seed = 5
""",
    "lqg": """kind = lqg
n = 3
rate = 5
p_grid = 0.1
schemes = no_coding, plt, rtc_tc, rc_tc
horizon = 2000
seed = 5
""",
}
# spans whose count hooks the harness never reaches: it imports
# availability_stats and sample_path only so that the wrappers still resolve
# (channel expectations are exact, and source sweeps draw i.i.d. frames from K_x)
NOT_CALLED = {"channel.stats", "sources.path"}


def traced_sweep(tmp_path, name):
    """The `trace` field the benchmark's own worker prints for one sweep."""
    root = LAYERTRACE.parents[1]
    config = tmp_path / f"{name}.cfg"
    config.write_text(SWEEPS[name])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-B", str(root / "bench" / "worker.py"), "trace", str(config),
         str(tmp_path / f"{name}.csv")],
        capture_output=True, text=True, env=env, cwd=root, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["trace"]


def test_traced_sweeps_report_every_layer_metric(tmp_path):
    # cli.* and trace.* are measured by the worker and bench/run.py, not the tracer
    expected = {m for m in layertrace.metric_units() if not m.startswith(("cli.", "trace."))}
    called = set()
    for name in SWEEPS:
        trace = traced_sweep(tmp_path, name)
        assert trace["absent_wrappers"] == [], name
        assert expected <= set(trace["values"]), name
        called |= {span["name"] for span in trace["spans"]}
    hooked = {span for span, _, _, hook in layertrace.WRAPPED if hook is not None}
    assert hooked - NOT_CALLED <= called
