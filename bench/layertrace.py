"""Per-layer spans around calls into rctc's modules, installed from outside.

Each public function is replaced, under the name its caller looks up (for
example `rctc.harness.availability_stats`, which the harness calls, and
`rctc.design.hooke_jeeves`, which `design_code` calls), by a wrapper that
records a span: name, start, end, parent span and the (scheme, p) row of the
sweep it belongs to. Counts are taken from the arguments and results at the
same boundaries. No file under src/rctc is edited.

A wrapped name that no longer exists is reported as absent, and so are the
layer metrics that depend on it; the traced run still completes.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_stats(counts, args, kwargs, result):
    counts["channel.samples"] += _arg(args, kwargs, 1, "sample_count")
    counts["channel.patterns"] += result.count


def _count_design(counts, args, kwargs, result):
    counts["design.evaluations"] += result.evaluations
    counts["design.budget_exhausted"] += int(result.budget_exhausted)


def _count_sim(counts, args, kwargs, result):
    counts["lqg.sim_steps"] += result.steps
    counts["lqg.diverged"] += int(result.diverged)


def _count_lloyd(counts, args, kwargs, result):
    levels = _arg(args, kwargs, 0, "n_levels")
    counts["quantizers.levels_trained"] += levels
    if not counts[f"quantizers.levels={levels}"]:
        counts["quantizers.distinct_levels"] += 1
    counts[f"quantizers.levels={levels}"] += 1


def _count_frames(counts, args, kwargs, result):
    counts["codec.frames"] += len(_arg(args, kwargs, 0, "frames"))


def _count_path(counts, args, kwargs, result):
    counts["sources.samples"] += _arg(args, kwargs, 1, "length")


# (span name, module, attribute as the caller looks it up, count hook)
WRAPPED = (
    ("channel.stats", "rctc.harness", "availability_stats", _count_stats),
    ("channel.bits", "rctc.harness", "sample_availability_bits", None),
    ("design.design", "rctc.harness", "design_code", _count_design),
    ("design.search", "rctc.design", "hooke_jeeves", None),
    ("design.effvar", "rctc.design", "effective_variances", None),
    ("lqg.sim", "rctc.harness", "simulate_closed_loop", _count_sim),
    ("lqg.analytic", "rctc.harness", "am_wmse", None),
    ("lqg.analytic", "rctc.harness", "analytic_lqg_cost", None),
    ("lqg.riccati", "rctc.harness", "controller_solution", None),
    ("lqg.pilot", "rctc.harness", "pilot_state_variance", None),
    ("quantizers.lloyd_max", "rctc.quantizers", "lloyd_max_gaussian", _count_lloyd),
    ("quantizers.bank", "rctc.quantizers", "QuantizerBank.lloyd_max", None),
    ("quantizers.bank", "rctc.quantizers", "QuantizerBank.modeled", None),
    ("codec.encode", "rctc.harness", "encode_batch", _count_frames),
    ("codec.decode", "rctc.harness", "decode_batch", None),
    ("codec.plt", "rctc.harness", "plt_design", None),
    ("codec.plt", "rctc.design", "plt_design", None),
    ("sources.path", "rctc.harness", "sample_path", _count_path),
)


# layer metric -> span whose busy seconds it reports
BUSY_METRICS = {
    "channel.stats_s": "channel.stats",
    "channel.bits_s": "channel.bits",
    "design.design_s": "design.design",
    "design.search_s": "design.search",
    "design.effvar_s": "design.effvar",
    "lqg.sim_s": "lqg.sim",
    "lqg.analytic_s": "lqg.analytic",
    "lqg.riccati_s": "lqg.riccati",
    "lqg.pilot_s": "lqg.pilot",
    "quantizers.lloyd_max_s": "quantizers.lloyd_max",
    "quantizers.bank_s": "quantizers.bank",
    "codec.encode_s": "codec.encode",
    "codec.decode_s": "codec.decode",
    "codec.plt_s": "codec.plt",
    "sources.path_s": "sources.path",
}
# layer metric -> span whose calls it counts
CALL_METRICS = {
    "channel.stats_calls": "channel.stats",
    "quantizers.lloyd_max_calls": "quantizers.lloyd_max",
}
# count kept by a hook -> span whose hook keeps it
COUNT_METRICS = {
    "channel.samples": "channel.stats",
    "channel.patterns": "channel.stats",
    "design.evaluations": "design.design",
    "design.budget_exhausted": "design.design",
    "lqg.sim_steps": "lqg.sim",
    "lqg.diverged": "lqg.sim",
    "quantizers.levels_trained": "quantizers.lloyd_max",
    "quantizers.distinct_levels": "quantizers.lloyd_max",
    "codec.frames": "codec.encode",
    "sources.samples": "sources.path",
}
# layer metric -> (unit, numerator metric, denominator metric, scale)
RATIO_METRICS = {
    "channel.pattern_ratio": ("ratio", "channel.patterns", "channel.samples", 1.0),
    "design.us_per_eval": ("us", "design.search_s", "design.evaluations", 1e6),
    "lqg.steps_per_s": ("1/s", "lqg.sim_steps", "lqg.sim_s", 1.0),
    "quantizers.distinct_ratio": ("ratio", "quantizers.distinct_levels",
                                  "quantizers.lloyd_max_calls", 1.0),
}


def _resolve(module: str, attr: str):
    """(owner, name) of a dotted attribute of a module, or (None, None) if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, last):
        return None, None
    return owner, last


class Tracer:
    """Spans and counts of one traced sweep, kept in memory until `report`."""

    def __init__(self, p_grid):
        self.p_grid = tuple(p_grid)
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.row = None
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.installed: set[str] = set()

    def install(self) -> Tracer:
        for span, module, attr, hook in WRAPPED:
            self._wrap(span, module, attr, hook)
        self._wrap_row_context()
        return self

    def _wrap(self, span, module, attr, hook):
        owner, name = _resolve(module, attr)
        if owner is None:
            self.absent.append(f"{module}.{attr}")
            return
        func = getattr(owner, name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = {"name": span, "parent": self.stack[-1] if self.stack else None,
                      "row": self.row}
            self.spans.append(record)
            self.stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        # a classmethod fetched from its class is already bound; keep it unbound-safe
        is_classmethod = isinstance(getattr(owner, "__dict__", {}).get(name), classmethod)
        setattr(owner, name, staticmethod(wrapper) if is_classmethod else wrapper)
        self.installed.add(span)

    def _wrap_row_context(self):
        """Follow the harness's per-row seed derivation to tag spans with (scheme, p)."""
        owner, name = _resolve("rctc.harness", "derive_seed")
        if owner is None:
            self.absent.append("rctc.harness.derive_seed")
            return
        func = getattr(owner, name)

        @functools.wraps(func)
        def wrapper(master, *tags):
            if len(tags) >= 2 and tags[0] in ("stats", "eval", "sim"):
                p = self.p_grid[tags[1]] if tags[1] < len(self.p_grid) else None
                self.row = (tags[2] if len(tags) > 2 else "*", p)
            return func(master, *tags)

        setattr(owner, name, wrapper)

    def report(self, sweep_start: float, sweep_end: float, rows: int) -> dict:
        """Layer metrics plus the spans, with self times, for the trace file."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        for rec in self.spans:
            duration = rec["end"] - rec["start"]
            busy[rec["name"]] += duration
            calls[rec["name"]] += 1
            child_time[rec["parent"]] += duration
        values = {"harness.self_s": (sweep_end - sweep_start) - child_time[None],
                  "harness.rows": rows}
        for table, source in ((BUSY_METRICS, busy), (CALL_METRICS, calls),
                              (COUNT_METRICS, self.counts)):
            for metric, span in table.items():
                if span in self.installed:
                    values[metric] = source[metric if table is COUNT_METRICS else span]
        for metric, (_, num, den, scale) in RATIO_METRICS.items():
            if num in values and den in values:
                values[metric] = scale * values[num] / values[den] if values[den] else 0.0
        spans = [{"name": rec["name"], "parent": rec["parent"],
                  "row": rec["row"],
                  "start": rec["start"] - sweep_start, "end": rec["end"] - sweep_start,
                  "self": rec["end"] - rec["start"] - child_time[i]}
                 for i, rec in enumerate(self.spans)]
        return {"values": {k: float(v) for k, v in values.items()},
                "absent_wrappers": self.absent, "counts": dict(self.counts),
                "spans": spans}


def metric_units() -> dict[str, str]:
    """Unit of every layer metric a traced run reports.

    cli.* times the worker's set-up; trace.* compares the traced sweep with
    the untraced one of the same run.
    """
    units = {"harness.self_s": "s", "harness.rows": "count", "cli.import_s": "s",
             "cli.parse_s": "s", "trace.sweep_s": "s", "trace.overhead_s": "s"}
    units.update({m: "s" for m in BUSY_METRICS})
    units.update({m: "count" for m in (*CALL_METRICS, *COUNT_METRICS)})
    units.update({m: spec[0] for m, spec in RATIO_METRICS.items()})
    return units
