"""One `rctc sweep` in a fresh process, the way the CLI runs it.

Usage: python3 bench/worker.py {setup,sweep,trace} CONFIG CSV

Prints `ready` once `rctc.cli` is imported and the config parsed, so the
parent can time set-up from process start. `setup` exits there. `sweep` and
`trace` then run the sweep through the names `rctc.cli` uses, write the CSV
and print one JSON line: sweep time, peak RSS, versions and, in `trace` mode,
the layer metrics and spans of `layertrace.Tracer`.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    mode, config_path, csv_path = argv
    t0 = time.perf_counter()
    import rctc.cli as cli
    t1 = time.perf_counter()
    config = cli.ExperimentConfig.from_file(config_path)
    t2 = time.perf_counter()
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        from layertrace import Tracer
        tracer = Tracer(config.p_grid).install()
    start = time.perf_counter()
    rows = cli.run_experiment(config)
    cli.write_csv(csv_path, rows, config)
    end = time.perf_counter()

    import numpy
    import scipy
    result = {
        "sweep_s": end - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.report(start, end, len(rows))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
