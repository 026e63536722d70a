"""Run one fraclog CLI command with the layer tracer installed.

    python3 perfbench/cli_probe.py SUMMARY.json <fraclog arguments...>

Behaves like `python -m fraclog.cli <arguments>`: same standard output,
same exit status. It also times the scipy and fraclog imports, traces
the run with tracer.Tracer, and writes the import times and the layer
summary to SUMMARY.json and the spans to SUMMARY.json.npz.
"""

import json
import os
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    clock = time.perf_counter
    t0 = clock()
    import numpy  # noqa: F401
    import scipy.integrate, scipy.interpolate, scipy.optimize, scipy.special  # noqa: E401,F401
    t1 = clock()
    import fraclog.cli
    t2 = clock()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_task(0)
    try:
        code = fraclog.cli.main(argv)
    finally:
        tracer.end_task()
        sys.stdout.flush()
        tracer.write_spans(out + ".npz")
        with open(out, "w") as fh:
            json.dump({"import": {"scipy_s": t1 - t0, "fraclog_s": t2 - t1},
                       "summary": tracer.summary(),
                       "spans": len(tracer.log_name) + tracer.dropped}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
