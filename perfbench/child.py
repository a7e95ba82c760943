"""One `aclab run` in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py SRC CONFIG OUT REPORT [--setup-only] [--trace SPANS]

`setup_s` is the time to import aclab and load the config; `run_s` and
`cpu_s` cover `aclab.cli.main(["run", ...])` from entry to return. The
report is a JSON object written to REPORT, with the versions the run used;
with --trace, the spans of the run are written to SPANS.
"""

import json
import sys
import time
import traceback


def main(argv):
    src, config, out, report_path = argv[:4]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from aclab import cli
    cli.load_config(config)
    report = {"setup_s": time.perf_counter() - t0, "aclab": cli.__file__}

    if not setup_only:
        tracer = None
        if spans_path:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        c0 = time.process_time()
        t1 = time.perf_counter()
        try:
            report["exit"] = cli.main(["run", "--config", config, "--out", out,
                                       "--threads", "1"])
        except Exception:
            report["exit"] = None
            report["error"] = traceback.format_exc()
        report["run_s"] = time.perf_counter() - t1
        report["cpu_s"] = time.process_time() - c0
        if tracer:
            tracer.dump(spans_path)

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    report["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "blas": f"{blas.get('name')} {blas.get('version')}"}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
