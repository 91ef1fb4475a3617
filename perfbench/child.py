"""One ghzdc CLI invocation in a fresh interpreter, measured from process start.

Usage: python3 child.py <spawn time> <spec>

<spawn time> is the parent's time.monotonic() just before it started this
process, so set-up covers interpreter start, ``import ghzdc.cli`` and
``build_parser()``.  <spec> is a JSON object:

- ``{"argv": [...]}`` runs ``ghzdc.cli.main(argv)`` once;
- ``"spans": path`` adds tracing and writes spans and counters to ``path``;
- ``{"probe": true}`` only imports and reports the environment.

The last line of standard output is a JSON report.  ghzdc must be importable,
normally through PYTHONPATH.
"""

import sys
import time


def main() -> int:
    spawned = float(sys.argv[1])
    import ghzdc.cli

    ghzdc.cli.build_parser()
    setup_s = time.monotonic() - spawned

    import json
    import resource
    import warnings

    spec = json.loads(sys.argv[2])
    report = {"setup_s": setup_s, "ghzdc_file": ghzdc.__file__}
    if spec.get("probe"):
        report["environment"] = _environment()
        print(json.dumps(report))
        return 0

    modules = tracer = None
    if spec.get("spans"):
        import tracing
        from ghzdc import adversary, cavity, cli, protocol, qstate

        modules = {"qstate": qstate, "protocol": protocol, "adversary": adversary,
                   "cavity": cavity, "cli": cli, "package": ghzdc}
        tracer = tracing.Tracer()
        caches = tracing.install(tracer, modules)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.perf_counter()
        try:
            exit_code = ghzdc.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            exit_code = exc.code
        run_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)

    report.update(
        exit_code=exit_code,
        run_s=run_s,
        # RUSAGE_SELF sums over all threads, BLAS workers included.
        cpu_s=(after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        truncation_warnings=sum(
            issubclass(w.category, ghzdc.cavity.TruncationWarning) for w in caught
        ),
    )
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({
                "spans": tracer.spans,
                "counters": {**tracer.counters, **tracing.cache_deltas(caches)},
            }, fh)
    print(json.dumps(report))
    return 0


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_thread_env": {name: os.environ.get(name) for name in thread_vars},
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }


if __name__ == "__main__":
    sys.exit(main())
