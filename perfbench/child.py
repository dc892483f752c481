"""One whole run of one workload in a fresh process, as a CLI user would see it.

Prints one JSON line: clock readings of the phases, peak RSS, CPU time,
the checks' failures and, when traced, the per-layer figures. A cutsem
error raised by the workload is reported as a failed operation; any other
exception ends the process with a non-zero code.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE OUT_DIR
"""

import os

# one BLAS/OpenMP thread, set before numpy is loaded (see README)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def clock():
    """System-wide monotonic clock, comparable with the parent's readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(name, seed, trace, out_dir, sizes=None):
    """One repetition; `sizes` replaces workloads.SIZES (the tests pass smaller ones)."""
    t_import = clock()
    sys.path[:0] = [SRC, HERE]
    import cutsem.errors
    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    phase = tracer.span if tracer is not None else (lambda _: contextlib.nullcontext())
    result = {"workload": name, "seed": seed, "t_import": t_import, "error": None}
    try:
        with phase("phase.setup"):
            wl = workloads.WORKLOADS[name](seed, (sizes or workloads.SIZES)[name])
            wl.setup()
        result["t_setup"] = clock()
        with phase("phase.solve"):
            wl.solve()
        result["t_solve"] = clock()
        with phase("phase.post"):
            wl.post(out_dir)
        result["t_post"] = clock()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["cpu_s"] = time.process_time()
        result["threads"] = len(os.listdir("/proc/self/task"))
        if tracer is not None:
            tracer.enabled = False
            result["layers"] = tracer.metrics()
            tracer.write(os.path.join(out_dir, f"{name}.spans.json"))
    except cutsem.errors.CutSemError as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["failures"] = wl.check()
    result["summary"] = wl.summary
    return result


def main(argv):
    name, seed, trace, out_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    print(json.dumps(run(name, seed, trace, out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
