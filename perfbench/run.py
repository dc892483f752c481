#!/usr/bin/env python3
"""cutsem benchmark: repeats whole runs of one workload and reports medians.

Usage (from the repository root):
    python3 perfbench/run.py --workload bar_cdm --seed 1 --seconds 30 --trace 0

Each repetition is a fresh process (perfbench/child.py) that imports cutsem
from src/, sets up, solves, post-processes and checks its outputs. The run
keeps starting repetitions while the next one is expected to end within
--seconds (at least MIN_REPS). With --trace 0 the last line is the JSON
result with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of the traced repetitions. Lines before it start with
'#' and give the per-repetition figures, CPU time and machine steal.
"""

import argparse
import compileall
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("bar_cdm", "bar_lts", "plate_void", "dtcrit")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))
MIN_REPS = 3
RUN_DEADLINE_S = 170.0


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def _fixed_address_layout():
    """Turn off address-space randomisation in the child (its own personality).

    With randomised placement the peak RSS of one and the same run varies by
    up to 7 %, because how many pages a large allocation touches depends on
    where it lands; with a fixed layout it repeats to the byte.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    addr_no_randomize = 0x0040000
    current = libc.personality(0xFFFFFFFF)
    if current == -1 or libc.personality(current | addr_no_randomize) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


def run_child(workload, seed, trace, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "1" if trace else "0", OUT_DIR]
    t_spawn = clock()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=_fixed_address_layout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"repetition of {workload} exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["t_spawn"] = t_spawn
    return rep


def end_to_end(rep):
    return {
        "wall_s": rep["t_post"] - rep["t_spawn"],
        "setup_s": rep["t_setup"] - rep["t_import"],
        "solve_s": rep["t_solve"] - rep["t_setup"],
        "peak_rss_mb": rep["rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cutsem", "__init__.py")):
        sys.stderr.write(f"cutsem sources not found under {ROOT}/src\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # the one build step of a pure-Python package: byte-compile before timing
    compileall.compile_dir(os.path.join(ROOT, "src", "cutsem"), quiet=1)

    start = clock()
    steal0, total0 = cpu_ticks()
    reps, failed, failures = [], 0, []
    while True:
        elapsed = clock() - start
        rep = run_child(args.workload, args.seed, args.trace, RUN_DEADLINE_S - elapsed)
        if rep["error"] is not None:
            failed += 1
            print(f"# failed: {rep['error']}")
        else:
            reps.append(rep)
            failures += rep["failures"]
        elapsed = clock() - start
        attempted = len(reps) + failed
        typical = elapsed / attempted
        if attempted >= MIN_REPS and elapsed + typical > args.seconds:
            break
    steal1, total1 = cpu_ticks()
    if not reps:
        sys.stderr.write("every repetition failed\n")
        return 1

    per_rep = [end_to_end(r) for r in reps]
    for r, e in zip(reps, per_rep):
        print("# rep " + json.dumps({**e, "cpu_s": r["cpu_s"], "threads": r["threads"]}))
    print("# summary " + json.dumps(reps[-1]["summary"]))
    print("# machine " + json.dumps({
        "steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "cpu_s_median": statistics.median(r["cpu_s"] for r in reps),
        "wall_s_median": statistics.median(e["wall_s"] for e in per_rep),
    }))
    for msg in failures:
        print(f"# check failed: {msg}")

    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in reps), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": statistics.median(e[name] for e in per_rep), "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({"correct": not failures, "attempted": len(reps) + failed,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
