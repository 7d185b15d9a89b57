"""baryrom benchmark: online viscosity sweeps and a full study build.

Run one workload (the last line of stdout is the result as JSON):

    python3 perfbench/run.py --workload online-coarse --seed 1 --seconds 15 --trace 0

Run every workload, each in its own process, and print a table:

    python3 perfbench/run.py --workload all --seed 1

``--trace 1`` reports per-layer metrics from a traced run instead of the
end-to-end metrics.  Run from the repository root; the package is imported
from ``src/`` next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("online-coarse", "online-fine", "study-build")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def environment(seed):
    import numpy
    import scipy

    import baryrom
    from baryrom.solver import resolve_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "baryrom": baryrom.__version__,
        "solver_backend": resolve_backend(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "jobs": 1,
        "seed": seed,
        "src_lines": src_lines(),
    }


def run_one(args):
    from workloads import END_TO_END, PER_LAYER, Runner

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, args.seconds, args.trace, work, log)
    try:
        runner.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    if args.trace:
        values, units = runner.per_layer(), PER_LAYER
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        runner.tracer.dump(trace_path, env)
        log(f"spans written to {trace_path}")
    else:
        values, units = runner.end_to_end(), END_TO_END
    failed = len(runner.tally.failures)
    print("env " + json.dumps(env, sort_keys=True))
    print("raw " + json.dumps(runner.raw_times()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args):
    """Every workload in a child process of its own, one after the other."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        log(f"running {name}")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name} exited with code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        status |= not result["correct"]
        print(f"\n{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<32} {m['value']:>16.6g} {m['unit']}")
        for line in lines[:-1]:
            if line.startswith("raw "):
                print("  wall time: " + ", ".join(
                    f"{k} {v:.6g}" for k, v in json.loads(line[4:]).items()))
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "workloads": results}))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "baryrom" / "__init__.py").is_file():
        log(f"no baryrom package under {SRC}; run from a checkout of the repository")
        return 2
    if args.workload == "all":
        return run_all(args)
    # pin BLAS/OpenMP before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
