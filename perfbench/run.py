"""Benchmark of pwlcycles: one workload, one seed, one run.

    python3 perfbench/run.py --workload {atlas,orbits,queries} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
`src/` directory. `--trace 0` times the workload end to end through the
public API and reports the end-to-end metrics. `--trace 1` spends a third
of the time untraced and two thirds with spans recorded around the calls
into each layer, then runs one more pass under tracemalloc, and reports
the per-layer metrics, including the tracing overhead. Oracle checks run
after the timed region in both modes. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Full results
(environment, every metric named in perfbench/README.md, sample counts,
spans) go to `.perfbench_out/` in the checkout.
"""

import os

# BLAS threads are pinned before numpy is imported, here and in the
# set-up probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("atlas", "orbits", "queries")
SETUP_PROBES = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def probe_setup(args) -> float:
    """Seconds of one set-up in a fresh interpreter (see probe_setup.py)."""
    cmd = [sys.executable, os.path.join(HERE, "probe_setup.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def blas_threads(numpy):
    """Threads the bundled OpenBLAS reports, or the pinned variable."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment(numpy, args) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run_for(workload, seconds, probe=None) -> list:
    """Repeat passes of the workload for `seconds` of pass time.

    With `probe`, also run SETUP_PROBES set-up probes between passes, off
    the clock and spread evenly over the run, so that they see the same
    machine conditions as the passes; return their times.
    """
    workload.reset()
    probes = SETUP_PROBES if probe else 0
    setup_times = []
    spent = 0.0
    while not spent or spent < seconds:
        t0 = time.perf_counter()
        workload.unit()
        spent += time.perf_counter() - t0
        while (len(setup_times) < probes
               and spent >= seconds * len(setup_times) / probes):
            setup_times.append(probe())
    while len(setup_times) < probes:
        setup_times.append(probe())
    return setup_times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pwlcycles", "__init__.py")):
        print(f"error: no pwlcycles package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    sys.path[:0] = [SRC, HERE]
    import numpy
    import pwlcycles
    import tracer
    import workloads

    if not os.path.abspath(pwlcycles.__file__).startswith(SRC + os.sep):
        print(f"error: pwlcycles imported from {pwlcycles.__file__}", file=sys.stderr)
        return 2

    env = environment(numpy, args)
    probe = functools.partial(probe_setup, args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        if args.trace:
            setup_times = run_for(workload, args.seconds / 3, probe)
            untraced = workload.report()
            spans = tracer.Tracer()
            spans.install(pwlcycles)
            try:
                t0 = time.perf_counter_ns()
                run_for(workload, args.seconds * 2 / 3)
                wall_ns = time.perf_counter_ns() - t0
                report = workload.report()
                spans.phase = "memory"
                tracemalloc.start()
                try:
                    workload.unit()
                finally:
                    tracemalloc.stop()
            finally:
                spans.uninstall()
            metrics = tracer.layer_metrics(
                tracer.Summary(spans.spans, "time", wall_ns),
                tracer.Summary(spans.spans, "memory", 1))
            for key in ("primary_per_s", "secondary_per_s"):
                base = untraced[key][0]
                metrics[f"trace.overhead.{key}_pct"] = (
                    (base - report[key][0]) / base * 100.0 if base else 0.0, "%")
            spans.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
            negative = [s.id for s in spans.spans if s.self_ns < 0]
        else:
            setup_times = run_for(workload, args.seconds, probe)
            report = workload.report()
            negative = []
        rss = peak_rss_mb()
        checks = workload.check()
    finally:
        shutil.rmtree(workdir)

    named = {k: v for k, v in report.items() if k != "samples"}
    # best of k, like every other timing here: on a shared host a fresh
    # interpreter's set-up is bimodal, and the share of slow samples
    # drifts with the host's load, which moved the median of the set-ups
    # by up to 47% between two sets of ten runs of the same code
    named["setup_s"] = (min(setup_times), "s")
    named["peak_rss_mb"] = (rss, "MB")
    named["failed_frac"] = (checks.failed / max(1, checks.attempted), "ratio")
    if not args.trace:
        metrics = {k: named[k] for k in
                   ("setup_s", "peak_rss_mb", "primary_per_s", "secondary_per_s")}
    correct = checks.correct and not negative

    full = {
        "environment": env,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": report["samples"],
        "setup_s_samples": setup_times,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "known_defects": checks.known, "details": checks.details,
                   "untyped_errors": checks.untyped[:5]},
        "negative_self_time_spans": negative[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    print("environment " + json.dumps(env, sort_keys=True))
    for key, (value, unit) in named.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"samples {json.dumps(report['samples'], sort_keys=True)}")
    print(f"checks attempted={checks.attempted} failed={checks.failed} "
          f"known_defects={json.dumps(checks.known, sort_keys=True)}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
