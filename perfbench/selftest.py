"""Self-test of the benchmark at a tiny input size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with `--size tiny` and checks
that each run ends with a result line, that every metric BENCHMARK.json
and perfbench/layer_map.json name is emitted with its unit, that every
oracle check passes except those failing on a known program defect
(workloads.KNOWN_DEFECTS), and that every span has a non-negative self
time. It also checks that the benchmark exits non-zero, without a result
line, in a directory holding only BENCHMARK.json and perfbench/. Exits 1
on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

NAMED = {
    "atlas": {"cells_per_s": "cells/s", "csv_rows_per_s": "rows/s"},
    "orbits": {"map_steps_per_s": "steps/s", "state_steps_per_s": "steps/s"},
    "queries": {"queries_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us",
                "cli_p50_us": "us", "cli_p90_us": "us"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def run(workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout):
    """The `name value unit` lines run.py prints before the result line."""
    found = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            found[parts[0]] = parts[2]
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    named = set(COMMON).union(*NAMED.values())
    for entry in layer_map["layer_to_end_to_end"]:
        if entry["layer_metric"] not in per_layer:
            fail(f"layer_map names {entry['layer_metric']}, absent from BENCHMARK.json")
        for metric in entry["moves"]:
            if metric not in named:
                fail(f"layer_map maps to unknown metric {metric}")

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            done = run(workload, trace)
            if done.returncode != 0:
                fail(f"{workload} trace={trace} exited {done.returncode}:\n"
                     f"{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            for name, unit in wanted.items():
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    fail(f"{workload} trace={trace}: metric {name} [{unit}] got {got}")
            extra = set(result["metrics"]) - set(wanted)
            if extra:
                fail(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")
            shown = printed_metrics(done.stdout)
            for name, unit in {**COMMON, **NAMED[workload]}.items():
                if shown.get(name) != unit:
                    fail(f"{workload} trace={trace}: {name} [{unit}] not printed")

            tag = f"{workload}-seed7-trace{trace}"
            with open(os.path.join(OUT, f"result-{tag}.json"), encoding="utf-8") as fh:
                full = json.load(fh)
            checks = full["checks"]
            known = sum(checks["known_defects"].values())
            if not result["correct"] or checks["failed"] != known:
                fail(f"{workload} trace={trace}: checks {checks}")
            if workload != "queries" and checks["failed"]:
                fail(f"{workload} trace={trace}: {checks['failed']} failed checks")
            if trace:
                path = os.path.join(OUT, f"spans-{tag}.jsonl")
                with open(path, encoding="utf-8") as fh:
                    spans = [json.loads(line) for line in fh]
                if not spans or any(s["self_ns"] < 0 for s in spans):
                    fail(f"{workload}: missing spans or a negative self time")
            print(f"PASS {workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"(known defects {checks['known_defects']})")

    bare = os.path.join(OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run("atlas", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("benchmark without the package must exit non-zero and print nothing")
    print("PASS bare directory: exit code", done.returncode)


if __name__ == "__main__":
    main()
