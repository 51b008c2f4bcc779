"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing pwlcycles (numpy included) and generating the
workload's inputs from its seed. Interpreter start-up is not included.
run.py starts this script several times and reports the median.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_out", f"probe-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        elapsed = time.perf_counter() - T0
    finally:
        shutil.rmtree(workdir)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
