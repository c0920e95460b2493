"""Benchmark entry point.

    python3 perfbench/run.py --workload magnify-long --seed 1 --seconds 30 --trace 0

Prints one detail JSON line (every end-to-end or per-layer metric of the
workload with its unit, the machine record and the run's bookkeeping),
then, as the last line, the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` holding the metrics BENCHMARK.json lists
(``end_to_end`` with ``--trace 0``, ``per_layer`` with ``--trace 1``).

``--write-reference`` regenerates perfbench/reference.npz, the outputs
``max_dev`` is measured against.
"""

import os
import sys
import time

START = time.perf_counter()

# Library threads are capped at the CPUs this process may use, in this
# process only; the environment must be set before numpy loads its BLAS.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    import argparse
    import json

    import bench

    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    rm = bench.load_program()
    import_s = time.perf_counter() - START
    if args.write_reference:
        bench.write_reference(rm)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    res = bench.run_workload(rm, args.workload, args.seed, args.seconds, bool(args.trace),
                             import_s=import_s)
    detail = res["detail"]
    print(json.dumps(detail))
    reported = detail["per_layer"] if args.trace else detail["end_to_end"]
    wanted = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: reported[name] for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
