"""Cold start of one workload in a fresh interpreter: import relaysel.cli,
then build the workload's inputs.  Then it times the calibration kernel
(speed.py) in this same process.  Prints the in-process timings as one JSON
line; run.py times the whole process from outside.

    python3 perfbench/coldstart.py --workload figures --seed 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import relaysel.cli  # noqa: E402,F401

T1 = time.perf_counter()

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.build(args.workload, args.seed)
    T2 = time.perf_counter()

    import speed

    cal_s = min(speed.calibrate() for _ in range(3))
    print(json.dumps({"import_s": T1 - T0, "inputs_s": T2 - T1, "cal_s": cal_s,
                      "cal_total_s": time.perf_counter() - T2}))


if __name__ == "__main__":
    main()
