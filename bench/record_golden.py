"""Record bench/golden/<workload>.json: the checked numbers of each workload's
output on the default seed.

Usage (from the repository root): python3 bench/record_golden.py

Record only on a commit whose outputs are known to be right: the benchmark
compares every run on the default seed with these files, up to the gauge.
"""

import json
import shutil
import signal
import sys
import time

import checks
from run import DEFAULT_SEED, DEADLINE_S, GOLDEN, WORK, ChildTimeout, Runner, _on_alarm
from workloads import WORKLOADS


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    GOLDEN.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        work = WORK / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(workload, DEFAULT_SEED, work, time.monotonic() + DEADLINE_S,
                        golden=False)
        try:
            runner.run()
        except ChildTimeout:
            pass
        if runner.failed:
            sys.exit(f"{workload.name}: {runner.problems}")
        with open(GOLDEN / f"{workload.name}.json", "w", encoding="utf-8") as fh:
            json.dump(checks.summarize(workload, runner.output), fh)
            fh.write("\n")
        print(f"recorded {workload.name}")


if __name__ == "__main__":
    main()
