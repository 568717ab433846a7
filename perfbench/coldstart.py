"""One cold set-up: a fresh interpreter that imports the program,
builds a workload's inputs and runs its untimed warm-up, up to the
point where the first timed operation would start.

    python3 perfbench/coldstart.py <workload> <seed> <scratch-dir>

Prints one line: the ``time.perf_counter()`` reading at that point,
then the median of three host-speed probes taken just after it.
``run.py`` takes the reading just before it starts this process and
reports the difference, scaled to the reference host's speed by the
probe, as one ``setup_s`` sample; on Linux ``perf_counter`` reads the
system-wide monotonic clock, so readings of two processes compare.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from run import speed_probe  # noqa: E402


def main() -> int:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    tmp = Path(scratch) / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    workload = workloads.WORKLOADS[name](seed, None, scratch)
    workload.setup()
    outputs = workload.warm_up()
    ready = time.perf_counter()
    probe = statistics.median(speed_probe(workload) for _ in range(3))
    for output in outputs:
        workload.cleanup(output)
    print(repr(ready), repr(probe))
    return 0


if __name__ == "__main__":
    sys.exit(main())
