"""Set-up probe: import homomesy.cli from this checkout, write a workload's
inputs, and print the monotonic clock reading at which that was done.

    python3 bench/probe.py WORKLOAD SEED DIRECTORY

run.py launches it several times per run and reports the median of the
times from launch to this reading as setup_s.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import homomesy.cli  # noqa: E402,F401  (the import is what is timed)
import ladder  # noqa: E402

ladder.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter())
