"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first operation: importing copulamix,
parsing configs/table4.json and one warm-up call of the workload's kind (this
fills the quadrature rule cache).  perfbench/run.py starts this script
several times and reports the median.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from copulamix.config import load_config  # noqa: E402

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1], load_config(ROOT / "configs" / "table4.json"))
print(time.perf_counter() - START)
