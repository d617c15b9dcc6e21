#!/usr/bin/env python3
"""Reproduce the full study: the main table, figure data, and mixing reports.

Running this script is equivalent to:

    copulamix table4  --config configs/table4.json --workers N
    copulamix figure-data {1,2,3,4} --config configs/table4.json
    copulamix mixing NAME --config configs/table4.json   (for every copula)

Everything is seeded from the config, so two runs produce byte-identical
files.  The table takes under 10 seconds on one worker (a whole run took 7.4 s
on a shared 2-vCPU virtual machine with Python 3.11); pass --workers to spread
the cells over processes.  The figures and mixing reports take under a second.
Failures follow the CLI's contract: a configuration problem prints one line
and exits 2, a numeric failure prints one line and exits 3.
"""

import argparse
import sys
import time
from pathlib import Path

from copulamix.cli import _guard
from copulamix.config import load_config
from copulamix.mixing import DEFAULT_N_MAX, DEFAULT_RESOLUTION
from copulamix.study import (
    figure_data,
    mixing_report_set,
    run_table,
    table_to_csv,
    write_json,
)

ROOT = Path(__file__).resolve().parent.parent


@_guard
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=str(ROOT / "configs" / "table4.json"))
    parser.add_argument("--out", default=None, help="output directory (default: config's)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--skip-table", action="store_true",
                        help="only write figure data and mixing reports")
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    out = Path(args.out or cfg.outputs)
    out.mkdir(parents=True, exist_ok=True)

    for fid in (1, 2, 3, 4):
        for path in figure_data(cfg, fid, out):
            print(f"wrote {path}")

    for name, _ in cfg.copulas:
        doc, reports = mixing_report_set(cfg, name, DEFAULT_N_MAX, DEFAULT_RESOLUTION)
        path = out / f"mixing_{name}.json"
        write_json(doc, path)
        print(f"wrote {path}  [{', '.join(v.value for v in reports[0].verdicts)}]")

    if not args.skip_table:
        t0 = time.time()
        rows = run_table(cfg, workers=args.workers)
        path = out / "table4.csv"
        table_to_csv(rows, path)
        print(f"wrote {path} ({len(rows)} rows, {time.time() - t0:.0f} s)")

    return 0


if __name__ == "__main__":
    sys.exit(main())
