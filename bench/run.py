"""
The braid3 benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload reports-short --seed 1 --seconds 30 --trace 0

Run from the repository root; braid3 is imported from ./src and nowhere
else.  Load is a closed loop with one caller: the next item is sent only
when the previous one has returned.  Every output is checked, outside the
timed region, against an oracle that shares no code with braid3
(bench/oracle.py).

--trace 0 measures the end-to-end metrics: setup_s, items_per_s,
latency_p50_ms, latency_tail_ms and peak_rss_mb.  --trace 1 replays the
workload's digest items alternately untraced and traced, and reports the
per-layer self times, the work counters of one traced pass and the
tracing overhead.  The last line of standard output is a JSON object with
the keys correct, attempted, failed and metrics; the lines before it name
every metric with its unit and give the detail behind it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braid3" / "__init__.py").is_file():
        print(f"braid3 sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braid3

    if Path(braid3.__file__).resolve().parent != SRC / "braid3":
        print(f"imported braid3 from {braid3.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import measure

    return measure.report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
