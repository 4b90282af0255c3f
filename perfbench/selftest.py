"""Self-test: the exact work counters repeat exactly across two traced runs.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Run from the root of a checkout.  For each workload, two traced passes run
in two fresh processes on the same call list; every count (rewrite steps,
refinement segments, sampler knots, calls per layer, bytes out) and every
call's output digest must agree.  Exits 0 when they do, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from run import TIME_LIMIT_S, pinned_env, run_pass
from workloads import WORKLOADS, generate


def counts(report):
    """Every integer the traced pass reports, plus the per-call digests."""
    out = {k: v for k, v in report["trace"].items() if isinstance(v, int)}
    out["cli.bytes_out"] = sum(rec["bytes"] for rec in report["calls"])
    out["digests"] = [rec["digest"] for rec in report["calls"]]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    env = pinned_env(root)
    ok = True
    for workload in args.workload:
        calls = generate(workload, args.seed)
        deadline = time.perf_counter() + TIME_LIMIT_S
        first, second = (counts(run_pass(root, env, calls, deadline, trace=True)) for _ in range(2))
        differ = sorted(k for k in first if first[k] != second[k])
        ok = ok and not differ
        shown = {k: v for k, v in first.items() if k != "digests"}
        print(f"{workload}: {'differ in ' + ', '.join(differ) if differ else 'repeat exactly'} {shown}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
