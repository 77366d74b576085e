"""Set up one workload in a fresh process, report when it was ready,
and exit.

Usage: ``python3 perfbench/setup_probe.py --workload NAME --seed N
--seconds S``.  The one line printed is ``ready`` and a JSON object
with the ``time.perf_counter()`` reading at which set-up ended and the
speed meter's bursts; the parent converts process start until then --
the set-up a user pays before the first timed operation can begin --
into reference seconds (see :mod:`perfbench.speed`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main() -> int:
    from perfbench import speed

    meter = speed.Meter().start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("fleet-steps", "hypnos-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    if args.workload == "fleet-steps":
        from perfbench import fleet_steps

        fleet_steps.build(args.seed,
                          fleet_steps.STEPS_PER_SECOND * args.seconds)
    else:
        import repro.sweep.runner  # noqa: F401 - the sweep's whole set-up

        from perfbench import hypnos_sweep

        hypnos_sweep.matrix()
    ready = time.perf_counter()
    meter.stop()
    print("ready " + json.dumps({"ready": ready, "starts": meter.starts,
                                 "durations": meter.durations}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
