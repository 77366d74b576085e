"""Run one benchmark workload and print its result line.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: ``fleet-steps``, ``hypnos-sweep``, ``serve-hit``,
``serve-miss`` (see ``BENCHMARK.json`` and ``perfbench/rationale.json``).
With ``--trace 0`` the last line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` a separate traced run carries
every per-layer metric.  The lines before it are the human-readable
report: the workload's own metrics by name and unit, the output
checks, the determinism digest and the host stamp.  The exit code is 0
once a result is printed, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = ("fleet-steps", "hypnos-sweep", "serve-hit", "serve-miss")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench.common import emit, median, metric, say, setup_times, stamp

    trace = bool(args.trace)
    if args.workload in ("serve-hit", "serve-miss"):
        from perfbench import serve_bench

        out = serve_bench.run(args.workload, args.seed, args.seconds, trace)
    else:
        from perfbench import fleet_steps, hypnos_sweep

        setups = [] if trace else setup_times(args.workload, args.seed,
                                               args.seconds)
        module = fleet_steps if args.workload == "fleet-steps" \
            else hypnos_sweep
        out = module.run(args.seed, args.seconds, trace)
        if setups:
            out["end_to_end"]["setup_s"] = metric(median(setups), "s")

    correct = out["failed"] == 0 and out.get("valid", True)
    say(f"digest {out['digest']}")
    say("stamp " + json.dumps(stamp(args.seed), sort_keys=True))
    say(f"checks: {out['attempted'] - out['failed']} of {out['attempted']} "
        f"passed; error_rate = {out['failed'] / out['attempted']:.6f}")
    if trace:
        from perfbench.layers import per_layer

        values = per_layer(out["trace"])
        metrics = {m["name"]: metric(values[m["name"]], m["unit"])
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: metric(out["end_to_end"][m["name"]]["value"],
                                     m["unit"])
                   for m in spec["end_to_end"]}
        for name, entry in sorted(metrics.items()):
            say(f"{name} = {entry['value']:.6g} {entry['unit']}")
    say(f"wall {time.perf_counter() - STARTED:.1f} s")
    emit(correct, out["attempted"], out["failed"], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
