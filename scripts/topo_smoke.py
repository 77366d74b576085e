#!/usr/bin/env python
"""CI smoke test for the synthetic-topology + engine-equivalence stack.

Usage::

    python scripts/topo_smoke.py [--preset synth-1k] [--steps 50] [--seed 7]

Generates a seeded ~1k-router multi-tier fleet twice and checks the
inventory JSON is byte-identical (the generator's determinism contract,
docs/TOPOLOGY.md), then runs the same seeded simulation through both
engines and compares digests: interface counters must hash identically
(the engines advance them with bit-equal arithmetic), so must every
router's generator position and PSU sensor state (the vector engine
draws each router's normals a block at a time and must leave each
generator where the object engine's scalar draws do; 50 steps cross
one block refill), and the total-power traces must agree to 1e-9
relative.  Exit code 0 on success, 1 with a diagnosis on stderr
otherwise.  Designed to finish well under a minute on a CI runner: the
object engine dominates at ~0.2 s/step for 50 steps.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.network import (  # noqa: E402
    FleetInventory,
    FleetTrafficModel,
    NetworkSimulation,
    generate_synth_network,
    synth_config,
)

STEP_S = 300.0


def _build(preset: str, seed: int):
    network = generate_synth_network(
        synth_config(preset), rng=np.random.default_rng(seed))
    traffic = FleetTrafficModel(
        network, rng=np.random.default_rng(seed + 1))
    sim = NetworkSimulation(
        network, traffic, rng=np.random.default_rng(seed + 2))
    return network, sim


def _counter_digest(network) -> str:
    """SHA-256 over every interface counter, in sorted host/name order."""
    digest = hashlib.sha256()
    for host in sorted(network.routers):
        for name, ctr in sorted(
                network.routers[host].interface_counters().items()):
            digest.update(f"{host}/{name}:{ctr.rx_octets}:{ctr.tx_octets}"
                          f":{ctr.rx_packets}:{ctr.tx_packets}\n".encode())
    return digest.hexdigest()


def _generator_digest(network) -> str:
    """SHA-256 over every router's generator state and PSU sensor
    state (plateau and bias), in sorted host order."""
    digest = hashlib.sha256()
    for host in sorted(network.routers):
        router = network.routers[host]
        digest.update(f"{host}:{router.rng.bit_generator.state!r}"
                      f":{router._pseudo_constant_basis!r}"
                      f":{router._sensor_bias_w!r}\n".encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="synth-1k")
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()

    inv1 = FleetInventory.capture(_build(args.preset, args.seed)[0])
    inv2 = FleetInventory.capture(_build(args.preset, args.seed)[0])
    if inv1.to_json() != inv2.to_json():
        print(f"FAIL: {args.preset} seed={args.seed} generated two "
              "different fleets (inventory JSON differs)", file=sys.stderr)
        return 1
    print(f"topology deterministic: {len(inv1)} routers, "
          f"{inv1.total_modules()} modules "
          f"({time.perf_counter() - t0:.1f}s)")

    duration_s = args.steps * STEP_S
    results = {}
    networks = {}
    for engine in ("object", "vector"):
        network, sim = _build(args.preset, args.seed)
        t1 = time.perf_counter()
        results[engine] = sim.run(duration_s=duration_s, step_s=STEP_S,
                                  engine=engine)
        networks[engine] = network
        print(f"{engine}: {args.steps} steps in "
              f"{time.perf_counter() - t1:.1f}s")

    digests = {engine: _counter_digest(network)
               for engine, network in networks.items()}
    if digests["object"] != digests["vector"]:
        print(f"FAIL: counter digests differ: object {digests['object']} "
              f"vs vector {digests['vector']}", file=sys.stderr)
        return 1
    print(f"counter digest match: {digests['vector'][:16]}…")

    digests = {engine: _generator_digest(network)
               for engine, network in networks.items()}
    if digests["object"] != digests["vector"]:
        print(f"FAIL: generator digests differ: object {digests['object']} "
              f"vs vector {digests['vector']}", file=sys.stderr)
        return 1
    print(f"generator digest match: {digests['vector'][:16]}…")

    p_obj = results["object"].total_power.values
    p_vec = results["vector"].total_power.values
    rel = float(np.max(np.abs(p_vec - p_obj)
                       / np.maximum(np.abs(p_obj), 1e-12)))
    if rel > 1e-9:
        print(f"FAIL: total-power traces diverge (max rel err {rel:.2e})",
              file=sys.stderr)
        return 1
    print(f"power traces agree (max rel err {rel:.2e}); "
          f"total {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
