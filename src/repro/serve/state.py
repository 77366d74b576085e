"""Server-side fleet state: models, warmup simulation, what-if engine.

Loading happens once at startup (the ``/readyz`` 503 window):

1. generate the synth fleet for the configured preset;
2. derive a quick lab power model per distinct platform in the fleet
   (the same orchestrator pipeline as ``netpower zoo``, shortened);
3. run a short warmup simulation with attribution to produce the
   ``/fleet`` snapshot document;
4. build a :class:`~repro.network.engine.FleetState` over the warmed
   fleet for ``/whatif`` vector-engine evaluation, and read its
   per-router wall power once as every what-if's baseline.

Everything is seeded, so two servers loaded with the same preset and
seed serve byte-identical ``/fleet`` documents and what-if deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import units
from repro.core import derive_power_model
from repro.core.model import PowerModel
from repro.hardware import (TRANSCEIVER_CATALOG, Port, VirtualRouter,
                            router_spec)
from repro.lab import ExperimentPlan, Orchestrator
from repro.network import (FleetTrafficModel, NetworkSimulation,
                           generate_synth_network, synth_config)
from repro.network.engine import FleetState
from repro.serve.schemas import SERVE_SCHEMA, RequestError, WhatIfRequest

#: Preferred lab module per port form factor for quick derivations.
DEFAULT_TRX_BY_PORT = {
    "QSFP-DD": "QSFP-DD-400G-DAC",
    "QSFP28": "QSFP28-100G-DAC",
    "QSFP": "QSFP-100G-DAC",
    "SFP28": "SFP28-25G-DAC",
    "SFP+": "SFP+-10G-DAC",
    "SFP": "SFP-1G-LX",
    "RJ45": "RJ45-1G-T",
}

#: The pair-count ladder quick derivations try per port type.
_PAIR_LADDER = (1, 2, 4)

#: Utilisation fractions swept per rate point.
_RATE_FRACTIONS = (0.2, 0.5, 0.95)

#: Rates above this are clamped to it (the lab generator's ceiling).
_MAX_LAB_RATE_GBPS = 100.0


def quick_lab_model(model_name: str, seed: int) -> Optional[PowerModel]:
    """A shortened lab derivation for one platform.

    One experiment suite per distinct port form factor, using the
    preferred DAC/optic for that form factor and a pair ladder trimmed
    to what the platform physically offers.  Returns ``None`` when no
    port type yields at least two feasible pair counts (nothing to
    regress on).
    """
    spec = router_spec(model_name)
    rng = np.random.default_rng(seed)
    dut = VirtualRouter(spec, rng=rng, noise_std_w=0.2)
    orchestrator = Orchestrator(dut, rng=rng)
    suites = []
    seen = set()
    for group in spec.port_groups:
        port_type = group.port_type.value
        if port_type in seen:
            continue
        seen.add(port_type)
        trx_name = DEFAULT_TRX_BY_PORT.get(port_type)
        if trx_name is None:
            continue
        max_pairs = sum(g.count for g in spec.port_groups
                        if g.port_type.value == port_type) // 2
        pairs = tuple(p for p in _PAIR_LADDER if p <= max_pairs)
        if len(pairs) < 2:
            continue
        speed = TRANSCEIVER_CATALOG[trx_name].speed_gbps
        top = min(speed, _MAX_LAB_RATE_GBPS)
        plan = ExperimentPlan(
            trx_name=trx_name, n_pairs_values=pairs,
            rates_gbps=tuple(round(f * top, 3) for f in _RATE_FRACTIONS),
            packet_sizes=(256, 1500),
            measure_duration_s=10, settle_time_s=1)
        suites.append(orchestrator.run_suite(plan))
    if not suites:
        return None
    model, _reports = derive_power_model(suites)
    return model


@dataclass
class FleetService:
    """The loaded fleet and everything the endpoints read from it."""

    preset: str
    seed: int
    models: Dict[str, PowerModel] = field(default_factory=dict)
    fleet_doc: Dict = field(default_factory=dict)
    _network: Optional[object] = None
    _state: Optional[FleetState] = None
    _baseline: Optional[np.ndarray] = None
    _internal_links: Dict[int, object] = field(default_factory=dict)

    @classmethod
    def load(cls, preset: str, seed: int,
             warmup_steps: int = 8,
             warmup_step_s: float = 300.0) -> "FleetService":
        """Build the whole serving state (blocking; runs off-loop)."""
        service = cls(preset=preset, seed=seed)
        config = synth_config(preset)
        network = generate_synth_network(
            config, rng=np.random.default_rng(seed))
        for index, model_name in enumerate(sorted(set(config.models()))):
            model = quick_lab_model(model_name, seed + 100 + index)
            if model is not None:
                service.models[model_name] = model
        traffic = FleetTrafficModel(
            network, rng=np.random.default_rng(seed + 1))
        sim = NetworkSimulation(
            network, traffic, rng=np.random.default_rng(seed + 2))
        result = sim.run(duration_s=warmup_steps * warmup_step_s,
                         step_s=warmup_step_s, engine="auto",
                         attribution=True)
        service._network = network
        service._internal_links = {
            link.link_id: link for link in network.links
            if link.is_internal}
        service._state = FleetState(network, traffic)
        # Nothing in serve patches this fleet except whatif, which
        # restores it before returning, so its wall power now is the
        # baseline of every what-if.
        service._baseline = service._state.wall_power()
        service.fleet_doc = service._build_fleet_doc(result, warmup_step_s)
        return service

    # -- /fleet -------------------------------------------------------------

    def _build_fleet_doc(self, result, step_s: float) -> Dict:
        """The ``/fleet`` snapshot document (wall-clock free)."""
        network = self._network
        power = result.total_power
        traffic_bps = result.total_traffic_bps
        doc = {
            "schema": SERVE_SCHEMA,
            "kind": "fleet",
            "preset": self.preset,
            "seed": self.seed,
            "n_routers": len(network.routers),
            "n_links": len(network.links),
            "n_internal_links": len(self._internal_links),
            "n_pops": len(network.pops),
            "models": sorted(self.models),
            "warmup": {
                "steps": len(power),
                "step_s": step_s,
                "total_power_w": round(float(power.values[-1]), 6),
                "mean_power_w": round(float(power.values.mean()), 6),
                "total_traffic_gbps": round(
                    units.bps_to_gbps(float(traffic_bps.values[-1])), 6),
            },
        }
        if result.ledger is not None:
            doc["attribution"] = result.ledger.to_dict()
        return doc

    # -- /whatif ------------------------------------------------------------

    def whatif(self, request: WhatIfRequest) -> Dict:
        """Evaluate a counterfactual admin-state change on the fleet.

        First-order delta: port admin states are toggled, the affected
        routers' configuration columns are re-patched, and wall power
        is re-read from the vector engine -- traffic is *not*
        re-routed.  The baseline is the wall power read at load.  The
        fleet is restored (and re-patched) before returning, so
        what-if requests never perturb each other or the ``/fleet``
        snapshot; the server runs this on its event loop, which
        serialises calls.
        """
        state = self._state
        network = self._network
        baseline = self._baseline
        assert state is not None and network is not None \
            and baseline is not None
        toggles: List[Tuple[object, bool]] = []

        def plan_toggle(hostname: str, port_index: int,
                        admin_up: bool) -> None:
            router = network.routers.get(hostname)
            if router is None:
                raise RequestError(f"unknown router {hostname!r}")
            if not 0 <= port_index < len(router.ports):
                raise RequestError(
                    f"{hostname} has no port {port_index}")
            toggles.append((router.ports[port_index], admin_up))

        for change in request.changes:
            plan_toggle(change.hostname, change.port_index,
                        change.admin_up)
        for link_id in request.sleep_links:
            link = self._internal_links.get(link_id)
            if link is None:
                raise RequestError(f"unknown internal link {link_id}")
            plan_toggle(link.a.hostname, link.a.port_index, False)
            plan_toggle(link.b.hostname, link.b.port_index, False)

        hosts = sorted({port.router.hostname for port, _up in toggles})
        host_rows = [state.router_index[h] for h in hosts]
        # Flipping one end's admin state changes link_up on *both*
        # ends of the cable (as events._port_link_hosts declares for
        # SetAdminState), so the patch set must include the cable
        # peers or their columns go stale.
        patch_hosts = set(hosts)
        # An external port's peer is another network's port, which has
        # no router to patch.
        for port, _up in toggles:
            peer = port.peer
            if isinstance(peer, Port) and \
                    peer.router.hostname in state.router_index:
                patch_hosts.add(peer.router.hostname)
        patch_list = sorted(patch_hosts)
        baseline_total = float(baseline.sum())
        saved = [(port, port.admin_up) for port, _up in toggles]
        try:
            for port, admin_up in toggles:
                port.set_admin(admin_up)
            state.patch_routers(patch_list)
            variant = state.wall_power()
        finally:
            for port, admin_up in saved:
                port.set_admin(admin_up)
            state.patch_routers(patch_list)
        variant_total = float(variant.sum())
        routers = [
            {"hostname": host,
             "baseline_w": round(float(baseline[row]), 6),
             "variant_w": round(float(variant[row]), 6),
             "delta_w": round(float(variant[row] - baseline[row]), 6)}
            for host, row in zip(hosts, host_rows)]
        return {
            "schema": SERVE_SCHEMA,
            "kind": "whatif",
            "changes_applied": len(toggles),
            "baseline_w": round(baseline_total, 6),
            "variant_w": round(variant_total, 6),
            "delta_w": round(variant_total - baseline_total, 6),
            "routers": routers,
        }
