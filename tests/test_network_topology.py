"""The synthetic Switch-like fleet: structure, calibration, and the
wiring both generators share, pinned against committed digests."""

import hashlib
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.hardware import TABLE1_MEASURED_MEDIAN_W
from repro.hardware.router import Port
from repro.network import (
    FleetConfig,
    FleetInventory,
    LinkKind,
    build_switch_like_network,
    generate_synth_network,
    synth_config,
)

WIRING_GOLDEN = Path(__file__).parent / "data" / "fleet_wiring_golden.json"


class TestFleetStructure:
    def test_107_routers(self, fleet):
        assert len(fleet.routers) == 107
        assert FleetConfig().n_routers == 107

    def test_pops_partition_the_fleet(self, fleet):
        members = [h for hosts in fleet.pops.values() for h in hosts]
        assert sorted(members) == sorted(fleet.routers)

    def test_internal_graph_connected(self, fleet):
        graph = nx.Graph(fleet.internal_graph())
        assert nx.is_connected(graph)

    def test_redundancy_for_sleeping(self, fleet):
        # The fleet must have sleepable slack: strictly more internal
        # links than a spanning tree needs.
        assert len(fleet.internal_links()) > len(fleet.routers) + 20

    def test_internal_links_are_cabled_and_up(self, fleet):
        for link in fleet.internal_links()[:50]:
            port_a = fleet.port_of(link.a)
            port_b = fleet.port_of(link.b)
            assert port_a.link_up and port_b.link_up
            assert port_a.peer is port_b

    def test_external_links_are_up_with_stub_peer(self, fleet):
        for link in fleet.external_links()[:50]:
            port = fleet.port_of(link.a)
            assert link.b is None
            assert port.link_up
            assert link.peer_name

    def test_speeds_match_port_capabilities(self, fleet):
        for link in fleet.links:
            port = fleet.port_of(link.a)
            assert link.speed_gbps <= port.port_type.max_speed_gbps
            assert port.speed_gbps == pytest.approx(link.speed_gbps)


class TestCalibration:
    """The Fig. 1 / Table 1 / §7-§8 aggregate targets."""

    def test_total_power_near_fig1(self, fleet):
        total = fleet.total_wall_power_w()
        assert 19_000 < total < 25_000  # paper: ≈21.7 kW

    def test_external_interface_share_near_half(self, fleet):
        stats = fleet.interface_stats()
        share = stats["external_interfaces"] / stats["total_interfaces"]
        assert 0.40 < share < 0.70  # paper: 51 %

    def test_transceiver_share_of_total_power(self, fleet):
        total = fleet.total_wall_power_w()
        trx = 0.0
        for router in fleet.routers.values():
            for port in router.ports:
                truth = port.class_truth()
                if truth is not None:
                    trx += truth.p_trx_in_w
                    if port.link_up:
                        trx += truth.p_trx_up_w
        assert 0.05 < trx / total < 0.15  # paper: ≈10 %

    def test_table1_medians_reproduced(self, fleet):
        from collections import defaultdict
        by_model = defaultdict(list)
        for router in fleet.routers.values():
            by_model[router.model_name].append(
                router.wall_power_w(include_noise=False))
        for model, target in TABLE1_MEASURED_MEDIAN_W.items():
            median = float(np.median(by_model[model]))
            assert median == pytest.approx(target, rel=0.10), model

    def test_spare_modules_exist(self, fleet):
        spares = [
            port
            for router in fleet.routers.values()
            for port in router.ports
            if port.plugged and not port.admin_up
        ]
        assert len(spares) >= 5  # §6.2's spare-transceiver phenomenon


class TestConfigValidation:
    def test_unknown_model_rejected(self):
        config = FleetConfig(model_counts=(("IMAGINARY-9000", 3),))
        with pytest.raises(ValueError, match="unknown router models"):
            build_switch_like_network(config)

    def test_custom_small_fleet(self, small_fleet):
        assert len(small_fleet.routers) == 18
        assert nx.is_connected(nx.Graph(small_fleet.internal_graph()))

    def test_router_lookup_error(self, small_fleet):
        with pytest.raises(KeyError, match="unknown router"):
            small_fleet.router("nope")


class TestGraphViews:
    def test_exclude_removes_edges(self, fleet):
        link = fleet.internal_links()[0]
        full = fleet.internal_graph()
        reduced = fleet.internal_graph(exclude=[link.link_id])
        assert full.number_of_edges() - reduced.number_of_edges() == 1

    def test_capacity_positive(self, fleet):
        assert fleet.total_capacity_bps() > 1e12


class TestPopViews:
    def test_pop_power_sums_to_total(self, fleet):
        per_pop = fleet.pop_power_w()
        total = fleet.total_wall_power_w()
        assert sum(per_pop.values()) == pytest.approx(total, rel=0.02)
        assert set(per_pop) == set(fleet.pops)

    def test_core_pops_are_heavy(self, fleet):
        per_pop = fleet.pop_power_w()
        core = per_pop["pop-core-a"] + per_pop["pop-core-b"]
        regional_mean = np.mean([p for name, p in per_pop.items()
                                 if name.startswith("pop-r")])
        # Six core routers per site vs a handful of access boxes.
        assert core / 2 > regional_mean

    def test_pop_of(self, fleet):
        host = sorted(fleet.routers)[0]
        pop = fleet.pop_of(host)
        assert host in fleet.pops[pop]
        with pytest.raises(KeyError, match="not placed"):
            fleet.pop_of("ghost")


# -- wiring pinned across commits ---------------------------------------------------


def wiring_digest(network) -> str:
    """SHA-256 over everything a generator decides: the inventory JSON,
    the link list, the PoPs, each port's configured speed, admin state
    and cable peer, and each router's PSU offsets and generator state."""
    digest = hashlib.sha256()

    def put(value) -> None:
        digest.update(repr(value).encode())
        digest.update(b"\n")

    digest.update(FleetInventory.capture(network).to_json().encode())
    for link in network.links:
        b = None if link.b is None else (link.b.hostname, link.b.port_index)
        put((link.link_id, link.kind, link.speed_gbps,
             (link.a.hostname, link.a.port_index), b, link.peer_name,
             link.distance))
    put(list(network.pops.items()))
    for hostname, router in network.routers.items():
        for port in router.ports:
            peer = port.peer
            if isinstance(peer, Port):
                peer = (peer.router.hostname, peer.index)
            elif peer is not None:
                peer = peer.name
            put((hostname, port.index, port.configured_speed_gbps,
                 port.admin_up, peer))
        put((hostname,
             [psu.efficiency_offset for psu in router.psu_group.instances],
             router.rng.bit_generator.state))
    return digest.hexdigest()


WIRING_CASES = {
    "full/seed-1": lambda: build_switch_like_network(
        rng=np.random.default_rng(1)),
    "full/seed-7": lambda: build_switch_like_network(
        rng=np.random.default_rng(7)),
    "synth-200/seed-42": lambda: generate_synth_network(
        synth_config("synth-200"), rng=np.random.default_rng(42)),
    "synth-1k/seed-1": lambda: generate_synth_network(
        synth_config("synth-1k"), rng=np.random.default_rng(1)),
}


class TestWiringGolden:
    """Both generators build byte-for-byte the fleets they built when
    the digests were committed, not only the same fleet twice."""

    @pytest.mark.parametrize("case", sorted(WIRING_CASES))
    def test_fleet_matches_committed_digest(self, case):
        golden = json.loads(WIRING_GOLDEN.read_text())["digests"]
        assert wiring_digest(WIRING_CASES[case]()) == golden[case]
