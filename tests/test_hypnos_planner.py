"""The Hypnos planner against the formulation it replaced.

The oracle here is the planner as it stood before trials were memoised:
a networkx connectivity-and-bridge check, and a greedy pass per demand
level that reroutes every trial afresh and sums the loads again.  The
planner must agree with it on the check, on whole plans, and with the
committed golden plans of the paper's 107-router fleet, while rerouting
each distinct trial set at most once per plan.
"""

import json
import math
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.cli import main
from repro.hardware import VirtualRouter, router_spec
from repro.hardware.router import inversion_grid
from repro.network import FleetTrafficModel
from repro.network.engine import FleetState
from repro.network.topology import ISPNetwork, Link, LinkEnd, LinkKind
from repro.network.traffic import DiurnalProfile, TrafficMatrix
from repro.sleep import Hypnos, HypnosConfig
from repro.sweep.matrix import SLEEP_PRESETS, TRAFFIC_PRESETS, build_topology

GOLDEN = Path(__file__).parent / "data" / "hypnos_full_golden.json"
DAY_S = 86400.0


# -- the oracle ----------------------------------------------------------------


def nx_stays_connected(network, removed, require_redundancy):
    """The networkx formulation of ``Hypnos._stays_connected``."""
    multigraph = network.internal_graph(exclude=removed)
    if not nx.is_connected(nx.Graph(multigraph)):
        return False
    if require_redundancy:
        # Parallel links count as redundancy: a bridge of the collapsed
        # graph fails only when its router pair keeps one link.
        collapsed = nx.Graph()
        collapsed.add_nodes_from(multigraph.nodes)
        for a, b in multigraph.edges():
            if collapsed.has_edge(a, b):
                collapsed[a][b]["multi"] = True
            else:
                collapsed.add_edge(a, b, multi=False)
        for a, b in nx.bridges(collapsed):
            if not collapsed[a][b]["multi"]:
                return False
    return True


def reroute_oracle(matrix, removed):
    """``TrafficMatrix.reroute_without`` with the reduced graph built
    up front: every demand that touches ``removed`` moves, picking
    parallel links by the loads of all demands before it."""
    graph = matrix.network.internal_graph(exclude=removed)
    paths, loads = [], {}
    for demand, old_path in zip(matrix.demands, matrix.paths):
        if old_path is not None and not (set(old_path) & removed):
            path = old_path
        else:
            path = matrix._route_demand(graph, demand, loads)
            if path is None:
                raise ValueError(f"{demand.src}->{demand.dst} stranded")
        paths.append(path)
        for link_id in path:
            loads[link_id] = loads.get(link_id, 0.0) + demand.base_bps
    survivor = TrafficMatrix.__new__(TrafficMatrix)
    survivor.network = matrix.network
    survivor.demands = matrix.demands
    survivor._links_by_id = {k: v for k, v in matrix._links_by_id.items()
                             if k not in removed}
    survivor.paths = paths
    return survivor


def greedy_oracle(planner, demand_multiplier):
    """One window's sleeping set, without any memo."""
    config = planner.config
    links = {l.link_id: l for l in planner.network.internal_links()}
    current = planner.matrix
    removed = set()
    utils = current.utilisations()
    candidates = sorted(
        (lid for lid in links if lid not in config.protected_links),
        key=lambda lid: utils.get(lid, 0.0))
    for link_id in candidates:
        if (config.max_sleeping is not None
                and len(removed) >= config.max_sleeping):
            break
        trial = removed | {link_id}
        if not nx_stays_connected(planner.network, trial,
                                  config.require_redundancy):
            continue
        try:
            rerouted = reroute_oracle(current, trial)
        except ValueError:
            continue
        worst = 0.0
        for lid, load in rerouted.base_link_loads().items():
            if lid in trial:
                continue
            capacity = units.gbps_to_bps(links[lid].speed_gbps)
            worst = max(worst, load * demand_multiplier / capacity)
        if worst > config.max_utilisation:
            continue
        removed = trial
        current = rerouted
    return removed


def plan_oracle(planner, duration_s=DAY_S):
    """``[(level, sleeping)]`` per hourly window, one greedy per level."""
    profile = DiurnalProfile()
    window_s = units.SECONDS_PER_HOUR
    decided = {}
    windows = []
    for i in range(int(round(duration_s / window_s))):
        t0 = i * window_s
        level = round(profile.multiplier(t0 + window_s / 2.0), 1)
        if level not in decided:
            decided[level] = greedy_oracle(planner, level)
        windows.append((level, decided[level]))
    return windows


def windows_of(plan):
    return [(w.demand_multiplier, w.sleeping) for w in plan.windows]


def _fleet(topology, traffic, seed):
    network = build_topology(topology, rng=np.random.default_rng(seed))
    model = FleetTrafficModel(network, rng=np.random.default_rng(seed + 1),
                              **TRAFFIC_PRESETS[traffic])
    return network, model.matrix


# -- the connectivity check ------------------------------------------------------


@st.composite
def multigraphs(draw):
    """A router multigraph with parallel links, self-loops and isolated
    routers, plus a set of link ids to remove (some unknown)."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = [f"r{i:02d}" for i in range(n)]
    ends = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n))
    links = [Link(link_id=k, kind=LinkKind.INTERNAL, speed_gbps=100.0,
                  a=LinkEnd(names[a], 0), b=LinkEnd(names[b], 1))
             for k, (a, b) in enumerate(ends)]
    removed = draw(st.sets(st.integers(0, len(links) + 1)))
    return ISPNetwork(routers=dict.fromkeys(names), links=links), removed


class TestStaysConnected:
    @settings(max_examples=400, deadline=None)
    @given(multigraphs(), st.booleans())
    def test_matches_networkx(self, case, require_redundancy):
        network, removed = case
        planner = Hypnos(network, None,
                         HypnosConfig(require_redundancy=require_redundancy))
        assert planner._stays_connected(removed) == nx_stays_connected(
            network, removed, require_redundancy)

    def test_parallel_links_count_as_redundancy(self):
        # A triangle a-b-c plus a doubled spur a=d.
        ends = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("a", "d")]
        network = ISPNetwork(
            routers=dict.fromkeys("abcd"),
            links=[Link(k, LinkKind.INTERNAL, 10.0, LinkEnd(a, 0),
                        LinkEnd(b, 0)) for k, (a, b) in enumerate(ends)])
        strict = Hypnos(network, None)
        loose = Hypnos(network, None, HypnosConfig(require_redundancy=False))
        assert strict._stays_connected(set())      # a=d is a doubled bridge
        assert not strict._stays_connected({3})    # a-d alone
        assert not strict._stays_connected({0})    # b-c-a is a path
        assert loose._stays_connected({0, 3})
        assert not loose._stays_connected({3, 4})  # d cut off


# -- rerouting -------------------------------------------------------------------


class TestRerouteMatchesOracle:
    @pytest.mark.parametrize("topology,traffic", [("small", "busy"),
                                                  ("full", "busy")])
    def test_paths_and_loads(self, topology, traffic):
        network, matrix = _fleet(topology, traffic, seed=5)
        link_ids = [l.link_id for l in network.internal_links()]
        rng = np.random.default_rng(11)
        compared = 0
        for _ in range(40):
            size = int(rng.integers(1, 7))
            removed = set(rng.choice(link_ids, size=size, replace=False)
                          .tolist())
            try:
                expected = reroute_oracle(matrix, removed)
            except ValueError:
                with pytest.raises(ValueError):
                    matrix.reroute_without(removed)
                continue
            got = matrix.reroute_without(removed)
            assert got.paths == expected.paths
            assert got.base_link_loads() == expected.base_link_loads()
            # A survivor reroutes again, as a committed window does.
            extra = {link_ids[int(rng.integers(len(link_ids)))]} | removed
            try:
                again = reroute_oracle(expected, extra)
            except ValueError:
                continue
            assert got.reroute_without(extra).paths == again.paths
            compared += 1
        assert compared >= 10


# -- whole plans ---------------------------------------------------------------------


def _configs(network):
    """Every sleep preset, plus a window cap and pinned links."""
    presets = {name: HypnosConfig(**cfg)
               for name, cfg in SLEEP_PRESETS.items() if cfg is not None}
    every_third = frozenset(l.link_id for l in network.internal_links()[::3])
    presets["hypnos-50+max_sleeping"] = HypnosConfig(
        **SLEEP_PRESETS["hypnos-50"], max_sleeping=3)
    presets["hypnos-aggressive+protected"] = HypnosConfig(
        **SLEEP_PRESETS["hypnos-aggressive"], protected_links=every_third)
    return presets


class TestPlansMatchOracle:
    @pytest.mark.parametrize("traffic", ["quiet", "busy"])
    @pytest.mark.parametrize("topology", ["tiny", "small"])
    def test_every_preset(self, topology, traffic):
        network, matrix = _fleet(topology, traffic, seed=3)
        for name, config in _configs(network).items():
            planner = Hypnos(network, matrix, config)
            got = windows_of(planner.plan(0.0, DAY_S))
            assert got == plan_oracle(planner), name

    def test_plan_equals_direct_windows(self):
        network, matrix = _fleet("small", "busy", seed=4)
        planner = Hypnos(network, matrix)
        for level, sleeping in windows_of(planner.plan(0.0, DAY_S)):
            assert sleeping == planner.plan_window(level)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["plans"]


class TestGoldenFullPlans:
    """Per-level sleeping sets on the 107-router fleet, as committed."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_quiet(self, golden, seed):
        network, matrix = _fleet("full", "quiet", seed)
        for sleep in ("hypnos-50", "hypnos-aggressive"):
            planner = Hypnos(network, matrix,
                             HypnosConfig(**SLEEP_PRESETS[sleep]))
            got = {repr(level): sorted(sleeping)
                   for level, sleeping in windows_of(
                       planner.plan(0.0, DAY_S))}
            assert got == golden[f"seed-{seed}/{sleep}"], sleep


# -- cost ----------------------------------------------------------------------------


class TestPlanCost:
    def _counting(self, monkeypatch):
        reroutes, levels = [], []
        reroute = TrafficMatrix.reroute_without
        plan_window = Hypnos.plan_window

        def counted_reroute(matrix, removed):
            reroutes.append(frozenset(removed))
            return reroute(matrix, removed)

        def counted_window(planner, level=1.0):
            levels.append(level)
            return plan_window(planner, level)

        monkeypatch.setattr(TrafficMatrix, "reroute_without",
                            counted_reroute)
        monkeypatch.setattr(Hypnos, "plan_window", counted_window)
        return reroutes, levels

    def test_one_reroute_per_trial_set_and_one_pass_per_level(
            self, monkeypatch):
        network, matrix = _fleet("small", "busy", seed=2)
        planner = Hypnos(network, matrix)
        reroutes, levels = self._counting(monkeypatch)
        plan = planner.plan(0.0, 2 * DAY_S)
        distinct = {w.demand_multiplier for w in plan.windows}
        assert sorted(levels) == sorted(distinct)
        assert reroutes
        assert len(reroutes) == len(set(reroutes))

    def test_direct_window_runs_without_memo(self, monkeypatch):
        network, matrix = _fleet("small", "busy", seed=2)
        planner = Hypnos(network, matrix)
        reroutes, _ = self._counting(monkeypatch)
        planner.plan(0.0, DAY_S)
        del reroutes[:]
        first = planner.plan_window(1.0)
        once = len(reroutes)
        assert planner.plan_window(1.0) == first
        assert once > 0 and len(reroutes) == 2 * once


# -- input validation ----------------------------------------------------------------


class TestRejectsInvalidInputs:
    @pytest.fixture
    def planner(self):
        return Hypnos(*_fleet("tiny", "quiet", seed=1))

    @pytest.mark.parametrize("window_s", [0.0, -3600.0, math.nan, math.inf])
    def test_window_length(self, planner, window_s):
        with pytest.raises(ValueError, match="window length"):
            planner.plan(0.0, DAY_S, window_s=window_s)

    @pytest.mark.parametrize("duration_s", [-1.0, math.nan, math.inf])
    def test_duration(self, planner, duration_s):
        with pytest.raises(ValueError, match="duration"):
            planner.plan(0.0, duration_s)

    def test_zero_duration_is_an_empty_plan(self, planner):
        assert planner.plan(0.0, 0.0).windows == []

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 0.0, -0.5])
    def test_cap(self, cap):
        with pytest.raises(ValueError, match="max utilisation"):
            HypnosConfig(max_utilisation=cap)

    def test_nan_multiplier(self, planner):
        with pytest.raises(ValueError, match="multiplier"):
            planner.plan_window(math.nan)

    @pytest.mark.parametrize("argv", [
        ["--days", "-1"], ["--days", "nan"], ["--max-utilisation", "nan"],
        ["--max-utilisation", "0"]])
    def test_sleep_study_exits_2(self, capsys, argv):
        assert main(["sleep-study", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


# -- the shared inversion grid -----------------------------------------------------


class TestSharedInversionGrid:
    def test_routers_of_one_psu_config_share_read_only_arrays(self):
        spec = router_spec("NCS-55A1-24H")
        first = VirtualRouter(spec, rng=np.random.default_rng(1))
        second = VirtualRouter(spec, rng=np.random.default_rng(2))
        assert first.wall_power_w() > 0 and second.wall_power_w() > 0
        grid = inversion_grid(spec.psu)
        assert first._inversion_grid is grid
        assert second._inversion_grid is grid
        for array in grid:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_fleet_state_reads_the_same_arrays(self, small_fleet):
        traffic = FleetTrafficModel(small_fleet,
                                    rng=np.random.default_rng(5),
                                    n_demands=40)
        state = FleetState(small_fleet, traffic)
        grouped = 0
        for indices, wall_grid, dc_grid in state._grid_groups:
            for i in indices:
                grid = inversion_grid(state.routers[i].spec.psu)
                assert grid[0] is wall_grid and grid[1] is dc_grid
            grouped += len(indices)
        assert grouped == len(small_fleet.routers)
