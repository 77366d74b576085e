"""Hypnos: utilisation-aware link sleeping (§8).

The algorithm evaluated by the paper turns off internal links that are not
needed to carry the current traffic, subject to two safety constraints:

* the internal topology must stay **connected** (no router isolated);
* after rerouting the displaced demands, **no remaining link may exceed a
  maximum utilisation** threshold.

Only *internal* links are candidates: an ISP cannot unilaterally shut a
customer or peering interface -- the paper's point that 51 % of Switch's
interfaces (and 52 % of transceiver power) are out of reach for sleeping.

The planner is greedy from the least-utilised candidate up, recomputing
routes incrementally after each commitment, and can be run per time window
so the sleeping set follows the diurnal traffic curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro import units
from repro.network.topology import ISPNetwork
from repro.network.traffic import DiurnalProfile, TrafficMatrix


@dataclass(frozen=True)
class HypnosConfig:
    """Planner parameters.

    ``max_utilisation`` is the post-rerouting cap on any internal link;
    ``protected_links`` are never turned off (e.g. the core-core bundle's
    last member is protected implicitly by connectivity, but operators may
    pin more).
    """

    max_utilisation: float = 0.5
    protected_links: frozenset = frozenset()
    #: Upper bound on how many links one window may sleep; None = no cap.
    max_sleeping: Optional[int] = None
    #: Keep the surviving topology 2-edge-connected, not merely connected,
    #: so a single link failure never partitions the network.  This is the
    #: operationally realistic setting and yields the paper's ~1/3
    #: sleepable share; ``False`` sleeps more aggressively.
    require_redundancy: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.max_utilisation)
                and self.max_utilisation > 0):
            raise ValueError(f"max utilisation must be finite and > 0, "
                             f"got {self.max_utilisation}")


@dataclass
class WindowPlan:
    """The sleeping decision for one time window."""

    t_start_s: float
    t_end_s: float
    demand_multiplier: float
    sleeping: Set[int]

    @property
    def duration_s(self) -> float:
        """Window length."""
        return self.t_end_s - self.t_start_s


@dataclass
class SleepPlan:
    """A full multi-window sleeping schedule."""

    windows: List[WindowPlan] = field(default_factory=list)

    @property
    def total_duration_s(self) -> float:
        """Total planned time."""
        return sum(w.duration_s for w in self.windows)

    def sleep_fraction(self, link_id: int) -> float:
        """Fraction of planned time a link spends asleep."""
        total = self.total_duration_s
        if total == 0:
            return 0.0
        asleep = sum(w.duration_s for w in self.windows
                     if link_id in w.sleeping)
        return asleep / total

    def ever_sleeping(self) -> Set[int]:
        """Links asleep in at least one window."""
        out: Set[int] = set()
        for window in self.windows:
            out |= window.sleeping
        return out


#: A trial's rerouted matrix with its link loads; None when the trial
#: disconnects the routers or strands a demand.
_Outcome = Optional[Tuple[TrafficMatrix, Dict[int, float]]]


class Hypnos:
    """The greedy link-sleeping planner."""

    def __init__(self, network: ISPNetwork, matrix: TrafficMatrix,
                 config: Optional[HypnosConfig] = None):
        self.network = network
        self.matrix = matrix
        self.config = config if config is not None else HypnosConfig()
        self._links = {l.link_id: l for l in network.internal_links()}
        self._capacity_bps = {link_id: units.gbps_to_bps(link.speed_gbps)
                              for link_id, link in self._links.items()}
        # The collapsed router graph: each link's router pair, the number
        # of internal links per pair, and every router's distinct
        # neighbours (self-loops never connect anything, so they are left
        # out).  A pair is an edge while at least one of its links is up.
        self._pair_of: Dict[int, Tuple[str, str]] = {}
        self._pair_links: Dict[Tuple[str, str], int] = {}
        self._neighbours: Dict[str, List[Tuple[str, Tuple[str, str]]]] = {
            hostname: [] for hostname in network.routers}
        for link_id, link in self._links.items():
            a, b = link.a.hostname, link.b.hostname
            pair = (a, b) if a <= b else (b, a)
            self._pair_of[link_id] = pair
            if pair not in self._pair_links:
                self._pair_links[pair] = 0
                if a != b:
                    self._neighbours.setdefault(a, []).append((b, pair))
                    self._neighbours.setdefault(b, []).append((a, pair))
            self._pair_links[pair] += 1
        #: Trial outcomes of the running :meth:`plan`, keyed by trial set.
        self._outcomes: Optional[Dict[FrozenSet[int], _Outcome]] = None

    # -- helpers ----------------------------------------------------------------

    def _stays_connected(self, removed: Set[int]) -> bool:
        """Whether the routers stay connected without ``removed`` links.

        One iterative low-link depth-first search over the collapsed
        router graph.  Under ``require_redundancy`` the topology must also
        stay 2-edge-connected on the multigraph: parallel links count as
        redundancy, so it fails only on a bridge whose router pair keeps
        exactly one link.
        """
        lost: Dict[Tuple[str, str], int] = {}
        for link_id in removed:
            pair = self._pair_of.get(link_id)
            if pair is not None:
                lost[pair] = lost.get(pair, 0) + 1
        alive = self._pair_links
        redundancy = self.config.require_redundancy
        neighbours = self._neighbours
        root = next(iter(neighbours))
        order = {root: 0}
        low = {root: 0}
        stack = [(root, None, None, iter(neighbours[root]))]
        while stack:
            node, parent, via, todo = stack[-1]
            for nbr, pair in todo:
                if nbr == parent or alive[pair] == lost.get(pair, 0):
                    continue
                if nbr in order:
                    low[node] = min(low[node], order[nbr])
                    continue
                order[nbr] = low[nbr] = len(order)
                stack.append((nbr, node, pair, iter(neighbours[nbr])))
                break
            else:
                stack.pop()
                if parent is None:
                    continue
                if low[node] < low[parent]:
                    low[parent] = low[node]
                elif (redundancy and low[node] > order[parent]
                      and alive[via] - lost.get(via, 0) == 1):
                    return False
        return len(order) == len(neighbours)

    def _outcome(self, current: TrafficMatrix, trial: Set[int]) -> _Outcome:
        """``current`` rerouted without ``trial``, with its link loads.

        Inside :meth:`plan` the outcome is memoised by trial set.
        """
        memo = self._outcomes
        key = frozenset(trial)
        if memo is not None and key in memo:
            return memo[key]
        outcome = None
        if self._stays_connected(trial):
            try:
                rerouted = current.reroute_without(trial)
            except ValueError:
                pass  # some demand would be stranded
            else:
                outcome = (rerouted, rerouted.base_link_loads())
        if memo is not None:
            memo[key] = outcome
        return outcome

    def _max_utilisation(self, loads: Dict[int, float],
                         demand_multiplier: float) -> float:
        worst = 0.0
        for link_id, load in loads.items():
            worst = max(worst, load * demand_multiplier
                        / self._capacity_bps[link_id])
        return worst

    # -- planning ---------------------------------------------------------------------

    def plan_window(self, demand_multiplier: float = 1.0) -> Set[int]:
        """Choose the sleeping set for one window's demand level.

        Greedy: candidates in ascending-utilisation order; a candidate is
        committed iff the network stays connected, every displaced demand
        reroutes, and no surviving link exceeds the utilisation cap.
        """
        if not demand_multiplier >= 0:
            raise ValueError(
                f"demand multiplier must be >= 0, got {demand_multiplier}")
        current = self.matrix
        removed: Set[int] = set()
        utils = current.utilisations()
        candidates = sorted(
            (lid for lid in self._links
             if lid not in self.config.protected_links),
            key=lambda lid: utils.get(lid, 0.0))
        for link_id in candidates:
            if (self.config.max_sleeping is not None
                    and len(removed) >= self.config.max_sleeping):
                break
            trial = removed | {link_id}
            outcome = self._outcome(current, trial)
            if outcome is None:
                continue
            rerouted, loads = outcome
            if (self._max_utilisation(loads, demand_multiplier)
                    > self.config.max_utilisation):
                continue
            removed = trial
            current = rerouted
        return removed

    def plan(self, start_s: float, duration_s: float,
             window_s: float = units.SECONDS_PER_HOUR,
             profile: Optional[DiurnalProfile] = None) -> SleepPlan:
        """Plan a schedule over consecutive windows of a diurnal period.

        Windows with the same (quantised) demand level share a sleeping
        decision, and the demand levels share their trials: a plan costs
        one connectivity check and at most one reroute per distinct trial
        set, plus one cap comparison per level and trial.

        The trial memo is exact.  Candidates are tried in one order that
        does not depend on the level (ascending base utilisation), and a
        window commits links in that order.  So the links a trial set
        holds besides its last candidate in that order are exactly the
        links committed before it, the matrix it is rerouted from is the
        outcome of that smaller set, and by induction the rerouted matrix
        and its loads depend on the trial set alone.  Only the cap
        comparison depends on the level.  The memo lives for one call;
        a direct :meth:`plan_window` call runs without it.
        """
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError(
                f"window length must be finite and > 0, got {window_s}")
        if not (math.isfinite(duration_s) and duration_s >= 0):
            raise ValueError(
                f"plan duration must be finite and >= 0, got {duration_s}")
        if profile is None:
            profile = DiurnalProfile()
        plan = SleepPlan()
        cache: Dict[float, Set[int]] = {}
        n_windows = int(round(duration_s / window_s))
        self._outcomes = {}
        try:
            for i in range(n_windows):
                t0 = start_s + i * window_s
                mult = profile.multiplier(t0 + window_s / 2.0)
                level = round(mult, 1)  # quantise to reuse decisions
                if level not in cache:
                    cache[level] = self.plan_window(level)
                plan.windows.append(WindowPlan(
                    t_start_s=t0, t_end_s=t0 + window_s,
                    demand_multiplier=level, sleeping=set(cache[level])))
        finally:
            self._outcomes = None
        return plan
