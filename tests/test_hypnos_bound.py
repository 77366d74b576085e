"""An exact bound on how many links Hypnos can sleep (§8).

Giroire et al.'s switch-off formulation as a mixed-integer program, solved
per demand level on the ``small`` fleet (12 routers, 22 internal links)
with redundancy required:

* one binary sleep variable per internal link, maximising their sum;
* per-source splittable flow in Gbps over both directions of every link,
  with ``level x load <= cap x capacity`` on links left awake and no load
  on sleeping ones;
* one constraint per router cut (2^11 - 1 of them) keeping at least two
  links across it awake -- exactly the planner's 2-edge-connectivity.

Every sleeping set Hypnos commits routes each demand on one path within
the cap, so it is a feasible point: the optimum bounds Hypnos from above,
and an infeasible model means Hypnos must sleep nothing.  EXPERIMENTS.md
E14 records the gap.  Flows are in Gbps: in bps the solver's tolerances,
next to 0/1 variables, admit optima below Hypnos's own count.
"""

import itertools

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

from repro import units  # noqa: E402
from repro.network import FleetTrafficModel  # noqa: E402
from repro.sleep import Hypnos, HypnosConfig  # noqa: E402
from repro.sweep.matrix import TRAFFIC_PRESETS, build_topology  # noqa: E402

CAP = 0.5


class SwitchOffModel:
    """The level-independent rows of the program for one fleet."""

    def __init__(self, network, matrix):
        self.links = network.internal_links()
        routers = sorted(network.routers)
        sources = sorted({d.src for d in matrix.demands})
        n_links = len(self.links)
        self.n_vars = n_links + 2 * n_links * len(sources)
        self.speeds = np.array([l.speed_gbps for l in self.links])
        rows, cols, vals, lo, hi = [], [], [], [], []

        def flow(k, e, backwards):
            return n_links + 2 * (k * n_links + e) + backwards

        # Flow conservation, per source and router.
        for k, source in enumerate(sources):
            supply = dict.fromkeys(routers, 0.0)
            for demand in matrix.demands:
                if demand.src == source:
                    gbps = units.bps_to_gbps(demand.base_bps)
                    supply[source] += gbps
                    supply[demand.dst] -= gbps
            for router in routers:
                row = len(lo)
                for e, link in enumerate(self.links):
                    a, b = link.a.hostname, link.b.hostname
                    if a == b or router not in (a, b):
                        continue
                    sign = 1.0 if router == a else -1.0
                    rows += [row, row]
                    cols += [flow(k, e, 0), flow(k, e, 1)]
                    vals += [sign, -sign]
                lo.append(supply[router])
                hi.append(supply[router])
        # Cuts: at least two awake links across every split of routers.
        first, rest = routers[0], routers[1:]
        for size in range(len(rest) + 1):
            for others in itertools.combinations(rest, size):
                side = {first, *others}
                if len(side) == len(routers):
                    continue
                row = len(lo)
                crossing = [e for e, l in enumerate(self.links)
                            if (l.a.hostname in side)
                            != (l.b.hostname in side)]
                rows += [row] * len(crossing)
                cols += crossing
                vals += [1.0] * len(crossing)
                lo.append(-np.inf)
                hi.append(len(crossing) - 2.0)
        self.fixed = (rows, cols, vals, lo, hi)
        self.n_sources = len(sources)
        self.n_cuts = len(lo) - len(sources) * len(routers)

    def max_sleeping(self, level):
        """The optimum number of sleeping links, or None if infeasible."""
        rows, cols, vals, lo, hi = (list(part) for part in self.fixed)
        n_links = len(self.links)
        for e in range(n_links):
            row = len(lo)
            budget = CAP * self.speeds[e]
            rows.append(row)
            cols.append(e)
            vals.append(budget)
            for k in range(self.n_sources):
                for backwards in (0, 1):
                    rows.append(row)
                    cols.append(n_links + 2 * (k * n_links + e) + backwards)
                    vals.append(level)
            lo.append(-np.inf)
            hi.append(budget)
        a = sparse.csr_matrix((vals, (rows, cols)),
                              shape=(len(lo), self.n_vars))
        cost = np.zeros(self.n_vars)
        cost[:n_links] = -1.0
        integrality = np.zeros(self.n_vars)
        integrality[:n_links] = 1
        upper = np.full(self.n_vars, np.inf)
        upper[:n_links] = 1.0
        result = optimize.milp(
            cost, integrality=integrality,
            bounds=optimize.Bounds(np.zeros(self.n_vars), upper),
            constraints=optimize.LinearConstraint(a, lo, hi))
        if result.status == 2:
            return None
        assert result.status == 0, result.message
        return int(round(-result.fun))


def overload_level(network, matrix):
    """A level at which the demands of one router exceed the cap on all
    of its links together, so that no routing meets the cap."""
    router = matrix.demands[0].src
    touching = sum(d.base_bps for d in matrix.demands
                   if router in (d.src, d.dst))
    capacity = sum(units.gbps_to_bps(l.speed_gbps)
                   for l in network.internal_links()
                   if router in (l.a.hostname, l.b.hostname))
    return 2.0 * CAP * capacity / touching


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_hypnos_never_beats_the_switch_off_optimum(seed):
    network = build_topology("small", rng=np.random.default_rng(seed))
    matrix = FleetTrafficModel(network, rng=np.random.default_rng(seed + 1),
                               **TRAFFIC_PRESETS["quiet"]).matrix
    planner = Hypnos(network, matrix,
                     HypnosConfig(max_utilisation=CAP,
                                  require_redundancy=True))
    model = SwitchOffModel(network, matrix)
    assert (len(model.links), model.n_cuts) == (22, 2 ** 11 - 1)
    plan = planner.plan(0.0, 86400.0)
    levels = {w.demand_multiplier: w.sleeping for w in plan.windows}
    overload = overload_level(network, matrix)
    levels[overload] = planner.plan_window(overload)
    infeasible = 0
    for level, sleeping in sorted(levels.items()):
        optimum = model.max_sleeping(level)
        if optimum is None:
            infeasible += 1
            assert not sleeping, level
        else:
            assert len(sleeping) <= optimum, level
    assert infeasible == 1
