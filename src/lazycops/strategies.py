"""Cop and robber strategies: separator cops, dominating cops, baselines,
solver-optimal wrappers, and the CLI name registry.

Strategy objects are immutable except for explicit per-game cursors reset
in place(); one instance serves one game at a time.

A strategy class that sets `positional = True` promises that its move is a
function of the graph, (cops, robber) and the value of its `memory()`, if it
has one; `game.play` fast-forwards a game between two such players once a
position and memory repeat, and calls `repeat` on a player that counts its
moves.  A subclass whose move reads or counts anything else must set
`positional = False`.  The random strategies (an RNG) and the separator cops
(cursors) are not positional; the G(n,p) robber is, with its previous vertex
as its memory.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from time import perf_counter

from .bounds import ght_separator_bound
from .errors import StrategyError, UsageError
from .game import PASS, CopMove, GameState, RobberMove
from .gnp import GnpRobberStrategy
from .graph import (Graph, bfs, component_of, components_without, farthest_vertex,
                    find_balanced_separator, greedy_dominating_set)
from .potential import PotentialRobberStrategy
from .solver import SolveResult, optimal_move, solve_lazy


# -- baselines ----------------------------------------------------------------

class GreedyCopStrategy:
    """Each turn, the cop nearest the robber steps along a shortest path.

    Placement is the k highest-degree vertices (ties to lowest id), or k
    uniform random vertices when a seed is given.
    """

    positional = True

    def __init__(self, seed: int | None = None):
        self._seed = seed

    def place(self, G: Graph, k: int) -> list:
        if self._seed is not None:
            rng = random.Random(self._seed)
            return [rng.randrange(G.n) for _ in range(k)]
        ranked = sorted(range(G.n), key=G.degree, reverse=True)
        return [ranked[i % len(ranked)] for i in range(k)]

    def move(self, G: Graph, state: GameState):
        # with D the nearest cop's distance, the search stops at level D - 1:
        # a cop has a reached neighbour iff it is at distance D, and those
        # neighbours are its steps along a shortest path
        nbrs = [G.neighbors(u) for u in state.cops]
        dist = bfs(G, (state.robber,), until=set().union(*nbrs))
        for i, ts in enumerate(nbrs):
            for t in ts:   # sorted, so the first reached one is the lowest id
                if dist[t] is not math.inf:
                    return CopMove(i, t)
        return PASS   # every cop is in another component


class RandomCopStrategy:
    """Uniform random placement and uniform random legal moves."""

    def __init__(self, seed: int | None = 0):
        self._seed = seed
        self._rng = random.Random(seed)

    def place(self, G: Graph, k: int) -> list:
        self._rng = random.Random(self._seed)
        return [self._rng.randrange(G.n) for _ in range(k)]

    def move(self, G: Graph, state: GameState):
        # the draw of rng.choice(legal_moves(G, state)), 0 for PASS, without the list
        j = self._rng.randrange(1 + sum(map(G.degree, state.cops))) - 1
        for i, u in enumerate(state.cops):
            if 0 <= j < G.degree(u):
                return CopMove(i, G.neighbors(u)[j])
            j -= G.degree(u)
        return PASS


class GreedyRobberStrategy:
    """Maximize the distance to the nearest cop; stay if no cop can reach."""

    positional = True

    def place(self, G: Graph, cops) -> int:
        return farthest_vertex(G, cops)

    def move(self, G: Graph, state: GameState):
        dist = bfs(G, state.cops)
        v = state.robber
        if dist[v] is math.inf:
            return RobberMove(v)
        target = max(G.closed_neighbors(v), key=lambda t: (dist[t], -t))
        return RobberMove(target)


class RandomRobberStrategy:
    def __init__(self, seed: int | None = 0):
        self._seed = seed
        self._rng = random.Random(seed)

    def place(self, G: Graph, cops) -> int:
        self._rng = random.Random(self._seed)
        free = [v for v in range(G.n) if v not in cops]
        return self._rng.choice(free) if free else 0

    def move(self, G: Graph, state: GameState):
        return RobberMove(self._rng.choice(G.closed_neighbors(state.robber)))


class StationaryRobberStrategy(GreedyRobberStrategy):
    """Places at the vertex farthest from the cops and never moves."""

    def move(self, G: Graph, state: GameState):
        return RobberMove(state.robber)


# -- dominating-set cops -------------------------------------------------------

def _check_graph(G: Graph, planned: Graph):
    if G != planned:
        raise UsageError("strategy was planned for a different graph")


class DominatingCopStrategy:
    """Occupy a greedy dominating set; the dominating cop captures at once."""

    positional = True

    def __init__(self, G: Graph):
        self._G = G
        self.dominating_set = sorted(greedy_dominating_set(G))
        self.required_cops = len(self.dominating_set)

    def place(self, G: Graph, k: int) -> list:
        _check_graph(G, self._G)
        if k < self.required_cops:
            raise StrategyError(f"dominating strategy needs {self.required_cops} cops, got {k}")
        extra = [self.dominating_set[0]] * (k - self.required_cops)
        return self.dominating_set + extra

    def move(self, G: Graph, state: GameState):
        r = state.robber
        for i, u in enumerate(state.cops):   # one is adjacent: the placement dominates
            if G.has_edge(u, r):
                return CopMove(i, r)


# -- separator cops --------------------------------------------------------------

class SeparatorCopStrategy:
    """Recursive balanced-separator pursuit.

    Guards are posted on a separator of the robber's current region and
    never move again; the region containing the robber therefore shrinks
    by a factor <= 2/3 per completed level.  One cop walks at a time,
    along shortest paths with lowest-id tie-breaks; the cops beyond the
    root separator wait on its first vertex, and the next one leaves when
    the walker reaches its target.  The root separator is occupied at
    placement time.  Every region is planned up front, so play searches
    for regions and walker steps but never for a separator.  `stats()`
    reports the plan and the guards posted so far.
    """

    def __init__(self, G: Graph):
        if not G.is_connected():
            raise UsageError("separator strategy requires a connected graph")
        t0 = perf_counter()
        self._G = G
        # region tuple -> its separator, filled by planning in visit order; play and report read it
        self._plan: dict = {}
        self.required_cops = self._required(list(range(G.n)))
        self.root_separator = list(self._plan[tuple(range(G.n))])
        self._plan_s = perf_counter() - t0
        # per-game cursors: the guards in posting order, the walking cop's vertex, its targets
        self._posted: dict = {}
        self._walker = None
        self._targets: list = []

    def _required(self, region: list) -> int:
        sub, order = self._G.induced_subgraph(region)
        sep = find_balanced_separator(sub) if sub.n > 1 else {0}
        self._plan[tuple(region)] = tuple(order[i] for i in sorted(sep))
        subs = components_without(sub, sep)
        return len(sep) + max((self._required([order[i] for i in comp]) for comp in subs),
                              default=0)

    def separator_report(self) -> dict:
        """Budget audit: required cop count and whether every separator in
        the worst-case plan met the genus-0 GHT size bound."""
        sizes = [(len(region), len(sep)) for region, sep in self._plan.items()]
        return {
            "required_cops": self.required_cops,
            "all_separators_within_ght_bound": all(
                s <= ght_separator_bound(r, 0) for r, s in sizes),
            "levels": [{"region_size": r, "separator_size": s} for r, s in sizes],
        }

    def stats(self) -> dict:
        return {"required_cops": self.required_cops, "regions": len(self._plan),
                "posted": len(self._posted), "plan_s": self._plan_s}

    # -- game protocol ---------------------------------------------------

    def place(self, G: Graph, k: int) -> list:
        _check_graph(G, self._G)
        if k < self.required_cops:
            raise StrategyError(f"separator strategy needs {self.required_cops} cops, got {k}")
        sep = self.root_separator
        self._posted = dict.fromkeys(sep)
        self._walker = sep[0]
        self._targets = []
        return sep + [sep[0]] * (k - len(sep))

    def move(self, G: Graph, state: GameState):
        r = state.robber
        # capture greedily whenever some cop is adjacent: the guards first, then the walker
        for u in (*self._posted, self._walker):
            if G.has_edge(u, r):
                return CopMove(state.cops.index(u), r)

        if not self._targets:
            self._targets = list(self._plan[tuple(component_of(G, r, self._posted))])

        # the walker stands on a posted root vertex or on its way, and a target
        # lies in the robber's region, off every posted vertex: the walker is
        # never on its target, so it always has a step
        ts = G.neighbors(self._walker)
        dist = bfs(G, (self._targets[0],), until=ts)   # stops one level short of the walker
        u = min(t for t in ts if dist[t] is not math.inf)
        move = CopMove(state.cops.index(self._walker), u)
        self._walker = u
        if u == self._targets[0]:
            self._posted[u] = None
            self._targets.pop(0)
            self._walker = self.root_separator[0]   # where the next walker waits
        return move


# -- solver-optimal wrappers ------------------------------------------------------

class _OptimalStrategy:
    """Moves from the solver's table: an instance plays one side only, so
    its move is a function of (cops, robber)."""

    positional = True

    def __init__(self, result: SolveResult):
        self._result = result

    def _check(self, G: Graph, k: int):
        _check_graph(G, self._result.G)
        if k != self._result.k:
            raise UsageError("solve result is for a different cop count")

    def move(self, G: Graph, state: GameState):
        return optimal_move(self._result, state)


class OptimalCopStrategy(_OptimalStrategy):
    def place(self, G: Graph, k: int) -> list:
        self._check(G, k)
        return list(self._result.placement)


class OptimalRobberStrategy(_OptimalStrategy):
    def place(self, G: Graph, cops) -> int:
        self._check(G, len(cops))
        return self._result.robber_placement_response(cops)


# -- registry -----------------------------------------------------------------

def _gnp_robber(alpha=None, **_):
    if alpha is None:
        raise UsageError("gnp robber needs alpha, e.g. gnp:alpha=0.4")
    return GnpRobberStrategy(alpha)


# name -> (option -> converter, builder).  A builder takes the converted options
# and once (the graph's per_graph memo), k and run_seed as keywords; a graph-bound
# side builds its plan or solve through once, so that runs once per graph.
_COPS = {
    "greedy": ({"seed": int}, lambda seed=None, **_: GreedyCopStrategy(seed)),
    "random": ({"seed": int}, lambda run_seed, seed=None, **_:
               RandomCopStrategy(run_seed if seed is None else seed)),
    "dominating": ({}, lambda once, **_: once(DominatingCopStrategy)),
    "separator": ({}, lambda once, **_: once(SeparatorCopStrategy)),
    "optimal": ({}, lambda once, k, **_: OptimalCopStrategy(once(solve_lazy, k))),
}
_ROBBERS = {
    "greedy": ({}, lambda **_: GreedyRobberStrategy()),
    "random": ({"seed": int}, lambda run_seed, seed=None, **_:
               RandomRobberStrategy(run_seed if seed is None else seed)),
    "stationary": ({}, lambda **_: StationaryRobberStrategy()),
    "gnp": ({"alpha": float}, _gnp_robber),
    "potential": ({"eps": Fraction}, lambda eps=1, **_: PotentialRobberStrategy(eps)),
    "optimal": ({}, lambda once, k, **_: OptimalRobberStrategy(once(solve_lazy, k))),
}


def _parse_spec(spec: str, table: dict, side: str):
    """Builder and converted options of `spec`, "name" or "name:key=value,...";
    an unknown name, a repeated option, an option that the strategy does not
    read or a value that does not convert is a usage error."""
    name, _, rest = spec.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise UsageError(f"malformed strategy option {item!r} in {spec!r}")
            if key in kwargs:
                raise UsageError(f"strategy option {key!r} given twice in {spec!r}")
            kwargs[key] = val
    if name not in table:
        raise UsageError(f"unknown {side} strategy {spec!r}")
    options, build = table[name]
    unread = sorted(set(kwargs) - set(options))
    if unread:
        raise UsageError(f"strategy {name!r} takes no option {unread[0]!r} "
                         f"(options: {', '.join(options) or 'none'})")
    for key, val in kwargs.items():
        try:
            kwargs[key] = options[key](val)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad {key} {val!r} in strategy {spec!r}") from None
    return build, kwargs


def parse_specs(cop_spec: str, robber_spec: str) -> tuple:
    """The (builder, options) of both specs; a bad spec is a usage error."""
    return _parse_spec(cop_spec, _COPS, "cop"), _parse_spec(robber_spec, _ROBBERS, "robber")


def per_graph(G: Graph):
    """A memo once(build, *args) that runs build(G, *args) once per arguments."""
    return functools.cache(lambda build, *args: build(G, *args))


def make_players(cop_spec: str, robber_spec: str, G: Graph, k: int, seed: int | None = 0,
                 once=None):
    """(cops, robber) for a game of k cops on G, from specs "name" or
    "name:key=value,..." of _COPS and _ROBBERS.  Both specs are parsed before
    either side is built; a side bound to G builds through `once`, the
    per_graph(G) memo that the caller keeps across player pairs on G, else a
    new one.  A seed option defaults to `seed` (greedy: None)."""
    specs = parse_specs(cop_spec, robber_spec)
    once = per_graph(G) if once is None else once
    return tuple(build(once=once, k=k, run_seed=seed, **kw) for build, kw in specs)
