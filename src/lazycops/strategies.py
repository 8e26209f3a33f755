"""Cop and robber strategies: separator cops, dominating cops, baselines,
solver-optimal wrappers, and the CLI name registry.

Strategy objects are immutable except for explicit per-game cursors reset
in place() and the move memos of the deterministic strategies (game.MoveMemo,
keyed on everything a move depends on besides the graph); one instance serves
one game at a time.
"""

from __future__ import annotations

import math
import random

from .bounds import ght_separator_bound
from .errors import StrategyError, UsageError
from .game import PASS, CopMove, GameState, MoveMemo, RobberMove
from .gnp import GnpRobberStrategy
from .graph import (Graph, bfs, component_of, components_without, farthest_vertex,
                    find_balanced_separator, greedy_dominating_set)
from .potential import PotentialRobberStrategy
from .solver import SolveResult, optimal_move


# -- baselines ----------------------------------------------------------------

class GreedyCopStrategy:
    """Each turn, the cop nearest the robber steps along a shortest path.

    Placement is the k highest-degree vertices (ties to lowest id), or k
    uniform random vertices when a seed is given.
    """

    def __init__(self, seed: int | None = None):
        self._seed = seed
        self._memo = MoveMemo()   # (cops, robber) -> move

    def place(self, G: Graph, k: int) -> list:
        if self._seed is not None:
            rng = random.Random(self._seed)
            return [rng.randrange(G.n) for _ in range(k)]
        ranked = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
        return [ranked[i % len(ranked)] for i in range(k)]

    def move(self, G: Graph, state: GameState):
        return self._memo.lookup(G, (state.cops, state.robber), self._decide, G, state)

    @staticmethod
    def _decide(G: Graph, state: GameState):
        dist = G.distances_from(state.robber)
        best_i, best_d = None, math.inf
        for i, u in enumerate(state.cops):
            if dist[u] < best_d:
                best_i, best_d = i, dist[u]
        if best_i is None or best_d is math.inf:
            return PASS
        u = state.cops[best_i]
        target = min(
            (t for t in G.neighbors(u) if dist[t] < dist[u]),
            default=None,
        )
        if target is None:
            return PASS
        return CopMove(best_i, target)


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

class DominatingCopStrategy:
    """Occupy a greedy dominating set; the dominating cop captures at once."""

    def __init__(self, G: Graph):
        self.dominating_set = sorted(greedy_dominating_set(G))
        self.required_cops = len(self.dominating_set)

    def place(self, G: Graph, k: int) -> list:
        if k < self.required_cops:
            raise StrategyError(
                f"dominating strategy needs {self.required_cops} cops, got {k}"
            )
        extra = [self.dominating_set[0]] * (k - self.required_cops)
        return self.dominating_set + extra

    def move(self, G: Graph, state: GameState):
        r = state.robber
        for i, u in enumerate(state.cops):
            if G.has_edge(u, r):
                return CopMove(i, r)
        return PASS  # unreachable after a dominating placement


# -- separator cops --------------------------------------------------------------

class SeparatorCopStrategy:
    """Recursive balanced-separator pursuit.

    Guards are posted on a separator of the robber's current region and
    never move again; the region containing the robber therefore shrinks
    by a factor <= 2/3 per completed level.  One cop walks at a time (the
    lowest-indexed unposted cop), along shortest paths with lowest-id
    tie-breaks.  The root separator is occupied at placement time.
    """

    def __init__(self, G: Graph, mode: str = "heuristic"):
        if not G.is_connected():
            raise UsageError("separator strategy requires a connected graph")
        self._mode = mode
        self._G = G
        self.root_separator = sorted(find_balanced_separator(G, mode))
        # region tuple -> its separator, filled by planning in visit order; play and report read it
        self._plan: dict = {tuple(range(G.n)): tuple(self.root_separator)}
        self.required_cops = self._required(sorted(range(G.n)))
        # per-game cursors
        self._cops: list = []
        self._posted: set = set()
        self._unposted: list = []
        self._targets: list = []

    def _separator_of(self, region: list) -> tuple:
        key = tuple(region)
        sep = self._plan.get(key)
        if sep is None:
            if len(region) == 1:
                sep = key
            else:
                sub, order = self._G.induced_subgraph(region)
                sep = tuple(sorted(order[i] for i in find_balanced_separator(sub, self._mode)))
            self._plan[key] = sep
        return sep

    def _required(self, region: list) -> int:
        sep = self._separator_of(region)
        rest = set(region) - set(sep)
        subs = components_without(self._G, set(range(self._G.n)) - rest)
        return len(sep) + max((self._required(comp) for comp in subs), default=0)

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

    # -- game protocol ---------------------------------------------------

    def place(self, G: Graph, k: int) -> list:
        if G != self._G:
            raise UsageError("strategy was planned for a different graph")
        if k < self.required_cops:
            raise StrategyError(
                f"separator strategy needs {self.required_cops} cops, got {k}"
            )
        sep = self.root_separator
        self._cops = sep + [sep[0]] * (k - len(sep))
        self._posted = set(sep)
        self._unposted = list(range(len(sep), k))
        self._targets = []
        return list(self._cops)

    def _emit(self, state: GameState, internal_idx: int, target: int):
        u = self._cops[internal_idx]
        move = CopMove(state.cops.index(u), target)
        self._cops[internal_idx] = target
        return move

    def move(self, G: Graph, state: GameState):
        r = state.robber
        # capture greedily whenever some cop is adjacent
        for idx, u in enumerate(self._cops):
            if G.has_edge(u, r):
                return self._emit(state, idx, r)

        if not self._targets:
            region = component_of(G, r, self._posted)
            self._targets = list(self._separator_of(region))
        if not self._unposted:
            return PASS  # budget exhausted; cannot happen at required_cops

        # the walker, the first unposted cop, stands on a posted root vertex or
        # on its way, and a target lies in the robber's region, off every posted
        # vertex: the walker is never on its target, so it always has a step
        walker, dist = self._unposted[0], G.distances_from(self._targets[0])
        u = self._cops[walker]
        u = min(t for t in G.neighbors(u) if dist[t] < dist[u])
        move = self._emit(state, walker, u)
        if u == self._targets[0]:
            self._posted.add(u)
            self._unposted.pop(0)
            self._targets.pop(0)
        return move


# -- solver-optimal wrappers ------------------------------------------------------

class _OptimalStrategy:
    """Moves from the solver's table, memoised on (cops, robber): an instance
    plays one side only, so the side to move is fixed."""

    def __init__(self, result: SolveResult):
        self._result = result
        self._memo = MoveMemo()   # (cops, robber) -> move

    def move(self, G: Graph, state: GameState):
        return self._memo.lookup(G, (state.cops, state.robber), optimal_move,
                                 self._result, state)


class OptimalCopStrategy(_OptimalStrategy):
    def place(self, G: Graph, k: int) -> list:
        if k != self._result.k:
            raise UsageError("solve result is for a different cop count")
        return list(self._result.placement)


class OptimalRobberStrategy(_OptimalStrategy):
    def place(self, G: Graph, cops) -> int:
        return self._result.robber_placement_response(cops)


# -- registry -----------------------------------------------------------------

# the options that each strategy name reads
_COP_OPTIONS = {"greedy": ("seed",), "random": ("seed",), "dominating": (),
                "separator": ("mode",), "optimal": ()}
_ROBBER_OPTIONS = {"greedy": (), "random": ("seed",), "stationary": (), "gnp": ("alpha",),
                   "potential": ("eps",), "optimal": ()}


def _parse_spec(spec: str, accepted: dict):
    """Name and options of `spec`; an option that the named strategy does not
    read is a usage error.  Unknown names are left to the caller."""
    name, _, rest = spec.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not _:
                raise UsageError(f"malformed strategy option {item!r} in {spec!r}")
            kwargs[key] = val
    unread = sorted(set(kwargs) - set(accepted.get(name, kwargs)))
    if unread:
        raise UsageError(f"strategy {name!r} takes no option {unread[0]!r} "
                         f"(options: {', '.join(accepted[name]) or 'none'})")
    return name, kwargs


def _option(spec: str, kw: dict, key: str, convert, default=None):
    """Option `key` through `convert`, or `default` if absent; a value that
    does not convert is a usage error."""
    try:
        return convert(kw[key]) if key in kw else default
    except ValueError:
        raise UsageError(f"bad {key} {kw[key]!r} in strategy {spec!r}") from None


def make_cop_strategy(spec: str, G: Graph | None = None,
                      solve_result: SolveResult | None = None,
                      default_seed: int | None = 0):
    """Build a cop strategy from its CLI name, e.g. "greedy", "random:seed=5",
    "separator", "dominating", "optimal"."""
    name, kw = _parse_spec(spec, _COP_OPTIONS)
    if name == "greedy":
        return GreedyCopStrategy(_option(spec, kw, "seed", int))
    if name == "random":
        return RandomCopStrategy(_option(spec, kw, "seed", int, default_seed))
    if name == "dominating":
        return DominatingCopStrategy(G)
    if name == "separator":
        return SeparatorCopStrategy(G, kw.get("mode", "heuristic"))
    if name == "optimal":
        if solve_result is None:
            raise UsageError("optimal strategy needs a solver result")
        return OptimalCopStrategy(solve_result)
    raise UsageError(f"unknown cop strategy {spec!r}")


def make_robber_strategy(spec: str, G: Graph | None = None,
                         solve_result: SolveResult | None = None,
                         default_seed: int | None = 0):
    """Build a robber strategy from its CLI name, e.g. "greedy", "random:seed=5",
    "gnp:alpha=0.4", "potential:eps=1", "stationary", "optimal"."""
    name, kw = _parse_spec(spec, _ROBBER_OPTIONS)
    if name == "greedy":
        return GreedyRobberStrategy()
    if name == "random":
        return RandomRobberStrategy(_option(spec, kw, "seed", int, default_seed))
    if name == "stationary":
        return StationaryRobberStrategy()
    if name == "gnp":
        if "alpha" not in kw:
            raise UsageError("gnp robber needs alpha, e.g. gnp:alpha=0.4")
        return GnpRobberStrategy(_option(spec, kw, "alpha", float))
    if name == "potential":
        return PotentialRobberStrategy(kw.get("eps", 1))
    if name == "optimal":
        if solve_result is None:
            raise UsageError("optimal strategy needs a solver result")
        return OptimalRobberStrategy(solve_result)
    raise UsageError(f"unknown robber strategy {spec!r}")
