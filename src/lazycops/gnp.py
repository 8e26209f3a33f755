"""Threshold system and robber strategy for sparse random graphs.

The robber keeps its vertex "safe": writing Cl^x_i(v) for the number of
cops within distance i of v in the graph with x deleted, safety demands
Cl^x_0 = Cl^x_1 = 0 and Cl^x_i <= (d/(2cj))^(i-1) for 2 <= i <= j, where
x is the robber's previous vertex.  A candidate neighbour y is r-dangerous
when the analogous counts around y (with v and x deleted) exceed the same
thresholds.  At the boundary exponent alpha = 1/(j+1) the base 2cj becomes
2c(j+1) and, in the sparsest branch, an extra level j+1 is tracked.

`GnpRobberStrategy` is a positional player of `game.play`: its one piece of
state, the previous vertex, is its `memory()`, so a game against positional
cops stops at the first repeated (cops, robber, previous vertex), and
`repeat` adds the skipped moves and fallbacks to `stats()`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import UsageError
from .game import GameState, RobberMove
from .graph import INF, Graph, bfs, farthest_vertex

MAIN = "main"
BOUNDARY_DENSE = "boundary-dense"
BOUNDARY_MID = "boundary-mid"
BOUNDARY_SPARSE = "boundary-sparse"

_ALPHA_TOL = 1e-9


@dataclass(frozen=True)
class GnpRobberParams:
    alpha: float
    j: int
    c: float              # 6 / (1 - j*alpha)
    n: int
    p: float
    d: float              # (n-1) * p
    K: float              # cop budget below which the strategy is safe
    regime: str
    thresholds: tuple     # thresholds[r] = max tolerated cop count at level r

    @property
    def max_level(self) -> int:
        return len(self.thresholds) - 1


def _level_count(alpha: float) -> int:
    """The integer j with 1/(j+1) <= alpha < 1/j."""
    inv = 1.0 / alpha
    if abs(inv - round(inv)) < _ALPHA_TOL:
        j = round(inv) - 1
    else:
        j = math.ceil(inv) - 1
    return max(j, 1)


def gnp_params(n: int, p: float, alpha: float) -> GnpRobberParams:
    if n < 2:
        raise UsageError(f"n must be >= 2, got {n}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must lie in (0,1), got {alpha}")
    if not 0.0 < p < 1.0:
        raise UsageError(f"p must lie in (0,1), got {p}")
    j = _level_count(alpha)   # j * alpha < 1 for every alpha in (0, 1)
    c = 6.0 / (1.0 - j * alpha)
    d = (n - 1) * p
    logn = math.log(n)

    if abs(alpha - 1.0 / (j + 1)) >= _ALPHA_TOL:
        regime = MAIN
    elif d ** (j + 1) >= 7.0 * n * logn:
        regime = BOUNDARY_DENSE
    elif d ** (j + 1) >= n / logn:
        regime = BOUNDARY_MID
    else:
        regime = BOUNDARY_SPARSE

    base = 2.0 * c * (j + 1 if regime == BOUNDARY_SPARSE else j)
    thresholds = [0.0, 0.0]
    for r in range(2, j + 1):
        thresholds.append((d / base) ** (r - 1))
    if regime == BOUNDARY_SPARSE:
        thresholds.append(
            (d / base) ** j * c * (1.0 - j * alpha) / (42.0 * logn)
        )

    if regime in (MAIN, BOUNDARY_DENSE):
        K = (1.0 - j * alpha) / (12.0 * (2.0 * c) ** (j - 1) * j ** j) / p
    elif regime == BOUNDARY_MID:
        K = c * (1.0 - j * alpha) / (42.0 * (2.0 * c * j) ** j) * d ** j / logn
    else:
        K = (
            c ** 2 * (1.0 - j * alpha) ** 2
            / (3528.0 * (2.0 * c * (j + 1)) ** (j + 1))
            * n / (d * logn ** 2)
        )

    return GnpRobberParams(
        alpha=alpha, j=j, c=c, n=n, p=p, d=d, K=K,
        regime=regime, thresholds=tuple(thresholds),
    )


def gnp_robber_move(G: Graph, s: GameState, params: GnpRobberParams,
                    prev: int | None) -> tuple:
    """(robber's next vertex, whether a candidate survived); prev is the deadly neighbour.

    Candidates are neighbours of the current vertex other than prev, in id
    order.  The first one that is not r-dangerous at any level and has prev
    beyond distance j once the current vertex is deleted is returned.  If
    none survives (desk-scale graphs need not satisfy the source hypotheses)
    the fallback ranks by fewest violated levels, then largest distance to
    the nearest cop, then lowest id.
    """
    v = s.robber
    adj = G._adj
    cands = [y for y in adj[v] if y != prev] or adj[v]
    top = params.max_level
    deleted = {v} if prev is None else {v, prev}
    # searches stop one level short: an unreached y outside `deleted` lies at
    # the search radius plus one iff one of its neighbours was reached
    rows = [(bfs(G, (c,), deleted, top - 1), mult)
            for c, mult in Counter(s.cops).items() if c not in deleted]
    reach = None if prev is None else bfs(G, (prev,), (v,), params.j - 1)
    ranked = []
    for y in cands:
        per_level = [0] * (top + 2)   # slot top + 1: no cop within top
        for row, mult in rows:
            d = row[y]
            if d is INF:
                near = y not in deleted and min(map(row.__getitem__, adj[y])) is not INF
                d = top if near else top + 1
            per_level[d] += mult
        total = violations = 0
        for count, limit in zip(per_level, params.thresholds):
            total += count
            violations += total > limit
        if violations == 0 and (reach is None or reach[y] is INF and min(
                map(reach.__getitem__, adj[y])) is INF):
            return y, True
        nearest = next((r for r, count in enumerate(per_level) if count), top + 1)
        ranked.append((violations, -nearest, y))
    return (min(ranked)[2] if ranked else v), False


class GnpRobberStrategy:
    """Robber following the level-threshold evasion rule.

    Placement is the greedy robber's: the lowest-id vertex farthest from
    the cops.  Afterwards the previous vertex is tracked as the deadly
    neighbour.  `stats()` counts the moves since placement and the
    fallbacks among them (moves where no candidate survived).  A move
    depends on the graph, the cops, the robber and the previous vertex
    only, so the robber is positional with `memory()` the previous vertex;
    it keeps one fallback flag per move it plays, and `repeat` counts the
    moves `game.play` skips from the flags of the last period.
    """

    positional = True

    def __init__(self, alpha: float):
        self._alpha = alpha
        self._params: GnpRobberParams | None = None   # set by place() for its graph
        self._prev: int | None = None
        self._fell_back = bytearray()   # per move played since placement: 1 on a fallback
        self._skipped = (0, 0)          # (moves, fallbacks) that play skipped

    def place(self, G: Graph, cops) -> int:
        self._prev = None
        self._fell_back = bytearray()
        self._skipped = (0, 0)
        self._params = None   # a lone vertex is captured at placement: no move reads it
        if G.n > 1:
            p = 2.0 * G.m / (G.n * (G.n - 1))   # G's density
            self._params = gnp_params(G.n, min(max(p, 1e-9), 1.0 - 1e-9), self._alpha)
        return farthest_vertex(G, cops)

    def move(self, G: Graph, state: GameState):
        target, survived = gnp_robber_move(G, state, self._params, self._prev)
        self._fell_back.append(not survived)
        self._prev = state.robber if target != state.robber else self._prev
        return RobberMove(target)

    def memory(self):
        return self._prev

    def repeat(self, period: int, q: int, rem: int) -> None:
        """Count q more periods like the last one, then its first rem moves."""
        last = self._fell_back[-period:]
        self._skipped = (q * period + rem, q * sum(last) + sum(last[:rem]))

    def stats(self) -> dict:
        moves, fallbacks = self._skipped
        return {"moves": len(self._fell_back) + moves,
                "fallbacks": sum(self._fell_back) + fallbacks}
