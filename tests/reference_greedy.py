"""Reference greedy cops for the differential tests.

The full-row form of `GreedyCopStrategy.move`: it reads the robber's whole
distance row, picks the lowest-index cop at the least distance and steps
it to its lowest-id neighbour that is closer.  The strategy stops its
search one level short of the nearest cop instead; the differential tests
check that both choose the same move.
"""

import math

from lazycops.game import PASS, CopMove
from lazycops.strategies import GreedyCopStrategy


class ReferenceGreedyCops(GreedyCopStrategy):
    """Greedy cops that read the robber's full distance row."""

    def move(self, G, state):
        dist = G.distances_from(state.robber)
        best_i, best_d = None, math.inf
        for i, u in enumerate(state.cops):
            if dist[u] < best_d:
                best_i, best_d = i, dist[u]
        if best_i is None:   # every cop is in another component
            return PASS
        u = state.cops[best_i]   # at a finite distance >= 1: some neighbour is closer
        return CopMove(best_i, min(t for t in G.neighbors(u) if dist[t] < dist[u]))
