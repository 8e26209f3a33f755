"""Reference breadth-first search for the differential tests.

The top-down, level-synchronous form of `lazycops.graph.bfs`: every level
scans the edges of its frontier.  `bfs` switches large levels to a
bottom-up scan; this copy never does, so it can catch mistakes in that
branch.  Same signature and return value as `bfs`, `until` included.
"""

import math


def reference_bfs(G, sources, deleted=(), radius=None, until=()):
    """Hop distance from the nearest of `sources` in G minus `deleted`."""
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    dist = [math.inf] * G.n
    for x in deleted:
        dist[x] = -1
    frontier = []
    for s in sources:
        if dist[s] is math.inf:
            dist[s] = 0
            frontier.append(s)
    until, depth = set(until), 0
    while frontier and depth != radius and not until.intersection(frontier):
        depth += 1
        nxt = []
        for u in frontier:
            for w in G.neighbors(u):
                if dist[w] is math.inf:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    for x in deleted:
        dist[x] = math.inf
    return dist
