"""Reference balls for the differential tests.

The earlier forms of `lazycops.graph.kth_neighborhood` and of the ball and
distance row that `verify_expansion` draws for each path-count sample: one
breadth-first search per ball, scanned for the reached vertices.  The code
under test reads balls from cached bitmask tables instead; these copies
take their distances from `reference_bfs`, so they can catch mistakes in
the tables, in their stop at whole components and in the byte-lane row.
"""

import math

from reference_bfs import reference_bfs


def reference_kth_neighborhood(G, v, i):
    """Closed i-th neighborhood: all vertices within distance i of v."""
    return {u for u, d in enumerate(reference_bfs(G, (v,), radius=i)) if d is not math.inf}


def reference_ball_and_row(G, v, i):
    """The sorted radius-i ball around v without v, and the row of
    min(dist(u, v), i + 1) over all u."""
    near = reference_bfs(G, (v,), radius=i)
    ball = [u for u, d in enumerate(near) if d is not math.inf and u != v]
    return ball, [min(d, i + 1) for d in near]


def reference_ball_table(G, r):
    """Ball table r, one search per vertex: bit u of entry v is set iff
    dist(u, v) <= r."""
    return tuple(
        sum(1 << u for u in reference_kth_neighborhood(G, v, r)) for v in range(G.n)
    )
