"""Reference balls for the differential tests.

The earlier forms of `lazycops.graph.kth_neighborhood` and of the ball and
distance row that `verify_expansion` draws for each path-count sample: one
breadth-first search per ball, scanned for the reached vertices.  The code
under test reads balls from cached bitmask tables instead; these copies
take their distances from `reference_bfs`, so they can catch mistakes in
the tables, in their stop at whole components and in the byte-lane row.

`reference_path_samples` is the verifier's earlier path-count sampler: it
lists the sorted ball and draws the far end with `rng.choice`, where the
code under test draws a rank and reads that bit of the ball's bitmask.
"""

import math

from reference_bfs import reference_bfs
from reference_paths import reference_count_paths


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


def reference_path_samples(G, rng, i, samples):
    """The (v, w, count) path-count samples of length i drawn from `rng`:
    v uniform among the vertices, skipped if isolated, w by rng.choice from
    the sorted radius-i ball around v without v, and the number of simple
    v-w paths with i edges; until `samples` counts or 4 * samples draws of v."""
    drawn, attempts = [], 0
    while len(drawn) < samples and attempts < 4 * samples:
        attempts += 1
        v = rng.randrange(G.n)
        if not G.neighbors(v):
            continue
        ball, _ = reference_ball_and_row(G, v, i)
        w = rng.choice(ball)
        drawn.append((v, w, reference_count_paths(G, w, v, i)))
    return drawn
