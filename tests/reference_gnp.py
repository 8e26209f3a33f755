"""Reference G(n,p) robber move and safety predicates for the differential tests.

The earlier form of `lazycops.gnp.gnp_robber_move`: one full-radius search
from every cop position (radius max_level) and one from the previous vertex
(radius j), then a ranked list of every candidate, and the least survivor
or else the least ranked candidate.  The current function searches one
level short, reads the last level from a neighbour's entry and stops at the
first survivor; this copy does none of that, and it takes its distances
from `reference_bfs`, so it can catch mistakes in those shortcuts.

`reference_is_safe` and `reference_is_dangerous` state the safe and
r-dangerous classifications one vertex and one level at a time, from one
search each; `gnp_robber_move` applies the danger rule to every candidate
and level at once.

`pairwise_gnp` is the earlier `lazycops.graph.gen_gnp`, which spends one
draw on every pair.  Tests whose expectations were pinned on its graphs
build their inputs with it.  `skip_gnp` is an independent statement of the
current sampler's geometric skips: it keeps one global pair index, finds
the row of that index by bisection over the row starts, and rounds with
`math.floor`.
"""

import math
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from lazycops.errors import UsageError
from lazycops.graph import Graph, _ids
from reference_bfs import reference_bfs


def pairwise_gnp(n: int, p: float, seed: int | None = None) -> Graph:
    """G(n,p): each pair (u,v), u<v in lexicographic order, kept w.p. p.

    The pair-enumeration order is fixed so output is bit-reproducible for a
    given (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"p must lie in [0,1], got {p}")
    draw = random.Random(seed).random
    ids = _ids(n)
    return Graph(n, ((u, v) for u in ids for v in ids[u + 1:] if draw() < p))


def skip_gnp(n, p, seed=None):
    """G(n,p) with pairs numbered 0.. in lexicographic order: from index t,
    a draw U moves to t + 1 + floor(log(1 - U) / log(1 - p)), until that
    passes the last pair.  p = 0 draws nothing."""
    starts = list(accumulate(range(n - 1, 0, -1), initial=0))   # row u's first index
    total = n * (n - 1) // 2
    edges = []
    if p > 0:
        rng = random.Random(seed)
        log_q = math.log1p(-p) if p < 1 else -math.inf
        t = -1
        while True:
            x = math.log(1 - rng.random()) / log_q
            if x >= total - 1 - t:
                break
            t += 1 + math.floor(x)
            u = bisect_right(starts, t) - 1
            edges.append((u, u + 1 + t - starts[u]))
    return Graph(n, edges)


def _cops_within(G, cops, source, deleted, r):
    """Cops, counted with multiplicity, within distance r of source in G minus deleted."""
    dist = reference_bfs(G, (source,), deleted, r)
    return sum(1 for c in cops if dist[c] <= r)


def reference_is_safe(G, cops, v, x, params):
    """True iff v passes every level threshold with its neighbour x deleted."""
    return all(_cops_within(G, cops, v, {x}, r) <= params.thresholds[r]
               for r in range(params.max_level + 1))


def reference_is_dangerous(G, cops, v, x, y, r, params):
    """True iff level r around the candidate y, with v and x (None: no x)
    deleted, exceeds its threshold."""
    deleted = {v} if x is None else {v, x}
    return _cops_within(G, cops, y, deleted, r) > params.thresholds[r]


def reference_gnp_move(G, s, params, prev):
    """Next vertex for the robber and whether some candidate survived."""
    v = s.robber
    cands = [y for y in G.neighbors(v) if y != prev]
    if not cands:
        cands = list(G.neighbors(v))
    if not cands:
        return v, False

    max_level = params.max_level
    deleted = {v} if prev is None else {v, prev}
    cop_positions = sorted(c for c in set(s.cops) if c not in deleted)
    cop_dists = [reference_bfs(G, (c,), deleted, max_level) for c in cop_positions]
    cop_mult = Counter(s.cops)
    far = max_level + 1

    ranked = []
    for y in cands:
        counts = [0] * (max_level + 1)
        nearest = far
        for c, dist in zip(cop_positions, cop_dists):
            dy = dist[y]
            if dy is math.inf:
                continue
            nearest = min(nearest, dy)
            for r in range(dy, max_level + 1):
                counts[r] += cop_mult[c]
        violations = sum(
            1 for r in range(max_level + 1) if counts[r] > params.thresholds[r]
        )
        ranked.append((violations, -nearest, y))

    reach = reference_bfs(G, () if prev is None else (prev,), (v,), params.j)
    survivors = [y for viol, _, y in ranked if viol == 0 and reach[y] is math.inf]
    if survivors:
        return min(survivors), True
    return min(ranked)[2], False
