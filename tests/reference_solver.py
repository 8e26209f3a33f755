"""Reference retrograde solver for the differential tests.

A queue-driven labeling over (cop multiset, robber, side) states that
re-enumerates the predecessor multisets of every labelled robber-to-move
state.  It is slow, but shares no code with `lazycops.solver` beyond the
graph, so it can catch mistakes in the move table or the level-by-level
labeling there.
"""

from collections import deque
from itertools import combinations_with_replacement, product


def reference_solve(G, k: int, mode: str):
    """Return (cop_win, placement, states, distance).

    `distance(cops, robber, side)` gives half-moves to capture, or None on a
    robber-win state; side 0 is cops to move, side 1 robber to move.
    """
    n = G.n
    msets = list(combinations_with_replacement(range(n), k))
    mindex = {ms: i for i, ms in enumerate(msets)}
    closed = [G.closed_neighbors(v) for v in range(n)]
    total = len(msets) * n * 2
    dist = [-1] * total
    cnt = [0] * (len(msets) * n)   # robber-to-move: successors not yet cop-win
    q = deque()
    for mi, cops in enumerate(msets):
        for r in range(n):
            s = (mi * n + r) * 2
            if r in cops:
                dist[s] = dist[s + 1] = 0
                q.extend((s, s + 1))
            else:
                cnt[mi * n + r] = len(closed[r])

    while q:
        s = q.popleft()
        d, side = dist[s], s & 1
        mi, r = divmod(s >> 1, n)
        if side == 0:
            for rp in closed[r]:
                ci = mi * n + rp
                if dist[ci * 2 + 1] < 0:
                    cnt[ci] -= 1
                    if cnt[ci] == 0:
                        dist[ci * 2 + 1] = d + 1
                        q.append(ci * 2 + 1)
            continue
        cops, preds = msets[mi], set()
        if mode == "lazy":
            for pos, t in enumerate(cops):
                for u in closed[t]:
                    preds.add(tuple(sorted(cops[:pos] + (u,) + cops[pos + 1:])))
        else:
            preds = {tuple(sorted(c)) for c in product(*(closed[t] for t in cops))}
        for pm in preds:
            p = (mindex[pm] * n + r) * 2
            if r not in pm and dist[p] < 0:
                dist[p] = d + 1
                q.append(p)

    best = None
    for mi, cops in enumerate(msets):
        col = [dist[(mi * n + r) * 2] for r in range(n) if r not in cops]
        if min(col, default=0) >= 0:
            cand = (max(col, default=0), cops)
            best = cand if best is None or cand < best else best
    placement = best[1] if best is not None else msets[0]

    def distance(cops, robber, side):
        d = dist[(mindex[tuple(cops)] * n + robber) * 2 + side]
        return d if d >= 0 else None

    return best is not None, placement, total, distance
