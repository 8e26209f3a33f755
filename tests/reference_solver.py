"""Reference retrograde solver and optimal play for the differential tests.

`reference_solve` is a queue-driven labeling over (cop multiset, robber,
side) states that re-enumerates the predecessor multisets of every labelled
robber-to-move state.  It is slow, but shares no code with `lazycops.solver`
beyond the graph, so it can catch mistakes in the move table or the
level-by-level labeling there.

`reference_counter_labeling` is the earlier level-by-level labeling of
`lazycops.solver`, which keeps one robber-to-move counter per state and
decrements it once per (labeled state, closed neighbour) pair.  It reads
the solver's move table, and must give the same distance array, level
count, labeled counts and placement as the row-AND labeling there.

`reference_optimal_move` and `reference_robber_placement` read a solved
result only through its public `distance` (which the
differential tests check against `reference_solve`).  The cop moves come
from `game.legal_moves` and `game.apply_move`, not from the solver's move
table, so they can catch mistakes in the tie-breaks of optimal play there.
"""

from array import array
from collections import deque
from itertools import combinations_with_replacement, product

from lazycops import game
from lazycops.errors import UsageError
from lazycops.solver import LAZY, _move_table


def reference_solve(G, k: int, mode: str):
    """Return (cop_win, placement, states, distance).

    `distance(cops, robber, side)` gives half-moves to capture, or None on a
    robber-win state; side is `game.COPS` or `game.ROBBER`, the side to move.
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
        d = dist[(mindex[tuple(cops)] * n + robber) * 2 + (side == game.ROBBER)]
        return d if d >= 0 else None

    return best is not None, placement, total, distance


def reference_counter_labeling(G, k: int, mode: str):
    """Return (dist, levels, cop_labeled, robber_labeled, placement).

    `dist` is the cops-to-move `array('i')` at `r * M + mi`, -1 on robber-
    win states, laid out as `SolveResult._dist`.
    """
    n = G.n
    msets = list(combinations_with_replacement(range(n), k))
    mindex = {ms: i for i, ms in enumerate(msets)}
    closed = [G.closed_neighbors(v) for v in range(n)]
    moves = _move_table(msets, mindex, closed, mode)
    M = len(msets)
    # capture counters are 0, so decrements drive them negative and they
    # never reach 0 again
    dist = array("i", (-1,)) * (n * M)
    cnt = [array("i", (len(closed[r]),)) * M for r in range(n)]
    front = {}
    for mi, cops in enumerate(msets):
        for r in set(cops):
            dist[r * M + mi] = 0
            cnt[r][mi] = 0
            front.setdefault(r, []).append(mi)
    robber_labeled = sum(map(len, front.values()))
    cop_front = robber_front = front
    d = 0
    while cop_front or robber_front:
        d += 1
        next_robber = {}
        for r, ranks in cop_front.items():
            for t in closed[r]:
                row = cnt[t]
                for mi in ranks:
                    c = row[mi] - 1
                    row[mi] = c
                    if c == 0:
                        next_robber.setdefault(t, []).append(mi)
        next_cop = {}
        for r, ranks in robber_front.items():
            base = r * M
            cands = set().union(*map(moves.__getitem__, ranks))
            new = [pm for pm in cands if dist[base + pm] < 0]
            for pm in new:
                dist[base + pm] = d
            if new:
                next_cop[r] = new
        cop_front, robber_front = next_cop, next_robber
        robber_labeled += sum(map(len, next_robber.values()))
    wins = [(max(col), mi) for mi in range(M) if min(col := dist[mi::M]) >= 0]
    placement = msets[min(wins)[1]] if wins else msets[0]
    return dist, d, n * M - dist.count(-1), robber_labeled, placement


def reference_optimal_move(result, s):
    """Optimal move (game.Move) for the side to move, lazy mode only.

    Cop side in a cop-win state: minimize successor distance.  Robber side:
    move to a robber-win state if one exists, else maximize successor
    distance.  Ties broken by smallest (index, target); Pass sorts first.
    """
    if result.mode != LAZY:
        raise UsageError("optimal_move emits lazy-game moves; use mode='lazy'")
    G = result.G
    if s.to_move == game.COPS:
        ranked = []
        for m in game.legal_moves(G, s):
            succ = game.apply_move(G, s, m)
            d = result.distance(succ.cops, succ.robber, game.ROBBER)
            key = (-1, -1) if m is game.PASS else (m.cop, m.target)
            ranked.append((d, key, m))
        wins = [(d, key, m) for d, key, m in ranked if d is not None]
        if result.distance(s.cops, s.robber, game.COPS) is not None and wins:
            return min(wins, key=lambda t: (t[0], t[1]))[2]
        return min(ranked, key=lambda t: t[1])[2]
    ranked = []
    for m in game.legal_moves(G, s):
        succ = game.apply_move(G, s, m)
        d = result.distance(succ.cops, succ.robber, game.COPS)
        ranked.append((d, m.target, m))
    escapes = [t for t in ranked if t[0] is None]
    if escapes:
        return min(escapes, key=lambda t: t[1])[2]
    return max(ranked, key=lambda t: (t[0], -t[1]))[2]


def reference_robber_placement(result, cops) -> int:
    """Robber's optimal placement given a cop placement: the lowest-id
    unoccupied robber-win vertex, else the unoccupied vertex with the
    greatest distance (lowest id on ties), else 0."""
    cops = tuple(sorted(cops))
    free = [v for v in range(result.G.n) if v not in cops]
    if not free:
        return 0
    scored = [(result.distance(cops, v, game.COPS), v) for v in free]
    escapes = [v for d, v in scored if d is None]
    if escapes:
        return escapes[0]
    return max(scored, key=lambda t: (t[0], -t[1]))[1]
