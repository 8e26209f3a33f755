"""Exact game solving by retrograde analysis (least-fixed-point labeling).

States are (sorted cop multiset, robber vertex, side to move); sorting the
multiset exploits cop interchangeability.  Capture states get distance 0;
the labeling propagates backwards: a cops-to-move state is cop-win as soon
as one successor is, a robber-to-move state once every successor is.
Labeling level by level yields exact minimax distance-to-capture in
half-moves.  A level releases robber-to-move states with one AND of
big-integer rows of labeled multisets, one row per robber vertex.  On the
cop side, per robber vertex, it takes the cheaper of two directions
(after Beamer, Asanovic and Patterson's direction-optimizing BFS): push,
one C-level set union of the moves of the newly released ranks, or pull,
a test of each still-unlabeled rank for a released move.  It pulls when
fewer ranks are unlabeled than were released.  Both directions label the
same states at the same level: a cops-to-move state is cop-win at level d
iff some successor was released at level d - 1, and the move relation is
symmetric, so a rank's successors are its predecessors.  Cop-side moves
come from a table built once per multiset; optimal play and the
self-consistency replay read the same table.
"""

from __future__ import annotations

import re
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement, compress, filterfalse, product
from math import comb

from . import game
from .errors import CapExceededError, UsageError
from .graph import Graph

LAZY = "lazy"
CLASSIC = "classic"

# States count both sides, so the cap allows 25 M (multiset, robber) pairs.
# Peak Python allocation measured with tracemalloc (CPython 3.11, 64-bit) is
# 14.3-18.4 bytes per pair (grid 7x7 and Q5 with k=3), 9.5-14 bytes retained by
# the result: up to about 0.5 GB at the cap.  A quarter of it bounds the M*k
# entries of the cop multisets, which peak at 38-46 bytes each when k >> n.
STATE_CAP = 50_000_000
# Product terms that the classic move table enumerates (see _classic_terms),
# checked after STATE_CAP so that the O(n*k) count runs only on admitted k.
# Measured on CPython 3.11, 64-bit, over ten graphs from K10 to C40 with k = 2-4:
# the table keeps 0.6-10 bytes per term (8-10 per stored entry, at most one
# entry per term) and is built in 0.6-0.85 us per term, so at the cap it holds
# up to about 0.5 GB, like STATE_CAP, and takes 30-45 s to build.
CLASSIC_TERM_CAP = 50_000_000
# Half-moves that the replay of a robber win plays before it stops.
EVASION_STEPS = 200

_ONES = re.compile(b"\x01").finditer   # flagged ranks of a row, as matches
_ZEROS = re.compile(b"\x00").finditer  # unflagged ranks of a row, as matches


@dataclass
class SolveResult:
    """Winner and optimal-move table for one (graph, cop count, mode).

    Cop multisets are ranked in lexicographic order (the order of
    `combinations_with_replacement`), so comparing ranks compares tuples.
    Only cops-to-move distances are stored, robber-major at `r * M + mi`
    with `M` multisets; a robber-to-move distance is derived from them.
    """

    G: Graph
    k: int
    mode: str
    cop_win: bool
    placement: tuple          # best cop placement (worst-case optimal if cop_win)
    states: int
    seconds: float
    stats: dict = field(default_factory=dict)   # phase times, levels, labeled states, pulls
    _msets: list = field(repr=False, default_factory=list)
    _mindex: dict = field(repr=False, default_factory=dict)
    _moves: list = field(repr=False, default_factory=list)    # per rank: cop-side moves
    _closed: list = field(repr=False, default_factory=list)   # per vertex: closed nbhd
    # cops-to-move distances, -1 on robber-win states
    _dist: array = field(repr=False, default_factory=lambda: array("i"))

    def _robber_dist(self, mi: int, robber: int) -> int:
        """Robber-to-move distance: 0 on capture, -1 if some robber move
        reaches a robber-win state, else 1 + the worst robber move."""
        if robber in self._msets[mi]:
            return 0
        dist, M = self._dist, len(self._msets)
        worst = 0
        for t in self._closed[robber]:
            d = dist[t * M + mi]
            if d < 0:
                return -1
            if d > worst:
                worst = d
        return worst + 1

    def _locate(self, cops, robber: int) -> int:
        """Rank of `cops` (in any order), after checking that the robber
        vertex exists.  A sorted tuple is looked up without sorting."""
        mi = self._mindex.get(cops := tuple(cops))
        if mi is None and (mi := self._mindex.get(tuple(sorted(cops)))) is None:
            raise KeyError(f"cop multiset {cops!r} not in state table")
        if not 0 <= robber < self.G.n:
            raise KeyError(f"robber vertex {robber} out of range")
        return mi

    def distance(self, cops, robber: int, side: str):
        """Half-moves to capture under optimal play with `side`
        (`game.COPS` or `game.ROBBER`) to move; None on robber-win states."""
        mi = self._locate(cops, robber)
        if side == game.COPS:
            d = self._dist[robber * len(self._msets) + mi]
        elif side == game.ROBBER:
            d = self._robber_dist(mi, robber)
        else:
            raise UsageError(f"side must be {game.COPS!r} or {game.ROBBER!r}, got {side!r}")
        return d if d >= 0 else None

    def robber_placement_response(self, cops) -> int:
        """Robber's optimal placement given a cop placement: the robber's
        reply with every vertex as a step.  Cop vertices read 0, so one is
        chosen (vertex 0) only when every vertex is occupied."""
        return _robber_reply(self, tuple(sorted(cops)), range(self.G.n))

    def summary(self) -> dict:
        return {
            "n": self.G.n,
            "k": self.k,
            "mode": self.mode,
            "cop_win": self.cop_win,
            "states": self.states,
            "seconds": round(self.seconds, 6),
        }


def _move_table(msets: list, mindex: dict, closed: list, mode: str) -> list:
    """Per multiset rank, the sorted ranks one cop-side move away.

    Lazy: one cop steps within its closed neighborhood (staying covers the
    pass).  Classic: every cop does, independently.  Both relations are
    symmetric, so the table lists predecessors as well as successors.
    """
    if mode == LAZY:
        # rows[rest][u]: rank of rest + (u,), for each (k-1)-multiset rest
        n = len(closed)
        rows = {rest: [mindex[tuple(sorted(rest + (u,)))] for u in range(n)]
                for rest in combinations_with_replacement(range(n), len(msets[0]) - 1)}
    moves = []
    for cops in msets:
        if mode == LAZY:
            succ = set()
            for i, t in enumerate(cops):
                if i == 0 or t != cops[i - 1]:   # a repeated cop adds the same moves
                    succ.update(map(rows[cops[:i] + cops[i + 1:]].__getitem__, closed[t]))
        else:
            succ = {mindex[tuple(sorted(c))] for c in product(*(closed[t] for t in cops))}
        moves.append(tuple(sorted(succ)))
    return moves


def _solve(G: Graph, k: int, mode: str) -> SolveResult:
    if k < 1:
        raise UsageError("cop count must be >= 1")
    n = G.n
    M = comb(n + k - 1, k)
    total = M * n * 2
    if total > STATE_CAP:
        raise CapExceededError(f"state count {total} exceeds cap {STATE_CAP} (n={n}, k={k})")
    if M * k > STATE_CAP // 4:
        raise CapExceededError(f"multiset entries {M * k} exceed cap {STATE_CAP // 4} "
                               f"(n={n}, k={k})")
    if mode == CLASSIC and (terms := _classic_terms(G, k)) > CLASSIC_TERM_CAP:
        raise CapExceededError(f"classic move table of {terms} terms exceeds cap "
                               f"{CLASSIC_TERM_CAP} (n={n}, k={k})")
    t0 = time.perf_counter()
    msets = list(combinations_with_replacement(range(n), k))
    mindex = {ms: i for i, ms in enumerate(msets)}
    closed = [G.closed_neighbors(v) for v in range(n)]
    moves = _move_table(msets, mindex, closed, mode)
    t1 = time.perf_counter()

    # Cops-to-move distances at r * M + mi.  Per robber vertex r, lab[r]
    # flags the labeled cops-to-move ranks (one byte each), labi[r] is its
    # int form, and rel[r] flags the released robber-to-move ranks in the
    # same form, captures included.
    dist = array("i", (-1,)) * (n * M)
    lab = [bytearray(M) for _ in range(n)]
    for mi, cops in enumerate(msets):
        for r in set(cops):
            dist[r * M + mi] = 0
            lab[r][mi] = 1
    rel = [int.from_bytes(row, "little") for row in lab]
    labi = rel[:]
    unl = [M - row.bit_count() for row in rel]   # unlabeled ranks per robber vertex
    cop_per = [sum(map(int.bit_count, rel))]
    robber_per = cop_per[:]

    # Level d: cops-to-move states at distance d - 1 release robber-to-move
    # predecessors (distance d once every robber move is cop-win); robber-
    # to-move states at distance d - 1 label cops-to-move predecessors.
    # The cops-to-move frontier is the set of robber vertices with a rank
    # labeled at distance d - 1; the robber-to-move frontier maps a robber
    # vertex to its ranks released at distance d - 1, in the form of rel.
    # Robber side: at each vertex t next to the cops-to-move frontier, the
    # AND of the labeled rows of t's closed neighbours, less rel[t], gives
    # the newly released ranks.  Cop side, per robber vertex r: push takes
    # one set union, built in C, of the moves of the released ranks,
    # filtered through lab[r]; pull tests each unlabeled rank for a released
    # move.  Each reads about one move-table row per rank it visits, so the
    # side with fewer ranks (unl[r] against the released count) is cheaper.
    robber_front = {r: row for r, row in enumerate(rel) if row}
    cop_front = set(robber_front)
    d = pulled = 0
    while cop_front or robber_front:
        d += 1
        next_robber = {}
        for t in set().union(*map(closed.__getitem__, cop_front)):
            new = ~rel[t]
            for u in closed[t]:
                new &= labi[u]
            if new:
                rel[t] |= new
                next_robber[t] = new
        next_cop, labeled = set(), 0
        for r, released in robber_front.items():
            base, row = r * M, lab[r]
            flags = released.to_bytes(M, "little")
            if unl[r] < released.bit_count():
                todo = list(map(re.Match.start, _ZEROS(row)))
                hit = map(any, map(partial(map, flags.__getitem__), map(moves.__getitem__, todo)))
                new = list(compress(todo, hit))
                pulled += 1
            else:
                ranks = map(re.Match.start, _ONES(flags))
                new = list(filterfalse(row.__getitem__, set().union(*map(moves.__getitem__, ranks))))
            for pm in new:
                dist[base + pm] = d
                row[pm] = 1
            if new:
                next_cop.add(r)
                labi[r] = int.from_bytes(row, "little")
                unl[r] -= len(new)
                labeled += len(new)
        cop_front, robber_front = next_cop, next_robber
        cop_per.append(labeled)
        robber_per.append(sum(map(int.bit_count, next_robber.values())))
    del lab, labi, rel
    t2 = time.perf_counter()

    # placement game: cops pick a multiset, robber answers seeing it;
    # captured robber placements read 0 and never decide the worst case
    wins = [(max(col), mi) for mi in range(M) if min(col := dist[mi::M]) >= 0]
    cop_win = bool(wins)
    placement = msets[min(wins)[1]] if wins else msets[0]
    t3 = time.perf_counter()

    return SolveResult(
        G=G, k=k, mode=mode, cop_win=cop_win, placement=placement,
        states=total, seconds=t3 - t0,
        stats={"table_s": t1 - t0, "label_s": t2 - t1, "placement_s": t3 - t2, "levels": d,
               "cop_states_labeled": sum(cop_per),
               "robber_states_labeled": sum(robber_per),
               "cop_labeled_per_level": cop_per[:d], "robber_labeled_per_level": robber_per[:d],
               "pulled_groups": pulled},
        _msets=msets, _mindex=mindex, _moves=moves, _closed=closed, _dist=dist,
    )


def solve_lazy(G: Graph, k: int) -> SolveResult:
    return _solve(G, k, LAZY)


def _classic_terms(G: Graph, k: int) -> int:
    """Product terms of the classic move table: the sum over cop multisets
    of prod(deg(c_i) + 1), i.e. the complete homogeneous symmetric
    polynomial h_k of the values deg(v) + 1."""
    h = [1] + [0] * k   # h[j]: h_j over the vertices seen so far
    for v in range(G.n):
        x = G.degree(v) + 1
        for j in range(1, k + 1):
            h[j] += x * h[j - 1]
    return h[k]


def solve_classic(G: Graph, k: int) -> SolveResult:
    """Classic rules: every cop repositions within its closed neighborhood."""
    return _solve(G, k, CLASSIC)


def cop_number(G: Graph, k_max: int, mode: str = LAZY) -> int:
    """Smallest k <= k_max winning for the cops; raises if none."""
    solve = {LAZY: solve_lazy, CLASSIC: solve_classic}.get(mode)
    if solve is None:
        raise UsageError(f"mode must be {LAZY!r} or {CLASSIC!r}, got {mode!r}")
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max}")
    if not G.is_connected():
        raise UsageError("cop number is only defined here for connected graphs")
    for k in range(1, k_max + 1):
        if solve(G, k).cop_win:
            return k
    raise CapExceededError(f"no cop win found for k <= {k_max}")


def _moved(cops: tuple, new: tuple) -> tuple:
    """(vertices the cops leave, vertices they enter) from sorted multiset
    `cops` to sorted multiset `new`, each sorted."""
    enter = list(new)
    leave = []
    for v in cops:
        if v in enter:
            enter.remove(v)
        else:
            leave.append(v)
    return leave, enter


def _cop_reply(result: SolveResult, mi: int, robber: int) -> int:
    """The cops' optimal successor rank from rank `mi`: among the least
    robber-to-move distances, the smallest by `_moved`; `mi` itself (the
    cops pass) on a robber-win state."""
    if result._dist[robber * len(result._msets) + mi] < 0:
        return mi
    scored = [(result._robber_dist(pm, robber), pm) for pm in result._moves[mi]]
    least = min(d for d, _ in scored if d >= 0)
    cops, msets = result._msets[mi], result._msets
    return min((pm for d, pm in scored if d == least),
               key=lambda pm: _moved(cops, msets[pm]))


def _robber_reply(result: SolveResult, cops, steps) -> int:
    """The robber's optimal step among `steps` (ascending vertex ids): the
    first escape to a robber-win state, else the lowest id with the greatest
    distance to capture."""
    best, best_d = None, -1
    for t in steps:
        d = result.distance(cops, t, game.COPS)  # 0 on a cop
        if d is None:
            return t
        if d > best_d:
            best, best_d = t, d
    return best


def optimal_move(result: SolveResult, s):
    """Optimal move (game.Move) for the side to move, lazy mode only.

    Cop side: the move to `_cop_reply`'s rank, which in lazy mode is the
    smallest CopMove(index, target) to the least successor distance; Pass
    in a robber-win state.  (In a cop-win state Pass is never optimal: it
    leaves the cops facing a free robber move.)  Robber side: the first
    escape to a robber-win state, else the lowest-id step with the greatest
    distance.
    """
    if result.mode != LAZY:
        raise UsageError("optimal_move emits lazy-game moves; use mode='lazy'")
    game._require_live(s)
    mi = result._locate(s.cops, s.robber)
    if s.to_move != game.COPS:
        return game.RobberMove(_robber_reply(result, s.cops, result._closed[s.robber]))
    pm = _cop_reply(result, mi, s.robber)
    if pm == mi:
        return game.PASS
    (u,), (t,) = _moved(s.cops, result._msets[pm])
    return game.CopMove(s.cops.index(u), t)


def verify_self_consistency(result: SolveResult) -> dict:
    """Replay optimal-vs-optimal from the solved placement.

    Returns a report asserting that play realizes the declared winner and,
    on cop wins, that capture occurs within the stored distance-to-capture.
    Works for both lazy and classic mode: the cops step to `_cop_reply`'s
    rank, so a lazy replay plays `optimal_move`'s game.  The cops move on
    even half-moves.
    """
    cops = result.placement
    robber = result.robber_placement_response(cops)
    start_d = result.distance(cops, robber, game.COPS)
    budget = start_d if start_d is not None else EVASION_STEPS
    half = 0
    while half <= budget + 1:
        if robber in cops:
            ok = result.cop_win and half <= (start_d or 0)
            return {"ok": ok, "half_moves": half, "budget": start_d}
        if half % 2 == 0:
            cops = result._msets[_cop_reply(result, result._mindex[cops], robber)]
        else:
            robber = _robber_reply(result, cops, result._closed[robber])
        half += 1
        if not result.cop_win and half >= EVASION_STEPS:
            return {"ok": robber not in cops, "half_moves": half, "budget": None}
    return {"ok": False, "half_moves": half, "budget": start_d}
