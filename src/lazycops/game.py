"""Rules of Lazy Cops and Robbers: states, legal moves, playouts.

A round is one cop half-move followed by one robber half-move; the round
counter increments after the robber moves.  Exactly one cop moves per round
(or the cop side passes); capture is checked after every half-move.

`play` stops a game between positional players (see its docstring) at the
first repeated position and memory, fills the rest of the transcript with
shared copies of the cycle's entries and records the cycle in
`GameRecord.cycle`; `GameRecord.to_json` encodes that repeated tail once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import IllegalMoveError, UsageError
from .graph import Graph

COPS = "cops"
ROBBER = "robber"

# Positions that `play` remembers while it looks for a repeat.  The table
# empties itself once full, so it finds a cycle of period p <= SEEN_ENTRIES
# at most p - 1 rounds past its first repeat (at it, if that comes by round
# SEEN_ENTRIES) and plays a longer one round by round.  An entry costs 224
# bytes with 1 cop and 361 with 5 (tracemalloc, CPython 3.11, 64-bit, fresh
# ints), key, round and dict slot included: a full table holds 3.7-5.9 MB.
SEEN_ENTRIES = 1 << 14


class CopMove(NamedTuple):
    cop: int      # index into the sorted cop multiset
    target: int


class RobberMove(NamedTuple):
    target: int


class _Pass:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Pass"


PASS = _Pass()


class GameState(NamedTuple):
    """Cop multiset, robber vertex, side to move, round counter.

    The cops may be given in any order, as any iterable; they are stored as
    a sorted tuple (by the constructor, `_make` and `_replace`).
    """

    cops: tuple
    robber: int | None
    to_move: str
    round: int = 0


# NamedTuple refuses both in the class body; _replace goes through _make
GameState.__new__ = lambda cls, cops, robber, to_move, round=0: tuple.__new__(
    cls, (tuple(sorted(cops)), robber, to_move, round))
GameState._make = classmethod(lambda cls, fields: cls(*fields))


def captured(s: GameState) -> bool:
    return s.robber is not None and s.robber in s.cops


def _require_live(s: GameState) -> None:
    if s.robber is None:
        raise IllegalMoveError("both sides must be placed before querying moves")
    if captured(s):
        raise IllegalMoveError("game is over")


def legal_moves(G: Graph, s: GameState) -> list:
    """All legal moves for the side to move.

    Cop side: Pass (everyone stays) plus CopMove(i, t) for every cop index i
    and non-stay target t in N(cop_i).  Robber side: RobberMove(t) for every
    t in N[robber], stay included.  Robber moves onto cops are legal (they
    are immediate capture).
    """
    _require_live(s)
    if s.to_move == COPS:
        moves: list = [PASS]
        for i, u in enumerate(s.cops):
            moves.extend(CopMove(i, t) for t in G.neighbors(u))
        return moves
    return [RobberMove(t) for t in G.closed_neighbors(s.robber)]


def apply_move(G: Graph, s: GameState, m) -> GameState:
    # only PASS, CopMove and RobberMove are moves, not tuples equal to them
    if s.to_move == COPS:
        cops = s.cops
        if m is not PASS:
            if not isinstance(m, CopMove):
                raise IllegalMoveError(f"cop side cannot play {m!r}")
            i, t = m
            if not 0 <= i < len(cops):
                raise IllegalMoveError(f"cop index {i} out of range")
            u = cops[i]
            if not G.has_edge(u, t):
                raise IllegalMoveError(f"cop at {u} cannot reach {t}")
            cops = list(cops)
            cops[i] = t
            cops = tuple(sorted(cops))
        # successors are built without the constructor, whose sort is done here
        return tuple.__new__(GameState, (cops, s.robber, ROBBER, s.round))
    if not isinstance(m, RobberMove):
        raise IllegalMoveError(f"robber side cannot play {m!r}")
    if m.target != s.robber and not G.has_edge(s.robber, m.target):
        raise IllegalMoveError(f"robber at {s.robber} cannot reach {m.target}")
    return tuple.__new__(GameState, (s.cops, m.target, COPS, s.round + 1))


@dataclass
class GameRecord:
    """Outcome, rounds and transcript: 2 placement entries, then a cop and a
    robber entry per round.  `cycle` is the (round, period) of a game that
    `play` fast-forwarded: the position at the start of `round` recurs every
    `period` rounds, so from entry 2 + 2 * round the transcript repeats in
    blocks of 2 * period entries.  Records compare without it."""

    outcome: str                 # "capture" | "survival"
    rounds_played: int
    transcript: list = field(default_factory=list)
    cycle: tuple | None = field(default=None, compare=False)

    def to_json(self) -> str:
        """`json.dumps` of outcome, rounds and transcript, with the tail that
        `cycle` names encoded once and repeated as text."""
        t = self.transcript
        record = {"outcome": self.outcome, "rounds": self.rounds_played, "transcript": t}
        if self.cycle is None or not t:
            return json.dumps(record)
        start, period = 2 + 2 * self.cycle[0], 2 * self.cycle[1]
        q, rem = divmod(len(t) - start, period)
        record["transcript"] = t[:start + period]
        block = ", " + json.dumps(t[start:start + period])[1:-1]
        tail = ", " + json.dumps(t[start:start + rem])[1:-1] if rem else ""
        return "".join([json.dumps(record)[:-2], *[block] * (q - 1), tail, "]}"])


def play(G: Graph, cop_strategy, robber_strategy, k: int, max_rounds: int,
         record_transcript: bool = True) -> GameRecord:
    """Placement phase then alternating rounds, cops moving first.

    Strategies must provide place()/move(); an illegal move aborts with a
    diagnostic rather than being silently corrected.

    A strategy whose class sets `positional = True` promises that each move
    is a function of the graph, (cops, robber) and, if it defines
    `memory()`, the hashable value that returns; its next `memory()` must be
    a function of the same.  A subclass whose move reads or counts anything
    else (an RNG, a cursor, a call counter that `repeat` leaves behind) must
    set `positional = False`.  Between two positional players a position and
    memory that recur at the start of a cop turn recur forever, so the game
    is a survival: `play` keeps the round of each position and memory it
    has seen (up to SEEN_ENTRIES of them), stops at the first repeat, calls
    `repeat(period, q, rem)` on each player that defines it (the skipped
    rounds are q more periods and then the first rem rounds of one), fills
    the rest of the transcript with copies of the cycle's entries and
    returns the cycle as the record's `cycle`.  Those copies share their
    dicts, so treat a transcript as read-only.
    """
    if k < 1:
        raise UsageError(f"cop count must be >= 1, got {k}")
    if max_rounds < 0:
        raise UsageError(f"max_rounds must be >= 0, got {max_rounds}")
    placement = cop_strategy.place(G, k)
    if len(placement) != k or any(not 0 <= v < G.n for v in placement):
        raise IllegalMoveError(f"cop placement {placement!r} is not {k} valid vertices")
    cops = tuple(sorted(placement))
    robber = robber_strategy.place(G, cops)
    if not 0 <= robber < G.n:
        raise IllegalMoveError(f"robber placement {robber!r} invalid")

    transcript: list = []
    if record_transcript:
        transcript.append({"side": COPS, "from": None, "to": list(cops)})
        transcript.append({"side": ROBBER, "from": None, "to": robber})

    state = GameState(cops, robber, COPS, 0)
    if captured(state):
        return GameRecord("capture", 0, transcript)

    players = cop_strategy, robber_strategy
    positional = all(getattr(p, "positional", False) for p in players)
    memories = [p.memory for p in players if hasattr(p, "memory")]
    seen: dict = {}   # (cops, robber, *memories) -> the round it first began
    while state.round < max_rounds:
        if positional:
            r = state.round
            key = (*state[:2], *[memory() for memory in memories])
            if key in seen:
                period = r - seen[key]
                q, rem = divmod(max_rounds - r, period)
                for p in players:
                    if hasattr(p, "repeat"):
                        p.repeat(period, q, rem)
                block = transcript[-2 * period:]
                transcript += block * q + block[:2 * rem]
                return GameRecord("survival", max_rounds, transcript, (seen[key], period))
            if len(seen) >= SEEN_ENTRIES:
                seen.clear()
            seen[key] = r
        m = cop_strategy.move(G, state)
        prev = state
        state = apply_move(G, state, m)
        if record_transcript:
            if m is PASS:
                transcript.append({"side": COPS, "from": None, "to": None})
            else:
                transcript.append({"side": COPS, "from": prev.cops[m.cop], "to": m.target})
        if captured(state):
            return GameRecord("capture", state.round + 1, transcript)

        m = robber_strategy.move(G, state)
        prev = state
        state = apply_move(G, state, m)
        if record_transcript:
            transcript.append({"side": ROBBER, "from": prev.robber, "to": m.target})
        if captured(state):
            return GameRecord("capture", state.round, transcript)

    return GameRecord("survival", max_rounds, transcript)
