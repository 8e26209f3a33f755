"""Reference playout for the differential tests of `lazycops.game.play`.

`reference_play` is `play` as it was before the fast-forward between
positional players: it asks both strategies for every move of every round,
up to `max_rounds`, whatever the strategies are.  It shares the rules
(`apply_move`, `captured`) with `lazycops.game`, so it checks only that a
fast-forwarded game ends, counts its rounds and records its transcript as
the played-out game does.
"""

from lazycops.errors import IllegalMoveError, UsageError
from lazycops.game import COPS, PASS, ROBBER, GameRecord, GameState, apply_move, captured


def reference_play(G, cop_strategy, robber_strategy, k: int, max_rounds: int,
                   record_transcript: bool = True) -> GameRecord:
    """Placement phase then alternating rounds, cops moving first.

    Strategies must provide place()/move(); an illegal move aborts with a
    diagnostic rather than being silently corrected.
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

    while state.round < max_rounds:
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
