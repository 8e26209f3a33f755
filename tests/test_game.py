import copy
import json
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lazycops.errors import IllegalMoveError
from lazycops.game import (COPS, PASS, ROBBER, CopMove, GameRecord, GameState, RobberMove,
                           apply_move, captured, legal_moves, play)
from lazycops.graph import gen_named
from lazycops.strategies import GreedyCopStrategy, GreedyRobberStrategy, StationaryRobberStrategy


def _state(cops, robber, to_move=COPS, rnd=1):
    return GameState(cops=tuple(cops), robber=robber, to_move=to_move, round=rnd)


def test_cops_stored_sorted():
    s = _state([3, 1, 2], 0)
    assert s.cops == (1, 2, 3)
    # on the 6-cycle cop 0 steps from 0 to 5, past the cop at 3
    G = gen_named("cycle", 6)
    t = apply_move(G, _state([0, 3], 1), CopMove(0, 5))
    assert t.cops == (3, 5)
    # successors skip the constructor, and are still GameStates with sorted cops
    t = apply_move(G, _state([0, 3, 3], 1), CopMove(2, 4))
    assert type(t) is GameState and t == GameState((0, 3, 4), 1, ROBBER, 1)
    t = apply_move(G, t, RobberMove(2))
    assert type(t) is GameState and t == GameState((0, 3, 4), 2, COPS, 2)


def test_captured():
    assert captured(_state([4], 4))
    assert not captured(_state([4], 5))


def test_cop_legal_moves_include_pass():
    G = gen_named("path", 4)
    s = _state([1], 3, COPS)
    moves = legal_moves(G, s)
    assert PASS in moves
    targets = {(m.cop, m.target) for m in moves if m is not PASS}
    assert targets == {(0, 0), (0, 2)}


def test_robber_legal_moves_closed_neighborhood():
    G = gen_named("path", 4)
    s = _state([0], 2, ROBBER)
    assert {m.target for m in legal_moves(G, s)} == {1, 2, 3}


def test_apply_move_round_counting():
    G = gen_named("path", 5)
    s = _state([0], 4, COPS, rnd=1)
    s = apply_move(G, s, CopMove(0, 1))
    assert s.to_move == ROBBER and s.round == 1
    s = apply_move(G, s, RobberMove(4))
    assert s.to_move == COPS and s.round == 2
    assert s.cops == (1,)


def test_apply_pass():
    G = gen_named("path", 5)
    s = _state([0], 4, COPS)
    s2 = apply_move(G, s, PASS)
    assert s2.cops == s.cops and s2.to_move == ROBBER


def test_illegal_moves_rejected():
    G = gen_named("path", 5)
    s = _state([0], 4, COPS)
    with pytest.raises(IllegalMoveError):
        apply_move(G, s, CopMove(0, 3))  # not adjacent
    with pytest.raises(IllegalMoveError):
        apply_move(G, s, RobberMove(3))  # wrong side
    s = apply_move(G, s, PASS)
    with pytest.raises(IllegalMoveError):
        apply_move(G, s, RobberMove(1))  # robber not adjacent
    # named tuples equal plain tuples, but only the move types are moves
    cop_turn, robber_turn = _state([0], 4, COPS), s
    for state, m in [(cop_turn, (0, 1)), (cop_turn, (1,)), (cop_turn, CopMove(1, 0)),
                     (cop_turn, CopMove(-1, 0)), (robber_turn, (3,)), (robber_turn, (0, 3)),
                     (robber_turn, CopMove(0, 1)), (robber_turn, PASS)]:
        with pytest.raises(IllegalMoveError):
            apply_move(G, state, m)
    # a cop stays only by PASS, the one encoding of a stay that legal_moves lists
    stay = CopMove(0, 0)
    assert stay not in legal_moves(G, cop_turn)
    with pytest.raises(IllegalMoveError, match="cop at 0 cannot reach 0"):
        apply_move(G, cop_turn, stay)


class _Placing:
    """A player that only places, at `vertices`."""

    def __init__(self, vertices):
        self.vertices = vertices

    def place(self, G, _):
        return self.vertices


@pytest.mark.parametrize("cops, robber, needle", [
    ([0], 5, "cop placement [0] is not 2 valid vertices"),
    ([0, 1, 2], 5, "cop placement [0, 1, 2] is not 2 valid vertices"),
    ([0, 9], 5, "cop placement [0, 9] is not 2 valid vertices"),
    ([-1, 0], 5, "cop placement [-1, 0] is not 2 valid vertices"),
    ([0, 1], 9, "robber placement 9 invalid"),
    ([0, 1], -1, "robber placement -1 invalid"),
])
def test_play_rejects_invalid_placements(cops, robber, needle):
    with pytest.raises(IllegalMoveError) as info:
        play(gen_named("path", 9), _Placing(cops), _Placing(robber), 2, 10)
    assert str(info.value) == needle


def test_cops_stay_sorted_through_every_constructor():
    s = GameState((3, 1), 0, COPS, 1)
    assert s.cops == (1, 3)
    assert GameState._make([(5, 4, 2), 0, ROBBER, 2]).cops == (2, 4, 5)
    assert s._replace(cops=(3, 1)).cops == (1, 3)
    assert s._replace(cops=[9, 0, 4])._replace(round=7) == ((0, 4, 9), 0, COPS, 7)
    for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert type(t) is GameState and t == s and t.cops == (1, 3)


def test_move_values_reprs_and_order():
    assert CopMove(0, 1) == (0, 1) and RobberMove(1) == (1,)
    assert repr(GameState((2, 1), 0, COPS, 1)) == \
        "GameState(cops=(1, 2), robber=0, to_move='cops', round=1)"
    assert repr(GameState([0], None, COPS)) == \
        "GameState(cops=(0,), robber=None, to_move='cops', round=0)"
    assert repr(CopMove(0, 5)) == "CopMove(cop=0, target=5)"
    assert repr(RobberMove(3)) == "RobberMove(target=3)"
    assert sorted([CopMove(1, 0), CopMove(0, 7), CopMove(0, 2)]) == \
        [CopMove(0, 2), CopMove(0, 7), CopMove(1, 0)]


def test_play_capture_on_path():
    G = gen_named("path", 6)
    rec = play(G, GreedyCopStrategy(), StationaryRobberStrategy(), 1, 50)
    assert rec.outcome == "capture"
    assert rec.rounds_played >= 1


def test_play_placement_capture_takes_no_round():
    # three cops cover P3, so the robber is placed on a cop
    rec = play(gen_named("path", 3), GreedyCopStrategy(), GreedyRobberStrategy(), 3, 10)
    assert rec == GameRecord("capture", 0, [{"side": COPS, "from": None, "to": [0, 1, 2]},
                                            {"side": ROBBER, "from": None, "to": 0}])


def test_play_survival_when_cops_pass():
    class PassingCops:
        def place(self, G, k):
            return [0] * k

        def move(self, G, state):
            return PASS

    G = gen_named("cycle", 8)
    rec = play(G, PassingCops(), GreedyRobberStrategy(), 1, 25)
    assert rec.outcome == "survival"
    assert rec.rounds_played == 25


def test_transcript_one_cop_per_round():
    G = gen_named("grid2d", 4)
    rec = play(G, GreedyCopStrategy(), GreedyRobberStrategy(), 2, 200)
    cop_entries = [e for e in rec.transcript if e["side"] == "cops"]
    # after placement, each cop turn moves at most one cop
    for e in cop_entries[1:]:
        assert e["from"] is None or isinstance(e["from"], int)


def test_record_json_round_trip():
    G = gen_named("path", 4)
    rec = play(G, GreedyCopStrategy(), StationaryRobberStrategy(), 1, 10)
    data = json.loads(rec.to_json())
    assert data["outcome"] == "capture"
    assert data["transcript"][0]["side"] == "cops"


def _entry_pool():
    # entries 1 and 2 are equal but encode differently (1 against 1.0)
    return [{"side": COPS, "from": None, "to": [0, 1]}, {"side": ROBBER, "from": 2, "to": 1},
            {"side": ROBBER, "from": 2, "to": 1.0}, {"side": COPS, "from": None, "to": None}]


# a transcript is 2 placement entries, then blocks of rounds of 2 pool entries,
# each block repeated, then cut short; -1 stands for a fresh copy of entry 1
# (equal to it, but another object).  With `cycled`, the record's cycle names
# the last block's rounds whenever a whole block of them is left.
_rounds = st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)), min_size=1, max_size=3)


@given(placement=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       segments=st.lists(st.tuples(_rounds, st.integers(1, 6)), max_size=4),
       cut=st.integers(0, 3), mutate=st.sampled_from([None, 0, 1, 2, 3]), cycled=st.booleans())
@example(placement=(0, 1), segments=[([(1, 1)], 9)], cut=0, mutate=None, cycled=True)  # period 1
@example(placement=(0, 1), segments=[([(0, 1), (2, 3)], 4)], cut=3, mutate=None,
         cycled=True)                                                 # a repeat from round 0
@example(placement=(0, 1), segments=[([(3, 0)], 1), ([(0, 1), (2, 3)], 1)], cut=0,
         mutate=None, cycled=True)               # one block: the tail starts no later
@example(placement=(0, 1), segments=[([(3, 2)], 2), ([(0, 1), (2, 3)], 2)], cut=1,
         mutate=None, cycled=True)               # another round before: nor earlier
@example(placement=(0, 1), segments=[([(3, 0)], 5), ([(1, -1)], 1), ([(-1, 2)], 3)], cut=0,
         mutate=None, cycled=False)                                   # in the middle
@example(placement=(3, 3), segments=[([(0, 1)], 4)], cut=1, mutate=1,
         cycled=True)                                                 # a mutated shared entry
def test_to_json_equals_json_dumps(placement, segments, cut, mutate, cycled):
    pool = _entry_pool()
    transcript = [pool[i] for i in placement]
    cycle = None
    for block, copies in segments:
        cycle = (len(transcript) // 2 - 1, len(block))
        entries = [i for step in block for i in step] * copies
        transcript += [pool[i] if i >= 0 else dict(pool[1]) for i in entries]
    del transcript[len(transcript) - min(cut, len(transcript)):]
    if not cycled or cycle is None or len(transcript) < 2 + 2 * sum(cycle):
        cycle = None
    if mutate is not None:
        pool[mutate]["to"] = ["mutated", mutate]
    record = GameRecord("survival", 7, transcript, cycle)
    assert record.to_json() == json.dumps(
        {"outcome": "survival", "rounds": 7, "transcript": transcript})


def test_placement_robber_sees_cops():
    G = gen_named("path", 9)
    rec = play(G, GreedyCopStrategy(), GreedyRobberStrategy(), 1, 100)
    placement = [e for e in rec.transcript if e["from"] is None]
    cop_place, robber_place = placement[0], placement[1]
    assert cop_place["side"] == "cops" and robber_place["side"] == "robber"
    # the greedy robber placed as far as possible from the cop
    dist = G.distances_from(cop_place["to"][0])
    assert dist[robber_place["to"]] == max(dist)
