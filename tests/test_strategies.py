import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazycops import game, strategies
from lazycops.errors import StrategyError, UsageError
from lazycops.game import PASS, GameRecord, play
from lazycops.gnp import GnpRobberStrategy
from lazycops.graph import Graph, component_of, farthest_vertex, gen_gnp, gen_named
from lazycops.potential import PotentialRobberStrategy
from lazycops.solver import solve_lazy
from lazycops.strategies import (
    DominatingCopStrategy,
    GreedyCopStrategy,
    GreedyRobberStrategy,
    OptimalCopStrategy,
    OptimalRobberStrategy,
    RandomCopStrategy,
    RandomRobberStrategy,
    SeparatorCopStrategy,
    StationaryRobberStrategy,
    make_players,
)
from cached_graphs import cached_graph
from reference_bfs import reference_bfs
from reference_game import reference_play
from reference_gnp import pairwise_gnp
from reference_greedy import ReferenceGreedyCops
from reference_separator import ReferenceSeparatorCops


def test_greedy_cop_captures_on_path():
    for n in (5, 9, 15):
        G = gen_named("path", n)
        for robber in (GreedyRobberStrategy(), StationaryRobberStrategy(),
                       RandomRobberStrategy(3)):
            rec = play(G, GreedyCopStrategy(), robber, 1, 10 * n)
            assert rec.outcome == "capture"


def test_greedy_cop_placement_ranks_by_degree_then_id():
    # degrees 2, 2, 1, 1, 0, 2, 4: vertex 6 first, then each tie in id order
    G = Graph(7, [(6, 0), (6, 1), (6, 2), (6, 3), (5, 0), (5, 1)])
    assert GreedyCopStrategy().place(G, 3) == [6, 0, 1]
    assert GreedyCopStrategy().place(G, 9) == [6, 0, 1, 5, 2, 3, 4, 6, 0]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_seeded_greedy_cops_place_as_random_cops(seed):
    for G in (gen_named("path", 1), gen_named("grid2d", 4), gen_named("petersen")):
        for k in (1, 3, 20):
            rng = random.Random(seed)
            expected = [rng.randrange(G.n) for _ in range(k)]
            placed = GreedyCopStrategy(seed=seed).place(G, k)
            assert placed == RandomCopStrategy(seed).place(G, k) == expected


def test_greedy_cop_passes_when_robber_in_other_component():
    G = Graph(4, [(0, 1), (2, 3)])
    rec = play(G, GreedyCopStrategy(), GreedyRobberStrategy(), 1, 5)
    assert rec.outcome == "survival"
    cop_moves = [e for e in rec.transcript[2:] if e["side"] == "cops"]
    assert len(cop_moves) == 5
    assert all(e == {"side": "cops", "from": None, "to": None} for e in cop_moves)


_GREEDY_CORPUS = {
    # G(n, p) from below the connectivity threshold (many components) to dense
    **{f"gnp{n}-{p}-{s}": ("gnp", n, p, s)
       for n, p in ((20, 0.08), (40, 0.05), (60, 0.2), (200, 0.02)) for s in range(2)},
    **{f"grid{s}": ("grid2d", s) for s in (4, 9)},
    **{f"path{n}": ("path", n) for n in (2, 17)},
    **{f"tree{s}": ("random_tree", 40, s) for s in range(2)},
    **{f"q{d}": ("hypercube", d) for d in (6, 8)},
}


@pytest.mark.parametrize("name", list(_GREEDY_CORPUS))
def test_greedy_cops_match_reference(name):
    """Live states with 1 to 5 cops, some on one vertex, some all outside
    the robber's component: the stopped search picks the full-row move."""
    G = cached_graph(*_GREEDY_CORPUS[name])
    rng = random.Random(G.n)
    strat, ref = GreedyCopStrategy(), ReferenceGreedyCops()
    passes = 0
    for _ in range(300):
        robber = rng.randrange(G.n)
        home = set(component_of(G, robber, ()))
        away = [v for v in range(G.n) if v not in home]
        pool = away if away and rng.random() < 0.2 else [v for v in range(G.n) if v != robber]
        cops = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            cops.append(cops[0])
        state = game.GameState(cops, robber, game.COPS, 1)
        move = strat.move(G, state)
        assert move == ref.move(G, state), state
        passes += move is PASS
    assert (passes > 0) == (not G.is_connected())


def test_greedy_robber_stays_unreachable():
    from lazycops.graph import Graph

    # cop trapped in the other component: the robber never needs to move
    G = Graph(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    class FixedCop:
        def place(self, G, k):
            return [0]
        def move(self, G, state):
            return PASS
    rec = play(G, FixedCop(), GreedyRobberStrategy(), 1, 10)
    robber_moves = [e for e in rec.transcript if e["side"] == "robber" and e["from"] is not None]
    assert all(e["from"] == e["to"] for e in robber_moves)
    assert rec.outcome == "survival"


def test_random_strategies_reproducible():
    G = gen_gnp(30, 0.2, 5)
    a = play(G, RandomCopStrategy(11), RandomRobberStrategy(13), 2, 60)
    b = play(G, RandomCopStrategy(11), RandomRobberStrategy(13), 2, 60)
    assert a.transcript == b.transcript
    c = play(G, RandomCopStrategy(12), RandomRobberStrategy(13), 2, 60)
    assert c.transcript != a.transcript


@pytest.mark.parametrize("graph", [("gnp", 300, 0.033, 1), ("path", 5), ("hypercube", 4)],
                         ids=["gnp300", "P5", "Q4"])
def test_random_cop_move_is_the_choice_from_legal_moves(graph):
    G = cached_graph(*graph)
    # the index drawn first is the draw of rng.choice(legal_moves(...)), call after call
    states = random.Random(G.n)
    for seed in range(20):
        strat, ref = RandomCopStrategy(seed), random.Random(seed)
        for _ in range(25):
            cops = [states.randrange(G.n) for _ in range(states.randint(1, 3))]
            robber = next(v for v in range(G.n) if v not in cops)
            state = game.GameState(cops, robber, game.COPS, 1)
            got, want = strat.move(G, state), ref.choice(game.legal_moves(G, state))
            assert got == want and type(got) is type(want), (seed, state)


def test_dominating_strategy_immediate_capture():
    for seed in range(5):
        G = gen_gnp(20, 0.3, seed)
        strat = DominatingCopStrategy(G)
        rec = play(G, strat, GreedyRobberStrategy(), strat.required_cops, 5)
        assert rec.outcome == "capture"
        assert rec.rounds_played == 1


def test_dominating_strategy_needs_enough_cops():
    G = gen_named("cycle", 9)
    strat = DominatingCopStrategy(G)
    with pytest.raises(StrategyError):
        play(G, strat, GreedyRobberStrategy(), strat.required_cops - 1, 5)


def test_separator_strategy_on_path():
    G = gen_named("path", 9)
    strat = SeparatorCopStrategy(G)
    k = strat.required_cops
    rec = play(G, SeparatorCopStrategy(G), GreedyRobberStrategy(), k, 10 * 9 * k)
    assert rec.outcome == "capture"


def test_separator_one_cop_moves_per_round():
    G = gen_named("grid2d", 6)
    strat = SeparatorCopStrategy(G)
    k = strat.required_cops
    rec = play(G, strat, GreedyRobberStrategy(), k, 10 * G.n * k)
    assert rec.outcome == "capture"
    cop_turns = [e for e in rec.transcript if e["side"] == "cops" and e["from"] is not None]
    for e in cop_turns:
        assert isinstance(e["from"], int)  # a single cop moved (or the turn passed)


def test_separator_region_shrinks():
    G = gen_named("grid2d", 5)
    strat = SeparatorCopStrategy(G)
    k = strat.required_cops

    regions = []
    orig_move = strat.move

    def tracked(Gg, state):
        posted = set(strat._posted)
        if state.robber is not None and state.robber not in posted:
            regions.append(len(component_of(Gg, state.robber, posted)))
        return orig_move(Gg, state)

    strat.move = tracked
    rec = play(G, strat, GreedyRobberStrategy(), k, 10 * G.n * k)
    assert rec.outcome == "capture"
    # the robber's region never grows
    assert all(b <= a for a, b in zip(regions, regions[1:]))


def test_separator_captures_optimal_robber_small():
    for seed in (0, 1, 2):
        G = gen_gnp(8, 0.4, seed)
        if not G.is_connected():
            continue
        strat = SeparatorCopStrategy(G)
        k = strat.required_cops
        res = solve_lazy(G, k)
        assert res.cop_win
        rec = play(G, strat, OptimalRobberStrategy(res), k, 10 * G.n * k)
        assert rec.outcome == "capture"


def test_separator_play_reads_the_plan(monkeypatch):
    import lazycops.strategies as strategies

    for G in (gen_named("grid2d", 6), gen_named("random_tree", 30, 4)):
        ref = ReferenceSeparatorCops(G)
        k = ref.required_cops
        for robber in (GreedyRobberStrategy, lambda: RandomRobberStrategy(2)):
            expected = play(G, ref, robber(), k, 10 * G.n * k)
            planned = SeparatorCopStrategy(G)
            with monkeypatch.context() as m:
                m.setattr(strategies, "find_balanced_separator", None)
                rec = play(G, planned, robber(), k, 10 * G.n * k)
            assert rec.outcome == "capture"
            assert rec.transcript == expected.transcript


@pytest.mark.parametrize("G, robber, k, rounds, last", [
    (("grid2d", 10), lambda: RandomRobberStrategy(1), 26, 23, (17, 18)),
    (("pairwise_gnp", 25, 0.3, 9), GreedyRobberStrategy, 19, 4, (5, 2)),
])
def test_separator_captures_with_guards_before_walker(G, robber, k, rounds, last):
    # the capturing cop is the first adjacent one among the guards in posting
    # order, then the walker; the lowest adjacent vertex would capture from 8 and 1
    G = cached_graph(*G)
    rec = play(G, SeparatorCopStrategy(G), robber(), k, 10 * G.n * k)
    assert (rec.outcome, rec.rounds_played) == ("capture", rounds)
    assert rec.transcript[-1] == {"side": "cops", "from": last[0], "to": last[1]}


def test_separator_report_structure():
    G = gen_named("grid2d", 5)
    strat = SeparatorCopStrategy(G)
    rep = strat.separator_report()
    assert rep["required_cops"] == strat.required_cops == 12
    assert rep["all_separators_within_ght_bound"] is True
    # (region size, separator size) for every planned region, in visit order
    assert [(lvl["region_size"], lvl["separator_size"]) for lvl in rep["levels"]] == [
        (25, 4), (15, 2), (4, 1), (1, 1), (1, 1), (1, 1), (9, 2), (5, 1), (1, 1), (3, 1),
        (2, 1), (1, 1), (2, 1), (1, 1), (6, 1), (1, 1), (4, 1), (1, 1), (1, 1), (1, 1)]


def test_separator_stats_follow_plan_and_guards():
    G = gen_named("grid2d", 5)
    strat = SeparatorCopStrategy(G)
    stats = strat.stats()
    assert stats["plan_s"] > 0
    assert stats == {"required_cops": 12, "regions": 20, "posted": 0, "plan_s": stats["plan_s"]}
    strat.place(G, 12)
    assert strat.stats()["posted"] == len(strat.root_separator) == 4
    rec = play(G, strat, GreedyRobberStrategy(), 12, 200)
    # the root separator's cops and every walker that reached its target
    assert rec.outcome == "capture" and 4 < strat.stats()["posted"]
    assert strat.stats()["regions"] == len(strat.separator_report()["levels"])


_SEPARATOR_CORPUS = {
    **{f"grid{s}": ("grid2d", s) for s in range(3, 9)},
    **{f"tree{s}": ("random_tree", 30, s) for s in range(5)},
    # the first five seeds that give a connected G(25, 0.15)
    **{f"gnp{s}": ("gnp", 25, 0.15, s) for s in (0, 1, 3, 4, 5)},
}


@pytest.mark.parametrize("name", list(_SEPARATOR_CORPUS))
def test_separator_matches_reference(name):
    G = cached_graph(*_SEPARATOR_CORPUS[name])
    assert G.is_connected()
    strat, ref = SeparatorCopStrategy(G), ReferenceSeparatorCops(G)
    assert list(strat._plan.items()) == list(ref._plan.items())
    report = strat.separator_report()
    assert report == ref.separator_report()
    assert report["required_cops"] == ref.required_cops
    for extra in (0, 2):
        k = strat.required_cops + extra
        for robber in (GreedyRobberStrategy, lambda: RandomRobberStrategy(5)):
            rec = play(G, strat, robber(), k, 10 * G.n * k)
            assert rec.outcome == "capture"
            assert rec.transcript == play(G, ref, robber(), k, 10 * G.n * k).transcript
    assert strat.separator_report() == report  # play plans nothing new


@st.composite
def _placements(draw):
    """A graph with n <= 12, possibly disconnected, and a cop list that may
    repeat vertices or cover every vertex."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vertex = st.integers(0, n - 1)
    cops = draw(st.lists(vertex, max_size=6))
    if draw(st.booleans()):
        cops += list(range(n))
    return Graph(n, edges), draw(st.permutations(cops))


@settings(max_examples=200, deadline=None)
@given(_placements())
def test_farthest_vertex_matches_definition(case):
    G, cops = case
    free = [v for v in range(G.n) if v not in cops]
    dist = reference_bfs(G, cops)
    want = min(free, key=lambda v: (-dist[v], v)) if free else 0
    assert farthest_vertex(G, cops) == want
    for robber in (GreedyRobberStrategy(), StationaryRobberStrategy(), GnpRobberStrategy(0.4)):
        assert robber.place(G, cops) == want


def test_separator_requires_connected():
    from lazycops.graph import Graph

    with pytest.raises(UsageError):
        SeparatorCopStrategy(Graph(4, [(0, 1), (2, 3)]))


def test_separator_places_only_on_its_own_graph():
    cops = SeparatorCopStrategy(gen_named("grid2d", 3))
    with pytest.raises(UsageError, match="planned for a different graph"):
        cops.place(gen_named("grid2d", 4), 9)


def test_dominating_places_only_on_its_own_graph():
    cops = DominatingCopStrategy(gen_named("grid2d", 3))
    with pytest.raises(UsageError, match="planned for a different graph"):
        cops.place(gen_named("cycle", 9), 9)


@pytest.mark.parametrize("G, k, rounds", [
    (("grid2d", 4), 2, 4),
    (("petersen",), 3, 1),
    (("hypercube", 4), 3, 2),
])
def test_optimal_cops_capture_the_optimal_robber_in_solved_time(G, k, rounds):
    G = cached_graph(*G)
    result = solve_lazy(G, k)
    cops, robber = OptimalCopStrategy(result), OptimalRobberStrategy(result)
    placement = cops.place(G, k)
    assert placement == list(result.placement)
    d = result.distance(placement, robber.place(G, tuple(sorted(placement))), game.COPS)
    rec = play(G, cops, robber, k, 100)
    assert rec.outcome == "capture" and rec.rounds_played == math.ceil(d / 2) == rounds


def test_optimal_cops_pass_when_the_robber_wins():
    G = gen_named("petersen")
    result = solve_lazy(G, 2)
    assert not result.cop_win
    rec = play(G, OptimalCopStrategy(result), OptimalRobberStrategy(result), 2, 30)
    assert rec.outcome == "survival" and rec.rounds_played == 30
    cop_moves = [m["to"] for m in rec.transcript[2::2]]
    assert len(cop_moves) == 30 and set(cop_moves) == {None}


def test_optimal_cops_refuse_another_cop_count():
    G = gen_named("grid2d", 4)
    with pytest.raises(UsageError, match="different cop count"):
        OptimalCopStrategy(solve_lazy(G, 2)).place(G, 3)


def test_optimal_robber_refuses_another_cop_count():
    G = gen_named("grid2d", 4)
    with pytest.raises(UsageError, match="different cop count"):
        OptimalRobberStrategy(solve_lazy(G, 2)).place(G, [0, 0, 0])


@pytest.mark.parametrize("side", ["cops", "robber"])
def test_optimal_sides_refuse_another_graph_of_the_same_size(side):
    # the table of grid 4x4 would be read on C16's positions
    G, H = gen_named("grid2d", 4), gen_named("cycle", 16)
    result = solve_lazy(G, 2)
    players = {"cops": (OptimalCopStrategy(result), GreedyRobberStrategy()),
               "robber": (GreedyCopStrategy(), OptimalRobberStrategy(result))}[side]
    with pytest.raises(UsageError, match="planned for a different graph"):
        play(H, *players, 2, 50)


def test_make_players_solves_once_for_two_optimal_sides(monkeypatch):
    calls = []

    def counted(G, k):
        calls.append((G, k))
        return solve_lazy(G, k)

    monkeypatch.setattr(strategies, "solve_lazy", counted)
    G = gen_named("grid2d", 4)
    cops, robber = make_players("optimal", "optimal", G, 2)
    assert calls == [(G, 2)]
    assert cops._result is robber._result
    make_players("greedy", "random", G, 2)
    assert len(calls) == 1


def test_registry_cops():
    G = gen_named("cycle", 8)

    def cops(spec):
        return make_players(spec, "greedy", G, 2)[0]

    assert isinstance(cops("greedy"), GreedyCopStrategy)
    assert isinstance(cops("random:seed=5"), RandomCopStrategy)
    assert isinstance(cops("dominating"), DominatingCopStrategy)
    assert isinstance(cops("separator"), SeparatorCopStrategy)
    assert isinstance(cops("optimal"), OptimalCopStrategy)
    with pytest.raises(UsageError, match="unknown cop strategy 'nope'"):
        cops("nope")
    with pytest.raises(UsageError, match="takes no option 'sed' \\(options: seed\\)"):
        cops("greedy:sed=5")
    with pytest.raises(UsageError, match="takes no option 'x' \\(options: none\\)"):
        cops("dominating:x=1")
    # neither value is kept: the second no longer overwrites the first
    for spec in ("random:seed=1,seed=2", "greedy:seed=3,seed=3"):
        with pytest.raises(UsageError, match=f"^strategy option 'seed' given twice in '{spec}'$"):
            cops(spec)


def test_registry_robbers():
    from lazycops.gnp import GnpRobberStrategy
    from lazycops.potential import PotentialRobberStrategy

    G = gen_named("cycle", 8)

    def robber(spec):
        return make_players("greedy", spec, G, 2)[1]

    assert isinstance(robber("greedy"), GreedyRobberStrategy)
    assert isinstance(robber("stationary"), StationaryRobberStrategy)
    assert isinstance(robber("gnp:alpha=0.4"), GnpRobberStrategy)
    assert isinstance(robber("potential:eps=1"), PotentialRobberStrategy)
    assert isinstance(robber("optimal"), OptimalRobberStrategy)
    with pytest.raises(UsageError, match="unknown robber strategy 'nope'"):
        robber("nope")
    with pytest.raises(UsageError, match="gnp robber needs alpha"):
        robber("gnp")
    with pytest.raises(UsageError, match="malformed strategy option"):
        robber("greedy:bad")
    with pytest.raises(UsageError, match="^strategy option 'eps' given twice in "
                                         "'potential:eps=1,eps=1'$"):
        robber("potential:eps=1,eps=1")


# -- reused players -----------------------------------------------------------

# long games that repeat a short cycle of positions
_PERIODIC_GAMES = {
    "q8": (lambda: gen_named("hypercube", 8), lambda G: PotentialRobberStrategy(), 2),
    "q12": (lambda: gen_named("hypercube", 12), lambda G: PotentialRobberStrategy(), 5),
    "grid6": (lambda: gen_named("grid2d", 6),
              lambda G: OptimalRobberStrategy(solve_lazy(G, 2)), 2),
    "cycle12": (lambda: gen_named("cycle", 12),
                lambda G: OptimalRobberStrategy(solve_lazy(G, 1)), 1),
}


def _first_difference(record, expected):
    """None if the two records' `to_json` texts are equal, else where they
    first differ: outcome, rounds, a transcript entry or a character.  A
    mismatch then reports one entry instead of a diff of two long texts."""
    got, want = record.to_json(), expected.to_json()
    if got == want:
        return None
    a, b = json.loads(got), json.loads(want)
    for key in ("outcome", "rounds"):
        if a[key] != b[key]:
            return f"{key}: {a[key]!r} != {b[key]!r}"
    for i, (x, y) in enumerate(zip(a["transcript"], b["transcript"])):
        if x != y:
            return f"transcript entry {i}: {x!r} != {y!r}"
    if len(a["transcript"]) != len(b["transcript"]):
        return f"transcript length: {len(a['transcript'])} != {len(b['transcript'])}"
    i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    return f"text at {i}: {got[i:i + 40]!r} != {want[i:i + 40]!r}"


@pytest.mark.parametrize("first, second, make_robber, k", [
    (("gnp", 300, 0.033, 1), ("gnp", 300, 0.033, 2), lambda: GnpRobberStrategy(0.4), 1),
    (("hypercube", 8), ("hypercube", 10), PotentialRobberStrategy, 2),
    (("cycle", 12), ("cycle", 9), lambda: GnpRobberStrategy(0.4), 1),
])
def test_reused_strategies_play_a_second_graph_like_fresh_ones(first, second, make_robber, k):
    first, second = cached_graph(*first), cached_graph(*second)
    cop, robber = GreedyCopStrategy(), make_robber()
    play(first, cop, robber, k, 300)
    reused = play(second, cop, robber, k, 300)
    fresh_cop, fresh_robber = GreedyCopStrategy(), make_robber()
    fresh = play(second, fresh_cop, fresh_robber, k, 300)
    assert _first_difference(reused, fresh) is None
    assert getattr(robber, "stats", dict)() == getattr(fresh_robber, "stats", dict)()


# -- positional players -----------------------------------------------------------

# (graph, robber, k) of games between greedy cops and positional robbers: the
# robbers of _PERIODIC_GAMES, the G(n,p) robber, whose memory is its previous
# vertex, and the greedy and stationary robbers, some of which are captured.
# The G(n,p) games are on graphs of the earlier pair-by-pair sampler, on which
# the cycle periods and fallbacks below were pinned.
_POSITIONAL_GAMES = {
    **_PERIODIC_GAMES,
    **{f"gnp300-s{seed}-k{k}": (lambda seed=seed: pairwise_gnp(300, 0.033, seed),
                                lambda G: GnpRobberStrategy(0.4), k)
       for seed in (1, 2) for k in (1, 2, 3)},
    **{f"{name}-{robber.__name__}-k{k}": (make_graph, lambda G, robber=robber: robber(), k)
       for name, make_graph in (("cycle11", lambda: gen_named("cycle", 11)),
                                ("grid5", lambda: gen_named("grid2d", 5)),
                                ("petersen", lambda: gen_named("petersen")))
       for robber in (GreedyRobberStrategy, StationaryRobberStrategy)
       for k in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(_POSITIONAL_GAMES))
def test_fast_forwarded_games_equal_played_out_games(name):
    make_graph, make_robber, k = _POSITIONAL_GAMES[name]
    G = make_graph()
    fast = GreedyCopStrategy(), make_robber(G)
    slow = GreedyCopStrategy(), make_robber(G)
    assert all(player.positional for player in fast)
    stats = getattr(fast[1], "stats", dict)
    for max_rounds in [*range(41), 1500]:
        record = play(G, *fast, k, max_rounds)
        expected = reference_play(G, *slow, k, max_rounds)
        expected_stats = getattr(slow[1], "stats", dict)()
        assert (record.outcome, record.rounds_played) == (expected.outcome,
                                                          expected.rounds_played)
        assert _first_difference(record, expected) is None, max_rounds
        assert stats() == expected_stats, max_rounds
        assert play(G, *fast, k, max_rounds, record_transcript=False) == GameRecord(
            expected.outcome, expected.rounds_played, [])
        assert stats() == expected_stats, max_rounds
    if name == "gnp300-s1-k1":   # the robber falls back on some moves of its cycle
        assert 0 < stats()["fallbacks"] < stats()["moves"] == 1500


def _count_moves(player):
    """`player`, its `move` calls counted in `player.calls`."""
    move = player.move

    def counted(G, state):
        player.calls += 1
        return move(G, state)

    player.calls, player.move = 0, counted
    return player


class _UnpositionalPotentialRobber(PotentialRobberStrategy):
    positional = False


class _CountedGreedyRobber:
    """The greedy robber's moves, from a robber with no `positional` attribute."""

    calls = 0

    def __init__(self):
        self._greedy = GreedyRobberStrategy()

    def place(self, G, cops):
        return self._greedy.place(G, cops)

    def move(self, G, state):
        self.calls += 1
        return self._greedy.move(G, state)


def test_positional_players_skip_the_repeated_rounds():
    robber = _count_moves(PotentialRobberStrategy())
    record = play(gen_named("hypercube", 12), GreedyCopStrategy(), robber, 5, 5000)
    assert record.outcome == "survival" and len(record.transcript) == 2 + 2 * 5000
    assert 0 < robber.calls < 100
    # the G(n,p) robber's memory is its previous vertex; its stats count the
    # skipped moves, fallbacks among them
    robber = _count_moves(GnpRobberStrategy(0.4))
    record = play(pairwise_gnp(300, 0.033, 1), GreedyCopStrategy(), robber, 1, 5000)
    assert record.outcome == "survival" and 0 < robber.calls < 200
    stats = robber.stats()
    assert stats["moves"] == 5000 and stats["fallbacks"] > robber._fell_back.count(1) > 0


def _positions(transcript, memory: bool) -> list:
    """The (cops, robber) at the start of each cop turn of `transcript`, and
    with `memory` the robber's previous vertex, up to the turn after its last
    robber move."""
    cops, robber, prev = sorted(transcript[0]["to"]), transcript[1]["to"], None
    positions = [(tuple(cops), robber, None)]
    for cop, step in zip(transcript[2::2], transcript[3::2]):
        if cop["from"] is not None:
            cops[cops.index(cop["from"])] = cop["to"]
            cops.sort()
        if step["to"] != step["from"]:
            prev = step["from"]
        robber = step["to"]
        positions.append((tuple(cops), robber, prev if memory else None))
    return positions


def _first_repeat(transcript, memory: bool):
    """(first, again): the first round `again` whose position (see
    `_positions`) was also that of round `first`; None if none recurs."""
    seen = {}
    for r, key in enumerate(_positions(transcript, memory)):
        if key in seen:
            return seen[key], r
        seen[key] = r
    return None


def _check_cycle(record, expected, memory: bool) -> None:
    """`record.cycle` is (round, period) of a position of `expected` that
    recurs `period` rounds later, and `record`'s copied entries are those
    from one period past entry 2 + 2 * round on."""
    r, period = record.cycle
    positions = _positions(expected.transcript, memory)
    assert positions[r] == positions[r + period]
    t, block = record.transcript, 2 * period
    assert [i for i in range(block, len(t)) if t[i] is t[i - block]] == [
        *range(2 + 2 * r + block, len(t))]


@pytest.mark.parametrize("name", sorted(_POSITIONAL_GAMES))
def test_positional_games_stop_at_the_first_repeat(name):
    make_graph, make_robber, k = _POSITIONAL_GAMES[name]
    G = make_graph()
    cop, robber = _count_moves(GreedyCopStrategy()), _count_moves(make_robber(G))
    record = play(G, cop, robber, k, 1500)
    expected = reference_play(G, GreedyCopStrategy(), make_robber(G), k, 1500)
    assert _first_difference(record, expected) is None
    repeat = _first_repeat(expected.transcript, hasattr(robber, "memory"))
    if repeat is None:   # a capture: every move is played
        moves = expected.transcript[2:]
        assert (cop.calls, robber.calls) == (len(moves[::2]), len(moves[1::2]))
        assert record.cycle is None
    else:
        assert record.outcome == "survival" and cop.calls == robber.calls == repeat[1]
        assert record.cycle == (repeat[0], repeat[1] - repeat[0])
        _check_cycle(record, expected, hasattr(robber, "memory"))


# (graph, robber, k, period): greedy cops against a robber that they cannot
# reach (the cops pass and the robber stays), and cycles of periods 2, 5 and
# 10, the last with the G(n,p) robber, whose stats() count fallbacks
_CYCLE_GAMES = {
    "unreachable-p1": (lambda: Graph(4, [(0, 1), (2, 3)]), lambda G: GreedyRobberStrategy(),
                       1, 1),
    "q8-p2": (*_PERIODIC_GAMES["q8"], 2),
    "grid6-p2": (*_PERIODIC_GAMES["grid6"], 2),
    "petersen-p5": (lambda: gen_named("petersen"), lambda G: GreedyRobberStrategy(), 1, 5),
    "gnp300-p10": (*_POSITIONAL_GAMES["gnp300-s1-k1"], 10),
}


@pytest.mark.parametrize("cap", [1, 2, 3], ids=lambda cap: f"cap{cap}")
@pytest.mark.parametrize("name", sorted(_CYCLE_GAMES))
def test_seen_table_finds_the_cycles_it_can_hold(monkeypatch, cap, name):
    monkeypatch.setattr(game, "SEEN_ENTRIES", cap)
    make_graph, make_robber, k, period = _CYCLE_GAMES[name]
    G = make_graph()
    cop, robber = _count_moves(GreedyCopStrategy()), _count_moves(make_robber(G))
    slow = GreedyCopStrategy(), make_robber(G)
    for max_rounds in (60, 300):
        cop.calls = robber.calls = 0
        record = play(G, cop, robber, k, max_rounds)
        expected = reference_play(G, *slow, k, max_rounds)
        assert _first_difference(record, expected) is None
        assert getattr(robber, "stats", dict)() == getattr(slow[1], "stats", dict)()
        first, again = _first_repeat(expected.transcript, hasattr(robber, "memory"))
        assert again - first == period
        if period > cap:   # the table never holds a whole cycle
            assert cop.calls == robber.calls == max_rounds and record.cycle is None
        else:   # found within period - 1 rounds of the first repeat
            assert again <= cop.calls == robber.calls <= again + period - 1
            assert record.cycle[1] == period
            _check_cycle(record, expected, hasattr(robber, "memory"))


@pytest.mark.parametrize("G, robber, k", [
    (("hypercube", 8), _count_moves(_UnpositionalPotentialRobber()), 2),
    (("cycle", 12), _CountedGreedyRobber(), 1),
    (("petersen",), _CountedGreedyRobber(), 2),
], ids=["q8-potential", "cycle12-greedy", "petersen-greedy"])
def test_non_positional_players_move_every_round(G, robber, k):
    G = cached_graph(*G)
    # each of these games survives, and positions repeat from early on
    record = play(G, GreedyCopStrategy(), robber, k, 300)
    assert record.outcome == "survival" and robber.calls == 300
    assert record.to_json() == reference_play(G, GreedyCopStrategy(), robber, k, 300).to_json()
