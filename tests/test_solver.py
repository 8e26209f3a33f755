import time
from itertools import combinations_with_replacement, product

import pytest

from lazycops.errors import CapExceededError, IllegalMoveError, UsageError
from lazycops.game import COPS, ROBBER, GameState, apply_move, captured, legal_moves, play
from lazycops.graph import Graph, gen_gnp, gen_named
from lazycops.solver import (
    CLASSIC,
    LAZY,
    _move_table,
    cop_number,
    optimal_move,
    solve_classic,
    solve_lazy,
    verify_self_consistency,
)
from lazycops.strategies import OptimalCopStrategy, OptimalRobberStrategy
from cached_graphs import cached_graph


def test_single_cop_wins_on_path():
    res = solve_lazy(gen_named("path", 6), 1)
    assert res.cop_win


def test_single_cop_loses_on_cycle():
    for n in (4, 5, 8):
        assert not solve_lazy(gen_named("cycle", n), 1).cop_win


def test_two_cops_win_on_cycle():
    res = solve_lazy(gen_named("cycle", 9), 2)
    assert res.cop_win


def test_lazy_cop_number_known_values():
    assert cop_number(gen_named("path", 8), 3, LAZY) == 1
    assert cop_number(gen_named("cycle", 7), 3, LAZY) == 2
    assert cop_number(gen_named("complete", 6), 3, LAZY) == 1
    assert cop_number(gen_named("random_tree", 11, 4), 3, LAZY) == 1


def test_petersen_lazy_vs_classic():
    P = gen_named("petersen", None)
    assert not solve_lazy(P, 2).cop_win
    assert solve_lazy(P, 3).cop_win
    assert cop_number(P, 3, CLASSIC) == 3
    assert cop_number(P, 3, LAZY) == 3


def test_classic_le_lazy_le_domination():
    from lazycops.graph import exact_domination_number

    for seed in range(12):
        G = gen_gnp(9, 0.35, seed)
        if not G.is_connected():
            continue
        c = cop_number(G, 3, CLASSIC)
        cl = cop_number(G, 4, LAZY)
        assert c <= cl <= exact_domination_number(G)


def test_monotone_in_k():
    G = gen_named("cycle", 8)
    wins = [solve_lazy(G, k).cop_win for k in (1, 2, 3)]
    assert wins == sorted(wins)  # once winning, more cops still win


def test_placement_is_winning():
    G = gen_named("grid2d", 3)
    res = solve_lazy(G, 2)
    assert res.cop_win
    assert len(res.placement) == 2
    # every robber response from the stored placement is losing for the robber
    for v in range(G.n):
        assert res.distance(res.placement, v, COPS) is not None


def test_optimal_play_realizes_distance():
    G = gen_named("path", 7)
    res = solve_lazy(G, 1)
    s = GameState(cops=res.placement, robber=res.robber_placement_response(res.placement),
                  to_move=COPS, round=1)
    budget = res.distance(s.cops, s.robber, COPS)
    steps = 0
    while not captured(s):
        m = optimal_move(res, s)
        s = apply_move(G, s, m)
        steps += 1
        assert steps <= budget
    assert steps <= budget


def test_optimal_move_error_paths():
    G = gen_named("path", 4)
    res = solve_lazy(G, 1)
    for side in (COPS, ROBBER):
        with pytest.raises(IllegalMoveError):
            optimal_move(res, GameState((1,), 1, side))  # captured
        with pytest.raises(IllegalMoveError):
            optimal_move(res, GameState((1,), None, side))  # robber not placed
        with pytest.raises(KeyError):
            optimal_move(res, GameState((1, 2), 3, side))  # multiset not in table
    with pytest.raises(UsageError):
        optimal_move(solve_classic(G, 1), GameState((0,), 3, COPS))


def test_self_consistency_helper():
    for G in (gen_named("path", 6), gen_named("cycle", 8), gen_named("petersen", None)):
        for k in (1, 2):
            assert verify_self_consistency(solve_lazy(G, k))["ok"]


def test_self_consistency_classic():
    assert verify_self_consistency(solve_classic(gen_named("cycle", 6), 1))["ok"]
    assert verify_self_consistency(solve_classic(gen_named("cycle", 6), 2))["ok"]


def test_self_consistency_fails_on_halved_distances():
    # a table that promises capture in about half the true time: the replay
    # outruns the promised budget and reports the failure
    res = solve_lazy(gen_named("grid2d", 4), 2)
    for i, d in enumerate(res._dist):
        if d > 0:
            res._dist[i] = (d + 1) // 2
    assert verify_self_consistency(res) == {"ok": False, "half_moves": 6, "budget": 4}


@pytest.mark.parametrize("solve,G,k", [(solve_lazy, ("path", 1), 1),
                                       (solve_lazy, ("path", 2), 2),
                                       (solve_classic, ("path", 1), 1),
                                       (solve_classic, ("path", 2), 2)],
                         ids=["K1-k1", "P2-k2", "classic-K1-k1", "classic-P2-k2"])
def test_self_consistency_capture_at_placement(solve, G, k):
    # every vertex holds a cop, so the robber is placed onto one
    assert verify_self_consistency(solve(cached_graph(*G), k)) == {"ok": True, "half_moves": 0, "budget": 0}


@pytest.mark.parametrize("G", [("grid2d", 4), ("cycle", 8), ("gnp", 12, 0.35, 5)],
                         ids=["grid4", "C8", "gnp12-seed5"])
def test_replay_plays_the_optimal_players_game(monkeypatch, G):
    # the robber's replies in the replay (placement included) and in a game
    # between the optimal strategies see the same cop multisets and agree
    import lazycops.solver as solver

    G = cached_graph(*G)
    res = solve_lazy(G, 2)
    replay, reply = [], solver._robber_reply

    def recorded(result, cops, steps):
        replay.append((tuple(cops), reply(result, cops, steps)))
        return replay[-1][1]

    monkeypatch.setattr(solver, "_robber_reply", recorded)
    assert verify_self_consistency(res)["ok"]
    monkeypatch.undo()
    rec = play(G, OptimalCopStrategy(res), OptimalRobberStrategy(res), 2, 100)
    cops, game = None, []
    for entry in rec.transcript:
        if entry["side"] == ROBBER:
            game.append((cops, entry["to"]))
        elif entry["to"] is None:  # a pass
            continue
        elif entry["from"] is None:  # the placement
            cops = tuple(entry["to"])
        else:
            cops = list(cops)
            cops[cops.index(entry["from"])] = entry["to"]
            cops = tuple(sorted(cops))
    assert replay == game


def test_distance_accepts_cops_in_any_order():
    res = solve_lazy(gen_named("grid2d", 3), 2)
    for side in (COPS, ROBBER):
        assert res.distance((8, 0), 4, side) == res.distance((0, 8), 4, side) is not None
        assert res.distance([8, 0], 4, side) == res.distance((0, 8), 4, side)
    with pytest.raises(KeyError):
        res.distance((0, 9), 4, COPS)
    with pytest.raises(KeyError, match="robber vertex 9 out of range"):
        res.distance((0, 8), res.G.n, COPS)


@pytest.mark.parametrize("side", [7, 0, 1, "cop", None])
def test_distance_rejects_unknown_side(side):
    res = solve_lazy(gen_named("grid2d", 3), 2)
    with pytest.raises(UsageError, match="'cops' or 'robber'"):
        res.distance((0, 8), 4, side)


def test_evasion_replay_reads_its_length_at_call_time(monkeypatch):
    import lazycops.solver as solver

    res = solve_lazy(gen_named("cycle", 5), 1)  # robber win
    assert verify_self_consistency(res) == {"ok": True, "half_moves": 200, "budget": None}
    monkeypatch.setattr(solver, "EVASION_STEPS", 10)
    assert verify_self_consistency(res) == {"ok": True, "half_moves": 10, "budget": None}


@pytest.mark.parametrize("solve", [solve_lazy, solve_classic], ids=["lazy", "classic"])
def test_evasion_replay_fails_on_a_capture(monkeypatch, solve):
    import lazycops.solver as solver

    # a table that reads every capture state as a robber win: the robber is
    # placed onto the cop, and the replay stops there
    res = solve(gen_named("cycle", 5), 1)  # robber win
    M = len(res._msets)
    for mi, cops in enumerate(res._msets):
        for r in set(cops):
            res._dist[r * M + mi] = -1
    assert verify_self_consistency(res) == {"ok": False, "half_moves": 0, "budget": None}

    # a cop that jumps onto the robber on the replay's last half-move
    res = solve(gen_named("cycle", 5), 1)
    monkeypatch.setattr(solver, "EVASION_STEPS", 1)
    monkeypatch.setattr(solver, "_cop_reply", lambda result, mi, robber: result._mindex[(robber,)])
    assert verify_self_consistency(res) == {"ok": False, "half_moves": 1, "budget": None}


def test_classic_term_cap_read_at_call_time(monkeypatch):
    import lazycops.solver as solver

    G = gen_named("petersen")  # 220 multisets of 4^3 product terms each
    monkeypatch.setattr(solver, "CLASSIC_TERM_CAP", 14_079)
    with pytest.raises(CapExceededError,
                       match=r"^classic move table of 14080 terms exceeds cap 14079 \(n=10, k=3\)$"):
        solve_classic(G, 3)
    monkeypatch.setattr(solver, "CLASSIC_TERM_CAP", 14_080)
    assert solve_classic(G, 3).cop_win


_ONE_COP_GRAPHS = ([("petersen", ("petersen",)), ("Q4", ("hypercube", 4)),
                    ("grid4", ("grid2d", 4)), ("C9", ("cycle", 9))]
                   + [(f"gnp14-seed{seed}", ("gnp", 14, 0.3, seed)) for seed in range(4)])


@pytest.mark.parametrize("G", [g for _, g in _ONE_COP_GRAPHS], ids=[n for n, _ in _ONE_COP_GRAPHS])
def test_one_cop_lazy_and_classic_coincide(G):
    # with one cop, moving that cop is the whole cop turn under both rules
    G = cached_graph(*G)
    lazy, classic = solve_lazy(G, 1), solve_classic(G, 1)
    assert lazy._moves == classic._moves
    assert lazy._dist == classic._dist
    assert ({**lazy.summary(), "mode": CLASSIC, "seconds": 0}
            == {**classic.summary(), "seconds": 0})


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_classic_cop_number_of_hypercubes(dim):
    # Maamoun and Meyniel (1987): c(Q_n) = ceil((n + 1) / 2)
    assert cop_number(gen_named("hypercube", dim), 3, CLASSIC) == (dim + 2) // 2


def test_disconnected_rejected():
    from lazycops.graph import Graph

    G = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(UsageError):
        cop_number(G, 2, LAZY)


def test_cop_number_dispatch():
    G = gen_named("cycle", 6)
    assert cop_number(G, 3, "lazy") == 2
    assert cop_number(G, 3, "classic") == 2


def test_cop_number_rejects_unknown_mode():
    with pytest.raises(UsageError, match="'lazy' or 'classic', got 'bogus'"):
        cop_number(gen_named("grid2d", 3), 3, "bogus")


def test_state_count_reported():
    G = gen_named("path", 4)
    res = solve_lazy(G, 1)
    # 4 cop positions x 4 robber positions x 2 sides
    assert res.states == 32


@pytest.mark.parametrize("G,k,cop_win", [(("grid2d", 4), 2, True), (("cycle", 7), 1, False)])
def test_stats_count_phases_levels_and_labels(G, k, cop_win):
    G = cached_graph(*G)
    res = solve_lazy(G, k)
    assert res.cop_win is cop_win
    assert set(res.summary()) == {"n", "k", "mode", "cop_win", "states", "seconds"}
    st = res.stats
    assert set(st) == {"table_s", "label_s", "placement_s", "levels", "decided_level",
                       "cop_states_labeled", "robber_states_labeled",
                       "cop_labeled_per_level", "robber_labeled_per_level", "pulled_groups"}
    phases = (st["table_s"], st["label_s"], st["placement_s"])
    assert min(phases) >= 0 and sum(phases) <= res.seconds + 1e-9
    labeled = {side: [d for cops in combinations_with_replacement(range(G.n), k)
                      for r in range(G.n)
                      if (d := res.distance(cops, r, side)) is not None]
               for side in (COPS, ROBBER)}
    assert st["cop_states_labeled"] == len(labeled[COPS])
    assert st["robber_states_labeled"] == len(labeled[ROBBER])
    assert (st["cop_states_labeled"] == res.states // 2) is cop_win
    # the greatest distance is levels - 1: the last level labels nothing
    assert st["levels"] == 1 + max(max(ds) for ds in labeled.values())
    assert (st["decided_level"] < st["levels"]) is cop_win
    # entry d counts the states at distance d, so each list sums to its total
    for side, key in ((COPS, "cop"), (ROBBER, "robber")):
        per_level = st[f"{key}_labeled_per_level"]
        assert per_level == [labeled[side].count(d) for d in range(st["levels"])]
        assert sum(per_level) == st[f"{key}_states_labeled"]


def _table_by_rules(G, k, mode):
    """Per multiset rank, the ranks one cop-side move away: lazy from
    `legal_moves` and `apply_move` (robber on a free vertex), classic from
    the product of the cops' closed neighbourhoods."""
    msets = list(combinations_with_replacement(range(G.n), k))
    rank = {ms: i for i, ms in enumerate(msets)}
    rows = []
    for cops in msets:
        if mode == LAZY:
            s = GameState(cops, next(v for v in range(G.n) if v not in cops), COPS)
            succ = {rank[apply_move(G, s, m).cops] for m in legal_moves(G, s)}
        else:
            steps = [(u, *G.neighbors(u)) for u in cops]
            succ = {rank[tuple(sorted(c))] for c in product(*steps)}
        rows.append(tuple(sorted(succ)))
    return msets, rank, rows


_TABLE_CASES = (
    [("petersen", ("petersen",), k) for k in (1, 2, 3)]
    + [("Q4", ("hypercube", 4), k) for k in (1, 2, 3, 4)]
    + [("grid4", ("grid2d", 4), 3), ("tree12", ("random_tree", 12, 5), 2)]
)


# the classic product at k = 4 is 5^4 moves per multiset of Q4: left out
_TABLE_PARAMS = ([(*c, LAZY) for c in _TABLE_CASES]
                 + [(*c, CLASSIC) for c in _TABLE_CASES if c[2] < 4])


@pytest.mark.parametrize("name,G,k,mode", _TABLE_PARAMS,
                         ids=[f"{c[0]}-k{c[2]}-{c[3]}" for c in _TABLE_PARAMS])
def test_move_table_matches_rules(name, G, k, mode):
    G = cached_graph(*G)
    msets, rank, rows = _table_by_rules(G, k, mode)
    closed = [G.closed_neighbors(v) for v in range(G.n)]
    table = _move_table(msets, rank, closed, mode)
    bad = [(msets[mi], got, want)
           for mi, (got, want) in enumerate(zip(table, rows)) if got != want]
    assert not bad, f"{len(bad)} rows differ, first {bad[:2]}"


def _lazy_table_every_cop(msets, mindex, closed):
    """The lazy move table with one slice per cop, repeated cops included."""
    n = len(closed)
    rows = {rest: [mindex[tuple(sorted(rest + (u,)))] for u in range(n)]
            for rest in combinations_with_replacement(range(n), len(msets[0]) - 1)}
    table = []
    for cops in msets:
        succ = set()
        for i, t in enumerate(cops):
            succ.update(map(rows[cops[:i] + cops[i + 1:]].__getitem__, closed[t]))
        table.append(tuple(sorted(succ)))
    return table


@pytest.mark.parametrize("seed", range(8))
def test_skipping_repeated_cops_keeps_the_lazy_table(seed):
    G = gen_gnp(6 + seed % 4, 0.4, seed)
    k = 1 + seed % 4
    res = solve_lazy(G, k)
    assert res._moves == _lazy_table_every_cop(res._msets, res._mindex, res._closed)


def test_many_cops_on_a_tiny_graph_solve_fast():
    t0 = time.perf_counter()
    res = solve_lazy(gen_named("path", 2), 400)
    assert res.cop_win and res.states == 2 * 2 * 401
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("solve,k", [(solve_lazy, 0), (solve_classic, 0), (solve_lazy, -3)])
def test_cop_count_checked_before_the_caps(monkeypatch, solve, k):
    # with every solve over the state cap, only the cop-count check can answer
    import lazycops.solver as solver

    monkeypatch.setattr(solver, "STATE_CAP", 0)
    with pytest.raises(UsageError, match=r"^cop count must be >= 1$"):
        solve(gen_named("path", 3), k)


@pytest.mark.parametrize("solve", [solve_lazy, solve_classic])
def test_multiset_entries_capped_at_a_quarter_of_the_state_cap(monkeypatch, solve):
    import lazycops.solver as solver

    monkeypatch.setattr(solver, "STATE_CAP", 400)
    G = Graph(1, [])   # one multiset and 2 states at any k
    assert solve(G, 100).cop_win
    with pytest.raises(CapExceededError, match=r"^multiset entries 101 exceed cap 100 \(n=1, k=101\)$"):
        solve(G, 101)
