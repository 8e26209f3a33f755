"""Differential test: the move-table solver against the reference solver.

Every (cop multiset, robber, side) distance, the winner, the placement and
the state count must agree with `reference_solver.reference_solve`.  On
lazy results, `optimal_move` must choose the move of
`reference_solver.reference_optimal_move` in every live state, for both
sides, and the robber's placement reply must match too.

A solve returns at the level that decides the winner.  Before any read of
its table, a result must already hold the reference's winner and
placement, and each reader of the table must give the same value on such
a fresh result as on a completed one.
"""

import gc
import weakref
from functools import cache, partial
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazycops.game import COPS, ROBBER, GameState
from lazycops.graph import Graph, gen_gnp, gen_named
from lazycops.solver import (
    CLASSIC,
    LAZY,
    _classic_terms,
    cop_number,
    optimal_move,
    solve_classic,
    solve_lazy,
    verify_self_consistency,
)
from reference_solver import (
    reference_counter_labeling,
    reference_optimal_move,
    reference_robber_placement,
    reference_solve,
)


# The seeds of the first 15 connected G(10, 0.3); the tests assert that
# each graph is still connected, rather than pick other seeds if not
_GNP10_SEEDS = (0, 1, 4, 6, 7, 8, 9, 11, 12, 13, 14, 18, 21, 22, 23)

# graph name -> its builder
_GRAPHS = {
    "petersen": partial(gen_named, "petersen"),
    **{f"C{n}": partial(gen_named, "cycle", n) for n in (*range(4, 13), 14)},
    **{f"tree{seed}": partial(gen_named, "random_tree", 2 + seed % 11, seed)
       for seed in range(20)},
    **{f"gnp10-seed{seed}": partial(gen_gnp, 10, 0.3, seed) for seed in _GNP10_SEEDS},
    "grid5": partial(gen_named, "grid2d", 5), "grid6": partial(gen_named, "grid2d", 6),
    "Q4": partial(gen_named, "hypercube", 4), "Q5": partial(gen_named, "hypercube", 5),
    "K6": partial(gen_named, "complete", 6),
    "P20": partial(gen_named, "path", 20),
    "two-triangles": partial(Graph, 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
}


@cache
def _graph(name):
    """The corpus graph `name`, built on first use, so that a generator
    fault fails the tests that use the graph and not this module's collection."""
    G = _GRAPHS[name]()
    assert not name.startswith("gnp") or G.is_connected(), name
    return G


def _corpus():
    """(test id, graph name, k, mode) of every case."""
    cases = [("petersen", k, LAZY) for k in (1, 2, 3)]
    cases += [(f"C{n}", 2, LAZY) for n in range(4, 13)]
    cases += [(f"tree{seed}", 1, LAZY) for seed in range(20)]
    cases += [(f"gnp10-seed{seed}", 2, mode) for seed in _GNP10_SEEDS for mode in (LAZY, CLASSIC)]
    cases += [("grid5", 2, LAZY), ("Q4", 2, LAZY), ("Q4", 3, LAZY), ("K6", 2, LAZY),
              ("C6", 1, CLASSIC), ("petersen", 3, CLASSIC),
              # many levels, or large frontiers per robber vertex
              ("P20", 2, LAZY), ("C14", 3, LAZY),
              ("two-triangles", 1, LAZY), ("two-triangles", 2, LAZY)]
    return [(f"{name}-{mode}-k{k}", name, k, mode) for name, k, mode in cases]


# Large frontiers per robber vertex, checked for distances only: comparing
# optimal play in all their 48 k and 34 k states would add about 5 s
_LABELING_ONLY = [("grid6-lazy-k2", "grid6", 2, LAZY), ("Q5-lazy-k2", "Q5", 2, LAZY)]

CORPUS = _corpus()
LAZY_CORPUS = [c for c in CORPUS if c[3] == LAZY]
CORPUS += _LABELING_ONLY


def _assert_matches_reference(G, k, mode):
    res = solve_lazy(G, k) if mode == LAZY else solve_classic(G, k)
    cop_win, placement, states, distance = reference_solve(G, k, mode)
    assert (res.cop_win, res.placement, res.states) == (cop_win, placement, states)
    mismatches = [
        (cops, r, side, res.distance(cops, r, side), distance(cops, r, side))
        for cops in combinations_with_replacement(range(G.n), k)
        for r in range(G.n)
        for side in (COPS, ROBBER)
        if res.distance(cops, r, side) != distance(cops, r, side)
    ]
    assert not mismatches, f"{len(mismatches)} distances differ, first {mismatches[:3]}"
    assert verify_self_consistency(res)["ok"]
    return res


@pytest.mark.parametrize("name,k,mode", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_matches_reference(name, k, mode):
    _assert_matches_reference(_graph(name), k, mode)


@pytest.mark.parametrize("name,k,mode", [("grid5", 2, LAZY), ("petersen", 3, CLASSIC)])
def test_pulled_groups_match_reference(name, k, mode):
    # From the reference's distances: at level d, robber vertex r pulls iff
    # fewer of its cops-to-move states are unlabeled before the level
    # (robber-win, or distance >= d) than its robber-to-move states have
    # distance d - 1.  Both directions run here, and the distances agree.
    G = _graph(name)
    res = _assert_matches_reference(G, k, mode)
    distance = reference_solve(G, k, mode)[3]
    msets = list(combinations_with_replacement(range(G.n), k))
    cop = [[distance(c, r, COPS) for c in msets] for r in range(G.n)]
    robber = [[distance(c, r, ROBBER) for c in msets] for r in range(G.n)]
    pulls = sum(sum(x is None or x >= d for x in cop[r]) < robber[r].count(d - 1)
                for d in range(1, res.stats["levels"] + 1) for r in range(G.n))
    assert res.stats["pulled_groups"] == pulls > 0


def _solve(name, k, mode):
    return (solve_lazy if mode == LAZY else solve_classic)(_graph(name), k)


def _complete(res):
    """Whether `res` holds its whole distance table, i.e. some read ran the
    labeling's remaining levels."""
    return "_dist" in vars(res)


@pytest.mark.parametrize("name,k,mode", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_fresh_result_decides_like_reference(name, k, mode):
    # the winner and placement come before the rest of the table, and
    # decided_level is the placement game's value: the least worst-case
    # cops-to-move distance over the placements (levels on robber wins)
    G, res = _graph(name), _solve(name, k, mode)
    cop_win, placement, _, distance = reference_solve(G, k, mode)
    assert (res.cop_win, res.placement, res.summary()["cop_win"]) == (cop_win, placement, cop_win)
    assert not _complete(res)
    worst = [max(col) for cops in combinations_with_replacement(range(G.n), k)
             if None not in (col := [distance(cops, r, COPS) for r in range(G.n)])]
    assert res.stats["decided_level"] == (min(worst) if cop_win else res.stats["levels"])
    assert _complete(res)


def _untimed(stats):
    return {key: v for key, v in stats.items() if not key.endswith("_s")}


# each reader that needs the whole table, as a function of a result
_READERS = {
    "distance": lambda res: [res.distance(cops, r, side)
                             for cops in (res.placement, res._msets[-1])
                             for r in range(res.G.n) for side in (COPS, ROBBER)],
    "robber_placement_response": lambda res: [res.robber_placement_response(cops)
                                              for cops in (res.placement, res._msets[-1])],
    "optimal_move": lambda res: [
        optimal_move(res, GameState(res.placement, r, side))
        for r in range(res.G.n) if r not in res.placement for side in (COPS, ROBBER)],
    "verify_self_consistency": verify_self_consistency,
    "_dist": lambda res: res._dist,
    "stats": lambda res: _untimed(res.stats),
}


@pytest.mark.parametrize("name,k,mode", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_readers_complete_the_table(name, k, mode):
    done = _solve(name, k, mode)
    done.stats   # completes it
    for reader, read in _READERS.items():
        if reader == "optimal_move" and mode != LAZY:
            continue
        fresh = _solve(name, k, mode)
        assert not _complete(fresh), reader
        assert read(fresh) == read(done), reader
        assert _complete(fresh), reader
        phases = (fresh.stats[p] for p in ("table_s", "label_s", "placement_s"))
        assert sum(phases) <= fresh.seconds + 1e-9, reader


@pytest.mark.parametrize("name,k,mode", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_fresh_result_is_freed_without_the_collector(name, k, mode):
    # the suspended labeling holds no reference back to its result, so
    # reference counting alone frees both
    gc.disable()
    try:
        res = _solve(name, k, mode)
        refs = weakref.ref(res), weakref.ref(res._rest)
        del res
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_cut_short_completion_leaves_no_table(monkeypatch):
    # an exception inside the remaining levels: every later read raises,
    # and none shows the partly labeled distances
    import lazycops.solver as solver

    res = solve_lazy(_graph("grid5"), 2)
    assert res.cop_win and res.stats["decided_level"] < res.stats["levels"] - 1
    res = solve_lazy(_graph("grid5"), 2)

    def out_of_memory(row):
        raise MemoryError

    # each level's cop side scans its rows with one of the two
    monkeypatch.setattr(solver, "_ONES", out_of_memory)
    monkeypatch.setattr(solver, "_ZEROS", out_of_memory)
    with pytest.raises(MemoryError):
        res.distance(res.placement, 0, COPS)
    monkeypatch.undo()
    for read in (lambda: res._dist, lambda: res.stats, lambda: res.distance(res.placement, 0, COPS)):
        with pytest.raises(RuntimeError, match="cut short"):
            read()
    assert not _complete(res)


@st.composite
def _small_connected_graphs(draw):
    n = draw(st.integers(1, 8))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, tree + extra)


@settings(max_examples=40, deadline=None)
@given(_small_connected_graphs(), st.integers(1, 2), st.sampled_from([LAZY, CLASSIC]))
def test_matches_reference_on_small_graphs(G, k, mode):
    _assert_matches_reference(G, k, mode)


def _assert_labeling_matches_counters(G, k, mode):
    res = solve_lazy(G, k) if mode == LAZY else solve_classic(G, k)
    dist, levels, cop_labeled, robber_labeled, placement = reference_counter_labeling(G, k, mode)
    assert res._dist == dist
    st = res.stats
    assert (st["levels"], st["cop_states_labeled"], st["robber_states_labeled"], res.placement) \
        == (levels, cop_labeled, robber_labeled, placement)


@pytest.mark.parametrize("name,k,mode", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_labeling_matches_counter_reference(name, k, mode):
    _assert_labeling_matches_counters(_graph(name), k, mode)


@st.composite
def _small_graphs(draw):
    """Any simple graph on 1-8 vertices: disconnected ones and isolated
    vertices (closed neighbourhood (v,)) included."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else [])


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.integers(1, 3), st.sampled_from([LAZY, CLASSIC]))
def test_labeling_matches_counter_reference_on_small_graphs(G, k, mode):
    _assert_labeling_matches_counters(G, k, mode)


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.integers(1, 4))
def test_classic_terms_match_brute_force(G, k):
    assert _classic_terms(G, k) == sum(
        prod(G.degree(v) + 1 for v in cops)
        for cops in combinations_with_replacement(range(G.n), k))


# the distinct connected graphs of the corpus: two-triangles is disconnected,
# and tree11 is tree0's graph, a single edge
_CONNECTED = [name for name in dict.fromkeys(c[1] for c in CORPUS)
              if name not in ("two-triangles", "tree11")]


@pytest.mark.parametrize("name", _CONNECTED)
def test_classic_cop_number_at_most_lazy(name):
    # a lazy cop strategy is a classic one, so c <= c_L: the lazy game with
    # c - 1 cops is a robber win, as the classic one is
    G = _graph(name)
    assert G.is_connected()
    c = cop_number(G, 3, CLASSIC)
    assert c == 1 or not solve_lazy(G, c - 1).cop_win


def _assert_optimal_play_matches_reference(G, k):
    res = solve_lazy(G, k)
    mismatches = []
    for cops in combinations_with_replacement(range(G.n), k):
        got, want = res.robber_placement_response(cops), reference_robber_placement(res, cops)
        if got != want:
            mismatches.append((cops, "placement", got, want))
        for r in range(G.n):
            if r in cops:
                continue
            for side in (COPS, ROBBER):
                s = GameState(cops, r, side)
                got, want = optimal_move(res, s), reference_optimal_move(res, s)
                if got != want:
                    mismatches.append((cops, r, side, got, want))
    assert not mismatches, f"{len(mismatches)} moves differ, first {mismatches[:3]}"


@pytest.mark.parametrize("name,k", [c[1:3] for c in LAZY_CORPUS],
                         ids=[c[0] for c in LAZY_CORPUS])
def test_optimal_move_matches_reference(name, k):
    _assert_optimal_play_matches_reference(_graph(name), k)


@settings(max_examples=40, deadline=None)
@given(_small_connected_graphs(), st.integers(1, 2))
def test_optimal_move_matches_reference_on_small_graphs(G, k):
    _assert_optimal_play_matches_reference(G, k)


# -- graphs where laziness costs a cop ----------------------------------------

def _k3_box_k3():
    # cells (row, column) of a 3x3 rook's graph, adjacent along a row or a column
    return Graph(9, [(a, b) for a, b in combinations(range(9), 2)
                     if a // 3 == b // 3 or a % 3 == b % 3])


def _cuboctahedron():
    # the line graph of Q3: its 12 edges, adjacent when they share an end
    edges = [(u, u | bit) for u in range(8) for bit in (1, 2, 4) if not u & bit]
    return Graph(12, [(a, b) for a, b in combinations(range(12), 2)
                      if set(edges[a]) & set(edges[b])])


@pytest.mark.parametrize("build, m", [(_k3_box_k3, 18), (_cuboctahedron, 24)],
                         ids=["K3xK3", "cuboctahedron"])
def test_laziness_costs_a_cop(build, m):
    G = build()
    assert G.m == m and all(G.degree(v) == 4 for v in range(G.n))
    assert cop_number(G, 4, CLASSIC) == 2
    assert cop_number(G, 4, LAZY) == 3
    for k in (2, 3):
        _assert_matches_reference(G, k, LAZY)
        assert solve_lazy(G, k).cop_win == (k == 3)
