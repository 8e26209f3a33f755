import dataclasses
import math
import random

import pytest

from lazycops.errors import UsageError
from lazycops.game import ROBBER, GameState
from lazycops.gnp import (
    BOUNDARY_DENSE,
    BOUNDARY_MID,
    BOUNDARY_SPARSE,
    MAIN,
    GnpRobberStrategy,
    _level_count,
    gnp_params,
    gnp_robber_move,
)
from lazycops.graph import Graph, gen_gnp
from reference_gnp import (
    pairwise_gnp,
    reference_gnp_move,
    reference_is_dangerous,
    reference_is_safe,
)


def test_params_alpha_04():
    p = gnp_params(1000, 0.01, 0.4)
    assert p.j == 2
    assert p.c == pytest.approx(30.0)
    # K = (1-j*alpha)/(12*(2c)^(j-1)*j^j) / p = 0.2/2880 / p
    assert p.K * p.p == pytest.approx(0.2 / 2880, rel=1e-12)
    assert p.regime == MAIN


def test_params_threshold_level2():
    # threshold[2] = d/(2cj); with d = 100 this is 100/120 = 5/6
    n = 101
    p = gnp_params(n, 1.0 - 1e-12, 0.4)
    assert p.d == pytest.approx(100.0)
    assert p.thresholds[2] == pytest.approx(5.0 / 6.0, rel=1e-9)


def test_params_j_from_alpha():
    assert gnp_params(500, 0.05, 0.6).j == 1
    assert gnp_params(500, 0.05, 0.5).j == 1   # boundary alpha = 1/(j+1)
    assert gnp_params(500, 0.05, 0.34).j == 2
    assert gnp_params(500, 0.05, 0.25).j == 3  # boundary again


def test_level_count_leaves_room_for_its_levels():
    # gnp_params divides by 1 - j * alpha; random alphas, and 1/k on and
    # just off the boundary tolerance
    rng = random.Random(0)
    alphas = [rng.random() for _ in range(200_000)]
    alphas += [1 / k + e for k in range(2, 2000) for e in (0, -1e-9, -1e-12, 1e-12, 1e-9)]
    assert len(alphas) == 209_990
    bad = [a for a in alphas if 0 < a < 1 and not _level_count(a) * a < 1]
    assert bad == []


def test_params_invalid_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(UsageError):
            gnp_params(100, 0.1, alpha)


def test_params_levels_zero_and_one():
    p = gnp_params(1000, 0.01, 0.4)
    assert p.thresholds[0] == 0 and p.thresholds[1] == 0


def test_params_thresholds_increasing():
    # strictly increasing above level 1 whenever d exceeds the base 2cj
    p = gnp_params(3000, 0.2, 0.3)
    assert p.j == 3 and p.d > 2 * p.c * p.j
    for r in range(2, p.j):
        assert p.thresholds[r + 1] > p.thresholds[r]


def test_boundary_regimes():
    # at a boundary exponent alpha = 1/(j+1) the regime depends on d^(j+1)
    # against 7n log n and n / log n, and boundary-sparse tracks the extra
    # level j + 1: d = 350, 100, 10 at alpha = 1/2 (j = 1) and d = 60, 20, 4
    # at alpha = 1/3 (j = 2) give dense, mid and sparse
    n = 2000
    for alpha, j, ds in ((0.5, 1, (350, 100, 10)), (1 / 3, 2, (60, 20, 4))):
        for d, regime in zip(ds, (BOUNDARY_DENSE, BOUNDARY_MID, BOUNDARY_SPARSE)):
            params = gnp_params(n, d / (n - 1), alpha)
            max_level = j + 1 if regime == BOUNDARY_SPARSE else j
            assert (params.j, params.regime, params.max_level) == (j, regime, max_level)


def test_boundary_scaling_units():
    # the three branch budgets scale as 1/p, d^j/log n, n/(d log^2 n)
    n = 2000
    dense = gnp_params(n, 350.0 / (n - 1), 0.5)
    j, c = dense.j, dense.c
    assert dense.K == pytest.approx(
        (1 - j * 0.5) / (12 * (2 * c) ** (j - 1) * j ** j) / dense.p
    )
    mid = gnp_params(n, 100.0 / (n - 1), 0.5)
    j, c, d = mid.j, mid.c, mid.d
    assert mid.K == pytest.approx(
        c * (1 - j * 0.5) / (42 * (2 * c * j) ** j) * d ** j / math.log(n)
    )
    sparse = gnp_params(n, 10.0 / (n - 1), 0.5)
    j, c, d = sparse.j, sparse.c, sparse.d
    assert sparse.K == pytest.approx(
        c ** 2 * (1 - j * 0.5) ** 2 / (3528 * (2 * c * (j + 1)) ** (j + 1))
        * n / (d * math.log(n) ** 2)
    )


# -- safety / danger classifiers (reference predicates) ------------------------

def _params_for(G, alpha=0.4):
    p = 2.0 * G.m / (G.n * (G.n - 1))
    return gnp_params(G.n, p, alpha)


# three interior exponents, and the boundary exponents 1/3 and 1/4, where
# the graph's density picks the regime: boundary-sparse tracks level j + 1
# and the cop and prev search radii differ
_ALPHAS = (0.4, 0.3, 0.6, 1 / 3, 1 / 4)


def test_safe_no_cops():
    G = gen_gnp(20, 0.3, 1)
    params = _params_for(G)
    v = 0
    for x in G.neighbors(v):
        assert reference_is_safe(G, [], v, x, params)


def test_unsafe_cop_on_v():
    G = gen_gnp(20, 0.3, 1)
    params = _params_for(G)
    v = 0
    for x in G.neighbors(v):
        assert not reference_is_safe(G, [v], v, x, params)


def test_safe_when_deadly_neighbor_cuts_cop_off():
    # path 2-1-0 plus pendant 0-3: deleting x=1 removes the only length-<=1
    # route from the cop at 1 to v=0
    G = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    params = _params_for(G, 0.4)
    assert not reference_is_safe(G, [1], 0, 3, params)   # x=3 leaves the cop adjacent
    assert reference_is_safe(G, [1], 0, 1, params)       # x=1 deletes the cop's vertex


def test_dangerous_cop_on_y():
    G = gen_gnp(20, 0.3, 2)
    params = _params_for(G)
    v = 0
    nbrs = list(G.neighbors(v))
    x, y = nbrs[0], nbrs[1]
    assert reference_is_dangerous(G, [y], v, x, y, 0, params)


def test_dangerous_cop_adjacent_to_y():
    # star-free construction: y's private neighbor holds a cop
    G = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    params = _params_for(G, 0.4)
    assert reference_is_dangerous(G, [3], 0, 2, 1, 1, params)
    assert not reference_is_dangerous(G, [4], 0, 2, 1, 1, params)  # cop cut off by x=2


def test_not_2dangerous_below_threshold():
    p = gnp_params(101, 1.0 - 1e-12, 0.4)  # threshold[2] = 5/6 < 1
    G = Graph(4, [(0, 1), (1, 2), (2, 3)])
    params = p
    # no cops at all: certainly not 2-dangerous
    assert not reference_is_dangerous(G, [], 0, 2, 1, 2, params)


def _oracle_counts(G, deleted, src, radius):
    """Brute-force BFS in the vertex-deleted graph."""
    from collections import deque

    if src in deleted:
        return {}
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        if dist[u] == radius:
            continue
        for w in G.neighbors(u):
            if w not in deleted and w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def _oracle_is_safe(G, cops, v, x, params):
    dist = _oracle_counts(G, {x}, v, params.max_level)
    for r in range(params.max_level + 1):
        count = sum(1 for c in cops if dist.get(c, math.inf) <= r)
        if count > params.thresholds[r]:
            return False
    return True


def _oracle_is_dangerous(G, cops, v, x, y, r, params):
    dist = _oracle_counts(G, {v, x}, y, r)
    count = sum(1 for c in cops if dist.get(c, math.inf) <= r)
    return count > params.thresholds[r]


def test_classifiers_match_oracle():
    rng = random.Random(4)
    checked = 0
    while checked < 200:
        n = rng.randrange(8, 31)
        G = gen_gnp(n, 0.25, rng.randrange(10_000))
        v = rng.randrange(n)
        nbrs = list(G.neighbors(v))
        if len(nbrs) < 2:
            continue
        x = rng.choice(nbrs)
        ys = [u for u in nbrs if u != x]
        y = rng.choice(ys)
        cops = [rng.randrange(n) for _ in range(rng.randrange(1, 5))]
        params = _params_for(G, rng.choice([0.4, 0.3, 0.6]))
        assert reference_is_safe(G, cops, v, x, params) == _oracle_is_safe(G, cops, v, x, params)
        r = rng.randrange(0, params.j + 1)
        assert reference_is_dangerous(G, cops, v, x, y, r, params) == \
            _oracle_is_dangerous(G, cops, v, x, y, r, params)
        checked += 1


def _oracle_robber_move(G, cops, v, prev, params):
    """The rule of `gnp_robber_move`, rebuilt from brute-force searches
    around each candidate instead of one search per cop; also says whether
    some candidate survived."""
    cands = [y for y in G.neighbors(v) if y != prev] or list(G.neighbors(v))
    deleted = {v} if prev is None else {v, prev}
    top = params.max_level
    survivors, ranked = [], []
    for y in cands:
        dist = _oracle_counts(G, deleted, y, top)
        cop_dists = [dist[c] for c in cops if c in dist]
        violations = sum(1 for r in range(top + 1)
                         if sum(1 for d in cop_dists if d <= r) > params.thresholds[r])
        near_prev = prev is not None and prev in _oracle_counts(G, {v}, y, params.j)
        if violations == 0 and not near_prev:
            survivors.append(y)
        ranked.append((violations, -min(cop_dists, default=top + 1), y))
    if survivors:
        return min(survivors), True
    return min(ranked)[2], False


def _loosened(rng, params):
    """Half the time, thresholds past level 1 drawn from 0.5, 1.5 and 2.5:
    desk-scale thresholds are below 1 there, so the violation count alone
    fixes the nearest cop and hardly any candidate survives."""
    if rng.random() < 0.5:
        return params
    loose = sorted(rng.choice([0.5, 1.5, 2.5]) for _ in params.thresholds[2:])
    return dataclasses.replace(params, thresholds=(0.0, 0.0, *loose))


def test_robber_move_matches_oracle():
    rng = random.Random(11)
    branches = {True: 0, False: 0}
    prevs = {True: 0, False: 0}
    only_neighbour = 0
    regimes = dict.fromkeys((MAIN, BOUNDARY_DENSE, BOUNDARY_MID, BOUNDARY_SPARSE), 0)
    while sum(branches.values()) < 400:
        n = rng.randrange(8, 31)
        G = pairwise_gnp(n, rng.choice([0.1, 0.25, 0.4]), rng.randrange(10_000))
        v = rng.randrange(n)
        nbrs = list(G.neighbors(v))
        if not nbrs:
            continue
        prev = rng.choice(nbrs) if rng.random() < 0.5 else None
        # 1-4 cops, often sharing a vertex
        spots = rng.sample([u for u in range(n) if u != v], rng.randrange(1, 5))
        cops = rng.choices(spots, k=len(spots))
        params = _loosened(rng, _params_for(G, rng.choice(_ALPHAS)))
        want, survived = _oracle_robber_move(G, cops, v, prev, params)
        assert gnp_robber_move(G, GameState(cops, v, ROBBER), params, prev) == (want, survived)
        branches[survived] += 1
        prevs[prev is None] += 1
        only_neighbour += nbrs == [prev]
        regimes[params.regime] += 1
    # both the survivor rule and the fallback ranking were exercised, and
    # so was the fallback onto prev when it is the only neighbour, in
    # every regime
    assert min(branches.values()) >= 30 and min(prevs.values()) >= 30
    assert only_neighbour >= 1
    assert min(regimes.values()) >= 15, regimes


class _CheckedRobber(GnpRobberStrategy):
    """G(n,p) robber that checks each move against the reference move.

    It counts every move call, so it is not positional: `play` asks it for
    every round.
    """

    positional = False

    def __init__(self, alpha):
        super().__init__(alpha)
        self.branches = {True: 0, False: 0}

    def move(self, G, state):
        want, survived = reference_gnp_move(G, state, self._params, self._prev)
        prev = self._prev
        move = super().move(G, state)
        assert move.target == want, (state, prev)
        self.branches[survived] += 1
        return move


@pytest.mark.parametrize("k", [1, 3])
def test_robber_move_matches_reference_in_play(k):
    from lazycops.game import play
    from lazycops.strategies import GreedyCopStrategy

    G = gen_gnp(300, 300 ** -0.6, 5)
    robber = _CheckedRobber(0.4)
    rec = play(G, GreedyCopStrategy(), robber, k, 1000)
    stats = robber.stats()
    assert stats["moves"] == sum(robber.branches.values())
    assert stats["moves"] == sum(step["side"] == ROBBER for step in rec.transcript[2:])
    assert stats["fallbacks"] == robber.branches[False]
    assert robber.branches[True] >= 30 and (k == 1 or robber.branches[False] >= 30)


def test_robber_move_matches_reference():
    rng = random.Random(12)
    branches = {True: 0, False: 0}
    kinds = {"none": 0, "neighbour": 0, "stayed": 0, "only": 0}
    regimes = dict.fromkeys((MAIN, BOUNDARY_DENSE, BOUNDARY_MID, BOUNDARY_SPARSE), 0)
    for _ in range(800):
        n = rng.randrange(6, 41)
        G = gen_gnp(n, rng.choice([0.1, 0.2, 0.35]), rng.randrange(10_000))
        v = rng.randrange(n)
        nbrs = list(G.neighbors(v))
        if not nbrs:
            continue
        kind = "only" if len(nbrs) == 1 else rng.choice(["none", "neighbour", "stayed"])
        far = [u for u in range(n) if u != v and u not in nbrs]
        if kind == "stayed" and not far:
            continue
        prev = {"none": None, "neighbour": rng.choice(nbrs), "only": nbrs[0],
                "stayed": rng.choice(far) if far else None}[kind]
        cops = rng.choices(range(n), k=rng.randrange(1, 5))
        params = _loosened(rng, _params_for(G, rng.choice(_ALPHAS)))
        state = GameState(cops, v, ROBBER)
        want, survived = reference_gnp_move(G, state, params, prev)
        assert gnp_robber_move(G, state, params, prev) == (want, survived)
        branches[survived] += 1
        kinds[kind] += 1
        regimes[params.regime] += 1
    for tally in (branches, kinds, regimes):
        assert min(tally.values()) >= 30, tally


def test_strategy_survives_on_sparse_graph():
    from lazycops.game import play
    from lazycops.strategies import GreedyCopStrategy

    G = gen_gnp(300, 300 ** -0.6, 0)
    rec = play(G, GreedyCopStrategy(), GnpRobberStrategy(0.4), 1, 500)
    assert rec.outcome == "survival"


def test_stats_count_moves_and_reset_on_place():
    from lazycops.game import play
    from lazycops.strategies import GreedyCopStrategy

    G = gen_gnp(200, 200 ** -0.6, 3)
    robber = GnpRobberStrategy(0.4)
    assert robber.stats() == {"moves": 0, "fallbacks": 0}
    play(G, GreedyCopStrategy(), robber, 3, 50)
    stats = robber.stats()
    assert stats["moves"] == 50 and 0 <= stats["fallbacks"] <= 50
    stats["moves"] = -1   # a copy: the strategy's counters stay put
    assert robber.stats()["moves"] == 50
    robber.place(G, (0,))
    assert robber.stats() == {"moves": 0, "fallbacks": 0}


def test_strategy_is_deterministic():
    from lazycops.game import play
    from lazycops.strategies import GreedyCopStrategy

    G = gen_gnp(200, 200 ** -0.6, 3)
    a = play(G, GreedyCopStrategy(), GnpRobberStrategy(0.4), 1, 200)
    b = play(G, GreedyCopStrategy(), GnpRobberStrategy(0.4), 1, 200)
    assert a.transcript == b.transcript


def test_reused_strategy_rederives_params_on_new_density():
    sparse, dense = gen_gnp(60, 0.05, 1), gen_gnp(60, 0.3, 1)
    assert sparse.n == dense.n and sparse.m != dense.m
    reused, fresh_sparse, fresh_dense = (GnpRobberStrategy(0.4) for _ in range(3))
    reused.place(sparse, (0,))
    reused.place(dense, (0,))
    fresh_sparse.place(sparse, (0,))
    fresh_dense.place(dense, (0,))
    assert fresh_dense._params.thresholds != fresh_sparse._params.thresholds
    assert reused._params == fresh_dense._params

