import random
from fractions import Fraction

import pytest

from lazycops.errors import UsageError
from lazycops.game import COPS, ROBBER, GameState, play
from lazycops.graph import gen_named
from lazycops.potential import (
    PotentialRobberStrategy,
    hypercube_robber_move,
    potential,
    potential_at,
    potential_params,
)
from lazycops.strategies import GreedyCopStrategy
from reference_potential import reference_place, reference_potential_at, reference_robber_move


def _state(cops, robber, to_move=ROBBER):
    return GameState(cops=tuple(cops), robber=robber, to_move=to_move, round=1)


def test_w1_exactly_one():
    for n in (8, 10, 16, 32, 64):
        for eps in (Fraction(1, 2), 1, 2):
            assert potential_params(n, eps).w[1] == 1


def test_rho_n16():
    p = potential_params(16, 1)
    assert p.rho == 4 and p.max_level == 4


def test_rho_n10():
    p = potential_params(10, 1)
    assert p.rho == 4 and p.max_level == 1


def test_w2_closed_form_n10():
    # eps_2 = 5/5 = 1 at n=10, eps=1, giving w_2 = 9*(1+1)/C(9,2) = 1/2
    p = potential_params(10, 1)
    assert p.eps_i[2] == 1
    assert p.w[2] == Fraction(1, 2)


def test_weight_interleaving():
    # w[i-1] > w[i+1] across the weighted range
    for n in (8, 12, 16, 24, 32, 48, 64):
        for eps in (Fraction(1, 2), 1, 2):
            p = potential_params(n, eps)
            for i in range(2, p.max_level):
                assert p.w[i - 1] > p.w[i + 1], (n, eps, i)


def test_weights_positive():
    for n in (8, 16, 33, 64):
        p = potential_params(n, 1)
        assert all(w > 0 for w in p.w[1:])


def test_params_reject_small_n():
    # n/2 - sqrt(n) >= 1, so level 1 exists, exactly from n = 8 on
    for n in range(-2, 8):
        with pytest.raises(UsageError, match="too small"):
            potential_params(n, 1)
    assert potential_params(8, 1).max_level == 1
    with pytest.raises(UsageError):
        potential_params(16, 0)
    with pytest.raises(UsageError, match="eps must be a number, got 'abc'"):
        potential_params(8, "abc")


def test_potential_rejects_other_cubes_and_unplaced_robbers():
    params = potential_params(8, 1)
    with pytest.raises(UsageError, match="not the dimension-8 hypercube"):
        hypercube_robber_move(params, gen_named("hypercube", 9), GameState((0,), 1, ROBBER))
    with pytest.raises(UsageError, match="robber must be placed"):
        potential(params, gen_named("hypercube", 8), GameState((0,), None, COPS))


def test_potential_zero_when_cops_far():
    n = 10
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    far = (1 << n) - 1  # Hamming distance n from vertex 0
    assert potential(p, G, _state([far], 0)) == 0


def test_potential_adjacent_cop():
    n = 10
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    assert potential(p, G, _state([1], 0)) >= 1


def test_potential_distance_two_only():
    # one cop at distance 2 and one beyond max_level: P = w[2]... but at
    # n=10 only level 1 is weighted, so use n=16 where w[2] counts
    n = 16
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    far = (1 << n) - 1
    assert potential(p, G, _state([0b11, far], 0)) == p.w[2]


def test_potential_additive_over_cops():
    n = 12
    p = potential_params(n, 1)
    rng = random.Random(0)
    for _ in range(30):
        c1 = [rng.randrange(1 << n) for _ in range(3)]
        c2 = [rng.randrange(1 << n) for _ in range(2)]
        r = rng.randrange(1 << n)
        assert potential_at(p, c1 + c2, r) == potential_at(p, c1, r) + potential_at(p, c2, r)


def test_max_level_is_floor_of_half_n_minus_root_n():
    for n in range(7, 201):
        # the largest L with n - 2L >= 0 and (n - 2L)^2 >= 4n
        level = max(L for L in range(n // 2 + 1) if (n - 2 * L) ** 2 >= 4 * n)
        if level < 1:
            with pytest.raises(UsageError, match="too small"):
                potential_params(n, 1)
        else:
            assert potential_params(n, 1).max_level == level, n


def test_move_prefers_increasing_distance():
    # single cop at distance 2: the argmin move pushes it to distance 3
    n = 12
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    cop = 0b11
    v = hypercube_robber_move(p, G, _state([cop], 0))
    assert (v ^ cop).bit_count() == 3


def test_move_no_cops_in_range_lowest_id():
    n = 10
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    far = (1 << n) - 1
    assert hypercube_robber_move(p, G, _state([far], 0)) == 1


def test_move_stays_when_every_neighbor_holds_a_cop():
    n = 8
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    v = 0b10110010
    cops = [v ^ (1 << i) for i in range(n)]
    assert hypercube_robber_move(p, G, _state(cops, v)) == v
    # with one neighbour free, the robber takes it
    assert hypercube_robber_move(p, G, _state(cops[1:] + [cops[1]], v)) == cops[0]


def test_move_excludes_cop_occupied():
    n = 8
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    v = hypercube_robber_move(p, G, _state([1], 0))
    assert v != 1


def test_move_is_exhaustive_argmin():
    # candidates are scored by the Fraction weights p.w[d], not potential_at
    n = 10
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    rng = random.Random(42)
    for _ in range(1000):
        cops = [rng.randrange(1 << n) for _ in range(4)]
        r = rng.randrange(1 << n)
        s = _state(cops, r)
        chosen = hypercube_robber_move(p, G, s)
        cands = [u for u in G.neighbors(r) if u not in set(cops)]
        if not cands:
            assert chosen == r
            continue
        vals = {u: reference_potential_at(p, cops, u) for u in cands}
        best = min(vals.values())
        assert vals[chosen] == best
        # lowest-id tie-break
        assert chosen == min(u for u in cands if vals[u] == best)


def test_move_at_most_mean():
    rng = random.Random(7)
    for n in (10, 12, 16):
        G = gen_named("hypercube", n)
        p = potential_params(n, 1)
        for _ in range(300):
            r = rng.randrange(1 << n)
            cops = [r ^ (rng.randrange(1 << n) & rng.randrange(1 << n)) for _ in range(3)]
            cands = [u for u in G.neighbors(r) if u not in set(cops)]
            if not cands:
                continue
            chosen = hypercube_robber_move(p, G, _state(cops, r))
            vals = [reference_potential_at(p, cops, u) for u in cands]
            assert reference_potential_at(p, cops, chosen) <= sum(vals) / len(vals), (n, cops, r)


def _near(rng, n, center, radius):
    """A vertex at Hamming distance at most `radius` from `center`."""
    for bit in rng.sample(range(n), rng.randint(0, radius)):
        center ^= 1 << bit
    return center


@pytest.mark.parametrize("n", range(8, 17))
def test_move_matches_reference(n):
    # cops mostly within a level or two of the weighted range, so that the
    # candidates differ in potential as well as tie
    G = gen_named("hypercube", n)
    rng = random.Random(n)
    for eps in (Fraction(1, 2), 1, 2):
        p = potential_params(n, eps)
        for _ in range(300):
            r = rng.randrange(1 << n)
            cops = [_near(rng, n, r, p.max_level + 2) for _ in range(rng.randint(1, n))]
            s = _state(cops, r)
            assert hypercube_robber_move(p, G, s) == reference_robber_move(p, G, s), (eps, s)


@pytest.mark.parametrize("n", range(8, 17))
def test_place_matches_reference(n):
    # half the cops packed around vertex 0 cover the low ids, so the scan
    # runs past them
    G = gen_named("hypercube", n)
    rng = random.Random(n)
    p = potential_params(n, 1)
    strategy = PotentialRobberStrategy(eps=1)
    for k in (1, 4, 16, 64, 256):
        if k * G.n > 1 << 20:
            break
        cops = tuple(sorted([_near(rng, n, 0, n // 2) for _ in range(k // 2 + 1)]
                            + [rng.randrange(1 << n) for _ in range(k // 2)]))
        assert strategy.place(G, cops) == reference_place(p, G, cops), (k, cops)
    if n <= 10:
        # a cop on every even vertex leaves no vertex of potential zero; the
        # random extra cops make the odd vertices' potentials differ
        even = [v for v in range(G.n) if v.bit_count() % 2 == 0]
        cops = tuple(sorted(even + [rng.randrange(1 << n) for _ in range(G.n // 4)]))
        v = strategy.place(G, cops)
        assert v == reference_place(p, G, cops)
        assert reference_potential_at(p, cops, v) > 0


class _CheckedPotentialRobber(PotentialRobberStrategy):
    """Asserts every placement and move equals the reference's."""

    def place(self, G, cops):
        v = super().place(G, cops)
        assert v == reference_place(self._params, G, cops)
        return v

    def move(self, G, state):
        m = super().move(G, state)
        assert m.target == reference_robber_move(self._params, G, state)
        return m


def test_greedy_games_match_reference():
    Q12 = gen_named("hypercube", 12)
    for seed in range(3):
        rec = play(Q12, GreedyCopStrategy(seed=seed), _CheckedPotentialRobber(eps=1),
                   5, 5_000, record_transcript=False)
        assert rec.outcome == "survival"


def test_strategy_requires_hypercube():
    s = PotentialRobberStrategy()
    with pytest.raises(UsageError):
        s.place(gen_named("cycle", 8), [0])


def test_strategy_places_on_vertex_0_when_every_vertex_holds_a_cop():
    G = gen_named("hypercube", 8)
    assert PotentialRobberStrategy().place(G, tuple(range(G.n))) == 0


@pytest.mark.parametrize("far,near,other", [(3, 1, Fraction(1, 2)), (11, 4, 2)])
def test_default_eps_plays_like_eps_1(far, near, other):
    # The robber at 0 in Q12 (max_level 2, w[2] = (11 + eps)/35) can step
    # only to 1 or 2: cops hold the other neighbours.  Vertex 1 has `far`
    # more cops at distance 2 and vertex 2 has `near` cops at distance 1, so
    # which is cheaper changes between eps = 1 and `other`.
    n = 12
    G = gen_named("hypercube", n)
    guards = [1 << i for i in range(2, n)]
    far_cops = [1 | 1 << i | 1 << j for i in range(2, n) for j in range(i + 1, n)][:far]
    near_cops = [2 | 1 << i for i in range(2, 2 + near)]
    s = _state(sorted(guards + far_cops + near_cops), 0)

    def step(robber):
        robber.place(G, s.cops)
        return robber.move(G, s).target

    assert step(PotentialRobberStrategy()) == step(PotentialRobberStrategy(eps=1)) \
        != step(PotentialRobberStrategy(eps=other))


def test_strategy_places_at_zero_potential():
    n = 8
    G = gen_named("hypercube", n)
    s = PotentialRobberStrategy(eps=1)
    v = s.place(G, [0])
    p = potential_params(n, 1)
    assert potential_at(p, [0], v) == 0
