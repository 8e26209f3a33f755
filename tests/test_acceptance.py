"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from lazycops.bounds import genus_cop_budget, ght_separator_bound
from lazycops.expansion import verify_expansion
from lazycops.game import ROBBER, GameState, play
from lazycops.gnp import GnpRobberStrategy, gnp_params, gnp_robber_move
from lazycops.graph import (
    components_without,
    exact_domination_number,
    find_balanced_separator,
    gen_gnp,
    gen_named,
)
from lazycops.potential import hypercube_robber_move, potential, potential_at, potential_params
from lazycops.solver import (
    CLASSIC,
    LAZY,
    cop_number,
    solve_classic,
    solve_lazy,
    verify_self_consistency,
)
from lazycops.strategies import (
    GreedyCopStrategy,
    GreedyRobberStrategy,
    OptimalRobberStrategy,
    PotentialRobberStrategy,
    RandomCopStrategy,
    RandomRobberStrategy,
    SeparatorCopStrategy,
)
from reference_bfs import reference_bfs
from reference_gnp import reference_is_dangerous, reference_is_safe
from reference_potential import reference_potential_at


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num}: {status}  {detail}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def _connected_gnp_samples(n, p, count):
    """First `count` connected samples along the seed sequence 0, 1, 2, ..."""
    seed = 0
    while count > 0:
        G = gen_gnp(n, p, seed)
        if G.is_connected():
            count -= 1
            yield seed, G
        seed += 1


_criterion2_cache = []


def test_criterion_1_solver_ground_truth():
    worst = 0.0
    for seed in range(50):
        n = 2 + (seed % 11)
        T = gen_named("random_tree", n, seed)
        t0 = time.perf_counter()
        value = cop_number(T, 3, LAZY)
        worst = max(worst, time.perf_counter() - t0)
        assert value == 1, f"tree seed {seed}"
    for n in range(4, 13):
        t0 = time.perf_counter()
        value = cop_number(gen_named("cycle", n), 3, LAZY)
        worst = max(worst, time.perf_counter() - t0)
        assert value == 2, f"C_{n}"
    for n in range(1, 9):
        t0 = time.perf_counter()
        value = cop_number(gen_named("complete", n), 3, LAZY)
        worst = max(worst, time.perf_counter() - t0)
        assert value == 1, f"K_{n}"
    _report(1, worst < 1.0,
            f"trees/cycles/completes exact; slowest instance {worst:.3f}s")


def test_criterion_2_inequality_chain():
    t0 = time.perf_counter()
    violations = 0
    for seed, G in _connected_gnp_samples(10, 0.3, 100):
        c = cop_number(G, 4, CLASSIC)
        cl = cop_number(G, 5, LAZY)
        gamma = exact_domination_number(G)
        _criterion2_cache.append((seed, G, c, cl))
        if not c <= cl <= gamma:
            violations += 1
    elapsed = time.perf_counter() - t0
    _report(2, violations == 0 and elapsed < 300,
            f"100 connected samples, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_solver_self_consistency():
    replays = []
    for seed in range(50):
        n = 2 + (seed % 11)
        replays.append((f"tree seed {seed}", solve_lazy(gen_named("random_tree", n, seed), 1)))
    for n in range(4, 13):
        replays.append((f"C_{n}", solve_lazy(gen_named("cycle", n), 2)))
    for n in range(1, 9):
        replays.append((f"K_{n}", solve_lazy(gen_named("complete", n), 1)))
    samples = _criterion2_cache or [
        (seed, G, cop_number(G, 4, CLASSIC), cop_number(G, 5, LAZY))
        for seed, G in _connected_gnp_samples(10, 0.3, 100)
    ]
    for seed, G, c, cl in samples:
        replays.append((f"G(10) seed {seed} lazy", solve_lazy(G, cl)))
        replays.append((f"G(10) seed {seed} classic", solve_classic(G, c)))
    violations = [name for name, res in replays if not verify_self_consistency(res)["ok"]]
    _report(3, not violations,
            f"{len(replays)} optimal-vs-optimal replays, {len(violations)} violations "
            f"{violations[:3]}")


def test_criterion_4_potential_system():
    t0 = time.perf_counter()
    # exact weight identities across the parameter grid
    for n in range(8, 65):
        for eps in (Fraction(1, 2), 1, 2):
            p = potential_params(n, eps)
            assert p.w[1] == 1, (n, eps)
            for i in range(2, p.max_level):
                assert p.w[i - 1] > p.w[i + 1], (n, eps, i)
            # integer weights on the common denominator, zero outside 1..max_level
            assert len(p.w_int) == n + 1, (n, eps)
            for d, wi in enumerate(p.w_int):
                assert wi == (p.w[d] * p.scale if 1 <= d <= p.max_level else 0), (n, eps, d)

    # potential is zero when every cop sits beyond the weighted range
    n = 12
    G = gen_named("hypercube", n)
    p = potential_params(n, 1)
    antipode = (1 << n) - 1
    assert potential_at(p, [antipode] * 5, 0) == 0

    # the exact potential equals the Fraction sum of the weights
    rng = random.Random(12)
    for _ in range(1000):
        r = rng.randrange(1 << n)
        cops = tuple(r ^ (rng.randrange(1 << n) & rng.randrange(1 << n)) for _ in range(5))
        s = GameState(cops=cops, robber=r, to_move=ROBBER, round=1)
        assert potential(p, G, s) == reference_potential_at(p, cops, r)

    # robber move equals the exhaustive argmin on random states
    for n in (10, 12, 16):
        p = potential_params(n, 1)
        Q = gen_named("hypercube", n)
        rng = random.Random(0)
        for _ in range(1000):
            r = rng.randrange(1 << n)
            cops = tuple(r ^ (rng.randrange(1 << n) & rng.randrange(1 << n)) for _ in range(4))
            s = GameState(cops=cops, robber=r, to_move=ROBBER, round=1)
            chosen = hypercube_robber_move(p, Q, s)
            cands = [u for u in Q.neighbors(r) if u not in set(cops)]
            if cands:
                best = min(reference_potential_at(p, cops, u) for u in cands)
                assert reference_potential_at(p, cops, chosen) == best, (n, s)

    # behavioral check: the potential robber outlasts 5 greedy cops on Q_12
    Q12 = gen_named("hypercube", 12)
    survived = 0
    for seed in range(20):
        rec = play(Q12, GreedyCopStrategy(seed=seed), PotentialRobberStrategy(eps=1),
                   5, 10_000)
        if rec.outcome == "survival":
            survived += 1
    elapsed = time.perf_counter() - t0
    _report(4, survived == 20 and elapsed < 120,
            f"weights exact, integer weights exact, argmin exact, {survived}/20 survivals on Q_12, {elapsed:.1f}s")


def test_criterion_5_gnp_robber():
    # the reference classifiers against an independent brute-force oracle,
    # and the playing rule against the classifiers: with prev = x, some
    # candidate survives iff a neighbour y != x of v is dangerous at no level
    # and lies beyond distance j of x once v is deleted
    from collections import deque

    def oracle_counts(G, deleted, src, radius):
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

    rng = random.Random(1)
    checked = survivals = 0
    while checked < 200:
        n = rng.randrange(8, 31)
        G = gen_gnp(n, 0.25, rng.randrange(10_000))
        v = rng.randrange(n)
        nbrs = list(G.neighbors(v))
        if len(nbrs) < 2:
            continue
        x = rng.choice(nbrs)
        y = rng.choice([u for u in nbrs if u != x])
        cops = [rng.randrange(n) for _ in range(rng.randrange(1, 5))]
        params = gnp_params(n, 2.0 * G.m / (n * (n - 1)) or 0.1, 0.4)
        dist_v = oracle_counts(G, {x}, v, params.max_level)
        expected_safe = all(
            sum(1 for cp in cops if dist_v.get(cp, math.inf) <= i) <= params.thresholds[i]
            for i in range(params.max_level + 1)
        )
        assert reference_is_safe(G, cops, v, x, params) == expected_safe
        r = rng.randrange(0, params.j + 1)
        dist_y = oracle_counts(G, {v, x}, y, r)
        expected_danger = (
            sum(1 for cp in cops if dist_y.get(cp, math.inf) <= r) > params.thresholds[r]
        )
        assert reference_is_dangerous(G, cops, v, x, y, r, params) == expected_danger
        reach = reference_bfs(G, (x,), (v,), params.j)
        some_survivor = any(
            reach[u] is math.inf and not any(
                reference_is_dangerous(G, cops, v, x, u, level, params)
                for level in range(params.max_level + 1))
            for u in nbrs if u != x)
        _, survived = gnp_robber_move(G, GameState(cops, v, ROBBER), params, x)
        assert survived == some_survivor
        survivals += survived
        checked += 1

    # formula check: the main-regime coefficient at alpha = 0.4
    params = gnp_params(800, 800 ** -0.6, 0.4)
    assert params.K * params.p == pytest.approx(0.2 / 2880, rel=1e-12)
    assert params.K < 1  # the full guarantee is out of reach at this scale

    # behavioral check: survival against single pursuers on G(800, 800^{-0.6})
    results = {"greedy": 0, "random": 0}
    for seed in range(10):
        G = gen_gnp(800, 800 ** -0.6, seed)
        rec = play(G, GreedyCopStrategy(), GnpRobberStrategy(0.4), 1, 8000)
        results["greedy"] += rec.outcome == "survival"
        rec = play(G, RandomCopStrategy(seed), GnpRobberStrategy(0.4), 1, 8000)
        results["random"] += rec.outcome == "survival"
    ok = results["greedy"] >= 9 and results["random"] >= 9 and 0 < survivals < 200
    _report(5, ok,
            f"oracle agreement 200/200, move rule agrees ({survivals} survivor draws), "
            f"K coefficient exact, "
            f"survivals greedy {results['greedy']}/10 random {results['random']}/10")


def test_criterion_6_separator_machinery():
    # balance on 100 mixed graphs
    graphs = []
    for side in range(2, 9):
        graphs.append(gen_named("grid2d", side))
    for n in (5, 9, 14, 20, 27, 40):
        graphs.append(gen_named("path", n))
        graphs.append(gen_named("cycle", n))
    for seed in range(30):
        graphs.append(gen_named("random_tree", 4 + seed, seed))
    seed = 0
    while len(graphs) < 100:
        G = gen_gnp(12 + seed % 20, 0.3, seed)
        seed += 1
        if G.is_connected():
            graphs.append(G)
    for G in graphs:
        sep = find_balanced_separator(G)
        limit = (2 * G.n) // 3
        for comp in components_without(G, set(sep)):
            assert len(comp) <= limit, f"unbalanced separator on n={G.n}"

    # heuristic size on grids up to 8x8
    for side in range(2, 9):
        G = gen_named("grid2d", side)
        sep = find_balanced_separator(G)
        assert len(sep) <= 2 * math.sqrt(2 * G.n) + 1, f"grid {side}"

    # capture of the solver-optimal robber on small connected graphs
    captured = 0
    samples = 0
    gseed = 0
    while samples < 20:
        n = 6 + (gseed % 5)
        G = gen_gnp(n, 0.4, gseed)
        gseed += 1
        if not G.is_connected():
            continue
        samples += 1
        strat = SeparatorCopStrategy(G)
        k = strat.required_cops
        res = solve_lazy(G, k)
        assert res.cop_win
        rec = play(G, strat, OptimalRobberStrategy(res), k, 10 * G.n * k)
        captured += rec.outcome == "capture"
    assert captured == 20

    # capture of baseline robbers on grids, one cop moving per round
    for side in (6, 8, 10):
        G = gen_named("grid2d", side)
        for robber in (GreedyRobberStrategy(), RandomRobberStrategy(1)):
            strat = SeparatorCopStrategy(G)
            k = strat.required_cops
            rec = play(G, strat, robber, k, 10 * G.n * k)
            assert rec.outcome == "capture", f"grid {side}"
            # replay the cop entries: the placement, then per cop turn a Pass
            # or one cop stepping from its vertex to an adjacent one
            placement, *turns = [e for e in rec.transcript if e["side"] == "cops"]
            cops = list(placement["to"])
            for e in turns:
                if e["from"] is None and e["to"] is None:
                    continue
                assert e["from"] in cops and G.has_edge(e["from"], e["to"]), (side, e, cops)
                cops.remove(e["from"])
                cops.append(e["to"])

    # budget audit on planar test graphs: every separator within the GHT
    # bound and the cop count within 20 sqrt(2n), on every grid
    over_budget = []
    for side in range(2, 9):
        G = gen_named("grid2d", side)
        strat = SeparatorCopStrategy(G)
        rep = strat.separator_report()
        if not (rep["all_separators_within_ght_bound"]
                and strat.required_cops <= 20 * math.sqrt(2 * G.n)):
            over_budget.append(side)
    _report(6, not over_budget,
            "balance on 100 graphs, grid sizes within bound, 20/20 optimal-robber "
            "captures, grid captures with one cop per round, budget audit ok "
            f"(grids over budget: {over_budget})")


def test_criterion_7_expansion_verifier():
    t0 = time.perf_counter()
    G = gen_gnp(3000, 3000 ** -0.5, 3)
    rep = verify_expansion(G, 0.5, 0.05, seed=3)
    elapsed = time.perf_counter() - t0
    growth = [c for c in rep.checks if c.name == "neighborhood_growth_i=1"]
    cycles = [c for c in rep.checks if c.name.startswith("cycles")]
    ok = (growth and growth[0].passed and growth[0].samples == 200
          and cycles and all(c.passed for c in cycles)
          and elapsed < 60)
    extremes = f"growth ratio [{growth[0].minimum:.3f}, {growth[0].maximum:.3f}]"
    _report(7, ok, f"{extremes}, cycle ceilings hold, {elapsed:.1f}s")


def test_criterion_8_bound_calculators():
    genus = genus_cop_budget(96, 0)
    assert genus == pytest.approx(20 * math.sqrt(192), rel=1e-12)
    assert 60 * math.sqrt(2 / 3) + 6 < 55
    assert 20 * math.sqrt(2 / 3) + 2 < 19

    # branch budgets carry the right scale: 1/p, d^j/log n, n/(d log^2 n)
    n = 2000
    dense = gnp_params(n, 350.0 / (n - 1), 0.5)
    assert dense.K == pytest.approx(
        (1 - dense.j * 0.5) / (12 * (2 * dense.c) ** (dense.j - 1)
                               * dense.j ** dense.j) / dense.p)
    mid = gnp_params(n, 100.0 / (n - 1), 0.5)
    assert mid.K == pytest.approx(
        mid.c * (1 - mid.j * 0.5) / (42 * (2 * mid.c * mid.j) ** mid.j)
        * mid.d ** mid.j / math.log(n))
    sparse = gnp_params(n, 10.0 / (n - 1), 0.5)
    assert sparse.K == pytest.approx(
        sparse.c ** 2 * (1 - sparse.j * 0.5) ** 2
        / (3528 * (2 * sparse.c * (sparse.j + 1)) ** (sparse.j + 1))
        * n / (sparse.d * math.log(n) ** 2))
    _report(8, True,
            f"genus(96, 0) = {genus:.10f}, recursion constants contract, "
            "all three branch budgets unit-consistent")


def test_criterion_9_reproducibility(tmp_path):
    cfg = {
        "family": "gnp",
        "family_params": {"n": 50, "p": 0.12},
        "k": 2,
        "cop_strategy": "greedy",
        "robber_strategy": "random",
        "trials": 10,
        "master_seed": 7,
        "max_rounds": 150,
    }
    outputs = []
    for workers in (1, 4):
        body = dict(cfg, workers=workers,
                    json_out=str(tmp_path / f"w{workers}.json"))
        cfg_path = tmp_path / f"cfg{workers}.json"
        cfg_path.write_text(json.dumps(body))
        out = tmp_path / f"w{workers}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "lazycops.cli", "experiment",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append((out.read_bytes(),
                        (tmp_path / f"w{workers}.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    _report(9, ok, "CSV and JSON byte-identical across 1 and 4 worker threads")
