import pytest

from lazycops import expansion
from lazycops.errors import UsageError
from lazycops.expansion import VERTEX_SAMPLES, _summarize, verify_expansion
from lazycops.graph import Graph, gen_gnp, gen_named
from cached_graphs import cached_graph


def test_hypothesis_eps_range_enforced():
    G = gen_gnp(200, 0.1, 0)
    with pytest.raises(UsageError):
        verify_expansion(G, 0.5, 0.2)   # eps >= 0.1
    with pytest.raises(UsageError):
        verify_expansion(G, 0.03, 0.05)  # alpha <= eps


def test_a_check_without_samples_passes():
    check = _summarize("path_count_i=5", [], 2.0)
    assert check.passed and check.samples == 0 and check.note == "no samples"
    assert check.mean == check.minimum == check.maximum == 0.0
    assert _summarize("path_count_i=5", [], 2.0, note="sparse").note == "sparse"


def test_complete_graph_flags_density_mismatch():
    G = gen_named("complete", 40)
    rep = verify_expansion(G, 0.5, 0.05, seed=1)
    assert rep.hypothesis_notes  # realized degree exponent far from alpha


def test_tree_has_no_cycles():
    T = gen_named("random_tree", 300, 2)
    rep = verify_expansion(T, 0.5, 0.05, seed=1)
    cycle_checks = [c for c in rep.checks if c.name.startswith("cycles")]
    assert cycle_checks and all(c.passed for c in cycle_checks)
    assert all(c.maximum == 0 for c in cycle_checks)


def test_gnp_neighborhood_growth_passes():
    n = 2000
    G = gen_gnp(n, n ** -0.5, 3)
    rep = verify_expansion(G, 0.5, 0.05, seed=3)
    growth = [c for c in rep.checks if c.name == "neighborhood_growth_i=1"]
    assert growth and growth[0].passed
    # extremes recorded for audit
    assert growth[0].minimum <= growth[0].mean <= growth[0].maximum


def _expected_ball(n, d, i):
    """B_i of the mean-field recursion: B_0 = S_0 = 1 and, with p = d/(n-1),
    S_{j+1} = (n - B_j)(1 - (1-p)^S_j) and B_{j+1} = B_j + S_{j+1}."""
    ball = sphere = 1.0
    for _ in range(i):
        sphere = (n - ball) * (1.0 - (1.0 - d / (n - 1)) ** sphere)
        ball += sphere
    return ball


def test_growth_target_saturates_on_a_dense_graph():
    # G(600, 600^-0.52): d is about 21 and d^2 about 3n/4, so the radius-2
    # ball holds a share of the vertices, well below 1 + d + d^2
    n = 600
    G = gen_gnp(n, n ** -0.52, 4)
    rep = verify_expansion(G, 0.48, 0.05, seed=4)
    growth = next(c for c in rep.checks if c.name == "neighborhood_growth_i=2")
    assert growth.passed and abs(growth.mean - 1.0) < 0.1


@pytest.mark.parametrize("n", [600, 2000])
@pytest.mark.parametrize("seed", range(5))
def test_sparse_growth_target_is_the_expected_ball(n, seed):
    # G(n, n^-0.8), d about 4: the closed ball N_i[v] holds about
    # 1 + d + ... + d^i vertices, a quarter more than d^i at i = 1, and
    # fewer than that at radius 4, where it holds a share of the vertices
    rep = verify_expansion(gen_gnp(n, n ** -0.8, seed), 0.2, 0.05, seed=seed)
    growth = {c.name: c for c in rep.checks}
    for i in (1, 2, 3, 4):
        check = growth[f"neighborhood_growth_i={i}"]
        assert check.passed, check


@pytest.mark.parametrize("G, alpha", [
    (("gnp", 40, 40 ** -0.1, 0), 0.9), (("path", 100), 0.2), (("random_tree", 200, 2), 0.2),
], ids=["gnp40", "path100", "tree200"])
def test_radius_one_target_is_exact_when_every_vertex_is_sampled(G, alpha):
    # with n <= VERTEX_SAMPLES the radius-1 mean is (1 + 2m/n) / (1 + d),
    # and d = 2m/n
    G = cached_graph(*G)
    assert G.n <= VERTEX_SAMPLES
    rep = verify_expansion(G, alpha, 0.05, seed=0)
    growth = next(c for c in rep.checks if c.name == "neighborhood_growth_i=1")
    assert growth.samples == G.n and growth.mean == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [300, 600, 2000])
@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.4, 0.5])
def test_growth_readings_stay_inside_tau(monkeypatch, n, alpha):
    # only the growth checks are read here, and their vertex sample is
    # drawn before any path or edge sample
    monkeypatch.setattr(expansion, "PAIR_SAMPLES", 1)
    monkeypatch.setattr(expansion, "EDGE_SAMPLES", 1)
    for seed in range(3):
        rep = verify_expansion(gen_gnp(n, n ** -(1 - alpha), seed), alpha, 0.05, seed=seed)
        growth = [c for c in rep.checks if c.name.startswith("neighborhood_growth")]
        assert growth and all(abs(c.mean - 1.0) <= rep.tau for c in growth), (seed, growth)


def test_sparse_growth_fails_on_a_torus():
    # C_30 x C_30 has d = 4 but grows quadratically: its radius-i ball holds
    # 2i^2 + 2i + 1 vertices, which equals the expected ball 1 + d at i = 1 only
    s = 30
    G = Graph(s * s, [(r * s + c, r * s + (c + 1) % s) for r in range(s) for c in range(s)]
              + [(r * s + c, (r + 1) % s * s + c) for r in range(s) for c in range(s)])
    growth = {c.name: c for c in verify_expansion(G, 0.2, 0.05, seed=0).checks}
    for i in (1, 2, 3):
        check = growth[f"neighborhood_growth_i={i}"]
        expected = _expected_ball(s * s, 4.0, i)
        assert check.mean == pytest.approx((2 * i * i + 2 * i + 1) / expected)
        assert check.passed == (i == 1)


def test_report_serializes():
    G = gen_gnp(500, 500 ** -0.5, 1)
    rep = verify_expansion(G, 0.5, 0.05, seed=1)
    d = rep.to_dict()
    assert set(d) >= {"n", "alpha", "eps", "passed", "checks"}
    assert all("mean" in c for c in d["checks"])


def test_deterministic_given_seed():
    G = gen_gnp(800, 800 ** -0.5, 4)
    a = verify_expansion(G, 0.5, 0.05, seed=9).to_dict()
    b = verify_expansion(G, 0.5, 0.05, seed=9).to_dict()
    assert a == b
