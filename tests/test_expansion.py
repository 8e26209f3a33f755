import pytest

from lazycops.errors import UsageError
from lazycops.expansion import _summarize, verify_expansion
from lazycops.graph import Graph, gen_gnp, gen_named


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
    rep = verify_expansion(G, 0.5, 0.05, tau=0.25, seed=3)
    growth = [c for c in rep.checks if c.name == "neighborhood_growth_i=1"]
    assert growth and growth[0].passed
    # extremes recorded for audit
    assert growth[0].minimum <= growth[0].mean <= growth[0].maximum


def test_dense_growth_target_is_a_share_of_n():
    # G(600, 600^-0.52): d^2 > n/log n, so radius 2 is scored against
    # (1 - e^-c) n with c = d^2/n, the expected size of the ball
    n = 600
    G = gen_gnp(n, n ** -0.52, 4)
    rep = verify_expansion(G, 0.48, 0.05, seed=4)
    growth = next(c for c in rep.checks if c.name == "neighborhood_growth_i=2")
    assert growth.note.startswith("dense regime")
    assert growth.passed and abs(growth.mean - 1.0) < 0.1


@pytest.mark.parametrize("n", [600, 2000])
@pytest.mark.parametrize("seed", range(5))
def test_sparse_growth_target_is_the_expected_ball(n, seed):
    # G(n, n^-0.8), d about 4: the closed ball N_i[v] holds about
    # 1 + d + ... + d^i vertices, a quarter more than d^i at i = 1
    rep = verify_expansion(gen_gnp(n, n ** -0.8, seed), 0.2, 0.05, seed=seed)
    growth = {c.name: c for c in rep.checks}
    for i in (1, 2, 3):
        check = growth[f"neighborhood_growth_i={i}"]
        assert check.note == "" and check.passed, check


def test_sparse_growth_fails_on_a_torus():
    # C_30 x C_30 has d = 4 but grows quadratically: its radius-i ball holds
    # 2i^2 + 2i + 1 vertices, which equals the expected 1 + 4 + ... + 4^i at i = 1 only
    s = 30
    G = Graph(s * s, [(r * s + c, r * s + (c + 1) % s) for r in range(s) for c in range(s)]
              + [(r * s + c, (r + 1) % s * s + c) for r in range(s) for c in range(s)])
    growth = {c.name: c for c in verify_expansion(G, 0.2, 0.05, seed=0).checks}
    for i in (1, 2, 3):
        check = growth[f"neighborhood_growth_i={i}"]
        expected = sum(4 ** j for j in range(i + 1))
        assert check.note == "" and check.mean == pytest.approx((2 * i * i + 2 * i + 1) / expected)
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
