import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lazycops.errors import CapExceededError, GraphFormatError, UsageError
from lazycops.expansion import PAIR_SAMPLES, VERTEX_SAMPLES, verify_expansion
from lazycops.graph import (
    Graph,
    HypercubeGraph,
    _ball_row,
    _ball_table,
    _gnp_edges,
    _ids,
    _kth_bit,
    _level_separators,
    _paths_to,
    _prune_separator,
    bfs,
    component_of,
    components_without,
    count_cycles_through_edge,
    count_paths,
    dominates,
    exact_domination_number,
    find_balanced_separator,
    gen_gnp,
    gen_named,
    greedy_dominating_set,
    kth_neighborhood,
    parse_graph,
    serialize_graph,
)
from reference_balls import (
    reference_ball_and_row,
    reference_ball_table,
    reference_kth_neighborhood,
    reference_path_samples,
)
from reference_bfs import reference_bfs
from reference_domination import reference_greedy_dominating_set
from reference_gnp import pairwise_gnp, skip_gnp
from reference_hypercube import EdgeListHypercube
from reference_paths import reference_count_paths, reference_paths_to
from reference_separator import _ok, _prune, exact_separator, reference_separator


# -- generators ---------------------------------------------------------------

def test_path_graph():
    G = gen_named("path", 5)
    assert G.n == 5 and G.m == 4
    assert G.distance(0, 4) == 4


def test_graph_repr():
    assert repr(gen_named("path", 5)) == "Graph(n=5, m=4)"
    assert repr(HypercubeGraph(3)) == "Graph(n=8, m=12)"


def test_cycle_graph():
    G = gen_named("cycle", 6)
    assert G.n == 6 and G.m == 6
    assert all(G.degree(v) == 2 for v in range(6))
    assert G.distance(0, 3) == 3


def test_complete_graph():
    G = gen_named("complete", 7)
    assert G.m == 21
    assert all(G.degree(v) == 6 for v in range(7))


def test_grid_graph():
    G = gen_named("grid2d", 3)
    assert G.n == 9 and G.m == 12
    assert G.distance(0, 8) == 4


def test_hypercube_graph():
    G = gen_named("hypercube", 4)
    assert isinstance(G, HypercubeGraph)
    assert G.n == 16 and G.m == 32
    # the BFS row of Q_dim is the Hamming distance row
    Q11 = HypercubeGraph(11)
    for H, v in [(G, v) for v in range(16)] + [(Q11, v) for v in (0, 1, 1234, Q11.n - 1)]:
        assert H.distances_from(v) == tuple((u ^ v).bit_count() for u in range(H.n))
    assert G.distance(3, 12) == 4


def test_hypercube_matches_the_edge_list_reference():
    for d in range(1, 13):
        Q, ref = HypercubeGraph(d), EdgeListHypercube(d)
        assert Q._adj == ref._adj, d
        assert (Q.n, Q.m, Q.dim) == (ref.n, ref.m, ref.dim) == (1 << d, d << (d - 1), d)
        assert Q.edges() == ref.edges()
        assert serialize_graph(Q).encode() == serialize_graph(ref).encode()
        assert Q == ref and hash(Q) == hash(ref)


def test_hypercube_builds_without_an_edge_list():
    # Q14 has 114,688 edges: the edge-list build peaked at 25 MB, the rows
    # and their shared ints take about 3 MB
    _ids.cache_clear()
    tracemalloc.start()
    try:
        Q = HypercubeGraph(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.m == 14 << 13
    assert peak < 8 << 20, f"{peak / 2**20:.1f} MB"


def test_petersen_graph():
    G = gen_named("petersen", None)
    assert G.n == 10 and G.m == 15
    assert all(G.degree(v) == 3 for v in range(10))
    # girth 5: no triangles or 4-cycles through any edge
    for u, v in G.edges():
        assert count_paths(G, u, v, 2) == 0
        assert count_paths(G, u, v, 3) == 0


def test_random_tree_is_tree():
    for seed in range(10):
        n = 2 + seed
        T = gen_named("random_tree", n, seed)
        assert T.n == n and T.m == n - 1 and T.is_connected()


def test_random_tree_deterministic():
    a = gen_named("random_tree", 9, 3)
    b = gen_named("random_tree", 9, 3)
    assert a.edges() == b.edges()


def test_unknown_kind():
    with pytest.raises(GraphFormatError):
        gen_named("bogus", 5)


def test_gnp_extremes():
    assert gen_gnp(10, 0.0, 1).m == 0
    assert gen_gnp(10, 1.0, 1).m == 45


def test_gnp_determinism():
    a = gen_gnp(50, 0.2, 9)
    b = gen_gnp(50, 0.2, 9)
    assert a.edges() == b.edges()
    assert gen_gnp(50, 0.2, 10).edges() != a.edges()


def test_gnp_invalid_p():
    with pytest.raises(ValueError):
        gen_gnp(10, 1.5, 0)


def test_gnp_realized_average_degree():
    # fixed seed; realized average degree within 15% of (n-1)p
    n, p = 2000, 2000 ** -0.5
    G = gen_gnp(n, p, 7)
    avg = 2 * G.m / n
    expected = (n - 1) * p
    assert abs(avg - expected) / expected < 0.15
    # realized value recorded: 44.79 vs expected 44.70
    assert avg == pytest.approx(44.793, abs=0.01)


# -- metrics ------------------------------------------------------------------

def test_distances_and_infinity():
    G = Graph(4, [(0, 1), (2, 3)])
    d = G.distances_from(0)
    assert d[0] == 0 and d[1] == 1
    assert d[2] is math.inf and d[3] is math.inf
    assert not G.is_connected()


def test_distances_bfs_property():
    G = gen_gnp(40, 0.15, 2)
    for v in range(G.n):
        d = G.distances_from(v)
        for u in range(G.n):
            if d[u] not in (0, math.inf):
                assert d[u] == 1 + min(d[w] for w in G.neighbors(u))


def test_induced_subgraph():
    G = gen_named("cycle", 6)
    sub, order = G.induced_subgraph([1, 2, 3])
    assert sub.n == 3 and sub.m == 2
    assert list(order) == [1, 2, 3]
    # rows built in pair order equal Graph's rows from the edge list
    G = gen_gnp(60, 0.2, 3)
    for vertices in ([5], range(0, 60, 3), [59, 2, 2, 40, 7], range(60)):
        sub, order = G.induced_subgraph(vertices)
        index = {v: i for i, v in enumerate(order)}
        edges = [(index[u], index[v]) for u, v in G.edges() if u in index and v in index]
        assert sub == Graph(len(order), edges)
        assert serialize_graph(sub) == serialize_graph(Graph(len(order), edges))
    with pytest.raises(GraphFormatError, match="vertex count must be >= 1, got 0"):
        G.induced_subgraph([])


def test_components_without():
    G = gen_named("path", 5)
    comps = components_without(G, {2})
    assert sorted(sorted(c) for c in comps) == [[0, 1], [3, 4]]
    assert sorted(component_of(G, 0, {2})) == [0, 1]


@st.composite
def _searches(draw):
    """A graph with n <= 12 plus random sources, deleted set and radius."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vertex = st.integers(0, n - 1)
    sources = draw(st.lists(vertex, max_size=4))
    deleted = draw(st.sets(vertex, max_size=4))
    radius = draw(st.none() | st.integers(0, 5))
    return Graph(n, edges), sources, deleted, radius


# Dense graphs send the large levels of `bfs` bottom-up; `reference_bfs` is
# the top-down search alone, and networkx is independent of both.

@st.composite
def _dense_searches(draw):
    """G(n, p) with n <= 60 and p in [0.15, 0.9], plus random sources,
    deleted list and radius; the list may repeat a vertex and hold sources."""
    n = draw(st.integers(2, 60))
    G = gen_gnp(n, draw(st.floats(0.15, 0.9)), draw(st.integers(0, 10**6)))
    vertex = st.integers(0, n - 1)
    sources = draw(st.lists(vertex, min_size=1, max_size=n))
    deleted = draw(st.lists(vertex, max_size=n // 2))
    deleted += draw(st.lists(st.sampled_from(deleted + sources), max_size=3))
    radius = draw(st.none() | st.integers(0, 4))
    return G, sources, deleted, radius


def _fixed_searches():
    """Searches whose bottom-up levels carry a mistake into the result: a
    vertex hanging behind a deleted one, and levels that run bottom-up from
    the first step on (many sources); G(2000, 2000^-0.52) at radii 1-4 and
    at full depth.  A deleted vertex given twice, or a deleted source, must
    not end the search before its last vertex: on the path 0-1-2-3 with 3
    deleted twice, vertex 2 is still reached."""
    K = Graph(41, [*combinations(range(40), 2), (39, 40)])
    G = gen_gnp(2000, 2000 ** -0.52, 5)
    P = gen_named("path", 4)
    cases = [(K, (0,), {39}, None), (K, (0,), {39}, 2), (K, range(0, 40, 2), {39}, None),
             (P, (0,), [3, 3], None), (P, (0, 3), [3, 3, 3], None), (P, (1, 2), [2, 0, 2], 2),
             (K, (0, 1), [1, 39, 1, 39, 5], None), (K, range(0, 40, 2), [0, 0, 2, 39], None)]
    for radius in (1, 2, 3, 4, None):
        cases += [(G, (0,), set(), radius), (G, (7, 1999), {3, 500, 1234}, radius)]
    cases += [(G, range(0, 2000, 2), set(range(1, 400, 2)), None)]
    return cases


def _networkx_search(nx, G, sources, deleted, radius):
    """G minus `deleted` as a networkx graph, and the hop distance of each
    vertex the search from `sources` reaches in it."""
    deleted = set(deleted)
    H = nx.Graph()
    H.add_nodes_from(v for v in range(G.n) if v not in deleted)
    H.add_edges_from(e for e in G.edges() if not deleted.intersection(e))
    live = {s for s in sources if s not in deleted}
    lengths = nx.multi_source_dijkstra_path_length(H, live, cutoff=radius) if live else {}
    return H, lengths


def test_searches_match_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_searches(), _dense_searches()))
    def check(case):
        G, sources, deleted, radius = case
        H, lengths = _networkx_search(nx, G, sources, deleted, radius)
        got = bfs(G, sources, deleted, radius)
        assert got == [lengths.get(v, math.inf) for v in range(G.n)]
        assert [d is math.inf for d in got] == [v not in lengths for v in range(G.n)]

        full = nx.Graph(G.edges())
        full.add_nodes_from(range(G.n))
        r = G.n if radius is None else radius
        for s in sources:
            ball = nx.single_source_shortest_path_length(full, s, cutoff=r)
            assert kth_neighborhood(G, s, r) == set(ball)

        expected = sorted(sorted(c) for c in nx.connected_components(H))
        assert components_without(G, deleted) == expected
        for v in H:
            assert component_of(G, v, deleted) == sorted(nx.node_connected_component(H, v))

    check()


def test_fixed_searches_match_networkx():
    nx = pytest.importorskip("networkx")
    for G, sources, deleted, radius in _fixed_searches():
        _, lengths = _networkx_search(nx, G, sources, deleted, radius)
        assert bfs(G, sources, deleted, radius) == [lengths.get(v, math.inf) for v in range(G.n)]


def test_bfs_rejects_negative_radius():
    with pytest.raises(ValueError):
        bfs(gen_named("path", 3), (0,), radius=-1)


def test_primitives_reject_invalid_arguments():
    G = gen_named("path", 4)
    with pytest.raises(GraphFormatError, match="hypercube dimension must be >= 1"):
        HypercubeGraph(0)
    with pytest.raises(ValueError, match="v is in the removed set"):
        component_of(G, 1, {1})
    with pytest.raises(ValueError, match="endpoints must differ"):
        count_paths(G, 2, 2, 2)
    with pytest.raises(ValueError, match="path length must be >= 1"):
        count_paths(G, 0, 1, 0)
    with pytest.raises(ValueError, match=r"\(0,2\) is not an edge"):
        count_cycles_through_edge(G, (0, 2), 3)
    with pytest.raises(ValueError, match="cycle length bound must be >= 3"):
        count_cycles_through_edge(G, (0, 1), 2)
    with pytest.raises(ValueError, match="requires a connected graph"):
        find_balanced_separator(Graph(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("source", [-1, 4, 7])
def test_searches_reject_out_of_range_sources(source):
    G = gen_named("path", 4)
    with pytest.raises(ValueError, match="out of range"):
        bfs(G, (source,))
    with pytest.raises(ValueError, match="out of range"):
        bfs(G, (0, source), radius=1)
    with pytest.raises(ValueError, match="out of range"):
        kth_neighborhood(G, source, 1)
    for graph in (G, HypercubeGraph(2)):
        with pytest.raises(ValueError, match="out of range"):
            graph.distances_from(source)
    for v, w in ((source, 1), (1, source)):
        with pytest.raises(ValueError, match="out of range"):
            count_paths(G, v, w, 2)
    # deleted ids are checked too: -1 used to delete vertex n-1 silently
    with pytest.raises(ValueError, match="out of range"):
        bfs(G, (0,), (source,))
    with pytest.raises(ValueError, match="out of range"):
        bfs(G, (0,), (1, source), radius=1)
    with pytest.raises(ValueError, match="out of range"):
        component_of(G, source, ())
    with pytest.raises(ValueError, match="out of range"):
        component_of(G, 0, {source})
    with pytest.raises(ValueError, match="out of range"):
        components_without(G, {source})
    # also when every valid vertex is removed, so that no search runs
    with pytest.raises(ValueError, match="out of range"):
        components_without(G, {0, 1, 2, 3, source})


def _check_stopped_searches(G, sources, deleted, radius):
    """`bfs` with `until` against `reference_bfs` and against the full row
    cut after the stop level, the least full distance over `until`.  Each
    `until` holds the vertices at or beyond one level of the full row, plus
    the deleted and unreached ones, which never stop the search; the last
    holds only those."""
    full = reference_bfs(G, sources, deleted, radius)
    never = [v for v, d in enumerate(full) if d is math.inf]
    for stop in sorted({d for d in full if d is not math.inf}) + [math.inf]:
        until = [v for v, d in enumerate(full) if stop <= d < math.inf] + never
        got = bfs(G, sources, deleted, radius, until)
        assert got == reference_bfs(G, sources, deleted, radius, until)
        assert got == [d if d <= stop else math.inf for d in full]


@settings(max_examples=300, deadline=None)
@given(_dense_searches())
def test_bfs_matches_reference_on_dense_gnp(case):
    G, sources, deleted, radius = case
    assert bfs(G, sources, deleted, radius) == reference_bfs(G, sources, deleted, radius)
    _check_stopped_searches(G, sources, deleted, radius)


def test_bfs_matches_reference_on_fixed_searches():
    for G, sources, deleted, radius in _fixed_searches():
        assert bfs(G, sources, deleted, radius) == reference_bfs(G, sources, deleted, radius)
        _check_stopped_searches(G, sources, deleted, radius)


def test_bfs_stops_after_the_first_level_meeting_until():
    inf = math.inf
    P = gen_named("path", 6)
    assert bfs(P, (0,), until=()) == bfs(P, (0,)) == [0, 1, 2, 3, 4, 5]
    assert bfs(P, (0,), until=(3, 5)) == [0, 1, 2, 3, inf, inf]
    # a source inside `until`: only the sources read 0
    assert bfs(P, (2,), until={2, 4}) == [inf, inf, 0, inf, inf, inf]
    assert bfs(P, (0, 5), until=(5,)) == [0, inf, inf, inf, inf, 0]
    # deleted or unreachable vertices of `until` never stop the search
    assert bfs(P, (0,), {3}, until={3}) == [0, 1, 2, inf, inf, inf]
    two = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert bfs(two, (0,), until=(3, 4)) == [0, 1, 2, inf, inf]
    # `radius` and `until`: whichever stops first
    assert bfs(P, (0,), radius=2, until=(4,)) == [0, 1, 2, inf, inf, inf]
    assert bfs(P, (0,), radius=4, until=(2,)) == [0, 1, 2, inf, inf, inf]


def test_expansion_report_independent_of_ball_tables(monkeypatch):
    import sys

    import lazycops.graph as graph

    # d = 600^0.2, 600^0.52 and 600^0.5: the verifier uses radii 1-5, 1-3 and 1-2
    edge_p = {0.2: 600 ** -0.8, 0.48: 600 ** -0.48, 0.5: 600 ** -0.5}

    def report(alpha):
        return verify_expansion(pairwise_gnp(600, edge_p[alpha], 2), alpha, 0.05, seed=4)

    expected = {alpha: report(alpha) for alpha in edge_p}
    # (samples, min, max, mean) as computed before path counts ran on balls;
    # the means are integer sums over sample counts, so they are exact
    checks = {c.name: (c.samples, c.minimum, c.maximum, c.mean) for c in expected[0.48].checks}
    assert checks["path_count_i=2"] == (1000, 0, 5, 1.744)
    assert checks["path_count_i=3"] == (1000, 12, 71, 35.825)
    assert checks["cycles_len<=3"] == (200, 0, 5, 1.165)

    tables = {}

    def searched_tables(G, r):
        # one search per vertex and radius, kept for one report's graph
        if r not in tables:
            tables[r] = reference_ball_table(G, r)
        return tables[r]

    # every module that bound the table builder, so no ball bypasses the reference
    original = graph._ball_table
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lazycops":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, searched_tables)
    for alpha, report_at in expected.items():
        tables.clear()
        assert report(alpha).to_dict() == report_at.to_dict()
        # growth balls from radius 1 and path-count balls up to ell + 1 at least
        ell = math.ceil(1 / alpha) - 1
        assert set(tables) >= set(range(1, ell + 2))


# -- ball tables ------------------------------------------------------------------

@st.composite
def _ball_graphs(draw):
    """A graph on at most 24 vertices whose edges join only vertices of the
    same of up to four random blocks, so it has several components and often
    isolated vertices."""
    n = draw(st.integers(1, 24))
    block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(u, v) for u, v in combinations(range(n), 2) if block[u] == block[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    return Graph(n, edges)


def _check_balls(G):
    """Every ball, ball read by rank, row and table of G up to radius
    diameter + 2 (diameter over the components) against the search-based
    references."""
    diameter = max(d for v in range(G.n) for d in bfs(G, (v,)) if d is not math.inf)
    for r in range(diameter + 3):
        for v in range(G.n):
            assert kth_neighborhood(G, v, r) == reference_kth_neighborhood(G, v, r)
            if r:
                ball = _ball_table(G, r)[v] ^ (1 << v)
                ranked = [_kth_bit(ball, k) for k in range(ball.bit_count())]
                assert (ranked, list(_ball_row(G, v, r))) == reference_ball_and_row(G, v, r)
        if r:
            assert _ball_table(G, r) == reference_ball_table(G, r)
    assert G._whole and len(G._balls) <= max(1, diameter)


def test_ball_tables_match_searches_on_random_graphs():
    @settings(max_examples=150, deadline=None)
    @given(_ball_graphs())
    def check(G):
        _check_balls(G)

    check()


@pytest.mark.parametrize("kind, size", [
    ("path", 7), ("cycle", 8), ("grid2d", 4), ("hypercube", 4), ("petersen", None),
])
def test_ball_tables_match_searches_on_families(kind, size):
    _check_balls(gen_named(kind, size))


def test_ball_tables_stop_at_whole_components():
    P = gen_named("path", 10)
    assert kth_neighborhood(P, 0, 50) == set(range(10))
    assert len(P._balls) == 9 and P._whole  # the diameter, not 50
    assert kth_neighborhood(P, 9, 3) == {6, 7, 8, 9}
    H = Graph(5, [(0, 1), (2, 3)])
    assert kth_neighborhood(H, 0, 7) == {0, 1}
    assert kth_neighborhood(H, 4, 7) == {4}
    assert len(H._balls) == 1
    E = Graph(3)  # table 1 equals radius 0 and is the one table kept
    assert kth_neighborhood(E, 2, 4) == {2}
    assert _ball_table(E, 3) == (1, 2, 4)
    with pytest.raises(ValueError, match="radius -1 < 0"):
        kth_neighborhood(P, 0, -1)


def test_ball_tables_respect_byte_cap(monkeypatch):
    import lazycops.graph as graph

    G = gen_named("path", 40)  # 200 bytes per table
    monkeypatch.setattr(graph, "BALL_TABLE_BYTES", 2 * 200)
    assert kth_neighborhood(G, 0, 2) == {0, 1, 2}
    with pytest.raises(CapExceededError, match="ball table 3 passes 400 bytes"):
        kth_neighborhood(G, 0, 3)
    assert len(G._balls) == 2
    assert kth_neighborhood(G, 39, 1) == {38, 39}
    # path counts read table 1, so they pass the cap with it
    monkeypatch.setattr(graph, "BALL_TABLE_BYTES", 199)
    with pytest.raises(CapExceededError, match="ball table 1 passes 199 bytes"):
        count_paths(gen_named("path", 40), 0, 2, 2)


def test_ball_row_beyond_byte_lanes_only_prunes_less():
    # radius 260 on a 520-cycle: the far half of the row is capped at 255,
    # below the distance, which keeps the path count exact
    C = gen_named("cycle", 520)
    row = _ball_row(C, 0, 260)
    near = bfs(C, (0,))
    assert list(row) == [min(d, 255) for d in near]
    assert _paths_to(C, 260, 0, 260, row) == reference_count_paths(C, 260, 0, 260) == 2
    assert _paths_to(C, 259, 0, 259, row) == 1


@pytest.mark.parametrize("n", [1, 2, 50, 300])
def test_gen_gnp_rows_equal_the_edge_list_build(n):
    # gen_gnp builds each row in pair order; Graph sorts a set per vertex
    for p in (0, 0.02, 0.5, 1):
        for seed in (0, 1, 7):
            G, expected = gen_gnp(n, p, seed), Graph(n, list(_gnp_edges(n, p, seed)))
            assert G == expected and serialize_graph(G) == serialize_graph(expected), (p, seed)


def test_gen_gnp_holds_one_form_of_each_row():
    # a row is a list until it becomes a tuple: holding every list and every
    # tuple at once peaked at 2.0x the retained size here, one at a time 1.1x
    _ids.cache_clear()
    tracemalloc.start()
    try:
        G = gen_gnp(2000, 2000 ** -0.52, 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.m > 0 and peak <= 1.5 * retained, (peak, retained)


@pytest.mark.parametrize("p", [0, 0.5, 1])
@pytest.mark.parametrize("n", [0, -2])
def test_gen_gnp_rejects_empty_and_negative_sizes(n, p):
    # n < 0 must raise before a pair is drawn: the pair walk never ends there
    with pytest.raises(GraphFormatError, match=f"vertex count must be >= 1, got {n}"):
        gen_gnp(n, p, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 300])
def test_gen_gnp_matches_the_skip_reference(n):
    for p in (0, 5e-324, 1e-9, 0.01, 0.3, 0.5, 0.99, 1 - 2 ** -53, 1):
        for seed in (0, 1, 7):
            G, expected = gen_gnp(n, p, seed), skip_gnp(n, p, seed)
            assert G == expected and G.edges() == expected.edges(), (p, seed)
            # one int object per vertex, shared by every edge end
            assert len({id(u) for nbrs in G._adj for u in nbrs}) <= n


def test_gen_gnp_pair_frequencies():
    # over 5,000 seeds, each pair appears w.p. p and two pairs that share a
    # vertex appear together w.p. p^2, each within 5 standard deviations
    n, p, trials = 7, 0.3, 5000
    pairs = list(combinations(range(n), 2))
    seen = {pair: 0 for pair in pairs}
    joint = {(a, b): 0 for a, b in combinations(pairs, 2) if set(a) & set(b)}
    for seed in range(trials):
        edges = set(gen_gnp(n, p, seed).edges())
        for pair in edges:
            seen[pair] += 1
        for a, b in joint:
            joint[a, b] += a in edges and b in edges
    for counts, q in ((seen, p), (joint, p * p)):
        sigma = math.sqrt(trials * q * (1 - q))
        assert max(abs(c - trials * q) for c in counts.values()) < 5 * sigma


# -- path and cycle counting ----------------------------------------------------

def test_count_paths_small():
    G = gen_named("complete", 4)
    # u-w paths of length 2 in K_4: via either of the two other vertices
    assert count_paths(G, 0, 1, 2) == 2
    assert count_paths(G, 0, 1, 1) == 1
    C = gen_named("cycle", 5)
    assert count_paths(C, 0, 2, 2) == 1
    assert count_paths(C, 0, 2, 3) == 1  # the long way round


@st.composite
def _path_counts(draw):
    """A graph on at most 10 vertices, two distinct endpoints and a length."""
    n = draw(st.integers(2, 10))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)))
    v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Graph(n, edges), v, w, draw(st.integers(1, 6))


def test_count_paths_matches_reference_and_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=400, deadline=None)
    @given(_path_counts())
    def check(case):
        G, v, w, i = case
        H = nx.Graph(G.edges())
        H.add_nodes_from(range(G.n))
        expected = sum(1 for p in nx.all_simple_paths(H, v, w, cutoff=i) if len(p) == i + 1)
        assert reference_count_paths(G, v, w, i) == expected
        for a, b in ((v, w), (w, v)):
            assert count_paths(G, a, b, i) == expected
            for row in _rows_to(G, b, i):
                assert _paths_to(G, a, b, i, row) == expected

    check()


@st.composite
def _dense_path_counts(draw):
    """G(n, p) with n <= 14 and p in [0.3, 0.95], two distinct endpoints
    and a length up to 6: paths whose steps meet many path vertices."""
    n = draw(st.integers(3, 14))
    G = gen_gnp(n, draw(st.floats(0.3, 0.95)), draw(st.integers(0, 10**6)))
    v, w = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return G, v, w, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_path_counts(), _dense_path_counts()))
def test_paths_to_matches_the_set_kernel(case):
    G, v, w, i = case
    for a, b in ((v, w), (w, v)):
        for row in _rows_to(G, b, i):
            assert _paths_to(G, a, b, i, row) == reference_paths_to(G, a, b, i, row)


def _rows_to(G, w, i):
    """Every form of distance row to w that `_paths_to` is given for length
    i: the full row, the radius-i search, the verifier's ball-table row,
    and no row where i <= 3."""
    rows = [G.distances_from(w), bfs(G, (w,), radius=i), _ball_row(G, w, i)]
    return rows + [None] * (i <= 3)


def test_count_paths_skips_common_neighbours_on_the_path():
    # in K_4 to K_6 both ends of the last two edges have the earlier path
    # vertices as common neighbours; only the others may close a path.  At
    # a step with three edges left every neighbour's row holds its own bit,
    # the path vertices and w, which the count must take off
    for n, i, expected in ((4, 3, 2), (4, 4, 0), (5, 3, 6), (5, 4, 6),
                           (6, 3, 12), (6, 4, 24), (6, 5, 24)):
        K = gen_named("complete", n)
        assert count_paths(K, 0, 1, i) == reference_count_paths(K, 0, 1, i) == expected
        for row in _rows_to(K, 1, i):
            assert _paths_to(K, 0, 1, i, row) == reference_paths_to(K, 0, 1, i, row) == expected


@example(1)
@example(1 << 599)
@example((1 << 600) - 1)
@example(0b1000000001)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 600))
def test_kth_bit_matches_sorted_bits(x):
    bits = [p for p in range(x.bit_length()) if x >> p & 1]
    assert [_kth_bit(x, k) for k in range(len(bits))] == sorted(bits)


@pytest.mark.parametrize("alpha, longest", [(0.48, 3), (0.2, 5)])
def test_path_samples_match_the_ball_list_sampler(monkeypatch, alpha, longest):
    import lazycops.expansion as expansion

    G = pairwise_gnp(600, 600 ** (alpha - 1), 1)
    drawn = []

    def recorded(G, w, v, i, row):
        count = _paths_to(G, w, v, i, row)
        drawn.append((i, v, w, count))
        return count

    monkeypatch.setattr(expansion, "_paths_to", recorded)
    report = verify_expansion(G, alpha, 0.05, seed=5)
    lengths = [int(c.name.split("=")[1]) for c in report.checks if c.name.startswith("path_count")]
    assert lengths == list(range(2, longest + 1))
    # the verifier's draws: its growth-check vertices, then the path samples
    rng = random.Random(5)
    rng.sample(range(G.n), min(VERTEX_SAMPLES, G.n))
    per_length = PAIR_SAMPLES // len(lengths)
    expected = [(i, *sample) for i in lengths
                for sample in reference_path_samples(G, rng, i, per_length)]
    assert drawn == expected


def test_count_cycles_through_edge():
    K4 = gen_named("complete", 4)
    # each edge of K_4 lies on two triangles and two 4-cycles
    assert count_cycles_through_edge(K4, (0, 1), 3) == 2
    assert count_cycles_through_edge(K4, (0, 1), 4) == 4
    T = gen_named("random_tree", 10, 0)
    e = T.edges()[0]
    assert count_cycles_through_edge(T, e, 6) == 0


@st.composite
def _cycle_edges(draw):
    """A graph on at most 9 vertices, one of its edges and a length bound."""
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    return Graph(n, edges), draw(st.sampled_from(sorted(edges))), draw(st.integers(3, 8))


def test_count_cycles_through_edge_matches_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=200, deadline=None)
    @given(_cycle_edges())
    def check(case):
        G, (u, v), L = case
        through = 0
        for cycle in nx.simple_cycles(nx.Graph(G.edges()), length_bound=L):
            steps = set(zip(cycle, cycle[1:] + cycle[:1]))
            through += (u, v) in steps or (v, u) in steps
        assert count_cycles_through_edge(G, (u, v), L) == through

    check()


def test_count_cycles_cap():
    G = gen_named("complete", 6)
    with pytest.raises(CapExceededError):
        count_cycles_through_edge(G, (0, 1), 9)


def test_count_cycles_reads_cap_at_call_time(monkeypatch):
    import lazycops.graph as graph

    K4 = gen_named("complete", 4)
    monkeypatch.setattr(graph, "CYCLE_LEN_CAP", 3)
    assert count_cycles_through_edge(K4, (0, 1), 3) == 2
    with pytest.raises(CapExceededError, match="cycle length bound 4 exceeds cap 3"):
        count_cycles_through_edge(K4, (0, 1), 4)


# -- domination -----------------------------------------------------------------

def _brute_force_domination(G):
    from itertools import combinations

    for size in range(1, G.n + 1):
        for S in combinations(range(G.n), size):
            if dominates(G, set(S)):
                return size
    raise AssertionError


def test_dominates():
    G = gen_named("path", 4)
    assert dominates(G, {1, 2})
    assert not dominates(G, {0})


@pytest.mark.parametrize("bad", [-1, 4])
def test_dominates_rejects_out_of_range_vertices(bad):
    # -1 would read the last closed neighbourhood, 4 would index past the table
    with pytest.raises(ValueError, match="out of range"):
        dominates(gen_named("path", 4), {bad, 1})


def test_greedy_dominating_set_valid():
    for seed in range(5):
        G = gen_gnp(30, 0.2, seed)
        S = greedy_dominating_set(G)
        assert dominates(G, set(S))


def test_domination_matches_networkx():
    nx = pytest.importorskip("networkx")

    @st.composite
    def graphs_and_subsets(draw):
        n = draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return Graph(n, edges), draw(st.sets(st.integers(0, n - 1)))

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_subsets())
    def check(case):
        G, S = case
        H = nx.Graph(G.edges())
        H.add_nodes_from(range(G.n))
        assert dominates(G, S) == nx.is_dominating_set(H, S)
        assert nx.is_dominating_set(H, greedy_dominating_set(G))

    check()


def test_random_tree_matches_networkx_pruefer():
    nx = pytest.importorskip("networkx")
    for n in range(2, 20):
        for seed in range(5):
            rng = random.Random(seed)
            T = nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])
            assert gen_named("random_tree", n, seed).edges() == sorted(
                tuple(sorted(e)) for e in T.edges()), (n, seed)


def test_exact_domination_matches_brute_force():
    for seed in range(10):
        G = gen_gnp(8, 0.3, seed)
        assert exact_domination_number(G) == _brute_force_domination(G)


def test_exact_domination_known_values():
    assert exact_domination_number(gen_named("complete", 5)) == 1
    assert exact_domination_number(gen_named("cycle", 6)) == 2
    assert exact_domination_number(gen_named("path", 7)) == 3
    assert exact_domination_number(gen_named("petersen", None)) == 3


def test_exact_domination_cap():
    with pytest.raises(CapExceededError):
        exact_domination_number(gen_gnp(30, 0.1, 0))


def test_exact_caps_read_at_call_time(monkeypatch):
    import lazycops.graph as graph

    P5 = gen_named("path", 5)
    monkeypatch.setattr(graph, "DOMINATION_N_CAP", 4)
    with pytest.raises(CapExceededError, match="exact domination limited to n <= 4, got 5"):
        exact_domination_number(P5)
    assert exact_domination_number(gen_named("path", 4)) == 2


@st.composite
def _domination_graphs(draw):
    """A graph with n <= 14: random edges (isolated vertices included), or
    a complete graph, where every vertex ties."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        return gen_named("complete", n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(_domination_graphs())
def test_greedy_domination_matches_reference(G):
    assert greedy_dominating_set(G) == reference_greedy_dominating_set(G)


def test_greedy_domination_matches_reference_on_fixed_graphs():
    graphs = [Graph(1), Graph(5), gen_named("complete", 6), gen_named("cycle", 9)]
    graphs += [gen_named("grid2d", 7), gen_named("petersen"), gen_named("hypercube", 5)]
    graphs += [gen_gnp(60, 0.05, seed) for seed in range(5)]
    for G in graphs:
        assert greedy_dominating_set(G) == reference_greedy_dominating_set(G)


# -- separators -------------------------------------------------------------------

def _check_balanced(G, sep):
    limit = (2 * G.n) // 3
    for comp in components_without(G, set(sep)):
        assert len(comp) <= limit


def test_prune_separator_rejects_invalid_candidates():
    P7 = gen_named("path", 7)  # limit 4
    assert _prune_separator(P7, {0}, 4) is None  # leaves 1..6
    assert _prune_separator(P7, {3}, 4) == {3}
    assert _prune_separator(P7, {2, 3, 4}, 4) == {4}  # 2, then 3 rejoin the left part
    assert _prune_separator(P7, set(), 4) is None


def _new_root_drops(G, s, limit):
    """Vertices that reference `_prune` drops while all their neighbours are
    still in the separator: where `_prune_separator` starts a new component."""
    out, drops = set(s), []
    for v in sorted(s):
        if _ok(G, out - {v}, limit):
            if all(w in out for w in G.neighbors(v)):
                drops.append(v)
            out.discard(v)
    return drops


def test_prune_separator_matches_reference_on_padded_separators():
    assert _prune_separator(gen_named("path", 3), {0, 1}, 2) == {1}
    assert _new_root_drops(gen_named("path", 3), {0, 1}, 2) == [0]
    rng, graphs, new_roots = random.Random(5), 0, 0
    for seed in range(200):
        G = gen_gnp(12, 0.3, seed)
        if not G.is_connected():
            continue
        graphs += 1
        limit = 2 * G.n // 3
        sep = find_balanced_separator(G)
        for _ in range(5):
            s = sep | set(rng.sample(range(G.n), rng.randint(1, 6)))
            assert _prune_separator(G, s, limit) == _prune(G, s, limit), (seed, s)
            new_roots += len(_new_root_drops(G, s, limit))
        if graphs == 40:
            break
    assert graphs == 40 and new_roots > 0


def _spider():
    """A path 0-1-2 to the centre 3, which has legs of 1, 2 and 15 vertices:
    from 0, the centre's level leaves three components outside it, and only
    the long leg is above the limit of 14."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (5, 6), (3, 7)]
    edges += [(v, v + 1) for v in range(7, 21)]
    return Graph(22, edges)


def _sweep_corpus():
    graphs = [gen_named("grid2d", side) for side in range(1, 9)]
    graphs += [gen_named("cycle", n) for n in range(3, 16)]
    graphs += [gen_named("path", n) for n in range(1, 16)]
    graphs += [gen_named("random_tree", n, seed) for n in (5, 12, 30) for seed in range(4)]
    for seed in range(60):
        G = gen_gnp(5 + seed % 36, 0.2 + 0.1 * (seed % 4), seed)
        if G.is_connected():
            graphs.append(G)
    graphs += [gen_named("petersen"), gen_named("hypercube", 4), gen_named("complete", 6)]
    return graphs + [_spider()]


def test_level_separators_match_direct_check():
    spider, accepted = _spider(), 0
    limit = 2 * spider.n // 3
    centre_comps = [len(c) for c in components_without(spider, {3})]
    assert len(centre_comps) == 4 and [c > limit for c in centre_comps].count(True) == 1
    for G in _sweep_corpus():
        n, limit = G.n, 2 * G.n // 3
        for start in range(n):
            dist = G.distances_from(start)
            expected = []
            for d in range(max(dist), -1, -1):
                lvl = [v for v in range(n) if dist[v] == d]
                ball = sum(x < d for x in dist)
                if len(lvl) < n and ball <= limit and all(
                        len(c) <= limit for c in components_without(G, lvl)):
                    expected.append(lvl)
            swept = list(_level_separators(G, start, limit))
            assert [lvl for lvl, _ in swept] == expected, (G, start)
            for lvl, pruned in swept:
                assert pruned == _prune_separator(G, lvl, limit), (G, start, lvl)
            accepted += len(swept)
    assert accepted > 1000
    # from 0 the centre's level is rejected for the long leg alone, and the
    # sweep stops there: nearer levels leave that leg in one piece too
    swept = [lvl for lvl, _ in _level_separators(spider, 0, limit)]
    assert swept == [[14], [13], [12], [11], [10], [9], [6, 8], [4, 5, 7]]


def test_separator_exact_small():
    P = gen_named("path", 7)
    sep = exact_separator(P)
    assert len(sep) == 1
    _check_balanced(P, sep)
    assert sep == {2} and len(find_balanced_separator(P)) == 1


def test_separator_exact_one_vertex():
    # no smaller set balances one vertex: the search ends with the whole graph
    assert exact_separator(Graph(1, [])) == find_balanced_separator(Graph(1, [])) == {0}


def test_separator_never_smaller_than_the_exact_minimum():
    # every connected graph of the networkx atlas, 1 to 7 vertices
    nx = pytest.importorskip("networkx")
    graphs = agree = 0
    for H in nx.graph_atlas_g()[1:]:
        if not nx.is_connected(H):
            continue
        G = Graph(H.number_of_nodes(), H.edges())
        sep, minimum = find_balanced_separator(G), exact_separator(G)
        _check_balanced(G, sep)
        assert len(sep) >= len(minimum), (sorted(H.edges()), sep, minimum)
        graphs += 1
        agree += len(sep) == len(minimum)
    print(f"heuristic separator of minimum size on {agree} of {graphs} atlas graphs")
    # measured: the heuristic finds a minimum separator on every one of them
    assert graphs == 996 and agree == 996


def test_separator_heuristic_balanced():
    for kind, n in [("path", 30), ("cycle", 24), ("grid2d", 6), ("complete", 9)]:
        G = gen_named(kind, n)
        sep = find_balanced_separator(G)
        _check_balanced(G, sep)


def test_separator_heuristic_random_graphs():
    found = 0
    seed = 0
    while found < 20:
        G = gen_gnp(25, 0.15, seed)
        seed += 1
        if not G.is_connected():
            continue
        found += 1
        sep = find_balanced_separator(G)
        _check_balanced(G, sep)


def test_separator_grid_size():
    for side in range(3, 9):
        G = gen_named("grid2d", side)
        sep = find_balanced_separator(G)
        _check_balanced(G, sep)
        assert len(sep) <= 2 * math.sqrt(2 * G.n) + 1


@st.composite
def _connected_graphs(draw):
    """A connected G(n,p) with n <= 16, random tree, cycle or grid."""
    kind = draw(st.sampled_from(["gnp", "tree", "cycle", "grid"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "gnp":
        G = gen_gnp(draw(st.integers(1, 16)), draw(st.floats(0.2, 0.9)), seed)
        assume(G.is_connected())
        return G
    if kind == "tree":
        return gen_named("random_tree", draw(st.integers(1, 20)), seed)
    if kind == "cycle":
        return gen_named("cycle", draw(st.integers(3, 20)))
    return gen_named("grid2d", draw(st.integers(1, 5)))


@settings(max_examples=200, deadline=None)
@given(_connected_graphs())
def test_separator_matches_reference(G):
    assert find_balanced_separator(G) == reference_separator(G)


def test_separator_matches_reference_on_fixed_graphs():
    graphs = [gen_named("grid2d", side) for side in (6, 7, 8, 9, 10, 12)]
    graphs += [gen_named("hypercube", 4), gen_named("petersen"), gen_named("complete", 7)]
    graphs += [gen_named("random_tree", 40, seed) for seed in range(3)]
    for G in graphs:
        assert find_balanced_separator(G) == reference_separator(G)


def test_separator_balanced_and_minimal_networkx():
    nx = pytest.importorskip("networkx")

    @settings(max_examples=150, deadline=None)
    @given(_connected_graphs())
    def check(G):
        H = nx.Graph(G.edges())
        H.add_nodes_from(range(G.n))
        limit = (2 * G.n) // 3

        def largest(removed):
            rest = H.subgraph(set(range(G.n)) - removed)
            return max((len(c) for c in nx.connected_components(rest)), default=0)

        sep = find_balanced_separator(G)
        assert largest(sep) <= limit
        for v in sep:
            assert largest(sep - {v}) > limit

    check()


# -- parse / serialize ----------------------------------------------------------

def test_parse_serialize_round_trip():
    for seed in range(5):
        G = gen_gnp(20, 0.25, seed)
        assert parse_graph(serialize_graph(G)).edges() == G.edges()


def test_parse_rejects_malformed():
    for text, needle in [
        ("", "empty input"),
        ("3\n", "malformed header"),
        ("4\n0 1\n", "malformed header"),
        ("x y\n", "malformed header"),
        ("0 0\n", "vertex count must be >= 1"),
        ("2 1\n0 0\n", "self-loop at 0"),
        ("2 1\n0 5\n", r"edge \(0,5\) out of range"),
        ("2 1\n-1 0\n", r"edge \(-1,0\) out of range"),
        ("2 1\n0 1 1\n", "malformed edge line"),
        ("2 1\n0 x\n", "malformed edge line"),
        ("2 2\n0 1\n0 1\n", r"duplicate edge \(0,1\)"),
        ("2 1\n0 1\n1 0\n", "header declares 1 edges, found 2"),
        ("4 3\n0 1\n2 3\n1 0\n", r"duplicate edge \(1,0\)"),
    ]:
        with pytest.raises(GraphFormatError, match=needle):
            parse_graph(text)


def test_parse_keeps_hypercube_type():
    for d in range(1, 13):
        Q = gen_named("hypercube", d)
        G = parse_graph(serialize_graph(Q))
        assert isinstance(G, HypercubeGraph) and G.dim == d and G == Q


def test_parse_relabelled_hypercube_stays_plain():
    from lazycops.potential import PotentialRobberStrategy

    Q = gen_named("hypercube", 4)
    label = list(range(16))
    label[1], label[3] = label[3], label[1]   # 0-1-3 becomes 0-3-1: not Q4's labels
    G = parse_graph(serialize_graph(Graph(16, [(label[u], label[v]) for u, v in Q.edges()])))
    assert (G.n, G.m) == (Q.n, Q.m) and G != Q
    assert type(G) is Graph
    with pytest.raises(UsageError):
        PotentialRobberStrategy().place(G, [0])


def test_serialize_uses_lf():
    text = serialize_graph(gen_named("path", 3))
    assert "\r" not in text and text.endswith("\n")
    assert text.splitlines()[0] == "3 2"


# -- property tests ---------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 1000))
def test_tree_property(n, seed):
    T = gen_named("random_tree", n, seed)
    assert T.m == n - 1 and T.is_connected()


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 20), st.floats(0.05, 0.9), st.integers(0, 100))
def test_gnp_symmetric_simple(n, p, seed):
    G = gen_gnp(n, p, seed)
    for u, v in G.edges():
        assert u < v
        assert G.has_edge(v, u)
        assert u != v


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 16), st.integers(0, 50))
def test_separator_always_balanced(n, seed):
    G = gen_gnp(n, 0.5, seed)
    if not G.is_connected():
        return
    sep = find_balanced_separator(G)
    _check_balanced(G, sep)
