"""Immutable graph type, generators, and combinatorial primitives.

Graphs are simple and undirected with vertices 0..n-1.  Loops are never
stored: the reflexive convention (every piece may stay put) lives in the
game layer.  All randomness flows through ``random.Random`` (MT19937) with
explicit seeds, so every generator is bit-reproducible (gen_gnp wherever
math.log rounds alike).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import combinations, compress, islice
from operator import or_

from .errors import CapExceededError, GraphFormatError, UsageError

INF = math.inf

# Byte cap on the ball tables of one graph, about n*n/8 bytes each.
BALL_TABLE_BYTES = 1 << 28
# Longest cycle that count_cycles_through_edge enumerates.
CYCLE_LEN_CAP = 8
# Most vertices that exact_domination_number searches.
DOMINATION_N_CAP = 24

_FLAGS = bytes.maketrans(b"01", b"\0\1")  # see _flags


class Graph:
    """Undirected simple graph, immutable after construction.

    Distance rows are computed on every call; only the ball tables are
    cached, and never evicted.  Readers may share a graph across threads,
    but the ball tables assume one writer at a time.
    """

    __slots__ = ("n", "_adj", "_m", "_balls", "_whole")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise GraphFormatError(f"vertex count must be >= 1, got {n}")
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at {u}: loops are implicit")
            adj[u].add(v)
            adj[v].add(u)
        self._init(n, tuple(tuple(sorted(s)) for s in adj))

    @classmethod
    def _from_pairs(cls, n: int, pairs) -> Graph:
        """Graph on n >= 1 vertices from `pairs` (u, v), u < v, in lexicographic
        order and without repeats: each pair is appended to both of its rows,
        which so come out sorted, with no set, range check or sort."""
        if n < 1:
            raise GraphFormatError(f"vertex count must be >= 1, got {n}")
        rows = [[] for _ in range(n)]
        for u, v in pairs:
            rows[u].append(v)
            rows[v].append(u)
        for u, row in enumerate(rows):   # one form of each row at a time
            rows[u] = tuple(row)
        G = cls.__new__(cls)
        G._init(n, tuple(rows))
        return G

    def _init(self, n: int, adj: tuple) -> None:
        """Set Graph's slots from `adj`, whose row u is u's sorted neighbours."""
        self.n, self._adj = n, adj
        self._m = sum(map(len, adj)) // 2
        self._balls, self._whole = [], False  # see _ball_table

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    def neighbors(self, v: int) -> tuple:
        return self._adj[v]

    def closed_neighbors(self, v: int) -> tuple:
        return tuple(sorted((v,) + self._adj[v]))

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list:
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- metric helpers ----------------------------------------------------

    def distances_from(self, v: int) -> tuple:
        """Hop distances from v to every vertex (math.inf if unreachable)."""
        return tuple(bfs(self, (v,)))

    def distance(self, u: int, v: int):
        return self.distances_from(u)[v]

    def is_connected(self) -> bool:
        return all(d is not INF for d in self.distances_from(0))

    def induced_subgraph(self, vertices):
        """Subgraph on `vertices`; returns (subgraph, new->old vertex map)."""
        order = sorted(set(vertices))
        index = {v: i for i, v in enumerate(order)}
        edges = ((index[u], index[v]) for u in order for v in self._adj[u]
                 if u < v and v in index)   # in lexicographic order, as index is
        return Graph._from_pairs(len(order), edges), order


class HypercubeGraph(Graph):
    """Q_dim with vertices as bitstrings; distance is Hamming distance.

    Row u is u's dim bit flips, sorted, as ints of _ids(2**dim): the rows
    Graph makes from Q_dim's edges, built with no edge list or sets."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 1:
            raise GraphFormatError("hypercube dimension must be >= 1")
        ids, flips = _ids(1 << dim), [1 << b for b in range(dim)]
        self._init(len(ids), tuple(tuple(sorted([ids[u ^ f] for f in flips])) for u in ids))
        self.dim = dim


# -- breadth-first search ----------------------------------------------------

def bfs(G: Graph, sources, deleted=(), radius=None, until=()) -> list:
    """Hop distance from the nearest of `sources` in G minus `deleted`.

    Level-synchronous search from all sources at once, stopped after
    `radius` levels when one is given, and after the first level that
    holds a vertex of `until` (level 0 is the sources).  Entry v of the
    returned list (of length G.n) is math.inf when v is deleted, unreached,
    farther than `radius` or beyond that level; deleted sources are
    ignored, and a source or deleted vertex outside 0..n-1 raises
    ValueError.  `deleted` must be a collection, not an iterator: it is
    read twice.  The search also stops once every vertex not deleted is
    reached, rather than scan one more level that can find nothing.

    Each level runs in one of two directions (Beamer, Asanovic and
    Patterson, "Direction-Optimizing Breadth-First Search", SC 2012).
    Top-down scans the frontier's edges for unreached vertices; bottom-up
    scans the unreached vertices for a neighbour in the frontier, which is
    cheaper once the frontier is large and few vertices are left.  With
    `left` the number of vertices neither deleted nor reached yet, a level
    runs bottom-up iff len(frontier) > n*n // (2*m) and
    2*m*len(frontier) > n*n + left*(3*n + m).  The result does not depend
    on the direction: BFS distances are unique.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be >= 0")
    adj = G._adj
    n = G.n
    dist = [INF] * n
    left = n   # vertices neither deleted nor reached yet; repeats count once
    for x in deleted:
        if not 0 <= x < n:
            raise ValueError(f"deleted vertex {x} out of range for n={n}")
        left -= dist[x] is INF
        dist[x] = -1  # not INF, so the search never enters x
    frontier = []
    for s in sources:
        if not 0 <= s < n:
            raise ValueError(f"vertex {s} out of range for n={n}")
        if dist[s] is INF:
            dist[s] = 0
            frontier.append(s)
    m = G._m
    cut = n * n // (2 * m or 1)  # implied by the second test; a cheap filter
    left -= len(frontier)
    depth, until = 0, set(until)   # isdisjoint scans the frontier: skip it when empty
    while left and frontier and depth != radius and (not until or until.isdisjoint(frontier)):
        depth += 1
        size = len(frontier)
        if size > cut and 2 * m * size > n * n + left * (3 * n + m):
            # only `disjoint` is free in the comprehension, so `dist` and
            # `adj` stay fast locals for the top-down loop
            disjoint = set(frontier).isdisjoint
            nxt = [w for w, d, nbrs in zip(range(n), dist, adj)
                   if d is INF and not disjoint(nbrs)]
            for w in nxt:
                dist[w] = depth
        else:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] is INF:
                        dist[w] = depth
                        nxt.append(w)
        frontier = nxt
        left -= len(nxt)
    for x in deleted:
        dist[x] = INF
    return dist


def farthest_vertex(G: Graph, sources) -> int:
    """The lowest-id vertex farthest from `sources`, unreached ones counting as
    farthest: one outside `sources` if there is one (they lie at 0), else 0."""
    dist = bfs(G, sources)
    return dist.index(max(dist))


def components_without(G: Graph, removed) -> list:
    """Connected components of G minus `removed`, as sorted vertex lists."""
    removed = set(removed)
    for x in removed:  # checked here too, as bfs never runs if all are removed
        if not 0 <= x < G.n:
            raise ValueError(f"deleted vertex {x} out of range for n={G.n}")
    seen = set(removed)
    comps = []
    for s in range(G.n):
        if s not in seen:
            # every vertex below s is removed or in a component s cannot reach
            dist = bfs(G, (s,), removed)
            comp = [u for u in range(s, G.n) if dist[u] is not INF]
            comps.append(comp)
            seen.update(comp)
    return comps


def component_of(G: Graph, v: int, removed) -> list:
    """Sorted component of v in G minus `removed` (v must not be removed)."""
    if v in removed:
        raise ValueError("v is in the removed set")
    return [u for u, d in enumerate(bfs(G, (v,), removed)) if d is not INF]


# -- generators --------------------------------------------------------------

def gen_named(kind: str, n: int | None = None, seed: int | None = None, /, **params) -> Graph:
    """The graph of family `kind`, a key of FAMILIES, built from `n`, the
    keyword `params` (a null counts as absent) and, if the family reads it,
    `seed`.  Every key must be one the family reads."""
    if kind not in FAMILIES:
        raise GraphFormatError(f"unknown graph kind {kind!r}")
    reads, _, build = FAMILIES[kind]
    params = {key: v for key, v in {"n": n, **params}.items() if v is not None}
    unread = sorted(set(params) - set(reads))
    if unread:
        raise UsageError(f"family_params {', '.join(map(repr, unread))} "
                         f"not read by family {kind!r}")
    for key, types, name in (("n", int, "an integer"), ("p", (int, float), "a number")):
        if key in params and (isinstance(params[key], bool) or not isinstance(params[key], types)):
            raise UsageError(f"family_params {key!r} must be {name}, got {params[key]!r}")
    for key in reads:
        if key not in params:
            raise UsageError(f"{kind} family_params needs {key!r}")
    if params.get("n", 1) < 1:
        raise GraphFormatError(f"kind {kind!r} needs a positive size, got {params['n']}")
    return build(**params, seed=seed)


def _petersen(seed) -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def _grid2d(n: int, seed) -> Graph:   # vertex r * n + c is row r, column c
    rows = [(v, v + 1) for v in range(n * n) if v % n != n - 1]
    return Graph(n * n, rows + [(v, v + n) for v in range(n * n - n)])


def _random_tree(n: int, seed: int | None) -> Graph:
    rng = random.Random(seed)
    if n == 1:
        return Graph(1, [])
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    # linear-time decoding: each edge joins the smallest leaf to the next
    # code entry.  Leaves below `ptr` are used up, so an entry that becomes
    # a leaf below `ptr` is the smallest; else the scan moves on.
    edges, leaf = [], (ptr := degree.index(1))
    for v in prufer:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, n - 1))   # n - 1 is never the smallest of two leaves
    return Graph(n, edges)


# gen_named's families: kind -> (the keys it reads, whether it reads the seed,
# builder(**keys, seed)); n is the family's size parameter
FAMILIES = {
    "path": (("n",), False, lambda n, seed: Graph(n, [(i, i + 1) for i in range(n - 1)])),
    "cycle": (("n",), False, lambda n, seed: Graph(
        n, [(i, (i + 1) % n) for i in range(n if n > 2 else n - 1)])),
    "complete": (("n",), False, lambda n, seed: Graph(n, combinations(range(n), 2))),
    "grid2d": (("n",), False, _grid2d),   # n = side length
    "hypercube": (("n",), False, lambda n, seed: HypercubeGraph(n)),   # n = dimension
    "petersen": ((), False, _petersen),
    "random_tree": (("n",), True, _random_tree),   # a seeded Pruefer sequence
    # looked up at call time, so a wrapper set on the module's gen_gnp sees the call
    "gnp": (("n", "p"), True, lambda n, p, seed: gen_gnp(n, p, seed)),
}
SEEDED_KINDS = frozenset(kind for kind, (_, seeded, _) in FAMILIES.items() if seeded)


@lru_cache(maxsize=1)
def _ids(n: int) -> tuple:
    """0..n-1, shared by graphs and by `compress` calls, which then make no new ints."""
    return tuple(range(n))


def gen_gnp(n: int, p: float, seed: int | None = None) -> Graph:
    """G(n,p): each pair (u,v), u<v, kept independently w.p. p.

    Geometric skips (Batagelj and Brandes, "Efficient generation of large
    random networks", Phys. Rev. E 71, 2005): the pairs are walked in
    lexicographic order, and each draw U passes over the next
    floor(log(1 - U) / log(1 - p)) pairs to the one kept after them.  That
    is one draw per edge plus one past the last pair (none when p = 0), so
    the work is O(n + m), not one draw per pair.  The pairs come in order,
    so Graph._from_pairs appends each to both its rows, which come out
    sorted.  A seed fixes the graph wherever math.log rounds alike.
    """
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"p must lie in [0,1], got {p}")
    return Graph._from_pairs(n, _gnp_edges(n, p, seed))


def _gnp_edges(n: int, p: float, seed: int | None):
    """gen_gnp's kept pairs in lexicographic order, 0 <= p <= 1, with ends
    from _ids(n); none, and no draw, when p = 0."""
    if not p:
        return
    draw, log = random.Random(seed).random, math.log
    log_q = math.log1p(-p) if p < 1.0 else -INF   # log1p(-1) raises
    ids = _ids(n)
    left = n * (n - 1) // 2   # pairs after the current one
    u = v = 0                 # the current pair; (0, 0) stands before (0, 1)
    while True:
        skip = log(1.0 - draw()) / log_q
        if skip >= left:      # also an infinite skip, which int() rejects
            return
        skip = int(skip) + 1
        left -= skip
        v += skip
        while v >= n:         # past row u: row u + 1 starts at column u + 2
            u += 1
            v += u + 1 - n
        yield ids[u], ids[v]


# -- neighbourhood / path / cycle counting -----------------------------------

def _flags(x: int) -> bytes:
    """One byte per bit of x, lowest first: 1 where the bit is set, else 0."""
    return bin(x)[:1:-1].encode().translate(_FLAGS)


def check_ball_tables(n: int, count: int) -> None:
    """Raise CapExceededError if `count` ball tables of an n-vertex graph,
    about n*n/8 bytes each, pass BALL_TABLE_BYTES."""
    if count * (n * n // 8) > BALL_TABLE_BYTES:
        raise CapExceededError(f"ball table {count} passes {BALL_TABLE_BYTES} bytes")


def _ball_table(G: Graph, r: int) -> tuple:
    """Table r >= 1 of G's balls: bit u of entry v is set iff dist(u, v) <= r.

    Built on first use from table r - 1 (radius 0 is 1 << v) and cached on
    G.  Once a table equals the one before it, every ball is a whole
    component: none is built after it, and larger radii read it.
    """
    tables = G._balls
    while len(tables) < r and not G._whole:
        check_ball_tables(G.n, len(tables) + 1)
        prev = tables[-1] if tables else tuple(1 << v for v in range(G.n))
        table = tuple(reduce(or_, map(prev.__getitem__, a), prev[v]) for v, a in enumerate(G._adj))
        G._whole = table == prev
        if not (G._whole and tables):
            tables.append(table)
    return tables[min(r, len(tables)) - 1]


def kth_neighborhood(G: Graph, v: int, i: int) -> set:
    """Closed i-th neighborhood: all vertices within distance i of v."""
    if i < 0 or not 0 <= v < G.n:
        raise ValueError(f"radius {i} < 0 or vertex {v} out of range for n={G.n}")
    return set(compress(_ids(G.n), _flags(_ball_table(G, i)[v]))) if i else {v}


def count_paths(G: Graph, v: int, w: int, i: int) -> int:
    """Number of simple paths with exactly i edges joining v and w, counted
    by `_paths_to` on the rows of G's radius-1 ball table (see there)."""
    if not (0 <= v < G.n and 0 <= w < G.n):
        raise ValueError(f"endpoints ({v},{w}) out of range for n={G.n}")
    if v == w:
        raise ValueError("endpoints must differ")
    if i < 1:
        raise ValueError("path length must be >= 1")
    return _paths_to(G, v, w, i, G.distances_from(w))


def _paths_to(G: Graph, v: int, w: int, i: int, dist_to_w) -> int:
    """Simple v-w paths with exactly i edges, v != w and i >= 1.

    Sets are big ints: `rows` is the radius-1 ball table (row x is N[x]),
    and `path` holds the path so far, the current vertex and w.  The last
    two edges are counted at once, as the bits of N(w) & N[cur] off the
    path.  A step that leaves 3 edges sums that count over the rows of all
    of cur's neighbours in one C-level pass; that also counts each
    neighbour's own bit where it lies in N(w), and the neighbours on the
    path (w among them), so both are taken off.  A step that leaves 4 or
    more edges enters a vertex only if w is still in reach from it by
    `dist_to_w`, which need only be exact up to i, like bfs(G, (w,),
    radius=i) or min(dist, i + 1); entries below the distance only prune
    less, and i <= 3 needs none.
    """
    adj, rows = G._adj, _ball_table(G, 1)
    near_w = rows[w] ^ 1 << w

    def dfs(cur: int, path: int, remaining: int) -> int:
        if remaining > 3:
            return sum(dfs(nb, path | 1 << nb, remaining - 1) for nb in adj[cur]
                       if not path >> nb & 1 and dist_to_w[nb] < remaining)
        free = near_w & ~path
        last_two = (free & rows[cur]).bit_count()
        if remaining == 2:
            return last_two
        total = sum(map(int.bit_count, map(free.__and__, map(rows.__getitem__, adj[cur]))))
        total -= last_two   # the neighbours' own bits: those in free
        on = path & rows[cur] ^ 1 << cur   # neighbours on the path
        while on:
            total -= (free & rows[(on & -on).bit_length() - 1]).bit_count()
            on &= on - 1
        return total

    return dfs(v, 1 << v | 1 << w, i) if i > 1 else near_w >> v & 1


def _kth_bit(x: int, k: int) -> int:
    """Position of the k-th lowest set bit of x, for 0 <= k < x.bit_count()."""
    return bisect_right(range(x.bit_length()), k, key=lambda p: (x & ((2 << p) - 1)).bit_count())


def _ball_row(G: Graph, v: int, i: int) -> bytes:
    """The row of min(dist(u, v), i + 1) over all u (i >= 1) as bytes: i + 1
    minus the number of radii 0..i whose ball holds u, summed in one big int
    with a byte lane per vertex.  Lanes cap the row at 255, which for
    i >= 255 only prunes less.
    """
    n = G.n
    bit = 1 << v
    flags = [_flags(_ball_table(G, r)[v] ^ bit) for r in range(1, min(i, 254) + 1)]
    top = len(flags) + 1
    lanes = top * int.from_bytes(b"\1" * n, "little") - (top << 8 * v)
    return (lanes - sum(int.from_bytes(f, "little") for f in flags)).to_bytes(n, "little")


def count_cycles_through_edge(G: Graph, e, L: int) -> int:
    """Exact count of simple cycles of length <= L containing edge e.

    A cycle of length j through uv corresponds to a simple u,v-path with
    j-1 >= 2 edges, so the count is sum of P_j(u,v) for j = 2..L-1.
    Enumeration cost grows like degree^L, hence CYCLE_LEN_CAP.
    """
    u, v = e
    if not G.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    if L < 3:
        raise ValueError("cycle length bound must be >= 3")
    if L > CYCLE_LEN_CAP:
        raise CapExceededError(f"cycle length bound {L} exceeds cap {CYCLE_LEN_CAP}")
    return sum(count_paths(G, u, v, j) for j in range(2, L))


# -- domination ---------------------------------------------------------------

def dominates(G: Graph, s) -> bool:
    """True iff every vertex lies in the closed neighborhood of `s`; a vertex
    of `s` outside 0..n-1 raises ValueError."""
    masks, covered = _ball_table(G, 1), 0
    for v in s:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range for n={G.n}")
        covered |= masks[v]
    return covered == (1 << G.n) - 1


def greedy_dominating_set(G: Graph) -> set:
    """Repeatedly pick the vertex covering the most uncovered vertices.

    Ties broken by lowest vertex id, for determinism.
    """
    masks, uncovered, chosen = _ball_table(G, 1), (1 << G.n) - 1, set()  # closed nbhds
    while uncovered:
        best = max(range(G.n), key=lambda v: ((masks[v] & uncovered).bit_count(), -v))
        chosen.add(best)
        uncovered &= ~masks[best]
    return chosen


def exact_domination_number(G: Graph) -> int:
    """Minimum dominating set size, by branch and bound over bitmasks."""
    n = G.n
    if n > DOMINATION_N_CAP:
        raise CapExceededError(f"exact domination limited to n <= {DOMINATION_N_CAP}, got {n}")
    masks = _ball_table(G, 1)
    full = (1 << n) - 1
    best = len(greedy_dominating_set(G))

    def search(uncovered: int, size: int):
        nonlocal best
        if uncovered == 0:
            best = min(best, size)
            return
        if size + 1 >= best:
            return
        v = (uncovered & -uncovered).bit_length() - 1  # lowest uncovered vertex
        # some vertex of N[v] must be in any dominating set
        cands = sorted(
            [v, *G.neighbors(v)],
            key=lambda u: -(masks[u] & uncovered).bit_count(),
        )
        for u in cands:
            search(uncovered & ~masks[u], size + 1)

    search(full, 0)
    return best


# -- balanced separators ------------------------------------------------------

def _find(parent: list, c: int) -> int:
    """Root of c in the union-find forest `parent`, halving the path on the way."""
    while parent[c] != c:
        parent[c] = parent[parent[c]]
        c = parent[c]
    return c


def _prune(G: Graph, s, label: list, size: list, limit: int) -> set:
    """`s` visited in increasing order, dropping each vertex whose removal
    from it leaves every component within `limit`; G minus `s` must have no
    component above `limit`.

    label[u] is -1 for u in `s` and otherwise names u's component of G minus
    `s`, whose size is size[label[u]].  Only the labels of vertices next to
    `s` are read.  Putting v back changes only v's own component: it joins
    v with the components next to it, so a union-find over the labels tracks
    the merged sizes.  `label` and `size` are updated in place.
    """
    parent = list(range(len(size)))
    out = set(s)
    for v in sorted(s):
        roots = {_find(parent, label[w]) for w in G._adj[v] if label[w] >= 0}
        merged = 1 + sum(size[c] for c in roots)
        if merged <= limit:
            out.discard(v)
            if roots:
                root = roots.pop()
            else:
                root = len(size)
                parent.append(root)
                size.append(0)
            for c in roots:
                parent[c] = root
            size[root] = merged
            label[v] = root
    return out


def _prune_separator(G: Graph, s, limit: int):
    """None if G minus `s` has a component of more than `limit` vertices;
    else `s` pruned by `_prune`, with labels from one component search."""
    comps = components_without(G, s)
    if any(len(c) > limit for c in comps):
        return None
    label = [-1] * G.n
    for i, c in enumerate(comps):
        for u in c:
            label[u] = i
    return _prune(G, s, label, [len(c) for c in comps], limit)


def _level_separators(G: Graph, start: int, limit: int):
    """(level, pruned level) for each BFS level from `start` that leaves no
    component above `limit`, farthest level first; the graph is connected.

    The levels are added to a union-find from the far end inward, each
    vertex joined to its neighbours already added.  Before level d is
    added, they are the vertices beyond it, so the largest component
    outside the level is known; the ball inside it is one component.  The
    pruning labels come from the same sweep: the roots for level d + 1,
    one label for the ball on level d - 1.
    """
    n = G.n
    adj = G._adj
    dist = G.distances_from(start)
    # one empty level past the farthest, also read as level -1
    levels: list = [[] for _ in range(max(dist) + 2)]
    for v, d in enumerate(dist):
        levels[d].append(v)
    parent = [-1] * n   # -1 until added
    size = [1] * n
    biggest = 0         # largest component of the vertices added so far
    inside = n
    for d in range(len(levels) - 2, -1, -1):
        if biggest > limit:
            return      # components only grow as levels are added
        lvl = levels[d]
        inside -= len(lvl)
        if len(lvl) < n and inside <= limit:
            label = [-1] * n
            for u in levels[d + 1]:
                label[u] = _find(parent, u)
            for u in levels[d - 1]:
                label[u] = n
            yield lvl, _prune(G, lvl, label, size + [inside], limit)
        for u in lvl:
            parent[u] = root = u
            for w in adj[u]:
                if parent[w] >= 0 and (other := _find(parent, w)) != root:
                    if size[other] > size[root]:
                        root, other = other, root
                    parent[other] = root
                    size[root] += size[other]
            biggest = max(biggest, size[root])


def find_balanced_separator(G: Graph) -> set:
    """A set S whose removal leaves components of <= floor(2n/3) vertices.

    The smallest, then lexicographically first, of the BFS-level separators
    from every start vertex (one union-find sweep per start, see
    `_level_separators`) and the set left by repeated highest-degree
    removal, each pruned to a minimal valid subset by `_prune`.  Component
    searches remain only in the removal loop.  It is a heuristic: a smaller
    balanced set may exist.
    """
    if not G.is_connected():
        raise ValueError("separator finder requires a connected graph")
    n = G.n
    limit = (2 * n) // 3

    candidates = [pruned for start in range(n)
                  for _, pruned in _level_separators(G, start, limit)]

    removed: set = set()
    while (pruned := _prune_separator(G, removed, limit)) is None:
        removed.add(max((v for v in range(n) if v not in removed),
                        key=lambda v: (sum(w not in removed for w in G._adj[v]), -v)))
    candidates.append(pruned)

    return min(candidates, key=lambda s: (len(s), sorted(s)))


# -- text format ---------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then m lines "u v".  Q_d
    comes back as a HypercubeGraph, as the potential robber needs.  Graph
    checks n, vertex ranges and loops; a repeated edge leaves G.m < m."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input")
    n, m = _int_pair(lines[0], "header")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(lines) - 1}")
    d = n.bit_length() - 1
    if d >= 1 and n == 1 << d and m == d << (d - 1) and _cube_edges(lines, d):
        return HypercubeGraph(d)
    G = Graph(n, map(_int_pair, lines[1:]))
    if G.m < m:
        seen = set()
        for u, v in map(_int_pair, lines[1:]):
            if (key := (min(u, v), max(u, v))) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add(key)
    return G


def _cube_edges(lines: list, d: int) -> bool:
    """Whether the d * 2**(d - 1) edge lines after the header are distinct
    edges of Q_d, i.e. Q_d's edges.  Each is marked by its (lower end,
    flipped bit) in a bytearray, so no Graph is built.  A malformed line
    raises as it would in Graph's pass, which would accept every line
    before it; any other line outside Q_d's edges gives False."""
    n, marked = 1 << d, bytearray(d << d)
    for u, v in map(_int_pair, islice(lines, 1, None)):
        flip = u ^ v
        if not (0 <= u < n and 0 <= v < n and flip and not flip & (flip - 1)):
            return False
        i = min(u, v) * d + flip.bit_length() - 1
        if marked[i]:
            return False
        marked[i] = 1
    return True


def _int_pair(line: str, what="edge line") -> tuple:
    """The two integers of `line`, else GraphFormatError naming it as `what`."""
    try:
        u, v = map(int, line.split())
    except ValueError as exc:
        raise GraphFormatError(f"malformed {what} {line!r}") from exc
    return u, v


def serialize_graph(G: Graph) -> str:
    """Edge-list text with edges sorted (u<v, lexicographic), LF endings."""
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"
