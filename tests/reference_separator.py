"""Reference separators and separator cops for the differential tests.

The direct form of `find_balanced_separator(G)`: every BFS
level from every start vertex that is a valid separator, and the repeated
highest-degree removal, each pruned by re-checking the whole separator once
per vertex.  It is slow, but it shares no code with `lazycops.graph` beyond
the graph's accessors, so it can catch mistakes in the level shortcuts and
the union-find pruning there.

`exact_separator` is the minimum balanced separator by increasing-size
subset search, exponential in n: the oracle that the heuristic is never
smaller than.

`ReferenceSeparatorCops` plans its regions with `reference_separator` and
keeps the separator cops' earlier bookkeeping: a position for every cop,
the unposted cops by index, the walking cop and its distance row held in
two cursors, and the report built from a log appended during planning.  The
strategy itself plans with `find_balanced_separator`, holds only the
guards and the walker's vertex, and reads the report off its plan; the
differential tests check that both forms plan, play and report alike.
"""

from itertools import combinations

from lazycops.bounds import ght_separator_bound
from lazycops.game import PASS, CopMove
from reference_bfs import reference_bfs


def _components(G, removed):
    seen = set(removed)
    comps = []
    for s in range(G.n):
        if s in seen:
            continue
        seen.add(s)
        comp, stack = [s], [s]
        while stack:
            for w in G.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _ok(G, s, limit):
    return all(len(c) <= limit for c in _components(G, s))


def _prune(G, s, limit):
    out = set(s)
    for v in sorted(s):
        if _ok(G, out - {v}, limit):
            out.discard(v)
    return out


def _levels(G, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in G.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    levels = {}
    for v in range(G.n):
        levels.setdefault(dist[v], []).append(v)
    return levels.values()


def reference_separator(G):
    """The heuristic separator of the connected graph G."""
    n = G.n
    limit = (2 * n) // 3
    candidates = []
    for start in range(n):
        for lvl in _levels(G, start):
            if len(lvl) < n and _ok(G, lvl, limit):
                candidates.append(_prune(G, lvl, limit))

    removed = set()
    while not _ok(G, removed, limit):
        best = max((v for v in range(n) if v not in removed),
                   key=lambda v: (sum(1 for w in G.neighbors(v) if w not in removed), -v))
        removed.add(best)
    candidates.append(_prune(G, removed, limit))
    return min(candidates, key=lambda s: (len(s), sorted(s)))


def exact_separator(G):
    """The first, in increasing size and then lexicographic order, of the
    smallest sets whose removal leaves components of <= floor(2n/3)
    vertices."""
    n = G.n
    limit = (2 * n) // 3
    for size in range(n):   # n - 1 vertices always do once n >= 2
        for s in combinations(range(n), size):
            if _ok(G, s, limit):
                return set(s)
    return set(range(n))


class _Induced:
    """The subgraph of G on the sorted `region`, relabelled 0..len(region)-1."""

    def __init__(self, G, region):
        index = {v: i for i, v in enumerate(region)}
        self.n = len(region)
        self._nbrs = [[index[w] for w in G.neighbors(v) if w in index] for v in region]

    def neighbors(self, i):
        return self._nbrs[i]


class ReferenceSeparatorCops:
    """Separator cops planned with `reference_separator`, with a per-cop
    position list, a stored walk and a log-built report."""

    def __init__(self, G):
        self._G = G
        self._plan = {}  # region tuple -> its separator tuple, in visit order
        self._log = []  # (region, separator, within the GHT bound), in visit order
        self.required_cops = self._required(list(range(G.n)))
        self.root_separator = list(self._plan[tuple(range(G.n))])

    def _required(self, region):
        if len(region) == 1:
            sep = tuple(region)
        else:
            sep = tuple(sorted(region[i] for i in reference_separator(_Induced(self._G, region))))
        self._plan[tuple(region)] = sep
        self._log.append((region, sep, len(sep) <= ght_separator_bound(len(region), 0)))
        removed = set(range(self._G.n)) - (set(region) - set(sep))
        subs = [sorted(comp) for comp in _components(self._G, removed)]
        return len(sep) + max((self._required(comp) for comp in subs), default=0)

    def separator_report(self):
        return {
            "required_cops": self.required_cops,
            "all_separators_within_ght_bound": all(ok for _, _, ok in self._log),
            "levels": [{"region_size": len(region), "separator_size": len(sep)}
                       for region, sep, _ in self._log],
        }

    def place(self, G, k):
        sep = self.root_separator
        self._cops = sep + [sep[0]] * (k - len(sep))
        self._posted = set(sep)
        self._unposted = list(range(len(sep), k))
        self._targets = []
        self._walker = self._walk_dist = None
        return list(self._cops)

    def _emit(self, state, idx, target):
        move = CopMove(state.cops.index(self._cops[idx]), target)
        self._cops[idx] = target
        return move

    def move(self, G, state):
        r = state.robber
        for idx, u in enumerate(self._cops):
            if G.has_edge(u, r):
                return self._emit(state, idx, r)
        if self._walker is None:
            if not self._targets:
                region = next(c for c in _components(G, self._posted) if r in c)
                self._targets = list(self._plan[tuple(sorted(region))])
            if not self._unposted:
                return PASS
            self._walker = self._unposted[0]
            self._walk_dist = reference_bfs(G, (self._targets[0],))
        u = self._cops[self._walker]
        u = min(t for t in G.neighbors(u) if self._walk_dist[t] < self._walk_dist[u])
        move = self._emit(state, self._walker, u)
        if u == self._targets[0]:
            self._posted.add(u)
            self._unposted.remove(self._walker)
            self._walker = self._walk_dist = None
            self._targets.pop(0)
        return move
