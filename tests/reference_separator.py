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

`ReferenceSeparatorCops` keeps the separator cops' earlier bookkeeping: the
walking cop and its distance row held in two cursors, and the report built
from a log appended during planning.  The strategy itself derives the walk
from its unposted cops and targets and reads the report off its plan; the
differential tests check that both forms play and report alike.
"""

from itertools import combinations

from lazycops.bounds import ght_separator_bound
from lazycops.game import PASS
from lazycops.graph import component_of
from lazycops.strategies import SeparatorCopStrategy


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


class ReferenceSeparatorCops(SeparatorCopStrategy):
    """Separator cops with a stored walk and a log-built report."""

    def __init__(self, G):
        self._log = []  # (region, separator, within the GHT bound), in visit order
        super().__init__(G)

    def _required(self, region):
        sep = self._separator_of(region)
        self._log.append((region, sep, len(sep) <= ght_separator_bound(len(region), 0)))
        return super()._required(region)

    def separator_report(self):
        return {
            "required_cops": self.required_cops,
            "all_separators_within_ght_bound": all(ok for _, _, ok in self._log),
            "levels": [{"region_size": len(region), "separator_size": len(sep)}
                       for region, sep, _ in self._log],
        }

    def place(self, G, k):
        placement = super().place(G, k)
        self._walker = self._walk_dist = None
        return placement

    def move(self, G, state):
        r = state.robber
        for idx, u in enumerate(self._cops):
            if G.has_edge(u, r):
                return self._emit(state, idx, r)
        if self._walker is None:
            if not self._targets:
                self._targets = list(self._separator_of(component_of(G, r, self._posted)))
            if not self._unposted:
                return PASS
            self._walker = self._unposted[0]
            self._walk_dist = G.distances_from(self._targets[0])
        u = self._cops[self._walker]
        u = min(t for t in G.neighbors(u) if self._walk_dist[t] < self._walk_dist[u])
        move = self._emit(state, self._walker, u)
        if u == self._targets[0]:
            self._posted.add(u)
            self._unposted.remove(self._walker)
            self._walker = self._walk_dist = None
            self._targets.pop(0)
        return move
