"""Reference balanced-separator heuristic for the differential tests.

The direct form of `find_balanced_separator(G, "heuristic")`: every BFS
level from every start vertex that is a valid separator, and the repeated
highest-degree removal, each pruned by re-checking the whole separator once
per vertex.  It is slow, but it shares no code with `lazycops.graph` beyond
the graph's accessors, so it can catch mistakes in the level shortcuts and
the union-find pruning there.
"""


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
