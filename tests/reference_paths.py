"""Reference path counters for the differential tests.

`reference_paths_to` is the earlier form of `lazycops.graph._paths_to`,
with the same arguments: the path a Python set, and the last two edges
counted as a set intersection of adjacency rows.  The kernel now reads the
rows of the radius-1 ball table as big ints and counts a step with three
edges left in one pass over them, less two corrections; this copy does
neither, so it can catch a mistake in them.

`reference_count_paths` is the earlier form of
`lazycops.graph.count_paths`: a depth-first search from v over simple
paths, cut only where the full distance row from w says w is out of
reach, which recurses into every neighbour down to length 0.  The
kernel `_paths_to` prunes harder (it never enters a vertex farther from w
than the length left, nor w itself before the end) and accepts a row that
is exact only up to distance i; this copy does neither, and it takes its
distances from `reference_bfs`, so it can catch mistakes in that pruning.
"""

from reference_bfs import reference_bfs


def reference_count_paths(G, v, w, i):
    """Number of simple paths with exactly i edges joining v and w."""
    if v == w:
        raise ValueError("endpoints must differ")
    if i < 1:
        raise ValueError("path length must be >= 1")
    dist_to_w = reference_bfs(G, (w,))
    visited = [False] * G.n
    visited[v] = True

    def dfs(cur, remaining):
        if remaining == 0:
            return 1 if cur == w else 0
        if dist_to_w[cur] > remaining:
            return 0
        total = 0
        for nb in G.neighbors(cur):
            if nb == w:
                if remaining == 1:
                    total += 1
                continue
            if not visited[nb]:
                visited[nb] = True
                total += dfs(nb, remaining - 1)
                visited[nb] = False
        return total

    return dfs(v, i)


def reference_paths_to(G, v, w, i, dist_to_w):
    """Simple v-w paths with exactly i edges, v != w and i >= 1, pruned on
    `dist_to_w` where 3 or more edges are left (None is allowed for i <= 3)."""
    adj = G._adj
    near_w = set(adj[w])
    path = {v}

    def dfs(cur, remaining):
        if remaining == 2:
            common = near_w.intersection(adj[cur])
            return len(common) - len(common & path)
        total = 0
        for nb in adj[cur]:
            if nb != w and nb not in path and (remaining == 3 or dist_to_w[nb] < remaining):
                path.add(nb)
                total += dfs(nb, remaining - 1)
                path.remove(nb)
        return total

    return dfs(v, i) if i > 1 else int(v in near_w)
