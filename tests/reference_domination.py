"""Reference greedy dominating set for the differential tests.

The set-based form of `lazycops.graph.greedy_dominating_set`: every pick
scans all vertices and counts each one's uncovered closed neighbours
through the adjacency lists, keeping the first (lowest-id) best.  The
package reads bitmasks from ball table 1 instead; this copy shares nothing
with that table, so it can catch a wrong count or tie-break there.
"""


def reference_greedy_dominating_set(G):
    uncovered = set(range(G.n))
    chosen = set()
    while uncovered:
        best, best_gain = None, -1
        for v in range(G.n):
            gain = (v in uncovered) + sum(1 for w in G.neighbors(v) if w in uncovered)
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.add(best)
        uncovered.discard(best)
        uncovered.difference_update(G.neighbors(best))
    return chosen
