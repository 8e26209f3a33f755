"""Reference edge-list parser for the differential tests.

The earlier form of `lazycops.graph.parse_graph`: every file goes through
`Graph`, and a file whose graph equals Q_d is then swapped for
`HypercubeGraph(d)`.  `parse_graph` now checks a cube header's edge lines
against Q_d's edges without building a `Graph`; this copy does not, so it
can catch a result, an error message or an error order that differs.
"""

from lazycops.errors import GraphFormatError
from lazycops.graph import Graph, HypercubeGraph, _int_pair


def reference_parse_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty input")
    n, m = _int_pair(lines[0], "header")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(lines) - 1}")
    G, d = Graph(n, map(_int_pair, lines[1:])), n.bit_length() - 1
    if G.m < m:
        seen = set()
        for u, v in map(_int_pair, lines[1:]):
            if (key := (min(u, v), max(u, v))) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            seen.add(key)
    if d >= 1 and n == 1 << d and m == d << (d - 1) and G == (Q := HypercubeGraph(d)):
        return Q
    return G
