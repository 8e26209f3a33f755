"""Reference hypercube for the differential tests.

The earlier form of `lazycops.graph.HypercubeGraph`: Q_dim built by
`Graph.__init__` from a list of its dim * 2**(dim - 1) edges, which
checks each edge and gathers every row in a set.  `HypercubeGraph` builds
its rows straight from the bit flips; this copy does not, so it can catch
a row that is out of order, short or made of the wrong vertices.
"""

from lazycops.graph import Graph


class EdgeListHypercube(Graph):
    """Q_dim from its edge list, with the `dim` of a HypercubeGraph."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        n = 1 << dim
        edges = [(u, u ^ (1 << b)) for u in range(n) for b in range(dim) if u < u ^ (1 << b)]
        super().__init__(n, edges)
        self.dim = dim
