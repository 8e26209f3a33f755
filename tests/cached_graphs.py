"""Test graphs named by a spec and built at first use.

Test modules parametrize over specs such as ("grid2d", 4) and build the
graph inside the test, so that a generator fault fails the tests that use
the graph and not the collection of their module.
"""

import functools

from lazycops.graph import gen_gnp, gen_named
from reference_gnp import pairwise_gnp


@functools.cache
def cached_graph(kind, *args):
    """gen_gnp(*args) for kind "gnp", reference_gnp.pairwise_gnp(*args) for
    "pairwise_gnp", else gen_named(kind, *args); one graph per spec."""
    if kind == "gnp":
        return gen_gnp(*args)
    if kind == "pairwise_gnp":
        return pairwise_gnp(*args)
    return gen_named(kind, *args)
