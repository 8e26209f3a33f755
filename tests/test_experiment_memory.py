"""An experiment run holds one game in memory at a time.

A run drops its last graph, and the solve and players built on it, before
it builds the next graph, so memory does not grow with `trials`.
"""

import gc

import pytest

from lazycops import experiments
from lazycops.experiments import ExperimentConfig, run_experiment
from lazycops.graph import Graph


def _live_graphs(n: int) -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Graph) and obj.n == n)


@pytest.mark.parametrize("cops", ["greedy", "optimal", "random"])
def test_the_last_game_is_dropped_before_the_next_graph_is_built(monkeypatch, cops):
    n = 13
    build, live = experiments.gen_named, []
    before = _live_graphs(n)   # graphs of size n that other tests keep

    def counted(*args, **kwargs):
        live.append(_live_graphs(n) - before)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "gen_named", counted)
    # random_tree reads the seed, so each trial builds a graph; the optimal
    # cops hold a solve of it
    cfg = ExperimentConfig(family="random_tree", family_params={"n": n}, k=1,
                           cop_strategy=cops, robber_strategy="greedy", trials=4)
    rows = run_experiment(cfg)
    assert live == [0, 0, 0, 0]
    assert all(row["n"] == n for row in rows)
