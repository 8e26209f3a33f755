"""The experiment runner's per-run reuse of graphs and per-graph builds.

A run keeps the last graph and its per_graph memo across trials and makes
players on every trial through that memo; its rows must be those of a loop
that builds a fresh graph and fresh players for each trial.
"""

import csv
import io
import itertools
import json

import pytest

from lazycops import experiments, strategies
from lazycops.experiments import ExperimentConfig, run_experiment
from lazycops.game import play
from lazycops.graph import FAMILIES, SEEDED_KINDS, gen_gnp, gen_named
from lazycops.strategies import make_players


def _fresh_rows(cfg: ExperimentConfig) -> list:
    """The trial rows, each from a graph and players built for that trial alone."""
    rows = []
    for trial in range(cfg.trials):
        seed = cfg.master_seed + trial
        fp = cfg.family_params
        G = (gen_gnp(fp["n"], fp["p"], seed) if cfg.family == "gnp"
             else gen_named(cfg.family, fp.get("n"), seed))
        cops, robber = make_players(cfg.cop_strategy, cfg.robber_strategy, G, cfg.k, seed)
        record = play(G, cops, robber, cfg.k, cfg.max_rounds, record_transcript=False)
        rows.append({"trial": trial, "seed": seed, "n": G.n,
                     "params": experiments._params_label(cfg), "k": cfg.k,
                     "cop_strategy": cfg.cop_strategy, "robber_strategy": cfg.robber_strategy,
                     "outcome": record.outcome, "rounds": record.rounds_played})
    return rows


_FAMILIES = {
    "grid2d": {"n": 4},
    "hypercube": {"n": 3},
    "random_tree": {"n": 11},
    "gnp": {"n": 11, "p": 0.45},
}
# (cops, robber, k): every spec, each against a seeded and a deterministic side
_PAIRS = [
    ("greedy", "greedy", 2),
    ("random", "random", 2),
    ("random:seed=3", "random:seed=3", 2),
    ("greedy", "random", 1),
    ("random", "greedy", 1),
    ("optimal", "optimal", 2),
    ("optimal", "random", 2),
    ("random:seed=3", "optimal", 1),
    ("separator", "random", 11),
    ("separator", "greedy", 11),
    ("dominating", "random", 11),
    ("greedy", "gnp:alpha=0.4", 1),
    ("random", "gnp:alpha=0.4", 1),
]
# the potential robber needs a larger hypercube (dimension 6 has no weight system)
_CASES = [(family, _FAMILIES[family], *pair)
          for family, pair in itertools.product(_FAMILIES, _PAIRS)] + [
    ("hypercube", {"n": 8}, "greedy", "potential", 1),
    ("hypercube", {"n": 8}, "random", "potential", 2),
    ("hypercube", {"n": 8}, "random:seed=3", "potential", 2),
    ("hypercube", {"n": 8}, "dominating", "potential", 32),
]


@pytest.mark.parametrize("family,fp,cops,robber,k", _CASES,
                         ids=[f"{c[0]}{c[1]['n']}-{c[2]}-{c[3]}-k{c[4]}" for c in _CASES])
def test_reused_builds_give_the_fresh_rows(family, fp, cops, robber, k):
    cfg = ExperimentConfig(family=family, family_params=fp, k=k,
                           cop_strategy=cops, robber_strategy=robber,
                           trials=4, master_seed=5, max_rounds=40)
    rows = run_experiment(cfg)
    assert rows[:-1] == _fresh_rows(cfg)


def test_fmt_rounds_floats_only():
    assert experiments._fmt(0.1 + 0.2) == "0.3" and experiments._fmt(2 / 3) == "0.666667"
    assert experiments._fmt(3) == "3" and experiments._fmt("-") == "-"


# survival rates 1/4, 1/3 and 0
_AGGREGATE_CONFIGS = {
    "grid2d": ExperimentConfig(family="grid2d", family_params={"n": 4}, k=1,
                               cop_strategy="random", robber_strategy="random",
                               trials=4, max_rounds=6),
    "gnp-seeded": ExperimentConfig(family="gnp", family_params={"n": 11, "p": 0.45}, k=1,
                                   cop_strategy="random", robber_strategy="random",
                                   trials=3, master_seed=3, max_rounds=5),
    "path-bounds-query": ExperimentConfig(family="path", family_params={"n": 4},
                                          bounds_query={"which": "genus", "n": 4, "g": 0},
                                          trials=3),
}


@pytest.mark.parametrize("name", _AGGREGATE_CONFIGS)
def test_aggregate_row_is_derived_from_the_trial_rows(name):
    cfg = _AGGREGATE_CONFIGS[name]
    *trials, aggregate = run_experiment(cfg)
    assert len(trials) == cfg.trials
    for row in trials:
        assert all(aggregate[key] == row[key]
                   for key in ("n", "params", "k", "cop_strategy", "robber_strategy"))
    survivals = sum(row["outcome"] == "survival" for row in trials)
    assert aggregate == {**aggregate, "trial": "aggregate", "seed": "",
                         "outcome": "survival_rate",
                         "rounds": experiments._fmt(survivals / cfg.trials)}
    assert list(aggregate) == list(experiments.CSV_COLUMNS)


def test_random_rows_vary_across_trials():
    # the trial seed reaches random players built on a reused graph
    cfg = ExperimentConfig(family="grid2d", family_params={"n": 5}, k=1,
                           cop_strategy="random", robber_strategy="random",
                           trials=6, max_rounds=60)
    assert len({row["rounds"] for row in run_experiment(cfg)[:-1]}) > 1


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_optimal_run_solves_once(monkeypatch):
    solves = _count_calls(monkeypatch, strategies, "solve_lazy")
    cfg = ExperimentConfig(family="grid2d", family_params={"n": 6}, k=2,
                           cop_strategy="optimal", robber_strategy="optimal", trials=10)
    rows = run_experiment(cfg)
    assert len(solves) == 1
    assert {row["outcome"] for row in rows[:-1]} == {"capture"}


def test_optimal_against_unseeded_random_solves_once(monkeypatch):
    # the random robber reads the trial seed; each trial makes new players
    solves = _count_calls(monkeypatch, strategies, "solve_lazy")
    made = _count_calls(monkeypatch, experiments, "make_players")
    cfg = ExperimentConfig(family="grid2d", family_params={"n": 6}, k=2,
                           cop_strategy="optimal", robber_strategy="random", trials=10)
    rows = run_experiment(cfg)
    assert len(solves) == 1 and len(made) == 10
    assert rows[:-1] == _fresh_rows(cfg)


@pytest.mark.parametrize("family,fp,graphs", [
    ("gnp", {"n": 30, "p": 0.2}, 5),
    ("random_tree", {"n": 30}, 5),
    ("grid2d", {"n": 5}, 1),
    ("hypercube", {"n": 4}, 1),
])
def test_graphs_built_per_seed_read(monkeypatch, family, fp, graphs):
    built = _count_calls(monkeypatch, experiments, "gen_named")
    cfg = ExperimentConfig(family=family, family_params=fp, k=1, trials=5)
    run_experiment(cfg)
    assert len(built) == graphs


@pytest.mark.parametrize("family,fp,graphs", [("grid2d", {"n": 3}, 1),
                                               ("random_tree", {"n": 9}, 5)])
@pytest.mark.parametrize("cops,robber,k,build", [
    ("separator", "random", 5, "SeparatorCopStrategy"),
    ("dominating", "random", 4, "DominatingCopStrategy"),
    ("optimal", "random", 1, "solve_lazy"),
    ("random", "optimal", 1, "solve_lazy"),
    ("optimal", "optimal", 1, "solve_lazy"),
])
def test_one_build_per_graph(monkeypatch, family, fp, graphs, cops, robber, k, build):
    # every trial makes players, and a random partner reads the trial seed;
    # the plan, dominating set or solve (shared by two optimal sides) is
    # built once per graph
    built = _count_calls(monkeypatch, strategies, build)
    made = _count_calls(monkeypatch, experiments, "make_players")
    cfg = ExperimentConfig(family=family, family_params=fp, k=k,
                           cop_strategy=cops, robber_strategy=robber, trials=5)
    rows = run_experiment(cfg)
    assert len(built) == graphs and len(made) == 5
    assert rows[:-1] == _fresh_rows(cfg)


def test_seeded_graph_players_rebuilt_on_each_graph(monkeypatch):
    # players of a deterministic pair still follow the graph they play on
    made = _count_calls(monkeypatch, experiments, "make_players")
    cfg = ExperimentConfig(family="random_tree", family_params={"n": 9}, k=1, trials=4)
    run_experiment(cfg)
    assert [args[2] for args in made] == [gen_named("random_tree", 9, s) for s in range(4)]


@pytest.mark.parametrize("kind", sorted(set(FAMILIES) - SEEDED_KINDS))
def test_unseeded_kinds_ignore_the_seed(kind):
    reads, _, _ = FAMILIES[kind]
    for n in (1, 2, 3, 5, 8) if "n" in reads else (None,):
        assert gen_named(kind, n, 0) == gen_named(kind, n, 1)


@pytest.mark.parametrize("family", sorted(SEEDED_KINDS))
def test_seeded_families_read_the_seed(family):
    reads, _, _ = FAMILIES[family]
    fp = {key: v for key, v in {"n": 12, "p": 0.3}.items() if key in reads}
    graphs = {gen_named(family, None, seed, **fp) for seed in range(4)}
    assert len(graphs) > 1


def test_json_out_rows_equal_the_csv_rows(tmp_path):
    json_path, csv_path = tmp_path / "rows.json", tmp_path / "rows.csv"
    cfg = ExperimentConfig(family="gnp", family_params={"n": 11, "p": 0.45}, k=1,
                           cop_strategy="random", robber_strategy="random",
                           trials=5, master_seed=2, max_rounds=30, json_out=str(json_path))
    rows = run_experiment(cfg, str(csv_path))
    text = json_path.read_text(encoding="utf-8")
    assert text.endswith("]\n") and not text.endswith("\n\n")
    written = json.loads(text, object_pairs_hook=lambda pairs: pairs)
    header, *body = csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8")))
    assert tuple(header) == experiments.CSV_COLUMNS and len(body) == len(rows) == 6
    for pairs, row, csv_row in zip(written, rows, body):
        assert [key for key, _ in pairs] == sorted(experiments.CSV_COLUMNS)
        assert dict(pairs) == row
        assert [str(row[col]) for col in header] == csv_row
    assert body[-1][0] == "aggregate"
