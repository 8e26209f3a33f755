"""Batch experiment runner with reproducible CSV/JSON output.

Trial i uses seed master_seed + i.  Trials run in trial order on the
calling thread; the `workers` config field is accepted and type-checked
but does not change how trials run.  A run resolves k and parses both
specs once, then plays one game at a time: it builds a new graph only
when the family reads the seed (graph.SEEDED_KINDS), and a new graph
brings a new strategies.per_graph memo, after the last graph and memo are
dropped.  Players are made on every trial through the graph's memo, which
builds each solve, separator plan and dominating set once per graph.  The
rows equal those of fresh builds per trial.  Floats are formatted at 6
significant digits and the column order is fixed, making identical
configs byte-identical on disk.
"""

from __future__ import annotations

import csv
import io
import json
import typing
from dataclasses import dataclass, field

from .errors import UsageError
from .game import play
from .graph import SEEDED_KINDS, Graph, gen_named
from .bounds import theoretical_bounds
from .strategies import make_players, parse_specs, per_graph

CSV_COLUMNS = (
    "trial", "seed", "n", "params", "k",
    "cop_strategy", "robber_strategy", "outcome", "rounds",
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


@dataclass
class ExperimentConfig:
    family: str
    family_params: dict = field(default_factory=dict)
    cop_strategy: str = "greedy"
    robber_strategy: str = "greedy"
    k: int | None = None
    bounds_query: dict | None = None
    trials: int = 1
    max_rounds: int = 100
    master_seed: int = 0
    workers: int = 1
    json_out: str | None = None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        if "family" not in data:
            raise UsageError("config needs a 'family'")
        hints = typing.get_type_hints(cls)
        for name, value in data.items():
            # a field's type, or (type, NoneType) for a nullable one; bool is never an int
            kinds = typing.get_args(hints[name]) or (hints[name],)
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise UsageError(f"config field {name!r} must be {kinds[0].__name__}"
                                 f"{' or null' if len(kinds) > 1 else ''}, got {value!r}")
        cfg = cls(**data)
        if cfg.k is None and cfg.bounds_query is None:
            raise UsageError("config needs an explicit k or a bounds_query")
        if cfg.trials < 1:
            raise UsageError("trials must be >= 1")
        return cfg


def _resolve_k(cfg: ExperimentConfig) -> int:
    if cfg.k is not None:
        return cfg.k
    query = dict(cfg.bounds_query)
    if "which" not in query:
        raise UsageError("bounds_query needs a 'which' key")
    which = query.pop("which")
    return theoretical_bounds(which, **query).integer_budget()


def _params_label(cfg: ExperimentConfig) -> str:
    # n has its own column; the other keys a family reads are numbers
    keys = sorted((key, v) for key, v in cfg.family_params.items() if key != "n" and v is not None)
    return ",".join(f"{key}={_fmt(float(v))}" for key, v in keys) or "-"


def run_trial(cfg: ExperimentConfig, trial: int, G: Graph, k: int, players) -> dict:
    """The row of trial `trial`, a game of the pair `players` with k cops on G."""
    record = play(G, *players, k, cfg.max_rounds, record_transcript=False)
    return {
        "trial": trial,
        "seed": cfg.master_seed + trial,
        "n": G.n,
        "params": _params_label(cfg),
        "k": k,
        "cop_strategy": cfg.cop_strategy,
        "robber_strategy": cfg.robber_strategy,
        "outcome": record.outcome,
        "rounds": record.rounds_played,
    }


def run_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> list:
    """All trial rows plus the aggregate row; optionally written as CSV."""
    k = _resolve_k(cfg)
    specs = cfg.cop_strategy, cfg.robber_strategy
    parse_specs(*specs)   # a bad spec is reported before a bad family
    G, rows = None, []
    for trial in range(cfg.trials):
        seed = cfg.master_seed + trial
        if G is None or cfg.family in SEEDED_KINDS:
            G = once = None   # the last graph and its builds go before the next graph is built
            G = gen_named(cfg.family, None, seed, **cfg.family_params)
            once = per_graph(G)
        rows.append(run_trial(cfg, trial, G, k, make_players(*specs, G, k, seed, once)))

    rate = sum(r["outcome"] == "survival" for r in rows) / len(rows)
    rows.append({**rows[0], "trial": "aggregate", "seed": "", "outcome": "survival_rate",
                 "rounds": _fmt(rate)})

    if out_path is not None:
        text = rows_to_csv(rows)
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if cfg.json_out is not None:
        with open(cfg.json_out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([row[col] for col in CSV_COLUMNS])
    return buf.getvalue()
