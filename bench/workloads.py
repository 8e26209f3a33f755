"""Inputs, operations and output checks of the benchmark workloads.

A workload is a fixed list of CLI operations run as a closed loop with one
client: each operation starts when the previous one has returned.  Its
inputs are made from the seed alone and written to files; only those files
and the argv reach the program.  Every check can fail: answers on fixed
graphs are pinned, and answers on seeded graphs are checked structurally.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import ceil, comb, log
from pathlib import Path
from typing import Callable

CSV_COLUMNS = ["trial", "seed", "n", "params", "k",
               "cop_strategy", "robber_strategy", "outcome", "rounds"]


class CheckError(Exception):
    """An operation's output is wrong."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Checked:
    canonical: bytes            # output minus timings; equal for equal seeds
    facts: dict = field(default_factory=dict)   # states, rounds, trials, samples


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[str], Checked]   # stdout -> Checked, raises CheckError


@dataclass
class Workload:
    name: str
    make: Callable      # (lazycops, seed, workdir) -> (ops, inputs)
    rates: Callable     # (op results) -> {metric: value}
    expected_spans: tuple   # spans that must record calls on this workload
    consistency: Callable | None = None   # (lazycops, inputs, results), untimed


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def _rate(results, fact: str) -> float:
    """Work per second over the operations that report `fact`."""
    chosen = [r for r in results if fact in r["facts"]]
    seconds = sum(r["seconds"] for r in chosen)
    return sum(r["facts"][fact] for r in chosen) / seconds if seconds else 0.0


# -- solve ----------------------------------------------------------------------

def _solve_check(n: int, k: int, mode: str, cop_win: bool | None):
    """Summary of one solve; cop_win None means seeded, not pinned."""
    def check(stdout: str) -> Checked:
        out = json.loads(stdout)
        require(set(out) == {"n", "k", "mode", "cop_win", "states", "seconds"},
                f"solve summary keys {sorted(out)}")
        require((out["n"], out["k"], out["mode"]) == (n, k, mode),
                f"solved n={out['n']} k={out['k']} mode={out['mode']}")
        states = 2 * n * comb(n + k - 1, k)
        require(out["states"] == states, f"states {out['states']} != {states}")
        require(isinstance(out["cop_win"], bool), "cop_win is not a boolean")
        if cop_win is not None:
            require(out["cop_win"] is cop_win, f"cop_win {out['cop_win']} != {cop_win}")
        require(out["seconds"] >= 0, "negative solve time")
        del out["seconds"]
        return Checked(json.dumps(out, sort_keys=True).encode(), {"states": states})
    return check


def _copnum_check(expected: int):
    def check(stdout: str) -> Checked:
        out = json.loads(stdout)
        require(out == {"c_L": expected}, f"copnum {out} != c_L={expected}")
        return Checked(stdout.encode())
    return check


def _first_connected_gnp(lc, n: int, p: float, seed: int):
    s = seed
    while True:
        G = lc.gen_gnp(n, p, s)
        if G.is_connected():
            return G
        s += 1


def _make_solve(lc, seed: int, work: Path):
    inputs = {
        "grid6": _write(work / "grid6.txt", lc.serialize_graph(lc.gen_named("grid2d", 6))),
        "gnp30": _write(work / "gnp30.txt",
                        lc.serialize_graph(_first_connected_gnp(lc, 30, 0.2, seed))),
        "q5": _write(work / "q5.txt", lc.serialize_graph(lc.gen_named("hypercube", 5))),
        "petersen": _write(work / "petersen.txt",
                           lc.serialize_graph(lc.gen_named("petersen"))),
    }

    def solve(graph, mode, k):
        return ["solve", "--graph", inputs[graph], "--mode", mode, "--k", str(k)]

    ops = [
        Op("solve-grid6-lazy-k3", solve("grid6", "lazy", 3), _solve_check(36, 3, "lazy", True)),
        Op("solve-gnp30-lazy-k3", solve("gnp30", "lazy", 3), _solve_check(30, 3, "lazy", None)),
        Op("solve-q5-lazy-k3", solve("q5", "lazy", 3), _solve_check(32, 3, "lazy", False)),
        Op("solve-petersen-classic-k3", solve("petersen", "classic", 3),
           _solve_check(10, 3, "classic", True)),
        Op("copnum-petersen-lazy", ["copnum", "--graph", inputs["petersen"], "--kmax", "4"],
           _copnum_check(3)),
    ]
    return ops, inputs


def _solve_rates(results) -> dict:
    rate = _rate(results, "states")
    return {"work_per_s": rate, "solve_states_per_s": rate}


def _solve_consistency(lc, inputs, results) -> None:
    """Re-solve the seeded graph outside the timed region and replay it;
    a failure marks the CLI operation on that graph as failed."""
    (cli,) = [r for r in results if r["name"] == "solve-gnp30-lazy-k3"]
    with open(inputs["gnp30"], encoding="utf-8") as fh:
        G = lc.parse_graph(fh.read())
    res = lc.solve_lazy(G, 3)
    report = lc.verify_self_consistency(res)
    if res.cop_win != json.loads(cli["stdout"])["cop_win"]:
        cli["problem"] = "library and CLI disagree on the G(30) winner"
    elif not report["ok"]:
        cli["problem"] = f"G(30) optimal play is inconsistent: {report}"


# -- play ---------------------------------------------------------------------------

def _experiment_check(cfg: dict, n: int, capture_only: bool):
    trials, max_rounds = cfg["trials"], cfg["max_rounds"]

    def check(stdout: str) -> Checked:
        out = json.loads(stdout)
        require(out == {"out": cfg["out"], "trials": trials}, f"experiment said {out}")
        with open(cfg["out"], encoding="utf-8", newline="") as fh:
            text = fh.read()
        rows = list(csv.reader(io.StringIO(text)))
        require(rows[0] == CSV_COLUMNS, f"CSV header {rows[0]}")
        require(len(rows) == trials + 2, f"{len(rows) - 1} CSV rows for {trials} trials")
        rounds = survivals = 0
        for i, row in enumerate(rows[1:-1]):
            rec = dict(zip(CSV_COLUMNS, row))
            require(rec["trial"] == str(i) and rec["seed"] == str(cfg["master_seed"] + i),
                    f"trial row {i} is {row}")
            require((rec["n"], rec["k"]) == (str(n), str(cfg["k"])), f"trial row {i} is {row}")
            require((rec["cop_strategy"], rec["robber_strategy"])
                    == (cfg["cop_strategy"], cfg["robber_strategy"]), f"trial row {i} is {row}")
            r = int(rec["rounds"])
            if rec["outcome"] == "survival":
                require(not capture_only and r == max_rounds, f"trial row {i} is {row}")
                survivals += 1
            else:
                require(rec["outcome"] == "capture" and 0 <= r <= max_rounds,
                        f"trial row {i} is {row}")
            rounds += r
        last = rows[-1]
        require(last[0] == "aggregate" and last[7] == "survival_rate"
                and float(last[8]) == float(f"{survivals / trials:.6g}"),
                f"aggregate row {last}")
        return Checked(text.encode(), {"rounds": rounds, "trials": trials})
    return check


def _grid_adjacent(side: int, u: int, v: int) -> bool:
    (ur, uc), (vr, vc) = divmod(u, side), divmod(v, side)
    return abs(ur - vr) + abs(uc - vc) <= 1


def _simulate_check(side: int, k: int, max_rounds: int):
    """Greedy cops against the optimal robber on a grid; the robber escapes."""
    def check(stdout: str) -> Checked:
        out = json.loads(stdout)
        require(out["outcome"] == "survival" and out["rounds"] == max_rounds,
                f"simulate ended {out['outcome']} after {out['rounds']} rounds")
        moves = out["transcript"]
        require(len(moves) == 2 + 2 * max_rounds, f"{len(moves)} transcript entries")
        cops = sorted(moves[0]["to"])
        robber = moves[1]["to"]
        require(len(cops) == k, f"placed {cops}")
        for i, m in enumerate(moves[2:]):
            if m["side"] == "cops":
                require(i % 2 == 0, f"entry {i + 2} out of turn")
                if m["to"] is None:
                    continue
                require(m["from"] in cops and _grid_adjacent(side, m["from"], m["to"]),
                        f"illegal cop move {m}")
                cops.remove(m["from"])
                cops.append(m["to"])
            else:
                require(i % 2 == 1 and m["from"] == robber
                        and _grid_adjacent(side, robber, m["to"]),
                        f"illegal robber move {m}")
                robber = m["to"]
            require(robber not in cops, f"capture at entry {i + 2} in a survival")
        return Checked(stdout.encode(), {"rounds": out["rounds"]})
    return check


def _make_play(lc, seed: int, work: Path):
    def config(name, **cfg):
        cfg.update(master_seed=seed, workers=2, out=str(work / f"{name}.csv"))
        _write(work / f"{name}.json",
               json.dumps({k: v for k, v in cfg.items() if k != "out"}))
        return cfg

    gnp = config("gnp800", family="gnp", family_params={"n": 800, "p": 800 ** -0.6}, k=1,
                 cop_strategy="greedy", robber_strategy="gnp:alpha=0.4",
                 trials=4, max_rounds=4000)
    cube = config("cube12", family="hypercube", family_params={"n": 12}, k=5,
                  cop_strategy="greedy", robber_strategy="potential",
                  trials=4, max_rounds=5000)
    sep = config("grid10", family="grid2d", family_params={"n": 10}, k=26,
                 cop_strategy="separator", robber_strategy="greedy",
                 trials=2, max_rounds=1000)
    grid6 = _write(work / "grid6.txt", lc.serialize_graph(lc.gen_named("grid2d", 6)))

    def experiment(name, cfg):
        return ["experiment", "--config", str(work / f"{name}.json"), "--out", cfg["out"]]

    ops = [
        Op("experiment-gnp800-greedy-gnp", experiment("gnp800", gnp),
           _experiment_check(gnp, 800, False)),
        Op("experiment-q12-greedy-potential", experiment("cube12", cube),
           _experiment_check(cube, 4096, False)),
        Op("experiment-grid10-separator-greedy", experiment("grid10", sep),
           _experiment_check(sep, 100, True)),
        Op("simulate-grid6-greedy-optimal",
           ["simulate", "--graph", grid6, "--cops", "greedy", "--robber", "optimal",
            "--k", "2", "--max-rounds", "20000", "--seed", str(seed)],
           _simulate_check(6, 2, 20000)),
    ]
    return ops, {"grid6": grid6}


def _play_rates(results) -> dict:
    rounds = _rate(results, "rounds")
    return {"work_per_s": rounds, "rounds_per_s": rounds,
            "trials_per_s": _rate(results, "trials")}


# -- expansion ------------------------------------------------------------------------

# alpha = 0.5 would put d^2 = (n-1)^2/n right at the n threshold that decides
# which checks run, so the work would depend on the seed; at 0.48 every seed
# runs the same five checks.
EXPANSION = {"n": 2000, "alpha": 0.48, "eps": 0.05}


def _expected_checks(n: int, d: float, alpha: float) -> dict:
    """Check names and sample counts that the verifier's defaults imply."""
    logn = log(n)
    ell = ceil(1 / alpha) - 1   # 1/alpha is not an integer here
    out = {}
    i = 1
    while d ** i <= n:
        out[f"neighborhood_growth_i={i}"] = 200
        i += 1
    lengths = list(range(2, ell + 2)) + ([ell + 2] if d ** (ell + 1) < n else [])
    for i in lengths:
        out[f"path_count_i={i}"] = 2000 // len(lengths)
    i = 1
    while d ** i < n / logn and i + 2 <= 4:
        out[f"cycles_len<={i + 2}"] = 200
        i += 1
    return out


def _expansion_check(stdout: str) -> Checked:
    out = json.loads(stdout)
    n, alpha = EXPANSION["n"], EXPANSION["alpha"]
    require((out["n"], out["alpha"], out["eps"], out["tau"]) == (n, alpha, EXPANSION["eps"], 0.25),
            f"report header {out['n'], out['alpha'], out['eps'], out['tau']}")
    require(out["ell"] == ceil(1 / alpha) - 1, f"ell={out['ell']}")
    d_expected = (n - 1) * n ** (alpha - 1)
    require(abs(out["d"] - d_expected) < 0.1 * d_expected, f"d={out['d']}")
    got = {c["name"]: c["samples"] for c in out["checks"]}
    want = _expected_checks(n, out["d"], alpha)
    require(got == want, f"checks {got} != {want}")
    require(out["passed"] == all(c["passed"] for c in out["checks"]), "verdict")
    return Checked(stdout.encode(), {"samples": sum(got.values())})


def _make_expansion(lc, seed: int, work: Path):
    argv = ["verify-expansion", "--n", str(EXPANSION["n"]), "--alpha", str(EXPANSION["alpha"]),
            "--eps", str(EXPANSION["eps"]), "--seed", str(seed)]
    return [Op("verify-expansion-gnp2000", argv, _expansion_check)], {}


def _expansion_rates(results) -> dict:
    rate = _rate(results, "samples")
    return {"work_per_s": rate, "expansion_samples_per_s": rate}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "solve", _make_solve, _solve_rates,
            expected_spans=("graph.parse_graph", "graph.Graph.distances_from",
                            "solver.solve_lazy", "solver.solve_classic", "cli.main"),
            consistency=_solve_consistency,
        ),
        Workload(
            "play", _make_play, _play_rates,
            expected_spans=(
                "graph.Graph.distances_from", "graph.find_balanced_separator",
                "graph.components_without", "graph.component_of",
                "graph.Graph.induced_subgraph", "graph.gen_gnp", "graph.parse_graph",
                "solver.solve_lazy", "solver.optimal_move", "solver.SolveResult.distance",
                "game.play", "game.apply_move", "game.GameRecord.to_json",
                "strategies.GreedyCopStrategy.move", "strategies.SeparatorCopStrategy.__init__",
                "strategies.SeparatorCopStrategy.move", "gnp.gnp_robber_move",
                "potential.hypercube_robber_move", "potential.potential_at",
                "experiments.run_trial", "experiments.run_experiment", "cli.main"),
        ),
        Workload(
            "expansion", _make_expansion, _expansion_rates,
            expected_spans=("graph.count_paths", "graph.kth_neighborhood",
                            "graph.count_cycles_through_edge", "graph.Graph.distances_from",
                            "graph.gen_gnp", "expansion.verify_expansion", "cli.main"),
        ),
    )
}
