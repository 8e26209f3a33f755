"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 cap/limit error.  All output is
machine-parseable (JSON on stdout, CSV to files); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceededError, LazyCopsError, UsageError
from .expansion import check_parameters, verify_expansion
from .experiments import ExperimentConfig, run_experiment
from .game import play
from .graph import check_ball_tables, gen_gnp, gen_named, parse_graph, serialize_graph
from .bounds import BOUNDS, theoretical_bounds
from .solver import cop_number, solve_classic, solve_lazy
from .strategies import make_players


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _build_parser() -> _Parser:
    p = _Parser(prog="lazycops")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write its edge list")
    g.add_argument("--kind", required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--p", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="decide whether k cops win")
    s.add_argument("--graph", required=True)
    s.add_argument("--mode", choices=["lazy", "classic"], default="lazy")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--stats", action="store_true",
                   help="print the solver's phase times and labeling counts "
                        "as one JSON line on stderr")

    c = sub.add_parser("copnum", help="compute the (lazy) cop number")
    c.add_argument("--graph", required=True)
    c.add_argument("--mode", choices=["lazy", "classic"], default="lazy")
    c.add_argument("--kmax", type=int, required=True)

    m = sub.add_parser("simulate", help="play one game between named strategies")
    m.add_argument("--graph", required=True)
    m.add_argument("--cops", required=True)
    m.add_argument("--robber", required=True)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--max-rounds", type=int, default=100)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--stats", action="store_true",
                   help="print the strategies' counters as one JSON line on stderr")

    v = sub.add_parser("verify-expansion", help="check expansion on a G(n,p) sample")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--eps", type=float, required=True)
    v.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("experiment", help="run a batch experiment from a JSON config")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)

    b = sub.add_parser("bounds", help="evaluate a closed-form bound")
    b.add_argument("--which", required=True,
                   choices=list(BOUNDS))
    b.add_argument("--n", type=int)
    b.add_argument("--g", type=float)
    b.add_argument("--alpha", type=float)
    b.add_argument("--p", type=float)
    b.add_argument("--eps", type=float)
    b.add_argument("--delta", type=float)
    return p


def _cmd_gen(args) -> int:
    G = gen_named(args.kind, args.n, args.seed, p=args.p)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_graph(G))
    print(json.dumps({"kind": args.kind, "n": G.n, "m": G.m, "out": args.out}))
    return 0


def _cmd_solve(args) -> int:
    G = _load_graph(args.graph)
    res = solve_lazy(G, args.k) if args.mode == "lazy" else solve_classic(G, args.k)
    print(json.dumps(res.summary()))
    if args.stats:
        print(json.dumps(res.stats), file=sys.stderr)
    return 0


def _cmd_copnum(args) -> int:
    G = _load_graph(args.graph)
    value = cop_number(G, args.kmax, args.mode)
    key = "c_L" if args.mode == "lazy" else "c"
    print(json.dumps({key: value}))
    return 0


def _cmd_simulate(args) -> int:
    G = _load_graph(args.graph)
    cops, robber = make_players(args.cops, args.robber, G, args.k, args.seed)
    record = play(G, cops, robber, args.k, args.max_rounds)
    print(record.to_json())
    if args.stats:
        sides = (("cops", cops), ("robber", robber))
        print(json.dumps({name: strategy.stats() for name, strategy in sides
                          if hasattr(strategy, "stats")}), file=sys.stderr)
    return 0


def _cmd_verify_expansion(args) -> int:
    if args.n < 2:
        raise UsageError(f"n must be >= 2, got {args.n}")
    check_parameters(args.alpha, args.eps)
    check_ball_tables(args.n, 1)   # every check reads radius-1 balls
    G = gen_gnp(args.n, args.n ** (args.alpha - 1.0), args.seed)
    report = verify_expansion(G, args.alpha, args.eps, seed=args.seed)
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    run_experiment(cfg, args.out)
    print(json.dumps({"out": args.out, "trials": cfg.trials}))
    return 0


def _cmd_bounds(args) -> int:
    params = {key: v for key, v in vars(args).items() if key not in ("command", "which")}
    print(json.dumps(theoretical_bounds(args.which, **params).to_dict()))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "copnum": _cmd_copnum,
    "simulate": _cmd_simulate,
    "verify-expansion": _cmd_verify_expansion,
    "experiment": _cmd_experiment,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapExceededError as exc:
        print(f"lazycops: limit exceeded: {exc}", file=sys.stderr)
        return 2
    except (LazyCopsError, OSError) as exc:
        print(f"lazycops: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
