"""Lazy Cops and Robbers toolkit: exact solvers, strategies, and bounds."""

from .bounds import (
    BoundReport,
    domination_budget,
    genus_cop_budget,
    ght_separator_bound,
    hypercube_budget,
    theoretical_bounds,
)
from .errors import (
    CapExceededError,
    GraphFormatError,
    IllegalMoveError,
    LazyCopsError,
    StrategyError,
    UsageError,
)
from .expansion import ExpansionReport, PropertyCheck, verify_expansion
from .experiments import ExperimentConfig, run_experiment, run_trial
from .game import PASS, CopMove, GameRecord, GameState, RobberMove, apply_move, play
from .gnp import GnpRobberParams, GnpRobberStrategy, gnp_params
from .graph import (
    Graph,
    HypercubeGraph,
    exact_domination_number,
    find_balanced_separator,
    gen_gnp,
    gen_named,
    greedy_dominating_set,
    parse_graph,
    serialize_graph,
)
from .potential import (
    PotentialParams,
    PotentialRobberStrategy,
    hypercube_robber_move,
    potential,
    potential_params,
)
from .solver import (
    SolveResult,
    cop_number,
    optimal_move,
    solve_classic,
    solve_lazy,
    verify_self_consistency,
)
from .strategies import (
    DominatingCopStrategy,
    GreedyCopStrategy,
    GreedyRobberStrategy,
    OptimalCopStrategy,
    OptimalRobberStrategy,
    RandomCopStrategy,
    RandomRobberStrategy,
    SeparatorCopStrategy,
    StationaryRobberStrategy,
    make_players,
)

__version__ = "0.1.0"
