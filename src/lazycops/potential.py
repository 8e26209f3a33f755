"""Hypercube robber: weighted cop-distance potential and its argmin move.

The potential assigns weight w_i to each cop at Hamming distance i from
the robber, for 1 <= i <= n/2 - rho, and ignores cops farther away.  The
weights are exact rationals.  Scaled by `scale`, the lcm of their
denominators, they are integers, so the potential is an integer number of
1/scale units: moves, placement and the exact value all come from one
integer sum, and the returned move is the true argmin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, lcm

from .errors import UsageError
from .game import GameState, RobberMove
from .graph import HypercubeGraph


@dataclass(frozen=True)
class PotentialParams:
    """Weight system for dimension n: rho, normalizer A, eps_i and w_i.

    Arrays are 1-indexed conceptually; index 0 is a None placeholder so
    w[i] is the weight of a cop at distance i.  max_level = n/2 - rho.
    scale is the lcm of the denominators of w[1..max_level], and w_int,
    indexed by distance 0..n, holds w[i] * scale for 1 <= i <= max_level
    and 0 at every distance the potential ignores.
    """

    n: int
    eps: Fraction
    rho: Fraction
    A: Fraction
    max_level: int
    eps_i: tuple
    w: tuple
    scale: int
    w_int: tuple


def potential_params(n: int, eps) -> PotentialParams:
    """Build the weight system for Q_n.

    rho is minimal with rho >= sqrt(n) and n/2 - rho an integer (rho is a
    half-integer for odd n); requires n large enough that at least level 1
    exists, i.e. n/2 - sqrt(n) >= 1.
    """
    # str() round-trip keeps a float eps such as 0.5 exact instead of
    # inheriting binary-float noise; ints, Fractions and strings pass through
    try:
        eps = Fraction(str(eps))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"eps must be a number, got {eps!r}") from None
    if eps <= 0:
        raise UsageError("eps must be positive")
    if n < 6:
        raise UsageError(f"dimension {n} too small for a valid weight system")
    # max_level = floor(n/2 - sqrt(n)); exact integer arithmetic: the largest
    # integer L with (n - 2L)^2 >= 4n and n - 2L >= 0.
    r = isqrt(4 * n)
    if r * r < 4 * n:
        r += 1  # ceil(2*sqrt(n))
    max_level = (n - r) // 2
    if max_level < 1:
        raise UsageError(f"dimension {n} too small for a valid weight system")
    rho = Fraction(n, 2) - max_level

    # Store eps_i and w_i for every level where the closed form is defined
    # (denominator n - 2i - 1 >= 1); only levels 1..max_level enter the
    # potential, but the higher entries are part of the weight system.
    hard_max = (n - 2) // 2
    eps_i = [None]
    for i in range(1, hard_max + 1):
        eps_i.append((4 + eps) / (n - 2 * i - 1))
    A = (n - 1) / (1 + eps_i[1])
    w = [None]
    prod = Fraction(1)
    for i in range(1, hard_max + 1):
        prod *= 1 + eps_i[i]
        w.append(A * prod / comb(n - 1, i))
    weighted = w[1:max_level + 1]
    scale = lcm(*(x.denominator for x in weighted))
    w_int = ((0,) + tuple(x.numerator * (scale // x.denominator) for x in weighted)
             + (0,) * (n - max_level))
    return PotentialParams(
        n=n, eps=eps, rho=rho, A=A, max_level=max_level,
        eps_i=tuple(eps_i), w=tuple(w), scale=scale, w_int=w_int,
    )


def _check_hypercube(params: PotentialParams, G) -> None:
    if not isinstance(G, HypercubeGraph) or G.dim != params.n:
        raise UsageError(
            f"graph is not the dimension-{params.n} hypercube these params describe"
        )


def potential(params: PotentialParams, G: HypercubeGraph, s: GameState) -> Fraction:
    """P = sum over cops within max_level of w[distance]; exact rational."""
    _check_hypercube(params, G)
    if s.robber is None:
        raise UsageError("robber must be placed")
    return Fraction(potential_at(params, s.cops, s.robber), params.scale)


def potential_at(params: PotentialParams, cops, robber: int) -> int:
    """The potential of a robber at `robber`, in units of 1/params.scale."""
    w_int = params.w_int
    total = 0
    for c in cops:
        total += w_int[(c ^ robber).bit_count()]
    return total


def hypercube_robber_move(params: PotentialParams, G: HypercubeGraph,
                          s: GameState) -> int:
    """Neighbor (not cop-occupied) minimizing the post-move potential.

    Ties broken by smallest vertex id; if every neighbor is cop-occupied
    the robber stays (loss is imminent regardless).
    """
    _check_hypercube(params, G)
    cop_set = set(s.cops)
    v = s.robber
    cands = [u for u in G.neighbors(v) if u not in cop_set]
    if not cands:
        return v
    return min((potential_at(params, s.cops, u), u) for u in cands)[1]


class PotentialRobberStrategy:
    """Robber driven by the hypercube potential function.

    Placement: lowest-id vertex of potential zero if one exists (every cop
    beyond max_level), else the vertex of minimum potential.  A move is a
    function of the graph and (cops, robber), so the robber is positional.
    """

    positional = True

    def __init__(self, eps=1):
        self._eps = eps
        self._params: PotentialParams | None = None   # set by place() for its graph

    def place(self, G, cops) -> int:
        if not isinstance(G, HypercubeGraph):
            raise UsageError("potential strategy requires a hypercube graph")
        self._params = params = potential_params(G.dim, self._eps)
        best_v, best_val = 0, None
        for v in range(G.n):
            if v in cops:
                continue
            val = potential_at(params, cops, v)
            if val == 0:
                return v
            if best_val is None or val < best_val:
                best_v, best_val = v, val
        return best_v

    def move(self, G, state: GameState):
        return RobberMove(hypercube_robber_move(self._params, G, state))
