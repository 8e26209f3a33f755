"""Reference hypercube-potential robber for the differential tests.

The float-screened form of `lazycops.potential`: candidates are ranked by a
floating-point potential, and only those within a relative slack of 1e-12
of the best are re-scored with exact `Fraction` weights.  Placement uses
the float potential alone.  It reads nothing from `PotentialParams` but the
rational weights `w` and `max_level`, so it can catch mistakes in the
integer scaling, the zero padding of `w_int` or the tie-breaks there.
"""

from fractions import Fraction

_FLOAT_SLACK = 1e-12


def _weight_floats(params) -> tuple:
    return (0.0,) + tuple(float(x) for x in params.w[1:])


def reference_potential_at(params, cops, robber: int) -> Fraction:
    """Exact potential: the sum of w[d] over cops at distance 1..max_level."""
    total = Fraction(0)
    w = params.w
    L = params.max_level
    for c in cops:
        d = (c ^ robber).bit_count()
        if 1 <= d <= L:
            total += w[d]
    return total


def _potential_float(wf, L: int, cops, robber: int) -> float:
    total = 0.0
    for c in cops:
        d = (c ^ robber).bit_count()
        if 1 <= d <= L:
            total += wf[d]
    return total


def reference_robber_move(params, G, s) -> int:
    """Unoccupied neighbour of least potential, lowest id on ties."""
    cop_set = set(s.cops)
    v = s.robber
    cands = [u for u in G.neighbors(v) if u not in cop_set]
    if not cands:
        return v
    wf = _weight_floats(params)
    L = params.max_level
    vals = [(_potential_float(wf, L, s.cops, u), u) for u in cands]
    best = min(vals)[0]
    near = [u for val, u in vals if val <= best + _FLOAT_SLACK * (1.0 + abs(best))]
    if len(near) == 1:
        return near[0]
    exact = [(reference_potential_at(params, s.cops, u), u) for u in sorted(near)]
    return min(exact)[1]


def reference_place(params, G, cops) -> int:
    """Lowest-id vertex of potential zero, else one of least potential."""
    wf = _weight_floats(params)
    L = params.max_level
    best_v, best_val = 0, float("inf")
    for v in range(G.n):
        if v in cops:
            continue
        val = _potential_float(wf, L, cops, v)
        if val == 0.0:
            return v
        if val < best_val:
            best_v, best_val = v, val
    return best_v
