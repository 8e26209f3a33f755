"""Closed-form bound calculators.

Every value reproduces its closed form exactly in 64-bit floating point;
nothing here is asymptotic reasoning, only formula evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UsageError
from .gnp import gnp_params


@dataclass(frozen=True)
class BoundReport:
    which: str
    inputs: dict
    value: float

    def integer_budget(self) -> int:
        return max(1, math.ceil(self.value))

    def to_dict(self) -> dict:
        return {"which": self.which, "inputs": self.inputs, "value": self.value}


def genus_cop_budget(n: int, g: float) -> float:
    """Lazy-cop budget 60*sqrt(g*n) + 20*sqrt(2*n) for genus-g graphs."""
    if n < 1 or g < 0:
        raise UsageError("need n >= 1 and g >= 0")
    return 60.0 * math.sqrt(g * n) + 20.0 * math.sqrt(2.0 * n)


def ght_separator_bound(n: int, g: float) -> float:
    """Separator size guarantee 6*sqrt(g*n) + 2*sqrt(2*n) + 1."""
    if n < 1 or g < 0:
        raise UsageError("need n >= 1 and g >= 0")
    return 6.0 * math.sqrt(g * n) + 2.0 * math.sqrt(2.0 * n) + 1.0


def hypercube_budget(n: int, eps: float) -> float:
    """Robber-safe cop budget 2^n / n^(7/2+eps) on Q_n.

    The source bound is an Omega(...), so its constant is unspecified;
    this is the bound with constant 1.
    """
    if n < 1 or eps <= 0:
        raise UsageError("need n >= 1 and eps > 0")
    try:
        return 2.0 ** n / n ** (3.5 + eps)
    except OverflowError:
        raise UsageError(f"hypercube bound at n={n} overflows a float") from None


def domination_budget(n: int | None = None, p: float | None = None,
                      delta: float | None = None) -> float:
    """Dominating-set upper bound on the lazy cop number.

    With a minimum degree delta: n * log(delta+1) / (delta+1).
    With (n, p) for a random graph: log(p*n) / p.
    """
    if delta is not None:
        if n is None or n < 1 or delta < 0:
            raise UsageError("need n >= 1 and delta >= 0")
        return n * math.log(delta + 1.0) / (delta + 1.0)
    if n is None or p is None or not 0 < p <= 1 or p * n <= 1:
        raise UsageError("need n and p with 0 < p <= 1 and p*n > 1")
    return math.log(p * n) / p


# Each bound's name, the keys it reads (in the order that errors name them)
# and its closed form, called with those keys.  Domination reads delta in
# place of p when delta is given.  The G(n,p) form looks up gnp_params when
# it is called, so that a wrapper set on this module's name is the one run.
BOUNDS = {
    "genus": (("n", "g"), genus_cop_budget),
    "gnp": (("n", "p", "alpha"), lambda n, p, alpha: gnp_params(n, p, alpha).K),
    "hypercube": (("n", "eps"), hypercube_budget),
    "domination": (("n", "p"), domination_budget),
}


def theoretical_bounds(which: str, **params) -> BoundReport:
    """Evaluate the bound `which`, a key of BOUNDS, on `params`.

    A None parameter counts as absent; every other must be one the bound
    reads and a number (not a boolean) that fits a float, and every key the
    bound reads must be given.  They and the value must be finite, as JSON
    has no NaN or infinity.
    """
    params = {key: x for key, x in params.items() if x is not None}
    if not isinstance(which, str) or which not in BOUNDS:
        raise UsageError(f"unknown bound {which!r}")
    reads, bound = BOUNDS[which]
    if which == "domination" and "delta" in params:
        reads = ("n", "delta")
    unread = sorted(set(params) - set(reads))
    if unread:
        raise UsageError(f"bound {which!r} does not read {unread[0]!r} "
                         f"(it reads {', '.join(reads)})")
    for key, x in params.items():
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise UsageError(f"parameter {key!r} must be a number, got {x!r}")
        try:
            finite = math.isfinite(x)
        except OverflowError:
            raise UsageError(f"parameter {key!r} is too large for a float") from None
        if not finite:
            raise UsageError(f"parameter {key!r} must be finite, got {x}")
    missing = [key for key in reads if key not in params]
    if missing:
        raise UsageError(f"bound {which!r} missing parameter {missing[0]!r}")
    try:
        value = bound(**params)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"bound {which!r} overflows a float")
    return BoundReport(which, params, value)
