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


def hypercube_budget(n: int, eps: float, constant: float = 1.0) -> float:
    """Robber-safe cop budget constant * 2^n / n^(7/2+eps) on Q_n.

    The multiplicative constant is a free choice (the source bound is an
    Omega(...)); callers supply a positive one explicitly, default 1.
    """
    if n < 1 or eps <= 0 or constant <= 0:
        raise UsageError("need n >= 1, eps > 0 and constant > 0")
    try:
        return constant * 2.0 ** n / n ** (3.5 + eps)
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


def theoretical_bounds(which: str, **params) -> BoundReport:
    """Dispatch the named bound; exact closed-form evaluation.

    which = genus (n, g) | hypercube (n, eps[, constant]) |
    domination (n, delta | n, p) | gnp (n, p, alpha).  A None
    parameter counts as absent; every other must be one the bound reads
    and a number (not a boolean) that fits a float.  They and the value
    must be finite, as JSON has no NaN or infinity.
    """
    params = {key: x for key, x in params.items() if x is not None}
    reads = {"genus": ("n", "g"), "hypercube": ("n", "eps", "constant"),
             "domination": ("n", "delta") if "delta" in params else ("n", "p"),
             "gnp": ("n", "p", "alpha")}.get(which)
    if reads is None:
        raise UsageError(f"unknown bound {which!r}")
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
    try:
        if which == "genus":
            value = genus_cop_budget(params["n"], params["g"])
        elif which == "hypercube":
            value = hypercube_budget(
                params["n"], params["eps"], params.get("constant", 1.0)
            )
        elif which == "domination":
            value = domination_budget(
                params.get("n"), params.get("p"), params.get("delta")
            )
        else:
            value = gnp_params(params["n"], params["p"], params["alpha"]).K
    except KeyError as exc:
        raise UsageError(f"bound {which!r} missing parameter {exc.args[0]!r}") from exc
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(f"bound {which!r} overflows a float")
    return BoundReport(which, params, value)
