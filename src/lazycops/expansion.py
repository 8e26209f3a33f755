"""Expansion checks for sparse random graphs: neighborhood growth,
path-count ceilings, and cycle counts through edges.

The underlying statements are asymptotic, so the verifier reports rather
than asserts: each property gets a pass/fail verdict based on the sample
mean against its closed-form target, with the measured extremes recorded
for audit, and hypothesis violations are flagged instead of silently
ignored.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import UsageError
from .gnp import _level_count
from .graph import (Graph, _ball_row, _ball_table, _kth_bit, _paths_to,
                    count_cycles_through_edge, kth_neighborhood)

# Longest cycle that the verifier counts through sampled edges, and the
# sample counts of the growth, path-count and cycle checks.
CYCLE_CHECK_LEN = 4
# A growth check passes when its mean ratio lies within this of 1.
GROWTH_TOLERANCE = 0.25
VERTEX_SAMPLES = 200
PAIR_SAMPLES = 2000
EDGE_SAMPLES = 200


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    bound: float
    mean: float
    minimum: float
    maximum: float
    samples: int
    note: str = ""

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class ExpansionReport:
    n: int
    d: float
    alpha: float
    eps: float
    tau: float
    ell: int
    checks: list = field(default_factory=list)
    hypothesis_notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "alpha": self.alpha,
            "eps": self.eps,
            "tau": self.tau,
            "ell": self.ell,
            "passed": self.passed,
            "hypothesis_notes": self.hypothesis_notes,
            "checks": [c.to_dict() for c in self.checks],
        }


def _summarize(name, values, bound, note="", passes=None) -> PropertyCheck:
    """The check of `values` against `bound`: it passes when the mean stays
    at or below the bound, or when `passes(mean)` holds if that is given."""
    if not values:
        return PropertyCheck(name, True, bound, 0.0, 0.0, 0.0, 0, note or "no samples")
    mean = sum(values) / len(values)
    return PropertyCheck(
        name=name,
        passed=mean <= bound if passes is None else passes(mean),
        bound=bound,
        mean=mean,
        minimum=min(values),
        maximum=max(values),
        samples=len(values),
        note=note,
    )


def check_parameters(alpha: float, eps: float) -> None:
    """Raise UsageError unless verify_expansion accepts alpha and eps."""
    if not 0 < eps < 0.1:
        raise UsageError("eps must lie in (0, 0.1)")
    if not eps < alpha < 1 - eps:
        raise UsageError("alpha must lie in (eps, 1-eps)")


def verify_expansion(G: Graph, alpha: float, eps: float, seed: int = 0) -> ExpansionReport:
    """Check the expansion properties on sampled vertices/pairs/edges.

    d is (n-1) times the observed edge density.  Neighborhood ratios pass
    when the sample mean of |N_i[v]| / B_i lies within GROWTH_TOLERANCE of 1,
    where B_i is a mean-field approximation of the expected closed-ball size:
    B_0 = S_0 = 1 and, with p = d/(n-1), each step takes the expected next
    sphere S_{i+1} = (n - B_i)(1 - (1-p)^S_i) given the current one, and
    B_{i+1} = B_i + S_{i+1}.  B_1 = 1 + d, B_i is close to 1 + d + ... + d^i
    while d^i << n, and B_i saturates at n past that.  Path and cycle
    checks pass when the sample mean stays below the closed-form ceiling.
    """
    check_parameters(alpha, eps)
    n = G.n
    d = (n - 1) * (2.0 * G.m / (n * (n - 1))) if n > 1 else 0.0
    if d <= 1:
        raise UsageError(f"average degree d={d:.3f} too small to verify expansion")
    logn = math.log(n)
    ell = _level_count(alpha)
    rng = random.Random(seed)

    report = ExpansionReport(n=n, d=d, alpha=alpha, eps=eps, tau=GROWTH_TOLERANCE, ell=ell)

    realized_alpha = math.log(d) / logn
    if abs(realized_alpha - alpha) > 0.1:
        report.hypothesis_notes.append(
            f"d={d:.3f} has exponent {realized_alpha:.3f}, far from alpha={alpha}"
        )

    verts = sorted(rng.sample(range(n), min(VERTEX_SAMPLES, n)))

    # (i) neighborhood growth
    low, high = 1.0 - GROWTH_TOLERANCE, 1.0 + GROWTH_TOLERANCE
    p = d / (n - 1)
    ball = sphere = 1.0
    i = 1
    while d ** i <= n:
        sphere = (n - ball) * (1.0 - (1.0 - p) ** sphere)
        ball += sphere
        ratios = [len(kth_neighborhood(G, v, i)) / ball for v in verts]
        report.checks.append(
            _summarize(f"neighborhood_growth_i={i}", ratios, GROWTH_TOLERANCE,
                       passes=lambda mean: low <= mean <= high)
        )
        i += 1

    # (ii) path-count ceilings
    branches = [(i, 3.0 / (1.0 - i * alpha), "short paths") for i in range(2, ell + 1)]
    if d ** (ell + 1) >= 7.0 * n * logn:
        branches.append(
            (ell + 1, 6.0 / (1.0 - ell * alpha) * d ** (ell + 1) / n, "dense ell+1")
        )
    else:
        branches.append((ell + 1, 42.0 / (1.0 - ell * alpha) * logn, "sparse ell+1"))
    if d ** (ell + 1) < n:
        branches.append(
            (ell + 2, 84.0 / (1.0 - ell * alpha) * d ** (ell + 2) * logn / n, "ell+2")
        )
    else:
        report.hypothesis_notes.append(
            f"d^(ell+1)={d ** (ell + 1):.1f} >= n; length-{ell + 2} path check skipped"
        )
    per_branch = max(1, PAIR_SAMPLES // len(branches))
    for i, ceiling, label in branches:
        counts = []
        attempts = 0
        while len(counts) < per_branch and attempts < 4 * per_branch:
            attempts += 1
            v = rng.randrange(n)
            if not G.neighbors(v):
                continue
            # paths are symmetric in their endpoints: search from w, drawn by its
            # rank in v's ball, pruned by the distances to v that v's balls give
            ball = _ball_table(G, i)[v] ^ (1 << v)
            w = _kth_bit(ball, rng.randrange(ball.bit_count()))
            counts.append(_paths_to(G, w, v, i, _ball_row(G, v, i) if i > 3 else None))
        report.checks.append(
            _summarize(f"path_count_i={i}", counts, ceiling, note=label)
        )

    # (iii) cycles through sampled edges, for each i with d^i < n/log n;
    # d > 1 means the graph has edges
    edges = G.edges()
    sample = [edges[rng.randrange(len(edges))] for _ in range(EDGE_SAMPLES)]
    i = 1
    while d ** i < n / logn and i + 2 <= CYCLE_CHECK_LEN:
        counts = [count_cycles_through_edge(G, e, i + 2) for e in sample]
        report.checks.append(
            _summarize(
                f"cycles_len<={i + 2}", counts, eps * d,
                note=f"ceiling eps*d, d^{i}={d ** i:.1f} < n/log n",
            )
        )
        i += 1
    if d ** i >= n / logn and i + 2 <= CYCLE_CHECK_LEN:
        report.hypothesis_notes.append(
            f"d^{i}={d ** i:.1f} >= n/log n={n / logn:.1f}; "
            f"cycle check at length {i + 2} skipped (hypothesis fails)"
        )
    if i == 1:
        report.hypothesis_notes.append("no cycle length satisfied the hypothesis")
    return report
