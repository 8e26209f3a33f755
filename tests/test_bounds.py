import inspect
import math
import re

import pytest

from lazycops import bounds
from lazycops.bounds import (
    BoundReport,
    domination_budget,
    genus_cop_budget,
    ght_separator_bound,
    hypercube_budget,
    theoretical_bounds,
)
from lazycops.errors import UsageError


def test_genus_bound_planar_value():
    # g = 0: value is 20*sqrt(2n); at n = 96 this is 20*sqrt(192)
    assert genus_cop_budget(96, 0) == pytest.approx(20 * math.sqrt(192), rel=1e-12)


def test_genus_bound_monotone_in_genus():
    for n in (10, 96, 500):
        assert genus_cop_budget(n, 1) > genus_cop_budget(n, 0)
        assert genus_cop_budget(n, 2) > genus_cop_budget(n, 1)


def test_ght_separator_bound_planar():
    assert ght_separator_bound(50, 0) == pytest.approx(2 * math.sqrt(100) + 1)


def test_recursion_constants_absorb():
    # the per-level constants contract: 60*sqrt(2/3)+6 < 55 and
    # 20*sqrt(2/3)+2 < 19, so the recursion's budget telescopes
    assert 60 * math.sqrt(2 / 3) + 6 < 55
    assert 20 * math.sqrt(2 / 3) + 2 < 19


def test_hypercube_budget():
    assert hypercube_budget(12, 0.5) == pytest.approx(2 ** 12 / 12 ** 4.0)


def test_domination_budget_delta():
    assert domination_budget(n=100, delta=9) == pytest.approx(100 * math.log(10) / 10)


def test_domination_budget_np():
    assert domination_budget(n=1000, p=0.1) == pytest.approx(math.log(100) / 0.1)


def test_invalid_inputs():
    with pytest.raises(UsageError):
        genus_cop_budget(0, 0)
    with pytest.raises(UsageError):
        hypercube_budget(8, 0)
    with pytest.raises(UsageError):
        domination_budget(n=10, p=2.0)
    with pytest.raises(UsageError, match="overflows a float"):  # not an OverflowError
        hypercube_budget(2000, 1)
    for n, g in ((0, 0), (10, -1)):
        with pytest.raises(UsageError, match="need n >= 1 and g >= 0"):
            ght_separator_bound(n, g)


def test_dispatch_and_report():
    rep = theoretical_bounds("genus", n=96, g=0)
    assert isinstance(rep, BoundReport)
    assert rep.value == pytest.approx(20 * math.sqrt(192))
    assert rep.integer_budget() == math.ceil(rep.value)
    assert rep.to_dict()["which"] == "genus"


def test_dispatch_gnp():
    rep = theoretical_bounds("gnp", n=1000, p=0.01, alpha=0.4)
    assert rep.value == pytest.approx(0.2 / 2880 / 0.01, rel=1e-12)


def test_dispatch_errors():
    with pytest.raises(UsageError):
        theoretical_bounds("nope", n=5)
    for which in (["gnp"], {"gnp": 1}, 3, None):   # a config's "which" is any JSON value
        with pytest.raises(UsageError, match=f"^unknown bound {re.escape(repr(which))}$"):
            theoretical_bounds(which, n=10)   # not a TypeError
    with pytest.raises(UsageError):
        theoretical_bounds("genus", n=5)  # missing g
    with pytest.raises(UsageError, match="n must be >= 2"):  # not a ZeroDivisionError
        theoretical_bounds("gnp", n=1, p=0.5, alpha=0.5)
    with pytest.raises(UsageError, match="'g' must be finite"):
        theoretical_bounds("genus", n=10, g=-math.inf)
    for bad in ("10", [1], True):
        with pytest.raises(UsageError, match="'n' must be a number"):  # not a TypeError
            theoretical_bounds("domination", n=bad, delta=2)
    # None is an absent parameter, as a config's null: the (n, p) form runs
    assert theoretical_bounds("domination", n=10, p=0.5, delta=None).value == pytest.approx(
        math.log(5) / 0.5)
    with pytest.raises(UsageError, match="'n' is too large for a float"):  # not an OverflowError
        theoretical_bounds("genus", n=10 ** 400, g=0)
    with pytest.raises(UsageError, match="'genus' overflows a float"):  # n * g overflows
        theoretical_bounds("genus", n=10 ** 300, g=10 ** 300)
    with pytest.raises(UsageError, match="bound 'gnp' does not read 'regime'"):
        theoretical_bounds("gnp", n=100, p=0.1, alpha=0.4, regime=["main"])


def test_dispatch_rejects_unread_parameters():
    for which, params, key in (("genus", dict(n=100, g=1, p=0.5), "p"),
                               ("domination", dict(n=100, p=0.5, delta=3), "p"),
                               ("hypercube", dict(n=10, eps=1, alpha=0.4), "alpha"),
                               ("gnp", dict(n=1000, p=0.01, alpha=0.4, delta=2), "delta")):
        with pytest.raises(UsageError, match=f"bound '{which}' does not read '{key}'"):
            theoretical_bounds(which, **params)
    # None is absent for every parameter, the optional ones included
    assert theoretical_bounds("genus", n=96, g=0, p=None).inputs == {"n": 96, "g": 0}
    assert theoretical_bounds("hypercube", n=12, eps=0.5, constant=None).value == (
        hypercube_budget(12, 0.5))
    assert theoretical_bounds("gnp", n=1000, p=0.01, alpha=0.4, regime=None).value == (
        theoretical_bounds("gnp", n=1000, p=0.01, alpha=0.4).value)


def test_a_key_error_inside_a_bound_is_not_a_usage_error(monkeypatch):
    # an internal fault is not a missing parameter: it surfaces as itself
    def broken(n, p, alpha):
        raise KeyError("thresholds")

    monkeypatch.setattr(bounds, "gnp_params", broken)
    with pytest.raises(KeyError, match="thresholds"):
        theoretical_bounds("gnp", n=1000, p=0.01, alpha=0.4)


def test_every_bound_reads_parameters_of_its_closed_form():
    # argparse's "choose from" lists the table in this order
    assert list(bounds.BOUNDS) == ["genus", "gnp", "hypercube", "domination"]
    for which, (reads, form) in bounds.BOUNDS.items():
        keys = {*reads, "delta"} if which == "domination" else set(reads)
        assert keys <= set(inspect.signature(form).parameters), which


def test_missing_parameters_are_named_in_read_order():
    for which, params, key in (("genus", dict(g=1), "n"), ("gnp", dict(n=1000, alpha=0.4), "p"),
                               ("hypercube", dict(n=10), "eps"),
                               ("domination", dict(delta=3), "n"), ("domination", dict(n=10), "p")):
        with pytest.raises(UsageError, match=f"bound '{which}' missing parameter '{key}'"):
            theoretical_bounds(which, **params)
