"""Severity assessment for directional claims about a scalar parameter.

Given a point estimate with a standard error, the severity of the claim
"parameter > bound" is the probability of a worse-fitting estimate (one
below the observed value) if the parameter sat exactly at the bound:
cdf((estimate - bound) / stderr). It is the post-data complement of the
usual pre-data error probabilities and is dual to one-sided confidence
limits: the severity at the level-L lower limit is exactly L.

The reference distribution is normal by default; Student-t (df = n - 2 for
the lag-regression context) is available for the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .distributions import _StudentT, normal_cdf, normal_quantile
from .error_tradeoff import Tail
from .errors import (DomainError, check_finite, check_instance, check_int, check_member,
                     check_open_unit, check_positive, check_sequence)


class ReferenceDist(Enum):
    NORMAL = "normal"
    STUDENT_T = "student_t"


class ClaimDirection(Enum):
    GREATER_THAN = "greater_than"
    LESS_THAN = "less_than"


@dataclass(frozen=True)
class SummaryStats:
    """Point estimate, its standard error, and the sizes behind them.

    n is the number of observations; df defaults to n - 2 (the residual
    degrees of freedom of a two-parameter regression) when only n is given.
    Both may be omitted for purely normal-reference workflows.
    """

    estimate: float
    stderr: float
    n: Optional[int] = None
    df: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "estimate", check_finite(self.estimate, "estimate"))
        object.__setattr__(self, "stderr", check_positive(self.stderr, "stderr"))
        for name in ("n", "df"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, check_int(v, name, 1))
        check_finite(self.standardized, "estimate / stderr")

    @property
    def standardized(self) -> float:
        """estimate / stderr, the observed test statistic against zero."""
        return self.estimate / self.stderr

    def effective_df(self) -> int:
        if self.df is not None:
            return self.df
        if self.n is not None:
            if self.n < 3:
                raise DomainError(f"n = {self.n} leaves no residual degrees of freedom")
            return self.n - 2
        raise DomainError("Student-t reference needs df (or n to derive df = n - 2)")


@dataclass(frozen=True)
class SeverityClaim:
    """A one-sided claim about the parameter: direction relative to a bound."""

    direction: ClaimDirection
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "direction",
                           check_member(self.direction, ClaimDirection, "direction"))
        object.__setattr__(self, "bound", check_finite(self.bound, "claim bound"))


def _reference_law(stats: SummaryStats, reference: ReferenceDist) -> tuple[Callable, Callable]:
    # (cdf, quantile) of the reference law: the one place that picks normal or Student-t.
    # The cdf checks its argument, which can overflow; the quantile is handed a checked level.
    if check_member(reference, ReferenceDist, "reference") is ReferenceDist.NORMAL:
        return normal_cdf, normal_quantile
    law = _StudentT(stats.effective_df())
    return (lambda z: law.cdf(check_finite(z, "x"))), law.quantile


def _severity(stats: SummaryStats, claim: SeverityClaim, cdf: Callable) -> float:
    z = (stats.estimate - claim.bound) / stats.stderr
    if claim.direction is ClaimDirection.LESS_THAN:
        z = -z  # the lower tail of the reference law itself, never 1 - cdf(z)
    return cdf(z)


def severity(stats: SummaryStats, claim: SeverityClaim,
             reference: ReferenceDist = ReferenceDist.NORMAL) -> float:
    """Probability the data would have fit the claim worse were it false."""
    check_instance(stats, SummaryStats, "stats")
    check_instance(claim, SeverityClaim, "claim")
    return _severity(stats, claim, _reference_law(stats, reference)[0])


def severity_curve(stats: SummaryStats, bounds: Sequence[float],
                   reference: ReferenceDist = ReferenceDist.NORMAL,
                   direction: ClaimDirection = ClaimDirection.GREATER_THAN,
                   ) -> list[tuple[float, float]]:
    """Severity at each bound, for probing which parameter values are warranted."""
    check_instance(stats, SummaryStats, "stats")
    claims = [SeverityClaim(direction, b) for b in check_sequence(bounds, "bounds")]
    if not claims:  # no bound at which to read the law
        return []
    cdf = _reference_law(stats, reference)[0]
    return [(claim.bound, _severity(stats, claim, cdf)) for claim in claims]


def confidence_lower_limit(stats: SummaryStats, level: float,
                           reference: ReferenceDist = ReferenceDist.NORMAL) -> float:
    """One-sided lower confidence limit; severity of 'parameter > limit' equals level."""
    level = check_open_unit(level, "level")
    check_instance(stats, SummaryStats, "stats")
    return check_finite(stats.estimate - _reference_law(stats, reference)[1](level) * stats.stderr,
                        "the confidence lower limit")


def p_value_from_summary(stats: SummaryStats, tail: Tail = Tail.ONE_SIDED_UPPER,
                         reference: ReferenceDist = ReferenceDist.NORMAL) -> float:
    """p-value for the point null 'parameter = 0' from the summary statistics."""
    tail = check_member(tail, Tail, "tail")
    check_instance(stats, SummaryStats, "stats")
    return tail.p_value(stats.standardized, _reference_law(stats, reference)[0])
