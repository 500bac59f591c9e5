"""Distribution of the p-value when the effect is real, and replication odds.

Under the null the p-value is uniform on (0, 1). Under a standardized
effect delta with n observations the one-sided-upper law has density
pdf(p) = phi(z_{1-p} - sqrt(n)*delta) / phi(z_{1-p}) and distribution
cdf(p) = Phi(sqrt(n)*delta - z_{1-p}); the value of the cdf at the
significance level is exactly the power of the test. The replication
probability evaluates that same cdf at the observed effect size, by
default under the two-sided convention.
"""

from __future__ import annotations

from .error_tradeoff import GaussianTestModel, Tail, _at_level
from .errors import (Record, check_finite, check_instance, check_member, check_open_unit,
                     check_positive)


class AlternativeSpec(GaussianTestModel):
    """The Gaussian test design named by its effect size delta = mu/sigma."""

    def __init__(self, delta: float, n: int = 1, tail: Tail = Tail.ONE_SIDED_UPPER):
        super().__init__(delta, n, tail)


def pdf_under_alternative(p: float, spec: GaussianTestModel, tail: Tail | None = None) -> float:
    """Density of the p-value at p (tail None: the design's own); constant 1 when delta = 0."""
    return check_finite(_at_level(Tail.p_value_density, p, spec, tail, "p"),
                        "the p-value density")


def cdf_under_alternative(p: float, spec: GaussianTestModel, tail: Tail | None = None) -> float:
    """Probability of a p-value below p when the effect is real: the level-p test's power."""
    return _at_level(Tail.rejection, p, spec, tail, "p")


def quantile_under_alternative(q: float, spec: GaussianTestModel) -> float:
    """Inverse of the cdf of a one-sided design: the p-value below which a fraction q falls."""
    q = check_open_unit(q, "q")
    check_instance(spec, GaussianTestModel, "model")
    return spec.tail.p_value_quantile(q, spec.noncentrality)


class ObservedResult(Record):
    """An observed test outcome carried as the statistic d = sqrt(n) * delta_obs.

    Build it from exactly one of: the statistic itself, a two-sided p-value
    (d = -Phi^{-1}(p/2)), or an (estimate, stderr) pair (d = estimate/stderr).
    """

    d_observed: float

    def __post_init__(self):
        object.__setattr__(self, "d_observed", check_finite(self.d_observed, "d_observed"))

    @classmethod
    def from_statistic(cls, d_observed: float) -> "ObservedResult":
        return cls(d_observed)

    @classmethod
    def from_p_value(cls, p_observed: float) -> "ObservedResult":
        return cls(Tail.TWO_SIDED.critical(p_observed, "p_observed"))

    @classmethod
    def from_summary(cls, estimate: float, stderr: float) -> "ObservedResult":
        stderr = check_positive(stderr, "stderr")
        return cls(check_finite(estimate, "estimate") / stderr)

    @property
    def p_observed(self) -> float:
        """Two-sided p-value implied by the statistic."""
        return Tail.TWO_SIDED.p_value(self.d_observed)


def reproducibility_probability(observed: ObservedResult, alpha: float,
                                tail: Tail = Tail.TWO_SIDED) -> float:
    """Chance a fresh level-alpha study rejects when the observed effect is real (alpha at 0)."""
    alpha = check_open_unit(alpha, "alpha")
    tail = check_member(tail, Tail, "tail")
    check_instance(observed, ObservedResult, "observed")
    return tail.rejection(tail.critical(alpha), observed.d_observed)
