"""Type I / type II error trade-off for a Gaussian one-sample test.

For a test of level ``alpha`` against a standardized effect ``delta`` with
``n`` observations, the one-sided-upper type II error probability is
``Phi(z_{1-alpha} - sqrt(n)*delta)``; the two-sided variant splits alpha
across both tails. The sample-size formula inverts the one-sided relation.
SimConfig, the inputs of a simulated batch of such tests, is defined here
too, so a configuration is built and validated without loading numpy.
"""

from __future__ import annotations

import math
from enum import Enum

from .distributions import _normal_quantile, normal_cdf, normal_pdf, normal_quantile
from .errors import (DomainError, InfeasibleParameterError, Record, check_finite, check_instance,
                     check_int, check_member, check_open_unit, check_positive, check_unit)


class Tail(Enum):
    """Rejection above z or beyond +-z, and the laws that follow; none is a 1 - cdf complement."""

    ONE_SIDED_UPPER = "one_sided_upper"
    TWO_SIDED = "two_sided"

    def critical(self, alpha: float) -> float:
        """z_{1-alpha}, or z_{1-alpha/2} two-sided, as -quantile: exact, no 1 - alpha rounding.

        Raises DomainError for a two-sided level whose half is not a float (the
        smallest subnormals), where the half underflows to 0 or rounds.
        """
        alpha = check_open_unit(alpha, "alpha")
        if self is Tail.ONE_SIDED_UPPER:
            return -_normal_quantile(alpha)
        half = 0.5 * alpha
        if half + half != alpha:
            raise DomainError(f"the two-sided level alpha={alpha!r} has no half in floats: "
                              f"alpha / 2 rounds to {half!r}")
        return -_normal_quantile(half)

    def extremity(self, stat):
        """The statistic itself, or |stat| two-sided: the p-value falls as this grows."""
        return stat if self is Tail.ONE_SIDED_UPPER else abs(stat)

    def rejects(self, stat, z):
        """Whether the statistic lies in the rejection region beyond z."""
        return self.extremity(stat) > z

    def p_value(self, x, cdf=normal_cdf):
        """Null probability of a statistic at least as extreme as x."""
        return cdf(-x) if self is Tail.ONE_SIDED_UPPER else 2.0 * cdf(-abs(x))

    def rejection(self, z, mean, cdf=normal_cdf):
        """Probability that a unit-scale statistic centred at mean lands beyond z."""
        if self is Tail.ONE_SIDED_UPPER:
            return cdf(mean - z)
        a = abs(z)
        return cdf(mean - a) + cdf(-a - mean)

    def acceptance(self, z, mean, cdf=normal_cdf):
        """Probability that a unit-scale statistic centred at mean stays inside z."""
        if self is Tail.ONE_SIDED_UPPER:
            return cdf(z - mean)
        b = abs(mean)  # the law is even in mean; -z - |mean| keeps both terms off 1
        return cdf(z - b) - cdf(-z - b)

    def p_value_density(self, z, mean):
        """Density at p = p_value(z) of the p-value of a N(mean, 1) statistic."""
        null = normal_pdf(z)
        if null == 0.0:
            raise DomainError(f"the null density at z={z!r} underflows to 0")
        if self is Tail.ONE_SIDED_UPPER:
            return normal_pdf(z - mean) / null
        return (normal_pdf(z - mean) + normal_pdf(z + mean)) / (2.0 * null)

    def p_value_quantile(self, q, mean):
        """q-quantile of the p-value of a N(mean, 1) statistic; closed-form one-sided only."""
        if self is Tail.TWO_SIDED:
            raise DomainError("the two-sided p-value law has no closed-form quantile")
        return normal_cdf(normal_quantile(q) - mean)


class GaussianTestModel(Record):
    """One-sample Gaussian test design: effect size delta = mu/sigma and sample count."""

    effect_size: float
    n: int = 1
    tail: Tail = Tail.ONE_SIDED_UPPER

    def __post_init__(self):
        object.__setattr__(self, "effect_size", check_finite(self.effect_size, "effect_size"))
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        object.__setattr__(self, "tail", check_member(self.tail, Tail, "tail"))
        check_finite(self.noncentrality, "sqrt(n) * effect_size")

    @property
    def noncentrality(self) -> float:
        """Mean of the test statistic under the alternative: sqrt(n) * delta."""
        return math.sqrt(self.n) * self.effect_size


class SimConfig(Record):
    """Inputs for a batch of simulated studies; identical config -> identical output."""

    num_trials: int
    seed: int
    prior_null: float = 0.5
    alpha: float = 0.05
    effect_size: float = 0.5
    n_per_study: int = 1
    tail: Tail = Tail.ONE_SIDED_UPPER

    def __post_init__(self):
        object.__setattr__(self, "num_trials", check_int(self.num_trials, "num_trials", 1))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, maximum=2 ** 64 - 1))
        object.__setattr__(self, "prior_null", check_unit(self.prior_null, "prior_null"))
        object.__setattr__(self, "alpha", check_open_unit(self.alpha, "alpha"))
        object.__setattr__(self, "n_per_study", check_int(self.n_per_study, "n_per_study", 1))
        design = self.design  # validates effect_size and tail
        object.__setattr__(self, "effect_size", design.effect_size)
        object.__setattr__(self, "tail", design.tail)

    @property
    def design(self) -> GaussianTestModel:
        """The test every study runs: effect_size, n_per_study and tail as one design."""
        return GaussianTestModel(self.effect_size, self.n_per_study, self.tail)


def _at_level(law, level: float, model: GaussianTestModel, tail=None, name: str = "alpha"):
    # law(tail, z, mean) for the level's critical value z; tail None is the design's own.
    level = check_open_unit(level, name)
    check_instance(model, GaussianTestModel, "model")
    tail = model.tail if tail is None else check_member(tail, Tail, "tail")
    return law(tail, tail.critical(level), model.noncentrality)


def type2_error(alpha: float, model: GaussianTestModel) -> float:
    """Probability of failing to reject at level alpha when the effect is real."""
    return _at_level(Tail.acceptance, alpha, model)


def power(alpha: float, model: GaussianTestModel) -> float:
    """Probability the test detects the modeled effect, from the rejection law itself."""
    return _at_level(Tail.rejection, alpha, model)


def required_sample_size(alpha: float, beta: float, mu_star: float, sigma: float) -> int:
    """Smallest n giving power >= 1 - beta against an effect of magnitude mu_star.

    Evaluates ceil({sigma * (z_{1-alpha} + z_{1-beta}) / mu_star}**2) for the
    one-sided-upper test. Raises DomainError for mu_star == 0, where no
    finite sample size exists.
    """
    alpha = check_open_unit(alpha, "alpha")
    beta = check_open_unit(beta, "beta")
    mu_star = check_finite(mu_star, "mu_star")
    if mu_star == 0.0:
        raise DomainError(f"mu_star must be nonzero, got {mu_star!r}")
    sigma = check_positive(sigma, "sigma")
    z_sum = Tail.ONE_SIDED_UPPER.critical(alpha) + Tail.ONE_SIDED_UPPER.critical(beta)
    try:
        n = math.ceil((sigma * z_sum / mu_star) ** 2)
    except OverflowError:
        raise InfeasibleParameterError(
            f"mu_star={mu_star!r} is too small: the required sample size overflows"
        ) from None
    return max(1, n)
