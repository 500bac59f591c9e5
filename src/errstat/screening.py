"""Diagnostic-screening model of the false positive rate.

Mixes the significance level alpha, power 1 - beta, and the prevalence of
true nulls into the posterior probability that a rejection is wrong:

    fpr = alpha * prior / (alpha * prior + power * (1 - prior))

with an equivalent prior-odds form alpha / (alpha + power * R). Also covers
the sensitivity of that rate to alpha and beta, the coupled curve where
beta honors the Gaussian trade-off, and the true-positive-rate arithmetic
behind "cut the threshold by r to multiply the replication rate n-fold".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import error_tradeoff
from .errors import (DomainError, InfeasibleParameterError, check_at_least, check_finite,
                     check_instance, check_open_unit, check_positive, check_sequence)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ScreeningParams:
    """Level, power, and prior probability that the tested null is true."""

    alpha: float
    power: float
    prior_null: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_open_unit(self.alpha, "alpha"))
        object.__setattr__(self, "power", check_open_unit(self.power, "power"))
        # Degenerate priors are rejected: at 0 or 1 the rate is identically
        # 0 or 1 and the derivative formulas lose their sign guarantees.
        object.__setattr__(self, "prior_null", check_open_unit(self.prior_null, "prior_null"))


@dataclass(frozen=True)
class PriorOdds:
    """Odds R that a tested hypothesis's alternative is true, R = (1-prior)/prior."""

    ratio: float

    def __post_init__(self):
        object.__setattr__(self, "ratio", check_positive(self.ratio, "odds ratio"))

    @classmethod
    def from_prior_null(cls, prior_null: float) -> "PriorOdds":
        prior_null = check_open_unit(prior_null, "prior_null")
        return cls((1.0 - prior_null) / prior_null)

    @property
    def prior_null(self) -> float:
        return 1.0 / (1.0 + self.ratio)


def _scaled_terms(alpha: float, power: float, prior_null: float) -> tuple:
    # alpha * prior and power * (1 - prior) as a * 2**k and b * 2**k, the larger in [0.25, 1),
    # and the frexp parts of alpha, power, prior and 1 - prior. Mantissa products never
    # underflow, and k <= 0 scales up exactly, so ordinary inputs keep the plain formula's bits.
    parts = [math.frexp(v) for v in (alpha, power, prior_null, 1.0 - prior_null)]
    (ma, ea), (mp, ep), (mf, ef), (mg, eg) = parts
    k = min(0, max(ea + ef, ep + eg))
    return math.ldexp(ma * mf, ea + ef - k), math.ldexp(mp * mg, ep + eg - k), k, parts


def _false_positive_rate(alpha: float, power: float, prior_null: float) -> float:
    # the rate of alpha and prior_null in (0, 1) and a power in (0, 1], checked or computed
    a, b = alpha * prior_null, power * (1.0 - prior_null)
    if a < 2.0 ** -1022 or b < 2.0 ** -1022:  # a subnormal term has lost bits: rescale exactly
        a, b, _, _ = _scaled_terms(alpha, power, prior_null)
    return a / (a + b)


def _rate_past_underflow(tail, z: float, mean: float, alpha: float, prior_null: float) -> float:
    # The computed power is 0, so each Gaussian cdf term in it was taken at an x < -37, where
    # Phi(x) < phi(x) / |x| (Mills' ratio). The rate is 1 / (1 + power * (1 - prior_null) / a),
    # a = alpha * prior_null, so it rounds to 1 when the bound on that ratio is below 2**-54;
    # 2**-55 leaves room for the bound's own rounding. Any larger ratio is not known to 1 bit.
    log_odds = math.log(alpha) + math.log(prior_null) - math.log1p(-prior_null)
    ratio = tail.rejection(z, mean, lambda x: math.exp(
        min(0.0, -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI - log_odds)))
    if ratio < 2.0 ** -55:
        return 1.0
    raise DomainError(f"the power at alpha={alpha!r} underflows a float but may not be negligible "
                      f"beside alpha * prior_null, so the false positive rate cannot be computed")


def false_positive_rate(params: ScreeningParams) -> float:
    """Posterior probability the null is true given a rejection."""
    check_instance(params, ScreeningParams, "params")
    return _false_positive_rate(params.alpha, params.power, params.prior_null)


def false_positive_rate_odds(alpha: float, power: float, odds: PriorOdds) -> float:
    """Prior-odds form alpha / (alpha + power * R); exactly 1/2 on the boundary R = alpha/power."""
    alpha = check_open_unit(alpha, "alpha")
    power = check_open_unit(power, "power")
    check_instance(odds, PriorOdds, "odds")
    return alpha / (alpha + power * odds.ratio)


def fpr_gradient(params: ScreeningParams) -> tuple[float, float]:
    """Partial derivatives of the rate with respect to alpha and beta.

    Both are strictly positive on the open parameter cube, which is what
    makes "lower alpha, lower false positive rate" unconditional in this
    model. Returns (d/d_alpha, d/d_beta) = (phi power, alpha phi) (1 - phi) / denom**2;
    raises DomainError where one exceeds the float range (near alpha = power = 5e-324).
    """
    check_instance(params, ScreeningParams, "params")
    a, b, k, ((ma, ea), (mp, ep), (mf, ef), (mg, eg)) = _scaled_terms(
        params.alpha, params.power, params.prior_null)
    denom_sq = (a + b) * (a + b)
    try:
        return (math.ldexp(mf * mp * mg / denom_sq, ef + ep + eg - 2 * k),
                math.ldexp(ma * mf * mg / denom_sq, ea + ef + eg - 2 * k))
    except OverflowError:
        raise DomainError(f"the gradient of the false positive rate overflows a float at "
                          f"alpha={params.alpha!r}, power={params.power!r}") from None


def combined_fpr_curve(
    effect_size: float,
    n: int,
    prior_null: float,
    alphas: Sequence[float],
) -> list[tuple[float, float, float]]:
    """False positive rate along alphas with beta coupled to the trade-off.

    Unlike the plain screening formula (where beta is a free scalar), each point
    recomputes beta = type2_error(alpha) and power(alpha), never as 1 - beta, for the
    given effect size and sample count. Returns [(alpha, beta, fpr), ...] in input order.
    Where the power rounds to 0, fpr is 1 if alpha * prior_null dwarfs the power's Mills-ratio
    bound, and DomainError is raised otherwise.
    """
    prior_null = check_open_unit(prior_null, "prior_null")
    model = error_tradeoff.GaussianTestModel(effect_size=effect_size, n=n)
    tail, mean = model.tail, model.noncentrality
    out = []
    for alpha in check_sequence(alphas, "alphas"):
        alpha = check_open_unit(alpha, "alpha")
        z = tail.critical(alpha)  # one critical value serves both laws
        power = tail.rejection(z, mean)
        fpr = (_false_positive_rate(alpha, power, prior_null) if power
               else _rate_past_underflow(tail, z, mean, alpha, prior_null))
        out.append((alpha, tail.acceptance(z, mean), fpr))
    return out


def replication_threshold_factor(gamma: float, n_fold: float) -> float:
    """Factor by which the threshold must shrink to raise the true positive rate n-fold.

    gamma is the current true positive rate Pr(alternative | rejection); the
    answer n_fold*(1-gamma)/(1-n_fold*gamma) does not depend on power or the
    prior odds (they cancel). Only possible while n_fold*gamma < 1.
    """
    gamma = check_open_unit(gamma, "gamma")
    n_fold = check_at_least(n_fold, "n_fold", 1.0)
    if n_fold * gamma >= 1.0:
        raise InfeasibleParameterError(
            f"a true positive rate of {gamma} cannot be raised {n_fold}-fold: "
            f"that requires gamma < 1/{n_fold}"
        )
    return check_finite(n_fold * (1.0 - gamma) / (1.0 - n_fold * gamma), "the threshold factor")


def gamma_for_factor(r: float, n_fold: float) -> float:
    """True positive rate at which a threshold cut by factor r raises it n-fold.

    Inverts replication_threshold_factor: gamma = (r - n)/(n*(r - 1)).
    Requires r > n_fold; n_fold == 1 is degenerate (the factor is then
    identically 1, so no r > 1 is attainable).
    """
    r = check_finite(r, "r")
    n_fold = check_at_least(n_fold, "n_fold", 1.0)
    if not (r > n_fold):
        raise InfeasibleParameterError(
            f"threshold factor r must exceed n_fold (got r={r}, n_fold={n_fold}): "
            "shrinking the threshold cannot raise the rate by more than the factor itself"
        )
    gamma = (r - n_fold) / (n_fold * (r - 1.0))
    if not (gamma < 1.0 / n_fold):
        raise InfeasibleParameterError(
            f"no feasible true positive rate: n_fold={n_fold} admits none below 1/{n_fold}"
        )
    return gamma
