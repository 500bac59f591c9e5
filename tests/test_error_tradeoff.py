import math

import pytest

from errstat import (AlternativeSpec, GaussianTestModel, ObservedResult, Tail,
                     cdf_under_alternative, pdf_under_alternative, power,
                     reproducibility_probability, required_sample_size, type2_error)
from errstat.distributions import normal_cdf, normal_quantile
from errstat.errors import DomainError, InfeasibleParameterError


def test_beta_equals_one_minus_alpha_under_null():
    model = GaussianTestModel(effect_size=0.0, n=1)
    for alpha in (0.005, 0.05, 0.3, 0.9):
        assert type2_error(alpha, model) == pytest.approx(1.0 - alpha, abs=1e-12)


def test_beta_example_value():
    # Phi(z_0.95 - sqrt(10)*0.5), frozen via the cdf/quantile oracles
    model = GaussianTestModel(effect_size=0.5, n=10)
    beta = type2_error(0.05, model)
    assert beta == pytest.approx(0.5254013387545554, abs=1e-10)
    direct = normal_cdf(-normal_quantile(0.05) - math.sqrt(10) * 0.5)
    assert beta == direct


def test_beta_strictly_decreasing_in_alpha():
    model = GaussianTestModel(effect_size=0.5, n=10)
    alphas = [k / 100.0 for k in range(1, 100)]
    betas = [type2_error(a, model) for a in alphas]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))


def test_beta_strictly_decreasing_in_effect_and_n():
    for alpha in (0.05, 0.005):
        by_delta = [type2_error(alpha, GaussianTestModel(d / 10.0, 10)) for d in range(1, 12)]
        assert all(a > b for a, b in zip(by_delta, by_delta[1:]))
        by_n = [type2_error(alpha, GaussianTestModel(0.5, n)) for n in (1, 2, 5, 10, 30, 80)]
        assert all(a > b for a, b in zip(by_n, by_n[1:]))


def test_power_is_complement_and_size_under_null():
    model = GaussianTestModel(effect_size=0.0, n=1)
    assert power(0.05, model) == pytest.approx(0.05, abs=1e-12)
    model = GaussianTestModel(effect_size=0.5, n=10)
    assert power(0.05, model) == pytest.approx(0.4745986612454446, abs=1e-10)
    assert power(0.05, model) == 1.0 - type2_error(0.05, model)


def test_power_increases_with_n():
    powers = [power(0.05, GaussianTestModel(0.5, n)) for n in (1, 4, 9, 25, 64)]
    assert all(a < b for a, b in zip(powers, powers[1:]))


def test_two_sided_power_below_one_sided_for_upper_shift():
    one = power(0.05, GaussianTestModel(0.5, 10, Tail.ONE_SIDED_UPPER))
    two = power(0.05, GaussianTestModel(0.5, 10, Tail.TWO_SIDED))
    assert two < one


def test_required_sample_size_worked_example():
    # (1 * (z_0.95 + z_0.8) / 0.5)^2 = 24.73 -> 25
    assert required_sample_size(0.05, 0.2, mu_star=0.5, sigma=1.0) == 25


def test_required_sample_size_scales_with_sigma_squared():
    z_sum = normal_quantile(0.95) + normal_quantile(0.8)
    raw = (z_sum / 0.5) ** 2
    assert required_sample_size(0.05, 0.2, 0.5, 2.0) == math.ceil(4.0 * raw)
    assert required_sample_size(0.05, 0.2, 0.5, 3.0) == math.ceil(9.0 * raw)


def test_required_sample_size_grows_when_alpha_tightens():
    n_05 = required_sample_size(0.05, 0.2, 0.5, 1.0)
    n_005 = required_sample_size(0.005, 0.2, 0.5, 1.0)
    assert n_005 > n_05


@pytest.mark.parametrize("alpha,beta,mu,sigma", [
    (0.05, 0.2, 0.5, 1.0),
    (0.005, 0.2, 0.5, 1.0),
    (0.05, 0.1, 0.25, 2.0),
    (0.01, 0.05, 1.3, 0.7),
])
def test_returned_sample_size_achieves_the_power(alpha, beta, mu, sigma):
    n = required_sample_size(alpha, beta, mu, sigma)
    achieved = power(alpha, GaussianTestModel(effect_size=mu / sigma, n=n))
    assert achieved >= 1.0 - beta


def test_input_validation():
    with pytest.raises(DomainError):
        GaussianTestModel(effect_size=float("inf"), n=1)
    with pytest.raises(DomainError):
        GaussianTestModel(effect_size=0.5, n=0)
    model = GaussianTestModel(0.5, 10)
    for bad_alpha in (0.0, 1.0, -0.2, float("nan")):
        with pytest.raises(DomainError):
            type2_error(bad_alpha, model)
    with pytest.raises(DomainError):
        required_sample_size(0.05, 0.2, mu_star=0.0, sigma=1.0)
    with pytest.raises(DomainError):
        required_sample_size(0.05, 0.2, mu_star=0.5, sigma=0.0)


@pytest.mark.parametrize("tail, alpha", [(Tail.TWO_SIDED, 1.0), (Tail.TWO_SIDED, 1.5),
                                         (Tail.TWO_SIDED, 1.9999), (Tail.ONE_SIDED_UPPER, 1.0)])
def test_critical_checks_the_level_it_is_given(tail, alpha):
    # not the half level: at 1.5 that is 0.75, which would give a negative critical value
    message = rf"^alpha must lie strictly inside \(0, 1\), got {alpha}$"
    with pytest.raises(DomainError, match=message):
        tail.critical(alpha)


@pytest.mark.parametrize("call, name", [
    (lambda: Tail.TWO_SIDED.critical(5e-324), "alpha"),
    (lambda: Tail.TWO_SIDED.critical(1.5e-323), "alpha"),
    (lambda: type2_error(5e-324, GaussianTestModel(0.5, 1, "two_sided")), "alpha"),
    (lambda: cdf_under_alternative(5e-324, AlternativeSpec(0.5, 1, "two_sided")), "p"),
    (lambda: pdf_under_alternative(5e-324, AlternativeSpec(0.5), Tail.TWO_SIDED), "p"),
    (lambda: ObservedResult.from_p_value(5e-324), "p_observed"),
    (lambda: reproducibility_probability(ObservedResult(1.0), 5e-324), "alpha"),
], ids=["critical_5e-324", "critical_1.5e-323", "type2_error", "cdf_under_alternative",
        "pdf_under_alternative", "from_p_value", "reproducibility_probability"])
def test_a_two_sided_level_with_no_float_half_raises(call, name):
    # half of 5e-324 underflows to 0, and half of 1.5e-323 rounds to 1e-323; the message
    # names the level as the caller's argument does
    with pytest.raises(DomainError, match=f"^the two-sided level {name}=.* has no half in "
                                          f"floats: {name} / 2 rounds to "):
        call()


def test_a_two_sided_level_with_an_exact_half_keeps_its_value():
    assert Tail.TWO_SIDED.critical(1e-323) == float.fromhex("0x1.33bd3f27fcd02p+5")
    assert Tail.TWO_SIDED.critical(1e-323) == Tail.ONE_SIDED_UPPER.critical(5e-324)


def test_required_sample_size_overflow_is_infeasible():
    with pytest.raises(InfeasibleParameterError):
        required_sample_size(0.05, 0.2, 1e-200, 1.0)
    with pytest.raises(InfeasibleParameterError):
        required_sample_size(0.05, 0.2, 1e-300, 1e300)
