import pytest

from errstat import (
    GaussianTestModel,
    PriorOdds,
    ScreeningParams,
    combined_fpr_curve,
    false_positive_rate,
    false_positive_rate_odds,
    fpr_gradient,
    gamma_for_factor,
    replication_threshold_factor,
    type2_error,
)
from errstat.errors import DomainError, InfeasibleParameterError


def test_fpr_even_prior_example():
    # 0.05*0.5 / (0.05*0.5 + 0.8*0.5) = 1/17
    params = ScreeningParams(alpha=0.05, power=0.8, prior_null=0.5)
    assert false_positive_rate(params) == pytest.approx(1.0 / 17.0, abs=1e-12)


def test_fpr_odds_one_to_ten_example():
    # prior odds 1:10 for the alternative; 0.05/(0.05 + 0.08)
    assert false_positive_rate_odds(0.05, 0.8, PriorOdds(0.1)) == pytest.approx(
        0.05 / 0.13, abs=1e-12)
    # a tenfold alpha cut at the same odds
    assert false_positive_rate_odds(0.005, 0.8, PriorOdds(0.1)) == pytest.approx(
        0.005 / 0.085, abs=1e-12)


def test_fpr_vanishes_with_alpha():
    assert false_positive_rate(ScreeningParams(1e-12, 0.8, 0.5)) < 1e-11


def test_probability_and_odds_forms_agree():
    for alpha in (0.005, 0.05, 0.2):
        for pw in (0.3, 0.8, 0.95):
            for phi in (0.1, 0.5, 10.0 / 11.0):
                a = false_positive_rate(ScreeningParams(alpha, pw, phi))
                b = false_positive_rate_odds(alpha, pw, PriorOdds.from_prior_null(phi))
                assert abs(a - b) < 1e-12


def test_half_rate_boundary_exact():
    # When alpha is constructed as power*R, alpha + power*R is exactly 2*alpha.
    assert false_positive_rate_odds(0.05, 0.8, PriorOdds(0.0625)) == 0.5
    for pw in (0.2, 0.4, 0.5, 0.8, 0.9):
        for ratio in (0.03125, 0.0625, 0.125, 0.25, 0.5):
            alpha = pw * ratio
            assert false_positive_rate_odds(alpha, pw, PriorOdds(ratio)) == 0.5
            above = PriorOdds(ratio * 1.0000001)
            assert false_positive_rate_odds(alpha, pw, above) < 0.5
            below = PriorOdds(ratio * 0.9999999)
            assert false_positive_rate_odds(alpha, pw, below) > 0.5


def test_gradient_positive_everywhere_valid():
    for alpha in (0.005, 0.05, 0.3):
        for pw in (0.2, 0.5, 0.9):
            for phi in (0.05, 0.5, 0.95):
                ga, gb = fpr_gradient(ScreeningParams(alpha, pw, phi))
                assert ga > 0.0
                assert gb > 0.0


def test_gradient_matches_finite_differences():
    h = 1e-6
    points = [(a, pw, phi)
              for a in (0.01, 0.05, 0.2)
              for pw in (0.4, 0.8)
              for phi in (0.2, 0.8)]
    assert len(points) >= 9
    for alpha, pw, phi in points:
        ga, gb = fpr_gradient(ScreeningParams(alpha, pw, phi))
        fd_alpha = (false_positive_rate(ScreeningParams(alpha + h, pw, phi))
                    - false_positive_rate(ScreeningParams(alpha - h, pw, phi))) / (2 * h)
        # beta = 1 - power, so bump power downward to bump beta upward
        fd_beta = (false_positive_rate(ScreeningParams(alpha, pw - h, phi))
                   - false_positive_rate(ScreeningParams(alpha, pw + h, phi))) / (2 * h)
        assert abs(fd_alpha - ga) / ga < 1e-5
        assert abs(fd_beta - gb) / gb < 1e-5


def test_gradient_ratio_identity():
    # G_alpha / G_beta = power / alpha from the closed forms
    for alpha, pw, phi in [(0.05, 0.8, 0.5), (0.01, 0.4, 0.2), (0.2, 0.6, 0.9)]:
        ga, gb = fpr_gradient(ScreeningParams(alpha, pw, phi))
        assert ga / gb == pytest.approx(pw / alpha, rel=1e-12)


def test_fpr_increasing_in_alpha_and_beta_on_grid():
    alphas = [k / 50.0 for k in range(1, 25)]
    rates = [false_positive_rate(ScreeningParams(a, 0.8, 0.5)) for a in alphas]
    assert all(r1 < r2 for r1, r2 in zip(rates, rates[1:]))
    powers = [k / 20.0 for k in range(1, 20)]
    rates = [false_positive_rate(ScreeningParams(0.05, pw, 0.5)) for pw in powers]
    # increasing in beta means decreasing in power
    assert all(r1 > r2 for r1, r2 in zip(rates, rates[1:]))


def test_combined_curve_couples_beta_and_rises_with_alpha():
    alphas = [k / 200.0 for k in range(1, 100)]
    for phi in (0.2, 0.5, 0.8):
        curve = combined_fpr_curve(0.5, 10, phi, alphas)
        model = GaussianTestModel(0.5, 10)
        for (alpha, beta, _), a_in in zip(curve, alphas):
            assert alpha == a_in
            assert beta == type2_error(a_in, model)
        fprs = [fpr for _, _, fpr in curve]
        assert all(f1 < f2 for f1, f2 in zip(fprs, fprs[1:]))


def test_combined_curve_under_null_equals_prior():
    curve = combined_fpr_curve(0.0, 10, 0.3, [0.01, 0.05, 0.2, 0.7])
    for _, _, fpr in curve:
        assert fpr == pytest.approx(0.3, abs=1e-12)


def test_combined_curve_holds_where_the_power_rounds_to_1():
    # power 1.0 exactly: fpr = 0.025 / (0.025 + 0.5)
    assert combined_fpr_curve(10, 100, 0.5, [0.05]) == [(0.05, 0.0, 0.047619047619047616)]


@pytest.mark.parametrize("prior_null, alpha", [(0.5, 1e-300), (5e-324, 5e-324),
                                               (1e-300, 1e-300)])
def test_combined_curve_is_1_where_the_power_is_negligible(prior_null, alpha):
    # the power rounds to 0; at x = mean - z ~ -338 its bound phi(x)/|x| ~ exp(-57000)
    # lies far below alpha * prior, even where that product underflows too
    assert combined_fpr_curve(-3, 10000, prior_null, [alpha]) == [(alpha, 1.0, 1.0)]


@pytest.mark.parametrize("effect_size, prior_null, alpha", [(-9.8, 1e-200, 1e-200),
                                                            (-0.5, 0.5, 1e-300)])
def test_combined_curve_raises_where_the_underflowed_power_may_matter(effect_size, prior_null,
                                                                      alpha):
    # the power rounds to 0 but is not negligible beside alpha * prior: Phi(-40) ~ 4e-350
    # dwarfs 1e-400 (true fpr ~ 2.5e-51), and Phi(-37.5) ~ 5e-308 is 1e-7 of 5e-301
    with pytest.raises(DomainError, match="underflows a float"):
        combined_fpr_curve(effect_size, 1, prior_null, [alpha])


def test_replication_factor_flagship():
    assert replication_threshold_factor(4.0 / 9.0, 2.0) == pytest.approx(10.0, abs=1e-12)


def test_replication_factor_identity_and_arithmetic():
    assert replication_threshold_factor(0.123, 1.0) == 1.0
    assert replication_threshold_factor(0.25, 2.0) == pytest.approx(3.0, abs=1e-12)


def test_replication_factor_infeasible():
    with pytest.raises(InfeasibleParameterError):
        replication_threshold_factor(0.5, 2.0)
    with pytest.raises(InfeasibleParameterError):
        replication_threshold_factor(0.6, 2.0)


def test_gamma_for_factor_values():
    assert gamma_for_factor(10.0, 2.0) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert gamma_for_factor(10.0, 5.0) == pytest.approx(1.0 / 9.0, abs=1e-12)
    # r barely above n -> gamma near zero
    assert gamma_for_factor(3.0 + 1e-9, 3.0) < 1e-9


def test_gamma_factor_round_trip():
    for n_fold in (1.5, 2.0, 3.0, 6.0):
        for frac in (0.1, 0.5, 0.95):
            gamma = frac / n_fold
            r = replication_threshold_factor(gamma, n_fold)
            assert r > n_fold
            assert gamma_for_factor(r, n_fold) == pytest.approx(gamma, abs=1e-10)
    for r in (4.0, 10.0, 40.0):
        for n_fold in (2.0, 3.0):
            gamma = gamma_for_factor(r, n_fold)
            assert replication_threshold_factor(gamma, n_fold) == pytest.approx(r, abs=1e-10)


def test_replication_factor_independent_of_kappa():
    # alpha = kappa*(1-gamma)/gamma at both rates: the kappa scale cancels,
    # leaving exactly the closed-form factor
    gamma, n_fold = 0.25, 2.0
    factor = replication_threshold_factor(gamma, n_fold)
    for kappa in (0.3, 1.0, 2.5):
        alpha_now = kappa * (1.0 - gamma) / gamma
        alpha_target = kappa * (1.0 - n_fold * gamma) / (n_fold * gamma)
        assert alpha_now / alpha_target == pytest.approx(factor, rel=1e-12)


def test_gamma_for_factor_infeasible():
    with pytest.raises(InfeasibleParameterError):
        gamma_for_factor(2.0, 2.0)
    with pytest.raises(InfeasibleParameterError):
        gamma_for_factor(1.5, 3.0)
    # n_fold = 1 admits no gamma at all
    with pytest.raises(InfeasibleParameterError):
        gamma_for_factor(10.0, 1.0)


def test_screening_params_reject_degenerate():
    for bad in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(DomainError):
            ScreeningParams(0.05, 0.8, bad)
        with pytest.raises(DomainError):
            ScreeningParams(bad, 0.8, 0.5)
        with pytest.raises(DomainError):
            ScreeningParams(0.05, bad, 0.5)
    with pytest.raises(DomainError):
        PriorOdds(0.0)
    with pytest.raises(DomainError):
        PriorOdds(-2.0)


def test_prior_odds_round_trip():
    odds = PriorOdds.from_prior_null(10.0 / 11.0)
    assert odds.ratio == pytest.approx(0.1, abs=1e-15)
    assert odds.prior_null == pytest.approx(10.0 / 11.0, abs=1e-15)
