import pytest

from errstat import (
    AlternativeSpec,
    GaussianTestModel,
    ObservedResult,
    SimConfig,
    Tail,
    cdf_under_alternative,
    pdf_under_alternative,
    power,
    quantile_under_alternative,
    reproducibility_probability,
)
from errstat.errors import DomainError

from oracles import quad_density_mass, quad_unit_interval


def test_density_is_uniform_under_null():
    spec = AlternativeSpec(delta=0.0, n=7)
    for p in (0.001, 0.05, 0.4, 0.97):
        assert pdf_under_alternative(p, spec) == 1.0


@pytest.mark.parametrize("delta", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 10, 50])
def test_density_integrates_to_one(delta, n):
    spec = AlternativeSpec(delta=delta, n=n)
    total = quad_density_mass(lambda p: pdf_under_alternative(p, spec))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_small_p_mass_grows_with_n():
    masses = [cdf_under_alternative(0.05, AlternativeSpec(0.5, n)) for n in (1, 10, 50)]
    assert masses[0] < masses[1] < masses[2]


def test_cdf_is_identity_under_null():
    spec = AlternativeSpec(delta=0.0, n=3)
    for p in (1e-6, 0.05, 0.5, 0.9, 1 - 1e-6):
        assert abs(cdf_under_alternative(p, spec) - p) < 1e-10


def test_cdf_example_equals_power():
    spec = AlternativeSpec(delta=0.5, n=10)
    value = cdf_under_alternative(0.05, spec)
    assert value == pytest.approx(0.4745986612454446, abs=1e-10)
    assert abs(value - power(0.05, GaussianTestModel(0.5, 10))) < 1e-12


def test_cdf_dominates_uniform_for_positive_effect():
    spec = AlternativeSpec(delta=0.4, n=9)
    for p in (0.001, 0.05, 0.3, 0.8):
        assert cdf_under_alternative(p, spec) >= p


def test_cdf_matches_quadrature_of_pdf():
    spec = AlternativeSpec(delta=0.5, n=10)
    for p in (0.01, 0.05, 0.3, 0.8):
        integral = quad_density_mass(lambda s: pdf_under_alternative(s, spec), upper=p)
        assert cdf_under_alternative(p, spec) == pytest.approx(integral, abs=1e-6)


def test_cdf_monotone_in_arguments():
    values = [cdf_under_alternative(p / 100.0, AlternativeSpec(0.5, 10)) for p in range(1, 100)]
    assert all(a < b for a, b in zip(values, values[1:]))
    by_delta = [cdf_under_alternative(0.05, AlternativeSpec(d / 10.0, 10)) for d in range(0, 12)]
    assert all(a < b for a, b in zip(by_delta, by_delta[1:]))
    by_n = [cdf_under_alternative(0.05, AlternativeSpec(0.5, n)) for n in (1, 4, 9, 25)]
    assert all(a < b for a, b in zip(by_n, by_n[1:]))


def test_quantile_round_trips_cdf():
    spec = AlternativeSpec(delta=0.5, n=10)
    for q in (0.1, 0.3, 0.5, 0.9):
        p = quantile_under_alternative(q, spec)
        assert cdf_under_alternative(p, spec) == pytest.approx(q, abs=1e-10)


def test_two_sided_cdf_matches_two_sided_pdf_quadrature():
    spec = AlternativeSpec(delta=0.6, n=4)
    total = quad_unit_interval(lambda p: pdf_under_alternative(p, spec, Tail.TWO_SIDED))
    assert total == pytest.approx(1.0, abs=1e-6)
    for p in (0.05, 0.4):
        integral = quad_unit_interval(
            lambda s: pdf_under_alternative(s, spec, Tail.TWO_SIDED) if 0 < s < p else 0.0,
            points=[p])
        assert cdf_under_alternative(p, spec, Tail.TWO_SIDED) == pytest.approx(integral, abs=1e-6)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_density_rejects_boundary_p(p):
    spec = AlternativeSpec(delta=0.5, n=10)
    with pytest.raises(DomainError):
        pdf_under_alternative(p, spec)
    with pytest.raises(DomainError):
        cdf_under_alternative(p, spec)


def test_observed_result_constructions_agree():
    via_stat = ObservedResult.from_statistic(3.4957678355501814)
    via_summary = ObservedResult.from_summary(0.5782, 0.1654)
    assert via_stat.d_observed == pytest.approx(via_summary.d_observed, abs=1e-12)
    # two-sided p round trip: d = -Phi^{-1}(p/2)
    p = via_stat.p_observed
    via_p = ObservedResult.from_p_value(p)
    assert via_p.d_observed == pytest.approx(via_stat.d_observed, abs=1e-8)


def test_observed_result_validation():
    with pytest.raises(DomainError):
        ObservedResult.from_p_value(0.0)
    with pytest.raises(DomainError):
        ObservedResult.from_summary(1.0, 0.0)
    with pytest.raises(DomainError):
        ObservedResult.from_statistic(float("inf"))


def test_reproducibility_at_zero_effect_equals_alpha():
    zero = ObservedResult.from_statistic(0.0)
    for alpha in (0.005, 0.05, 0.2, 0.8):
        assert abs(reproducibility_probability(zero, alpha) - alpha) < 1e-10


def test_reproducibility_increases_with_observed_effect():
    values = [reproducibility_probability(ObservedResult.from_statistic(d / 4.0), 0.05)
              for d in range(0, 20)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reproducibility_reference_values():
    # frozen via the cdf oracle: d_o = 3.496 at alpha = 0.05
    got = reproducibility_probability(ObservedResult.from_statistic(3.496), 0.05)
    assert got == pytest.approx(0.9377352506220194, abs=1e-9)
    assert got == pytest.approx(0.938, abs=1e-3)
    # a just-significant result replicates with roughly even odds
    just = ObservedResult.from_p_value(0.05)
    assert reproducibility_probability(just, 0.05) == pytest.approx(
        0.5000442877193847, abs=1e-9)


def test_one_sided_reproducibility_is_the_pvalue_cdf():
    # with d_o = sqrt(n)*delta the two quantities are the same formula
    spec = AlternativeSpec(delta=0.5, n=10)
    observed = ObservedResult.from_statistic(spec.noncentrality)
    for alpha in (0.01, 0.05, 0.2):
        assert reproducibility_probability(observed, alpha, Tail.ONE_SIDED_UPPER) == \
            pytest.approx(cdf_under_alternative(alpha, spec), abs=1e-12)


def test_reproducibility_rejects_bad_alpha():
    observed = ObservedResult.from_statistic(1.0)
    for alpha in (0.0, 1.0, -0.1):
        with pytest.raises(DomainError):
            reproducibility_probability(observed, alpha)


@pytest.mark.parametrize("tail", list(Tail))
def test_alternative_spec_is_the_one_gaussian_design(tail):
    # The p-value cdf at level p is the power at p (Hung, O'Neill, Bauer & Koehne 1997):
    # one design and one law, read through the same entry.
    for d, n in ((0.5, 10), (-0.3, 4), (0.0, 1), (2.5, 1000)):
        m = AlternativeSpec(d, n, tail)
        assert m == AlternativeSpec(d, n, tail.value) and m.tail is tail
        for p in (1e-300, 1e-6, 0.05, 0.5, 0.999):
            assert power(p, m) == cdf_under_alternative(p, m)
        config = SimConfig(1000, 7, effect_size=d, n_per_study=n, tail=tail)
        assert config.design == GaussianTestModel(d, n, tail)
    assert isinstance(AlternativeSpec(0.5, 10), GaussianTestModel)


def test_pvalue_laws_default_to_the_designs_tail():
    spec = AlternativeSpec(0.6, 4, Tail.TWO_SIDED)
    for p in (0.01, 0.05, 0.4):
        assert cdf_under_alternative(p, spec) == cdf_under_alternative(p, spec, Tail.TWO_SIDED)
        assert pdf_under_alternative(p, spec) == pdf_under_alternative(p, spec, "two_sided")
    assert cdf_under_alternative(0.05, spec, Tail.ONE_SIDED_UPPER) == \
        cdf_under_alternative(0.05, AlternativeSpec(0.6, 4))
    with pytest.raises(DomainError):
        quantile_under_alternative(0.5, spec)
