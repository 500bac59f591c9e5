"""The shared precondition validators and the error surface they give the library."""

import enum
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errstat import (
    AlternativeSpec,
    ClaimDirection,
    CostParams,
    GaussianTestModel,
    ObservedResult,
    PriorOdds,
    ReferenceDist,
    ScreeningParams,
    SeverityClaim,
    SimConfig,
    SummaryStats,
    Tail,
    alpha_from_critical,
    autocorrelation,
    cdf_under_alternative,
    closed_form_minimizer,
    combined_fpr_curve,
    confidence_lower_limit,
    cost_derivative,
    cost_monotonicity_region,
    critical_from_alpha,
    expected_cost,
    false_positive_rate,
    false_positive_rate_odds,
    fpr_gradient,
    gamma_for_factor,
    lag_regression,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    numeric_minimizer,
    p_value_from_summary,
    pdf_under_alternative,
    power,
    quantile_under_alternative,
    read_series_csv,
    replication_threshold_factor,
    reproducibility_probability,
    required_sample_size,
    severity,
    severity_curve,
    simulate_expected_cost,
    simulate_pvalues,
    simulate_studies,
    student_t_cdf,
    student_t_quantile,
    t_from_correlation,
    type2_error,
)
from errstat import errors
from errstat.errors import DomainError, ErrstatError, Record
from errstat.montecarlo import RNG_ALGORITHM
from errstat.timeseries import Series


@pytest.mark.parametrize("check, value, message", [
    (errors.check_open_unit, 1.0, "alpha must lie strictly inside (0, 1), got 1.0"),
    (errors.check_unit, -0.5, "alpha must lie in [0, 1], got -0.5"),
    (errors.check_finite, float("nan"), "alpha must be finite, got nan"),
    (errors.check_positive, 0.0, "alpha must be positive and finite, got 0.0"),
    (errors.check_open_unit, None, "alpha must lie strictly inside (0, 1), got None"),
    (errors.check_finite, "abc", "alpha must be finite, got 'abc'"),
])
def test_messages_name_the_requirement_and_the_value(check, value, message):
    with pytest.raises(DomainError) as info:
        check(value, "alpha")
    assert str(info.value) == message


def test_range_edges():
    assert errors.check_open_unit(0.25, "p") == 0.25
    for bad in (0.0, 1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            errors.check_open_unit(bad, "p")
    assert errors.check_unit(0.0, "p") == 0.0
    assert errors.check_unit(1.0, "p") == 1.0
    with pytest.raises(DomainError):
        errors.check_unit(float("nan"), "p")
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(DomainError):
            errors.check_positive(bad, "s")
        with pytest.raises(DomainError):
            errors.check_at_least(bad, "s", 0.0)
    assert errors.check_at_least(0.0, "cost", 0.0) == 0.0
    with pytest.raises(DomainError) as info:
        errors.check_at_least(0.5, "n_fold", 1.0)
    assert str(info.value) == "n_fold must be finite and >= 1.0, got 0.5"


def test_real_validators_convert_other_real_types():
    assert errors.check_finite(np.float32(0.5), "x") == 0.5
    assert type(errors.check_finite(np.float64(0.5), "x")) is float
    assert errors.check_open_unit(Fraction(1, 4), "p") == 0.25
    assert errors.check_finite(3, "x") == 3.0
    for bad in (None, "0.5", b"0.5", 1j, [0.5], 10 ** 400, Fraction(10 ** 400, 1)):
        with pytest.raises(DomainError):
            errors.check_finite(bad, "x")


def test_integer_validator():
    assert errors.check_int(3, "n", 1) == 3
    assert errors.check_int(0, "tau", 0) == 0
    value = errors.check_int(np.int64(4), "n", 1)
    assert value == 4 and type(value) is int
    for bad in (0, True, False, 2.0, 2.5, "3", None, np.float64(3.0)):
        with pytest.raises(DomainError):
            errors.check_int(bad, "n", 1)
    with pytest.raises(DomainError) as info:
        errors.check_int(2, "n", 3)
    assert str(info.value) == "n must be an integer >= 3, got 2"


def test_counts_stop_where_floats_stop_being_exact():
    assert errors.check_int(2 ** 53, "n", 1) == 2 ** 53
    with pytest.raises(DomainError) as info:
        errors.check_int(2 ** 53 + 1, "n", 1)
    assert str(info.value) == f"n must be an integer <= 9007199254740992, got {2 ** 53 + 1}"
    assert errors.check_int(2 ** 64 - 1, "seed", 0, maximum=2 ** 64 - 1) == 2 ** 64 - 1
    with pytest.raises(DomainError):
        power(0.05, GaussianTestModel(0.5, 10 ** 400))
    with pytest.raises(DomainError):
        SimConfig(10 ** 17, 1)
    with pytest.raises(DomainError, match="seed must be an integer <= 18446744073709551615"):
        SimConfig(10, 2 ** 64)
    # too many digits for repr(): the message gives the size instead of the value
    for check in (lambda v: errors.check_int(v, "n", 1), lambda v: errors.check_finite(v, "n")):
        with pytest.raises(DomainError, match="^n must .*, got an integer of 16610 bits$"):
            check(10 ** 5000)


def test_overflowing_derived_values_name_their_inputs():
    with pytest.raises(DomainError, match=r"^sqrt\(n\) \* effect_size must be finite"):
        GaussianTestModel(1e301, 2 ** 53)
    with pytest.raises(DomainError, match="^estimate / stderr must be finite"):
        SummaryStats(1e308, 5e-324)
    with pytest.raises(DomainError, match=r"^\(c - mu0\) / sigma must be finite"):
        expected_cost(0.5, CostParams(1.0, 1.0, 0.5, sigma=5e-324))
    with pytest.raises(DomainError, match=r"\|mu1 - mu0\| \+ 20 sigma must be finite"):
        numeric_minimizer(CostParams(1.0, 1.0, 0.5, sigma=1e308))


@pytest.mark.parametrize("call, what", [
    (lambda: pdf_under_alternative(1e-320, AlternativeSpec(38.3)), "the p-value density"),
    (lambda: critical_from_alpha(1e-300, CostParams(1, 1, 0.5, 1e308, 1.0, 1e308)),
     "the critical value for alpha"),
    (lambda: cost_derivative(1 - 2 ** -53, CostParams(1, 2, 0.5, 1 - 2 ** -53, 1.0, 5e-324)),
     "the cost derivative"),
    (lambda: confidence_lower_limit(SummaryStats(0.0, 1.7e308), 1e-300),
     "the confidence lower limit"),
    (lambda: CostParams(1e-300, 1e308, 0.5).cost_ratio, "cost_type2 / cost_type1"),
    (lambda: replication_threshold_factor(5e-324, 1.7976931348623157e308), "the threshold factor"),
], ids=["pdf", "critical_from_alpha", "cost_derivative", "confidence_lower_limit", "cost_ratio",
        "threshold_factor"])
def test_results_beyond_the_float_range_raise_domain_error(call, what):
    with pytest.raises(DomainError, match=f"^{what} must be finite, got -?inf$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: type2_error("abc", GaussianTestModel(0.5, 10)),
    lambda: SimConfig(10, 1, alpha=None),
    lambda: GaussianTestModel("a"),
    lambda: CostParams(1, 1, "x"),
    lambda: normal_cdf(None),
    lambda: student_t_cdf(1.0, "7"),
    lambda: ObservedResult.from_statistic(None),
    lambda: combined_fpr_curve(0.5, 10, 0.5, None),
    lambda: severity_curve(SummaryStats(0.5, 0.1), None),
    lambda: type2_error(0.05, None),
    lambda: Series(None),
    lambda: simulate_studies(SimConfig(10, 1), workers=None),
    lambda: simulate_pvalues(SimConfig(10, 1), workers="2"),
    lambda: simulate_expected_cost(0.0, CostParams(1, 1, 0.5), SimConfig(10, 1), workers=0),
    lambda: SimConfig(1000, 1, tail="sideways"),
    lambda: GaussianTestModel(0.5, tail="sideways"),
    lambda: SeverityClaim("sideways", 0.3),
    lambda: pdf_under_alternative(0.05, AlternativeSpec(0.5), tail="sideways"),
    lambda: severity(SummaryStats(0.5, 0.1, n=15), SeverityClaim(ClaimDirection.LESS_THAN, 0.3),
                     reference="sideways"),
    lambda: p_value_from_summary(SummaryStats(0.5, 0.1), tail="TWO_SIDED"),
    lambda: pdf_under_alternative(0.05, None),
    lambda: cdf_under_alternative(0.05, None),
    lambda: quantile_under_alternative(0.5, None),
    lambda: reproducibility_probability(None, 0.05),
    lambda: simulate_studies(None),
    lambda: simulate_pvalues(None),
    lambda: false_positive_rate(None),
    lambda: fpr_gradient(None),
    lambda: false_positive_rate_odds(0.05, 0.8, None),
    lambda: expected_cost(0.0, None),
    lambda: severity(None, SeverityClaim(ClaimDirection.GREATER_THAN, 0.3)),
    lambda: lag_regression(None, 1),
    lambda: Series.from_values(None),
    lambda: Series.from_values(["a", 1, 2]),
    lambda: Series.from_values(["1", "2", "3"]),
    lambda: Series((1, 2, 3), start_label="x"),
    lambda: read_series_csv(None),
    lambda: read_series_csv(3),
    lambda: read_series_csv(1.5),
    lambda: read_series_csv("a\0b"),
    lambda: read_series_csv(b"a\0b"),
])
def test_non_numeric_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_member_validator():
    assert errors.check_member(Tail.TWO_SIDED, Tail, "tail") is Tail.TWO_SIDED
    assert errors.check_member("two_sided", Tail, "tail") is Tail.TWO_SIDED
    for bad in ("sideways", None, 1, ClaimDirection.GREATER_THAN, [0.5]):
        with pytest.raises(DomainError):
            errors.check_member(bad, Tail, "tail")
    with pytest.raises(DomainError) as info:
        errors.check_member("sideways", Tail, "tail")
    assert str(info.value) == "tail must be one of 'one_sided_upper', 'two_sided', got 'sideways'"


def test_enum_value_strings_are_coerced_to_members():
    stats = SummaryStats(0.5782, 0.1654, n=15)
    claim = SeverityClaim("greater_than", 0.3)
    assert claim.direction is ClaimDirection.GREATER_THAN
    assert severity(stats, claim) == severity(stats, SeverityClaim(ClaimDirection.GREATER_THAN, 0.3))
    assert severity(stats, claim) == pytest.approx(0.9537, abs=1e-4)
    assert GaussianTestModel(0.5, 4, "two_sided").tail is Tail.TWO_SIDED
    assert severity_curve(stats, [0.3], "student_t", "less_than") == severity_curve(
        stats, [0.3], ReferenceDist.STUDENT_T, ClaimDirection.LESS_THAN)
    assert p_value_from_summary(stats, "two_sided", "normal") == p_value_from_summary(
        stats, Tail.TWO_SIDED, ReferenceDist.NORMAL)
    outcome = simulate_studies(SimConfig(1000, 1, tail="one_sided_upper"))
    assert outcome == simulate_studies(SimConfig(1000, 1, tail=Tail.ONE_SIDED_UPPER))
    assert outcome.false_pos == 25


def test_numpy_integers_are_accepted_and_stored_as_int():
    model = GaussianTestModel(0.5, np.int64(4))
    assert type(model.n) is int
    assert model == GaussianTestModel(0.5, 4)
    assert student_t_cdf(1.0, np.int64(5)) == student_t_cdf(1.0, 5)
    config = SimConfig(np.int64(1000), np.uint64(2 ** 64 - 1), n_per_study=np.int32(3))
    assert (type(config.num_trials), type(config.seed), type(config.n_per_study)) == (int, int, int)
    stats = SummaryStats(1.0, 0.5, n=np.int16(15))
    assert type(stats.n) is int and stats.effective_df() == 13
    with pytest.raises(DomainError):
        GaussianTestModel(0.5, True)
    with pytest.raises(DomainError):
        student_t_cdf(1.0, True)


def test_real_fields_are_stored_as_float():
    x = np.float32(0.25)
    objects = [GaussianTestModel(x), ScreeningParams(x, x, x), PriorOdds(x),
               CostParams(x, x, x, x, x + 1, x), SummaryStats(x, x), SeverityClaim("less_than", x),
               ObservedResult(x), SimConfig(10, 1, x, x, x), Series((x, x, np.float64(x)))]
    for obj in objects:
        fields = [getattr(obj, name) for name in obj._fields]
        types = {type(v) for value in fields for v in (value if type(value) is tuple else (value,))}
        assert float in types and np.float32 not in types, obj
    assert type(false_positive_rate(ScreeningParams(np.float32(0.05), 0.8, 0.5))) is float
    # the formulas run in double precision, at the float the float32 stands for
    assert power(0.05, GaussianTestModel(np.float32(0.1), 10)) == power(
        0.05, GaussianTestModel(float(np.float32(0.1)), 10))


_PARAMETER_CLASSES = [
    GaussianTestModel, ScreeningParams, PriorOdds, CostParams, AlternativeSpec,
    ObservedResult, SummaryStats, SeverityClaim, SimConfig, Series,
]

_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.fractions(),
    st.complex_numbers(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.decimals(),
    st.lists(st.floats(), max_size=2),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.sampled_from(list(Tail) + list(ClaimDirection)),
)


@pytest.mark.parametrize("cls", _PARAMETER_CLASSES, ids=lambda cls: cls.__name__)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_parameter_classes_construct_or_raise_errstat_error(cls, data):
    args = [data.draw(_ANY_VALUE) for _ in cls._fields]
    try:
        cls(*args)
    except ErrstatError:
        pass


# the validated domains, subnormals included
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(alpha=_OPEN_UNIT, pw=_OPEN_UNIT, phi=_OPEN_UNIT)
def test_screening_rate_and_gradient_are_floats_or_errstat_errors(alpha, pw, phi):
    # checked against exact rational arithmetic on the same floats (1 - phi rounded as stored)
    a, p, f, g = map(Fraction, (alpha, pw, phi, 1.0 - phi))
    denom = a * f + p * g
    exact = [a * f / denom, f * p * g / denom ** 2, a * f * g / denom ** 2]
    params = ScreeningParams(alpha, pw, phi)
    try:
        values = [false_positive_rate(params), *fpr_gradient(params)]
    except ErrstatError:
        assert max(exact[1:]) > sys.float_info.max
        return
    for value, want in zip(values, exact):
        assert type(value) is float and math.isfinite(value)
        if want >= sys.float_info.min:
            assert abs(Fraction(value) - want) <= Fraction(1e-15) * want, (value, float(want))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(effect=st.floats(-1e3, 1e3), n=st.integers(1, 2 ** 53), phi=_OPEN_UNIT,
       alphas=st.lists(_OPEN_UNIT, min_size=1, max_size=4))
def test_coupled_curve_is_points_in_the_unit_square_or_an_errstat_error(effect, n, phi, alphas):
    try:
        curve = combined_fpr_curve(effect, n, phi, alphas)
    except ErrstatError as exc:  # never the ScreeningParams check on a computed power
        assert not str(exc).startswith("power must")
        return
    assert [alpha for alpha, _, _ in curve] == alphas
    for _, beta, fpr in curve:
        assert type(beta) is float and 0.0 <= beta <= 1.0
        assert type(fpr) is float and 0.0 <= fpr <= 1.0


@settings(derandomize=True, max_examples=500, deadline=None)
@given(cost1=_POSITIVE, cost2=_POSITIVE, phi=_OPEN_UNIT, mu0=_FINITE, mu1=_FINITE,
       sigma=_POSITIVE)
def test_closed_form_minimizer_is_a_float_or_an_errstat_error(cost1, cost2, phi, mu0, mu1,
                                                              sigma):
    try:
        c = closed_form_minimizer(CostParams(cost1, cost2, phi, mu0, mu1, sigma))
    except ErrstatError:
        return
    assert type(c) is float and math.isfinite(c)


# The sweep's values: the edges of each validated domain, the subnormals, the float range and
# the non-finite floats; and counts from 1 to 2**53, half of them small.
_SWEPT_FLOATS = (0.0, 5e-324, -5e-324, 1e-300, 1e-17, 0.05, 0.5, 1.0 - 1e-16, 1.0, 1.5, 2.0,
                 40.0, -40.0, 1e154, 1e300, -1e300, 1.797e308, -1.797e308, math.inf, -math.inf,
                 math.nan)

# Each public function of floats x, counts k and one member of each enum, as it is called.
_SWEPT_CALLS = {
    "normal_pdf": lambda x, k, t, d, r: normal_pdf(x[0]),
    "normal_cdf": lambda x, k, t, d, r: normal_cdf(x[0]),
    "normal_quantile": lambda x, k, t, d, r: normal_quantile(x[0]),
    "student_t_cdf": lambda x, k, t, d, r: student_t_cdf(x[0], k[0]),
    "student_t_quantile": lambda x, k, t, d, r: student_t_quantile(x[0], k[0]),
    "Tail.critical": lambda x, k, t, d, r: t.critical(x[0]),
    "Tail.p_value": lambda x, k, t, d, r: t.p_value(x[0]),
    "Tail.rejection": lambda x, k, t, d, r: t.rejection(x[0], x[1]),
    "Tail.acceptance": lambda x, k, t, d, r: t.acceptance(x[0], x[1]),
    "Tail.p_value_density": lambda x, k, t, d, r: t.p_value_density(x[0], x[1]),
    "Tail.p_value_quantile": lambda x, k, t, d, r: t.p_value_quantile(x[0], x[1]),
    "type2_error": lambda x, k, t, d, r: type2_error(x[0], GaussianTestModel(x[1], k[0], t)),
    "power": lambda x, k, t, d, r: power(x[0], GaussianTestModel(x[1], k[0], t)),
    "required_sample_size": lambda x, k, t, d, r: required_sample_size(*x[:4]),
    "false_positive_rate": lambda x, k, t, d, r: false_positive_rate(ScreeningParams(*x[:3])),
    "false_positive_rate_odds": lambda x, k, t, d, r: false_positive_rate_odds(
        x[0], x[1], PriorOdds(x[2])),
    "PriorOdds.from_prior_null": lambda x, k, t, d, r: PriorOdds.from_prior_null(x[0]).ratio,
    "fpr_gradient": lambda x, k, t, d, r: fpr_gradient(ScreeningParams(*x[:3])),
    "combined_fpr_curve": lambda x, k, t, d, r: combined_fpr_curve(x[0], k[0], x[1], x[2:4]),
    "replication_threshold_factor": lambda x, k, t, d, r: replication_threshold_factor(
        x[0], x[1]),
    "gamma_for_factor": lambda x, k, t, d, r: gamma_for_factor(x[0], x[1]),
    "expected_cost": lambda x, k, t, d, r: expected_cost(x[0], CostParams(*x[1:])),
    "cost_derivative": lambda x, k, t, d, r: cost_derivative(x[0], CostParams(*x[1:])),
    "CostParams.cost_ratio": lambda x, k, t, d, r: CostParams(*x[1:]).cost_ratio,
    "closed_form_minimizer": lambda x, k, t, d, r: closed_form_minimizer(CostParams(*x[1:])),
    "numeric_minimizer": lambda x, k, t, d, r: numeric_minimizer(CostParams(*x[1:])),
    "cost_monotonicity_region": lambda x, k, t, d, r: cost_monotonicity_region(
        x[0], CostParams(*x[1:])),
    "alpha_from_critical": lambda x, k, t, d, r: alpha_from_critical(x[0], CostParams(*x[1:])),
    "critical_from_alpha": lambda x, k, t, d, r: critical_from_alpha(x[0], CostParams(*x[1:])),
    "pdf_under_alternative": lambda x, k, t, d, r: pdf_under_alternative(
        x[0], AlternativeSpec(x[1], k[0], t)),
    "cdf_under_alternative": lambda x, k, t, d, r: cdf_under_alternative(
        x[0], AlternativeSpec(x[1], k[0], t)),
    "quantile_under_alternative": lambda x, k, t, d, r: quantile_under_alternative(
        x[0], AlternativeSpec(x[1], k[0])),
    "ObservedResult.from_p_value": lambda x, k, t, d, r: ObservedResult.from_p_value(x[0]),
    "ObservedResult.from_summary": lambda x, k, t, d, r: ObservedResult.from_summary(x[0], x[1]),
    "ObservedResult.p_observed": lambda x, k, t, d, r: ObservedResult(x[0]).p_observed,
    "reproducibility_probability": lambda x, k, t, d, r: reproducibility_probability(
        ObservedResult(x[0]), x[1], t),
    "severity": lambda x, k, t, d, r: severity(SummaryStats(x[0], x[1], k[0]),
                                               SeverityClaim(d, x[2]), r),
    "severity_curve": lambda x, k, t, d, r: severity_curve(SummaryStats(x[0], x[1], k[0]),
                                                           x[2:4], r, d),
    "confidence_lower_limit": lambda x, k, t, d, r: confidence_lower_limit(
        SummaryStats(x[0], x[1], k[0]), x[2], r),
    "p_value_from_summary": lambda x, k, t, d, r: p_value_from_summary(
        SummaryStats(x[0], x[1], k[0]), t, r),
    "lag_regression": lambda x, k, t, d, r: lag_regression(Series(x), k[0]),
    "autocorrelation": lambda x, k, t, d, r: autocorrelation(Series(x), k[0] - 1),
    "t_from_correlation": lambda x, k, t, d, r: t_from_correlation(x[0], k[0]),
    # the simulators run at every tenth draw, at up to two chunks of trials
    "simulate_studies": lambda x, k, t, d, r: simulate_studies(
        SimConfig(min(k[0], 65_537), k[1], *x[:3], k[1], t), 1 + k[1] % 2),
    "simulate_pvalues": lambda x, k, t, d, r: simulate_pvalues(
        SimConfig(min(k[0], 65_537), k[1], *x[:3], k[1], t), 1 + k[1] % 2),
    "simulate_expected_cost": lambda x, k, t, d, r: simulate_expected_cost(
        x[0], CostParams(*x[1:]), SimConfig(min(k[0], 65_537), k[1]), 1 + k[1] % 2),
}


def _finite_numbers(value):
    # the numbers in a result, through tuples, lists and result records; enum members,
    # None (undefined) and the simulators' generator record pass
    if value is None or value == RNG_ALGORITHM:
        return True
    if isinstance(value, (tuple, list)):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, Record):
        return all(_finite_numbers(getattr(value, name)) for name in value._fields)
    if isinstance(value, enum.Enum) or type(value) is int:
        return True
    return type(value) is float and math.isfinite(value)


def test_public_functions_return_finite_floats_or_raise_errstat_errors():
    rng = random.Random(17)
    enums = (list(Tail), list(ClaimDirection), list(ReferenceDist))
    failures = []
    for draw in range(3000):
        x = tuple(rng.choice(_SWEPT_FLOATS) for _ in range(7))
        k = tuple(rng.choice((rng.randint(1, 8), int(2.0 ** rng.uniform(0, 53))))
                  for _ in range(2))
        members = [rng.choice(kind) for kind in enums]
        for name, call in _SWEPT_CALLS.items():
            if draw % 10 and name.startswith("simulate_"):
                continue
            try:
                result = call(x, k, *members)
            except ErrstatError:
                continue
            except Exception as exc:  # noqa: BLE001 - any other error is a finding
                failures.append((name, x, k, members, repr(exc)))
                continue
            if not _finite_numbers(result):
                failures.append((name, x, k, members, result))
    assert not failures, failures[:5]
