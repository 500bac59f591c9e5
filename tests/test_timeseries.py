import math
import random

import pytest

from errstat import (
    DegenerateDataError,
    DomainError,
    Series,
    autocorrelation,
    lag_regression,
    read_series_csv,
    t_from_correlation,
)
from errstat.errors import CsvFormatError

from oracles import oracle_student_t_cdf, ols_normal_equations


def _ar1_series(length: int, coef: float, noise: float, seed: int) -> Series:
    rng = random.Random(seed)
    values = [rng.gauss(0.0, 1.0)]
    for _ in range(length - 1):
        values.append(coef * values[-1] + rng.gauss(0.0, noise))
    return Series.from_values(values, start_label=2001)


def test_series_validation():
    with pytest.raises(DomainError):
        Series.from_values([1.0, 2.0])
    with pytest.raises(DomainError):
        Series.from_values([1.0, float("nan"), 3.0])


def test_csv_round_trip(tmp_path):
    path = tmp_path / "series.csv"
    rows = ["label,value"] + [f"{2001 + i},{0.1 * i + 0.05}" for i in range(20)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    series = read_series_csv(path)
    assert len(series) == 20
    assert series.start_label == 2001
    assert series.values[3] == pytest.approx(0.35)


@pytest.mark.parametrize("content,lineno", [
    ("", 1),
    ("year,burnt\n2001,0.1\n2002,0.2\n2003,0.3\n", 1),
    ("label,value\n2001,0.1\n2002,\n2003,0.3\n", 3),
    ("label,value\n2001,0.1\n2002,abc\n2003,0.3\n", 3),
    ("label,value\n2001,0.1\n2003,0.2\n2004,0.3\n", 3),
    ("label,value\n2001,0.1,9\n2002,0.2\n2003,0.3\n", 2),
    ("label,value\nfoo,0.1\n2002,0.2\n2003,0.3\n", 2),
    ("label,value\n2001,0.1\n2002,0.2\n", 3),
    # not UTF-8 (Latin-1 e-acute), numbered as the parser numbers lines, after a BOM too
    (b"label,value\r\n2001,0.1\r\n2002,\xe90.2\r\n2003,0.3\r\n", 3),
    (b"\xef\xbb\xbflabel,value\r2001,0.1\r2002,0.2\r\xe9\r", 4),
])
def test_csv_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with pytest.raises(CsvFormatError) as excinfo:
        read_series_csv(path)
    assert excinfo.value.line_number == lineno
    assert f"line {lineno}" in str(excinfo.value)


def test_lag_regression_matches_normal_equations_oracle():
    for seed in range(20):
        series = _ar1_series(24, coef=0.55, noise=0.8, seed=seed)
        fit = lag_regression(series, tau=1)
        x = list(series.values[:-1])
        y = list(series.values[1:])
        b0, b1, stderr = ols_normal_equations(x, y)
        assert fit.beta0 == pytest.approx(b0, abs=1e-10)
        assert fit.beta1 == pytest.approx(b1, abs=1e-10)
        assert fit.stderr_beta1 == pytest.approx(stderr, abs=1e-10)


def test_white_noise_has_no_lag_signal():
    rng = random.Random(42)
    series = Series.from_values([rng.gauss(0.0, 1.0) for _ in range(200)])
    fit = lag_regression(series, tau=1)
    assert abs(fit.r) < 0.15
    assert fit.p_two_sided_t > 0.05


def test_lag_fit_internal_consistency():
    series = _ar1_series(30, coef=0.6, noise=0.5, seed=7)
    fit = lag_regression(series, tau=1)
    k = fit.n_pairs
    t_from_r = fit.r * math.sqrt(k - 2) / math.sqrt(1.0 - fit.r ** 2)
    assert abs(fit.t_stat - t_from_r) < 1e-10
    assert fit.t_stat == fit.beta1 / fit.stderr_beta1
    stats = fit.summary_stats()
    assert stats.estimate == fit.beta1
    assert stats.df == k - 2


def test_lag_regression_shift_scale_equivariance():
    series = _ar1_series(25, coef=0.5, noise=0.6, seed=3)
    base = lag_regression(series, tau=2)
    shifted = lag_regression(Series.from_values([v + 11.5 for v in series.values]), tau=2)
    scaled = lag_regression(Series.from_values([3.25 * v for v in series.values]), tau=2)
    for other in (shifted, scaled):
        assert other.r == pytest.approx(base.r, abs=1e-12)
        assert other.t_stat == pytest.approx(base.t_stat, abs=1e-9)
        assert other.p_two_sided_t == pytest.approx(base.p_two_sided_t, abs=1e-12)


@pytest.mark.parametrize("power", [-1000, -600, -300, 300, 600, 1000])
def test_lag_regression_is_exact_under_power_of_two_scaling(power):
    # Values from ~1e-301 to ~1e301: the moments of the raw values would
    # underflow to zero or overflow; the scaled fit differs only in beta0.
    series = _ar1_series(40, coef=0.4, noise=0.8, seed=5)
    base = lag_regression(series, tau=2)
    scaled_series = Series.from_values([math.ldexp(v, power) for v in series.values])
    scaled = lag_regression(scaled_series, tau=2)
    assert scaled.beta0 == math.ldexp(base.beta0, power)
    assert (scaled.beta1, scaled.stderr_beta1, scaled.r, scaled.t_stat, scaled.p_two_sided_t) == (
        base.beta1, base.stderr_beta1, base.r, base.t_stat, base.p_two_sided_t)
    assert autocorrelation(scaled_series, 3) == autocorrelation(series, 3)


def test_intercept_beyond_the_largest_float_is_a_domain_error():
    # An anticorrelated series near 1.5e308 has an intercept near 3e308.
    rng = random.Random(1)
    values, prev = [], 0.0
    for _ in range(40):
        prev = -0.9 * prev + rng.gauss(0.0, 1.0)
        values.append(1.5e308 + 1e306 * prev)
    with pytest.raises(DomainError, match="intercept"):
        lag_regression(Series.from_values(values), tau=1)


def test_moments_whose_products_leave_the_float_range_still_give_finite_fits():
    # The slope's variance, 3e308, passes the largest float; its root, sqrt(3) * 1e154, does not.
    fit = lag_regression(Series.from_values([0.5, 5e-324, -5e-324, 1e154, -40.0, 1e154, 0.5]),
                         tau=4)
    assert fit.beta1 == pytest.approx(-1e154)
    assert fit.stderr_beta1 == pytest.approx(math.sqrt(3.0) * 1e154)
    assert fit.t_stat == pytest.approx(-1.0 / math.sqrt(3.0))
    assert fit.p_two_sided_t == pytest.approx(2.0 / 3.0)  # Cauchy at df 1
    # sxx * syy underflows to 0 here, so the correlation takes the two roots apart
    series = Series.from_values([1e308, 1.0000000001e308, 1.0000000002e308, 1e154, 2e154, 4e154])
    assert autocorrelation(series, 3) == pytest.approx(0.98198050606196571569, rel=1e-14)


def test_perfect_fit_is_degenerate():
    values = [1.0]
    for _ in range(14):
        values.append(0.9 * values[-1])
    with pytest.raises(DegenerateDataError):
        lag_regression(Series.from_values(values), tau=1)


def test_constant_series_is_degenerate():
    with pytest.raises(DegenerateDataError):
        lag_regression(Series.from_values([0.4] * 12), tau=1)
    with pytest.raises(DegenerateDataError):
        autocorrelation(Series.from_values([0.4] * 12), tau=1)


def test_tau_bounds():
    series = _ar1_series(10, coef=0.5, noise=0.5, seed=1)
    with pytest.raises(DomainError):
        lag_regression(series, tau=8)
    with pytest.raises(DomainError):
        lag_regression(series, tau=0)
    with pytest.raises(DomainError):
        autocorrelation(series, tau=9)


def test_autocorrelation_lag_zero_is_one():
    series = _ar1_series(15, coef=0.3, noise=0.7, seed=9)
    assert autocorrelation(series, tau=0) == 1.0


def test_autocorrelation_linear_ramp_matches_direct_formula():
    series = Series.from_values([float(k) for k in range(1, 11)])
    got = autocorrelation(series, tau=1)
    x = list(range(1, 10))
    y = list(range(2, 11))
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
    assert got == pytest.approx(num / den, abs=1e-14)
    assert got == pytest.approx(1.0, abs=1e-12)  # a ramp shifted is still the ramp


def test_autocorrelation_of_shuffled_noise_is_small():
    rng = random.Random(1234)
    values = [rng.uniform(0.0, 1.0) for _ in range(1000)]
    rng.shuffle(values)
    assert abs(autocorrelation(Series.from_values(values), tau=5)) < 0.1


def test_t_from_correlation_null():
    t, p = t_from_correlation(0.0, 20)
    assert t == 0.0
    assert p == 1.0


def test_t_from_correlation_worked_value():
    t, p = t_from_correlation(0.3839, 15)
    expected_t = 0.3839 * math.sqrt(13) / math.sqrt(1.0 - 0.3839 ** 2)
    assert t == pytest.approx(expected_t, abs=1e-12)
    assert p == pytest.approx(2.0 * oracle_student_t_cdf(-expected_t, 13), abs=1e-10)


def test_t_from_correlation_inverts():
    for r in (-0.7, -0.2, 0.1, 0.3839, 0.9):
        for n in (5, 15, 40):
            t, _ = t_from_correlation(r, n)
            back = t / math.sqrt(t * t + n - 2)
            assert back == pytest.approx(r, abs=1e-10)


def test_t_from_correlation_rejects_degenerate():
    with pytest.raises(DegenerateDataError):
        t_from_correlation(1.0, 10)
    with pytest.raises(DegenerateDataError):
        t_from_correlation(-1.0, 10)
    with pytest.raises(DomainError):
        t_from_correlation(0.5, 2)
    with pytest.raises(DomainError):
        t_from_correlation(1.5, 10)
