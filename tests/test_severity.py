import pytest
from scipy.stats import norm

from errstat import (
    ClaimDirection,
    ReferenceDist,
    SeverityClaim,
    SummaryStats,
    Tail,
    confidence_lower_limit,
    p_value_from_summary,
    severity,
    severity_curve,
)
from errstat.distributions import normal_quantile
from errstat.errors import DomainError

from oracles import oracle_student_t_cdf

# the lag-regression slope summary exercised throughout
SLOPE = SummaryStats(estimate=0.5782, stderr=0.1654, n=15)
CLAIM = SeverityClaim(ClaimDirection.GREATER_THAN, 0.30529)


def test_severity_reference_value():
    assert severity(SLOPE, CLAIM) == pytest.approx(0.9505285319663519, abs=1e-9)
    assert severity(SLOPE, CLAIM) == pytest.approx(0.95, abs=1e-3)


def test_severity_at_the_estimate_is_half():
    claim = SeverityClaim(ClaimDirection.GREATER_THAN, SLOPE.estimate)
    assert severity(SLOPE, claim) == 0.5
    assert severity(SLOPE, claim, ReferenceDist.STUDENT_T) == 0.5


def test_severity_limits():
    far_below = SeverityClaim(ClaimDirection.GREATER_THAN, SLOPE.estimate - 40 * SLOPE.stderr)
    assert severity(SLOPE, far_below) > 1.0 - 1e-12
    far_above = SeverityClaim(ClaimDirection.GREATER_THAN, SLOPE.estimate + 40 * SLOPE.stderr)
    assert severity(SLOPE, far_above) < 1e-12


@pytest.mark.parametrize("reference", list(ReferenceDist))
def test_severity_reads_the_limit_where_the_standardized_distance_overflows(reference):
    # (estimate - bound) / stderr is inf: the law's limits, not an error
    stats = SummaryStats(1.0, 1e-300, n=15)
    for direction, limit in ((ClaimDirection.GREATER_THAN, 1.0), (ClaimDirection.LESS_THAN, 0.0)):
        assert severity(stats, SeverityClaim(direction, -1e308), reference) == limit
        assert severity_curve(stats, [-1e308], reference, direction) == [(-1e308, limit)]


def test_directions_are_complementary():
    for bound in (-0.2, 0.3, 0.5782, 1.1):
        gt = severity(SLOPE, SeverityClaim(ClaimDirection.GREATER_THAN, bound))
        lt = severity(SLOPE, SeverityClaim(ClaimDirection.LESS_THAN, bound))
        assert gt + lt == 1.0


def test_less_than_severity_is_the_lower_tail_not_a_complement():
    lt = severity(SummaryStats(0.0, 1.0), SeverityClaim(ClaimDirection.LESS_THAN, -10.0))
    assert lt == pytest.approx(norm.sf(10.0), rel=1e-13, abs=0.0)


def test_severity_strictly_decreasing_in_bound():
    bounds = [0.1 + 0.05 * k for k in range(15)]
    curve = severity_curve(SLOPE, bounds)
    values = [s for _, s in curve]
    assert all(a > b for a, b in zip(values, values[1:]))
    for (b, s), b_in in zip(curve, bounds):
        assert b == b_in
        assert s == severity(SLOPE, SeverityClaim(ClaimDirection.GREATER_THAN, b))


def test_severity_curve_anchors():
    points = dict(severity_curve(SLOPE, [0.30529, SLOPE.estimate]))
    assert points[0.30529] == pytest.approx(0.9505285319663519, abs=1e-9)
    assert points[SLOPE.estimate] == 0.5
    bound = SLOPE.estimate - normal_quantile(0.95) * SLOPE.stderr
    value = dict(severity_curve(SLOPE, [bound]))[bound]
    assert value == pytest.approx(0.95, abs=1e-10)


def test_confidence_limit_reference_values():
    limit = confidence_lower_limit(SLOPE, 0.95)
    assert limit == pytest.approx(0.3061412101022265, abs=1e-9)
    # printed-rounding caveat: the conventional report gives 0.30529
    assert limit == pytest.approx(0.30529, abs=2.5e-3)
    assert confidence_lower_limit(SLOPE, 0.5) == SLOPE.estimate


@pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("reference", [ReferenceDist.NORMAL, ReferenceDist.STUDENT_T])
def test_confidence_limit_duality(level, reference):
    limit = confidence_lower_limit(SLOPE, level, reference)
    sev = severity(SLOPE, SeverityClaim(ClaimDirection.GREATER_THAN, limit), reference)
    assert abs(sev - level) < 1e-10


def test_severity_invariant_under_rescaling():
    scale = 7.3
    scaled = SummaryStats(estimate=SLOPE.estimate * scale, stderr=SLOPE.stderr * scale, n=15)
    claim = SeverityClaim(ClaimDirection.GREATER_THAN, 0.30529 * scale)
    assert severity(scaled, claim) == pytest.approx(severity(SLOPE, CLAIM), abs=1e-12)


def test_p_value_reference_values():
    assert p_value_from_summary(SLOPE) == pytest.approx(2.3634989404153407e-4, abs=1e-12)
    two_t = p_value_from_summary(SLOPE, Tail.TWO_SIDED, ReferenceDist.STUDENT_T)
    oracle = 2.0 * oracle_student_t_cdf(-SLOPE.estimate / SLOPE.stderr, 13)
    assert two_t == pytest.approx(oracle, abs=1e-10)
    assert two_t == pytest.approx(0.00394594068557, abs=1e-8)


def test_p_value_null_estimate():
    flat = SummaryStats(estimate=0.0, stderr=1.0)
    assert p_value_from_summary(flat, Tail.ONE_SIDED_UPPER) == 0.5
    assert p_value_from_summary(flat, Tail.TWO_SIDED) == 1.0


def test_two_sided_doubles_the_smaller_tail():
    negative = SummaryStats(estimate=-0.5782, stderr=0.1654, n=15)
    assert p_value_from_summary(negative, Tail.TWO_SIDED) == \
        p_value_from_summary(SLOPE, Tail.TWO_SIDED)


def test_summary_stats_validation():
    with pytest.raises(DomainError):
        SummaryStats(estimate=1.0, stderr=0.0)
    with pytest.raises(DomainError):
        SummaryStats(estimate=float("nan"), stderr=1.0)
    with pytest.raises(DomainError):
        SummaryStats(estimate=1.0, stderr=1.0, n=0)
    with pytest.raises(DomainError):
        SeverityClaim(ClaimDirection.GREATER_THAN, float("inf"))


def test_effective_df_rules():
    assert SLOPE.effective_df() == 13
    assert SummaryStats(1.0, 1.0, df=7).effective_df() == 7
    with pytest.raises(DomainError):
        SummaryStats(1.0, 1.0).effective_df()
    with pytest.raises(DomainError):
        SummaryStats(1.0, 1.0, n=2).effective_df()
    with pytest.raises(DomainError):
        severity(SummaryStats(1.0, 1.0), CLAIM, ReferenceDist.STUDENT_T)


def test_confidence_limit_rejects_bad_level():
    for level in (0.0, 1.0, -0.5):
        with pytest.raises(DomainError):
            confidence_lower_limit(SLOPE, level)
