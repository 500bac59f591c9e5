import math
import os
import random
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import mpmath
import pytest
from scipy.stats import t

from errstat import distributions as dist
from errstat.errors import DomainError

from oracles import (
    bisect_inverse,
    central_difference,
    oracle_normal_cdf,
    oracle_student_t_cdf,
)


def test_pdf_at_zero_is_inverse_sqrt_2pi():
    assert dist.normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.3, 4.7])
def test_pdf_symmetry(x):
    assert dist.normal_pdf(x) == dist.normal_pdf(-x)


@pytest.mark.parametrize("x", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_pdf_matches_numeric_derivative_of_cdf(x):
    deriv = central_difference(dist.normal_cdf, x, h=1e-5)
    assert abs(deriv - dist.normal_pdf(x)) / dist.normal_pdf(x) < 1e-6


def test_pdf_at_one_against_cdf_slope():
    # same check as above, pinned at the spec'd point
    deriv = central_difference(dist.normal_cdf, 1.0, h=1e-5)
    assert dist.normal_pdf(1.0) == pytest.approx(deriv, rel=1e-6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_pdf_cdf_reject_non_finite(bad):
    with pytest.raises(DomainError):
        dist.normal_pdf(bad)
    with pytest.raises(DomainError):
        dist.normal_cdf(bad)


def test_cdf_at_zero():
    assert dist.normal_cdf(0.0) == 0.5


def test_cdf_frozen_values():
    # computed with the series/continued-fraction oracle ahead of the build
    assert dist.normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
    assert dist.normal_cdf(-5.46) == pytest.approx(2.380672916270039e-08, rel=1e-9)


def test_cdf_matches_oracle_on_grid():
    for i in range(-160, 161):
        x = i / 20.0
        assert abs(dist.normal_cdf(x) - oracle_normal_cdf(x)) < 1e-10


def test_cdf_monotone_and_symmetric():
    grid = [i / 7.0 for i in range(-56, 57)]
    values = [dist.normal_cdf(x) for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for x in grid:
        assert abs(dist.normal_cdf(x) + dist.normal_cdf(-x) - 1.0) < 1e-12


def test_quantile_basics():
    assert dist.normal_quantile(0.5) == 0.0
    assert dist.normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert dist.normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)


def test_quantile_agrees_with_bisection_oracle():
    for p in (0.975, 0.95, 0.8, 0.1, 0.025):
        ref = bisect_inverse(oracle_normal_cdf, p, -10.0, 10.0)
        assert dist.normal_quantile(p) == pytest.approx(ref, abs=1e-9)


def test_quantile_cdf_round_trips():
    ps = [1e-6, 1e-4, 0.01, 0.3, 0.5, 0.77, 0.99, 1 - 1e-4, 1 - 1e-6]
    for p in ps:
        assert abs(dist.normal_cdf(dist.normal_quantile(p)) - p) < 1e-9
    for x in [-4.5, -2.0, -0.3, 0.0, 0.9, 3.3]:
        assert abs(dist.normal_quantile(dist.normal_cdf(x)) - x) < 1e-8


def test_quantiles_strictly_increasing():
    ps = [k / 200.0 for k in range(1, 200)]
    normals = [dist.normal_quantile(p) for p in ps]
    assert all(a < b for a, b in zip(normals, normals[1:]))
    for df in (1, 5, 40):
        ts = [dist.student_t_quantile(p, df) for p in ps]
        assert all(a < b for a, b in zip(ts, ts[1:]))


def _quantile_probabilities():
    rng = random.Random(241)
    return ([10.0 ** -rng.uniform(0.0, 300.0) for _ in range(300)]
            + [1.0 - 10.0 ** -rng.uniform(0.3, 16.0) for _ in range(300)]
            + [rng.random() for _ in range(300)])


def test_quantile_seed_is_the_inv_cdf_of_the_standard_normal_dist():
    # NormalDist().inv_cdf hands p in (0, 1) to this same function
    normal = NormalDist()
    for p in _quantile_probabilities():
        assert dist._normal_dist_inv_cdf(p, 0.0, 1.0) == normal.inv_cdf(p), p


def _run_python(code: str) -> str:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_neither_statistics_nor_its_number_types():
    code = ("import sys, errstat; "
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))")
    assert _run_python(code).split() == ["[]"]


def test_quantile_is_the_same_without_the_statistics_c_module():
    # a None entry makes `from _statistics import ...` raise ImportError
    code = ("import sys; sys.modules['_statistics'] = None; "
            "from errstat.distributions import normal_quantile; "
            f"print([normal_quantile(p).hex() for p in {_quantile_probabilities()!r}])")
    expected = [dist.normal_quantile(p).hex() for p in _quantile_probabilities()]
    assert _run_python(code).strip() == repr(expected)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_quantile_rejects_bad_probabilities(p):
    with pytest.raises(DomainError):
        dist.normal_quantile(p)


@pytest.mark.parametrize("df", [1, 2, 7, 40, 500])
def test_t_cdf_symmetry_and_median(df):
    assert dist.student_t_cdf(0.0, df) == 0.5
    for x in (0.3, 1.1, 2.6):
        assert dist.student_t_cdf(x, df) + dist.student_t_cdf(-x, df) == pytest.approx(1.0, abs=1e-14)


def test_t_cdf_against_quadrature_oracle():
    for df in (1, 3, 5, 13, 30, 200):
        for x in (-4.0, -1.5, -0.4, 0.7, 1.650, 2.0, 5.0):
            assert abs(dist.student_t_cdf(x, df) - oracle_student_t_cdf(x, df)) < 1e-8


def test_t_cdf_cauchy_closed_form():
    # df=1 is Cauchy: F(1) = 3/4
    assert dist.student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)


def test_t_cdf_keeps_the_far_tail_where_x_squared_overflows():
    # Past |x| ~ 1.34e154, x * x is inf; the Cauchy tail there is about 1 / (pi |x|).
    assert dist.student_t_cdf(-1.35e154, 1) == pytest.approx(2.35785100877e-155, rel=1e-11)
    with mpmath.workdps(40):
        for i in range(201):
            x = 1.35e154 * (1e300 / 1.35e154) ** (i / 200)
            xm = mpmath.mpf(x)
            ref = float(mpmath.betainc(0.5, 0.5, 0, 1 / (1 + xm * xm), regularized=True) / 2)
            assert math.isclose(dist.student_t_cdf(-x, 1), ref, rel_tol=1e-13, abs_tol=0.0), x
            assert dist.student_t_cdf(x, 1) == 1.0


def test_t_cdf_approaches_normal_for_large_df():
    grid = [i / 10.0 for i in range(-40, 41)]
    worst = max(abs(dist.student_t_cdf(x, 10000) - dist.normal_cdf(x)) for x in grid)
    assert worst < 1e-4
    assert dist.student_t_cdf(1.650, 10000) == pytest.approx(0.9505, abs=5e-4)


def test_t_cdf_monotone_in_x():
    values = [dist.student_t_cdf(x / 4.0, 9) for x in range(-30, 31)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("df", [0, -3, 2.5, "7"])
def test_t_cdf_rejects_bad_df(df):
    with pytest.raises(DomainError):
        dist.student_t_cdf(1.0, df)


def test_t_quantile_median_and_round_trip():
    assert dist.student_t_quantile(0.5, 7) == 0.0
    for df in (1, 2, 5, 13, 120):
        for p in (0.01, 0.2, 0.5, 0.66, 0.975, 0.999):
            q = dist.student_t_quantile(p, df)
            assert abs(dist.student_t_cdf(q, df) - p) < 1e-8


def test_t_quantile_against_bisection_oracle():
    ref = bisect_inverse(lambda x: oracle_student_t_cdf(x, 13), 0.95, -50.0, 50.0)
    assert dist.student_t_quantile(0.95, 13) == pytest.approx(ref, abs=1e-8)
    assert dist.student_t_quantile(0.95, 13) == pytest.approx(1.7709333959867988, abs=1e-8)


@pytest.mark.parametrize("p, df, rel", [(0.975, 5, 1e-15), (0.99999, 3, 1e-12)])
def test_t_quantile_keeps_the_root_it_finds(p, df, rel):
    # a Newton step that lands exactly on the root must not be traded for a bisection step
    ref = t.ppf(p, df)
    assert abs(dist.student_t_quantile(p, df) - ref) <= rel * ref


def test_t_quantile_rejects_bad_inputs():
    with pytest.raises(DomainError):
        dist.student_t_quantile(0.0, 5)
    with pytest.raises(DomainError):
        dist.student_t_quantile(0.4, 0)
