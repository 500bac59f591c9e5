"""Standard-normal and Student-t kernels used everywhere else in the package.

Standard library only: the Gaussian cdf goes through Cody's rational
Chebyshev approximations to erf/erfc (double-precision accurate on the whole
real line), the quantile starts from Wichura's AS 241 and is polished with
two Halley steps against that cdf, and the t cdf is the regularized
incomplete beta function evaluated by a modified-Lentz continued fraction.
AS 241 is the function ``statistics.NormalDist.inv_cdf`` calls, taken from
the ``_statistics`` C module, so importing this module loads neither
``statistics`` nor its ``fractions`` and ``decimal``. The Cody rational
pieces use only + * / and take floats or ndarrays (the exp(-y^2) split is
handed math or numpy functions), so the Monte Carlo array kernel evaluates
this same code; everything else is a pure scalar function of floats. No
mutable global state, and no numpy import here.

Each public kernel checks its arguments once and hands them to a private
core. The solvers call the cores directly: the Halley steps of
normal_quantile, and the bracket and Newton loop of student_t_quantile,
which run on one Student-t law per df (``_StudentT``) that computes
log B(df/2, 1/2) once; the loop computes the density's log normaliser once
per solve. The scalar hot loops compare where they would call abs() or
max(), and the Gaussian cdf evaluates Cody's erfc in its own body.
"""

from __future__ import annotations

import math

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the C accelerator
    from statistics import _normal_dist_inv_cdf

from .errors import check_finite, check_int, check_open_unit

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 0.5641895835477562869480794515607726

# Cody's region cuts in y = |x| / sqrt(2), read by montecarlo's array kernel too
_CODY_SMALL_CUT = 0.46875
_CODY_MID_CUT = 4.0
_CODY_ZERO_CUT = 26.5

# Cody (1969) rational approximations for erf on [0, 0.46875] ...
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
# ... erfc on (0.46875, 4] ...
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
# ... and erfc beyond 4.
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346047e00,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)


def _erf_small(x):
    # erf(x) for |x| <= 0.46875.
    a0, a1, a2, a3, a4 = _ERF_A
    b0, b1, b2, b3 = _ERF_B
    ysq = x * x
    xnum = (((a4 * ysq + a0) * ysq + a1) * ysq + a2) * ysq
    xden = (((ysq + b0) * ysq + b1) * ysq + b2) * ysq
    return x * (xnum + a3) / (xden + b3)


def _erfc_mid_ratio(y):
    # erfc(y) * exp(y^2) for 0.46875 < y <= 4.
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _ERF_C
    d0, d1, d2, d3, d4, d5, d6, d7 = _ERF_D
    xnum = (((((((c8 * y + c0) * y + c1) * y + c2) * y + c3) * y + c4) * y + c5) * y + c6) * y
    xden = (((((((y + d0) * y + d1) * y + d2) * y + d3) * y + d4) * y + d5) * y + d6) * y
    return (xnum + c7) / (xden + d7)


def _erfc_big_ratio(y):
    # erfc(y) * exp(y^2) for 4 < y < 26.5.
    p0, p1, p2, p3, p4, p5 = _ERF_P
    q0, q1, q2, q3, q4 = _ERF_Q
    ysq = 1.0 / (y * y)
    xnum = ((((p5 * ysq + p0) * ysq + p1) * ysq + p2) * ysq + p3) * ysq
    xden = ((((ysq + q0) * ysq + q1) * ysq + q2) * ysq + q3) * ysq
    return (_INV_SQRT_PI - ysq * (xnum + p4) / (xden + q4)) / y


def _exp_neg_sq(y, exp, floor):
    # exp(-y^2) split as Cody does, so the erfc tail stays accurate in
    # relative terms; exp and floor come from math or numpy.
    ytrunc = floor(y * 16.0) / 16.0
    delta = (y - ytrunc) * (y + ytrunc)
    return exp(-ytrunc * ytrunc) * exp(-delta)


def _normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _normal_cdf(x: float) -> float:
    # 0.5 * erfc(t) at t = -x / sqrt(2), by Cody's pieces for y = |t|
    t = -x / _SQRT2
    y = t if t > 0.0 else -t
    if y <= _CODY_SMALL_CUT:
        return 0.5 * (1.0 - _erf_small(t))
    if y >= _CODY_ZERO_CUT:
        tail = 0.0
    else:
        ratio = _erfc_mid_ratio(y) if y <= _CODY_MID_CUT else _erfc_big_ratio(y)
        tail = _exp_neg_sq(y, math.exp, math.floor) * ratio
    return 0.5 * (tail if t > 0.0 else 2.0 - tail)


def normal_pdf(x: float) -> float:
    """Standard Gaussian density (2*pi)**-0.5 * exp(-x**2 / 2)."""
    return _normal_pdf(check_finite(x, "x"))


def normal_cdf(x: float) -> float:
    """Standard Gaussian distribution function, accurate to ~1e-15 absolute."""
    return _normal_cdf(check_finite(x, "x"))


def _normal_quantile(p: float) -> float:
    # AS 241, the function NormalDist().inv_cdf calls once p passes its range check
    x = _normal_dist_inv_cdf(p, 0.0, 1.0)
    # Two Halley steps against the cdf; skipped in the extreme tail where
    # the density underflows (AS 241 alone is double precision there).
    for _ in range(2):
        dens = _normal_pdf(x)
        if dens < 1e-280:
            break
        err = _normal_cdf(x) - p
        u = err / dens
        x -= u / (1.0 + 0.5 * x * u)
    return x


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1), AS 241 polished by Halley; round-trips to ~1e-15."""
    return _normal_quantile(check_open_unit(p, "p"))


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b). The clamps and
    # the stop rule test -t < v < t, which is abs(v) < t for every float, NaN included.
    # m counts as a float: Python converts an int m exactly, so each operation rounds alike.
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -fpmin < d < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(299):
        m += 1.0
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -fpmin < d < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if -fpmin < c < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -eps < delta - 1.0 < eps:
            break
    return h


def _reg_inc_beta(a: float, b: float, log_beta: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for x in [0, 1]; log_beta is log B(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


_LGAMMA_HALF = math.lgamma(0.5)


class _StudentT:
    """The Student-t law of one df, with log B(df/2, 1/2) computed once.

    cdf takes a float that is not NaN and gives the law's limit, 0 or 1, at -inf or +inf;
    quantile takes p in (0, 1). Callers check."""

    __slots__ = ("df", "a", "log_beta")

    def __init__(self, df: int):
        self.df = df
        self.a = a = 0.5 * df
        self.log_beta = math.lgamma(a) + _LGAMMA_HALF - math.lgamma(a + 0.5)

    def cdf(self, x: float) -> float:
        df = self.df
        x2 = x * x
        if x2 < math.inf:
            tail = 0.5 * _reg_inc_beta(self.a, 0.5, self.log_beta, df / (df + x2))
        else:
            # Beyond |x| ~ 1.34e154 the square overflows. There w = df / (df + x^2) is
            # df / x^2 < 1e-292, so (1 - w)^(1/2) and the continued fraction are 1 to
            # the last bit and the tail is its front factor w^(df/2) / (df B(df/2, 1/2)).
            tail = 0.5 * (math.sqrt(df) / abs(x)) ** df * math.exp(-self.log_beta) / self.a
        return 1.0 - tail if x > 0.0 else tail

    def quantile(self, p: float) -> float:
        if p < 0.5:
            return -self.quantile(check_open_unit(1.0 - p, "p"))
        # p > 0.5: the root is positive. Grow the bracket, then refine. The cdf rounds to 1
        # before hi passes 2**52 (at df 1, the slowest), so the bracket stays finite.
        df = self.df
        lo, hi = 0.0, 1.0
        while self.cdf(hi) < p:
            lo = hi
            hi *= 2.0
        x = min(max(_normal_quantile(p), lo), hi)
        # the density's log normaliser and power, once per solve
        log_norm = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi))
        power = 0.5 * (df + 1)
        # the floor is max(dens, 1e-300) and tol 1e-14 * max(1.0, |x|), NaN cases included
        for _ in range(100):
            f = self.cdf(x) - p
            if f > 0.0:
                hi = x
            else:
                lo = x
            dens = math.exp(log_norm - power * math.log1p(x * x / df))
            if dens < 1e-300:
                dens = 1e-300
            x_new = x - f / dens
            if not (lo <= x_new <= hi):
                x_new = 0.5 * (lo + hi)
            ax = -x if x < 0.0 else x
            tol = 1e-14 * (ax if ax > 1.0 else 1.0)
            if -tol <= x_new - x <= tol:
                return x_new
            x = x_new
        return x


def student_t_cdf(x: float, df: int) -> float:
    """Student-t distribution function with ``df`` degrees of freedom."""
    x = check_finite(x, "x")
    return _StudentT(check_int(df, "df", 1)).cdf(x)


def student_t_quantile(p: float, df: int) -> float:
    """Inverse of student_t_cdf; safeguarded Newton inside a bisection bracket."""
    p = check_open_unit(p, "p")
    return _StudentT(check_int(df, "df", 1)).quantile(p)
