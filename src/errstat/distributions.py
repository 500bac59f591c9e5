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
normal_quantile, and the bracketed Newton loop of student_t_quantile, which
run on one Student-t law per df (``_StudentT``) that computes
log B(df/2, 1/2) once; the loop computes the density's log normaliser once
per solve, and takes about three cdf calls. That loop is one solve for |x|
in a bracket built from its own iterates. From 1/2 to a cut at 0.99 it takes
raw Newton steps on the cdf from the normal quantile. Below 1/2 and above the
cut it works in tail coordinates, tail(|x|) = q with q = p or the exact
q = 1 - p, by Newton on log tail in log|x|, near linear far out, from Hill's
(1970, CACM Algorithm 396) seed, or the closed forms at df 1 and 2; no level
is reflected through a complement that rounds. It stops on a step within
1e-14 * max(1, |x|), or where the cdf's own rounding stalls it: a repeated
cdf value, or a step back across the root that does not halve the one
before. At its centre, x^2 / df < 1e-4, the t cdf takes 1 - w =
x^2 / (df + x^2) and log w directly, not from w = df / (df + x^2), which
rounds toward 1 there. The scalar hot loops compare where they would call abs() or max(),
and the Gaussian cdf evaluates Cody's erfc in its own body.
"""

from __future__ import annotations

import math
import sys

try:
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # an interpreter without the C accelerator
    from statistics import _normal_dist_inv_cdf

from .errors import DomainError, check_finite, check_int, check_open_unit

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_PI = 0.5641895835477562869480794515607726
_FLOAT_MAX = sys.float_info.max

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


def _beta_cont_frac(a: float, b: float, x: float, first: float | None = None) -> float:
    # Modified Lentz evaluation of the continued fraction for I_x(a, b). first is its first
    # denominator 1 - (a + b) x / (a + 1), which a caller that knows 1 - x better than x
    # forms for itself. The clamps and the stop rule test -t < v < t, which is abs(v) < t
    # for every float, NaN included. m counts as a float: Python converts an int m
    # exactly, so each operation rounds alike.
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap if first is None else first
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


def _reg_inc_beta(a: float, b: float, log_beta: float, x: float, y: float, log_x: float,
                  log_y: float, first: float | None = None) -> float:
    """Regularized incomplete beta I_x(a, b) for x in (0, 1), handed y = 1 - x, the logs
    of both and, optionally, the first denominator of the continued fraction in x, so a
    caller that knows y better than 1 - x rounds never forms 1 - x; log_beta is log B(a, b)."""
    front = math.exp(a * log_x + b * log_y - log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x, first) / a
    return 1.0 - front * _beta_cont_frac(b, a, y) / b


_LGAMMA_HALF = math.lgamma(0.5)

# The Student-t quantile solves on the cdf from 1/2 up to _CUT and in tail coordinates
# beyond it. No root below the cut lies past _BODY_MAX: the df 1 quantile at the cut is
# cot(pi / 100) = 31.82, and the quantiles above 1/2 fall as df grows.
_CUT = 0.99
_BODY_MAX = 32.0


def _hill_seed(df: int, q: float) -> float:
    # y with Pr(T > y) near q, for df >= 3 and 0 < q < 1/2: Hill (1970), CACM Algorithm 396,
    # at the two-tailed level 2q; an expansion about the normal quantile, and far out,
    # where (2 d q)^(2/df) is small, one in its powers
    n = float(df)
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * a * math.pi) * n
    y = (2.0 * d * q) ** (2.0 / n)
    if y > 0.05 + a:
        x = _normal_quantile(q)
        y = x * x
        if n < 5.0:
            c += 0.3 * (n - 4.5) * (x + 0.6)
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        return math.sqrt(n * math.expm1(a * y * y))
    y = ((1.0 / (((n + 6.0) / (n * y) - 0.089 * d - 0.822) * (n + 2.0) * 3.0)
          + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
    return math.sqrt(n * y)


class _StudentT:
    """The Student-t law of one df, with log B(df/2, 1/2) computed once.

    cdf takes a float that is not NaN and gives the law's limit, 0 or 1, at -inf or +inf;
    quantile takes p in (0, 1), and raises DomainError where its root lies past the
    floats. Callers check."""

    __slots__ = ("df", "a", "log_beta")

    def __init__(self, df: int):
        self.df = df
        self.a = a = 0.5 * df
        self.log_beta = math.lgamma(a) + _LGAMMA_HALF - math.lgamma(a + 0.5)

    def cdf(self, x: float) -> float:
        # the tail Pr(T > |x|) = I_w(df/2, 1/2) / 2 with w = df / (df + x^2), then its side
        df, a = self.df, self.a
        x2 = x * x
        r = x2 / df
        if r < 1e-4:
            # The centre, where w rounds toward 1: 1 - w = x^2 / (df + x^2), log w =
            # -log1p(x^2 / df) and the continued fraction's first denominator
            # 1 - (a + 1/2) w / (a + 1) are taken directly, never through w.
            z = x2 / (df + x2)
            if z == 0.0:
                tail = 0.5
            else:
                tail = 0.5 * _reg_inc_beta(a, 0.5, self.log_beta, 1.0 / (1.0 + r), z,
                                           -math.log1p(r), math.log(z),
                                           (0.5 + (a + 0.5) * z) / (a + 1.0))
        elif x2 < math.inf:
            w = df / (df + x2)
            tail = 0.5 * _reg_inc_beta(a, 0.5, self.log_beta, w, 1.0 - w, math.log(w),
                                       math.log1p(-w))
        else:
            # Beyond |x| ~ 1.34e154 the square overflows. There w = df / (df + x^2) is
            # df / x^2 < 1e-292, so (1 - w)^(1/2) and the continued fraction are 1 to
            # the last bit and the tail is its front factor w^(df/2) / (df B(df/2, 1/2)).
            tail = 0.5 * (math.sqrt(df) / abs(x)) ** df * math.exp(-self.log_beta) / a
        return 1.0 - tail if x > 0.0 else tail

    def quantile(self, p: float) -> float:
        # One solve for y = |x|, inside a bisection bracket [lo, hi] whose ends are the
        # iterates on either side of the root.
        # - From 1/2 to the cut: raw Newton on the cdf from the normal quantile, which
        #   climbs the concave upper cdf from the left.
        # - Beyond, in tail coordinates: tail(y) = q, with q = p below 1/2 and q = 1 - p
        #   (exact) above the cut. Newton on log tail in log y, near linear far out, from
        #   Hill's seed; df 1 and 2 have closed forms that no step on the rounded tail
        #   improves.
        # The solve stops on a step within 1e-14 * max(1, y), or once the cdf's own
        # rounding stalls it: a residual repeated on a flat step of the cdf, or a step
        # back across the root that does not halve the one before.
        df = self.df
        body = 0.5 <= p <= _CUT
        if body:
            s, y, hi = 1.0, _normal_quantile(p), _BODY_MAX
        else:
            s, q = (-1.0, p) if p < 0.5 else (1.0, 1.0 - p)
            if df == 1:
                # cot(pi q), taken as tan(pi (1/2 - q)) near 1/2, where 1/2 - q is exact
                y = 1.0 / math.tan(math.pi * q) if q < 0.25 else math.tan(math.pi * (0.5 - q))
                if y == math.inf:
                    raise DomainError("the Student-t quantile overflows a float")
                return s * y
            if df == 2:
                return s * (1.0 - 2.0 * q) / math.sqrt(2.0 * q * (1.0 - q))
            y, hi = _hill_seed(df, q), _FLOAT_MAX
        lo, last, last_f = 0.0, 0.0, math.nan
        # the density's log normaliser and power, once per solve
        log_norm = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                    - 0.5 * math.log(df * math.pi))
        power = 0.5 * (df + 1)
        for _ in range(100):
            t = self.cdf(-y)  # the tail at y, exact on either side of 1/2
            f = (1.0 - t) - p if body else q - t  # > 0 past the root
            if f > 0.0:
                hi = y
            else:
                lo = y
            log_dens = log_norm - power * math.log1p(y * y / df)
            if body:
                y_new = y - f / math.exp(log_dens)
            elif t > 0.0:
                # the step u in log y, as d log tail / d log y = -y dens / tail; a step
                # that would overflow, or a tail that underflowed to 0 and has no log, bisects
                u = math.log(t / q) * math.exp(math.log(t) - math.log(y) - log_dens)
                y_new = y * math.exp(u) if u < 709.0 else math.inf
            else:
                y_new = math.nan
            if not (lo <= y_new <= hi):
                y_new = 0.5 * lo + 0.5 * hi  # as 0.5 * (lo + hi), whose sum can overflow
            step = y_new - y
            tol = 1e-14 * (y if y > 1.0 else 1.0)
            if (-tol <= step <= tol or f == last_f
                    or (step * last < 0.0 and 4.0 * step * step >= last * last)):
                return s * y_new
            y, last, last_f = y_new, step, f
        return s * y


def student_t_cdf(x: float, df: int) -> float:
    """Student-t distribution function with ``df`` degrees of freedom."""
    x = check_finite(x, "x")
    return _StudentT(check_int(df, "df", 1)).cdf(x)


def student_t_quantile(p: float, df: int) -> float:
    """Inverse of student_t_cdf, solved for |x| inside a bisection bracket.

    From 1/2 to the cut at 0.99, raw Newton on the cdf from the normal quantile. Below
    1/2 and above the cut, Newton on log tail(|x|) = log q in log|x| from Hill's (1970)
    seed, in tail coordinates: q = p below 1/2 and the exact q = 1 - p above the cut, so
    no level is reflected through a complement that rounds and p down to 5e-324 is
    accepted; df 1 and 2 take their closed forms. A solve stops on a step within
    1e-14 * max(1, |x|), or where the cdf's rounding stalls it: a repeated cdf value, or
    a step back across the root that does not halve the one before. A quantile past the
    floats (df 1 below p ~ 1.8e-309) raises DomainError."""
    p = check_open_unit(p, "p")
    return _StudentT(check_int(df, "df", 1)).quantile(p)
