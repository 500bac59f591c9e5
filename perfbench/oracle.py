"""scipy reference values for lib_curves, run as a child so scipy stays out of
the measured process. Reads {slice: {"fn", "points"}} as JSON on stdin and
writes {slice: [reference per point]} as JSON on stdout.

Usage: python perfbench/oracle.py < request.json
"""

from __future__ import annotations

import json
import math
import sys

from scipy import stats

norm, student_t = stats.norm, stats.t


def _f(x):
    return float(x)


def _type2(alpha, delta, n, two):
    m = math.sqrt(n) * delta
    if two:
        crit = norm.isf(0.5 * alpha)
        return (_f(norm.cdf(crit - m) - norm.cdf(-crit - m)),
                _f(norm.sf(crit - m) + norm.cdf(-crit - m)))
    crit = norm.isf(alpha)
    return _f(norm.cdf(crit - m)), _f(norm.sf(crit - m))


def _sample_size(alpha, beta, mu, sigma):
    n_real = (sigma * (norm.isf(alpha) + norm.isf(beta)) / mu) ** 2
    exact = max(1, math.ceil(n_real))
    # Within rounding of an integer either neighbour is a correct answer.
    if abs(n_real - round(n_real)) <= 1e-9 * n_real:
        return sorted({exact, max(1, round(n_real)), max(1, round(n_real) + 1)})
    return [exact]


def _fpr_curve(delta, n, phi, alphas):
    m = math.sqrt(n) * delta
    rows = []
    for alpha in alphas:
        crit = norm.isf(alpha)
        beta, power = _f(norm.cdf(crit - m)), _f(norm.sf(crit - m))
        rows.append((alpha, beta, alpha * phi / (alpha * phi + power * (1.0 - phi))))
    return rows


def _expected_cost(p0, p1, phi, mu0, mu1, sigma, c):
    return (_f(phi * norm.sf((c - mu0) / sigma) * p0
               + (1.0 - phi) * norm.cdf((c - mu1) / sigma) * p1),)


def _closed_form(p0, p1, phi, mu0, mu1, sigma):
    return (sigma ** 2 / (mu0 - mu1) * math.log((1.0 - phi) * p1 / (phi * p0))
            + 0.5 * (mu0 + mu1),)


def _p_density(p, delta, n, two):
    m = math.sqrt(n) * delta
    if two:
        z = _f(norm.isf(0.5 * p))
        return (math.exp(-0.5 * m * m) * math.cosh(m * z),)
    z = _f(norm.isf(p))
    return (math.exp(m * z - 0.5 * m * m),)


def _p_cdf(p, delta, n, two):
    m = math.sqrt(n) * delta
    if two:
        z = norm.isf(0.5 * p)
        return (_f(norm.cdf(m - z) + norm.cdf(-z - m)),)
    return (_f(norm.sf(norm.isf(p) - m)),)


def _reproducibility(d_obs, alpha, two):
    if two:
        crit = norm.isf(0.5 * alpha)
        return (_f(norm.cdf(d_obs - crit) + norm.cdf(-crit - d_obs)),)
    return (_f(norm.cdf(d_obs - norm.isf(alpha))),)


def _lag(values, tau, corr_only=False):
    fit = stats.linregress(values[:len(values) - tau], values[tau:])
    if corr_only:
        return (_f(fit.rvalue),)
    return (_f(fit.intercept), _f(fit.slope), _f(fit.stderr), _f(fit.rvalue),
            _f(fit.slope / fit.stderr), _f(fit.pvalue))


REFERENCE = {
    "normal_cdf": lambda x: (_f(norm.cdf(x)),),
    "normal_pdf": lambda x: (_f(norm.pdf(x)),),
    "normal_quantile": lambda p: (_f(norm.ppf(p)),),
    "student_t_cdf": lambda x, df: (_f(student_t.cdf(x, df)),),
    "student_t_quantile": lambda p, df: (_f(student_t.ppf(p, df)),),
    "type2_error": _type2,
    "required_sample_size": _sample_size,
    "combined_fpr_curve": _fpr_curve,
    "expected_cost": _expected_cost,
    "numeric_minimizer": _closed_form,
    "critical_from_alpha": lambda alpha, mu0, sigma: (_f(mu0 - sigma * norm.ppf(alpha)),),
    "pdf_under_alternative": _p_density,
    "cdf_under_alternative": _p_cdf,
    "reproducibility_probability": _reproducibility,
    "severity_curve": lambda est, se, df, bounds: [
        (b, _f(student_t.cdf((est - b) / se, df))) for b in bounds],
    "confidence_lower_limit": lambda est, se, df, level: (
        _f(est - student_t.ppf(level, df) * se),),
    "lag_regression": _lag,
    "autocorrelation": lambda values, tau: _lag(values, tau, corr_only=True),
}


def main() -> int:
    request = json.load(sys.stdin)
    answer = {name: [REFERENCE[spec["fn"]](*pt) for pt in spec["points"]]
              for name, spec in request.items()}
    json.dump(answer, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
