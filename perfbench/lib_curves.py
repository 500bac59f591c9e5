"""lib_curves: in-process passes over seed-drawn grids through the public library.

Each pass evaluates every slice once; a slice is one public function over
one region of its domain. About a fifth of the points lie in deep tails
(p down to 1e-300, |x| up to 38, df up to 1e9). Every value is checked
against scipy (computed once per run in the oracle child) at the tolerance
stated in common.py, and every later pass must repeat the first bit for bit.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from statistics import NormalDist

from common import BENCH_DIR, MINIMIZER_GAP_TOL, p90, peak_rss_mb, rel_err, run_child, within

# slice name -> (function, points per pass at scale 1, output kinds)
SLICES = {
    "normal_cdf.body": ("normal_cdf", 300, ("prob",)),
    "normal_cdf.tail": ("normal_cdf", 75, ("prob",)),
    "normal_pdf.body": ("normal_pdf", 200, ("prob",)),
    "normal_pdf.tail": ("normal_pdf", 50, ("prob",)),
    "normal_quantile.body": ("normal_quantile", 200, ("loc",)),
    "normal_quantile.tail_lo": ("normal_quantile", 30, ("loc",)),
    "normal_quantile.tail_hi": ("normal_quantile", 20, ("loc",)),
    "student_t_cdf.body": ("student_t_cdf", 150, ("prob",)),
    "student_t_cdf.tail_x": ("student_t_cdf", 20, ("prob",)),
    "student_t_cdf.huge_df": ("student_t_cdf", 20, ("prob",)),
    "student_t_cdf.center": ("student_t_cdf", 10, ("prob",)),
    "student_t_quantile.body": ("student_t_quantile", 30, ("loc",)),
    "student_t_quantile.tail": ("student_t_quantile", 8, ("loc",)),
    "student_t_quantile.center": ("student_t_quantile", 4, ("loc",)),
    "defect.normal_cdf": ("normal_cdf", 1, ("prob",)),
    "defect.student_t_quantile": ("student_t_quantile", 1, ("loc",)),
    "defect.student_t_cdf": ("student_t_cdf", 1, ("prob",)),
    "defect.normal_quantile": ("normal_quantile", 1, ("loc",)),
    "type2_error.body": ("type2_error", 150, ("prob", "prob")),
    "type2_error.tail": ("type2_error", 40, ("prob", "prob")),
    "required_sample_size.body": ("required_sample_size", 60, ("int",)),
    "required_sample_size.tail": ("required_sample_size", 15, ("int",)),
    "combined_fpr_curve.body": ("combined_fpr_curve", 4, ("prob",) * 3),
    "combined_fpr_curve.tail": ("combined_fpr_curve", 2, ("prob",) * 3),
    "expected_cost.body": ("expected_cost", 150, ("prob",)),
    "expected_cost.tail": ("expected_cost", 40, ("prob",)),
    "numeric_minimizer.body": ("numeric_minimizer", 8, ("gap",)),
    "numeric_minimizer.tail": ("numeric_minimizer", 2, ("gap",)),
    "critical_from_alpha.body": ("critical_from_alpha", 100, ("loc",)),
    "critical_from_alpha.tail": ("critical_from_alpha", 25, ("loc",)),
    "pdf_under_alternative.body": ("pdf_under_alternative", 100, ("prob",)),
    "pdf_under_alternative.tail": ("pdf_under_alternative", 25, ("prob",)),
    "cdf_under_alternative.body": ("cdf_under_alternative", 100, ("prob",)),
    "cdf_under_alternative.tail": ("cdf_under_alternative", 25, ("prob",)),
    "reproducibility_probability.body": ("reproducibility_probability", 60, ("prob",)),
    "reproducibility_probability.tail": ("reproducibility_probability", 15, ("prob",)),
    "severity_curve.body": ("severity_curve", 6, ("loc", "prob")),
    "severity_curve.huge_df": ("severity_curve", 2, ("loc", "prob")),
    "confidence_lower_limit.body": ("confidence_lower_limit", 40, ("loc",)),
    "confidence_lower_limit.huge_df": ("confidence_lower_limit", 10, ("loc",)),
    "confidence_lower_limit.tail": ("confidence_lower_limit", 5, ("loc",)),
    "lag_regression.body": ("lag_regression", 8, ("loc",) * 5 + ("prob",)),
    "autocorrelation.body": ("autocorrelation", 8, ("loc",)),
}
CURVE_POINTS = {"combined_fpr_curve.body": 40, "combined_fpr_curve.tail": 10,
                "severity_curve.body": 20, "severity_curve.huge_df": 10}
# Module of each public function, for the per-layer metric names.
MODULE = {
    "normal_cdf": "distributions", "normal_pdf": "distributions",
    "normal_quantile": "distributions", "student_t_cdf": "distributions",
    "student_t_quantile": "distributions", "type2_error": "error_tradeoff",
    "required_sample_size": "error_tradeoff", "combined_fpr_curve": "screening",
    "expected_cost": "decision_cost", "numeric_minimizer": "decision_cost",
    "critical_from_alpha": "decision_cost", "pdf_under_alternative": "pvalue_dist",
    "cdf_under_alternative": "pvalue_dist", "reproducibility_probability": "pvalue_dist",
    "severity_curve": "severity", "confidence_lower_limit": "severity",
    "lag_regression": "timeseries", "autocorrelation": "timeseries",
}
# Slices with points that fail at the commit that added this benchmark, with the cause of each.
KNOWN_DEFECTS = {
    "defect.normal_cdf": "x = -37.477: the erfc tail flushes to 0 below ~1.1e-307",
    "defect.normal_quantile": "p = 1 - 1e-10 is polished against a cdf near 1",
    "defect.student_t_cdf": "lgamma cancellation in _log_beta(df/2, 1/2) at df = 1e9",
    "defect.student_t_quantile": "p = 1e-12 is reflected through 1 - p, which rounds",
    "normal_cdf.tail": "the erfc tail flushes to 0 below ~1.1e-307 (x < -37.4767)",
    "normal_quantile.tail_lo": "below p ~ 1e-281 the Halley polish is skipped (Acklam, ~1e-9)",
    "normal_quantile.tail_hi": "p near 1 is polished against a cdf near 1",
    "student_t_cdf.huge_df": "lgamma cancellation in _log_beta(df/2, 1/2) for df >= 1e6",
    "student_t_cdf.center": "df / (df + x^2) rounds to 1 for tiny x^2 / df",
    "student_t_quantile.tail": "lower tail reflected through 1 - p; upper tail inherits it",
    "student_t_quantile.center": "inherits the student_t_cdf error at tiny |x|",
    "type2_error.tail": "power = 1 - type2 cancels for tiny alpha",
    "combined_fpr_curve.tail": "power rounds to 0 and ScreeningParams raises DomainError",
    "numeric_minimizer.tail": "golden-section bracket fixed at +-10 sigma",
    "critical_from_alpha.tail": "normal_quantile error near p = 1 and below p ~ 1e-281",
    "pdf_under_alternative.tail": "normal_quantile error below p ~ 1e-281, amplified by m*z",
    "cdf_under_alternative.tail": "one-sided 1 - normal_cdf(z - m) cancels for tiny p; "
                                  "two-sided inherits normal_quantile below p ~ 1e-281",
    "severity_curve.huge_df": "student_t_cdf error for df >= 1e6",
    "confidence_lower_limit.huge_df": "student_t_quantile error for df >= 1e6",
    "confidence_lower_limit.tail": "student_t_quantile error near p = 1",
}
# Where in its slice each known defect shows, as a predicate on the point and, for curve
# slices, the index of the curve point. Every failure at 400 seeds lies inside its region.
# A slice without an entry fails on at least 70% of its points and is known throughout.
# A failing point outside these regions means the program got worse: the run is not correct.
DEFECT_REGION = {
    "normal_cdf.tail": lambda pt, j: pt[0] < -37.47,
    "normal_quantile.tail_lo": lambda pt, j: pt[0] < 1e-281,
    "normal_quantile.tail_hi": lambda pt, j: 1.0 - pt[0] < 1e-7,
    "student_t_cdf.huge_df": lambda pt, j: pt[0] < 4.0,
    "student_t_cdf.center": lambda pt, j: pt[0] * pt[0] / pt[1] < 1e-9,
    "student_t_quantile.tail": lambda pt, j: min(pt[0], 1.0 - pt[0]) < 1e-5,
    "critical_from_alpha.tail": lambda pt, j: pt[0] < 1e-281 or 1.0 - pt[0] < 1e-7,
    "pdf_under_alternative.tail": lambda pt, j: pt[0] < 1e-281,
    "cdf_under_alternative.tail": lambda pt, j: not pt[3] or pt[0] < 1e-281,
    "severity_curve.huge_df": lambda pt, j: (pt[0] - pt[3][j]) / pt[1] < 4.0,
}
OP_STAT = p90  # of the op times, for op_ms: a run has 450 passes or more
KERNELS = ("normal_cdf", "normal_pdf", "normal_quantile", "student_t_cdf", "student_t_quantile")


def _log_uniform(rng, lo_exp, hi_exp):
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _df(rng, lo_exp, hi_exp):
    return int(_log_uniform(rng, lo_exp, hi_exp))


def _body_alpha(rng):
    return _log_uniform(rng, -4.0, math.log10(0.5))


def _tiny(rng):
    return _log_uniform(rng, -300.0, -10.0)


def _near_one(rng, lo_exp=-15.0, hi_exp=-3.0):
    return 1.0 - _log_uniform(rng, lo_exp, hi_exp)


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _cost_params(rng, phi=None):
    mu0 = rng.uniform(-1.0, 1.0)
    return (rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0),
            rng.uniform(0.05, 0.95) if phi is None else phi,
            mu0, mu0 + rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0))


def _series(rng):
    length = rng.randint(20, 60)
    level, scale, ar = rng.uniform(-100, 100), rng.uniform(0.1, 10.0), rng.uniform(-0.8, 0.8)
    values, prev = [], 0.0
    for _ in range(length):
        prev = ar * prev + rng.gauss(0.0, 1.0)
        values.append(level + scale * prev)
    return values, rng.randint(1, 3)


def _point(rng, name):
    fn, region = name.split(".", 1) if not name.startswith("defect.") else (name, "")
    tail = region.startswith("tail") or region == "huge_df"
    if name == "defect.normal_cdf":
        return [-37.477]
    if name == "defect.student_t_quantile":
        return [1e-12, 30]
    if name == "defect.student_t_cdf":
        return [1.5, 10 ** 9]
    if name == "defect.normal_quantile":
        return [1.0 - 1e-10]
    if fn in ("normal_cdf", "normal_pdf"):
        return [_signed(rng, 8.0, 38.0) if tail else rng.uniform(-8.0, 8.0)]
    if fn == "normal_quantile":
        if region == "tail_lo":
            return [_log_uniform(rng, -300.0, -3.0)]
        if region == "tail_hi":
            return [_near_one(rng)]
        return [rng.uniform(1e-3, 1.0 - 1e-3)]
    if fn == "student_t_cdf":
        if region == "tail_x":
            return [_signed(rng, 8.0, 38.0), _df(rng, 0.0, 3.0)]
        if region == "huge_df":
            return [rng.uniform(-6.0, 6.0), _df(rng, 6.0, 9.0)]
        if region == "center":
            return [rng.choice((-1.0, 1.0)) * _log_uniform(rng, -8.0, -2.0), _df(rng, 0.0, 3.0)]
        return [_signed(rng, 0.01, 6.0), _df(rng, 0.0, 3.0)]
    if fn == "student_t_quantile":
        if tail:
            p = _log_uniform(rng, -12.0, -3.0)
            return [p if rng.random() < 0.5 else 1.0 - p, _df(rng, 0.0, 3.0)]
        if region == "center":
            return [0.5 + rng.choice((-1.0, 1.0)) * _log_uniform(rng, -10.0, -2.5),
                    _df(rng, 0.0, 3.0)]
        return [0.5 + _signed(rng, 0.005, 0.499), _df(rng, 0.0, 3.0)]
    if fn == "type2_error":
        return [_tiny(rng) if tail else _body_alpha(rng), rng.uniform(0.05, 2.0),
                _df(rng, 0.0, 2.0), rng.random() < 0.5]
    if fn == "required_sample_size":
        alpha, beta = (_tiny(rng), _tiny(rng)) if tail else (_body_alpha(rng), _body_alpha(rng))
        return [alpha, beta, _signed(rng, 0.05, 2.0), rng.uniform(0.5, 3.0)]
    if fn == "combined_fpr_curve":
        alphas = sorted((_tiny(rng) if tail else _body_alpha(rng))
                        for _ in range(CURVE_POINTS[name]))
        # sqrt(n) * delta <= 2.5 keeps the power below 1 - 1e-16 on the body grid
        return [rng.uniform(0.1, 0.8), _df(rng, 0.0, 1.0), rng.uniform(0.05, 0.95), alphas]
    if fn == "expected_cost":
        params = _cost_params(rng)
        mu = params[3] if rng.random() < 0.5 else params[4]
        offset = _signed(rng, 8.0, 38.0) if tail else rng.uniform(-6.0, 6.0)
        return [*params, mu + params[5] * offset]
    if fn == "numeric_minimizer":
        if tail:
            return list(_cost_params(rng, _log_uniform(rng, -12.0, -8.0)))
        # Body: cost ratio <= 25, prior in [0.1, 0.9] and mu1 - mu0 >= sigma put
        # the minimizer within 5.4 sigma of the midpoint.
        mu0, sigma = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        return [rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), rng.uniform(0.1, 0.9),
                mu0, mu0 + sigma * rng.uniform(1.0, 3.0), sigma]
    if fn == "critical_from_alpha":
        if tail:
            alpha = _tiny(rng) if rng.random() < 0.5 else _near_one(rng)
        else:
            alpha = rng.uniform(1e-3, 1.0 - 1e-3)
        return [alpha, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)]
    if fn in ("pdf_under_alternative", "cdf_under_alternative"):
        p = _tiny(rng) if tail else rng.uniform(1e-3, 1.0 - 1e-3)
        return [p, rng.uniform(0.0, 2.0), _df(rng, 0.0, 2.0), rng.random() < 0.5]
    if fn == "reproducibility_probability":
        d_obs = _signed(rng, 8.0, 38.0) if tail else rng.uniform(-5.0, 5.0)
        return [d_obs, rng.uniform(1e-3, 0.2), rng.random() < 0.5]
    if fn == "severity_curve":
        est, se = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.0)
        df = _df(rng, 6.0, 9.0) if tail else _df(rng, 0.0, 3.0)
        bounds = [est + se * _signed(rng, 0.01, 6.0) for _ in range(CURVE_POINTS[name])]
        return [est, se, df, bounds]
    if fn == "confidence_lower_limit":
        df = _df(rng, 6.0, 9.0) if region == "huge_df" else _df(rng, 0.0, 3.0)
        level = _near_one(rng, -12.0, -6.0) if region == "tail" else rng.uniform(0.51, 0.999)
        return [rng.uniform(-2.0, 2.0), rng.uniform(0.1, 1.0), df, level]
    if fn in ("lag_regression", "autocorrelation"):
        return list(_series(rng))
    raise KeyError(name)


class _LatinHypercube:
    """Stands in for random.Random inside _point: the k-th draw of point i of n
    falls in stratum perm_k[i] of n equal strata, so every seed spreads a
    slice's points evenly and the cost of a pass barely depends on the seed."""

    def __init__(self, rng: random.Random, n: int):
        self.rng, self.n, self.perms, self.i, self.k = rng, n, [], 0, 0

    def point(self, i: int) -> "_LatinHypercube":
        self.i, self.k = i, 0
        return self

    def random(self) -> float:
        if self.k == len(self.perms):
            perm = list(range(self.n))
            self.rng.shuffle(perm)
            self.perms.append(perm)
        u = (self.perms[self.k][self.i] + self.rng.random()) / self.n
        self.k += 1
        return u

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def choice(self, seq):
        return seq[min(int(self.random() * len(seq)), len(seq) - 1)]

    def randint(self, a: int, b: int) -> int:
        return min(a + int(self.random() * (b - a + 1)), b)

    def gauss(self, mu: float, sigma: float) -> float:
        return NormalDist(mu, sigma).inv_cdf(min(max(self.random(), 1e-12), 1.0 - 1e-12))


def make_inputs(seed: int, scale: float = 1.0) -> dict:
    """Slices with a known defect are drawn from a stream of their own that
    ignores the seed, so the failing points, and with them `failed`, are the
    same at every seed; the other slices are drawn from the seed."""
    rng = random.Random(f"lib_curves:{seed}")
    inputs = {}
    for name, (_, count, _) in SLICES.items():
        n = 1 if name.startswith("defect.") else max(1, round(count * scale))
        own = random.Random(f"lib_curves.known_defect:{name}") if name in KNOWN_DEFECTS else rng
        strata = _LatinHypercube(own, n)
        inputs[name] = [_point(strata.point(i), name) for i in range(n)]
    return inputs


def points_in(name: str, point) -> int:
    """Operations a point stands for: one per curve point, else one."""
    return len(point[3]) if name in CURVE_POINTS else 1


# --- evaluation --------------------------------------------------------------


def _evaluator(es, fn):
    Tail, SummaryStats, ReferenceDist = es.Tail, es.SummaryStats, es.ReferenceDist
    # Functions are looked up on `es` at every call, as a traced run rebinds them.
    if fn in KERNELS:
        return lambda pt: (getattr(es, fn)(*pt),)
    if fn == "type2_error":
        def ev(pt):
            alpha, delta, n, two = pt
            model = es.GaussianTestModel(delta, n, Tail.TWO_SIDED if two else Tail.ONE_SIDED_UPPER)
            return es.type2_error(alpha, model), es.power(alpha, model)
        return ev
    if fn == "required_sample_size":
        return lambda pt: (es.required_sample_size(*pt),)
    if fn == "combined_fpr_curve":
        return lambda pt: tuple(es.combined_fpr_curve(*pt))
    if fn == "expected_cost":
        return lambda pt: (es.expected_cost(pt[6], es.CostParams(*pt[:6])),)
    if fn == "numeric_minimizer":
        return lambda pt: (es.numeric_minimizer(es.CostParams(*pt)),)
    if fn == "critical_from_alpha":
        return lambda pt: (es.critical_from_alpha(pt[0], es.CostParams(1.0, 1.0, 0.5, pt[1],
                                                                        pt[1] + 1.0, pt[2])),)
    if fn in ("pdf_under_alternative", "cdf_under_alternative"):
        return lambda pt: (getattr(es, fn)(pt[0], es.AlternativeSpec(pt[1], pt[2]),
                                           Tail.TWO_SIDED if pt[3] else Tail.ONE_SIDED_UPPER),)
    if fn == "reproducibility_probability":
        return lambda pt: (es.reproducibility_probability(
            es.ObservedResult.from_statistic(pt[0]), pt[1],
            Tail.TWO_SIDED if pt[2] else Tail.ONE_SIDED_UPPER),)
    if fn == "severity_curve":
        return lambda pt: tuple(es.severity_curve(SummaryStats(pt[0], pt[1], df=pt[2]), pt[3],
                                                  ReferenceDist.STUDENT_T))
    if fn == "confidence_lower_limit":
        return lambda pt: (es.confidence_lower_limit(SummaryStats(pt[0], pt[1], df=pt[2]), pt[3],
                                                     ReferenceDist.STUDENT_T),)
    if fn == "lag_regression":
        def ev(pt):
            f = es.lag_regression(es.Series.from_values(pt[0]), pt[1])
            return f.beta0, f.beta1, f.stderr_beta1, f.r, f.t_stat, f.p_two_sided_t
        return ev
    if fn == "autocorrelation":
        return lambda pt: (es.autocorrelation(es.Series.from_values(pt[0]), pt[1]),)
    raise KeyError(fn)


class Pass:
    """Evaluates every slice once; per-slice times in ns."""

    def __init__(self, es, inputs):
        self.plan = [(name, _evaluator(es, SLICES[name][0]), pts) for name, pts in inputs.items()]

    def run(self, clock=time.perf_counter_ns):
        outputs, times = {}, {}
        for name, ev, pts in self.plan:
            res = []
            t0 = clock()
            for pt in pts:
                try:
                    res.append(ev(pt))
                except Exception as exc:  # a failing operation, counted below
                    res.append(f"{type(exc).__name__}: {exc}")
            times[name] = clock() - t0
            outputs[name] = res
        return outputs, times


# --- checking ----------------------------------------------------------------


def _check_point(name, got, ref):
    """Returns (ok, max relative error) for one point."""
    if isinstance(got, str):
        return False, math.inf
    kinds = SLICES[name][2]
    if kinds == ("int",):
        return got[0] in ref, 0.0 if got[0] in ref else math.inf
    if kinds == ("gap",):
        gap = abs(got[0] - ref[0])
        return gap <= MINIMIZER_GAP_TOL, gap
    ok, worst = True, 0.0
    for g, r, kind in zip(got, ref, kinds):
        ok = ok and within(g, r, kind)
        worst = max(worst, rel_err(g, r))
    return ok, worst


def _known(name, pt, j) -> bool:
    if name not in KNOWN_DEFECTS:
        return False
    region = DEFECT_REGION.get(name)
    return region is None or region(pt, j)


def check(inputs, outputs, refs):
    """Per slice (ops, failed, max rel err, failed outside the known-defect region)."""
    report = {}
    for name, res in outputs.items():
        ops = failed = unknown = 0
        worst = 0.0
        for pt, got, ref in zip(inputs[name], res, refs[name]):
            if name in CURVE_POINTS:
                rows = [got] * len(ref) if isinstance(got, str) else got
                pairs = enumerate(zip(rows, ref))
            else:
                pairs = [(None, (got, ref))]
            for j, (g, r) in pairs:
                ok, err = _check_point(name, g, r)
                ops += 1
                failed += not ok
                unknown += not ok and not _known(name, pt, j)
                worst = max(worst, err)
        report[name] = (ops, failed, worst, unknown)
    return report


def failing_ops(report) -> dict:
    """Failing slices by name; failures outside a known-defect region under a name of their own."""
    failures = {}
    for name, (n, bad, err, unknown) in report.items():
        if bad:
            failures[name] = f"{bad}/{n} points outside tolerance, max rel err {err:.3g}"
        if unknown and name in KNOWN_DEFECTS:
            failures[f"{name}.outside_known_defect"] = (
                f"{unknown}/{n} points fail outside the region of the known defect")
    return failures


def oracle_request(inputs):
    return {name: {"fn": SLICES[name][0], "points": pts} for name, pts in inputs.items()}


# --- measurement -------------------------------------------------------------


def oracle(inputs) -> dict:
    """scipy's values for every point, from the oracle child."""
    code, out, err, _ = run_child([sys.executable, str(BENCH_DIR / "oracle.py")],
                                  stdin_text=json.dumps(oracle_request(inputs)))
    if code != 0:
        raise RuntimeError(f"oracle failed: {err.strip()[-400:]}")
    return json.loads(out)


def measure(es, inputs, seconds):
    """Runs whole passes until `seconds` have gone; returns the run's figures."""
    """Runs whole passes until `seconds` have gone; returns the run's figures.

    An operation is one point of the pass (one curve point for curve slices),
    evaluated in every pass; it fails if it is outside tolerance or if a later
    pass gives another value, so `attempted` and `failed` do not depend on
    how many passes the run had time for.
    """
    runner = Pass(es, inputs)
    first, _ = runner.run()
    report = check(inputs, first, oracle(inputs))
    pass_ns, differ = [], set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not pass_ns:
        t0 = time.perf_counter_ns()
        outputs, _ = runner.run()
        pass_ns.append(time.perf_counter_ns() - t0)
        if outputs != first and repr(outputs) != repr(first):
            differ.update(name for name in outputs if repr(outputs[name]) != repr(first[name]))
    points = sum(v[0] for v in report.values())
    failures = failing_ops(report)
    for name in sorted(differ):
        failures[f"{name}.repeat"] = "a later pass differs from the first"
    return {"samples_ms": [ns / 1e6 for ns in pass_ns],
            "throughput": points * len(pass_ns) / (sum(pass_ns) / 1e9), "rss_mb": peak_rss_mb(),
            "attempted": points,
            "failed": sum(ops if name in differ else bad
                          for name, (ops, bad, _, _) in report.items()),
            "failures": failures}
