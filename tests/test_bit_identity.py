"""Pinned bits of the scalar kernels, the array Gaussian kernel and the three simulators.

The kernel and simulate_pvalues values were recorded before the scalar and
array Cody erfc shared one set of rational pieces; the simulate_studies,
simulate_expected_cost and null two-sided simulate_pvalues values were
recorded before the two count simulators shared one chunk kernel and the
p-value ECDF was read off the reference-CDF values; the simulate_pvalues
values at 1, 2 and 2 * CHUNK_SIZE + 12345 trials were recorded while the
p-values were still gathered by concatenation and a stable argsort. Any
change to how the kernels or the simulators are evaluated must leave these
outputs bit for bit. The p-value summary, which keeps only the keys of the
blocks that can change a field and evaluates the kernel only there, is also
held to the pass over every sorted trial that it replaced, kept here as the
reference: on random keys, on keys tied by a shift past the noise, on p-values
saturated at 1.0 by a large negative shift, and on crafted keys whose values
fall out of order at the ulp scale. The reference reads the deciles, as the
summary does, by numpy's linear rule over the p-values in key order; when the
deciles stopped re-sorting the p-values, only the crafted inversions moved, by
an ulp. The digest of a seeded
sweep of the scalar kernels and of the curves built on them was recorded before
the public kernels checked their arguments once and handed the solvers their
private cores and one Student-t law per df, and re-recorded when the coupled
false positive rate curve stopped raising where its power rounds to 0 or 1:
only those 83 curve rows changed, from a DomainError to a list of points. When the
t quantile came to solve below 1/2 on its own side instead of reflecting through 1 - p,
the sweep split in two digests: the 4784 rows that never read that side, recorded
before the change, and the 466 quantile and lower-limit rows below 1/2, re-recorded
after it (397 of 400 quantile rows and 60 of 66 limit rows moved; their 90
DomainErrors became values). Both digests were re-recorded when the t quantile
came to solve in tail coordinates from Hill's seed below 1/2 and above a cut at
0.99, and the t cdf came to take 1 - w directly at its centre, x^2 / df < 1e-4:
760 of 800 quantile rows moved (367 below 1/2, all 361 above the cut, 32 of 39
between, of which 22 read the centre at huge df), with 247 cdf rows, 99 severity
points and 132 limit rows, each by no more than the cdf's own error at its df.
The digest of a second sweep, of the
Gaussian cdf and pdf at and around Cody's cuts, the Gaussian test laws, the
expected cost and its minimizer, was recorded before the scalar Gaussian cdf,
the incomplete-beta continued fraction, the t-quantile Newton step and the
minimizer's cost loop were written without builtin calls and extra frames. The
values of the continued fraction where its fpmin clamps fire were recorded then too.
The digest of a seeded sweep of lag_regression and autocorrelation, over series scaled
as a whole by powers of two from 2**-1000 to 2**1000, was recorded before each lag
window was scaled by its own power of two, and re-recorded when the t cdf came
to take 1 - w directly at its centre: 267 two-sided p-values with t^2 / df < 1e-4
moved, each nearer the mpmath value (worst relative error 6.2e-13 before, 1.4e-16
after).
"""

import hashlib
import linecache
import math
import random
import re
import sys

import numpy as np
import pytest

from errstat import (AlternativeSpec, CostParams, GaussianTestModel, ReferenceDist, SimConfig,
                     SummaryStats, Tail, cdf_under_alternative, combined_fpr_curve,
                     confidence_lower_limit, expected_cost, normal_cdf, normal_pdf,
                     normal_quantile, numeric_minimizer, pdf_under_alternative, power,
                     Series, autocorrelation, lag_regression, severity_curve,
                     simulate_expected_cost, simulate_pvalues, simulate_studies, student_t_cdf,
                     student_t_quantile, type2_error)
from errstat.distributions import _beta_cont_frac
from errstat.errors import ErrstatError
from errstat import montecarlo
from errstat.montecarlo import CHUNK_SIZE, CostSimEstimate, SimOutcome, _normal_cdf_vec


def _grid() -> np.ndarray:
    # x = t * sqrt(2): the Cody region cuts at t = 0.46875, 4 and the
    # underflow cut at t = 26.5, with their neighbouring doubles.
    cuts = np.array([0.46875, 4.0, 26.5]) * math.sqrt(2.0)
    edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, np.inf)])
    return np.concatenate([
        np.linspace(-40.0, 40.0, 400001),
        edges,
        -edges,
        [0.0, -0.0, 5e-324, -1e-300],
    ])


def test_vectorized_cdf_bits_are_pinned():
    grid = _grid()
    assert grid.size == 400023
    digest = hashlib.sha256(_normal_cdf_vec(grid).tobytes()).hexdigest()
    assert digest == "d4f991bbb6e32a84d6ed24b83a2d0d61945a1a0be5a3dee8d8e1d75fa9a2e445"


def _rows(calls) -> list:
    # One line per call: the call, then the repr of its result or the error it raised.
    rows = []
    for fn, args in calls:
        try:
            out = repr(fn(*args))
        except ErrstatError as exc:
            out = f"{type(exc).__name__}: {exc}"
        rows.append(f"{fn.__name__}{args!r} -> {out}")
    return rows


def _kernel_sweep_calls() -> list:
    # p runs from 1e-300 to 1 - 1e-16, df from 1 to 2e9 and |x| from 1e-10 to 1e150.
    # A curve whose power rounds to 0 or 1 returns.
    rng = random.Random(20261018)

    def log_uniform(lo, hi):
        return lo * (hi / lo) ** rng.random()

    def df():
        return int(log_uniform(1.0, 2e9))

    def upper():
        return 1.0 - log_uniform(1e-16, 0.5)

    calls = []
    for _ in range(1000):
        calls.append((normal_quantile, (log_uniform(1e-300, 0.5),)))
        calls.append((normal_quantile, (upper(),)))
    for _ in range(1000):
        calls.append((student_t_cdf, (rng.choice((-1.0, 1.0)) * log_uniform(1e-10, 1e150), df())))
        calls.append((student_t_cdf, (rng.uniform(-40.0, 40.0), df())))
    for _ in range(400):
        calls.append((student_t_quantile, (log_uniform(1e-20, 0.5), df())))
        calls.append((student_t_quantile, (upper(), df())))
    for _ in range(150):
        alphas = [log_uniform(1e-300, 0.999) for _ in range(4)]
        calls.append((combined_fpr_curve, (rng.uniform(-3.0, 3.0), int(log_uniform(1.0, 1e4)),
                                           rng.random(), alphas)))
    for _ in range(150):
        stats = SummaryStats(rng.uniform(-5.0, 5.0), log_uniform(1e-3, 10.0), df=df())
        bounds = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        calls.append((severity_curve, (stats, bounds, ReferenceDist.STUDENT_T)))
        level = log_uniform(1e-20, 0.5) if rng.random() < 0.5 else upper()
        calls.append((confidence_lower_limit, (stats, level, ReferenceDist.STUDENT_T)))
    return calls


def _below_half(fn, args) -> bool:
    # the calls that solve for a t quantile below 1/2: the quantile itself, and the
    # Student-t lower limit at a level below 1/2
    return ((fn is student_t_quantile and args[0] < 0.5)
            or (fn is confidence_lower_limit and args[1] < 0.5))


def test_scalar_kernel_sweep_is_pinned():
    calls = _kernel_sweep_calls()
    kept = _rows([call for call in calls if not _below_half(*call)])
    moved = _rows([call for call in calls if _below_half(*call)])
    assert (len(kept), len(moved)) == (4784, 466)
    assert sum(" -> DomainError: " in row for row in kept + moved) == 0
    digest = hashlib.sha256("\n".join(kept).encode()).hexdigest()
    assert digest == "b72168646081133f180199f9274852aca171a659b201a1d5b4bdf8da076f8209"
    digest = hashlib.sha256("\n".join(moved).encode()).hexdigest()
    assert digest == "63eaae800ef8b82f50eb08db04df532132d125d8465760fa33719e1a2a55f096"


def _gaussian_sweep_rows() -> list:
    # As _kernel_sweep_rows, for what that sweep does not reach: normal_cdf and normal_pdf
    # at each Cody cut and its three nearest doubles on either side, both signs, and on
    # [-38.5, 38.5]; the Gaussian test laws on both tails; the expected cost; and its
    # minimizer, including laws so narrow that (c - mu) / sigma overflows and raises.
    rng = random.Random(20261019)

    def log_uniform(lo, hi):
        return lo * (hi / lo) ** rng.random()

    def sign():
        return rng.choice((-1.0, 1.0))

    xs = []
    for cut in (0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0), 26.5 * math.sqrt(2.0)):
        below = above = cut
        near = [cut]
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            near += [below, above]
        xs += near + [-x for x in near]
    xs += [rng.uniform(-38.5, 38.5) for _ in range(1500)]
    xs += [sign() * log_uniform(1e-300, 1.0) for _ in range(200)]
    xs += [-38.5, 38.5, 0.0, -0.0]
    calls = [(fn, (x,)) for x in xs for fn in (normal_cdf, normal_pdf)]
    for _ in range(300):
        model = GaussianTestModel(rng.uniform(-4.0, 4.0), int(log_uniform(1.0, 1e4)),
                                  rng.choice(list(Tail)))
        alpha = log_uniform(1e-300, 0.999)
        calls.append((type2_error, (alpha, model)))
        calls.append((power, (alpha, model)))
    for _ in range(200):
        spec = AlternativeSpec(rng.uniform(-4.0, 4.0), int(log_uniform(1.0, 1e3)),
                               rng.choice(list(Tail)))
        p = log_uniform(1e-300, 0.999)
        tail = rng.choice((None, Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED))
        calls.append((pdf_under_alternative, (p, spec, tail)))
        calls.append((cdf_under_alternative, (p, spec, tail)))

    def cost_params():
        mu0 = rng.uniform(-5.0, 5.0)
        return CostParams(log_uniform(1e-3, 1e3), log_uniform(1e-3, 1e3), rng.random(),
                          mu0=mu0, mu1=mu0 + sign() * log_uniform(1e-3, 10.0),
                          sigma=log_uniform(1e-2, 1e2))

    for _ in range(600):
        params = cost_params()
        c = rng.uniform(min(params.mu0, params.mu1) - 12.0 * params.sigma,
                        max(params.mu0, params.mu1) + 12.0 * params.sigma)
        calls.append((expected_cost, (c, params)))
    calls.append((expected_cost, (1e300, CostParams(1.0, 1.0, 0.5, sigma=1e-300))))
    calls.append((expected_cost, (-1e300, CostParams(1.0, 1.0, 0.5, mu1=-1e300, sigma=1e-10))))
    for _ in range(150):
        calls.append((numeric_minimizer, (cost_params(),)))
    for _ in range(15):
        # the bracket is finite but its ends lie far more than 1e308 sigmas from a mean
        mu0 = rng.uniform(-1.0, 1.0)
        calls.append((numeric_minimizer, (CostParams(1.0, 2.0, rng.random(), mu0=mu0,
                                                     mu1=mu0 + sign() * log_uniform(1.0, 1e10),
                                                     sigma=log_uniform(1e-320, 1e-300)),)))
    return _rows(calls)


def test_gaussian_and_cost_sweep_is_pinned():
    rows = _gaussian_sweep_rows()
    assert len(rows) == 5259
    assert sum(" -> DomainError: " in row for row in rows) == 17
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "772026629d916c31143639d10d05b547e8838809b7f07c558ed52e4aac488bec"



def _lag_sweep_rows() -> list:
    # 20,000 series of 3 to 30 values, each scaled as a whole by 2**s for s in [-1000, 1000],
    # so both lag windows share one scale; a quarter are small integers, which give constant
    # windows and perfect fits. Each series meets lag_regression and autocorrelation at a tau
    # drawn from 0 to its length - 1, so the tau bounds raise too.
    rng = random.Random(20261020)
    calls = []
    for _ in range(20000):
        k = rng.randint(3, 30)
        if rng.random() < 0.25:
            values = [float(rng.randint(-2, 2)) for _ in range(k)]
        else:
            values = [rng.gauss(0.0, 1.0) for _ in range(k)]
        s = rng.randint(-1000, 1000)
        series = Series(tuple(math.ldexp(v, s) for v in values))
        calls.append((lag_regression, (series, rng.randint(0, k - 1))))
        calls.append((autocorrelation, (series, rng.randint(0, k - 1))))
    return _rows(calls)


def test_lag_sweep_is_pinned():
    rows = _lag_sweep_rows()
    assert len(rows) == 40000
    assert sum(" -> DegenerateDataError: " in row for row in rows) == 287
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "169be78d363150e4bc448ee4863cc717e18517fbb9b810fbeedae81c92258674"

def _clamped_zeros(args):
    # the names, d or c, that hold 0.0 when _beta_cont_frac reaches an fpmin clamp on them
    zeros = set()

    def trace(frame, event, arg):
        if frame.f_code is not _beta_cont_frac.__code__:
            return None
        line = linecache.getline(frame.f_code.co_filename, frame.f_lineno).strip()
        if event == "line" and line.startswith("if ") and "fpmin" in line:
            name = re.search(r"\b[cd]\b", line).group(0)
            if frame.f_locals[name] == 0.0:
                zeros.add(name)
        return trace

    sys.settrace(trace)
    try:
        out = _beta_cont_frac(*args)
    finally:
        sys.settrace(None)
    return out, zeros


@pytest.mark.parametrize("args, expected, zeros", [
    # d = 1 - (a + b) x / (a + 1) is 0 before the loop
    ((0.25, 1.0, 1.0), "9.999999999999999e+299", {"d"}),
    # the loop's first half-step drives d, then c, to 0; so does its second
    ((0.5, 2.5, 0.625), "8.355409375318128", {"d"}),
    ((-4.0, 3.0, -3.0), "1e-300", {"c"}),
    ((1.0, 7.0, 0.5), "36.28571428571429", {"d"}),
    ((2.0, 7.0, 1.0), "1782328634817060.5", {"c"}),
    # c, then d, turns negative but not small, which the clamps leave alone
    ((1.75, 8.5, 1.0), "5134257099786274.0", set()),
    ((0.25, 1.5, 0.75), "7.310470490424666", set()),
    # NaN, here also from an infinite x, neither clamps nor meets the stop rule
    ((0.5, 0.5, math.nan), "nan", set()),
    ((math.nan, 0.5, 0.3), "nan", set()),
    ((2.0, 3.0, math.inf), "nan", set()),
])
def test_continued_fraction_clamps_are_pinned(args, expected, zeros):
    # 1 + y rounds to no double of size below 1e-300 but 0.0, so a zero is what the
    # fpmin clamps see; these values were recorded with the clamps written as abs(v) < fpmin
    out, seen = _clamped_zeros(args)
    assert repr(out) == expected
    assert seen == zeros


_PVALUE_SUMMARIES = {
    Tail.ONE_SIDED_UPPER: (
        (0.02994006016278136, 0.0748849440567017, 0.1304214548269651,
         0.1963883381722258, 0.2728559692154885, 0.3624414870249065,
         0.46745701253695876, 0.5931323789634719, 0.7508152619632975),
        (0.10003333333333334, 0.1997, 0.3, 0.40044, 0.5016266666666667,
         0.60208, 0.7022466666666667, 0.8016666666666666, 0.9007533333333333),
        0.0029843666449526074,
    ),
    Tail.TWO_SIDED: (
        (0.055195273581159214, 0.13272684949346228, 0.22175750290839027,
         0.31811035082488376, 0.42185043021896285, 0.5318587347859866,
         0.6460750617692774, 0.7610255980804985, 0.880539716837997),
        (0.10025333333333333, 0.19904666666666668, 0.29884, 0.39981333333333335,
         0.5002066666666667, 0.5998133333333333, 0.6992733333333333,
         0.8006066666666667, 0.8999133333333333),
        0.001635322230792935,
    ),
}


@pytest.mark.parametrize("tail", [Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED])
def test_simulate_pvalues_fields_are_pinned(tail):
    config = SimConfig(num_trials=150_000, seed=20260, effect_size=0.3,
                       n_per_study=4, tail=tail)
    summary = simulate_pvalues(config)
    deciles, ecdf, supnorm = _PVALUE_SUMMARIES[tail]
    assert summary.num_trials == 150_000
    assert summary.deciles == deciles
    assert summary.cdf_at_reference_deciles == ecdf
    assert summary.supnorm_vs_reference == supnorm
    assert summary.delta == 0.3
    assert summary.n_per_study == 4


def test_two_sided_null_pvalues_are_pinned():
    config = SimConfig(num_trials=150_000, seed=20261, effect_size=0.0, n_per_study=4,
                       tail=Tail.TWO_SIDED)
    summary = simulate_pvalues(config)
    assert summary.deciles == (
        0.09966710131959805, 0.19934812335309762, 0.2985658839059094,
        0.39948648171713735, 0.49995452618129693, 0.5990452666498363,
        0.699800896530753, 0.7995856961325449, 0.8986029308659659)
    assert summary.cdf_at_reference_deciles == (
        0.10032666666666666, 0.20069333333333333, 0.30144666666666664,
        0.40042666666666665, 0.50004, 0.6008666666666667, 0.7002266666666667,
        0.8004266666666666, 0.9013266666666667)
    assert summary.supnorm_vs_reference == 0.001963176030092495
    fields = summary.deciles + summary.cdf_at_reference_deciles + (summary.supnorm_vs_reference,)
    assert {type(v) for v in fields} == {float}


# Two full chunks and a partial one.
_TRIALS = 2 * CHUNK_SIZE + 12345


@pytest.mark.parametrize("tail, prior_null, expected", [
    (Tail.ONE_SIDED_UPPER, 0.0,
     SimOutcome(24300, 0, 0, 119117, 0.0, 0.16943598039284047, 0.0)),
    (Tail.ONE_SIDED_UPPER, 0.37,
     SimOutcome(15360, 2659, 50188, 75210, 0.14756645762805928, 0.1695925803246108,
                0.0026421577803649524)),
    (Tail.ONE_SIDED_UPPER, 1.0, SimOutcome(0, 7256, 136161, 0, 1.0, None, 0.0)),
    (Tail.TWO_SIDED, 0.0,
     SimOutcome(15343, 0, 0, 128074, 0.0, 0.10698173856655765, 0.0)),
    (Tail.TWO_SIDED, 0.37,
     SimOutcome(9707, 2586, 50261, 80863, 0.21036362157325308, 0.10717676934967428,
                0.003675953022893828)),
    (Tail.TWO_SIDED, 1.0, SimOutcome(0, 7196, 136221, 0, 1.0, None, 0.0)),
])
def test_simulate_studies_outcome_is_pinned(tail, prior_null, expected):
    config = SimConfig(_TRIALS, 8675309, prior_null=prior_null, alpha=0.05,
                       effect_size=0.4, n_per_study=3, tail=tail)
    assert simulate_studies(config) == expected


@pytest.mark.parametrize("prior_good, expected", [
    (0.3, CostSimEstimate(0.8871054338049186, 0.0038087475400249656, _TRIALS)),
    (0.0, CostSimEstimate(1.0393816632616775, 0.0042229005192486995, _TRIALS)),
    (1.0, CostSimEstimate(0.5227832125898604, 0.0023205136696211946, _TRIALS)),
])
def test_simulate_expected_cost_is_pinned(prior_good, expected):
    params = CostParams(2.0, 3.5, prior_good, mu0=-0.7, mu1=1.3, sigma=1.7)
    assert simulate_expected_cost(0.4, params, SimConfig(_TRIALS, 4242)) == expected


_EDGE_PVALUE_SUMMARIES = {
    (1, Tail.ONE_SIDED_UPPER): (
        (0.3629846769589359,) * 9,
        (0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        0.8381512968623728,
    ),
    (1, Tail.TWO_SIDED): (
        (0.7259693539178718,) * 9,
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0),
        0.7743728466407427,
    ),
    (2, Tail.ONE_SIDED_UPPER): (
        (0.37575006584503723, 0.3885154547311386, 0.40128084361724, 0.4140462325033413,
         0.4268116213894427, 0.439577010275544, 0.45234239916164537, 0.4651077880477468,
         0.4778731769338481),
        (0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
        0.7453294114271847,
    ),
    (2, Tail.TWO_SIDED): (
        (0.7515001316900745, 0.7770309094622772, 0.80256168723448, 0.8280924650066827,
         0.8536232427788853, 0.879154020551088, 0.9046847983232907, 0.9302155760954935,
         0.9557463538676962),
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5),
        0.7743728466407427,
    ),
    (_TRIALS, Tail.ONE_SIDED_UPPER): (
        (0.2594573611324583, 0.41880088827371403, 0.5450178061356727, 0.6492306276546396,
         0.7383131863528205, 0.8131156750289024, 0.8772052507182474, 0.9301614390315176,
         0.9721715252721131),
        (0.09998814645404659, 0.19995537488582246, 0.2995530515908156, 0.3999246951198254,
         0.49920162881666746, 0.6001241135988062, 0.6998891344819652, 0.8002398599887043,
         0.9007509569995189),
        0.001243100744518666,
    ),
    (_TRIALS, Tail.TWO_SIDED): (
        (0.05218139179289256, 0.12562818160000583, 0.21226082163867713, 0.30831657965917014,
         0.4128723036496071, 0.5219776503606223, 0.6377509479198208, 0.756944389824608,
         0.8771248254732971),
        (0.09922115230412015, 0.1995997685072202, 0.2996576417021692, 0.3999595584902766,
         0.4996339346102624, 0.600667982177845, 0.7001819867937553, 0.7998214995432898,
         0.90049296805818),
        0.001172228248258883,
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("num_trials, tail", list(_EDGE_PVALUE_SUMMARIES))
def test_simulate_pvalues_edges_are_pinned(num_trials, tail, workers):
    # one and two trials, and two full chunks plus a partial one, under a negative effect
    config = SimConfig(num_trials=num_trials, seed=31337, effect_size=-0.45, n_per_study=2,
                       tail=tail)
    summary = simulate_pvalues(config, workers)
    assert (summary.deciles, summary.cdf_at_reference_deciles,
            summary.supnorm_vs_reference) == _EDGE_PVALUE_SUMMARIES[num_trials, tail]
    assert summary.num_trials == num_trials


def _dense_summary(buf, shift, tail):
    # The pass over every trial that simulate_pvalues made before its summary read the
    # kernel only where it matters: the reference value (PIT) and the p-value of each
    # sorted key, block by block, then numpy's linear quantile rule over the p-values in
    # key order, which is np.quantile's wherever they are sorted
    # (test_quantile_rule_is_numpys).
    n = buf.size
    buf = buf.copy()
    ks, at_deciles = [], []
    for start in range(0, n, CHUNK_SIZE):
        part = buf[start:start + CHUNK_SIZE]
        stat = -part
        with np.errstate(over="ignore"):  # -|stat| - shift past the floats: -inf, cdf 0
            ref = tail.rejection(stat, shift, _normal_cdf_vec)
        i = np.arange(start + 1, start + len(part) + 1, dtype=np.float64)
        ks.append(float(np.max(np.maximum(i / n - ref, ref - (i - 1.0) / n))))
        at_deciles.append([int(np.count_nonzero(ref <= k / 10.0)) for k in range(1, 10)])
        part[...] = tail.p_value(stat, _normal_cdf_vec)
    deciles = montecarlo._quantiles(n, np.arange(1, 10) / 10.0, lambda ranks: buf[ranks])
    return (tuple(float(v) for v in deciles), tuple(sum(c) / n for c in zip(*at_deciles)),
            max(ks))


def _summary_of(keys, shift, tail, workers=1):
    # The summary of the keys as simulate_pvalues makes it, each pass drawing them
    # chunk by chunk in the order given.
    def draw(start, out):
        out[...] = keys[start:start + out.size]

    return montecarlo._summarize(draw, keys.size, shift, tail, workers)


def test_summary_equals_the_dense_pass_on_random_configs():
    rng = np.random.default_rng(20261018)
    configs = [(n, tail, effect) for n in (1, 2, 3, CHUNK_SIZE - 1, CHUNK_SIZE + 1)
               for tail in Tail for effect in (0.0, 3.5, -3.2)]
    # shifts past the noise: the keys take a few values, with heavy ties
    configs += [(10_000, Tail.ONE_SIDED_UPPER, 1e16), (10_000, Tail.ONE_SIDED_UPPER, 1e17),
                (10_000, Tail.TWO_SIDED, 1.7e308)]
    while len(configs) < 213:
        n = int(np.exp(rng.uniform(0.0, np.log(1 << 17))))
        effect = rng.choice([0.0, rng.uniform(-1.5, 1.5), rng.choice([-1, 1]) * rng.uniform(3, 6)])
        configs.append((n, rng.choice(list(Tail)), effect * math.sqrt(rng.integers(1, 11))))
    wrong = []
    for i, (n, tail, shift) in enumerate(configs):
        keys = -tail.extremity(rng.standard_normal(n) + shift)  # as simulate_pvalues draws them
        if _summary_of(keys, shift, tail, 1 + i % 2) != _dense_summary(np.sort(keys), shift, tail):
            wrong.append((n, tail, shift))
    assert not wrong


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, tail, shift", [(3001, Tail.ONE_SIDED_UPPER, 0.4),
                                            (CHUNK_SIZE + 7, Tail.TWO_SIDED, 1.3),
                                            (20_000, Tail.ONE_SIDED_UPPER, 1e12),
                                            (5000, Tail.ONE_SIDED_UPPER, 1e16),
                                            (70_001, Tail.ONE_SIDED_UPPER, 3e14),
                                            (70_001, Tail.TWO_SIDED, 2e15)])
def test_summary_equals_the_dense_pass_where_passes_split_the_blocks(n, tail, shift, workers):
    # Inputs whose blocks a kept-key budget once split pass after pass: the summary now
    # keeps every block it can read whole, in one keep pass after the partition pass.
    # At 70,001 keys and shifts of 3e14 and 2e15 most blocks hold one value and count
    # whole, next to blocks read exactly at the deciles.
    keys = -tail.extremity(np.random.default_rng(n).standard_normal(n) + shift)
    assert _summary_of(keys, shift, tail, workers) == _dense_summary(np.sort(keys), shift, tail)


def test_summary_equals_the_dense_pass_where_saturated_pvalues_pass_the_budget():
    # A shift of -10 saturates the p-values at 1.0, so every block straddles the
    # thresholds the deciles test and the blocks to read hold every one of the
    # 2**19 + 70,000 keys, more than the 2**19 the summary once kept: all are kept.
    n = (1 << 19) + 70_000
    keys = -np.random.default_rng(n).standard_normal(n) + 10.0
    assert (_summary_of(keys, -10.0, Tail.ONE_SIDED_UPPER, 2)
            == _dense_summary(np.sort(keys), -10.0, Tail.ONE_SIDED_UPPER))


def test_summary_equals_the_dense_pass_under_random_budgets():
    # Keys tied by huge shifts and p-values saturated at 1 by large negative ones, over
    # both tails and at workers 1 and 2: the mix of blocks a kept-key budget from none to
    # more than every key once stored, split or counted, now all kept or counted whole.
    rng = np.random.default_rng(20261019)
    wrong = []
    for i in range(60):
        n = int(np.exp(rng.uniform(0.0, np.log(30_000))))
        tail = rng.choice(list(Tail))
        shift = rng.choice([0.0, rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(3, 40),
                            rng.choice([-1, 1]) * 10 ** rng.uniform(10, 308)])
        keys = -tail.extremity(rng.standard_normal(n) + shift)
        if _summary_of(keys, shift, tail, 1 + i % 2) != _dense_summary(np.sort(keys), shift, tail):
            wrong.append((n, tail, shift))
    assert not wrong


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout, tail", [("least", Tail.ONE_SIDED_UPPER),
                                          ("middle", Tail.ONE_SIDED_UPPER),
                                          ("greatest", Tail.TWO_SIDED)])
def test_summary_equals_the_dense_pass_where_keys_hold_both_zeros(layout, tail, workers):
    # Three chunks, each holding 0.0 and -0.0, as the least keys, around the median or as
    # the greatest keys. The threads fold their least and greatest keys and write the kept
    # keys in the order they take the chunks, so either zero can come first in each; every
    # law maps both zeros to the same value, and the summary holds bit for bit.
    rng = np.random.default_rng(20261020)
    n = 3 * CHUNK_SIZE - 100
    keys = rng.standard_normal(n)
    keys = {"least": np.abs(keys), "middle": keys, "greatest": -np.abs(keys)}[layout]
    for start in range(0, n, CHUNK_SIZE):
        zeros = start + rng.choice(min(CHUNK_SIZE, n - start), 200, replace=False)
        keys[zeros] = np.tile([0.0, -0.0], 100)
    assert np.count_nonzero(np.signbit(keys[keys == 0.0])) == 300
    summary = _summary_of(keys, 0.0, tail, workers)
    assert repr(summary) == repr(_dense_summary(np.sort(keys), 0.0, tail))


def _crafted(rng, block, at, n, high):
    # n sorted keys with the block of keys at positions at .. at + block.size - 1, and
    # random keys below it and between it and high
    return np.concatenate([np.sort(rng.uniform(block[0] - 3.0, block[0], at)), block,
                           np.sort(rng.uniform(block[-1], high, n - at - block.size))])


def _ulps(x, count):
    # the 2 * count + 1 consecutive doubles centred on x, ascending
    return np.sort((np.array([x]).view(np.int64) + np.arange(-count, count + 1)).view(np.float64))


# Two-sided, shift 0.5275640344203552: the reference values of the doubles a few ulps
# from -0.1444061317431772 cross 0.9 more than once, in key order.
_CROSSING_SHIFT = 0.5275640344203552
_CROSSING = _ulps(-0.1444061317431772, 300)


@pytest.mark.parametrize("offset", [0, 1, -1, 31])
def test_summary_holds_where_reference_values_cross_a_tenth_out_of_order(offset):
    ref = Tail.TWO_SIDED.rejection(-_CROSSING, _CROSSING_SHIFT, _normal_cdf_vec)
    above = np.flatnonzero(ref > 0.9)
    assert above.size and np.any(ref[above[0]:] <= 0.9)
    # the first value above 0.9 sits at position 640, or next to it
    at = 640 + offset - above[0]
    buf = _crafted(np.random.default_rng(offset + 5), _CROSSING, at, 3001, 0.0)
    keys = np.random.default_rng(offset + 50).permutation(buf)
    summary = _summary_of(keys, _CROSSING_SHIFT, Tail.TWO_SIDED)
    assert summary == _dense_summary(buf, _CROSSING_SHIFT, Tail.TWO_SIDED)


# One-sided: near x = -1.28 (p = 0.1) the p-values (cdf of the key) of consecutive
# doubles fall here and there, by up to 6 ulps.
_INVERTED = _ulps(-1.2815515655446004, 200)


@pytest.mark.parametrize("n, rank", [(1001, 500), (6401, 640), (6401, 1280), (6400, 3839),
                                     (6400, 3200)])
@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_summary_holds_where_pvalues_invert_at_a_decile_rank(n, rank, shift):
    # a decile reads rank (6400: at 3839.4 and 3199.5)
    below = np.floor((n - 1) * (np.arange(1, 10) / 10.0))
    assert rank in below or rank in below + 1
    p = Tail.ONE_SIDED_UPPER.p_value(-_INVERTED, _normal_cdf_vec)
    first = np.flatnonzero(p[1:] < p[:-1])[0]
    buf = _crafted(np.random.default_rng(n + rank), _INVERTED, rank - first, n, 4.0)
    p_all = Tail.ONE_SIDED_UPPER.p_value(-buf, _normal_cdf_vec)
    assert np.sort(p_all)[rank] != p_all[rank]
    summary = _summary_of(np.random.default_rng(rank).permutation(buf), shift,
                          Tail.ONE_SIDED_UPPER)
    assert summary == _dense_summary(buf, shift, Tail.ONE_SIDED_UPPER)
    # The deciles read the p-values in key order, not re-sorted. Each p-value lies within
    # 4 eps relative of the exact, monotone law (test_normal_cdf_vec_is_within_4_eps_of_erfc),
    # so the order statistics of both orders lie within 4 eps of the exact one's, and the
    # deciles within about 8 eps of np.quantile of the re-sorted p-values (here within an
    # ulp).
    deciles, resorted = np.array(summary[0]), np.quantile(p_all, np.arange(1, 10) / 10.0)
    assert np.all(np.abs(deciles - resorted) <= 8 * np.finfo(float).eps * resorted)


# One-sided: the p-values of consecutive double keys turn 1.0 61 doubles below this one
# and stay 1.0 from there up.
_TIED = 8.292361075813705


@pytest.mark.parametrize("offset", [0, -1, -162])
def test_summary_holds_where_pvalues_tie_at_one_from_a_blocks_least_key(offset):
    # 401 consecutive doubles from offset doubles off _TIED, the least key and so block 0's,
    # then random keys above; at -162 the first p-value of 1.0 sits at position 101, next
    # to the first decile's rank 100
    run = _ulps(_TIED, 400)[400 + offset:][:401]
    p = Tail.ONE_SIDED_UPPER.p_value(-run, _normal_cdf_vec)
    assert np.flatnonzero(p == 1.0)[0] == max(0, -61 - offset) and np.all(p[-offset - 61:] == 1.0)
    buf = _crafted(np.random.default_rng(-offset), run, 0, 1001, 12.0)
    summary = _summary_of(np.random.default_rng(1 - offset).permutation(buf), -5.0,
                          Tail.ONE_SIDED_UPPER)
    assert summary == _dense_summary(buf, -5.0, Tail.ONE_SIDED_UPPER)


def test_quantile_rule_is_numpys():
    rng = np.random.default_rng(11)
    q = np.arange(1, 10) / 10.0
    for n in [*range(1, 2001), *rng.integers(2001, 1 << 22, 4)]:
        x = np.sort(rng.standard_normal(n))
        got = montecarlo._quantiles(n, q, lambda ranks: x[ranks])
        assert got.tobytes() == np.quantile(x, q).tobytes(), n
