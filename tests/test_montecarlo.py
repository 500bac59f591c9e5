import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from errstat import (
    CHUNK_SIZE,
    AlternativeSpec,
    CostParams,
    GaussianTestModel,
    ScreeningParams,
    SimConfig,
    Tail,
    cdf_under_alternative,
    combined_fpr_curve,
    expected_cost,
    false_positive_rate,
    power,
    simulate_expected_cost,
    simulate_pvalues,
    simulate_studies,
)
from errstat import montecarlo
from errstat.distributions import normal_cdf, normal_quantile
from errstat.errors import DomainError
from errstat.montecarlo import _normal_cdf_vec


def _delta_for_power(target: float, alpha: float, n: int) -> float:
    # sqrt(n)*delta = z_{1-alpha} + z_{power}
    return (-normal_quantile(alpha) + normal_quantile(target)) / math.sqrt(n)


def test_vectorized_cdf_agrees_with_scalar():
    xs = np.concatenate([
        np.linspace(-8.0, 8.0, 1601),
        np.array([-30.0, -12.0, -0.46875, 0.46875, 12.0, 30.0]),
    ])
    vec = _normal_cdf_vec(xs)
    for x, v in zip(xs, vec):
        assert abs(v - normal_cdf(float(x))) < 1e-15


def test_outcome_counts_sum_and_determinism():
    config = SimConfig(num_trials=150_000, seed=7, prior_null=0.5, alpha=0.05,
                       effect_size=0.5, n_per_study=10)
    a = simulate_studies(config)
    b = simulate_studies(config)
    assert a == b
    assert a.num_trials == config.num_trials
    other = simulate_studies(SimConfig(num_trials=150_000, seed=8, prior_null=0.5,
                                       alpha=0.05, effect_size=0.5, n_per_study=10))
    assert other != a


def test_parallel_equals_serial():
    config = SimConfig(num_trials=200_001, seed=11, prior_null=0.4, alpha=0.05,
                       effect_size=0.6, n_per_study=4)
    assert simulate_studies(config, workers=1) == simulate_studies(config, workers=4)
    pv_serial = simulate_pvalues(config, workers=1)
    pv_parallel = simulate_pvalues(config, workers=4)
    assert pv_serial == pv_parallel
    params = CostParams(1.0, 2.0, 0.5)
    cost_serial = simulate_expected_cost(0.3, params, config, workers=1)
    cost_parallel = simulate_expected_cost(0.3, params, config, workers=4)
    assert cost_serial == cost_parallel


@pytest.mark.parametrize("trials", [100, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE - 5])
def test_chunk_boundaries(trials):
    config = SimConfig(num_trials=trials, seed=3)
    outcome = simulate_studies(config)
    assert outcome.num_trials == trials


def test_size_calibration_all_null():
    config = SimConfig(num_trials=400_000, seed=21, prior_null=1.0, alpha=0.05,
                       effect_size=0.0)
    outcome = simulate_studies(config)
    n_null = outcome.false_pos + outcome.true_neg
    assert n_null == config.num_trials
    rate = outcome.false_pos / n_null
    stderr = math.sqrt(0.05 * 0.95 / n_null)
    assert abs(rate - 0.05) < 3.0 * stderr
    # no alternative trials -> power undefined, signalled with None
    assert outcome.empirical_power is None


def test_two_sided_size_calibration():
    config = SimConfig(num_trials=400_000, seed=23, prior_null=1.0, alpha=0.05,
                       effect_size=0.0, tail=Tail.TWO_SIDED)
    outcome = simulate_studies(config)
    rate = outcome.false_pos / config.num_trials
    assert abs(rate - 0.05) < 3.0 * math.sqrt(0.05 * 0.95 / config.num_trials)


@pytest.mark.parametrize("alpha,target_power,phi", [
    (0.05, 0.8, 0.5),
    (0.05, 0.8, 10.0 / 11.0),
    (0.005, 0.8, 0.5),
    (0.05, 0.5, 0.2),
    (0.01, 0.9, 0.8),
])
def test_fpr_matches_screening_formula(alpha, target_power, phi):
    n = 10
    delta = _delta_for_power(target_power, alpha, n)
    config = SimConfig(num_trials=1_000_000, seed=5, prior_null=phi, alpha=alpha,
                       effect_size=delta, n_per_study=n)
    outcome = simulate_studies(config)
    analytic = false_positive_rate(ScreeningParams(alpha, target_power, phi))
    assert outcome.empirical_fpr is not None
    assert abs(outcome.empirical_fpr - analytic) < 3.0 * outcome.mc_stderr_fpr


def test_coupled_curve_spot_value_against_simulation():
    # the coupled curve's (alpha, beta, fpr) point is what a simulation at the
    # same effect size and sample count actually produces
    alpha, delta, n, phi = 0.05, 0.5, 10, 0.5
    (_, _, analytic_fpr), = combined_fpr_curve(delta, n, phi, [alpha])
    config = SimConfig(num_trials=1_000_000, seed=6, prior_null=phi, alpha=alpha,
                       effect_size=delta, n_per_study=n)
    outcome = simulate_studies(config)
    assert abs(outcome.empirical_fpr - analytic_fpr) < 3.0 * outcome.mc_stderr_fpr


def test_power_matches_tradeoff_formula():
    config = SimConfig(num_trials=400_000, seed=13, prior_null=0.5, alpha=0.05,
                       effect_size=0.5, n_per_study=10)
    outcome = simulate_studies(config)
    analytic = power(0.05, GaussianTestModel(0.5, 10))
    n_alt = outcome.true_pos + outcome.false_neg
    stderr = math.sqrt(analytic * (1.0 - analytic) / n_alt)
    assert abs(outcome.empirical_power - analytic) < 3.0 * stderr


def test_zero_positives_is_explicit_not_nan():
    config = SimConfig(num_trials=2_000, seed=1, prior_null=1.0, alpha=1e-9,
                       effect_size=0.0)
    outcome = simulate_studies(config)
    assert outcome.num_positives == 0
    assert outcome.empirical_fpr is None
    assert outcome.mc_stderr_fpr is None


def test_pvalues_uniform_under_null():
    config = SimConfig(num_trials=200_000, seed=42, prior_null=0.5, alpha=0.05,
                       effect_size=0.0, n_per_study=1)
    summary = simulate_pvalues(config)
    # KS 1% critical value ~ 1.63/sqrt(n)
    assert summary.supnorm_vs_reference < 1.63 / math.sqrt(config.num_trials)
    for k, ecdf in enumerate(summary.cdf_at_reference_deciles, start=1):
        q = k / 10.0
        assert abs(ecdf - q) < 3.0 * math.sqrt(q * (1.0 - q) / config.num_trials)


def test_pvalue_deciles_match_alternative_cdf():
    config = SimConfig(num_trials=200_000, seed=42, prior_null=0.5, alpha=0.05,
                       effect_size=0.5, n_per_study=10)
    summary = simulate_pvalues(config)
    spec = AlternativeSpec(0.5, 10)
    for k, (ecdf, decile) in enumerate(
            zip(summary.cdf_at_reference_deciles, summary.deciles), start=1):
        q = k / 10.0
        stderr = math.sqrt(q * (1.0 - q) / config.num_trials)
        assert abs(ecdf - q) < 3.0 * stderr
        # the sample decile should sit where the analytic cdf says it should
        assert abs(cdf_under_alternative(decile, spec) - q) < 3.0 * stderr


def test_pvalues_two_sided_reference():
    config = SimConfig(num_trials=100_000, seed=9, prior_null=0.5, alpha=0.05,
                       effect_size=0.4, n_per_study=5, tail=Tail.TWO_SIDED)
    summary = simulate_pvalues(config)
    for k, ecdf in enumerate(summary.cdf_at_reference_deciles, start=1):
        q = k / 10.0
        assert abs(ecdf - q) < 3.0 * math.sqrt(q * (1.0 - q) / config.num_trials)


def test_expected_cost_simulation_matches_analytic():
    params = CostParams(1.0, 1.0, 0.5)
    config = SimConfig(num_trials=300_000, seed=17)
    for c in (0.5, -0.3, 1.4):
        estimate = simulate_expected_cost(c, params, config)
        assert abs(estimate.mean_cost - expected_cost(c, params)) < 3.0 * estimate.stderr


def test_expected_cost_zero_costs():
    params = CostParams(0.0, 0.0, 0.5)
    config = SimConfig(num_trials=10_000, seed=2)
    estimate = simulate_expected_cost(0.5, params, config)
    assert estimate.mean_cost == 0.0
    assert estimate.stderr == 0.0


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(num_trials=0, seed=1)
    with pytest.raises(DomainError):
        SimConfig(num_trials=10, seed=-1)
    with pytest.raises(DomainError):
        SimConfig(num_trials=10, seed=2 ** 64)
    with pytest.raises(DomainError):
        SimConfig(num_trials=10, seed=1, prior_null=1.5)
    with pytest.raises(DomainError):
        SimConfig(num_trials=10, seed=1, alpha=0.0)
    with pytest.raises(DomainError):
        SimConfig(num_trials=10, seed=1, n_per_study=0)


def test_rng_contract_is_recorded():
    outcome = simulate_studies(SimConfig(num_trials=100, seed=0))
    assert "pcg64" in outcome.rng
    assert "chunk" in outcome.rng


@pytest.mark.parametrize("cpus, expected", [(8, 3), (2, 2), (None, 1)])
def test_workers_are_clamped_to_chunks_and_cpus(monkeypatch, cpus, expected):
    # workers=64 on three chunks starts min(64, 3 chunks, CPUs) threads, or none
    # (a serial run) when that is one; the results do not depend on it.
    pools = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    config = SimConfig(num_trials=2 * CHUNK_SIZE + 7, seed=5, prior_null=0.3, effect_size=0.4)
    studies = simulate_studies(config, workers=64)
    pvalues = simulate_pvalues(config, workers=64)
    # one pool for the studies and one for the p-value draw; the p-value summary is serial
    assert pools == ([expected] * 2 if expected > 1 else [])
    assert studies == simulate_studies(config, workers=1)
    assert pvalues == simulate_pvalues(config, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials", [1 << 19, 1 << 21])
def test_simulate_pvalues_holds_one_float_per_trial(trials, workers):
    # the only per-trial allocation is the float64 buffer; the summary's coarse reads
    # are 1/64 of it and the kernel runs on at most CHUNK_SIZE points at a time
    config = SimConfig(num_trials=trials, seed=9, effect_size=0.3, tail=Tail.TWO_SIDED)
    tracemalloc.start()
    try:
        simulate_pvalues(config, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * trials + (8 << 20)


@pytest.mark.parametrize("tail", [Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED])
def test_simulate_pvalues_reads_the_kernel_at_few_trials(monkeypatch, tail):
    # A pass over every trial evaluates the Gaussian cdf at 2n (one-sided) or 3n
    # (two-sided) points; the summary reads it at the first trial of every block of
    # 64 and inside a few blocks.
    points = []

    def counting(x):
        points.append(np.size(x))
        return _normal_cdf_vec(x)

    monkeypatch.setattr(montecarlo, "_normal_cdf_vec", counting)
    config = SimConfig(num_trials=1 << 20, seed=4, effect_size=0.4, n_per_study=3, tail=tail)
    summary = simulate_pvalues(config, workers=2)
    monkeypatch.undo()
    assert summary == simulate_pvalues(config)
    assert 0 < sum(points) <= config.num_trials // 8


def test_ks_distance_holds_where_pvalues_tie():
    # At shift -10 over 90% of the one-sided p-values round to 1.0; their PIT values
    # still differ, and the KS distance pairs them in order, not in the order drawn.
    config = SimConfig(num_trials=20_000, seed=61, effect_size=-5.0, n_per_study=4)
    summary = simulate_pvalues(config)
    assert summary.deciles[0] == 1.0
    assert summary.supnorm_vs_reference * math.sqrt(config.num_trials) < 2.0


def test_chunks_start_without_a_plan_of_all_chunks():
    # 2**50 trials are 2**34 chunks; the serial run hands out the first trial of each
    # chunk as it goes instead of first listing every chunk's size
    class Stop(Exception):
        pass

    starts = []

    def fn(start):
        starts.append(start)
        if len(starts) == 3:
            raise Stop

    with pytest.raises(Stop):
        list(montecarlo._map_chunks(fn, 2 ** 50, 1))
    assert starts == [0, CHUNK_SIZE, 2 * CHUNK_SIZE]


def test_parallel_chunks_are_submitted_a_few_at_a_time(monkeypatch):
    # With 2 workers at most 4 chunks are submitted and unfinished at any time,
    # however many chunks the run has, and the results still come in chunk order.
    lock = threading.Lock()
    finished = 0
    in_flight = []

    def fn(start):
        nonlocal finished
        with lock:
            finished += 1
        return start // CHUNK_SIZE

    class Counting(ThreadPoolExecutor):
        submitted = 0

        def submit(self, *args):
            future = super().submit(*args)
            self.submitted += 1
            with lock:
                in_flight.append(self.submitted - finished)
            return future

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Counting)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    chunks = 5000
    assert list(montecarlo._map_chunks(fn, chunks * CHUNK_SIZE, 2)) == list(range(chunks))
    assert len(in_flight) == chunks and max(in_flight) <= 4


@pytest.mark.parametrize("workers, chunks", [(1, 200_000), (2, 20_000)])
def test_chunk_results_are_consumed_as_they_come(monkeypatch, workers, chunks):
    # The count simulators fold each chunk's result into running sums, so the chunk
    # runner holds O(workers) results, not one per chunk (a list of them passes 1 MiB).
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    seen = 0
    tracemalloc.start()
    try:
        for result in montecarlo._map_chunks(lambda start: (start, start + 1), chunks * CHUNK_SIZE,
                                             workers):
            seen += result[1] - result[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == chunks
    assert peak < 1 << 20


# The simulators at the edges of their inputs give finite numbers, None where a value is
# undefined, or an ErrstatError, and warn nowhere: the filter below turns a warning from any
# module into an error, not only one from errstat's.

def _exact_cost_moments(c, params, config):
    # (mean, squared standard error) of the costs at the simulation's own counts, exactly
    n_fr, _, _, n_fa = montecarlo._mixture_counts(config, 1, params.prior_good, params.mu0,
                                                  params.mu1, params.sigma, c,
                                                  Tail.ONE_SIDED_UPPER)
    n = config.num_trials
    cost1, cost2 = Fraction(params.cost_type1), Fraction(params.cost_type2)
    mean = (cost1 * n_fr + cost2 * n_fa) / n
    second_moment = (cost1 ** 2 * n_fr + cost2 ** 2 * n_fa) / n
    return mean, (second_moment - mean * mean) / (n - 1)


@pytest.mark.parametrize("params, trials", [
    (CostParams(1e308, 1.0, 0.5), 2),
    (CostParams(1e200, 1e-100, 0.5, mu0=-50), 1000),
    (CostParams(1e154, 1e154, 0.5), 1000),
    (CostParams(1e-200, 1e-200, 0.5), 1000),
], ids=["square_overflows", "only_the_smaller_cost_incurred", "sum_of_squares_overflows",
        "squares_underflow"])
def test_cost_moments_past_the_float_range_are_exact_to_rounding(params, trials):
    config = SimConfig(trials, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = simulate_expected_cost(0.0, params, config)
    mean, variance = _exact_cost_moments(0.0, params, config)
    assert variance > 0
    assert abs(Fraction(estimate.mean_cost) / mean - 1) < 1e-15
    assert abs(Fraction(estimate.stderr) ** 2 / variance - 1) < 1e-12


@pytest.mark.parametrize("c, params, match", [
    # c - mu0 overflows: a statistic sigma * z + mu0 that overflows to +inf would pass c,
    # where its exact value, below 1e308, does not
    (1e308, CostParams(1, 1, 0.5, mu0=-1.7e308, mu1=-1.7e308, sigma=1.7e308),
     r"^\(c - mu0\) / sigma must be finite"),
    (0.0, CostParams(5e-324, 5e-324, 0.5), "^the standard error of the cost underflows a float$"),
], ids=["threshold_beyond_the_floats_from_mu0", "stderr_underflows"])
def test_cost_results_past_the_float_range_raise_domain_error(c, params, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            simulate_expected_cost(c, params, SimConfig(1000, 1))


def test_cost_stderr_is_none_at_one_trial():
    estimate = simulate_expected_cost(0.0, CostParams(1, 1, 0.5), SimConfig(1, 1))
    assert estimate.stderr is None and estimate.mean_cost in (0.0, 1.0)


@pytest.mark.parametrize("trials", [1000, CHUNK_SIZE + 1])
def test_statistics_that_overflow_still_decide(trials, monkeypatch):
    # sigma at the float maximum takes some statistics to +-inf, in the worker threads too
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    params = CostParams(1, 1, 0.5, sigma=1.7976931348623157e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        serial, parallel = (simulate_expected_cost(0.0, params, SimConfig(trials, 1), workers)
                            for workers in (1, 2))
    assert serial == parallel
    assert 0.4 < serial.mean_cost < 0.6 and 0.0 < serial.stderr < 0.02


def test_two_sided_reference_law_at_a_shift_near_the_float_maximum():
    config = SimConfig(1000, 1, effect_size=1.7e308, tail="two_sided")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = simulate_pvalues(config)
    assert all(math.isfinite(v) for v in (*summary.deciles, *summary.cdf_at_reference_deciles,
                                           summary.supnorm_vs_reference))


def test_a_pvalue_buffer_that_cannot_be_allocated_names_its_size():
    # 2**53 trials ask for 64 PiB: the request fails before any memory is touched
    with pytest.raises(DomainError, match="^cannot allocate the 72057594037927936 bytes that "
                                          "num_trials=9007199254740992 needs$"):
        simulate_pvalues(SimConfig(2 ** 53, 1))
