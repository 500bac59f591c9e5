import math
import operator
import sys
import threading
import time
import tracemalloc
import warnings
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


@pytest.fixture
def started(monkeypatch):
    # every threading.Thread started while the test runs, in the order they start
    started = []

    class Recorder(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorder)
    return started


@pytest.mark.parametrize("cpus, expected", [(8, 3), (2, 2), (None, 1)])
def test_workers_are_clamped_to_chunks_and_cpus(monkeypatch, started, cpus, expected):
    # workers=64 on three chunks runs min(64, 3 chunks, CPUs) runners, the calling thread
    # and the threads it starts, one state each, and starts no thread (a serial run) when
    # that is one; the results do not depend on it.
    runners = []
    map_chunks = montecarlo._map_chunks

    def counted(*args):
        before = len(started)
        states = map_chunks(*args)
        runners.append((len(started) - before + 1, len(states)))
        return states

    monkeypatch.setattr(montecarlo, "_map_chunks", counted)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    config = SimConfig(num_trials=2 * CHUNK_SIZE + 7, seed=5, prior_null=0.3, effect_size=0.4)
    studies = simulate_studies(config, workers=64)
    pvalues = simulate_pvalues(config, workers=64)
    # one pass for the studies and two for the p-values; the p-value summary is serial
    assert runners == [(expected, expected)] * 3
    assert len(started) == 3 * (expected - 1) and not any(t.is_alive() for t in started)
    assert studies == simulate_studies(config, workers=1)
    assert pvalues == simulate_pvalues(config, workers=1)


# What simulate_pvalues may hold at once up to 2^23 trials: a few chunk-sized buffers per
# worker, the first pass's bin counts and the blocks made of them, and the kept keys.
# The simulate_pvalues docstring gives the measured peaks.
# A small call first loads the modules a call imports, which stay loaded.
_PVALUE_PEAK_BYTES = 10 << 20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials", [1 << 19, 1 << 21, 1 << 23])
def test_simulate_pvalues_memory_does_not_grow_with_trials(trials, workers):
    config = SimConfig(num_trials=trials, seed=9, effect_size=0.3, tail=Tail.TWO_SIDED)
    simulate_pvalues(SimConfig(CHUNK_SIZE + 1, 9), workers)
    tracemalloc.start()
    try:
        simulate_pvalues(config, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PVALUE_PEAK_BYTES


@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_pvalues_memory_holds_where_every_key_ties(workers):
    # A shift of -1e16 rounds the noise away: the keys take a few values, each a block of
    # one value with a million positions, which is counted whole and never laid out.
    config = SimConfig(num_trials=1 << 21, seed=9, effect_size=-1e16)
    simulate_pvalues(SimConfig(CHUNK_SIZE + 1, 9), workers)
    tracemalloc.start()
    try:
        summary = simulate_pvalues(config, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.deciles == (1.0,) * 9
    assert peak <= _PVALUE_PEAK_BYTES


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shift, below_one", [(-10.0, 0.0), (-7.25, 1.2e-9)],
                         ids=["tie", "crowd"])
def test_simulate_pvalues_memory_holds_where_pvalues_crowd_at_one(shift, below_one, workers):
    # A one-sided shift of -10 ties about 96% of the p-values at 1.0, and at -7.25 the
    # deciles lie within 1.2e-9 of 1.0, a few ulps apart at the top. The deciles read only
    # the blocks that hold their ranks, so neither keeps more keys than another shift
    # (keeping every tied key held 42.5 MiB, and a bracket 2^-40 wide in p kept 30.2 MiB).
    config = SimConfig(num_trials=1 << 22, seed=9, effect_size=shift)
    simulate_pvalues(SimConfig(CHUNK_SIZE + 1, 9), workers)
    tracemalloc.start()
    try:
        summary = simulate_pvalues(config, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.deciles[-1] == 1.0 and min(summary.deciles) >= 1.0 - below_one
    assert peak <= _PVALUE_PEAK_BYTES


@pytest.mark.parametrize("tail", [Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED])
def test_simulate_pvalues_reads_the_kernel_at_few_trials(monkeypatch, tail):
    # A pass over every trial evaluates the Gaussian cdf at 2n (one-sided) or 3n
    # (two-sided) points; the summary reads it at the edges of blocks of about 64
    # trials and on the few keys it keeps.
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


@pytest.mark.parametrize("tail, terms", [(Tail.ONE_SIDED_UPPER, 1), (Tail.TWO_SIDED, 2)])
def test_simulate_pvalues_reads_the_reference_law_once_per_kept_key(monkeypatch, tail, terms):
    # The reference law (terms cdf calls per point) is read at the block edges and the
    # greatest key, and once on each kept key for both the ECDF and the KS distance; the
    # deciles read the p-value law (one cdf call) at their 18 keys.
    points = []
    blocks = []

    def counting(x):
        points.append(np.size(x))
        return _normal_cdf_vec(x)

    needed = montecarlo._needed

    def choosing(part, *args):
        mask = needed(part, *args)
        blocks.append((part.sizes.size, int(part.sizes[mask & ~part.single].sum())))
        return mask

    monkeypatch.setattr(montecarlo, "_normal_cdf_vec", counting)
    monkeypatch.setattr(montecarlo, "_needed", choosing)
    config = SimConfig(num_trials=1 << 20, seed=4, effect_size=0.4, n_per_study=3, tail=tail)
    summary = simulate_pvalues(config, workers=2)
    monkeypatch.undo()
    assert summary == simulate_pvalues(config)
    (edges, kept), = blocks
    assert 0 < kept < config.num_trials // 16
    assert sum(points) == terms * (edges + 1 + kept) + 18


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tail", [Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED])
def test_simulate_pvalues_reads_the_pvalue_law_at_the_deciles_ranks_only(monkeypatch, tail,
                                                                       workers):
    # The deciles interpolate the p-values of the keys at 18 ranks, two per tenth, and
    # nothing else reads the p-value law: not the block edges, not the kept keys.
    points = []
    p_value = Tail.p_value

    def counting(self, x, cdf):
        points.append(np.size(x))
        return p_value(self, x, cdf)

    monkeypatch.setattr(Tail, "p_value", counting)
    config = SimConfig(num_trials=1 << 20, seed=4, effect_size=0.4, n_per_study=3, tail=tail)
    summary = simulate_pvalues(config, workers)
    monkeypatch.undo()
    assert summary == simulate_pvalues(config, workers)
    assert 0 < sum(points) <= 18


@pytest.mark.parametrize("trials, effect, tail, passes", [
    (1, 0.3, Tail.ONE_SIDED_UPPER, 1),  # one key: a block of one value, known from pass 1
    (10_000, 1e17, Tail.ONE_SIDED_UPPER, 1),  # every key ties past the noise
    (3001, 0.0, Tail.TWO_SIDED, 2),
    (2 * CHUNK_SIZE + 7, -0.45, Tail.ONE_SIDED_UPPER, 2),
    ((1 << 19) + 70_000, -10.0, Tail.ONE_SIDED_UPPER, 2),  # p-values tie at 1.0
])
def test_simulate_pvalues_makes_at_most_two_passes(monkeypatch, trials, effect, tail, passes):
    # Pass 1 counts the keys into bins; the keep pass runs where some block needs keys.
    calls = []
    draw_pass = montecarlo._pass

    def spy(*args, **kwargs):
        calls.append(args)
        return draw_pass(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_pass", spy)
    simulate_pvalues(SimConfig(trials, 3, effect_size=effect, tail=tail), workers=2)
    assert len(calls) == passes


def test_kept_keys_that_cannot_be_allocated_raise_domain_error(monkeypatch):
    # The first allocation after the summary picks its blocks is the kept keys'; a stub
    # makes it fail as numpy does where memory runs out.
    needed = montecarlo._needed
    sizes = []

    def empty(shape, *args, **kwargs):
        raise MemoryError

    def choosing(part, *args):
        mask = needed(part, *args)  # the blocks whose keys are kept, unless of one value
        sizes.append(int(part.sizes[mask & ~part.single].sum()))
        monkeypatch.setattr(montecarlo.np, "empty", empty)
        return mask

    monkeypatch.setattr(montecarlo, "_needed", choosing)
    with pytest.raises(DomainError) as raised:
        simulate_pvalues(SimConfig(30_000, 2, effect_size=0.2))
    monkeypatch.undo()
    assert sizes[0] > 0
    assert str(raised.value) == (f"cannot allocate the {8 * sizes[0]} bytes that "
                                 f"num_trials=30000 needs")


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

    def fn(start, buffers, state):
        starts.append(start)
        if len(starts) == 3:
            raise Stop

    with pytest.raises(Stop):
        montecarlo._map_chunks(fn, 2 ** 50, 1, lambda: None)
    assert starts == [0, CHUNK_SIZE, 2 * CHUNK_SIZE]


def test_parallel_chunks_are_submitted_a_few_at_a_time(monkeypatch, started):
    # min(workers, chunks, CPUs) runners take one task each, not one per chunk: the calling
    # thread and the threads it starts. Every chunk runs once, on its runner's buffers cut to
    # its size, and folds into its runner's state, the calling thread's being the first.
    # The states are all made on the calling thread, so that no started thread's arena
    # holds them, and come back.
    lock = threading.Lock()
    ran = []
    made = []
    makers = set()

    def make():
        made.append([])
        makers.add(threading.get_ident())
        return made[-1]

    def fn(start, buffers, state):
        assert [buf.dtype for buf in buffers] == [np.float64, np.float64, bool]
        assert len({buf.size for buf in buffers}) == 1
        with lock:
            ran.append((start, buffers[0].size, threading.current_thread(), state))
        state.append(start)

    edge = 2 * CHUNK_SIZE + 7
    for workers, cpus, total in ((2, 2, 5000 * CHUNK_SIZE), (1, 2, edge), (2, 2, edge),
                                 (3, 2, edge), (3, 4, edge), (4, 4, edge)):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        for record in (made, ran, started):
            record.clear()
        states = montecarlo._map_chunks(fn, total, workers, make)
        starts = range(0, total, CHUNK_SIZE)
        assert sorted(run[:2] for run in ran) == [(start, min(CHUNK_SIZE, total - start))
                                                  for start in starts]
        # each chunk folded into the state of the runner that ran it
        assert sorted(start for state in states for start in state) == list(starts)
        threads = min(workers, len(starts), cpus)
        assert len(made) == len(states) == threads and all(map(operator.is_, states, made))
        assert len(started) == threads - 1 and not any(t.is_alive() for t in started)
        runners = [threading.current_thread(), *started]
        assert all(state is states[runners.index(thread)] for *_, thread, state in ran)
    assert makers == {threading.get_ident()}


def test_threads_take_one_state_each_under_contention(monkeypatch):
    # More threads than cores, switching as often as the interpreter allows: each of the 8
    # threads takes its own one of the 8 states made before the first chunk, and its own
    # buffers.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    made = []
    used = []

    def make():
        made.append(object())
        return made[-1]

    def fn(start, buffers, state):
        used.append((threading.get_ident(), id(state), id(buffers[0].base)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        states = montecarlo._map_chunks(fn, 2000 * CHUNK_SIZE, 8, make)
    finally:
        sys.setswitchinterval(interval)
    assert len(used) == 2000 and len(made) == 8 and states == made
    taken_by = {}
    for thread, state, buffer in used:
        taken_by.setdefault(thread, set()).add((state, buffer))
    assert all(len(taken) == 1 for taken in taken_by.values())
    for part in (0, 1):
        assert len({taken[part] for thread, *taken in used}) == len(taken_by)


@pytest.mark.parametrize("workers, chunks", [(1, 200_000), (2, 20_000)])
def test_chunk_results_are_consumed_as_they_come(monkeypatch, workers, chunks):
    # Each chunk folds into its thread's state, so the chunk runner holds its threads'
    # buffers and states, not one result per chunk (a list of them passes 1 MiB).
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)

    def fn(start, buffers, state):
        state[0] += 1

    buffers = workers * 17 * CHUNK_SIZE  # two float64 and one bool buffer per thread
    tracemalloc.start()
    try:
        states = montecarlo._map_chunks(fn, chunks * CHUNK_SIZE, workers, lambda: [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(state[0] for state in states) == chunks
    assert peak < buffers + (1 << 20)


def test_a_failing_chunk_stops_the_other_threads(monkeypatch):
    # The tenth chunk to start raises in one of two threads over 2**50 trials: the failure
    # reaches the caller, and at most three chunks more start. Each chunk sleeps, as a
    # chunk's numpy work lets go of the interpreter lock.
    class Stop(Exception):
        pass

    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    lock = threading.Lock()
    starts = []

    def fn(start, buffers, state):
        with lock:
            starts.append(start)
            count = len(starts)
        if count == 10 or count > 13:  # a runner that does not stop its threads fails, not hangs
            raise Stop
        time.sleep(1e-3)

    with pytest.raises(Stop):
        montecarlo._map_chunks(fn, 2 ** 50, 2, lambda: None)
    assert 10 <= len(starts) <= 13


def test_a_thread_that_cannot_start_stops_the_pass(monkeypatch):
    # The second of two threads to start fails as a thread the system cannot make would: the
    # error reaches the caller once the thread that did start has stopped, and the calling
    # thread runs no chunk of the 2**50 trials.
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    started = []
    ran = []

    class Failing(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    def fn(start, buffers, state):
        ran.append(threading.current_thread())
        time.sleep(1e-3)

    monkeypatch.setattr(threading, "Thread", Failing)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        montecarlo._map_chunks(fn, 2 ** 50, 3, lambda: None)
    assert len(started) == 1 and not started[0].is_alive()
    assert set(ran) <= set(started) and len(ran) < 1000


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
    assert abs(Fraction(estimate.stderr) ** 2 / variance - 1) <= _COST_VARIANCE_REL_ERR


# On its worst path from the counts the squared standard error rounds 12 times, each by at
# most half an ulp: the difference of the costs, its square, a product of counts and its
# product with the square, two sums, n (n - 1) and the two quotients, and the square root
# (the difference and the root count twice, being squared). So it is within 6 eps
# relative. The second moment minus the square of the mean passes that on 9 of these 400
# calls (up to 25 eps).
_COST_VARIANCE_REL_ERR = 6 * 2.0 ** -52


def test_cost_standard_error_is_exact_to_rounding_on_seeded_calls():
    rng = np.random.default_rng(20261020)
    wrong = []
    for _ in range(400):
        params = CostParams(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3), rng.uniform(),
                            rng.uniform(-1, 1), rng.uniform(-1, 3), rng.uniform(0.3, 3))
        c, config = rng.uniform(-2, 4), SimConfig(int(10 ** rng.uniform(0.31, 4)),
                                                  int(rng.integers(2 ** 32)))
        estimate = simulate_expected_cost(c, params, config)
        variance = _exact_cost_moments(c, params, config)[1]
        # every trial incurring the same cost leaves no spread: a standard error of exactly 0
        if (variance == 0 and estimate.stderr != 0.0) or (
                variance and abs(Fraction(estimate.stderr) ** 2 / variance - 1)
                > _COST_VARIANCE_REL_ERR):
            wrong.append((c, params, config))
    assert not wrong


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


def test_a_pvalue_call_of_2_53_trials_starts_in_bounded_memory(monkeypatch):
    # The largest admitted count starts drawing at once, in the memory of any other call;
    # the draw of the fourth chunk stops it.
    class Stop(Exception):
        pass

    chunks = []
    chunk_rng = montecarlo._chunk_rng

    def counting(seed, index):
        chunks.append(index)
        if len(chunks) == 4:
            raise Stop
        return chunk_rng(seed, index)

    simulate_pvalues(SimConfig(CHUNK_SIZE + 1, 9))
    monkeypatch.setattr(montecarlo, "_chunk_rng", counting)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            simulate_pvalues(SimConfig(2 ** 53, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks == [0, 1, 2, 3]
    assert peak <= _PVALUE_PEAK_BYTES


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES: simulate_pvalues draws standard_normal "
                                       "+ shift, which rounds the noise away past |shift| ~ 1e15")
@pytest.mark.parametrize("effect", [1e16, 1e17])
def test_pvalues_fit_their_reference_at_a_shift_past_the_noise(effect):
    summary = simulate_pvalues(SimConfig(10_000, 7, effect_size=effect))
    assert summary.supnorm_vs_reference * math.sqrt(summary.num_trials) <= 3.0
