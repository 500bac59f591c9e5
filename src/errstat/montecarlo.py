"""Monte Carlo harness that checks the analytic formulas empirically.

Determinism contract: trials are split into fixed chunks of 65536; chunk i
draws from a PCG64 generator seeded with SeedSequence(entropy=seed,
spawn_key=(i,)). The count simulators sum their per-chunk counts in chunk
order; simulate_pvalues draws every chunk into its own slice of one float64
buffer of num_trials entries, sorts it in place and reduces it in blocks
with exact integer sums and a max. Serial and parallel runs are therefore
identical bit for bit and the only state is the (seed, chunk_index) pair.
The generator family is recorded in every result so outputs are
self-describing.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decision_cost import CostParams
from .error_tradeoff import GaussianTestModel, Tail
from .distributions import _erf_small, _erfc_big_ratio, _erfc_mid_ratio, _exp_neg_sq
from .errors import check_finite, check_instance, check_int, check_open_unit, check_unit

CHUNK_SIZE = 1 << 16
RNG_ALGORITHM = "numpy-pcg64/seedseq(entropy=seed, spawn_key=(chunk,))/chunk=65536"

_SQRT2 = math.sqrt(2.0)

def _normal_cdf_vec(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    t = np.abs(x) / _SQRT2
    ec = np.zeros_like(t)  # erfc(t); stays 0 from t = 26.5 on, as in the scalar kernel
    small = t <= 0.46875
    ec[small] = 1.0 - _erf_small(t[small])
    for region, ratio in ((~small & (t <= 4.0), _erfc_mid_ratio),
                          ((t > 4.0) & (t < 26.5), _erfc_big_ratio)):
        tr = t[region]
        ec[region] = _exp_neg_sq(tr, np.exp, np.floor) * ratio(tr)
    return np.where(x < 0.0, 0.5 * ec, 1.0 - 0.5 * ec)


@dataclass(frozen=True)
class SimConfig:
    """Inputs for a batch of simulated studies; identical config -> identical output."""

    num_trials: int
    seed: int
    prior_null: float = 0.5
    alpha: float = 0.05
    effect_size: float = 0.5
    n_per_study: int = 1
    tail: Tail = Tail.ONE_SIDED_UPPER

    def __post_init__(self):
        object.__setattr__(self, "num_trials", check_int(self.num_trials, "num_trials", 1))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0, maximum=2 ** 64 - 1))
        object.__setattr__(self, "prior_null", check_unit(self.prior_null, "prior_null"))
        object.__setattr__(self, "alpha", check_open_unit(self.alpha, "alpha"))
        object.__setattr__(self, "n_per_study", check_int(self.n_per_study, "n_per_study", 1))
        design = self.design  # validates effect_size and tail
        object.__setattr__(self, "effect_size", design.effect_size)
        object.__setattr__(self, "tail", design.tail)

    @property
    def design(self) -> GaussianTestModel:
        """The test every study runs: effect_size, n_per_study and tail as one design."""
        return GaussianTestModel(self.effect_size, self.n_per_study, self.tail)


@dataclass(frozen=True)
class SimOutcome:
    """Confusion counts from simulated studies plus derived rates.

    empirical_fpr is the false-positive share of all positives; it is None
    (explicitly undefined, never NaN) when no trial rejected.
    """

    true_pos: int
    false_pos: int
    true_neg: int
    false_neg: int
    empirical_fpr: Optional[float]
    empirical_power: Optional[float]
    mc_stderr_fpr: Optional[float]
    rng: str = RNG_ALGORITHM

    @property
    def num_trials(self) -> int:
        return self.true_pos + self.false_pos + self.true_neg + self.false_neg

    @property
    def num_positives(self) -> int:
        return self.true_pos + self.false_pos

    @classmethod
    def from_counts(cls, true_pos: int, false_pos: int, true_neg: int,
                    false_neg: int) -> "SimOutcome":
        positives = true_pos + false_pos
        if positives > 0:
            fpr = false_pos / positives
            stderr = math.sqrt(fpr * (1.0 - fpr) / positives)
        else:
            fpr = None
            stderr = None
        alt_trials = true_pos + false_neg
        pw = true_pos / alt_trials if alt_trials > 0 else None
        return cls(true_pos, false_pos, true_neg, false_neg, fpr, pw, stderr)


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed,
                                                                      spawn_key=(index,))))


def _map_chunks(fn, total: int, workers: int) -> list:
    # fn(start) for each chunk's first trial, in order, on min(workers, chunks, CPUs) threads.
    # At most 2 * workers futures are pending, read in order: memory does not grow with the
    # chunk count, and a thread that finishes early still takes the next chunk.
    starts = range(0, total, CHUNK_SIZE)
    workers = min(check_int(workers, "workers", 1), len(starts), os.cpu_count() or 1)
    if workers == 1:
        return [fn(start) for start in starts]
    results, pending = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in starts:
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(fn, start))
        results.extend(future.result() for future in pending)
    return results


def _mixture_counts(config: SimConfig, workers: int, p_first: float, mean_first: float,
                    mean_second: float, sigma: float, crit: float,
                    tail: Tail) -> tuple[int, int, int, int]:
    # A trial comes from the first component with probability p_first, draws its
    # statistic from N(mean, sigma^2) and rejects where tail.rejects(stat, crit).
    # Returns the counts of (first, reject), (first, accept), (second, reject), (second, accept).

    def run_chunk(start: int) -> tuple[int, int, int]:
        rng = _chunk_rng(config.seed, start // CHUNK_SIZE)
        count = min(CHUNK_SIZE, config.num_trials - start)
        first = rng.random(count) < p_first
        stat = rng.standard_normal(count)
        stat *= sigma
        stat += np.where(first, mean_first, mean_second)
        reject = tail.rejects(stat, crit)
        return (int(np.count_nonzero(first)), int(np.count_nonzero(reject)),
                int(np.count_nonzero(first & reject)))

    parts = _map_chunks(run_chunk, config.num_trials, workers)
    n_first, n_reject, first_reject = (sum(column) for column in zip(*parts))
    second_reject = n_reject - first_reject
    return (first_reject, n_first - first_reject, second_reject,
            config.num_trials - n_first - second_reject)


def simulate_studies(config: SimConfig, workers: int = 1) -> SimOutcome:
    """Simulate significance tests over a mixture of true and false nulls.

    Each trial draws the truth with Pr(null) = prior_null, then a statistic
    from N(0, 1) under the null or N(sqrt(n)*delta, 1) under the
    alternative, and rejects against the level-alpha critical value.
    """
    check_instance(config, SimConfig, "config")
    design = config.design
    fp, tn, tp, fn = _mixture_counts(config, workers, config.prior_null, 0.0, design.noncentrality,
                                     1.0, design.tail.critical(config.alpha), design.tail)
    return SimOutcome.from_counts(tp, fp, tn, fn)


@dataclass(frozen=True)
class PValueSimSummary:
    """Empirical p-value distribution against its analytic reference.

    deciles: the nine sample deciles of the simulated p-values.
    cdf_at_reference_deciles: empirical CDF evaluated where the reference
        law puts probability 0.1, ..., 0.9, read off the probability
        integral transform: entry k is the share of trials whose reference
        CDF value (PIT value) is <= k/10, so each entry is
        Binomial(N, k/10)/N if the reference is right.
    supnorm_vs_reference: Kolmogorov-Smirnov distance between the empirical
        CDF and the reference CDF (uniform when delta = 0).

    The only per-trial memory is one float64 buffer of num_trials entries:
    the chunks draw into it, it is sorted in place into p-value order, and
    one pass over it in CHUNK_SIZE blocks reads each statistic's PIT value
    (for the ECDF counts and the KS distance) and then overwrites the
    statistic with its p-value, whose deciles np.quantile takes in place.
    """

    num_trials: int
    deciles: tuple[float, ...]
    cdf_at_reference_deciles: tuple[float, ...]
    supnorm_vs_reference: float
    delta: float
    n_per_study: int
    rng: str = RNG_ALGORITHM


def simulate_pvalues(config: SimConfig, workers: int = 1) -> PValueSimSummary:
    """Draw p-values under the configured alternative and summarize the fit.

    All trials use effect_size/n_per_study (set effect_size = 0 for the
    null-uniformity check); prior_null plays no role here.
    """
    check_instance(config, SimConfig, "config")
    design = config.design
    n, shift, tail = config.num_trials, design.noncentrality, design.tail
    # The one per-trial allocation: each chunk draws into its own slice, then
    # negates how extreme each statistic is, so the ascending sort below puts
    # the p-values in ascending order, and the PIT values too where p-values tie.
    buf = np.empty(n)

    def draw(start: int) -> None:
        part = buf[start:start + CHUNK_SIZE]
        _chunk_rng(config.seed, start // CHUNK_SIZE).standard_normal(out=part)
        part += shift
        np.negative(tail.extremity(part), out=part)

    _map_chunks(draw, n, workers)
    buf.sort()

    def reduce(start: int) -> tuple[float, list[int]]:
        # The block of p-value ranks start + 1 .. start + len(part). The reference CDF
        # value (PIT value) comes from the statistic, never from re-inverting the
        # p-value; then the p-value replaces the statistic in place.
        part = buf[start:start + CHUNK_SIZE]
        stat = -part  # |statistic| two-sided, where both laws are even in it
        ref = tail.rejection(stat, shift, _normal_cdf_vec)
        i = np.arange(start + 1, start + len(part) + 1, dtype=np.float64)
        ks = float(np.max(np.maximum(i / n - ref, ref - (i - 1.0) / n)))
        at_deciles = [int(np.count_nonzero(ref <= k / 10.0)) for k in range(1, 10)]
        part[...] = tail.p_value(stat, _normal_cdf_vec)
        return ks, at_deciles

    ks, at_deciles = zip(*_map_chunks(reduce, n, workers))
    deciles = np.quantile(buf, np.arange(1, 10) / 10.0, overwrite_input=True)
    return PValueSimSummary(
        num_trials=n,
        deciles=tuple(float(v) for v in deciles),
        cdf_at_reference_deciles=tuple(sum(counts) / n for counts in zip(*at_deciles)),
        supnorm_vs_reference=max(ks),
        delta=config.effect_size,
        n_per_study=config.n_per_study,
    )


@dataclass(frozen=True)
class CostSimEstimate:
    """Monte Carlo estimate of the expected cost at a threshold."""

    mean_cost: float
    stderr: float
    num_trials: int
    rng: str = RNG_ALGORITHM


def simulate_expected_cost(c: float, params: CostParams, config: SimConfig,
                           workers: int = 1) -> CostSimEstimate:
    """Average realized cost of thresholding at c over simulated cases.

    Uses params.prior_good for the good/bad mixture and the Gaussian laws
    from params; config supplies num_trials and the seed.
    """
    c = check_finite(c, "critical value")
    check_instance(params, CostParams, "params")
    check_instance(config, SimConfig, "config")
    n_fr, _, _, n_fa = _mixture_counts(config, workers, params.prior_good, params.mu0,
                                       params.mu1, params.sigma, c, Tail.ONE_SIDED_UPPER)
    n = config.num_trials
    mean = (params.cost_type1 * n_fr + params.cost_type2 * n_fa) / n
    second_moment = (params.cost_type1 ** 2 * n_fr + params.cost_type2 ** 2 * n_fa) / n
    if n > 1:
        sample_var = max(0.0, second_moment - mean * mean) * n / (n - 1)
        stderr = math.sqrt(sample_var / n)
    else:
        stderr = float("nan")
    return CostSimEstimate(mean_cost=mean, stderr=stderr, num_trials=n)
