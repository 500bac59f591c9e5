"""Monte Carlo harness that checks the analytic formulas empirically.

Determinism contract: trials are split into fixed chunks of 65536; chunk i
draws from a PCG64 generator seeded with SeedSequence(entropy=seed,
spawn_key=(i,)). The count simulators sum their per-chunk counts in chunk
order; simulate_pvalues draws every chunk into its own slice of one float64
buffer of num_trials entries and sorts it in place. Its summary then reads
the sorted buffer serially, evaluating the Gaussian kernel at the first trial
of every block of 64 and in full only in the blocks that can change an exact
integer count, the KS maximum or a decile; every field is the float a pass
over all trials would give. Serial and parallel runs are therefore identical
bit for bit and the only state is the (seed, chunk_index) pair. The generator
family is recorded in every result so outputs are self-describing.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .decision_cost import CostParams
from .error_tradeoff import SimConfig, Tail
from .distributions import _erf_small, _erfc_big_ratio, _erfc_mid_ratio, _exp_neg_sq
from .errors import check_finite, check_instance, check_int

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


def _map_chunks(fn, total: int, workers: int) -> Iterator:
    # Yields fn(start) for each chunk's first trial, in order, on min(workers, chunks, CPUs)
    # threads. At most 2 * workers futures are pending, read in order, and the caller folds
    # each result as it comes: memory does not grow with the chunk count, and a thread
    # that finishes early still takes the next chunk.
    starts = range(0, total, CHUNK_SIZE)
    workers = min(check_int(workers, "workers", 1), len(starts), os.cpu_count() or 1)
    if workers == 1:
        yield from map(fn, starts)
        return
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in starts:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, start))
        while pending:
            yield pending.popleft().result()


def _mixture_counts(config: SimConfig, workers: int, p_first: float, mean_first: float,
                    mean_second: float, sigma: float, crit: float,
                    tail: Tail) -> tuple[int, int, int, int]:
    # A trial comes from the first component with probability p_first, draws its
    # statistic from N(mean, sigma^2) and rejects where tail.rejects(stat, crit).
    # Returns the counts of (first, reject), (first, accept), (second, reject), (second, accept).
    means = np.array([mean_second, mean_first])  # indexed by the first-component flag

    def run_chunk(start: int) -> tuple[int, int, int]:
        rng = _chunk_rng(config.seed, start // CHUNK_SIZE)
        count = min(CHUNK_SIZE, config.num_trials - start)
        first = rng.random(count) < p_first
        stat = rng.standard_normal(count)
        stat *= sigma
        stat += means.take(first.view(np.uint8))
        reject = tail.rejects(stat, crit)
        return (int(np.count_nonzero(first)), int(np.count_nonzero(reject)),
                int(np.count_nonzero(first & reject)))

    n_first = n_reject = first_reject = 0
    for chunk_first, chunk_reject, chunk_first_reject in _map_chunks(run_chunk, config.num_trials,
                                                                     workers):
        n_first += chunk_first
        n_reject += chunk_reject
        first_reject += chunk_first_reject
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


# The summary cuts the sorted buffer into blocks of _STRIDE positions and reads each
# block's first value; it reads a whole block only where the block can change a count,
# the KS maximum or a decile.
_STRIDE = 64
_BLOCKS_PER_BATCH = CHUNK_SIZE // _STRIDE

# Relative slack of every bracket. Both summary laws (the reference CDF value and the
# p-value) are monotone in the sorted key, and each operation between the key and the
# erfc argument t rounds monotonically, so only the Cody evaluation at t can put two
# values out of order. It does so at the ulp scale: over 2^17 consecutive doubles,
# _normal_cdf_vec falls between neighbours 6,947 times at the x = -0.66 cut (by up to
# 2 ulps) and 5,430 times at x = -1.28 (up to 6 ulps, 3.8 eps relative). Against
# mpmath's erfc at the same double t (100,000 random x from -37.5 to 8.3 and 32,000
# next to the cuts) its relative error stays below 4 eps, so two values in the wrong
# order differ by under 8 eps relative, 9 for the two-sided sum of two laws. 2^-40 is
# 4096 eps: a wide margin that costs nothing, since sorted neighbours lie about 1/n
# apart.
_SLACK = 2.0 ** -40


def _blocks(edges: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    # Every position of the given blocks, block b being edges[b] .. edges[b + 1] - 1.
    starts, sizes = edges[blocks], edges[blocks + 1] - edges[blocks]
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _brackets(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Bounds on every value in each block, from the values read at its first position
    # and at the next block's (at the last position, for the last block).
    return ends[:-1] * (1.0 - _SLACK), ends[1:] * (1.0 + _SLACK)


def _count_at_most(edges, ends, law, thresholds) -> np.ndarray:
    # #(law(j) <= t) over every position j, exactly, for each threshold t. The brackets,
    # widened to running extremes, rise with the block: the blocks wholly <= t come
    # before `below`, those wholly > t from `above` on, and only the blocks between are
    # read, each once for all thresholds.
    lo, hi = _brackets(ends)
    below = np.searchsorted(np.maximum.accumulate(hi), thresholds, side="right")
    above = np.searchsorted(np.minimum.accumulate(lo[::-1])[::-1], thresholds, side="right")
    read = np.zeros(lo.size, dtype=bool)
    for a, b in zip(below, above):
        read[a:b] = True
    unread = np.where(read, 0, np.diff(edges))
    counts = np.append(0, np.cumsum(unread))[below]  # the unread positions before `below`
    blocks = np.flatnonzero(read)
    for s in range(0, blocks.size, _BLOCKS_PER_BATCH):
        values = np.sort(law(_blocks(edges, blocks[s:s + _BLOCKS_PER_BATCH])))
        counts += np.searchsorted(values, thresholds, side="right")
    return counts


def _ks_distance(edges, ends, law) -> float:
    # max over the 1-based ranks i of max(i/n - ref, ref - (i-1)/n). A block is read
    # only if its bound exceeds the largest value found before it.
    n = edges[-1]

    def distance(j, ref):
        i = j + 1.0
        return np.maximum(i / n - ref, ref - (i - 1.0) / n)

    best = distance(np.minimum(edges, n - 1), ends).max()
    lo, hi = _brackets(ends)
    bound = np.maximum(edges[1:] / n - lo, hi - edges[:-1] / n)
    blocks = np.flatnonzero(bound > best)
    for s in range(0, blocks.size, _BLOCKS_PER_BATCH):
        batch = blocks[s:s + _BLOCKS_PER_BATCH]
        batch = batch[bound[batch] > best]
        if batch.size:
            j = _blocks(edges, batch)
            best = max(best, distance(j, law(j)).max())
    return float(best)


def _order_statistics(edges, ends, law, ranks) -> np.ndarray:
    # The values at the given 0-based ranks of law over all positions, sorted by value.
    # The rank-r value lies within _SLACK of law(r), and is law(r) unless the exact counts
    # show a value on the wrong side of it; then a bisection over the doubles between the
    # brackets finds the least t with #(law <= t) > r.
    v = law(ranks)
    counts = _count_at_most(edges, ends, law, np.append(v, np.nextafter(v, -np.inf)))
    wrong = np.flatnonzero((counts[:v.size] <= ranks) | (counts[v.size:] > ranks))
    if wrong.size:
        low = (v[wrong] * (1.0 - _SLACK)).view(np.int64) - 1  # #(law <= low) <= rank
        high = (v[wrong] * (1.0 + _SLACK)).view(np.int64)  # #(law <= high) > rank
        while np.any(high - low > 1):
            mid = (low + high) // 2
            above = _count_at_most(edges, ends, law, mid.view(np.float64)) > ranks[wrong]
            low, high = np.where(above, low, mid), np.where(above, mid, high)
        v[wrong] = high.view(np.float64)
    return v


def _quantiles(n: int, q: np.ndarray, order_statistics) -> np.ndarray:
    # np.quantile's default (linear, Hyndman & Fan type 7) from the order statistics it
    # reads, with numpy's _lerp, which takes the form anchored at b from t >= 0.5 on.
    index = (n - 1) * q
    below = np.floor(index).astype(np.int64)
    above = np.minimum(below + 1, n - 1)
    t = index - below
    values = order_statistics(np.append(below, above))
    a, b = values[:q.size], values[q.size:]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _summarize(buf: np.ndarray, shift: float, tail: Tail):
    # (deciles, ECDF at the reference deciles, KS distance) of the sorted keys in buf,
    # each the float a pass over every trial gives; buf is only read.
    n = buf.size

    def reader(law):
        # law of the statistic at positions j, CHUNK_SIZE at a time (the kernel's
        # temporaries stay small); -buf is the statistic, |statistic| two-sided.
        def read(j):
            out = np.empty(j.size)
            for s in range(0, j.size, CHUNK_SIZE):
                out[s:s + CHUNK_SIZE] = law(-buf[j[s:s + CHUNK_SIZE]])
            return out

        return read

    reference = reader(lambda stat: tail.rejection(stat, shift, _normal_cdf_vec))
    p_value = reader(lambda stat: tail.p_value(stat, _normal_cdf_vec))
    tenths = np.arange(1, 10) / 10.0
    edges = np.append(np.arange(0, n, _STRIDE), n)
    first = np.minimum(edges, n - 1)  # each block's first position, then the last one
    ref, p = reference(first), p_value(first)
    at_deciles = _count_at_most(edges, ref, reference, tenths)
    deciles = _quantiles(n, tenths, lambda ranks: _order_statistics(edges, p, p_value, ranks))
    return (tuple(float(v) for v in deciles), tuple(int(k) / n for k in at_deciles),
            _ks_distance(edges, ref, reference))


@dataclass(frozen=True)
class PValueSimSummary:
    """Empirical p-value distribution against its analytic reference.

    deciles: the nine sample deciles of the simulated p-values, by numpy's
        default (linear) quantile rule.
    cdf_at_reference_deciles: empirical CDF evaluated where the reference
        law puts probability 0.1, ..., 0.9, read off the probability
        integral transform: entry k is the share of trials whose reference
        CDF value (PIT value) is <= k/10, so each entry is
        Binomial(N, k/10)/N if the reference is right.
    supnorm_vs_reference: Kolmogorov-Smirnov distance between the empirical
        CDF and the reference CDF (uniform when delta = 0).

    The only per-trial memory is one float64 buffer of num_trials entries:
    the chunks draw into it and it is sorted in place into p-value order.
    Every field is the value a pass over all trials would give, but the
    Gaussian kernel runs only at the first sorted trial of every block of
    64, and over the blocks that can change a count, the KS maximum or one
    of the 18 order statistics the deciles interpolate.
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

    for _ in _map_chunks(draw, n, workers):  # each chunk has filled its slice
        pass
    buf.sort()
    deciles, at_deciles, ks = _summarize(buf, shift, tail)
    return PValueSimSummary(
        num_trials=n,
        deciles=deciles,
        cdf_at_reference_deciles=at_deciles,
        supnorm_vs_reference=ks,
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
