"""Monte Carlo harness that checks the analytic formulas empirically.

Determinism contract: trials are split into fixed chunks of 65536; chunk i
draws from a PCG64 generator seeded with SeedSequence(entropy=seed,
spawn_key=(i,)). The calling thread and the threads it starts take the
chunks from one cursor and draw into buffers that the calling thread
allocates once per pass. Each folds its chunks into a state of its own:
exact integer counts, the least and greatest key, and kept keys sorted
after the pass. So the order in which the chunks run changes no bit of a
result. simulate_pvalues makes two passes over the same (seed, chunk) streams,
so both see the same trials: the first counts every trial's sort key into
fixed bins, the second keeps only the keys of the bins that can hold a decile's
order statistic, a crossing of an ECDF threshold or the KS maximum
(simulate_pvalues gives the measured peak memory). The summary then evaluates
the reference law at the block edges, on the kept keys of the blocks that
straddle an ECDF threshold, and in the KS search on pieces of 64 kept keys;
every other block counts whole at its least key. The deciles read the p-value
law only at the 18 order statistics they interpolate (PValueSimSummary states
their rule). Every field is the float a pass over all trials, sorted by key,
would give. Serial and parallel runs are therefore identical bit for bit and
the only state is the (seed, chunk_index) pair. The generator
family is recorded in every result so outputs are self-describing.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .decision_cost import CostParams, _checked, _standardized
from .error_tradeoff import SimConfig, Tail
from .distributions import (_CODY_MID_CUT, _CODY_SMALL_CUT, _CODY_ZERO_CUT, _erf_small,
                            _erfc_big_ratio, _erfc_mid_ratio, _exp_neg_sq)
from .errors import DomainError, Record, check_instance, check_int, unscaled

CHUNK_SIZE = 1 << 16
RNG_ALGORITHM = "numpy-pcg64/seedseq(entropy=seed, spawn_key=(chunk,))/chunk=65536"

_SQRT2 = math.sqrt(2.0)

def _normal_cdf_vec(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    t = np.abs(x) / _SQRT2
    ec = np.zeros_like(t)  # erfc(t); stays 0 from the last cut on, as in the scalar kernel
    small = t <= _CODY_SMALL_CUT
    ec[small] = 1.0 - _erf_small(t[small])
    for region, ratio in ((~small & (t <= _CODY_MID_CUT), _erfc_mid_ratio),
                          ((t > _CODY_MID_CUT) & (t < _CODY_ZERO_CUT), _erfc_big_ratio)):
        tr = t[region]
        ec[region] = _exp_neg_sq(tr, np.exp, np.floor) * ratio(tr)
    return np.where(x < 0.0, 0.5 * ec, 1.0 - 0.5 * ec)


class SimOutcome(Record):
    """Confusion counts from simulated studies plus derived rates.

    empirical_fpr is the false-positive share of all positives; it is None
    (explicitly undefined, never NaN) when no trial rejected.
    """

    true_pos: int
    false_pos: int
    true_neg: int
    false_neg: int
    empirical_fpr: float | None
    empirical_power: float | None
    mc_stderr_fpr: float | None
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


def _map_chunks(fn, total: int, workers: int, make) -> list:
    # Runs fn(start, buffers, state) on each chunk, state being the running thread's own
    # make() and buffers its two float64 and one bool buffers cut to the chunk's size, and
    # returns the states. fn folds the chunk into its state; every fold here is order-free.
    # min(workers, chunks, CPUs) runners take the chunks from one cursor: the calling thread
    # and the threads it starts. The states and buffers are made on the calling thread: one
    # made on a started thread lands in that thread's malloc arena, which keeps its pages
    # after the pass and so raises the peak RSS. The first failure moves the cursor to the
    # end, which stops the other runners at their next chunk, and is raised after the join.
    workers = min(check_int(workers, "workers", 1), -(-total // CHUNK_SIZE), os.cpu_count() or 1)
    states = [make() for _ in range(workers)]
    scratch = [(np.empty(CHUNK_SIZE), np.empty(CHUNK_SIZE), np.empty(CHUNK_SIZE, dtype=bool))
               for _ in range(workers)]
    cursor = 0  # the first trial of the next chunk
    failures = []
    lock = threading.Lock()

    def run(buffers, state, threads=()):
        nonlocal cursor
        try:
            for thread in threads:
                thread.start()
            while True:
                with lock:
                    start, cursor = cursor, cursor + CHUNK_SIZE
                if start >= total:
                    return
                fn(start, [buf[:total - start] for buf in buffers], state)
        except BaseException as error:  # kept for the calling thread to raise
            with lock:
                cursor = total
                failures.append(error)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(scratch[1:], states[1:])]
    run(scratch[0], states[0], threads)
    for thread in threads:
        if thread.ident is not None:  # one that failed to start never ran
            thread.join()
    if failures:
        raise failures[0]
    return states


def _mixture_counts(config: SimConfig, workers: int, p_first: float, mean_first: float,
                    mean_second: float, sigma: float, crit: float,
                    tail: Tail) -> tuple[int, int, int, int]:
    # A trial comes from the first component with probability p_first, draws its
    # statistic from N(mean, sigma^2) and rejects where tail.rejects(stat, crit).
    # Returns the counts of (first, reject), (first, accept), (second, reject), (second, accept).
    means = np.array([mean_second, mean_first])  # indexed by the first-component flag

    def run_chunk(start: int, buffers, counts: np.ndarray) -> None:
        # adds the chunk's counts of (first, reject, first and reject) to counts
        rng = _chunk_rng(config.seed, start // CHUNK_SIZE)
        uniform, stat, first = buffers
        np.less(rng.random(out=uniform), p_first, out=first)
        rng.standard_normal(out=stat)
        # Callers keep crit - mean finite, so a statistic that overflows to +-inf lies beyond
        # crit, as its exact value does. Entered here: the error state is per thread.
        with np.errstate(over="ignore"):
            stat *= sigma
            # mode="clip" writes straight into out; "raise" fills a fresh buffer and copies
            # it, which faulted in new pages on every chunk. The indices are 0 and 1.
            stat += means.take(first.view(np.uint8), out=uniform, mode="clip")
        reject = tail.rejects(stat, crit)
        counts += (np.count_nonzero(first), np.count_nonzero(reject),
                   np.count_nonzero(np.logical_and(first, reject, out=reject)))

    n_first, n_reject, first_reject = (int(k) for k in sum(_map_chunks(
        run_chunk, config.num_trials, workers, lambda: np.zeros(3, dtype=np.int64))))
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


# The p-value summary works on the sorted keys (minus how extreme each statistic is) cut
# into blocks of about _STRIDE consecutive keys. It knows each block's size and a key at
# or below its first one, and evaluates a law (the p-value, or the reference CDF value)
# there. It reads the exact values of a block's keys only where the block can change an
# ECDF count or a decile, and counts every other block whole at its least key; the KS
# distance reads the kept keys in pieces of _STRIDE, only where a piece's bound passes
# the best value known.
_STRIDE = 64
_PIECES_PER_BATCH = CHUNK_SIZE // _STRIDE
_TENTHS = np.arange(1, 10) / 10.0

# Relative slack of every bracket of the reference law (the reference CDF value), which
# is monotone in the sorted key. Each operation between the key and the erfc argument t
# rounds monotonically, so only the Cody evaluation at t can put two values out of
# order. It does so at the ulp scale: over 2^17 consecutive doubles, _normal_cdf_vec
# falls between neighbours 6,947 times at the x = -0.66 cut (by up to 2 ulps) and 5,430
# times at x = -1.28 (up to 6 ulps, 3.8 eps relative). Its relative error against erfc
# at the same double t stays below 4 eps (tests/test_tail_accuracy.py), so two values in
# the wrong order differ by under 8 eps relative, 9 for the two-sided sum of two terms.
# 2^-40 is 4096 eps: a wide margin that costs nothing, since sorted neighbours lie about
# 1/n apart.
_SLACK = 2.0 ** -40

# The first pass counts keys into at most _MAX_BINS bins over the keys of statistics
# within _Z_RANGE of their centre (about 1e-15 of them lie beyond, in two end bins).
_MAX_BINS = 1 << 17
_Z_RANGE = 8.0


class _Bins:
    """The first pass's bins: a monotone function of the key, the same in every pass.

    Bin 0 holds the keys below the range, bins 1 .. size split it into widths of
    1/scale, a power of two, and bin size + 1 holds the keys above. floor(key * scale)
    is an integer below 2**53 in magnitude for every key in the range, so it is exact
    and every bin edge is a double.
    """

    def __init__(self, n: int, shift: float, tail: Tail):
        x = np.array([shift - _Z_RANGE, shift + _Z_RANGE,
                      min(max(0.0, shift - _Z_RANGE), shift + _Z_RANGE)])
        keys = -tail.extremity(x)  # the key range holds the statistics within _Z_RANGE
        lo, hi = float(keys.min()), float(keys.max())
        exponent = 53 - math.frexp(max(-lo, hi))[1]
        if hi > lo:  # as many bins as a power-of-two width allows, up to one per 16 trials
            bins = min(_MAX_BINS, max(16, n >> 4))
            exponent = min(exponent, math.frexp(bins / (hi - lo))[1] - 1)
        self.scale = math.ldexp(1.0, exponent)
        self.low = float(math.floor(lo * self.scale))
        self.size = int(math.floor(hi * self.scale) - self.low) + 1

    def index(self, keys: np.ndarray, scaled: np.ndarray) -> np.ndarray:
        # The bin of each key (int64), computed in the float buffer scaled and written over it.
        with np.errstate(over="ignore"):  # a key far beyond the range scales to +-inf
            np.multiply(keys, self.scale, out=scaled)
        np.floor(scaled, out=scaled)
        scaled -= self.low - 1.0  # an integer below 2**53 in magnitude, as floor(key * scale) is
        np.clip(scaled, 0.0, self.size + 1.0, out=scaled)
        out = scaled.view(np.int64)
        np.copyto(out, scaled, casting="unsafe")  # element by element, in place
        return out

    def lower_edge(self, bins: np.ndarray) -> np.ndarray:
        # the least key of each bin from 1 on
        return (self.low + (bins - 1)) / self.scale


class _Partition:
    """The keys cut into runs of first-pass bins, the blocks.

    Block i holds the sizes[i] keys from edges[i] up to edges[i + 1] (the last block
    up to top, inclusive); edges[0] and top are the least and the greatest key.
    of_bin maps each first-pass bin to the block that holds it, the bins below the
    first filled one to block 0. A block one double wide holds a single value.
    """

    def __init__(self, edges, sizes, top, of_bin):
        self.edges, self.sizes, self.top, self.of_bin = edges, sizes, top, of_bin
        self.positions = np.append(0, np.cumsum(sizes))
        upper = np.append(edges[1:], np.nextafter(top, np.inf))  # past each block's keys
        self.single = np.nextafter(edges, np.inf) >= upper

    def holding(self, positions: np.ndarray) -> np.ndarray:
        # the block that holds each position among the sorted keys
        return np.searchsorted(self.positions, positions, side="right") - 1


def _pass(draw, n: int, workers: int, bins: _Bins, fn, make=lambda: None) -> list:
    # Draws each chunk's keys into its thread's buffers, bins them and folds them with
    # fn(keys, bins_of_keys, mask, state), state being the thread's make(); mask is a
    # chunk-sized bool buffer. Returns the threads' states.
    def run_chunk(start, buffers, state):
        keys, scaled, mask = buffers
        draw(start, keys)
        fn(keys, bins.index(keys, scaled), mask, state)

    return _map_chunks(run_chunk, n, workers, make)


def _first_partition(draw, n: int, workers: int, bins: _Bins) -> _Partition:
    # The first pass: each thread counts its keys into the bins, and the blocks are runs
    # of bins, a new one starting wherever the count of keys before a bin passes a
    # multiple of _STRIDE. A thread's state is its bin counts and its least and greatest key;
    # where both zeros are keys either can end up the least, as every law maps them alike.
    def count(keys, bins_of_keys, mask, state):
        np.add.at(state[0], bins_of_keys, 1)
        state[1:] = min(state[1], keys.min()), max(state[2], keys.max())

    states = _pass(draw, n, workers, bins, count,
                   lambda: [np.zeros(bins.size + 2, dtype=np.int64), math.inf, -math.inf])
    counts = sum(state[0] for state in states)
    low, top = min(state[1] for state in states), max(state[2] for state in states)
    filled = np.flatnonzero(counts)
    before = np.cumsum(counts[filled]) - counts[filled]
    starts = filled[np.append(True, np.diff(before // _STRIDE) > 0)]
    edges = bins.lower_edge(starts)
    edges[0] = low
    sizes = np.add.reduceat(counts, starts)
    of_bin = np.zeros(counts.size, dtype=np.int32)
    of_bin[starts[1:]] = 1
    np.cumsum(of_bin, out=of_bin)
    return _Partition(edges, sizes, top, of_bin)


def _brackets(ends: np.ndarray, single: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Bounds on every value in each block, from the values at its least key and at the
    # next block's (at the greatest key, for the last block); exact in a one-value block.
    lo, hi = ends[:-1] * (1.0 - _SLACK), ends[1:] * (1.0 + _SLACK)
    lo[single] = hi[single] = ends[:-1][single]
    return lo, hi


def _straddling(lo, hi, thresholds) -> np.ndarray:
    # The blocks that can hold values on both sides of some threshold. The brackets,
    # widened to running extremes, rise with the block: the blocks wholly <= a threshold
    # come before `below`, those wholly above it from `above` on.
    below = np.searchsorted(np.maximum.accumulate(hi), thresholds, side="right")
    above = np.searchsorted(np.minimum.accumulate(lo[::-1])[::-1], thresholds, side="right")
    marked = np.zeros(lo.size, dtype=bool)
    for a, b in zip(below, above):
        marked[a:b] = True
    return marked


def _blocks(edges: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    # Every index of the given runs, run b being edges[b] .. edges[b + 1] - 1.
    starts, sizes = edges[blocks], edges[blocks + 1] - edges[blocks]
    return np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _ks_bounds(first, past, n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    # Upper and lower bounds of the largest KS term over positions first .. past - 1,
    # per run of positions whose reference values lie in lo .. hi.
    first, past = first / n, past / n
    return np.maximum(past - lo, hi - first), np.maximum(lo - first, past - hi)


def _ranks(n: int, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The two 0-based ranks that the q-quantile interpolates, and the weight of the second.
    index = (n - 1) * q
    below = np.floor(index).astype(np.int64)
    return below, np.minimum(below + 1, n - 1), index - below


def _quantiles(n: int, q: np.ndarray, order_statistics) -> np.ndarray:
    # np.quantile's default (linear, Hyndman & Fan type 7) from the order statistics it
    # reads, with numpy's _lerp, which takes the form anchored at b from t >= 0.5 on.
    below, above, t = _ranks(n, q)
    values = order_statistics(np.append(below, above))
    a, b = values[:q.size], values[q.size:]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _needed(part: _Partition, n: int, ref_lo, ref_hi, ks) -> tuple[np.ndarray, ...]:
    # The blocks whose keys each field reads: those that straddle a reference tenth, their
    # brackets widened by _SLACK once more, so that every other block lies on one side of
    # each tenth, its least key included; the blocks that hold the 18 ranks the deciles
    # read; and the KS candidates, whose upper bound ks[0] passes the best lower bound in
    # ks[1].
    held = np.zeros(part.sizes.size, dtype=bool)
    held[part.holding(np.append(*_ranks(n, _TENTHS)[:2]))] = True
    return (_straddling(ref_lo * (1.0 - _SLACK), ref_hi * (1.0 + _SLACK), _TENTHS),
            held, ks[0] > ks[1].max())


def _summarize(draw, n: int, shift: float, tail: Tail, workers: int = 1):
    # (deciles, ECDF at the reference deciles, KS distance) of the n keys that
    # draw(start, out) writes, chunk by chunk, into out: minus how extreme each
    # statistic is, so that ascending keys are ascending p-values. The deciles are
    # numpy's linear rule over the p-values of the sorted keys, in key order; the ECDF
    # and KS distance are the floats a pass over every sorted key gives. draw must give
    # the same keys each pass.
    def reference_law(stat):
        # two-sided, -|stat| - shift can overflow to -inf, whose cdf is the exact value 0
        with np.errstate(over="ignore"):
            return tail.rejection(stat, shift, _normal_cdf_vec)

    def at(law, keys):
        # law of the statistic -keys, 8192 at a time (the kernel's temporaries stay small)
        out = np.empty(keys.size)
        for s in range(0, keys.size, 1 << 13):
            out[s:s + (1 << 13)] = law(-keys[s:s + (1 << 13)])
        return out

    # Pass 1 cuts the keys into blocks; the keep pass stores the keys of every block the
    # summary can read, in whatever order the threads take the chunks, then sorts them.
    bins = _Bins(n, shift, tail)
    part = _first_partition(draw, n, workers, bins)
    ref_ends = at(reference_law, np.append(part.edges, part.top))
    ref = _brackets(ref_ends, part.single)
    bounds = _ks_bounds(part.positions[:-1], part.positions[1:], n, *ref)
    best = bounds[1].max()  # the KS search starts here, exact in a one-value block
    tenths, held, ks = _needed(part, n, *ref, bounds)
    del ref, bounds  # per block: not held through the keep pass
    stored = (tenths | held | ks) & ~part.single
    in_play = stored[part.of_bin]  # by bin

    size = int(part.sizes[stored].sum())
    try:
        kept = np.empty(size)
    except MemoryError:
        raise DomainError(f"cannot allocate the {8 * size} bytes that num_trials={n} "
                          f"needs") from None
    filled = 0
    lock = threading.Lock()

    def keep(keys, bins_of_keys, mask, state):
        # writes the chunk's kept keys into the next free slice of kept
        nonlocal filled
        count = int(np.count_nonzero(np.take(in_play, bins_of_keys, out=mask, mode="clip")))
        with lock:
            start, filled = filled, filled + count
        np.compress(mask, keys, out=kept[start:start + count])

    if size:  # ties past the noise can leave only blocks of one value, whose keys are known
        _pass(draw, n, workers, bins, keep)
        kept.sort()

    chosen = np.flatnonzero(stored)
    sizes = part.sizes[chosen]
    kept_first = np.cumsum(sizes) - sizes  # where each stored block starts in kept
    offset = part.positions[chosen] - kept_first  # from a kept index to the key's position

    # ECDF at the reference tenths, by how many tenths each value passes: a block that
    # straddles no tenth counts whole at its least key, the kept keys of the others one
    # by one.
    exact = tenths & stored
    passes = np.zeros(_TENTHS.size + 1, dtype=np.int64)
    np.add.at(passes, np.searchsorted(_TENTHS, ref_ends[:-1][~exact]), part.sizes[~exact])
    marked = np.repeat(exact[chosen], sizes)  # by kept key
    for s in range(0, size, CHUNK_SIZE):
        keys = kept[s:s + CHUNK_SIZE][marked[s:s + CHUNK_SIZE]]
        np.add.at(passes, np.searchsorted(_TENTHS, at(reference_law, keys)), 1)
    del marked  # a byte per kept key: not held through the KS search
    at_deciles = np.cumsum(passes)[:-1]

    def p_values_at(r):
        # the p-values of the keys at positions r, from the kept keys of the block that
        # holds each or from the one value of a one-value block
        block = part.holding(r)
        keys = part.edges[block]
        read = ~part.single[block]
        keys[read] = kept[r[read] - offset[np.searchsorted(chosen, block[read])]]
        return tail.p_value(-keys, _normal_cdf_vec)

    deciles = _quantiles(n, _TENTHS, p_values_at)

    # KS: max over the 1-based ranks i of max(i/n - ref, ref - (i-1)/n), from the
    # partition's best lower bound (exact in a one-value block) and the pieces of _STRIDE
    # consecutive kept keys whose bound passes the best value known.
    def position(i):
        # the position among all keys of kept[i]
        return i + offset[np.searchsorted(kept_first, i, side="right") - 1]

    piece_ends = np.append(np.arange(0, size, _STRIDE), size)
    refs = np.append(at(reference_law, kept[piece_ends[:-1]]), ref_ends[-1])
    bound = _ks_bounds(position(piece_ends[:-1]), position(piece_ends[1:] - 1) + 1, n,
                       *_brackets(refs, np.zeros(refs.size - 1, dtype=bool)))[0]
    pieces = np.flatnonzero(bound > best)
    for s in range(0, pieces.size, _PIECES_PER_BATCH):
        batch = pieces[s:s + _PIECES_PER_BATCH]
        batch = batch[bound[batch] > best]
        if batch.size:
            i = _blocks(piece_ends, batch)
            rank, value = position(i) + 1.0, at(reference_law, kept[i])
            best = max(best, np.maximum(rank / n - value, value - (rank - 1.0) / n).max())
    return (tuple(float(v) for v in deciles), tuple(int(k) / n for k in at_deciles),
            float(best))


class PValueSimSummary(Record):
    """Empirical p-value distribution against its analytic reference.

    deciles: the nine sample deciles of the simulated p-values, by numpy's
        default (linear, Hyndman & Fan type 7) rule over the p-values of
        the trials sorted by how extreme their statistics are. That is
        np.quantile of the p-values, except where the Gaussian kernel puts
        neighbouring p-values out of order by a few ulps; a decile then
        differs from np.quantile by a few eps relative at most (an ulp in
        the crafted cases the tests hold it to).
    cdf_at_reference_deciles: empirical CDF evaluated where the reference
        law puts probability 0.1, ..., 0.9, read off the probability
        integral transform: entry k is the share of trials whose reference
        CDF value (PIT value) is <= k/10, so each entry is
        Binomial(N, k/10)/N if the reference is right.
    supnorm_vs_reference: Kolmogorov-Smirnov distance between the empirical
        CDF and the reference CDF (uniform when delta = 0).

    The trials are drawn twice from the same streams: counted into fixed bins
    the first time, and the second time only the keys of the bins that can
    change a field are kept. The deciles read the p-value law at the keys of
    the 18 ranks they interpolate. The ECDF counts take exact values on the
    kept keys of the blocks that straddle a reference tenth, and count every
    other block whole at its least key, which lies on the same side of every
    tenth. The KS distance reads the kept keys in pieces of 64, only where a
    piece's bound passes the best value known. Every field is the value a pass
    over all trials would give, but the Gaussian kernel runs only at the block
    edges and on some of the kept keys.
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

    Each worker holds a few chunk-sized buffers and the bin counts, and the
    summary the kept keys plus a few arrays per block. Traced peaks (workers
    2, seed 9, effect_size 0.3): under 6.5 MiB up to 2**23 trials on either
    tail, and 5.9 MiB at 2**22 trials for one-sided effects from -5 to -10,
    whose p-values crowd just below 1.0 or tie at 1.0. Past 2**23 the kept
    keys grow with the trials: 24 MiB at 2**24 one-sided, 249 MiB at 2**26
    two-sided. A kept-key array that cannot be allocated raises DomainError.
    """
    check_instance(config, SimConfig, "config")
    design = config.design
    shift, tail = design.noncentrality, design.tail

    def draw(start: int, out: np.ndarray) -> None:
        # minus how extreme each statistic is: ascending keys are ascending p-values,
        # and ascending PIT values where p-values tie
        _chunk_rng(config.seed, start // CHUNK_SIZE).standard_normal(out=out)
        out += shift
        np.negative(tail.extremity(out), out=out)

    deciles, at_deciles, ks = _summarize(draw, config.num_trials, shift, tail, workers)
    return PValueSimSummary(
        num_trials=config.num_trials,
        deciles=deciles,
        cdf_at_reference_deciles=at_deciles,
        supnorm_vs_reference=ks,
        delta=config.effect_size,
        n_per_study=config.n_per_study,
    )


class CostSimEstimate(Record):
    """Monte Carlo estimate of the expected cost at a threshold."""

    mean_cost: float
    stderr: float | None  # None (undefined) at one trial
    num_trials: int
    rng: str = RNG_ALGORITHM


def simulate_expected_cost(c: float, params: CostParams, config: SimConfig,
                           workers: int = 1) -> CostSimEstimate:
    """Average realized cost of thresholding at c over simulated cases.

    Uses params.prior_good for the good/bad mixture and the Gaussian laws
    from params; config supplies num_trials and the seed.
    """
    c = _checked(c, params)
    _standardized(c, params)  # c - mu finite: a statistic that overflows lies beyond c
    check_instance(config, SimConfig, "config")
    n_fr, _, _, n_fa = _mixture_counts(config, workers, params.prior_good, params.mu0,
                                       params.mu1, params.sigma, c, Tail.ONE_SIDED_UPPER)
    n = config.num_trials
    # Moments of the incurred costs scaled by 2**-e, e the exponent of the larger, so no square
    # overflows or underflows; a cost never incurred drops out, as its product with 0 did.
    costs = (params.cost_type1 if n_fr else 0.0, params.cost_type2 if n_fa else 0.0)
    e = math.frexp(max(costs))[1]
    cost1, cost2 = (math.ldexp(cost, -e) for cost in costs)
    mean = (cost1 * n_fr + cost2 * n_fa) / n
    stderr = None
    if n > 1:
        # The sum of squared deviations from the mean, as a sum over the pairs of the three
        # costs a trial can incur (the third is 0) of n_i n_j (c_i - c_j)^2 / n: every term
        # is >= 0, so nothing cancels, and the rounded mean never enters.
        n_0, diff = n - n_fr - n_fa, cost1 - cost2
        sample_var = (n_fr * n_fa * (diff * diff) + n_fr * n_0 * (cost1 * cost1)
                      + n_fa * n_0 * (cost2 * cost2)) / (n * (n - 1))
        stderr = unscaled(math.sqrt(sample_var / n), e, "standard error of the cost")
        if stderr == 0.0 < sample_var:
            raise DomainError("the standard error of the cost underflows a float")
    return CostSimEstimate(mean_cost=unscaled(mean, e, "mean cost"), stderr=stderr, num_trials=n)
