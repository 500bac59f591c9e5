"""Monte Carlo harness that checks the analytic formulas empirically.

Determinism contract: trials are split into fixed chunks of 65536; chunk i
draws from a PCG64 generator seeded with SeedSequence(entropy=seed,
spawn_key=(i,)). Results merge by summation (or concatenation) in chunk
order, so serial and parallel runs are identical bit for bit and the only
state is the (seed, chunk_index) pair. The generator family is recorded in
every result so outputs are self-describing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decision_cost import CostParams
from .error_tradeoff import Tail
from .distributions import (_erf_small, _erfc_big_ratio, _erfc_mid_ratio, _exp_neg_sq,
                            normal_quantile)
from .errors import DomainError, check_finite, check_int, check_open_unit, check_unit

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
        seed = check_int(self.seed, "seed", 0)
        if seed >= 2 ** 64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        object.__setattr__(self, "seed", seed)
        check_unit(self.prior_null, "prior_null")
        check_open_unit(self.alpha, "alpha")
        check_finite(self.effect_size, "effect_size")
        object.__setattr__(self, "n_per_study", check_int(self.n_per_study, "n_per_study", 1))

    @property
    def noncentrality(self) -> float:
        return math.sqrt(self.n_per_study) * self.effect_size


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


def _chunk_sizes(total: int) -> list[int]:
    full, rem = divmod(total, CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _map_chunks(fn, sizes, workers: int) -> list:
    if workers <= 1:
        return [fn(i, m) for i, m in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


def _critical_value(config: SimConfig) -> float:
    if config.tail is Tail.ONE_SIDED_UPPER:
        return -normal_quantile(config.alpha)
    return -normal_quantile(0.5 * config.alpha)


def simulate_studies(config: SimConfig, workers: int = 1) -> SimOutcome:
    """Simulate significance tests over a mixture of true and false nulls.

    Each trial draws the truth with Pr(null) = prior_null, then a statistic
    from N(0, 1) under the null or N(sqrt(n)*delta, 1) under the
    alternative, and rejects against the level-alpha critical value.
    """
    crit = _critical_value(config)
    shift = config.noncentrality
    two_sided = config.tail is Tail.TWO_SIDED

    def run_chunk(index: int, count: int) -> tuple[int, int, int, int]:
        rng = _chunk_rng(config.seed, index)
        is_null = rng.random(count) < config.prior_null
        stat = rng.standard_normal(count)
        stat = np.where(is_null, stat, stat + shift)
        reject = np.abs(stat) > crit if two_sided else stat > crit
        fp = int(np.count_nonzero(is_null & reject))
        tn = int(np.count_nonzero(is_null & ~reject))
        tp = int(np.count_nonzero(~is_null & reject))
        fn = int(np.count_nonzero(~is_null & ~reject))
        return tp, fp, tn, fn

    parts = _map_chunks(run_chunk, _chunk_sizes(config.num_trials), workers)
    tp = sum(p[0] for p in parts)
    fp = sum(p[1] for p in parts)
    tn = sum(p[2] for p in parts)
    fn = sum(p[3] for p in parts)
    return SimOutcome.from_counts(tp, fp, tn, fn)


@dataclass(frozen=True)
class PValueSimSummary:
    """Empirical p-value distribution against its analytic reference.

    deciles: the nine sample deciles of the simulated p-values.
    cdf_at_reference_deciles: empirical CDF evaluated where the reference
        law puts probability 0.1, ..., 0.9 (each entry is Binomial(N, k/10)/N
        if the reference is right).
    supnorm_vs_reference: Kolmogorov-Smirnov distance between the empirical
        CDF and the reference CDF (uniform when delta = 0).
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
    shift = config.noncentrality
    two_sided = config.tail is Tail.TWO_SIDED

    def run_chunk(index: int, count: int) -> np.ndarray:
        rng = _chunk_rng(config.seed, index)
        return rng.standard_normal(count) + shift

    parts = _map_chunks(run_chunk, _chunk_sizes(config.num_trials), workers)
    stat = np.concatenate(parts)
    n = stat.size
    if two_sided:
        a = np.abs(stat)
        pvals = 2.0 * _normal_cdf_vec(-a)
        ref = _normal_cdf_vec(shift - a) + _normal_cdf_vec(-a - shift)
    else:
        pvals = _normal_cdf_vec(-stat)
        ref = 1.0 - _normal_cdf_vec(stat - shift)
    # The reference CDF value is computed from the statistic, not by
    # re-inverting the p-value, so p and its reference stay paired exactly;
    # a stable sort keeps the pairing deterministic across runs.
    order = np.argsort(pvals, kind="stable")
    pvals = pvals[order]
    ref = ref[order]

    i = np.arange(1, n + 1, dtype=np.float64)
    supnorm = float(np.max(np.maximum(i / n - ref, ref - (i - 1.0) / n)))

    deciles = tuple(float(v) for v in np.quantile(pvals, np.arange(1, 10) / 10.0))
    ref_points = _reference_deciles(shift, two_sided)
    ecdf = tuple(float(np.searchsorted(pvals, q, side="right")) / n for q in ref_points)
    return PValueSimSummary(
        num_trials=n,
        deciles=deciles,
        cdf_at_reference_deciles=ecdf,
        supnorm_vs_reference=supnorm,
        delta=config.effect_size,
        n_per_study=config.n_per_study,
    )


def _reference_deciles(shift: float, two_sided: bool) -> tuple[float, ...]:
    # p at which the reference CDF puts probability k/10, k = 1..9.
    out = []
    for k in range(1, 10):
        q = k / 10.0
        if shift == 0.0:
            out.append(q)
        elif two_sided:
            out.append(_two_sided_quantile(q, shift))
        else:
            out.append(float(_normal_cdf_vec(np.array([-shift - normal_quantile(1.0 - q)]))[0]))
    return tuple(out)


def _two_sided_quantile(q: float, shift: float) -> float:
    # Invert G(p) = Phi(shift - z_{p/2}) + Phi(-z_{p/2} - shift) by bisection.
    lo, hi = 1e-300, 1.0 - 1e-16

    def g(p: float) -> float:
        z = -normal_quantile(0.5 * p)
        c = _normal_cdf_vec(np.array([shift - z, -z - shift]))
        return float(c[0] + c[1])

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    def run_chunk(index: int, count: int) -> tuple[int, int]:
        rng = _chunk_rng(config.seed, index)
        is_good = rng.random(count) < params.prior_good
        stat = rng.standard_normal(count) * params.sigma
        stat = stat + np.where(is_good, params.mu0, params.mu1)
        n_false_reject = int(np.count_nonzero(is_good & (stat > c)))
        n_false_accept = int(np.count_nonzero(~is_good & (stat <= c)))
        return n_false_reject, n_false_accept

    parts = _map_chunks(run_chunk, _chunk_sizes(config.num_trials), workers)
    n_fr = sum(p[0] for p in parts)
    n_fa = sum(p[1] for p in parts)
    n = config.num_trials
    mean = (params.cost_type1 * n_fr + params.cost_type2 * n_fa) / n
    second_moment = (params.cost_type1 ** 2 * n_fr + params.cost_type2 ** 2 * n_fa) / n
    if n > 1:
        sample_var = max(0.0, second_moment - mean * mean) * n / (n - 1)
        stderr = math.sqrt(sample_var / n)
    else:
        stderr = float("nan")
    return CostSimEstimate(mean_cost=mean, stderr=stderr, num_trials=n)
