"""mc_validate: the three simulators in-process, streaming and gathering.

A round runs simulate_studies and simulate_expected_cost (per-chunk count
reductions) with workers=1 and workers=2, and simulate_pvalues one- and
two-sided (gather, sort, quantile) at a size whose working set fits in the
last-level cache and at one whose working set exceeds it. Every result is
checked: the worker counts must agree bit for bit, and every estimate must
lie within Z_BOUND standard errors of its analytic value.
"""

from __future__ import annotations

import math
import random
import time
import tracemalloc
from statistics import NormalDist

from common import KS_BOUND, Z_BOUND, p50, peak_rss_mb

# simulate_pvalues held ~130 B per trial when this benchmark was added: 2^20 trials
# fit in a 300 MiB L3 and 2^22 do not. The sizes give the streaming calls, the
# in-cache pair and the beyond-LLC pair about 12, 18 and 70% of a round.
STREAM_TRIALS = 1 << 23
IN_CACHE_TRIALS = 1 << 20
BEYOND_LLC_TRIALS = 1 << 22
OP_STAT = p50  # of the op times, for op_ms: a run has 3 to 5 rounds, too few for a p90
WORKERS = 2  # the parallel runs: the CPU count of the machine the bounds were set on

_N = NormalDist()


def make_inputs(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"mc_validate:{seed}")

    def trials(n):
        return max(1 << 12, int(n * scale))

    def pvalue_config(n, tail):
        return dict(num_trials=trials(n), seed=rng.randrange(2 ** 32), tail=tail,
                    effect_size=rng.uniform(0.0, 1.0), n_per_study=rng.randint(1, 10))

    mu1 = rng.uniform(0.5, 2.0)
    return {
        "studies": dict(num_trials=trials(STREAM_TRIALS), seed=rng.randrange(2 ** 32),
                        prior_null=rng.uniform(0.2, 0.8), alpha=rng.uniform(0.01, 0.1),
                        effect_size=rng.uniform(0.2, 1.0), n_per_study=rng.randint(1, 20)),
        "cost": dict(config=dict(num_trials=trials(STREAM_TRIALS), seed=rng.randrange(2 ** 32)),
                     params=(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0.2, 0.8),
                             0.0, mu1, rng.uniform(0.5, 2.0)),
                     c=rng.uniform(0.0, mu1)),
        "pvalues": {
            "in_cache.one_sided": pvalue_config(IN_CACHE_TRIALS, "one_sided_upper"),
            "in_cache.two_sided": pvalue_config(IN_CACHE_TRIALS, "two_sided"),
            "beyond_llc.one_sided": pvalue_config(BEYOND_LLC_TRIALS, "one_sided_upper"),
            "beyond_llc.two_sided": pvalue_config(BEYOND_LLC_TRIALS, "two_sided"),
        },
        "workers": WORKERS,
    }


class Calls:
    """The simulator calls of a run, bound to the program's public API."""

    def __init__(self, es, inputs):
        self.es = es
        self.workers = inputs["workers"]
        self.studies_cfg = es.SimConfig(**inputs["studies"])
        cost = inputs["cost"]
        self.cost_params = es.CostParams(*cost["params"])
        self.cost_cfg = es.SimConfig(**cost["config"])
        self.cost_c = cost["c"]
        self.pvalue_cfg = {key: es.SimConfig(**{**cfg, "tail": es.Tail(cfg["tail"])})
                           for key, cfg in inputs["pvalues"].items()}

    def round_plan(self):
        """(label, trials, thunk) for one round."""
        es, w = self.es, self.workers
        plan = []
        for label, workers in (("w1", 1), (f"w{w}", w)):
            plan.append((f"simulate_studies.{label}", self.studies_cfg.num_trials,
                         lambda workers=workers: es.simulate_studies(self.studies_cfg, workers)))
            plan.append((f"simulate_expected_cost.{label}", self.cost_cfg.num_trials,
                         lambda workers=workers: es.simulate_expected_cost(
                             self.cost_c, self.cost_params, self.cost_cfg, workers)))
        for key in self.pvalue_cfg:
            plan.append(self._pvalues(key, w))
        return plan

    def _pvalues(self, key, workers):
        cfg = self.pvalue_cfg[key]
        return (f"simulate_pvalues.{key}", cfg.num_trials,
                lambda: self.es.simulate_pvalues(cfg, workers))


def run_plan(plan):
    """Runs each call once; returns {label: (result, seconds, trials)}."""
    out = {}
    for label, trials, thunk in plan:
        t0 = time.perf_counter()
        result = thunk()
        out[label] = (result, time.perf_counter() - t0, trials)
    return out


def peak_bytes_per_trial(es, calls) -> float:
    """Largest tracemalloc peak per trial of the in-cache simulate_pvalues calls."""
    peaks = []
    tracemalloc.start()
    try:
        for key in ("in_cache.one_sided", "in_cache.two_sided"):
            cfg = calls.pvalue_cfg[key]
            tracemalloc.reset_peak()
            es.simulate_pvalues(cfg, calls.workers)
            peaks.append(tracemalloc.get_traced_memory()[1] / cfg.num_trials)
    finally:
        tracemalloc.stop()
    return max(peaks)


# --- checking ----------------------------------------------------------------


def _z(estimate, reference, stderr):
    if stderr > 0:
        return abs(estimate - reference) / stderr
    return 0.0 if estimate == reference else math.inf


def _studies_stats(cfg, out):
    crit = _N.inv_cdf(1.0 - cfg["alpha"])
    power = 1.0 - _N.cdf(crit - math.sqrt(cfg["n_per_study"]) * cfg["effect_size"])
    phi, alpha = cfg["prior_null"], cfg["alpha"]
    fpr = alpha * phi / (alpha * phi + power * (1.0 - phi))
    n_alt, n_null = out.true_pos + out.false_neg, out.false_pos + out.true_neg
    positives = out.true_pos + out.false_pos
    return {
        "z_power": (_z(out.true_pos / n_alt, power, math.sqrt(power * (1 - power) / n_alt)),
                    Z_BOUND),
        "z_type1_rate": (_z(out.false_pos / n_null, alpha,
                            math.sqrt(alpha * (1 - alpha) / n_null)), Z_BOUND),
        "z_fpr": (_z(out.false_pos / positives, fpr, math.sqrt(fpr * (1 - fpr) / positives)),
                  Z_BOUND),
    }


def _cost_stats(inputs, out):
    p0, p1, phi, mu0, mu1, sigma = inputs["params"]
    c = inputs["c"]
    analytic = (phi * (1.0 - _N.cdf((c - mu0) / sigma)) * p0
                + (1.0 - phi) * _N.cdf((c - mu1) / sigma) * p1)
    return {"z_mean_cost": (_z(out.mean_cost, analytic, out.stderr), Z_BOUND)}


def _pvalue_stats(out):
    n = out.num_trials
    stats = {f"z_ecdf_q{k}": (_z(v, k / 10.0, math.sqrt(k / 10.0 * (1 - k / 10.0) / n)), Z_BOUND)
             for k, v in enumerate(out.cdf_at_reference_deciles, start=1)}
    stats["ks_sqrt_n"] = (out.supnorm_vs_reference * math.sqrt(n), KS_BOUND)
    return stats


def check_call(inputs, label, result):
    """Failing statistics of one call, by name."""
    family = label.split(".", 1)[0]
    if family == "simulate_studies":
        stats = _studies_stats(inputs["studies"], result)
    elif family == "simulate_expected_cost":
        stats = _cost_stats(inputs["cost"], result)
    else:
        stats = _pvalue_stats(result)
    return {f"{label}.{name}": f"{value:.3g} > {bound}"
            for name, (value, bound) in stats.items() if not value <= bound}


# --- measurement -------------------------------------------------------------


def measure(es, inputs, seconds):
    """Runs rounds until `seconds` have gone; returns the run's figures."""
    calls = Calls(es, inputs)
    plan = calls.round_plan()
    start = time.perf_counter()
    rounds, round_s = [], []
    while time.perf_counter() - start < seconds or not rounds:
        t0 = time.perf_counter()
        rounds.append(run_plan(plan))
        round_s.append(time.perf_counter() - t0)
    # workers=1 twins of the in-cache p-value calls, which ran with workers=2
    serial = {label: es.simulate_pvalues(calls.pvalue_cfg[label.split(".", 1)[1]], 1)
              for label, _, _ in plan if label.startswith("simulate_pvalues.in_cache")}
    bytes_per_trial = peak_bytes_per_trial(es, calls)

    first = {label: res for label, (res, _, _) in rounds[0].items()}
    failures = {}
    for label, res in first.items():
        failures.update(check_call(inputs, label, res))
    w = inputs["workers"]
    pairs = [(f"{f}.w1", first[f"{f}.w1"], first[f"{f}.w{w}"])
             for f in ("simulate_studies", "simulate_expected_cost")]
    pairs += [(label, res, first[label]) for label, res in serial.items()]
    for label, a, b in pairs:
        if a != b:
            failures[f"{label}.workers_agree"] = "workers=1 and workers=2 differ"

    def bad(label):
        return any(name.startswith(label + ".") for name in failures)

    for rnd in rounds:
        for label, (res, _, _) in rnd.items():
            if res != first[label]:
                failures.setdefault(f"{label}.repeat", "a later round differs from the first")
    # an operation is one call of the round plan, or one workers=1 twin, checked in
    # every round: the counts do not depend on how many rounds the run had time for
    ops = len(first) + len(serial)
    failed = sum(map(bad, first)) + sum(map(bad, serial))
    timed = [c for rnd in rounds for c in rnd.values()]
    return {"samples_ms": [s * 1e3 for s in round_s],
            "throughput": sum(c[2] for c in timed) / sum(c[1] for c in timed),
            "rss_mb": peak_rss_mb(), "attempted": ops, "failed": failed, "failures": failures,
            "environment": {"simulate_pvalues_peak_bytes_per_trial": bytes_per_trial,
                            "simulate_pvalues_working_set_bytes": {
                                key: round(cfg.num_trials * bytes_per_trial)
                                for key, cfg in calls.pvalue_cfg.items()}}}
