"""
Checking every formula against brute-force simulation
=====================================================

Each closed-form quantity in the package has an empirical twin: simulate a
million studies with a seeded generator and compare. Identical seeds give
identical counts, serially or in parallel chunks.
"""

import math

from errstat import (
    CostParams,
    GaussianTestModel,
    SimConfig,
    combined_fpr_curve,
    expected_cost,
    power,
    simulate_expected_cost,
    simulate_pvalues,
    simulate_studies,
)

TRIALS = 1_000_000

# Size calibration: with every null true, the rejection rate is alpha.
config = SimConfig(num_trials=TRIALS, seed=42, prior_null=1.0, alpha=0.05, effect_size=0.0)
outcome = simulate_studies(config)
print("type I rate:", outcome.false_pos / TRIALS, "(target 0.05)")
print("generator:", outcome.rng)

# False positive rate against the screening formula.
config = SimConfig(num_trials=TRIALS, seed=42, prior_null=0.5, alpha=0.05,
                   effect_size=0.5, n_per_study=10)
outcome = simulate_studies(config)
analytic_power = power(0.05, GaussianTestModel(0.5, 10))
(_, _, analytic_fpr), = combined_fpr_curve(0.5, 10, 0.5, [0.05])
z = (outcome.empirical_fpr - analytic_fpr) / outcome.mc_stderr_fpr
print(f"fpr: empirical {outcome.empirical_fpr:.5f} vs analytic {analytic_fpr:.5f} (z={z:+.2f})")
print(f"power: empirical {outcome.empirical_power:.5f} vs analytic {analytic_power:.5f}")

# p-values under the null are uniform; under the alternative they match the
# analytic distribution function decile by decile.
summary = simulate_pvalues(SimConfig(num_trials=TRIALS, seed=42, prior_null=0.5,
                                     alpha=0.05, effect_size=0.0))
print("null p-value sup-norm distance from uniform:", round(summary.supnorm_vs_reference, 5))
summary = simulate_pvalues(config)
worst = max(abs(e - k / 10.0) * math.sqrt(TRIALS / ((k / 10) * (1 - k / 10)))
            for k, e in enumerate(summary.cdf_at_reference_deciles, start=1))
print("alternative deciles, worst |z|:", round(worst, 2))

# Expected cost at a threshold, by simulation and in closed form.
params = CostParams(cost_type1=1.0, cost_type2=2.0, prior_good=0.5)
estimate = simulate_expected_cost(0.2, params, SimConfig(num_trials=TRIALS, seed=42))
print(f"cost at c=0.2: simulated {estimate.mean_cost:.5f} +/- {estimate.stderr:.5f}, "
      f"analytic {expected_cost(0.2, params):.5f}")

# Determinism: the same seed gives bit-identical tallies, any worker count.
again = simulate_studies(config, workers=4)
print("parallel run identical:", again == simulate_studies(config))
