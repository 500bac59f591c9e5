"""errstat: error-statistics calculations with a Monte Carlo cross-check.

Covers the alpha/beta trade-off of Gaussian tests, the diagnostic-screening
false positive rate and its sensitivities, expected-cost threshold choice,
p-value distributions under an alternative, severity and confidence-limit
duality, lag regression for short series, and seeded simulation of all of
the above. See the demos/ directory of the repository for worked tours and
the `errstat` command line for CSV/JSON output.

The simulators are the only numpy users: their module is imported when one
of its names is first read, so `import errstat` does not load numpy.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    ".distributions": ("normal_pdf", "normal_cdf", "normal_quantile", "student_t_cdf",
                       "student_t_quantile"),
    ".error_tradeoff": ("Tail", "GaussianTestModel", "SimConfig", "type2_error", "power",
                        "required_sample_size"),
    ".screening": ("ScreeningParams", "PriorOdds", "false_positive_rate",
                   "false_positive_rate_odds", "fpr_gradient", "combined_fpr_curve",
                   "replication_threshold_factor", "gamma_for_factor"),
    ".decision_cost": ("CostParams", "CostTrend", "expected_cost", "cost_derivative",
                       "closed_form_minimizer", "numeric_minimizer", "cost_monotonicity_region",
                       "alpha_from_critical", "critical_from_alpha"),
    ".pvalue_dist": ("AlternativeSpec", "ObservedResult", "pdf_under_alternative",
                     "cdf_under_alternative", "quantile_under_alternative",
                     "reproducibility_probability"),
    ".severity": ("ReferenceDist", "ClaimDirection", "SummaryStats", "SeverityClaim", "severity",
                  "severity_curve", "confidence_lower_limit", "p_value_from_summary"),
    ".timeseries": ("Series", "LagFit", "read_series_csv", "lag_regression", "autocorrelation",
                    "t_from_correlation"),
    ".montecarlo": ("SimOutcome", "PValueSimSummary", "CostSimEstimate",
                    "simulate_studies", "simulate_pvalues", "simulate_expected_cost",
                    "CHUNK_SIZE", "RNG_ALGORITHM"),
    ".errors": ("ErrstatError", "DomainError", "InfeasibleParameterError", "DegenerateDataError",
                "CsvFormatError"),
}
_LAZY = ".montecarlo"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

# Every module is imported before any name is bound: importing a submodule binds it on
# the package, and the module errstat.severity would otherwise replace the function.
globals().update({name: getattr(importlib.import_module(module, __name__), name)
                  for module, names in _EXPORTS.items() if module != _LAZY for name in names})


def __getattr__(name: str):
    # Not stored in the package globals, so a caller that rebinds a montecarlo name
    # (a tracer wrapping the simulators) is seen here too.
    if name in _EXPORTS[_LAZY]:
        return getattr(importlib.import_module(_LAZY, __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
