"""Command-line interface: figure data as CSV, reports and simulations as JSON.

argparse alone turns command-line text into values, lists and grids
included, so malformed text is a usage error (exit 2). Each handler takes
those values and returns data, a report dict or a (columns, rows) table,
and main alone renders it: CSV at 10 significant digits for a table, or
indented key-sorted JSON, which always carries schema_version 1. Each error
type carries its exit status (errors.py): 2 usage/domain error, 3
infeasible parameters, 4 input-file format error, and 4 for any I/O error;
0 is success. There is no plotting here: the emitted columns are the figures.
simulate is the only command that loads numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence

from . import __version__
from . import decision_cost, error_tradeoff, pvalue_dist, screening, timeseries
from .severity import (
    ClaimDirection,
    ReferenceDist,
    SeverityClaim,
    SummaryStats,
    confidence_lower_limit,
    p_value_from_summary,
    severity_curve,
)
from .severity import severity as severity_value
from .error_tradeoff import Tail
from .errors import DomainError, ErrstatError

SCHEMA_VERSION = 1
DEFAULT_SEED = 42
SEED_ENV_VAR = "ERRSTAT_SEED"
MAX_GRID_COUNT = 1_000_000


def _float_list(text: str) -> list[float]:
    """argparse type for 'a,b,c'; argparse reports the ValueError of bad text as a usage error."""
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _grid(text: str) -> list[float]:
    """argparse type for 'a,b,c' explicit values or 'lo:hi:count' for an inclusive grid."""
    if ":" not in text:
        return _float_list(text)
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if not 1 <= count <= MAX_GRID_COUNT:
        raise ValueError(f"grid count outside 1..{MAX_GRID_COUNT}")
    if count == 1:
        return [lo]
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"the span of grid {text!r} is wider than a float")
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _render(result, fmt: str) -> str:
    """A (columns, rows) table as CSV at 10 significant digits, or else as JSON; a report as JSON.

    Every JSON document is indented, key-sorted and carries schema_version.
    """
    if isinstance(result, tuple):
        columns, rows = result
        if fmt == "csv":
            lines = [",".join(columns)]
            lines.extend(",".join(format(float(v), ".10g") for v in row) for row in rows)
            return "\n".join(lines) + "\n"
        result = {"columns": list(columns), "rows": [[float(v) for v in row] for row in rows]}
    report = {"schema_version": SCHEMA_VERSION, **result}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# --- subcommand handlers: each returns a report dict or a (columns, rows) table


def _cmd_tradeoff(args) -> tuple:
    rows = []
    for delta in args.effect_sizes:
        model = error_tradeoff.GaussianTestModel(effect_size=delta, n=args.n)
        for alpha in args.alphas:
            rows.append((alpha, delta, error_tradeoff.type2_error(alpha, model)))
    return ("alpha", "effect_size", "beta"), rows


def _cmd_screening(args) -> tuple:
    phis = args.phi if args.phi is not None else [screening.PriorOdds(args.odds).prior_null]
    if args.curve:
        alphas = args.alphas
    else:
        if args.alpha is None:
            raise DomainError("either --alpha or --curve with --alphas is required")
        alphas = [args.alpha]
    rows = []
    for phi in phis:
        if args.coupled:
            curve = screening.combined_fpr_curve(args.effect_size, args.n, phi, alphas)
            rows.extend((alpha, beta, phi, fpr) for alpha, beta, fpr in curve)
        else:
            beta = 1.0 - args.power
            for alpha in alphas:
                fpr = screening.false_positive_rate(
                    screening.ScreeningParams(alpha, args.power, phi)
                )
                rows.append((alpha, beta, phi, fpr))
    return ("alpha", "beta", "phi", "fpr"), rows


def _cmd_replication(args) -> dict:
    if args.self_test:
        gamma = 4.0 / 9.0
        factor = screening.replication_threshold_factor(gamma, 2.0)
        back = screening.gamma_for_factor(factor, 2.0)
        ok = abs(factor - 10.0) < 1e-12 and abs(back - gamma) < 1e-12
        return {"mode": "self_test", "gamma": gamma, "n_fold": 2.0, "factor": factor,
                "gamma_round_trip": back, "ok": ok}
    if args.gamma is not None:
        factor = screening.replication_threshold_factor(args.gamma, args.n_fold)
        return {"mode": "factor_from_gamma", "gamma": args.gamma, "n_fold": args.n_fold,
                "threshold_factor": factor}
    gamma = screening.gamma_for_factor(args.factor, args.n_fold)
    return {"mode": "gamma_from_factor", "threshold_factor": args.factor, "n_fold": args.n_fold,
            "gamma": gamma}


def _cmd_cost(args) -> dict | tuple:
    params = decision_cost.CostParams(cost_type1=args.p0, cost_type2=args.p1, prior_good=args.phi,
                                      mu0=args.mu0, mu1=args.mu1, sigma=args.sigma)
    if args.minimize:
        closed = decision_cost.closed_form_minimizer(params)
        numeric = decision_cost.numeric_minimizer(params)
        return {
            "closed_form_minimizer": closed,
            "numeric_minimizer": numeric,
            "gap": abs(closed - numeric),
            "expected_cost_at_minimizer": decision_cost.expected_cost(closed, params),
            "alpha_at_minimizer": decision_cost.alpha_from_critical(closed, params),
            "cost_ratio": params.cost_ratio,
        }
    if args.alpha_map:
        rows = [(a, decision_cost.critical_from_alpha(a, params)) for a in args.alphas]
        return ("alpha", "critical_value"), rows
    # default: cost curve over the critical value
    grid = args.c_grid
    if grid is None:
        lo = min(args.mu0, args.mu1) - 4.0 * args.sigma
        hi = max(args.mu0, args.mu1) + 4.0 * args.sigma
        if not math.isfinite(hi - lo):
            raise DomainError(f"the default critical-value grid, the means -+ 4 sigma, spans "
                              f"{lo!r} to {hi!r}, wider than a float: give it with --c-grid")
        # i * (hi - lo) can overflow where the span does not: past a span of 1 the product
        # is taken at 2**-7 scale, where it rounds as it does unscaled
        e = 7 if hi - lo > 1.0 else 0
        grid = [lo + math.ldexp(i * math.ldexp(hi - lo, -e) / 100.0, e) for i in range(101)]
    rows = [(c, decision_cost.expected_cost(c, params)) for c in grid]
    return ("critical_value", "expected_cost"), rows


def _cmd_pdist(args) -> dict | tuple:
    if args.reproducibility:
        if (args.p_obs is None) == (args.d_obs is None):
            raise DomainError("--reproducibility needs exactly one of --p-obs / --d-obs")
        if args.p_obs is not None:
            observed = pvalue_dist.ObservedResult.from_p_value(args.p_obs)
        else:
            observed = pvalue_dist.ObservedResult.from_statistic(args.d_obs)
        prob = pvalue_dist.reproducibility_probability(observed, args.alpha)
        return {
            "d_observed": observed.d_observed,
            "p_observed_two_sided": observed.p_observed,
            "alpha": args.alpha,
            "reproducibility_probability": prob,
            "convention": "one_sample_two_sided_normal",
        }
    spec = pvalue_dist.AlternativeSpec(delta=args.delta, n=args.n)
    kept = [p for p in args.grid if 0.0 < p < 1.0]
    if len(kept) < len(args.grid):
        print(
            f"warning: dropped {len(args.grid) - len(kept)} grid point(s) at p=0 or p=1 "
            "(density undefined there)",
            file=sys.stderr,
        )
    if not kept:
        raise DomainError("--grid: no usable points between p=0 and p=1")
    rows = [
        (p, pvalue_dist.pdf_under_alternative(p, spec), pvalue_dist.cdf_under_alternative(p, spec))
        for p in kept
    ]
    return ("p", "density", "cdf"), rows


def _cmd_analyze(args) -> dict:
    reference = ReferenceDist(args.reference)
    payload: dict = {}
    if args.csv is not None:
        if args.tau is None:
            raise DomainError("--csv mode requires --tau")
        series = timeseries.read_series_csv(args.csv)
        fit = timeseries.lag_regression(series, args.tau)
        stats = fit.summary_stats()
        t_pairs, p_pairs = timeseries.t_from_correlation(fit.r, fit.n_pairs)
        t_series, p_series = timeseries.t_from_correlation(fit.r, len(series))
        payload["source"] = {"csv": str(args.csv), "tau": args.tau, "length": len(series)}
        payload["fit"] = {name: getattr(fit, name) for name in fit._fields}
        payload["lag_correlation"] = {
            "r": fit.r,
            "pair_count_convention": {"n": fit.n_pairs, "t": t_pairs, "p_two_sided_t": p_pairs},
            "series_length_convention": {"n": len(series), "t": t_series, "p_two_sided_t": p_series},
        }
    else:
        if args.estimate is None or args.stderr is None:
            raise DomainError("provide either --csv with --tau, or --estimate with --stderr")
        stats = SummaryStats(estimate=args.estimate, stderr=args.stderr, n=args.n)
        payload["source"] = {"summary": {"estimate": args.estimate, "stderr": args.stderr, "n": args.n}}

    d = stats.standardized
    p_values = {
        "one_sided_upper_normal": p_value_from_summary(
            stats, Tail.ONE_SIDED_UPPER, ReferenceDist.NORMAL),
        "two_sided_normal": p_value_from_summary(
            stats, Tail.TWO_SIDED, ReferenceDist.NORMAL),
    }
    try:
        df = stats.effective_df()
        p_values["two_sided_student_t"] = p_value_from_summary(
            stats, Tail.TWO_SIDED, ReferenceDist.STUDENT_T)
        payload["df"] = df
    except DomainError:
        p_values["two_sided_student_t"] = None
        payload["df"] = None

    payload["estimate"] = stats.estimate
    payload["stderr"] = stats.stderr
    payload["t_statistic"] = d
    payload["p_values"] = p_values
    payload["confidence_lower_limit"] = {
        "level": args.level,
        "value": confidence_lower_limit(stats, args.level, reference),
        "reference": reference.value,
    }
    if args.claim is not None:
        claim = SeverityClaim(ClaimDirection.GREATER_THAN, args.claim)
        payload["claim"] = {
            "direction": "greater_than",
            "bound": args.claim,
            "severity": severity_value(stats, claim, reference),
            "reference": reference.value,
        }
    if args.claim_grid is not None:
        curve = severity_curve(stats, args.claim_grid, reference)
        payload["severity_curve"] = {
            "direction": "greater_than",
            "reference": reference.value,
            "points": [[b, s] for b, s in curve],
        }
    observed = pvalue_dist.ObservedResult.from_statistic(d)
    payload["replication"] = {
        "alpha": args.alpha,
        "probability": pvalue_dist.reproducibility_probability(observed, args.alpha),
        "convention": "one_sample_two_sided_normal",
    }
    return payload


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _cmd_simulate(args) -> dict:
    seed = _resolve_seed(args)
    config = error_tradeoff.SimConfig(
        num_trials=args.trials,
        seed=seed,
        prior_null=args.phi,
        alpha=args.alpha,
        effect_size=args.delta,
        n_per_study=args.n,
    )
    analytic_power = error_tradeoff.power(args.alpha, config.design)
    # a prior of 0 or 1 leaves the rate undefined; the curve raises where it cannot be computed
    analytic_fpr = (screening.combined_fpr_curve(args.delta, args.n, args.phi, [args.alpha])[0][2]
                    if 0.0 < args.phi < 1.0 else None)
    from . import montecarlo  # the only command that loads numpy, once its formulas are computed

    outcome = montecarlo.simulate_studies(config, workers=args.workers)

    n_null = outcome.false_pos + outcome.true_neg
    empirical_size = outcome.false_pos / n_null if n_null > 0 else None
    size_stderr = math.sqrt(args.alpha * (1.0 - args.alpha) / n_null) if n_null > 0 else None

    def z(emp, ref, stderr):
        if emp is None or ref is None or not stderr:
            return None
        return (emp - ref) / stderr

    return {
        "config": {
            "trials": args.trials,
            "seed": seed,
            "prior_null": args.phi,
            "alpha": args.alpha,
            "effect_size": args.delta,
            "n_per_study": args.n,
            "tail": config.tail.value,
            "workers": args.workers,
        },
        "rng": outcome.rng,
        "counts": {
            "true_pos": outcome.true_pos,
            "false_pos": outcome.false_pos,
            "true_neg": outcome.true_neg,
            "false_neg": outcome.false_neg,
        },
        "empirical": {
            "fpr": outcome.empirical_fpr,
            "power": outcome.empirical_power,
            "type1_rate": empirical_size,
            "mc_stderr_fpr": outcome.mc_stderr_fpr,
        },
        "analytic": {"fpr": analytic_fpr, "power": analytic_power},
        "z_scores": {
            "fpr": z(outcome.empirical_fpr, analytic_fpr, outcome.mc_stderr_fpr),
            "type1_rate": z(empirical_size, args.alpha, size_stderr),
        },
    }


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errstat",
        description="Error-statistics calculations: trade-offs, screening rates, "
                    "costs, p-value laws, severity reports, and seeded simulations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # the shared flags: --output on every command, and --format too on the five table commands
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")
    table = argparse.ArgumentParser(add_help=False, parents=[report])
    table.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("tradeoff", parents=[table],
                        help="type II error versus type I error curves")
    p.add_argument("--effect-sizes", type=_float_list, default="0.2,0.5,0.8",
                   help="comma-separated standardized effect sizes")
    p.add_argument("--n", type=int, default=1, help="observations per test (default 1)")
    p.add_argument("--alphas", type=_grid, default="0.001:0.5:100",
                   help="alpha grid (lo:hi:count or list)")
    p.set_defaults(handler=_cmd_tradeoff)

    p = subs.add_parser("screening", parents=[table],
                        help="false positive rate of the screening model")
    p.add_argument("--alpha", type=float, default=None, help="single significance level")
    p.add_argument("--alphas", type=_grid, default="0.001:0.5:100", help="alpha grid for --curve")
    p.add_argument("--curve", action="store_true", help="sweep the alpha grid")
    power_group = p.add_mutually_exclusive_group(required=True)
    power_group.add_argument("--power", type=float, help="fixed power 1 - beta")
    power_group.add_argument("--coupled", action="store_true",
                             help="derive beta from the trade-off at each alpha")
    prior_group = p.add_mutually_exclusive_group(required=True)
    prior_group.add_argument("--phi", type=_float_list, default=None,
                             help="comma-separated prior probabilities of the null")
    prior_group.add_argument("--odds", type=float, default=None,
                             help="prior odds R = (1-phi)/phi of a true alternative")
    p.add_argument("--effect-size", type=float, default=0.5,
                   help="effect size for --coupled (default 0.5)")
    p.add_argument("--n", type=int, default=1, help="observations per test for --coupled")
    p.set_defaults(handler=_cmd_screening)

    p = subs.add_parser("replication", parents=[report],
                        help="threshold factor <-> true positive rate arithmetic")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--gamma", type=float, help="current true positive rate")
    mode.add_argument("--factor", type=float, help="threshold reduction factor r")
    mode.add_argument("--self-test", action="store_true",
                      help="run the packaged gamma=4/9, n-fold=2 -> r=10 check")
    p.add_argument("--n-fold", type=float, default=2.0,
                   help="requested replication-rate multiple (default 2)")
    p.set_defaults(handler=_cmd_replication)

    p = subs.add_parser("cost", parents=[table],
                        help="expected-cost analysis of the rejection threshold")
    p.add_argument("--p0", type=float, default=1.0, help="cost of a type I error")
    p.add_argument("--p1", type=float, default=1.0, help="cost of a type II error")
    p.add_argument("--phi", type=float, default=0.5, help="prior fraction of good cases")
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--mu1", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--curve", action="store_true", help="emit the cost curve (default)")
    mode.add_argument("--minimize", action="store_true",
                      help="emit closed-form and numeric minimizers with their gap")
    mode.add_argument("--alpha-map", action="store_true",
                      help="emit critical value as a function of alpha")
    p.add_argument("--c-grid", type=_grid, default=None,
                   help="critical-value grid (lo:hi:count or list)")
    p.add_argument("--alphas", type=_grid, default="0.001:0.5:100",
                   help="alpha grid for --alpha-map")
    p.set_defaults(handler=_cmd_cost)

    p = subs.add_parser("pdist", parents=[table], help="p-value density/CDF under an alternative")
    p.add_argument("--delta", type=float, default=0.5, help="standardized effect size")
    p.add_argument("--n", type=int, default=1, help="observations per test")
    p.add_argument("--grid", type=_grid, default="0.005:0.995:100",
                   help="p grid (lo:hi:count or list)")
    p.add_argument("--reproducibility", action="store_true",
                   help="emit the replication probability instead of a grid")
    p.add_argument("--p-obs", type=float, default=None, help="observed two-sided p-value")
    p.add_argument("--d-obs", type=float, default=None, help="observed test statistic")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="significance level for --reproducibility")
    p.set_defaults(handler=_cmd_pdist)

    p = subs.add_parser("analyze", parents=[report],
                        help="inference report from a series CSV or summary statistics")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--csv", default=None, metavar="PATH", help="label,value series file")
    source.add_argument("--estimate", type=float, default=None, help="point estimate")
    p.add_argument("--tau", type=int, default=None, help="lag for --csv mode")
    p.add_argument("--stderr", type=float, default=None, help="standard error of the estimate")
    p.add_argument("--n", type=int, default=None, help="observation count behind the summary")
    p.add_argument("--claim", type=float, default=None,
                   help="bound for the claim 'parameter > bound'")
    p.add_argument("--claim-grid", type=_grid, default=None,
                   help="bounds grid for a severity curve (lo:hi:count or list)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="level for the replication probability (default 0.05)")
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level for the lower limit (default 0.95)")
    p.add_argument("--reference", choices=("normal", "student_t"), default="normal",
                   help="reference distribution for severity and the limit")
    p.set_defaults(handler=_cmd_analyze)

    p = subs.add_parser("simulate", parents=[report],
                        help="simulate studies and compare with the formulas")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--phi", type=float, default=0.5, help="prior probability of the null")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.5, help="effect size under the alternative")
    p.add_argument("--n", type=int, default=1, help="observations per study")
    p.add_argument("--workers", type=int, default=1,
                   help="chunk workers; results are identical for any value")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the report commands have no --format: they always print JSON
        text = _render(args.handler(args), getattr(args, "format", "json"))
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (ErrstatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)
    return 0
