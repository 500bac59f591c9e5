import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from errstat import (
    CostParams,
    GaussianTestModel,
    ScreeningParams,
    Series,
    closed_form_minimizer,
    combined_fpr_curve,
    expected_cost,
    false_positive_rate,
    lag_regression,
    type2_error,
)
from errstat import cli
from errstat.errors import ErrstatError

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src"


def run_cli(*args, env_extra=None, expect_code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("ERRSTAT_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "errstat", *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == expect_code, (
        f"exit {proc.returncode} (wanted {expect_code}); stderr: {proc.stderr}"
    )
    return proc


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_version_flag_is_stable():
    a = run_cli("--version").stdout
    b = run_cli("--version").stdout
    assert a == b
    assert "errstat" in a


def test_tradeoff_rows_match_library():
    proc = run_cli("tradeoff", "--effect-sizes", "0,0.5", "--n", "10",
                   "--alphas", "0.01,0.05,0.2")
    header, rows = parse_csv(proc.stdout)
    assert header == ["alpha", "effect_size", "beta"]
    assert len(rows) == 6
    for alpha, delta, beta in rows:
        expected = type2_error(alpha, GaussianTestModel(delta, 10))
        assert beta == pytest.approx(expected, rel=1e-9)
    # the null column is 1 - alpha
    for alpha, delta, beta in rows[:3]:
        assert delta == 0.0
        assert beta == pytest.approx(1.0 - alpha, abs=1e-9)


def test_tradeoff_beta_decreasing_along_alpha_grid():
    proc = run_cli("tradeoff", "--effect-sizes", "0.5", "--alphas", "0.001:0.5:50")
    _, rows = parse_csv(proc.stdout)
    betas = [row[2] for row in rows]
    assert all(a > b for a, b in zip(betas, betas[1:]))


def test_tradeoff_json_format_matches_csv():
    csv_rows = parse_csv(run_cli(
        "tradeoff", "--effect-sizes", "0.5", "--alphas", "0.01,0.05").stdout)[1]
    payload = json.loads(run_cli(
        "tradeoff", "--effect-sizes", "0.5", "--alphas", "0.01,0.05",
        "--format", "json").stdout)
    assert payload["schema_version"] == 1
    assert payload["columns"] == ["alpha", "effect_size", "beta"]
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert csv_row == pytest.approx(json_row, rel=1e-9)


def test_screening_fixed_power_rows():
    proc = run_cli("screening", "--alpha", "0.05", "--power", "0.8",
                   "--phi", "0.5,0.9090909090909091")
    _, rows = parse_csv(proc.stdout)
    for alpha, beta, phi, fpr in rows:
        assert beta == pytest.approx(0.2, abs=1e-9)
        expected = false_positive_rate(ScreeningParams(alpha, 0.8, phi))
        assert fpr == pytest.approx(expected, rel=1e-9)
    assert rows[0][3] == pytest.approx(1.0 / 17.0, rel=1e-9)
    assert rows[1][3] == pytest.approx(0.05 / 0.13, rel=1e-6)


def test_screening_odds_form():
    proc = run_cli("screening", "--alpha", "0.05", "--power", "0.8", "--odds", "0.1")
    _, rows = parse_csv(proc.stdout)
    assert rows[0][2] == pytest.approx(10.0 / 11.0, rel=1e-9)
    assert rows[0][3] == pytest.approx(0.05 / 0.13, rel=1e-9)


def test_screening_coupled_curve_matches_library():
    proc = run_cli("screening", "--coupled", "--effect-size", "0.5", "--n", "10",
                   "--phi", "0.2", "--curve", "--alphas", "0.01:0.3:10")
    _, rows = parse_csv(proc.stdout)
    alphas = [row[0] for row in rows]
    expected = combined_fpr_curve(0.5, 10, 0.2, alphas)
    for row, (alpha, beta, fpr) in zip(rows, expected):
        assert row[1] == pytest.approx(beta, rel=1e-9)
        assert row[3] == pytest.approx(fpr, rel=1e-9)
    fprs = [row[3] for row in rows]
    assert all(a < b for a, b in zip(fprs, fprs[1:]))


def test_screening_coupled_curve_prints_a_power_of_1():
    proc = run_cli("screening", "--coupled", "--effect-size", "10", "--n", "100",
                   "--alpha", "0.05", "--phi", "0.5")
    assert proc.stdout.splitlines()[1] == "0.05,0,0.5,0.04761904762"


def test_screening_rejects_bad_phi():
    proc = run_cli("screening", "--alpha", "0.05", "--power", "0.8",
                   "--phi", "1.5", expect_code=2)
    assert "error" in proc.stderr


def test_replication_factor_and_inverse():
    payload = json.loads(run_cli("replication", "--gamma", str(4.0 / 9.0),
                                 "--n-fold", "2").stdout)
    assert payload["threshold_factor"] == pytest.approx(10.0, abs=1e-9)
    payload = json.loads(run_cli("replication", "--factor", "10",
                                 "--n-fold", "5").stdout)
    assert payload["gamma"] == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_replication_self_test_passes():
    payload = json.loads(run_cli("replication", "--self-test").stdout)
    assert payload["ok"] is True
    assert payload["factor"] == pytest.approx(10.0, abs=1e-12)


def test_replication_infeasible_exit_code():
    proc = run_cli("replication", "--gamma", "0.6", "--n-fold", "2", expect_code=3)
    assert "error" in proc.stderr


def test_cost_minimize_symmetric_and_ratio_two():
    payload = json.loads(run_cli("cost", "--minimize").stdout)
    assert payload["closed_form_minimizer"] == 0.5
    assert abs(payload["gap"]) < 1e-6
    payload = json.loads(run_cli("cost", "--p1", "2", "--minimize").stdout)
    assert payload["closed_form_minimizer"] == pytest.approx(0.5 - math.log(2.0), abs=1e-12)
    assert abs(payload["closed_form_minimizer"] - payload["numeric_minimizer"]) < 1e-6


def test_cost_minimize_at_a_huge_sigma():
    proc = run_cli("cost", "--sigma", "1e200", "--minimize")
    assert json.loads(proc.stdout)["closed_form_minimizer"] == 0.5
    assert "Traceback" not in proc.stderr


def test_cost_minimizer_sweep_decreases_with_ratio():
    minimizers = []
    for psi in ("0.5", "1", "2", "5", "10"):
        payload = json.loads(run_cli("cost", "--p1", psi, "--minimize").stdout)
        minimizers.append(payload["closed_form_minimizer"])
    assert all(a > b for a, b in zip(minimizers, minimizers[1:]))


def test_cost_curve_rows_match_library():
    proc = run_cli("cost", "--curve", "--c-grid=-1:2:7", "--phi", "0.4")
    _, rows = parse_csv(proc.stdout)
    params = CostParams(1.0, 1.0, 0.4)
    for c, cost in rows:
        assert cost == pytest.approx(expected_cost(c, params), rel=1e-9)


def test_cost_alpha_map_round_trip():
    proc = run_cli("cost", "--alpha-map", "--alphas", "0.05,0.1,0.5")
    _, rows = parse_csv(proc.stdout)
    assert rows[2][1] == pytest.approx(0.0, abs=1e-9)
    assert rows[0][1] == pytest.approx(1.6448536269514722, abs=1e-6)


def test_cost_minimize_rejects_bad_means():
    run_cli("cost", "--minimize", "--mu0", "2", "--mu1", "1", expect_code=2)


def test_pdist_uniform_under_null():
    proc = run_cli("pdist", "--delta", "0", "--grid", "0.1:0.9:9")
    _, rows = parse_csv(proc.stdout)
    for p, density, cdf in rows:
        assert density == 1.0
        assert cdf == pytest.approx(p, abs=1e-9)


def test_pdist_trims_boundary_points_with_warning():
    proc = run_cli("pdist", "--grid", "0:1:5")
    assert "warning" in proc.stderr
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 3
    assert all(0.0 < row[0] < 1.0 for row in rows)


def test_pdist_cdf_matches_simulated_deciles():
    from errstat import SimConfig, simulate_pvalues
    config = SimConfig(num_trials=200_000, seed=31, prior_null=0.5, alpha=0.05,
                       effect_size=0.5, n_per_study=10)
    summary = simulate_pvalues(config)
    grid = ",".join(repr(d) for d in summary.deciles)
    proc = run_cli("pdist", "--delta", "0.5", "--n", "10", "--grid", grid)
    _, rows = parse_csv(proc.stdout)
    for k, (_, _, cdf) in enumerate(rows, start=1):
        q = k / 10.0
        assert abs(cdf - q) < 3.0 * math.sqrt(q * (1.0 - q) / config.num_trials)


def test_pdist_reproducibility_scalar():
    payload = json.loads(run_cli("pdist", "--reproducibility", "--d-obs", "3.496",
                                 "--alpha", "0.05").stdout)
    assert payload["reproducibility_probability"] == pytest.approx(0.938, abs=1e-3)
    payload = json.loads(run_cli("pdist", "--reproducibility", "--p-obs", "0.05",
                                 "--alpha", "0.05").stdout)
    assert payload["reproducibility_probability"] == pytest.approx(0.5000442877, abs=1e-6)


def test_analyze_reference_report():
    payload = json.loads(run_cli(
        "analyze", "--estimate", "0.5782", "--stderr", "0.1654", "--n", "15",
        "--claim", "0.30529", "--alpha", "0.05").stdout)
    assert payload["schema_version"] == 1
    assert payload["p_values"]["one_sided_upper_normal"] == pytest.approx(2.37e-4, abs=2e-6)
    assert payload["claim"]["severity"] == pytest.approx(0.95, abs=1e-3)
    assert payload["replication"]["probability"] == pytest.approx(0.938, abs=1e-3)
    assert payload["confidence_lower_limit"]["value"] == pytest.approx(0.30529, abs=2.5e-3)
    assert payload["df"] == 13
    assert payload["p_values"]["two_sided_student_t"] == pytest.approx(3.946e-3, abs=1e-5)


def test_analyze_claim_grid_emits_severity_curve():
    payload = json.loads(run_cli(
        "analyze", "--estimate", "0.5782", "--stderr", "0.1654",
        "--claim-grid", "0.2:0.6:5").stdout)
    points = payload["severity_curve"]["points"]
    assert len(points) == 5
    values = [s for _, s in points]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_analyze_null_estimate():
    payload = json.loads(run_cli(
        "analyze", "--estimate", "0", "--stderr", "1", "--claim", "0").stdout)
    assert payload["p_values"]["one_sided_upper_normal"] == 0.5
    assert payload["claim"]["severity"] == 0.5


def test_analyze_csv_end_to_end(tmp_path):
    rng = random.Random(99)
    values = [rng.gauss(0.0, 1.0)]
    for _ in range(23):
        values.append(0.6 * values[-1] + rng.gauss(0.0, 0.7))
    path = tmp_path / "series.csv"
    lines = ["label,value"] + [f"{2000 + i},{v!r}" for i, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    payload = json.loads(run_cli("analyze", "--csv", str(path), "--tau", "1").stdout)
    fit = lag_regression(Series.from_values(values, start_label=2000), tau=1)
    assert payload["fit"]["beta1"] == pytest.approx(fit.beta1, rel=1e-12)
    assert payload["fit"]["stderr_beta1"] == pytest.approx(fit.stderr_beta1, rel=1e-12)
    assert payload["estimate"] == pytest.approx(fit.beta1, rel=1e-12)
    assert payload["lag_correlation"]["pair_count_convention"]["n"] == fit.n_pairs
    assert payload["lag_correlation"]["series_length_convention"]["n"] == len(values)


def test_analyze_missing_file_is_io_error():
    proc = run_cli("analyze", "--csv", "/nonexistent/nowhere.csv", "--tau", "1",
                   expect_code=4)
    assert "error" in proc.stderr


def test_analyze_bad_csv_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,value\n2001,0.1\n2002,oops\n2003,0.3\n", encoding="utf-8")
    proc = run_cli("analyze", "--csv", str(path), "--tau", "1", expect_code=4)
    assert "line 3" in proc.stderr


def test_analyze_non_utf8_csv_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"label,value\n2001,0.1\n2002,\xff0.2\n2003,0.3\n")
    proc = run_cli("analyze", "--csv", str(path), "--tau", "1", expect_code=4)
    assert "line 3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_bare_errstat_error_exits_2(monkeypatch, capsys):
    def fail(args):
        raise ErrstatError("no subtype")

    monkeypatch.setattr(cli, "_cmd_replication", fail)
    assert cli.main(["replication", "--self-test"]) == 2
    assert capsys.readouterr().err == "error: no subtype\n"


def test_every_error_type_carries_an_exit_status():
    kinds, pending = [], [ErrstatError]
    while pending:
        kinds.append(pending.pop())
        pending.extend(kinds[-1].__subclasses__())
    assert len(kinds) >= 5
    assert all(kind.exit_code in (2, 3, 4) for kind in kinds), kinds


def test_analyze_degenerate_series_surfaces_error(tmp_path):
    path = tmp_path / "flat.csv"
    rows = ["label,value"] + [f"{2001 + i},0.25" for i in range(12)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    proc = run_cli("analyze", "--csv", str(path), "--tau", "1", expect_code=2)
    assert "variance" in proc.stderr


def test_simulate_runs_are_byte_identical():
    args = ("simulate", "--trials", "100000", "--seed", "42", "--phi", "0.5",
            "--alpha", "0.05", "--delta", "0.5", "--n", "10")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    parallel = run_cli(*args, "--workers", "4").stdout
    # worker count is echoed in the config block; strip it before comparing
    a = json.loads(first)
    b = json.loads(parallel)
    a["config"].pop("workers")
    b["config"].pop("workers")
    assert a == b


def test_simulate_seed_env_override_and_flag_priority():
    base = json.loads(run_cli("simulate", "--trials", "20000").stdout)
    assert base["config"]["seed"] == 42
    via_env = json.loads(run_cli("simulate", "--trials", "20000",
                                 env_extra={"ERRSTAT_SEED": "7"}).stdout)
    assert via_env["config"]["seed"] == 7
    flag_wins = json.loads(run_cli("simulate", "--trials", "20000", "--seed", "3",
                                   env_extra={"ERRSTAT_SEED": "7"}).stdout)
    assert flag_wins["config"]["seed"] == 3


def test_simulate_zscores_are_sane():
    payload = json.loads(run_cli("simulate", "--trials", "200000", "--seed", "42").stdout)
    assert abs(payload["z_scores"]["fpr"]) < 4.0
    assert abs(payload["z_scores"]["type1_rate"]) < 4.0
    counts = payload["counts"]
    assert sum(counts.values()) == 200000


def test_simulate_rejects_bad_trials():
    run_cli("simulate", "--trials", "0", expect_code=2)


def test_csv_output_is_byte_stable():
    args = ("screening", "--coupled", "--effect-size", "0.5", "--n", "10",
            "--phi", "0.2,0.5,0.8", "--curve", "--alphas", "0.001:0.3:40")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_usage_errors_exit_two():
    run_cli("tradeoff", "--no-such-flag", expect_code=2)
    run_cli("nonexistent-command", expect_code=2)
    run_cli("tradeoff", "--alphas", "", expect_code=2)


def test_workers_below_one_exit_two():
    run_cli("simulate", "--trials", "1000", "--workers", "0", expect_code=2)


def test_output_file_writing(tmp_path):
    out = tmp_path / "curve.csv"
    run_cli("tradeoff", "--effect-sizes", "0.5", "--alphas", "0.01,0.05",
            "--output", str(out))
    header, rows = parse_csv(out.read_text(encoding="utf-8"))
    assert header == ["alpha", "effect_size", "beta"]
    assert len(rows) == 2


def test_output_to_unwritable_path_is_io_error(tmp_path):
    run_cli("tradeoff", "--effect-sizes", "0.5", "--alphas", "0.01",
            "--output", str(tmp_path / "missing_dir" / "x.csv"), expect_code=4)


def main_exit(argv, capsys):
    """(exit status, stderr) of cli.main in this process; argparse's usage errors exit too."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


LIST_AND_GRID_OPTIONS = [
    ["tradeoff", "--effect-sizes"],
    ["tradeoff", "--alphas"],
    ["screening", "--power", "0.8", "--phi", "0.5", "--curve", "--alphas"],
    ["screening", "--power", "0.8", "--alpha", "0.05", "--phi"],
    ["cost", "--alpha-map", "--alphas"],
    ["cost", "--c-grid"],
    ["pdist", "--grid"],
    ["analyze", "--estimate", "1", "--stderr", "1", "--claim-grid"],
]


@pytest.mark.parametrize("text", ["", "0:1", "1:2:0", "a,b"])
@pytest.mark.parametrize("prefix", LIST_AND_GRID_OPTIONS, ids=lambda p: f"{p[0]}{p[-1]}")
def test_malformed_list_or_grid_is_a_usage_error(prefix, text, capsys):
    code, err = main_exit([*prefix, text], capsys)
    assert code == 2
    assert f"argument {prefix[-1]}: " in err and repr(text) in err, err
    assert "Traceback" not in err


def test_default_grids_reach_handlers_as_values():
    alphas = cli.build_parser().parse_args(["tradeoff"]).alphas
    assert type(alphas) is list and len(alphas) == 100
    assert all(type(a) is float for a in alphas)
    assert alphas[0] == 0.001 and alphas[-1] == pytest.approx(0.5, rel=1e-15)


def test_analyze_csv_and_estimate_are_exclusive(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("label,value\n1,0.1\n2,0.2\n", encoding="utf-8")
    code, err = main_exit(["analyze", "--csv", str(path), "--estimate", "1", "--stderr", "1"],
                          capsys)
    assert code == 2 and "not allowed with argument" in err, err


HUGE = str(10 ** 400)


@pytest.mark.parametrize("argv, name", [
    (["tradeoff", "--n", HUGE], "n"),
    (["simulate", "--trials", "10", "--n", HUGE], "n_per_study"),
    (["analyze", "--estimate", "1", "--stderr", "1", "--n", HUGE], "n"),
    (["screening", "--coupled", "--curve", "--alphas", "0.05", "--n", HUGE, "--phi", "0.5"], "n"),
    (["simulate", "--trials", str(10 ** 17)], "num_trials"),
    (["simulate", "--trials", str(10 ** 30)], "num_trials"),
], ids=["tradeoff", "simulate_n", "analyze", "screening", "trials_1e17", "trials_1e30"])
def test_huge_integers_are_domain_errors(argv, name, capsys):
    code, err = main_exit(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: {name} must be an integer <= 9007199254740992, got "), err


@pytest.mark.parametrize("argv, name", [
    (["analyze", "--estimate", "1e308", "--stderr", "5e-324"], "estimate / stderr"),
    (["cost", "--minimize", "--sigma", "5e-324"], "sigma"),
    (["cost", "--minimize", "--sigma", "1e308"], "sigma"),
    (["tradeoff", "--n", "9007199254740992", "--effect-sizes", "1e301"], "effect_size"),
], ids=["analyze", "cost_tiny_sigma", "cost_huge_sigma", "tradeoff"])
def test_overflow_messages_name_the_input(argv, name, capsys):
    code, err = main_exit(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and name in err and "finite" in err, err


@pytest.mark.parametrize("delta, n, analytic_power", [("10", "1", 1.0), ("5", "10", 1.0),
                                                      ("-40", "1", 0.0)])
def test_simulate_has_no_analytic_fpr_where_power_rounds_to_0_or_1(delta, n, analytic_power,
                                                                  capsys):
    code = cli.main(["simulate", "--trials", "1000", "--delta", delta, "--n", n])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["analytic"]["power"] == analytic_power
    assert payload["analytic"]["fpr"] is None and payload["z_scores"]["fpr"] is None


@pytest.mark.parametrize("argv", [
    ["screening", "--alpha", "5e-324", "--power", "5e-324", "--phi", "0.5"],
    ["cost", "--p0", "5e-324", "--p1", "5e-324", "--minimize"],
    ["cost", "--p0", "1e-200", "--p1", "1e-200", "--phi", "1e-200", "--minimize"],
    ["cost", "--p0", "1e300", "--p1", "1e-300", "--minimize"],
], ids=["screening_subnormal", "cost_subnormal", "cost_tiny", "cost_ratio_underflow"])
def test_extreme_accepted_inputs_exit_without_a_traceback(argv, capsys):
    code, err = main_exit(argv, capsys)
    assert code in (0, 2) and "Traceback" not in err, err


@pytest.mark.parametrize("argv", [
    ["pdist", "--delta", "38.3", "--grid", "1e-320,0.5", "--format", "json"],
    ["cost", "--alpha-map", "--sigma", "1e308", "--mu0", "1e308", "--alphas", "0.5,1e-300"],
    ["analyze", "--estimate", "0", "--stderr", "1.7e308", "--level", "1e-300"],
    ["cost", "--minimize", "--p0", "1e-300", "--p1", "1e308"],
], ids=["pdist_density", "cost_critical_value", "analyze_lower_limit", "cost_ratio"])
def test_results_beyond_the_float_range_exit_2(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and "must be finite, got inf" in err, err
    assert "inf" not in out.lower(), out


_NUMPY_PROBE = """
import contextlib, io, sys
import errstat
errstat.SimConfig(num_trials=10, seed=1)
code = 0
if sys.argv[1:]:
    from errstat.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv, code, loads_numpy", [
    ([], 0, False),
    (["tradeoff", "--effect-sizes", "0.2,0.5,0.8", "--alphas", "0.001:0.5:100"], 0, False),
    (["screening", "--alpha", "0.05", "--power", "0.8", "--odds", "0.1"], 0, False),
    (["replication", "--self-test"], 0, False),
    (["cost", "--p1", "2", "--minimize"], 0, False),
    (["pdist", "--delta", "0.5", "--n", "10", "--grid", "0.005:0.995:100"], 0, False),
    (["analyze", "--estimate", "0.5782", "--stderr", "0.1654", "--n", "15",
      "--reference", "student_t", "--claim-grid", "0:1:21"], 0, False),
    (["simulate", "--trials", "1000"], 0, True),
    (["simulate", "--trials", "0"], 2, False),
], ids=["import", "tradeoff", "screening", "replication", "cost", "pdist", "analyze",
        "simulate", "simulate-invalid"])
def test_only_simulate_loads_numpy(argv, code, loads_numpy):
    # a SimConfig is built, and a simulate config rejected, without loading numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("ERRSTAT_SEED", None)
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(code), str(loads_numpy)]


def test_grid_counts_stop_at_a_million(capsys):
    assert len(cli._grid(f"0:1:{cli.MAX_GRID_COUNT}")) == cli.MAX_GRID_COUNT == 1_000_000
    code, err = main_exit(["tradeoff", "--alphas", "0:1:1000001"], capsys)
    assert code == 2 and "argument --alphas: " in err and "0:1:1000001" in err, err
