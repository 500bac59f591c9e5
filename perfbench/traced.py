"""Traced run: the per-layer metrics of one workload.

Two parts. The workload's own operations run untraced and then traced
(twice, so the span counts can be checked to repeat exactly); their spans
give each layer's share of self time, the kernel call counts and the
tracing overhead. Then a fixed set of layer probes, the same in every
workload, times each layer from outside through its public functions:
interpreter start, import, numpy loading per subcommand, the CLI in-process,
the scalar kernels and library functions on the lib_curves slices, and the
simulators on the mc_validate calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import cli_batch
import lib_curves
import mc_validate
from common import OUT, p50, peak_rss_mb, run_child
from spans import LAYERS, Recorder

SUBCOMMANDS = ("tradeoff", "screening", "replication", "cost", "pdist", "analyze", "simulate")
SHARE_LAYERS = ("interp", "import") + LAYERS
# One catalog entry per subcommand for the spawn probes.
FIRST_ENTRY = {"tradeoff": "tradeoff", "screening": "screening_curve",
               "replication": "replication", "cost": "cost_curve", "pdist": "pdist_grid",
               "analyze": "analyze_summary", "simulate": "simulate.0"}
REPS = 3
NUMPY_PROBE = ("import contextlib, io, sys\n"
               "from errstat.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    main(sys.argv[1:])\n"
               "print(int('numpy' in sys.modules))\n")


def _importtime_us(stderr: str, module: str) -> float:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module and parts[2].startswith(" " + module):
            return float(parts[1])
    raise RuntimeError(f"no importtime line for {module}")


# --- layer probes ------------------------------------------------------------


def spawn_probes(m: dict) -> None:
    py = sys.executable
    m["interp.startup_ms"] = (p50(run_child([py, "-c", "pass"])[3] * 1e3
                                  for _ in range(5)), "ms")
    m["import.errstat_ms"] = (p50(_importtime_us(run_child(
        [py, "-X", "importtime", "-c", "import errstat"])[2], "errstat") / 1e3
        for _ in range(5)), "ms")
    for sub in SUBCOMMANDS:
        argv = cli_batch.catalog()[FIRST_ENTRY[sub]]
        code, out, err, _ = run_child([py, "-c", NUMPY_PROBE, *argv])
        if code != 0:
            raise RuntimeError(f"numpy probe for {sub} failed: {err.strip()[-400:]}")
        m[f"import.numpy_loaded.{sub}"] = (int(out.split()[-1]), "count")


def cli_probe(m: dict, cli) -> None:
    cli_batch.write_inputs()
    cat = cli_batch.catalog()
    names = list(cli_batch.README) + ["analyze_csv.0", "simulate.0"]
    parse_us, main_ms, self_ms = [], {s: [] for s in SUBCOMMANDS}, {s: [] for s in SUBCOMMANDS}
    for _ in range(REPS):
        for name in names:
            t0 = time.perf_counter()
            cli.build_parser().parse_args(cat[name])
            parse_us.append((time.perf_counter() - t0) * 1e6)
            t0 = time.perf_counter()
            cli_batch.run_inprocess(cli.main, cat[name])
            main_ms[cat[name][0]].append((time.perf_counter() - t0) * 1e3)
    rec = Recorder()
    rec.install()
    try:
        for rep in range(REPS):
            for op, name in enumerate(names):
                rec.op = op
                cli_batch.run_inprocess(_traced_main, cat[name])
    finally:
        rec.uninstall()
    library = _library_child_ns(rec)
    for i, s in enumerate(rec.spans):
        if s is not None and s[0] == "cli.main":
            self_ms[cat[names[s[5]]][0]].append((s[3] - s[2] - library[i]) / 1e6)
    m["cli.parse_us"] = (p50(parse_us), "us")
    for sub in SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = (p50(main_ms[sub]), "ms")
        m[f"cli.self_ms.{sub}"] = (p50(self_ms[sub]), "ms")


def _traced_main(argv):
    # looked up at call time, so the wrapped cli.main records its span
    return sys.modules["errstat.cli"].main(argv)


def _library_child_ns(rec) -> Counter:
    """Per span, the time its direct children outside the cli layer cover."""
    covered = Counter()
    for s in rec.completed():
        if s[4] >= 0 and s[1] != "cli":
            covered[s[4]] += s[3] - s[2]
    return covered


def lib_probe(m: dict, es, inputs, refs) -> None:
    runner = lib_curves.Pass(es, inputs)
    passes = [runner.run() for _ in range(REPS)]
    report = lib_curves.check(inputs, passes[0][0], refs)
    times = {name: p50(t[name] for _, t in passes) for name in inputs}
    points = {name: sum(lib_curves.points_in(name, pt) for pt in pts)
              for name, pts in inputs.items()}

    def per_point(names):
        return sum(times[n] for n in names) / sum(points[n] for n in names)

    by_fn = {}
    for name in inputs:
        by_fn.setdefault(lib_curves.SLICES[name][0], []).append(name)
    for fn, names in by_fn.items():
        module = lib_curves.MODULE[fn]
        if fn in lib_curves.KERNELS:
            body = [n for n in names if n.endswith(".body")]
            tail = [n for n in names if not n.endswith(".body") and not n.startswith("defect.")]
            m[f"distributions.{fn}.ns_per_call.body"] = (per_point(body), "ns")
            m[f"distributions.{fn}.ns_per_call.tail"] = (per_point(tail), "ns")
            m[f"distributions.max_rel_err.{fn}"] = (max(report[n][2] for n in names), "ratio")
        else:
            m[f"{module}.{fn}.us_per_point"] = (per_point(names) / 1e3, "us")
    rec = Recorder()
    rec.install()
    try:
        runner.run()
    finally:
        rec.uninstall()
    spans = rec.spans
    m["decision_cost.numeric_minimizer.cost_evals"] = (sum(
        1 for s in spans if s is not None and s[0] == "decision_cost.expected_cost"
        and s[4] >= 0 and spans[s[4]][0] == "decision_cost.numeric_minimizer"), "count")


def mc_probe(m: dict, es, inputs) -> dict:
    """Simulator figures from one round; returns the p-value working sets for the record."""
    calls = mc_validate.Calls(es, inputs)
    w = inputs["workers"]
    montecarlo = sys.modules["errstat.montecarlo"]
    chunks = []
    chunk_sizes = getattr(montecarlo, "_chunk_sizes", None)
    if chunk_sizes is not None:
        def counting(total):
            sizes = chunk_sizes(total)
            chunks.append(len(sizes))
            return sizes
        montecarlo._chunk_sizes = counting
    try:
        rnd = mc_validate.run_plan(calls.round_plan())
    finally:
        if chunk_sizes is not None:
            montecarlo._chunk_sizes = chunk_sizes
    for fam in ("simulate_studies", "simulate_expected_cost"):
        t1, tw = rnd[f"{fam}.w1"][1], rnd[f"{fam}.w{w}"][1]
        m[f"montecarlo.{fam}.ms.w1"] = (t1 * 1e3, "ms")
        m[f"montecarlo.{fam}.ms.w2"] = (tw * 1e3, "ms")
        m[f"montecarlo.scaling_eff.{fam}"] = (t1 / (w * tw), "ratio")
        m[f"montecarlo.{fam}.mtrials_per_s"] = (rnd[f"{fam}.w{w}"][2] / tw / 1e6, "Mtrial/s")
    pv = {k: v for k, v in rnd.items() if k.startswith("simulate_pvalues")}
    for label, (_, secs, trials) in pv.items():
        key = label.split(".", 1)[1]
        m[f"montecarlo.simulate_pvalues.ns_per_trial.{key}"] = (secs / trials * 1e9, "ns")
    m["montecarlo.simulate_pvalues.mtrials_per_s"] = (
        sum(v[2] for v in pv.values()) / sum(v[1] for v in pv.values()) / 1e6, "Mtrial/s")
    # chunks planned by the program in one round; -1 once it no longer plans them
    # through montecarlo._chunk_sizes
    m["montecarlo.chunks_per_round"] = (sum(chunks) if chunk_sizes is not None else -1, "count")
    per_trial = mc_validate.peak_bytes_per_trial(es, calls)
    m["montecarlo.simulate_pvalues.peak_bytes_per_trial"] = (per_trial, "B")
    return {"simulate_pvalues_peak_bytes_per_trial": per_trial,
            "simulate_pvalues_working_set_bytes": {
                key: round(cfg.num_trials * per_trial) for key, cfg in calls.pvalue_cfg.items()}}


# --- the workload's own operations -------------------------------------------


def _shares(layer_ns: Counter, op_ns: float, extra: dict) -> dict:
    """Per layer, % of an operation's time spent in that layer's own code."""
    total = op_ns + sum(extra.values())
    shares = {layer: 100.0 * ns / total for layer, ns in layer_ns.items()}
    shares.update({layer: 100.0 * ns / total for layer, ns in extra.items()})
    return {f"{layer}.self_pct": (shares.get(layer, 0.0), "%") for layer in SHARE_LAYERS}


def _traced_ops(ops, run_op, check_op):
    """Runs `ops` untraced, then traced twice; returns the figures of both.

    run_op(op) -> (ns, result); check_op(op, result) -> (attempted, failed).
    """
    run_op(ops[0])  # warm-up, so the untraced figures are not charged with first-call costs
    untraced = [run_op(op) for op in ops]
    rss_before = peak_rss_mb()
    rec = Recorder()
    t0 = time.perf_counter()
    rec.install()
    install_s = time.perf_counter() - t0
    traced = []
    try:
        for rep in range(2):
            for i, op in enumerate(ops):
                rec.op = rep * len(ops) + i
                traced.append(run_op(op))
    finally:
        rec.uninstall()
    counts = [Counter(), Counter()]
    for s in rec.completed():
        counts[s[5] // len(ops)][s[0]] += 1

    def tally(runs):
        checks = [check_op(op, r[1]) for op, r in zip(ops * 2, runs)]
        return sum(c[0] for c in checks), sum(c[1] for c in checks)

    return {
        "rec": rec, "untraced": untraced, "traced": traced,
        "untraced_tally": tally(untraced), "traced_tally": tally(traced),
        "counts": counts[0], "counts_repeat": counts[0] == counts[1],
        "install_s": install_s, "rss_delta_mb": peak_rss_mb() - rss_before,
    }


def run(workload, es, inputs, seed, scale):
    """Per-layer metrics; returns (metrics, attempted, failed, failures, environment)."""
    m = {}
    spawn_probes(m)
    failures = {}
    lib_inputs = inputs if workload == "lib_curves" else lib_curves.make_inputs(seed, scale)
    refs = lib_curves.oracle(lib_inputs)

    if workload == "cli_batch":
        goldens = cli_batch.load_goldens()
        cat = inputs["catalog"]
        ops = inputs["edge"] + inputs["cycles"][0]
        items = len(ops)

        def run_op(name):
            t0 = time.perf_counter_ns()
            result = cli_batch.run_inprocess(_traced_main, cat[name])
            return time.perf_counter_ns() - t0, result

        def check_op(name, result):
            ok, reason = cli_batch.check(name, *result, goldens)
            if not ok:
                failures[name] = reason
            return 1, int(not ok)
    elif workload == "lib_curves":
        runner = lib_curves.Pass(es, inputs)
        ops = list(range(REPS))
        items = REPS * sum(lib_curves.points_in(n, pt) for n, pts in inputs.items() for pt in pts)

        def run_op(_):
            t0 = time.perf_counter_ns()
            outputs, _ = runner.run()
            return time.perf_counter_ns() - t0, outputs

        def check_op(_, outputs):
            report = lib_curves.check(inputs, outputs, refs)
            failures.update(lib_curves.failing_ops(report))
            return sum(v[0] for v in report.values()), sum(v[1] for v in report.values())
    else:
        plan = mc_validate.Calls(es, inputs).round_plan()
        ops = [0]
        items = sum(n for _, n, _ in plan)

        def run_op(_):
            t0 = time.perf_counter_ns()
            results = mc_validate.run_plan(plan)
            return time.perf_counter_ns() - t0, results

        def check_op(_, results):
            bad = {}
            for label, (res, _, _) in results.items():
                bad.update(mc_validate.check_call(inputs, label, res))
            failures.update(bad)
            return len(results), len({name.rsplit(".", 1)[0] for name in bad})

    f = _traced_ops(ops, run_op, check_op)
    rec = f["rec"]
    un_ns = [r[0] for r in f["untraced"]]
    tr_ns = [r[0] for r in f["traced"]]
    if not f["counts_repeat"]:
        failures["trace.counts_repeat"] = "span counts differ between the two traced repeats"

    extra = {}
    if workload == "cli_batch":
        extra = {"interp": m["interp.startup_ms"][0] * 1e6,
                 "import": m["import.errstat_ms"][0] * 1e6}
    per_op = Counter({layer: ns / len(tr_ns) for layer, ns in rec.layer_self_ns().items()})
    m.update(_shares(per_op, sum(tr_ns) / len(tr_ns), extra))
    # per pass on lib_curves (the passes are identical), per cycle of the command
    # mix on cli_batch, per round on mc_validate
    per = len(ops) if workload == "lib_curves" else 1
    for kernel in lib_curves.KERNELS:
        m[f"distributions.calls.{kernel}"] = (f["counts"][f"distributions.{kernel}"] // per,
                                              "count")
    (un_n, un_bad), (tr_n, tr_bad) = f["untraced_tally"], f["traced_tally"]
    m["trace.op_ms"] = (p50(tr_ns) / 1e6, "ms")
    m["trace.overhead.setup_s"] = (f["install_s"], "s")
    m["trace.overhead.op_ms_p50"] = ((p50(tr_ns) - p50(un_ns)) / 1e6, "ms")
    stat = {"cli_batch": cli_batch, "lib_curves": lib_curves,
            "mc_validate": mc_validate}[workload].OP_STAT
    m["trace.overhead.op_ms"] = ((stat(tr_ns) - stat(un_ns)) / 1e6, "ms")
    m["trace.overhead.throughput_per_s"] = (
        2 * items / (sum(tr_ns) / 1e9) - items / (sum(un_ns) / 1e9), "1/s")
    m["trace.overhead.peak_rss_mb"] = (f["rss_delta_mb"], "MB")
    m["trace.overhead.ops_ok_frac"] = ((1 - tr_bad / tr_n) - (1 - un_bad / un_n), "frac")
    rec.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")

    cli_probe(m, sys.modules["errstat.cli"])
    lib_probe(m, es, lib_inputs, refs)
    env = mc_probe(m, es,
                   inputs if workload == "mc_validate" else mc_validate.make_inputs(seed, scale))
    return m, un_n + tr_n, un_bad + tr_bad, failures, env
