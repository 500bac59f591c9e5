"""Alternating parent/change pairs of the benchmark, summarized into one JSON file.

Usage (from the root of a checkout; PARENT is a second checkout of the parent commit):

  python3 tools/bench_pairs.py --parent PARENT --change . --out BENCH_pairs.json

Both trees get current bytecode first (compileall with bytecode writing on), so
neither arm compiles modules inside a timed process. For each of SEEDS and
PAIRS pairs, every workload runs once in each tree, the tree that goes first
alternating from pair to pair; each run is `perfbench/run.py --workload W
--seed S --seconds T --trace 0` in that tree. The workloads, T (run_seconds)
and the gated end-to-end metrics with their directions come from the change's
BENCHMARK.json. The output holds, per seed, workload and
tree, the median and quartiles of the gated metrics and every raw value,
the share of pairs the change won on each metric, and the minor page faults and
the growth of the peak RSS (ru_maxrss) of each simulator call in a fresh process
of each tree (first and second call).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

PAIRS = 10
SEEDS = (1, 2)

# Run in a fresh interpreter of one tree: the minor faults of each simulator call and
# how far it raised the process's peak RSS (ru_maxrss, KiB on Linux), the first and the
# second time it is made in the process, after one-trial calls have loaded the modules
# the simulators import. The peak only rises, so a call that stays under the peak of the
# calls before it reads 0.
FAULTS_PROBE = r"""
import json, resource, sys
sys.path.insert(0, "src")
import errstat as es
es.simulate_studies(es.SimConfig(1, 1), 2)
es.simulate_pvalues(es.SimConfig(1, 1), 2)

def probe(thunk):
    before = resource.getrusage(resource.RUSAGE_SELF)
    thunk()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"minor_faults": after.ru_minflt - before.ru_minflt,
            "maxrss_growth_kib": after.ru_maxrss - before.ru_maxrss}

calls = {}
for workers in (1, 2):
    calls[f"simulate_studies.2^23.w{workers}"] = lambda w=workers: es.simulate_studies(
        es.SimConfig(1 << 23, 11, prior_null=0.4, effect_size=0.5, n_per_study=4), w)
    calls[f"simulate_expected_cost.2^23.w{workers}"] = lambda w=workers: es.simulate_expected_cost(
        0.4, es.CostParams(1.0, 2.0, 0.5, mu1=1.0), es.SimConfig(1 << 23, 12), w)
for log2 in (20, 22):
    calls[f"simulate_pvalues.2^{log2}.w2"] = lambda t=1 << log2: es.simulate_pvalues(
        es.SimConfig(t, 13, effect_size=0.4, n_per_study=3, tail="two_sided"), 2)
print(json.dumps({label: [probe(thunk), probe(thunk)] for label, thunk in calls.items()}))
"""


def compile_tree(tree: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for sub in ("src", "perfbench"):
        subprocess.run([sys.executable, "-m", "compileall", "-q", sub], cwd=tree, env=env,
                       check=True, stdout=subprocess.DEVNULL)


def run(tree: Path, workload: str, seed: int, seconds: float, metrics: dict) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                          str(seed), "--seconds", str(seconds), "--trace", "0"], cwd=tree,
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in metrics} | {
        "correct": result["correct"]}


def quartiles(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds, workloads = spec["run_seconds"], [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for tree in trees.values():
        compile_tree(tree)
    raw = {seed: {w: {arm: [] for arm in trees} for w in workloads} for seed in SEEDS}
    for seed in SEEDS:
        for pair in range(PAIRS):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for workload in workloads:
                for arm in order:
                    raw[seed][workload][arm].append(run(trees[arm], workload, seed, seconds,
                                                        metrics))
                print(f"seed {seed} pair {pair} {workload}: " + ", ".join(
                    f"{arm} op_ms {raw[seed][workload][arm][-1]['op_ms']:.1f}" for arm in trees),
                      file=sys.stderr, flush=True)
    summary = {}
    for seed, by_workload in raw.items():
        for workload, arms in by_workload.items():
            entry = {arm: {name: quartiles([r[name] for r in runs]) for name in metrics}
                     | {"correct": all(r["correct"] for r in runs)} for arm, runs in arms.items()}
            wins = {}
            for name, better in metrics.items():
                pairs = list(zip(arms["parent"], arms["change"]))
                won = sum((c[name] < p[name]) if better == "lower" else (c[name] > p[name])
                          for p, c in pairs)
                wins[name] = won / len(pairs)
            entry["change_wins"] = wins
            summary[f"seed{seed}.{workload}"] = entry
    faults = {arm: json.loads(subprocess.run([sys.executable, "-c", FAULTS_PROBE], cwd=tree,
                                             check=True, capture_output=True,
                                             text=True).stdout)
              for arm, tree in trees.items()}
    record = {
        "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": seconds, "pairs": PAIRS, "seeds": list(SEEDS),
        "order": "alternating: the parent first in even pairs, the change first in odd ones",
        "bytecode": "both trees compiled with compileall, bytecode writing on, before the runs",
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        # what numpy.show_runtime() reports: the SIMD extensions numpy's build
                        # assumes, and those it dispatches to on this CPU
                        "numpy_simd": {"baseline": list(__cpu_baseline__),
                                       "found": [f for f in __cpu_dispatch__
                                                 if __cpu_features__[f]]},
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "platform": platform.platform()},
        "workloads": summary,
        "per_call_in_a_fresh_process": faults,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
