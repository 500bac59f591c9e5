"""errstat benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of a checkout (the program is read from src/):

  python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --smoke            # every workload at minimal size
  python3 perfbench/run.py --record-goldens   # rewrite perfbench/goldens.json

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced pass and the layer probes and prints the per-layer metrics. The
last line of stdout is one JSON object {correct, attempted, failed, metrics}.
Details (environment, every failing operation by name) go to stderr and to
perfbench/out/<workload>-seed<seed>-trace<trace>.json. See RATIONALE.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import cli_batch
import lib_curves
import mc_validate
import traced
from common import (BENCH_DIR, OUT, ROOT, SRC, environment, import_errstat, p50, p90, run_child,
                    write_json)

WORKLOADS = {"cli_batch": cli_batch, "lib_curves": lib_curves, "mc_validate": mc_validate}
SETUP_REPEATS = 9


def prepare(workload, seed, scale):
    """Imports errstat and builds the workload's inputs: the set-up being timed."""
    es = import_errstat()
    import errstat.cli  # noqa: F401  (the CLI layer is traced and probed too)
    module = WORKLOADS[workload]
    inputs = module.make_inputs(seed, scale)
    if workload == "cli_batch":
        module.write_inputs()
    elif workload == "lib_curves":
        module.Pass(es, inputs)
    else:
        module.Calls(es, inputs)
    return es, inputs


def measure_setup(workload, seed, scale, repeats) -> list:
    """Wall times of `repeats` fresh interpreters that run `prepare` and exit."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale)]
    times = []
    for _ in range(repeats):
        code, _, err, wall = run_child(argv)
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-400:]}")
        times.append(wall)
    return times


def run_workload(workload, seed, seconds, trace, scale=1.0) -> dict:
    module = WORKLOADS[workload]
    # set-up is timed before and after the measured loop, so its median samples
    # the machine's speed at both ends of the run
    setup = [] if trace else measure_setup(workload, seed, scale, SETUP_REPEATS // 2 + 1)
    es, inputs = prepare(workload, seed, scale)
    samples, informational = None, {}
    if trace:
        metrics, attempted, failed, failures, extra_env = traced.run(workload, es, inputs, seed,
                                                                     scale)
    else:
        r = module.measure(es, inputs, seconds)
        samples, attempted, failed, failures = (r["samples_ms"], r["attempted"], r["failed"],
                                                r["failures"])
        extra_env = r.get("environment", {})
        setup += measure_setup(workload, seed, scale, SETUP_REPEATS // 2)
        metrics = {
            "setup_s": (p50(setup), "s"),
            "op_ms": (module.OP_STAT(samples), "ms"),
            "peak_rss_mb": (r["rss_mb"], "MB"),
            "ops_ok_frac": (1.0 - failed / attempted, "frac"),
        }
        # Reported, not gated: both op time percentiles (op_ms is one of them)
        # and the throughput, a mean that moves with the share of fast blocks
        # on a machine whose speed changes in blocks of seconds.
        informational = {"op_ms_p50": (p50(samples), "ms"), "op_ms_p90": (p90(samples), "ms"),
                         "throughput_per_s": (r["throughput"], "1/s")}
    known = getattr(module, "KNOWN_DEFECTS", {})
    unexpected = sorted(name for name in failures if name not in known)
    env = {**environment(seed), **extra_env}
    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "environment": env, "op_ms_samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "informational": {k: {"value": v, "unit": u} for k, (v, u) in informational.items()},
        "attempted": attempted, "failed": failed,
        "failing_ops": {name: {"reason": reason, "known_defect": known.get(name)}
                        for name, reason in sorted(failures.items())},
        "unexpected_failures": unexpected,
    }
    write_json(OUT / f"{workload}-seed{seed}-trace{trace}.json", details)
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    for name, (value, unit) in informational.items():
        print(f"not gated: {name} = {value:.6g} {unit}", file=sys.stderr)
    for name, reason in sorted(failures.items()):
        tag = "known defect" if name in known else "UNEXPECTED"
        print(f"failing op [{tag}] {name}: {reason}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


# --- smoke -------------------------------------------------------------------


def smoke() -> int:
    """Every workload at minimal size, both modes; names and units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 1, 0.5, trace, scale=1 / 64)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in set(got) & set(want[trace]) if got[k] != want[trace][k])
                problems.append(f"{workload} trace={trace}: missing {missing} extra {extra} "
                                f"unit mismatch {units}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{workload} trace={trace}: non-finite {bad}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: unexpected failing operations")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    ok = not problems
    print(json.dumps({"smoke": "pass" if ok else "fail", "problems": problems}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "errstat" / "__init__.py").is_file():
        print(f"error: no errstat sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.smoke:
        return smoke()
    if args.record_goldens:
        cli_batch.record_goldens()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        prepare(args.workload, args.seed, args.scale)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
