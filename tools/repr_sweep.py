"""Compare the reprs of seeded simulator calls between two trees of errstat.

Usage (from the root of a checkout; PARENT is a second checkout to compare against):

  python3 tools/repr_sweep.py --parent PARENT --change . [--calls N] [--seed S]

Draws N seeded calls of each of the three simulators (simulate_studies,
simulate_pvalues and simulate_expected_cost) from S: trials from 1 to 2^20,
a third of them at or next to a chunk edge; both tails; standardized shifts of
0, small (|z| <= 3), saturated (5 to 40) and past 1e15; n_per_study from 1 to
10. To those it adds simulate_pvalues calls of 2^22 trials on both tails at
the shifts that have split blocks, crowded p-values at 1.0 or tied every key
before. Each tree runs every call in one fresh interpreter, importing errstat
from its own src; a call runs at 1 worker in one tree and 2 in the other,
alternating from call to call. A call that raises an ErrstatError compares
as its type and message. With --parent . --change . it checks the
determinism contract: the same result in any process at any worker count.
Prints how many reprs differ and the first few that do; exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

CHUNK = 1 << 16
MAX_TRIALS = 1 << 20
DEEP_TRIALS = 1 << 22
DEEP_SHIFTS = (0.0, 0.3, -0.45, 2.5, -5.0, -6.5, -7.25, -10.0, -38.0, 1e16)
SHOWN = 5

# Reads one JSON call a line on stdin and prints the repr of its result, or of the
# ErrstatError it raises, a line each.
WORKER = r"""
import json, sys
sys.path.insert(0, "src")
import errstat as es

for line in sys.stdin:
    call = json.loads(line)
    try:
        config = es.SimConfig(**call["config"])
        if call["sim"] == "studies":
            result = es.simulate_studies(config, call["workers"])
        elif call["sim"] == "pvalues":
            result = es.simulate_pvalues(config, call["workers"])
        else:
            result = es.simulate_expected_cost(call["c"], es.CostParams(**call["params"]),
                                               config, call["workers"])
        out = repr(result)
    except es.ErrstatError as error:
        out = f"raises {type(error).__name__}: {error}"
    print(out, flush=True)
"""


def trials(rng: random.Random) -> int:
    if rng.random() < 1 / 3:
        return max(1, min(MAX_TRIALS, rng.randint(1, MAX_TRIALS // CHUNK) * CHUNK
                          + rng.choice((-1, 0, 1))))
    return round(2.0 ** rng.uniform(0.0, 20.0))


def shift(rng: random.Random) -> float:
    kind = rng.randrange(4)
    sign = rng.choice((-1.0, 1.0))
    if kind == 0:
        return 0.0
    if kind == 1:
        return rng.uniform(-3.0, 3.0)
    if kind == 2:
        return sign * rng.uniform(5.0, 40.0)
    return sign * 10.0 ** rng.uniform(15.0, 300.0)


def config(rng: random.Random, **fields) -> dict:
    n = rng.randint(1, 10)
    return {"num_trials": trials(rng), "seed": rng.randrange(1 << 64), "n_per_study": n,
            "effect_size": shift(rng) / n ** 0.5,
            "tail": rng.choice(("one_sided_upper", "two_sided"))} | fields


def draw_calls(calls: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for _ in range(calls):
        out.append({"sim": "studies", "config": config(
            rng, prior_null=rng.choice((0.0, 1.0, rng.random())),
            alpha=10.0 ** rng.uniform(-12.0, -0.31))})
        out.append({"sim": "pvalues", "config": config(rng)})
        sigma = 10.0 ** rng.uniform(-3.0, 3.0)
        mu0 = rng.uniform(-10.0, 10.0)
        out.append({"sim": "cost", "config": config(rng),
                    "c": mu0 + sigma * shift(rng),
                    "params": {"cost_type1": rng.choice((0.0, rng.uniform(0.0, 10.0))),
                               "cost_type2": rng.choice((0.0, rng.uniform(0.0, 10.0))),
                               "prior_good": rng.choice((0.0, 1.0, rng.random())),
                               "mu0": mu0, "mu1": mu0 + sigma * shift(rng), "sigma": sigma}})
    for tail in ("one_sided_upper", "two_sided"):
        for z in DEEP_SHIFTS:
            out.append({"sim": "pvalues", "config": {
                "num_trials": DEEP_TRIALS, "seed": rng.randrange(1 << 64), "effect_size": z,
                "tail": tail}})
    return out


def run(tree: Path, calls: list[dict], workers: list[int]) -> tuple[list[str], float]:
    text = "".join(json.dumps(call | {"workers": w}) + "\n" for call, w in zip(calls, workers))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", WORKER], cwd=tree, input=text, text=True,
                         capture_output=True, check=True).stdout.splitlines()
    return out, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--calls", type=int, default=200, help="calls of each simulator")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    calls = draw_calls(args.calls, args.seed)
    alternate = [1 + k % 2 for k in range(len(calls))]
    parent, parent_s = run(args.parent.resolve(), calls, alternate)
    change, change_s = run(args.change.resolve(), calls, [3 - w for w in alternate])
    differ = [k for k, (a, b) in enumerate(zip(parent, change)) if a != b]
    counts = {sim: sum(call["sim"] == sim for call in calls) for sim in ("studies", "pvalues",
                                                                         "cost")}
    print(f"{len(calls)} calls ({', '.join(f'{k} {sim}' for sim, k in counts.items())}); "
          f"parent {parent_s:.1f} s, change {change_s:.1f} s; {len(differ)} reprs differ")
    for k in differ[:SHOWN]:
        print(f"call {k}: {json.dumps(calls[k])}\n  parent: {parent[k]}\n  change: {change[k]}")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
