"""Shared helpers: locations, percentiles, tolerances, environment record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Tolerance of every library value checked against scipy:
# |got - ref| <= max(RTOL * |ref|, ATOL[kind]). For probabilities, densities
# and costs the absolute floor lets a result below 1e-307, at the edge of the
# normal doubles, underflow to zero; for locations (quantiles, critical values, limits,
# coefficients) it keeps values near zero from demanding relative precision.
RTOL = 1e-10
ATOL = {"prob": 1e-307, "loc": 1e-11}
# numeric_minimizer against the closed form, the bound the CLI tests use.
MINIMIZER_GAP_TOL = 1e-6
# Monte Carlo estimates against the analytic value, in standard errors.
Z_BOUND = 5.0
# sqrt(N) * KS distance of simulated p-values against their reference law;
# the Kolmogorov tail beyond 3.0 is about 3e-8.
KS_BOUND = 3.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ERRSTAT_SEED", None)
    return env


def import_errstat():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import errstat
    return errstat


def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[8])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def within(got: float, ref: float, kind: str) -> bool:
    if math.isnan(got) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= max(RTOL * abs(ref), ATOL[kind])


def rel_err(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    if not math.isfinite(got):
        return math.inf
    return abs(got - ref) / max(abs(ref), ATOL["prob"])


def run_child(argv, *, stdin_text=None, timeout=120):
    """Run a child to completion; returns (returncode, stdout, stderr, wall_s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), text=True,
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(stdin_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out, err, time.perf_counter() - t0


def spawn_timed(argv, stdout_path, stderr_path):
    """Spawn with stdout/stderr to files; wait with wait4 for the child's own rusage.

    Returns (returncode, wall_ms, maxrss_mb).
    """
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_ms = (time.perf_counter() - t0) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall_ms, usage.ru_maxrss / 1024.0


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "errstat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return sizes


def llc_bytes(caches: dict) -> int:
    """The largest of `_cache_sizes()` in bytes (sysfs writes sizes as e.g. 307200K); 0 if none."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return max((int(v[:-1]) * scale[v[-1]] if v[-1] in scale else int(v)
                for v in caches.values()), default=0)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy
    try:
        import importlib.metadata as md
        scipy_version = md.version("scipy")
    except Exception:  # scipy is only needed by the oracle child
        scipy_version = "missing"
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": nproc(),
        "caches": caches,
        "llc_bytes": llc_bytes(caches),
        "commit": _commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
