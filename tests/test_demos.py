"""Each demo prints the bytes it printed when its output was last reviewed.

The six tours under demos/ run as fresh processes (about 2 s in all). A
change to a demo's stdout is either a numeric change in the library or a
deliberate edit of the demo; either way the pin below is updated on purpose.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
STDOUT_SHA256 = {
    "01_error_tradeoff.py": "3a213f50fb471c4a6c9fd22c58a858290ca9c15022a2c211e765e261b4c5a5ef",
    "02_screening_false_positive_rate.py":
        "64f9b9857a4b79ac4bc9df4e798b054f11a3dae53cc105750bfd1782e0abb29a",
    "03_decision_costs.py": "2359a7d7dca9ab27d2ca8d40d2a9e7a20039eb9c8c956937714a5cda503fc605",
    "04_pvalue_distributions.py": "3f8d7c7f2e2242b468fa83263c44b294f1272458a072d9fde6f6f7ddd103da6b",
    "05_lag_regression_report.py":
        "a63a273def259bff6fc7936e8448017f3d34392ade31962691d1f8a848960d8a",
    "06_monte_carlo_validation.py":
        "558308d0d5efd02bdac3bbebb7aa3eece46df6c0564af1dcd09734ced28780bf",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in (REPO_ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_bytes(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], proc.stdout.decode()
