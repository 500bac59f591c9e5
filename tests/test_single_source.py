"""Guards against the kernel, the range check and the critical value being written twice again.

The Cody erfc coefficients live in distributions.py only (the Monte Carlo
array kernel evaluates the same rational pieces), the open-unit-interval
requirement is spelled out only in the validator in errors.py, and the
two-sided critical value -quantile(alpha/2) only in Tail.critical.
"""

from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "errstat"


@pytest.mark.parametrize("text", ["3.16112374387056560", "strictly inside (0, 1)",
                                  "-normal_quantile(0.5 *"])
def test_text_appears_once_in_the_package(text):
    hits = {path.name: path.read_text(encoding="utf-8").count(text)
            for path in sorted(SRC.rglob("*.py"))}
    assert sum(hits.values()) == 1, {name: n for name, n in hits.items() if n}


def test_montecarlo_takes_its_critical_values_from_tail():
    source = (SRC / "montecarlo.py").read_text(encoding="utf-8")
    assert "normal_quantile" not in source
