"""Lagged self-regression for short annual series.

Fits Y_t = b0 + b1 * Y_{t-tau} by ordinary least squares over the
overlapping pairs, reports the slope with its standard error, and converts
a lag correlation into the t statistic r*sqrt(k-2)/sqrt(1-r^2) with k-2
degrees of freedom, where k is the number of pairs.

The correlation convention matches the regression: each window gets its
own mean and variance, so r, the slope t, and the regression p-value are
mutually consistent.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

from .distributions import _StudentT
from .error_tradeoff import Tail
from .errors import (CsvFormatError, DegenerateDataError, DomainError, _fail, check_finite,
                     check_instance, check_int, check_sequence, unscaled)
from .severity import SummaryStats

# Relative residual variance below which a fit is reported as exact
# (perfect correlation) instead of yielding a meaningless standard error.
_PERFECT_FIT_RTOL = 1e-12


@dataclass(frozen=True)
class Series:
    """An ordered run of values with integer labels (e.g. years), no gaps."""

    values: tuple[float, ...]
    start_label: int = 0

    def __post_init__(self):
        values = check_sequence(self.values, "values")
        if len(values) < 3:
            raise DomainError(f"series needs at least 3 values, got {len(values)}")
        object.__setattr__(self, "values", tuple(
            check_finite(v, f"series value at index {i}") for i, v in enumerate(values)))
        object.__setattr__(self, "start_label", check_int(self.start_label, "start_label",
                                                          -math.inf, math.inf))

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values: Sequence[float], start_label: int = 0) -> Series:
        return cls(values, start_label)


def read_series_csv(path: str | bytes | os.PathLike) -> Series:
    """Read a `label,value` CSV (header required, UTF-8, '.' decimals).

    Labels must be consecutive integers; a gap means a missing year and is
    rejected rather than imputed. All parse errors carry the 1-based line
    number.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() would take an int as a descriptor
        raise _fail("path", "be a str, bytes or os.PathLike", path)
    try:
        fh = open(path, "rb")
    except ValueError:  # the one ValueError open raises: "embedded null byte"
        raise _fail("path", "hold no NUL byte", path) from None
    with fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # a leading BOM from spreadsheet exports
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as text.splitlines() below numbers it; the bytes before the bad one decode
        line = len((data[:exc.start].decode("utf-8") + "_").splitlines())
        raise CsvFormatError(line, f"byte {data[exc.start]:#04x} is not UTF-8 text") from None
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError(1, "empty file; expected a 'label,value' header")
    header = [part.strip().lower() for part in lines[0].split(",")]
    if header != ["label", "value"]:
        raise CsvFormatError(1, f"expected header 'label,value', got {lines[0]!r}")
    labels: list[int] = []
    values: list[float] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 2:
            raise CsvFormatError(lineno, f"expected 2 comma-separated fields, got {len(parts)}")
        label_text, value_text = parts[0].strip(), parts[1].strip()
        try:
            label = int(label_text)
        except ValueError:
            raise CsvFormatError(lineno, f"label {label_text!r} is not an integer") from None
        if not value_text:
            raise CsvFormatError(lineno, "missing value (blank field)")
        try:
            value = float(value_text)
        except ValueError:
            raise CsvFormatError(lineno, f"value {value_text!r} is not a number") from None
        if not math.isfinite(value):
            raise CsvFormatError(lineno, f"value {value_text!r} is not finite")
        if labels and label != labels[-1] + 1:
            raise CsvFormatError(
                lineno, f"label {label} breaks the sequence (previous was {labels[-1]})"
            )
        labels.append(label)
        values.append(value)
    if len(values) < 3:
        raise CsvFormatError(len(lines), f"series needs at least 3 rows, got {len(values)}")
    return Series(tuple(values), start_label=labels[0])


@dataclass(frozen=True)
class LagFit:
    """OLS results for Y_t on Y_{t-tau}: intercept, slope, and inference pieces."""

    beta0: float
    beta1: float
    stderr_beta1: float
    r: float
    n_pairs: int
    t_stat: float
    p_two_sided_t: float

    def summary_stats(self) -> SummaryStats:
        """Slope estimate packaged for the severity/confidence workflow."""
        return SummaryStats(
            estimate=self.beta1,
            stderr=self.stderr_beta1,
            n=self.n_pairs,
            df=self.n_pairs - 2,
        )


def _lag_pairs(series: Series, tau: int) -> tuple[list[float], list[float]]:
    vals = series.values
    return list(vals[: len(vals) - tau]), list(vals[tau:])


def _window_moments(x: list[float],
                    y: list[float]) -> tuple[int, int, float, float, float, float, float]:
    # (ex, ey, mean_x, mean_y, sxx, syy, sxy), each window with its own mean, of each window
    # scaled by 2**-e, e the binary exponent of its own largest |value|, so that no product
    # overflows and no varying window underflows to 0. The scaling is exact (d * d, unlike
    # d ** 2, is correctly rounded), so each moment is that of the raw values times a power of 2.
    ex = math.frexp(max(map(abs, x)))[1]
    ey = math.frexp(max(map(abs, y)))[1]
    x = [math.ldexp(v, -ex) for v in x]
    y = [math.ldexp(v, -ey) for v in y]
    k = len(x)
    mean_x = math.fsum(x) / k
    mean_y = math.fsum(y) / k
    sxx = math.fsum((xi - mean_x) * (xi - mean_x) for xi in x)
    syy = math.fsum((yi - mean_y) * (yi - mean_y) for yi in y)
    sxy = math.fsum((xi - mean_x) * (yi - mean_y) for xi, yi in zip(x, y))
    return ex, ey, mean_x, mean_y, sxx, syy, sxy


def lag_regression(series: Series, tau: int) -> LagFit:
    """Least-squares fit of each value on its tau-steps-earlier predecessor."""
    tau = check_int(tau, "tau", 1)
    check_instance(series, Series, "series")
    if tau >= len(series) - 2:
        raise DomainError(f"tau = {tau} leaves fewer than 3 pairs from {len(series)} values")
    x, y = _lag_pairs(series, tau)
    if min(x) == max(x):
        raise DegenerateDataError("predictor window has zero variance (constant series)")
    if min(y) == max(y):
        raise DegenerateDataError("response window has zero variance (constant series)")
    k = len(x)
    ex, ey, mean_x, mean_y, sxx, syy, sxy = _window_moments(x, y)
    b = sxy / sxx  # the slope in the scaled units, 2**(ex - ey) times beta1
    beta0 = unscaled(mean_y - b * mean_x, ey, "intercept of the fit")
    rss = syy - b * sxy
    if rss <= _PERFECT_FIT_RTOL * syy:
        raise DegenerateDataError(
            "residual variance is zero (perfect fit, |r| = 1); "
            "slope inference is undefined"
        )
    df = k - 2
    se = math.sqrt((rss / df) / sxx)
    beta1 = unscaled(b, ey - ex, "slope of the fit")
    stderr = unscaled(se, ey - ex, "standard error of the slope")
    if stderr == 0.0:
        raise DomainError("the standard error of the slope underflows a float")
    t_stat = b / se
    p = Tail.TWO_SIDED.p_value(t_stat, _StudentT(df).cdf)
    return LagFit(
        beta0=beta0,
        beta1=beta1,
        stderr_beta1=stderr,
        r=sxy / math.sqrt(sxx * syy),
        n_pairs=k,
        t_stat=t_stat,
        p_two_sided_t=p,
    )


def autocorrelation(series: Series, tau: int) -> float:
    """Sample correlation of the lag-tau pairs (tau = 0 gives exactly 1: sqrt(s * s) is s)."""
    tau = check_int(tau, "tau", 0)
    check_instance(series, Series, "series")
    if tau >= len(series) - 1:
        raise DomainError(f"tau = {tau} leaves fewer than 2 pairs from {len(series)} values")
    x, y = _lag_pairs(series, tau)
    if min(x) == max(x) or min(y) == max(y):
        raise DegenerateDataError("zero variance in a lag window; correlation undefined")
    _, _, _, _, sxx, syy, sxy = _window_moments(x, y)
    return sxy / math.sqrt(sxx * syy)


def t_from_correlation(r: float, n: int) -> tuple[float, float]:
    """t statistic and two-sided p-value for a correlation from n observations."""
    r = check_finite(r, "correlation")
    if not -1.0 <= r <= 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {r!r}")
    n = check_int(n, "n", 3)
    if abs(r) == 1.0:
        raise DegenerateDataError("correlation of +/-1 gives an infinite t statistic")
    t = r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r)
    return t, Tail.TWO_SIDED.p_value(t, _StudentT(n - 2).cdf)
