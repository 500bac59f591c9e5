"""Pinned bits of the array Gaussian kernel and of simulate_pvalues.

The expected values were recorded from the implementation before the
scalar and array Cody erfc shared one set of rational pieces; any change to
how the array kernel is evaluated must leave these outputs bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest

from errstat import SimConfig, Tail, simulate_pvalues
from errstat.montecarlo import _normal_cdf_vec


def _grid() -> np.ndarray:
    # x = t * sqrt(2): the Cody region cuts at t = 0.46875, 4 and the
    # underflow cut at t = 26.5, with their neighbouring doubles.
    cuts = np.array([0.46875, 4.0, 26.5]) * math.sqrt(2.0)
    edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, np.inf)])
    return np.concatenate([
        np.linspace(-40.0, 40.0, 400001),
        edges,
        -edges,
        [0.0, -0.0, 5e-324, -1e-300],
    ])


def test_vectorized_cdf_bits_are_pinned():
    grid = _grid()
    assert grid.size == 400023
    digest = hashlib.sha256(_normal_cdf_vec(grid).tobytes()).hexdigest()
    assert digest == "d4f991bbb6e32a84d6ed24b83a2d0d61945a1a0be5a3dee8d8e1d75fa9a2e445"


_PVALUE_SUMMARIES = {
    Tail.ONE_SIDED_UPPER: (
        (0.02994006016278136, 0.0748849440567017, 0.1304214548269651,
         0.1963883381722258, 0.2728559692154885, 0.3624414870249065,
         0.46745701253695876, 0.5931323789634719, 0.7508152619632975),
        (0.10003333333333334, 0.1997, 0.3, 0.40044, 0.5016266666666667,
         0.60208, 0.7022466666666667, 0.8016666666666666, 0.9007533333333333),
        0.0029843666449526074,
    ),
    Tail.TWO_SIDED: (
        (0.055195273581159214, 0.13272684949346228, 0.22175750290839027,
         0.31811035082488376, 0.42185043021896285, 0.5318587347859866,
         0.6460750617692774, 0.7610255980804985, 0.880539716837997),
        (0.10025333333333333, 0.19904666666666668, 0.29884, 0.39981333333333335,
         0.5002066666666667, 0.5998133333333333, 0.6992733333333333,
         0.8006066666666667, 0.8999133333333333),
        0.001635322230792935,
    ),
}


@pytest.mark.parametrize("tail", [Tail.ONE_SIDED_UPPER, Tail.TWO_SIDED])
def test_simulate_pvalues_fields_are_pinned(tail):
    config = SimConfig(num_trials=150_000, seed=20260, effect_size=0.3,
                       n_per_study=4, tail=tail)
    summary = simulate_pvalues(config)
    deciles, ecdf, supnorm = _PVALUE_SUMMARIES[tail]
    assert summary.num_trials == 150_000
    assert summary.deciles == deciles
    assert summary.cdf_at_reference_deciles == ecdf
    assert summary.supnorm_vs_reference == supnorm
    assert summary.delta == 0.3
    assert summary.n_per_study == 4
