"""Seeded soaks: the exactness checks of the tier-1 suite at many more examples.

The name falls outside pytest's test_*.py pattern, so the tier-1 run does not
collect this file; CI runs it, and a developer can, with

    PYTHONPATH=src python -m pytest -q -W error::RuntimeWarning tests/soak.py

Each soak fixes its seed and example count, so every run draws the same inputs.
"""

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from measeq.csvtext import _float_cells, csv_text
from measeq.seqgen import BaseChain, VdcSequence
from test_density import (
    aps,
    apset_pairs,
    check_apset_construction,
    check_narrow_fold,
    hit_sets,
    straggler_ladders,
)
from test_dist import check_conv_bits, conv_factor_pairs

# every soak: no example database, no deadline, no health checks
SOAK = settings(deadline=None, database=None, suppress_health_check=list(HealthCheck))


def _same_as_template(x):
    assert csv_text(("v", [x])) == "v\n" + "%s\n" * x.size % tuple(x.tolist())


def test_csv_float_cells():
    rng = np.random.default_rng(20261019)
    for _ in range(10):  # 10**7 random bit patterns: every class of double
        _same_as_template(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))
    _same_as_template(rng.uniform(1e-4, 1.0, 10**6))
    m = rng.integers(1, 61, 10**6)
    _same_as_template(rng.integers(0, 2**60, 10**6) % 2**m / 2.0**m)
    # the exact path, not repr, writes the generated windows
    for ratio, levels, n in ((2, 8, 205000), (10, 6, 291000)):
        x = VdcSequence(BaseChain.geometric(ratio, levels)).window(n).values
        share = _float_cells(x, np.zeros((x.size, 24), np.uint8)).mean()
        assert share >= 0.999, f"ratio {ratio}: the exact path writes {share:.2%} of the cells"


# the input kinds of the property test, up to 300 x 300 atoms: both paths, every fallback
@seed(20261020)
@settings(SOAK, max_examples=3000)
@given(conv_factor_pairs(max_atoms=300))
def test_convolution_bits(factors):
    check_conv_bits(factors)


# windows of up to 3000 folded at width 7 span hundreds of rows
@seed(20261021)
@settings(SOAK, max_examples=2000)
@given(hit_sets(), straggler_ladders, st.integers(1, 4))
def test_density_covers(mask, ladder, threshold):
    check_narrow_fold(mask, ladder, threshold, 7)


# pair lists across every int64 edge, and their int64 arrays, against the set-and-sort oracle
@seed(20261022)
@settings(SOAK, max_examples=3000)
@given(apset_pairs, aps, st.integers(1, 200))
def test_apset_construction(pairs, other, N):
    check_apset_construction(pairs, other, N)
