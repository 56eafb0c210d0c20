"""CSV series text written by numpy: the same bytes as `repr` and `str` per cell."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from measeq.csvtext import _float_cells, csv_text
from measeq.seqgen import BaseChain, VdcSequence

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _oracle_text(header, columns) -> str:
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "\n".join(oracles.csv_lines_oracle(header, rows)) + "\n"


def _same_as_repr(values):
    x = np.asarray(values, dtype=np.float64)
    index = range(1, x.size + 1)
    assert csv_text(("n,v", [index, x])) == _oracle_text("n,v", [index, x])


def _neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


def _tie_values(rng):
    """Doubles j / 2**b with exactly P + 1 significant digits, the last a 5:
    their P-digit roundings are exact ties, for P = 15, 16, 17 and zero to
    three zeros after the point."""
    out = []
    for p in (15, 16, 17):
        for zeros in range(4):
            b = p + 1 + zeros
            lo, hi = math.ceil(2**b / 10 ** (zeros + 1)), math.ceil(2**b / 10**zeros)
            odd = np.arange(lo | 1, hi, 2)
            picks = np.concatenate([odd[:30], odd[-30:], rng.choice(odd, 40)])
            for j in picks.tolist():
                v = j / 2**b
                digits = Decimal(v).as_tuple().digits
                assert len(digits) == p + 1 and digits[-1] == 5
                out.append(v)
    return out


def _edge_values():
    rng = np.random.default_rng(5)
    values = [0.0, -0.0, math.inf, -math.inf, math.nan]
    values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += _neighbours(1e-4) + [0.9999999999999999, math.nextafter(1.0, 0.0)]
    values += [2.0**-i for i in range(1, 61)]
    for i in range(1, 23):
        values += _neighbours(10.0**-i) + _neighbours(float(f"1e-{i}"))
    values += _tie_values(rng)
    return values + [-v for v in values]


class TestFloatCells:
    def test_edge_values(self):
        _same_as_repr(_edge_values())

    def test_k_over_n_for_n_up_to_1000(self):
        n = np.repeat(np.arange(1, 1001), np.arange(2, 1002))
        k = np.concatenate([np.arange(m + 1) for m in range(1, 1001)])
        _same_as_repr(k / n)

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=60))
    @settings(max_examples=300)
    @example([0x8000000000000000, 0x7FF8000000000000, 0x0000000000000001, 0x3FEFFFFFFFFFFFFF])
    def test_any_bit_pattern(self, patterns):
        _same_as_repr(np.array(patterns, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.floats(1e-4, 1.0, exclude_max=True), max_size=60), st.booleans())
    @settings(max_examples=300)
    def test_values_in_the_exact_range(self, values, negate):
        x = np.array(values, dtype=np.float64)
        _same_as_repr(-x if negate else x)

    def test_float64_scalars_holding_negative_zero(self):
        # a list column is written cell by cell with %s; an array column by numpy
        assert csv_text(("v", [[np.float64(-0.0), np.float64(0.5)]])) == "v\n-0.0\n0.5\n"
        assert csv_text(("v", [np.array([-0.0, 0.5])])) == "v\n-0.0\n0.5\n"

    @pytest.mark.parametrize("ratio, levels, n", [(2, 8, 20000), (10, 6, 30000)])
    def test_the_exact_path_writes_generated_windows(self, ratio, levels, n):
        x = VdcSequence(BaseChain.geometric(ratio, levels)).window(n).values
        exact = _float_cells(x, np.zeros((x.size, 24), np.uint8))
        assert exact.mean() >= 0.999
        _same_as_repr(x)


class TestIntCells:
    @pytest.mark.parametrize("values", [
        np.array([0, -1, 7, -(2**63), 2**63 - 1], dtype=np.int64),
        np.array([0, 9, 10, 2**64 - 1], dtype=np.uint64),
        np.array([-128, 0, 127], dtype=np.int8),
        np.array([], dtype=np.int64),
    ])
    def test_arrays(self, values):
        floats = np.linspace(0.0, 1.0, values.size)
        assert csv_text(("i,x", [values, floats])) == _oracle_text("i,x", [values, floats])

    @pytest.mark.parametrize("r", [
        range(0), range(5), range(-3, 10, 4), range(10, 0, -3),
        range(2**63 - 3, 2**63), range(-(2**63), -(2**63) + 2),
        range(-(2**63) + 1, 2**63, 2**63 - 1),
        range(0, 2**70, 2**69),  # values past int64: written cell by cell
    ])
    def test_ranges(self, r):
        x = np.full(len(r), 0.25)
        assert csv_text(("i,x", [r, x])) == _oracle_text("i,x", [r, x])

    def test_blocks_join_without_a_seam(self):
        n = 3 * (1 << 14) + 5
        x = np.arange(n) / n
        assert csv_text(("n,x", [range(1, n + 1), x])) == _oracle_text("n,x", [range(1, n + 1), x])
