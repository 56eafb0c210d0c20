"""CSV series text: the header line, then one line per row, stopping at the
shortest column.

A float cell is `repr(float)`, an int cell its decimal digits and any other
cell (a label, a tuple) `str` of itself, which is one `%s` per cell
(`str(float) == repr(float)`).  When every column is a 1-d float64 or integer
ndarray, numpy writes the rows, `_CSV_BLOCK` at a time, with the same bytes:
each block is one uint8 buffer of fixed-width slots whose zero bytes are
dropped.  Any other series, one with a `range` column too, is one `%s` join
over all its rows; no column is converted to an array.

Float cells without `repr`.  A float v with 1e-4 <= |v| < 1 whose significand
m (v = m 2**e2, 2**52 <= m < 2**53) is not a power of two is written "0.",
zeros, then the shortest digits that read back as v: the nearest such string
of that length, an exact tie taking the even last digit, as Gay's shortest
round-trip conversion behind `repr` gives them.  Every step is exact:

- With k = 16 - floor(log10 |v|) in [17, 20], X = |v| 10**k lies in
  [1e16, 1e17), and 10**k is an exact double because k <= 22.
- Dekker's product of Veltkamp splits gives hi = fl(|v| 10**k) and lo with
  X = hi + lo exactly.  hi >= 1e16 > 2**53 is an integer, so c17 = hi +
  rint(lo) is the nearest 17-digit integer to X, and d17 = rint(lo) - lo
  = c17 - X is exact; lo and d17 are multiples of 2**(e2 + k).
- v's neighbours lie 2**e2 away on both sides (m is no power of two), so a
  decimal reads back as v iff it lies closer to v than half that gap.  It
  never lies at exactly half: that point, (2m +- 1) 2**(e2 - 1), has its
  last nonzero digit 1 - e2 >= 54 places after the point, and a candidate
  at most 20.  Scaled by 10**k and counted in units of 2**(e2 + k), twice
  that half gap is 5**k < 2**47.
- A P-digit candidate c 10**(17 - P) lies d17 - r from X, with the small
  integer r = c17 - c 10**(17 - P); twice that distance in those units is an
  int64 below 2**57 and is compared with 5**k exactly.
- Candidates P = 15, 16 and 17 are tried in turn, the nearest of each
  length, a tie taking the even one.  15-digit candidates are 100 units of
  1e(-k) apart, more than the whole read-back interval (under 23), so a
  shorter result is that candidate with trailing zeros, which are stripped;
  half the gap always exceeds 1/2 there, so c17 always reads back.

Every other float (0.0, -0.0, +-inf, nan, powers of two, |v| outside
[1e-4, 1), or a c17 outside [1e16, 1e17)) is `repr(float(v))` itself.
"""

from __future__ import annotations

import numpy as np

_CSV_BLOCK = 1 << 14  # rows a numpy-written block takes at once: its temporaries stay a few MB
_FLOAT_W = 24  # the longest float repr, '-2.2250738585072014e-308'
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_MANTISSA = (1 << 52) - 1


def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


_P10 = np.array([1e17, 1e18, 1e19, 1e20])  # 10**k for k = 17 + z
_P10_HI, _P10_LO = _split(_P10)
_FIVE = np.array([5**17, 5**18, 5**19, 5**20], dtype=np.int64)


def _float_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each float of x into its row of `out` (zeros, `_FLOAT_W` wide),
    zero bytes where nothing is written; returns which rows took the exact
    path rather than `repr`."""
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1.0)
    v = np.where(exact, a, 0.75)  # keeps the arithmetic below finite
    bits = v.view(np.int64)
    exact &= (bits & _MANTISSA) != 0
    # z zeros after the point, k = 17 + z: fl(10**-j) > 10**-j, so these are exact
    z = (v < 0.1).view(np.int8) + (v < 0.01).view(np.int8) + (v < 0.001).view(np.int8)
    z = z.astype(np.intp)
    hi = v * _P10[z]
    vh, vl = _split(v)
    ph, pl = _P10_HI[z], _P10_LO[z]
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    rl = np.rint(lo)
    c17 = hi.astype(np.int64) + rl.astype(np.int64)
    # 2 * 2**-(e2 + k) as a double: e2 = biased exponent - 1075
    scale = ((1059 + 1023 - z) - (bits >> 52)) << 52
    two_d = ((rl - lo) * scale.view(np.float64)).astype(np.int64)  # 2 d17 in those units
    unit = scale.view(np.float64).astype(np.int64)  # 2 (one unit of X) in units
    five = _FIVE[z]
    c15 = (c17 + 50) // 100  # at most one 15-digit candidate reads back: no tie matters
    at15 = np.abs((c15 * 100 - c17) * unit + two_d) < five
    c16 = c17 // 10
    below = (c17 - c16 * 10) * unit - two_d  # 2 (X - 10 c16) in units
    step = 10 * unit
    up = (2 * below > step) | ((2 * below == step) & ((c16 & 1) == 1))
    at16 = np.minimum(np.abs(below), step - below) < five
    digits = np.where(at15, c15 * 100, np.where(at16, (c16 + up) * 10, c17))
    exact &= (c17 >= 10**16) & (digits < 10**17)

    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    out[:, 1:3] = np.frombuffer(b"0.", np.uint8)
    for i in range(3):
        out[:, 3 + i] = (z > i).view(np.uint8) * np.uint8(ord("0"))
    top = digits // 10**9
    trailing = np.ones(x.size, dtype=bool)
    for part, cols in ((digits - top * 10**9, range(22, 13, -1)), (top, range(13, 5, -1))):
        part = part.astype(np.int32)  # under 1e9: int32 halves divide faster
        for col in cols:
            q = part // 10
            r = (part - q * 10).astype(np.uint8)
            trailing &= r == 0
            out[:, col] = (r + np.uint8(ord("0"))) * ~trailing
            part = q
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = np.array(list(map(repr, x[rest].tolist())), dtype=f"S{_FLOAT_W}")
        out[rest] = text.view(np.uint8).reshape(rest.size, _FLOAT_W)
    return exact


def _int_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write each int of x into its row of `out`: a sign slot, then the digits
    right-aligned in the remaining columns, leading zeros left as zero bytes."""
    neg = x < 0
    mag = x.astype(np.uint64)
    mag[neg] = np.uint64(0) - mag[neg]  # modulo 2**64: exact for -2**63 too
    out[:, 0] = neg.view(np.uint8) * np.uint8(ord("-"))
    ten = np.uint64(10)
    for col in range(out.shape[1] - 1, 0, -1):
        q = mag // ten
        r = (mag - q * ten).astype(np.uint8) + np.uint8(ord("0"))
        out[:, col] = r if col == out.shape[1] - 1 else r * (mag != 0)
        mag = q


def _int_width(x: np.ndarray) -> int:
    top = max(-int(x.min()), int(x.max())) if x.size else 0
    return 1 + len(str(top))


def _numeric(column) -> bool:
    """Whether numpy writes this column: a 1-d float64 or integer ndarray."""
    return isinstance(column, np.ndarray) and column.ndim == 1 and (
        column.dtype == np.float64 or column.dtype.kind in "iu"
    )


def _block_bytes(columns: list[np.ndarray]) -> bytes:
    widths = [_FLOAT_W if c.dtype == np.float64 else _int_width(c) for c in columns]
    buf = np.zeros((columns[0].size, sum(widths) + len(columns)), dtype=np.uint8)
    at = 0
    for c, w in zip(columns, widths):
        (_float_cells if c.dtype == np.float64 else _int_cells)(c, buf[:, at : at + w])
        buf[:, at + w] = ord(",")
        at += w + 1
    buf[:, -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


def csv_text(series) -> str:
    """The text of a (header, columns) series."""
    header, columns = series
    n = min(map(len, columns), default=0)
    if not all(map(_numeric, columns)):
        k = len(columns)
        cells = [None] * (k * n)
        for i, column in enumerate(columns):
            cells[i::k] = column[:n]
        return f"{header}\n" + (",".join(["%s"] * k) + "\n") * n % tuple(cells)
    blocks = [
        _block_bytes([c[a : min(a + _CSV_BLOCK, n)] for c in columns])
        for a in range(0, n, _CSV_BLOCK)
    ]
    return f"{header}\n" + b"".join(blocks).decode("ascii")
