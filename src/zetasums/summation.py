"""Compensated (error-free transformation) summation helpers.

Zero-power sums accumulate with math.fsum so results are deterministic and
independent of block split, as long as blocks are merged in index order.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_BLOCK = 4096


def block_sum(values: np.ndarray, block: int = DEFAULT_BLOCK) -> float:
    """Deterministic blockwise compensated sum.

    Each block is reduced with math.fsum (exact rounding); the per-block
    partials are merged in index order with fsum again, so the result is
    bitwise reproducible for a given block size regardless of how blocks
    are scheduled.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    partials = [
        math.fsum(values[i : i + block]) for i in range(0, values.size, block)
    ]
    return math.fsum(partials)


def block_sum_complex(values: np.ndarray, block: int = DEFAULT_BLOCK) -> complex:
    values = np.asarray(values, dtype=complex)
    return complex(
        block_sum(values.real, block=block), block_sum(values.imag, block=block)
    )
