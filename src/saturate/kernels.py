"""Window-averaging operators of the coupled chain.

window_mean_forward is the (2L+1) x (2L+w) operator A of a coupled chain,
mapping check-side rows to bit-side rows by the mean of w consecutive rows;
window_mean_adjoint is its transpose A^T with zero rows outside the chain.
Both act on the row axis -2 of an array of shape (..., n, d), so a
(k, n, d) stack holds k chains that are averaged independently.

Each operator is w shifted-slice adds: output row i is the exact small sum
Z[i] + Z[i+1] + ... + Z[i+w-1], formed left to right, then divided by w, so
no cumsum drift builds up along long chains. The adjoint pads w-1 zero rows
on both sides and applies the same forward sum. It must add in forward
order: floating-point addition is not associative, and left to right is the
order of numpy's sliding_window_view(...).sum(-1), which these operators
replace bit for bit; adding the padded slices in reverse order changes last
bits (it does at L=5, w=4). The one exception is d = 1 with w >= 8, where
numpy sums a contiguous window pairwise and so differs in the last bits
from the left-to-right sum formed here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["window_mean_forward", "window_mean_adjoint"]


def _slice_mean(Z: np.ndarray, w: int) -> np.ndarray:
    """Mean of w >= 2 consecutive rows along axis -2, the slices added left to right."""
    m = Z.shape[-2] - w + 1
    acc = Z[..., :m, :] + Z[..., 1 : 1 + m, :]
    for j in range(2, w):
        acc += Z[..., j : j + m, :]
    acc /= w
    return acc


def window_mean_forward(Z: np.ndarray, w: int) -> np.ndarray:
    """Sliding mean of w consecutive rows: (..., n, d) -> (..., n - w + 1, d)."""
    if w == 1:
        return Z.copy()
    return _slice_mean(Z, w)


def window_mean_adjoint(Y: np.ndarray, w: int) -> np.ndarray:
    """Adjoint of window_mean_forward with zero rows outside: (..., m, d) -> (..., m + w - 1, d)."""
    if w == 1:
        return Y.copy()
    m = Y.shape[-2]
    Yp = np.zeros(Y.shape[:-2] + (m + 2 * (w - 1), Y.shape[-1]))
    Yp[..., w - 1 : w - 1 + m, :] = Y
    # the private sum, so that a wrapper around the public forward operator
    # (satbench's tracer) counts each adjoint call once, not also as a forward
    return _slice_mean(Yp, w)
