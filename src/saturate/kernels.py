"""Window-averaging operators of the coupled chain.

window_mean_forward is the (2L+1) x (2L+w) operator A of a coupled chain,
mapping check-side rows to bit-side rows by the mean of w consecutive rows;
window_mean_adjoint is its transpose A^T with zero rows outside the chain.
Both form each window's exact small sum, so no cumsum drift builds up along
long chains.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["window_mean_forward", "window_mean_adjoint"]


def window_mean_forward(Z: np.ndarray, w: int) -> np.ndarray:
    """Sliding mean of w consecutive rows: (n, d) -> (n - w + 1, d)."""
    if w == 1:
        return Z.copy()
    return sliding_window_view(Z, w, axis=0).sum(axis=-1) / w


def window_mean_adjoint(Y: np.ndarray, w: int) -> np.ndarray:
    """Adjoint of window_mean_forward with zero rows outside: (m, d) -> (m + w - 1, d)."""
    if w == 1:
        return Y.copy()
    pad = np.zeros((w - 1, Y.shape[1]))
    Yp = np.concatenate([pad, Y, pad], axis=0)
    return sliding_window_view(Yp, w, axis=0).sum(axis=-1) / w
