"""Adaptive Gauss-Kronrod quadrature for the smooth part of Stieltjes integrals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a value and an
error estimate per panel; the adaptive driver keeps bisecting the worst panel
until the summed estimate meets the relative tolerance or the refinement cap
is hit, in which case a :class:`~stieltjes.errors.QuadratureError` carrying
the achieved estimate is raised.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import QuadratureError

# 15-point Kronrod abscissae on [-1, 1] (symmetric; only nonnegative half stored)
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
# 7-point Gauss weights, aligned with _XGK[1], _XGK[3], _XGK[5], _XGK[7]
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 nodes ascending
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:15:2] = np.concatenate([_WG[:-1], _WG[::-1]])

# refinement caps of integrate_adaptive: panel depth and panel count
MAX_LEVELS = 64
MAX_PANELS = 4096


def kronrod_panel(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """One 15-point panel on [lo, hi]; returns (integral, error estimate)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    ik = half * float(np.dot(_WEIGHTS_K, y))
    ig = half * float(np.dot(_WEIGHTS_G, y))
    diff = abs(ik - ig)
    # min() picks diff from 1.25e-7 on; skip the float power that overflows and raises
    err = diff if diff >= 1.0 else min(diff, (200.0 * diff) ** 1.5) if diff > 0 else 0.0
    return ik, err


def integrate_adaptive(
    f: Callable,
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
) -> float:
    """Integrate a vectorized callable over [lo, hi] to relative tolerance.

    Bisects the panel with the largest error estimate; panel depth is capped
    at ``MAX_LEVELS`` and the panel count at ``MAX_PANELS``.
    """
    if lo == hi:
        return 0.0
    value, err = kronrod_panel(f, lo, hi)
    # heap entries: (-error, depth, lo, hi, value, error)
    heap = [(-err, 0, lo, hi, value, err)]
    total = value
    total_abs = abs(value)
    total_err = err
    # tolerance is anchored to the integral's mass so that exact cancellation
    # across the panel set does not demand an impossible absolute accuracy
    while total_err > rel_tol * max(abs(total), 1e-3 * total_abs, 1e-15):
        _, depth, c, d, v, e = heapq.heappop(heap)
        if depth >= MAX_LEVELS or len(heap) + 2 > MAX_PANELS or d - c <= 0:
            raise QuadratureError(
                f"quadrature stalled on [{lo}, {hi}] after depth {depth}",
                estimate=total,
                error_estimate=total_err,
            )
        m = 0.5 * (c + d)
        v1, e1 = kronrod_panel(f, c, m)
        v2, e2 = kronrod_panel(f, m, d)
        total += (v1 + v2) - v
        total_abs += (abs(v1) + abs(v2)) - abs(v)
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, depth + 1, c, m, v1, e1))
        heapq.heappush(heap, (-e2, depth + 1, m, d, v2, e2))
    return total


def panel_integrals(f: Callable, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Non-adaptive 15-point integral of f over each cell ``[los[i], his[i]]``;
    f is called once on the (cells x 15) node matrix, one row per cell.

    BLAS sums the rows of ``vals @ _WEIGHTS_K`` in blocks of 4 and the last
    ``cells % 4`` rows another way (OpenBLAS 0.3.31, x86-64): a cell keeps its
    bits in another call only if it stays in a block of 4 there.
    """
    mids = 0.5 * (los + his)
    halfs = 0.5 * (his - los)
    nodes = mids[:, None] + halfs[:, None] * _NODES[None, :]
    return halfs * (np.asarray(f(nodes), dtype=float) @ _WEIGHTS_K)
