"""Pure-numpy implementations of the hot kernels.

Same contract as the compiled backend in ``_core.pyx``: bin lookup with a
right-closed top bin, dense design assembly, and a per-bin thin-QR
accumulation of the piecewise-linear regression.  The QR here is modified
Gram-Schmidt in two passes (the second column is centered against the bin
mean explicitly, never via sums of squares), which matches the compiled
backend's Givens factorization to floating-point noise.
"""
from __future__ import annotations

import numpy as np


# Up to this many bins a value's bin is found by comparing it with each
# interior edge (one vectorized pass per edge); above it, by binary search.
COMPARE_MAX_BINS = 64


def _bin_keys(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``bin_indices`` as int8 from comparisons for small ``nbins``, as the
    platform integer from ``searchsorted`` otherwise."""
    inner = edges[1:-1]
    if inner.size < COMPARE_MAX_BINS:
        idx = np.zeros(u.shape, dtype=np.int8)
        for e in inner:
            idx += u >= e  # interior edges at or below u
    else:
        idx = np.searchsorted(inner, u, side="right")
    idx[~((u >= edges[0]) & (u <= edges[-1]))] = -1  # NaN fails both tests
    return idx


def bin_indices(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Owning bin per value: [b_k, b_{k+1}) except the last bin, which is
    right-closed; -1 outside the domain."""
    edges = np.asarray(edges, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return _bin_keys(edges, u).astype(np.int64)


def design_matrix(edges, centers, norm0, norm1, u) -> np.ndarray:
    """Dense (n, 2K) basis matrix; at most two nonzeros per row, interleaved
    as (indicator, centered-linear) per bin."""
    u = np.asarray(u, dtype=np.float64)
    nbins = len(centers)
    idx = bin_indices(edges, u)
    out = np.zeros((u.size, 2 * nbins))
    inside = idx >= 0
    rows = np.nonzero(inside)[0]
    k = idx[inside]
    out[rows, 2 * k] = np.asarray(norm0)[k]
    out[rows, 2 * k + 1] = np.asarray(norm1)[k] * (u[inside] - np.asarray(centers)[k])
    return out


def binned_qr(edges, centers, norm0, norm1, u, x):
    """Per-bin thin QR of the two-column design [e0, e1] against targets x.

    Returns (R, z, counts): R[k] = (r11, r12, r22) with nonnegative diagonal,
    z[k] = Q^T x restricted to the bin's two directions, counts[k] = samples
    owned by bin k.  Out-of-domain samples are skipped.
    """
    edges = np.asarray(edges, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    norm0 = np.asarray(norm0, dtype=np.float64)
    norm1 = np.asarray(norm1, dtype=np.float64)
    nbins = centers.size
    R = np.zeros((nbins, 3))
    z = np.zeros((nbins, 2))
    counts = np.zeros(nbins, dtype=np.int64)

    # narrowest signed type holding keys + 1, so the stable argsort is a radix sort
    keys = _bin_keys(edges, u).astype(np.min_scalar_type(-nbins - 1), copy=False)
    order = np.argsort(keys, kind="stable")  # out-of-domain (-1) first
    u_s, x_s = u[order], x[order]
    # bin k is order[bounds[k]:bounds[k + 1]]; slot 0 counts out-of-domain
    bounds = np.cumsum(np.bincount(keys + 1, minlength=nbins + 1))

    for k in range(nbins):
        lo, hi = bounds[k], bounds[k + 1]
        nk = hi - lo
        counts[k] = nk
        if nk == 0:
            continue
        d = norm1[k] * (u_s[lo:hi] - centers[k])
        y = x_s[lo:hi]
        sq = np.sqrt(nk)
        r11 = norm0[k] * sq
        r12 = np.sum(d) / sq
        w = d - r12 / sq          # MGS: subtract the q1 component elementwise
        r22 = np.sqrt(np.sum(w * w))
        z1 = np.sum(y) / sq
        z2 = np.sum(w * y) / r22 if r22 > 0 else 0.0
        R[k] = (r11, r12, r22)
        z[k] = (z1, z2)
    return R, z, counts
