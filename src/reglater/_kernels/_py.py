"""Numpy implementations of the hot kernels.

Bin lookup with a right-closed top bin, dense design assembly, and a per-bin
thin QR of the piecewise-linear regression.  The QR is modified Gram-Schmidt
(the second column is centered against the bin mean explicitly, never via
sums of squares), augmented with the target as a third column: the squared
residuals it leaves are accumulated from the residual vectors themselves, so
a fit's residual norm needs no second bin lookup or prediction.

Bin lookup and the sort by bin are vectorized over the samples; the QR then
loops over the bins in Python, with vectorized sums inside each.  The fits
call it on one rng block of samples at a time and merge the per-bin factors
of consecutive blocks (``regress._binned_factors``).
"""
from __future__ import annotations

from typing import NamedTuple

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


def _sum_sq(a: np.ndarray) -> float:
    # not a @ a: BLAS threads its dot above 1e4 elements, and those threads
    # stall behind sweep workers that already keep every core busy
    return float(np.einsum("i,i->", a, a))


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


class BinnedQR(NamedTuple):
    """Per-bin factors of the augmented design [e0, e1, x]."""

    R: np.ndarray  # (K, 3): r11, r12, r22, nonnegative diagonal
    z: np.ndarray  # (K, 2): Q^T x in the bin's two directions
    counts: np.ndarray  # (K,): samples owned by each bin
    # (K, 2): squared residual norm of x in the bin after fitting e0 alone,
    # and after fitting [e0, e1] (r33^2 of the augmented QR; equal to the
    # first when r22 = 0)
    rss: np.ndarray
    rss_outside: float  # sum of x^2 over out-of-domain samples (fit is 0 there)


def binned_qr(edges, centers, norm0, norm1, u, x) -> BinnedQR:
    """Per-bin thin QR of the two-column design [e0, e1] against targets x,
    with the residuals each fit leaves (see ``BinnedQR``).

    The residual after both columns is x - z1 q1 - z2 q2, exactly the
    expression a prediction from the solved coefficients evaluates, so it
    holds even where q2 is numerically not orthogonal to q1 (a bin whose
    linear column is degenerate).  Such a bin's fit uses e0 alone, hence the
    first residual.
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
    rss = np.zeros((nbins, 2))

    # narrowest signed type holding keys + 1, so the stable argsort is a radix sort
    keys = _bin_keys(edges, u).astype(np.min_scalar_type(-nbins - 1), copy=False)
    order = np.argsort(keys, kind="stable")  # out-of-domain (-1) first
    u_s, x_s = u[order], x[order]
    # bin k is order[bounds[k]:bounds[k + 1]]; slot 0 counts out-of-domain
    bounds = np.cumsum(np.bincount(keys + 1, minlength=nbins + 1))
    rss_outside = _sum_sq(x_s[:bounds[0]])

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
        v = y - z1 / sq  # residual after q1
        rss1 = _sum_sq(v)
        if r22 > 0:
            v -= (z2 / r22) * w  # and after q2
        rss[k] = (rss1, _sum_sq(v))
    return BinnedQR(R, z, counts, rss, rss_outside)
