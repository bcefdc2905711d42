"""Numpy implementations of the hot kernels.

Bin lookup with a right-closed top bin, dense design assembly, and a per-bin
thin QR of the piecewise-linear regression.  The QR is modified Gram-Schmidt
(the second column is centered against the bin mean explicitly, never via
sums of squares), augmented with the target as a third column: the squared
residuals it leaves are accumulated from the residual vectors themselves, so
a fit's residual norm needs no second bin lookup or prediction.

Bin lookup, the sort by bin and every elementwise step of the QR are
whole-block passes over the samples, with per-bin scalars spread over each
bin's samples by ``np.repeat``; a non-empty bin costs two numpy reductions,
and the residuals one ``np.add.reduceat`` per block.  Few calls matter
because each numpy call on a large array hands the GIL to the other worker
thread and back.  The fits call it on one rng block of samples at a time
and merge the per-bin factors of consecutive blocks
(``regress._binned_factors``).
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
    rss = np.zeros((nbins, 2))

    # narrowest signed type holding keys + 1, so the stable argsort is a radix sort
    keys = _bin_keys(edges, u).astype(np.min_scalar_type(-nbins - 1), copy=False)
    order = np.argsort(keys, kind="stable")  # out-of-domain (-1) first
    # bin k is order[bounds[k]:bounds[k + 1]]; order[:bounds[0]] is out of domain
    bounds = np.searchsorted(keys[order], np.arange(nbins + 1, dtype=keys.dtype))
    counts = bounds[1:] - bounds[:-1]
    rss_outside = _sum_sq(x[order[:bounds[0]]])
    inside = order[bounds[0]:]

    # Whole-block passes over the in-domain samples in bin order, with each
    # non-empty bin's scalars spread over its samples by np.repeat; per bin
    # only the two reductions of _bin_sums, which give np.sum's bits.
    full = np.flatnonzero(counts)
    n = counts[full]
    lo = bounds[full] - bounds[0]  # where each non-empty bin starts in `inside`
    sq = np.sqrt(n)
    a = np.empty((2, inside.size))  # rows [d; x], d = norm1 (u - c)
    # mode="clip" only so that take writes straight into its out= buffer
    np.take(u, inside, out=a[0], mode="clip")
    a[0] -= np.repeat(centers[full], n)
    a[0] *= np.repeat(norm1[full], n)
    np.take(x, inside, out=a[1], mode="clip")
    s1 = _bin_sums(a, lo, n)  # [sum d, sum x]
    r12 = s1[:, 0] / sq
    z1 = s1[:, 1] / sq
    a[0] -= np.repeat(r12 / sq, n)  # w: MGS, subtract the q1 component elementwise
    s2 = _bin_sums(np.multiply(a[0], a), lo, n)  # [sum w w, sum w x]
    r22 = np.sqrt(s2[:, 0])
    linear = r22 > 0
    z2 = np.divide(s2[:, 1], r22, out=np.zeros_like(r22), where=linear)
    R[full] = np.array((norm0[full] * sq, r12, r22)).T
    z[full] = np.array((z1, z2)).T

    # residuals v = x - z1 q1 into row 1, and v - z2 q2 (= v where r22 = 0)
    # into row 0
    a[1] -= np.repeat(z1 / sq, n)
    a[0] *= np.repeat(np.divide(z2, r22, out=np.zeros_like(r22), where=linear), n)
    np.subtract(a[1], a[0], out=a[0])
    rss2, rss1 = np.add.reduceat(np.square(a, out=a), lo, axis=1)
    rss[full] = np.array((rss1, rss2)).T
    return BinnedQR(R, z, counts, rss, rss_outside)


def _bin_sums(rows: np.ndarray, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Sums of each row over the spans [lo, lo + n): one np.add.reduce per
    span, pairwise along each row, so the same bits as np.sum of the row's
    slice."""
    out = np.empty((lo.size, rows.shape[0]))
    for i, (start, size) in enumerate(zip(lo.tolist(), n.tolist())):
        np.add.reduce(rows[:, start:start + size], axis=1, out=out[i])
    return out
