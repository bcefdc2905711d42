"""Hot kernels: bin lookup with a right-closed top bin, and the per-bin thin
QR of the piecewise-linear regression augmented with its target.

Each kernel converts its own inputs to contiguous float64.  ``BACKEND``
names the implementation in reports.

The QR is modified Gram-Schmidt (the second column is centered against the
bin mean explicitly, never via sums of squares), augmented with the target
as a third column: the squared residuals it leaves are accumulated from the
residual vectors themselves, so a fit's residual norm needs no second bin
lookup or prediction.

A fit's samples lie in its basis domain: ``binned_qr`` refuses others (NaN
too), which ``bin_indices`` maps to -1.

One ``binned_qr`` call factors a batch of fits whose samples lie back to
back (``sizes``; one fit is a batch of one): each sample's sort key is its
bin offset by its fit, so the call sorts, reduces and factors every (fit,
bin) segment of the batch at once, with the same values in the same order
as separate calls would, and the same bits.  Bin lookup, the sort and every
elementwise step of the QR are whole-batch passes over the samples, with
per-segment scalars spread over each segment's samples by ``np.repeat``; a
non-empty segment costs two numpy reductions, and the residuals one
``np.add.reduceat`` per call.  Few calls matter because each numpy call on a
large array hands the GIL to the other worker thread and back.  The fits
call it on one rng block of samples at a time, holding one repetition or
several short ones, and merge the per-bin factors of consecutive blocks
(``regress._binned_factors``).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ConfigurationError

BACKEND = "python"

# Up to this many bins a value's bin is counted from one comparison with
# every bin's left edge; above it, it is found by binary search.
COMPARE_MAX_BINS = 64


def _bin_keys(edges: np.ndarray, u: np.ndarray, dtype, offsets=None) -> np.ndarray:
    """Per value of a 1-D ``u``, one plus its bin (``bin_indices`` + 1) plus
    its entry of ``offsets``, or 0 outside the domain, as ``dtype``.

    Up to ``COMPARE_MAX_BINS`` bins the left edges at or below each value
    are counted by one broadcast comparison and one reduction, over at most
    ``rng.BLOCK_SIZE`` values at a time, so the (bins x values) mask stays
    within 4 MiB; NaN compares below every edge.  Then one mask clears the
    values above the top edge (and NaN, which binary search puts there).
    """
    left, top = edges[:-1], edges[-1]
    keys = np.empty(u.shape, dtype)
    for lo in range(0, u.size, rng.BLOCK_SIZE):
        v, k = u[lo:lo + rng.BLOCK_SIZE], keys[lo:lo + rng.BLOCK_SIZE]
        if left.size <= COMPARE_MAX_BINS:
            np.add.reduce(v >= left[:, None], axis=0, dtype=dtype, out=k)
        else:
            k[...] = np.searchsorted(left, v, side="right")
        k *= v <= top
        if offsets is not None:
            np.add(k, offsets[lo:lo + rng.BLOCK_SIZE], out=k, where=k > 0)
    return keys


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def bin_indices(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Owning bin per value: [b_k, b_{k+1}) except the last bin, which is
    right-closed; -1 outside the domain."""
    edges, u = _f64(edges), _f64(u)
    keys = _bin_keys(edges, u.reshape(-1), np.min_scalar_type(edges.size - 1))
    return np.subtract(keys, 1, dtype=np.int64).reshape(u.shape)


class BinnedQR(NamedTuple):
    """Per-bin factors of the augmented design [e0, e1, x] of a batch of
    fits; every field has a leading fit axis.  A bin holds R[..., 0]**2 / K samples."""

    R: np.ndarray  # (fits, K, 3): r11, r12, r22, nonnegative diagonal
    z: np.ndarray  # (fits, K, 2): Q^T x in the bin's two directions
    # (fits, K, 2): squared residual norm of x in the bin after fitting e0
    # alone, and after fitting [e0, e1] (r33^2 of the augmented QR; equal to
    # the first when r22 = 0)
    rss: np.ndarray


def binned_qr(edges, centers, norm1, u, x, sizes) -> BinnedQR:
    """Per-bin thin QR of the two-column design [e0, e1] against targets x,
    with the residuals each fit leaves (see ``BinnedQR``); e0 = sqrt(K) on bin k.

    ``u`` and ``x`` hold ``len(sizes)`` fits back to back, ``sizes[f]``
    samples for fit ``f``; each fit's factors and residuals are those of a
    call on its samples alone.  Every ``u`` lies in ``[edges[0], edges[-1]]``;
    ``ConfigurationError`` names how many do not (NaN among them).

    The residual after both columns is x - z1 q1 - z2 q2, exactly the
    expression a prediction from the solved coefficients evaluates, so it
    holds even where q2 is numerically not orthogonal to q1 (a bin whose
    linear column is degenerate).  Such a bin's fit uses e0 alone, hence the
    first residual.
    """
    edges, centers, norm1, u, x = map(_f64, (edges, centers, norm1, u, x))
    nbins = centers.size
    per_fit = np.asarray(sizes, dtype=np.intp)
    if np.sum(per_fit) != u.size:
        raise ValueError("binned_qr: sizes must add up to the number of samples")
    fits = per_fit.size
    segments = fits * nbins  # segment f * nbins + k is bin k of fit f
    R = np.zeros((segments, 3))
    z = np.zeros((segments, 2))
    rss = np.zeros((segments, 2))

    # Key 1 + segment, in the narrowest unsigned type holding them, so the
    # stable argsort is a radix sort; key 0 (outside the domain) is refused.
    key_type = np.min_scalar_type(segments)
    offsets = None
    if fits > 1:
        offsets = np.repeat(np.arange(0, segments, nbins, dtype=key_type), per_fit)
    keys = _bin_keys(edges, u, key_type, offsets)
    counts = np.bincount(keys, minlength=segments + 1)
    if counts[0]:
        raise ConfigurationError(
            f"binned_qr: {counts[0]} of {u.size} samples lie outside the basis domain "
            f"[{edges[0]}, {edges[-1]}] or are NaN")
    a = _sorted_rows(keys, u, x)  # rows [u; x] in segment order
    counts = counts[1:]

    # Whole-batch passes over the samples in segment order, with each
    # non-empty segment's scalars spread over its samples by np.repeat; per
    # segment only the two reductions of _bin_sums, which give np.sum's bits.
    full = np.flatnonzero(counts)
    n = counts[full]
    lo = np.cumsum(counts)[full] - n  # where each non-empty segment starts in `a`
    k = full % nbins
    sq = np.sqrt(n)
    a[0] -= np.repeat(centers[k], n)  # row 0 becomes d = norm1 (u - c)
    a[0] *= np.repeat(norm1[k], n)
    s1 = _bin_sums(a, lo, n)  # [sum d, sum x]
    r12 = s1[:, 0] / sq
    z1 = s1[:, 1] / sq
    a[0] -= np.repeat(r12 / sq, n)  # w: MGS, subtract the q1 component elementwise
    s2 = _bin_sums(np.multiply(a[0], a), lo, n)  # [sum w w, sum w x]
    r22 = np.sqrt(s2[:, 0])
    linear = r22 > 0
    z2 = np.divide(s2[:, 1], r22, out=np.zeros_like(r22), where=linear)
    R[full] = np.array((np.sqrt(nbins) * sq, r12, r22)).T
    z[full] = np.array((z1, z2)).T

    # residuals v = x - z1 q1 into row 1, and v - z2 q2 (= v where r22 = 0)
    # into row 0
    a[1] -= np.repeat(z1 / sq, n)
    a[0] *= np.repeat(np.divide(z2, r22, out=np.zeros_like(r22), where=linear), n)
    np.subtract(a[1], a[0], out=a[0])
    rss2, rss1 = np.add.reduceat(np.square(a, out=a), lo, axis=1)
    rss[full] = np.array((rss1, rss2)).T
    return BinnedQR(R.reshape(fits, nbins, 3), z.reshape(fits, nbins, 2),
                    rss.reshape(fits, nbins, 2))


def _sorted_rows(keys: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows [u; x] sorted by key (segment by segment, input order within
    each).  The sort order is dropped on return, before the passes that need
    the most memory."""
    order = np.argsort(keys, kind="stable")  # a radix sort for 8- and 16-bit keys
    rows = np.empty((2, u.size))
    # mode="clip" only so that take writes straight into its out= buffer
    np.take(u, order, out=rows[0], mode="clip")
    np.take(x, order, out=rows[1], mode="clip")
    return rows


def _bin_sums(rows: np.ndarray, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Sums of each row over the spans [lo, lo + n): one np.add.reduce per
    span, pairwise along each row, so the same bits as np.sum of the row's
    slice."""
    out = np.empty((lo.size, rows.shape[0]))
    for i, (start, size) in enumerate(zip(lo.tolist(), n.tolist())):
        np.add.reduce(rows[:, start:start + size], axis=1, out=out[i])
    return out
