"""Hot kernels: bin lookup with a right-closed top bin, and the per-bin thin
QR of the piecewise-linear regression against its target.

Each kernel converts its own inputs to contiguous float64.  ``BACKEND``
names the implementation in reports.

The QR is modified Gram-Schmidt (the second column is centered against the
bin mean explicitly, never via sums of squares), with the target projected
on each bin's two directions.

A fit's samples lie in its basis domain: ``binned_qr`` refuses others (NaN
too), which ``bin_indices`` maps to -1.

One ``binned_qr`` call factors a batch of fits whose samples lie back to
back (``sizes``; one fit is a batch of one): each sample's sort key is its
bin offset by its fit, so the call sorts, reduces and factors every (fit,
bin) segment of the batch at once, with the same values in the same order
as separate calls would, and the same bits.  The sort puts a slot ahead of
each segment's samples: at +0.0, the slots let one ``np.add.reduceat`` sum
each segment with the bits of ``np.add.reduce`` (pairwise, as ``np.sum``),
so a call takes all its sums in three ``reduceat`` calls.  Bin lookup, the
sort and every elementwise step of the QR are whole-batch passes, with
per-segment scalars spread over each segment by ``np.repeat``.  Few calls
matter because each numpy call on a large array hands the GIL to the other
worker thread and back.  Beside its inputs a call peaks at three
block-lengths of float64: the sort order and the sorted rows [u; x] while
it gathers, then the rows and one spread or product row at a time.  The fits
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
    """Per-bin factors of the design [e0, e1] of a batch of fits, and its
    target's coordinates; every field has a leading fit axis.  A bin holds
    R[..., 0]**2 / K samples."""

    R: np.ndarray  # (fits, K, 3): r11, r12, r22, nonnegative diagonal
    z: np.ndarray  # (fits, K, 2): Q^T x in the bin's two directions


def binned_qr(edges, centers, norm1, u, x, sizes) -> BinnedQR:
    """Per-bin thin QR of the two-column design [e0, e1] against targets x
    (see ``BinnedQR``); e0 = sqrt(K) on bin k.

    ``u`` and ``x`` hold ``len(sizes)`` fits back to back, ``sizes[f]``
    samples for fit ``f``; each fit's factors are those of a call on its
    samples alone.  Every ``u`` lies in ``[edges[0], edges[-1]]``;
    ``ConfigurationError`` names how many do not (NaN among them).
    """
    edges, centers, norm1, u, x = map(_f64, (edges, centers, norm1, u, x))
    nbins = centers.size
    per_fit = np.asarray(sizes, dtype=np.intp)
    if np.sum(per_fit) != u.size:
        raise ValueError("binned_qr: sizes must add up to the number of samples")
    fits = per_fit.size
    segments = fits * nbins  # segment f * nbins + k is bin k of fit f
    if u.size == 0:
        return BinnedQR(np.zeros((fits, nbins, 3)), np.zeros((fits, nbins, 2)))

    # Key 1 + segment, in the narrowest unsigned type holding them, so the
    # stable argsort is a radix sort; key 0 (outside the domain) sorts first
    # and is refused.  The keys 1..segments ahead of the samples' are one
    # slot per segment, which the sort puts first in its segment.
    key_type = np.min_scalar_type(segments)
    offsets = None
    if fits > 1:
        offsets = np.repeat(np.arange(0, segments, nbins, dtype=key_type), per_fit)
    keys = np.empty(segments + u.size, key_type)
    keys[:segments] = np.arange(1, segments + 1)
    keys[segments:] = _bin_keys(edges, u, key_type, offsets)
    order = np.argsort(keys, kind="stable")
    del offsets, keys  # not held through the passes
    order -= segments  # a sample's index; negative at a slot
    pad = np.flatnonzero(order < 0)  # where each segment's slot lies
    if pad[0]:
        raise ConfigurationError(
            f"binned_qr: {pad[0]} of {u.size} samples lie outside the basis domain "
            f"[{edges[0]}, {edges[-1]}] or are NaN")
    n = np.diff(pad, append=order.size) - 1  # samples per segment
    rows = np.empty((2, order.size))  # [u; x] in segment order
    # mode="clip" only so that take writes straight into its out= buffer
    # (a slot takes sample 0); the sort order is dropped before the passes
    np.take(u, order, out=rows[0], mode="clip")
    np.take(x, order, out=rows[1], mode="clip")
    del order

    # Whole-batch passes, with each segment's scalars spread over its slot
    # and samples by np.repeat.  With its slot at +0.0, np.add.reduceat from
    # the slot gives a segment's samples the bits of np.add.reduce (pairwise,
    # as np.sum); an empty segment sums its slot alone, so its factors are 0.
    span = n + 1
    sq = np.sqrt(n)
    div = np.maximum(sq, 1.0)  # sq, or 1 in an empty segment, whose sums are 0
    rows[0] -= np.repeat(np.tile(centers, fits), span)  # row 0 becomes d = norm1 (u - c)
    rows[0] *= np.repeat(np.tile(norm1, fits), span)
    rows[:, pad] = 0.0
    s1 = np.add.reduceat(rows, pad, axis=1)  # [sum d, sum x]
    r12 = s1[0] / div
    z1 = s1[1] / div
    rows[0] -= np.repeat(r12 / div, span)  # w: MGS, subtract the q1 component elementwise
    rows[0, pad] = 0.0  # so the slots' products are +0.0 too
    s2 = np.empty((2, segments))  # [sum w w, sum w x], the products formed in one row
    prod = np.empty(rows.shape[1])
    for row, sums in zip(rows, s2):
        np.add.reduceat(np.multiply(rows[0], row, out=prod), pad, out=sums)
    del prod
    r22 = np.sqrt(s2[0])
    linear = r22 > 0
    z2 = np.divide(s2[1], r22, out=np.zeros_like(r22), where=linear)
    return BinnedQR(*(np.stack(cols, axis=-1).reshape(fits, nbins, -1) for cols in
                      ((np.sqrt(nbins) * sq, r12, r22), (z1, z2))))
