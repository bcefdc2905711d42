"""The two estimator assemblies: least squares on the sieve basis.

``regress_later_fit`` / ``regress_now_fit`` exploit the disjoint bin
supports of the sieve basis: the global least squares problem decouples into
per-bin two-column problems, solved from the kernel's per-bin thin-QR
factors (identical solution to a global orthogonal decomposition).  Empty
bins and numerically degenerate linear columns are dropped at a 1e-10
relative tolerance: their coefficients are zero.  A fit's samples, drawn
from the law its basis is built on, lie in the basis domain (the kernel
refuses others).  A fit returns its coefficients alone.

The two fits differ in their input.  Regress-Later's target is a known
function of the feature it regresses on, so it is passed as that function
and the kernel evaluates it on each block's features in bin order: no block
carries a target array.  Regress-Now's target is drawn beside its feature,
so it is read from each block's payoffs.

A fit takes its samples as an iterable of sample blocks (for example a
generator, so only one block is ever held), and a batch of ``fits`` fits on
one basis: every block holds each fit's samples back to back, in equal
shares, the kernel factors every bin of every fit in one call per block,
and each bin's factors are merged in block order (TSQR).  The per-bin
solves are array operations over all fits.  Each fit's coefficients are bit
for bit those of its samples alone in the same blocks.  A fit of one block
is one kernel pass; more blocks agree with one pass to rounding error (both
are backward stable).
"""
from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from . import _kernels
from ._kernels import BinnedQR
from .basis import SieveBasis
from .errors import ConfigurationError
from .model import SampleSet

COLUMN_NORM_TOL = 1e-10
RANK_TOL = 1e-10
# Block factors merged by one batched QR: fewer, larger merges cost less
# interpreter time (which threads cannot share), and the held factors stay
# O(K) at any N.
MERGE_BLOCKS = 32


def predict(basis: SieveBasis, coefficients: np.ndarray, u) -> np.ndarray:
    """Fitted piecewise-linear function at u (zero outside the domain)."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    idx = _kernels.bin_indices(basis.edges, arr)
    out = np.zeros(arr.shape)
    inside = idx >= 0
    k = idx[inside]
    out[inside] = (coefficients[2 * k] * basis.norm0
                   + coefficients[2 * k + 1] * basis.norm1[k] * (arr[inside] - basis.centers[k]))
    return float(out[0]) if np.ndim(u) == 0 else out


def _merged(parts: list[BinnedQR]) -> BinnedQR:
    """The factors of consecutive sample blocks of a batch of fits merged
    into those of their union: each bin's QR of its blocks' triangular
    factors stacked in block order, a TSQR step (Demmel, Grigori, Hoemmen &
    Langou, SISC 2012).

    Each block enters as the 3x3 factor of [e0 e1 x] with a zero third row:
    a Householder QR leaves the first two rows of its ``x`` column
    independent of that row.  Where a block's linear column is degenerate
    (``r22`` within ``RANK_TOL`` of its column norm, e.g. one distinct
    value), its ``q2`` means nothing: the kernel's ``z2`` then does not
    factor the block's Gram matrix, so its factor takes ``z2`` as 0.  That
    drops ``q2 . x``, at most ``r22`` times the block's residual after
    ``e0``.  Every sample lies in some bin, so these are all the factors
    there are to merge.
    """
    R = np.stack([p.R for p in parts], axis=-2)  # (fits, K, blocks, 3)
    z = np.stack([p.z for p in parts], axis=-2)
    lead, m = R.shape[:-2], R.shape[-2]
    degenerate = R[..., 2] <= RANK_TOL * np.hypot(R[..., 1], R[..., 2])
    f = np.zeros((*lead, m, 3, 3))
    f[..., 0, :] = np.stack((R[..., 0], R[..., 1], z[..., 0]), axis=-1)
    f[..., 1, 1] = R[..., 2]
    f[..., 1, 2] = np.where(degenerate, 0.0, z[..., 1])
    T = np.linalg.qr(f.reshape(-1, 3 * m, 3), mode="r")
    T *= np.where(np.diagonal(T, axis1=1, axis2=2) < 0.0, -1.0, 1.0)[:, :, None]
    T = T.reshape(*lead, 3, 3)
    return BinnedQR(R=T[..., [0, 0, 1], [0, 1, 1]], z=T[..., [0, 1], [2, 2]])


def _binned_factors(blocks: Iterable[SampleSet], basis: SieveBasis, fits: int,
                    target: Callable | None = None) -> tuple[BinnedQR, int]:
    """``_kernels.binned_qr`` folded over the sample blocks, with the sample
    count of one fit.  The kernel regresses ``target``, an elementwise
    function of the feature, or each block's payoffs where it is None.

    Every block holds ``fits`` fits' samples back to back, in equal shares,
    and the factors carry a leading fit axis.  Block factors are merged in
    block order, ``MERGE_BLOCKS`` at a time into the merged factor so far,
    which keeps the result a pure function of the samples and the held
    factors O(K).  Only one block of samples is held: each is let go of
    before the next is drawn.  With one block nothing is merged: the result
    is the kernel's own.
    """
    parts: list[BinnedQR] = []
    n = 0
    for block in blocks:
        size, rest = divmod(block.n, fits)
        if rest:
            raise ConfigurationError(f"a block of {block.n} samples does not hold "
                                     f"{fits} fits of equal size")
        parts.append(_kernels.binned_qr(
            basis.edges, basis.centers, basis.norm1, block.features,
            _targets(block) if target is None else target, np.full(fits, size)))
        del block  # freed before the next block is drawn
        n += size
        if len(parts) > MERGE_BLOCKS:
            parts = [_merged(parts)]
    if n == 0:
        raise ConfigurationError("need at least one sample")
    return (parts[0] if len(parts) == 1 else _merged(parts)), n


def _fit_on_basis(blocks: Iterable[SampleSet], basis: SieveBasis, fits: int,
                  target: Callable | None = None) -> np.ndarray:
    """The fits of a batch (see ``_binned_factors``), solved bin by bin with
    array operations over every bin of every fit: one read-only row of
    coefficients per fit.  Each fit holds a sample, in some bin, so it keeps
    a column there (``r11 >= sqrt(K)``, far above the column floor)."""
    if isinstance(fits, bool) or not isinstance(fits, int) or fits < 1:
        raise ConfigurationError(f"fits: must be a positive int, got {fits!r}")
    qr, n = _binned_factors(blocks, basis, fits, target)
    r11, r12, r22 = qr.R[..., 0], qr.R[..., 1], qr.R[..., 2]
    z0, z1 = qr.z[..., 0], qr.z[..., 1]
    floor = COLUMN_NORM_TOL * np.sqrt(n)
    empty = r11 <= floor  # empty bin: both columns gone
    # centered-linear column degenerate within the bin: the fit uses e0 alone
    linear = ~empty & ~(r22 <= np.maximum(RANK_TOL * np.hypot(r12, r22), floor))
    a1 = np.divide(z1, r22, out=np.zeros_like(r22), where=linear)
    a0 = np.divide(np.where(linear, z0 - r12 * a1, z0), r11, out=np.zeros_like(r11),
                   where=~empty)
    coef = np.stack((a0, a1), axis=-1).reshape(fits, -1)
    coef.setflags(write=False)
    return coef


def _targets(sample: SampleSet) -> np.ndarray:
    if sample.payoffs is None:
        raise ConfigurationError("sample carries no payoffs to regress")
    return sample.payoffs


def regress_later_fit(blocks: Iterable[SampleSet], basis: SieveBasis, fits: int,
                      target: Callable) -> np.ndarray:
    """Regress ``target`` of the feature on basis functions of that feature.

    ``blocks`` is an iterable of sample blocks, each holding ``fits`` (a
    positive int) fits' samples back to back, in equal shares; all are
    factored in one kernel call per block, and only their features are
    read.  ``target`` is an elementwise function in numpy's ``out=``
    convention, such as ``np.tanh`` or ``functools.partial(eval_payoff,
    spec)``: the kernel writes the targets of a block's features, in bin
    order, with ``target(values, out=row)``, so no target array is held.
    Returns the coefficients, a read-only float64 array of shape ``(fits,
    2K)``: row ``f`` is the fit of fit ``f``'s samples alone.
    ``ConfigurationError`` where a sample lies outside the basis domain or
    its target is not finite (failing the whole batch), or the blocks hold
    no sample.
    """
    if not callable(target):
        raise ConfigurationError("target: must be an elementwise function of the feature")
    return _fit_on_basis(blocks, basis, fits, target)


def regress_now_fit(blocks: Iterable[SampleSet], basis: SieveBasis,
                    fits: int) -> np.ndarray:
    """Regress the payoff on basis functions of the earlier-date feature.

    ``blocks`` are payoff-bearing sample blocks; ``fits``, the coefficients
    and refusals as for ``regress_later_fit``.  The payoff is not a function
    of the feature, so it is read from each block, and it carries an
    irreducible projection error.
    """
    return _fit_on_basis(blocks, basis, fits)


def coefficient_error(coefficients: np.ndarray, alpha: np.ndarray) -> float:
    """(alpha_hat - alpha)^T (alpha_hat - alpha) of fitted ``coefficients``
    against the true coefficients ``alpha``; dropped coordinates enter at
    zero."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != coefficients.shape:
        raise ConfigurationError("coefficient vectors disagree in length")
    diff = coefficients - alpha
    return float(diff @ diff)
