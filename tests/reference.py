"""Dense references that the tests check the per-bin kernels and fits
against: the dense design matrix of the sieve basis, basis evaluation, and
least squares by column-pivoted QR; the adaptive per-bin quadrature one bin
at a time; also the JSON forms of a basis (read back) and of a fit.  No
sweep takes these paths, so they live with the tests, not in the package."""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from reglater import _kernels
from reglater._kernels import BinnedQR
from reglater.basis import QUAD_TOL, BinPartition, SieveBasis, gauss_legendre
from reglater.errors import ConfigurationError, DegenerateDesignError
from reglater.regress import COLUMN_NORM_TOL, RANK_TOL, FitResult


def first_fit(qr: BinnedQR) -> BinnedQR:
    """The factors of fit 0 of a batch, without the fit axis."""
    return BinnedQR(*(field[0] for field in qr))


def design_matrix(edges, centers, norm0, norm1, u) -> np.ndarray:
    """Dense (n, 2K) basis matrix; at most two nonzeros per row, interleaved
    as (indicator, centered-linear) per bin."""
    u = np.asarray(u, dtype=np.float64)
    nbins = len(centers)
    idx = _kernels.bin_indices(edges, u)
    out = np.zeros((u.size, 2 * nbins))
    inside = idx >= 0
    rows = np.nonzero(inside)[0]
    k = idx[inside]
    out[rows, 2 * k] = np.asarray(norm0)[k]
    out[rows, 2 * k + 1] = np.asarray(norm1)[k] * (u[inside] - np.asarray(centers)[k])
    return out


def adaptive_bin_quad_per_bin(integrand, edges, dist, start: int = 16) -> np.ndarray:
    """``basis._adaptive_bin_quad`` one bin at a time: the same nodes,
    products and stopping rule, with ``integrand`` called on one bin."""
    rows = []
    for k in range(len(edges) - 1):
        mid, half = 0.5 * (edges[k + 1] + edges[k]), 0.5 * (edges[k + 1] - edges[k])
        prev = None
        n = start
        while True:
            xg, wg = gauss_legendre(n)
            u = (mid + half * xg)[None]
            values = np.reshape(integrand(np.array([k]), u), (-1, n))
            est = half * ((values * dist.density(u)) @ wg)
            if (prev is not None and np.max(np.abs(est - prev)) <= QUAD_TOL) or n >= 2048:
                break
            prev = est
            n *= 2
        rows.append(est)
    return np.array(rows)


def eval_basis(basis: SieveBasis, u) -> np.ndarray:
    """Basis vector(s) at u: zero outside the domain, at most two nonzero
    entries (the owning bin's pair), top bin right-closed."""
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    mat = design_matrix(basis.partition.edges, basis.centers, basis.norm0, basis.norm1, arr)
    return mat[0] if np.ndim(u) == 0 else mat


class DenseFit(NamedTuple):
    """Coefficients of a dense least squares fit plus rank / conditioning
    diagnostics, as in ``reglater.FitResult``."""

    coefficients: np.ndarray
    rank: int
    dropped_columns: tuple[int, ...]
    residual_l2: float
    gram_frobenius_dist: float
    gram_lambda_min: float
    n: int


def ols_fit(design_rows, targets) -> DenseFit:
    """Dense least squares via column-pivoted QR.

    Columns with norm below 1e-10 sqrt(N) (e.g. empty bins) and columns
    pivoted out at relative rank tolerance 1e-10 are dropped with exact zero
    coefficients.
    """
    A = np.asarray(design_rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    if A.ndim != 2 or A.shape[0] != y.shape[0]:
        raise ConfigurationError("design rows and targets disagree on the sample size")
    n, p = A.shape
    if n < 1:
        raise ConfigurationError("need at least one sample")
    norms = np.linalg.norm(A, axis=0)
    keep = np.nonzero(norms > COLUMN_NORM_TOL * np.sqrt(n))[0]
    if keep.size == 0:
        raise DegenerateDesignError("all design columns are numerically zero")
    Q, R, piv = scipy.linalg.qr(A[:, keep], mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        raise DegenerateDesignError("design has no usable pivot")
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    z = Q.T @ y
    sub = scipy.linalg.solve_triangular(R[:rank, :rank], z[:rank])
    coef = np.zeros(p)
    coef[keep[piv[:rank]]] = sub
    dropped = sorted(set(range(p)) - set(keep[piv[:rank]].tolist()))
    resid = y - A @ coef
    gram = A.T @ A / n
    eig = np.linalg.eigvalsh(gram)
    return DenseFit(
        coefficients=coef,
        rank=rank,
        dropped_columns=tuple(dropped),
        residual_l2=float(np.linalg.norm(resid)),
        gram_frobenius_dist=float(np.linalg.norm(gram - np.eye(p), "fro")),
        gram_lambda_min=float(eig[0]),
        n=n,
    )


def basis_from_json_dict(doc: dict) -> SieveBasis:
    """The basis that ``SieveBasis.to_json_dict`` serialized."""
    part = BinPartition(np.asarray(doc["edges"], dtype=np.float64), int(doc["K"]),
                        doc["domain"]["mass"])
    return SieveBasis(part, np.asarray(doc["centers"]), np.asarray(doc["norm0"]),
                      np.asarray(doc["norm1"]))


def fit_json_dict(fit: FitResult) -> dict:
    """A fit's coefficients and diagnostics as plain JSON values."""
    return {
        "mode": fit.mode,
        "n": fit.n,
        "rank": fit.rank,
        "dropped_columns": list(fit.dropped_columns),
        "residual_l2": fit.residual_l2,
        "gram_frobenius_dist": fit.gram_frobenius_dist,
        "gram_lambda_min": fit.gram_lambda_min,
        "coefficients": fit.coefficients.tolist(),
    }
