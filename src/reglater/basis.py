"""Orthonormal piecewise-linear sieve basis on equal-probability bins.

The domain is split into K bins carrying mass 1/K each under the feature
law.  Bin k carries two functions: a normalized indicator (constant sqrt(K))
and a normalized centered-linear term.  With centers at the bin conditional
means and normalization constants from each bin's second moment the 2K
functions form an orthonormal system, so the population Gram matrix is the
identity and the sample Gram converges to it.  The bins' moments, the
projection coefficients and the approximation error are integrated bin by
bin in one adaptive Gauss-Legendre loop, ``_adaptive_bin_quad``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .distributions import TruncatedNormal
from .errors import BasisConstructionError, ConfigurationError
from .payoff import PayoffSpec, eval_payoff

ANALYTIC_MASS_TOL = 1e-12
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class SieveBasis:
    """K equal-probability bins over the fit domain ``[edges[0], edges[-1]]``,
    each bin's center and linear normalization, and the domain's mass under
    the untruncated law.  The indicator normalization is ``norm0`` = sqrt(K)
    on every bin."""

    edges: np.ndarray
    centers: np.ndarray
    norm1: np.ndarray
    mass: float

    def __post_init__(self):
        edges, centers, norm1 = (np.asarray(a, dtype=np.float64)
                                 for a in (self.edges, self.centers, self.norm1))
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise BasisConstructionError("basis: needs K+1 strictly increasing edges, K >= 1")
        if not (0 < self.mass <= 1):
            raise BasisConstructionError("basis: domain mass must lie in (0, 1]")
        K = edges.size - 1
        if centers.shape != (K,) or norm1.shape != (K,):
            raise BasisConstructionError("basis: per-bin arrays must have length K")
        if not np.all((edges[:-1] <= centers) & (centers <= edges[1:])):
            raise BasisConstructionError("basis: centers must lie inside their bins")
        if not np.all((norm1 > 0) & np.isfinite(norm1)):
            raise BasisConstructionError("basis: linear normalization must be positive and finite")
        for name, arr in (("edges", edges), ("centers", centers), ("norm1", norm1)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return self.edges.size - 1

    @property
    def dim(self) -> int:
        return 2 * self.K

    @property
    def norm0(self) -> float:
        return math.sqrt(self.K)

    def to_json_dict(self) -> dict:
        edges = self.edges.tolist()
        return {
            "K": self.K,
            "domain": {"a1": edges[0], "a2": edges[-1], "mass": self.mass},
            "edges": edges,
            "centers": self.centers.tolist(),
            "norm0": [self.norm0] * self.K,
            "norm1": self.norm1.tolist(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def build_basis(dist: TruncatedNormal, K: int) -> SieveBasis:
    """The basis on K bins under ``dist``: equal-probability edges from the
    law's inverse CDF, each bin's mass checked against 1/K by CDF
    differences; each bin's center is its conditional mean m1 / m0, and its
    ``norm1`` one over the root of its second moment about that center, both
    by per-bin quadrature."""
    if K < 1:
        raise ConfigurationError("K: must be >= 1")
    edges = np.array([dist.quantile(k / K) for k in range(K + 1)])
    edges[0], edges[-1] = dist.lower, dist.upper  # pin the outer edges exactly
    deviation = np.max(np.abs(np.diff(dist.cdf(edges)) - 1.0 / K))
    if deviation > ANALYTIC_MASS_TOL:
        raise BasisConstructionError(f"partition masses deviate from 1/K by {deviation:.2e} "
                                     f"(tolerance {ANALYTIC_MASS_TOL:.0e})")
    m01 = _adaptive_bin_quad(lambda ks, u: np.stack([np.ones_like(u), u], axis=1), edges, dist)
    c = m01[:, 1] / m01[:, 0]
    m2 = _adaptive_bin_quad(lambda ks, u: (u - c[ks, None]) ** 2, edges, dist)[:, 0]
    return SieveBasis(edges, c, 1.0 / np.sqrt(m2), dist.truncation_mass)


# ---------------------------------------------------------------------------
# per-bin quadrature and the admissible-growth net
# ---------------------------------------------------------------------------

def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The Legendre series with coefficients ``c`` (low degree first) at
    ``x``, by the Clenshaw recurrence of ``numpy.polynomial.legendre.legval``,
    operation for operation."""
    if c.size == 1:
        c0, c1 = c[0], 0.0
    else:
        c0, c1 = c[-2], c[-1]
        for nd in range(c.size - 1, 1, -1):
            c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=32)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1], computed once
    per order and shared (read-only).

    The rule is that of ``numpy.polynomial.legendre.leggauss``, bit for bit,
    by its operations without importing ``numpy.polynomial``: the
    eigenvalues of the symmetric companion matrix of P_n, one Newton step
    on P_n, and weights from P_{n-1} and P_n' scaled to sum to 2.
    """
    c = np.zeros(n + 1)
    c[n] = 1.0  # P_n
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    companion = np.zeros((n, n))
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    companion.reshape(-1)[1::n + 1] = off
    companion.reshape(-1)[n::n + 1] = off
    x = np.linalg.eigvalsh(companion)
    # P_n' = sum over j = n-1, n-3, ... of (2 j + 1) P_j
    d = np.zeros(n)
    d[n - 1::-2] = 2 * np.arange(n - 1, -1, -2) + 1
    dy = _legendre_series(x, c)
    df = _legendre_series(x, d)
    x -= dy / df
    fm = _legendre_series(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2  # symmetrize
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def bin_quadrature(basis: SieveBasis, dist: TruncatedNormal, nodes_per_bin: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ``nodes_per_bin`` nodes on every bin of
    ``basis``: the nodes, bin after bin, and their weights times the
    density of ``dist``.  ``sum(weights * f(nodes))`` is ``E[f(U)]``."""
    xg, wg = gauss_legendre(nodes_per_bin)
    edges = basis.edges
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel() * dist.density(nodes)
    return nodes, weights


def bin_central_moments(basis: SieveBasis, dist: TruncatedNormal) -> np.ndarray:
    """Per bin k (one row each), E[1_k(U) (U - c_k)^j] for j = 0..4."""
    powers = np.arange(5)[:, None]
    return _adaptive_bin_quad(lambda ks, u: (u - basis.centers[ks, None])[:, None] ** powers,
                              basis.edges, dist)


def h_tilde(basis: SieveBasis, dist: TruncatedNormal) -> float:
    """E[(e^T e)^2]; divided by N, the net controlling admissible growth of
    K with N.

    Disjoint supports reduce the square of the 2K-term sum to per-bin terms
    K^2 1_k + 2 K C1_k^2 1_k (U-c_k)^2 + C1_k^4 1_k (U-c_k)^4, from the
    bins' central moments (``bin_central_moments``).
    """
    K = basis.K
    total = 0.0
    for m, c1 in zip(bin_central_moments(basis, dist), basis.norm1):
        total += K * K * m[0] + 2.0 * K * c1 ** 2 * m[2] + c1 ** 4 * m[4]
    return float(total)


# ---------------------------------------------------------------------------
# projection coefficients and deterministic approximation error
# ---------------------------------------------------------------------------

def _as_function(g) -> Callable:
    """``g`` as an elementwise function of an array of any shape."""
    if isinstance(g, PayoffSpec):
        return lambda u: np.asarray(eval_payoff(g, u), dtype=np.float64)
    if callable(g):
        return lambda u: np.asarray(g(u.ravel()), dtype=np.float64).reshape(u.shape)
    raise ConfigurationError("expected a PayoffSpec or a callable")


def _adaptive_bin_quad(integrand: Callable, edges: np.ndarray, dist: TruncatedNormal,
                       start: int = 16) -> np.ndarray:
    """Per bin k between ``edges``, E[1_k(U) integrand(k, U)] for a
    vector-valued integrand, one row per bin.  ``integrand(ks, u)`` takes bin
    indices and their nodes (one row of ``u`` per bin) and gives one row of
    values per bin, or a stack of rows.  Gauss-Legendre on every bin from
    ``start`` nodes, doubling the order of each bin until its change falls
    below QUAD_TOL (at most 2048)."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    rows = {}
    todo = np.arange(mid.size)
    prev = None
    n = start
    while todo.size:
        xg, wg = gauss_legendre(n)
        u = mid[todo, None] + half[todo, None] * xg
        values = np.reshape(integrand(todo, u), (todo.size, -1, n))
        est = half[todo, None] * ((values * dist.density(u)[:, None]) @ wg)
        done = np.full(todo.size, n >= 2048)
        if prev is not None:
            done |= np.max(np.abs(est - prev), axis=1) <= QUAD_TOL
        rows.update(zip(todo[done], est[done]))
        todo, prev = todo[~done], est[~done]
        n *= 2
    return np.array([rows[k] for k in range(mid.size)])


def projection_coefficients(g, basis: SieveBasis, dist: TruncatedNormal) -> np.ndarray:
    """True (population) coefficients alpha_k = E[g e_k] by quadrature."""
    gf = _as_function(g)

    def moments(ks, u):
        gu = gf(u)
        return np.stack([gu, gu * (u - basis.centers[ks, None])], axis=1)

    pairs = _adaptive_bin_quad(moments, basis.edges, dist)
    alpha = np.empty(basis.dim)
    alpha[0::2] = basis.norm0 * pairs[:, 0]
    alpha[1::2] = basis.norm1 * pairs[:, 1]
    return alpha


@dataclass(frozen=True)
class ApproxErrorMoments:
    """Deterministic approximation error of the best K-term representation:
    l2 is the L2 norm, fourth_root the square root of the fourth moment."""

    l2: float
    fourth_root: float

    @property
    def mean_square(self) -> float:
        """Squared L2 error: the floor any Monte Carlo MSE plateaus at."""
        return self.l2 ** 2


def approx_error_moments(gT, basis: SieveBasis, dist: TruncatedNormal,
                         coefficients: np.ndarray | None = None) -> ApproxErrorMoments:
    """L2 and fourth-moment errors of the quadrature projection of gT."""
    gf = _as_function(gT)
    alpha = projection_coefficients(gf, basis, dist) if coefficients is None else coefficients

    def moments(ks, u):
        err = (gf(u) - (alpha[2 * ks] * basis.norm0)[:, None]
               - (alpha[2 * ks + 1] * basis.norm1[ks])[:, None] * (u - basis.centers[ks, None]))
        e2 = err * err
        return np.stack([e2, e2 * e2], axis=1)

    m2 = 0.0
    m4 = 0.0
    for pair in _adaptive_bin_quad(moments, basis.edges, dist):  # in bin order, not np.sum
        m2 += pair[0]
        m4 += pair[1]
    return ApproxErrorMoments(float(np.sqrt(max(m2, 0.0))), float(np.sqrt(max(m4, 0.0))))
