"""Reference code the tests check the package against, and subjects that
only tests reach.  No sweep or CLI verb takes these paths, so they live
with the tests, not in the package:

- dense references for the per-bin kernels and fits: the dense design
  matrix of the sieve basis, basis evaluation, least squares by
  column-pivoted QR, and the adaptive per-bin quadrature one bin at a time;
- one whole sample fitted alone (``fit_sample``), sliced into sample
  blocks (``sample_blocks``) as a batch of one fit, and any function of
  the feature as a Regress-Later target (``elementwise``);
- the JSON form of a basis, read back;
- a uniform law (``Uniform``), a second law to build a basis on;
- the log-normal transfer of a basis (``GbmTransition``,
  ``gbm_basis_condexp``), the closed form beside the package's Brownian one;
- Gram checks of a basis: the full Gram matrix by quadrature
  (``quadrature_gram``) and the sample Gram's distance from the identity
  and smallest eigenvalue (``gram_diagnostics``), from the kernel's
  per-bin factors;
- unconditioned draws of a Brownian feature (``simulate_terminal``,
  ``terminal_drawer``), and the Jensen check of a transfer on paired
  (state, continuation) draws (``jensen_check``);
- the rejection sampler that kept each round's hits by an index array and
  a gather (``block_rejection_by_index``);
- the per-bin QR kernel that took each segment's sums with one
  ``np.add.reduce`` per segment (``looped_binned_qr``).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np
import scipy.linalg

from reglater import _kernels, rng
from reglater._kernels import BinnedQR
from reglater._normal import ndtr
from reglater.basis import QUAD_TOL, SieveBasis, bin_quadrature, gauss_legendre
from reglater.condexp import BrownianTransition, condexp_estimate
from reglater.errors import ConfigurationError
from reglater.model import FeatureSpec, SampleSet
from reglater.payoff import PayoffSpec, oracle_conditional
from reglater.regress import COLUMN_NORM_TOL, RANK_TOL, predict


def first_fit(qr: BinnedQR) -> BinnedQR:
    """The factors of fit 0 of a batch, without the fit axis."""
    return BinnedQR(*(field[0] for field in qr))


def design_matrix(edges, centers, norm1, u) -> np.ndarray:
    """Dense (n, 2K) basis matrix; at most two nonzeros per row, interleaved
    as (indicator, centered-linear) per bin, the indicator sqrt(K)."""
    u = np.asarray(u, dtype=np.float64)
    nbins = len(centers)
    idx = _kernels.bin_indices(edges, u)
    out = np.zeros((u.size, 2 * nbins))
    inside = idx >= 0
    rows = np.nonzero(inside)[0]
    k = idx[inside]
    out[rows, 2 * k] = np.sqrt(nbins)
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
    mat = design_matrix(basis.edges, basis.centers, basis.norm1, arr)
    return mat[0] if np.ndim(u) == 0 else mat


class DegenerateDesignError(Exception):
    """``ols_fit``'s design has no usable column."""


class DenseFit(NamedTuple):
    """Coefficients of a dense least squares fit, its rank, the columns it
    dropped and its residual norm."""

    coefficients: np.ndarray
    rank: int
    dropped_columns: tuple[int, ...]
    residual_l2: float


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
    return DenseFit(coefficients=coef, rank=rank, dropped_columns=tuple(dropped),
                    residual_l2=float(np.linalg.norm(y - A @ coef)))


def basis_from_json_dict(doc: dict) -> SieveBasis:
    """The basis that ``SieveBasis.to_json_dict`` serialized."""
    return SieveBasis(np.asarray(doc["edges"]), np.asarray(doc["centers"]),
                      np.asarray(doc["norm1"]), doc["domain"]["mass"])


def sample_blocks(sample: SampleSet, block: int = rng.BLOCK_SIZE) -> Iterator[SampleSet]:
    """``sample`` in consecutive blocks of ``block`` samples, the last one
    shorter; a block carries its slice of the payoffs where the sample has
    them."""
    pays = sample.payoffs
    for lo in range(0, sample.n, block):
        yield SampleSet(sample.features[lo:lo + block],
                        None if pays is None else pays[lo:lo + block])


def fit_sample(fit: Callable, sample: SampleSet, basis: SieveBasis,
               block: int = rng.BLOCK_SIZE, target: Callable | None = None) -> np.ndarray:
    """The coefficients of ``fit`` of one whole sample: a batch of one fit
    on ``sample_blocks(sample, block)``.  ``regress_later_fit`` takes its
    ``target`` (an elementwise function in numpy's ``out=`` convention, see
    ``elementwise``); ``regress_now_fit`` reads the sample's payoffs."""
    extra = () if target is None else (target,)
    (coefficients,) = fit(sample_blocks(sample, block), basis, 1, *extra)
    return coefficients


def elementwise(g: Callable) -> Callable:
    """``g``, a function of a 1-D array of feature values, as a
    Regress-Later target: ``target(u, out=row)`` writes ``g(u)`` into
    ``row``."""
    def target(u, out):
        out[...] = g(u)
        return out

    return target


# ---------------------------------------------------------------------------
# a second law and a second transfer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    """Uniform law on [lower, upper]: all of its untruncated self, so its
    ``truncation_mass`` is 1."""

    lower: float
    upper: float
    truncation_mass = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)
                and self.lower < self.upper):
            raise ConfigurationError("uniform law requires finite lower < upper")

    def quantile(self, p: float) -> float:
        return self.lower + (self.upper - self.lower) * p

    def density(self, u):
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lower) & (u <= self.upper)
        return np.where(inside, 1.0 / (self.upper - self.lower), 0.0)

    def cdf(self, u: float) -> float:
        """P(U <= u) for u on the support."""
        return (u - self.lower) / (self.upper - self.lower)


@dataclass(frozen=True)
class GbmTransition:
    """S(T) | S(t) = s is log-normal with log-mean ln s - sigma^2 (T-t)/2."""

    t: float
    T: float
    sigma: float

    def __post_init__(self):
        if not (0 <= self.t < self.T):
            raise ConfigurationError("transition: requires 0 <= t < T")
        if not (self.sigma > 0):
            raise ConfigurationError("transition: requires sigma > 0")


def gbm_basis_condexp(transition: GbmTransition, basis: SieveBasis, state) -> np.ndarray:
    """``reglater.basis_condexp`` under a log-normal transition: partial
    moments on log-space edges."""
    spot = np.atleast_1d(np.asarray(state, dtype=np.float64))
    v = transition.sigma * np.sqrt(transition.T - transition.t)
    edges = basis.edges
    if np.any(edges <= 0):
        raise ConfigurationError("gbm transfer needs a positive basis domain")
    if np.any(spot <= 0):
        raise ConfigurationError("gbm state must be positive")
    m = np.log(spot) - 0.5 * v * v
    a = (np.log(edges[:-1])[None, :] - m[:, None]) / v
    b = (np.log(edges[1:])[None, :] - m[:, None]) / v
    mass = ndtr(b) - ndtr(a)
    level = spot[:, None] * (ndtr(b - v) - ndtr(a - v))  # E[S 1_bin | state]
    out = np.empty((spot.size, basis.dim))
    out[:, 0::2] = basis.norm0 * mass
    out[:, 1::2] = basis.norm1[None, :] * (level - basis.centers[None, :] * mass)
    return out[0] if np.ndim(state) == 0 else out


# ---------------------------------------------------------------------------
# Gram checks
# ---------------------------------------------------------------------------

def quadrature_gram(basis: SieveBasis, dist, nodes_per_bin: int = 64) -> np.ndarray:
    """Full 2K x 2K Gram matrix by per-bin Gauss-Legendre integration.

    Numeric check of the normalization at one fixed order: cross-bin entries
    are structurally zero (disjoint supports), within-bin entries are
    integrated against the density.
    """
    K = basis.K
    u, w = (a.reshape(K, nodes_per_bin) for a in bin_quadrature(basis, dist, nodes_per_bin))
    e0 = basis.norm0
    e1 = basis.norm1[:, None] * (u - basis.centers[:, None])
    G = np.zeros((2 * K, 2 * K))
    i = 2 * np.arange(K)
    G[i, i] = np.sum(w * e0 * e0, axis=1)
    G[i, i + 1] = G[i + 1, i] = np.sum(w * e0 * e1, axis=1)
    G[i + 1, i + 1] = np.sum(w * e1 * e1, axis=1)
    return G


class GramDiagnostics(NamedTuple):
    frobenius_dist: float
    lambda_min: float


def _gram_blocks_from_qr(R: np.ndarray, n: int) -> np.ndarray:
    """Per-bin 2x2 blocks of (1/n) E^T E recovered from the thin-QR factors
    (``R`` of shape (..., K, 3), leading axes kept)."""
    g = np.empty(R.shape)
    g[..., 0] = R[..., 0] ** 2 / n
    g[..., 1] = R[..., 0] * R[..., 1] / n
    g[..., 2] = (R[..., 1] ** 2 + R[..., 2] ** 2) / n
    return g


def _block_stats(blocks: np.ndarray) -> GramDiagnostics:
    """``GramDiagnostics`` of the per-bin blocks over the bin axis, one per
    entry of the leading axes (numpy values, not floats)."""
    b0, b1, b2 = blocks[..., 0], blocks[..., 1], blocks[..., 2]
    fro2 = np.sum((b0 - 1.0) ** 2 + 2.0 * b1 ** 2 + (b2 - 1.0) ** 2, axis=-1)
    tr = b0 + b2
    det = b0 * b2 - b1 ** 2
    lmin = np.min(0.5 * tr - np.sqrt(np.maximum(0.25 * tr**2 - det, 0.0)), axis=-1)
    return GramDiagnostics(np.sqrt(fro2), lmin)


def gram_diagnostics(basis: SieveBasis, sample) -> GramDiagnostics:
    """Frobenius distance of the sample Gram matrix from the identity and its
    smallest eigenvalue.  The Gram is block-diagonal (disjoint bin supports),
    so both statistics reduce to per-bin 2x2 blocks."""
    u = (sample.features if isinstance(sample, SampleSet)
         else np.asarray(sample, dtype=np.float64))
    n = u.shape[0]
    if n < basis.dim:
        warnings.warn(f"sample size {n} below basis dimension {basis.dim}: "
                      "Gram matrix is rank deficient", RuntimeWarning, stacklevel=2)
    qr = _kernels.binned_qr(basis.edges, basis.centers, basis.norm1, u, np.zeros(n), [n])
    return GramDiagnostics(*map(float, _block_stats(_gram_blocks_from_qr(qr.R[0], n))))


# ---------------------------------------------------------------------------
# unconditioned draws and the Jensen check
# ---------------------------------------------------------------------------

def terminal_drawer(feat: FeatureSpec):
    """Closure drawing m terminal values W(eval_time) from a generator."""
    scale = np.sqrt(feat.eval_time)
    return lambda gen, m: scale * gen.standard_normal(m)


def simulate_terminal(feat: FeatureSpec, n: int, seed: int):
    """n i.i.d. draws of the feature value; deterministic in (spec, n, seed).
    A ``terminal`` feature gives a ``SampleSet``; ``pair_u_T`` gives the
    arrays ``(states, continuations)`` of ``(W_u, W_T)``."""
    if n < 1:
        raise ConfigurationError("n: must be >= 1")
    if feat.kind == "pair_u_T":
        u, t = feat.intermediate_time, feat.eval_time
        z1 = rng.block_standard_normal(n, seed, "pair-u")
        z2 = rng.block_standard_normal(n, seed, "pair-T")
        w_u = np.sqrt(u) * z1
        return w_u, w_u + np.sqrt(t - u) * z2
    return SampleSet(rng.block_map(n, terminal_drawer(feat), seed, "terminal", feat.kind))


class JensenViolationError(Exception):
    """Sample estimate violates the conditional-expectation inequality."""


class JensenCheck(NamedTuple):
    mse_cond: float
    mse_payoff: float
    mse_payoff_stderr: float


def jensen_check(coefficients: np.ndarray, basis: SieveBasis, transition: BrownianTransition,
                 payoff: PayoffSpec, states, continuations, payoffs,
                 truth=None) -> JensenCheck:
    """Check that conditioning can only shrink the mean-square error.

    ``coefficients`` are those of the fit ``ghat``; ``states`` at t, matched
    time-T ``continuations`` and the ``payoffs`` of those.  Estimates
    E[(g_t - E[ghat | F_t])^2] and E[(X - ghat)^2] on the same draws and
    raises if the first exceeds the second by more than three standard
    errors of the payoff-space estimate.  ``truth`` overrides the
    oracle with a callable on states (needed when the payoff is an in-span
    function with no named oracle).
    """
    states = np.asarray(states, dtype=np.float64)
    n = states.size

    fitted = predict(basis, coefficients, continuations)
    sq_pay = (np.asarray(payoffs, dtype=np.float64) - fitted) ** 2
    mse_payoff = float(np.mean(sq_pay))
    stderr = float(np.std(sq_pay, ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    estimate = condexp_estimate(transition, basis, coefficients, states)
    if truth is None:
        target = oracle_conditional(payoff, transition.t, transition.T, states)
    else:
        target = np.asarray(truth(states), dtype=np.float64)
    mse_cond = float(np.mean((target - estimate) ** 2))

    if mse_cond > mse_payoff + 3.0 * stderr:
        raise JensenViolationError(
            f"conditional MSE {mse_cond:.6g} exceeds payoff MSE {mse_payoff:.6g} "
            f"+ 3 x {stderr:.2g}")
    return JensenCheck(mse_cond, mse_payoff, stderr)


# ---------------------------------------------------------------------------
# rejection sampling by index arrays
# ---------------------------------------------------------------------------

def block_rejection_by_index(n: int, propose, accept, *parts, rate: float,
                             first_block: int = 0) -> tuple[np.ndarray, int]:
    """``rng.block_rejection`` with each round's hits found as an index array
    (``np.nonzero``) and gathered by it, and the proposals a round examines
    read off the index of its ``need``-th hit: the same rounds, samples and
    count."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate!r}")
    out = []
    proposals = 0
    done = 0
    block = first_block
    while done < n:
        quota = min(rng.BLOCK_SIZE, n - done)
        gen = rng.substream(*parts, block)
        got = []
        have = 0
        while have < quota:
            cand = np.asarray(propose(gen, rng._round_size(quota - have, rate)),
                              dtype=np.float64)
            hits = np.nonzero(accept(cand))[0]
            if have + hits.size >= quota:
                need = quota - have
                proposals += int(hits[need - 1]) + 1  # proposals examined this round
                got.append(cand[hits[:need]])
                have = quota
            else:
                proposals += cand.size
                got.append(cand[hits])
                have += hits.size
        out.append(got[0] if len(got) == 1 else np.concatenate(got))
        done += quota
        block += 1
    if not out:
        return np.empty(0, dtype=np.float64), 0
    return (out[0] if len(out) == 1 else np.concatenate(out)), proposals


# ---------------------------------------------------------------------------
# the per-bin QR with one reduction per segment
# ---------------------------------------------------------------------------

def looped_binned_qr(edges, centers, norm1, u, x, sizes) -> BinnedQR:
    """``_kernels.binned_qr`` with the samples sorted without slots, counted
    by ``np.bincount``, and each non-empty segment's sums taken by its own
    ``np.add.reduce`` calls: the same factors, bit for bit."""
    edges, centers, norm1, u, x = map(_kernels._f64, (edges, centers, norm1, u, x))
    nbins = centers.size
    per_fit = np.asarray(sizes, dtype=np.intp)
    if np.sum(per_fit) != u.size:
        raise ValueError("binned_qr: sizes must add up to the number of samples")
    fits = per_fit.size
    segments = fits * nbins
    R = np.zeros((segments, 3))
    z = np.zeros((segments, 2))
    key_type = np.min_scalar_type(segments)
    offsets = None
    if fits > 1:
        offsets = np.repeat(np.arange(0, segments, nbins, dtype=key_type), per_fit)
    keys = _kernels._bin_keys(edges, u, key_type, offsets)
    counts = np.bincount(keys, minlength=segments + 1)
    if counts[0]:
        raise ConfigurationError(
            f"binned_qr: {counts[0]} of {u.size} samples lie outside the basis domain "
            f"[{edges[0]}, {edges[-1]}] or are NaN")
    order = np.argsort(keys, kind="stable")
    a = np.stack((u[order], x[order]))  # rows [u; x] in segment order
    counts = counts[1:]

    full = np.flatnonzero(counts)
    n = counts[full]
    lo = np.cumsum(counts)[full] - n  # where each non-empty segment starts in `a`
    k = full % nbins
    sq = np.sqrt(n)

    def sums(rows):  # per segment, one np.add.reduce of each row
        out = np.empty((lo.size, rows.shape[0]))
        for i, (start, size) in enumerate(zip(lo.tolist(), n.tolist())):
            np.add.reduce(rows[:, start:start + size], axis=1, out=out[i])
        return out

    a[0] -= np.repeat(centers[k], n)
    a[0] *= np.repeat(norm1[k], n)
    s1 = sums(a)
    r12 = s1[:, 0] / sq
    z1 = s1[:, 1] / sq
    a[0] -= np.repeat(r12 / sq, n)
    s2 = sums(np.multiply(a[0], a))
    r22 = np.sqrt(s2[:, 0])
    linear = r22 > 0
    z2 = np.divide(s2[:, 1], r22, out=np.zeros_like(r22), where=linear)
    R[full] = np.array((np.sqrt(nbins) * sq, r12, r22)).T
    z[full] = np.array((z1, z2)).T
    return BinnedQR(R.reshape(fits, nbins, 3), z.reshape(fits, nbins, 2))
