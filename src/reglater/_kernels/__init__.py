"""Hot kernels: bin lookup, dense design assembly and the per-bin QR of the
piecewise-linear regression augmented with its target (see ``_py``).

Callers go through the wrappers below, which hand the implementation
contiguous float64 arrays.  ``BACKEND`` names the implementation in reports.
"""
from __future__ import annotations

import numpy as np

from . import _py as _impl

BACKEND = "python"


def _as_f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def bin_indices(edges, u):
    return _impl.bin_indices(_as_f64(edges), _as_f64(u))


def design_matrix(edges, centers, norm0, norm1, u):
    return _impl.design_matrix(_as_f64(edges), _as_f64(centers), _as_f64(norm0),
                               _as_f64(norm1), _as_f64(u))


def binned_qr(edges, centers, norm0, norm1, u, x, sizes=None):
    """Factors of one fit, or of ``len(sizes)`` fits back to back in ``u``
    and ``x`` (see ``_py.binned_qr``)."""
    return _impl.binned_qr(_as_f64(edges), _as_f64(centers), _as_f64(norm0),
                           _as_f64(norm1), _as_f64(u), _as_f64(x),
                           None if sizes is None else np.asarray(sizes, dtype=np.intp))
