"""The Cephes ports in ``reglater._normal`` against ``scipy.special``: bit
for bit, on drawn floats and at every branch point."""
import math

import numpy as np
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from reglater import _normal

# the branch points z = 1/sqrt(2), 1 and 8 of z = |a| / sqrt(2), and the
# MAXLOG underflow of erfc at z**2 = 709.78 (|a| about 37.7)
_BRANCHES = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                      math.sqrt(2.0 * 7.09782712893383996843E2)])
_NDTR_EDGES = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan],
    *[s * np.nextafter(_BRANCHES, d) for s in (1.0, -1.0) for d in (0.0, np.inf)],
    _BRANCHES, -_BRANCHES])
# exp(-2) and 1 - exp(-2) switch ndtri's branches, exp(-32) its tail tables
_LEVELS = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)])
_NDTRI_EDGES = np.concatenate([
    [0.0, -0.0, 1.0, 0.5, -0.1, 1.1, np.inf, -np.inf, np.nan],
    _LEVELS, np.nextafter(_LEVELS, 0.0), np.nextafter(_LEVELS, 1.0),
    [5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
     np.nextafter(1.0, 0.0)]])

_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(-40.0, 40.0))


def test_ndtr_edges_bit_equal():
    assert_array_equal(_normal.ndtr(_NDTR_EDGES), sc.ndtr(_NDTR_EDGES))


def test_ndtr_array_keeps_the_shape_and_error_state():
    a = np.linspace(-45.0, 45.0, 3000).reshape(3, 1000, 1)
    assert_array_equal(_normal.ndtr(a), sc.ndtr(a))
    extreme = np.array([1e300, -1e-310, 1e-160])  # z * z overflows, x and x * x underflow
    with np.errstate(all="raise"):
        got = _normal.ndtr(extreme)
    assert_array_equal(got, sc.ndtr(extreme))
    assert _normal.ndtr(np.empty((2, 0))).shape == (2, 0)
    assert _normal.ndtr(0.3).shape == () and _normal.ndtr(0.3) == sc.ndtr(0.3)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_floats, min_size=1, max_size=40))
def test_ndtr_bit_equal(values):
    a = np.array(values)
    assert_array_equal(_normal.ndtr(a), sc.ndtr(a))


def test_ndtri_edges_bit_equal():
    got = np.array([_normal.ndtri(p) for p in _NDTRI_EDGES])
    assert_array_equal(got, sc.ndtri(_NDTRI_EDGES))


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(0.0, 1e-300), st.floats(0.8, 1.0)))
def test_ndtri_bit_equal(p):
    assert_array_equal(_normal.ndtri(p), sc.ndtri(p))
