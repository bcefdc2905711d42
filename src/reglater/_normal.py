"""Standard normal density, CDF and quantile.

``ndtr`` and ``ndtri`` are ports of the Cephes routines ``ndtr`` (with the
``erf``/``erfc`` branches it reaches) and ``ndtri``, which ``scipy.special``
wraps: same tables, same Horner order, same branch points,
and every exponential and logarithm taken by the C library's ``exp``/``log``
through ``math``, as Cephes takes them.  Their values are bit for bit those
of ``scipy.special.ndtr``/``ndtri``, so the package imports without scipy and
a report does not depend on the installed scipy version.  ``np.exp`` is not
used for them: its SIMD implementation differs from libm in the last bit on
some inputs.

``ndtr`` takes an array of any shape and does its arithmetic with numpy (one
rounding per operation, as in C) but its exponentials one element at a time:
about 180 ns per element against scipy's 20-30, and 0.1-0.2 ms for a call on
a few values, on a 2-vCPU x86-64 VM; so keep it off per-repetition paths.
``ndtri`` takes one probability.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT2PI = np.sqrt(2.0 * np.pi)


def phi(z):
    """Standard normal density."""
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


# --- ndtr.c ----------------------------------------------------------------

_SQRTH = 7.07106781186547524401E-1  # 1 / sqrt(2)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) for x >= 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] in Horner order (floats or arrays)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf_inner(x):
    """Cephes ``erf`` for |x| <= 1 (odd: the sign passes through exactly)."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


_exp = np.frompyfunc(math.exp, 1, 1)


def ndtr(a) -> np.ndarray:
    """Standard normal CDF elementwise, of any shape (a float gives a 0-d
    array).  Its over- and underflows are Cephes' own and raise nothing."""
    with np.errstate(over="ignore", under="ignore"):
        x = np.asarray(a, dtype=np.float64) * _SQRTH
        z = np.abs(x)
        erfc = np.where(np.isnan(z), np.nan, 0.0)  # 0 where erfc underflows
        mid = (z >= _SQRTH) & (z < 1.0)
        erfc[mid] = 1.0 - _erf_inner(z[mid])
        tail = (z >= 1.0) & ~(z * z > _MAXLOG)
        zt = z[tail]
        below8 = zt < 8.0
        p = np.where(below8, _polevl(zt, _P), _polevl(zt, _R))
        q = np.where(below8, _p1evl(zt, _Q), _p1evl(zt, _S))
        erfc[tail] = _exp(-zt * zt).astype(np.float64) * p / q
        y = 0.5 * erfc
        y = np.where(x > 0, 1.0 - y, y)
        inner = z < _SQRTH
        y[inner] = 0.5 + 0.5 * _erf_inner(x[inner])
    return y


# --- ndtri.c ---------------------------------------------------------------

_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)

# |y - 1/2| <= 3/8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# z = sqrt(-2 log y) in [2, 8)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# z in [8, 64)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def ndtri(y0: float) -> float:
    """Standard normal quantile of one probability; NaN outside [0, 1]."""
    y = float(y0)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXPM2
    if upper:
        y = 1.0 - y
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return x if upper else -x
