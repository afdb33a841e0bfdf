"""Standard normal CDF and quantile in numpy: ports of Cephes ``ndtr`` and ``ndtri``.

These are the routines of Moshier's Cephes library that ``scipy.special``
ships, with the same coefficients, branch points and Horner order, so that
``import pitcal`` needs numpy alone. Measured against scipy 1.17.1:

- ``ndtri`` is bit-identical on the central region e^-2 < y <= 1 - e^-2. In
  the tails, which read sqrt(-2 log y), 99.99% of 1.4 million inputs agree
  exactly and the rest by at most 4 ulp, where ``np.log`` and libm's ``log``
  round differently.
- ``ndtr`` is bit-identical for |a| < sqrt(2), where it reads erf, and
  within 6e-16 relative elsewhere down to 1e-300, where it reads ``np.exp``.

Each routine picks one of three rational approximations per element. Rather
than one pass per region, every element takes its region's coefficients in
one gather and all elements run one Horner loop: a few dozen numpy operations per
block of :func:`pitcal.grid.map_row_blocks`, each element gathering a (9, 2) table.
"""

from __future__ import annotations

import numpy as np

from .grid import map_row_blocks

__all__ = ["ndtr", "ndtri"]

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)  # the standard normal density's constant
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2

# ndtri, |y - 0.5| <= 1/2 - exp(-2)
_P0 = [-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0]
_Q0 = [1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0]
# ndtri, sqrt(-2 log y) in [2, 8)
_P1 = [4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4]
_Q1 = [1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4]
# ndtri, sqrt(-2 log y) >= 8
_P2 = [3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9]
_Q2 = [6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9]
# erfc, 1 <= x < 8
_P = [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2]
_Q = [1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2]
# erfc, x >= 8
_R = [5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0]
_S = [2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0]
# erf, |x| < 1, in x^2
_T = [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4]
_U = [3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4]


def _table(*pairs) -> np.ndarray:
    """Horner coefficients of (numerator, monic denominator) pairs, shape (9, 2, len(pairs)).

    Cephes' denominators leave their leading 1 implicit; it is written out here.
    Leading zeros pad every row to nine steps: from a zero accumulator a step
    adds its coefficient exactly, so each row rounds as Cephes' own loop does.
    """
    rows = [[[0.0] * (9 - len(p)) + p, [0.0] * (8 - len(q)) + [1.0] + q] for p, q in pairs]
    return np.array(rows).transpose(2, 1, 0).copy()


# column 1 is the central branch (ndtri's P0/Q0, ndtr's erf), columns 0 and 2 the
# tails below and from x = 8
_NDTRI = _table((_P1, _Q1), (_P0, _Q0), (_P2, _Q2))
_NDTR = _table((_P, _Q), (_T, _U), (_R, _S))


def _rational(table: np.ndarray, region: np.ndarray, v: np.ndarray, lead: np.ndarray):
    """``lead * p(v) / q(v)``, each element's (p, q) being column ``region`` of ``table``."""
    acc, *steps = np.take(table, region, axis=-1)
    # v once per row of acc: numpy's same-shape loops run much faster than its broadcasting
    v = np.array((v, v))
    for c in steps:
        acc *= v
        acc += c
    return lead * acc[0] / acc[1]


def ndtri(y):
    """Standard normal quantile: 0 gives -inf, 1 gives inf, NaN or y outside [0, 1] gives NaN."""
    y = np.asarray(y, dtype=float)
    return map_row_blocks(_ndtri, _NDTRI[..., 0].size, y.reshape(-1)).reshape(y.shape)[()]


def _ndtri(y):
    w = y - 0.5
    central = (y > _EXPM2) & (y <= 1.0 - _EXPM2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the tails read x = sqrt(-2 log t) of the nearer tail mass t; inf at t = 0
        x = np.sqrt(-2.0 * np.log(np.minimum(y, 1.0 - y)))
        v = np.where(central, w * w, 1.0 / x)
        ratio = _rational(_NDTRI, central + 2 * (x >= 8.0), v, v)
        # the cap makes x = inf give inf instead of inf/inf; finite x has log(x) < 4
        tail = np.copysign(x - np.minimum(np.log(x), 1e300) / x - ratio, w)
        return np.where(central, (w + w * ratio) * _S2PI, tail)


def ndtr(a):
    """Standard normal CDF.

    With x = a / sqrt(2): 0.5 + erf(x)/2 for |a| < 1, else erfc(|x|)/2 or its complement.
    """
    a = np.asarray(a, dtype=float)
    return map_row_blocks(_ndtr, _NDTR[..., 0].size, a.reshape(-1)).reshape(a.shape)[()]


def _ndtr(a):
    x = a * _SQRT1_2
    z = np.abs(x)
    erf_side = z < 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        s = x * x
        # Cephes flushes exp(-z^2) below exp(-MAXLOG) to 0
        e = np.exp(-s) * (s <= _MAXLOG)
        # capping z keeps inf out of the polynomials; e is 0 there anyway
        v = np.where(erf_side, s, np.minimum(z, 40.0))
        # erf(x) on the erf side, erfc(z) beyond it
        r = _rational(_NDTR, erf_side + 2 * (z >= 8.0), v, np.where(erf_side, x, e))
        half = 0.5 * np.where(erf_side, 1.0 - np.abs(r), r)
        return np.where(z < _SQRT1_2, 0.5 + 0.5 * r, np.where(x > 0.0, 1.0 - half, half))
