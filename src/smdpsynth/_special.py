"""Log-gamma and digamma of a finite positive float, in pure Python.

A port of the Cephes routines `lgam` and `psi` (S. L. Moshier, *Methods
and Programs for Mathematical Functions*, 1989) as SciPy ships them (its
`special.gammaln` and `special.psi`), restricted to x > 0: the same
coefficients, the same branches and the same IEEE operations in the same
order, so each function returns bit for bit what SciPy returns.
`tests/test_special.py` checks that on every integer 1..200,000 and on
log-uniform reals from 1e-3 to 1e18. The caller checks the domain.
"""

from __future__ import annotations

import math

# lgam: Stirling correction for 13 <= x < 1000, and the rational
# approximation of log gamma(2 + x) on 0 <= x < 1 (C monic)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178          # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

# psi: asymptotic series, and the rational approximation on [1, 2] about
# the positive root of digamma (from Boost; Y is a single-precision value)
_EULER = 0.57721566490153286061
_PSI_A = (8.33333333333333333333E-2, -2.10927960927960927961E-2,
          7.57575757575757575758E-3, -4.16666666666666666667E-3,
          3.96825396825396825397E-3, -8.33333333333333333333E-3,
          8.33333333333333333333E-2)
_PSI_P = (-0.0020713321167745952, -0.045251321448739056,
          -0.28919126444774784, -0.65031853770896507,
          -0.32555031186804491, 0.25479851061131551)
_PSI_Q = (-0.55789841321675513e-6, 0.0021284987017821144,
          0.054151797245674225, 0.43593529692665969, 1.4606242909763515,
          2.0767117023730469, 1.0)
_PSI_Y = 0.99558162689208984
_ROOT1 = 1569415565.0 / 1073741824.0
_ROOT2 = (381566830.0 / 1073741824.0) / 1073741824.0
_ROOT3 = 0.9016312093258695918615325266959189453125e-19


def _polevl(x, coef):
    """Horner's rule from the leading coefficient coef[0]."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """`_polevl` with an implied leading coefficient 1.0."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def gammaln(x: float) -> float:
    """log(gamma(x)) for a finite float x > 0 (Cephes `lgam`)."""
    if x < 13.0:
        # shift u = x + p into [2, 3), z the product of the shifts
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p
               - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def psi(x: float) -> float:
    """The digamma function d/dx log(gamma(x)) for a finite float x > 0
    (Cephes `psi`)."""
    y = 0.0
    if x <= 10.0 and x == math.floor(x):
        for i in range(1, int(x)):
            y += 1.0 / i
        return y - _EULER
    # the recurrence moves x into [1, 2]
    if x < 1.0:
        y -= 1.0 / x
        x += 1.0
    elif x < 10.0:
        while x > 2.0:
            x -= 1.0
            y += 1.0 / x
    if 1.0 <= x <= 2.0:
        g = x - _ROOT1
        g -= _ROOT2
        g -= _ROOT3
        r = _polevl(x - 1.0, _PSI_P) / _polevl(x - 1.0, _PSI_Q)
        return y + (g * _PSI_Y + g * r)
    # x > 10 (y is still 0.0): the asymptotic series
    if x < 1.0e17:
        z = 1.0 / (x * x)
        t = z * _polevl(z, _PSI_A)
    else:
        t = 0.0
    return math.log(x) - 0.5 / x - t
