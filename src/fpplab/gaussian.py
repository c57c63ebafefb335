"""Tail-accurate standard normal primitives on numpy alone.

Everything rests on the scaled complementary error function
erfcx(z) = exp(z^2) erfc(z) for z >= 0, which falls like 1/(z sqrt(pi))
where erfc itself underflows:

- erfcx is a 28-term Chebyshev series in t = (z - 3.75)/(z + 3.75), the
  map of Shepherd & Laframboise (Math. Comp. 36, 1981), for the quotient
  ((1 + 2z) erfcx(z) - 1) / (1 + t). The coefficients are Chebyshev
  interpolants on 96 nodes, computed once with mpmath at 60 digits; the
  tests recompute them. Expanding that quotient makes erfcx(0) exactly 1,
  so G(0) is exactly 1/2.
- The CDF takes one erfcx evaluation at |x|: the lower tail is
  exp(-x^2/2) erfcx(|x|/sqrt 2) / 2, so G(-x) = 1 - G(x) holds bit-exactly
  by construction. x^2 is split exactly into two doubles, so exp(-x^2/2)
  carries only the rounding of exp.
- log G(x) = log(erfcx(-x/sqrt 2)/2) - x^2/2 below 0, two terms of one sign
  that never underflow; above 0 it is log1p of minus the upper tail.
- The quantile works on the log scale: G^-1(log p) starts from the
  rational guess of Abramowitz & Stegun 26.2.23 in sqrt(-2 log p) (within
  4.5e-4) and takes two Newton steps on log G. log G is concave, so every
  step after the first lands left of the root and climbs to it.

The tests pin, against 50-digit mpmath: erfcx within 1e-15 relative for
z from 0 to 5e8; the lower tail of G within 1e-15 down to x = -37; log G
within 1e-14 for x from -1e4 to 8; the quantile within 1e-13 relative
(1e-15 absolute near 0) for log p from -1e4 to log(1/2), survival 1e-300
included. They also check agreement with scipy.special's erfcx, erfc,
log_ndtr and ndtri_exp on 10^5 seeded points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_LOG_HALF = math.log(0.5)

# erfcx series: map constant and coefficients c_0 .. c_27 of the T_j(t)
_ERFCX_K = 3.75
_ERFCX_CHEB = (
    0.5120425066443408, -0.6689271441538781, 0.3045891658577817,
    -0.10874945429472106, 0.03132962272804421, -0.007227128031978862,
    0.0012746286773240452, -0.00014845640350444572, 3.8358027364634595e-06,
    2.4453319814946833e-06, -4.4841072730680626e-07, -4.3391364137281085e-10,
    1.1550533604863971e-08, -1.1371546370133128e-09, -2.3230470840077275e-10,
    5.088401204858811e-11, 4.174917485862838e-12, -1.8579468017003905e-12,
    -6.99065115465104e-14, 6.682047510672361e-14, 1.3165242960379658e-15,
    -2.497284733063435e-15, -5.108059074972232e-17, 9.785580842515004e-17,
    3.733679031903111e-18, -3.9601883930340344e-18, -2.8741556470704057e-19,
    1.6033363384208054e-19,
)

# Abramowitz & Stegun 26.2.23: G^-1(p) ~ r(t) - t with t = sqrt(-2 log p),
# r(t) = (c0 + c1 t + c2 t^2) / (1 + d1 t + d2 t^2 + d3 t^3)
_AS_NUM = (2.515517, 0.802853, 0.010328)
_AS_DEN = (1.432788, 0.189269, 0.001308)
_NEWTON_STEPS = 2


def _erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) for finite z >= 0, by Clenshaw's recurrence on
    three reused buffers."""
    u = (z + z) / (z + _ERFCX_K)  # 1 + t, without the rounding of t
    t = u - 1.0
    t2 = t + t
    b1 = np.full_like(t, _ERFCX_CHEB[-1])
    b2 = np.zeros_like(t)
    buf = np.empty_like(t)
    for c in _ERFCX_CHEB[-2:0:-1]:
        np.multiply(t2, b1, out=buf)
        buf -= b2
        buf += c
        b1, b2, buf = buf, b1, b2
    np.multiply(t, b1, out=buf)
    buf -= b2
    buf += _ERFCX_CHEB[0]
    buf *= u
    buf += 1.0
    buf /= 1.0 + 2.0 * z
    return buf


def _exp_half_square(a: np.ndarray) -> np.ndarray:
    """exp(-a^2/2) to about an ulp for |a| <= 40: a*a = hi + lo exactly by
    Veltkamp's split of a, so the only rounding left is that of exp."""
    hi = a * a
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * a_hi - hi) + 2.0 * a_hi * a_lo) + a_lo * a_lo
    return np.exp(-0.5 * hi) * (1.0 - 0.5 * lo)


def gauss_pdf(x):
    """Standard normal density g(x)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x*x/2 overflows past |x| = 1.9e154, where g is 0
        out = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    return out if out.ndim else float(out)


def gauss_log_pdf(x):
    """log g(x), exact for any finite x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # log g is -inf past |x| = 1.9e154
        out = -0.5 * x * x - _LOG_SQRT_2PI
    return out if out.ndim else float(out)


def gauss_cdf(x):
    """Standard normal CDF G(x), symmetric by construction.

    The lower tail exp(-x^2/2) erfcx(|x|/sqrt 2) / 2 is relatively accurate
    down to the underflow threshold near x = -38; |x| is capped at 40,
    where it is 0, so x*x stays finite. G(-inf) = 0 and G(inf) = 1.
    """
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x), 40.0)
    tail = 0.5 * _exp_half_square(a) * _erfcx(a / _SQRT2)
    out = np.where(x < 0, tail, 1.0 - tail)
    return out if out.ndim else float(out)


def gauss_sf(x):
    """Survival function 1 - G(x), computed as G(-x)."""
    return gauss_cdf(np.negative(x))


def gauss_log_cdf(x):
    """log G(x) without underflow in the lower tail.

    Past x = 40 the upper tail is 0 and log G is 0, so x is capped there;
    the erfcx argument is capped at 1e300, where log G is -x^2/2 to every
    digit, so log G(-inf) is -inf and no log of 0 is taken.
    """
    x = np.asarray(x, dtype=float)
    s = np.minimum(x, 40.0)
    e = _erfcx(np.minimum(np.abs(s), 1e300) / _SQRT2)
    upper = np.log1p(-0.5 * _exp_half_square(np.maximum(s, 0.0)) * e)
    with np.errstate(over="ignore"):  # log G is -inf past x = -1.9e154
        lower = np.log(0.5 * e) - 0.5 * s * s
    out = np.where(s < 0, lower, upper)
    return out if out.ndim else float(out)


def _lower_quantile(logp: np.ndarray) -> np.ndarray:
    """G^-1 of finite log probabilities no larger than log(1/2).

    A Newton step on log G at x <= 0 is x - (log G(x) - log p) G(x)/g(x),
    and G/g = sqrt(pi/2) erfcx(-x/sqrt 2) there, so each step costs one
    erfcx. The guess is capped at 0 to keep every iterate in the lower half;
    r is evaluated in u = 1/t, so t^3 never overflows.
    """
    t = _SQRT2 * np.sqrt(-logp)
    u = 1.0 / t
    c0, c1, c2 = _AS_NUM
    d1, d2, d3 = _AS_DEN
    r = u * (c2 + u * (c1 + u * c0)) / (d3 + u * (d2 + u * (d1 + u)))
    x = np.minimum(r - t, 0.0)
    for _ in range(_NEWTON_STEPS):
        e = _erfcx(x / -_SQRT2)
        x = x - (np.log(0.5 * e) - 0.5 * x * x - logp) * (_SQRT_HALF_PI * e)
    return x


def gauss_quantile_from_log_cdf(logp):
    """G^-1 applied to a log probability.

    Accepts arbitrarily negative log probabilities, down to log p = -inf,
    which gives -inf. Above log(1/2) the complement is solved, as
    G^-1(p) = -G^-1(1 - p) with log(1 - p) = log(-expm1(log p)).
    """
    logp = np.asarray(logp, dtype=float)
    if np.any(logp >= 0.0):
        raise DomainError("log probability must be negative")
    upper = logp > _LOG_HALF
    tail = np.where(upper, np.log(-np.expm1(logp)), logp) if upper.any() else logp
    live = np.isfinite(tail)
    x = _lower_quantile(np.where(live, tail, _LOG_HALF))
    x = np.where(live, np.where(upper, -x, x), tail)
    return x if x.ndim else float(x)


def gauss_quantile(p: float) -> float:
    """G^-1(p) for p in (0, 1).

    For p below 1/2 the log-scale path is used directly; above 1/2 the
    symmetric tail is inverted, which is as accurate as the rounding of
    1 - p permits.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile argument must lie in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return float(gauss_quantile_from_log_cdf(math.log(p)))
    return -float(gauss_quantile_from_log_cdf(math.log1p(-p)))


def tail_asymptotic_ratio(y: float) -> float:
    """Ratio of g(G^-1(y)) to its two-term lower-tail estimate.

    The estimate is y*sqrt(-2*log(y*sqrt(-2*log y))): the one-term form
    y*sqrt(-2*log y) fed back through itself once.  The ratio tends to 1
    as y -> 0 and is within 2 percent of 1 already at y = 1e-8, whereas
    the one-term normalizer is still 5 percent off there.
    """
    if not (0.0 < y < 0.1):
        raise DomainError(f"tail ratio is defined for y in (0, 0.1), got {y!r}")
    logy = math.log(y)
    x = gauss_quantile_from_log_cdf(logy)
    num = math.exp(gauss_log_pdf(x))
    one_term = y * math.sqrt(-2.0 * logy)
    denom = y * math.sqrt(-2.0 * math.log(one_term))
    return num / denom
