"""Tail-accurate standard normal primitives.

The quantile is computed on the log scale: ``ndtri_exp`` inverts
``log_ndtr`` and one or two Newton corrections on log(G) polish the result.
This keeps compositions like G^-1(H(y)) meaningful for probabilities as
small as 1e-300, far past where the plain probability-space inverse runs
out of precision.

The CDF is built from a single erfc evaluation of |x| so that
G(-x) = 1 - G(x) holds bit-exactly by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def gauss_pdf(x):
    """Standard normal density g(x)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x - _LOG_SQRT_2PI)
    return out if out.ndim else float(out)


def gauss_log_pdf(x):
    """log g(x), exact for any finite x."""
    x = np.asarray(x, dtype=float)
    out = -0.5 * x * x - _LOG_SQRT_2PI
    return out if out.ndim else float(out)


def gauss_cdf(x):
    """Standard normal CDF G(x), symmetric by construction.

    The lower tail is 0.5*erfc(|x|/sqrt(2)), which is relatively accurate
    down to the underflow threshold near x = -38.
    """
    from scipy import special

    x = np.asarray(x, dtype=float)
    tail = 0.5 * special.erfc(np.abs(x) / _SQRT2)
    out = np.where(x < 0, tail, 1.0 - tail)
    return out if out.ndim else float(out)


def gauss_sf(x):
    """Survival function 1 - G(x), computed as G(-x)."""
    return gauss_cdf(np.negative(x))


def gauss_log_cdf(x):
    """log G(x) without underflow in the lower tail."""
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = special.log_ndtr(x)
    return out if out.ndim else float(out)


def gauss_quantile_from_log_cdf(logp):
    """G^-1 applied to a log probability (logp <= log(1/2) expected).

    Accepts arbitrarily negative log probabilities; two Newton steps on
    log G reduce the residual to a few ulp.
    """
    logp = np.asarray(logp, dtype=float)
    if np.any(logp >= 0.0):
        raise DomainError("log probability must be negative")
    from scipy import special

    x = special.ndtri_exp(logp)
    for _ in range(2):
        log_g = special.log_ndtr(x)
        x = x - (log_g - logp) * np.exp(log_g - gauss_log_pdf(x))
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
