"""The quantile-coupling weight psi and the nearly-gamma classifier.

psi(y) = g(G^-1(H(y))) / h(y) is the derivative weight picked up when a law
with density h and CDF H is transported onto the standard Gaussian by
quantile coupling; it reads h only as log h. A law qualifies as nearly
gamma when its support is an interval, h is continuous there, and
psi(y) <= A sqrt(y) for some finite A. The classifier evaluates that bound
on one grid placed by probability (both tails down to 1e-12, plus an even
sweep between those two ends) and also runs the two sufficient tail conditions
(regular-variation exponent at the lower end, hazard-ratio boundedness or
a finite-endpoint exponent at the upper end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .distributions import Distribution
from .errors import DomainError, SingularityError, UnsupportedKindError

_LOG_HALF = math.log(0.5)


def psi(d: Distribution, y):
    """Evaluate psi(y) = g(G^-1(H(y))) / h(y) on the interior of {h > 0}.

    Works entirely on the log scale, reading the density as d.log_pdf and
    the smaller tail as d.log_cdf or d.log_sf, so tails with H(y) near 0 or
    1 and densities below the smallest float keep the precision of the
    law's log kernels. A point where either log is not finite (the density
    vanishes there, or the law's tail underflows) raises SingularityError.
    Scalar y gives a scalar back; arrays are vectorized.
    """
    if not d.continuous:
        raise UnsupportedKindError(f"psi requires a continuous law, got {d.kind}")
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo, hi = d.support
    if np.any(arr <= lo) or np.any(arr >= hi):
        raise DomainError("psi argument must lie in the interior of the support")
    log_dens = np.atleast_1d(np.asarray(d.log_pdf(arr), dtype=float))
    # log of the smaller tail probability; g is even, so G^-1 of either
    # tail gives the same g(G^-1(H(y)))
    log_p = np.atleast_1d(np.asarray(d.log_cdf(arr), dtype=float))
    upper = log_p > _LOG_HALF
    if np.any(upper):
        log_p[upper] = d.log_sf(arr[upper])
    if not (np.all(np.isfinite(log_dens)) and np.all(np.isfinite(log_p))):
        raise SingularityError(
            "log density or log tail probability not finite inside the support"
        )
    x = gaussian.gauss_quantile_from_log_cdf(log_p)
    out = np.exp(gaussian.gauss_log_pdf(x) - log_dens)
    return float(out[0]) if scalar else out


# Evaluation grid for the direct check: both tails at the quantiles q and
# 1 - q for q from 1/2 down to _ENDPOINT_FLOOR, plus _BULK_POINTS evenly
# spaced across the whole span of those, where an interior gap would show
# (a quantile never falls inside a stretch of zero probability).
_POINTS_PER_DECADE = 200
_ENDPOINT_FLOOR = 1e-12
_BULK_POINTS = 2048


def _grid(d: Distribution) -> np.ndarray:
    lo, hi = d.support
    decades = -math.log10(_ENDPOINT_FLOOR)
    q = 10.0 ** -np.linspace(math.log10(2.0), decades, int(_POINTS_PER_DECADE * decades))
    lower, upper = d.quantile(q), d.isf(q)
    sweep = np.linspace(lower[-1], upper[-1], _BULK_POINTS)
    # np.unique's sort and adjacent-inequality mask, without the import of
    # numpy.ma it brings; a NaN it would keep once goes with the filter below
    grid = np.sort(np.concatenate([lower, upper, sweep]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return grid[(grid > lo) & (grid < hi)]


@dataclass
class NearlyGammaVerdict:
    """Outcome of the direct check and of the sufficient tail conditions.

    A value that was not computed or is not finite is None, so the verdict
    serializes as itself for every law, passing or not.
    """

    direct_pass: bool
    bound_a: float | None  # set iff direct_pass
    sufficient_pass: bool
    interval_ok: bool  # (i)
    continuity_ok: bool  # (ii)
    bound_ok: bool  # (iii) on the grid, with tail-trend screening
    lower_tail_alpha: float | None  # (iv) fitted exponent at the lower endpoint
    lower_tail_ok: bool
    upper_tail_mode: str  # "finite-endpoint" or "hazard-ratio"
    upper_tail_ok: bool
    upper_tail_detail: dict
    grid_points: int  # size of the direct check's evaluation grid
    ratio_max: float | None
    ratio_argmax: float | None
    flags: list


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


_SAFETY = 1.05


def classify_nearly_gamma(d: Distribution) -> NearlyGammaVerdict:
    """Run the direct sqrt-bound check and the sufficient tail conditions."""
    if not d.continuous:
        raise UnsupportedKindError(
            f"nearly-gamma classification requires a continuous law, got {d.kind}"
        )
    lo, hi = d.support
    grid = _grid(d)
    flags: list[str] = []

    # (i) {h > 0} is an interval: psi is defined on the whole grid. A
    # negative support is refused first, as the ratio takes sqrt(grid).
    psi_vals = None
    if lo < 0:
        flags.append("support extends below zero")
    else:
        try:
            psi_vals = psi(d, grid)
        except SingularityError:
            flags.append("density vanishes inside the support")
    interval_ok = psi_vals is not None
    # (ii) h is continuous on {h > 0}: structural for every built-in kind,
    # so read off the law rather than guessed from finite differences
    continuity_ok = bool(d.density_continuous)
    if not continuity_ok:
        flags.append("density declared discontinuous on its support")

    ratio_max = None
    argmax = None
    bound_ok = False
    if interval_ok:
        ratio = psi_vals / np.sqrt(grid)
        ratio_max = _finite(float(np.max(ratio)))
        argmax = float(grid[int(np.argmax(ratio))])
        bound_ok = bool(np.all(np.isfinite(ratio)))
        if bound_ok and not math.isfinite(hi) and _diverging_upper_tail(d, flags):
            bound_ok = False
            flags.append("psi(y)/sqrt(y) keeps growing past the grid")

    direct_pass = interval_ok and continuity_ok and bound_ok
    bound_a = _SAFETY * ratio_max if direct_pass else None

    alpha, alpha_ok = _endpoint_exponent(d, lo, 1)
    if math.isfinite(hi):
        mode = "finite-endpoint"
        beta, beta_ok = _endpoint_exponent(d, hi, -1)
        upper_ok = beta_ok
        detail = {"beta": _finite(beta)}
    else:
        mode = "hazard-ratio"
        upper_ok, detail = _hazard_ratio_test(d)
    sufficient = interval_ok and continuity_ok and alpha_ok and upper_ok

    return NearlyGammaVerdict(
        direct_pass=direct_pass,
        bound_a=bound_a,
        sufficient_pass=sufficient,
        interval_ok=interval_ok,
        continuity_ok=continuity_ok,
        bound_ok=bound_ok,
        lower_tail_alpha=_finite(alpha),
        lower_tail_ok=alpha_ok,
        upper_tail_mode=mode,
        upper_tail_ok=upper_ok,
        upper_tail_detail=detail,
        grid_points=int(grid.size),
        ratio_max=ratio_max,
        ratio_argmax=argmax,
        flags=flags,
    )


def _diverging_upper_tail(d: Distribution, flags: list) -> bool:
    """Screen for psi(y)/sqrt(y) growing without bound as y -> infinity.

    For gamma-like laws the ratio flattens to a finite limit, with a
    transient log-log slope decaying like log(y)/y; for any strictly
    subexponential upper tail the slope settles at a positive constant.
    Two fit windows at survival decades 10..25 and 25..45 separate the two:
    diverging means the deep-window slope stays both above an absolute
    floor and above three quarters of the shallow-window slope.
    """
    js = np.linspace(10.0, 45.0, 120)
    t = np.asarray(d.isf(10.0 ** (-js)), dtype=float)
    good = np.isfinite(t)
    if good.sum() < 32 or np.any(np.diff(t[good]) <= 0):
        flags.append("upper-tail slope probe unavailable; bound read from grid only")
        return False
    t = t[good]
    try:
        ratio = psi(d, t) / np.sqrt(t)
    except (DomainError, SingularityError):
        flags.append("psi not evaluable on the deep-tail probe")
        return False
    ok = np.isfinite(ratio) & (ratio > 0)
    if ok.sum() < 32:
        return True  # ratio overflowed: certainly not bounded by A sqrt(y)
    t, ratio = t[ok], ratio[ok]
    cut = t.size // 2
    s_shallow = float(np.polyfit(np.log(t[:cut]), np.log(ratio[:cut]), 1)[0])
    s_deep = float(np.polyfit(np.log(t[cut:]), np.log(ratio[cut:]), 1)[0])
    return s_deep > 0.02 and s_deep > 0.75 * s_shallow


def _endpoint_exponent(d: Distribution, end: float, inward: int) -> tuple[float, bool]:
    """Fit h(end + inward * delta) ~ delta^alpha for small delta; need alpha > -1.

    inward is +1 at the lower support endpoint and -1 at the upper one.
    """
    scale = max(abs(float(d.quantile(0.5)) - end), 1e-6)
    delta = np.geomspace(1e-8, 1e-3, 64) * scale
    vals = np.asarray(d.log_pdf(end + inward * delta), dtype=float)
    good = np.isfinite(vals)
    if good.sum() < 8:
        return math.nan, False
    alpha = float(np.polyfit(np.log(delta[good]), vals[good], 1)[0])
    return alpha, alpha > -1.0 + 1e-9


def _hazard_ratio_test(d: Distribution) -> tuple[bool, dict]:
    """Boundedness of S(t)/h(t) for t past the 0.9 quantile.

    Sampled at survival decades down to 1e-50. The observed min and max
    play the roles of the two sandwich constants; the verdict comes from
    the log-log trend over the deeper half: a flat ratio is bounded both
    ways, a ratio drifting to 0 or infinity is not.
    """
    js = np.linspace(1.0, 50.0, 160)
    t = np.asarray(d.isf(10.0 ** (-js)), dtype=float)
    log_ratio = np.asarray(d.log_sf(t), dtype=float) - np.asarray(
        d.log_pdf(t), dtype=float
    )
    good = np.isfinite(log_ratio) & np.isfinite(t) & (t > 0)
    detail: dict = {}
    if good.sum() < 16:
        return False, {"reason": "too few usable tail probes"}
    t = t[good]
    log_ratio = log_ratio[good]
    half = t.size // 2
    slope = float(np.polyfit(np.log(t[half:]), log_ratio[half:], 1)[0])
    c1 = float(np.exp(log_ratio.min()))
    c2 = float(np.exp(log_ratio.max()))
    detail = {"c1": c1, "c2": c2, "slope": slope, "t_min": float(t[0]), "t_max": float(t[-1])}
    return abs(slope) <= 0.2, detail
