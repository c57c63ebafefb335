"""The quantile-coupling weight psi and the nearly-gamma classifier.

psi(y) = g(G^-1(H(y))) / h(y) is the derivative weight picked up when a law
with density h and CDF H is transported onto the standard Gaussian by
quantile coupling. A law qualifies as nearly gamma when its support is an
interval, h is continuous there, and psi(y) <= A sqrt(y) for some finite A.
The classifier evaluates that bound on a grid accumulating toward both
support endpoints and also runs the two sufficient tail conditions
(regular-variation exponent at the lower end, hazard-ratio boundedness or
a finite-endpoint exponent at the upper end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .distributions import DENSITY_FLOOR, Distribution
from .errors import DomainError, SingularityError, UnsupportedKindError

_LOG_HALF = math.log(0.5)


def psi(d: Distribution, y):
    """Evaluate psi(y) = g(G^-1(H(y))) / h(y) on the interior of {h > 0}.

    Works entirely on the log scale so tails with H(y) near 0 or 1 keep
    full precision. Scalar y gives a scalar back; arrays are vectorized.
    """
    if not d.continuous:
        raise UnsupportedKindError(f"psi requires a continuous law, got {d.kind}")
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo, hi = d.support
    if np.any(arr <= lo) or np.any(arr >= hi):
        raise DomainError("psi argument must lie in the interior of the support")
    dens = np.atleast_1d(np.asarray(d.pdf(arr), dtype=float))
    if np.any(dens <= DENSITY_FLOOR):
        raise SingularityError(
            f"density below floor {DENSITY_FLOOR:g} inside the support"
        )
    log_h = np.atleast_1d(np.asarray(d.log_cdf(arr), dtype=float))
    log_s = np.atleast_1d(np.asarray(d.log_sf(arr), dtype=float))
    lower = log_h <= _LOG_HALF
    x = np.empty_like(arr)
    if np.any(lower):
        x[lower] = gaussian.gauss_quantile_from_log_cdf(log_h[lower])
    if np.any(~lower):
        x[~lower] = -np.asarray(
            gaussian.gauss_quantile_from_log_cdf(log_s[~lower])
        )
    out = np.exp(gaussian.gauss_log_pdf(x) - np.log(dens))
    return float(out[0]) if scalar else out


# Evaluation grid for the direct check: points accumulate geometrically
# toward both support endpoints, coming no closer than _ENDPOINT_FLOOR (in
# distance for a finite endpoint, in survival probability for an infinite
# one).
_POINTS_PER_DECADE = 200
_ENDPOINT_FLOOR = 1e-12
_BULK_POINTS = 400


def _grid(d: Distribution) -> np.ndarray:
    lo, hi = d.support
    mid = float(d.quantile(0.5))
    pieces = []
    # lower endpoint side
    span_lo = (mid - lo) if math.isfinite(mid - lo) else 1.0
    decades = max(math.log10(span_lo / _ENDPOINT_FLOOR), 1.0)
    npts = int(_POINTS_PER_DECADE * decades)
    pieces.append(lo + np.geomspace(_ENDPOINT_FLOOR, span_lo, npts))
    # upper endpoint side
    if math.isfinite(hi):
        span_hi = hi - mid
        decades = max(math.log10(span_hi / _ENDPOINT_FLOOR), 1.0)
        npts = int(_POINTS_PER_DECADE * decades)
        pieces.append(hi - np.geomspace(_ENDPOINT_FLOOR, span_hi, npts))
    else:
        decades = -math.log10(_ENDPOINT_FLOOR)
        npts = int(_POINTS_PER_DECADE * decades)
        js = np.linspace(math.log10(2.0), -math.log10(_ENDPOINT_FLOOR), npts)
        pieces.append(d.isf(10.0 ** (-js)))
    pieces.append(np.linspace(lo + span_lo * 1e-3, float(d.quantile(0.95)), _BULK_POINTS))
    grid = np.unique(np.concatenate(pieces))
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

    interval_ok, continuity_ok = _support_checks(d, grid, flags)
    if lo < 0:
        interval_ok = False
        flags.append("support extends below zero")

    ratio_max = None
    argmax = None
    bound_ok = False
    if interval_ok:
        psi_vals = psi(d, grid)
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


def _support_checks(d: Distribution, grid: np.ndarray, flags: list) -> tuple[bool, bool]:
    """(i) the set {h > 0} is an interval; (ii) h is continuous on it.

    The interval condition is probed numerically: the density must stay
    positive across the whole grid and a dense bulk sweep, so an interior
    gap (possible for tabulated input) is caught. Continuity is structural
    for every built-in kind (smooth families, piecewise-linear tables, and
    truncations whose bump vanishes at both knots), so it is read off the
    law rather than guessed from finite differences.
    """
    dens = np.asarray(d.pdf(grid), dtype=float)
    interval_ok = bool(np.all(dens > 0.0))
    a = float(d.quantile(0.01))
    b = float(d.quantile(0.99))
    probes = np.linspace(a, b, 2048)
    vals = np.asarray(d.pdf(probes), dtype=float)
    interval_ok = interval_ok and bool(np.all(vals > 0.0))
    if not interval_ok:
        flags.append("density vanishes inside the support")
    continuity_ok = bool(d.density_continuous)
    if not continuity_ok:
        flags.append("density declared discontinuous on its support")
    return interval_ok, continuity_ok


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
