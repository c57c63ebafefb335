"""Edge-time distribution toolkit.

Each distribution knows its density, CDF, quantile and log-scale variants,
samples by inverse transform (so quantile coupling across laws is exact),
and reports its support and continuity. Everything is vectorized over
numpy arrays; scalars in give scalars out. The support rule of
`Distribution` decides every value off the support, at NaN and for a
probability off [0, 1]; a law's kernels see only the rest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedKindError, _check_int, _is_int


def _as_float_array(y):
    arr = np.asarray(y, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def _on_support(x, kernel, support, below, above, at_lo=False, at_hi=False):
    """The support rule: `below` left of (lo, hi) = support, and at lo if
    at_lo; `above` right of it, and at hi if at_hi; NaN at NaN; the kernel
    on the rest, even on none (so a law without it still raises)."""
    arr, scalar = _as_float_array(x)
    lo, hi = support
    left = arr <= lo if at_lo else arr < lo
    right = arr >= hi if at_hi else arr > hi
    inside = ~(left | right | np.isnan(arr))
    if inside.all():
        return _ret(kernel(arr), scalar)
    out = np.where(left, below, np.where(right, above, np.nan))
    out[inside] = kernel(arr[inside])
    return _ret(out, scalar)


def _branches(where, arr, f_true, f_false):
    """np.where(where, f_true(arr), f_false(arr)), with each kernel
    evaluated only on its own points."""
    out = np.empty(arr.shape)
    out[where] = f_true(arr[where])
    out[~where] = f_false(arr[~where])
    return out


def _log(arr):
    with np.errstate(divide="ignore"):
        return np.log(arr)


def _fmt(x: float) -> str:
    """Spec text for a parameter that parses back to exactly x: the short
    `:g` form when it round-trips, `repr` otherwise."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


class Distribution:
    """Abstract one-dimensional edge-time law on its support [lo, hi].

    The eight public functions (pdf, cdf, sf, quantile, isf and the logs of
    the first three) take a scalar to a float and an array to an array of
    its shape, and apply one support rule: NaN in gives NaN out; off
    [lo, hi] the density is 0 (log -inf); the CDF is 0 left of lo, and at
    lo for a continuous law, and 1 from hi on, with sf and the logs
    following; quantile and isf of a probability off [0, 1] are NaN.

    A law implements the array kernels _cdf and _quantile, plus _pdf when
    it has a density (without one, pdf and log_pdf raise). The log forms,
    _sf and _isf default to log(_pdf), log(_cdf), 1 - _cdf, log(_sf) and
    _quantile(1 - q); a law overrides one only for a more accurate closed
    form. A kernel sees only what the rule leaves it: [lo, hi] for a
    density, (lo, hi) for a CDF ([lo, hi) if discrete), [0, 1] to invert.
    """

    kind: str = "abstract"
    continuous: bool = True
    density_continuous: bool = True  # h continuous on {h > 0}; discrete kinds N/A

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def pdf(self, y):
        return _on_support(y, self._pdf, self.support, 0.0, 0.0)

    def log_pdf(self, y):
        return _on_support(y, self._log_pdf, self.support, -np.inf, -np.inf)

    def cdf(self, y):
        return _on_support(y, self._cdf, self.support, 0.0, 1.0, self.continuous, True)

    def sf(self, y):
        return _on_support(y, self._sf, self.support, 1.0, 0.0, self.continuous, True)

    def log_cdf(self, y):
        return _on_support(y, self._log_cdf, self.support, -np.inf, 0.0, self.continuous, True)

    def log_sf(self, y):
        return _on_support(y, self._log_sf, self.support, 0.0, -np.inf, self.continuous, True)

    def quantile(self, u):
        return _on_support(u, self._quantile, (0.0, 1.0), np.nan, np.nan)

    def isf(self, q):
        """Inverse survival function, the y with sf(y) = q."""
        return _on_support(q, self._isf, (0.0, 1.0), np.nan, np.nan)

    def _pdf(self, arr):
        raise UnsupportedKindError(f"{self.kind} has no density")

    def _cdf(self, arr):
        raise NotImplementedError

    def _quantile(self, arr):
        raise NotImplementedError

    def _sf(self, arr):
        return 1.0 - self._cdf(arr)

    def _log_pdf(self, arr):
        return _log(self._pdf(arr))

    def _log_cdf(self, arr):
        return _log(self._cdf(arr))

    def _log_sf(self, arr):
        return _log(self._sf(arr))

    def _isf(self, arr):
        return self._quantile(1.0 - arr)

    def mean(self) -> float:
        raise NotImplementedError

    def upper_mean(self, c: float) -> float:
        """E[(Y - c)+], the mean excess over level c."""
        raise NotImplementedError

    def _sf_integral(self, c: float, lo: float, hi: float, points: int) -> float:
        """E[(Y - c)+] for a law on [lo, hi]: (lo - c)+ plus the trapezoid
        rule for the integral of sf over [max(c, lo), hi] on `points` nodes."""
        below = max(lo - c, 0.0)
        start = max(c, lo)
        if start >= hi:
            return below
        grid = np.linspace(start, hi, points)
        return below + float(np.trapezoid(self.sf(grid), grid))

    def exp_moment_rate(self) -> float:
        """A rate delta with E[exp(delta Y)] finite, used by diagnostics."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-transform sampling; deterministic given the generator
        state. The draws lie in [0, 1), so no support rule is applied."""
        arr, scalar = _as_float_array(rng.random(size))
        return _ret(self._quantile(arr), scalar)

    def spec_string(self) -> str:
        """The `parse_spec` text of this law, from its entry in `_SPECS`."""
        for head, (cls, names) in _SPECS.items():
            if isinstance(self, cls):
                break
        else:
            raise NotImplementedError(f"{self.kind} has no spec grammar")
        if not names:
            return head
        return head + ":" + ",".join(f"{k}={_fmt(getattr(self, k))}" for k in names)

    def __repr__(self) -> str:
        return f"<Distribution {self.spec_string()}>"


class Gamma(Distribution):
    """Gamma law with shape a and rate b (density ~ y^(a-1) e^(-b y)).

    The kernels are those of scipy's frozen gamma distribution, written out
    on scipy.special so that they give its bits: y is standardized as
    y / scale with scale = 1 / b, quantiles come back as q-inverse * scale,
    the log CDF and log SF switch at the median from the log of one tail
    to log1p of minus the other, and the support rule is scipy's. So at
    y = +inf the density is nan for a > 1, as there. Inside the support,
    y / scale can still be 0 or +inf (5e-324 at scale 4, 1e308 at 0.25).
    """

    kind = "gamma"
    continuous = True

    def __init__(self, a: float, b: float):
        if not (a > 0 and b > 0):
            raise DomainError("gamma requires a > 0 and b > 0")
        self.a = float(a)
        self.b = float(b)
        self._scale = 1.0 / self.b

    @property
    def support(self):
        return (0.0, math.inf)

    def _x(self, arr):
        """y standardized as y / scale, which may overflow to +inf inside the support."""
        with np.errstate(over="ignore"):
            return arr / self._scale

    def _log_kernel(self, x):
        from scipy import special

        return special.xlogy(self.a - 1.0, x) - x - special.gammaln(self.a)

    def _pdf(self, arr):
        with np.errstate(invalid="ignore", over="ignore"):
            return np.exp(self._log_kernel(self._x(arr))) / self._scale

    def _log_pdf(self, arr):
        with np.errstate(invalid="ignore"):
            return self._log_kernel(self._x(arr)) - np.log(self._scale)

    def _cdf(self, arr):
        from scipy import special

        return special.gammainc(self.a, self._x(arr))

    def _sf(self, arr):
        from scipy import special

        return special.gammaincc(self.a, self._x(arr))

    def _log_cdf(self, arr):
        from scipy import special

        x = self._x(arr)
        with np.errstate(divide="ignore"):
            out = _branches(
                x < special.gammaincinv(self.a, 0.5),
                arr,
                lambda y: np.log(self._cdf(y)),
                lambda y: np.log1p(-self._sf(y)),
            )
        return np.where(x == np.inf, 0.0, out)  # not log1p(-0.0) = -0.0

    def _log_sf(self, arr):
        from scipy import special

        x = self._x(arr)
        with np.errstate(divide="ignore"):
            out = _branches(
                x > special.gammaincinv(self.a, 0.5),
                arr,
                lambda y: np.log(self._sf(y)),
                lambda y: np.log1p(-self._cdf(y)),
            )
        return np.where(x == 0, 0.0, out)  # not log1p(-0.0) = -0.0

    def _quantile(self, arr):
        from scipy import special

        return special.gammaincinv(self.a, arr) * self._scale

    def _isf(self, arr):
        from scipy import special

        return special.gammainccinv(self.a, arr) * self._scale

    def mean(self):
        return self.a / self.b

    def upper_mean(self, c):
        if c <= 0:
            return self.mean() - c
        if c == math.inf:  # c * S_a(c) would be inf * 0
            return 0.0
        from scipy import special

        # E(Y-c)+ = (a/b) S_{a+1}(c) - c S_a(c), both tails at the same rate
        x = c / self._scale
        s_a1 = special.gammaincc(self.a + 1.0, x)
        s_a = special.gammaincc(self.a, x)
        return float((self.a / self.b) * s_a1 - c * s_a)

    def exp_moment_rate(self):
        return self.b / 2.0


class Exponential(Distribution):
    """Exponential law; closed forms throughout."""

    kind = "exponential"
    continuous = True

    def __init__(self, rate: float):
        if not rate > 0:
            raise DomainError("exponential requires rate > 0")
        self.rate = float(rate)

    @property
    def support(self):
        return (0.0, math.inf)

    def _pdf(self, arr):
        return self.rate * np.exp(-self.rate * arr)

    def _log_pdf(self, arr):
        return math.log(self.rate) - self.rate * arr

    def _cdf(self, arr):
        return -np.expm1(-self.rate * arr)

    def _sf(self, arr):
        return np.exp(-self.rate * arr)

    def _log_sf(self, arr):
        return -self.rate * arr

    def _quantile(self, arr, out=None):
        # log1p(-u) / -rate in one buffer, a fresh one unless out is given
        # (out= keeps a 0-d input an array): IEEE division is symmetric in
        # sign, so these are the bits of -log1p(-u) / rate in three passes,
        # not four
        out = np.negative(arr, out=np.empty_like(arr) if out is None else out)
        np.log1p(out, out=out)
        return np.divide(out, -self.rate, out=out)

    def sample(self, rng: np.random.Generator, size=None):
        """Distribution.sample with the same three passes run in the
        generator's own buffer, so a field costs one array, not two."""
        arr, scalar = _as_float_array(rng.random(size))
        return _ret(self._quantile(arr, out=arr), scalar)

    def _isf(self, arr):
        return -np.log(arr) / self.rate

    def mean(self):
        return 1.0 / self.rate

    def upper_mean(self, c):
        if c <= 0:
            return self.mean() - c
        return math.exp(-self.rate * c) / self.rate

    def exp_moment_rate(self):
        return self.rate / 2.0


class Uniform(Distribution):
    kind = "uniform"
    continuous = True

    def __init__(self, lo: float, hi: float):
        if not hi > lo:
            raise DomainError("uniform requires hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.width = self.hi - self.lo

    @property
    def support(self):
        return (self.lo, self.hi)

    def _pdf(self, arr):
        return np.full_like(arr, 1.0 / self.width)

    def _log_pdf(self, arr):
        return np.full_like(arr, -math.log(self.width))

    def _cdf(self, arr):
        return (arr - self.lo) / self.width

    def _sf(self, arr):
        return (self.hi - arr) / self.width

    def _quantile(self, arr):
        return self.lo + arr * self.width

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def upper_mean(self, c):
        if c <= self.lo:
            return self.mean() - c
        if c >= self.hi:
            return 0.0
        return (self.hi - c) ** 2 / (2.0 * self.width)

    def exp_moment_rate(self):
        return 1.0


class HalfNormal(Distribution):
    """|N| for a standard Gaussian N."""

    kind = "halfnormal"
    continuous = True
    _C = math.sqrt(2.0 / math.pi)

    @property
    def support(self):
        return (0.0, math.inf)

    def _pdf(self, arr):
        with np.errstate(over="ignore"):  # y*y/2 overflows past 1.9e154, where the density is 0
            return self._C * np.exp(-0.5 * arr * arr)

    def _log_pdf(self, arr):
        with np.errstate(over="ignore"):  # and its log is -inf
            return math.log(self._C) - 0.5 * arr * arr

    def _cdf(self, arr):
        from scipy import special

        return special.erf(arr / math.sqrt(2))

    def _sf(self, arr):
        from scipy import special

        return special.erfc(arr / math.sqrt(2))

    def _log_sf(self, arr):
        from scipy import special

        # sf(y) = 2 G(-y); log_ndtr keeps the deep tail exact
        return math.log(2.0) + special.log_ndtr(-arr)

    def _quantile(self, arr):
        from scipy import special

        near1 = arr > 0.5
        out = np.empty_like(arr)
        out[~near1] = special.erfinv(arr[~near1]) * math.sqrt(2)
        out[near1] = special.erfcinv(1.0 - arr[near1]) * math.sqrt(2)
        return out

    def _isf(self, arr):
        from scipy import special

        return special.erfcinv(arr) * math.sqrt(2)

    def mean(self):
        return self._C

    def upper_mean(self, c):
        if c <= 0:
            return self.mean() - c
        if c == math.inf:  # c * sf(c) would be inf * 0
            return 0.0
        return self._C * math.exp(-0.5 * c * c) - c * float(self.sf(c))

    def exp_moment_rate(self):
        return 1.0


class Bernoulli(Distribution):
    """Two-point law: value a with probability 1-p, value b with probability p."""

    kind = "bernoulli"
    continuous = False

    def __init__(self, a: float, b: float, p: float):
        if not a <= b:
            raise DomainError("bernoulli requires a <= b")
        if not (0.0 < p < 1.0):
            raise DomainError("bernoulli requires p in (0, 1)")
        self.a = float(a)
        self.b = float(b)
        self.p = float(p)

    @property
    def support(self):
        return (self.a, self.b)

    def _cdf(self, arr):
        return np.full_like(arr, 1.0 - self.p)  # on [a, b)

    def _quantile(self, arr):
        return np.where(arr < 1.0 - self.p, self.a, self.b)

    def mean(self):
        return (1.0 - self.p) * self.a + self.p * self.b

    def upper_mean(self, c):
        return (1.0 - self.p) * max(self.a - c, 0.0) + self.p * max(self.b - c, 0.0)

    def exp_moment_rate(self):
        return 1.0


class Dirac(Distribution):
    """Point mass; handy as a deterministic edge-time baseline."""

    kind = "dirac"
    continuous = False

    def __init__(self, c: float):
        self.c = float(c)

    @property
    def support(self):
        return (self.c, self.c)

    def _cdf(self, arr):
        return np.ones_like(arr)  # sees no point: the rule gives 0 left of c, 1 from c on

    def _quantile(self, arr):
        return np.full_like(arr, self.c)

    def mean(self):
        return self.c

    def upper_mean(self, c):
        return max(self.c - c, 0.0)

    def exp_moment_rate(self):
        return 1.0


# the C1 hat 6 s (1 - s) on [0, 1] that carries a truncated law's tail mass;
# s <= 1 at every point a truncated law's kernels see, those up to the top
def _hat_pdf(s):
    return np.where(s >= 0, 6.0 * s * (1.0 - s), 0.0)


def _hat_cdf(s):
    sc = np.maximum(s, 0.0)
    return sc * sc * (3.0 - 2.0 * sc)


def _hat_sf(s):
    sc = np.maximum(s, 0.0)
    return (1.0 - sc) ** 2 * (1.0 + 2.0 * sc)


_DOMINATION_TOL = 1e-12  # the rounding every domination comparison allows


class _DominationCheck(NamedTuple):
    max_defect: float  # max of H_base - H_k: domination needs <= 0
    equal_below_cut_max_error: float  # max |H_base - H_k| at or below the cut: 0
    support_ok: bool  # H_k reaches 1 at the top

    @property
    def dominates(self) -> bool:
        """The one verdict: all three hold up to the rounding allowance."""
        tol = _DOMINATION_TOL
        return self.max_defect <= tol and self.equal_below_cut_max_error <= tol and self.support_ok


class Truncated(Distribution):
    """Bounded-support modification of a base law on [0, +inf).

    Below T = c5*log(k) it agrees with the base; the base's mass beyond 2T
    is spread continuously over [T, 2T] with the hat density, so the result
    is supported in [0, 2T], matches the base CDF up to T, and dominates
    the base CDF everywhere (hence is stochastically smaller).
    """

    kind = "truncated"
    continuous = True

    def __init__(self, base: Distribution, k: int, c5: float):
        if not _is_int(k) or k < 2:
            raise DomainError("truncation index k must be an integer >= 2")
        if not (math.isfinite(c5) and c5 > 0):
            raise DomainError(f"c5 must be finite and positive, got {c5!r}")
        if not base.continuous:
            raise UnsupportedKindError("truncation requires a continuous base law")
        if base.support[0] < 0:
            raise DomainError("base law must be supported on [0, +inf)")
        self.base = base
        self.k = int(k)
        self.c5 = float(c5)
        self.cut = self.c5 * math.log(self.k)  # T
        self.top = 2.0 * self.cut
        if not math.isfinite(1.05 * self.top):  # the end of the domination grid
            raise DomainError(f"c5 = {c5!r} is too large: 2.1 c5 log k overflows")
        self.tail_mass = float(base.sf(self.top))

    @property
    def support(self):
        return (max(self.base.support[0], 0.0), min(self.base.support[1], self.top))

    def _s(self, y):
        return (y - self.cut) / self.cut

    def _pdf(self, arr):
        return self.base.pdf(arr) + _hat_pdf(self._s(arr)) * (self.tail_mass / self.cut)

    def _cdf(self, arr):
        return self.base.cdf(arr) + self.tail_mass * _hat_cdf(self._s(arr))

    def _sf(self, arr):
        # base.sf(y) - base.sf(2T) avoids cancellation: both terms are tail-sized
        return (self.base.sf(arr) - self.tail_mass) + self.tail_mass * _hat_sf(self._s(arr))

    def _quantile(self, arr):
        in_tail = arr > float(self.base.cdf(self.cut))
        tail = lambda target: self._bisect_tail(target, self._cdf, np.less)
        return _branches(in_tail, arr, tail, self.base._quantile)

    def _isf(self, arr):
        # not _quantile(1 - q), which loses a small q to rounding in 1 - q
        in_tail = arr < float(self.base.sf(self.cut))
        tail = lambda target: self._bisect_tail(target, self._sf, np.greater)
        return _branches(in_tail, arr, tail, self.base._isf)

    def _bisect_tail(self, target, fn, left_of):
        """For each entry of target, the y in [cut, top] where the test
        left_of(fn(y), entry), "y is left of the answer", turns false: the
        answer beyond the cut, where the base law's no longer holds."""
        lo = np.full(target.shape, self.cut)
        hi = np.full(target.shape, self.top)
        # bisection is branch-free and robust to flat spots of the hat; a
        # round that moves neither end is a fixed point, so stopping there
        # gives the bits of the full 100 rounds (it comes at about round 53)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            left = left_of(fn(mid), target)
            new_lo = np.where(left, mid, lo)
            new_hi = np.where(left, hi, mid)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        return 0.5 * (lo + hi)

    def domination_check(self, grid_points: int = 10_000) -> _DominationCheck:
        """Compare this CDF with the base's on an even grid over [0, 1.05 top];
        `.dominates` is the verdict, each comparison up to 1e-12 rounding."""
        if _check_int(grid_points, "grid_points") < 2:
            raise DomainError(f"the comparison grid needs at least 2 points, got {grid_points}")
        grid = np.linspace(0.0, self.top * 1.05, grid_points)
        h_base = np.asarray(self.base.cdf(grid))
        h_k = np.asarray(self.cdf(grid))
        below = grid <= self.cut
        max_defect = float((h_base - h_k).max())
        below_cut_error = float(np.abs(h_base[below] - h_k[below]).max())
        support_ok = bool(abs(float(self.cdf(self.top)) - 1.0) <= _DOMINATION_TOL)
        return _DominationCheck(max_defect, below_cut_error, support_ok)

    def mean(self):
        return self.upper_mean(0.0)

    def upper_mean(self, c):
        # sf is 1 on [0, support[0]], so the quadrature may start at 0
        return self._sf_integral(c, 0.0, self.top, 20001)

    def exp_moment_rate(self):
        return 1.0  # bounded support

    def spec_string(self):
        return f"trunc({self.base.spec_string()};k={self.k},c5={_fmt(self.c5)})"


class Tabulated(Distribution):
    """Piecewise-linear density through (x, h) grid points, renormalized."""

    kind = "tabulated"
    continuous = True

    def __init__(self, xs, hs):
        xs = np.asarray(xs, dtype=float)
        hs = np.asarray(hs, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise DomainError("tabulated grid must be strictly increasing")
        if hs.shape != xs.shape or np.any(hs < 0) or not np.any(hs > 0):
            raise DomainError("tabulated densities must be nonnegative, not all zero")
        mass = np.trapezoid(hs, xs)
        self.xs = xs
        self.hs = hs / mass
        self._cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self.hs[1:] + self.hs[:-1]) * np.diff(xs))]
        )
        self._cum[-1] = 1.0

    @property
    def support(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def _pdf(self, arr):
        return np.interp(arr, self.xs, self.hs)

    def _cdf(self, arr):
        idx = np.searchsorted(self.xs, arr, side="right") - 1
        x0 = self.xs[idx]
        h0 = self.hs[idx]
        slope = (self.hs[idx + 1] - h0) / (self.xs[idx + 1] - x0)
        d = arr - x0
        # rounding in the running sums can carry the value past 1
        return np.clip(self._cum[idx] + h0 * d + 0.5 * slope * d * d, 0.0, 1.0)

    def _quantile(self, arr):
        idx = np.clip(np.searchsorted(self._cum, arr, side="right") - 1, 0, self.xs.size - 2)
        x0 = self.xs[idx]
        h0 = self.hs[idx]
        dx = self.xs[idx + 1] - x0
        slope = (self.hs[idx + 1] - h0) / dx
        rem = arr - self._cum[idx]
        # solve 0.5 slope d^2 + h0 d = rem per segment; the rationalized root
        # 2 rem / (h0 + sqrt(h0^2 + 2 slope rem)) is stable for either slope
        # sign and degrades gracefully to the linear case
        disc = np.sqrt(np.maximum(h0 * h0 + 2.0 * slope * rem, 0.0))
        denom = h0 + disc
        with np.errstate(invalid="ignore", divide="ignore"):
            d = np.where(denom > 0, 2.0 * rem / np.where(denom > 0, denom, 1.0), 0.0)
        return x0 + np.clip(d, 0.0, dx)

    def mean(self):
        # x h(x) is quadratic on each segment: Simpson's rule is exact there
        x0, x1, h0, h1 = self.xs[:-1], self.xs[1:], self.hs[:-1], self.hs[1:]
        seg = (x1 - x0) * (x0 * (2.0 * h0 + h1) + x1 * (h0 + 2.0 * h1))
        return float(np.sum(seg)) / 6.0

    def upper_mean(self, c):
        lo, hi = self.support
        return self._sf_integral(c, lo, hi, 4001)

    def exp_moment_rate(self):
        return 1.0

    def spec_string(self):
        """A label, `tabulated:n=<points>`: `parse_spec` does not read it,
        since the table itself is not in the text."""
        return f"tabulated:n={self.xs.size}"


def lsi_constant_bernoulli(p: float) -> float:
    """Log-Sobolev constant for the two-point measure with parameter p.

    c(p) = (log p - log(1-p)) / (p - (1-p)), with the removable singularity
    at p = 1/2 filled by its limit 2. Written via atanh(|2p-1|) so the
    p <-> 1-p symmetry is exact whenever 2p-1 and 1-2p negate exactly.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"Bernoulli parameter must lie in (0, 1), got {p!r}")
    u = abs(2.0 * p - 1.0)
    if u == 0.0:
        return 2.0
    return 2.0 * math.atanh(u) / u


def default_c5(d: int, delta: float) -> float:
    """Truncation scale constant: 4d over the exponential-moment rate."""
    if not delta > 0:
        raise DomainError("delta must be positive")
    return 4.0 * d / delta


# spec head -> (law, its parameter names in spec and constructor order);
# parse_spec reads a spec through this table and spec_string writes one
_SPECS = {
    "gamma": (Gamma, ("a", "b")),
    "exp": (Exponential, ("rate",)),
    "uniform": (Uniform, ("lo", "hi")),
    "halfnormal": (HalfNormal, ()),
    "bernoulli": (Bernoulli, ("a", "b", "p")),
    "dirac": (Dirac, ("c",)),
}


def parse_spec(spec: str) -> Distribution:
    """Parse the CLI distribution grammar.

    Forms: gamma:a=<f>,b=<f> | exp:rate=<f> | uniform:lo=<f>,hi=<f> |
    bernoulli:a=<f>,b=<f>,p=<f> | halfnormal | dirac:c=<f> |
    trunc(<spec>;k=<int>,c5=<f>)
    """
    spec = spec.strip()
    if spec.startswith("trunc(") and spec.endswith(")"):
        inner = spec[len("trunc(") : -1]
        if ";" not in inner:
            raise DomainError(f"malformed truncation spec: {spec!r}")
        base_part, arg_part = inner.rsplit(";", 1)
        args = _parse_kv(arg_part, ("k", "c5"))
        if not args["k"].is_integer():
            raise DomainError(f"truncation index k must be an integer: {spec!r}")
        return Truncated(parse_spec(base_part), int(args["k"]), args["c5"])
    head, colon, rest = spec.partition(":")
    if head not in _SPECS:
        raise DomainError(f"unrecognized distribution kind: {head!r}")
    law, names = _SPECS[head]
    if bool(colon) != bool(names):  # a colon exactly when there are parameters
        raise DomainError(f"unrecognized distribution spec: {spec!r}")
    kv = _parse_kv(rest, names) if names else {}
    return law(*(kv[k] for k in names))


def _parse_kv(text: str, expected: tuple[str, ...]) -> dict[str, float]:
    """Parameters as finite floats, each given once; anything else is a
    DomainError."""
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise DomainError(f"malformed parameter {piece!r}")
        key, val = piece.split("=", 1)
        key = key.strip()
        if key not in expected:
            raise DomainError(f"unexpected parameter {key!r}")
        if key in out:
            raise DomainError(f"repeated parameter {key!r}")
        try:
            num = float(val)
        except ValueError:
            raise DomainError(f"parameter {key} is not a number: {val.strip()!r}") from None
        if not math.isfinite(num):
            raise DomainError(f"parameter {key} must be finite, got {val.strip()!r}")
        out[key] = num
    missing = set(expected) - set(out)
    if missing:
        raise DomainError(f"missing parameters: {sorted(missing)}")
    return out
