import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import fpplab as F
from fpplab import DomainError, SingularityError, UnsupportedKindError, reporting
from fpplab.distributions import Distribution, _as_float_array, _ret
from fpplab.neargamma import _grid


def test_psi_uniform_median_hits_gaussian_mode():
    d = F.Uniform(0.0, 1.0)
    assert F.psi(d, 0.5) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_psi_exponential_deep_tail():
    d = F.Exponential(1.0)
    assert F.psi(d, 40.0) == pytest.approx(math.sqrt(80.0), rel=0.05)


def test_psi_domain_errors():
    d = F.Exponential(1.0)
    with pytest.raises(DomainError):
        F.psi(d, -1.0)
    with pytest.raises(DomainError):
        F.psi(F.Uniform(0, 1), 1.5)
    with pytest.raises(UnsupportedKindError):
        F.psi(F.parse_spec("bernoulli:a=1,b=2,p=0.5"), 1.0)


def test_psi_positive_on_interior_grid():
    for spec in ("gamma:a=0.5,b=1", "exp:rate=1", "uniform:lo=0,hi=1", "halfnormal",
                 "trunc(exp:rate=1;k=20,c5=1)"):
        d = F.parse_spec(spec)
        ys = np.asarray(d.quantile(np.linspace(1e-9, 1 - 1e-9, 300)))
        lo, hi = d.support
        ys = ys[(ys > lo) & (ys < hi)]
        vals = F.psi(d, ys)
        assert np.all(vals > 0.0) and np.all(np.isfinite(vals))


def test_psi_singularity_guard():
    xs = np.array([0.0, 1.0, 1.5, 2.0, 3.0])
    hs = np.array([1.0, 1.0, 0.0, 1.0, 1.0])  # interior density zero
    d = F.Tabulated(xs, hs)
    with pytest.raises(SingularityError):
        F.psi(d, 1.5)


def test_psi_is_finite_where_the_density_underflows():
    # pdf is 0.0 in binary64 at both points; log_pdf, log_sf and psi are not
    for d, y, want in ((F.Exponential(1.0), 800.0, math.sqrt(1600.0)),
                       (F.HalfNormal(), 40.0, 1.0)):
        assert d.pdf(y) == 0.0
        assert F.psi(d, y) == pytest.approx(want, rel=0.01)


@pytest.mark.parametrize("a,y", [(200.0, 1.0), (2.0, 800.0)])
def test_psi_refuses_rather_than_returns_nan(a, y):
    # the gamma tail probability underflows to 0.0 at these points
    d = F.Gamma(a, 1.0)
    try:
        value = F.psi(d, y)
    except SingularityError:
        return
    assert math.isfinite(value)


def test_classifier_requires_continuous():
    with pytest.raises(UnsupportedKindError):
        F.classify_nearly_gamma(F.parse_spec("bernoulli:a=1,b=2,p=0.5"))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_gamma_family_passes_direct(a, b):
    verdict = F.classify_nearly_gamma(F.Gamma(a, b))
    assert verdict.direct_pass
    assert verdict.bound_a is not None
    assert verdict.bound_a >= verdict.ratio_max


def test_halfnormal_direct_but_not_sufficient():
    verdict = F.classify_nearly_gamma(F.HalfNormal())
    assert verdict.direct_pass
    assert not verdict.sufficient_pass
    assert verdict.upper_tail_mode == "hazard-ratio"
    assert not verdict.upper_tail_ok
    # the hazard ratio S/h ~ 1/t: the fitted trend should be near -1
    assert verdict.upper_tail_detail["slope"] == pytest.approx(-1.0, abs=0.1)


def test_uniform_shifted_passes():
    verdict = F.classify_nearly_gamma(F.Uniform(1.0, 2.0))
    assert verdict.direct_pass
    assert verdict.sufficient_pass
    assert verdict.upper_tail_mode == "finite-endpoint"


def test_exponential_hazard_ratio_is_flat():
    verdict = F.classify_nearly_gamma(F.Exponential(1.0))
    d = verdict.upper_tail_detail
    assert verdict.sufficient_pass
    assert d["c1"] == pytest.approx(1.0, rel=1e-6)
    assert d["c2"] == pytest.approx(1.0, rel=1e-6)


def test_lower_tail_exponent_fits():
    assert F.classify_nearly_gamma(F.Gamma(0.5, 1.0)).lower_tail_alpha == pytest.approx(
        -0.5, abs=0.01
    )
    assert F.classify_nearly_gamma(F.Gamma(2.0, 1.0)).lower_tail_alpha == pytest.approx(
        1.0, abs=0.01
    )
    assert F.classify_nearly_gamma(F.Uniform(1, 2)).lower_tail_alpha == pytest.approx(
        0.0, abs=0.01
    )


class _Weibull(Distribution):
    """Stretched-exponential tail: strictly subexponential, not nearly gamma."""

    kind = "weibull"
    continuous = True

    def __init__(self, shape):
        self._f = stats.weibull_min(shape)

    @property
    def support(self):
        return (0.0, math.inf)

    def pdf(self, y):
        a, s = _as_float_array(y)
        return _ret(self._f.pdf(a), s)

    def log_pdf(self, y):
        a, s = _as_float_array(y)
        return _ret(self._f.logpdf(a), s)

    def cdf(self, y):
        a, s = _as_float_array(y)
        return _ret(self._f.cdf(a), s)

    def log_cdf(self, y):
        a, s = _as_float_array(y)
        return _ret(self._f.logcdf(a), s)

    def sf(self, y):
        a, s = _as_float_array(y)
        return _ret(self._f.sf(a), s)

    def log_sf(self, y):
        a, s = _as_float_array(y)
        return _ret(self._f.logsf(a), s)

    def quantile(self, u):
        a, s = _as_float_array(u)
        return _ret(self._f.ppf(a), s)

    def isf(self, q):
        a, s = _as_float_array(q)
        return _ret(self._f.isf(a), s)


@pytest.mark.parametrize("shape", [0.5, 0.8])
def test_subexponential_tail_fails_direct(shape):
    verdict = F.classify_nearly_gamma(_Weibull(shape))
    assert not verdict.direct_pass
    assert verdict.bound_a is None
    assert not verdict.upper_tail_ok


def test_interior_gap_breaks_interval_condition():
    xs = np.array([0.0, 1.0, 1.4, 1.6, 2.0, 3.0])
    hs = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    verdict = F.classify_nearly_gamma(F.Tabulated(xs, hs))
    assert not verdict.interval_ok
    assert not verdict.direct_pass


@pytest.mark.parametrize("xs,hs", [
    ([0.0, 1.0, 1.2, 1.3, 1.5], [1.0, 1.0, 0.0, 0.0, 0.01]),  # gap above the 99% quantile
    ([0.0, 0.2, 0.3, 0.5, 1.5], [0.01, 0.0, 0.0, 1.0, 1.0]),  # gap below the 1% quantile
])
def test_tail_gap_breaks_interval_condition(xs, hs):
    d = F.Tabulated(np.array(xs), np.array(hs))
    verdict = F.classify_nearly_gamma(d)
    assert not verdict.interval_ok
    assert "density vanishes inside the support" in verdict.flags
    assert verdict.bound_a is None


@pytest.mark.parametrize("a", [50.0, 200.0])
def test_large_gamma_shape_keeps_the_interval_condition(a):
    # h(y) ~ y^(a-1) is 0.0 in binary64 within 1e-12 of the endpoint, but the
    # grid stops at probability 1e-12, where the density is far from underflow
    verdict = F.classify_nearly_gamma(F.Gamma(a, 1.0))
    assert verdict.interval_ok
    assert "density vanishes inside the support" not in verdict.flags


@pytest.mark.parametrize("spec", ["gamma:a=0.5,b=1", "uniform:lo=1,hi=2", "halfnormal",
                                  "trunc(exp:rate=1;k=10,c5=0.5)"])
def test_grid_reaches_both_tails_by_probability(spec):
    d = F.parse_spec(spec)
    grid = _grid(d)
    lo, hi = d.support
    assert np.all(grid > lo) and np.all(grid < hi)
    # 1e-12 of probability beyond each end, up to the float resolution there
    assert d.cdf(grid.min()) <= 1e-12 * (1 + 1e-3)
    assert d.sf(grid.max()) <= 1e-12 * (1 + 1e-3)


def _unique_grid(d):
    """_grid as it was on np.unique: the oracle of its deduplication."""
    lo, hi = d.support
    decades = -math.log10(1e-12)
    q = 10.0 ** -np.linspace(math.log10(2.0), decades, int(200 * decades))
    lower, upper = d.quantile(q), d.isf(q)
    grid = np.unique(np.concatenate([lower, upper, np.linspace(lower[-1], upper[-1], 2048)]))
    return grid[(grid > lo) & (grid < hi)]


@pytest.mark.parametrize("spec", ["exp:rate=1", "gamma:a=0.5,b=1", "gamma:a=2,b=1",
                                  "halfnormal", "uniform:lo=1,hi=2",
                                  "trunc(exp:rate=1;k=10,c5=0.5)"])
def test_grid_is_the_np_unique_grid_byte_for_byte(spec):
    d = F.parse_spec(spec)
    assert _grid(d).tobytes() == _unique_grid(d).tobytes()


def test_exp_classify_leaves_numpy_ma_unloaded():
    """np.unique imports numpy.ma, about 1.3 MiB of RSS; the classifier's
    grid deduplicates without it."""
    probe = ("import sys\n"
             "import fpplab as F\n"
             "F.classify_nearly_gamma(F.Exponential(1.0))\n"
             "sys.exit('numpy.ma' in sys.modules)")
    src = str(Path(F.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: for gamma(a, b) psi(y)/sqrt(y) rises toward sqrt(2/b) from below, so the "
    "grid maximum at survival 1e-12 times 1.05 is not a bound on (0, inf): gamma(2,1) "
    "reports A = 1.3937 while the ratio reads 1.4060 at survival 1e-300"))
def test_gamma_bound_holds_past_the_grid():
    d = F.Gamma(2.0, 1.0)
    y = d.isf(1e-300)
    assert F.classify_nearly_gamma(d).bound_a >= F.psi(d, y) / math.sqrt(y)


def test_truncated_law_stays_nearly_gamma():
    base = F.Exponential(1.0)
    for k in (10, 100, 1000):
        verdict = F.classify_nearly_gamma(F.Truncated(base, k, 1.0))
        assert verdict.direct_pass, k


def test_verdict_serializes_as_itself():
    doc = json.loads(reporting.dumps(F.classify_nearly_gamma(F.Exponential(1.0))))
    assert doc["direct_pass"] is True
    assert doc["grid_points"] > 0
