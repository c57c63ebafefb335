import json
import math

import numpy as np
import pytest
from scipy import stats

import fpplab as F
from fpplab import DomainError, SingularityError, UnsupportedKindError, reporting
from fpplab.distributions import Distribution, _as_float_array, _ret


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


def test_truncated_law_stays_nearly_gamma():
    base = F.Exponential(1.0)
    for k in (10, 100, 1000):
        verdict = F.classify_nearly_gamma(F.Truncated(base, k, 1.0))
        assert verdict.direct_pass, k


def test_verdict_serializes_as_itself():
    doc = json.loads(reporting.dumps(F.classify_nearly_gamma(F.Exponential(1.0))))
    assert doc["direct_pass"] is True
    assert doc["grid_points"] > 0
