"""The numpy Gaussian primitives against the 50-digit mpmath oracle and
against the scipy.special functions they replace.

gaussian.py imports no scipy; these tests keep scipy.special as a second
oracle: `erfcx`, `erfc`, `log_ndtr` and `ndtri_exp` on 10^5 seeded points.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special

import fpplab as F
from fpplab import DomainError, gaussian

from oracles import (
    erfcx_chebyshev_coefficients,
    gauss_log_cdf_oracle,
    gauss_quantile_from_log_cdf_oracle,
    mp,
)

LOG_HALF = math.log(0.5)


def _quantile_ok(got, want):
    """Within 1e-13 relative, or 1e-15 absolute near 0."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    return (err <= 1e-13 * np.abs(want)) | (err <= 1e-15)


def test_erfcx_coefficients_are_the_mpmath_interpolant():
    want = erfcx_chebyshev_coefficients(len(gaussian._ERFCX_CHEB), gaussian._ERFCX_K)
    assert list(gaussian._ERFCX_CHEB) == want


def test_erfcx_against_mpmath():
    m = mp()
    z = np.concatenate([[0.0], np.geomspace(1e-12, 5e8, 400), np.linspace(0.0, 8.0, 201)])
    want = np.array([float(m.erfc(m.mpf(v)) * m.exp(m.mpf(v) ** 2)) for v in z])
    assert np.all(np.abs(gaussian._erfcx(z) / want - 1.0) <= 1e-15)
    # so G(0) = 1/2 exactly
    assert gaussian._erfcx(np.array(0.0)) == 1.0


def test_log_cdf_against_mpmath():
    x = np.concatenate([-np.geomspace(1e4, 1e-8, 300), np.linspace(-40.0, 8.0, 241), [0.0]])
    want = np.array([gauss_log_cdf_oracle(v) for v in x])
    got = F.gauss_log_cdf(x)
    assert np.all(np.abs(got / want - 1.0) <= 1e-14)
    assert [F.gauss_log_cdf(float(v)) for v in x[::60]] == got[::60].tolist()


def test_quantile_from_log_cdf_against_mpmath():
    logp = np.concatenate([
        -np.geomspace(1e4, -LOG_HALF, 400),
        np.linspace(LOG_HALF, -2.0, 120),
        [math.log(1e-300), -690.7755278982137, LOG_HALF],
    ])
    want = np.array([gauss_quantile_from_log_cdf_oracle(v) for v in logp])
    got = F.gauss_quantile_from_log_cdf(logp)
    assert np.all(_quantile_ok(got, want))
    assert F.gauss_quantile_from_log_cdf(math.log(1e-300)) == got[-3]


def test_quantile_from_log_cdf_above_one_half_solves_the_complement():
    logp = np.log(np.array([0.5 + 1e-9, 0.6, 0.9, 1.0 - 1e-9]))
    want = -np.array([gauss_quantile_from_log_cdf_oracle(v) for v in np.log(-np.expm1(logp))])
    assert np.all(_quantile_ok(F.gauss_quantile_from_log_cdf(logp), want))
    assert F.gauss_quantile_from_log_cdf(-1e-20) == pytest.approx(9.262340089798408, rel=1e-13)


def test_erfcx_and_erfc_agree_with_scipy():
    rng = np.random.default_rng(20261020)
    z = np.concatenate([rng.uniform(0.0, 30.0, 50_000), np.exp(rng.uniform(-20.0, 20.0, 50_000))])
    assert np.max(np.abs(gaussian._erfcx(z) / special.erfcx(z) - 1.0)) <= 2e-15
    # the lower tail G(x) = erfc(-x/sqrt 2)/2 in binary64's normal range; scipy's
    # erfc squares the rounded quotient -x/sqrt 2, so it is itself off mpmath
    # by a relative error that grows like x^2 (2.3e-13 at x = -37, 3.4e-16 x^2
    # at most on these points), while G is within 1e-15 (the next test)
    x = rng.uniform(-37.0, 0.0, 100_000)
    ratio = F.gauss_cdf(x) / (0.5 * special.erfc(-x / math.sqrt(2.0)))
    assert np.all(np.abs(ratio - 1.0) <= 1e-15 + 5e-16 * x * x)


def test_cdf_lower_tail_against_mpmath():
    """exp(-x^2/2) from the exact square of x, so the tail keeps every
    digit down to where it leaves binary64's normal range."""
    m = mp()
    x = np.linspace(-37.0, 0.0, 149)
    want = np.array([float(m.ncdf(m.mpf(v))) for v in x])
    assert np.all(np.abs(F.gauss_cdf(x) / want - 1.0) <= 1e-15)


def test_log_cdf_agrees_with_log_ndtr():
    rng = np.random.default_rng(20261021)
    x = np.concatenate([rng.uniform(-1e4, 8.0, 50_000), rng.uniform(-40.0, 8.0, 50_000)])
    # 1e-14 against mpmath (above); log_ndtr is itself 1.1e-14 off mpmath near
    # x = 7.9, where it goes through the same rounded erfc argument
    assert np.max(np.abs(F.gauss_log_cdf(x) / special.log_ndtr(x) - 1.0)) <= 2e-14


def test_quantile_agrees_with_ndtri_exp():
    rng = np.random.default_rng(20261022)
    logp = np.maximum(-np.exp(rng.uniform(math.log(-LOG_HALF), math.log(1e4), 100_000)), -1e4)
    assert np.all(_quantile_ok(F.gauss_quantile_from_log_cdf(logp), special.ndtri_exp(logp)))


def test_infinities_and_nan_give_limits_without_a_warning():
    inf, nan = math.inf, math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, at_minus, at_plus in (
            (F.gauss_pdf, 0.0, 0.0),
            (F.gauss_log_pdf, -inf, -inf),
            (F.gauss_cdf, 0.0, 1.0),
            (F.gauss_sf, 1.0, 0.0),
            (F.gauss_log_cdf, -inf, 0.0),
        ):
            assert fn(-inf) == at_minus and fn(inf) == at_plus, fn.__name__
            assert math.isnan(fn(nan)), fn.__name__
            got = fn(np.array([-inf, inf, nan, 0.0]))
            assert got[:2].tolist() == [at_minus, at_plus] and math.isnan(got[2])
        assert F.gauss_quantile_from_log_cdf(-inf) == -inf
        assert math.isnan(F.gauss_quantile_from_log_cdf(nan))
        got = F.gauss_quantile_from_log_cdf(np.array([-inf, nan, math.log(0.25), -1e-3]))
        assert got[0] == -inf and math.isnan(got[1])
        assert got[2:].tolist() == [F.gauss_quantile(0.25), F.gauss_quantile_from_log_cdf(-1e-3)]
        # the finite extremes: log G past -x^2/2 = -1.8e308, G^-1 near log p = -1.8e308
        assert F.gauss_log_cdf(-1e200) == -inf and F.gauss_log_cdf(1e200) == 0.0
        # and where x*x/2 overflows: g is 0 and log g is -inf
        for x in (-1e200, 1e200, np.array([-1e200, 1e200])):
            assert np.all(F.gauss_pdf(x) == 0.0) and np.all(F.gauss_log_pdf(x) == -inf)
        for logp in (-1e300, -1e308, -1.7e308):
            want = -math.sqrt(2.0) * math.sqrt(-logp)
            assert F.gauss_quantile_from_log_cdf(logp) == pytest.approx(want, rel=1e-15)
    with pytest.raises(DomainError):
        F.gauss_quantile_from_log_cdf(inf)
    for bad in (-inf, inf, nan):
        with pytest.raises(DomainError):
            F.gauss_quantile(bad)
        with pytest.raises(DomainError):
            F.tail_asymptotic_ratio(bad)


# classify verdicts read with scipy.special's log_ndtr and ndtri_exp:
# (bound_a, ratio_max, direct_pass, sufficient_pass, interval_ok,
# continuity_ok, bound_ok, lower_tail_ok, upper_tail_ok, upper_tail_mode, flags)
_SCIPY_VERDICTS = {
    "gamma:a=0.5,b=1": (1.4656505210541846, 1.3958576390992234,
                        True, True, True, True, True, True, True, "hazard-ratio", []),
    "gamma:a=1,b=1": (1.4325009820606718, 1.3642866495815922,
                      True, True, True, True, True, True, True, "hazard-ratio", []),
    "gamma:a=2,b=1": (1.3936662569431426, 1.3273011970887072,
                      True, True, True, True, True, True, True, "hazard-ratio", []),
    "gamma:a=20,b=1": (None, 1.1817752030232618,
                       False, True, True, True, False, True, True, "hazard-ratio",
                       ["psi(y)/sqrt(y) keeps growing past the grid"]),
    "halfnormal": (0.8059274934930987, 0.7675499938029511,
                   True, False, True, True, True, True, False, "hazard-ratio", []),
    "uniform:lo=1,hi=2": (0.3451535715780523, 0.3287176872171927,
                          True, True, True, True, True, True, True, "finite-endpoint", []),
    "exp:rate=1": (1.4325009820606718, 1.3642866495815922,
                   True, True, True, True, True, True, True, "hazard-ratio", []),
    "exp:rate=1e-300": (1.4325009820606383e150, 1.3642866495815602e150,
                        True, True, True, True, True, True, True, "hazard-ratio", []),
    "trunc(exp:rate=1;k=10,c5=0.5)": (1.1010338726312796, 1.0486036882202663,
                                      True, True, True, True, True, True, True,
                                      "finite-endpoint", []),
}


@pytest.mark.parametrize("spec", sorted(_SCIPY_VERDICTS))
def test_classify_verdicts_match_the_scipy_primitives(spec):
    bound_a, ratio_max, *rest = _SCIPY_VERDICTS[spec]
    v = F.classify_nearly_gamma(F.parse_spec(spec))
    got = [v.direct_pass, v.sufficient_pass, v.interval_ok, v.continuity_ok, v.bound_ok,
           v.lower_tail_ok, v.upper_tail_ok, v.upper_tail_mode, v.flags]
    assert got == rest
    assert v.ratio_max == pytest.approx(ratio_max, rel=1e-12)
    if bound_a is None:
        assert v.bound_a is None
    else:
        assert v.bound_a == pytest.approx(bound_a, rel=1e-12)
