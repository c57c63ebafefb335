import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import fpplab as F
from fpplab import DomainError, UnsupportedKindError
from oracles import truncated_tail_quantile_100_rounds


CONTINUOUS_SPECS = [
    "gamma:a=0.5,b=1",
    "gamma:a=2,b=0.5",
    "exp:rate=1",
    "exp:rate=2.5",
    "uniform:lo=0,hi=1",
    "uniform:lo=1,hi=2",
    "halfnormal",
    "trunc(exp:rate=1;k=10,c5=0.5)",
    "trunc(gamma:a=2,b=1;k=50,c5=1)",
]


def _interior_grid(d, lo_q=1e-6, hi_q=1 - 1e-6, num=400):
    return np.asarray(d.quantile(np.linspace(lo_q, hi_q, num)))


def _kinks(d):
    """Breakpoints where the density is non-smooth, for the quad oracle."""
    if isinstance(d, F.Truncated):
        return [d.cut, d.top]
    if isinstance(d, F.Tabulated):
        return list(d.xs)
    return []


def _quad_pdf(d, lo, hi):
    pts = [p for p in _kinks(d) if lo < p < hi]
    val, _ = integrate.quad(
        d.pdf, lo, hi, points=pts or None, limit=max(300, 50 + 10 * len(pts)),
        epsabs=1e-12, epsrel=1e-11,
    )
    return val


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS)
def test_cdf_matches_integrated_density(spec):
    d = F.parse_spec(spec)
    lo, _ = d.support
    xs = _interior_grid(d, 1e-4, 1 - 1e-4, 60)
    for x in xs:
        val = _quad_pdf(d, lo, float(x))
        assert abs(val - float(d.cdf(float(x)))) <= 1e-8


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS)
def test_density_integrates_to_one(spec):
    d = F.parse_spec(spec)
    lo, hi = d.support
    upper = hi if math.isfinite(hi) else float(d.quantile(1 - 1e-14)) + 40.0
    val = _quad_pdf(d, lo, upper)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS)
def test_quantile_cdf_roundtrip(spec):
    d = F.parse_spec(spec)
    xs = _interior_grid(d)
    back = np.asarray(d.quantile(np.asarray(d.cdf(xs))))
    scale = np.maximum(np.abs(xs), 1e-12)
    assert np.max(np.abs(back - xs) / scale) <= 1e-10


@pytest.mark.parametrize("spec", CONTINUOUS_SPECS)
def test_cdf_monotone_and_normalized(spec):
    d = F.parse_spec(spec)
    lo, hi = d.support
    xs = np.linspace(lo - 1.0, (hi if math.isfinite(hi) else float(d.quantile(1 - 1e-12))) + 1.0, 800)
    vals = np.asarray(d.cdf(xs))
    assert np.all(np.diff(vals) >= -1e-15)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic():
    d = F.parse_spec("exp:rate=1")
    a = d.sample(np.random.default_rng(np.random.SeedSequence((5, 0))), 10)
    b = d.sample(np.random.default_rng(np.random.SeedSequence((5, 0))), 10)
    assert np.array_equal(a, b)
    first = float(d.sample(np.random.default_rng(np.random.SeedSequence((5, 0)))))
    assert first == a[0]


def test_bernoulli_sampling_frequency(rng):
    d = F.parse_spec("bernoulli:a=1,b=2,p=0.5")
    draws = d.sample(rng, 100_000)
    freq = float(np.mean(draws == 2.0))
    assert abs(freq - 0.5) <= 0.01


@pytest.mark.parametrize(
    "spec",
    ["uniform:lo=0,hi=1", "exp:rate=1", "gamma:a=2,b=1", "halfnormal",
     "trunc(exp:rate=1;k=10,c5=0.5)"],
)
def test_sampling_passes_ks(spec, rng):
    d = F.parse_spec(spec)
    draws = np.asarray(d.sample(rng, 100_000))
    stat, pvalue = stats.kstest(draws, lambda x: np.asarray(d.cdf(x)))
    assert pvalue > 1e-3


def test_upper_mean_matches_quadrature():
    for spec in ("exp:rate=2", "gamma:a=1.5,b=1", "uniform:lo=0,hi=3", "halfnormal"):
        d = F.parse_spec(spec)
        for c in (0.0, 0.4, 1.7):
            ref = integrate.quad(
                lambda y: max(y - c, 0.0) * d.pdf(y),
                d.support[0],
                float(d.quantile(1 - 1e-15)) + 30.0 if not math.isfinite(d.support[1]) else d.support[1],
                limit=400,
            )[0]
            assert d.upper_mean(c) == pytest.approx(ref, rel=1e-7, abs=1e-12)
    b = F.parse_spec("bernoulli:a=1,b=2,p=0.3")
    assert b.upper_mean(1.5) == pytest.approx(0.3 * 0.5)


def test_lsi_constant_examples():
    assert F.lsi_constant_bernoulli(0.5) == 2.0
    assert F.lsi_constant_bernoulli(0.9) == pytest.approx(math.log(9.0) / 0.8, rel=1e-14)
    # dyadic parameters have exact binary complements: equality is bitwise
    assert F.lsi_constant_bernoulli(0.25) == F.lsi_constant_bernoulli(0.75)
    assert F.lsi_constant_bernoulli(0.3) == pytest.approx(
        F.lsi_constant_bernoulli(0.7), rel=1e-15
    )
    for p in (1e-9, 1e-3, 0.47, 0.5 + 1e-12):
        c = F.lsi_constant_bernoulli(p)
        assert c >= 2.0
    with pytest.raises(DomainError):
        F.lsi_constant_bernoulli(0.0)
    with pytest.raises(DomainError):
        F.lsi_constant_bernoulli(1.0)


def test_lsi_constant_symmetry_sweep(rng):
    for p in rng.uniform(0.01, 0.99, 200):
        c1 = F.lsi_constant_bernoulli(float(p))
        c2 = F.lsi_constant_bernoulli(float(1.0 - p))
        assert abs(c1 - c2) <= 1e-15 * max(c1, c2) * 10  # complement rounding only


def test_lsi_constant_continuity_at_half():
    c_left = F.lsi_constant_bernoulli(0.5 - 1e-9)
    c_right = F.lsi_constant_bernoulli(0.5 + 1e-9)
    assert c_left == pytest.approx(2.0, abs=1e-12)
    assert c_right == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_support_and_head():
    base = F.parse_spec("exp:rate=1")
    nu = F.Truncated(base, 100, 1.0)
    cut = math.log(100.0)
    assert nu.cut == pytest.approx(cut)
    assert float(nu.cdf(2 * cut)) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(0.0, cut, 500)
    assert np.max(np.abs(np.asarray(nu.cdf(xs)) - np.asarray(base.cdf(xs)))) == 0.0


def test_truncate_dominates_on_dense_grid():
    base = F.parse_spec("exp:rate=1")
    nu = F.Truncated(base, 100, 1.0)
    xs = np.linspace(0.0, nu.top * 1.2, 10_000)
    defect = np.asarray(base.cdf(xs)) - np.asarray(nu.cdf(xs))
    assert defect.max() <= 1e-12


def test_truncate_noop_when_mass_already_low():
    base = F.parse_spec("uniform:lo=0,hi=1")
    nu = F.Truncated(base, 100, 1.0)  # cut = log(100) = 4.6 > 1
    xs = np.linspace(-0.5, 2.0, 400)
    assert np.max(np.abs(np.asarray(nu.cdf(xs)) - np.asarray(base.cdf(xs)))) <= 1e-12


def test_truncate_randomized_postconditions(rng):
    bases = ["exp:rate=1", "exp:rate=0.5", "gamma:a=2,b=1", "gamma:a=0.5,b=2", "halfnormal"]
    combos = 0
    while combos < 20:
        spec = bases[int(rng.integers(len(bases)))]
        k = int(rng.integers(2, 2000))
        c5 = float(rng.uniform(0.2, 6.0))
        base = F.parse_spec(spec)
        nu = F.Truncated(base, k, c5)
        xs = np.linspace(0.0, nu.top * 1.1, 2000)
        h_b = np.asarray(base.cdf(xs))
        h_k = np.asarray(nu.cdf(xs))
        assert (h_b - h_k).max() <= 1e-12, (spec, k, c5)
        head = xs <= nu.cut
        assert np.abs(h_b[head] - h_k[head]).max() <= 1e-12
        assert float(nu.cdf(nu.top)) == pytest.approx(1.0, abs=1e-12)
        combos += 1


def test_truncate_custom_bump_and_validation():
    base = F.parse_spec("exp:rate=1")
    with pytest.raises(DomainError):
        F.Truncated(base, 1, 1.0)
    with pytest.raises(UnsupportedKindError):
        F.Truncated(F.parse_spec("bernoulli:a=1,b=2,p=0.5"), 50, 1.0)


@pytest.mark.parametrize(
    "k,c5",
    ((10, math.inf), (10, math.nan), (10, 1e308), (2, 1.25e308)),  # 2.1 c5 log 2 overflows
)
def test_truncate_rejects_non_finite_or_overflowing_scale(k, c5):
    with pytest.raises(DomainError, match="c5"):
        F.Truncated(F.parse_spec("exp:rate=1"), k, c5)


def test_truncate_accepts_the_largest_scale_whose_grid_fits():
    nu = F.Truncated(F.parse_spec("exp:rate=1"), 2, 1e308)
    assert math.isfinite(1.05 * nu.top)
    assert nu.domination_check(50)[2]


def test_trunc_spec_rejects_an_overflowing_cut():
    with pytest.raises(DomainError, match="c5"):
        F.parse_spec("trunc(exp:rate=1;k=10,c5=1e308)")


def test_truncated_quantile_accuracy_in_bump_region():
    base = F.parse_spec("exp:rate=1")
    nu = F.Truncated(base, 10, 0.5)  # cut = 1.15, real mass beyond it
    us = np.linspace(float(base.cdf(nu.cut)) + 1e-6, 1 - 1e-9, 300)
    xs = np.asarray(nu.quantile(us))
    back = np.asarray(nu.cdf(xs))
    assert np.max(np.abs(back - us)) <= 1e-10
    assert np.all(xs <= nu.top)


# ---------------------------------------------------------------------------
# tabulated kind


def test_tabulated_roundtrip_and_moments(rng):
    xs = np.linspace(0.5, 3.0, 41)
    hs = 1.0 + np.sin(xs) ** 2
    d = F.Tabulated(xs, hs)
    val = _quad_pdf(d, 0.5, 3.0)
    assert val == pytest.approx(1.0, abs=1e-9)
    us = rng.uniform(1e-6, 1 - 1e-6, 500)
    pts = np.asarray(d.quantile(us))
    assert np.max(np.abs(np.asarray(d.cdf(pts)) - us)) <= 1e-10
    with pytest.raises(DomainError):
        F.Tabulated([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        F.Tabulated([0, 1], [-1.0, 1.0])


# ---------------------------------------------------------------------------
# spec grammar


def test_parse_spec_grammar():
    assert F.parse_spec("gamma:a=1,b=1").kind == "gamma"
    assert F.parse_spec("exp:rate=1").kind == "exponential"
    assert F.parse_spec("uniform:lo=0,hi=1").kind == "uniform"
    assert F.parse_spec("bernoulli:a=1,b=2,p=0.5").kind == "bernoulli"
    assert F.parse_spec("halfnormal").kind == "halfnormal"
    assert F.parse_spec("dirac:c=1").kind == "dirac"
    t = F.parse_spec("trunc(exp:rate=1;k=100,c5=8)")
    assert t.kind == "truncated" and t.k == 100 and t.c5 == 8.0
    assert F.parse_spec(t.spec_string()).spec_string() == t.spec_string()
    for bad in ("nope", "gamma:a=1", "gamma:a=1,b=1,c=3", "trunc(exp:rate=1)", "exp:rate=-1"):
        with pytest.raises((DomainError,)):
            F.parse_spec(bad)


@pytest.mark.parametrize(
    "bad", ("uniform:lo=0,hi=inf", "gamma:a=inf,b=1", "dirac:c=nan", "exp:rate=fast",
            "trunc(exp:rate=1;k=2.5,c5=1)"),
)
def test_parse_spec_rejects_non_finite_and_non_numeric(bad):
    with pytest.raises(DomainError):
        F.parse_spec(bad)


@pytest.mark.parametrize(
    "spec,key",
    (
        ("exp:rate=1,rate=2", "rate"),
        ("bernoulli:a=1,b=2,p=0.5,a=0.5", "a"),
        ("trunc(exp:rate=1;k=10,c5=0.5,k=3)", "k"),
        ("trunc(exp:rate=1,rate=2;k=10,c5=0.5)", "rate"),
    ),
)
def test_parse_spec_refuses_a_repeated_parameter(spec, key):
    with pytest.raises(DomainError, match=f"repeated parameter '{key}'"):
        F.parse_spec(spec)


def test_spec_string_keeps_short_form_when_lossless():
    assert F.parse_spec("exp:rate=1").spec_string() == "exp:rate=1"
    assert F.Bernoulli(0.125, 2.0, 0.5).spec_string() == "bernoulli:a=0.125,b=2,p=0.5"
    assert F.Dirac(0.1234567).spec_string() == "dirac:c=0.1234567"
    assert F.Exponential(1 / 3).spec_string() == "exp:rate=0.3333333333333333"


def _params(d):
    """Every parameter of a parsed law, as float bit patterns."""
    names = {
        "gamma": ("a", "b"), "exponential": ("rate",), "uniform": ("lo", "hi"),
        "bernoulli": ("a", "b", "p"), "dirac": ("c",), "halfnormal": (),
    }
    if d.kind == "truncated":
        return (d.kind, d.k, d.c5.hex()) + _params(d.base)
    return (d.kind,) + tuple(float(getattr(d, k)).hex() for k in names[d.kind])


_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
_pos = st.floats(min_value=1e-300, max_value=1e300)
_prob = st.floats(min_value=1e-12, max_value=1 - 1e-12)


def _pairs(values):
    """(lo, hi) with lo < hi."""
    return st.tuples(values, values).map(sorted).filter(lambda t: t[0] < t[1])


_bases = st.one_of(
    st.builds(F.Gamma, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    st.builds(F.Exponential, _pos),
    _pairs(st.floats(0, 1e300)).map(lambda t: F.Uniform(*t)),
    st.just(F.HalfNormal()),
)
_laws = st.one_of(
    _bases,
    _pairs(_finite).map(lambda t: F.Uniform(*t)),
    st.builds(lambda a, b, p: F.Bernoulli(min(a, b), max(a, b), p), _finite, _finite, _prob),
    st.builds(F.Dirac, _finite),
    st.builds(F.Truncated, _bases, st.integers(2, 10**6), st.floats(1e-3, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(_laws)
def test_spec_round_trip_is_bit_exact(law):
    again = F.parse_spec(law.spec_string())
    assert _params(again) == _params(law)


def test_discrete_kinds_have_no_density():
    with pytest.raises(UnsupportedKindError):
        F.parse_spec("bernoulli:a=1,b=2,p=0.5").pdf(1.0)
    d = F.parse_spec("dirac:c=2")
    assert float(d.quantile(0.37)) == 2.0


def test_default_c5():
    assert F.default_c5(2, 1.0) == 8.0
    with pytest.raises(DomainError):
        F.default_c5(2, 0.0)


# ---------------------------------------------------------------------------
# scalar/array contract of every public method


CONTRACT_LAWS = {
    "gamma": F.parse_spec("gamma:a=2,b=1"),
    "exp": F.parse_spec("exp:rate=1.5"),
    "uniform": F.parse_spec("uniform:lo=1,hi=3"),
    "halfnormal": F.parse_spec("halfnormal"),
    "bernoulli": F.parse_spec("bernoulli:a=1,b=2,p=0.3"),
    "dirac": F.parse_spec("dirac:c=1.5"),
    "tabulated": F.Tabulated([0.0, 1.0, 1.5, 2.0, 4.0], [0.0, 2.0, 0.5, 1.0, 0.0]),
    "trunc-hat": F.parse_spec("trunc(exp:rate=1;k=10,c5=0.5)"),
}
# laws whose isf is quantile(1 - q) rather than a closed form or a bisection
ISF_BY_QUANTILE = ("uniform", "bernoulli", "dirac", "tabulated")

# interior points, support ends, the bump region, deep tails and outside values
Y_GRID = np.array([
    [-1.0, 0.0, 1e-300, 1e-12, 0.1, 0.5, 1.0, 1.15, 1.5, 2.0],
    [2.3, 2.5, 3.0, 3.5, 4.0, 10.0, 50.0, 700.0, 1e300, np.inf],
])
U_GRID = np.array([
    [0.0, 1e-300, 1e-15, 1e-9, 0.01, 0.3],
    [0.5, 0.7, 0.99, 1 - 1e-9, 1 - 1e-15, 1.0],
])
Y_METHODS = ("pdf", "log_pdf", "cdf", "log_cdf", "sf", "log_sf")
U_METHODS = ("quantile", "isf")


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("name", list(CONTRACT_LAWS))
@pytest.mark.parametrize("method", Y_METHODS + U_METHODS)
def test_scalar_and_array_calls_agree_bit_for_bit(name, method):
    d = CONTRACT_LAWS[name]
    grid = U_GRID if method in U_METHODS else Y_GRID
    fn = getattr(d, method)
    with np.errstate(all="ignore"):
        if not d.continuous and method in ("pdf", "log_pdf"):
            for x in (grid, float(grid[0, 1])):
                with pytest.raises(UnsupportedKindError):
                    fn(x)
            return
        arr = fn(grid)
        assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
        for idx in np.ndindex(grid.shape):
            val = fn(float(grid[idx]))
            assert type(val) is float, (name, method, grid[idx])
            assert _same_bits(val, arr[idx]), (name, method, grid[idx], val, arr[idx])


@pytest.mark.parametrize("name", ISF_BY_QUANTILE)
def test_isf_defaults_to_quantile_of_complement(name):
    d = CONTRACT_LAWS[name]
    with np.errstate(all="ignore"):
        assert d.isf(U_GRID).tobytes() == d.quantile(1.0 - U_GRID).tobytes()
        for q in U_GRID.ravel():
            assert _same_bits(d.isf(float(q)), d.quantile(1.0 - float(q)))


def _same_values(a, b):
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                          equal_nan=True)


@pytest.mark.parametrize("name", list(CONTRACT_LAWS))
def test_one_support_rule_for_every_law(name):
    d = CONTRACT_LAWS[name]
    lo, hi = d.support
    inf, nan = math.inf, math.nan
    below = [-inf] + [math.nextafter(lo, -inf)] * math.isfinite(lo) + [lo] * d.continuous
    above = [inf] + [hi, math.nextafter(hi, inf)] * math.isfinite(hi)
    # the points the kernels decide: just inside each end, and lo of a discrete law
    inside = [math.nextafter(lo, inf), math.nextafter(hi, -inf)] * (lo < hi)
    inside += [lo] * (not d.continuous and lo < hi)
    limits = {"cdf": (0.0, 1.0), "sf": (1.0, 0.0), "log_cdf": (-inf, 0.0),
              "log_sf": (0.0, -inf)}
    with np.errstate(all="ignore"):
        for method, (left, right) in limits.items():
            fn = getattr(d, method)
            assert math.isnan(fn(nan)), method
            assert all(fn(y) == left for y in below), (method, below)
            assert all(fn(y) == right for y in above), (method, above)
            for y in inside:
                assert fn(y) == float(getattr(d, "_" + method)(np.array([y]))[0]), (method, y)
            points = below + above + inside + [nan]
            assert _same_values(fn(np.array(points)), [fn(y) for y in points]), method
        for method in U_METHODS:
            fn = getattr(d, method)
            for u in (nan, -0.5, 1.5, -inf, inf):
                assert math.isnan(fn(u)), (method, u)
            assert not math.isnan(fn(0.0)) and not math.isnan(fn(1.0)), method
            points = [nan, -0.5, 0.0, 0.5, 1.0, 1.5]
            assert _same_values(fn(np.array(points)), [fn(u) for u in points]), method
        if not d.continuous:
            for y in (nan, 5.0, lo, np.array([lo, 5.0])):
                with pytest.raises(UnsupportedKindError):
                    d.pdf(y)
                with pytest.raises(UnsupportedKindError):
                    d.log_pdf(y)
            return
        for method, off in (("pdf", 0.0), ("log_pdf", -inf)):
            fn = getattr(d, method)
            assert math.isnan(fn(nan)), method
            outside = [y for y in (math.nextafter(lo, -inf), math.nextafter(hi, inf))
                       if math.isfinite(y)]
            assert all(fn(y) == off for y in outside), (method, outside)
            for end in (lo, hi):
                if math.isfinite(end):
                    assert fn(end) == float(getattr(d, "_" + method)(np.array([end]))[0])
            points = outside + [lo, hi, nan]
            assert _same_values(fn(np.array(points)), [fn(y) for y in points]), method


def test_gamma_standardized_x_reaches_0_and_inf_inside_the_support():
    # y / scale underflows to 0 at y = 5e-324, scale 4, and overflows at
    # y = 1e308, scale 0.25: the log tails stay scipy's +0.0 there
    with np.errstate(over="ignore"):
        assert _same_bits(F.Gamma(2.0, 4.0).log_cdf(1e308), 0.0)
        assert _same_bits(F.Gamma(2.0, 0.25).log_sf(5e-324), 0.0)
    for a in (0.5, 2.0):
        law, oracle = F.Gamma(a, 4.0), stats.gamma(a, scale=0.25)
        with np.errstate(all="ignore"):
            for y in (1e300, 1e308):
                assert _same_bits(law.log_cdf(y), oracle.logcdf(y)), (a, y)


@pytest.mark.parametrize("name", [k for k, d in CONTRACT_LAWS.items() if d.continuous])
def test_upper_mean_below_the_support_is_mean_minus_level(name):
    d = CONTRACT_LAWS[name]
    c = d.support[0] - 1.0
    assert d.upper_mean(c) == pytest.approx(d.mean() - c, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(CONTRACT_LAWS))
def test_upper_mean_at_infinity_is_zero(name):
    # E[(Y - c)+] at c = +inf, for every built-in kind plus a trunc(...) and a tabulated law
    assert set(F.distributions._SPECS) <= set(CONTRACT_LAWS)
    value = CONTRACT_LAWS[name].upper_mean(math.inf)
    assert type(value) is float and value == 0.0


def test_tabulated_upper_mean_matches_the_uniform_closed_form():
    tab, uni = F.Tabulated([1.0, 2.0], [1.0, 1.0]), F.Uniform(1.0, 2.0)
    assert tab.mean() == uni.mean()
    for c in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        assert tab.upper_mean(c) == pytest.approx(uni.upper_mean(c), abs=1e-6)


def test_domination_check_matches_a_direct_grid():
    base = F.parse_spec("exp:rate=1")
    nu = F.Truncated(base, 10, 0.5)
    check = nu.domination_check(5000)
    max_defect, below_cut_error, support_ok = check
    grid = np.linspace(0.0, 1.05 * nu.top, 5000)
    defect = np.asarray(base.cdf(grid)) - np.asarray(nu.cdf(grid))
    assert max_defect == defect.max() <= 1e-12
    assert below_cut_error == np.abs(defect[grid <= nu.cut]).max() == 0.0
    assert support_ok
    # the verdict needs all three, each up to 1e-12 rounding
    assert check.dominates
    assert check._replace(max_defect=1e-12, equal_below_cut_max_error=1e-12).dominates
    for bad in (dict(max_defect=2e-12), dict(equal_below_cut_max_error=2e-12),
                dict(support_ok=False), dict(max_defect=math.nan)):
        assert not check._replace(**bad).dominates, bad
    with pytest.raises(DomainError):
        nu.domination_check(1)


@pytest.mark.parametrize(
    "spec", ("trunc(exp:rate=1;k=10,c5=0.5)", "trunc(gamma:a=2,b=1;k=50,c5=1)")
)
def test_truncated_tail_bisection_stops_at_its_fixed_point_bit_for_bit(spec):
    nu = F.parse_spec(spec)
    h_cut = float(nu.base.cdf(nu.cut))
    rng = np.random.default_rng(5)
    u = np.concatenate([
        h_cut + (1.0 - h_cut) * rng.random(2000),
        [np.nextafter(h_cut, 1.0), 0.5 * (1.0 + h_cut), np.nextafter(1.0, 0.0), 1.0],
    ])
    got = nu.quantile(u)
    assert got.tobytes() == truncated_tail_quantile_100_rounds(nu, u).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec", ("trunc(exp:rate=1;k=10,c5=0.5)", "trunc(gamma:a=2,b=1;k=10,c5=0.5)")
)
def test_truncated_isf_brackets_deep_survival_levels(spec):
    """isf(q) lies in the support, and q lies between sf there and sf at
    one of its two float neighbours, down to q = 1e-300, where 1 - q is 1."""
    nu = F.parse_spec(spec)
    lo, hi = nu.support
    for j in range(1, 301):
        q = 10.0**-j
        y = nu.isf(q)
        left, right = (nu.sf(np.nextafter(y, x)) for x in (-np.inf, np.inf))
        assert lo <= y <= hi, (j, y)
        assert nu.sf(y) <= q <= left or right <= q <= nu.sf(y), (j, y)


def test_exponential_quantile_keeps_its_bits_and_its_input():
    law = F.parse_spec("exp:rate=1.7")
    u = np.concatenate([[0.0, 1 - 2**-53], np.random.default_rng(9).random(10**5 - 2)])
    before = u.copy()
    assert law.quantile(u).tobytes() == (-np.log1p(-before) / 1.7).tobytes()
    assert u.tobytes() == before.tobytes()
    for x in (0.25, np.float64(0.25), np.array(0.25)):
        value = law.quantile(x)
        assert type(value) is float and value == -math.log1p(-0.25) / 1.7


# ---------------------------------------------------------------------------
# the gamma law on scipy.special against scipy.stats.gamma, bit for bit

GAMMA_X_EDGES = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 1.0,
                          1e300, np.inf, np.nan])
GAMMA_Q_EDGES = np.array([-0.5, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1 - 2**-53, 1.0, 1.5,
                          np.nan])


def _bit_mismatches(got, want):
    """Indices where two float arrays differ in bits; any nan matches any nan."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    both_nan = np.isnan(got) & np.isnan(want)
    return np.flatnonzero((got.view(np.int64) != want.view(np.int64)) & ~both_nan)


@pytest.mark.parametrize("a,b", ((0.1, 2.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0),
                                 (2.0, 3.0), (7.5, 0.25)))
def test_gamma_kernels_are_scipy_stats_bit_for_bit(a, b):
    law, oracle = F.Gamma(a, b), stats.gamma(a, scale=1.0 / b)
    rng = np.random.default_rng(int(100 * a + b))
    mean = a / b
    y = np.concatenate([
        GAMMA_X_EDGES,
        rng.exponential(3.0 * mean, 50_000),
        mean * 10.0 ** rng.uniform(-300.0, 3.0, 50_000),
    ])
    q = np.concatenate([
        GAMMA_Q_EDGES,
        rng.random(50_000),
        10.0 ** rng.uniform(-300.0, 0.0, 25_000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 25_000),
    ])
    pairs = {
        "pdf": (law.pdf(y), oracle.pdf),
        "log_pdf": (law.log_pdf(y), oracle.logpdf),
        "cdf": (law.cdf(y), oracle.cdf),
        "sf": (law.sf(y), oracle.sf),
        "log_cdf": (law.log_cdf(y), oracle.logcdf),
        "log_sf": (law.log_sf(y), oracle.logsf),
        "quantile": (law.quantile(q), oracle.ppf),
        "isf": (law.isf(q), oracle.isf),
    }
    for name, (got, kernel) in pairs.items():
        points = q if name in ("quantile", "isf") else y
        with np.errstate(all="ignore"):  # stats warns at +inf for a > 1
            want = kernel(points)
        bad = _bit_mismatches(got, want)[:3]
        assert bad.size == 0, (name, points[bad], got[bad], want[bad])
    levels = np.concatenate([[5e-324, 1e-300, 0.5, 1.0, 1e300], rng.exponential(3.0 * mean, 2000)])
    got = np.array([law.upper_mean(float(c)) for c in levels])
    want = (a / b) * stats.gamma.sf(levels, a + 1.0, scale=1.0 / b) - levels * oracle.sf(levels)
    bad = _bit_mismatches(got, want)[:3]
    assert bad.size == 0, ("upper_mean", levels[bad], got[bad], want[bad])
