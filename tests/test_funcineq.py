import itertools
import math

import numpy as np
import pytest

import fpplab as F
from fpplab import DomainError, ResourceGuardError, UnsupportedParameterError, funcineq

from oracles import martingale_increments_oracle, per_call_energy_decomposition


def test_entropy_constant_is_zero():
    w = np.full(4, 0.25)
    assert F.entropy(np.full(4, 3.7), w) == 0.0


def test_entropy_positive_homogeneity(rng):
    w = np.full(8, 1 / 8)
    v = rng.random(8)
    assert F.entropy(2 * v, w) == pytest.approx(2 * F.entropy(v, w), rel=1e-12)


def test_entropy_two_point_value():
    w = np.array([0.5, 0.5])
    expected = 1.5 * math.log(3.0) - 2.0 * math.log(2.0)
    assert F.entropy(np.array([1.0, 3.0]), w) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.2616, abs=5e-4)


def test_entropy_rejects_negative():
    with pytest.raises(DomainError):
        F.entropy(np.array([1.0, -0.1]), np.array([0.5, 0.5]))


def test_entropy_nonnegative_random(rng):
    w = np.full(16, 1 / 16)
    for _ in range(200):
        assert F.entropy(rng.random(16), w) >= 0.0


def test_product_table_validation():
    with pytest.raises(DomainError):
        F.ProductTable([0.5], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        F.ProductTable([0.0, 0.5], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ResourceGuardError):
        F.ProductTable([0.5] * 21, np.zeros(2**21))


@pytest.mark.parametrize("p, values", (
    ([math.nan, 0.5], [0.0, 1.0, 2.0, 3.0]),
    ([0.5, 0.5], [0.0, math.nan, 2.0, 3.0]),
    ([0.5, 0.5], [0.0, 1.0, math.inf, 3.0]),
    ([0.5, 0.5], [-math.inf, 1.0, 2.0, 3.0]),
))
def test_product_table_refuses_nan_and_infinite_input(p, values):
    """A NaN parameter or a non-finite value is refused when the table is
    made, so it cannot read later as a violated inequality."""
    with pytest.raises(DomainError):
        F.ProductTable(p, values)


def test_constructors_refuse_large_n_before_building_the_cube():
    """n above the cap is refused before the 2^n values are made: n = 64
    would otherwise ask numpy for 2^64 entries."""
    for make in (
        lambda: F.ProductTable.random(64, 0.5, np.random.default_rng(0)),
        lambda: F.ProductTable.dictator(64, 0.5),
        lambda: F.ProductTable.parity(64, 0.5),
        lambda: F.ProductTable.hamming_ball(64, 0.5, 1),
    ):
        with pytest.raises(ResourceGuardError, match="tables capped at n <= 20"):
            make()


def test_hamming_ball_of_radius_n_or_more_is_the_whole_cube():
    for radius in (3, 4, 100):
        assert np.all(F.ProductTable.hamming_ball(3, 0.5, radius).values == 1.0)


def test_martingale_increments_dictator():
    t = F.ProductTable.dictator(3, 0.5, 1)
    vs = F.martingale_increments(t)
    assert np.allclose(vs[0], t.tensor() - t.mean())
    assert np.allclose(vs[1], 0.0)
    assert np.allclose(vs[2], 0.0)


def test_martingale_increments_constant():
    t = F.ProductTable([0.3, 0.7], np.full(4, 2.5))
    for v in F.martingale_increments(t):
        assert np.allclose(v, 0.0)


def test_martingale_increments_telescope(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = rng.uniform(0.1, 0.9, n)
        t = F.ProductTable.random(n, p, rng)
        vs = F.martingale_increments(t)
        total = sum(vs)
        assert np.max(np.abs(total - (t.tensor() - t.mean()))) <= 1e-12


def test_martingale_increments_measurability(rng):
    # V_j must not depend on the already-integrated coordinates 1..j-1
    t = F.ProductTable.random(4, [0.3, 0.6, 0.5, 0.8], rng)
    vs = F.martingale_increments(t)
    for j, v in enumerate(vs, start=1):
        for axis in range(j - 1):
            assert np.max(np.abs(np.diff(v, axis=axis))) == 0.0


def test_martingale_increments_against_conditional_expectation_oracle(rng):
    t = F.ProductTable([0.5, 0.5], np.array([0.0, 1.0, 2.0, 5.0]))
    vs = F.martingale_increments(t)
    oracle = martingale_increments_oracle(t)
    for v, ref in zip(vs, oracle):
        assert np.allclose(v.ravel(), ref, atol=1e-12)
    # spot values from the definition
    assert np.allclose(vs[0].ravel(), [-1.0, -2.0, 1.0, 2.0])
    assert np.allclose(vs[1].ravel(), [-1.0, 1.0, -1.0, 1.0])
    t2 = F.ProductTable.random(3, [0.2, 0.5, 0.7], rng)
    for v, ref in zip(F.martingale_increments(t2), martingale_increments_oracle(t2)):
        assert np.allclose(v.ravel(), ref, atol=1e-12)


def test_modified_poincare_constant_table():
    rep = F.verify_modified_poincare(F.ProductTable([0.5, 0.5], np.full(4, 1.3)))
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.holds()


def test_modified_poincare_dictator_values():
    rep = F.verify_modified_poincare(F.ProductTable.dictator(2, 0.5, 1))
    assert rep.variance == pytest.approx(0.25)
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)
    assert rep.rhs == pytest.approx(0.5)
    assert rep.increment_l1[0] == pytest.approx(0.5)


def test_fs_bound_dictator():
    rep = F.verify_fs_bound(F.ProductTable.dictator(2, 0.5, 1))
    assert rep.holds()
    assert rep.entropy_terms[0] == pytest.approx(0.0, abs=1e-12)


def test_energy_decomposition_dictator():
    dec = F.verify_energy_decomposition(F.ProductTable.dictator(2, 0.5, 1), 1)
    assert dec.lhs == pytest.approx(0.25)
    assert dec.rhs == pytest.approx(0.25)
    dec2 = F.verify_energy_decomposition(F.ProductTable([0.5, 0.5], np.full(4, 2.0)), 1)
    assert dec2.lhs == 0.0 and dec2.rhs == 0.0


def test_energy_decomposition_exact_on_random(rng):
    for _ in range(25):
        n = int(rng.integers(2, 8))
        p = rng.uniform(0.1, 0.9, n)
        t = F.ProductTable.random(n, p, rng)
        for i in range(1, n + 1):
            dec = F.verify_energy_decomposition(t, i)
            assert dec.holds(1e-10)
    with pytest.raises(DomainError):
        F.verify_energy_decomposition(t, 0)


def test_random_suite_all_pass():
    rep = F.run_random_suite(n_tables=200, ns=range(2, 10), ps=(0.1, 0.5, 0.9), seed=11)
    assert rep.violations == 0
    assert rep.mp_min_slack >= -1e-9
    assert rep.fs_min_slack >= -1e-9
    assert rep.energy_max_error <= 1e-10
    assert rep.jensen_ok
    assert rep.tables == 200
    # worst-table echo is a lossless hex dump of the values
    vals = np.frombuffer(bytes.fromhex(rep.worst["values_hex"]), dtype="<f8")
    assert np.array_equal(vals, np.asarray(rep.worst["values"]))


def _suite_sample(n_tables, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    population = funcineq._suite_population([12, 5, 9], [0.1, 0.5, 0.9], rng)
    return list(itertools.islice(population, n_tables))


def test_energy_decomposition_matches_per_call_oracle_bit_for_bit():
    tables = [t for _, t in _suite_sample(60, 20240917)]
    assert any(t.n == 12 for t in tables)
    assert any(np.unique(t.p).size > 1 for t in tables)
    for t in tables:
        for i in range(1, t.n + 1):
            terms, lhs, rhs = per_call_energy_decomposition(t, i)
            dec = F.verify_energy_decomposition(t, i)
            assert dec.lhs_terms == terms, (t.n, list(t.p), i)
            assert (dec.lhs, dec.rhs) == (lhs, rhs), (t.n, list(t.p), i)


def test_cached_weights_and_increments_are_read_only(rng):
    p = np.array([0.2, 0.5, 0.7])
    vals = rng.random(8)
    t = F.ProductTable(p, vals)
    p[0], vals[0] = 0.9, 5.0  # the table keeps its own copies
    assert t.p[0] == 0.2 and t.values[0] != 5.0
    for a in (t.p, t.values):
        with pytest.raises(ValueError):
            a[0] = 0.5
    assert t.weights() is t.weights()
    with pytest.raises(ValueError):
        t.weights()[0] = 1.0
    with pytest.raises(ValueError):
        t.weight_tensor()[0, 0, 0] = 1.0
    vs = F.martingale_increments(t)
    assert all(a is b for a, b in zip(vs, F.martingale_increments(t)))
    for v in vs:
        with pytest.raises(ValueError):
            v[...] = 0.0
    vs.clear()  # the returned list is the caller's own
    assert len(F.martingale_increments(t)) == 3


def test_suite_table_computes_its_increments_once(monkeypatch):
    calls = []
    real = funcineq._doob_increments

    def counting(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(funcineq, "_doob_increments", counting)
    rep = F.run_random_suite(n_tables=40, ns=(2, 6, 9), seed=5)
    assert rep.tables == 40 and rep.violations == 0
    assert len(calls) == 40
    assert len({id(t) for t in calls}) == 40


@pytest.mark.parametrize("n_tables", (1, 2, 4, 5))
def test_suite_stops_at_n_tables_inside_an_adversarial_cell(n_tables):
    rep = F.run_random_suite(n_tables=n_tables, ns=(3,), ps=(0.5,))
    assert rep.tables == n_tables == sum(rep.families.values())
    assert rep.families.get("random", 0) == max(n_tables - 3, 0)


@pytest.mark.parametrize("n_tables", (0, -2))
def test_suite_needs_a_table(n_tables):
    with pytest.raises(DomainError, match="at least one table"):
        F.run_random_suite(n_tables=n_tables, ns=(3,), ps=(0.5,))


@pytest.mark.parametrize(
    "bad,match",
    (
        (dict(seed=-1), "seed must be a nonnegative integer"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(ns=()), "at least one n and one p"),
        (dict(ps=[]), "at least one n and one p"),
    ),
)
def test_suite_refuses_a_bad_seed_or_an_empty_grid_before_any_table(bad, match, monkeypatch):
    def no_tables(*args):
        raise AssertionError("built a table before the input was checked")

    monkeypatch.setattr(funcineq, "_suite_population", no_tables)
    with pytest.raises(DomainError, match=match):
        F.run_random_suite(**(dict(n_tables=3, ns=(3,), ps=(0.5,)) | bad))


@pytest.mark.parametrize("mode", ("first", "alll", "", None))
def test_random_suite_checks_every_energy_coordinate(mode):
    with pytest.raises(DomainError, match="energy_coordinates"):
        F.run_random_suite(n_tables=3, ns=(3,), energy_coordinates=mode)


# ---------------------------------------------------------------------------
# quadrature checks


def test_gaussian_lsi_constant_function():
    rep = F.gaussian_lsi_check(lambda x: 3.0, lambda x: 0.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_gaussian_lsi_equality_case():
    rep = F.gaussian_lsi_check(
        lambda x: math.exp(0.5 * x), lambda x: 0.5 * math.exp(0.5 * x)
    )
    target = 0.5 * math.exp(0.5)
    assert rep.lhs == pytest.approx(target, rel=1e-6)
    assert rep.rhs == pytest.approx(target, rel=1e-6)


def test_gaussian_lsi_linear_function():
    from scipy.special import digamma

    rep = F.gaussian_lsi_check(lambda x: x, lambda x: 1.0)
    assert rep.lhs == pytest.approx(math.log(2.0) + float(digamma(1.5)), rel=1e-8)
    assert rep.rhs == pytest.approx(2.0, rel=1e-10)
    assert rep.holds(1e-6)


def test_onedim_lsi_gamma():
    rep = F.onedim_lsi_check(F.Gamma(1.0, 1.0), lambda x: x, lambda x: 1.0)
    assert rep.rhs == pytest.approx(4.0, rel=1e-8)
    assert rep.holds(1e-6)
    rep0 = F.onedim_lsi_check(F.Gamma(1.5, 2.0), lambda x: 1.0, lambda x: 0.0)
    assert rep0.lhs == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(UnsupportedParameterError):
        F.onedim_lsi_check(F.Gamma(0.3, 1.0), lambda x: x, lambda x: 1.0)


def test_onedim_lsi_uniform():
    rep = F.onedim_lsi_check(
        F.Uniform(0.0, 1.0),
        lambda x: math.sin(math.pi * x),
        lambda x: math.pi * math.cos(math.pi * x),
    )
    assert rep.rhs == pytest.approx(1.0, rel=1e-9)
    assert rep.holds(1e-6)
    with pytest.raises(UnsupportedParameterError):
        F.onedim_lsi_check(F.Uniform(1.0, 2.0), lambda x: x, lambda x: 1.0)
    with pytest.raises(UnsupportedParameterError):
        F.onedim_lsi_check(F.HalfNormal(), lambda x: x, lambda x: 1.0)


# (check, its bits as the three-call quadratures of each case first gave them)
_LSI_BITS = [
    (lambda: F.gaussian_lsi_check(lambda x: x, lambda x: 1.0),
     "gaussian-lsi", "0x1.7593004960ff9p-1", "0x1.0000000000001p+1"),
    (lambda: F.onedim_lsi_check(F.Gamma(2.5, 0.5), lambda x: math.sqrt(1 + x),
                                lambda x: 0.5 / math.sqrt(1 + x)),
     "gamma-lsi", "0x1.8903af06f4960p-1", "0x1.9018ec75c5049p+0"),
    (lambda: F.onedim_lsi_check(F.Uniform(0.0, 1.0), lambda x: 1 + x * x, lambda x: 2 * x),
     "uniform-lsi", "0x1.760280217fd58p-3", "0x1.14aca416c84c1p-2"),
]


@pytest.mark.parametrize("check, name, lhs, rhs", _LSI_BITS,
                         ids=[case[1] for case in _LSI_BITS])
def test_lsi_checks_keep_their_quadrature_bits(check, name, lhs, rhs):
    rep = check()
    assert rep.name == name
    assert (rep.lhs.hex(), rep.rhs.hex()) == (lhs, rhs)


from hypothesis import given, settings, strategies as st


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4, max_size=4),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_entropy_nonnegative_and_homogeneous_property(vals, p):
    t = F.ProductTable([p, p], np.asarray(vals))
    w = t.weights()
    e = F.entropy(t.values, w)
    assert e >= 0.0
    assert F.entropy(3.0 * t.values, w) == pytest.approx(3.0 * e, rel=1e-9, abs=1e-12)
