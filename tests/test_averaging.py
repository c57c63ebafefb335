import math
from itertools import product

import numpy as np
import pytest
from scipy import stats

import fpplab as F
from fpplab import DomainError, ResourceGuardError
from fpplab.averaging import weight_reverse_lex_rank
from oracles import averaging_properties_oracle


def test_rank_endpoints():
    am = F.AveragingMap(2)
    assert am.rank("0000") == 1
    assert am.rank("1111") == 16
    am3 = F.AveragingMap(3)
    assert am3.rank("0" * 9) == 1
    assert am3.rank("1" * 9) == 512


def test_rank_within_class_direction():
    # weight classes are listed in descending value order (leftmost bit most
    # significant), so 1000 is the first weight-one string and 0001 the last
    am = F.AveragingMap(2)
    assert am.rank("1000") == 2
    assert am.rank("0100") == 3
    assert am.rank("0010") == 4
    assert am.rank("0001") == 5


def test_rank_is_bijection_small():
    for m in (1, 2, 3):
        am = F.AveragingMap(m)
        n = m * m
        seen = {am.rank("".join(bits)) for bits in product("01", repeat=n)}
        assert seen == set(range(1, (1 << n) + 1))


def test_rank_monotone_in_weight():
    am = F.AveragingMap(3)
    for bits in product("01", repeat=9):
        s = "".join(bits)
        if s.count("1") < 9:
            heavier = "1" * (s.count("1") + 1) + "0" * (8 - s.count("1"))
            assert am.rank(s) < am.rank(heavier)


def test_rank_agrees_with_full_table(rng):
    for m in (2, 3, 4):
        am = F.AveragingMap(m)
        n = m * m
        table = am.level_table()
        for _ in range(100):
            val = int(rng.integers(0, 1 << n))
            bits = [(val >> (n - 1 - i)) & 1 for i in range(n)]
            assert am.level(bits) == int(table[val])


def test_rank_input_validation():
    am = F.AveragingMap(2)
    with pytest.raises(DomainError):
        am.rank("001")
    with pytest.raises(DomainError):
        am.rank("00a1")
    with pytest.raises(DomainError):
        weight_reverse_lex_rank([0, 2, 1])


def test_block_size_covers_cube():
    for m in range(1, 12):
        am = F.AveragingMap(m)
        assert am.block_size * m >= (1 << am.n_bits)


def test_level_examples():
    am = F.AveragingMap(2)
    assert am.level("0000") == 0  # floor(1/8)
    assert am.level("1111") == 2  # floor(16/8)
    am1 = F.AveragingMap(1)
    assert am1.level("0") == 0 and am1.level("1") == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gradient_property_exhaustive(m):
    report = F.verify_averaging_properties(m)
    assert report.gradient_ok
    assert set(report.gradient_values) <= {0, 1}
    assert report.checked_strings == 1 << (m * m)
    assert report.checked_flips == (m * m) * (1 << (m * m)) // 2


def test_level_set_measure_bound_up_to_four():
    for m in (1, 2, 3, 4):
        report = F.verify_averaging_properties(m)
        assert report.max_level_measure <= 4.0 / m
        assert report.bijection_ok
        assert report.monotone_in_weight_ok
        assert report.level_nondecreasing_ok


def test_resource_guard():
    with pytest.raises(ResourceGuardError):
        F.verify_averaging_properties(5)
    with pytest.raises(DomainError):
        F.verify_averaging_properties(0)


def test_big_m_rank_still_works():
    # arbitrary-precision path: m = 9 has 81-bit strings
    am = F.AveragingMap(9)
    n = 81
    assert am.rank("0" * n) == 1
    assert am.rank("1" * n) == 1 << 81
    assert am.level("0" * n) == 0
    assert 0 <= am.level("1" * 40 + "0" * 41) <= 9


def test_sample_offset_zero_bits_is_origin():
    s = F.OffsetSample(a=np.zeros((2, 4), dtype=np.uint8), z=np.zeros(2, dtype=np.int64))
    assert tuple(s.z) == (0, 0)
    with pytest.raises(DomainError):
        F.OffsetSample(a=np.zeros((2, 4), dtype=np.uint8), z=np.array([1, 0]))


def test_offset_sample_rejects_rows_of_a_non_square_length():
    with pytest.raises(DomainError, match="square"):
        F.OffsetSample(a=np.zeros((2, 3), dtype=np.uint8))


def test_sample_offset_distribution(rng):
    m, d, draws = 3, 2, 100_000
    counts = {}
    for _ in range(draws):
        s = F.sample_offset(rng, m, d)
        key = tuple(int(c) for c in s.z)
        counts[key] = counts.get(key, 0) + 1
    report = F.verify_averaging_properties(m)
    bound = report.max_level_measure**d
    worst = max(counts.values()) / draws
    # sampling slack: 5 sigma on a binomial proportion at the bound
    slack = 5 * math.sqrt(bound * (1 - bound) / draws)
    assert worst <= bound + slack


def test_sample_offset_coordinates_independent(rng):
    m, d, draws = 2, 2, 100_000
    zs = np.array([F.sample_offset(rng, m, d).z for _ in range(draws)])
    levels = np.arange(m + 1)
    joint = np.zeros((m + 1, m + 1))
    for a, b in zs:
        joint[a, b] += 1
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    expected = np.outer(row, col) / draws
    mask = expected > 0
    chi2 = float(np.sum((joint[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = (np.count_nonzero(row > 0) - 1) * (np.count_nonzero(col > 0) - 1)
    assert chi2 < stats.chi2.ppf(0.9999, dof)


def test_sample_offset_validation(rng):
    with pytest.raises(DomainError):
        F.sample_offset(rng, 0, 2)
    with pytest.raises(DomainError):
        F.sample_offset(rng, 2, 1)


from hypothesis import given, settings, strategies as st


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.data())
def test_rank_orders_weight_then_reverse_value(m, data):
    n = m * m
    am = F.AveragingMap(m)
    a = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    sa = format(a, f"0{n}b")
    sb = format(b, f"0{n}b")
    ra, rb = am.rank(sa), am.rank(sb)
    wa, wb = sa.count("1"), sb.count("1")
    if (wa, -a) < (wb, -b):
        assert ra < rb
    elif (wa, -a) > (wb, -b):
        assert ra > rb
    else:
        assert ra == rb and a == b


def test_levels_calls_level_once_per_row(rng, monkeypatch):
    am = F.AveragingMap(3)
    bits = rng.integers(0, 2, size=(4, 9), dtype=np.uint8)
    want = [am.level(row) for row in bits]
    calls = []
    level = F.AveragingMap.level
    monkeypatch.setattr(F.AveragingMap, "level", lambda self, b: calls.append(1) or level(self, b))
    got = am.levels(bits)
    assert got.dtype == np.int64 and got.tolist() == want
    assert len(calls) == 4


@pytest.mark.parametrize("m", (2, 3, 4))
def test_verify_averaging_properties_matches_loop_popcount_oracle(m):
    rep = F.verify_averaging_properties(m)
    expected = averaging_properties_oracle(m)
    assert {k: getattr(rep, k) for k in expected} == expected
    assert np.array_equal(rep.level_counts, np.bincount(F.AveragingMap(m).level_table(), minlength=m + 1))


@pytest.mark.parametrize("m, compared", ((2, 16), (3, 512), (4, 4096)))
def test_bijection_compares_the_rank_table_with_the_combinadic(m, compared, monkeypatch):
    rep = F.verify_averaging_properties(m)
    assert rep.bijection_ok and rep.bijection_checked_strings == compared

    # a table listing each weight class in ascending value order is still a
    # permutation, but it is not the weight-reverse-lex rank
    def ascending(n):
        vals = np.arange(1 << n, dtype=np.int64)
        weight = np.bitwise_count(vals).astype(np.int64)
        ranks = np.empty(vals.size, dtype=np.int64)
        ranks[np.lexsort((vals, weight))] = np.arange(1, vals.size + 1)
        return weight, ranks

    monkeypatch.setattr(F.averaging, "_rank_table", ascending)
    assert not F.verify_averaging_properties(m).bijection_ok
