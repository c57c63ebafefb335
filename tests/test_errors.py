"""The one integer rule: every index, count and size the package takes is
read through `errors._check_int` (or its predicate `_is_int`), so a float,
a bool or a value out of range raises a DomainError that names the
argument, before any work is done."""

import numpy as np
import pytest

import fpplab as F
from fpplab import DomainError, averaging, funcineq
from fpplab.distributions import Exponential, Truncated

BOX = F.LatticeBox((0, 0), (4, 2))  # 22 edges
FIELD = F.WeightField.generate(BOX, F.parse_spec("exp:rate=1"), 3, 0)
RESULT = F.passage_time(FIELD, (0, 0), (4, 0))
TABLE = funcineq.ProductTable.random(3, 0.5, np.random.default_rng(0))
TRUNCATED = Truncated(Exponential(1.0), 10, 1.0)


def _offset(m, d):
    return averaging.sample_offset(np.random.default_rng(0), m, d)


# entry: (call with the integer under test, the argument's name in the
# messages, a value out of range, the message that refuses it)
ENTRIES = {
    "AveragingMap m": (averaging.AveragingMap, "m", 0, "m must be a positive integer"),
    "sample_offset m": (lambda m: _offset(m, 2), "m", 0, "m must be a positive integer"),
    "sample_offset d": (lambda d: _offset(2, d), "d", 1, r"lattice dimension d >= 2"),
    "verify_averaging_properties m": (
        averaging.verify_averaging_properties, "m", 0, "m must be a positive integer"),
    "Truncated k": (lambda k: Truncated(Exponential(1.0), k, 1.0), "truncation index k", 1,
                    "truncation index k must be an integer >= 2"),
    "domination_check grid_points": (TRUNCATED.domination_check, "grid_points", 1,
                                     "the comparison grid needs at least 2 points, got 1"),
    "ProductTable.random n": (
        lambda n: funcineq.ProductTable.random(n, 0.5, np.random.default_rng(0)), "n", 0,
        "n must be at least 1, got 0"),
    "ProductTable.dictator n": (lambda n: funcineq.ProductTable.dictator(n, 0.5), "n", 0,
                                "n must be at least 1, got 0"),
    "ProductTable.dictator i": (lambda i: funcineq.ProductTable.dictator(3, 0.5, i),
                                "coordinate", 4, r"coordinate must be in 1\.\.3"),
    "ProductTable.parity n": (lambda n: funcineq.ProductTable.parity(n, 0.5), "n", -1,
                              "n must be at least 1, got -1"),
    "ProductTable.hamming_ball n": (lambda n: funcineq.ProductTable.hamming_ball(n, 0.5, 1),
                                    "n", 0, "n must be at least 1, got 0"),
    "ProductTable.hamming_ball radius": (
        lambda r: funcineq.ProductTable.hamming_ball(3, 0.5, r), "radius", -1,
        "radius must be nonnegative, got -1"),
    "coordinate_increment i": (lambda i: funcineq.coordinate_increment(TABLE, i),
                               "coordinate", 0, r"coordinate must be in 1\.\.3"),
    "verify_energy_decomposition i": (
        lambda i: funcineq.verify_energy_decomposition(TABLE, i), "coordinate", 4,
        r"coordinate must be in 1\.\.3"),
    "run_random_suite n_tables": (lambda n: funcineq.run_random_suite(n_tables=n),
                                  "n_tables", 0, "the suite needs at least one table, got 0"),
    "edge_breakpoint eid": (lambda e: F.edge_breakpoint(FIELD, RESULT, e), "edge index", 22,
                            r"edge index out of range: 22 not in 0\.\.21"),
    "edge_influence eid": (
        lambda e: F.edge_influence(FIELD, RESULT, e, Exponential(1.0)), "edge index", -1,
        r"edge index out of range: -1 not in 0\.\.21"),
    "geodesic_derivative_check eid": (
        lambda e: F.geodesic_derivative_check(FIELD, RESULT, e, 1e-3), "edge index", 22,
        r"edge index out of range: 22 not in 0\.\.21"),
}


@pytest.mark.parametrize("bad", (2.5, True, "out of range"))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_integer_argument_is_checked_by_name(entry, bad, solve_counter):
    call, name, out_of_range, range_message = ENTRIES[entry]
    if bad == "out of range":
        bad, message = out_of_range, range_message
    else:
        message = rf"^{name} must be an integer"
    with pytest.raises(DomainError, match=message):
        call(bad)
    assert solve_counter == []  # refused before any solve


def test_integer_arguments_accept_numpy_integers():
    assert averaging.AveragingMap(np.int64(3)).m == 3
    assert funcineq.ProductTable.dictator(np.int64(3), 0.5, np.int32(2)).n == 3
    assert F.edge_breakpoint(FIELD, RESULT, np.int64(int(RESULT.edge_ids[0])))[0] >= 0.0
