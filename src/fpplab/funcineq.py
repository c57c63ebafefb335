"""Exact verification of the product-space functional inequalities.

Everything here works on dense function tables over {0,1}^n with an
independent Bernoulli(p_i) measure per coordinate, so each check is an
exact finite computation, not an estimate:

* entropy and variance under the product measure;
* the martingale (Doob) increments V_j of f along the coordinate filtration;
* the modified Poincare inequality
    Var(f) log( Var(f) / sum_i ||D_i f||_1^2 ) <= sum_i c(p_i) E (D_i f)^2,
  where D_i f = f - E_i f and c is the two-point log-Sobolev constant;
* the entropy lower bound sum_j Ent(V_j^2) >= Var log(Var / sum_j ||V_j||_1^2);
* the per-coordinate energy identity sum_j E (D_i V_j)^2 = E (D_i f)^2.

One-dimensional log-Sobolev inequalities (Gaussian, gamma with its
sqrt(x) gradient weight, uniform on [0,1]) are checked by quadrature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution, Gamma, Uniform, lsi_constant_bernoulli
from .errors import (
    DomainError,
    NumericError,
    ResourceGuardError,
    UnsupportedParameterError,
)

_N_CAP = 20


class ProductTable:
    """Dense table of f over {0,1}^n with Bernoulli(p_i) coordinates.

    Index convention: the table is indexed by the integer x_1 x_2 ... x_n
    read with coordinate 1 as the most significant bit, so for n = 2 the
    entries are f(00), f(01), f(10), f(11) in order.

    p, values and the weights are read-only copies, so the weights built
    here and the increments cached by martingale_increments stay valid.
    """

    def __init__(self, p: Sequence[float], values: Sequence[float]):
        p = np.array(p, dtype=float)
        values = np.array(values, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise DomainError("p must be a nonempty vector")
        if p.size > _N_CAP:
            raise ResourceGuardError(f"tables capped at n <= {_N_CAP}")
        if np.any((p <= 0) | (p >= 1)):
            raise DomainError("all Bernoulli parameters must lie in (0, 1)")
        if values.shape != (1 << p.size,):
            raise DomainError(
                f"table must have 2^{p.size} = {1 << p.size} values, got {values.shape}"
            )
        w = np.ones(1)
        for pi in p:
            w = np.kron(w, np.array([1.0 - pi, pi]))
        for a in (p, values, w):
            a.flags.writeable = False
        self.p = p
        self.values = values
        self._weights = w
        self._increments = None  # filled once by martingale_increments

    @property
    def n(self) -> int:
        return int(self.p.size)

    def tensor(self) -> np.ndarray:
        return self.values.reshape((2,) * self.n)

    def weights(self) -> np.ndarray:
        """Product measure as a dense read-only vector aligned with the table."""
        return self._weights

    def weight_tensor(self) -> np.ndarray:
        return self.weights().reshape((2,) * self.n)

    def mean(self) -> float:
        return float(np.dot(self.weights(), self.values))

    def variance(self) -> float:
        w = self.weights()
        mu = np.dot(w, self.values)
        return float(np.dot(w, (self.values - mu) ** 2))

    # handy constructors -------------------------------------------------
    @classmethod
    def random(cls, n: int, p, rng: np.random.Generator) -> "ProductTable":
        p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
        return cls(p, rng.random(1 << n))

    @classmethod
    def dictator(cls, n: int, p, i: int = 1) -> "ProductTable":
        p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
        idx = np.arange(1 << n)
        vals = ((idx >> (n - i)) & 1).astype(float)
        return cls(p, vals)

    @classmethod
    def parity(cls, n: int, p) -> "ProductTable":
        p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
        bits = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
        return cls(p, (bits % 2).astype(float))

    @classmethod
    def hamming_ball(cls, n: int, p, radius: int) -> "ProductTable":
        p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
        bits = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
        return cls(p, (bits <= radius).astype(float))


@dataclass
class IneqReport:
    """One inequality evaluation; negative slack means a violation."""

    name: str
    lhs: float
    rhs: float
    variance: float = math.nan
    entropy_terms: list = field(default_factory=list)
    energy_terms: list = field(default_factory=list)
    increment_l1: list = field(default_factory=list)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def holds(self, rel_tol: float = 1e-9) -> bool:
        return self.slack >= -rel_tol * max(abs(self.rhs), 1e-300)


def entropy(values, weights) -> float:
    """Ent(f) = E f log f - E f log E f for a nonnegative table f.

    The result is nonnegative by Jensen; rounding residue on constant-ish
    tables is clamped to zero (a genuinely negative value would mean the
    inputs were invalid, and that is rejected up front).
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(v < 0):
        raise DomainError("entropy needs nonnegative values")
    mean = float(np.dot(w, v))
    if mean == 0.0:
        return 0.0
    pos = v > 0
    e_flogf = float(np.dot(w[pos], v[pos] * np.log(v[pos])))
    ent = e_flogf - mean * math.log(mean)
    if ent < 0.0:
        scale = abs(e_flogf) + abs(mean * math.log(mean)) + 1e-300
        if ent < -1e-8 * scale:
            raise NumericError(f"entropy came out negative beyond rounding: {ent}")
        ent = 0.0
    return ent


def _axis_mean(t: np.ndarray, axis: int, p_i: float) -> np.ndarray:
    """Integrate one coordinate out; the axis stays, with length 1.

    The same transpose, reshape and dot as np.tensordot([1 - p_i, p_i], t,
    axes=(0, axis)), hence the same bits, without its per-call argument
    handling, which dominated the checks on small tables.
    """
    moved = t.transpose((axis, *range(axis), *range(axis + 1, t.ndim)))
    m = np.dot(np.array([[1.0 - p_i, p_i]]), moved.reshape(2, -1))
    return m.reshape(t.shape[:axis] + (1,) + t.shape[axis + 1 :])


def _increment(t: np.ndarray, axis: int, p_i: float) -> np.ndarray:
    """t - E_i t along one axis of a full tensor."""
    return t - _axis_mean(t, axis, p_i)


def coordinate_increment(table: ProductTable, i: int) -> np.ndarray:
    """D_i f = f - E_i f as a full tensor (coordinates are 1-based)."""
    if not (1 <= i <= table.n):
        raise DomainError(f"coordinate must be in 1..{table.n}")
    return _increment(table.tensor(), i - 1, table.p[i - 1])


def _doob_increments(table: ProductTable) -> tuple[np.ndarray, ...]:
    t = table.tensor()
    shape = t.shape
    out = []
    run = t  # integral of f over coordinates 1..j-1, axes j-1..n-1 remain
    for j in range(1, table.n + 1):
        nxt = _axis_mean(run, 0, table.p[j - 1])
        v_j = run - nxt
        lead = (1,) * (j - 1)
        v_j = np.broadcast_to(v_j.reshape(lead + v_j.shape), shape).copy()
        v_j.flags.writeable = False
        out.append(v_j)
        run = nxt[0]  # drop the integrated axis
    return tuple(out)


def martingale_increments(table: ProductTable) -> list[np.ndarray]:
    """Doob increments V_j of f - E f along the coordinate order.

    V_j integrates D_j f over the first j-1 coordinates, so it depends on
    coordinates j..n only; the increments telescope back to f - E f.
    Returned as full read-only tensors broadcast to the table shape,
    computed on the first call and kept on the table.
    """
    if table._increments is None:
        table._increments = _doob_increments(table)
    return list(table._increments)


def _variance_log_ratio(var: float, l1: list) -> float:
    """Var log(Var / sum of squared L1 norms), 0 when either side vanishes."""
    denom = float(np.sum(np.square(l1)))
    return 0.0 if (var == 0.0 or denom == 0.0) else var * math.log(var / denom)


def verify_modified_poincare(table: ProductTable) -> IneqReport:
    """Variance-entropy inequality with the two-point log-Sobolev energies."""
    w = table.weight_tensor()
    var = table.variance()
    l1 = []
    energy = []
    for i in range(1, table.n + 1):
        d = coordinate_increment(table, i)
        l1.append(float(np.sum(w * np.abs(d))))
        energy.append(
            lsi_constant_bernoulli(table.p[i - 1]) * float(np.sum(w * d * d))
        )
    return IneqReport(
        name="modified-poincare",
        lhs=_variance_log_ratio(var, l1),
        rhs=float(np.sum(energy)),
        variance=var,
        energy_terms=energy,
        increment_l1=l1,
    )


def verify_fs_bound(table: ProductTable) -> IneqReport:
    """Entropy lower bound along the martingale increments.

    lhs is Var log(Var / sum_j ||V_j||_1^2); rhs is sum_j Ent(V_j^2). The
    rhs plays the role of the product log-Sobolev energy budget, so the
    report is oriented the same way as the other inequalities.
    """
    w = table.weight_tensor()
    wflat = table.weights()
    var = table.variance()
    ents = []
    l1 = []
    for v in martingale_increments(table):
        ents.append(entropy((v * v).ravel(), wflat))
        l1.append(float(np.sum(w * np.abs(v))))
    return IneqReport(
        name="increment-entropy-bound",
        lhs=_variance_log_ratio(var, l1),
        rhs=float(np.sum(ents)),
        variance=var,
        entropy_terms=ents,
        increment_l1=l1,
    )


@dataclass
class EnergyDecomposition:
    """Exact identity test: increment energies resum to the full energy."""

    coordinate: int
    lhs_terms: list
    lhs: float
    rhs: float

    @property
    def abs_error(self) -> float:
        return abs(self.lhs - self.rhs)

    def holds(self, rel_tol: float = 1e-10) -> bool:
        return self.abs_error <= rel_tol * max(1.0, abs(self.rhs))


def verify_energy_decomposition(table: ProductTable, i: int) -> EnergyDecomposition:
    """sum_j E (D_i V_j)^2 against E (D_i f)^2 for one coordinate i."""
    if not (1 <= i <= table.n):
        raise DomainError(f"coordinate must be in 1..{table.n}")
    w = table.weight_tensor()
    terms = []
    for v in martingale_increments(table):
        dv = _increment(v, i - 1, table.p[i - 1])
        terms.append(float(np.sum(w * dv * dv)))
    d = coordinate_increment(table, i)
    rhs = float(np.sum(w * d * d))
    return EnergyDecomposition(coordinate=i, lhs_terms=terms, lhs=float(np.sum(terms)), rhs=rhs)


# ---------------------------------------------------------------------------
# 1-D quadrature checks


def _quad(fn: Callable, a: float, b: float, rel_tol: float = 1e-10) -> float:
    from scipy import integrate

    val, err = integrate.quad(fn, a, b, epsabs=1e-13, epsrel=rel_tol, limit=400)
    if not math.isfinite(val) or err > max(1e-8, 1e-6 * abs(val)):
        raise NumericError(f"quadrature failed: value {val}, error estimate {err}")
    return val


def _xlogx(v: float) -> float:
    return v * math.log(v) if v > 0.0 else 0.0


def _lsi_report(name, f, fprime, dens, lo, hi, weight, const) -> IneqReport:
    """Ent(f^2) against const * E[weight f'^2] under density dens on [lo, hi]."""
    ef2 = _quad(lambda x: f(x) ** 2 * dens(x), lo, hi)
    eflogf = _quad(lambda x: _xlogx(f(x) ** 2) * dens(x), lo, hi)
    rhs = const * _quad(lambda x: weight(x) * fprime(x) ** 2 * dens(x), lo, hi)
    return IneqReport(name=name, lhs=eflogf - _xlogx(ef2), rhs=rhs)


def gaussian_lsi_check(f: Callable, fprime: Callable) -> IneqReport:
    """Ent_gamma(f^2) <= 2 E_gamma(f'^2) by adaptive quadrature on [-12, 12].

    The Gaussian mass beyond |x| = 12 is below 1e-32, inside the slack
    tolerance for any f of subexponential growth.
    """
    g = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    return _lsi_report("gaussian-lsi", f, fprime, g, -12.0, 12.0, lambda x: 1.0, 2.0)


def onedim_lsi_check(dist: Distribution, f: Callable, fprime: Callable) -> IneqReport:
    """Log-Sobolev check for a gamma or uniform[0,1] reference measure.

    Gamma with shape a >= 1/2 carries energy (4/b) E (sqrt(x) f')^2; the
    uniform law on [0,1] carries (2/pi^2) E (f')^2. Other parameters are
    refused: below a = 1/2 the sharp constant is not available.
    """
    if isinstance(dist, Gamma):
        if dist.a < 0.5:
            raise UnsupportedParameterError(
                "gamma log-Sobolev constant 4/b needs shape a >= 1/2"
            )
        hi = float(dist.quantile(1.0 - 1e-14)) + 10.0 / dist.b
        return _lsi_report("gamma-lsi", f, fprime, dist.pdf, 0.0, hi, lambda x: x, 4.0 / dist.b)
    if isinstance(dist, Uniform):
        if not (dist.lo == 0.0 and dist.hi == 1.0):
            raise UnsupportedParameterError(
                "the 2/pi^2 constant applies to the uniform law on [0, 1]"
            )
        one = lambda x: 1.0
        return _lsi_report("uniform-lsi", f, fprime, one, 0.0, 1.0, one, 2.0 / math.pi**2)
    raise UnsupportedParameterError(
        f"one-dimensional check supports gamma and uniform[0,1], got {dist.kind}"
    )


# ---------------------------------------------------------------------------
# randomized verification suite


@dataclass
class SuiteReport:
    tables: int
    families: dict
    mp_min_slack: float
    fs_min_slack: float
    energy_max_error: float
    jensen_ok: bool
    violations: int
    worst: dict


def _suite_tables(n_tables: int, ns, ps, rng: np.random.Generator):
    """The first n_tables of the suite population: the adversarial families
    on every (n, p) cell, then random tables."""
    return itertools.islice(_suite_population(list(ns), list(ps), rng), n_tables)


def _suite_population(ns, ps, rng: np.random.Generator):
    for n in ns:
        for p in ps:
            yield "dictator", ProductTable.dictator(n, p, 1)
            yield "parity", ProductTable.parity(n, p)
            yield "ball", ProductTable.hamming_ball(n, p, max(n // 3, 0))
    while True:
        n = int(rng.choice(ns))
        p_scalar = float(rng.choice(ps))
        p = np.full(n, p_scalar)
        if rng.random() < 0.3:
            p = np.asarray(rng.choice(ps, size=n), dtype=float)
        yield "random", ProductTable.random(n, p, rng)


def run_random_suite(
    n_tables: int = 1000,
    ns: Sequence[int] = tuple(range(2, 13)),
    ps: Sequence[float] = (0.1, 0.5, 0.9),
    seed: int = 0,
    mp_rel_tol: float = 1e-9,
    energy_rel_tol: float = 1e-10,
    energy_coordinates: str = "all",
) -> SuiteReport:
    """Run the three exact checks over a randomized table population.

    The energy identity is checked on every coordinate of every table;
    `energy_coordinates` must be "all".
    """
    if energy_coordinates != "all":
        raise DomainError(
            f'energy_coordinates must be "all", got {energy_coordinates!r}'
        )
    if n_tables < 1:
        raise DomainError(f"the suite needs at least one table, got {n_tables}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mp_min = math.inf
    fs_min = math.inf
    e_max = 0.0
    jensen_ok = True
    violations = 0
    worst: dict = {}
    families: dict = {}
    count = 0
    for family, table in _suite_tables(n_tables, ns, ps, rng):
        count += 1
        families[family] = families.get(family, 0) + 1
        mp = verify_modified_poincare(table)
        fs = verify_fs_bound(table)
        rel_mp = mp.slack / max(abs(mp.rhs), 1e-300)
        rel_fs = fs.slack / max(abs(fs.rhs), 1e-300)
        # Jensen step that links the two denominators
        jensen = float(np.sum(np.square(fs.increment_l1))) <= float(
            np.sum(np.square(mp.increment_l1))
        ) + 1e-12
        jensen_ok = jensen_ok and jensen
        e_err = 0.0
        for i in range(1, table.n + 1):
            dec = verify_energy_decomposition(table, i)
            e_err = max(e_err, dec.abs_error / max(1.0, abs(dec.rhs)))
        bad = (
            not mp.holds(mp_rel_tol)
            or not fs.holds(mp_rel_tol)
            or e_err > energy_rel_tol
            or not jensen
        )
        if bad:
            violations += 1
        track = min(rel_mp, rel_fs)
        if not worst or track < worst.get("rel_slack", math.inf):
            worst = {
                "family": family,
                "n": table.n,
                "p": [float(x) for x in table.p],
                "rel_slack": track,
                "values_hex": table.values.astype("<f8").tobytes().hex(),
                "values": [float(v) for v in table.values],
            }
        mp_min = min(mp_min, rel_mp)
        fs_min = min(fs_min, rel_fs)
        e_max = max(e_max, e_err)
    return SuiteReport(
        tables=count,
        families=families,
        mp_min_slack=mp_min,
        fs_min_slack=fs_min,
        energy_max_error=e_max,
        jensen_ok=jensen_ok,
        violations=violations,
        worst=worst,
    )
