"""Monte Carlo experiment harness.

Runs replica-parallel lattice passage-time experiments with fully
deterministic outputs: replica r of a run always draws from a generator
seeded by (master_seed, r), and aggregation folds results in replica
order, so the worker count never changes a single output bit.

Covered here: variance scaling across a grid of distances, scaling-law
model comparison, empirical tail profiles, influence diagnostics with and
without the randomized offset, time-constant estimates, the coupled
truncation comparison, and geodesic length statistics.
"""

from __future__ import annotations

import math
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields
from numbers import Real

import numpy as np

from ._version import __version__ as _pkg_version
from . import averaging
from .distributions import Truncated, default_c5, parse_spec
from .errors import ConfigError, DomainError, _is_int
# perfbench's traced profile wraps these two names on this module, so the
# replica code must call them through it, not through fpp_core
from .fpp_core import LatticeBox, WeightField, breakpoint_influence, edge_breakpoint, passage_time
from .neargamma import classify_nearly_gamma

DEFAULT_N_GRID = (25, 50, 100, 200)
TAIL_T_GRID = tuple(np.arange(0.25, 3.01, 0.25)) + tuple(np.arange(3.5, 6.01, 0.5))
TAIL_FIT_MIN_COUNT = 20  # exceedances a tail row needs to enter the rate fit
PROBE_RADIUS = 1  # influence probes: the edges within this L1 radius of the origin
BALL_MS = (2, 3, 4)  # geodesic_stats counts geodesic edges within d*m of the mid-path
_OFFSET_STREAM = 0x0FF5E7  # replica r draws its offset from SeedSequence((seed, r, this))
_TRUNCATION_STREAM = 0x7A  # and the uniforms of its truncation comparison from this
# the "format" key of report.json; format 1 reports carry none, format 2 ones
# hold depth-first geodesic lengths on laws with ties
REPORT_FORMAT = 3
_Z95 = 1.959963984540054  # the standard normal 0.975 quantile, norm.ppf(0.975)


def _check_distance(n) -> None:
    if not (_is_int(n) and n >= 1):
        raise ConfigError(f"distance n must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Immutable description of one experiment family."""

    dist_spec: str
    dim: int = 2
    n_list: tuple = DEFAULT_N_GRID
    replicas: int = 2000
    master_seed: int = 0
    m_policy: str = "none"  # "none" | "auto" | integer literal as str
    margin_factor: float = 0.5
    workers: int | None = None

    def __post_init__(self):
        if not isinstance(self.dist_spec, str):
            raise ConfigError(f"edge law spec must be a string, got {self.dist_spec!r}")
        law = parse_spec(self.dist_spec)  # fail fast on bad grammar
        if law.support[0] < 0:
            raise ConfigError(f"edge law {self.dist_spec!r} has negative support")
        if not _is_int(self.dim) or self.dim not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dim!r}")
        if not _is_int(self.replicas):
            raise ConfigError(f"replicas must be an integer, got {self.replicas!r}")
        if self.replicas < 2:
            raise ConfigError("at least 2 replicas are needed for a variance")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError(
                f"master seed must be a nonnegative integer, got {self.master_seed!r}"
            )
        if not self.n_list or not all(_is_int(n) and n >= 1 for n in self.n_list):
            raise ConfigError(f"all distances n must be integers >= 1, got {self.n_list!r}")
        if len(set(self.n_list)) != len(self.n_list):
            raise ConfigError(f"distances n must be distinct, got {self.n_list!r}")
        m = self.margin_factor
        if isinstance(m, bool) or not isinstance(m, Real) or not (math.isfinite(m) and m > 0):
            raise ConfigError(f"margin factor must be finite and positive, got {m!r}")
        if self.workers is not None and not (_is_int(self.workers) and self.workers >= 1):
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")
        if not isinstance(self.m_policy, str):
            raise ConfigError(f"m policy must be a string, got {self.m_policy!r}")
        for n in self.n_list:  # the policy string, and its m against every margin
            _margin_for(self, int(n), self.m_for(int(n)))

    def m_for(self, n: int) -> int:
        _check_distance(n)
        if self.m_policy == "none":
            return 0
        if self.m_policy == "auto":
            return int(math.ceil(n**0.25))
        try:
            return int(self.m_policy)
        except ValueError as exc:
            raise ConfigError(f"bad m policy {self.m_policy!r}") from exc

    def echo(self) -> dict:
        return {
            "dist_spec": self.dist_spec,
            "dim": self.dim,
            "n_list": [int(n) for n in self.n_list],
            "replicas": self.replicas,
            "master_seed": self.master_seed,
            "m_policy": str(self.m_policy),
            "margin_factor": self.margin_factor,
            "seed_scheme": "numpy SeedSequence((master_seed, replica)) -> PCG64",
        }

    @classmethod
    def from_echo(cls, echo: dict) -> ExperimentConfig:
        """`echo()` inverted, with workers at its default: each field is read
        as written and checked as above, never coerced to pass; a missing
        field is a KeyError."""
        values = {f.name: echo[f.name] for f in fields(cls) if f.name != "workers"}
        return cls(**{**values, "n_list": tuple(values["n_list"])})


def resolve_workers(requested: int | None) -> int:
    """The number of threads `_map_replicas` runs the replicas of
    collect_batch and truncation_experiment on: the requested count
    (default: every core this process may run on), capped by FPPLAB_WORKERS."""
    cap = os.environ.get("FPPLAB_WORKERS")
    if requested:
        n = requested
    elif hasattr(os, "sched_getaffinity"):
        n = len(os.sched_getaffinity(0))
    else:
        n = os.cpu_count() or 1
    if cap:
        if not (cap.strip().isdecimal() and int(cap) >= 1):
            raise ConfigError(f"FPPLAB_WORKERS must be a positive integer, got {cap!r}")
        n = min(n, int(cap))
    return max(int(n), 1)


def _margin_for(cfg: ExperimentConfig, n: int, m: int) -> int:
    """Box margin for distance n; it must absorb offsets up to m >= 0. Every
    cell entry checks n and m here (or n in `m_for`) before any sampling."""
    _check_distance(n)
    if not _is_int(m) or m < 0:
        raise ConfigError(f"m must be a nonnegative integer, got {m!r}")
    scaled = cfg.margin_factor * n
    if not math.isfinite(scaled):
        raise ConfigError(f"margin factor {cfg.margin_factor!r} times n={n} overflows")
    margin = int(math.ceil(scaled))
    if m > margin:
        raise ConfigError(
            f"margin {margin} cannot absorb offsets up to m={m}; enlarge margin_factor"
        )
    return margin


def box_for(cfg: ExperimentConfig, n: int) -> LatticeBox:
    """Box with margin around the segment [0, n e1]; it holds offsets up to
    the margin, so any m that `_margin_for` passes, not only the policy's.
    The one way to get a cell's box: a box is its shape, so each cell entry
    builds its own, in the calling thread, before any replica starts."""
    m = cfg.m_for(n)
    margin = _margin_for(cfg, n, m)
    return LatticeBox([-margin] * cfg.dim, [n + margin] + [margin + m] * (cfg.dim - 1))


# ---------------------------------------------------------------------------
# replica execution: one (n, m) cell in, one ReplicaBatch out


@dataclass
class ReplicaBatch:
    """Per-replica observables of one (n, m) cell, in replica order."""

    n: int
    m: int
    times: np.ndarray
    geo_len: np.ndarray
    ties: np.ndarray
    observed: list | None = None  # observe(field, result, r) per replica, if asked
    seconds: float = 0.0  # collect_batch's wall time; never written to a report


def _map_replicas(fn, count: int, workers: int | None) -> list:
    """[fn(r) for r in range(count)], in replica order: in this thread for
    one worker, otherwise on a pool of `resolve_workers(workers)` threads.
    It waits for every replica before reading any, so this thread wakes
    once, not once per replica; the first error in replica order surfaces
    here, as itself."""
    threads = resolve_workers(workers)
    if threads == 1:
        return [fn(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, r) for r in range(count)]
        wait(futures)
        return [f.result() for f in futures]


def collect_batch(cfg: ExperimentConfig, n: int, m: int, observe=None) -> ReplicaBatch:
    """Every replica of the (n, m) cell, folded in replica order.

    `_map_replicas` runs one replica per call, on `cfg.workers` threads;
    the worker count changes no bit. The threads share one box and one
    parsed law, both made here, after n and m are checked and before they
    start: the solves and the sampling release the interpreter lock, so no
    process is started and nothing is pickled. Each replica keeps its
    passage time, geodesic length and ties; with `observe`, also
    `observe(field, result, r)`, computed in the replica's thread from the
    field and geodesic it already holds, in `ReplicaBatch.observed`.
    """
    t0 = _time.perf_counter()
    _margin_for(cfg, n, m)
    box = box_for(cfg, n)
    dist = parse_spec(cfg.dist_spec)
    seed = cfg.master_seed

    def replica(r):
        field = WeightField.generate(box, dist, seed, r)
        if m > 0:
            rng = np.random.default_rng(np.random.SeedSequence((seed, r, _OFFSET_STREAM)))
            z = averaging.sample_offset(rng, m, box.d).z
        else:
            z = np.zeros(box.d, dtype=np.int64)
        v = z.copy()
        v[0] += n
        res = passage_time(field, tuple(int(c) for c in z), tuple(int(c) for c in v))
        return res.time, res.length, res.ties, observe(field, res, r) if observe else None

    times, lengths, ties, observed = zip(*_map_replicas(replica, cfg.replicas, cfg.workers))
    return ReplicaBatch(
        n=n,
        m=m,
        times=np.array(times),
        geo_len=np.array(lengths, dtype=float),
        ties=np.array(ties, dtype=np.int64),
        observed=list(observed) if observe else None,
        seconds=_time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# variance scaling


def jackknife_variance_ci(x: np.ndarray):
    """Sample variance with a leave-one-out jackknife normal 95% CI."""
    x = np.asarray(x, dtype=float)
    r = x.size
    if r < 3:
        raise DomainError("jackknife needs at least 3 replicas")
    v = float(x.var(ddof=1))
    s1 = x.sum()
    s2 = float(np.dot(x, x))
    vi = (s2 - x**2 - (s1 - x) ** 2 / (r - 1)) / (r - 2)
    se = math.sqrt((r - 1) / r * float(np.sum((vi - vi.mean()) ** 2)))
    return v, max(v - _Z95 * se, 0.0), v + _Z95 * se


@dataclass
class ScalingRow:
    n: int
    mean: float
    var: float
    var_lo: float
    var_hi: float
    geo_len_mean: float
    geo_len_sq_mean: float
    ties: int


SCALING_CSV_HEADER = [f.name for f in fields(ScalingRow)]


def row_from_batch(batch: ReplicaBatch) -> ScalingRow:
    v, lo, hi = jackknife_variance_ci(batch.times)
    return ScalingRow(
        n=batch.n,
        mean=float(batch.times.mean()),
        var=v,
        var_lo=lo,
        var_hi=hi,
        geo_len_mean=float(batch.geo_len.mean()),
        geo_len_sq_mean=float((batch.geo_len**2).mean()),
        ties=int(np.count_nonzero(batch.ties)),
    )


def _m0_batches(cfg: ExperimentConfig, batches: dict | None, on_cell=None) -> dict:
    """The m=0 batch of every n in cfg.n_list, keyed by n.

    Cells missing from `batches` are collected and stored in it, so the
    scaling readers given the same dict share their batches. Each collected
    batch is passed to `on_cell`, if given, in this thread.
    """
    batches = {} if batches is None else batches
    for n in cfg.n_list:
        if int(n) not in batches:
            batches[int(n)] = collect_batch(cfg, int(n), m=0)
            if on_cell is not None:
                on_cell(batches[int(n)])
    return batches


def run_variance_scaling(cfg: ExperimentConfig, batches: dict | None = None, on_cell=None):
    """One ScalingRow per n, from the m=0 batches shared through `batches`.
    `on_cell`, if given, sees each batch collected here, in this thread."""
    if cfg.replicas < 3:  # before any sampling: the jackknife CI needs 3
        raise ConfigError("the variance CI (a jackknife) needs at least 3 replicas")
    batches = _m0_batches(cfg, batches, on_cell)
    return [row_from_batch(batches[int(n)]) for n in cfg.n_list]


@dataclass
class FitReport:
    c_linear: float
    rss_linear: float
    c_over_log: float
    rss_over_log: float
    preferred: str  # "linear" | "linear-over-log" | "inconclusive"
    noise_floor: float


def fit_scaling(rows) -> FitReport:
    """Least squares on log Var against the shapes c*n and c*n/log n.

    Preference is withheld when the residual gap is inside the noise floor
    implied by the per-row CIs: at desk scale the two shapes differ by a
    nearly constant factor, so an honest "inconclusive" is the common case.
    """
    if len(rows) < 3:
        raise DomainError("need at least 3 rows to compare scaling models")
    n = np.array([float(r.n) for r in rows])
    var = np.array([float(r.var) for r in rows])
    if np.any(var <= 0):
        raise DomainError("variances must be positive to fit on the log scale")
    if np.any(n <= 1):
        raise DomainError("model n/log n needs n > 1")
    logv = np.log(var)
    sig = np.zeros(len(rows))
    for i, r in enumerate(rows):
        if r.var_hi > r.var_lo > 0:
            sig[i] = (math.log(r.var_hi) - math.log(r.var_lo)) / (2 * _Z95)
    out = {}
    for label, shape in (("linear", n), ("linear-over-log", n / np.log(n))):
        logc = float(np.mean(logv - np.log(shape)))
        rss = float(np.sum((logv - logc - np.log(shape)) ** 2))
        out[label] = (math.exp(logc), rss)
    # the residual gap fluctuates on the scale 2 |shape difference| sigma,
    # so demanding gap > 4 sum(sigma^2) is a two-sigma separation criterion
    noise_floor = 4.0 * float(np.sum(sig**2))
    delta = abs(out["linear"][1] - out["linear-over-log"][1])
    if delta <= max(noise_floor, 1e-12):
        preferred = "inconclusive"
    else:
        preferred = min(out, key=lambda k: out[k][1])
    return FitReport(
        c_linear=out["linear"][0],
        rss_linear=out["linear"][1],
        c_over_log=out["linear-over-log"][0],
        rss_over_log=out["linear-over-log"][1],
        preferred=preferred,
        noise_floor=noise_floor,
    )


# ---------------------------------------------------------------------------
# tail profile


@dataclass
class TailRow:
    t: float
    threshold: float
    count: int
    p_hat: float
    p_lo: float
    p_hi: float
    method: str


@dataclass
class TailFit:
    slope: float
    intercept: float
    r2: float
    slope_se: float
    points: int

    @property
    def rate(self) -> float:
        """Empirical exponential rate (positive for a decaying tail)."""
        return -self.slope


@dataclass
class TailProfile:
    n: int
    scale: float
    rows: list
    fit: TailFit | None
    flags: list


def _count_ci(k: int, n: int):
    """95% CI: normal for counts >= 20, Clopper-Pearson below."""
    alpha = 1.0 - 0.95
    p = k / n
    if k >= 20:
        half = _Z95 * math.sqrt(max(p * (1 - p), 1e-300) / n)
        return max(p - half, 0.0), min(p + half, 1.0), "normal"
    from scipy import special

    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi, "clopper-pearson"


def tail_profile(
    cfg: ExperimentConfig, n: int, batch: ReplicaBatch | None = None
) -> TailProfile:
    """Empirical exceedance of |f - mean| over t * sqrt(n / log n).

    The exponential-rate fit uses only grid points with at least
    TAIL_FIT_MIN_COUNT exceedances; sparser rows are reported with exact
    binomial intervals and excluded from the fit. A batch passed in must
    be of the n asked for.
    """
    _check_distance(n)
    if batch is None:
        if cfg.replicas < 1000:
            raise ConfigError("tail profile needs at least 1000 replicas")
        batch = collect_batch(cfg, n, m=0)
    elif batch.n != n:
        raise ConfigError(f"tail profile at n={n} was given a batch of n={batch.n}")
    times = batch.times
    reps = times.size
    center = float(times.mean())
    scale = math.sqrt(n / math.log(n)) if n > 1 else 1.0
    rows = []
    flags = []
    for t in TAIL_T_GRID:
        thr = float(t) * scale
        k = int(np.sum(np.abs(times - center) > thr))
        lo, hi, method = _count_ci(k, reps)
        rows.append(
            TailRow(
                t=float(t),
                threshold=thr,
                count=k,
                p_hat=k / reps,
                p_lo=lo,
                p_hi=hi,
                method=method,
            )
        )
    usable = [r for r in rows if r.count >= TAIL_FIT_MIN_COUNT]
    if any(r.count == 0 for r in rows):
        flags.append("grid-truncated")
    fit = None
    if len(usable) >= 2:
        x = np.array([r.t for r in usable])
        y = np.log(np.array([r.p_hat for r in usable]))
        a = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        yhat = a @ coef
        ss_res = float(np.sum((y - yhat) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        dof = max(len(usable) - 2, 1)
        s2 = ss_res / dof
        sxx = float(np.sum((x - x.mean()) ** 2))
        slope_se = math.sqrt(s2 / sxx) if sxx > 0 else math.inf
        fit = TailFit(
            slope=float(coef[0]),
            intercept=float(coef[1]),
            r2=float(r2),
            slope_se=slope_se,
            points=len(usable),
        )
    else:
        flags.append("insufficient-exceedances")
    return TailProfile(n=n, scale=scale, rows=rows, fit=fit, flags=flags)


# ---------------------------------------------------------------------------
# influence diagnostics


@dataclass
class ProbeStat:
    edge: int
    endpoints: tuple
    presence: float
    w_sq_mean: float  # mean of exact W_{e,+}^2 over the exact subsample
    r_hat: float


@dataclass
class ConcentrationDiagnostics:
    n: int
    m: int
    r_hat: float
    s_hat: float
    s_hat_bound: float
    mean_f: float
    k_const: float
    l_of_k: float | None
    l_defined: bool
    probes: list
    flags: list


def l_of_k(k_const: float, rs: float) -> float:
    """K / log(K / (rs log(K / rs))); defined only for K > e * rs."""
    if rs <= 0 or k_const <= math.e * rs:
        raise DomainError("l(K) requires K > e * r * s")
    inner = math.log(k_const / rs)
    return k_const / math.log(k_const / (rs * inner))


def _exact_probes(field, res, dist, probe_ids):
    """Exact W_{e,+} for the probe edges plus the Lipschitz bound on W_+."""
    w_e = np.zeros(len(probe_ids))
    for j, eid in enumerate(probe_ids):
        if not res.edge_bitset[eid]:
            continue
        t0, t_inf = edge_breakpoint(field, res, int(eid))
        w_e[j] = breakpoint_influence(dist, res.time, t0, t_inf)
    # 1-Lipschitz bound: resampling edge e can add at most (Y - x_e)+
    w_plus = float(
        np.sum([dist.upper_mean(float(x)) for x in field.weights[res.edge_ids]])
    )
    return w_e, w_plus


def influence_diagnostics(
    cfg: ExperimentConfig,
    n: int,
    exact_replicas: int = 200,
) -> dict:
    """Paired influence run: identical weight seeds with m = 0 and with a
    randomized m >= 1, which is cfg.m_for(n) if that is at least 1 and
    ceil(n^(1/4)) otherwise. That m is checked against the box margin
    before any cell is collected.

    Edge-presence probabilities near the origin come from all replicas.
    Exact per-probe influences W_{e,+} (`fpp_core.breakpoint_influence` at
    the edge's breakpoint, one solve per probe edge on the geodesic) are
    averaged over the first `exact_replicas` replicas; the replica workers
    compute them from the field and geodesic they already hold, and they
    are folded in replica order. Whole-geodesic influence sums use the
    1-Lipschitz upper bound, which is what the diagnostics r and s stand in
    for anyway.
    """
    if not (_is_int(exact_replicas) and exact_replicas >= 1):
        raise ConfigError(f"exact_replicas must be an integer >= 1, got {exact_replicas!r}")
    dist = parse_spec(cfg.dist_spec)
    m_rand = cfg.m_for(n) or int(math.ceil(n**0.25))
    _margin_for(cfg, n, m_rand)
    box = box_for(cfg, n)
    probe_ids = box.edges_near(tuple([0] * cfg.dim), PROBE_RADIUS)
    exact_n = min(exact_replicas, cfg.replicas)
    c_e, law_flags = _energy_constant(dist)
    c5 = default_c5(cfg.dim, dist.exp_moment_rate())

    def observe(field, res, r):
        exact = _exact_probes(field, res, dist, probe_ids) if r < exact_n else None
        return res.edge_bitset[probe_ids], exact

    out = {}
    for m in (0, m_rand):
        batch = collect_batch(cfg, n, m=m, observe=observe)
        presence, exact = zip(*batch.observed)
        presence = np.array(presence, dtype=np.uint8).mean(axis=0)
        # summed in replica order, as the replicas were folded
        w_sq = sum(w_e**2 for w_e, _ in exact[:exact_n]) / exact_n
        s_hat = math.sqrt(sum(w_plus**2 for _, w_plus in exact[:exact_n]) / exact_n)
        mean_f = float(batch.times.mean())
        s_bound = dist.mean() * math.sqrt(float((batch.geo_len**2).mean()))
        r_hat = float(np.sqrt(w_sq.max())) if probe_ids.size else 0.0
        flags = list(law_flags)
        # K = 4 C E(F) + D (1 + 2/C): only D and E(F) depend on the cell
        d_const = (c5**2) * m * (math.log(n) ** 2) if m > 0 else 0.0
        k_const = 4.0 * c_e * mean_f + d_const * (1.0 + 2.0 / c_e)
        rs = r_hat * s_hat
        defined = k_const > math.e * rs and rs > 0
        l_val = l_of_k(k_const, rs) if defined else None
        if not defined:
            flags.append("l(K) undefined: K <= e*r*s or degenerate r*s")
        probes = [
            ProbeStat(
                edge=eid,
                endpoints=box.edge_endpoints(eid),
                presence=float(presence[j]),
                w_sq_mean=float(w_sq[j]),
                r_hat=float(math.sqrt(w_sq[j])),
            )
            for j, eid in enumerate(probe_ids.tolist())
        ]
        out[m] = ConcentrationDiagnostics(
            n=n,
            m=m,
            r_hat=r_hat,
            s_hat=s_hat,
            s_hat_bound=s_bound,
            mean_f=mean_f,
            k_const=k_const,
            l_of_k=l_val,
            l_defined=defined,
            probes=probes,
            flags=flags,
        )
    return {
        "m0": out[0],
        "randomized": out[m_rand],
        "max_presence_m0": max((p.presence for p in out[0].probes), default=0.0),
        "max_presence_randomized": max((p.presence for p in out[m_rand].probes), default=0.0),
    }


def _energy_constant(dist) -> tuple[float, list]:
    """The law's energy constant C and the flags it raises; a law without
    one stands in 1.0 and says so."""
    if dist.kind == "bernoulli":
        if dist.a == 0:
            return 1.0, ["two-point law with a = 0 has no energy constant; using 1.0"]
        from .distributions import lsi_constant_bernoulli

        return lsi_constant_bernoulli(dist.p) * (dist.b - dist.a) ** 2 / (4 * dist.a), []
    if dist.continuous:
        verdict = classify_nearly_gamma(dist)
        if not verdict.direct_pass:
            return 1.0, ["edge law failed the direct nearly-gamma check"]
        return verdict.bound_a, []
    return 1.0, ["no energy constant for this kind; using 1.0"]


# ---------------------------------------------------------------------------
# time constant


@dataclass
class TimeConstantRow:
    n: int
    mean: float
    mean_lo: float
    mean_hi: float
    ratio: float
    ratio_lo: float
    ratio_hi: float


@dataclass
class TimeConstantReport:
    direction: tuple
    rows: list
    subadditivity: list  # (n, 2n, ok) triples
    nonincreasing_within_ci: bool


def estimate_time_constant(
    cfg: ExperimentConfig, batches: dict | None = None
) -> TimeConstantReport:
    """f(n)/n along e1 with normal CIs plus mean-subadditivity checks."""
    batches = _m0_batches(cfg, batches)
    rows = []
    for n in cfg.n_list:
        n = int(n)
        t = batches[n].times
        mu = float(t.mean())
        half = _Z95 * float(t.std(ddof=1)) / math.sqrt(t.size)
        rows.append(
            TimeConstantRow(
                n=n,
                mean=mu,
                mean_lo=mu - half,
                mean_hi=mu + half,
                ratio=mu / n,
                ratio_lo=(mu - half) / n,
                ratio_hi=(mu + half) / n,
            )
        )
    ns = {r.n: r for r in rows}
    sub = [(r.n, 2 * r.n, bool(ns[2 * r.n].mean_lo <= 2 * r.mean_hi))
           for r in rows if 2 * r.n in ns]
    noninc = all(
        ns[b].ratio_lo <= ns[a].ratio_hi
        for a, b in zip(sorted(ns), sorted(ns)[1:])
    )
    return TimeConstantReport(
        direction=tuple([1] + [0] * (cfg.dim - 1)),
        rows=rows,
        subadditivity=sub,
        nonincreasing_within_ci=noninc,
    )


# ---------------------------------------------------------------------------
# truncation comparison


@dataclass
class TruncationReport:
    k: int
    c5: float
    cut: float
    grid_ok: bool
    grid_max_defect: float
    coupling_violations: int
    distance_violations: int
    replicas: int
    gap_mean: float
    gap_max: float
    zero_gap_replicas: int


def truncation_experiment(
    cfg: ExperimentConfig,
    k: int,
    c5: float,
    n: int | None = None,
    replicas: int | None = None,
) -> TruncationReport:
    """Quantile-coupled comparison of the base law and its truncation.

    The same uniforms drive both quantiles, so the truncated weights are
    pointwise no larger; distances inherit the ordering exactly, and both
    facts are asserted per replica, not assumed. The replicas run through
    `_map_replicas` on `cfg.workers` threads and are folded in replica
    order, so the worker count changes no bit. The domination verdict is
    `Truncated.domination_check` on its default grid.
    """
    reps = replicas if replicas is not None else min(cfg.replicas, 1000)
    if not (_is_int(reps) and reps >= 1):
        raise ConfigError(f"replicas must be an integer >= 1, got {reps!r}")
    base = parse_spec(cfg.dist_spec)
    if not base.continuous:
        raise ConfigError("truncation comparison needs a continuous base law")
    nu_k = Truncated(base, k, c5)
    n = n if n is not None else min(cfg.n_list)
    box = box_for(cfg, n)
    grid = nu_k.domination_check()
    src = box.vertex_index(tuple([0] * cfg.dim))
    tgt = box.vertex_index(tuple([int(n)] + [0] * (cfg.dim - 1)))

    def replica(r):
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.master_seed, r, _TRUNCATION_STREAM))
        )
        u = rng.random(box.n_edges)
        x = np.asarray(base.quantile(u))
        x_t = np.asarray(nu_k.quantile(u))
        d_full = box.solve(x, src, tgt, pred=False)[0][tgt]
        d_trunc = box.solve(x_t, src, tgt, pred=False)[0][tgt]
        return int(np.count_nonzero(x_t > x)), d_full, d_trunc

    rows = zip(*_map_replicas(replica, reps, cfg.workers))
    coupling, d_full, d_trunc = (np.array(column) for column in rows)
    gaps = d_full - d_trunc
    return TruncationReport(
        k=int(k),
        c5=float(c5),
        cut=nu_k.cut,
        grid_ok=grid.dominates,
        grid_max_defect=grid.max_defect,
        coupling_violations=int(coupling.sum()),
        distance_violations=int(np.count_nonzero(d_trunc > d_full)),
        replicas=int(reps),
        gap_mean=float(gaps.mean()),
        gap_max=float(gaps.max()),
        zero_gap_replicas=int(np.count_nonzero(gaps == 0.0)),
    )


# ---------------------------------------------------------------------------
# geodesic statistics


@dataclass
class GeodesicStats:
    n: int
    mean_len: float
    mean_len_sq: float
    len_sq_over_n_sq: float
    ball_counts: dict  # m -> mean |geodesic ∩ ball(probe edge, d*m)|
    replicas: int


def geodesic_stats(cfg: ExperimentConfig, n: int) -> GeodesicStats:
    """Length moments of the m=0 cell plus its mean geodesic edge counts in
    balls around the mid-path vertex; each replica counts its own."""
    box = box_for(cfg, n)
    center = [n // 2] + [0] * (cfg.dim - 1)
    balls = []
    for m in BALL_MS:
        in_ball = np.zeros(box.n_edges, dtype=bool)
        in_ball[box.edges_near(center, cfg.dim * m)] = True
        balls.append(in_ball)

    def observe(field, res, r):
        return [int(np.count_nonzero(in_ball[res.edge_ids])) for in_ball in balls]

    batch = collect_batch(cfg, n, m=0, observe=observe)
    totals = [sum(column) for column in zip(*batch.observed)]
    return GeodesicStats(
        n=n,
        mean_len=float(batch.geo_len.mean()),
        mean_len_sq=float((batch.geo_len**2).mean()),
        len_sq_over_n_sq=float((batch.geo_len**2).mean() / n**2),
        ball_counts={int(m): total / cfg.replicas for m, total in zip(BALL_MS, totals)},
        replicas=batch.times.size,
    )


# ---------------------------------------------------------------------------
# assembled report


def full_report(cfg: ExperimentConfig, deterministic: bool = True, on_cell=None) -> dict:
    """Scaling rows, model fit and time-constant report as one document.

    Rows are plain dicts with no wall time (see `ReplicaBatch.seconds`), and
    the geodesic moments are those of the fewest-edge geodesic (format 3);
    `reporting` serializes the fit and time-constant dataclasses field by field.
    `on_cell`, if given, is called in this thread with each (n, m) cell's
    ReplicaBatch as it finishes; nothing it sees enters the document.
    """
    if deterministic is not True:
        raise ConfigError("full_report writes no wall times; cell times are ReplicaBatch.seconds")
    if len(cfg.n_list) >= 3:  # a fit will run: refuse what it cannot fit before sampling
        if min(cfg.n_list) <= 1:
            raise ConfigError("the n/log n model fit needs every n > 1")
        lo, hi = parse_spec(cfg.dist_spec).support
        if lo == hi:
            raise ConfigError(
                f"the model fit needs a positive variance; {cfg.dist_spec!r} has one point"
            )
    batches: dict = {}
    rows = run_variance_scaling(cfg, batches=batches, on_cell=on_cell)
    fit = fit_scaling(rows) if len(rows) >= 3 else None
    tc = estimate_time_constant(cfg, batches=batches)
    return {
        "version": _pkg_version,
        "config": cfg.echo(),
        "format": REPORT_FORMAT,
        "rows": [asdict(r) for r in rows],
        "fit": fit,
        "time_constant": tc,
    }
