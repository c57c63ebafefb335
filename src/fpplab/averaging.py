"""Randomized-offset machinery: the level function on the discrete cube.

Strings of m*m bits are listed by Hamming weight, and inside each weight
class by value descending (leftmost bit most significant). The level
function is floor(rank / k) with k = ceil(2^(m^2) / m), so it takes at
most m+1 values, each level set carrying at most about 1/m of the uniform
measure, while a single 0 -> 1 bit flip moves the level by 0 or 1.

The within-class direction matters: listing each class in ascending value
order breaks the unit-increment property already at m = 3 (a flip can then
jump a block boundary by two), which is why the descending direction is
used and verified exhaustively for small m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceGuardError, _check_int

_EXHAUSTIVE_M_CAP = 4  # 2^(4^2) = 65536 table rows; m = 5 would be 33.5M
# The rank table is compared with the combinadic rank string by string: on
# every string when there are at most this many (m <= 3), else on a seeded
# sample of this size (m = 4, where all 65536 would take most of a second).
_RANK_CHECK_SAMPLE = 4096


def _coerce_bits(x, expected_len: int | None = None) -> np.ndarray:
    """Accept '0101', [0,1,0,1] or arrays; return a uint8 vector."""
    if isinstance(x, str):
        if not set(x) <= {"0", "1"}:
            raise DomainError(f"bit string may contain only 0/1, got {x!r}")
        bits = np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    else:
        bits = np.asarray(x)
        # two comparisons, not np.isin, whose set machinery costs more
        # than a row of m^2 bits
        if bits.ndim != 1 or not ((bits == 0) | (bits == 1)).all():
            raise DomainError("bits must be a flat 0/1 sequence")
        bits = bits.astype(np.uint8)
    if expected_len is not None and bits.size != expected_len:
        raise DomainError(f"expected {expected_len} bits, got {bits.size}")
    return bits


def weight_reverse_lex_rank(bits) -> int:
    """1-based rank under (weight ascending, value descending) order."""
    return _combinadic_rank(_coerce_bits(bits))


def _combinadic_rank(b: np.ndarray) -> int:
    """weight_reverse_lex_rank of a validated uint8 bit vector.

    Computed combinatorially with exact integers: full weight classes below
    this one, plus the count of same-weight strings of larger value. The
    latter is a combinadic sum over the zero positions: a string that
    agrees on the prefix and has a 1 where this one has a 0 is larger.
    The bits are walked as Python ints, which index and test faster than
    numpy scalars.
    """
    bits = b.tolist()
    n = len(bits)
    w = sum(bits)
    rank = 1 + sum(math.comb(n, j) for j in range(w))
    larger = 0
    ones_before = 0
    for i, bit in enumerate(bits):
        if bit:
            ones_before += 1
        elif ones_before < w:
            larger += math.comb(n - 1 - i, w - ones_before - 1)
    return rank + larger


def _rank_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Hamming weight and 1-based rank of every n-bit string, by value."""
    vals = np.arange(1 << n, dtype=np.int64)
    # int64: np.diff on the uint8 popcount would wrap a decrease to 255
    weight = np.bitwise_count(vals).astype(np.int64)
    order = np.lexsort((-vals, weight))
    ranks = np.empty(vals.size, dtype=np.int64)
    ranks[order] = np.arange(1, vals.size + 1)
    return weight, ranks


@dataclass(frozen=True)
class AveragingMap:
    """Level function on {0,1}^(m^2) with block size k = ceil(2^(m^2)/m)."""

    m: int

    def __post_init__(self):
        if _check_int(self.m, "m") < 1:
            raise DomainError("m must be a positive integer")

    @property
    def n_bits(self) -> int:
        return self.m * self.m

    @property
    def block_size(self) -> int:
        """k(m); exact integer arithmetic, fine for any m."""
        total = 1 << self.n_bits
        return -(-total // self.m)

    def rank(self, bits) -> int:
        return _combinadic_rank(_coerce_bits(bits, self.n_bits))

    def level(self, bits) -> int:
        """g_m = floor(rank / k); values lie in {0, ..., m}."""
        return self.rank(bits) // self.block_size

    def levels(self, bits) -> np.ndarray:
        """g_m of each row of a bit matrix, one `level` call per row."""
        return np.array([self.level(row) for row in bits], dtype=np.int64)

    def level_table(self) -> np.ndarray:
        """g_m over all inputs, indexed by integer value (leftmost bit MSB).

        Exhaustive, so guarded: only for m <= 4.
        """
        if self.m > _EXHAUSTIVE_M_CAP:
            raise ResourceGuardError(
                f"exhaustive table for m={self.m} needs {1 << self.n_bits} entries"
            )
        return _rank_table(self.n_bits)[1] // self.block_size


@dataclass(frozen=True)
class OffsetSample:
    """Bit matrix a (one row per axis) and the lattice offset z it encodes,
    z_i = g_m(a_i), computed from a."""

    a: np.ndarray  # shape (d, m^2), uint8
    z: np.ndarray = field(init=False)  # shape (d,), int

    def __post_init__(self):
        m = math.isqrt(self.a.shape[1])
        if m * m != self.a.shape[1]:
            raise DomainError("offset rows must hold a square number of bits")
        object.__setattr__(self, "z", AveragingMap(m).levels(self.a))


def sample_offset(rng: np.random.Generator, m: int, d: int) -> OffsetSample:
    """Uniform bits a in {0,1}^(d x m^2) and the offset z with z_i = g_m(a_i)."""
    amap = AveragingMap(m)
    if _check_int(d, "d") < 2:
        raise DomainError("offset needs lattice dimension d >= 2")
    a = rng.integers(0, 2, size=(d, amap.n_bits), dtype=np.uint8)
    return OffsetSample(a=a)


@dataclass
class AveragingReport:
    """Exhaustive property verification for one m."""

    m: int
    n_bits: int
    block_size: int
    gradient_ok: bool
    gradient_values: list
    bijection_ok: bool
    bijection_checked_strings: int
    monotone_in_weight_ok: bool
    level_nondecreasing_ok: bool
    level_counts: list
    max_level_measure: float
    c_implied: float
    level_bound_ok: bool  # max measure <= 4/m
    checked_strings: int
    checked_flips: int


def verify_averaging_properties(m: int) -> AveragingReport:
    """Enumerate all of {0,1}^(m^2) and report the two defining properties.

    (1) every single-bit 0 -> 1 flip changes the level by an element of
    {0, 1}; (2) no level set holds more than c/m of the uniform measure,
    with the implied c reported and checked against 4.
    Refuses m > 4, where the table would stop being a desk-scale object.
    """
    amap = AveragingMap(m)
    if m > _EXHAUSTIVE_M_CAP:
        raise ResourceGuardError(f"exhaustive verification capped at m <= 4, got {m}")
    n = amap.n_bits
    weight, ranks = _rank_table(n)
    g = ranks // amap.block_size  # level_table() without a second rank table
    vals = np.arange(1 << n, dtype=np.int64)

    diffs = set()
    flips = 0
    for q in range(n):
        bit = 1 << (n - 1 - q)
        lo = vals[(vals & bit) == 0]
        d = g[lo | bit] - g[lo]
        flips += lo.size
        diffs.update(np.unique(d).tolist())
    gradient_ok = diffs <= {0, 1}

    # the rank table against the combinadic rank, a bijection onto 1..2^n
    if vals.size <= _RANK_CHECK_SAMPLE:
        compared = vals
    else:
        rng = np.random.default_rng(np.random.SeedSequence((m, 0xB17EC7)))
        compared = np.sort(rng.choice(vals.size, size=_RANK_CHECK_SAMPLE, replace=False))
    bijection_ok = all(
        weight_reverse_lex_rank(format(v, f"0{n}b")) == r
        for v, r in zip(compared.tolist(), ranks[compared].tolist())
    )

    # orderings over the full space
    by_rank = np.argsort(ranks)
    monotone_ok = bool(np.all(np.diff(weight[by_rank]) >= 0))
    level_nondecreasing = bool(np.all(np.diff(g[by_rank]) >= 0))

    counts = np.bincount(g, minlength=m + 1)
    max_meas = counts.max() / vals.size
    c_implied = float(max_meas * m)
    return AveragingReport(
        m=m,
        n_bits=n,
        block_size=amap.block_size,
        gradient_ok=bool(gradient_ok),
        gradient_values=sorted(int(v) for v in diffs),
        bijection_ok=bijection_ok,
        bijection_checked_strings=int(compared.size),
        monotone_in_weight_ok=monotone_ok,
        level_nondecreasing_ok=level_nondecreasing,
        level_counts=[int(c) for c in counts],
        max_level_measure=float(max_meas),
        c_implied=c_implied,
        level_bound_ok=bool(max_meas <= 4.0 / m),
        checked_strings=int(vals.size),
        checked_flips=int(flips),
    )
