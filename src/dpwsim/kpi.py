"""Cell-level KPI aggregation: the two 12-bin histograms (uplink SNR and
timing advance), their tail descriptors, and throughput percentile stats.

Binning is half-open with an inclusive lower edge, and the descriptors use
the same convention, so ``R = D / (1 - D)`` holds exactly wherever both
sides are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

N_BINS = 12
SNR_BIN_EDGES = (-math.inf, -5, -2, 1, 4, 7, 10, 13, 16, 19, 22, 25, math.inf)
# TA is expressed as % of the maximum cell range; delay spread can push
# instantaneous readings past 100%, hence the open top bin. Readings below
# the first finite edge are clamped into bin 1.
TA_BIN_EDGES = (5, 15, 25, 35, 45, 55, 65, 75, 85, 95, 105, 115, math.inf)

# Fed to the agent in place of an infinite ratio when a histogram has no
# mass below the probed bin.
R_SENTINEL = 1e3

PERCENTILE_IDS = ("p10", "p15", "p20", "p25", "p30", "p35", "p40", "p45")
REWARD_FACTOR_IDS = PERCENTILE_IDS + ("mean",)
MIN_PERCENTILE_SAMPLES = 20


class InsufficientDataError(ValueError):
    """Raised when an aggregate is requested from too few samples."""


@dataclass
class Histogram12:
    """Counting histogram over 13 fixed, strictly increasing edges."""

    edges: tuple = SNR_BIN_EDGES
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(self.edges) != N_BINS + 1:
            raise ValueError(f"need {N_BINS + 1} edges, got {len(self.edges)}")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")
        if self.counts is None:
            self.counts = np.zeros(N_BINS, dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (N_BINS,) or np.any(self.counts < 0):
                raise ValueError("counts must be 12 nonnegative integers")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _bin_counts(edges, values: np.ndarray, where=None) -> np.ndarray:
    # bin i holds the values in [edge_i, edge_{i+1}); counting the values at
    # or above each inner edge and differencing those counts gives total
    # coverage and clamps values below the first inner edge into bin 1.
    # ``where`` marks the values that count (all when None)
    def count(mask):
        return np.count_nonzero(mask if where is None else mask & where)

    at_or_above = [count(values >= e) for e in edges[1:-1]]
    total = values.size if where is None else np.count_nonzero(where)
    return -np.diff(np.array([total, *at_or_above, 0], dtype=np.int64))


def bin_snr(h: Histogram12, snr_db, where=None) -> Histogram12:
    """Accumulate one or many SNR samples (dB), those ``where`` marks when
    given; coverage is total thanks to the infinite outer edges. NaN is
    rejected."""
    vals = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if np.isnan(vals).any(where=True if where is None else where):
        raise ValueError("SNR cannot be NaN")
    return Histogram12(edges=h.edges, counts=h.counts + _bin_counts(h.edges, vals, where))


def bin_ta(h: Histogram12, ta_percent, where=None) -> Histogram12:
    """Accumulate timing-advance percentage samples, those ``where`` marks
    when given; values below the first finite edge are clamped into bin 1,
    negatives and NaN are rejected."""
    vals = np.atleast_1d(np.asarray(ta_percent, dtype=float))
    if not np.all(vals >= 0.0, where=True if where is None else where):
        raise ValueError("timing advance cannot be negative or NaN")
    return Histogram12(edges=h.edges, counts=h.counts + _bin_counts(h.edges, vals, where))


def descriptor_r(h: Histogram12, ell: int) -> float:
    """Tail-to-head count ratio at bin ``ell``:
    ``sum(counts[ell..12]) / sum(counts[1..ell-1])`` (1-based bins).

    An empty lower part returns the configured sentinel so downstream
    consumers stay finite while still seeing the extreme skew.
    """
    if not 2 <= ell <= N_BINS:
        raise ValueError(f"ell must lie in [2, {N_BINS}], got {ell}")
    if h.total == 0:
        raise ValueError("descriptor undefined on an empty histogram")
    upper = int(h.counts[ell - 1 :].sum())
    lower = int(h.counts[: ell - 1].sum())
    if lower == 0:
        return R_SENTINEL
    return upper / lower


def descriptor_d(h: Histogram12, ell: int) -> float:
    """Empirical complementary CDF at the lower edge of bin ``ell``."""
    if not 1 <= ell <= N_BINS:
        raise ValueError(f"ell must lie in [1, {N_BINS}], got {ell}")
    total = h.total
    if total == 0:
        raise ValueError("descriptor undefined on an empty histogram")
    return int(h.counts[ell - 1 :].sum()) / total


@dataclass
class ThroughputStats:
    """The nine reward factors: p10..p45 in 5-point steps plus the mean,
    all in bits/s."""

    p10: float
    p15: float
    p20: float
    p25: float
    p30: float
    p35: float
    p40: float
    p45: float
    mean: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in REWARD_FACTOR_IDS])


def throughput_percentiles(samples) -> ThroughputStats:
    """Empirical quantiles (linear interpolation between closest ranks) at
    10..45% plus the arithmetic mean. Requires at least 20 samples."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < MIN_PERCENTILE_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_PERCENTILE_SAMPLES} samples, got {x.size}"
        )
    qs = np.quantile(x, [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45], method="linear")
    return ThroughputStats(*[float(q) for q in qs], mean=float(x.mean()))


@dataclass
class CellKpiReport:
    """Everything one simulation step reports upward."""

    snr_hist: Histogram12
    ta_hist: Histogram12
    throughput: ThroughputStats
    mean_gamma_db: float


def timing_advance_percent(
    distance_m: np.ndarray,
    cell_range_m: float,
    jitter_pct: float,
    rng: np.random.Generator,
    shape: tuple,
) -> np.ndarray:
    """Distance as % of the cell range, with zero-mean uniform jitter of
    +-jitter_pct emulating delay-spread overshoot, clamped at 0. The result
    has ``shape``, the distances broadcast along its last axis, and its
    jitter comes from one draw of that shape (none when ``jitter_pct`` is
    0)."""
    ta = 100.0 * distance_m / cell_range_m
    if jitter_pct > 0.0:
        # the draw's array takes the sum and the clamp in place
        jitter = rng.uniform(-jitter_pct, jitter_pct, shape)
        return np.maximum(np.add(ta, jitter, out=jitter), 0.0, out=jitter)
    return np.broadcast_to(np.maximum(ta, 0.0), shape)
