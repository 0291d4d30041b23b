import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwsim.kpi import (
    Histogram12,
    InsufficientDataError,
    R_SENTINEL,
    SNR_BIN_EDGES,
    TA_BIN_EDGES,
    ThroughputStats,
    _bin_counts,
    bin_snr,
    bin_ta,
    descriptor_d,
    descriptor_r,
    throughput_percentiles,
    timing_advance_percent,
)


def searched_bin_counts(edges, values):
    """The search-and-count form that ``_bin_counts`` replaced."""
    idx = np.searchsorted(np.asarray(edges[1:-1]), np.ravel(values), side="right")
    return np.bincount(idx, minlength=12).astype(np.int64)


def edge_values(edges):
    """Every edge, the float one ulp below it, and both infinities."""
    values = [v for e in edges for v in (e, math.nextafter(e, -math.inf))]
    return np.array(values + [-math.inf, math.inf])


@st.composite
def binning_inputs(draw):
    edges = draw(st.sampled_from([SNR_BIN_EDGES, TA_BIN_EDGES]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    near = st.floats(-20.0, 130.0, allow_nan=False)
    values = draw(st.lists(st.one_of(finite, near, st.sampled_from(list(edge_values(edges)))),
                           max_size=300))
    shape = draw(st.sampled_from(["1-d", "0-d", "2-d"]))
    arr = np.array(values, dtype=float)
    if shape == "0-d" and values:
        arr = np.array(values[0])
    elif shape == "2-d" and len(values) % 3 == 0:
        arr = arr.reshape(3, -1)
    return edges, arr


def uniform_hist(edges=SNR_BIN_EDGES):
    return Histogram12(edges=edges, counts=np.ones(12, dtype=int))


class TestBinning:
    def test_snr_deep_negative_lands_in_first_bin(self):
        h = bin_snr(Histogram12(), -10.0)
        assert h.counts[0] == 1 and h.total == 1

    def test_snr_lower_edge_inclusive(self):
        h = bin_snr(Histogram12(), -5.0)
        assert h.counts[1] == 1  # [-5, -2) is the second bin

    def test_snr_uniform_matches_multinomial(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-10.0, 30.0, size=10000)
        h = bin_snr(Histogram12(), samples)
        lo, hi = -10.0, 30.0
        for i in range(12):
            a = max(SNR_BIN_EDGES[i], lo)
            b = min(SNR_BIN_EDGES[i + 1], hi)
            p = max(b - a, 0.0) / (hi - lo)
            sigma = math.sqrt(10000 * p * (1 - p))
            assert abs(h.counts[i] - 10000 * p) <= max(3 * sigma, 1.0)

    def test_every_edge_and_one_ulp_below(self):
        # each finite edge opens its bin, the float just below it still
        # belongs to the bin before, and the infinities land in the end bins
        for edges, binner in ((SNR_BIN_EDGES, bin_snr), (TA_BIN_EDGES, bin_ta)):
            finite = [e for e in edges if math.isfinite(e)]
            values = finite + [math.nextafter(e, -math.inf) for e in finite] + [math.inf]
            if edges[0] == -math.inf:
                values.append(-math.inf)
            for v in values:
                want = max((i for i in range(12) if edges[i] <= v), default=0)
                assert binner(Histogram12(edges=edges), v).counts[want] == 1

    def test_ta_center_bin(self):
        h = bin_ta(Histogram12(edges=TA_BIN_EDGES), 50.0)
        assert h.counts[4] == 1  # [45, 55) has lower edge 45

    def test_ta_clamps_small_values_into_first_bin(self):
        h = bin_ta(Histogram12(edges=TA_BIN_EDGES), 2.0)
        assert h.counts[0] == 1

    def test_ta_overshoot_lands_in_top_bin(self):
        h = bin_ta(Histogram12(edges=TA_BIN_EDGES), 120.0)
        assert h.counts[11] == 1

    def test_ta_negative_rejected(self):
        with pytest.raises(ValueError):
            bin_ta(Histogram12(edges=TA_BIN_EDGES), -1.0)

    def test_ta_nan_rejected(self):
        for values in (math.nan, [50.0, math.nan]):
            with pytest.raises(ValueError, match="NaN"):
                bin_ta(Histogram12(edges=TA_BIN_EDGES), values)

    def test_snr_nan_rejected(self):
        # searchsorted sorted NaN last, into the top bin
        for values in (math.nan, [3.0, math.nan, -math.inf]):
            with pytest.raises(ValueError, match="NaN"):
                bin_snr(Histogram12(), values)

    @settings(max_examples=300, deadline=None)
    @given(binning_inputs())
    def test_counting_equals_search(self, case):
        edges, values = case
        got = _bin_counts(edges, values)
        assert got.dtype == np.int64 and got.shape == (12,)
        np.testing.assert_array_equal(got, searched_bin_counts(edges, values))

    @pytest.mark.parametrize("edges", [SNR_BIN_EDGES, TA_BIN_EDGES])
    def test_counting_at_every_edge(self, edges):
        values = edge_values(edges)
        np.testing.assert_array_equal(_bin_counts(edges, values), searched_bin_counts(edges, values))
        for v in values:
            np.testing.assert_array_equal(_bin_counts(edges, np.array(v)),
                                          searched_bin_counts(edges, v))
        empty = _bin_counts(edges, np.zeros(0))
        assert empty.dtype == np.int64 and not empty.any()

    def test_total_tracks_samples(self):
        rng = np.random.default_rng(0)
        h = bin_snr(Histogram12(), rng.normal(10, 8, size=500))
        assert h.total == 500

    def test_merge_and_order_invariance(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(8.0, 9.0, size=400)
        whole = bin_snr(Histogram12(), xs)
        # binning in parts, one after the other, as a step does per block
        parts = bin_snr(bin_snr(Histogram12(), xs[:150]), xs[150:])
        shuffled = bin_snr(Histogram12(), xs[::-1].copy())
        np.testing.assert_array_equal(whole.counts, parts.counts)
        np.testing.assert_array_equal(whole.counts, shuffled.counts)

    def test_edges_validated(self):
        with pytest.raises(ValueError):
            Histogram12(edges=(0, 1, 2))
        with pytest.raises(ValueError):
            Histogram12(edges=tuple(reversed(SNR_BIN_EDGES)))


class TestDescriptors:
    def test_uniform_hand_values(self):
        h = uniform_hist()
        assert descriptor_r(h, 6) == pytest.approx(7 / 5)
        assert descriptor_r(h, 5) == pytest.approx(8 / 4)
        assert descriptor_r(h, 3) == pytest.approx(10 / 2)
        assert descriptor_d(h, 6) == pytest.approx(7 / 12)
        assert descriptor_d(h, 5) == pytest.approx(8 / 12)

    def test_full_tail(self):
        assert descriptor_d(uniform_hist(), 1) == 1.0

    def test_all_mass_below_probe(self):
        counts = np.zeros(12, dtype=int)
        counts[0] = 7
        h = Histogram12(counts=counts)
        assert descriptor_r(h, 6) == 0.0

    def test_zero_denominator_sentinel(self):
        counts = np.zeros(12, dtype=int)
        counts[11] = 3
        h = Histogram12(counts=counts)
        assert descriptor_r(h, 6) == R_SENTINEL

    def test_cell_edge_interpretation(self):
        # everything at or above the 9th bin lower edge: tail probability 1
        counts = np.zeros(12, dtype=int)
        counts[8:] = 5
        h = Histogram12(edges=TA_BIN_EDGES, counts=counts)
        assert descriptor_d(h, 9) == 1.0

    def test_empty_histogram_undefined(self):
        with pytest.raises(ValueError):
            descriptor_r(Histogram12(), 6)
        with pytest.raises(ValueError):
            descriptor_d(Histogram12(), 6)

    def test_ell_ranges(self):
        h = uniform_hist()
        with pytest.raises(ValueError):
            descriptor_r(h, 1)
        with pytest.raises(ValueError):
            descriptor_d(h, 0)
        with pytest.raises(ValueError):
            descriptor_d(h, 13)

    def test_ratio_tail_identity_random(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            counts = rng.integers(0, 30, size=12)
            if counts.sum() == 0:
                continue
            h = Histogram12(counts=counts)
            for ell in range(2, 13):
                d = descriptor_d(h, ell)
                r = descriptor_r(h, ell)
                if d < 1.0:
                    assert r == pytest.approx(d / (1.0 - d), rel=1e-12)

    def test_d_nonincreasing_in_ell(self):
        rng = np.random.default_rng(13)
        counts = rng.integers(0, 50, size=12)
        counts[0] += 1
        h = Histogram12(counts=counts)
        ds = [descriptor_d(h, ell) for ell in range(1, 13)]
        assert all(b <= a for a, b in zip(ds, ds[1:]))


class TestThroughputStats:
    def test_degenerate_constant(self):
        stats = throughput_percentiles(np.full(40, 5.0e6))
        assert stats.as_array() == pytest.approx(np.full(9, 5.0e6))

    def test_quantile_oracle_1_to_100(self):
        samples = np.arange(1.0, 101.0)
        stats = throughput_percentiles(samples)
        # linear interpolation between closest ranks on sorted data
        for name, q in zip(
            ("p10", "p15", "p20", "p25", "p30", "p35", "p40", "p45"),
            (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45),
        ):
            pos = q * 99.0
            lo = int(math.floor(pos))
            frac = pos - lo
            expected = samples[lo] * (1 - frac) + samples[min(lo + 1, 99)] * frac
            assert getattr(stats, name) == pytest.approx(expected)
        assert stats.mean == pytest.approx(50.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 10.0))
    def test_positive_homogeneity(self, scale):
        rng = np.random.default_rng(2)
        samples = rng.uniform(1.0, 9.0, size=64)
        a = throughput_percentiles(samples).as_array()
        b = throughput_percentiles(scale * samples).as_array()
        np.testing.assert_allclose(b, scale * a, rtol=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            throughput_percentiles(np.ones(19))

    def test_round_trip_array(self):
        stats = throughput_percentiles(np.linspace(1.0, 2.0, 50))
        again = ThroughputStats(*stats.as_array())
        assert again == stats


class TestTimingAdvance:
    def test_plain_ratio(self):
        # no jitter: no draw, every row the plain ratio
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        ta = timing_advance_percent(np.array([150.0, 30.0]), 300.0, 0.0, rng, (3, 2))
        np.testing.assert_array_equal(ta, [[50.0, 10.0]] * 3)
        assert rng.bit_generator.state == before

    def test_jitter_bounds_and_determinism(self):
        # the jitter is one draw of the whole shape
        d = np.array([30.0, 150.0, 270.0])
        ta = timing_advance_percent(d, 300.0, 3.0, np.random.default_rng(4), (200, 3))
        assert np.all(np.abs(ta - [10.0, 50.0, 90.0]) <= 3.0 + 1e-12)
        draw = np.random.default_rng(4).uniform(-3.0, 3.0, (200, 3))
        np.testing.assert_array_equal(ta, np.maximum(100.0 * d / 300.0 + draw, 0.0))

    def test_clamped_at_zero(self):
        ta = timing_advance_percent(np.array([0.0]), 300.0, 3.0, np.random.default_rng(5), (50, 1))
        assert ta.min() == 0.0
        assert np.all(ta >= 0.0)
