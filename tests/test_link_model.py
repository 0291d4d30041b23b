import copy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpwsim.link_model import (
    CP_OFDM,
    DFT_S_OFDM,
    PRECODER_CODEBOOK,
    McsTable,
    NoiseConfig,
    PowerControlConfig,
    compute_snr,
    draw_fading,
    evolve_fading,
    map_throughput,
    noise_power_dbm,
    path_loss_uma,
    precoded_gain,
    select_tx_port,
    sounding_gain,
    transmit_power,
)
from gain_reference import (
    reference_map_throughput,
    reference_precoded_gain,
    reference_select_tx_port,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestPathLoss:
    def test_monotone_in_distance(self):
        assert path_loss_uma(200.0) > path_loss_uma(100.0)

    def test_regression_constant_at_cell_edge(self):
        # frozen from one hand evaluation of the closed form at 300 m, 28 GHz
        assert path_loss_uma(300.0, 28.0) == pytest.approx(111.43982823067696, abs=1e-9)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss_uma(0.0)
        with pytest.raises(ValueError):
            path_loss_uma(np.array([10.0, -3.0]))


class TestTransmitPower:
    def test_below_cap(self):
        pc = PowerControlConfig(p0_dbm=-90.0, alpha=1.0, p_max_dbm=23.0)
        assert transmit_power(pc, 100.0, DFT_S_OFDM) == pytest.approx(10.0)

    def test_cap_engages(self):
        pc = PowerControlConfig(p0_dbm=-90.0, alpha=1.0, p_max_dbm=23.0)
        # decided 30 dBm, cap 23 - 1 = 22 for the single-carrier waveform
        assert transmit_power(pc, 120.0, DFT_S_OFDM) == pytest.approx(22.0)

    def test_waveform_gap_bounded(self, rng):
        pc = PowerControlConfig()
        for pl in rng.uniform(60.0, 160.0, 200):
            p_cp = transmit_power(pc, pl, CP_OFDM)
            p_df = transmit_power(pc, pl, DFT_S_OFDM)
            assert 0.0 <= p_df - p_cp <= 2.5
        # far below cap the two decided powers coincide
        assert transmit_power(pc, 10.0, CP_OFDM) == transmit_power(pc, 10.0, DFT_S_OFDM)

    def test_mpr_gap_validated(self):
        with pytest.raises(ValueError, match="outside"):
            PowerControlConfig(cp_mpr_db=3.0, dfts_mpr_db=0.0)
        with pytest.raises(ValueError, match="outside"):
            PowerControlConfig(cp_mpr_db=2.0, dfts_mpr_db=1.0)
        with pytest.raises(ValueError, match="dfts_mpr_db"):
            PowerControlConfig(cp_mpr_db=1.0, dfts_mpr_db=-1.0)
        PowerControlConfig(cp_mpr_db=2.5, dfts_mpr_db=0.0)

    def test_unknown_waveform_rejected(self):
        with pytest.raises(ValueError, match="cp-ofmd"):
            transmit_power(PowerControlConfig(), 100.0, "cp-ofmd")

    def test_every_power_key_moves_a_cap_or_the_decided_power(self):
        # each field is a [power] key, and the link budget reads it:
        # changing it alone changes some terminal's transmit power on some
        # waveform
        changed = dict(p0_dbm=-60.0, alpha=0.7, p_max_dbm=20.0, cp_mpr_db=3.0, dfts_mpr_db=1.5)
        assert {f.name for f in fields(PowerControlConfig)} == set(changed)
        pl = np.linspace(60.0, 160.0, 101)
        base = PowerControlConfig()
        for key, value in changed.items():
            pc = PowerControlConfig(**{key: value})
            assert any(
                not np.array_equal(transmit_power(pc, pl, w), transmit_power(base, pl, w))
                for w in (CP_OFDM, DFT_S_OFDM)
            ), key

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            PowerControlConfig(alpha=1.1)


class TestNoise:
    def test_reference_configuration(self):
        # -204 + 10log10(3.6e6) + 5 = -133.44 dBW -> -103.44 dBm
        n0 = noise_power_dbm(NoiseConfig(15e3, 20, 5.0))
        assert n0 == pytest.approx(-103.43697499232712, abs=1e-6)

    def test_doubling_rbs_adds_3db(self):
        a = noise_power_dbm(NoiseConfig(15e3, 20, 5.0))
        b = noise_power_dbm(NoiseConfig(15e3, 40, 5.0))
        assert b - a == pytest.approx(10 * np.log10(2.0), abs=1e-9)

    def test_single_rb_no_figure(self):
        n0 = noise_power_dbm(NoiseConfig(15e3, 1, 0.0))
        assert n0 - 30.0 == pytest.approx(-204 + 10 * np.log10(180e3), abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(delta_f_hz=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(n_rb=0)


def buffers(h, n_slots, lanes=1):
    """The trajectory and draw buffers of ``evolve_fading`` for a state
    ``h`` of ``lanes`` lanes, filled with NaN."""
    lane_shape = (n_slots, 2, len(h) // lanes) + h.shape[1:]
    return (np.full((n_slots,) + h.shape, np.nan, dtype=complex),
            np.full((lanes,) + lane_shape, np.nan))


def one_draw_per_slot(h, rho, rng, n_slots):
    """The Gauss-Markov recurrence with one fresh ``draw_fading`` per slot,
    in numpy's complex arithmetic; ``rho == 1`` draws nothing."""
    states = []
    for _ in range(n_slots):
        if rho < 1.0:
            h = rho * h + np.sqrt(1.0 - rho * rho) * draw_fading(h.shape, rng)
        states.append(h)
    return np.array(states)


class TestFading:
    def test_rho_one_freezes_state(self, rng):
        # two lanes: neither generator draws
        h = draw_fading((4, 1, 2), rng)
        rngs = [rng, np.random.default_rng(1)]
        out, noise = buffers(h, 3, lanes=2)
        before = [r.bit_generator.state for r in rngs]
        traj = evolve_fading(h, 1.0, rngs, 3, out=out, noise=noise)
        assert traj.shape == (3, 4, 1, 2)
        for state in traj:
            np.testing.assert_array_equal(state, h)
        assert [r.bit_generator.state for r in rngs] == before

    def test_rho_zero_is_fresh_draw(self, rng):
        h = draw_fading((1, 2), rng)
        out, noise = buffers(h, 1)
        h2 = evolve_fading(h, 0.0, [np.random.default_rng(5)], 1, out=out, noise=noise)[-1]
        h3 = draw_fading((1, 2), np.random.default_rng(5))
        np.testing.assert_allclose(h2, h3)

    def test_trajectory_equals_one_draw_per_slot(self, rng):
        h = draw_fading((6, 2, 2), rng)
        out, noise = buffers(h, 5)
        traj = evolve_fading(h, 0.7, [np.random.default_rng(9)], 5, out=out, noise=noise)
        slot_rng = np.random.default_rng(9)
        for state in traj:
            h = 0.7 * h + np.sqrt(1.0 - 0.7 * 0.7) * draw_fading(h.shape, slot_rng)
            np.testing.assert_array_equal(state, h)

    def test_unit_power_preserved(self, rng):
        h = draw_fading((1000, 1, 2), rng)
        n_steps = 50  # 50 x 1000 elements = 5e4+ evolutions
        out, noise = buffers(h, n_steps)
        traj = evolve_fading(h, 0.9, [rng], n_steps, out=out, noise=noise)
        acc = sum(np.mean(np.abs(state) ** 2) for state in traj)
        assert abs(acc / n_steps - 1.0) < 0.02

    def test_bad_rho_rejected(self, rng):
        h = draw_fading((1, 2), rng)
        out, noise = buffers(h, 1)
        with pytest.raises(ValueError):
            evolve_fading(h, 1.5, [rng], 1, out=out, noise=noise)

    # shape0 is a single terminal, the smallest state
    @pytest.mark.parametrize("shape", [(1,), (3,), (50, 1, 2), (7, 2, 2)])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 0.99, 1.0])
    def test_caller_buffers_equal_the_allocating_form(self, rng, shape, rho):
        # the kept buffers give the bits of the allocating recurrence, one
        # draw_fading per slot, and leave the generator where it leaves it,
        # over several calls through the same buffers, as a step after step
        # does
        h = draw_fading(shape, rng)
        n_slots = 13
        out, noise = buffers(h, n_slots)
        mine, ref = np.random.default_rng(3), np.random.default_rng(3)
        h_mine = h_ref = h
        for _ in range(3):
            twin = copy.deepcopy(mine)  # draws what this call draws
            traj = evolve_fading(h_mine, rho, [mine], n_slots, out=out, noise=noise)
            want = one_draw_per_slot(h_ref, rho, ref, n_slots)
            assert traj is out
            np.testing.assert_array_equal(traj, want)
            assert mine.bit_generator.state == ref.bit_generator.state
            if rho < 1.0:  # the draw went into the given buffer
                np.testing.assert_array_equal(noise, twin.standard_normal(noise.shape))
            h_mine, h_ref = traj[-1].copy(), want[-1]

    def test_rho_one_fills_the_buffer_and_draws_nothing(self, rng):
        h = draw_fading((4, 1, 2), rng)
        out, noise = buffers(h, 3)
        before = rng.bit_generator.state
        traj = evolve_fading(h, 1.0, [rng], 3, out=out, noise=noise)
        assert traj is out
        for state in traj:
            np.testing.assert_array_equal(state, h)
        assert rng.bit_generator.state == before
        assert np.isnan(noise).all()  # the draw buffer is not touched

    def test_mismatched_buffers_rejected(self, rng):
        h = draw_fading((5, 1, 2), rng)
        out, noise = buffers(h, 4)
        for bad_out in (out[:3], out.astype(np.complex64),
                        np.empty((4, 5, 1, 4), dtype=complex)[..., ::2]):
            with pytest.raises(ValueError):
                evolve_fading(h, 0.7, [rng], 4, out=bad_out, noise=noise)
        with pytest.raises(ValueError):
            evolve_fading(h, 0.7, [rng], 4, out=out, noise=noise[:, :1])
        with pytest.raises(TypeError):
            evolve_fading(h, 0.7, [rng], 4, out=out, noise=noise.astype(np.float32))

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.7, 1.0])
    def test_lanes_equal_separate_trajectories(self, rng, lanes, rho):
        # each lane's terminals evolve from its own generator, bit for bit
        # as alone with one draw_fading per slot, over several calls through
        # the same buffers, and each generator ends where a lane of its own
        # leaves it
        n, n_slots = 5, 7
        h = draw_fading((lanes * n, 2, 2), rng)
        out, noise = buffers(h, n_slots, lanes)
        mine = [np.random.default_rng(10 + k) for k in range(lanes)]
        ref = [np.random.default_rng(10 + k) for k in range(lanes)]
        h_ref = [h[k * n:(k + 1) * n] for k in range(lanes)]
        for _ in range(3):
            traj = evolve_fading(h, rho, mine, n_slots, out=out, noise=noise)
            assert traj is out
            for k in range(lanes):
                want = one_draw_per_slot(h_ref[k], rho, ref[k], n_slots)
                np.testing.assert_array_equal(traj[:, k * n:(k + 1) * n], want)
                assert mine[k].bit_generator.state == ref[k].bit_generator.state
                h_ref[k] = want[-1]
            h = traj[-1].copy()

    def test_lane_buffers_and_split_checked(self, rng):
        h = draw_fading((6, 1, 2), rng)
        rngs = [np.random.default_rng(k) for k in range(3)]
        out, noise = buffers(h, 4, 3)
        with pytest.raises(ValueError):  # a draw buffer with no lane axis
            evolve_fading(h, 0.7, rngs, 4, out=out, noise=np.empty((4, 2) + h.shape))
        with pytest.raises(ValueError):  # 6 terminals in 4 lanes
            evolve_fading(h, 0.7, rngs + rngs[:1], 4, out=out, noise=noise)
        with pytest.raises(ValueError):
            evolve_fading(h, 0.7, [], 4, out=out, noise=noise)
        evolve_fading(h, 0.7, rngs, 4, out=out, noise=noise)


def entry_gains(h):
    """Received power sum of each codebook entry, one matrix-vector product
    per entry."""
    return [float(np.sum(np.abs(h @ PRECODER_CODEBOOK[:, k]) ** 2)) for k in range(4)]


class TestPrecoderSelection:
    # precoded_gain is the gain of the best codebook entry
    def test_matched_row_picks_aligned_entry(self):
        h = np.array([[1.0, 1.0]], dtype=complex)
        gains = entry_gains(h)
        assert int(np.argmax(gains)) == 0
        assert precoded_gain(h) == pytest.approx(gains[0])
        assert precoded_gain(h) == pytest.approx(2.0)

    def test_conjugate_matched_entry(self):
        # row (1, -j): |1 + (-j)(j)|^2 is maximal for the (1, j) entry
        h = np.array([[1.0, -1.0j]])
        gains = entry_gains(h)
        assert int(np.argmax(gains)) == 2
        assert precoded_gain(h) == pytest.approx(gains[2])
        assert all(precoded_gain(h) > g + 0.5 for k, g in enumerate(gains) if k != 2)

    def test_brute_force_oracle(self, rng):
        for _ in range(1000):
            h = draw_fading((2, 2), rng)
            # the chosen gain is not beaten by any entry, and is one of them
            assert precoded_gain(h) == pytest.approx(max(entry_gains(h)), rel=1e-12)

    def test_single_port_rejected(self, rng):
        with pytest.raises(ValueError):
            precoded_gain(draw_fading((2, 1), rng))

    def test_batch_gain_consistency(self, rng):
        h = draw_fading((64, 2, 2), rng)
        g = precoded_gain(h)
        for i in range(64):
            assert g[i] == pytest.approx(max(entry_gains(h[i])))

    def test_port_selection_picks_stronger_column(self, rng):
        h = np.array([[0.1 + 0j, 2.0 + 0j]])
        assert select_tx_port(h) == pytest.approx(4.0)
        assert sounding_gain(h) == pytest.approx((0.01 + 4.0) / 2.0)


def random_channels(rng, n_rx, zero_every=0):
    """Batches of (n_rx, 2) channels of random batch shapes, one or two batch
    axes as in the simulator's (slot, terminal) arrays, with some entries
    zeroed (a deep fade). numpy may group the receive-axis sum of a lone
    matrix differently, so the batch axes are kept."""
    for trial in range(200):
        batch = tuple(rng.integers(1, 40, size=rng.integers(1, 3)))
        h = draw_fading(batch + (n_rx, 2), rng)
        if zero_every and trial % zero_every == 0:
            h.flat[rng.integers(0, h.size, size=max(1, h.size // 3))] = 0.0
        yield h


def elementwise_precoded_gain(h):
    """precoded_gain of one (n_rx, n_tx) matrix, one operation at a time in
    the stated order: ports summed left to right, receive antennas in order,
    then the best codeword. Each operation runs on a one-element array, so
    it rounds like numpy's array loops; those may fuse a complex product or
    round a magnitude unlike Python's complex scalars."""
    best = None
    for k in range(PRECODER_CODEBOOK.shape[1]):
        gain = None
        for row in h:
            y = row[0:1] * PRECODER_CODEBOOK[0, k]
            for j in range(1, len(row)):
                y = y + row[j : j + 1] * PRECODER_CODEBOOK[j, k]
            magnitude = float(np.abs(y)[0])
            power = magnitude * magnitude
            gain = power if gain is None else gain + power
        best = gain if best is None else max(best, gain)
    return best


class TestSlabGains:
    # the slab kernels against the matmul and trailing-axis formulas they
    # replaced (tests/gain_reference.py)
    def test_precoded_gain_bit_equal_at_one_rx(self, rng):
        for h in random_channels(rng, 1, zero_every=5):
            np.testing.assert_array_equal(precoded_gain(h), reference_precoded_gain(h))

    def test_zero_channel_is_outage(self):
        h = np.zeros((3, 4, 1, 2), dtype=complex)
        for gain in (precoded_gain(h), select_tx_port(h)):
            assert gain.shape == (3, 4) and np.all(gain == 0.0)
            snr = compute_snr(20.0, 100.0, gain, -100.0)
            assert np.all(snr == -np.inf)
            tp, outage = map_throughput(snr, McsTable(), 3.6e6)
            assert np.all(outage) and np.all(tp == 0.0)

    @pytest.mark.parametrize("n_rx", range(1, 17))
    def test_select_tx_port_bit_equal(self, rng, n_rx):
        for h in random_channels(rng, n_rx, zero_every=7):
            np.testing.assert_array_equal(select_tx_port(h), reference_select_tx_port(h))

    @pytest.mark.parametrize("n_rx", [2, 3, 4, 8])
    def test_precoded_gain_multi_rx(self, rng, n_rx):
        # the slab order is the explicit elementwise one; the matmul's
        # rounding depends on the BLAS kernel, so it agrees to a few ulps
        for h in random_channels(rng, n_rx):
            g = precoded_gain(h)
            np.testing.assert_allclose(g, reference_precoded_gain(h), rtol=2e-15, atol=0.0)
            flat_h, flat_g = h.reshape(-1, n_rx, 2), np.reshape(g, -1)
            for m in range(0, len(flat_h), 17):
                assert flat_g[m] == elementwise_precoded_gain(flat_h[m])

    def test_strided_trajectory_slots(self, rng):
        # the orchestrator passes every period-th slot of a trajectory
        traj = draw_fading((64, 20, 1, 2), rng)[::2]
        np.testing.assert_array_equal(precoded_gain(traj), reference_precoded_gain(traj))
        np.testing.assert_array_equal(select_tx_port(traj), reference_select_tx_port(traj))


class TestSnr:
    def test_hand_budget(self):
        snr = compute_snr(22.0, 110.0, 2.0, -103.43697499232712)
        assert snr == pytest.approx(22.0 - 110.0 + 10 * np.log10(2.0) + 103.43697499232712)

    def test_affine_in_power(self, rng):
        for _ in range(20):
            p, pl, g = rng.uniform(0, 23), rng.uniform(60, 120), rng.uniform(0.1, 4.0)
            x = rng.uniform(-5, 5)
            assert compute_snr(p + x, pl, g, -100.0) == pytest.approx(
                compute_snr(p, pl, g, -100.0) + x
            )

    def test_unit_channel_single_antenna(self):
        assert compute_snr(10.0, 90.0, 1.0, -100.0) == pytest.approx(20.0)

    def test_zero_channel_is_deep_fade(self):
        assert compute_snr(10.0, 90.0, 0.0, -100.0) == -np.inf


class TestAmc:
    def test_outage_below_lowest(self):
        tp, outage = map_throughput(-6.01, McsTable(), 3.6e6)
        assert tp == 0.0 and outage

    def test_threshold_boundary_inclusive(self):
        mcs = McsTable()
        tp, outage = map_throughput(-6.0, mcs, 3.6e6)
        assert not outage
        assert tp == pytest.approx(0.1523 * 3.6e6)

    def test_top_entry_above_ladder(self):
        mcs = McsTable()
        tp, _ = map_throughput(45.0, mcs, 3.6e6)
        assert tp == pytest.approx(5.5547 * 3.6e6)

    def test_linear_scan_oracle(self, rng):
        mcs = McsTable()
        for snr in rng.uniform(-10.0, 25.0, 500):
            tp, outage = map_throughput(float(snr), mcs, 3.6e6)
            best = None
            for thr, eff in mcs.entries:
                if snr >= thr:
                    best = eff
            if best is None:
                assert outage and tp == 0.0
            else:
                assert tp == pytest.approx(best * 3.6e6)

    @given(st.floats(-30.0, 40.0), st.floats(0.0, 10.0))
    def test_monotone_in_snr(self, snr, delta):
        mcs = McsTable()
        lo, _ = map_throughput(snr, mcs, 3.6e6)
        hi, _ = map_throughput(snr + delta, mcs, 3.6e6)
        assert hi >= lo

    def test_penalty_never_increases_throughput(self, rng):
        mcs = McsTable()
        for snr in rng.uniform(-10.0, 25.0, 200):
            base, _ = map_throughput(float(snr), mcs, 3.6e6)
            pen, _ = map_throughput(float(snr) - 0.7, mcs, 3.6e6)
            assert pen <= base

    def test_table_lookup_at_each_threshold(self):
        mcs = McsTable()
        thr = mcs.thresholds
        below = np.nextafter(thr, -np.inf)
        tp, outage = map_throughput(thr, mcs, 3.6e6)
        np.testing.assert_array_equal(tp, mcs.efficiencies * 3.6e6)
        assert not outage.any()
        tp, outage = map_throughput(below, mcs, 3.6e6)
        np.testing.assert_array_equal(tp[1:], mcs.efficiencies[:-1] * 3.6e6)
        assert tp[0] == 0.0 and outage[0] and not outage[1:].any()
        assert map_throughput(-np.inf, mcs, 3.6e6) == (0.0, True)
        top = float(mcs.efficiencies[-1] * 3.6e6)
        assert map_throughput(np.nextafter(thr[-1], np.inf), mcs, 3.6e6) == (top, False)
        assert map_throughput(np.inf, mcs, 3.6e6) == (top, False)

    def test_table_lookup_matches_clipped_search(self, rng):
        mcs = McsTable()
        thr = mcs.thresholds
        snr = np.concatenate(
            [rng.uniform(-30.0, 40.0, (64, 50)).ravel(), thr, np.nextafter(thr, -np.inf),
             [-np.inf, np.inf]]
        )
        for got, want in zip(map_throughput(snr, mcs, 3.6e6),
                             reference_map_throughput(snr, mcs, 3.6e6)):
            np.testing.assert_array_equal(got, want)
        for x in (-6.0, -6.01, 19.8, 45.0, -np.inf):
            assert map_throughput(x, mcs, 3.6e6) == reference_map_throughput(x, mcs, 3.6e6)

    def test_nan_snr_is_outage(self):
        mcs = McsTable()
        assert map_throughput(np.nan, mcs, 3.6e6) == (0.0, True)
        tp, outage = map_throughput([np.nan, 30.0, -np.inf], mcs, 3.6e6)
        np.testing.assert_array_equal(tp, [0.0, mcs.efficiencies[-1] * 3.6e6, 0.0])
        np.testing.assert_array_equal(outage, [True, False, True])

    def test_counted_index_keeps_the_input_shape(self, rng):
        # 2-D as in a step, 0-d as a scalar call, and empty
        mcs = McsTable()
        snr = rng.uniform(-30.0, 40.0, (37, 11))
        snr[::5, ::3] = mcs.thresholds[rng.integers(0, 15, snr[::5, ::3].shape)]
        tp, outage = map_throughput(snr, mcs, 3.6e6)
        want_tp, want_outage = reference_map_throughput(snr, mcs, 3.6e6)
        assert tp.shape == outage.shape == (37, 11)
        np.testing.assert_array_equal(tp, want_tp)
        np.testing.assert_array_equal(outage, want_outage)
        tp, outage = map_throughput(np.float64(-6.0), mcs, 3.6e6)
        assert np.ndim(tp) == np.ndim(outage) == 0
        assert (tp, outage) == reference_map_throughput(-6.0, mcs, 3.6e6)
        tp, outage = map_throughput(np.zeros((0, 4)), mcs, 3.6e6)
        assert tp.shape == outage.shape == (0, 4)
        assert tp.dtype == float and outage.dtype == bool

    def test_long_table_does_not_wrap_the_count(self):
        # 300 thresholds count past the 255 of a uint8
        mcs = McsTable(entries=tuple((float(k), 0.01 * (k + 1)) for k in range(300)))
        snr = np.array([-1.0, 0.0, 254.0, 255.0, 256.5, 299.0, 1e9])
        tp, outage = map_throughput(snr, mcs, 1.0)
        want_tp, want_outage = reference_map_throughput(snr, mcs, 1.0)
        np.testing.assert_array_equal(tp, want_tp)
        np.testing.assert_array_equal(outage, want_outage)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            McsTable(entries=())
        with pytest.raises(ValueError):
            McsTable(entries=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            McsTable(entries=((0.0, 1.0), (1.0, 0.5)))


class TestDefaults:
    def test_default_mpr_gaps(self):
        pc = PowerControlConfig()
        assert (pc.cp_mpr_db, pc.dfts_mpr_db) == (3.5, 1.0)
        assert 1.5 <= pc.cp_mpr_db - pc.dfts_mpr_db <= 2.5

    def test_default_mcs_span(self):
        mcs = McsTable()
        assert len(mcs.entries) == 15
        assert mcs.thresholds[0] == -6.0
        assert mcs.thresholds[-1] == 19.8
        assert mcs.efficiencies[0] == 0.1523
        assert mcs.efficiencies[-1] == 5.5547
