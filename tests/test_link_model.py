import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpwsim.link_model import (
    CP_OFDM,
    DFT_S_OFDM,
    DEFAULT_MPR_DB,
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
    select_precoder,
    select_tx_port,
    sounding_gain,
    transmit_power,
)
from dpwsim.waveform import PRECODER_CODEBOOK


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
        with pytest.raises(ValueError):
            PowerControlConfig(mpr_db={(CP_OFDM, "qpsk"): 3.0, (DFT_S_OFDM, "qpsk"): 0.0})
        with pytest.raises(ValueError):
            PowerControlConfig(mpr_db={(CP_OFDM, "qpsk"): 1.0, (DFT_S_OFDM, "qpsk"): -1.0})

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


class TestFading:
    def test_rho_one_freezes_state(self, rng):
        h = draw_fading((4, 1, 2), rng)
        before = rng.bit_generator.state
        traj = evolve_fading(h, 1.0, rng, 3)
        assert traj.shape == (3, 4, 1, 2)
        for state in traj:
            np.testing.assert_array_equal(state, h)
        assert rng.bit_generator.state == before  # draws nothing

    def test_rho_zero_is_fresh_draw(self, rng):
        h = draw_fading((1, 2), rng)
        h2 = evolve_fading(h, 0.0, np.random.default_rng(5), 1)[-1]
        h3 = draw_fading((1, 2), np.random.default_rng(5))
        np.testing.assert_allclose(h2, h3)

    def test_trajectory_equals_one_draw_per_slot(self, rng):
        h = draw_fading((6, 2, 2), rng)
        traj = evolve_fading(h, 0.7, np.random.default_rng(9), 5)
        slot_rng = np.random.default_rng(9)
        for state in traj:
            h = 0.7 * h + np.sqrt(1.0 - 0.7 * 0.7) * draw_fading(h.shape, slot_rng)
            np.testing.assert_array_equal(state, h)

    def test_unit_power_preserved(self, rng):
        h = draw_fading((1000, 1, 2), rng)
        n_steps = 50  # 50 x 1000 elements = 5e4+ evolutions
        traj = evolve_fading(h, 0.9, rng, n_steps)
        acc = sum(np.mean(np.abs(state) ** 2) for state in traj)
        assert abs(acc / n_steps - 1.0) < 0.02

    def test_bad_rho_rejected(self, rng):
        with pytest.raises(ValueError):
            evolve_fading(draw_fading((1, 2), rng), 1.5, rng, 1)


class TestPrecoderSelection:
    def test_matched_row_picks_aligned_entry(self):
        idx, w = select_precoder(np.array([[1.0, 1.0]], dtype=complex))
        assert idx == 0
        np.testing.assert_allclose(w, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_conjugate_matched_entry(self):
        # row (1, -j): |1 + (-j)(j)|^2 is maximal for the (1, j) entry
        idx, _ = select_precoder(np.array([[1.0, -1.0j]]))
        assert idx == 2

    def test_brute_force_oracle(self, rng):
        for _ in range(1000):
            h = draw_fading((2, 2), rng)
            idx, _ = select_precoder(h)
            gains = [
                float(np.sum(np.abs(h @ PRECODER_CODEBOOK[:, k]) ** 2)) for k in range(4)
            ]
            assert idx == int(np.argmax(gains))
            # argmax property: the selected gain is not beaten by any entry
            assert gains[idx] >= max(gains) - 1e-12

    def test_single_port_rejected(self, rng):
        with pytest.raises(ValueError):
            select_precoder(draw_fading((2, 1), rng))

    def test_batch_gain_consistency(self, rng):
        h = draw_fading((64, 2, 2), rng)
        g = precoded_gain(h)
        for i in range(64):
            idx, w = select_precoder(h[i])
            assert g[i] == pytest.approx(float(np.sum(np.abs(h[i] @ w) ** 2)))

    def test_port_selection_picks_stronger_column(self, rng):
        h = np.array([[0.1 + 0j, 2.0 + 0j]])
        assert select_tx_port(h) == pytest.approx(4.0)
        assert sounding_gain(h) == pytest.approx((0.01 + 4.0) / 2.0)


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

    def test_table_validation(self):
        with pytest.raises(ValueError):
            McsTable(entries=())
        with pytest.raises(ValueError):
            McsTable(entries=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            McsTable(entries=((0.0, 1.0), (1.0, 0.5)))


class TestDefaults:
    def test_default_mpr_gaps(self):
        for mod in ("qpsk", "16qam"):
            gap = DEFAULT_MPR_DB[(CP_OFDM, mod)] - DEFAULT_MPR_DB[(DFT_S_OFDM, mod)]
            assert 1.5 <= gap <= 2.5

    def test_default_mcs_span(self):
        mcs = McsTable()
        assert len(mcs.entries) == 15
        assert mcs.thresholds[0] == -6.0
        assert mcs.thresholds[-1] == 19.8
        assert mcs.efficiencies[0] == 0.1523
        assert mcs.efficiencies[-1] == 5.5547
