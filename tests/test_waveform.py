import numpy as np
import pytest

from dpwsim.waveform import (
    OfdmGrid,
    generate_cp_ofdm,
    generate_dft_s_ofdm,
    measure_papr,
    papr_ensemble,
    qam16_symbols,
    qpsk_symbols,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestGrids:
    def test_dft_size_larger_than_idft_rejected(self):
        with pytest.raises(ValueError):
            OfdmGrid(n_subcarriers=128, dft_size=256)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            OfdmGrid(n_subcarriers=240, dft_size=120)

    def test_band_must_fit(self):
        with pytest.raises(ValueError):
            OfdmGrid(n_subcarriers=256, dft_size=240, offset=32)


class TestSymbolSources:
    def test_qpsk_unit_power(self, rng):
        d = qpsk_symbols(4096, rng)
        assert abs(np.mean(np.abs(d) ** 2) - 1.0) < 1e-12  # QPSK is exactly unit power

    def test_qam16_unit_power(self, rng):
        d = qam16_symbols(20000, rng)
        assert abs(np.mean(np.abs(d) ** 2) - 1.0) < 0.01


class TestCpOfdm:
    def test_dc_only_symbol_gives_constant_signal(self):
        grid = OfdmGrid(n_subcarriers=8, dft_size=1, offset=0, n_tx=1)
        x = generate_cp_ofdm(np.array([1.0 + 0j]), np.array([1.0]), grid)
        assert x.shape == (8, 1)
        np.testing.assert_allclose(x[:, 0], np.ones(8), atol=1e-12)

    def test_zero_precoder_row_silences_port(self, rng):
        grid = OfdmGrid(n_subcarriers=64, dft_size=48, offset=4, n_tx=2)
        d = qpsk_symbols(48, rng)
        x = generate_cp_ofdm(d, np.array([1.0, 0.0]), grid)
        assert np.max(np.abs(x[:, 1])) == 0.0
        assert np.max(np.abs(x[:, 0])) > 0.0

    def test_round_trip(self, rng):
        grid = OfdmGrid(n_subcarriers=256, dft_size=240, offset=8, n_tx=1)
        d = qpsk_symbols(240, rng)
        x = generate_cp_ofdm(d, np.ones(1), grid)
        # receiver: DFT, pick the mapped band, undo the loading factor
        spec = np.fft.fft(x[:, 0], norm="ortho")
        d_hat = spec[8 : 8 + 240] / np.sqrt(256 / 240)
        assert np.max(np.abs(d_hat - d)) < 1e-9

    def test_total_port_power_matches_data_power(self, rng):
        grid = OfdmGrid(n_subcarriers=256, dft_size=240, offset=0, n_tx=2)
        d = qpsk_symbols(240, rng)
        w = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        x = generate_cp_ofdm(d, w, grid)
        total = sum(np.mean(np.abs(x[:, p]) ** 2) for p in range(2))
        assert abs(total - np.mean(np.abs(d) ** 2)) < 1e-9

    def test_dimension_mismatch_rejected(self, rng):
        grid = OfdmGrid(n_subcarriers=64, dft_size=64, n_tx=2)
        with pytest.raises(ValueError):
            generate_cp_ofdm(qpsk_symbols(8, rng), np.ones(1), grid)
        with pytest.raises(ValueError):
            generate_cp_ofdm(qpsk_symbols(65, rng), np.ones(2) / np.sqrt(2), grid)


class TestDftSOfdm:
    def test_transform_cancellation_identity(self, rng):
        # full allocation, same-size DFT and IDFT undo each other
        grid = OfdmGrid(n_subcarriers=64, dft_size=64, offset=0)
        d = qpsk_symbols(64, rng)
        x = generate_dft_s_ofdm(d, grid)
        np.testing.assert_allclose(x, d, atol=1e-12)

    def test_impulse_matches_matrix_oracle(self):
        # closed-form oracle: explicit mapping/DFT matrices per definition
        n, m, off = 32, 16, 3
        grid = OfdmGrid(n_subcarriers=n, dft_size=m, offset=off)
        for pos in (0, 5, 15):
            d = np.zeros(m, dtype=complex)
            d[pos] = 1.0
            f_h = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
            dft = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
            m_f = np.zeros((n, m))
            m_f[off : off + m, :] = np.eye(m)
            expected = np.sqrt(n / m) * f_h @ m_f @ dft @ d
            x = generate_dft_s_ofdm(d, grid)
            np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_round_trip(self, rng):
        grid = OfdmGrid(n_subcarriers=256, dft_size=240, offset=8)
        d = qpsk_symbols(240, rng)
        x = generate_dft_s_ofdm(d, grid)
        # receiver: DFT, pick the mapped band, despread, undo the loading
        spec = np.fft.fft(x, norm="ortho")
        d_hat = np.fft.ifft(spec[8 : 8 + 240], norm="ortho") / np.sqrt(256 / 240)
        assert np.max(np.abs(d_hat - d)) < 1e-9

    def test_mean_power_preserved(self, rng):
        grid = OfdmGrid(n_subcarriers=256, dft_size=240, offset=0)
        d = qam16_symbols(240, rng)
        x = generate_dft_s_ofdm(d, grid)
        assert abs(np.mean(np.abs(x) ** 2) - np.mean(np.abs(d) ** 2)) < 1e-9

    def test_oversized_block_rejected(self, rng):
        grid = OfdmGrid(n_subcarriers=256, dft_size=240)
        with pytest.raises(ValueError):
            generate_dft_s_ofdm(qpsk_symbols(241, rng), grid)


class TestParseval:
    def test_unitary_energy_both_generators(self, rng):
        grid = OfdmGrid(n_subcarriers=128, dft_size=96, offset=10, n_tx=1)
        d = qpsk_symbols(96, rng)
        for x in (
            generate_cp_ofdm(d, np.ones(1), grid)[:, 0],
            generate_dft_s_ofdm(d, grid),
        ):
            spec = np.fft.fft(x, norm="ortho")
            # unitary transform: total energy identical in both domains
            t_power = np.mean(np.abs(x) ** 2)
            f_power = np.mean(np.abs(spec) ** 2)
            assert abs(t_power - f_power) / f_power < 1e-9
            # loading factor makes the time mean power equal the data power
            assert abs(t_power - 1.0) < 1e-9


class TestPapr:
    def test_constant_envelope_is_zero_db(self):
        x = np.exp(1j * np.linspace(0, 20, 500))
        for pct in (0.5, 0.9, 0.999):
            assert abs(measure_papr(x, pct)) < 1e-12

    def test_two_sample_hand_value(self):
        # inverted-CDF quantile at 0.5 of powers {1, 3} picks 1; mean is 2
        x = np.array([1.0, np.sqrt(3.0)]).astype(complex)
        assert abs(measure_papr(x, 0.5) - 10 * np.log10(0.5)) < 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            measure_papr(np.zeros(16, dtype=complex), 0.9)

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            measure_papr(np.ones(4, dtype=complex), 1.0)

    def test_single_carrier_beats_multicarrier(self, rng):
        # small version of the acceptance run
        cp = papr_ensemble("cp-ofdm", "qpsk", 2000, 0.999, np.random.default_rng(7))
        df = papr_ensemble("dft-s-ofdm", "qpsk", 2000, 0.999, np.random.default_rng(7))
        assert cp - df >= 1.0


class TestCyclicPrefix:
    def test_default_length_and_content(self, rng):
        # an N/8 tail copy in front of the symbol turns a channel of at most
        # N/8 + 1 taps into a circular one: after the prefix is dropped, the
        # spectrum is the channel response times the symbol's spectrum
        grid = OfdmGrid(n_subcarriers=64, dft_size=48)
        x = generate_dft_s_ofdm(qpsk_symbols(48, rng), grid)
        cp_len = x.shape[0] // 8
        y = np.concatenate([x[-cp_len:], x])
        assert y.shape[0] == 64 + 8
        taps = rng.standard_normal(cp_len + 1) + 1j * rng.standard_normal(cp_len + 1)
        received = np.convolve(y, taps)[cp_len : cp_len + 64]
        np.testing.assert_allclose(
            np.fft.fft(received), np.fft.fft(taps, 64) * np.fft.fft(x), atol=1e-12
        )
