"""The chunked PAPR ensemble against its block-by-block oracle, the block
axis of both generators, and the percentile sequence of ``measure_papr``."""

import numpy as np
import pytest

from dpwsim.waveform import (
    PAPR_CHUNK_BLOCKS,
    OfdmGrid,
    generate_cp_ofdm,
    generate_dft_s_ofdm,
    measure_papr,
    papr_ensemble_signal,
    qam16_symbols,
    qpsk_symbols,
)
from papr_reference import reference_ensemble_signal, reference_qam16, reference_qpsk

C = PAPR_CHUNK_BLOCKS


def _seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _assert_same_ensemble(waveform, modulation, n_blocks, **kw):
    rng_ref, rng = _seeded(4001), _seeded(4001)
    ref = reference_ensemble_signal(waveform, modulation, n_blocks, rng_ref, **kw)
    sig = papr_ensemble_signal(waveform, modulation, n_blocks, rng, **kw)
    assert sig.dtype == ref.dtype and sig.shape == ref.shape
    assert sig.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("n_blocks", [1, C - 1, C, C + 1, 2 * C + 3])
@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("waveform", ["cp-ofdm", "dft-s-ofdm"])
def test_ensemble_matches_block_loop(waveform, modulation, oversample, n_blocks):
    _assert_same_ensemble(waveform, modulation, n_blocks, oversample=oversample)


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("waveform", ["cp-ofdm", "dft-s-ofdm"])
def test_ensemble_matches_block_loop_for_odd_block_length(waveform, modulation):
    # an odd block ends a draw in the middle of a 64-bit generator output
    _assert_same_ensemble(waveform, modulation, C + 1, n_subcarriers=64, n_data=47)


def test_unknown_waveform_rejected():
    with pytest.raises(ValueError):
        papr_ensemble_signal("ofdma", "qpsk", 4, _seeded(1))


@pytest.mark.parametrize(
    "draw, ref", [(qpsk_symbols, reference_qpsk), (qam16_symbols, reference_qam16)]
)
def test_symbol_draws_equal_the_block_loop_draws(draw, ref):
    rng_ref, rng_row, rng = _seeded(3), _seeded(3), _seeded(3)
    rows = np.stack([ref(47, rng_ref) for _ in range(5)])
    assert np.stack([draw(47, rng_row) for _ in range(5)]).tobytes() == rows.tobytes()
    assert draw((5, 47), rng).tobytes() == rows.tobytes()
    assert rng.bit_generator.state == rng_row.bit_generator.state == rng_ref.bit_generator.state


def test_batched_cp_ofdm_equals_row_by_row():
    rng = _seeded(7)
    grid = OfdmGrid(n_subcarriers=64, dft_size=40, offset=5, n_tx=2)
    d = rng.normal(size=(3, 4, 40)) + 1j * rng.normal(size=(3, 4, 40))
    w = np.array([1.0, 1j]) / np.sqrt(2.0)
    out = generate_cp_ofdm(d, w, grid)
    assert out.shape == (3, 4, 64, 2)
    for i in np.ndindex(3, 4):
        assert out[i].tobytes() == generate_cp_ofdm(d[i], w, grid).tobytes()


def test_batched_dft_s_ofdm_equals_row_by_row():
    rng = _seeded(8)
    grid = OfdmGrid(n_subcarriers=64, dft_size=40, offset=5)
    d = rng.normal(size=(5, 33)) + 1j * rng.normal(size=(5, 33))
    out = generate_dft_s_ofdm(d, grid)
    assert out.shape == (5, 64)
    for i in range(5):
        assert out[i].tobytes() == generate_dft_s_ofdm(d[i], grid).tobytes()


def test_percentile_sequence_equals_single_calls():
    sig = papr_ensemble_signal("cp-ofdm", "16qam", 300, _seeded(1000))
    levels = (0.90, 0.99, 0.999)
    together = measure_papr(sig, levels)
    assert together == [measure_papr(sig, p) for p in levels]
    assert all(type(v) is float for v in together)


@pytest.mark.parametrize("levels", [(), (0.5, 1.0), (0.0, 0.5), [[0.5]]])
def test_bad_percentile_sequence_rejected(levels):
    with pytest.raises(ValueError):
        measure_papr(np.exp(1j * np.arange(8.0)), levels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
def test_non_finite_signal_rejected(bad):
    x = np.exp(1j * np.arange(16.0))
    x[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        measure_papr(x, 0.9)
    with pytest.raises(ValueError, match="non-finite"):
        measure_papr(x, (0.9, 0.99))
