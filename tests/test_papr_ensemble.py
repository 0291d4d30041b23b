"""The chunked PAPR ensemble against its block-by-block oracle, from the
chunk signals up to the ``dpwsim papr`` table; the block axis of both
generators, and the percentile sequence of ``measure_papr``."""

import tracemalloc

import numpy as np
import pytest

from dpwsim.cli import PAPR_PERCENTILES, main
from dpwsim.orchestrator import STREAM_PAPR
from dpwsim.waveform import (
    PAPR_CHUNK_BLOCKS,
    OfdmGrid,
    generate_cp_ofdm,
    generate_dft_s_ofdm,
    measure_papr,
    papr_ensemble,
    papr_ensemble_signal,
    qam16_symbols,
    qpsk_symbols,
)
from papr_reference import reference_ensemble_signal, reference_qam16, reference_qpsk

C = PAPR_CHUNK_BLOCKS
ENSEMBLE_SIZES = [1, C - 1, C, C + 1, 2 * C + 3]


def _seeded(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _joined(chunks):
    """The chunk signals laid end to end, as the oracle returns them."""
    chunks = list(chunks)
    assert all(0 < len(chunk) <= C for chunk in chunks)
    return np.concatenate(chunks).reshape(-1)


def _assert_same_ensemble(waveform, modulation, n_blocks, **kw):
    rng_ref, rng = _seeded(4001), _seeded(4001)
    ref = reference_ensemble_signal(waveform, modulation, n_blocks, rng_ref, **kw)
    sig = _joined(papr_ensemble_signal(waveform, modulation, n_blocks, rng, **kw))
    assert sig.dtype == ref.dtype and sig.shape == ref.shape
    assert sig.tobytes() == ref.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("n_blocks", ENSEMBLE_SIZES)
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


@pytest.mark.parametrize("n_blocks", ENSEMBLE_SIZES)
@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("waveform", ["cp-ofdm", "dft-s-ofdm"])
def test_ensemble_papr_matches_oracle(waveform, modulation, oversample, n_blocks):
    rng_ref, rng = _seeded(4002), _seeded(4002)
    sig = reference_ensemble_signal(waveform, modulation, n_blocks, rng_ref, oversample=oversample)
    ref = measure_papr(sig, PAPR_PERCENTILES)
    got = papr_ensemble(waveform, modulation, n_blocks, PAPR_PERCENTILES, rng, oversample=oversample)
    assert got == ref and all(type(v) is float for v in got)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("waveform", ["cp-ofdm", "dft-s-ofdm"])
def test_ensemble_peak_memory_stays_near_its_power_buffer(waveform):
    # the envelope power is the one ensemble-sized array; the complex signal
    # (twice its size) and its copies must never be held at once
    n_blocks = 8192
    power_bytes = n_blocks * 256 * 8
    tracemalloc.start()
    try:
        papr_ensemble(waveform, "16qam", n_blocks, PAPR_PERCENTILES, _seeded(4003))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * power_bytes


def test_cli_table_equals_the_oracle_table(tmp_path):
    # built in process rather than pinned by digest: the log10 bits depend
    # on numpy's CPU dispatch
    out = tmp_path / "papr"
    assert main(["papr", "--seed", "1", "--blocks", "600", "--out", str(out)]) == 0
    lines = ["waveform,modulation,percentile,papr_db"]
    for waveform in ("cp-ofdm", "dft-s-ofdm"):
        for modulation in ("qpsk", "16qam"):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1, STREAM_PAPR])))
            sig = reference_ensemble_signal(waveform, modulation, 600, rng)
            for pct, papr in zip(PAPR_PERCENTILES, measure_papr(sig, PAPR_PERCENTILES)):
                lines.append(f"{waveform},{modulation},{pct * 100.0!r},{papr!r}")
    assert (out / "papr.csv").read_text() == "\n".join(lines) + "\n"


def test_unknown_waveform_rejected():
    with pytest.raises(ValueError):
        next(papr_ensemble_signal("ofdma", "qpsk", 4, _seeded(1)))
    with pytest.raises(ValueError):
        papr_ensemble("ofdma", "qpsk", 4, 0.9, _seeded(1))


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
    sig = _joined(papr_ensemble_signal("cp-ofdm", "16qam", 300, _seeded(1000)))
    levels = (0.90, 0.99, 0.999)
    together = measure_papr(sig, levels)
    assert together == [measure_papr(sig, p) for p in levels]
    assert all(type(v) is float for v in together)
    singles = [papr_ensemble("cp-ofdm", "16qam", 300, p, _seeded(1000)) for p in levels]
    assert papr_ensemble("cp-ofdm", "16qam", 300, levels, _seeded(1000)) == singles == together
    assert all(type(v) is float for v in singles)


@pytest.mark.parametrize("levels", [(), (0.5, 1.0), (0.0, 0.5), [[0.5]]])
def test_bad_percentile_sequence_rejected(levels):
    with pytest.raises(ValueError):
        measure_papr(np.exp(1j * np.arange(8.0)), levels)
    rng = _seeded(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        papr_ensemble("cp-ofdm", "qpsk", 4, levels, rng)
    # refused before any symbol is drawn
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
def test_non_finite_signal_rejected(bad):
    x = np.exp(1j * np.arange(16.0))
    x[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        measure_papr(x, 0.9)
    with pytest.raises(ValueError, match="non-finite"):
        measure_papr(x, (0.9, 0.99))
