"""The chunked PAPR ensemble against its block-by-block oracle, from the
chunk signals up to the ``dpwsim papr`` table, at every number of block
ranges; the raw-word symbol draws against ``Generator.integers``; the block
axis of both generators, the percentile sequence of ``measure_papr``, and its
quantile selection against numpy's."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpwsim import waveform as waveform_module
from dpwsim.cli import PAPR_PERCENTILES, main
from dpwsim.orchestrator import STREAM_PAPR
from dpwsim.waveform import (
    PAPR_CHUNK_BLOCKS,
    OfdmGrid,
    _inverted_cdf_quantile,
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


@pytest.fixture
def ranges(monkeypatch):
    """Sets the usable core count, and so the number of block ranges of an
    ensemble of at least four chunks."""
    def use(cores):
        monkeypatch.setattr(waveform_module, "_usable_cores", lambda: cores)
    return use


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
def test_ensemble_peak_memory_stays_near_its_power_buffer(waveform, ranges):
    # the envelope power is the one ensemble-sized array; the complex signal
    # (twice its size) and its copies must never be held at once, and the
    # block ranges together keep no more blocks in flight than one range
    n_blocks = 8192
    power_bytes = n_blocks * 256 * 8
    for cores in (1, 2, 4):
        ranges(cores)
        tracemalloc.start()
        try:
            papr_ensemble(waveform, "16qam", n_blocks, PAPR_PERCENTILES, _seeded(4003))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * power_bytes, cores


@st.composite
def _sample_and_levels(draw):
    n = draw(st.integers(1, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # integer values: ties across the ranks
        x = rng.integers(0, draw(st.integers(0, 8)), size=n, endpoint=True).astype(float)
    else:
        x = rng.exponential(size=n)
    # a level k/n puts n*q on an integer (n=10, q=0.9), where the rank must
    # not round up
    level = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.integers(
        1, max(n - 1, 1)
    ).map(lambda k: k / n if n > 1 else 0.5)
    if draw(st.booleans()):
        return x, np.asarray(draw(level))
    return x, np.array(draw(st.lists(level, min_size=1, max_size=4)))


def _permuted(n):
    return np.random.default_rng(n).permutation(n).astype(float)


@settings(max_examples=300, deadline=None)
@given(_sample_and_levels())
@example((_permuted(10), np.asarray(0.9)))
@example((_permuted(10), np.array([0.9, 0.5, 0.9])))
@example((_permuted(1000), np.array([0.9, 0.99, 0.999])))
@example((_permuted(1), np.asarray(0.5)))
def test_two_stage_selection_equals_numpy_inverted_cdf(sample):
    # the CLI oracle shares this selection, so only numpy can catch a rank slip
    x, levels = sample
    want = np.quantile(x, levels, method="inverted_cdf")
    got = _inverted_cdf_quantile(x.copy(), levels)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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
    "waveform, modulation, n_blocks",
    [("ofdma", "qpsk", 4), ("cp-ofdm", "bpsk", 4), ("cp-ofdm", "qpsk", 0), ("dft-s-ofdm", "16qam", -3)],
)
def test_bad_ensemble_rejected_before_any_draw(waveform, modulation, n_blocks):
    rng = _seeded(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        next(papr_ensemble_signal(waveform, modulation, n_blocks, rng))
    with pytest.raises(ValueError):
        papr_ensemble(waveform, modulation, n_blocks, 0.9, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("chunk_blocks", [0, -1])
def test_empty_chunks_rejected(chunk_blocks):
    with pytest.raises(ValueError):
        next(papr_ensemble_signal("cp-ofdm", "qpsk", 4, _seeded(1), chunk_blocks=chunk_blocks))


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_other_bit_generators_rejected_before_any_draw(bit_generator):
    # only PCG64's raw words are the halves integers(0, 4) reads, and only
    # its advance steps by single words
    rng, twin = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
    with pytest.raises(TypeError):
        papr_ensemble("cp-ofdm", "qpsk", 600, 0.9, rng)
    with pytest.raises(TypeError):
        next(papr_ensemble_signal("cp-ofdm", "qpsk", 4, rng))
    for draw in (qpsk_symbols, qam16_symbols):
        with pytest.raises(TypeError):
            draw(8, rng)
    # untouched: it goes on as its twin does
    assert rng.integers(0, 4, size=9).tolist() == twin.integers(0, 4, size=9).tolist()


def _reference_rows(ref, shape, rng):
    """The oracle's symbols for ``shape``, one row of ``shape[-1]`` at a time."""
    if len(shape) == 1:
        return ref(shape[0], rng)
    rows = [ref(shape[-1], rng) for _ in range(int(np.prod(shape[:-1])))]
    return np.array(rows, dtype=complex).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(
    draw_ref=st.sampled_from([(qpsk_symbols, reference_qpsk), (qam16_symbols, reference_qam16)]),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.PCG64DXSM]),
    seed=st.integers(0, 2**32 - 1),
    earlier=st.integers(0, 9),
    shape=st.integers(0, 1000).map(lambda n: (n,))
    | st.tuples(st.integers(1, 6), st.integers(0, 120)),
)
@example(draw_ref=(qam16_symbols, reference_qam16), bit_generator=np.random.PCG64, seed=1,
         earlier=1, shape=(999,))
@example(draw_ref=(qpsk_symbols, reference_qpsk), bit_generator=np.random.PCG64, seed=1,
         earlier=3, shape=(1,))
@example(draw_ref=(qpsk_symbols, reference_qpsk), bit_generator=np.random.PCG64DXSM, seed=2,
         earlier=1, shape=(0,))
@example(draw_ref=(qpsk_symbols, reference_qpsk), bit_generator=np.random.PCG64, seed=3,
         earlier=1, shape=(3, 47))
def test_raw_word_draws_equal_integers_draws(draw_ref, bit_generator, seed, earlier, shape):
    # the values and the whole generator state, its buffered half included,
    # after an even or odd number of earlier integers(0, 4) draws
    draw, ref = draw_ref
    rng_ref = np.random.Generator(bit_generator(seed))
    rng = np.random.Generator(bit_generator(seed))
    rng_ref.integers(0, 4, size=earlier)
    rng.integers(0, 4, size=earlier)
    want = _reference_rows(ref, shape, rng_ref)
    got = draw(shape, rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
@pytest.mark.parametrize("waveform", ["cp-ofdm", "dft-s-ofdm"])
def test_ensemble_ranges_match_the_oracle(waveform, modulation, cores, buffered, ranges):
    # 47 draws a block start the ranges on either half of a word, and a
    # generator that holds a buffered half shifts every range by one draw
    ranges(cores)
    n_blocks = 4 * C + 3
    rng_ref, rng = _seeded(4004), _seeded(4004)
    if buffered:
        rng_ref.integers(0, 4, size=3)
        rng.integers(0, 4, size=3)
    kw = dict(n_subcarriers=64, n_data=47)
    sig = reference_ensemble_signal(waveform, modulation, n_blocks, rng_ref, **kw)
    ref = measure_papr(sig, PAPR_PERCENTILES)
    assert papr_ensemble(waveform, modulation, n_blocks, PAPR_PERCENTILES, rng, **kw) == ref
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_ensemble_uses_one_range_per_usable_core_up_to_four(ranges, monkeypatch):
    chunk_sizes = []
    signal = waveform_module.papr_ensemble_signal

    def spy(*args, **kwargs):
        chunk_sizes.append(kwargs["chunk_blocks"])
        return signal(*args, **kwargs)

    monkeypatch.setattr(waveform_module, "papr_ensemble_signal", spy)
    for cores, n_blocks, want in [(8, 4 * C, 4), (3, 4 * C, 3), (8, 2 * C + 1, 3), (8, C, 1)]:
        ranges(cores)
        chunk_sizes.clear()
        papr_ensemble("cp-ofdm", "qpsk", n_blocks, 0.9, _seeded(1), n_subcarriers=64, n_data=8)
        assert chunk_sizes == [C // want] * want


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
