"""The chunked PAPR ensemble against its block-by-block oracle, from the
chunk signals up to the ``dpwsim papr`` table, at every number of block
ranges; the thread fan-out the ranges and the lane groups share; the
raw-word symbol draws against ``Generator.integers``; the block axis of both
generators, the percentile sequence of ``measure_papr``, and its quantile
selection against numpy's."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpwsim import waveform as waveform_module
from dpwsim.cli import PAPR_PERCENTILES, main
from dpwsim.orchestrator import STREAM_PAPR
from dpwsim.waveform import (
    PAPR_CHUNK_BLOCKS,
    OfdmGrid,
    _ChunkPlan,
    _EnvelopeStream,
    _ensemble_grid,
    _fan_out,
    _order_statistics,
    _ranks,
    _signal,
    _symbol_chunks,
    generate_cp_ofdm,
    generate_dft_s_ofdm,
    measure_papr,
    papr_ensemble,
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


def _chunk_signals(waveform, modulation, n_blocks, rng, n_subcarriers=256, n_data=240,
                   oversample=1):
    """The ensemble's signals laid end to end, made chunk by chunk as one
    block range of ``papr_ensemble`` makes them."""
    grid = _ensemble_grid((waveform,), modulation, n_blocks, rng, n_subcarriers, n_data, oversample)
    chunks = [_signal(waveform, d, grid)
              for d in _symbol_chunks(modulation, n_blocks, rng, n_data, chunk_blocks=C)]
    assert all(0 < len(chunk) <= C for chunk in chunks)
    return np.concatenate(chunks).reshape(-1)


def _assert_same_ensemble(waveform, modulation, n_blocks, **kw):
    rng_ref, rng = _seeded(4001), _seeded(4001)
    ref = reference_ensemble_signal(waveform, modulation, n_blocks, rng_ref, **kw)
    sig = _chunk_signals(waveform, modulation, n_blocks, rng, **kw)
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
    # no ensemble-sized array is held: the tail candidates are 0.15 of the
    # envelope power at a lowest level of 0.9, and the block ranges together
    # keep no more blocks in flight than one range
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
        assert peak < 0.5 * power_bytes, cores


def test_table_rss_growth_stays_below_the_old_power_buffer():
    # tracemalloc cannot see what the range threads' malloc arenas keep, so
    # a fresh process measures its resident peak: a 20,000-block table may
    # not grow it by the 41 MB of one ensemble's envelope power. The peak is
    # VmHWM, the ru_maxrss of this process alone: Linux carries the peak of
    # the forking process (here pytest) into ru_maxrss across exec
    status = Path("/proc/self/status")
    if not status.is_file():
        pytest.skip("needs Linux's /proc/self/status")
    script = """
import contextlib, io, tempfile
from pathlib import Path
from dpwsim.cli import main

def peak():
    status = Path("/proc/self/status").read_text().splitlines()
    return int(next(l for l in status if l.startswith("VmHWM:")).split()[1]) * 1024

out = tempfile.mkdtemp()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["papr", "--blocks", "1", "--out", out]) == 0
    before = peak()
    assert main(["papr", "--blocks", "20000", "--out", out]) == 0
print(peak() - before)
"""
    src = str(Path(waveform_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 20_000 * 256 * 8


def _streamed(x, cuts, keep_fraction, order=None):
    """``x`` reduced by an :class:`_EnvelopeStream` in the chunks that
    ``cuts`` mark, fed in ``order`` (chunk indices; in turn by default)."""
    edges = [0, *cuts, x.size]
    stream = _EnvelopeStream(_ChunkPlan(edges, keep_fraction))
    for j in range(len(edges) - 1) if order is None else order:
        stream.add(j, x[edges[j] : edges[j + 1]].copy())
    return stream


@st.composite
def _cut_stream(draw):
    """A length, chunk edges and a seed: edges anywhere, plus a cluster of
    edges closer than 8, which cut one pairwise leaf more than once."""
    n = draw(st.integers(1, 20_000))
    cuts = set()
    if n > 1:
        cuts |= set(draw(st.lists(st.integers(1, n - 1), max_size=12)))
        at = draw(st.integers(1, n - 1))
        for gap in draw(st.lists(st.integers(1, 7), max_size=6)):
            cuts.add(at)
            at += gap
            if at >= n:
                break
    return n, sorted(cuts), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_cut_stream())
@example((1, [], 1))
@example((129, [128], 2))
@example((1000, [100, 101, 300], 3))  # a leaf split twice, one piece a single sample
@example((20_000, list(range(1, 21)), 4))
@example((20_000, [10_000, 10_001, 10_008, 19_999], 5))
def test_streamed_pairwise_sum_equals_numpy(case):
    # numpy's pairwise tree depends only on the length, so the node sums
    # inside each chunk, added in tree order, keep the whole sum's bits;
    # values over twelve decades make any other order round differently
    n, cuts, seed = case
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=n) * 10.0 ** rng.uniform(-6.0, 6.0, size=n)
    order = rng.permutation(len(cuts) + 1).tolist()  # chunks arrive in any order
    stream = _streamed(x, cuts, 1.0, order)
    assert stream.sum() == np.add.reduce(x)
    mean = stream.mean()
    assert type(mean) is np.float64 and mean == x.mean()


@st.composite
def _tail_case(draw):
    n, cuts, seed = draw(_cut_stream())
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # integer values: ties across the ranks and the cuts
        x = rng.integers(0, draw(st.integers(0, 8)), size=n, endpoint=True).astype(float)
    else:
        x = rng.exponential(size=n)
    # a level k/n puts n*q on an integer, where the rank must not round up
    level = st.floats(0.01, 0.999) | st.integers(1, max(n - 1, 1)).map(
        lambda k: k / n if n > 1 else 0.5
    )
    return x, cuts, np.array(draw(st.lists(level, min_size=1, max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_tail_case())
@example((np.full(1000, 3.0), [256, 512, 768], np.array([0.9, 0.99, 0.999])))
@example((np.arange(10.0) % 3, [3, 4], np.array([0.9, 0.5])))
def test_streamed_tail_equals_numpy_inverted_cdf(case):
    # a tail the check accepts is exact; keeping every sample never refuses
    x, cuts, levels = case
    want = np.quantile(x, levels, method="inverted_cdf")
    ranks = _ranks(x.size, levels)
    kept = _streamed(x, cuts, min(1.0, 1.5 * (1.0 - levels.min()))).order_statistics(ranks)
    if kept is not None:
        assert kept.tobytes() == want.tobytes()
    assert _streamed(x, cuts, 1.0).order_statistics(ranks).tobytes() == want.tobytes()


def test_streamed_tail_refuses_a_chunk_that_hides_the_tail():
    # the last tenth of the samples holds the whole upper tail, and keeps
    # only 15 % of itself, below its cut: the dropped samples could sit
    # above the 90 % rank, so the check refuses
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.uniform(0.0, 1.0, 900), rng.uniform(10.0, 11.0, 100)])
    ranks = _ranks(x.size, np.array([0.9, 0.99]))
    assert _streamed(x, [900], 0.15).order_statistics(ranks) is None
    want = np.quantile(x, [0.9, 0.99], method="inverted_cdf")
    assert _streamed(x, [900], 1.0).order_statistics(ranks).tobytes() == want.tobytes()
    # the same samples shuffled spread the tail over both chunks
    x = rng.permutation(x)
    assert _streamed(x, [500], 0.15).order_statistics(ranks).tobytes() == want.tobytes()
    # the bound is tight: two chunks keep 2 of 10 each, and the 90 % rank of
    # 20 is the third largest, 98, which the second chunk dropped; only two
    # candidates reach its cut of 99, one short of the three needed
    x = np.concatenate([np.arange(10.0), np.arange(91.0, 101.0)])
    ranks = _ranks(x.size, np.array(0.9))
    assert _streamed(x, [10], 0.15).order_statistics(ranks) is None
    assert _streamed(x, [10], 1.0).order_statistics(ranks) == 98.0


def _spy_keep_fractions(monkeypatch):
    """Records the keep fraction of every pass over an ensemble."""
    fractions = []
    stream = waveform_module._stream_ensemble

    def spy(*args):
        fractions.append(args[-1])
        return stream(*args)

    monkeypatch.setattr(waveform_module, "_stream_ensemble", spy)
    return fractions


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_keep_all_fallback_keeps_the_result(cores, ranges, monkeypatch):
    # one candidate per chunk cannot hold a tenth of the samples, so the
    # ensemble is drawn again from the starting state, keeping every sample
    ranges(cores)
    fractions = _spy_keep_fractions(monkeypatch)
    monkeypatch.setattr(waveform_module, "_TAIL_MARGIN", 1e-9)
    n_blocks, kw = 2 * C + 5, dict(n_subcarriers=64, n_data=47)
    refs = [_seeded(4006) for _ in range(2)]
    rng = _seeded(4006)
    for r in (*refs, rng):
        r.integers(0, 4, size=1)  # start on a buffered half
    want = [
        measure_papr(reference_ensemble_signal(wf, "16qam", n_blocks, ref, **kw), PAPR_PERCENTILES)
        for wf, ref in zip(("cp-ofdm", "dft-s-ofdm"), refs)
    ]
    got = papr_ensemble(("cp-ofdm", "dft-s-ofdm"), "16qam", n_blocks, PAPR_PERCENTILES, rng, **kw)
    assert got == want
    assert len(fractions) == 2 and fractions[0] < 1e-9 and fractions[1] == 1.0
    assert rng.bit_generator.state == refs[0].bit_generator.state == refs[1].bit_generator.state


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_cli_size_ensembles_keep_only_their_tail(cores, ranges, monkeypatch, tmp_path):
    # the check accepts the table's ensembles: one pass per modulation, at
    # 0.15 of the samples
    ranges(cores)
    fractions = _spy_keep_fractions(monkeypatch)
    assert main(["papr", "--seed", "3", "--blocks", "1100", "--out", str(tmp_path)]) == 0
    assert fractions == [pytest.approx(0.15)] * 2


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_shared_draw_equals_single_calls(modulation, cores, buffered, ranges):
    # both waveforms from one symbol draw: each result and the generator's
    # end state are those of a call of its own from the same start
    ranges(cores)
    n_blocks, kw = 4 * C + 3, dict(n_subcarriers=64, n_data=47)
    rng, *singles = (_seeded(4005) for _ in range(3))
    if buffered:
        for r in (rng, *singles):
            r.integers(0, 4, size=3)
    waveforms = ("cp-ofdm", "dft-s-ofdm")
    want = [papr_ensemble(wf, modulation, n_blocks, PAPR_PERCENTILES, r, **kw)
            for wf, r in zip(waveforms, singles)]
    assert papr_ensemble(waveforms, modulation, n_blocks, PAPR_PERCENTILES, rng, **kw) == want
    assert rng.bit_generator.state == singles[0].bit_generator.state
    assert rng.bit_generator.state == singles[1].bit_generator.state
    # a one-waveform sequence gives a one-result list
    assert papr_ensemble(["dft-s-ofdm"], modulation, 10, 0.9, _seeded(1), **kw) == [
        papr_ensemble("dft-s-ofdm", modulation, 10, 0.9, _seeded(1), **kw)
    ]


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
    got = _order_statistics(x.copy(), _ranks(x.size, levels))
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
        papr_ensemble("ofdma", "qpsk", 4, 0.9, _seeded(1))


@pytest.mark.parametrize(
    "waveform, modulation, n_blocks",
    [("ofdma", "qpsk", 4), ("cp-ofdm", "bpsk", 4), ("cp-ofdm", "qpsk", 0), ("dft-s-ofdm", "16qam", -3),
     # a sequence of waveforms: empty, one unknown, or an unknown modulation
     ((), "qpsk", 4), (("cp-ofdm", "ofdma"), "qpsk", 4), (("cp-ofdm", "dft-s-ofdm"), "bpsk", 4)],
)
def test_bad_ensemble_rejected_before_any_draw(waveform, modulation, n_blocks):
    rng = _seeded(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        papr_ensemble(waveform, modulation, n_blocks, 0.9, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_other_bit_generators_rejected_before_any_draw(bit_generator):
    # only PCG64's raw words are the halves integers(0, 4) reads, and only
    # its advance steps by single words
    rng, twin = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
    with pytest.raises(TypeError):
        papr_ensemble("cp-ofdm", "qpsk", 600, 0.9, rng)
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
    chunks = waveform_module._symbol_chunks

    def spy(*args, **kwargs):
        chunk_sizes.append(kwargs["chunk_blocks"])
        return chunks(*args, **kwargs)

    monkeypatch.setattr(waveform_module, "_symbol_chunks", spy)
    for cores, n_blocks, want in [(8, 4 * C, 4), (3, 4 * C, 3), (8, 2 * C + 1, 3), (8, C, 1)]:
        ranges(cores)
        chunk_sizes.clear()
        papr_ensemble("cp-ofdm", "qpsk", n_blocks, 0.9, _seeded(1), n_subcarriers=64, n_data=8)
        assert chunk_sizes == [C // want] * want


def test_a_failing_range_joins_every_thread(ranges, monkeypatch):
    # a chunk that fails on a worker thread ends the ensemble with its
    # error, once the other three ranges' threads have joined
    ranges(4)
    here, signal = threading.get_ident(), waveform_module._signal

    def failing(*args):
        if threading.get_ident() != here:
            raise FloatingPointError("chunk failed")
        return signal(*args)

    monkeypatch.setattr(waveform_module, "_signal", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk failed"):
        papr_ensemble("cp-ofdm", "qpsk", 4 * C, 0.9, _seeded(1), n_subcarriers=64, n_data=8)
    assert threading.active_count() == before


def test_fan_out_returns_the_parts_in_index_order():
    # later parts finish first, and each but the first runs on a worker
    def fill(i):
        time.sleep(0.02 * (4 - i))
        return i, threading.get_ident()

    parts = _fan_out(fill, 4)
    assert [i for i, _ in parts] == [0, 1, 2, 3]
    here = threading.get_ident()
    assert parts[0][1] == here and all(ident != here for _, ident in parts[1:])


def test_fan_out_raises_only_once_every_worker_has_joined():
    failed, finished = threading.Event(), []

    def fill(i):
        if i == 1:
            failed.set()
            raise FloatingPointError("part 1 failed")
        if i == 2:  # still running when part 1 fails
            assert failed.wait(10)
            time.sleep(0.05)
            finished.append(i)
        return i

    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="part 1 failed"):
        _fan_out(fill, 3)
    assert finished == [2]
    assert threading.active_count() == before


def test_fan_out_of_one_part_starts_no_thread(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    assert _fan_out(lambda i: (i, threading.get_ident()), 1) == [(0, threading.get_ident())]
    assert threading.active_count() == before


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
    sig = _chunk_signals("cp-ofdm", "16qam", 300, _seeded(1000))
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
