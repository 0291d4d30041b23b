"""Baseband generation of the two uplink waveforms and PAPR measurement.

Conventions used throughout:

- Transforms are unitary (``norm="ortho"``). On top of that, generators
  apply a loading factor ``sqrt(N / N_d)`` so that the mean power of the
  time-domain signal equals the mean power of the data block regardless of
  how many subcarriers are occupied. With a full allocation the factor is
  ~1 and the PAPR statistics are unaffected either way (PAPR is scale
  invariant).
- Subcarrier mapping is contiguous, starting at a configurable offset.
- The cyclic prefix, a copy of the symbol's last N/8 samples, adds no
  sample value of its own; it is not generated, and so it is never included
  in PAPR statistics.
- Both generators take data blocks along the last axis: ``d`` of shape
  ``(..., n)`` gives one symbol per leading index, equal sample for sample
  to generating each row on its own.
- :func:`measure_papr` and :func:`papr_ensemble` take one percentile or a
  sequence of them; a sequence shares one power, mean and quantile pass
  over the signal.
- Symbol indices are read from the generator's raw 64-bit words: each
  index is the top two bits of one 32-bit half, low half first, which is
  what ``Generator.integers(0, 4)`` draws (4 divides 2**32, so its bounded
  draw never rejects). The draw takes a PCG64 or PCG64DXSM generator, and
  leaves it in the state ``integers`` would, its buffered half included.
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=complex) / np.sqrt(2.0)
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
# symbol 4*i + q has the in-phase level i and the quadrature level q; set
# part by part, which equals re + 1j*im: 1j*im adds only a real part of +-0
# to a nonzero level
_QAM16 = np.empty(16, dtype=complex)
_QAM16.real = np.repeat(_QAM16_LEVELS, 4)
_QAM16.imag = np.tile(_QAM16_LEVELS, 4)

# Symbols the PAPR ensemble has in flight, over all its block ranges: large
# enough that per-call overhead vanishes, small enough that the chunks'
# temporaries stay a few megabytes.
PAPR_CHUNK_BLOCKS = 256


@dataclass
class OfdmGrid:
    """Dimensions of one OFDM symbol.

    ``n_subcarriers`` is the IDFT size N, ``dft_size`` the spreading DFT
    size M (meaningful for DFT-S-OFDM only), ``offset`` the first occupied
    subcarrier and ``n_tx`` the number of antenna ports.
    """

    n_subcarriers: int
    dft_size: int
    offset: int = 0
    n_tx: int = 1

    def __post_init__(self):
        n, m = self.n_subcarriers, self.dft_size
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"subcarrier count must be a power of two, got {n}")
        if not 1 <= m <= n:
            raise ValueError(f"DFT size {m} outside [1, {n}]")
        if self.offset < 0 or self.offset + m > n:
            raise ValueError("mapped band does not fit inside the grid")
        if self.n_tx < 1:
            raise ValueError("need at least one antenna port")


def _check_bit_generator(rng: np.random.Generator) -> None:
    """Refuse a generator whose raw words are not what ``integers`` reads.

    ``np.random`` is named only here, at call time: numpy loads it on first
    use, and a module-level name would load it with every ``dpwsim`` import."""
    if not isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        raise TypeError(
            f"symbol draws need a PCG64 or PCG64DXSM generator, got "
            f"{type(rng.bit_generator).__name__}"
        )


def _quarter_draws(shape, rng: np.random.Generator) -> np.ndarray:
    """``rng.integers(0, 4, size=shape)`` as uint8, with the same values and
    the same final generator state, buffered half included.

    ``integers(0, 4)`` takes one 32-bit half per draw, the low half of a
    fresh word first and its high half on the next draw, and keeps the top
    two bits. So the draw reads the generator's buffered half, if it holds
    one, then the halves of ``random_raw`` words, and leaves the high half
    of an odd last word buffered, as ``integers`` does.
    """
    _check_bit_generator(rng)
    out = np.empty(shape, dtype=np.uint8)
    flat = out.reshape(-1)
    if flat.size == 0:
        return out
    bitgen = rng.bit_generator
    state = bitgen.state
    head = state["has_uint32"]
    if head:
        flat[0] = state["uinteger"] >> 30
    words = bitgen.random_raw((flat.size - head + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")
    np.right_shift(halves[: flat.size - head], 30, out=flat[head:])
    state = bitgen.state
    state["has_uint32"] = (flat.size - head) % 2
    if words.size:
        state["uinteger"] = int(words[-1] >> 32)
    bitgen.state = state
    return out


def qpsk_symbols(n, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-average-power QPSK symbols; ``n`` may be a shape.

    Equal to ``_QPSK[rng.integers(0, 4, size=n)]`` in values and final
    generator state; ``rng`` must be a PCG64 or PCG64DXSM generator."""
    return np.take(_QPSK, _quarter_draws(n, rng))


def qam16_symbols(n, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-average-power 16-QAM symbols: the real parts, then
    the imaginary parts. ``n`` may be a shape ``(..., m)``; each row of
    ``m`` symbols then takes the draws of one ``qam16_symbols(m, rng)``
    call in turn. ``rng`` must be a PCG64 or PCG64DXSM generator.

    Each part is a level of ``_QAM16_LEVELS`` indexed by one
    ``integers(0, 4)`` draw, and the generator ends as those draws leave
    it."""
    shape = tuple(np.atleast_1d(n))
    idx = _quarter_draws(shape[:-1] + (2,) + shape[-1:], rng)
    symbol = idx[..., 0, :] << 2
    symbol |= idx[..., 1, :]
    return np.take(_QAM16, symbol)


def generate_cp_ofdm(d: np.ndarray, w: np.ndarray, grid: OfdmGrid) -> np.ndarray:
    """CP-OFDM symbol: precode ``d`` with the unit-norm column ``w``, map to
    subcarriers and IDFT.

    ``d`` holds one data block along its last axis, shape ``(..., n)``.
    Returns an ``(..., N, n_tx)`` array, one time-domain port signal per
    column. The summed mean power over ports equals the mean power of the
    block.
    """
    d = np.atleast_1d(np.asarray(d, dtype=complex))
    w = np.asarray(w, dtype=complex).reshape(-1)
    n = d.shape[-1]
    if n < 1:
        raise ValueError("empty data block")
    if n > grid.n_subcarriers - grid.offset:
        raise ValueError(f"{n} symbols do not fit the mapped band")
    if w.size != grid.n_tx:
        raise ValueError(f"precoder length {w.size} != {grid.n_tx} ports")
    load = np.sqrt(grid.n_subcarriers / n)
    out = np.empty(d.shape[:-1] + (grid.n_subcarriers, grid.n_tx), dtype=complex)
    mapped = np.zeros(d.shape[:-1] + (grid.n_subcarriers,), dtype=complex)
    band = mapped[..., grid.offset : grid.offset + n]
    for port in range(grid.n_tx):
        np.multiply(w[port], d, out=band)
        signal = np.fft.ifft(mapped, axis=-1, norm="ortho", out=out[..., port])
        np.multiply(load, signal, out=signal)
    return out


def generate_dft_s_ofdm(d: np.ndarray, grid: OfdmGrid) -> np.ndarray:
    """DFT-S-OFDM symbol: M-point DFT spreading of ``d``, subcarrier mapping,
    then IDFT. ``d`` holds one data block along its last axis, shape
    ``(..., n)``; returns the ``(..., N)`` single-port time signals, each
    with the mean power of its block."""
    d = np.atleast_1d(np.asarray(d, dtype=complex))
    n = d.shape[-1]
    if n < 1:
        raise ValueError("empty data block")
    if n > grid.dft_size:
        raise ValueError(f"{n} symbols exceed the DFT size {grid.dft_size}")
    mapped = np.zeros(d.shape[:-1] + (grid.n_subcarriers,), dtype=complex)
    band = mapped[..., grid.offset : grid.offset + grid.dft_size]
    # n=dft_size zero-pads the block, as the spreading DFT's input
    np.fft.fft(d, n=grid.dft_size, axis=-1, norm="ortho", out=band)
    load = np.sqrt(grid.n_subcarriers / n)
    # ufunc overlap rules make the in-place IDFT read its input as if copied
    np.fft.ifft(mapped, axis=-1, norm="ortho", out=mapped)
    np.multiply(load, mapped, out=mapped)
    return mapped


def _levels(percentile) -> np.ndarray:
    """``percentile`` as an array of levels, each in (0, 1)."""
    levels = np.asarray(percentile, dtype=float)
    if levels.size == 0 or levels.ndim > 1:
        raise ValueError(f"need one percentile or a flat sequence of them, got {percentile!r}")
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    return levels


def _ranks(n: int, levels: np.ndarray) -> np.ndarray:
    """numpy's inverted-CDF indices of ``levels`` in ``n`` sorted samples."""
    return np.maximum(np.ceil(n * levels - 1.0), 0.0).astype(np.intp)


def _order_statistics(x: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The values at the 0-based ``ranks`` of the sorted 1-D ``x``, in the
    shape of ``ranks``; partitions ``x`` in place.

    The values are exact order statistics, selected one rank at a time from
    the lowest: each partition covers only the samples above the rank
    before, which stays in place. A 90 % level leaves a tenth of the array
    for the higher ranks. numpy's one multi-rank partition takes several
    times as long over the same samples.
    """
    done = 0
    for rank in np.unique(ranks).tolist():
        x[done:].partition(rank - done)
        done = rank + 1
    return x[ranks]


def _checked_mean(mean: np.float64) -> np.float64:
    """The mean envelope power, refused when no PAPR follows from it."""
    # power is non-negative, so a NaN or infinite sample makes the mean
    # non-finite too
    if not np.isfinite(mean):
        raise ValueError("signal has non-finite samples")
    if mean == 0.0:
        raise ValueError("all-zero signal has no defined PAPR")
    return mean


def _db(peaks: np.ndarray, mean: np.float64, levels: np.ndarray) -> float | list[float]:
    """The order statistics ``peaks`` over ``mean`` in dB, one float for a
    single level and a list for a sequence."""
    if levels.ndim == 0:
        return float(10.0 * np.log10(peaks / mean))
    return [float(10.0 * np.log10(peak / mean)) for peak in peaks]


def measure_papr(signal: np.ndarray, percentile) -> float | list[float]:
    """Peak-to-average power ratio in dB at the given envelope percentile.

    Returns ``10*log10(Q(|x|^2, percentile) / mean(|x|^2))`` where Q is the
    inverted-CDF sample quantile (smallest sample whose empirical CDF
    reaches the requested level), so the result reads directly as a CCDF
    point: the envelope power exceeds the quantile at most ``1-percentile``
    of the time.

    ``percentile`` is one level, which gives a float, or a sequence of
    levels, which gives a list of floats in the same order from one pass
    over the signal. A signal with a non-finite sample is refused.
    """
    levels = _levels(percentile)
    power = np.abs(np.asarray(signal, dtype=complex).reshape(-1))
    np.square(power, out=power)
    if power.size == 0:
        raise ValueError("empty signal")
    # the mean before the selection, which reorders the power in place (a
    # copy would double the largest array here)
    mean = _checked_mean(power.mean())
    return _db(_order_statistics(power, _ranks(power.size, levels)), mean, levels)


# each modulation's symbol draw, and the integers(0, 4) draws it takes per
# symbol
_SYMBOL_DRAWS = {"qpsk": (qpsk_symbols, 1), "16qam": (qam16_symbols, 2)}


def _ensemble_grid(
    waveforms: tuple[str, ...],
    modulation: str,
    n_blocks: int,
    rng: np.random.Generator,
    n_subcarriers: int,
    n_data: int,
    oversample: int,
) -> OfdmGrid:
    """The grid of an ensemble's symbols, once its arguments are checked:
    a refused ensemble draws nothing and leaves ``rng`` as it was."""
    if not waveforms:
        raise ValueError("need at least one waveform")
    for waveform in waveforms:
        if waveform not in ("cp-ofdm", "dft-s-ofdm"):
            raise ValueError(f"unknown waveform {waveform!r}")
    if modulation not in _SYMBOL_DRAWS:
        raise ValueError(f"unknown modulation {modulation!r}")
    if n_blocks < 1:
        raise ValueError(f"need at least one block, got {n_blocks}")
    _check_bit_generator(rng)
    return OfdmGrid(
        n_subcarriers=n_subcarriers * oversample,
        dft_size=n_data,
        offset=0,
        n_tx=1,
    )


def _symbol_chunks(
    modulation: str, n_blocks: int, rng: np.random.Generator, n_data: int, chunk_blocks: int
) -> Iterator[np.ndarray]:
    """The data blocks of ``n_blocks`` symbols, ``(rows, n_data)`` arrays of
    at most ``chunk_blocks`` rows each, drawn from ``rng`` in turn."""
    draw = _SYMBOL_DRAWS[modulation][0]
    for start in range(0, n_blocks, chunk_blocks):
        yield draw((min(chunk_blocks, n_blocks - start), n_data), rng)


def _signal(waveform: str, d: np.ndarray, grid: OfdmGrid) -> np.ndarray:
    """The ``(rows, N)`` single-port time signals of the data blocks ``d``."""
    if waveform == "cp-ofdm":
        return generate_cp_ofdm(d, np.ones(1), grid)[..., 0]
    return generate_dft_s_ofdm(d, grid)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fan_out(fill, n: int) -> list:
    """``[fill(0), ..., fill(n - 1)]``: ``fill(0)`` runs on this thread and
    each other call on a worker thread of its own. With ``n`` of 1 no thread
    starts; every worker has joined when this returns or raises."""
    if n == 1:
        return [fill(0)]
    from concurrent.futures import ThreadPoolExecutor

    # leaving the block joins every worker, also when a call raises
    with ThreadPoolExecutor(n - 1) as pool:
        others = [pool.submit(fill, i) for i in range(1, n)]
        return [fill(0)] + [done.result() for done in others]


def _generator_at(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A copy of ``rng`` where ``draws`` calls of ``integers(0, 4)`` would
    leave it (``draws`` of at least 1); ``rng`` itself does not move.

    The draws take the buffered half first, if ``rng`` holds one, then one
    word per two draws, so the copy advances by whole words. When they end
    on a word's low half, the copy draws that word and buffers its high
    half, as ``integers`` would."""
    state = rng.bit_generator.state
    words, odd = divmod(draws - state["has_uint32"], 2)
    bitgen = copy.deepcopy(rng.bit_generator)
    bitgen.advance(words)  # also clears the buffered half
    if odd:
        word = bitgen.random_raw()
        state = bitgen.state
        state["has_uint32"] = 1
        state["uinteger"] = int(word >> 32)
        bitgen.state = state
    return np.random.Generator(bitgen)


# numpy sums a contiguous float64 array pairwise: a run of more than
# _PAIRWISE_LEAF samples splits after half its length, rounded down to a
# multiple of 8, and each part is summed the same way; a shorter run is a
# leaf, summed in one loop. The tree depends only on the length, so a node's
# sum is np.add.reduce of its samples, and the sum of the whole is its
# nodes' sums added in tree order.
_PAIRWISE_LEAF = 128

# each chunk keeps its top _TAIL_MARGIN * (1 - q) share of samples as tail
# candidates, q the lowest level asked for
_TAIL_MARGIN = 1.5


class _ChunkPlan:
    """Where chunks of a stream of samples meet numpy's pairwise-sum tree
    over the whole stream, and where they put their tail candidates.

    ``edges`` are the chunks' first samples, increasing from 0, then the
    stream's length. For chunk j, ``nodes[j]`` lists the largest tree nodes
    inside it as ``(slot, lo, hi)``, ``lo:hi`` in the chunk's own indices,
    and ``pieces[j]`` the parts of leaves that a chunk edge cuts as ``(leaf,
    at, lo, hi)``, ``at`` the part's place in its leaf. Each leaf that an
    edge cuts takes a slot too; ``program`` adds the slots' sums in tree
    order. Chunk j keeps ``keep[j]`` candidates, at ``offsets[j]``.
    """

    def __init__(self, edges: list[int], keep_fraction: float):
        self.edges = edges
        self.nodes = [[] for _ in edges[1:]]
        self.pieces = [[] for _ in edges[1:]]
        self.cut_leaves: list[tuple[int, int]] = []  # (slot, size) of each cut leaf
        # post-order: a slot pushes its sum, -1 adds the top two sums
        self.program: list[int] = []
        self.slots = 0
        self._split(0, edges[-1])
        self.keep = [min(n, math.ceil(keep_fraction * n)) for n in np.diff(edges).tolist()]
        self.offsets = list(itertools.accumulate(self.keep, initial=0))

    def _split(self, start: int, stop: int) -> None:
        edges = self.edges
        j = bisect.bisect_right(edges, start) - 1
        slot = self.slots
        if stop <= edges[j + 1]:
            self.nodes[j].append((slot, start - edges[j], stop - edges[j]))
        elif stop - start <= _PAIRWISE_LEAF:
            leaf = len(self.cut_leaves)
            self.cut_leaves.append((slot, stop - start))
            while edges[j] < stop:
                lo, hi = max(start, edges[j]), min(stop, edges[j + 1])
                self.pieces[j].append((leaf, lo - start, lo - edges[j], hi - edges[j]))
                j += 1
        else:
            half = (stop - start) // 2
            half -= half % 8
            self._split(start, start + half)
            self._split(start + half, stop)
            self.program.append(-1)
            return
        self.program.append(slot)
        self.slots += 1

    def total(self, sums: list[float]) -> float:
        """The pairwise sum of the stream, from its slots' sums."""
        stack = []
        for op in self.program:
            if op < 0:
                right = stack.pop()
                stack[-1] += right
            else:
                stack.append(sums[op])
        return stack[0]


class _EnvelopeStream:
    """One waveform's envelope power, reduced chunk by chunk as the chunks
    arrive, in any order, so that no stream-sized array is held.

    - The mean: each chunk sums the pairwise-tree nodes inside it, and
      copies aside the pieces of the leaves its edges cut, which are summed
      once complete. The node sums, added in tree order, give the bits of
      ``mean`` over the joined power.
    - The tail: each chunk keeps its top ``keep`` samples as candidates,
      found by one partition, and its cut, the smallest sample kept. At a
      keep fraction of ``1.5 (1 - q)``, q the lowest level, the candidates
      are 0.15 of the samples at q = 0.9. :meth:`order_statistics` says
      whether they prove the ranks asked for; where they do not, only when
      the chunks' power levels differ widely, :func:`papr_ensemble` draws
      again keeping every sample.
    """

    def __init__(self, plan: _ChunkPlan):
        self.plan = plan
        self.sums = np.empty(plan.slots)
        self.leaves = np.empty((len(plan.cut_leaves), _PAIRWISE_LEAF))
        self.candidates = np.empty(plan.offsets[-1])
        # the largest sample a chunk dropped is at most its cut
        self.cuts = np.full(len(plan.keep), -np.inf)

    def add(self, j: int, power: np.ndarray) -> None:
        """Reduce chunk j, the 1-D power of samples ``edges[j]:edges[j+1]``;
        partitions ``power`` in place."""
        plan = self.plan
        for slot, lo, hi in plan.nodes[j]:
            self.sums[slot] = np.add.reduce(power[lo:hi])
        for leaf, at, lo, hi in plan.pieces[j]:
            self.leaves[leaf, at : at + hi - lo] = power[lo:hi]
        cut = power.size - plan.keep[j]
        if cut:
            power.partition(cut)
            self.cuts[j] = power[cut]
        self.candidates[plan.offsets[j] : plan.offsets[j + 1]] = power[cut:]

    def sum(self) -> float:
        """The stream's sum, equal to ``np.add.reduce`` of the joined power."""
        for leaf, (slot, size) in enumerate(self.plan.cut_leaves):
            self.sums[slot] = np.add.reduce(self.leaves[leaf, :size])
        return self.plan.total(self.sums.tolist())

    def mean(self) -> np.float64:
        """The stream's mean, equal to ``mean`` of the joined power."""
        return np.float64(self.sum() / self.plan.edges[-1])

    def order_statistics(self, ranks: np.ndarray) -> np.ndarray | None:
        """The samples at ``ranks`` of the whole sorted stream, or None when
        a dropped sample might sit at or above the lowest rank.

        Every dropped sample is at most T, the largest cut. If at least n -
        r of the candidates are at least T, r the lowest rank, then no
        dropped sample lies above rank r, and rank r' of the stream is rank
        r' - D of the candidates, D the number dropped. Partitions the
        candidates in place."""
        n = self.plan.edges[-1]
        dropped = n - self.candidates.size
        low = int(ranks.min())
        if dropped and np.count_nonzero(self.candidates >= self.cuts.max()) < n - low:
            return None
        return _order_statistics(self.candidates, ranks - dropped)


def _stream_ensemble(
    waveforms: tuple[str, ...],
    modulation: str,
    n_blocks: int,
    rng: np.random.Generator,
    grid: OfdmGrid,
    keep_fraction: float,
) -> list[_EnvelopeStream]:
    """Draw the ensemble and reduce each waveform's chunks into an
    :class:`_EnvelopeStream` that keeps ``keep_fraction`` of each chunk.

    The blocks split into W contiguous ranges, W the smallest of the usable
    cores, the ensemble's :data:`PAPR_CHUNK_BLOCKS` chunks and 4. Every
    block's symbols sit at a known place in ``rng``'s stream, so each range
    draws from a copy of ``rng`` advanced to its first block (range 0 from
    ``rng`` itself), in chunks of ``PAPR_CHUNK_BLOCKS // W`` blocks: at most
    ``PAPR_CHUNK_BLOCKS`` blocks are in flight. ``rng`` ends where the last
    range's copy does, as a serial draw leaves it."""
    width, n_data = grid.n_subcarriers, grid.dft_size
    chunks = -(-n_blocks // PAPR_CHUNK_BLOCKS)
    # at most 4 ranges, so that a range's chunks keep at least 64 blocks
    n_ranges = min(_usable_cores(), chunks, PAPR_CHUNK_BLOCKS // 64)
    step = PAPR_CHUNK_BLOCKS // n_ranges
    bounds = [n_blocks * i // n_ranges for i in range(n_ranges + 1)]
    starts = [list(range(bounds[i], bounds[i + 1], step)) for i in range(n_ranges)]
    first = list(itertools.accumulate(map(len, starts), initial=0))
    plan = _ChunkPlan([b * width for b in itertools.chain(*starts, [n_blocks])], keep_fraction)
    streams = [_EnvelopeStream(plan) for _ in waveforms]
    draws_per_block = n_data * _SYMBOL_DRAWS[modulation][1]
    rngs = [rng] + [_generator_at(rng, b * draws_per_block) for b in bounds[1:-1]]
    # each range's power buffer, allocated here: the range threads' malloc
    # arenas would keep what they allocate
    power = np.empty((n_ranges, step * width))

    def fill(i: int) -> None:
        j = first[i]
        for d in _symbol_chunks(
            modulation, bounds[i + 1] - bounds[i], rngs[i], n_data, chunk_blocks=step
        ):
            chunk = power[i, : len(d) * width]
            # one waveform's signal at a time, each gone once reduced
            for stream, waveform in zip(streams, waveforms):
                np.abs(_signal(waveform, d, grid).reshape(-1), out=chunk)
                np.square(chunk, out=chunk)
                stream.add(j, chunk)
            j += 1

    _fan_out(fill, n_ranges)
    rng.bit_generator.state = rngs[-1].bit_generator.state
    return streams


def _stream_paprs(streams: list[_EnvelopeStream], levels: np.ndarray) -> list | None:
    """Each stream's PAPR in dB at ``levels``, or None when a stream's
    dropped samples leave its order statistics open."""
    means = [_checked_mean(stream.mean()) for stream in streams]
    ranks = _ranks(streams[0].plan.edges[-1], levels)
    paprs = []
    for stream, mean in zip(streams, means):
        peaks = stream.order_statistics(ranks)
        if peaks is None:
            return None
        paprs.append(_db(peaks, mean, levels))
    return paprs


def papr_ensemble(
    waveform,
    modulation: str,
    n_blocks: int,
    percentile,
    rng: np.random.Generator,
    n_subcarriers: int = 256,
    n_data: int = 240,
    oversample: int = 1,
) -> float | list:
    """PAPR of an ensemble of ``n_blocks`` independent symbols of
    ``n_data`` data symbols each, at one level or a sequence of levels.

    The result equals :func:`measure_papr` of the symbols' signals laid end
    to end, bit for bit, as if each block were drawn and transformed one
    after the other, and ``rng`` ends as that serial draw leaves it.
    Oversampling enlarges the IDFT while the occupied band stays fixed
    (frequency-domain zero padding); critical sampling, the default,
    understates the analog envelope somewhat.

    ``waveform`` is one waveform, or a sequence of them that share one
    symbol draw; a sequence gives a list of results, one per waveform in
    that order, each equal to the single-waveform call from the same
    generator state.

    No ensemble-sized array is held: about ``1.5 (1 - q)`` of the envelope
    power per waveform, q the lowest level, plus a chunk buffer per block
    range. The blocks are filled on up to four threads, one per usable
    core, and the result does not depend on their number. An unknown
    waveform or modulation, fewer than one block or a generator other than
    PCG64 or PCG64DXSM is refused before any draw or thread starts.
    """
    levels = _levels(percentile)
    waveforms = (waveform,) if isinstance(waveform, str) else tuple(waveform)
    grid = _ensemble_grid(waveforms, modulation, n_blocks, rng, n_subcarriers, n_data, oversample)
    args = (waveforms, modulation, n_blocks, rng, grid)
    start = rng.bit_generator.state
    keep = min(1.0, _TAIL_MARGIN * (1.0 - float(levels.min())))
    paprs = _stream_paprs(_stream_ensemble(*args, keep), levels)
    if paprs is None:  # draw again, keeping every sample
        rng.bit_generator.state = start
        paprs = _stream_paprs(_stream_ensemble(*args, 1.0), levels)
    return paprs[0] if isinstance(waveform, str) else paprs
