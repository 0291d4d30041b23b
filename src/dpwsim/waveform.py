"""Baseband generation of the two uplink waveforms, the Rapp amplifier
model, and PAPR measurement.

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
  to generating each row on its own. The PAPR ensemble uses this to
  transform chunks of :data:`PAPR_CHUNK_BLOCKS` symbols at a time.
- :func:`measure_papr` and :func:`papr_ensemble` take one percentile or a
  sequence of them; a sequence shares one power, mean and quantile pass
  over the signal. The ensemble keeps only the envelope power, 8 bytes a
  sample, and never holds its complex signal.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Rank-1 two-port uplink codebook; columns are unit-norm precoders.
PRECODER_CODEBOOK = np.array(
    [[1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex
).T / np.sqrt(2.0)

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=complex) / np.sqrt(2.0)
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)

# Symbols the PAPR ensemble generates per transform call: large enough that
# per-call overhead vanishes, small enough that the chunk's temporaries stay
# far below the size of the ensemble's envelope power.
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


@dataclass
class RappPa:
    """Memoryless Rapp amplifier: small-signal gain ``v``, limiting output
    amplitude ``a_sat`` and smoothness ``p``. Amplitude distortion only."""

    v: float = 1.0
    a_sat: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.v <= 0 or self.a_sat <= 0 or self.p <= 0:
            raise ValueError("v, a_sat and p must all be positive")


def qpsk_symbols(n, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-average-power QPSK symbols; ``n`` may be a shape."""
    return _QPSK[rng.integers(0, 4, size=n)]


def qam16_symbols(n, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-average-power 16-QAM symbols: the real parts, then
    the imaginary parts. ``n`` may be a shape ``(..., m)``; each row of
    ``m`` symbols then takes the draws of one ``qam16_symbols(m, rng)``
    call in turn."""
    shape = tuple(np.atleast_1d(n))
    idx = rng.integers(0, 4, size=shape[:-1] + (2,) + shape[-1:])
    # equal to re + 1j*im: 1j*im adds only a real part of +-0 to a nonzero
    # level, and the two complex temporaries of that sum are not made
    out = np.empty(shape, dtype=complex)
    out.real = _QAM16_LEVELS[idx[..., 0, :]]
    out.imag = _QAM16_LEVELS[idx[..., 1, :]]
    return out


def _map_subcarriers(values: np.ndarray, grid: OfdmGrid) -> np.ndarray:
    """Place ``values`` contiguously at the grid offset of an all-zero grid,
    along the last axis."""
    x = np.zeros(values.shape[:-1] + (grid.n_subcarriers,), dtype=complex)
    x[..., grid.offset : grid.offset + values.shape[-1]] = values
    return x


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
    for port in range(grid.n_tx):
        mapped = _map_subcarriers(w[port] * d, grid)
        out[..., port] = load * np.fft.ifft(mapped, axis=-1, norm="ortho")
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
    spread_in = np.zeros(d.shape[:-1] + (grid.dft_size,), dtype=complex)
    spread_in[..., :n] = d
    spread = np.fft.fft(spread_in, axis=-1, norm="ortho")
    mapped = _map_subcarriers(spread, grid)
    load = np.sqrt(grid.n_subcarriers / n)
    return load * np.fft.ifft(mapped, axis=-1, norm="ortho")


def rapp_amplify(pa: RappPa, sample) -> np.ndarray | complex:
    """Apply the Rapp AM/AM curve; the phase is passed through unchanged.

    Output amplitude for input amplitude A is
    ``v*A * (1 + |v*A / a_sat|**(2p))**(-1/(2p))``.
    """
    s = np.asarray(sample, dtype=complex)
    amp = np.abs(s)
    drive = pa.v * amp / pa.a_sat
    gain = pa.v * (1.0 + drive ** (2.0 * pa.p)) ** (-1.0 / (2.0 * pa.p))
    out = s * gain
    return complex(out) if np.isscalar(sample) or out.ndim == 0 else out


def _levels(percentile) -> np.ndarray:
    """``percentile`` as an array of levels, each in (0, 1)."""
    levels = np.asarray(percentile, dtype=float)
    if levels.size == 0 or levels.ndim > 1:
        raise ValueError(f"need one percentile or a flat sequence of them, got {percentile!r}")
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    return levels


def _papr_db(power: np.ndarray, levels: np.ndarray) -> float | list[float]:
    """PAPR in dB of the 1-D envelope power ``power`` at ``levels`` (see
    :func:`measure_papr`). Partitions ``power`` in place: its mean is taken
    first, and a copy would double the memory of the largest array here."""
    if power.size == 0:
        raise ValueError("empty signal")
    mean = power.mean()
    # power is non-negative, so a NaN or infinite sample makes the mean
    # non-finite too
    if not np.isfinite(mean):
        raise ValueError("signal has non-finite samples")
    if mean == 0.0:
        raise ValueError("all-zero signal has no defined PAPR")
    peaks = np.quantile(power, levels, method="inverted_cdf", overwrite_input=True)
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
    return _papr_db(power, levels)


def papr_ensemble_signal(
    waveform: str,
    modulation: str,
    n_blocks: int,
    rng: np.random.Generator,
    n_subcarriers: int = 256,
    n_data: int = 240,
    oversample: int = 1,
) -> Iterator[np.ndarray]:
    """Time signals of ``n_blocks`` independent symbols of one waveform, for
    ensemble PAPR statistics, yielded in chunks: ``(rows, N)`` arrays of at
    most :data:`PAPR_CHUNK_BLOCKS` symbols each.

    Oversampling is realised by enlarging the IDFT while keeping the
    occupied band fixed, i.e. frequency-domain zero padding. Critical
    sampling (the default) understates the analog envelope somewhat.

    The chunks, concatenated, and the final state of ``rng`` equal those of
    drawing and transforming one block after the other.
    """
    if waveform not in ("cp-ofdm", "dft-s-ofdm"):
        raise ValueError(f"unknown waveform {waveform!r}")
    grid = OfdmGrid(
        n_subcarriers=n_subcarriers * oversample,
        dft_size=n_data,
        offset=0,
        n_tx=1,
    )
    draw = {"qpsk": qpsk_symbols, "16qam": qam16_symbols}[modulation]
    for start in range(0, n_blocks, PAPR_CHUNK_BLOCKS):
        d = draw((min(PAPR_CHUNK_BLOCKS, n_blocks - start), n_data), rng)
        if waveform == "cp-ofdm":
            yield generate_cp_ofdm(d, np.ones(1), grid)[..., 0]
        else:
            yield generate_dft_s_ofdm(d, grid)


def papr_ensemble(
    waveform: str,
    modulation: str,
    n_blocks: int,
    percentile,
    rng: np.random.Generator,
    n_subcarriers: int = 256,
    n_data: int = 240,
    oversample: int = 1,
) -> float | list[float]:
    """Ensemble PAPR of :func:`papr_ensemble_signal` at one level or a
    sequence of levels, as :func:`measure_papr` gives it.

    Each chunk is reduced to its envelope power as it comes, so only one
    ``(n_blocks, N)`` float buffer is held, never the complex ensemble. The
    result equals ``measure_papr`` of the concatenated chunks bit for bit:
    ``abs`` and ``square`` work element by element, and the mean and the
    quantile run over the same contiguous 1-D array.
    """
    levels = _levels(percentile)
    power = np.empty((n_blocks, n_subcarriers * oversample))
    start = 0
    for chunk in papr_ensemble_signal(
        waveform, modulation, n_blocks, rng, n_subcarriers, n_data, oversample
    ):
        rows = power[start : start + len(chunk)]
        np.abs(chunk, out=rows)
        np.square(rows, out=rows)
        start += len(chunk)
    return _papr_db(power.reshape(-1), levels)
