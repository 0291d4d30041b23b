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
- :func:`measure_papr` takes one percentile or a sequence of them; a
  sequence shares one power, mean and quantile pass over the signal.
"""

from __future__ import annotations

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
# far below the size of the ensemble signal itself.
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
    return _QAM16_LEVELS[idx[..., 0, :]] + 1j * _QAM16_LEVELS[idx[..., 1, :]]


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
    levels = np.asarray(percentile, dtype=float)
    x = np.asarray(signal, dtype=complex).reshape(-1)
    if x.size == 0:
        raise ValueError("empty signal")
    if levels.size == 0 or levels.ndim > 1:
        raise ValueError(f"need one percentile or a flat sequence of them, got {percentile!r}")
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    power = np.abs(x)
    np.square(power, out=power)
    mean = power.mean()
    # power is non-negative, so a NaN or infinite sample makes the mean
    # non-finite too
    if not np.isfinite(mean):
        raise ValueError("signal has non-finite samples")
    if mean == 0.0:
        raise ValueError("all-zero signal has no defined PAPR")
    # partitions power in place: its mean is taken and the copy would double
    # the memory of the largest array here
    peaks = np.quantile(power, levels, method="inverted_cdf", overwrite_input=True)
    if levels.ndim == 0:
        return float(10.0 * np.log10(peaks / mean))
    return [float(10.0 * np.log10(peak / mean)) for peak in peaks]


def papr_ensemble_signal(
    waveform: str,
    modulation: str,
    n_blocks: int,
    rng: np.random.Generator,
    n_subcarriers: int = 256,
    n_data: int = 240,
    oversample: int = 1,
) -> np.ndarray:
    """Concatenated time signal of ``n_blocks`` independent symbols of one
    waveform, for ensemble PAPR statistics.

    Oversampling is realised by enlarging the IDFT while keeping the
    occupied band fixed, i.e. frequency-domain zero padding. Critical
    sampling (the default) understates the analog envelope somewhat.

    The blocks are drawn and transformed :data:`PAPR_CHUNK_BLOCKS` at a
    time; the symbols, the signal and the final state of ``rng`` equal
    those of drawing and transforming one block after the other.
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
    blocks = np.empty((n_blocks, grid.n_subcarriers), dtype=complex)
    for start in range(0, n_blocks, PAPR_CHUNK_BLOCKS):
        stop = min(start + PAPR_CHUNK_BLOCKS, n_blocks)
        d = draw((stop - start, n_data), rng)
        if waveform == "cp-ofdm":
            blocks[start:stop] = generate_cp_ofdm(d, np.ones(1), grid)[..., 0]
        else:
            blocks[start:stop] = generate_dft_s_ofdm(d, grid)
    return blocks.reshape(-1)


def papr_ensemble(
    waveform: str,
    modulation: str,
    n_blocks: int,
    percentile: float,
    rng: np.random.Generator,
    n_subcarriers: int = 256,
    n_data: int = 240,
    oversample: int = 1,
) -> float:
    """Ensemble PAPR at one percentile; see :func:`papr_ensemble_signal`."""
    sig = papr_ensemble_signal(
        waveform, modulation, n_blocks, rng, n_subcarriers, n_data, oversample
    )
    return measure_papr(sig, percentile)
