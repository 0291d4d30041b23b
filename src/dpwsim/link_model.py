"""Per-slot link abstraction: path loss, closed-loop power control with
waveform-dependent power caps, correlated block fading, SNR and the
SNR-to-throughput (AMC) mapping.

All powers are handled in dBm internally; the thermal-noise formula is
stated in dBW and converted once at evaluation. Operations accept numpy
arrays wherever broadcasting makes sense, so the orchestrator evaluates a
whole step of (slot, terminal) pairs in one call. The gains work on
(slot, terminal) slabs ``h[..., i, j]`` of the channel, and the AMC mapping
counts the thresholds at or below each SNR into a small integer index of a
rate table; both avoid passes over short trailing axes and sorted searches,
which cost more per element than the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CP_OFDM = "cp-ofdm"
DFT_S_OFDM = "dft-s-ofdm"

# CQI-style ladder: (SNR threshold dB at the 10% BLER operating point,
# spectral efficiency bits/s/Hz). Entry k applies from its threshold up to
# the next one; below the first threshold the terminal is in outage.
DEFAULT_MCS_TABLE = (
    (-6.0, 0.1523),
    (-4.16, 0.2344),
    (-2.31, 0.3770),
    (-0.47, 0.6016),
    (1.37, 0.8770),
    (3.21, 1.1758),
    (5.06, 1.4766),
    (6.9, 1.9141),
    (8.74, 2.4063),
    (10.59, 2.7305),
    (12.43, 3.3223),
    (14.27, 3.9023),
    (16.11, 4.5234),
    (17.96, 5.1152),
    (19.8, 5.5547),
)

# Rank-1 two-port uplink codebook; columns are unit-norm precoders.
PRECODER_CODEBOOK = np.array(
    [[1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex
).T / np.sqrt(2.0)


@dataclass
class PowerControlConfig:
    """Fractional closed-loop power control with per-waveform power caps:
    ``p_max_dbm`` less the waveform's back-off (MPR). The single-carrier
    waveform's lower PAPR lets it back off less, by 1.5..2.5 dB."""

    p0_dbm: float = -67.0
    alpha: float = 0.8
    p_max_dbm: float = 23.0
    cp_mpr_db: float = 3.5
    dfts_mpr_db: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not np.isfinite(self.p_max_dbm):
            raise ValueError("p_max must be finite")
        for name in ("cp_mpr_db", "dfts_mpr_db"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")
        gap = self.cp_mpr_db - self.dfts_mpr_db
        if not 1.5 <= gap <= 2.5:
            raise ValueError(f"cp_mpr_db - dfts_mpr_db is {gap:.2f} dB, outside [1.5, 2.5]")


@dataclass
class NoiseConfig:
    """Thermal noise in the allocated band."""

    delta_f_hz: float = 15e3
    n_rb: int = 20
    noise_figure_db: float = 5.0

    def __post_init__(self):
        if self.delta_f_hz <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.n_rb < 1:
            raise ValueError("need at least one resource block")

    @property
    def bandwidth_hz(self) -> float:
        return 12.0 * self.delta_f_hz * self.n_rb


@dataclass
class McsTable:
    """Ordered (snr_threshold_db, spectral_efficiency) entries."""

    entries: tuple = DEFAULT_MCS_TABLE

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("empty MCS table")
        thr = [t for t, _ in self.entries]
        eff = [e for _, e in self.entries]
        if any(b <= a for a, b in zip(thr, thr[1:])):
            raise ValueError("MCS thresholds must be strictly increasing")
        if any(b <= a for a, b in zip(eff, eff[1:])):
            raise ValueError("MCS efficiencies must be strictly increasing")
        self._thresholds = np.array(thr)
        self._efficiencies = np.array(eff)

    @property
    def thresholds(self) -> np.ndarray:
        return self._thresholds

    @property
    def efficiencies(self) -> np.ndarray:
        return self._efficiencies


def path_loss_uma(distance_m, fc_ghz: float = 28.0):
    """Urban-macro line-of-sight path loss in dB.

    ``PL = 28.0 + 22*log10(d) + 20*log10(f_GHz)``; monotone in distance,
    intended for 10 m..10 km geometry.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    return 28.0 + 22.0 * np.log10(d) + 20.0 * np.log10(fc_ghz)


def transmit_power(pc: PowerControlConfig, pl_db, waveform: str):
    """Decided power ``P0 + alpha*PL`` capped at ``P_max - MPR(waveform)``."""
    if waveform not in (CP_OFDM, DFT_S_OFDM):
        raise ValueError(f"unknown waveform {waveform!r}")
    mpr = pc.cp_mpr_db if waveform == CP_OFDM else pc.dfts_mpr_db
    cap = pc.p_max_dbm - mpr
    return np.minimum(pc.p0_dbm + pc.alpha * np.asarray(pl_db, dtype=float), cap)


def noise_power_dbm(nc: NoiseConfig) -> float:
    """Thermal noise ``-204 + 10*log10(12*df*N_RB) + NF`` dBW, returned in dBm."""
    n0_dbw = -204.0 + 10.0 * np.log10(12.0 * nc.delta_f_hz * nc.n_rb) + nc.noise_figure_db
    return float(n0_dbw + 30.0)


def draw_fading(shape, rng: np.random.Generator) -> np.ndarray:
    """Fresh CN(0, 1) matrix of the given shape: the real parts are drawn
    first, then the imaginary parts."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def evolve_fading(
    h: np.ndarray,
    rho: float,
    rngs,
    n_slots: int,
    *,
    out: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Trajectory of ``n_slots`` Gauss-Markov steps ``h' = rho*h +
    sqrt(1-rho^2)*w`` with w drawn CN(0, 1) per element; preserves unit
    mean element power. Fills and returns ``out``, whose last entry is the
    final state.

    ``rngs`` holds one generator per lane: the first axis of ``h`` holds
    the L = ``len(rngs)`` equal lanes back to back, and lane l's noise comes
    from ``rngs[l]`` alone, exactly as if its lane were evolved by itself.
    Each lane's noise of all slots comes from one draw, laid out so that it
    equals one ``draw_fading(lane_shape, rngs[l])`` per slot; the draws are
    interleaved into the trajectory and scaled in place on its real and
    imaginary parts, and the recurrence then runs once for all lanes.
    ``rho == 1`` freezes the state and draws nothing.

    ``out`` (complex, ``(n_slots,) + h.shape``) and ``noise`` (float64,
    ``(L, n_slots, 2, len(h) // L) + h.shape[1:]``) are C-contiguous
    buffers that receive the trajectory and the draws: a caller that steps
    the same shape again and again keeps them, and pays no fresh pages per
    call. ``rng.standard_normal(out=)`` draws the same values and leaves
    the same generator state as an allocating draw. ``h`` must not share
    memory with ``out``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    shape = (n_slots,) + h.shape
    if out.shape != shape or out.dtype != complex or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous complex array of shape {shape}")
    if rho == 1.0:
        out[...] = h
        return out
    lanes = len(rngs)
    if lanes == 0 or len(h) % lanes:
        raise ValueError(f"{lanes} lanes do not split a state of shape {h.shape}")
    lane_shape = (n_slots, 2, len(h) // lanes) + h.shape[1:]
    if noise.shape != (lanes,) + lane_shape:
        raise ValueError(f"noise must have shape {(lanes,) + lane_shape}, got {noise.shape}")
    # standard_normal checks the buffer's dtype (float64) and contiguity
    for lane_rng, draw in zip(rngs, noise):
        lane_rng.standard_normal(out=draw)
    # lane l's draw of slot s fills the trajectory's terminals of lane l
    lanes_out = out.reshape((n_slots, lanes) + lane_shape[2:])
    lanes_out.real, lanes_out.imag = noise[:, :, 0].swapaxes(0, 1), noise[:, :, 1].swapaxes(0, 1)
    # sqrt(1-rho^2) * (z_re + 1j*z_im) / sqrt(2) on the real and imaginary
    # parts, rounded as numpy's complex arithmetic rounds it: dividing by a
    # real scales each part by 1/sqrt(2), then each part is scaled
    parts = out.view(np.float64)
    parts *= 1.0 / np.sqrt(2.0)
    parts *= np.sqrt(1.0 - rho * rho)
    # each slot's noise term becomes its state, in place, on the float64
    # parts: rho*h on the parts differs from numpy's complex product at most
    # in the sign of a zero part, which adding a nonzero noise part erases
    rho = np.float64(rho)
    prev = np.ascontiguousarray(h, dtype=complex).reshape(-1).view(np.float64)
    tmp = np.empty_like(prev)
    for state in out.reshape(n_slots, h.size).view(np.float64):
        np.multiply(prev, rho, out=tmp)
        np.add(state, tmp, out=state)
        prev = state
    return out


@dataclass
class GainScratch:
    """Scratch of the gain passes over (slot, terminal) slabs of one shape:
    the complex codeword sum ``y`` and product ``t``, the float ``gain`` of
    one codeword or port and, with more than one receive antenna, the float
    ``power`` of one antenna. A caller that computes gains of one shape
    again and again keeps one, and the passes allocate nothing."""

    y: np.ndarray
    t: np.ndarray
    gain: np.ndarray
    power: np.ndarray | None

    @classmethod
    def empty(cls, shape, n_rx: int) -> "GainScratch":
        return cls(np.empty(shape, dtype=complex), np.empty(shape, dtype=complex),
                   np.empty(shape), np.empty(shape) if n_rx > 1 else None)


def precoded_gain(
    h: np.ndarray,
    codebook: np.ndarray = PRECODER_CODEBOOK,
    *,
    out: np.ndarray | None = None,
    scratch: GainScratch | None = None,
) -> np.ndarray:
    """Best-codebook received power sum for a batch of (n_rx, n_tx) matrices:
    ``max_k sum_i |sum_j h_ij * w_jk|^2`` over the codebook columns w_k.

    Computed on slabs: each ``h[..., i, j]`` is an array over the batch, and
    the work is a handful of elementwise passes, one per codeword, receive
    antenna and port. The receive antennas are summed in order, the
    codewords compared by a running maximum. ``out`` (float, the batch
    shape) receives the gains and ``scratch`` holds the passes' arrays; each
    is allocated when not given.
    """
    h = np.asarray(h)
    n_rx, n_tx = h.shape[-2:]
    if n_tx != codebook.shape[0]:
        raise ValueError(f"{n_tx} transmit ports, but the codebook has {codebook.shape[0]} rows")
    scratch = GainScratch.empty(h.shape[:-2], n_rx) if scratch is None else scratch
    best = np.empty(h.shape[:-2]) if out is None else out
    y, t = scratch.y, scratch.t
    for k in range(codebook.shape[1]):
        gain = best if k == 0 else scratch.gain
        for i in range(n_rx):
            np.multiply(h[..., i, 0], codebook[0, k], out=y)
            for j in range(1, n_tx):
                y += np.multiply(h[..., i, j], codebook[j, k], out=t)
            power = gain if i == 0 else scratch.power
            np.square(np.abs(y, out=power), out=power)
            if i > 0:
                gain += power
        if k > 0:
            np.maximum(best, gain, out=best)
    return best if out is not None or best.ndim else best[()]


def select_tx_port(
    h: np.ndarray, *, out: np.ndarray | None = None, scratch: GainScratch | None = None
) -> np.ndarray:
    """Single-port transmission gain: energy of the strongest transmit
    column, ``max_j sum_i |h_ij|^2``. Batch-friendly like precoded_gain,
    and computed on slabs the same way, into ``out`` with the float arrays
    of ``scratch``."""
    h = np.asarray(h)
    n_rx, n_tx = h.shape[-2:]
    scratch = GainScratch.empty(h.shape[:-2], n_rx) if scratch is None else scratch
    best = np.empty(h.shape[:-2]) if out is None else out
    for j in range(n_tx):
        gain = best if j == 0 else scratch.gain
        np.square(np.abs(h[..., 0, j], out=gain), out=gain)
        for i in range(1, n_rx):
            gain += np.square(np.abs(h[..., i, j], out=scratch.power), out=scratch.power)
        if j > 0:
            np.maximum(best, gain, out=best)
    return best if out is not None or best.ndim else best[()]


def sounding_gain(
    h: np.ndarray, *, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Non-precoded channel gain seen on the sounding signal: total energy
    averaged over transmit ports, summed over receive antennas. ``out``
    (the batch shape) receives it, and ``scratch`` (float, the shape of
    ``h``) the energies; each is allocated when not given."""
    h = np.asarray(h)
    power = np.square(np.abs(h, out=scratch), out=scratch)
    return np.divide(np.sum(power, axis=(-2, -1), out=out), h.shape[-1], out=out)


def compute_snr(p_out_dbm, pl_db, h_eff_gain, n0_dbm, *, out: np.ndarray | None = None):
    """Eq.-style dB budget: ``P_out - PL + 10*log10(gain) - N0``.

    ``h_eff_gain`` is the already-summed effective channel power
    ``sum_i |h_i|^2``; zero gain yields -inf (deep-fade outage). ``out``,
    when given, receives the budget and may be ``h_eff_gain`` itself.
    """
    gain = np.asarray(h_eff_gain, dtype=float)
    with np.errstate(divide="ignore"):
        snr = np.log10(gain, out=out)
    snr = np.multiply(10.0, snr, out=out)
    p_minus_pl = np.asarray(p_out_dbm, dtype=float) - np.asarray(pl_db, dtype=float)
    return np.subtract(np.add(p_minus_pl, snr, out=out), n0_dbm, out=out)


def map_throughput(
    snr_db,
    mcs: McsTable,
    bandwidth_hz: float,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    index: tuple[np.ndarray, np.ndarray] | None = None,
):
    """AMC lookup: highest entry whose threshold is <= SNR (closed lower
    bound). Returns (throughput bits/s, outage flag); below the lowest
    threshold, and for a NaN SNR, the terminal is in outage with zero
    throughput.

    The number of thresholds at or below each SNR, counted in a small
    unsigned integer (uint8 for the default table) over one comparison
    pass per threshold, indexes a table whose entry 0 is the outage
    throughput and entry k the k-th rate. A NaN compares false against
    every threshold, so it counts 0. Scalars give numpy scalars.

    ``out``, a (float, bool) pair of the SNR's shape, receives the result;
    its float array may be ``snr_db`` itself. ``index``, an (unsigned,
    intp) pair of that shape, receives the counts and the copy of them
    that indexes the table; the outage array holds each pass's comparison
    until the counts are done. Each is allocated when not given."""
    snr = np.asarray(snr_db, dtype=float)
    thresholds = mcs.thresholds
    if index is None:
        index = (np.empty(snr.shape, dtype=np.min_scalar_type(len(thresholds))),
                 np.empty(snr.shape, dtype=np.intp))
    counts, table_index = index
    tp, outage = (np.empty(snr.shape), np.empty(snr.shape, dtype=bool)) if out is None else out
    counts.fill(0)
    for t in thresholds:
        counts += np.greater_equal(snr, t, out=outage)
    np.copyto(table_index, counts)
    table = np.concatenate(([0.0], mcs.efficiencies * bandwidth_hz))
    # take converts any other index to intp in a temporary; mode="clip"
    # writes straight into tp, as the counts never leave the table
    np.take(table, table_index, out=tp, mode="clip")
    np.equal(counts, 0, out=outage)
    if out is None and not tp.ndim:
        return tp[()], outage[()]
    return tp, outage
