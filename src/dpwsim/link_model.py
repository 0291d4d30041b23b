"""Per-slot link abstraction: path loss, closed-loop power control with
waveform-dependent power caps, correlated block fading, SNR and the
SNR-to-throughput (AMC) mapping.

All powers are handled in dBm internally; the thermal-noise formula is
stated in dBW and converted once at evaluation. Operations accept numpy
arrays wherever broadcasting makes sense, so the orchestrator evaluates a
whole block of (slot, terminal) pairs in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .waveform import PRECODER_CODEBOOK

CP_OFDM = "cp-ofdm"
DFT_S_OFDM = "dft-s-ofdm"

# Back-off from the terminal's maximum power, per (waveform, modulation).
# The single-carrier waveform tolerates a smaller back-off; the gap is kept
# inside 1.5..2.5 dB for every modulation.
DEFAULT_MPR_DB = {
    (CP_OFDM, "qpsk"): 3.5,
    (CP_OFDM, "16qam"): 4.0,
    (DFT_S_OFDM, "qpsk"): 1.0,
    (DFT_S_OFDM, "16qam"): 1.5,
}

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


@dataclass
class PowerControlConfig:
    """Fractional closed-loop power control with per-waveform power caps."""

    p0_dbm: float = -67.0
    alpha: float = 0.8
    p_max_dbm: float = 23.0
    mpr_db: dict = field(default_factory=lambda: dict(DEFAULT_MPR_DB))

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not np.isfinite(self.p_max_dbm):
            raise ValueError("p_max must be finite")
        mods = {m for (_, m) in self.mpr_db}
        for mod in mods:
            cp = self.mpr_db.get((CP_OFDM, mod))
            df = self.mpr_db.get((DFT_S_OFDM, mod))
            if cp is None or df is None:
                raise ValueError(f"modulation {mod!r} needs an MPR for both waveforms")
            if cp < 0 or df < 0:
                raise ValueError("MPR values must be nonnegative")
            if not 1.5 <= cp - df <= 2.5:
                raise ValueError(
                    f"MPR gap for {mod!r} is {cp - df:.2f} dB, outside [1.5, 2.5]"
                )


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
    pl = 28.0 + 22.0 * np.log10(d) + 20.0 * np.log10(fc_ghz)
    return float(pl) if pl.ndim == 0 else pl


def transmit_power(pc: PowerControlConfig, pl_db, waveform: str, modulation: str = "qpsk"):
    """Decided power ``P0 + alpha*PL`` capped at ``P_max - MPR(waveform, mod)``."""
    cap = pc.p_max_dbm - pc.mpr_db[(waveform, modulation)]
    out = np.minimum(pc.p0_dbm + pc.alpha * np.asarray(pl_db, dtype=float), cap)
    return float(out) if out.ndim == 0 else out


def noise_power_dbm(nc: NoiseConfig) -> float:
    """Thermal noise ``-204 + 10*log10(12*df*N_RB) + NF`` dBW, returned in dBm."""
    n0_dbw = -204.0 + 10.0 * np.log10(12.0 * nc.delta_f_hz * nc.n_rb) + nc.noise_figure_db
    return float(n0_dbw + 30.0)


def draw_fading(shape, rng: np.random.Generator) -> np.ndarray:
    """Fresh CN(0, 1) matrix of the given shape: the real parts are drawn
    first, then the imaginary parts."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def evolve_fading(h: np.ndarray, rho: float, rng: np.random.Generator, n_slots: int) -> np.ndarray:
    """Trajectory of ``n_slots`` Gauss-Markov steps ``h' = rho*h +
    sqrt(1-rho^2)*w`` with w drawn CN(0, 1) per element; preserves unit
    mean element power. Returns an array of shape ``(n_slots,) + h.shape``
    whose last entry is the final state.

    The noise of all slots comes from one draw, laid out so that it equals
    one ``draw_fading(h.shape, rng)`` per slot. ``rho == 1`` freezes the
    state and draws nothing.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if rho == 1.0:
        return np.repeat(h[np.newaxis], n_slots, axis=0)
    z = rng.standard_normal((n_slots, 2) + h.shape)
    out = np.sqrt(1.0 - rho * rho) * ((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    for state in out:  # each slot's noise term becomes its state, in place
        state += rho * h
        h = state
    return out


def select_precoder(h: np.ndarray, codebook: np.ndarray = PRECODER_CODEBOOK):
    """Pick the codebook column maximizing the received power sum
    ``sum_i |(h W)_i|^2``; ties go to the lowest index.

    ``h`` is (n_rx, n_tx) or a batch (..., n_rx, n_tx) with n_tx matching
    the codebook. Returns (index, column) for a single matrix, or an index
    array for a batch.
    """
    h = np.asarray(h)
    if h.ndim < 2 or h.shape[-1] != codebook.shape[0]:
        raise ValueError(
            f"need {codebook.shape[0]}-port fading, got trailing dim {h.shape[-1]}"
        )
    gains = np.sum(np.abs(h @ codebook) ** 2, axis=-2)
    idx = np.argmax(gains, axis=-1)
    if h.ndim == 2:
        return int(idx), codebook[:, int(idx)]
    return idx


def precoded_gain(h: np.ndarray, codebook: np.ndarray = PRECODER_CODEBOOK) -> np.ndarray:
    """Best-codebook received power sum for a batch of (n_rx, n_tx) matrices."""
    gains = np.sum(np.abs(np.asarray(h) @ codebook) ** 2, axis=-2)
    return np.max(gains, axis=-1)


def select_tx_port(h: np.ndarray) -> np.ndarray:
    """Single-port transmission gain: energy of the strongest transmit
    column, ``max_j sum_i |h_ij|^2``. Batch-friendly like precoded_gain."""
    return np.max(np.sum(np.abs(np.asarray(h)) ** 2, axis=-2), axis=-1)


def sounding_gain(h: np.ndarray) -> np.ndarray:
    """Non-precoded channel gain seen on the sounding signal: total energy
    averaged over transmit ports, summed over receive antennas."""
    h = np.asarray(h)
    return np.sum(np.abs(h) ** 2, axis=(-2, -1)) / h.shape[-1]


def compute_snr(p_out_dbm, pl_db, h_eff_gain, n0_dbm):
    """Eq.-style dB budget: ``P_out - PL + 10*log10(gain) - N0``.

    ``h_eff_gain`` is the already-summed effective channel power
    ``sum_i |h_i|^2``; zero gain yields -inf (deep-fade outage).
    """
    gain = np.asarray(h_eff_gain, dtype=float)
    with np.errstate(divide="ignore"):
        gain_db = 10.0 * np.log10(gain)
    snr = (
        np.asarray(p_out_dbm, dtype=float)
        - np.asarray(pl_db, dtype=float)
        + gain_db
        - n0_dbm
    )
    return float(snr) if snr.ndim == 0 else snr


def map_throughput(snr_db, mcs: McsTable, bandwidth_hz: float):
    """AMC lookup: highest entry whose threshold is <= SNR (closed lower
    bound). Returns (throughput bits/s, outage flag); below the lowest
    threshold the terminal is in outage with zero throughput."""
    snr = np.asarray(snr_db, dtype=float)
    idx = np.searchsorted(mcs.thresholds, snr, side="right") - 1
    outage = idx < 0
    eff = mcs.efficiencies[np.clip(idx, 0, len(mcs.efficiencies) - 1)]
    tp = np.where(outage, 0.0, eff * bandwidth_hz)
    if snr.ndim == 0:
        return float(tp), bool(outage)
    return tp, outage
