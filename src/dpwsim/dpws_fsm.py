"""Counter/timer state machine deciding when a terminal flips between
CP-OFDM and DFT-S-OFDM.

Every sounding reception is scored against the threshold ``zeta`` (and
``zeta + xi`` in the single-carrier state). A reception satisfying the
waveform's inequality is a switching occasion and advances the counter
``c``; any other reception resets both counter and timer. Once ``c``
reaches ``C`` the waveform (and with it the port configuration) toggles and
a reconfiguration guard suppresses transmission for a configurable number
of slots. The timer ``t`` advances only when an occasion was counted, and
a window that reaches ``T`` receptions forces a reset.

Two behaviors worth calling out:

- the counter and timer are cleared after a triggered switch; without that
  the machine would re-trigger on the very next reception, defeating its
  anti-ping-pong purpose;
- because any non-occasion already clears both counters, the timer tracks
  the occasion counter exactly and the ``T`` cap can only bind for the
  (rejected) configuration ``T < C``. Keeping the timer this way preserves
  a useful property: raising the threshold never delays the first switch
  out of the multi-port waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .link_model import CP_OFDM, DFT_S_OFDM


@dataclass
class DpwsConfig:
    zeta_db: float = 0.0
    xi_db: float = 5.0
    # consecutive-occasion count high enough that ordinary fade dips do not
    # trip a switch; at the default sounding rate a run of 6 lows spans
    # several fading coherence times
    counter: int = 6
    window_srs: int = 10
    guard_slots: int = 19

    def __post_init__(self):
        if self.xi_db < 0:
            raise ValueError("hysteresis must be nonnegative")
        if self.counter < 1:
            raise ValueError("occasion counter must be at least 1")
        if self.window_srs < self.counter:
            # occasions are consecutive (any miss resets), so a window
            # shorter than the counter could never accumulate a switch
            raise ValueError("window must be at least the occasion counter")
        if self.guard_slots < 0:
            raise ValueError("guard length must be nonnegative")


@dataclass
class DpwsState:
    waveform: str = CP_OFDM
    c: int = 0
    t: int = 0
    guard_remaining: int = 0


def is_occasion(waveform: str, gamma_db: float, cfg: DpwsConfig) -> bool:
    """Strict-inequality occasion predicates; equality never counts."""
    if waveform == CP_OFDM:
        return gamma_db < cfg.zeta_db
    return gamma_db > cfg.zeta_db + cfg.xi_db


def on_srs(state: DpwsState, cfg: DpwsConfig, gamma_db: float) -> tuple[DpwsState, bool]:
    """Process one sounding reception; returns (new state, switched flag).

    Must not be called while the guard is running (receptions during the
    reconfiguration gap are dropped by the caller).
    """
    if state.guard_remaining > 0:
        raise ValueError("sounding processed during the reconfiguration guard")
    if state.t >= cfg.window_srs:
        return replace(state, c=0, t=0), False
    if not is_occasion(state.waveform, gamma_db, cfg):
        return replace(state, c=0, t=0), False
    c = state.c + 1
    if c >= cfg.counter:
        target = DFT_S_OFDM if state.waveform == CP_OFDM else CP_OFDM
        return (
            DpwsState(waveform=target, c=0, t=0, guard_remaining=cfg.guard_slots),
            True,
        )
    return replace(state, c=c, t=state.t + 1), False


def on_srs_array(
    is_df: np.ndarray,
    c: np.ndarray,
    t: np.ndarray,
    gamma_db: np.ndarray,
    heard: np.ndarray,
    cfg: DpwsConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``on_srs`` for many terminals at one sounding, as arrays.

    ``is_df`` marks the terminals on DFT-S-OFDM, ``c`` and ``t`` hold their
    counters and ``gamma_db`` their sounding SNR. Only terminals marked in
    ``heard`` process the reception; the others keep their state. Returns
    the new (is_df, c, t) and the mask of terminals that switched. The
    guard is the caller's: it starts ``cfg.guard_slots`` on a switch.
    """
    occasion = np.where(is_df, gamma_db > cfg.zeta_db + cfg.xi_db, gamma_db < cfg.zeta_db)
    hit = heard & (t < cfg.window_srs) & occasion
    c_next = c + 1
    switched = hit & (c_next >= cfg.counter)
    counting = hit & ~switched
    c = np.where(counting, c_next, np.where(heard, 0, c))
    t = np.where(counting, t + 1, np.where(heard, 0, t))
    return is_df ^ switched, c, t, switched


def on_slot(state: DpwsState) -> DpwsState:
    """Per-slot bookkeeping: count the reconfiguration guard down to zero.
    The caller zeroes the slot's throughput while the guard is running."""
    if state.guard_remaining <= 0:
        return state
    return replace(state, guard_remaining=state.guard_remaining - 1)
