"""Counter state machine deciding when a terminal flips between CP-OFDM
and DFT-S-OFDM.

Every sounding reception is scored against the threshold ``zeta`` (and
``zeta + xi`` in the single-carrier state). A reception satisfying the
waveform's inequality is a switching occasion and advances the counter
``c``; any other reception clears it, so occasions must be consecutive.
Once ``c`` reaches ``C`` the waveform (and with it the port configuration)
toggles, the counter clears (without that the machine would re-trigger on
the very next reception, defeating its anti-ping-pong purpose), and a
reconfiguration guard suppresses transmission for a configurable number
of slots.

``on_srs`` steps one terminal through one reception. The simulator runs
``on_srs_block``, which takes all terminals through all soundings of a
step at once, each under its own thresholds (so episodes run as lanes of
one step keep theirs), and works once per switch in each window of
soundings rather than once per sounding: a terminal's counter at any
sounding is just the length of its current run of occasions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .link_model import CP_OFDM, DFT_S_OFDM

# soundings per window of on_srs_block
WINDOW_SOUNDINGS = 64


@dataclass
class DpwsConfig:
    zeta_db: float = 0.0
    xi_db: float = 5.0
    # consecutive-occasion count high enough that ordinary fade dips do not
    # trip a switch; at the default sounding rate a run of 6 lows spans
    # several fading coherence times
    counter: int = 6
    guard_slots: int = 19

    def __post_init__(self):
        if self.xi_db < 0:
            raise ValueError("hysteresis must be nonnegative")
        if self.counter < 1:
            raise ValueError("occasion counter must be at least 1")
        if self.guard_slots < 0:
            raise ValueError("guard length must be nonnegative")


@dataclass
class DpwsState:
    waveform: str = CP_OFDM
    c: int = 0
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
    if not is_occasion(state.waveform, gamma_db, cfg):
        return replace(state, c=0), False
    c = state.c + 1
    if c >= cfg.counter:
        target = DFT_S_OFDM if state.waveform == CP_OFDM else CP_OFDM
        return DpwsState(waveform=target, c=0, guard_remaining=cfg.guard_slots), True
    return replace(state, c=c), False


def on_srs_block(
    is_df: np.ndarray,
    c: np.ndarray,
    guard_end: np.ndarray,
    gamma_db: np.ndarray,
    sounding_slots: np.ndarray,
    cfg: DpwsConfig,
    zeta_db: np.ndarray,
    xi_db: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``on_srs`` over a run of soundings for many terminals at once.

    ``gamma_db`` holds the sounding SNR as (sounding, terminal), and
    ``sounding_slots`` the increasing slots of its rows. ``is_df`` marks the
    terminals on DFT-S-OFDM and ``c`` holds their occasion counters. A
    terminal hears the soundings at or after its ``guard_end`` slot; a
    switch at slot s sets ``guard_end`` to s + 1 + ``cfg.guard_slots``.
    ``zeta_db`` and ``xi_db`` hold each terminal's threshold and
    hysteresis, so terminals under different thresholds share one call; a
    terminal's switches depend on its own thresholds alone, and ``cfg``'s
    thresholds are not read.

    The soundings are taken in windows of ``WINDOW_SOUNDINGS`` rows, and a
    window is processed once per switch, not once per sounding: from a
    terminal's first heard sounding, its run of consecutive occasions is
    the distance to the last sounding that broke the run, plus the carried
    ``c`` while none has. The first sounding where the run reaches the
    counter is the switch; the terminal then starts over from the first
    sounding after its new guard, on the other waveform with ``c = 0``.
    ``is_df``, ``c`` and ``guard_end`` carry from one window to the next.
    Each pass runs over every row of its window, so the window, not the
    length of the call, bounds what a switch costs.

    Returns the new (is_df, c, guard_end) and the switches as (sounding
    index, terminal index) arrays, sorted by sounding and then terminal.
    """
    zeta, xi = np.asarray(zeta_db, dtype=float), np.asarray(xi_db, dtype=float)
    if (xi < 0).any():
        raise ValueError("hysteresis must be nonnegative")
    # -inf + inf is NaN, as in float arithmetic: no sounding lies above it
    with np.errstate(invalid="ignore"):
        upper = zeta + xi
    c = np.array(c, dtype=np.int64)
    is_df, guard_end = is_df.copy(), np.array(guard_end, dtype=np.int64)
    sw_snd, sw_ue = [], []
    for w0 in range(0, len(sounding_slots), WINDOW_SOUNDINGS):
        slots = sounding_slots[w0:w0 + WINDOW_SOUNDINGS]
        gamma = gamma_db[w0:w0 + WINDOW_SOUNDINGS]
        below = gamma < zeta
        above = gamma > upper
        n_snd = len(slots)
        rows = np.arange(n_snd)[:, None]
        first = np.searchsorted(slots, guard_end)
        todo = np.flatnonzero(first < n_snd)
        while todo.size:
            k0 = first[todo]
            occasion = np.where(is_df[todo], above[:, todo], below[:, todo])
            heard = rows >= k0
            # the last sounding at or before each row that broke the run: a
            # miss, or a sounding not heard
            broke = np.maximum.accumulate(np.where(occasion & heard, -1, rows), axis=0)
            run = rows - broke + np.where(broke < k0, c[todo], 0)
            hit = heard & (run >= cfg.counter)
            switched = hit.any(axis=0)
            stay = ~switched
            c[todo[stay]] = run[-1, stay]
            todo, k = todo[switched], hit.argmax(axis=0)[switched]
            sw_snd.append(w0 + k)
            sw_ue.append(todo)
            is_df[todo] = ~is_df[todo]
            c[todo] = 0
            guard_end[todo] = slots[k] + 1 + cfg.guard_slots
            first[todo] = np.searchsorted(slots, guard_end[todo])
            todo = todo[first[todo] < n_snd]
    sw_snd = np.concatenate(sw_snd) if sw_snd else np.zeros(0, dtype=np.int64)
    sw_ue = np.concatenate(sw_ue) if sw_ue else np.zeros(0, dtype=np.int64)
    order = np.lexsort((sw_ue, sw_snd))
    return is_df, c, guard_end, sw_snd[order], sw_ue[order]
