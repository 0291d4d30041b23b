import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwsim.dpws_fsm import (
    WINDOW_SOUNDINGS,
    DpwsConfig,
    DpwsState,
    is_occasion,
    on_srs,
    on_srs_block,
)
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM

from dpws_reference import reference_run


def drive(initial_waveform, gammas, cfg):
    """Run the FSM over a gamma trace; returns switch events like the
    reference interpreter (guard disabled so every reception is processed)."""
    state = DpwsState(waveform=initial_waveform)
    switches = []
    for k, gamma in enumerate(gammas):
        state = DpwsState(state.waveform, state.c, 0)
        state, switched = on_srs(state, cfg, gamma)
        if switched:
            switches.append((k, state.waveform))
    return switches


class TestHandTraces:
    def test_three_lows_trigger_switch(self):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=3, guard_slots=0)
        switches = drive(CP_OFDM, [-1.0, -1.0, -1.0], cfg)
        assert switches == [(2, DFT_S_OFDM)]

    def test_hysteresis_dead_zone(self):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=3)
        state = DpwsState(waveform=DFT_S_OFDM)
        for _ in range(50):
            state, switched = on_srs(state, cfg, 3.0)  # zeta < gamma < zeta + xi
            assert not switched
            assert state.c == 0

    def test_equality_is_not_an_occasion(self):
        cfg = DpwsConfig(zeta_db=1.0, xi_db=2.0, counter=1)
        assert not is_occasion(CP_OFDM, 1.0, cfg)
        assert not is_occasion(DFT_S_OFDM, 3.0, cfg)
        assert is_occasion(CP_OFDM, 0.999, cfg)
        assert is_occasion(DFT_S_OFDM, 3.001, cfg)

    def test_switch_sets_guard_and_resets(self):
        cfg = DpwsConfig(zeta_db=0.0, counter=2, guard_slots=19)
        state = DpwsState(waveform=CP_OFDM)
        state, _ = on_srs(state, cfg, -5.0)
        state, switched = on_srs(state, cfg, -5.0)
        assert switched
        assert state.waveform == DFT_S_OFDM
        assert state.guard_remaining == 19
        assert state.c == 0

    def test_srs_during_guard_rejected(self):
        cfg = DpwsConfig()
        with pytest.raises(ValueError):
            on_srs(DpwsState(guard_remaining=3), cfg, 0.0)


def block_switches(initial_waveform, gammas, cfg, guard_end=0, slots=None):
    """One terminal through ``on_srs_block`` under ``cfg``'s thresholds;
    returns its switch events like ``drive`` and the final state. Soundings
    sit on slots 0, 1, 2, ... unless ``slots`` says otherwise."""
    slots = np.arange(len(gammas)) if slots is None else np.asarray(slots)
    zero = np.zeros(1, dtype=np.int64)
    is_df, c, end, sw_snd, sw_ue = on_srs_block(
        np.array([initial_waveform == DFT_S_OFDM]), zero, np.array([guard_end]),
        np.array(gammas, dtype=float)[:, None], slots, cfg,
        np.array([cfg.zeta_db]), np.array([cfg.xi_db]),
    )
    assert list(sw_ue) == [0] * len(sw_snd)
    waveform = initial_waveform
    switches = []
    for k in sw_snd.tolist():
        waveform = CP_OFDM if waveform == DFT_S_OFDM else DFT_S_OFDM
        switches.append((k, waveform))
    assert (DFT_S_OFDM if is_df[0] else CP_OFDM) == waveform
    return switches, int(c[0]), int(end[0])


class TestGuardCountdown:
    # the guard runs one slot at a time: a terminal whose guard ends at slot
    # g first hears the sounding at slot g
    def test_counts_down(self):
        cfg = DpwsConfig(zeta_db=0.0, counter=1, guard_slots=0)
        switches, _, end = block_switches(CP_OFDM, [-1.0] * 40, cfg, guard_end=19)
        assert switches[0] == (19, DFT_S_OFDM)
        assert end == 20

    def test_idempotent_at_zero(self):
        cfg = DpwsConfig(zeta_db=0.0, counter=1, guard_slots=0)
        switches, _, _ = block_switches(CP_OFDM, [-1.0] * 4, cfg, guard_end=0)
        assert switches[0] == (0, DFT_S_OFDM)


class TestReferenceEquivalence:
    def test_random_traces(self):
        # the reference also runs the procedure's window T, of at least the
        # counter; the machine, which has none, matches it, so T never binds
        rng = np.random.default_rng(99)
        for _ in range(2000):
            counter = int(rng.integers(1, 6))
            window = int(rng.integers(counter, 7))
            cfg = DpwsConfig(
                zeta_db=float(rng.uniform(-3, 3)),
                xi_db=float(rng.uniform(0, 4)),
                counter=counter,
                guard_slots=0,
            )
            start = CP_OFDM if rng.random() < 0.5 else DFT_S_OFDM
            gammas = rng.uniform(-6.0, 10.0, size=15).tolist()
            want = reference_run(start, gammas, cfg.zeta_db, cfg.xi_db, counter, window)
            assert drive(start, gammas, cfg) == want
            assert block_switches(start, gammas, cfg)[0] == want

    def test_array_form_matches_scalar_states(self):
        # many terminals at once through a run of soundings, from random
        # guard ends and carried counters, against on_srs per terminal and
        # sounding; guards end inside, before and after the run, and in the
        # last, long runs also across the machine's windows
        rng = np.random.default_rng(7)
        for trial in range(312):
            max_soundings = 20 if trial < 300 else 3 * WINDOW_SOUNDINGS + 10
            counter = int(rng.integers(1, 6))
            cfg = DpwsConfig(
                zeta_db=float(rng.uniform(-3, 3)),
                xi_db=float(rng.uniform(0, 4)),
                counter=counter,
                guard_slots=int(rng.integers(0, 30)),
            )
            n, period = 12, int(rng.integers(1, 4))
            n_snd = int(rng.integers(1, max_soundings))
            slots = 100 + period * np.arange(n_snd)
            gamma = rng.uniform(-6.0, 10.0, size=(n_snd, n))
            states = [
                DpwsState(
                    waveform=CP_OFDM if rng.random() < 0.5 else DFT_S_OFDM,
                    c=int(rng.integers(0, counter)),
                    guard_remaining=int(rng.integers(90, 100 + period * n_snd + 10)),
                )
                for _ in range(n)
            ]
            is_df, c, guard_end, sw_snd, sw_ue = on_srs_block(
                np.array([s.waveform == DFT_S_OFDM for s in states]),
                np.array([s.c for s in states]),
                np.array([s.guard_remaining for s in states]),
                gamma,
                slots,
                cfg,
                np.full(n, cfg.zeta_db),
                np.full(n, cfg.xi_db),
            )
            # the scalar machine, sounding by sounding; guard_remaining holds
            # the guard's end slot here
            want_switches = []
            for k, slot in enumerate(slots.tolist()):
                for i, state in enumerate(states):
                    if slot < state.guard_remaining:
                        continue
                    state, switched = on_srs(replace(state, guard_remaining=0), cfg, gamma[k, i])
                    if switched:
                        want_switches.append((k, i))
                        state = replace(state, guard_remaining=slot + 1 + cfg.guard_slots)
                    else:
                        state = replace(state, guard_remaining=states[i].guard_remaining)
                    states[i] = state
            assert list(zip(sw_snd.tolist(), sw_ue.tolist())) == want_switches
            for i, state in enumerate(states):
                got = DpwsState(DFT_S_OFDM if is_df[i] else CP_OFDM, int(c[i]), int(guard_end[i]))
                assert got == state

    @pytest.mark.parametrize("period", [1, 2])
    def test_switching_every_sounding_across_windows(self, period):
        # one call over more than two windows of soundings, a switch at
        # nearly every sounding, and first guards that end before, on and
        # after the window edges; each terminal against the reference from
        # its first heard sounding
        rng = np.random.default_rng(40 + period)
        n_snd = 2 * WINDOW_SOUNDINGS + 45
        cfg = DpwsConfig(zeta_db=0.5, xi_db=0.0, counter=1, guard_slots=0)
        firsts = [0, 1, WINDOW_SOUNDINGS - 1, WINDOW_SOUNDINGS, WINDOW_SOUNDINGS + 1,
                  2 * WINDOW_SOUNDINGS - 1, 2 * WINDOW_SOUNDINGS, n_snd - 1, n_snd]
        starts = [CP_OFDM, DFT_S_OFDM] * len(firsts)
        firsts = [k for k in firsts for _ in range(2)]
        slots = 7 + period * np.arange(n_snd)
        # a guard end inside the period before the first heard sounding
        guard_end = np.array([7 + period * k - (k % period) for k in firsts])
        gamma = rng.uniform(-1.0, 2.0, size=(n_snd, len(firsts)))
        is_df, c, end, sw_snd, sw_ue = on_srs_block(
            np.array([w == DFT_S_OFDM for w in starts]), np.zeros(len(firsts), dtype=np.int64),
            guard_end, gamma, slots, cfg,
            np.full(len(firsts), cfg.zeta_db), np.full(len(firsts), cfg.xi_db),
        )
        assert len(sw_snd) > n_snd  # the machine is busy
        got = list(zip(sw_snd.tolist(), sw_ue.tolist()))
        want = []
        for i, (start, first) in enumerate(zip(starts, firsts)):
            switches = reference_run(
                start, gamma[first:, i].tolist(), cfg.zeta_db, cfg.xi_db, 1, 1
            )
            want += [(first + k, i) for k, _ in switches]
            if switches:
                k, waveform = switches[-1]
                assert end[i] == slots[first + k] + 1
            else:
                waveform = start
                assert end[i] == guard_end[i]
            assert is_df[i] == (waveform == DFT_S_OFDM)
        assert c.tolist() == [0] * len(firsts)
        assert got == sorted(want)


class TestLaneThresholds:
    # (zeta, xi) per lane: ordinary thresholds, the infinite ones (always an
    # occasion on one waveform and never on the other, and -inf + inf, which
    # is NaN and never an occasion), and a lane whose traces alternate
    # across zeta = 0.5 with xi = 0, so that with counter 1 it switches at
    # every sounding
    LANES = [(0.0, 5.0), (2.0, 1.0), (math.inf, 0.0), (-math.inf, 5.0),
             (-math.inf, math.inf), (math.inf, math.inf), (0.5, 0.0)]

    @pytest.mark.parametrize("counter", [1, 3])
    def test_lanes_match_the_reference_lane_by_lane(self, counter):
        rng = np.random.default_rng(60 + counter)
        n, n_snd = 6, 2 * WINDOW_SOUNDINGS + 9
        lanes = len(self.LANES)
        gamma = rng.uniform(-6.0, 10.0, size=(n_snd, lanes * n))
        gamma[:, -n:] = np.where(np.arange(n_snd) % 2 == 0, -1.0, 2.0)[:, None]
        starts = [CP_OFDM if rng.random() < 0.5 else DFT_S_OFDM for _ in range(lanes * n)]
        starts[-n:] = [CP_OFDM] * n
        zeta, xi = (np.repeat([lane[j] for lane in self.LANES], n) for j in (0, 1))
        cfg = DpwsConfig(counter=counter, guard_slots=0)
        is_df, c, end, sw_snd, sw_ue = on_srs_block(
            np.array([w == DFT_S_OFDM for w in starts]), np.zeros(lanes * n, dtype=np.int64),
            np.zeros(lanes * n, dtype=np.int64), gamma, np.arange(n_snd), cfg, zeta, xi,
        )
        got = list(zip(sw_snd.tolist(), sw_ue.tolist()))
        assert got == sorted(got)
        want = []
        for lane, (lane_zeta, lane_xi) in enumerate(self.LANES):
            for i in range(lane * n, (lane + 1) * n):
                switches = reference_run(
                    starts[i], gamma[:, i].tolist(), lane_zeta, lane_xi, counter, counter
                )
                want += [(k, i) for k, _ in switches]
                waveform = switches[-1][1] if switches else starts[i]
                assert is_df[i] == (waveform == DFT_S_OFDM), (lane, i)
        assert got == sorted(want)
        if counter == 1:
            assert sw_ue.tolist().count(lanes * n - 1) == n_snd  # every sounding

    def test_negative_lane_hysteresis_rejected(self):
        with pytest.raises(ValueError, match="hysteresis"):
            on_srs_block(np.zeros(2, dtype=bool), np.zeros(2), np.zeros(2), np.zeros((1, 2)),
                         np.arange(1), DpwsConfig(), np.zeros(2), np.array([0.0, -1.0]))


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=60))
    def test_cp_never_switches_when_gamma_at_or_above_zeta(self, gammas):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=2)
        assert drive(CP_OFDM, gammas, cfg) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-50.0, 5.0), min_size=1, max_size=60))
    def test_dfts_never_switches_when_gamma_at_or_below_zeta_plus_xi(self, gammas):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=2)
        assert drive(DFT_S_OFDM, gammas, cfg) == []

    def test_min_inter_switch_spacing(self):
        rng = np.random.default_rng(3)
        cfg = DpwsConfig(zeta_db=0.0, xi_db=0.0, counter=3, guard_slots=0)
        for _ in range(200):
            gammas = rng.uniform(-2.0, 2.0, size=80).tolist()
            switches = drive(CP_OFDM, gammas, cfg)
            times = [k for k, _ in switches]
            assert all(b - a >= cfg.counter for a, b in zip(times, times[1:]))

    def test_raising_threshold_never_delays_first_switch(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            counter = int(rng.integers(1, 5))
            gammas = rng.uniform(-5.0, 5.0, size=30).tolist()
            first = {}
            for zeta in (-1.0, 0.0, 1.0, 2.5):
                cfg = DpwsConfig(zeta_db=zeta, xi_db=1.0, counter=counter)
                switches = drive(CP_OFDM, gammas, cfg)
                first[zeta] = switches[0][0] if switches else None
            zetas = sorted(first)
            for lo, hi in zip(zetas, zetas[1:]):
                if first[lo] is not None:
                    assert first[hi] is not None
                    assert first[hi] <= first[lo]

    def test_state_space_safety_exhaustive(self):
        # BFS over every state reachable through the three gamma relations
        # (below zeta, inside the dead zone, above zeta + xi); stronger than
        # enumerating bounded traces
        for counter in range(1, 5):
            cfg = DpwsConfig(zeta_db=0.0, xi_db=2.0, counter=counter)
            inputs = (-1.0, 1.0, 3.0)
            seen = set()
            frontier = [DpwsState()]
            while frontier:
                state = frontier.pop()
                key = (state.waveform, state.c)
                if key in seen:
                    continue
                seen.add(key)
                assert 0 <= state.c < counter
                for gamma in inputs:
                    nxt, _ = on_srs(DpwsState(state.waveform, state.c, 0), cfg, gamma)
                    frontier.append(DpwsState(nxt.waveform, nxt.c, 0))


class TestConfigValidation:

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            DpwsConfig(xi_db=-0.1)
