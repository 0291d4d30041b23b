from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpwsim.dpws_fsm import DpwsConfig, DpwsState, is_occasion, on_slot, on_srs, on_srs_array
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM

from dpws_reference import reference_run


def drive(initial_waveform, gammas, cfg):
    """Run the FSM over a gamma trace; returns switch events like the
    reference interpreter (guard disabled so every reception is processed)."""
    state = DpwsState(waveform=initial_waveform)
    switches = []
    for k, gamma in enumerate(gammas):
        state = DpwsState(state.waveform, state.c, state.t, 0)
        state, switched = on_srs(state, cfg, gamma)
        if switched:
            switches.append((k, state.waveform))
    return switches


class TestHandTraces:
    def test_three_lows_trigger_switch(self):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=3, window_srs=8, guard_slots=0)
        switches = drive(CP_OFDM, [-1.0, -1.0, -1.0], cfg)
        assert switches == [(2, DFT_S_OFDM)]

    def test_hysteresis_dead_zone(self):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=3, window_srs=8)
        state = DpwsState(waveform=DFT_S_OFDM)
        for _ in range(50):
            state, switched = on_srs(state, cfg, 3.0)  # zeta < gamma < zeta + xi
            assert not switched
            assert state.c == 0 and state.t == 0

    def test_equality_is_not_an_occasion(self):
        cfg = DpwsConfig(zeta_db=1.0, xi_db=2.0, counter=1, window_srs=4)
        assert not is_occasion(CP_OFDM, 1.0, cfg)
        assert not is_occasion(DFT_S_OFDM, 3.0, cfg)
        assert is_occasion(CP_OFDM, 0.999, cfg)
        assert is_occasion(DFT_S_OFDM, 3.001, cfg)

    def test_switch_sets_guard_and_resets(self):
        cfg = DpwsConfig(zeta_db=0.0, counter=2, window_srs=4, guard_slots=19)
        state = DpwsState(waveform=CP_OFDM)
        state, _ = on_srs(state, cfg, -5.0)
        state, switched = on_srs(state, cfg, -5.0)
        assert switched
        assert state.waveform == DFT_S_OFDM
        assert state.guard_remaining == 19
        assert state.c == 0 and state.t == 0

    def test_srs_during_guard_rejected(self):
        cfg = DpwsConfig()
        with pytest.raises(ValueError):
            on_srs(DpwsState(guard_remaining=3), cfg, 0.0)


class TestGuardCountdown:
    def test_counts_down(self):
        assert on_slot(DpwsState(guard_remaining=19)).guard_remaining == 18

    def test_idempotent_at_zero(self):
        assert on_slot(DpwsState(guard_remaining=0)).guard_remaining == 0


def drive_array(initial_waveform, gammas, cfg):
    """``drive`` through the array form, one terminal wide."""
    is_df = np.array([initial_waveform == DFT_S_OFDM])
    c = t = np.zeros(1, dtype=np.int64)
    heard = np.ones(1, dtype=bool)
    switches = []
    for k, gamma in enumerate(gammas):
        is_df, c, t, switched = on_srs_array(is_df, c, t, np.array([gamma]), heard, cfg)
        if switched[0]:
            switches.append((k, DFT_S_OFDM if is_df[0] else CP_OFDM))
    return switches


class TestReferenceEquivalence:
    def test_random_traces(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            counter = int(rng.integers(1, 6))
            window = int(rng.integers(counter, 7))
            cfg = DpwsConfig(
                zeta_db=float(rng.uniform(-3, 3)),
                xi_db=float(rng.uniform(0, 4)),
                counter=counter,
                window_srs=window,
                guard_slots=0,
            )
            start = CP_OFDM if rng.random() < 0.5 else DFT_S_OFDM
            gammas = rng.uniform(-6.0, 10.0, size=15).tolist()
            want = reference_run(start, gammas, cfg.zeta_db, cfg.xi_db, counter, window)
            assert drive(start, gammas, cfg) == want
            assert drive_array(start, gammas, cfg) == want

    def test_array_form_matches_scalar_states(self):
        # many terminals at once, some not heard, from arbitrary counter and
        # timer values, including timers already at the window
        rng = np.random.default_rng(7)
        for _ in range(300):
            counter = int(rng.integers(1, 6))
            window = int(rng.integers(counter, 7))
            cfg = DpwsConfig(
                zeta_db=float(rng.uniform(-3, 3)),
                xi_db=float(rng.uniform(0, 4)),
                counter=counter,
                window_srs=window,
                guard_slots=int(rng.integers(0, 30)),
            )
            n = 12
            states = [
                DpwsState(
                    waveform=CP_OFDM if rng.random() < 0.5 else DFT_S_OFDM,
                    c=int(rng.integers(0, counter)),
                    t=int(rng.integers(0, window + 2)),
                )
                for _ in range(n)
            ]
            gamma = rng.uniform(-6.0, 10.0, size=n)
            heard = rng.random(n) < 0.8
            is_df, c, t, switched = on_srs_array(
                np.array([s.waveform == DFT_S_OFDM for s in states]),
                np.array([s.c for s in states]),
                np.array([s.t for s in states]),
                gamma,
                heard,
                cfg,
            )
            for i, state in enumerate(states):
                want, want_switch = (
                    on_srs(state, cfg, float(gamma[i])) if heard[i] else (state, False)
                )
                got = DpwsState(DFT_S_OFDM if is_df[i] else CP_OFDM, int(c[i]), int(t[i]), 0)
                assert got == replace(want, guard_remaining=0)
                assert switched[i] == want_switch


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=60))
    def test_cp_never_switches_when_gamma_at_or_above_zeta(self, gammas):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=2, window_srs=6)
        assert drive(CP_OFDM, gammas, cfg) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-50.0, 5.0), min_size=1, max_size=60))
    def test_dfts_never_switches_when_gamma_at_or_below_zeta_plus_xi(self, gammas):
        cfg = DpwsConfig(zeta_db=0.0, xi_db=5.0, counter=2, window_srs=6)
        assert drive(DFT_S_OFDM, gammas, cfg) == []

    def test_min_inter_switch_spacing(self):
        rng = np.random.default_rng(3)
        cfg = DpwsConfig(zeta_db=0.0, xi_db=0.0, counter=3, window_srs=5, guard_slots=0)
        for _ in range(200):
            gammas = rng.uniform(-2.0, 2.0, size=80).tolist()
            switches = drive(CP_OFDM, gammas, cfg)
            times = [k for k, _ in switches]
            assert all(b - a >= cfg.counter for a, b in zip(times, times[1:]))

    def test_raising_threshold_never_delays_first_switch(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            counter = int(rng.integers(1, 5))
            window = int(rng.integers(counter, 7))
            gammas = rng.uniform(-5.0, 5.0, size=30).tolist()
            first = {}
            for zeta in (-1.0, 0.0, 1.0, 2.5):
                cfg = DpwsConfig(
                    zeta_db=zeta, xi_db=1.0, counter=counter, window_srs=window
                )
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
            for window in range(counter, 5):
                cfg = DpwsConfig(
                    zeta_db=0.0, xi_db=2.0, counter=counter, window_srs=window
                )
                inputs = (-1.0, 1.0, 3.0)
                seen = set()
                frontier = [DpwsState()]
                while frontier:
                    state = frontier.pop()
                    key = (state.waveform, state.c, state.t)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert 0 <= state.c <= counter
                    assert 0 <= state.t <= window
                    for gamma in inputs:
                        nxt, _ = on_srs(
                            DpwsState(state.waveform, state.c, state.t, 0), cfg, gamma
                        )
                        frontier.append(DpwsState(nxt.waveform, nxt.c, nxt.t, 0))


class TestConfigValidation:
    def test_window_shorter_than_counter_rejected(self):
        with pytest.raises(ValueError):
            DpwsConfig(counter=4, window_srs=3)

    def test_negative_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            DpwsConfig(xi_db=-0.1)
