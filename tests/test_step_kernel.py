"""The array kernel ``simulate_step`` against the slot-by-slot oracle in
``step_reference.py``: over several consecutive steps, both must give equal
reports, switch events, per-terminal outcomes, returned fading, trace masks
and random-stream states."""

import math

import numpy as np
import pytest

from dpwsim.config import SimConfig
from dpwsim.dpws_fsm import DpwsState
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM
from dpwsim.orchestrator import STREAM_TRAIN, drop_ues, episode_streams, simulate_step

from step_reference import reference_step


def small_cfg(seed=3, ues=24, slots=40, srs=2, **cell):
    cfg = SimConfig(seed=seed)
    cfg.episode.ues_per_episode = ues
    cfg.episode.slots_per_step = slots
    cfg.episode.srs_period_slots = srs
    cfg.dpws.counter = 2
    cfg.dpws.window_srs = 3
    cfg.dpws.guard_slots = 5
    for key, value in cell.items():
        setattr(cfg.cell, key, value)
    return cfg


def run_steps(step_fn, cfg, thresholds, fixed=None):
    """Drop a cell and run one step per (zeta, xi); returns everything the
    step produces or touches."""
    streams = episode_streams(cfg.seed, STREAM_TRAIN, 0)
    ues = drop_ues(cfg, streams.drop)
    if fixed is not None:
        for ue in ues:
            ue.dpws = DpwsState(waveform=fixed)
    fading = np.stack([ue.fading for ue in ues])
    events, steps = [], []
    for k, (zeta, xi) in enumerate(thresholds):
        trace = {}
        report, fading = step_fn(
            ues, fading, zeta, xi, cfg, streams,
            dpws_enabled=fixed is None, events=events, episode=2,
            slot_offset=k * cfg.episode.slots_per_step, trace=trace,
        )
        terminals = [
            (ue.dpws, ue.step_throughput_bps, ue.bearing_slots, ue.outage_slots,
             ue.guard_slots_used)
            for ue in ues
        ]
        steps.append((report, terminals, fading, trace))
    return steps, events, streams.fading.bit_generator.state, streams.ta.bit_generator.state


def assert_same(cfg, thresholds, fixed=None):
    got = run_steps(simulate_step, cfg, thresholds, fixed)
    want = run_steps(reference_step, cfg, thresholds, fixed)
    for k, ((rep_a, ues_a, fad_a, tr_a), (rep_b, ues_b, fad_b, tr_b)) in enumerate(
        zip(got[0], want[0])
    ):
        np.testing.assert_array_equal(rep_a.snr_hist.counts, rep_b.snr_hist.counts, f"step {k}")
        np.testing.assert_array_equal(rep_a.ta_hist.counts, rep_b.ta_hist.counts, f"step {k}")
        assert rep_a.throughput == rep_b.throughput, f"step {k}"
        assert rep_a.mean_gamma_db == rep_b.mean_gamma_db or (
            math.isnan(rep_a.mean_gamma_db) and math.isnan(rep_b.mean_gamma_db)
        ), f"step {k}"
        assert ues_a == ues_b, f"step {k}"
        np.testing.assert_array_equal(fad_a, fad_b, f"step {k}")
        for key in ("is_df", "silent", "tp"):
            np.testing.assert_array_equal(tr_a[key], tr_b[key], f"step {k}: {key}")
    assert got[1] == want[1]
    assert got[2] == want[2], "fading stream state"
    assert got[3] == want[3], "timing-advance stream state"
    return got


VARIED = [(0.0, 5.0), (8.0, 2.0), (4.0, 0.0), (-3.0, 9.0)]


class TestKernelMatchesSlotLoop:
    def test_default_dynamics(self):
        events = assert_same(small_cfg(), VARIED)[1]
        assert events  # the switching machine is exercised

    def test_frozen_fading(self):
        assert_same(small_cfg(seed=5, fading_rho=1.0), VARIED)

    def test_no_timing_advance_jitter(self):
        assert_same(small_cfg(seed=6, ta_jitter_pct=0.0), VARIED)

    @pytest.mark.parametrize("guard", [0, 1, 57])
    def test_guard_lengths(self, guard):
        # 1 is below the sounding period, 57 outlasts the step and carries
        cfg = small_cfg(seed=7, ues=48, srs=2)
        cfg.dpws.guard_slots = guard
        steps = assert_same(cfg, VARIED)[0]
        if guard > cfg.episode.slots_per_step:
            assert any(ue[0].guard_remaining > 0 for _, ues, _, _ in steps for ue in ues)

    def test_guard_covering_every_sounding_of_a_step(self):
        cfg = small_cfg(seed=4, ues=30, srs=4)
        cfg.dpws.counter, cfg.dpws.window_srs, cfg.dpws.guard_slots = 1, 2, 76
        steps = assert_same(cfg, [(math.inf, math.inf)] * 3)[0]
        assert steps[1][0].snr_hist.total == 0  # nobody sounded in step 1

    def test_counter_one(self):
        cfg = small_cfg(seed=8)
        cfg.dpws.counter, cfg.dpws.window_srs = 1, 1
        assert_same(cfg, VARIED)

    def test_sounding_every_slot(self):
        assert_same(small_cfg(seed=9, srs=1), VARIED)

    @pytest.mark.parametrize("zeta", [math.inf, -math.inf])
    def test_infinite_threshold(self, zeta):
        cfg = small_cfg(seed=10)
        assert_same(cfg, [(zeta, 5.0), (zeta, math.inf), (0.0, 5.0)])

    @pytest.mark.parametrize("waveform", [CP_OFDM, DFT_S_OFDM])
    def test_switching_disabled(self, waveform):
        assert_same(small_cfg(seed=11), VARIED, fixed=waveform)

    def test_steps_spanning_several_slot_blocks(self):
        # 300 slots at period 3 make blocks of 126, 126 and 48 slots
        cfg = small_cfg(seed=12, ues=20, slots=300, srs=3)
        assert_same(cfg, VARIED[:2])

    def test_several_receive_antennas(self):
        assert_same(small_cfg(seed=13, n_rx=4), VARIED[:2])
