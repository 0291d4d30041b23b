"""The array kernel ``simulate_step`` against the slot-by-slot oracle in
``step_reference.py``: over several consecutive steps, both must give equal
reports, switch events, per-terminal outcomes, returned fading, trace masks
and random-stream states.

The kernel keeps the cell as a ``Cell`` of arrays; the oracle reads and
writes one context per terminal, in the shape of the terminal objects it
was written for. ``KernelCell`` and ``OracleCell`` wrap the two, and both
report the same per-terminal tuple."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from dpwsim.config import SimConfig
from dpwsim.dpws_fsm import DpwsState
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM
from dpwsim import orchestrator
from dpwsim.orchestrator import STREAM_EVAL, STREAM_TRAIN, drop_ues, episode_streams, simulate_step

from step_reference import reference_step


def small_cfg(seed=3, ues=24, slots=40, srs=2, **cell):
    cfg = SimConfig(seed=seed)
    cfg.episode.ues_per_episode = ues
    cfg.episode.slots_per_step = slots
    cfg.episode.srs_period_slots = srs
    cfg.dpws.counter = 2
    cfg.dpws.guard_slots = 5
    for key, value in cell.items():
        setattr(cfg.cell, key, value)
    return cfg


class KernelCell:
    """The dropped one-lane ``Cell``, stepped by ``simulate_step``; ``step``
    takes the oracle's scalar arguments and passes them as one-element
    lists."""

    def __init__(self, cell):
        self.cell = cell

    def step(self, fading, zeta, xi, cfg, streams, *, episode, **kwargs):
        cell, buf = self.cell, self.cell.buffers
        kept = buf.trajectory, buf.noise
        [report], fading = simulate_step(
            cell, fading, [zeta], [xi], cfg, [streams], episode=[episode], **kwargs
        )
        # every step evolves its trajectory in the cell's kept buffers and
        # returns a copy of the last state, not a view into them
        assert cell.buffers is buf and buf.trajectory is kept[0] and buf.noise is kept[1]
        np.testing.assert_array_equal(fading, buf.trajectory[-1])
        assert not np.shares_memory(fading, buf.trajectory)
        return report, fading

    def terminals(self):
        """Per terminal: (is_df, c, guard_end, throughput, bearing, outage,
        guard) after a step."""
        cell = self.cell
        return list(zip(
            cell.is_df.tolist(), cell.c.tolist(), cell.guard_end.tolist(),
            cell.throughput_bps.tolist(), cell.bearing_slots.tolist(),
            cell.outage_slots.tolist(), cell.guard_slots.tolist(),
        ))


class OracleCell:
    """The dropped ``Cell`` as the oracle's list of terminal contexts,
    stepped by ``reference_step``."""

    def __init__(self, cell):
        self.ues = [
            SimpleNamespace(
                ue_id=i,
                distance_m=d,
                path_loss_db=pl,
                dpws=DpwsState(waveform=DFT_S_OFDM if df else CP_OFDM),
            )
            for i, (d, pl, df) in enumerate(
                zip(cell.distance_m.tolist(), cell.path_loss_db.tolist(), cell.is_df.tolist())
            )
        ]

    def step(self, *args, **kwargs):
        return reference_step(self.ues, *args, **kwargs)

    def terminals(self):
        out = []
        for ue in self.ues:
            st = ue.dpws
            out.append((
                st.waveform == DFT_S_OFDM, st.c, st.guard_remaining, ue.step_throughput_bps,
                ue.bearing_slots, ue.outage_slots, ue.guard_slots_used,
            ))
        return out


def run_steps(adapter, cfg, thresholds, fixed=None):
    """Drop a cell and run one step per (zeta, xi) through ``adapter``
    (``KernelCell`` or ``OracleCell``); returns everything the step
    produces or touches."""
    streams = episode_streams(cfg.seed, STREAM_TRAIN, 0)
    cell, fading = drop_ues(cfg, [streams.drop])
    if fixed is not None:
        cell.is_df[:] = fixed == DFT_S_OFDM
    sim = adapter(cell)
    events, steps = [], []
    for k, (zeta, xi) in enumerate(thresholds):
        trace = {}
        report, fading = sim.step(
            fading, zeta, xi, cfg, streams,
            dpws_enabled=fixed is None, events=events, episode=2,
            slot_offset=k * cfg.episode.slots_per_step, trace=trace,
        )
        steps.append((report, sim.terminals(), fading, trace))
    return steps, events, streams.fading.bit_generator.state, streams.ta.bit_generator.state


def assert_same(cfg, thresholds, fixed=None):
    got = run_steps(KernelCell, cfg, thresholds, fixed)
    want = run_steps(OracleCell, cfg, thresholds, fixed)
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
            assert any(ue[2] > 0 for _, terminals, _, _ in steps for ue in terminals)

    def test_guard_covering_every_sounding_of_a_step(self):
        cfg = small_cfg(seed=4, ues=30, srs=4)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 76
        steps = assert_same(cfg, [(math.inf, math.inf)] * 3)[0]
        assert steps[1][0].snr_hist.total == 0  # nobody sounded in step 1

    def test_counter_one(self):
        cfg = small_cfg(seed=8)
        cfg.dpws.counter = 1
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

    @pytest.mark.parametrize(
        "waveform, unread", [(CP_OFDM, "select_tx_port"), (DFT_S_OFDM, "precoded_gain")]
    )
    def test_fixed_waveform_skips_the_other_budget(self, monkeypatch, waveform, unread):
        def refuse(*args):
            raise AssertionError(f"{unread} computed for a {waveform} step")

        monkeypatch.setattr(orchestrator, unread, refuse)
        assert_same(small_cfg(seed=14), VARIED, fixed=waveform)

    def test_ping_pong(self):
        # every sounding is an occasion for one of the two waveforms and no
        # guard holds a terminal back, so terminals switch over and over
        # inside one step; its 120 soundings span two of the switching
        # machine's windows
        cfg = small_cfg(seed=15, slots=120, srs=1)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 0
        events = assert_same(cfg, [(4.0, 0.0)] * 3)[1]
        per_block = {}
        for _, ue, slot, _, _ in events:
            key = (ue, slot // cfg.episode.slots_per_step)
            per_block[key] = per_block.get(key, 0) + 1
        assert max(per_block.values()) >= 10

    def test_steps_spanning_several_slot_blocks(self):
        # a long step in one pass: 300 slots at period 3 give 100 soundings,
        # which the switching machine takes in windows of 64 and 36
        cfg = small_cfg(seed=12, ues=20, slots=300, srs=3)
        assert_same(cfg, VARIED[:2])

    def test_paper_width_partly_heard_soundings(self):
        # 50 terminals, one occasion to switch and a 19-slot guard: the
        # soundings hear between 5 and 49 terminals, so the grouped row
        # sums of the partly-heard ones run on lengths below 8 (numpy's
        # plain loop), from 8 up (its unrolled pairwise sum), and on both
        # sides of 16
        cfg = small_cfg(seed=3, ues=50, slots=200, srs=2)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 19
        steps, events = assert_same(cfg, [(8.0, 2.0), (4.0, 0.0), (12.0, 1.0)])[:2]
        assert events
        counts = set()
        for _, _, _, trace in steps:
            heard = (~trace["silent"][::2]).sum(axis=1)
            counts |= set(heard[(heard > 0) & (heard < 50)].tolist())
        for lo, hi in ((1, 7), (9, 15), (17, 49)):
            assert any(lo <= m <= hi for m in counts), (lo, hi, sorted(counts))

    def test_several_receive_antennas(self):
        assert_same(small_cfg(seed=13, n_rx=4), VARIED[:2])

    @pytest.mark.parametrize("ues, slots, srs", [(21, 50, 2), (21, 50, 1), (41, 1, 1), (21, 9, 3)])
    def test_sizes_off_whole_cache_lines(self, ues, slots, srs):
        # terminal-slot counts that are no multiple of 4, so the step's
        # arrays laid in the fading draws each end inside a 64-byte line
        assert_same(small_cfg(seed=15, ues=ues, slots=slots, srs=srs), VARIED)


def lane_steps(cfg, episodes, thresholds, fixed=None):
    """The ``episodes`` as lanes of one cell, step k under the per-lane
    ``thresholds[k]``; returns per lane what ``run_steps`` returns."""
    streams = [episode_streams(cfg.seed, STREAM_EVAL, e) for e in episodes]
    cell, fading = drop_ues(cfg, [s.drop for s in streams])
    n = cfg.episode.ues_per_episode
    assert cell.lanes == len(episodes) and len(cell) == len(episodes) * n
    if fixed is not None:
        cell.is_df[:] = fixed == DFT_S_OFDM
    sim = KernelCell(cell)
    events, steps = [], []
    for k, lane_thresholds in enumerate(thresholds):
        zetas, xis = zip(*lane_thresholds)
        trace = {}
        reports, fading = simulate_step(
            cell, fading, list(zetas), list(xis), cfg, streams,
            dpws_enabled=fixed is None, events=events, episode=episodes,
            slot_offset=k * cfg.episode.slots_per_step, trace=trace,
        )
        steps.append((reports, sim.terminals(), fading, trace))
    out = []
    for lane, episode in enumerate(episodes):
        ues = slice(lane * n, (lane + 1) * n)
        lane_out = [(reports[lane], terminals[ues], fading[ues],
                     {key: value[:, ues] for key, value in trace.items()})
                    for reports, terminals, fading, trace in steps]
        out.append((lane_out, [e for e in events if e[0] == episode],
                     streams[lane].fading.bit_generator.state,
                     streams[lane].ta.bit_generator.state))
    return out


def alone_steps(cfg, episode, thresholds, fixed=None):
    """One episode in a cell of its own, as ``KernelCell`` steps it."""
    streams = episode_streams(cfg.seed, STREAM_EVAL, episode)
    cell, fading = drop_ues(cfg, [streams.drop])
    if fixed is not None:
        cell.is_df[:] = fixed == DFT_S_OFDM
    sim = KernelCell(cell)
    events, steps = [], []
    for k, (zeta, xi) in enumerate(thresholds):
        trace = {}
        report, fading = sim.step(
            fading, zeta, xi, cfg, streams, dpws_enabled=fixed is None, events=events,
            episode=episode, slot_offset=k * cfg.episode.slots_per_step, trace=trace,
        )
        steps.append((report, sim.terminals(), fading, trace))
    return steps, events, streams.fading.bit_generator.state, streams.ta.bit_generator.state


def assert_lanes_alone(cfg, episodes, thresholds, fixed=None):
    """Every lane of a lane cell gets the bytes of its episode alone."""
    lanes = lane_steps(cfg, episodes, thresholds, fixed)
    for lane, episode in enumerate(episodes):
        own = [step[lane] for step in thresholds]
        got, want = lanes[lane], alone_steps(cfg, episode, own, fixed)
        for k, ((rep_a, ues_a, fad_a, tr_a), (rep_b, ues_b, fad_b, tr_b)) in enumerate(
            zip(got[0], want[0])
        ):
            where = f"lane {lane}, step {k}"
            np.testing.assert_array_equal(rep_a.snr_hist.counts, rep_b.snr_hist.counts, where)
            np.testing.assert_array_equal(rep_a.ta_hist.counts, rep_b.ta_hist.counts, where)
            assert rep_a.throughput == rep_b.throughput, where
            assert repr(rep_a.mean_gamma_db) == repr(rep_b.mean_gamma_db), where
            assert ues_a == ues_b, where
            np.testing.assert_array_equal(fad_a, fad_b, where)
            for key in ("is_df", "silent", "tp"):
                np.testing.assert_array_equal(tr_a[key], tr_b[key], f"{where}: {key}")
        assert got[1:] == want[1:], f"lane {lane}: events or stream states"
    return lanes


class TestLanesMatchSeparateCells:
    # per step, one (zeta, xi) per lane
    LANE_THRESHOLDS = [
        [(0.0, 5.0), (8.0, 2.0), (4.0, 0.0)],
        [(8.0, 2.0), (-3.0, 9.0), (4.0, 0.0)],
        [(-3.0, 9.0), (0.0, 5.0), (12.0, 1.0)],
    ]

    def test_default_dynamics(self):
        lanes = assert_lanes_alone(small_cfg(seed=21), [0, 1, 2], self.LANE_THRESHOLDS)
        assert all(lane[1] for lane in lanes)  # every lane switches

    def test_one_lane(self):
        assert_lanes_alone(small_cfg(seed=22), [5], [step[:1] for step in self.LANE_THRESHOLDS])

    def test_frozen_fading_and_no_jitter(self):
        cfg = small_cfg(seed=23, fading_rho=1.0, ta_jitter_pct=0.0)
        assert_lanes_alone(cfg, [0, 1, 2], self.LANE_THRESHOLDS)

    def test_sizes_off_whole_cache_lines(self):
        assert_lanes_alone(small_cfg(seed=24, ues=21, slots=9, srs=3), [0, 1, 2],
                           self.LANE_THRESHOLDS)

    @pytest.mark.parametrize("waveform", [CP_OFDM, DFT_S_OFDM])
    def test_switching_disabled(self, waveform):
        assert_lanes_alone(small_cfg(seed=24), [3, 4], [[(0.0, 5.0)] * 2] * 3, fixed=waveform)

    def test_paper_width_partly_heard_soundings_in_several_lanes(self):
        # 50 terminals a lane, one occasion to switch and a 19-slot guard:
        # at some soundings several lanes hear only part of their terminals
        cfg = small_cfg(seed=3, ues=50, slots=200, srs=2)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 19
        lanes = assert_lanes_alone(cfg, [0, 1, 2], self.LANE_THRESHOLDS)
        partly = 0
        for step in range(3):
            heard = np.array([(~lane[0][step][3]["silent"][::2]).sum(axis=1) for lane in lanes])
            partly = max(partly, int(((heard > 0) & (heard < 50)).sum(axis=0).max()))
        assert partly >= 2

    def test_a_lane_that_hears_nothing_beside_lanes_that_do(self):
        # lane 0 switches every terminal at its first sounding into a guard
        # that outlasts the next step, so it hears no sounding in step 1 and
        # reports a NaN mean; the other lanes never switch
        cfg = small_cfg(seed=4, ues=30, srs=4)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 76
        thresholds = [[(math.inf, math.inf), (-math.inf, 5.0)]] * 3
        lanes = assert_lanes_alone(cfg, [0, 1], thresholds)
        assert math.isnan(lanes[0][0][1][0].mean_gamma_db)
        assert not math.isnan(lanes[1][0][1][0].mean_gamma_db)

    def test_mismatched_streams_rejected(self):
        cfg = small_cfg(seed=25)
        streams = [episode_streams(cfg.seed, STREAM_EVAL, e) for e in range(2)]
        cell, fading = drop_ues(cfg, [s.drop for s in streams])
        with pytest.raises(ValueError, match="1 streams"):
            simulate_step(cell, fading, [0.0] * 2, [5.0] * 2, cfg, streams[:1],
                          events=[], episode=[0, 1])

    @pytest.mark.parametrize("arg", ["zeta_db", "xi_db", "episode"])
    def test_per_lane_argument_of_the_wrong_length_rejected(self, arg):
        # one entry too many or too few is refused before the step draws
        # or writes anything
        cfg = small_cfg(seed=25)
        streams = [episode_streams(cfg.seed, STREAM_EVAL, e) for e in range(2)]
        cell, fading = drop_ues(cfg, [s.drop for s in streams])
        states = [s.fading.bit_generator.state for s in streams]
        for wrong in (1, 3):
            args = dict(zeta_db=[0.0] * 2, xi_db=[5.0] * 2, episode=[0, 1])
            args[arg] = args[arg][:1] * wrong
            events = []
            with pytest.raises(ValueError, match=f"{wrong} {arg} for a cell of 2 lanes"):
                simulate_step(cell, fading, args["zeta_db"], args["xi_db"], cfg, streams,
                              events=events, episode=args["episode"])
            assert not events and not cell.is_df.any()
        assert [s.fading.bit_generator.state for s in streams] == states


def test_paper_step_reuses_the_cells_buffers():
    # after one warm-up step, a paper-size step (50 terminals, 1000 slots)
    # with switching on works in the cell's buffers: it allocates little
    # (its largest temporaries are the timing-advance draw and the heard
    # values, (sounding, terminal) each) and the buffers keep their memory
    import tracemalloc

    from dpwsim.config import load_config

    cfg = load_config(profile="paper", seed=1)
    streams = episode_streams(cfg.seed, STREAM_EVAL, 0)
    cell, fading = drop_ues(cfg, [streams.drop])
    buffers = {name: value for name, value in vars(cell.buffers).items()
               if isinstance(value, np.ndarray)}
    buffers.update(("gains." + name, value) for name, value in vars(cell.buffers.gains).items()
                   if value is not None)
    addresses = {name: value.ctypes.data for name, value in buffers.items()}
    events = []

    def step():
        nonlocal fading
        _, fading = simulate_step(cell, fading, [6.0], [2.0], cfg, [streams],
                                  events=events, episode=[0])

    step()
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            step()
            assert tracemalloc.get_traced_memory()[1] < 0.5 * 2**20
    finally:
        tracemalloc.stop()
    # both budgets were needed: some terminals switched, not all
    assert events and cell.is_df.any() and not cell.is_df.all()
    assert {name: value.ctypes.data for name, value in buffers.items()} == addresses
    assert all(value is getattr(cell.buffers, name) for name, value in buffers.items()
               if "." not in name)
