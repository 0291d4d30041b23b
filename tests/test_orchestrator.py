import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from dpwsim.agent import QNetwork, select_action
from dpwsim.config import SimConfig, _rebuild, load_config
from dpwsim.dpws_fsm import DpwsConfig
from dpwsim.kpi import REWARD_FACTOR_IDS
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM
from dpwsim.orchestrator import (
    LANE_TERMINAL_SLOTS,
    STREAM_EVAL,
    STREAM_TRAIN,
    compare_runs,
    drop_ues,
    episode_streams,
    lane_groups,
    run_baseline,
    run_evaluation,
    run_training,
    simulate_step,
    write_comparison,
)


def tiny_cfg(seed=1, ues=24, slots=40, srs=2) -> SimConfig:
    cfg = SimConfig(seed=seed)
    cfg.episode.ues_per_episode = ues
    cfg.episode.slots_per_step = slots
    cfg.episode.srs_period_slots = srs
    cfg.episode.train_episodes = 2
    cfg.episode.train_steps = 4
    cfg.episode.eval_episodes = 2
    cfg.episode.eval_steps = 3
    cfg.agent.buffer_size = 16
    cfg.agent.batch_size = 4
    return cfg


# the files an evaluation or baseline run writes besides its manifest
RUN_FILES = ("kpi_steps.csv", "switch_events.csv", "ue_samples.csv", "throughput_stats.csv")


def fresh_cell(cfg, stream=STREAM_TRAIN, episode=0, fixed=None):
    streams = episode_streams(cfg.seed, stream, episode)
    cell, fading = drop_ues(cfg, [streams.drop])
    if fixed is not None:
        cell.is_df[:] = fixed == DFT_S_OFDM
    return cell, fading, streams


def one_lane_step(cell, fading, zeta, xi, cfg, streams, events=None, **kwargs):
    """One step of a one-lane cell, its per-lane arguments passed as
    one-element lists; returns the lane's report."""
    [report], _ = simulate_step(
        cell, fading, [zeta], [xi], cfg, [streams],
        events=[] if events is None else events, episode=[0], **kwargs,
    )
    return report


class TestDrop:
    def test_deterministic_under_seed(self):
        cfg = tiny_cfg(seed=9)
        a, fading_a = drop_ues(cfg, [episode_streams(9, STREAM_TRAIN, 0).drop])
        b, fading_b = drop_ues(cfg, [episode_streams(9, STREAM_TRAIN, 0).drop])
        np.testing.assert_array_equal(a.distance_m, b.distance_m)
        np.testing.assert_array_equal(a.path_loss_db, b.path_loss_db)
        np.testing.assert_array_equal(fading_a, fading_b)

    def test_distance_bounds_and_uniformity(self):
        cfg = tiny_cfg()
        cfg.episode.ues_per_episode = 4000
        d = drop_ues(cfg, [np.random.default_rng(3)])[0].distance_m
        lo, hi = cfg.cell.min_distance_m, cfg.cell.max_distance_m
        assert d.min() >= lo and d.max() <= hi
        # one-sample KS against the uniform CDF, 1% critical value
        u = np.sort((d - lo) / (hi - lo))
        ks = np.max(np.abs(u - np.arange(1, d.size + 1) / d.size))
        assert ks < 1.63 / math.sqrt(d.size)

    def test_everyone_starts_multiport(self):
        cell, fading = drop_ues(tiny_cfg(), [np.random.default_rng(0)])
        assert len(cell) == len(fading) == 24
        assert not cell.is_df.any()
        assert not cell.c.any() and not cell.guard_end.any()


class TestSimulateStep:
    def test_deterministic_report(self):
        cfg = tiny_cfg(seed=4)
        r1 = one_lane_step(*self._cell(cfg))
        r2 = one_lane_step(*self._cell(cfg))
        np.testing.assert_array_equal(r1.snr_hist.counts, r2.snr_hist.counts)
        assert r1.throughput == r2.throughput
        assert r1.mean_gamma_db == r2.mean_gamma_db

    @staticmethod
    def _cell(cfg):
        cell, fading, streams = fresh_cell(cfg)
        return cell, fading, 0.0, 5.0, cfg, streams

    def test_slot_conservation(self):
        cfg = tiny_cfg(seed=5, slots=60)
        cfg.dpws.guard_slots = 7
        cell, fading, streams = fresh_cell(cfg)
        events = []
        # high threshold: switches
        one_lane_step(cell, fading, 25.0, 10.0, cfg, streams, events=events)
        assert events and cell.guard_slots.any()
        np.testing.assert_array_equal(
            cell.bearing_slots + cell.outage_slots + cell.guard_slots, 60
        )

    def test_unreachable_threshold_equals_fixed_cp(self):
        cfg = tiny_cfg(seed=6)
        cell_a, fading_a, streams_a = fresh_cell(cfg)
        rep_a = one_lane_step(cell_a, fading_a, -math.inf, 5.0, cfg, streams_a)
        cell_b, fading_b, streams_b = fresh_cell(cfg, fixed=CP_OFDM)
        rep_b = one_lane_step(cell_b, fading_b, 0.0, 5.0, cfg, streams_b, dpws_enabled=False)
        np.testing.assert_array_equal(rep_a.snr_hist.counts, rep_b.snr_hist.counts)
        assert rep_a.throughput == rep_b.throughput
        np.testing.assert_array_equal(cell_a.throughput_bps, cell_b.throughput_bps)

    def test_always_threshold_switches_everyone_once(self):
        cfg = tiny_cfg(seed=7, slots=100)
        cfg.dpws.counter = 2
        cfg.dpws.guard_slots = 3
        cell, fading, streams = fresh_cell(cfg)
        events = []
        one_lane_step(cell, fading, math.inf, math.inf, cfg, streams, events=events)
        assert cell.is_df.all()
        assert len(events) == len(cell)  # exactly one switch each, never back

    def test_guard_zeroes_exactly_guard_slots(self):
        cfg = tiny_cfg(seed=8, ues=24, slots=60)
        cfg.dpws.counter = 1
        cfg.dpws.guard_slots = 19
        cfg.cell.fading_rho = 1.0  # freeze fading so throughput is steady
        cell, fading, streams = fresh_cell(cfg)
        events = []
        trace = {}
        one_lane_step(cell, fading, math.inf, math.inf, cfg, streams,
                      events=events, trace=trace)
        assert events, "expected at least one switch"
        for episode, ue_id, slot, frm, to in events:
            if slot + 20 >= cfg.episode.slots_per_step:
                continue
            silent = trace["silent"][:, ue_id]
            assert not silent[slot]                      # switch slot still carries data
            assert silent[slot + 1 : slot + 20].all()    # 19 silent slots follow
            if not events_overlap(events, ue_id, slot):
                assert not silent[slot + 20]

    def test_waveform_fields_track_switches(self):
        cfg = tiny_cfg(seed=10, slots=80)
        cfg.dpws.counter = 2
        cfg.dpws.guard_slots = 2
        cell, fading, streams = fresh_cell(cfg)
        events = []
        trace = {}
        one_lane_step(cell, fading, math.inf, math.inf, cfg, streams,
                      events=events, trace=trace)
        for episode, ue_id, slot, frm, to in events:
            assert not trace["is_df"][slot, ue_id]  # still on the old waveform that slot
            if slot + 1 < cfg.episode.slots_per_step:
                assert trace["is_df"][slot + 1, ue_id]

    def test_switching_cannot_beat_per_slot_best_fixed(self):
        # switching can only pick between the two fixed waveforms (minus
        # guard holes); replay both on the identical fading trace
        cfg = tiny_cfg(seed=12, ues=24, slots=80)
        cfg.dpws.counter = 2
        cfg.dpws.guard_slots = 5

        def slot_tp(fixed, zeta, dpws_enabled):
            cell, fading, streams = fresh_cell(cfg, fixed=fixed)
            trace = {}
            one_lane_step(cell, fading, zeta, 2.0, cfg, streams,
                          dpws_enabled=dpws_enabled, trace=trace)
            return trace["tp"]

        tp_ai = slot_tp(None, 8.0, True)
        envelope = np.maximum(
            slot_tp(CP_OFDM, 0.0, False), slot_tp(DFT_S_OFDM, 0.0, False)
        )
        assert np.all(tp_ai <= envelope + 1e-9)


def events_overlap(events, ue_id, slot):
    return any(e[1] == ue_id and slot < e[2] <= slot + 20 for e in events)


class TestRuns:
    def test_training_artifacts_and_determinism(self, tmp_path):
        cfg = tiny_cfg(seed=21)
        ck1 = run_training(cfg, tmp_path / "a")
        ck2 = run_training(cfg, tmp_path / "b")
        for name in ("kpi_steps.csv", "training_log.csv", "checkpoint.txt",
                     "switch_events.csv", "episode_rewards.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        with open(tmp_path / "a" / "kpi_steps.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + cfg.episode.train_episodes * cfg.episode.train_steps
        for row in rows[1:]:
            [float(cell) for cell in row]  # raises on a cell such as "np.float64(1.5)"

    def test_every_dpws_key_moves_an_output(self, tmp_path):
        # each field is a [dpws] key, and a run reads it: changing it alone
        # changes the switch events or the per-step KPIs of a training run
        changed = dict(zeta_db=3.0, xi_db=2.0, counter=3, guard_slots=5)
        assert {f.name for f in fields(DpwsConfig)} == set(changed)

        def outputs(name, dpws):
            out = tmp_path / name
            run_training(_rebuild(tiny_cfg(seed=23), {"dpws": dpws}), out)
            return [(out / f).read_bytes() for f in ("switch_events.csv", "kpi_steps.csv")]

        base = outputs("base", {})
        assert base[0].count(b"\n") > 1  # the default run switches
        for key, value in changed.items():
            assert outputs(key, {key: value}) != base, key

    def test_actions_come_from_episode_start_weights(self, tmp_path, monkeypatch):
        import dpwsim.orchestrator as orch

        cfg = tiny_cfg(seed=28)
        cfg.episode.train_episodes = 3
        cfg.agent.batch_size = 2
        seen = []

        def spy(q, state, epsilon, rng):
            seen.append((id(q), q.w1.copy()))
            return select_action(q, state, epsilon, rng)

        monkeypatch.setattr(orch, "select_action", spy)
        run_training(cfg, tmp_path / "t")
        per_episode = cfg.episode.train_steps - 1
        episodes = [seen[i : i + per_episode] for i in range(0, len(seen), per_episode)]
        assert len(episodes) == cfg.episode.train_episodes
        for calls in episodes:
            assert len({net_id for net_id, _ in calls}) == 1
            for _, w1 in calls:
                np.testing.assert_array_equal(w1, calls[0][1])
        # training between episodes reaches the next episode's actor
        assert not np.array_equal(episodes[1][0][1], episodes[2][0][1])

    def test_buffer_respects_capacity(self, tmp_path):
        cfg = tiny_cfg(seed=22)
        cfg.agent.buffer_size = 4
        run_training(cfg, tmp_path / "t")  # would raise internally if broken

    def test_evaluation_requires_checkpoint(self, tmp_path):
        cfg = tiny_cfg()
        with pytest.raises(FileNotFoundError):
            run_evaluation(cfg, tmp_path / "e", tmp_path / "missing.txt")

    def test_eval_and_baseline_artifacts(self, tmp_path):
        cfg = tiny_cfg(seed=23)
        ck = run_training(cfg, tmp_path / "t")
        run_evaluation(cfg, tmp_path / "e", ck)
        run_baseline(cfg, tmp_path / "bl", CP_OFDM)
        for d in ("e", "bl"):
            assert (tmp_path / d / "ue_samples.csv").is_file()
            assert (tmp_path / d / "throughput_stats.csv").is_file()
            with open(tmp_path / d / "throughput_stats.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["factor"] for r in rows] == list(REWARD_FACTOR_IDS)

    def test_eval_drops_differ_from_training_drops(self):
        cfg = tiny_cfg(seed=24)
        train, _ = drop_ues(cfg, [episode_streams(cfg.seed, STREAM_TRAIN, 0).drop])
        ev, _ = drop_ues(cfg, [episode_streams(cfg.seed, STREAM_EVAL, 0).drop])
        assert not np.array_equal(train.distance_m, ev.distance_m)

    def test_evaluation_and_baselines_share_their_drops(self, tmp_path):
        # paired streams: a terminal of an evaluation episode stands at the
        # same distance in the greedy run and in both baselines
        cfg = tiny_cfg(seed=29)
        ck = run_training(cfg, tmp_path / "t")
        run_evaluation(cfg, tmp_path / "e", ck)
        run_baseline(cfg, tmp_path / "cp", CP_OFDM)
        run_baseline(cfg, tmp_path / "df", DFT_S_OFDM)
        seen = {}
        for d in ("e", "cp", "df"):
            with open(tmp_path / d / "ue_samples.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    seen.setdefault((row["episode"], row["ue_id"]), []).append(row["distance_m"])
        shared = [distances for distances in seen.values() if len(distances) > 1]
        assert len(shared) >= cfg.episode.eval_episodes
        for distances in shared:
            assert len(set(distances)) == 1, distances

    @pytest.mark.parametrize("mode", ["baseline", "evaluate"])
    def test_parallel_jobs_match_sequential(self, tmp_path, mode):
        # five episodes: one lane group of five at one job, groups of 2 and
        # 3 at two jobs, of 1, 2 and 2 at three
        cfg = tiny_cfg(seed=25)
        cfg.episode.eval_episodes = 5
        assert [len(g) for g in lane_groups(cfg, 1)] == [5]
        if mode == "evaluate":
            ckpt = run_training(cfg, tmp_path / "train")
        for jobs in (1, 2, 3):
            assert len(lane_groups(cfg, jobs)) == jobs
            out = tmp_path / f"jobs{jobs}"
            if mode == "evaluate":
                run_evaluation(cfg, out, ckpt, jobs=jobs)
            else:
                run_baseline(cfg, out, CP_OFDM, jobs=jobs)
        for jobs in (2, 3):
            for name in RUN_FILES:
                assert (tmp_path / "jobs1" / name).read_bytes() == (
                    tmp_path / f"jobs{jobs}" / name
                ).read_bytes(), (jobs, name)


def snr_steered_network(cfg):
    """A network whose greedy action is the one of 0..8 nearest 20 times
    its mean-SNR input (the mean sounding SNR over 30 dB): lanes of
    different mean SNR take different actions."""
    q = QNetwork(np.random.default_rng(0), cfg.agent)
    for p in q.parameters():
        p[...] = 0.0
    q.w1[2, 0] = 1.0
    actions = np.arange(9)
    q.w2[0] = actions
    q.b2[:] = -0.05 / 2 * actions**2
    return q


class TestLaneGroups:
    def test_group_sizes(self):
        cfg = tiny_cfg()
        e = cfg.episode
        for ues, slots, episodes, jobs, sizes in [
            (20, 200, 8, 1, [8]),         # ci: 12 lanes fit in a group
            (20, 200, 8, 3, [2, 3, 3]),   # at least one group per job
            (20, 200, 30, 1, [10, 10, 10]),
            (32, 400, 16, 1, [2, 3, 3, 2, 3, 3]),  # desk: 3 lanes a group
            (50, 1000, 4, 1, [1, 1, 1, 1]),  # paper: one episode a group
            (60, 1000, 2, 1, [1, 1]),     # wider than a group
            (20, 200, 2, 500, [1, 1]),
        ]:
            e.ues_per_episode, e.slots_per_step, e.eval_episodes = ues, slots, episodes
            groups = lane_groups(cfg, jobs)
            assert [len(g) for g in groups] == sizes
            assert [k for g in groups for k in g] == list(range(episodes))
            assert all(len(g) * ues * slots <= LANE_TERMINAL_SLOTS for g in groups if len(g) > 1)

    def test_lane_cell_counts_every_lane(self):
        cfg = tiny_cfg(seed=31)
        streams = [episode_streams(cfg.seed, STREAM_EVAL, e) for e in range(3)]
        cell, fading = drop_ues(cfg, [s.drop for s in streams])
        assert len(cell) == len(fading) == 3 * cfg.episode.ues_per_episode
        for k in range(3):
            alone, alone_fading = drop_ues(cfg, [episode_streams(cfg.seed, STREAM_EVAL, k).drop])
            np.testing.assert_array_equal(cell.distance_m[cell.lane(k)], alone.distance_m)
            np.testing.assert_array_equal(cell.path_loss_db[cell.lane(k)], alone.path_loss_db)
            np.testing.assert_array_equal(fading[cell.lane(k)], alone_fading)

    @staticmethod
    def runs(cfg, tmp_path, tag, monkeypatch, one_episode_groups):
        """evaluate (of ``snr_steered_network``), baseline cp and baseline dfts;
        with ``one_episode_groups`` every group holds one episode."""
        import dpwsim.orchestrator as orch

        with monkeypatch.context() as m:
            if one_episode_groups:
                m.setattr(orch, "LANE_TERMINAL_SLOTS", 1)
            ckpt = tmp_path / "qnet.txt"
            if not ckpt.exists():
                snr_steered_network(cfg).save(ckpt)
            run_evaluation(cfg, tmp_path / f"{tag}-eval", ckpt)
            run_baseline(cfg, tmp_path / f"{tag}-cp", CP_OFDM)
            run_baseline(cfg, tmp_path / f"{tag}-dfts", DFT_S_OFDM)

    def assert_lane_groups_change_nothing(self, cfg, tmp_path, monkeypatch):
        assert len(lane_groups(cfg)) == 1 < cfg.episode.eval_episodes
        self.runs(cfg, tmp_path, "lanes", monkeypatch, False)
        self.runs(cfg, tmp_path, "alone", monkeypatch, True)
        for run in ("eval", "cp", "dfts"):
            for name in RUN_FILES + ("manifest.json",):
                assert (tmp_path / f"lanes-{run}" / name).read_bytes() == (
                    tmp_path / f"alone-{run}" / name
                ).read_bytes(), (run, name)
        # how many thresholds the greedy lanes ended the run under
        with open(tmp_path / "lanes-eval" / "kpi_steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        last_step = str(cfg.episode.eval_steps - 1)
        return len({(r["zeta_db"], r["xi_db"]) for r in rows if r["step"] == last_step})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ci_runs_keep_their_bytes(self, tmp_path, monkeypatch, seed):
        cfg = load_config(profile="ci", seed=seed)
        assert self.assert_lane_groups_change_nothing(cfg, tmp_path, monkeypatch) > 1

    def test_paper_width_runs_keep_their_bytes(self, tmp_path, monkeypatch):
        # 50 terminals, one occasion to switch and a 19-slot guard: soundings
        # partly heard in several lanes of a step at once
        cfg = tiny_cfg(seed=32, ues=50, slots=200)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 19
        cfg.episode.eval_episodes, cfg.episode.eval_steps = 4, 3
        assert self.assert_lane_groups_change_nothing(cfg, tmp_path, monkeypatch) > 1



class TestLaneThreads:
    """Lane groups on one thread per usable core (``waveform._usable_cores``)."""

    @staticmethod
    def three_group_cfg(monkeypatch):
        """A config of 5 episodes in 3 lane groups (1, 2 and 2 episodes)."""
        import dpwsim.orchestrator as orch

        cfg = tiny_cfg(seed=33)
        cfg.dpws.counter, cfg.dpws.guard_slots = 1, 5
        cfg.episode.eval_episodes = 5
        e = cfg.episode
        monkeypatch.setattr(orch, "LANE_TERMINAL_SLOTS", 2 * e.ues_per_episode * e.slots_per_step)
        assert [len(g) for g in lane_groups(cfg)] == [1, 2, 2]
        return cfg

    def test_files_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch):
        import threading

        import dpwsim.orchestrator as orch
        import dpwsim.waveform as waveform

        cfg = self.three_group_cfg(monkeypatch)
        ckpt = tmp_path / "qnet.txt"
        snr_steered_network(cfg).save(ckpt)
        stepped_on = []
        policy_lanes = orch._policy_lanes

        def spy(cfg, episodes, *args, **kwargs):
            stepped_on.append((episodes[0], threading.get_ident()))
            return policy_lanes(cfg, episodes, *args, **kwargs)

        monkeypatch.setattr(orch, "_policy_lanes", spy)
        for cores in (1, 2, 3):
            monkeypatch.setattr(waveform, "_usable_cores", lambda: cores)
            stepped_on.clear()
            before = threading.active_count()
            run_evaluation(cfg, tmp_path / f"{cores}-eval", ckpt)
            run_baseline(cfg, tmp_path / f"{cores}-cp", CP_OFDM)
            run_baseline(cfg, tmp_path / f"{cores}-dfts", DFT_S_OFDM)
            assert threading.active_count() == before
            # the groups (first episodes 0, 1 and 3) in contiguous runs: the
            # first on the calling thread, each other run on a worker
            here = threading.get_ident()
            for run in range(3):
                on = dict(stepped_on[3 * run : 3 * run + 3])
                assert on[0] == here
                assert (on[1] == here) == (on[3] == here) == (cores == 1)
                if cores == 2:
                    assert on[1] == on[3]
        for run in ("eval", "cp", "dfts"):
            for name in RUN_FILES + ("manifest.json",):
                want = (tmp_path / f"1-{run}" / name).read_bytes()
                for cores in (2, 3):
                    assert (tmp_path / f"{cores}-{run}" / name).read_bytes() == want, (
                        cores, run, name)

    def test_a_failing_group_joins_every_thread(self, tmp_path, monkeypatch):
        import threading

        import dpwsim.orchestrator as orch
        import dpwsim.waveform as waveform
        from dpwsim import cli
        from dpwsim.kpi import InsufficientDataError

        cfg = self.three_group_cfg(monkeypatch)
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nprofile = ci\nseed = 33\n\n[episode]\neval_episodes = 5\n"
                       f"ues_per_episode = {cfg.episode.ues_per_episode}\n"
                       f"slots_per_step = {cfg.episode.slots_per_step}\n")
        monkeypatch.setattr(waveform, "_usable_cores", lambda: 3)
        policy_lanes = orch._policy_lanes

        def failing(cfg, episodes, *args, **kwargs):
            if episodes[0] == 3:  # the last group, on the last worker
                raise InsufficientDataError("too few terminals carry data")
            return policy_lanes(cfg, episodes, *args, **kwargs)

        monkeypatch.setattr(orch, "_policy_lanes", failing)
        before = threading.active_count()
        argv = ["baseline", "--config", str(ini), "--waveform", "cp"]
        assert cli.main(argv + ["--out", str(tmp_path / "failed")]) == cli.EXIT_RUNTIME
        assert threading.active_count() == before
        # no thread is left to hold a lock when the pool forks its workers
        monkeypatch.setattr(orch, "_policy_lanes", policy_lanes)
        assert cli.main(argv + ["--out", str(tmp_path / "pool"), "--jobs", "2"]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "threads")]) == 0
        for name in RUN_FILES:
            assert (tmp_path / "pool" / name).read_bytes() == (
                tmp_path / "threads" / name).read_bytes(), name

class TestComparison:
    def test_self_comparison_is_zero(self, tmp_path):
        cfg = tiny_cfg(seed=26)
        run_baseline(cfg, tmp_path / "x", CP_OFDM)
        rows = compare_runs(tmp_path / "x", tmp_path / "x")
        assert len(rows) == 9
        for _, _, _, rel, absolute in rows:
            assert rel == 0.0 and absolute == 0.0

    @staticmethod
    def write_stats(d, value):
        d.mkdir()
        with open(d / "throughput_stats.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["factor", "throughput_bps"])
            for factor in REWARD_FACTOR_IDS:
                w.writerow([factor, repr(value)])

    def test_hand_crafted_gain(self, tmp_path):
        # (A, B, gain %, gain Mbps); a factor that is 0 in both runs gains 0 %
        cases = [(0.002e6, 0.001e6, 100.0, 0.001), (0.0, 0.0, 0.0, 0.0),
                 (0.001e6, 0.0, math.inf, 0.001)]
        for k, (a, b, gain_pct, gain_mbps) in enumerate(cases):
            self.write_stats(tmp_path / f"a{k}", a)
            self.write_stats(tmp_path / f"b{k}", b)
            rows = compare_runs(tmp_path / f"a{k}", tmp_path / f"b{k}")
            for _, _, _, rel, absolute in rows:
                assert rel == pytest.approx(gain_pct)
                assert absolute == pytest.approx(gain_mbps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_or_negative_throughput_rejected(self, tmp_path, bad, side):
        self.write_stats(tmp_path / "a", bad if side == "a" else 1.0e6)
        self.write_stats(tmp_path / "b", bad if side == "b" else 1.0e6)
        with pytest.raises(ValueError, match="p10 throughput"):
            compare_runs(tmp_path / "a", tmp_path / "b")

    def test_mismatched_factor_sets_rejected(self, tmp_path):
        d1 = tmp_path / "a"
        d1.mkdir()
        with open(d1 / "throughput_stats.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["factor", "throughput_bps"])
            w.writerow(["p10", "1.0"])
        cfg = tiny_cfg(seed=27)
        run_baseline(cfg, tmp_path / "b", CP_OFDM)
        with pytest.raises(ValueError):
            compare_runs(d1, tmp_path / "b")

    def test_write_comparison_file(self, tmp_path):
        rows = [("p10", 1.0, 2.0, -50.0, -1e-6)]
        write_comparison(tmp_path / "c.csv", rows)
        text = (tmp_path / "c.csv").read_text()
        assert text.splitlines()[0] == "factor,a_bps,b_bps,gain_pct,gain_mbps"
