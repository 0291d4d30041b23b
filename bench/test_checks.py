"""Each output check of the benchmark passes on a real artifact and fails on
a corrupted copy of it.

The artifacts come from one small run of the program (a 25-step training
episode, a replay of the hold checkpoint, both baselines and a PAPR table)
made once per module. Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import csv
import shutil

import numpy as np
import pytest

import checks
import inputs

cli, config, orchestrator = inputs.import_program()

INI = """\
[run]
profile = ci
seed = 7

[episode]
train_episodes = 1
train_steps = 25
eval_episodes = 4
eval_steps = 2
"""


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifacts")
    (d / "run.ini").write_text(INI)
    (d / "hold.txt").write_text(inputs.hold_checkpoint_text())
    cfg = config.load_config(d / "run.ini")
    orchestrator.run_training(cfg, d / "train")
    orchestrator.run_evaluation(cfg, d / "eval", d / "hold.txt")
    orchestrator.run_baseline(cfg, d / "cp", checks.CP)
    orchestrator.run_baseline(cfg, d / "dfts", checks.DFTS)
    code = cli.main(["papr", "--config", str(d / "run.ini"), "--blocks", "2000",
                     "--out", str(d / "papr")])
    assert code == 0
    return d, cfg


def rows(d, run, name):
    return checks.read_rows(d / run / name)


def write_rows(path, rows_):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows_[0]))
        w.writeheader()
        w.writerows(rows_)


def test_training_reward_off_by_1e_minus_6(art, tmp_path):
    d, cfg = art
    args = (cfg.episode.train_steps, cfg.agent.theta, cfg.agent.reward_clip)
    checks.check_training_rewards(d / "train", *args)
    bad = tmp_path / "train"
    shutil.copytree(d / "train", bad)
    log = checks.read_rows(bad / "training_log.csv")
    log[5]["reward"] = repr(float(log[5]["reward"]) + 1e-6)
    write_rows(bad / "training_log.csv", log)
    with pytest.raises(checks.CheckError, match="training reward"):
        checks.check_training_rewards(bad, *args)


def test_threshold_move_off_the_action_grid(art):
    d, cfg = art
    a = cfg.agent
    args = ((0.0, 5.0), (a.zeta_min_db, a.zeta_max_db), a.xi_max_db)
    kpi = rows(d, "train", "kpi_steps.csv")
    checks.check_threshold_moves(kpi, *args)
    off_grid = copy.deepcopy(kpi)
    off_grid[3]["zeta_db"] = repr(float(off_grid[3]["zeta_db"]) + 0.5)
    with pytest.raises(checks.CheckError, match="off the action grid"):
        checks.check_threshold_moves(off_grid, *args)
    late_start = copy.deepcopy(kpi)
    late_start[0]["xi_db"] = "5.5"
    with pytest.raises(checks.CheckError, match="episode starts"):
        checks.check_threshold_moves(late_start, *args)


def test_hold_replay_keeps_default_thresholds(art):
    d, _ = art
    kpi = rows(d, "eval", "kpi_steps.csv")
    checks.check_thresholds_held(kpi, (0.0, 5.0))
    kpi[-1]["zeta_db"] = "1.0"
    with pytest.raises(checks.CheckError, match="held"):
        checks.check_thresholds_held(kpi, (0.0, 5.0))


def test_switch_29_slots_after_the_previous_one(art):
    d, cfg = art
    args = (cfg.dpws.guard_slots, cfg.dpws.counter, cfg.episode.srs_period_slots)
    assert checks.min_switch_gap(*args) == 30
    events = rows(d, "train", "switch_events.csv")
    checks.check_switch_events(events, *args)
    seen = {}
    for i, ev in enumerate(events):
        key = (ev["episode"], ev["ue_id"])
        if key in seen:
            break
        seen[key] = i
    else:
        pytest.fail("no terminal switched twice")
    too_soon = copy.deepcopy(events)
    too_soon[i]["slot"] = str(int(events[seen[key]]["slot"]) + 29)
    with pytest.raises(checks.CheckError):
        checks.check_switch_events(too_soon, *args)
    # 28 slots: a sounding slot, so only the gap can catch it
    too_soon[i]["slot"] = str(int(events[seen[key]]["slot"]) + 28)
    with pytest.raises(checks.CheckError, match="28 slots after"):
        checks.check_switch_events(too_soon, *args)
    odd_slot = copy.deepcopy(events)
    odd_slot[i]["slot"] = str(int(events[i]["slot"]) + 1)
    with pytest.raises(checks.CheckError, match="not a sounding slot"):
        checks.check_switch_events(odd_slot, *args)
    repeated = copy.deepcopy(events)
    repeated[i]["from_waveform"], repeated[i]["to_waveform"] = checks.CP, checks.DFTS
    with pytest.raises(checks.CheckError, match="leaves"):
        checks.check_switch_events(repeated, *args)


def test_final_waveform_against_switch_parity(art):
    d, _ = art
    events, samples = rows(d, "eval", "switch_events.csv"), rows(d, "eval", "ue_samples.csv")
    checks.check_final_waveforms(events, samples)
    flip = {checks.CP: checks.DFTS, checks.DFTS: checks.CP}
    samples[0]["final_waveform"] = flip[samples[0]["final_waveform"]]
    with pytest.raises(checks.CheckError, match="final waveform"):
        checks.check_final_waveforms(events, samples)


def test_kpi_histograms_and_percentile_order(art):
    d, cfg = art
    top = cfg.mcs.entries[-1][1] * cfg.cell.noise().bandwidth_hz
    assert top == pytest.approx(19.997e6, rel=1e-4)
    kpi = rows(d, "cp", "kpi_steps.csv")
    checks.check_kpi_rows(kpi, top)
    lost_count = copy.deepcopy(kpi)
    lost_count[2]["ta_bin_4"] = str(int(lost_count[2]["ta_bin_4"]) + 1)
    with pytest.raises(checks.CheckError, match="histogram"):
        checks.check_kpi_rows(lost_count, top)
    swapped = copy.deepcopy(kpi)
    swapped[2]["p10"], swapped[2]["p15"] = kpi[2]["p15"], kpi[2]["p10"]
    with pytest.raises(checks.CheckError, match="percentiles decrease"):
        checks.check_kpi_rows(swapped, top)
    above_top = copy.deepcopy(kpi)
    above_top[2]["mean"] = repr(top * 1.001)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_kpi_rows(above_top, top)


def test_throughput_stats_p10_swapped_with_p15(art, tmp_path):
    d, _ = art
    checks.check_throughput_stats(d / "eval")
    bad = tmp_path / "eval"
    shutil.copytree(d / "eval", bad)
    stats = checks.read_rows(bad / "throughput_stats.csv")
    stats[0]["throughput_bps"], stats[1]["throughput_bps"] = (
        stats[1]["throughput_bps"], stats[0]["throughput_bps"])
    write_rows(bad / "throughput_stats.csv", stats)
    with pytest.raises(checks.CheckError, match="throughput stats"):
        checks.check_throughput_stats(bad)


def test_baseline_switches_nothing(art):
    d, _ = art
    samples = rows(d, "dfts", "ue_samples.csv")
    checks.check_baseline(rows(d, "dfts", "switch_events.csv"), samples, checks.DFTS)
    with pytest.raises(checks.CheckError, match="switch events"):
        checks.check_baseline(rows(d, "train", "switch_events.csv")[:1], samples, checks.DFTS)
    with pytest.raises(checks.CheckError, match="ends on"):
        checks.check_baseline([], rows(d, "cp", "ue_samples.csv"), checks.DFTS)


def test_paired_streams_share_distances(art):
    d, _ = art
    sets = [rows(d, run, "ue_samples.csv") for run in ("eval", "cp", "dfts")]
    checks.check_paired_streams(*sets)
    sets[2][3]["distance_m"] = repr(float(sets[2][3]["distance_m"]) + 1.0)
    with pytest.raises(checks.CheckError, match="paired streams"):
        checks.check_paired_streams(*sets)


def test_fixed_waveform_crossover(art):
    d, _ = art
    cp, dfts = rows(d, "cp", "ue_samples.csv"), rows(d, "dfts", "ue_samples.csv")
    checks.check_crossover(cp, dfts)
    with pytest.raises(checks.CheckError, match="crossover"):
        checks.check_crossover(dfts, cp)


def test_papr_cp_99_9_moved_by_1_db(art):
    d, _ = art
    table = rows(d, "papr", "papr.csv")
    checks.check_papr(table)
    assert [round(checks.gaussian_papr_db(q), 2) for q in checks.PAPR_QUANTILES] == [3.62, 6.63, 8.39]
    moved = copy.deepcopy(table)
    cp999 = next(r for r in moved if r["waveform"] == checks.CP and r["percentile"] == "99.9")
    cp999["papr_db"] = repr(float(cp999["papr_db"]) + 1.0)
    with pytest.raises(checks.CheckError, match="Gaussian envelope"):
        checks.check_papr(moved)
    above = copy.deepcopy(table)
    df90 = next(r for r in above if r["waveform"] == checks.DFTS and r["percentile"] == "90.0")
    df90["papr_db"] = "4.0"
    with pytest.raises(checks.CheckError, match="not below"):
        checks.check_papr(above)


def test_hold_checkpoint_picks_the_do_nothing_action(art):
    d, _ = art
    net = orchestrator.QNetwork.load(d / "hold.txt")
    states = np.random.default_rng(0).normal(size=(16, 8))
    assert set(np.argmax(net.forward(states), axis=1)) == {inputs.HOLD_ACTION}
