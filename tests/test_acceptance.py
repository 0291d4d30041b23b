"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figure (run with -s or -rP to see them).

The heavier criteria share one desk-profile training/evaluation bundle
through a session fixture; everything is seeded and reproducible.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from dpwsim.agent import AgentConfig, QNetwork, compute_reward
from dpwsim.config import load_config
from dpwsim.dpws_fsm import DpwsConfig, DpwsState, on_srs
from dpwsim.kpi import Histogram12, descriptor_d, descriptor_r
from dpwsim.link_model import CP_OFDM, DFT_S_OFDM, NoiseConfig, noise_power_dbm
from dpwsim.orchestrator import run_baseline, run_evaluation, run_training
from dpwsim.waveform import papr_ensemble
from dpwsim.kpi import ThroughputStats

from dpws_reference import reference_run

ACCEPT_SEED = 11


def ue_samples(run_dir: Path) -> np.ndarray:
    with open(run_dir / "ue_samples.csv") as fh:
        return np.array([float(r["throughput_bps"]) for r in csv.DictReader(fh)])


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """Desk-profile training, greedy evaluation and both fixed baselines,
    shared by the system-level criteria."""
    root = tmp_path_factory.mktemp("desk-accept")
    cfg = load_config(profile="desk", seed=ACCEPT_SEED)
    t0 = time.time()
    ckpt = run_training(cfg, root / "train")
    train_s = time.time() - t0
    run_evaluation(cfg, root / "eval", ckpt)
    t1 = time.time()
    run_baseline(cfg, root / "cp", CP_OFDM)
    run_baseline(cfg, root / "dfts", DFT_S_OFDM)
    baseline_s = time.time() - t1
    return {
        "root": root,
        "cfg": cfg,
        "train_seconds": train_s,
        "baseline_seconds": baseline_s,
        "total_seconds": time.time() - t0,
    }


def test_criterion_1_dpws_matches_reference_interpreter():
    rng = np.random.default_rng(1001)
    n_traces, trace_len = 100_000, 10
    counters = rng.integers(1, 6, size=n_traces)
    # the reference also runs the procedure's window T, of at least the
    # counter; the machine, which has none, matches it, so T never binds
    windows = np.maximum(counters, rng.integers(1, 6, size=n_traces))
    starts = rng.random(n_traces) < 0.5
    zetas = rng.uniform(-2.0, 2.0, size=n_traces)
    xis = rng.uniform(0.0, 3.0, size=n_traces)
    gammas = rng.uniform(-4.0, 6.0, size=(n_traces, trace_len))
    t0 = time.time()
    for i in range(n_traces):
        cfg = DpwsConfig(
            zeta_db=zetas[i],
            xi_db=xis[i],
            counter=int(counters[i]),
            guard_slots=0,
        )
        start = CP_OFDM if starts[i] else DFT_S_OFDM
        trace = gammas[i]
        state = DpwsState(waveform=start)
        got = []
        for k in range(trace_len):
            state, switched = on_srs(state, cfg, trace[k])
            if switched:
                got.append((k, state.waveform))
        want = reference_run(start, trace, zetas[i], xis[i], int(counters[i]), int(windows[i]))
        assert got == want, f"divergence on trace {i}"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"ACCEPT 1: switching machine == reference on {n_traces} traces ({elapsed:.1f}s) PASS")


def test_criterion_2_descriptor_identity():
    rng = np.random.default_rng(1002)
    checked = 0
    for _ in range(10_000):
        counts = rng.integers(0, 40, size=12)
        if counts.sum() == 0:
            counts[rng.integers(0, 12)] = 1
        h = Histogram12(counts=counts)
        for ell in range(2, 13):
            d = descriptor_d(h, ell)
            if d >= 1.0:
                continue
            r = descriptor_r(h, ell)
            expected = d / (1.0 - d)
            rel = abs(r - expected) / max(abs(expected), 1e-300)
            assert rel < 1e-12
            checked += 1
    print(f"ACCEPT 2: tail-ratio identity on 10000 histograms ({checked} probes) PASS")


def test_criterion_4_papr_ordering():
    t0 = time.time()
    rng_cp = np.random.default_rng(1004)
    rng_df = np.random.default_rng(1004)
    cp = papr_ensemble(CP_OFDM, "qpsk", 10_000, 0.999, rng_cp)
    df = papr_ensemble(DFT_S_OFDM, "qpsk", 10_000, 0.999, rng_df)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    assert cp - df >= 1.0
    print(f"ACCEPT 4: 99.9% PAPR gap {cp - df:.2f} dB (cp {cp:.2f}, single-carrier {df:.2f}, {elapsed:.0f}s) PASS")


def test_criterion_5_noise_formula():
    n0_dbw = noise_power_dbm(NoiseConfig(15e3, 20, 5.0)) - 30.0
    assert abs(n0_dbw - (-133.44)) < 0.01
    print(f"ACCEPT 5: thermal noise {n0_dbw:.4f} dBW (ref -133.44 +- 0.01) PASS")


def test_criterion_6_reward_arithmetic():
    prev = ThroughputStats(*([1e6] * 9))
    up1 = ThroughputStats(*([1.01e6] * 9))
    up10 = ThroughputStats(*([1.10e6] * 9))
    cfg = AgentConfig()
    r = compute_reward(prev, up1, cfg)
    assert abs(r - 0.45) < 1e-12
    assert compute_reward(prev, up10, cfg) == 2.0
    print("ACCEPT 6: uniform +1% reward 0.45, raw 4.5 clips to 2.0 PASS")


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(1007)
    q = QNetwork(rng, AgentConfig())
    states = rng.uniform(-1.0, 1.0, size=(24, 8))
    actions = rng.integers(0, 9, size=24)
    targets = rng.uniform(-2.0, 2.0, size=24)
    _, grads = q.loss_and_grads(states, actions, targets)
    eps = 1e-6
    worst = 0.0
    for p, g in zip(q.parameters(), grads):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        idx = rng.choice(flat.size, size=min(60, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = q.loss_and_grads(states, actions, targets)
            flat[i] = orig - eps
            lm, _ = q.loss_and_grads(states, actions, targets)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            rel = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4
    print(f"ACCEPT 7: worst gradient mismatch {worst:.2e} (< 1e-4) PASS")


def test_criterion_8_fixed_waveform_crossover(desk_runs):
    root = desk_runs["root"]
    cp = ue_samples(root / "cp")
    df = ue_samples(root / "dfts")
    p10_cp, p10_df = np.percentile(cp, 10), np.percentile(df, 10)
    p80_cp, p80_df = np.percentile(cp, 80), np.percentile(df, 80)
    assert p10_df > p10_cp
    assert p80_cp > p80_df
    assert desk_runs["baseline_seconds"] < 600.0
    print(
        f"ACCEPT 8: p10 single-carrier +{(p10_df / p10_cp - 1) * 100:.1f}%, "
        f"p80 multicarrier +{(p80_cp / p80_df - 1) * 100:.1f}% "
        f"({desk_runs['baseline_seconds']:.0f}s) PASS"
    )


def test_criterion_9_trained_agent_vs_baselines(desk_runs):
    root = desk_runs["root"]
    ai = ue_samples(root / "eval")
    cp = ue_samples(root / "cp")
    df = ue_samples(root / "dfts")
    p10 = {k: np.percentile(v, 10) for k, v in (("ai", ai), ("cp", cp), ("df", df))}
    means = {k: v.mean() for k, v in (("ai", ai), ("cp", cp), ("df", df))}
    assert p10["ai"] >= max(p10["cp"], p10["df"]) - 1e-9
    assert means["ai"] >= 0.99 * max(means["cp"], means["df"])
    assert desk_runs["total_seconds"] < 3600.0
    print(
        f"ACCEPT 9: trained p10 {p10['ai'] / 1e6:.3f} Mbps >= max fixed "
        f"{max(p10['cp'], p10['df']) / 1e6:.3f}; mean ratio "
        f"{means['ai'] / max(means['cp'], means['df']):.4f} >= 0.99 "
        f"({desk_runs['total_seconds']:.0f}s) PASS"
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg_lines = (
        "[run]\nprofile = ci\nseed = 77\n"
        "[episode]\nues_per_episode = 20\nslots_per_step = 60\n"
        "train_episodes = 2\ntrain_steps = 4\neval_episodes = 2\neval_steps = 3\n"
        "[agent]\nbuffer_size = 12\nbatch_size = 6\n"
    )
    ini = tmp_path / "c.ini"
    ini.write_text(cfg_lines)
    from dpwsim.cli import main

    for sub, extra in (("train", []), ("papr", ["--blocks", "200"])):
        out_a, out_b = tmp_path / f"{sub}-a", tmp_path / f"{sub}-b"
        assert main([sub, "--config", str(ini), "--out", str(out_a)] + extra) == 0
        assert main([sub, "--config", str(ini), "--out", str(out_b)] + extra) == 0
        for fa in sorted(out_a.glob("*.csv")):
            fb = out_b / fa.name
            assert fa.read_bytes() == fb.read_bytes(), f"{sub}:{fa.name} differs"
    print("ACCEPT 10: repeated runs byte-identical across all CSV artifacts PASS")


def test_criterion_11_learning_progress_ci():
    t0 = time.time()
    passes = 0
    details = []
    for seed in (1, 2, 3):
        cfg = load_config(profile="ci", seed=seed)
        import tempfile

        with tempfile.TemporaryDirectory(prefix="dpwsim-ci-") as tmp:
            run_training(cfg, Path(tmp) / "train")
            with open(Path(tmp) / "train" / "episode_rewards.csv") as fh:
                rewards = np.array(
                    [float(r["total_reward"]) for r in csv.DictReader(fh)]
                )
        q = max(len(rewards) // 5, 1)
        first, last = rewards[:q].mean(), rewards[-q:].mean()
        details.append(f"seed {seed}: {first:+.2f} -> {last:+.2f}")
        if last > first:
            passes += 1
    assert passes >= 2, "; ".join(details)
    print(
        f"ACCEPT 11: learning progress on {passes}/3 seeds ({'; '.join(details)}; "
        f"{time.time() - t0:.0f}s) PASS"
    )
