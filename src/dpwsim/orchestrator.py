"""Episode runner: drops terminals, advances the cell one step at a time
under the current switching parameters, aggregates KPIs, steps the learning
agent and writes all run artifacts.

The cell is a ``Cell`` of arrays over its terminals, and a step is an array
program over (slot, terminal), run in blocks of slots: per block, the
fading trajectory, the gains and the SNR budgets come from a fixed number
of numpy calls, the switching machine runs over all of the block's
soundings at once with one pass per switch (``dpws_fsm.on_srs_block``),
and the throughput mapping runs once. The sounding statistics (mean
gamma, timing-advance draw, KPI binning) run once per step over the
soundings of all blocks. The slot-by-slot loop it replaces is kept as a
test oracle (``tests/step_reference.py``); both give identical outputs.

Randomness is organized as named substreams of the run seed so that
training, evaluation and the fixed-waveform baselines draw independent (or
deliberately shared) realizations: evaluation and baseline runs reuse the
same per-episode streams, which makes their fading traces slot-identical
and the comparisons paired. Every output is a pure function of
(config, seed).
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .agent import (
    AgentConfig,
    QNetwork,
    ReplayBuffer,
    RewardSpec,
    build_state,
    compute_reward,
    decode_action,
    epsilon_at,
    select_action,
    train_step,
)
from .config import ConfigError, SimConfig
# on_srs, the scalar form of the switching machine, stays bound here so that
# bench/spans.py can time it by name like the other helpers
from .dpws_fsm import on_srs, on_srs_block  # noqa: F401
from .kpi import (
    CellKpiReport,
    Histogram12,
    REWARD_FACTOR_IDS,
    SNR_BIN_EDGES,
    TA_BIN_EDGES,
    ThroughputStats,
    bin_snr,
    bin_ta,
    throughput_percentiles,
    timing_advance_percent,
)
from .link_model import (
    CP_OFDM,
    DFT_S_OFDM,
    compute_snr,
    draw_fading,
    evolve_fading,
    map_throughput,
    noise_power_dbm,
    path_loss_uma,
    precoded_gain,
    select_tx_port,
    sounding_gain,
    transmit_power,
)

# substream labels under the run seed
STREAM_TRAIN, STREAM_EVAL, STREAM_AGENT, STREAM_PAPR = 0, 1, 2, 3

# slots per block of the step kernel's channel arrays; bounds its working set
BLOCK_SLOTS = 128


@dataclass
class Cell:
    """The dropped terminals as arrays, one entry per terminal (its index is
    its ``ue_id``): geometry with the frozen shadowing folded into the path
    loss, switching state, and the outcomes of the last step. Everyone
    starts on the multi-port waveform with a cleared switching machine."""

    distance_m: np.ndarray
    path_loss_db: np.ndarray
    # switching state: on DFT-S-OFDM, the occasion counter, and the guard
    # slots carried into the next step
    is_df: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)
    guard_end: np.ndarray = field(init=False)
    # the last step's outcomes; set by simulate_step
    throughput_bps: np.ndarray = field(init=False)
    bearing_slots: np.ndarray = field(init=False)
    outage_slots: np.ndarray = field(init=False)
    guard_slots: np.ndarray = field(init=False)

    def __post_init__(self):
        n = len(self)
        self.is_df = np.zeros(n, dtype=bool)
        self.c = np.zeros(n, dtype=np.int64)
        self.guard_end = np.zeros(n, dtype=np.int64)
        self.throughput_bps = np.zeros(n)
        self.bearing_slots = np.zeros(n, dtype=np.int64)
        self.outage_slots = np.zeros(n, dtype=np.int64)
        self.guard_slots = np.zeros(n, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.distance_m)


@dataclass
class EpisodeStreams:
    drop: np.random.Generator
    fading: np.random.Generator
    ta: np.random.Generator


def episode_streams(seed: int, lane: int, episode: int) -> EpisodeStreams:
    root = np.random.SeedSequence([seed, lane, episode])
    drop, fading, ta = [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(3)]
    return EpisodeStreams(drop=drop, fading=fading, ta=ta)


def agent_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, STREAM_AGENT])))


def drop_ues(cfg: SimConfig, rng: np.random.Generator) -> tuple[Cell, np.ndarray]:
    """Uniform distances in the configured annulus, per-terminal lognormal
    shadowing frozen for the episode, fresh fading; returns the cell and
    its (terminal, rx, tx) fading array."""
    n = cfg.episode.ues_per_episode
    cell = cfg.cell
    distances = rng.uniform(cell.min_distance_m, cell.max_distance_m, size=n)
    shadow = rng.normal(0.0, cell.shadowing_sigma_db, size=n)
    fading = draw_fading((n, cell.n_rx, 2), rng)
    pl = path_loss_uma(distances, cell.carrier_ghz) + shadow
    return Cell(distance_m=distances, path_loss_db=pl), fading


def simulate_step(
    cell: Cell,
    fading: np.ndarray,
    zeta_db: float,
    xi_db: float,
    cfg: SimConfig,
    streams: EpisodeStreams,
    *,
    dpws_enabled: bool = True,
    events: list | None = None,
    episode: int = 0,
    slot_offset: int = 0,
    trace: dict | None = None,
) -> tuple[CellKpiReport, np.ndarray]:
    """Advance one step (slots_per_step slots) and aggregate its KPIs.

    The step is an array program over (slot, terminal), run block by
    block of ``BLOCK_SLOTS`` slots to bound its working set. Fading evolves
    every slot for every terminal regardless of switching decisions, so the
    channel trace and the sounding SNR gamma do not depend on the policy;
    each block computes them first. The switching machine then runs over
    the block's soundings for all terminals at once, and its switches give
    the per-slot waveform and guard masks. Last come the SNR budgets, each
    only if some slot of the block is on its waveform (a fixed-waveform
    baseline never computes the other one), and one throughput mapping of
    the block. The gains are elementwise passes over (slot, terminal)
    slabs of the trajectory (see ``link_model.precoded_gain``).

    Each block keeps the gamma and heard-terminal rows of the soundings
    that hear anyone. After the last block the step sums gamma over them,
    draws their timing-advance jitter in one draw (the same numbers, in the
    same order, as one draw per block) and bins SNR and timing advance
    once.

    Reads the switching state from ``cell`` and writes back the new state
    and the step's per-terminal outcomes; returns the report and the
    evolved fading array. ``trace``, when given, receives the per-slot
    (slot, terminal) arrays ``is_df``, ``silent`` and ``tp``.
    """
    n = len(cell)
    cell_cfg, ep_cfg = cfg.cell, cfg.episode
    n_slots, period = ep_cfg.slots_per_step, ep_cfg.srs_period_slots
    dpws_cfg = replace(cfg.dpws, zeta_db=zeta_db, xi_db=xi_db)
    noise = cell_cfg.noise()
    n0 = noise_power_dbm(noise)
    pl = cell.path_loss_db
    p_cp = transmit_power(cfg.power, pl, CP_OFDM)
    p_df = transmit_power(cfg.power, pl, DFT_S_OFDM)

    # switching state; a terminal is silent while slot < guard_end, and a
    # switch at slot s silences slots s+1..s+guard
    is_df, c, guard_end = cell.is_df, cell.c, cell.guard_end

    tp_slots = np.empty((n_slots, n))
    bearing = np.zeros(n, dtype=np.int64)
    outage_ct = np.zeros(n, dtype=np.int64)
    guard_ct = np.zeros(n, dtype=np.int64)
    gamma_rows, heard_rows = [], []
    if trace is not None:
        trace["is_df"] = np.empty((n_slots, n), dtype=bool)
        trace["silent"] = np.empty((n_slots, n), dtype=bool)
        trace["tp"] = tp_slots

    # slot blocks start on sounding slots
    block = period * max(1, BLOCK_SLOTS // period)
    h = fading
    for b0 in range(0, n_slots, block):
        b1 = min(b0 + block, n_slots)
        slots = np.arange(b0, b1)
        sounding_slots = slots[::period]

        # channel and sounding SNR gamma. gamma uses a waveform-independent
        # power reference (the multi-port cap), so a switch does not shift
        # gamma by the back-off gap and thresholds compare like with like.
        traj = evolve_fading(h, cell_cfg.fading_rho, streams.fading, b1 - b0)
        h = traj[-1]
        gamma = compute_snr(p_cp, pl, sounding_gain(traj[::period]), n0)

        # switching machine over the block's soundings, then the per-slot
        # masks from its switches: a switch at slot s toggles the waveform
        # from row s+1 on and silences the rows before its guard end. The
        # last of the b1 - b0 + 1 rows is the state after the block.
        df_start, guard_start, sw_snd = is_df, guard_end, ()
        if dpws_enabled:
            is_df, c, guard_end, sw_snd, sw_ue = on_srs_block(
                is_df, c, guard_end, gamma, sounding_slots, dpws_cfg
            )
        if len(sw_snd):
            sw_slot = sounding_slots[sw_snd]
            row = sw_slot - b0 + 1
            toggles = np.zeros((b1 - b0 + 1, n), dtype=bool)
            toggles[0] = df_start
            toggles[row, sw_ue] = True
            df_rows = np.logical_xor.accumulate(toggles, axis=0)
            ends = np.zeros((b1 - b0 + 1, n), dtype=np.int64)
            ends[0] = guard_start
            ends[row, sw_ue] = sw_slot + 1 + dpws_cfg.guard_slots
            is_df_slots = df_rows[:-1]
            silent = slots[:, None] < np.maximum.accumulate(ends[:-1], axis=0)
            if events is not None:
                to_df = df_rows[row, sw_ue].tolist()
                for slot, i, df in zip(sw_slot.tolist(), sw_ue.tolist(), to_df):
                    frm, to = (CP_OFDM, DFT_S_OFDM) if df else (DFT_S_OFDM, CP_OFDM)
                    events.append((episode, i, slot_offset + slot, frm, to))
        else:
            is_df_slots = np.broadcast_to(is_df, (b1 - b0, n))
            silent = slots[:, None] < guard_end

        # link budgets, each only if some slot reads it; snr_df carries the
        # single-carrier penalty of the throughput mapping. Then one
        # throughput mapping for the block.
        all_df = is_df_slots.all()
        if not all_df:
            snr = compute_snr(p_cp, pl, precoded_gain(traj), n0)
        if is_df_slots.any():
            snr_df = compute_snr(p_df, pl, select_tx_port(traj), n0)
            snr_df -= cell_cfg.dfts_snr_penalty_db
            if all_df:
                snr = snr_df
            else:
                np.copyto(snr, snr_df, where=is_df_slots)
        tp, outage = map_throughput(snr, cfg.mcs, noise.bandwidth_hz)
        tp[silent] = 0.0
        tp_slots[b0:b1] = tp
        bearing += (~silent & ~outage).sum(axis=0)
        outage_ct += (~silent & outage).sum(axis=0)
        guard_ct += silent.sum(axis=0)
        if trace is not None:
            trace["is_df"][b0:b1] = is_df_slots
            trace["silent"][b0:b1] = silent

        # the soundings that hear anyone, kept for the step's statistics
        heard = ~silent[::period]
        sounded = heard.any(axis=1)
        gamma_rows.append(gamma[sounded])
        heard_rows.append(heard[sounded])

    # sounding statistics over the heard terminals of the soundings that
    # hear anyone, once per step; only those soundings draw timing-advance
    # jitter, in one draw of all their rows. gamma is summed per sounding
    # over its heard terminals (a row sum when all are heard), then over
    # soundings in slot order.
    gamma, heard = np.concatenate(gamma_rows), np.concatenate(heard_rows)
    # free the block copies before the step's larger temporaries: held
    # together they raise the heap's high-water mark, and so peak RSS
    del gamma_rows, heard_rows
    sums = gamma.sum(axis=1)
    for k in np.flatnonzero(~heard.all(axis=1)):
        sums[k] = gamma[k, heard[k]].sum()
    gamma_sum = 0.0
    for total in sums.tolist():
        gamma_sum += total
    gamma_n = int(heard.sum())
    ta = timing_advance_percent(
        cell.distance_m, cell_cfg.cell_range_m, cell_cfg.ta_jitter_pct, streams.ta,
        heard.shape,
    )
    snr_hist = bin_snr(Histogram12(edges=SNR_BIN_EDGES), gamma[heard])
    ta_hist = bin_ta(Histogram12(edges=TA_BIN_EDGES), ta[heard])

    cell.is_df, cell.c, cell.guard_end = is_df, c, np.maximum(guard_end - n_slots, 0)
    # a contiguous row per terminal: its mean sums in the same order as a
    # mean over the terminal's column would
    cell.throughput_bps = np.ascontiguousarray(tp_slots.T).mean(axis=1)
    cell.bearing_slots, cell.outage_slots, cell.guard_slots = bearing, outage_ct, guard_ct

    # cell throughput distribution over terminals; scheduling drops
    # terminals that spent the whole transmission in outage
    included = bearing > 0
    stats = throughput_percentiles(tp_slots.mean(axis=0)[included])
    mean_gamma = gamma_sum / gamma_n if gamma_n else float("nan")
    report = CellKpiReport(
        snr_hist=snr_hist, ta_hist=ta_hist, throughput=stats, mean_gamma_db=mean_gamma
    )
    return report, h.copy()


# ---------------------------------------------------------------------------
# run artifacts

KPI_HEADER = (
    ["episode", "step", "zeta_db", "xi_db", "mean_snr_db"]
    + [f"snr_bin_{i}" for i in range(1, 13)]
    + [f"ta_bin_{i}" for i in range(1, 13)]
    + list(REWARD_FACTOR_IDS)
)


def _fmt(x) -> str:
    # float() first: numpy >= 2 gives numpy scalars a repr like
    # "np.float64(1.5)", which no CSV reader parses as a number
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


class RunWriter:
    """Owns one output directory and its CSV artifacts."""

    def __init__(self, outdir: str | Path, cfg: SimConfig, mode: str):
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "tool": "dpwsim",
            "version": __version__,
            "mode": mode,
            "seed": cfg.seed,
            "config": cfg.describe(),
        }
        (self.dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self._kpi = open(self.dir / "kpi_steps.csv", "w", newline="")
        self._kpi_csv = csv.writer(self._kpi)
        self._kpi_csv.writerow(KPI_HEADER)

    def kpi_row(self, episode: int, step: int, zeta: float, xi: float, report: CellKpiReport):
        row = (
            [episode, step, zeta, xi, report.mean_gamma_db]
            + [int(c) for c in report.snr_hist.counts]
            + [int(c) for c in report.ta_hist.counts]
            + list(report.throughput.as_array())
        )
        self._kpi_csv.writerow([_fmt(v) for v in row])

    def events(self, rows) -> None:
        with open(self.dir / "switch_events.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["episode", "ue_id", "slot", "from_waveform", "to_waveform"])
            for row in rows:
                w.writerow([_fmt(v) for v in row])

    def ue_samples(self, rows) -> None:
        with open(self.dir / "ue_samples.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["episode", "ue_id", "distance_m", "final_waveform", "throughput_bps"])
            for row in rows:
                w.writerow([_fmt(v) for v in row])

    def throughput_stats(self, stats: ThroughputStats) -> None:
        with open(self.dir / "throughput_stats.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["factor", "throughput_bps"])
            for name, value in zip(REWARD_FACTOR_IDS, stats.as_array()):
                w.writerow([name, _fmt(float(value))])

    def close(self) -> None:
        self._kpi.close()


def _write_training_log(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "epsilon", "loss", "reward"])
        for row in rows:
            w.writerow(["" if v is None else _fmt(v) for v in row])


# ---------------------------------------------------------------------------
# run modes


def run_training(cfg: SimConfig, outdir: str | Path) -> Path:
    """Full training run; returns the checkpoint path."""
    writer = RunWriter(outdir, cfg, "train")
    rng = agent_rng(cfg.seed)
    qnet = QNetwork(rng, cfg.agent)
    averaged = copy.deepcopy(qnet)  # Polyak average of qnet, saved as the checkpoint
    buffer = ReplayBuffer(cfg.agent.buffer_size)
    reward_spec = RewardSpec(theta=cfg.agent.theta, clip=cfg.agent.reward_clip)
    ep_cfg = cfg.episode
    total_steps = ep_cfg.train_episodes * ep_cfg.train_steps
    events: list = []
    log_rows = []
    global_step = 0
    episode_rewards = []

    for episode in range(ep_cfg.train_episodes):
        streams = episode_streams(cfg.seed, STREAM_TRAIN, episode)
        cell, fading = drop_ues(cfg, streams.drop)
        zeta, xi = cfg.dpws.zeta_db, cfg.dpws.xi_db
        prev_state = None
        prev_stats = None
        ep_reward = 0.0
        policy = copy.deepcopy(qnet)  # acts for this whole episode
        for step in range(ep_cfg.train_steps):
            eps = epsilon_at(
                global_step, total_steps, cfg.agent.epsilon_start, cfg.agent.epsilon_min
            )
            action = None
            if step > 0:
                action = select_action(policy, prev_state, eps, rng)
                zeta, xi = decode_action(action, zeta, xi, cfg.agent)
            report, fading = simulate_step(
                cell,
                fading,
                zeta,
                xi,
                cfg,
                streams,
                events=events,
                episode=episode,
                slot_offset=step * ep_cfg.slots_per_step,
            )
            state = build_state(report, zeta, xi)
            reward = None
            loss = None
            if step > 0:
                reward = compute_reward(prev_stats, report.throughput, reward_spec)
                buffer.push(prev_state, action, reward, state)
                loss = train_step(qnet, buffer, rng)
                averaged.track(qnet)
                ep_reward += reward
            writer.kpi_row(episode, step, zeta, xi, report)
            log_rows.append((global_step, eps, loss, reward))
            prev_state = state
            prev_stats = report.throughput
            global_step += 1
        episode_rewards.append(ep_reward)

    ckpt = writer.dir / "checkpoint.txt"
    averaged.save(ckpt)
    writer.events(events)
    _write_training_log(writer.dir / "training_log.csv", log_rows)
    with open(writer.dir / "episode_rewards.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "total_reward"])
        for i, r in enumerate(episode_rewards):
            w.writerow([i, _fmt(r)])
    writer.close()
    return ckpt


def _policy_episode(
    cfg: SimConfig, episode: int, qnet: QNetwork | None, fixed_waveform: str | None
):
    """One greedy-policy (``qnet``) or fixed-waveform episode; returns (kpi
    rows, per-terminal final-step samples, switch events)."""
    streams = episode_streams(cfg.seed, STREAM_EVAL, episode)
    cell, fading = drop_ues(cfg, streams.drop)
    cell.is_df[:] = fixed_waveform == DFT_S_OFDM
    zeta, xi = cfg.dpws.zeta_db, cfg.dpws.xi_db
    events: list = []
    rows = []
    prev_state = None
    for step in range(cfg.episode.eval_steps):
        if step > 0 and qnet is not None:
            action = int(np.argmax(qnet.forward(prev_state)))
            zeta, xi = decode_action(action, zeta, xi, cfg.agent)
        report, fading = simulate_step(
            cell,
            fading,
            zeta,
            xi,
            cfg,
            streams,
            dpws_enabled=fixed_waveform is None,
            events=events,
            episode=episode,
            slot_offset=step * cfg.episode.slots_per_step,
        )
        if qnet is not None:
            prev_state = build_state(report, zeta, xi)
        rows.append((episode, step, zeta, xi, report))
    # the terminals that carried data in the last step
    ue_id = np.flatnonzero(cell.bearing_slots > 0)
    waveform = np.where(cell.is_df[ue_id], DFT_S_OFDM, CP_OFDM).tolist()
    dist, tp = cell.distance_m[ue_id].tolist(), cell.throughput_bps[ue_id].tolist()
    samples = [(episode, *row) for row in zip(ue_id.tolist(), dist, waveform, tp)]
    return rows, samples, events


def _run_policy(
    cfg: SimConfig,
    outdir: str | Path,
    mode: str,
    qnet: QNetwork | None,
    fixed_waveform: str | None,
    jobs: int = 1,
) -> ThroughputStats:
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    writer = RunWriter(outdir, cfg, mode)
    episodes = range(cfg.episode.eval_episodes)
    # the pool forks all its workers at the first submit, so size it by
    # the work there is
    jobs = min(jobs, len(episodes))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    _policy_episode,
                    [cfg] * len(episodes),
                    episodes,
                    [qnet] * len(episodes),
                    [fixed_waveform] * len(episodes),
                )
            )
    else:
        results = [_policy_episode(cfg, ep, qnet, fixed_waveform) for ep in episodes]

    all_events: list = []
    all_samples: list = []
    for rows, samples, events in results:
        for episode, step, zeta, xi, report in rows:
            writer.kpi_row(episode, step, zeta, xi, report)
        all_samples.extend(samples)
        all_events.extend(events)
    writer.events(all_events)
    writer.ue_samples(all_samples)
    stats = throughput_percentiles([s[4] for s in all_samples])
    writer.throughput_stats(stats)
    writer.close()
    return stats


def run_evaluation(
    cfg: SimConfig, outdir: str | Path, checkpoint: str | Path, jobs: int = 1
) -> ThroughputStats:
    """Greedy evaluation of a trained network on independent drops."""
    ckpt = Path(checkpoint)
    if not ckpt.is_file():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    try:
        qnet = QNetwork.load(ckpt, cfg.agent)
    except ValueError as exc:  # a malformed checkpoint is bad input, like a missing one
        raise ConfigError(str(exc)) from exc
    return _run_policy(cfg, outdir, "evaluate", qnet, None, jobs)


def run_baseline(
    cfg: SimConfig, outdir: str | Path, waveform: str, jobs: int = 1
) -> ThroughputStats:
    """Fixed-waveform reference run on the evaluation drops."""
    if waveform not in (CP_OFDM, DFT_S_OFDM):
        raise ValueError(f"unknown waveform {waveform!r}")
    return _run_policy(cfg, outdir, f"baseline-{waveform}", None, waveform, jobs)


def compare_runs(dir_a: str | Path, dir_b: str | Path) -> list[tuple]:
    """Per-factor relative (%) and absolute (Mbps) gains of run A over B."""

    def read(d):
        path = Path(d) / "throughput_stats.csv"
        if not path.is_file():
            raise FileNotFoundError(f"missing stats file: {path}")
        out = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                out[row["factor"]] = float(row["throughput_bps"])
        return out

    a, b = read(dir_a), read(dir_b)
    if list(a) != list(b) or list(a) != list(REWARD_FACTOR_IDS):
        raise ValueError("percentile sets of the two runs do not match")
    rows = []
    for factor in REWARD_FACTOR_IDS:
        va, vb = a[factor], b[factor]
        rel = (va - vb) / vb * 100.0 if vb != 0.0 else float("inf")
        rows.append((factor, va, vb, rel, (va - vb) / 1e6))
    return rows


def write_comparison(path: str | Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["factor", "a_bps", "b_bps", "gain_pct", "gain_mbps"])
        for row in rows:
            w.writerow([_fmt(v) for v in row])
