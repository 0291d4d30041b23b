"""Episode runner: drops terminals, advances the cell one step at a time
under the thresholds a policy picks, aggregates KPIs, steps the learning
agent and writes all run artifacts. Training, evaluation and both
fixed-waveform baselines share one episode loop (``_episode``): the policy
is epsilon-greedy while training, greedy in evaluation and absent in a
baseline. One function (``_write_csv``) writes every CSV file of a run.

The cell is a ``Cell`` of arrays over its terminals, and a step is one
array program over (slot, terminal): the fading trajectory, the gains, the
SNR budgets, the throughput mapping and the sounding statistics each come
from a fixed number of numpy calls over the whole step, and the switching
machine takes all of its soundings in one call. The slot-by-slot loop it
replaces is kept as a test oracle (``tests/step_reference.py``); both give
identical outputs.

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
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .agent import (
    QNetwork,
    ReplayBuffer,
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


@dataclass
class Cell:
    """The dropped terminals as arrays, one entry per terminal (its index is
    its ``ue_id``): geometry with the frozen shadowing folded into the path
    loss, the step's fading buffers, switching state, and the outcomes of
    the last step. Everyone starts on the multi-port waveform with a
    cleared switching machine."""

    distance_m: np.ndarray
    path_loss_db: np.ndarray
    # every step's fading draw and trajectory go into these two buffers
    # (see link_model.evolve_fading); they live as long as the cell, so an
    # episode reuses its pages and a run does not keep them past it
    fading_noise: np.ndarray
    trajectory: np.ndarray
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
    shadowing frozen for the episode, fresh fading; returns the cell, with
    fading buffers for steps of ``slots_per_step`` slots, and its
    (terminal, rx, tx) fading array."""
    n = cfg.episode.ues_per_episode
    n_slots = cfg.episode.slots_per_step
    cell = cfg.cell
    distances = rng.uniform(cell.min_distance_m, cell.max_distance_m, size=n)
    shadow = rng.normal(0.0, cell.shadowing_sigma_db, size=n)
    fading = draw_fading((n, cell.n_rx, 2), rng)
    pl = path_loss_uma(distances, cell.carrier_ghz) + shadow
    return Cell(
        distance_m=distances,
        path_loss_db=pl,
        fading_noise=np.empty((n_slots, 2) + fading.shape),
        trajectory=np.empty((n_slots,) + fading.shape, dtype=complex),
    ), fading


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

    The step is one array program over (slot, terminal). Fading evolves
    every slot for every terminal regardless of switching decisions, so the
    channel trace and the sounding SNR gamma do not depend on the policy;
    they come first. The switching machine then takes all the step's
    soundings in one call (``dpws_fsm.on_srs_block``, which bounds its own
    passes), and its switches give the per-slot waveform and guard masks.
    Last come the SNR budgets, each only if some slot is on its waveform (a
    fixed-waveform baseline never computes the other one), and one
    throughput mapping. The gains are elementwise passes over (slot,
    terminal) slabs of the trajectory (see ``link_model.precoded_gain``).

    Reads the switching state from ``cell`` and writes back the new state
    and the step's per-terminal outcomes; the trajectory is evolved in the
    cell's kept fading buffers. Returns the report and a copy of the
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
    slots = np.arange(n_slots)
    sounding_slots = slots[::period]

    # channel and sounding SNR gamma. gamma uses a waveform-independent
    # power reference (the multi-port cap), so a switch does not shift
    # gamma by the back-off gap and thresholds compare like with like.
    traj = evolve_fading(
        fading, cell_cfg.fading_rho, streams.fading, n_slots,
        out=cell.trajectory, noise=cell.fading_noise,
    )
    gamma = compute_snr(p_cp, pl, sounding_gain(traj[::period]), n0)

    # switching machine over the step's soundings, then the per-slot masks
    # from its switches: a terminal is silent while slot < guard_end, and a
    # switch at slot s toggles the waveform from row s+1 on and silences
    # the rows before its guard end. The last of the n_slots + 1 rows is
    # the state after the step.
    is_df, c, guard_end = cell.is_df, cell.c, cell.guard_end
    sw_snd = sw_ue = np.zeros(0, dtype=np.int64)
    if dpws_enabled:
        is_df, c, guard_end, sw_snd, sw_ue = on_srs_block(
            is_df, c, guard_end, gamma, sounding_slots, dpws_cfg
        )
    sw_slot = sounding_slots[sw_snd]
    row = sw_slot + 1
    toggles = np.zeros((n_slots + 1, n), dtype=bool)
    toggles[0] = cell.is_df
    toggles[row, sw_ue] = True
    df_rows = np.logical_xor.accumulate(toggles, axis=0)
    ends = np.zeros((n_slots + 1, n), dtype=np.int64)
    ends[0] = cell.guard_end
    ends[row, sw_ue] = sw_slot + 1 + dpws_cfg.guard_slots
    is_df_slots = df_rows[:-1]
    silent = slots[:, None] < np.maximum.accumulate(ends[:-1], axis=0)
    if events is not None:
        to_df = df_rows[row, sw_ue].tolist()
        for slot, i, df in zip(sw_slot.tolist(), sw_ue.tolist(), to_df):
            frm, to = (CP_OFDM, DFT_S_OFDM) if df else (DFT_S_OFDM, CP_OFDM)
            events.append((episode, i, slot_offset + slot, frm, to))

    # link budgets, each only if some slot reads it; snr_df carries the
    # single-carrier penalty of the throughput mapping. Then one throughput
    # mapping for the step.
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
    if trace is not None:
        trace.update(is_df=is_df_slots, silent=silent, tp=tp)

    # sounding statistics over the heard terminals of the soundings that
    # hear anyone; only those soundings draw timing-advance jitter, in one
    # draw of all their rows. gamma is summed per sounding over its heard
    # terminals, then over soundings in slot order: a running sum, not
    # numpy's pairwise one. A sounding that hears all is a row sum; the
    # others are grouped by how many they hear, m, and each group's heard
    # values are packed into contiguous rows of length m, whose row sums
    # add in numpy's pairwise order exactly as the 1-D sum of one row's
    # heard values does.
    heard = ~silent[::period]
    sounded = heard.any(axis=1)
    gamma, heard = gamma[sounded], heard[sounded]
    sums = gamma.sum(axis=1)
    partly = np.flatnonzero(~heard.all(axis=1))
    n_heard = heard[partly].sum(axis=1)
    for m in np.unique(n_heard).tolist():
        rows = partly[n_heard == m]
        sums[rows] = gamma[rows][heard[rows]].reshape(len(rows), m).sum(axis=1)
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
    cell.throughput_bps = np.ascontiguousarray(tp.T).mean(axis=1)
    cell.bearing_slots = (~silent & ~outage).sum(axis=0)
    cell.outage_slots = (~silent & outage).sum(axis=0)
    cell.guard_slots = silent.sum(axis=0)

    # cell throughput distribution over terminals; scheduling drops
    # terminals that spent the whole transmission in outage
    included = cell.bearing_slots > 0
    stats = throughput_percentiles(tp.mean(axis=0)[included])
    mean_gamma = np.add.accumulate(sums)[-1] / gamma_n if gamma_n else float("nan")
    report = CellKpiReport(
        snr_hist=snr_hist, ta_hist=ta_hist, throughput=stats, mean_gamma_db=mean_gamma
    )
    return report, traj[-1].copy()


# ---------------------------------------------------------------------------
# run artifacts

KPI_HEADER = (
    ["episode", "step", "zeta_db", "xi_db", "mean_snr_db"]
    + [f"snr_bin_{i}" for i in range(1, 13)]
    + [f"ta_bin_{i}" for i in range(1, 13)]
    + list(REWARD_FACTOR_IDS)
)


def _fmt(x) -> str:
    if x is None:
        return ""
    # float() first: numpy >= 2 gives numpy scalars a repr like
    # "np.float64(1.5)", which no CSV reader parses as a number
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)


class RunWriter:
    """Owns one output directory and its CSV artifacts. The step rows of
    ``kpi_steps.csv`` are kept until ``close`` writes them."""

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
        self._kpi_rows: list = []

    def kpi_row(self, episode: int, step: int, zeta: float, xi: float, report: CellKpiReport):
        self._kpi_rows.append(
            [episode, step, zeta, xi, report.mean_gamma_db]
            + [int(c) for c in report.snr_hist.counts]
            + [int(c) for c in report.ta_hist.counts]
            + list(report.throughput.as_array())
        )

    def events(self, rows) -> None:
        header = ["episode", "ue_id", "slot", "from_waveform", "to_waveform"]
        _write_csv(self.dir / "switch_events.csv", header, rows)

    def ue_samples(self, rows) -> None:
        header = ["episode", "ue_id", "distance_m", "final_waveform", "throughput_bps"]
        _write_csv(self.dir / "ue_samples.csv", header, rows)

    def throughput_stats(self, stats: ThroughputStats) -> None:
        rows = zip(REWARD_FACTOR_IDS, stats.as_array())
        _write_csv(self.dir / "throughput_stats.csv", ["factor", "throughput_bps"], rows)

    def close(self) -> None:
        _write_csv(self.dir / "kpi_steps.csv", KPI_HEADER, self._kpi_rows)


def _write_training_log(path: Path, rows) -> None:
    _write_csv(path, ["step", "epsilon", "loss", "reward"], rows)


# ---------------------------------------------------------------------------
# run modes


def _episode(cfg: SimConfig, lane: int, episode: int, steps: int, events: list,
             policy: QNetwork | None = None, epsilon=lambda step: 0.0,
             rng: np.random.Generator | None = None, fixed_waveform: str | None = None):
    """One episode on the streams of (``lane``, ``episode``), its switches
    appended to ``events``; yields (step, action, zeta, xi, report, state,
    cell) per step. From step 1 on, ``policy`` picks the action from the
    last state at ``epsilon(step)``. With no policy the thresholds stay at
    their defaults; with ``fixed_waveform`` no terminal switches."""
    streams = episode_streams(cfg.seed, lane, episode)
    cell, fading = drop_ues(cfg, streams.drop)
    cell.is_df[:] = fixed_waveform == DFT_S_OFDM
    zeta, xi = cfg.dpws.zeta_db, cfg.dpws.xi_db
    action = state = None
    for step in range(steps):
        if step > 0 and policy is not None:
            action = select_action(policy, state, epsilon(step), rng)
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
        if policy is not None:
            state = build_state(report, zeta, xi)
        yield step, action, zeta, xi, report, state, cell


def run_training(cfg: SimConfig, outdir: str | Path) -> Path:
    """Full training run; returns the checkpoint path."""
    writer = RunWriter(outdir, cfg, "train")
    ep_cfg, agent = cfg.episode, cfg.agent
    rng = agent_rng(cfg.seed)
    qnet = QNetwork(rng, agent)
    averaged = copy.deepcopy(qnet)  # Polyak average of qnet, saved as the checkpoint
    buffer = ReplayBuffer(agent.buffer_size)
    total_steps = ep_cfg.train_episodes * ep_cfg.train_steps
    events: list = []
    log_rows = []
    episode_rewards = []

    def epsilon(step):  # at step ``step`` of the current episode
        global_step = episode * ep_cfg.train_steps + step
        return epsilon_at(global_step, total_steps, agent.epsilon_start, agent.epsilon_min)

    for episode in range(ep_cfg.train_episodes):
        ep_reward = 0.0
        policy = copy.deepcopy(qnet)  # acts for this whole episode
        records = _episode(
            cfg, STREAM_TRAIN, episode, ep_cfg.train_steps, events, policy, epsilon, rng
        )
        for step, action, zeta, xi, report, state, _ in records:
            reward = loss = None
            if step > 0:
                reward = compute_reward(prev_stats, report.throughput, agent)
                buffer.push(prev_state, action, reward, state)
                loss = train_step(qnet, buffer, rng)
                averaged.track(qnet)
                ep_reward += reward
            writer.kpi_row(episode, step, zeta, xi, report)
            log_rows.append((episode * ep_cfg.train_steps + step, epsilon(step), loss, reward))
            prev_state = state
            prev_stats = report.throughput
        episode_rewards.append(ep_reward)

    ckpt = writer.dir / "checkpoint.txt"
    averaged.save(ckpt)
    writer.events(events)
    _write_training_log(writer.dir / "training_log.csv", log_rows)
    _write_csv(
        writer.dir / "episode_rewards.csv", ["episode", "total_reward"], enumerate(episode_rewards)
    )
    writer.close()
    return ckpt


def _policy_episode(
    cfg: SimConfig, episode: int, qnet: QNetwork | None, fixed_waveform: str | None
):
    """One greedy-policy (``qnet``) or fixed-waveform episode; returns (kpi
    rows, per-terminal final-step samples, switch events)."""
    events: list = []
    rows = []
    records = _episode(
        cfg, STREAM_EVAL, episode, cfg.episode.eval_steps, events, qnet,
        fixed_waveform=fixed_waveform,
    )
    for step, _, zeta, xi, report, _, cell in records:
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
    run = partial(_policy_episode, cfg, qnet=qnet, fixed_waveform=fixed_waveform)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, episodes))
    else:
        results = list(map(run, episodes))

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
    """Per-factor relative (%) and absolute (Mbps) gains of run A over B.
    A stats file without the ``factor`` or ``throughput_bps`` column, a
    row with a missing value, or a throughput that is not finite or is
    negative raises ``ValueError``.
    A factor that is 0 in both runs gains 0 %; one that is 0 in B alone
    gains an infinite percentage."""

    def read(d):
        path = Path(d) / "throughput_stats.csv"
        if not path.is_file():
            raise FileNotFoundError(f"missing stats file: {path}")
        out = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = {"factor", "throughput_bps"} - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{path}: no {' or '.join(sorted(missing))} column")
            for row in reader:
                if row["factor"] is None or row["throughput_bps"] is None:
                    raise ValueError(f"{path}: line {reader.line_num} has a missing value")
                value = float(row["throughput_bps"])
                if not (math.isfinite(value) and value >= 0.0):
                    raise ValueError(f"{path}: {row['factor']} throughput is {value}")
                out[row["factor"]] = value
        return out

    a, b = read(dir_a), read(dir_b)
    if list(a) != list(b) or list(a) != list(REWARD_FACTOR_IDS):
        raise ValueError("percentile sets of the two runs do not match")
    rows = []
    for factor in REWARD_FACTOR_IDS:
        va, vb = a[factor], b[factor]
        if vb != 0.0:
            rel = (va - vb) / vb * 100.0
        else:
            rel = 0.0 if va == 0.0 else math.inf
        rows.append((factor, va, vb, rel, (va - vb) / 1e6))
    return rows


def write_comparison(path: str | Path, rows) -> None:
    _write_csv(path, ["factor", "a_bps", "b_bps", "gain_pct", "gain_mbps"], rows)
