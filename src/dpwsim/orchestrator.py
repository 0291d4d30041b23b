"""Episode runner: drops terminals, advances the cell one step at a time
under the thresholds a policy picks, aggregates KPIs, steps the learning
agent and writes all run artifacts. Training, evaluation and both
fixed-waveform baselines share one episode loop (``_episodes``): the policy
is epsilon-greedy while training, greedy in evaluation and absent in a
baseline. One function (``_write_csv``) writes every CSV file of a run.

The cell is a ``Cell`` of arrays over its terminals, and a step is one
array program over (slot, terminal): the fading trajectory, the gains, the
SNR budgets, the throughput mapping and the sounding statistics each come
from a fixed number of numpy calls over the whole step, and the switching
machine takes all of its soundings in one call. A slot-by-slot loop,
``tests/step_reference.py``, is its test oracle; both give identical
outputs.

A cell can hold several episodes as lanes: their terminals lie lane-major
in its arrays, each lane draws from its own streams and under its own
thresholds, and one step advances them all, each lane keeping the bytes it
would have alone. Evaluation and the baselines run their episodes in
contiguous lane groups (``lane_groups``), as many lanes per group as keep
a step within ``LANE_TERMINAL_SLOTS`` terminal-slots. The groups run in
contiguous runs on one thread per usable core, or, with ``--jobs`` above
1, in that many worker processes; the outputs do not depend on either.
Training runs one lane per episode, because each episode acts on the
network the one before it trained.

A cell keeps every (slot, terminal) array of its step in buffers sized
when it is dropped (``StepBuffers``), in its own memory map, so a step
after the first allocates little and touches no fresh page.

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
import mmap
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
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
    GainScratch,
    McsTable,
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

# terminal-slots of one step of a lane group at most: one paper-size step
# (50 terminals, 1000 slots). Steps this wide are bound by their width:
# two paper-size lanes took 1.08x less time per episode-step than one,
# where at ci size (20 x 200), bound by the per-call cost, 8 lanes took
# 1.68x less (BENCH_lanes.json)
LANE_TERMINAL_SLOTS = 50_000


def _nbytes(shape, dtype) -> int:
    """The bytes of an array, rounded up to whole 64-byte lines."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64


def _views(buffer: np.ndarray, *arrays) -> list[np.ndarray]:
    """C-contiguous arrays of the given (shape, dtype), laid one after the
    other in the memory of the C-contiguous ``buffer``, each from a 64-byte
    boundary of it."""
    raw = buffer.reshape(-1).view(np.uint8)
    if sum(_nbytes(*array) for array in arrays) > raw.size:
        raise ValueError(f"{raw.size} bytes do not hold {arrays}")
    views, start = [], 0
    for shape, dtype in arrays:
        size = math.prod(shape) * np.dtype(dtype).itemsize
        views.append(raw[start : start + size].view(dtype).reshape(shape))
        start += _nbytes(shape, dtype)
    return views


def _mapped(*arrays) -> list[np.ndarray]:
    """Arrays of the given (shape, dtype), laid out by :func:`_views` in one
    fresh anonymous memory map. The map goes back to the system when the
    last of them goes. malloc would keep the pages of a large array freed
    on a worker thread in that thread's arena, where the next phase of the
    process, on another thread, does not reuse them."""
    memory = mmap.mmap(-1, max(1, sum(_nbytes(*array) for array in arrays)))
    return _views(np.frombuffer(memory, dtype=np.uint8), *arrays)


class StepBuffers:
    """The arrays of one step of a cell, in one memory map that lives as
    long as the cell, so that a step allocates none of them and an episode
    reuses their pages: for ``lanes`` lanes, a step of ``n_slots`` slots, a
    sounding every ``period`` slots and a channel of shape (terminal, rx,
    tx).

    Kept through the step:

    - ``trajectory`` (slot, terminal, rx, tx): the fading of each slot (see
      link_model.evolve_fading);
    - ``gamma`` (sounding, terminal): the sounding gain, then gamma;
      ``heard``: who hears each sounding;
    - ``df_rows`` (slot + 1, terminal): the switch toggles, then the
      waveform of each row; ``silent`` (slot, terminal): the guard slots;
    - ``budget`` and ``df_budget`` (slot, terminal): the gain, then the SNR
      budget, of the multi-port and of the single-carrier waveform; the
      throughput then overwrites the budget it is mapped from;
    - ``gains``: the float scratch of the gain passes; ``counts`` and
      ``outage``: the AMC counts and the outage flags.

    ``noise``, the fading draws (lane, slot, 2, terminal, rx, tx), is free
    once evolve_fading has laid them into the trajectory, and three layouts
    reuse its memory in turn: before the gains, the ``sounding`` energies
    and the guard ``ends`` (slot + 1, terminal); then the gains' complex
    ``y`` and ``t``; after them, the AMC ``table_index`` and ``tp_rows``,
    the throughput as one contiguous row per terminal. That memory is as
    large as the largest of the four.
    """

    def __init__(self, lanes: int, n_slots: int, period: int, channel: tuple, mcs: McsTable):
        n, n_rx, n_tx = channel
        slab = (n_slots, n)
        n_snd = n_slots // period
        draws = ((lanes, n_slots, 2, n // lanes, n_rx, n_tx), float)
        sounding, gains, amc = overlays = (
            [((n_snd,) + channel, float), ((n_slots + 1, n), np.intp)],
            [(slab, complex), (slab, complex)],
            [(slab, np.intp), ((n, n_slots), float)],
        )
        shared = max(sum(_nbytes(*array) for array in layout) for layout in [[draws], *overlays])
        kept = [
            ((shared,), np.uint8), ((n_slots,) + channel, complex),
            ((n_snd, n), float), ((n_snd, n), bool), ((n_slots + 1, n), bool), (slab, bool),
            (slab, float), (slab, float), (slab, np.min_scalar_type(len(mcs.thresholds))),
            (slab, bool), (slab, float),
        ]
        # the power of one receive antenna, with more than one
        kept += [(slab, float)] * (n_rx > 1)
        (shared, self.trajectory, self.gamma, self.heard, self.df_rows, self.silent, self.budget,
         self.df_budget, self.counts, self.outage, gain, *power) = _mapped(*kept)
        [self.noise] = _views(shared, draws)
        self.sounding, self.ends = _views(shared, *sounding)
        y, t = _views(shared, *gains)
        self.gains = GainScratch(y, t, gain, power[0] if power else None)
        self.table_index, self.tp_rows = _views(shared, *amc)


@dataclass
class Cell:
    """The dropped terminals of one or more episodes as arrays, one entry
    per terminal: geometry with the frozen shadowing folded into the path
    loss, the step's fading buffers, switching state, and the outcomes of
    the last step. The episodes are the cell's lanes, laid out lane-major:
    terminal i of lane l is entry ``l * n + i`` (``i`` is its ``ue_id``),
    and ``len(cell)`` counts the terminals of all lanes. Everyone starts on
    the multi-port waveform with a cleared switching machine."""

    distance_m: np.ndarray
    path_loss_db: np.ndarray
    # every array of a step, the fading draws and trajectory among them
    buffers: StepBuffers
    lanes: int = 1
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
        if self.lanes < 1 or n % self.lanes:
            raise ValueError(f"{n} terminals do not split into {self.lanes} lanes")
        self.is_df = np.zeros(n, dtype=bool)
        self.c = np.zeros(n, dtype=np.int64)
        self.guard_end = np.zeros(n, dtype=np.int64)
        self.throughput_bps = np.zeros(n)
        self.bearing_slots = np.zeros(n, dtype=np.int64)
        self.outage_slots = np.zeros(n, dtype=np.int64)
        self.guard_slots = np.zeros(n, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.distance_m)

    def lane(self, lane: int) -> slice:
        """The entries of lane ``lane``'s terminals."""
        n = len(self) // self.lanes
        return slice(lane * n, (lane + 1) * n)


@dataclass
class EpisodeStreams:
    drop: np.random.Generator
    fading: np.random.Generator
    ta: np.random.Generator


def episode_streams(seed: int, stream: int, episode: int) -> EpisodeStreams:
    root = np.random.SeedSequence([seed, stream, episode])
    drop, fading, ta = [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(3)]
    return EpisodeStreams(drop=drop, fading=fading, ta=ta)


def agent_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, STREAM_AGENT])))


def drop_ues(cfg: SimConfig, rngs) -> tuple[Cell, np.ndarray]:
    """Uniform distances in the configured annulus, per-terminal lognormal
    shadowing frozen for the episode, fresh fading; returns the cell, with
    fading and step buffers for steps of ``slots_per_step`` slots, and its
    (terminal, rx, tx) fading array. ``rngs`` holds one generator per
    lane, and each lane is dropped from its own, as one episode would be."""
    n = cfg.episode.ues_per_episode
    n_slots = cfg.episode.slots_per_step
    cell = cfg.cell
    distances, shadows, fadings = [], [], []
    for lane_rng in rngs:
        distances.append(lane_rng.uniform(cell.min_distance_m, cell.max_distance_m, size=n))
        shadows.append(lane_rng.normal(0.0, cell.shadowing_sigma_db, size=n))
        fadings.append(draw_fading((n, cell.n_rx, 2), lane_rng))
    distances, fading = np.concatenate(distances), np.concatenate(fadings)
    pl = path_loss_uma(distances, cell.carrier_ghz) + np.concatenate(shadows)
    return Cell(
        distance_m=distances,
        path_loss_db=pl,
        buffers=StepBuffers(
            len(rngs), n_slots, cfg.episode.srs_period_slots, fading.shape, cfg.mcs
        ),
        lanes=len(rngs),
    ), fading


def simulate_step(
    cell: Cell,
    fading: np.ndarray,
    zeta_db,
    xi_db,
    cfg: SimConfig,
    streams,
    *,
    dpws_enabled: bool = True,
    events: list,
    episode,
    slot_offset: int = 0,
    trace: dict | None = None,
) -> tuple[list[CellKpiReport], np.ndarray]:
    """Advance one step (slots_per_step slots) of every lane of ``cell``
    and aggregate each lane's KPIs.

    The lanes are independent episodes that share one array program:
    ``streams``, ``zeta_db``, ``xi_db`` and ``episode`` hold one entry per
    lane (its ``EpisodeStreams``, thresholds and episode label), and a
    sequence of any other length raises ``ValueError``. Every lane gets the
    bytes it would get stepped alone.

    The step is one array program over (slot, terminal). Fading evolves
    every slot for every terminal regardless of switching decisions, so the
    channel trace and the sounding SNR gamma do not depend on the policy;
    they come first, each lane's fading drawn from its own stream. The
    switching machine then takes all the step's soundings in one call
    (``dpws_fsm.on_srs_block``, which bounds its own passes), each terminal
    under its lane's thresholds, and its switches give the per-slot
    waveform and guard masks. Last come the SNR budgets, each only if some
    slot is on its waveform (a fixed-waveform baseline never computes the
    other one), and one throughput mapping. The gains are elementwise
    passes over (slot, terminal) slabs of the trajectory (see
    ``link_model.precoded_gain``). The sounding statistics, the
    timing-advance draw, the histograms and the percentiles are per lane.

    Reads the switching state from ``cell`` and writes back the new state
    and the step's per-terminal outcomes; the trajectory and every other
    (slot, terminal) array of the step live in the cell's kept buffers.
    Appends the switches to ``events`` as (episode, ue_id, slot, from, to),
    in (sounding, terminal) order, so the lanes of one step interleave.
    Returns one report per lane and a copy of the evolved fading array.
    ``trace``, when given, receives copies of the per-slot (slot, terminal)
    arrays ``is_df``, ``silent`` and ``tp``.
    """
    for name, per_lane in (("streams", streams), ("zeta_db", zeta_db), ("xi_db", xi_db),
                           ("episode", episode)):
        if len(per_lane) != cell.lanes:
            raise ValueError(f"{len(per_lane)} {name} for a cell of {cell.lanes} lanes")
    n_lanes, n = cell.lanes, len(cell) // cell.lanes
    cell_cfg, ep_cfg, dpws_cfg = cfg.cell, cfg.episode, cfg.dpws
    n_slots, period = ep_cfg.slots_per_step, ep_cfg.srs_period_slots
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
    buf = cell.buffers
    traj = evolve_fading(
        fading, cell_cfg.fading_rho, [s.fading for s in streams], n_slots,
        out=buf.trajectory, noise=buf.noise,
    )
    gamma = buf.gamma
    sounding_gain(traj[::period], out=gamma, scratch=buf.sounding)
    compute_snr(p_cp, pl, gamma, n0, out=gamma)

    # switching machine over the step's soundings, then the per-slot masks
    # from its switches: a terminal is silent while slot < guard_end, and a
    # switch at slot s toggles the waveform from row s+1 on and silences
    # the rows before its guard end. The last of the n_slots + 1 rows is
    # the state after the step.
    is_df, c, guard_end = cell.is_df, cell.c, cell.guard_end
    sw_snd = sw_ue = np.zeros(0, dtype=np.int64)
    if dpws_enabled:
        # each lane's thresholds, repeated over its terminals
        zeta, xi = np.repeat(zeta_db, n), np.repeat(xi_db, n)
        is_df, c, guard_end, sw_snd, sw_ue = on_srs_block(
            is_df, c, guard_end, gamma, sounding_slots, dpws_cfg, zeta, xi
        )
    sw_slot = sounding_slots[sw_snd]
    row = sw_slot + 1
    df_rows, ends = buf.df_rows, buf.ends
    df_rows.fill(False)
    df_rows[0] = cell.is_df
    df_rows[row, sw_ue] = True
    np.logical_xor.accumulate(df_rows, axis=0, out=df_rows)
    ends.fill(0)
    ends[0] = cell.guard_end
    ends[row, sw_ue] = sw_slot + 1 + dpws_cfg.guard_slots
    is_df_slots = df_rows[:-1]
    guard_ends = np.maximum.accumulate(ends[:-1], axis=0, out=ends[:-1])
    silent = np.less(slots[:, None], guard_ends, out=buf.silent)
    to_df = df_rows[row, sw_ue].tolist()
    lane, ue = np.divmod(sw_ue, n)
    for slot, k, i, df in zip(sw_slot.tolist(), lane.tolist(), ue.tolist(), to_df):
        frm, to = (CP_OFDM, DFT_S_OFDM) if df else (DFT_S_OFDM, CP_OFDM)
        events.append((episode[k], i, slot_offset + slot, frm, to))

    # link budgets, each only if some slot reads it; snr_df carries the
    # single-carrier penalty of the throughput mapping. Then one throughput
    # mapping for the step.
    all_df = is_df_slots.all()
    if not all_df:
        snr = precoded_gain(traj, out=buf.budget, scratch=buf.gains)
        compute_snr(p_cp, pl, snr, n0, out=snr)
    if is_df_slots.any():
        snr_df = select_tx_port(traj, out=buf.df_budget, scratch=buf.gains)
        compute_snr(p_df, pl, snr_df, n0, out=snr_df)
        snr_df -= cell_cfg.dfts_snr_penalty_db
        if all_df:
            snr = snr_df
        else:
            np.copyto(snr, snr_df, where=is_df_slots)
    tp, outage = map_throughput(
        snr, cfg.mcs, noise.bandwidth_hz, out=(snr, buf.outage),
        index=(buf.counts, buf.table_index),
    )
    np.copyto(tp, 0.0, where=silent)
    if trace is not None:
        trace.update(is_df=is_df_slots.copy(), silent=silent.copy(), tp=tp.copy())

    # sounding statistics over the heard terminals of the soundings that
    # hear anyone, per lane; only those soundings draw timing-advance
    # jitter, in one draw of all their rows from the lane's stream. gamma
    # is summed per (sounding, lane) over its heard terminals, then over
    # the lane's soundings in slot order: a running sum, not numpy's
    # pairwise one. A (sounding, lane) row is n contiguous values, and one
    # that hears all is a row sum; the others are grouped by how many they
    # hear, m, and each group's heard values are packed into contiguous
    # rows of length m, whose row sums add in numpy's pairwise order
    # exactly as the 1-D sum of one row's heard values does.
    heard = np.logical_not(silent[::period], out=buf.heard)
    n_snd = len(heard)
    heard_rows, gamma_rows = heard.reshape(-1, n), gamma.reshape(-1, n)
    n_heard = heard_rows.sum(axis=1)
    sums = gamma_rows.sum(axis=1)
    for m in np.unique(n_heard[(n_heard > 0) & (n_heard < n)]).tolist():
        group = n_heard == m
        sums[group] = gamma_rows[heard_rows & group[:, None]].reshape(-1, m).sum(axis=1)
    # adding -0.0 leaves any sum as it is, so the soundings a lane does not
    # hear drop out of its running sum
    sounded = (n_heard > 0).reshape(n_snd, n_lanes)
    totals = np.add.accumulate(np.where(sounded, sums.reshape(n_snd, n_lanes), -0.0), axis=0)[-1]
    gamma_n = n_heard.reshape(n_snd, n_lanes).sum(axis=0).tolist()

    cell.is_df, cell.c, cell.guard_end = is_df, c, np.maximum(guard_end - n_slots, 0)
    # a contiguous row per terminal: its mean sums in the same order as a
    # mean over the terminal's column would
    np.copyto(buf.tp_rows, tp.T)
    cell.throughput_bps = buf.tp_rows.mean(axis=1)
    # a slot is silent, in outage or bearing data
    cell.guard_slots = silent.sum(axis=0)
    lost = np.logical_or(silent, outage, out=outage).sum(axis=0)
    cell.bearing_slots = n_slots - lost
    cell.outage_slots = lost - cell.guard_slots

    # cell throughput distribution over terminals; scheduling drops
    # terminals that spent the whole transmission in outage
    tp_mean = tp.mean(axis=0)
    reports = []
    for k, lane_streams in enumerate(streams):
        terminals = cell.lane(k)
        # views of the lane's columns when it hears every sounding
        rows = slice(None) if sounded[:, k].all() else sounded[:, k]
        lane_heard, lane_gamma = heard[rows, terminals], gamma[rows, terminals]
        ta = timing_advance_percent(
            cell.distance_m[terminals], cell_cfg.cell_range_m, cell_cfg.ta_jitter_pct,
            lane_streams.ta, lane_heard.shape,
        )
        included = cell.bearing_slots[terminals] > 0
        reports.append(CellKpiReport(
            snr_hist=bin_snr(Histogram12(edges=SNR_BIN_EDGES), lane_gamma, where=lane_heard),
            ta_hist=bin_ta(Histogram12(edges=TA_BIN_EDGES), ta, where=lane_heard),
            throughput=throughput_percentiles(tp_mean[terminals][included]),
            mean_gamma_db=totals[k] / gamma_n[k] if gamma_n[k] else float("nan"),
        ))
    return reports, traj[-1].copy()


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


def _episodes(cfg: SimConfig, stream: int, episodes, steps: int, events: list,
              policy: QNetwork | None = None, epsilon=lambda step: 0.0,
              rng: np.random.Generator | None = None, fixed_waveform: str | None = None):
    """The episodes ``episodes``, each on the streams of (``stream``,
    episode), as the lanes of one cell; their switches are appended to
    ``events``, the lanes of one step interleaved. Yields (step, actions,
    zetas, xis, reports, states, cell) per step, each of the lists one
    entry per lane; read them before the next step, which updates them in
    place.
    From step 1 on, ``policy`` picks each lane's action from its last state
    at ``epsilon(step)``, lane by lane, one forward pass each (a batched
    pass can round differently and flip an argmax). With no policy the
    thresholds stay at their defaults; with ``fixed_waveform`` no terminal
    switches."""
    streams = [episode_streams(cfg.seed, stream, episode) for episode in episodes]
    cell, fading = drop_ues(cfg, [s.drop for s in streams])
    cell.is_df[:] = fixed_waveform == DFT_S_OFDM
    lanes = range(len(streams))
    zetas, xis = [cfg.dpws.zeta_db] * len(lanes), [cfg.dpws.xi_db] * len(lanes)
    actions, states = [None] * len(lanes), [None] * len(lanes)
    for step in range(steps):
        if step > 0 and policy is not None:
            for k in lanes:
                actions[k] = select_action(policy, states[k], epsilon(step), rng)
                zetas[k], xis[k] = decode_action(actions[k], zetas[k], xis[k], cfg.agent)
        reports, fading = simulate_step(
            cell,
            fading,
            zetas,
            xis,
            cfg,
            streams,
            dpws_enabled=fixed_waveform is None,
            events=events,
            episode=list(episodes),
            slot_offset=step * cfg.episode.slots_per_step,
        )
        if policy is not None:
            states = [build_state(*args) for args in zip(reports, zetas, xis)]
        yield step, actions, zetas, xis, reports, states, cell


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
        # one lane: each episode acts on the network the previous one trained
        records = _episodes(
            cfg, STREAM_TRAIN, [episode], ep_cfg.train_steps, events, policy, epsilon, rng
        )
        for step, (action,), (zeta,), (xi,), (report,), (state,), _ in records:
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


def lane_groups(cfg: SimConfig, jobs: int = 1) -> list[range]:
    """The evaluation episodes in contiguous groups, each run as the lanes
    of one cell: as few groups as keep every step within
    ``LANE_TERMINAL_SLOTS`` terminal-slots (an episode wider than that is a
    group of its own), but at least ``min(jobs, episodes)``, so that every
    worker has a group. The group sizes differ by at most one."""
    e = cfg.episode
    per_group = max(1, LANE_TERMINAL_SLOTS // (e.ues_per_episode * e.slots_per_step))
    count = max(math.ceil(e.eval_episodes / per_group), min(jobs, e.eval_episodes))
    bounds = [e.eval_episodes * g // count for g in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _policy_lanes(
    cfg: SimConfig, episodes: range, qnet: QNetwork | None, fixed_waveform: str | None
):
    """Greedy-policy (``qnet``) or fixed-waveform episodes, run as the lanes
    of one cell; returns (kpi rows, per-terminal final-step samples, switch
    events), each in episode-then-step order."""
    events: list = []
    rows = [[] for _ in episodes]
    records = _episodes(
        cfg, STREAM_EVAL, episodes, cfg.episode.eval_steps, events, qnet,
        fixed_waveform=fixed_waveform,
    )
    for step, _, zetas, xis, reports, _, cell in records:
        for lane_rows, episode, zeta, xi, report in zip(rows, episodes, zetas, xis, reports):
            lane_rows.append((episode, step, zeta, xi, report))
    # a stable sort: each episode's switches keep their step, sounding and
    # terminal order
    events.sort(key=itemgetter(0))
    samples = []
    for k, episode in enumerate(episodes):
        # the terminals that carried data in the last step
        terminals = cell.lane(k)
        ue_id = np.flatnonzero(cell.bearing_slots[terminals] > 0)
        waveform = np.where(cell.is_df[terminals][ue_id], DFT_S_OFDM, CP_OFDM).tolist()
        dist = cell.distance_m[terminals][ue_id].tolist()
        tp = cell.throughput_bps[terminals][ue_id].tolist()
        samples += [(episode, *row) for row in zip(ue_id.tolist(), dist, waveform, tp)]
    return [row for lane_rows in rows for row in lane_rows], samples, events


def _in_threads(run, groups: list[range]) -> list:
    """``run`` of every group, in group order. The groups split into
    contiguous runs, one per usable core: this thread steps the first run
    and a worker thread each of the others (the fading draws, the largest
    part of a wide step, release the GIL). With one group or one core no
    thread starts; none outlives the call, whether it returns or raises."""
    # through the module, so that a count set on waveform._usable_cores holds
    from . import waveform

    n = min(waveform._usable_cores(), len(groups))
    bounds = [len(groups) * i // n for i in range(n + 1)]
    runs = waveform._fan_out(lambda i: list(map(run, groups[bounds[i] : bounds[i + 1]])), n)
    return [result for results in runs for result in results]


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
    groups = lane_groups(cfg, jobs)
    # the pool forks all its workers at the first submit, so size it by
    # the work there is
    jobs = min(jobs, len(groups))
    run = partial(_policy_lanes, cfg, qnet=qnet, fixed_waveform=fixed_waveform)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, groups))
    else:
        results = _in_threads(run, groups)

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
