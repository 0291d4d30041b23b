"""Output checks of the benchmark.

Each check reads artifacts of one run and compares them with a computation
made apart from the program, or with a property the method must have. A
failed check raises :class:`CheckError` with the first discrepancy found.
The checks use only the standard library and numpy, never dpwsim, so a
defect in the program cannot hide itself in its own check.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

CP, DFTS = "cp-ofdm", "dft-s-ofdm"
FACTORS = ("p10", "p15", "p20", "p25", "p30", "p35", "p40", "p45", "mean")
PERCENTILES = (10, 15, 20, 25, 30, 35, 40, 45)
REWARD_WEIGHTS = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18)
ZETA_STEPS = (-1.0, 0.0, 1.0)
XI_STEPS = (-0.5, 0.0, 0.5)
PAPR_QUANTILES = (90.0, 99.0, 99.9)
# tolerance of the CP-OFDM PAPR against the complex-Gaussian envelope
GAUSSIAN_PAPR_TOL_DB = 0.3
MIN_QPSK_PAPR_GAP_DB = 1.0


class CheckError(AssertionError):
    """An artifact disagrees with what the method must produce."""


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _fail(what: str, detail: str) -> None:
    raise CheckError(f"{what}: {detail}")


def gaussian_papr_db(q_percent: float) -> float:
    """PAPR at CCDF level ``1 - q`` of a complex-Gaussian signal, whose
    envelope power is exponential: 10·log10(ln(1/(1-q)))."""
    return 10.0 * math.log10(math.log(1.0 / (1.0 - q_percent / 100.0)))


def check_training_rewards(
    run_dir: Path, steps_per_episode: int, theta: float, clip: float
) -> None:
    """Recompute every logged training reward from consecutive KPI rows:
    clip(theta · Σ w_k (cur_k - prev_k) / prev_k, ±clip), terms with a zero
    baseline dropped; also the per-episode totals."""
    kpi = read_rows(run_dir / "kpi_steps.csv")
    log = read_rows(run_dir / "training_log.csv")
    if len(kpi) != len(log) or not kpi:
        _fail("training log", f"{len(log)} log rows for {len(kpi)} KPI rows")
    w = np.array(REWARD_WEIGHTS)
    totals: dict[int, float] = {}
    for i, (row, entry) in enumerate(zip(kpi, log)):
        episode, step = int(row["episode"]), int(row["step"])
        if (episode, step) != divmod(i, steps_per_episode):
            _fail("training log", f"row {i} is episode {episode} step {step}")
        totals.setdefault(episode, 0.0)
        if step == 0:
            if entry["reward"] != "":
                _fail("training reward", f"row {i}: reward logged at an episode start")
            continue
        prev = np.array([float(kpi[i - 1][k]) for k in FACTORS])
        cur = np.array([float(row[k]) for k in FACTORS])
        gains = np.zeros_like(prev)
        ok = prev > 0.0
        gains[ok] = (cur[ok] - prev[ok]) / prev[ok]
        expected = min(max(theta * float(w @ gains), -clip), clip)
        logged = float(entry["reward"])
        if not math.isclose(logged, expected, rel_tol=1e-12, abs_tol=1e-12):
            _fail("training reward", f"row {i}: logged {logged!r}, recomputed {expected!r}")
        totals[episode] += logged
    episodes = read_rows(run_dir / "episode_rewards.csv")
    if len(episodes) != len(totals):
        _fail("episode reward", f"{len(episodes)} episodes, the training log has {len(totals)}")
    for row in episodes:
        episode, total = int(row["episode"]), float(row["total_reward"])
        if not math.isclose(total, totals.get(episode, math.nan), rel_tol=1e-9, abs_tol=1e-9):
            _fail("episode reward", f"episode {episode}: {total!r} is not the sum of its steps")


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def check_threshold_moves(
    kpi_rows: list[dict],
    start: tuple[float, float],
    zeta_bounds: tuple[float, float],
    xi_max: float,
) -> None:
    """Every episode starts at the default (zeta, xi); every later step moves
    them by one action of the {-1, 0, +1} dB x {-0.5, 0, +0.5} dB grid,
    clamped to the bounds."""
    prev = None
    for i, row in enumerate(kpi_rows):
        cur = (float(row["zeta_db"]), float(row["xi_db"]))
        if not (zeta_bounds[0] <= cur[0] <= zeta_bounds[1] and 0.0 <= cur[1] <= xi_max):
            _fail("thresholds", f"row {i}: {cur} outside the bounds")
        if int(row["step"]) == 0:
            if cur != start:
                _fail("thresholds", f"row {i}: episode starts at {cur}, not {start}")
        else:
            zetas = {_clamp(prev[0] + d, *zeta_bounds) for d in ZETA_STEPS}
            xis = {_clamp(prev[1] + d, 0.0, xi_max) for d in XI_STEPS}
            if cur[0] not in zetas or cur[1] not in xis:
                _fail("thresholds", f"row {i}: move {prev} -> {cur} is off the action grid")
        prev = cur


def check_thresholds_held(kpi_rows: list[dict], hold: tuple[float, float]) -> None:
    """Every row keeps the default thresholds."""
    for i, row in enumerate(kpi_rows):
        cur = (float(row["zeta_db"]), float(row["xi_db"]))
        if cur != hold:
            _fail("thresholds", f"row {i}: {cur} where {hold} is held")


def min_switch_gap(guard_slots: int, counter: int, srs_period: int) -> int:
    """Fewest slots between two switches of one terminal: the guard, the
    first sounding slot after it, and ``counter - 1`` further soundings.
    At the defaults (19, 6, 2) this is 30, the ``guard + 1 + (counter - 1)
    * period`` of the switching rule."""
    first_sounding = -(-(guard_slots + 1) // srs_period) * srs_period
    return first_sounding + (counter - 1) * srs_period


def check_switch_events(
    events: list[dict], guard_slots: int, counter: int, srs_period: int
) -> None:
    """Per (episode, terminal), switches alternate starting from CP-OFDM,
    fall on sounding slots, and are at least ``min_switch_gap`` apart; the
    first needs ``counter`` soundings from slot 0."""
    gap = min_switch_gap(guard_slots, counter, srs_period)
    last: dict[tuple[int, int], tuple[int, str]] = {}
    for i, ev in enumerate(events):
        key = (int(ev["episode"]), int(ev["ue_id"]))
        slot, src, dst = int(ev["slot"]), ev["from_waveform"], ev["to_waveform"]
        if {src, dst} != {CP, DFTS}:
            _fail("switch events", f"row {i}: {src} -> {dst}")
        if slot % srs_period:
            _fail("switch events", f"row {i}: slot {slot} is not a sounding slot")
        if key in last:
            prev_slot, prev_dst = last[key]
            if src != prev_dst:
                _fail("switch events", f"row {i}: terminal {key} leaves {src}, but is on {prev_dst}")
            if slot - prev_slot < gap:
                _fail("switch events", f"row {i}: terminal {key} switches {slot - prev_slot} slots after its previous switch (at least {gap})")
        else:
            if src != CP:
                _fail("switch events", f"row {i}: terminal {key} first leaves {src}, not {CP}")
            if slot < (counter - 1) * srs_period:
                _fail("switch events", f"row {i}: first switch at slot {slot}, before {counter} soundings")
        last[key] = (slot, dst)


def check_final_waveforms(events: list[dict], samples: list[dict]) -> None:
    """Each sampled terminal ends on the waveform its switch events lead to."""
    count: dict[tuple[int, int], int] = {}
    for ev in events:
        key = (int(ev["episode"]), int(ev["ue_id"]))
        count[key] = count.get(key, 0) + 1
    for i, s in enumerate(samples):
        key = (int(s["episode"]), int(s["ue_id"]))
        expected = DFTS if count.get(key, 0) % 2 else CP
        if s["final_waveform"] != expected:
            _fail("final waveform", f"sample {i}: {s['final_waveform']}, switch events give {expected}")


def check_kpi_rows(kpi_rows: list[dict], top_throughput_bps: float) -> None:
    """SNR and TA histograms count the same soundings; percentiles are
    non-decreasing, non-negative and at most the top MCS rate."""
    for i, row in enumerate(kpi_rows):
        snr = sum(int(row[f"snr_bin_{k}"]) for k in range(1, 13))
        ta = sum(int(row[f"ta_bin_{k}"]) for k in range(1, 13))
        if snr != ta or snr <= 0:
            _fail("KPI row", f"row {i}: SNR histogram holds {snr}, TA histogram {ta}")
        if not math.isfinite(float(row["mean_snr_db"])):
            _fail("KPI row", f"row {i}: mean SNR {row['mean_snr_db']}")
        pct = [float(row[k]) for k in FACTORS[:-1]]
        if any(b < a for a, b in zip(pct, pct[1:])):
            _fail("KPI row", f"row {i}: percentiles decrease: {pct}")
        for k in FACTORS:
            v = float(row[k])
            if not 0.0 <= v <= top_throughput_bps:
                _fail("KPI row", f"row {i}: {k} = {v} outside [0, {top_throughput_bps}]")


def throughput(samples: list[dict]) -> np.ndarray:
    return np.array([float(s["throughput_bps"]) for s in samples])


def check_throughput_stats(run_dir: Path) -> None:
    """``throughput_stats.csv`` holds numpy's linear percentiles and the mean
    of the terminal samples in ``ue_samples.csv``."""
    x = throughput(read_rows(run_dir / "ue_samples.csv"))
    expected = list(np.percentile(x, PERCENTILES)) + [x.mean()]
    rows = read_rows(run_dir / "throughput_stats.csv")
    if [r["factor"] for r in rows] != list(FACTORS):
        _fail("throughput stats", f"factors {[r['factor'] for r in rows]}")
    for r, e in zip(rows, expected):
        if not math.isclose(float(r["throughput_bps"]), float(e), rel_tol=1e-12):
            _fail("throughput stats", f"{r['factor']} = {r['throughput_bps']}, samples give {e!r}")


def check_baseline(events: list[dict], samples: list[dict], waveform: str) -> None:
    """A fixed-waveform run switches nothing and ends every terminal on it."""
    if events:
        _fail("baseline", f"{len(events)} switch events in a {waveform} baseline")
    for i, s in enumerate(samples):
        if s["final_waveform"] != waveform:
            _fail("baseline", f"sample {i} ends on {s['final_waveform']}, not {waveform}")


def check_paired_streams(*sample_sets: list[dict]) -> None:
    """Runs on the evaluation streams drop each (episode, terminal) at the
    same distance. Only terminals that carried traffic are sampled, so the
    comparison is over those present in both runs."""
    ref = {(s["episode"], s["ue_id"]): s["distance_m"] for s in sample_sets[0]}
    for n, other in enumerate(sample_sets[1:], start=1):
        common = 0
        for s in other:
            key = (s["episode"], s["ue_id"])
            if key in ref:
                common += 1
                if s["distance_m"] != ref[key]:
                    _fail("paired streams", f"run {n} drops terminal {key} at {s['distance_m']}, run 0 at {ref[key]}")
        if common == 0:
            _fail("paired streams", f"run {n} shares no terminal with run 0")


def check_crossover(cp_samples: list[dict], dfts_samples: list[dict]) -> None:
    """Single carrier wins the cell edge, multi-carrier the cell centre:
    DFT-S-OFDM p10 > CP-OFDM p10 and CP-OFDM p80 > DFT-S-OFDM p80."""
    cp, df = throughput(cp_samples), throughput(dfts_samples)
    if not np.percentile(df, 10) > np.percentile(cp, 10):
        _fail("crossover", f"p10 DFT-S-OFDM {np.percentile(df, 10)} <= CP-OFDM {np.percentile(cp, 10)}")
    if not np.percentile(cp, 80) > np.percentile(df, 80):
        _fail("crossover", f"p80 CP-OFDM {np.percentile(cp, 80)} <= DFT-S-OFDM {np.percentile(df, 80)}")


def check_papr(rows: list[dict]) -> None:
    """CP-OFDM follows the complex-Gaussian envelope; DFT-S-OFDM is below it
    at every percentile and modulation, by at least 1 dB for QPSK at
    99.9%."""
    table = {(r["waveform"], r["modulation"], float(r["percentile"])): float(r["papr_db"]) for r in rows}
    for mod in ("qpsk", "16qam"):
        for q in PAPR_QUANTILES:
            if (CP, mod, q) not in table or (DFTS, mod, q) not in table:
                _fail("PAPR", f"missing {mod} at {q}%")
            cp, df = table[(CP, mod, q)], table[(DFTS, mod, q)]
            if abs(cp - gaussian_papr_db(q)) > GAUSSIAN_PAPR_TOL_DB:
                _fail("PAPR", f"CP-OFDM {mod} {q}%: {cp} dB, Gaussian envelope {gaussian_papr_db(q)} dB")
            if not df < cp:
                _fail("PAPR", f"{mod} {q}%: DFT-S-OFDM {df} dB not below CP-OFDM {cp} dB")
    gap = table[(CP, "qpsk", 99.9)] - table[(DFTS, "qpsk", 99.9)]
    if gap < MIN_QPSK_PAPR_GAP_DB:
        _fail("PAPR", f"QPSK 99.9% gap {gap} dB below {MIN_QPSK_PAPR_GAP_DB} dB")
