"""Slot-by-slot reference of ``orchestrator.simulate_step``, kept as a test
oracle the way ``dpws_reference.py`` serves the switching machine.

It advances the cell one slot at a time: one fading draw per slot, the
gains and SNR of that slot, and at each sounding the scalar ``on_srs`` per
heard terminal. The array kernel in the package must reproduce its reports,
switch events, per-terminal outcomes, returned fading, trace masks and
random-stream states exactly.
"""

from dataclasses import replace

import numpy as np

from dpwsim.dpws_fsm import on_srs
from dpwsim.kpi import (
    CellKpiReport,
    Histogram12,
    SNR_BIN_EDGES,
    TA_BIN_EDGES,
    bin_snr,
    bin_ta,
    throughput_percentiles,
)
from dpwsim.link_model import (
    CP_OFDM,
    DFT_S_OFDM,
    map_throughput,
    noise_power_dbm,
    precoded_gain,
    select_tx_port,
    sounding_gain,
    transmit_power,
)


def reference_step(
    ues,
    fading,
    zeta_db,
    xi_db,
    cfg,
    streams,
    *,
    dpws_enabled=True,
    events=None,
    episode=0,
    slot_offset=0,
    trace=None,
):
    n = len(ues)
    cell, ep_cfg = cfg.cell, cfg.episode
    n_slots, srs_period = ep_cfg.slots_per_step, ep_cfg.srs_period_slots
    dpws_cfg = replace(cfg.dpws, zeta_db=zeta_db, xi_db=xi_db)
    n0 = noise_power_dbm(cell.noise())
    bandwidth = cell.noise().bandwidth_hz
    pl = np.array([ue.path_loss_db for ue in ues])
    dist = np.array([ue.distance_m for ue in ues])
    p_cp = transmit_power(cfg.power, pl, CP_OFDM)
    p_df = transmit_power(cfg.power, pl, DFT_S_OFDM)

    is_df = np.array([ue.dpws.waveform == DFT_S_OFDM for ue in ues])
    guard = np.array([ue.dpws.guard_remaining for ue in ues], dtype=np.int64)

    h = fading
    tp_slots = np.zeros((n_slots, n), dtype=float)
    bearing = np.zeros(n, dtype=np.int64)
    outage_ct = np.zeros(n, dtype=np.int64)
    guard_ct = np.zeros(n, dtype=np.int64)
    snr_hist = Histogram12(edges=SNR_BIN_EDGES)
    ta_hist = Histogram12(edges=TA_BIN_EDGES)
    gamma_sum, gamma_n = 0.0, 0
    rho = cell.fading_rho
    sqrt_term = np.sqrt(max(1.0 - rho * rho, 0.0))
    if trace is not None:
        trace["is_df"] = np.zeros((n_slots, n), dtype=bool)
        trace["silent"] = np.zeros((n_slots, n), dtype=bool)
        trace["tp"] = tp_slots

    for slot in range(n_slots):
        if rho < 1.0:
            w = (
                streams.fading.standard_normal((n, cell.n_rx, 2))
                + 1j * streams.fading.standard_normal((n, cell.n_rx, 2))
            ) / np.sqrt(2.0)
            h = rho * h + sqrt_term * w

        silent = guard > 0
        guard = np.maximum(guard - 1, 0)

        g_cp = precoded_gain(h)
        g_df = select_tx_port(h)
        gain = np.where(is_df, g_df, g_cp)
        p_out = np.where(is_df, p_df, p_cp)
        with np.errstate(divide="ignore"):
            snr = p_out - pl + 10.0 * np.log10(gain) - n0
        amc_snr = snr - np.where(is_df, cell.dfts_snr_penalty_db, 0.0)
        tp, outage = map_throughput(amc_snr, cfg.mcs, bandwidth)
        tp[silent] = 0.0
        tp_slots[slot] = tp
        bearing += (~silent) & (~outage)
        outage_ct += (~silent) & outage
        guard_ct += silent
        if trace is not None:
            trace["is_df"][slot] = is_df
            trace["silent"][slot] = silent

        if slot % srs_period == 0:
            active = ~silent
            if np.any(active):
                with np.errstate(divide="ignore"):
                    gamma = p_cp - pl + 10.0 * np.log10(sounding_gain(h)) - n0
                ta = 100.0 * dist / cell.cell_range_m
                if cell.ta_jitter_pct > 0.0:
                    ta = ta + streams.ta.uniform(-cell.ta_jitter_pct, cell.ta_jitter_pct, n)
                ta = np.maximum(ta, 0.0)
                snr_hist = bin_snr(snr_hist, gamma[active])
                ta_hist = bin_ta(ta_hist, ta[active])
                gamma_sum += float(gamma[active].sum())
                gamma_n += int(active.sum())
                if dpws_enabled:
                    for i in np.nonzero(active)[0]:
                        st = ues[i].dpws
                        if st.guard_remaining != 0:
                            st = replace(st, guard_remaining=0)
                        st, switched = on_srs(st, dpws_cfg, float(gamma[i]))
                        ues[i].dpws = st
                        if switched:
                            guard[i] = st.guard_remaining
                            was_df = is_df[i]
                            is_df[i] = st.waveform == DFT_S_OFDM
                            if events is not None:
                                events.append(
                                    (
                                        episode,
                                        ues[i].ue_id,
                                        slot_offset + slot,
                                        DFT_S_OFDM if was_df else CP_OFDM,
                                        st.waveform,
                                    )
                                )

    for i, ue in enumerate(ues):
        ue.dpws = replace(ue.dpws, guard_remaining=int(guard[i]))
        ue.step_throughput_bps = float(tp_slots[:, i].mean())
        ue.bearing_slots = int(bearing[i])
        ue.outage_slots = int(outage_ct[i])
        ue.guard_slots_used = int(guard_ct[i])

    included = bearing > 0
    stats = throughput_percentiles(tp_slots.mean(axis=0)[included])
    mean_gamma = gamma_sum / gamma_n if gamma_n else float("nan")
    report = CellKpiReport(
        snr_hist=snr_hist, ta_hist=ta_hist, throughput=stats, mean_gamma_db=mean_gamma
    )
    return report, h
