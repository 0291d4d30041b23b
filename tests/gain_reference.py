"""The matmul and trailing-axis forms of the gain and AMC kernels, kept as a
test oracle the way ``step_reference.py`` serves the step kernel.

The package computes the gains on (slot, terminal) slabs with elementwise
passes and maps SNR to throughput through one table lookup. These are the
formulas they replaced: a stacked ``h @ codebook`` product, a sum over the
receive axis and a maximum over the trailing codeword or port axis, and a
threshold search followed by a clipped efficiency lookup.
"""

import numpy as np

from dpwsim.link_model import PRECODER_CODEBOOK


def reference_precoded_gain(h, codebook=PRECODER_CODEBOOK):
    gains = np.sum(np.abs(np.asarray(h) @ codebook) ** 2, axis=-2)
    return np.max(gains, axis=-1)


def reference_select_tx_port(h):
    return np.max(np.sum(np.abs(np.asarray(h)) ** 2, axis=-2), axis=-1)


def reference_map_throughput(snr_db, mcs, bandwidth_hz):
    snr = np.asarray(snr_db, dtype=float)
    idx = np.searchsorted(mcs.thresholds, snr, side="right") - 1
    outage = idx < 0
    eff = mcs.efficiencies[np.clip(idx, 0, len(mcs.efficiencies) - 1)]
    tp = np.where(outage, 0.0, eff * bandwidth_hz)
    if snr.ndim == 0:
        return float(tp), bool(outage)
    return tp, outage
