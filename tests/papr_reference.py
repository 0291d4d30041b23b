"""Block-by-block reference of the signal of ``waveform.papr_ensemble``, kept as a
test oracle the way ``step_reference.py`` serves the step kernel.

It draws the symbols of one block at a time, 16-QAM real parts before
imaginary parts, and transforms each block with a 1-D generator call. The
chunked ensemble in the package must reproduce its signal and the final
state of the random generator exactly.
"""

import numpy as np

from dpwsim.waveform import (
    _QAM16_LEVELS,
    _QPSK,
    OfdmGrid,
    generate_cp_ofdm,
    generate_dft_s_ofdm,
)


def reference_qpsk(n, rng):
    return _QPSK[rng.integers(0, 4, size=n)]


def reference_qam16(n, rng):
    re = _QAM16_LEVELS[rng.integers(0, 4, size=n)]
    im = _QAM16_LEVELS[rng.integers(0, 4, size=n)]
    return re + 1j * im


def reference_ensemble_signal(
    waveform, modulation, n_blocks, rng, n_subcarriers=256, n_data=240, oversample=1
):
    grid = OfdmGrid(
        n_subcarriers=n_subcarriers * oversample,
        dft_size=n_data,
        offset=0,
        n_tx=1,
    )
    draw = {"qpsk": reference_qpsk, "16qam": reference_qam16}[modulation]
    blocks = np.empty((n_blocks, grid.n_subcarriers), dtype=complex)
    for i in range(n_blocks):
        d = draw(n_data, rng)
        if waveform == "cp-ofdm":
            blocks[i] = generate_cp_ofdm(d, np.ones(1), grid)[:, 0]
        elif waveform == "dft-s-ofdm":
            blocks[i] = generate_dft_s_ofdm(d, grid)
        else:
            raise ValueError(f"unknown waveform {waveform!r}")
    return blocks.reshape(-1)
