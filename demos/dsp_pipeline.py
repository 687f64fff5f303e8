#!/usr/bin/env python3
"""Blind receiver chain against transmit-side impairments.

Act one: square-grid symbols, pulse-shaped at 2 samples/symbol, hit
with a small polarization crosstalk (the radius-directed equalizer's
envelope on a dense constellation; heavier mixing needs a modulus-based
pre-stage it deliberately does not include), a 200 MHz carrier offset,
and additive noise at 26 dB per sample, 29 dB per symbol after the
matched filter.  ``dsp.blind_receive`` runs the blind chain
(matched filter, butterfly equalizer, 4th-power frequency recovery,
carrier phase tracking), settles polarization order and phase against
the known symbols, and demaps; the bits are counted.

Act two: the marker-ring payoff.  A 200 kHz-linewidth Wiener phase walk
at 12 dB SNR on the shaped system constellation, tracked through the
markers alone, stays inside the quarter-turn decision region.
"""

import math

import numpy as np

from shapelink import channel as ch
from shapelink import constellation as cst
from shapelink import dsp

SYMBOLS = 30_000
SNR_DB = 26.0
OFFSET_HZ = 200e6
CROSSTALK_RAD = 0.1  # ~ -20 dB polarization leakage

square = cst.load_builtin("square64")
tx, idx = dsp.random_symbols(square, SYMBOLS, seed=21)

wf = dsp.rrc_shape(tx, 2, 0.01)
wf = ch.apply_jones_rotation(wf, CROSSTALK_RAD)
wf = ch.apply_frequency_shift(wf, OFFSET_HZ)
wf = ch.add_transmitter_noise(wf, SNR_DB, seed=23)

aligned, llrs, estimate = dsp.blind_receive(wf, square, tx)
print(f"frequency recovery: {estimate / 1e6:.2f} MHz (applied {OFFSET_HZ / 1e6:.1f})")
n = aligned.n_symbols
print(f"residual error vector: {dsp.evm_db(aligned, tx.with_symbols(tx.symbols[:, :n])):.1f} dB")
bits = square.bit_matrix[idx][:, :n]
errors = int(np.sum((llrs.llrs < 0) != bits))
print(f"bit errors: {errors} / {bits.size}  (ber {errors / bits.size:.1e})")

# --- act two: marker-based carrier phase tracking -------------------------

system = cst.load_builtin("system12")
m = 100_000
sym, _ = dsp.random_symbols(system, m, seed=11)
track = ch.wiener_phase_walk(m, linewidth_hz=200e3, rate_hz=35e9, seed=3)
rng = np.random.default_rng(13)
nv = 10.0 ** (-12.0 / 10.0)
noise = (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))) * math.sqrt(nv / 2.0)
noisy = sym.with_symbols(sym.symbols * np.exp(1j * track)[None, :] + noise)

res = dsp.vv_cpe(noisy, system)
resid = res.phase_track - track
branch = np.pi / 2.0 * round(float(np.mean(resid[:64])) / (np.pi / 2.0))
worst = float(np.abs(resid - branch).max())
print(f"\nphase walk spanned {track.max() - track.min():.2f} rad over {m} symbols")
print(f"marker tracking residual: {worst:.3f} rad worst case "
      f"({'no' if worst < math.pi / 4 else 'HAS'} cycle slips, bound {math.pi / 4:.3f})")
