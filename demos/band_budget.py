#!/usr/bin/env python3
"""Per-wavelength budget across the amplification band, then rates.

Runs the ``linkbudget`` experiment mode (the 92-channel band with its
noise-figure and launch-power tilts) over 90 spans at -2.9 dBm mean
launch power, writing its table to a temporary directory.  Converts
each channel's total SNR into a demapper information rate via the
shipped shaped constellation's AWGN curve, picks a code rate per
channel from ``[fec] rates`` and totals the net throughput after the
``[fec] bch_overhead`` deduction, the same steps as the ``awgn_e2e``
mode: 30.395 Tb/s at the defaults.
"""

import tempfile

import numpy as np

from shapelink import constellation as cst
from shapelink import experiments, fec

SPANS = 90

with tempfile.TemporaryDirectory() as out:
    cfg = experiments.ExperimentConfig(
        mode="linkbudget", output_dir=out, span_count=SPANS, launch_power_dbm=-2.9
    )
    budget = experiments.run_experiment(cfg).rows

system = cst.load_builtin("system12")
m = system.bit_matrix.shape[1]

rows = []
for wl, ase, nli, total in budget:
    gmi_4d = 2.0 * cst.gmi_estimate(system, total)
    rate, feasible = fec.select_rate(gmi_4d, cfg.fec_rates, 2.0 * m)
    rows.append((wl, ase, nli, total, gmi_4d, rate, feasible))

print(f"{'wl [nm]':>9s} {'ase':>6s} {'nli':>6s} {'total':>6s} {'gmi/4D':>7s} {'rate':>5s}")
for wl, ase, nli, total, gmi, rate, ok in rows[:: max(1, len(rows) // 12)]:
    flag = "" if ok else "  (!)"
    print(f"{wl:9.2f} {ase:6.2f} {nli:6.2f} {total:6.2f} {gmi:7.3f} {str(rate):>5s}{flag}")

info_bits = [float(r[5]) * 2.0 * m for r in rows if r[6]]
per, total_tbps = fec.net_throughput(info_bits, cfg.symbol_rate_hz, cfg.bch_overhead)
print(f"\n{len(info_bits)} of {len(rows)} channels feasible")
print(f"net per channel: {min(per):.1f} .. {max(per):.1f} Gb/s")
print(f"band total: {total_tbps:.3f} Tb/s over {SPANS} spans")

snrs = np.array([r[3] for r in rows])
print(f"snr spread across the band: {snrs.min():.2f} .. {snrs.max():.2f} dB")
