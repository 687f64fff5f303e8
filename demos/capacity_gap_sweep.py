#!/usr/bin/env python3
"""Gap-to-capacity sweep over the four shipped 64-point designs.

Runs the gap_sweep experiment mode directly, serially in this process
(what ``shapelink run`` does on an empty config), and prints the table
it wrote.
"""

from shapelink import experiments

cfg = experiments.ExperimentConfig(
    mode="gap_sweep",
    output_dir="out_gap_sweep",
    snr_start_db=0.0,
    snr_stop_db=20.0,
    snr_step_db=1.0,
)
report = experiments.run_experiment(cfg)

header = "  ".join(f"{c:>10s}" for c in report.columns)
print(header)
for row in report.rows:
    print("  ".join(f"{v:10.4f}" for v in row))

print(f"\nwrote {report.outputs[0]}")

at11 = dict(zip(report.columns, report.rows[11]))
print(f"at 11 dB the shaped design recovers "
      f"{at11['gap_square'] - at11['gap_awgn']:.3f} bit/4D of the square "
      f"grid's gap")
print(f"and the marker ring costs "
      f"{at11['gap_system'] - at11['gap_awgn']:.3f} bit/4D of that back.")
