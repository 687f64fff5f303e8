#!/usr/bin/env python3
"""Two-stage constellation shaping walkthrough.

Starts from square 64QAM and shapes for GMI at 11 dB.  The PAPR knob is
then shown at two settings: a heavy penalty that buys per-dimension
envelope headroom at a visible GMI cost, and the gentle setting used
for the shipped system design, where a light re-settle plus the marker
ring gives blind-phase-recovery anchors for almost nothing.  Writes
each design to ./out_shaping/ as a constellation text file.
"""

import os

from shapelink import constellation as cst
from shapelink import shaping

OUT = "out_shaping"
SNR_DB = 11.0

os.makedirs(OUT, exist_ok=True)

square = cst.load_builtin("square64")


def report(name, c):
    gap = cst.gap_to_capacity(c, SNR_DB)
    papr_i, papr_q = cst.papr(c)
    print(f"{name:10s}  gap {gap:6.4f} bit/4D   papr ({papr_i:.3f}, {papr_q:.3f})")
    return gap


print(f"design point {SNR_DB} dB")
report("square", square)

# stage 1: pure GMI ascent
cfg = shaping.ShapingConfig(target_snr_db=SNR_DB, max_iterations=400)
stage1 = shaping.optimize(square, cfg)
print(f"\nstage 1: {stage1.iterations} accepted steps, converged={stage1.converged}")
report("shaped", stage1.constellation)
cst.save_constellation(stage1.constellation, os.path.join(OUT, "shaped_awgn.txt"))

# stage 2, heavy penalty: restart from stage 1 and squeeze the envelope
heavy = shaping.ShapingConfig(
    target_snr_db=SNR_DB, papr_penalty_weight=0.5, max_iterations=400
)
stage2 = shaping.optimize(stage1.constellation, heavy)
print(f"\nstage 2 (weight 0.5): {stage2.iterations} accepted steps, "
      f"converged={stage2.converged}")
report("low-papr", stage2.constellation)
cst.save_constellation(stage2.constellation, os.path.join(OUT, "shaped_papr.txt"))

# system design: gentle penalty to round off the outliers, then pin the
# four outermost points onto a common marker ring
gentle = shaping.ShapingConfig(
    target_snr_db=SNR_DB, papr_penalty_weight=0.01, max_iterations=400
)
settled = shaping.optimize(stage1.constellation, gentle)
marked = cst.add_ring_markers(settled.constellation, ring_gain=1.15)
print(f"\nsystem design: gentle re-settle ({settled.iterations} steps), "
      f"markers at {sorted(marked.marker_indices)}")
report("marked", marked)
cst.save_constellation(marked, os.path.join(OUT, "shaped_system.txt"))

print(f"\ndesigns written to {OUT}/")
