#!/usr/bin/env python3
"""Regenerate the shipped constellation data files.

Deterministic: fixed jitter seeds, Gauss-Hermite objectives, fixed weight
schedule.  Writes awgn12.txt, papr12.txt and system12.txt into
src/shapelink/data/.  Takes about ten seconds on one core.

The shipped files were written by the earlier fixed-step ascent.  The
L-BFGS ascent lands on different, slightly better designs (awgn12 gap at
11 dB 0.3105 against the shipped 0.3196 bit/4D), so running this script
re-pins the shipped data.

Pipeline:

* awgn12   - gradient ascent on GMI at 12 dB from square 64QAM.  Jitter
  seeds 0-5 were surveyed offline with the fixed-step ascent; seed 0 with
  step 0.4 found the best basin (gap to capacity at 11 dB ~ 0.32 bit/4D)
  and is pinned here.
* papr12   - rising-weight continuation from awgn12 until the worse of
  (papr_i, papr_q) drops below 2.31, i.e. strictly under square 64QAM's
  49/21.  A single heavy-weight run would crush GMI; the continuation
  keeps most of it.
* system12 - light PAPR penalty (weight 0.01) on awgn12, then the four
  outermost points are raised onto a marker ring (gain 1.15).  This is
  the link-ready design: best GMI of the three, distinct marker ring for
  blind phase tracking, peak power still below the unconstrained stage.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from shapelink.constellation import (
    add_ring_markers,
    gap_to_capacity,
    papr,
    save_constellation,
    square64,
)
from shapelink.shaping import ShapingConfig, optimize

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "shapelink" / "data"

AWGN_CFG = ShapingConfig(step_size=0.4, improvement_tol=1e-6, max_iterations=4000)
# fine steps past 0.32: the low-PAPR branch is only followed continuously,
# a coarse jump there collapses into the penalty-dominated regime
PAPR_SCHEDULE = (
    0.01, 0.02, 0.04, 0.08, 0.16, 0.20, 0.24, 0.28,
    0.32, 0.34, 0.36, 0.38, 0.40, 0.42, 0.44, 0.46,
)
PAPR_TARGET = 2.31
SYSTEM_WEIGHT = 0.01
RING_GAIN = 1.15


def report(name, c):
    gap = gap_to_capacity(c, 11.0)
    pi, pq = papr(c)
    print(f"{name:10s} gap@11dB {gap:.4f} bit/4D   papr ({pi:.3f}, {pq:.3f})")


def main():
    sq = square64()
    report("square64", sq)

    awgn = optimize(sq, AWGN_CFG).constellation
    report("awgn12", awgn)
    save_constellation(awgn, DATA / "awgn12.txt")

    cur = awgn
    for w in PAPR_SCHEDULE:
        cfg = ShapingConfig(
            papr_penalty_weight=w,
            improvement_tol=1e-6,
            max_iterations=4000,
            init_jitter=0.0,
        )
        cur = optimize(cur, cfg).constellation
        if max(papr(cur)) < PAPR_TARGET:
            break
    else:
        raise RuntimeError("weight continuation never reached the PAPR target")
    report("papr12", cur)
    save_constellation(cur, DATA / "papr12.txt")

    sys_cfg = ShapingConfig(
        papr_penalty_weight=SYSTEM_WEIGHT, improvement_tol=1e-6, max_iterations=4000
    )
    staged = optimize(awgn, sys_cfg).constellation
    system = add_ring_markers(staged, RING_GAIN)
    report("system12", system)
    mk = sorted(system.marker_indices)
    coh = abs(np.exp(4j * np.angle(system.points[mk])).sum()) / 4
    print(f"marker indices {mk}, fourth-power coherence {coh:.3f}")
    save_constellation(system, DATA / "system12.txt")


if __name__ == "__main__":
    main()
