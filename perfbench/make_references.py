"""Regenerate perfbench/references.json from the current code.

    python3 perfbench/make_references.py [--jobs 2]

Every pinned value the workload checks comes from here; none is typed by
hand.  The expensive part is the fine-step link reference: the ``link``
study re-run at ``FINE_STEP_M`` maximum step, about two minutes per input
seed on one core.  Run it only when a deliberate change of results is
being re-pinned, and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workload as wl  # noqa: E402  (sets up the import path for shapelink)

FINE_STEP_M = 100.0
# the receiver BER bound: the pinned BER plus a quarter, plus 1e-4 absolute
BER_BOUND_SCALE = 1.25
BER_BOUND_FLOOR = 1e-4


def _scratch():
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=wl.WORK_DIR)


def _rows(cfg) -> list:
    from shapelink import experiments

    with _scratch() as out:
        return wl.json_rows(experiments.run_experiment(cfg, out_dir=out, workers=1).rows)


def _design_gap(size: str, seed: int) -> float:
    from shapelink import cli

    with _scratch() as out:
        ini = os.path.join(out, "design.ini")
        with open(ini, "w", encoding="utf-8") as fh:
            fh.write(wl.design_ini(size))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["shape", "--config", ini, "--seed", str(seed), "--out", out])
        if rc != 0:
            raise RuntimeError(f"shape exited {rc}")
        with open(os.path.join(out, "shape.csv"), encoding="utf-8") as fh:
            return float(next(csv.DictReader(fh))["gap_shaped_4d"])


def _awgn_rows(size: str, seed: int) -> list:
    with _scratch() as out:
        alist = os.path.join(out, "ldpc.alist")
        wl.write_alist(seed, alist)
        return _rows(wl.awgn_config(size, seed, alist))


def _rx_ber_bound(size: str, seed: int) -> float:
    ber = wl.blind_rx(*wl.blind_rx_input(size, seed))["ber"]
    return BER_BOUND_SCALE * ber + BER_BOUND_FLOOR


def _fine_snr(size: str, seed: int) -> float:
    return float(_rows(wl.link_config(size, seed, max_step_m=FINE_STEP_M))[0][1])


def task(kind: str, size: str, seed: int):
    if kind == "gap_sweep":
        return _rows(wl.gap_config(size))
    if kind == "linkbudget":
        return _rows(wl.linkbudget_config())
    return {
        "design_gap_4d": _design_gap,
        "awgn_e2e": _awgn_rows,
        "rx_ber_bound": _rx_ber_bound,
        "link_fine_snr_post_dbp": _fine_snr,
    }[kind](size, seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=1, help="worker processes (at most nproc)")
    args = ap.parse_args(argv)

    jobs = []
    for size in wl.SIZES:
        jobs += [("gap_sweep", size, 0), ("linkbudget", size, 0)]
        for seed in range(wl.INPUT_SEEDS):
            for kind in ("link_fine_snr_post_dbp", "design_gap_4d", "awgn_e2e", "rx_ber_bound"):
                jobs.append((kind, size, seed))
    # longest first, so the workers finish together
    jobs.sort(key=lambda j: (j[1] != "full", j[0] != "link_fine_snr_post_dbp"))
    with ProcessPoolExecutor(max_workers=max(1, args.jobs), mp_context=get_context("spawn")) as pool:
        futures = [(job, pool.submit(task, *job)) for job in jobs]
        results = [(job, fut.result()) for job, fut in futures]

    sizes: dict = {size: {} for size in wl.SIZES}
    for (kind, size, seed), value in results:
        if kind in ("gap_sweep", "linkbudget"):
            sizes[size][kind] = value
        else:
            sizes[size].setdefault(kind, {})[str(seed)] = value
    doc = {
        "generator": "perfbench/make_references.py",
        "git_commit": wl.git_commit(),
        "input_seeds": wl.INPUT_SEEDS,
        "fine_step_m": FINE_STEP_M,
        "sizes": sizes,
    }
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
