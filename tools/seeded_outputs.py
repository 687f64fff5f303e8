#!/usr/bin/env python3
"""Hash the outputs of the seeded reference runs, one ``name sha256`` line
per file.

A change that must leave results alone (a refactor, a speed-up) runs this
before and after and compares the lines.  The runs are:

* ``shape_seed0``, ``shape_seed3``, ``shape_seed7`` - the shape mode from
  square 64QAM at 11 dB, jitter seeds 0, 3 and 7 (``shape.csv`` and
  ``shaped.txt``);
* ``gap_sweep_gh``, ``gap_sweep_mc`` - the gap sweep with the
  Gauss-Hermite and the seeded Monte Carlo estimator;
* ``awgn_e2e``, ``awgn_e2e_ldpc`` - the AWGN study without a code, and
  with a (3,6)-regular n = 240 alist drawn from seed 0;
* ``awgn_e2e_high`` - the AWGN study of square 64QAM from 20 to 30 dB,
  without a code, where far coset sums of the LLR kernel underflow;
* ``fiber_e2e`` - the fiber link at defaults;
* ``linkbudget`` - the band budget at defaults.

Every run writes to its own directory under a temporary directory, which
is removed afterwards unless ``--out`` names a directory to keep.  The
run manifests carry wall times, so they are not hashed.  ``--check FILE``
compares this run's lines with those saved in FILE for the same runs and
exits 1 if any file's hash differs, is missing or is new; a bare
``--check`` reads ``tools/seeded_outputs.txt``, the lines of the checked-in
tree.  Those were made with one BLAS thread on one machine; another
machine's BLAS may pick other kernels and change the last bits, so a
difference there is a reason to look, not by itself a fault.  Usage::

    python3 tools/seeded_outputs.py                  # every run
    python3 tools/seeded_outputs.py linkbudget gap_sweep_gh
    python3 tools/seeded_outputs.py --out /tmp/seeded
    python3 tools/seeded_outputs.py --check          # against the checked-in lines
    python3 tools/seeded_outputs.py linkbudget --check   # names go first
    python3 tools/seeded_outputs.py > before.txt     # then, after a change:
    python3 tools/seeded_outputs.py --check before.txt
"""

import argparse
import hashlib
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from shapelink import fec
from shapelink.experiments import ExperimentConfig, run_experiment

SAVED = pathlib.Path(__file__).with_name("seeded_outputs.txt")


def _shape(seed):
    return lambda _: ExperimentConfig(
        mode="shape", source="square64", design_snr_db=11.0, seed=seed
    )


def _ldpc_alist(work):
    path = os.path.join(work, "regular_240.alist")
    fec.save_alist(fec.make_regular_ldpc(240, row_weight=6, col_weight=3, seed=0), path)
    return ExperimentConfig(mode="awgn_e2e", fec_matrix=path)


#: run name -> config builder, called with the run's directory
RUNS = {
    "shape_seed0": _shape(0),
    "shape_seed3": _shape(3),
    "shape_seed7": _shape(7),
    "gap_sweep_gh": lambda _: ExperimentConfig(mode="gap_sweep", estimator="gh"),
    "gap_sweep_mc": lambda _: ExperimentConfig(mode="gap_sweep", estimator="mc"),
    "awgn_e2e": lambda _: ExperimentConfig(mode="awgn_e2e"),
    "awgn_e2e_ldpc": _ldpc_alist,
    "awgn_e2e_high": lambda _: ExperimentConfig(
        mode="awgn_e2e", source="square64", snr_start_db=20.0, snr_stop_db=30.0
    ),
    "fiber_e2e": lambda _: ExperimentConfig(mode="fiber_e2e"),
    "linkbudget": lambda _: ExperimentConfig(mode="linkbudget"),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hash_runs(names, root):
    """Run each named entry under ``root`` and yield ``(name, sha256)`` for
    every output file except the manifest, as ``<run>/<file>``."""
    for name in names:
        work = os.path.join(root, name)
        os.makedirs(work)
        report = run_experiment(RUNS[name](work), out_dir=work)
        for path in report.outputs:
            if path != report.manifest_path:
                yield f"{name}/{os.path.basename(path)}", _sha256(path)


def _read_hashes(path) -> dict:
    # "<run>/<file> <sha256>" lines, as this tool prints them
    with open(path, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", help=f"runs to hash (default all): {' '.join(RUNS)}")
    parser.add_argument("--out", default=None, help="keep the outputs in this new directory")
    parser.add_argument(
        "--check", metavar="FILE", nargs="?", const=SAVED, default=None,
        help=f"compare with the lines saved in FILE (default {SAVED.name}); "
        "exit 1 on any difference",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.runs if name not in RUNS]
    if unknown:
        parser.error(f"unknown runs: {' '.join(unknown)}")
    names = args.runs or list(RUNS)
    saved = _read_hashes(args.check) if args.check is not None else None
    got = {}
    with tempfile.TemporaryDirectory(prefix="seeded-") as tmp:
        root = args.out if args.out is not None else os.path.join(tmp, "runs")
        for name, digest in hash_runs(names, root):
            print(name, digest, flush=True)
            got[name] = digest
    if saved is None:
        return 0
    want = {key: digest for key, digest in saved.items() if key.split("/")[0] in names}
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    for key in differ:
        print(f"{key}: saved {want.get(key, '-')}, now {got.get(key, '-')}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
