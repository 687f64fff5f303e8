"""One benchmark workload in one fresh process: set up, run timed passes, check.

Normally started by ``run.py``; runnable on its own for debugging::

    python3 perfbench/workload.py --workload link --seed 3 --seconds 15 --trace 0

Prints one JSON object as its last stdout line.  ``--setup-only`` stops
after set-up; ``run.py`` starts it several times to take the median
set-up time.  ``--size small`` shrinks every study for the self-test,
and ``--corrupt-reference`` perturbs the pinned references so that every
output check must fail.

The workload seed selects one of ``INPUT_SEEDS`` pinned input sets
(``seed % INPUT_SEEDS``) and is handed to the program as the config
seed; the fine-step link reference costs minutes per seed to compute,
so it is pinned for those seeds only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOADS = ("design", "link", "b2b")
INPUT_SEEDS = 10
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
REFERENCES = os.path.join(HERE, "references.json")

# check tolerances; the pinned values themselves come from make_references.py
ROW_RTOL = 1e-9
ROW_ATOL = 1e-12
FINE_STEP_TOL_DB = 0.01
GAP_SLACK_4D = 0.01
OFFSET_HZ = 200e6
OFFSET_TOL_HZ = 0.1e6
MIN_TIMED_PASSES = 2

# study sizes: "full" is what the benchmark measures, "small" feeds the self-test
SIZES = {
    "full": {
        "design": {"iterations": 300},
        "link": {},
        "gap_sweep": {},
        "awgn_e2e": {},
        "rx_symbols": 16384,
    },
    "small": {
        "design": {"iterations": 5},
        "link": {"span_count": 2, "symbols": 1024},
        "gap_sweep": {"snr_step_db": 5.0},
        "awgn_e2e": {"snr_step_db": 5.0, "symbols": 2048},
        "rx_symbols": 4096,
    },
}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def link_config(size: str, seed: int, **override):
    from shapelink import experiments

    return experiments.ExperimentConfig(
        mode="fiber_e2e", seed=input_seed(seed), **{**SIZES[size]["link"], **override}
    )


def awgn_config(size: str, seed: int, alist: str):
    from shapelink import experiments

    return experiments.ExperimentConfig(
        mode="awgn_e2e", seed=input_seed(seed), fec_matrix=alist, **SIZES[size]["awgn_e2e"]
    )


def gap_config(size: str):
    from shapelink import experiments

    return experiments.ExperimentConfig(mode="gap_sweep", estimator="gh", **SIZES[size]["gap_sweep"])


def linkbudget_config():
    from shapelink import experiments

    return experiments.ExperimentConfig(mode="linkbudget")


def design_ini(size: str) -> str:
    return (
        "[experiment]\nmode = shape\n\n"
        "[constellation]\nsource = square64\ndesign_snr_db = 11\n\n"
        "[sweep]\nestimator = gh\n\n"
        f"[shape]\niterations = {SIZES[size]['design']['iterations']}\n"
    )


def write_alist(seed: int, path: str) -> None:
    """(3,6)-regular n=1200 LDPC parity-check matrix drawn from the seed."""
    from shapelink import fec

    fec.save_alist(fec.make_regular_ldpc(1200, row_weight=6, col_weight=3, seed=input_seed(seed)), path)


def blind_rx_input(size: str, seed: int):
    """Impaired two-samples-per-symbol waveform of the blind receiver study:
    square 64QAM, -20 dB polarization crosstalk, 200 MHz carrier offset,
    26 dB transmitter noise (the act-one impairments of demos/dsp_pipeline.py)."""
    from shapelink import channel as ch
    from shapelink import constellation as cst
    from shapelink import dsp

    square = cst.load_builtin("square64")
    s = input_seed(seed)
    tx, idx = dsp.random_symbols(square, SIZES[size]["rx_symbols"], seed=1000 + s)
    wf = dsp.rrc_shape(tx, 2, 0.01)
    wf = ch.apply_jones_rotation(wf, 0.1)
    wf = ch.apply_frequency_shift(wf, OFFSET_HZ)
    wf = ch.add_transmitter_noise(wf, 26.0, seed=2000 + s)
    return square, tx, square.bit_matrix[idx], wf


def blind_rx(square, tx, tx_bits, wf) -> dict:
    """matched filter -> RDE -> frequency recovery -> CPE -> demap, then
    settle the polarization swap and per-polarization phase against the
    transmitted symbols and count bit errors."""
    import numpy as np
    from shapelink import dsp

    eq, _ = dsp.rde_equalize(dsp.matched_filter(wf, 0.01), square, return_state=True)
    foc, offset = dsp.frequency_offset_compensate(eq, square)
    rx = dsp.vv_cpe(foc, square).frame
    n = rx.n_symbols
    ref = tx.symbols[:, :n]
    best, best_err = None, math.inf
    for perm in ((0, 1), (1, 0)):
        cand = rx.symbols[list(perm), :]
        rot = np.empty((2, n), dtype=complex)
        for p in range(2):
            rot[p] = cand[p] * np.vdot(ref[p], ref[p]) / np.vdot(ref[p], cand[p])
        err = float(np.sum(np.abs(rot - ref) ** 2))
        if err < best_err:
            best, best_err = rot, err
    llrs = dsp.llr_demap(rx.with_symbols(best), square).llrs
    bits = tx_bits[:, :n]
    return {"offset_hz": offset, "ber": float(np.mean((llrs < 0) != bits))}


def rows_mismatch(got, want) -> str | None:
    """First difference between a table and its pinned rows, or None."""
    if len(got) != len(want):
        return f"{len(got)} rows, pinned {len(want)}"
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            return f"row {i}: {len(g_row)} columns, pinned {len(w_row)}"
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if isinstance(w, float) and not isinstance(g, (bool, str)):
                g = float(g)
                if math.isnan(w) and math.isnan(g):
                    continue
                if not abs(g - w) <= ROW_ATOL + ROW_RTOL * abs(w):
                    return f"row {i} column {j}: {g!r}, pinned {w!r}"
            elif g != w:
                return f"row {i} column {j}: {g!r}, pinned {w!r}"
    return None


def json_rows(rows) -> list:
    """Table rows as JSON-native values (numpy scalars become floats)."""
    return [[v if isinstance(v, (bool, str, int)) else float(v) for v in row] for row in rows]


def corrupted(value):
    """Every pinned number moved to -x - 1, so no check can still pass."""
    if isinstance(value, dict):
        return {k: corrupted(v) for k, v in value.items()}
    if isinstance(value, list):
        return [corrupted(v) for v in value]
    if isinstance(value, float):
        return -value - 1.0
    return value


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# workloads: set-up returns a state dict; a pass returns (ops, failures, quality)


def setup_design(size, seed, work, refs):
    ini = os.path.join(work, "design.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(design_ini(size))
    return {"ini": ini, "gap_ceiling": refs["design_gap_4d"][str(input_seed(seed))] + GAP_SLACK_4D}


def pass_design(state, seed, out):
    from shapelink import cli
    from shapelink import constellation as cst

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["shape", "--config", state["ini"], "--seed", str(input_seed(seed)), "--out", out])
    check(rc == 0, f"shapelink shape exited {rc}")
    with open(os.path.join(out, "shape.csv"), encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    gap = float(row["gap_shaped_4d"])
    check(float(row["gmi_shaped_2d"]) >= float(row["gmi_initial_2d"]), "shaped GMI below the initial GMI")
    shaped = cst.load_constellation(os.path.join(out, "shaped.txt"))
    power = float((abs(shaped.points) ** 2).mean())
    check(abs(power - 1.0) < 1e-9, f"shaped.txt loads at power {power}")
    check(gap <= state["gap_ceiling"], f"gap {gap} above the pinned ceiling {state['gap_ceiling']}")
    return {"gap_4d": gap}


def setup_link(size, seed, work, refs):
    return {"cfg": link_config(size, seed), "fine": refs["link_fine_snr_post_dbp"][str(input_seed(seed))]}


def pass_link(state, seed, out):
    from shapelink import experiments

    report = experiments.run_experiment(state["cfg"], out_dir=out)
    snr_pre, snr_post = float(report.rows[0][0]), float(report.rows[0][1])
    err = abs(snr_post - state["fine"])
    check(snr_post > snr_pre, f"DBP {snr_post} dB does not beat CDC {snr_pre} dB")
    check(err <= FINE_STEP_TOL_DB, f"post-DBP SNR {snr_post} is {err} dB from the fine-step reference")
    return {"snr_err_db": err, "dbp_gain_db": snr_post - snr_pre}


def setup_b2b(size, seed, work, refs):
    alist = os.path.join(work, "ldpc_n1200.alist")
    write_alist(seed, alist)
    s = str(input_seed(seed))
    return {
        "gap": gap_config(size),
        "awgn": awgn_config(size, seed, alist),
        "budget": linkbudget_config(),
        "rx": blind_rx_input(size, seed),
        "refs": {
            "gap_sweep": refs["gap_sweep"],
            "awgn_e2e": refs["awgn_e2e"][s],
            "linkbudget": refs["linkbudget"],
            "ber_bound": refs["rx_ber_bound"][s],
        },
    }


def b2b_ops(state, out):
    """The four back-to-back studies, each a separately counted operation."""
    from shapelink import experiments

    def study(name, cfg):
        def op():
            rows = experiments.run_experiment(cfg, out_dir=os.path.join(out, name), workers=1).rows
            bad = rows_mismatch(json_rows(rows), state["refs"][name])
            check(bad is None, f"{name}: {bad}")
            return {}

        return op

    def rx():
        got = blind_rx(*state["rx"])
        off_err = abs(got["offset_hz"] - OFFSET_HZ)
        check(off_err <= OFFSET_TOL_HZ, f"frequency estimate {got['offset_hz']} Hz, applied {OFFSET_HZ}")
        check(got["ber"] <= state["refs"]["ber_bound"], f"receiver BER {got['ber']} above {state['refs']['ber_bound']}")
        return {"rx_ber": got["ber"], "rx_offset_err_hz": off_err}

    return [study("gap_sweep", state["gap"]), study("awgn_e2e", state["awgn"]),
            study("linkbudget", state["budget"]), rx]


SETUP = {"design": setup_design, "link": setup_link, "b2b": setup_b2b}
PASS = {"design": pass_design, "link": pass_link}


def run_pass(workload, state, seed, out, errors):
    """One pass; returns (attempted, failed, quality values)."""
    ops = b2b_ops(state, out) if workload == "b2b" else [lambda: PASS[workload](state, seed, out)]
    failed, quality = 0, {}
    for op in ops:
        try:
            quality.update(op())
        except Exception as exc:  # any failure of the program or its check counts as a failed op
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
    return len(ops), failed, quality


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is not a stable numpy API
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
        "input_seed": input_seed(seed),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    import shapelink  # noqa: F401  (imports every module: part of set-up)

    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)["sizes"][args.size]
    if args.corrupt_reference:
        refs = corrupted(refs)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        state = SETUP[args.workload](args.size, args.seed, work, refs)
        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0
        result = measure(args, state, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_end"] = setup_end
    result["provenance"] = provenance(args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(args, state, work) -> dict:
    """A warm-up pass, then timed passes until ``--seconds`` of them have
    elapsed, at least ``MIN_TIMED_PASSES`` untraced.

    The warm-up is the first pass in a fresh process.  It pays one-off
    costs that later passes do not (on ``link``, millions of page faults
    while the allocator's thresholds settle), which a one-shot CLI run
    pays every time; it is reported as ``first_pass_s`` and kept out of
    ``pass_s``.  With ``--trace 1`` traced and untraced passes alternate
    after the warm-up, and at least one is traced.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    first, plain, traced, traced_ids = None, [], [], []
    attempted = failed = 0
    quality: dict = {}
    errors: list = []
    k = 0
    while True:
        use_trace = tracer is not None and k % 2 == 1
        out = os.path.join(work, f"pass{k}")
        os.makedirs(out)
        if use_trace:
            tracer.pass_id = k
            tracer.install()
        t0 = time.perf_counter()
        try:
            n, bad, q = run_pass(args.workload, state, args.seed, out, errors)
        finally:
            dt = time.perf_counter() - t0
            if use_trace:
                tracer.uninstall()
        if k == 0:
            first, start = dt, time.perf_counter()
        elif use_trace:
            traced.append(dt)
            traced_ids.append(k)
        else:
            plain.append(dt)
        attempted += n
        failed += bad
        for key, v in q.items():
            quality.setdefault(key, []).append(v)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        enough = len(plain) >= (1 if tracer else MIN_TIMED_PASSES) and (tracer is None or traced)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    for e in errors:
        print(f"failed: {e}", file=sys.stderr)
    result = {
        "first_pass_s": first,
        "pass_s": plain,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "quality": {key: statistics.median(v) for key, v in quality.items()},
    }
    if tracer is not None:
        from tracer import per_layer

        os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
        spans_path = os.path.join(WORK_DIR, "results", f"{args.workload}-seed{args.seed}-spans.json")
        tracer.write(spans_path)
        result["traced_s"] = traced
        result["per_layer"] = per_layer(tracer.spans, traced_ids)
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    return result


if __name__ == "__main__":
    sys.exit(main())
