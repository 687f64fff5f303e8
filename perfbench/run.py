"""shapelink benchmark: the `design`, `link` and `b2b` workloads.

One workload, as the BENCHMARK.json command runs it (the last stdout
line is the JSON result)::

    python3 perfbench/run.py --workload design --seed 0 --seconds 15 --trace 0

All three workloads with every end-to-end metric printed by name::

    python3 perfbench/run.py --workload all --seed 0

Two independent sets of runs per workload, interleaved, with median and
quartiles of every metric per set (the evidence behind the bounds)::

    python3 perfbench/run.py --steadiness --runs 10

Each workload runs in fresh processes of ``workload.py`` with BLAS
limited to one thread.  ``setup_s`` is the median over ``SETUP_REPEATS``
processes of the time from process start to the end of set-up.  Results
with provenance go to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("design", "link", "b2b")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = "1"
# printed by --workload all; not in BENCHMARK.json because each applies to
# one workload only, or (error_rate) is 0 when the program is correct
QUALITY = {
    "error_rate": ("ratio", None),
    "gap_4d": ("bit/4D", "design"),
    "snr_err_db": ("dB", "link"),
    "dbp_gain_db": ("dB", "link"),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def spawn(args: list, deadline: float) -> tuple:
    """Run workload.py to completion; returns (start time, parsed JSON line)."""
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("time budget exhausted before the workload process started")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py")] + args,
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return t0, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", corrupt: bool = False) -> tuple:
    """Returns (contract result, details for the results file)."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    if corrupt:
        base.append("--corrupt-reference")

    def setup_only() -> float:
        t0, out = spawn(base + ["--setup-only"], deadline)
        return out["setup_end"] - t0

    # set-up samples straddle the measuring process, so a slow minute on a
    # shared box moves fewer of them
    extra = 0 if trace else SETUP_REPEATS - 1
    setups = [setup_only() for _ in range(extra // 2)]
    t0, out = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(out["setup_end"] - t0)
    setups += [setup_only() for _ in range(extra - extra // 2)]

    units = {m["name"]: m["unit"] for m in spec()["end_to_end" if not trace else "per_layer"]}
    if trace:
        values = dict(out["per_layer"])
        values["trace.run_s"] = statistics.median(out["traced_s"])
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(out["pass_s"])
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(out["pass_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "size": size,
        "setup_samples_s": setups,
        "first_pass_s": out["first_pass_s"],
        "pass_s": out["pass_s"],
        "traced_s": out.get("traced_s"),
        "quality": out["quality"],
        "errors": out["errors"],
        "spans_path": out.get("spans_path"),
        "provenance": out["provenance"],
        "result": result,
    }
    return result, details


def save_details(details: dict) -> str:
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    name = f"{details['workload']}-seed{details['provenance']['seed']}-trace{details['trace']}.json"
    path = os.path.join(WORK_DIR, "results", name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return path


def quality_row(result: dict, details: dict) -> dict:
    q = dict(details["quality"])
    q["error_rate"] = result["failed"] / result["attempted"]
    return q


def run_all(seed: int, seconds: float) -> int:
    e2e = [(m["name"], m["unit"]) for m in spec()["end_to_end"]]
    columns = e2e + [(k, u) for k, (u, _) in QUALITY.items()]
    print("workload  " + "  ".join(f"{n} ({u})" for n, u in columns))
    summary, ok = {}, True
    for w in WORKLOADS:
        result, details = run_workload(w, seed, seconds, 0)
        save_details(details)
        q = quality_row(result, details)
        values = {n: result["metrics"][n]["value"] for n, _ in e2e}
        values.update({k: q[k] for k, (_, only) in QUALITY.items() if only in (None, w)})
        cells = [f"{values[n]:.6g}" if n in values else "-" for n, _ in columns]
        print(f"{w:<8}  " + "  ".join(f"{c:>{len(n) + len(u) + 3}}" for c, (n, u) in zip(cells, columns)))
        for e in details["errors"]:
            print(f"  failed: {e}")
        ok &= result["correct"]
        units = dict(columns)
        summary[w] = {
            "correct": result["correct"],
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        }
    print(json.dumps(summary))
    return 0 if ok else 1


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / abs(q2) if q2 else float("inf")}


def run_steadiness(workloads: list, runs: int, seconds: float) -> int:
    """Two independent sets of ``runs`` runs per workload, seeds 0..runs-1
    and runs..2*runs-1, run interleaved (set 1, set 2, set 1, ...) so that a
    machine that slows down over time moves both sets alike; median,
    quartiles and spread per set and metric, checked against the
    BENCHMARK.json bounds.

    Every median drift is checked, and every spread except that of
    ``setup_s``: set-up is the shortest timing and the one a loaded
    machine moves most, so its spread is printed, marked when it is over
    the bound, and left out of the exit status.
    """
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    report: dict = {"runs": runs, "seconds": seconds, "workloads": {}}
    ok = True
    for w in workloads:
        samples: list = [{}, {}]
        for i in range(runs):
            for s in range(2):
                seed = s * runs + i
                result, details = run_workload(w, seed, seconds, 0)
                save_details(details)
                ok &= result["correct"]
                values = {k: v["value"] for k, v in result["metrics"].items()}
                values.update(quality_row(result, details))
                for k, v in values.items():
                    samples[s].setdefault(k, []).append(v)
                shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
                print(f"{w} set {s + 1} seed {seed}: {shown}", flush=True)
        sets = [{k: dict(quartiles(v), values=v) for k, v in one.items()} for one in samples]
        verdict = {}
        for k, bound in bounds.items():
            a, b = sets[0][k], sets[1][k]
            drift = (b["median"] - a["median"]) / a["median"]
            gated = k != "setup_s"
            verdict[k] = {
                "bound": bound,
                "spread_1": a["spread"],
                "spread_2": b["spread"],
                "spread_gated": gated,
                "median_drift": drift,
            }
            if gated:
                ok &= max(a["spread"], b["spread"]) <= bound
            ok &= abs(drift) <= bound
            note = "" if gated else " (spread not gated)"
            if max(a["spread"], b["spread"]) > bound:
                note += " SPREAD OVER BOUND"
            print(f"{w} {k}: spread {a['spread']:.4f} / {b['spread']:.4f}, "
                  f"median drift {drift:+.4f}, bound {bound}{note}")
        report["workloads"][w] = {"sets": sets, "verdict": verdict}
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, "steadiness.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"steadiness report: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10, help="runs per set with --steadiness")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    if not os.path.isfile(os.path.join(ROOT, "src", "shapelink", "__init__.py")):
        print("src/shapelink not found: run from a shapelink checkout", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    try:
        if args.steadiness:
            chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
            return run_steadiness(chosen, args.runs, seconds)
        if args.workload == "all":
            return run_all(args.seed, seconds)
        result, details = run_workload(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = save_details(details)
    print("provenance: " + json.dumps(details["provenance"], sort_keys=True))
    print(f"details: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
