"""Self-test of the benchmark at a reduced size (about a minute).

    python3 perfbench/selftest.py

Checks, on every workload:

1. an untraced run reports every end-to-end metric of BENCHMARK.json with
   its unit, and its output checks pass;
2. a run against deliberately corrupted references fails its checks, so
   the error rate rises above 0;
3. a traced run reports every per-layer metric with its unit, and the
   layers each workload exists to exercise did run.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

# per-layer metrics that must be nonzero on each workload
EXERCISED = {
    "design": ("shaping.gh_gmi_value_and_gradient.calls", "shaping.gh_gmi_value.calls", "cli.main.self_s"),
    "link": ("channel.ssfm_propagate.calls", "dsp.dbp.self_s", "constellation.bitwise_llrs.symbols"),
    "b2b": ("constellation.gmi_estimate.calls", "fec.ldpc_decode.codewords", "dsp.rde_equalize.self_s",
            "linkbudget.self_s"),
}


def main() -> int:
    spec = run.spec()
    problems = []
    for w in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run.run_workload(w, 0, 0.0, trace, size="small")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            if got != want:
                problems.append(f"{w} trace {trace}: metrics differ from BENCHMARK.json {section}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
            if trace:
                idle = [k for k in EXERCISED[w] if not result["metrics"][k]["value"]]
                if idle:
                    problems.append(f"{w}: traced run shows no work in {idle}")
        bad, _ = run.run_workload(w, 0, 0.0, 0, size="small", corrupt=True)
        if bad["failed"] / bad["attempted"] <= 0 or bad["correct"]:
            problems.append(f"{w}: corrupted references still pass")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
