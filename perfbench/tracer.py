"""Span tracing around shapelink's public functions, installed from outside.

Every function named in a shapelink module's ``__all__`` (plus
``cli.main``) is replaced by a wrapper that records one span per call:
name, start, end, parent span and pass id.  The wrapper is installed on
every module attribute bound to that function object, because modules
import each other's functions by name (``dsp`` calls its own
``bitwise_llrs`` binding, ``cli`` its own ``run_experiment``).  Nothing
inside the package changes; :meth:`Tracer.uninstall` restores the
original bindings.

Spans stay in memory and are written out once, by the caller, at the end
of the run.  The tracer assumes one calling thread (the benchmark runs
every study with ``workers=1``).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

MODULES = (
    "constellation",
    "shaping",
    "channel",
    "dsp",
    "fec",
    "linkbudget",
    "experiments",
    "cli",
)

# span names that differ from "<module>.<function>"
_ALIASES = {
    "shaping.optimize_awgn": "shaping.optimize",
    "shaping.optimize_papr": "shaping.optimize",
}


def _info_llrs(args, kwargs, out):
    symbols = kwargs.get("symbols", args[1] if len(args) > 1 else ())
    return {"symbols": int(getattr(symbols, "size", len(symbols)))}


def _info_optimize(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": int(bool(out.converged))}


def _info_rde(args, kwargs, out):
    # the state rides along only when the caller asked for it
    if isinstance(out, tuple):
        return {"restarts": int(out[1].restarts)}
    return {}


def _info_decode(args, kwargs, out):
    iters = out.iterations.reshape(-1)
    return {
        "codewords": int(iters.size),
        "iterations": int(iters.sum()),
        "ok": int(out.syndrome_ok.reshape(-1).sum()),
    }


# counts taken from arguments and return values, keyed by span name
_INFO = {
    "constellation.bitwise_llrs": _info_llrs,
    "shaping.optimize": _info_optimize,
    "dsp.rde_equalize": _info_rde,
    "fec.ldpc_decode": _info_decode,
}


class Tracer:
    """Records spans while installed; one instance per benchmark process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, pass id, info]
        self.spans: list = []
        self.pass_id = 0
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        extract = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function on every module attribute bound to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"shapelink.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            names = list(getattr(mod, "__all__", ()))
            if mod.__name__ == "shapelink.cli":
                names.append("main")
            for attr in names:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(_ALIASES.get(name, name), fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in self._saved:
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Dump the recorded spans as one JSON document."""
        rows = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "pass": s[4], "info": s[5]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _pass_totals(spans: list, pass_id: int) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed info."""
    child_time: dict = {}
    for i, s in enumerate(spans):
        if s[4] == pass_id and s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    out: dict = {}
    for i, s in enumerate(spans):
        if s[4] != pass_id:
            continue
        t = out.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "info": {}})
        dur = s[2] - s[1]
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child_time.get(i, 0.0)
        for k, v in (s[5] or {}).items():
            t["info"][k] = t["info"].get(k, 0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(totals: dict) -> dict:
    def get(name, key="self_s"):
        return totals.get(name, {}).get(key, 0.0 if key != "calls" else 0)

    def info(name, key):
        return totals.get(name, {}).get("info", {}).get(key, 0)

    opt_iters = info("shaping.optimize", "iterations")
    decoded = info("fec.ldpc_decode", "codewords")
    m = {
        "shaping.optimize.s": get("shaping.optimize", "s"),
        "shaping.gh_gmi_value_and_gradient.calls": get("shaping.gh_gmi_value_and_gradient", "calls"),
        "shaping.gh_gmi_value_and_gradient.self_s": get("shaping.gh_gmi_value_and_gradient"),
        "shaping.gh_gmi_value.calls": get("shaping.gh_gmi_value", "calls"),
        "shaping.gh_gmi_value.self_s": get("shaping.gh_gmi_value"),
        "shaping.iterations": opt_iters,
        "shaping.converged": info("shaping.optimize", "converged"),
        # accepted steps of the climb optimize returns, per GH value
        # evaluation in the pass (only the shaping objective calls
        # gh_gmi_value): each climb's start value, every line-search
        # candidate, the check against the unjittered start and, when that
        # check discards the jittered climb, every evaluation of both
        # climbs, so a retried climb lowers the ratio
        "shaping.accept_ratio": _ratio(opt_iters, get("shaping.gh_gmi_value", "calls")),
        "constellation.gmi_estimate.calls": get("constellation.gmi_estimate", "calls"),
        "constellation.gmi_estimate.self_s": get("constellation.gmi_estimate"),
        "constellation.bitwise_llrs.calls": get("constellation.bitwise_llrs", "calls"),
        "constellation.bitwise_llrs.self_s": get("constellation.bitwise_llrs"),
        "constellation.bitwise_llrs.symbols": info("constellation.bitwise_llrs", "symbols"),
        "channel.propagate_link.s": get("channel.propagate_link", "s"),
        "channel.ssfm_propagate.calls": get("channel.ssfm_propagate", "calls"),
        "channel.ssfm_propagate.self_s": get("channel.ssfm_propagate"),
        "channel.amplify.self_s": get("channel.amplify"),
        "dsp.dbp.self_s": get("dsp.dbp"),
        "dsp.cd_compensate.self_s": get("dsp.cd_compensate"),
        "dsp.rrc_shape.self_s": get("dsp.rrc_shape"),
        "dsp.matched_filter.self_s": get("dsp.matched_filter"),
        "dsp.llr_demap.self_s": get("dsp.llr_demap"),
        "dsp.rde_equalize.self_s": get("dsp.rde_equalize"),
        "dsp.rde_equalize.restarts": info("dsp.rde_equalize", "restarts"),
        "dsp.frequency_offset_compensate.self_s": get("dsp.frequency_offset_compensate"),
        "dsp.vv_cpe.self_s": get("dsp.vv_cpe"),
        "fec.ldpc_decode.calls": get("fec.ldpc_decode", "calls"),
        "fec.ldpc_decode.self_s": get("fec.ldpc_decode"),
        "fec.ldpc_decode.codewords": decoded,
        "fec.ldpc_decode.mean_iterations": _ratio(info("fec.ldpc_decode", "iterations"), decoded),
        "fec.ldpc_decode.ok_ratio": _ratio(info("fec.ldpc_decode", "ok"), decoded),
        "fec.systematic_encoder.self_s": get("fec.systematic_encoder"),
        "experiments.run_experiment.self_s": get("experiments.run_experiment"),
        "cli.main.self_s": get("cli.main"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            t["self_s"] for name, t in totals.items() if name.split(".", 1)[0] == module
        )
    return m


def per_layer(spans: list, pass_ids: list) -> dict:
    """Median over the traced passes of every per-layer metric."""
    per_pass = [_layer_metrics(_pass_totals(spans, p)) for p in pass_ids]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
