"""Experiment runner: config files in, CSV tables and a manifest out.

Configs are INI text (sections of key = value pairs, parsed with
:mod:`configparser`); every run is fully seeded and produces
byte-identical CSV for identical config and seed.  A ``manifest.json``
recording the config hash, seed, package version, outputs, and wall
time is written for every run that starts, including failed ones;
partially written tables are removed on failure.

Five modes:

``shape``
    Gradient-shape a constellation at the design SNR, write the result
    as a constellation text file plus a one-row metrics table.
``gap_sweep``
    Capacity gap versus SNR for the four shipped designs, one column
    each.
``awgn_e2e``
    Symbols through the additive-noise channel at each sweep point:
    demapper information rate, pre-FEC error ratio, selected code rate,
    net throughput, and (with a parity matrix configured) the decode of
    the LLR magnitudes, which carry no channel error.
``fiber_e2e``
    Full transmit-propagate-receive chain over the multi-span fiber
    link, for a dispersion-compensation-only receiver and a
    back-propagating one, whose GMI sets the coded columns of ``awgn_e2e``.
``linkbudget``
    Analytical per-wavelength budget across the amplification band.
"""

from __future__ import annotations

import configparser
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from . import channel as ch
from . import constellation as cst
from . import dsp, fec, linkbudget, shaping
from .errors import ConfigurationError, DegenerateInputError

__all__ = [
    "ExperimentConfig",
    "MetricsReport",
    "parse_config",
    "validate_config",
    "run_experiment",
    "MODES",
]

MODES = ("shape", "gap_sweep", "awgn_e2e", "fiber_e2e", "linkbudget")

_DEFAULT_RATES = (
    "1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "5/6", "8/9", "9/10",
)


def _ini(section: str, default, key: str | None = None, accepts=None):
    """A config field read from ``key`` (default: the field name) in ``[section]``.

    ``accepts`` declares the values the field may take: a tuple of choices,
    or an interval written as in mathematics, such as ``"[0, 1)"`` or
    ``"(0, inf)"``.  A float field without one accepts ``"(-inf, inf)"``.
    """
    return field(default=default, metadata={"section": section, "key": key, "accepts": accepts})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, with desk-scale defaults.

    Each field is read from the INI section its declaration names, under
    its own name unless a ``key`` is given; the field's type sets how the
    value is parsed (a ``tuple`` is a whitespace-separated list), and its
    ``accepts`` the values :func:`validate_config` lets through.
    ``transmitter_snr_db`` is the back-to-back transceiver SNR: the noise
    added to the transmitted symbols in ``fiber_e2e`` and the flat
    transceiver term of the ``linkbudget`` rows; it may be +inf to
    disable transceiver noise in both;
    ``linewidth_hz`` 0 disables laser phase noise (and with it the
    carrier-phase stage of the fiber receiver).  ``max_step_m`` None sizes
    the split steps by nonlinear phase; a length forces uniform steps of
    at most that length.
    """

    mode: str = _ini("experiment", "gap_sweep", accepts=MODES)
    seed: int = _ini("experiment", 0, accepts="[0, inf)")
    output_dir: str = _ini("experiment", "runs", key="output")
    source: str = _ini("constellation", "system12")
    design_snr_db: float = _ini("constellation", 11.0)
    snr_start_db: float = _ini("sweep", 0.0)
    snr_stop_db: float = _ini("sweep", 20.0)
    snr_step_db: float = _ini("sweep", 1.0, accepts="(0, inf)")
    estimator: str = _ini("sweep", "gh", accepts=("gh", "mc"))
    mc_symbols: int = _ini("sweep", 1_000_000, accepts="[1000, inf)")
    span_count: int = _ini("channel", 9, key="spans", accepts="[1, inf)")
    launch_power_dbm: float = _ini("channel", -0.5)
    # a baseband field about the 193.4 THz carrier
    symbol_rate_hz: float = _ini("channel", 35e9, accepts="(0, 193.4e12]")
    channel_spacing_hz: float = _ini("channel", 50e9)
    # samples per symbol of the transmitter and link grid; the fiber_e2e
    # receivers resample to _RX_SAMPLES_PER_SYMBOL
    oversampling: int = _ini("channel", 4, accepts="[2, inf)")
    symbols: int = _ini("channel", 16384, accepts="[64, inf)")
    transmitter_snr_db: float = _ini("channel", 20.0, accepts="(-inf, inf]")
    linewidth_hz: float = _ini("channel", 0.0, accepts="[0, inf)")
    max_step_m: float | None = _ini("channel", None, accepts="(0, inf)")
    rrc_rolloff: float = _ini("dsp", 0.01, accepts="(0, 1)")
    cpe_block_length: int = _ini("dsp", 64, accepts="[1, inf)")
    dbp_steps_per_span: int = _ini("dsp", 4, accepts="[1, inf)")
    fec_matrix: str = _ini("fec", "", key="matrix")
    fec_rates: tuple = _ini("fec", _DEFAULT_RATES, key="rates")
    bch_overhead: float = _ini("fec", 0.005, accepts="[0, 1)")
    ber_threshold: float = _ini("fec", 3e-4, accepts="(0, inf)")
    band_channels: int = _ini("band", 92, key="channels", accepts="[1, 10000]")
    mean_nf_db: float = _ini("band", 1.4)
    nf_tilt_db: float = _ini("band", -5.7)
    signal_tilt_db: float = _ini("band", -2.0)
    band_start_nm: float = _ini("band", 1525.0, key="start_nm", accepts="(0, inf)")
    band_stop_nm: float = _ini("band", 1616.0, key="stop_nm", accepts="(0, inf)")
    shape_iterations: int = _ini("shape", 300, key="iterations", accepts="[1, inf)")
    papr_weight: float = _ini("shape", 0.0, accepts="[0, inf)")
    add_markers: bool = _ini("shape", False)
    ring_gain: float = _ini("shape", 1.15, accepts="(1, inf)")


@dataclass(frozen=True)
class MetricsReport:
    """What a run produced: the table plus where everything went."""

    columns: tuple
    rows: tuple
    outputs: tuple
    manifest_path: str


# ---------------------------------------------------------------------------
# config parsing


# how a value is parsed, by field annotation
_KINDS = {
    "str": str, "int": int, "float": float, "float | None": float, "bool": bool, "tuple": tuple,
}

# (section, key) -> (ExperimentConfig field name, parse kind), in field order
_INI_KEYS = {
    (f.metadata["section"], f.metadata["key"] or f.name): (f.name, _KINDS[f.type])
    for f in dataclasses.fields(ExperimentConfig)
}
_SECTIONS = {section for section, _ in _INI_KEYS}

# ExperimentConfig field name -> the values it accepts: a tuple of choices,
# an interval, or None for a field with no single-key check
_ACCEPTS = {
    f.name: f.metadata["accepts"] or ("(-inf, inf)" if _KINDS[f.type] is float else None)
    for f in dataclasses.fields(ExperimentConfig)
}


def parse_config(path) -> tuple:
    """Read an INI experiment config.

    Returns ``(config, diagnostics)``; ``config`` is None when the file
    cannot be parsed at all.  Unknown sections (``[DEFAULT]`` too) or keys
    and values of the wrong type are reported as ``section.key: message``
    diagnostics, and none of their values is applied.  A
    ``;`` after whitespace starts a comment, also at the end of a value.
    """
    diags = []
    # no header can name a section "\n", so a [DEFAULT] section is read as
    # an ordinary (unknown) one instead of lending its keys to every other
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=(";",), default_section="\n"
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        return None, [f"config: cannot read {path}: {exc.strerror or exc}"]
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if line is None:
            errs = getattr(exc, "errors", None)
            if errs:
                line = errs[0][0]
        where = f"line {line}: " if line else ""
        return None, [f"config: {where}{exc.message.splitlines()[0]}"]

    # typed reads, by parse kind (a float accepts "inf")
    typed = {bool: parser.getboolean, int: parser.getint, float: parser.getfloat}
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            diags.append(f"{section}: unknown section")
            continue
        for key, raw in parser.items(section):
            if (section, key) not in _INI_KEYS:
                diags.append(f"{section}.{key}: unknown key")
                continue
            field_name, kind = _INI_KEYS[section, key]
            try:
                if kind in typed:
                    values[field_name] = typed[kind](section, key)
                else:
                    values[field_name] = tuple(raw.split()) if kind is tuple else raw
            except ValueError:
                diags.append(
                    f"{section}.{key}: expected {kind.__name__}, got {raw!r}"
                )
    return ExperimentConfig(**values), diags


def _is_builtin(name: str) -> bool:
    return name in cst.builtin_names()


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written like ``"[0, 1)"``; never NaN."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    return above and (value <= high if interval[-1] == "]" else value < high)


def _outside(value, interval: str) -> str:
    """The diagnostic for a ``value`` that ``interval`` does not hold."""
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    low, high = interval[1:-1].split(", ")
    if high == "inf":
        return f"must be {'at least' if interval[0] == '[' else 'above'} {low}"
    return f"must be in {interval}"


def validate_config(cfg: ExperimentConfig) -> list:
    """All invariant violations, as ``section.key: message`` strings in field order.

    Each value must be one that its field ``accepts``; a float outside
    them that is NaN or infinite reads "must be finite".  The checks after
    that loop read the file system or a second key, and a key already
    reported keeps its first diagnostic; the channel grid and band edges
    are checked in ``linkbudget`` only, the ``[fec] matrix`` file in
    ``awgn_e2e`` only, the modes that read them.  A ``fiber_e2e`` link is
    planned without running it, at a launch power that must be nonzero and
    finite in watts.  A forward step count above the engine's limit is a
    ``channel.`` diagnostic, on ``max_step_m`` when that is set and on
    ``launch_power_dbm`` otherwise; a DBP step count above it is a
    ``dsp.dbp_steps_per_span`` one.  Split-step work above 1000 x the
    defaults' plan is one diagnostic, on the DBP key when DBP steps are
    the larger share and on the forward key otherwise.  Sweep points x
    samples drawn above 1000 x the defaults' is one diagnostic on
    ``channel.symbols`` for ``awgn_e2e`` and on ``sweep.mc_symbols`` for a
    Monte Carlo ``gap_sweep``.
    """
    d = {}
    for (section, key), (name, _) in _INI_KEYS.items():
        value, accepts = getattr(cfg, name), _ACCEPTS[name]
        if accepts is None or value is None:
            continue
        if isinstance(accepts, tuple):
            if value not in accepts:
                d[section, key] = f"unknown {key} {value!r}; choose from {', '.join(accepts)}"
        elif not _within(value, accepts):
            d[section, key] = _outside(value, accepts)
    if not _is_builtin(cfg.source) and not os.path.isfile(cfg.source):
        d["constellation", "source"] = f"not a builtin name and file does not exist: {cfg.source}"
    if cfg.mode == "awgn_e2e" and cfg.fec_matrix and not os.path.isfile(cfg.fec_matrix):
        d["fec", "matrix"] = f"file does not exist: {cfg.fec_matrix}"
    try:
        rates = [Fraction(r) for r in cfg.fec_rates]
        if not rates:
            d["fec", "rates"] = "must list at least one rate"
        elif any(not 0 < r < 1 for r in rates):
            d["fec", "rates"] = "every rate must be in (0, 1)"
    except (ValueError, ZeroDivisionError):
        d["fec", "rates"] = f"unparseable rate list {' '.join(cfg.fec_rates)!r}"
    if cfg.snr_stop_db < cfg.snr_start_db:
        d.setdefault(("sweep", "snr_stop_db"), "empty sweep range (stop below start)")
    sweep = [("sweep", key) for key in ("snr_start_db", "snr_stop_db", "snr_step_db")]
    if not any(key in d for key in sweep) and _sweep_span(cfg) >= _MAX_SWEEP_POINTS:
        d["sweep", "snr_step_db"] = f"over {_MAX_SWEEP_POINTS} sweep points from start to stop"
    if cfg.mode == "linkbudget":
        if cfg.channel_spacing_hz < cfg.symbol_rate_hz:
            d.setdefault(
                ("channel", "channel_spacing_hz"), "below the symbol rate (grid violation)"
            )
        if cfg.band_stop_nm <= cfg.band_start_nm and cfg.band_channels > 1:
            d.setdefault(("band", "stop_nm"), "must exceed start_nm")
    # the samples each sweep point draws, if the run draws any
    draw_key = None
    if cfg.mode == "awgn_e2e":
        draw_key = ("channel", "symbols")
    elif cfg.mode == "gap_sweep" and cfg.estimator == "mc":
        draw_key = ("sweep", "mc_symbols")
    if draw_key and not any(key in d for key in sweep + [draw_key]):
        name = _INI_KEYS[draw_key][0]
        points, samples = len(_sweep_points(cfg)), getattr(cfg, name)
        draws = points * samples / (_DEFAULT_POINTS * getattr(_DEFAULT_CONFIG, name))
        if draws > _MAX_WORK_FACTOR:
            d[draw_key] = (
                f"{points} sweep points of {samples} samples are {draws:.3g} x the defaults' "
                f"draws, over the {_MAX_WORK_FACTOR} x cap"
            )
    plan_keys = ("spans", "launch_power_dbm", "oversampling", "symbols", "max_step_m")
    link = [("channel", key) for key in plan_keys] + [("dsp", "dbp_steps_per_span")]
    if cfg.mode == "fiber_e2e" and not any(key in d for key in link):
        fwd_key = ("channel", "launch_power_dbm" if cfg.max_step_m is None else "max_step_m")
        dbp_key = ("dsp", "dbp_steps_per_span")
        fwd = back = None
        try:
            fwd = _forward_steps(cfg)
        except DegenerateInputError as exc:
            d["channel", "launch_power_dbm"] = f"not expressible in watts: {exc}"
        except ConfigurationError as exc:
            d[fwd_key] = f"split-step plan fails: {exc}"
        try:
            back = _dbp_steps(cfg)
        except ConfigurationError as exc:
            d[dbp_key] = f"DBP plan fails: {exc}"
        if fwd is not None and back is not None:
            work = _split_step_work(cfg, fwd, back)
            if work > _MAX_WORK_FACTOR * _DEFAULT_WORK:
                # on the key that sets the larger share of the steps
                d[dbp_key if back > fwd else fwd_key] = (
                    f"{cfg.span_count} spans of {fwd} split steps and {back} DBP steps on "
                    f"{cfg.symbols * cfg.oversampling} samples are "
                    f"{work / _DEFAULT_WORK:.3g} x the defaults' work, "
                    f"over the {_MAX_WORK_FACTOR} x cap"
                )
    return [f"{s}.{k}: {d[s, k]}" for s, k in _INI_KEYS if (s, k) in d]


# ---------------------------------------------------------------------------
# deterministic CSV


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared pieces


def _load_constellation(cfg: ExperimentConfig) -> cst.Constellation:
    if _is_builtin(cfg.source):
        return cst.load_builtin(cfg.source)
    return cst.load_constellation(cfg.source)


#: the most SNR points a sweep may hold
_MAX_SWEEP_POINTS = 100_000


def _sweep_span(cfg: ExperimentConfig) -> float:
    """(stop - start) / step, nudged so a stop on the grid is kept: the
    sweep holds floor of it plus one points (inf when it overflows)."""
    return (cfg.snr_stop_db - cfg.snr_start_db) / cfg.snr_step_db + 1e-9


def _sweep_points(cfg: ExperimentConfig) -> np.ndarray:
    count = int(math.floor(_sweep_span(cfg))) + 1
    return cfg.snr_start_db + cfg.snr_step_db * np.arange(count)


def _forward_steps(cfg: ExperimentConfig) -> int:
    """Split steps per span of a ``fiber_e2e`` link, planned at the launch power."""
    launch_w = cst._from_db(cfg.launch_power_dbm - 30.0, f"{cfg.launch_power_dbm!r} dBm")
    return sum(ch.split_steps(ch.hybrid_span().segments, launch_w, cfg.max_step_m))


def _dbp_steps(cfg: ExperimentConfig) -> int:
    """DBP steps per span of a ``fiber_e2e`` link."""
    return sum(dsp.dbp_steps(ch.hybrid_span(), cfg.dbp_steps_per_span))


def _split_step_work(cfg: ExperimentConfig, fwd: int, back: int) -> int:
    """The work of ``fwd`` forward and ``back`` DBP steps per span:
    span count x (forward + DBP steps) x samples, all at ``oversampling``
    samples per symbol.  DBP runs at ``_RX_SAMPLES_PER_SYMBOL``, so its
    share is an upper bound."""
    return cfg.span_count * (fwd + back) * cfg.symbols * cfg.oversampling


#: the most work a run may ask for, as a multiple of the defaults': the
#: split steps of a ``fiber_e2e`` plan (enough for the paper's 90 spans at
#: 100 m steps), or the samples a sweep draws
_MAX_WORK_FACTOR = 1000
_DEFAULT_CONFIG = ExperimentConfig()
_DEFAULT_WORK = _split_step_work(
    _DEFAULT_CONFIG, _forward_steps(_DEFAULT_CONFIG), _dbp_steps(_DEFAULT_CONFIG)
)
_DEFAULT_POINTS = len(_sweep_points(_DEFAULT_CONFIG))


# ---------------------------------------------------------------------------
# modes


def _run_shape(cfg: ExperimentConfig, out_dir: str):
    initial = _load_constellation(cfg)
    shape_cfg = shaping.ShapingConfig(
        target_snr_db=cfg.design_snr_db,
        papr_penalty_weight=cfg.papr_weight,
        max_iterations=cfg.shape_iterations,
        jitter_seed=cfg.seed,
    )
    result = shaping.optimize(initial, shape_cfg)
    shaped = result.constellation
    if cfg.add_markers:
        shaped = cst.add_ring_markers(shaped, ring_gain=cfg.ring_gain)

    shaped_path = os.path.join(out_dir, "shaped.txt")
    cst.save_constellation(shaped, shaped_path)

    gmi0 = cst.gmi_estimate(initial, cfg.design_snr_db)
    gmi1 = cst.gmi_estimate(shaped, cfg.design_snr_db)
    papr_i, papr_q = cst.papr(shaped)
    row = {
        "design_snr_db": cfg.design_snr_db,
        "gmi_initial_2d": gmi0,
        "gmi_shaped_2d": gmi1,
        "gap_shaped_4d": cst.gap_from_gmi(gmi1, cfg.design_snr_db),
        "papr_i": papr_i,
        "papr_q": papr_q,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    return [row], [shaped_path]


_SWEEP_BUILTINS = (
    ("gap_square", "square64"),
    ("gap_awgn", "awgn12"),
    ("gap_papr", "papr12"),
    ("gap_system", "system12"),
)


def _run_gap_sweep(cfg: ExperimentConfig):
    designs = [(col, cst.load_builtin(name)) for col, name in _SWEEP_BUILTINS]
    kwargs = {"estimator": cfg.estimator, "samples": cfg.mc_symbols, "seed": cfg.seed}
    rows = [{"snr_db": float(snr)} for snr in _sweep_points(cfg)]
    for row in rows:
        row.update((col, cst.gap_to_capacity(c, row["snr_db"], **kwargs)) for col, c in designs)
    return rows, []


def _add_awgn(rng, symbols: np.ndarray, noise_var: float) -> np.ndarray:
    """``symbols`` plus circular complex Gaussian noise of variance ``noise_var``."""
    noise = rng.normal(size=symbols.shape + (2,)).view(np.complex128)[..., 0]
    return symbols + math.sqrt(noise_var / 2.0) * noise


def _coded_ber(h, llr_magnitudes, rng) -> float:
    """Post-decode error ratio of ``h``'s code on LLR magnitudes.

    The magnitudes, in blocks of ``h.cols``, are decoded as the all-zero
    word, and every decoded one counts as an error.  Magnitudes drop every
    channel error, so this reads 0 at every SNR; the planned fix (ROADMAP,
    "A post-FEC BER that decodes") decodes ``llrs * (1 - 2 * bits)``
    instead.  Min-sum is sign-symmetric under a codeword, so the result is
    bit for bit that of impressing any codeword's signs on the magnitudes,
    decoding, and counting the bits that differ from the codeword.  The one
    exception is an LLR of exactly +-0.0, which reads as bit 0 on both
    routes.
    """
    flat = llr_magnitudes.reshape(-1)
    n_cw = flat.size // h.cols
    if n_cw == 0:
        return float("nan")
    # nothing reads this draw: it is held so that every later row keeps the
    # symbols the pinned references draw
    rng.integers(0, 2, size=(n_cw, h.cols - h.rank))
    res = fec.ldpc_decode(flat[: n_cw * h.cols].reshape(n_cw, h.cols), h)
    return float(np.mean(res.bits))


def _coded_columns(cfg: ExperimentConfig, m: int, gmi_2d: float, ber_post=None) -> dict:
    """A row's coded tail for a 2^m-point constellation at ``gmi_2d``: the
    largest of ``[fec] rates`` the GMI supports, its net rate after the
    outer code's overhead, and what enters the outer code, ``ber_post`` as
    measured through an inner code or, when None, the ideal inner code
    (error free at a feasible rate, NaN otherwise), with its gate.
    """
    rate, feasible = fec.select_rate(2.0 * gmi_2d, cfg.fec_rates, 2.0 * m)
    net, _ = fec.net_throughput([float(rate) * 2.0 * m], cfg.symbol_rate_hz, cfg.bch_overhead)
    if ber_post is None:
        ber_post = 0.0 if feasible else float("nan")
    gate = fec.post_fec_gate(ber_post, cfg.ber_threshold) if math.isfinite(ber_post) else False
    return dict(
        code_rate=str(rate), rate_feasible=feasible, net_gbps=net[0], gate_pass=gate,
        ber_post_fec=ber_post,
    )


def _llr_metrics(llrs, bits) -> tuple:
    """GMI (bit/2D) and pre-FEC bit error ratio of (rows, m) LLRs against the sent bits."""
    return cst.gmi_from_llrs(llrs, bits), fec.ber_measure(llrs < 0, bits)


def _run_awgn_e2e(cfg: ExperimentConfig):
    c = _load_constellation(cfg)
    m = c.bit_matrix.shape[1]
    h = fec.load_alist(cfg.fec_matrix) if cfg.fec_matrix else None
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for snr_db in _sweep_points(cfg):
        idx = rng.integers(0, len(c.points), size=cfg.symbols)
        noise_var = cst._noise_variance(float(snr_db))
        llrs = cst.bitwise_llrs(c, _add_awgn(rng, c.points[idx], noise_var), noise_var)
        gmi_2d, ber_pre = _llr_metrics(llrs, c.bit_matrix[idx])
        row = {
            "snr_db": float(snr_db),
            "gmi_2d": gmi_2d,
            "gap_4d": cst.gap_from_gmi(gmi_2d, float(snr_db)),
            "ber_pre_fec": ber_pre,
        }
        ber_post = _coded_ber(h, np.abs(llrs), rng) if h is not None else None
        rows.append(row | _coded_columns(cfg, m, gmi_2d, ber_post))
    return rows, []


#: the receivers' ADC rate, which is also the rate ``dsp.rde_equalize``
#: requires: both ``fiber_e2e`` receivers (CDC and DBP) resample the
#: received field to it, while the transmitter and the link stay on the
#: ``oversampling`` grid.  Budget: on a noiseless 2-span link at -3, 0
#: and +3 dBm, DBP at this rate is at least 60 dB below signal from DBP
#: at 4 samples per symbol on the same received field, after matched
#: filter, decimation and ``dsp.align`` (measured 99 / 90 / 78 dB)
_RX_SAMPLES_PER_SYMBOL = 2


def _receiver_chain(comp, c, cfg):
    """Receive one dispersion-compensated waveform: matched filter,
    decimation, optional carrier phase tracking.  The tracker reads the
    marker ring at the constellation's unit power, so each polarization
    is first scaled to unit mean power, as ``dsp.rde_equalize`` scales
    its input."""
    sym = dsp.decimate(dsp.matched_filter(comp, rolloff=cfg.rrc_rolloff))
    if cfg.linewidth_hz > 0:
        power = np.mean(np.abs(sym.symbols) ** 2, axis=1, keepdims=True)
        sym = sym.with_symbols(sym.symbols / np.sqrt(power))
        sym = dsp.vv_cpe(sym, c, block_length=cfg.cpe_block_length).frame
    return sym


def _symbol_metrics(sym, ref, c, tx_bits):
    """SNR in dB, GMI and pre-FEC BER of a received frame, all read from its
    one :func:`dsp.align` against ``ref``; the SNR is ``-evm_db`` of the
    aligned frame, capped at ``linkbudget.SNR_CAP_DB``."""
    aligned = dsp.align(sym, ref)
    snr_db = min(linkbudget.SNR_CAP_DB, -dsp.evm_db(aligned, ref))
    llrs = dsp.llr_demap(aligned, c).llrs
    m = llrs.shape[2]
    return (snr_db, *_llr_metrics(llrs.reshape(-1, m), tx_bits.reshape(-1, m)))


def _run_fiber_e2e(cfg: ExperimentConfig):
    c = _load_constellation(cfg)
    ref, idx = dsp.random_symbols(c, cfg.symbols, seed=cfg.seed)
    ref = dataclasses.replace(ref, symbol_rate=cfg.symbol_rate_hz)
    tx_bits = c.bit_matrix[idx]

    # transceiver impairment is symbol-referred (back-to-back SNR), so it
    # is injected before pulse shaping rather than as wideband noise; +inf,
    # or any SNR above the highest a noise variance is taken at, adds none
    tx = ref
    snr_db = cfg.transmitter_snr_db
    if snr_db <= cst._SNR_LIMIT_DB:
        rng = np.random.default_rng(cfg.seed + 1)
        nv = cst._noise_variance(snr_db) * float(np.mean(np.abs(ref.symbols) ** 2))
        tx = ref.with_symbols(_add_awgn(rng, ref.symbols, nv))

    wave = dsp.rrc_shape(tx, cfg.oversampling, rolloff=cfg.rrc_rolloff)
    wave = ch.with_power(wave, cfg.launch_power_dbm)
    if cfg.linewidth_hz > 0:
        walk = ch.wiener_phase_walk(
            wave.samples.shape[1], cfg.linewidth_hz, wave.sample_rate, seed=cfg.seed + 2
        )
        wave = ch.apply_phase(wave, walk)
    spans = [ch.hybrid_span()] * cfg.span_count
    link = ch.propagate_link(wave, spans, seed=cfg.seed + 3, max_step_m=cfg.max_step_m)
    del wave  # the receivers need only the received field
    link = dsp.resample(link, _RX_SAMPLES_PER_SYMBOL)

    sym_cdc = _receiver_chain(dsp.cd_compensate(link, spans), c, cfg)
    sym_dbp = _receiver_chain(
        dsp.dbp(link, spans, steps_per_span=cfg.dbp_steps_per_span), c, cfg
    )
    snr_pre, gmi_pre, _ = _symbol_metrics(sym_cdc, ref, c, tx_bits)
    snr_post, gmi_post, ber_pre = _symbol_metrics(sym_dbp, ref, c, tx_bits)
    row = {
        "snr_pre_dbp": snr_pre,
        "snr_post_dbp": snr_post,
        "gmi_pre": gmi_pre,
        "gmi_post": gmi_post,
        "ber_pre_fec": ber_pre,
    }
    return [row | _coded_columns(cfg, c.bit_matrix.shape[1], gmi_post)], []


def _run_linkbudget(cfg: ExperimentConfig):
    rows = linkbudget.band_budget(
        ch.hybrid_span(),
        cfg.span_count,
        channels=cfg.band_channels,
        start_nm=cfg.band_start_nm,
        stop_nm=cfg.band_stop_nm,
        mean_nf_db=cfg.mean_nf_db,
        nf_tilt_db=cfg.nf_tilt_db,
        mean_power_dbm=cfg.launch_power_dbm,
        signal_tilt_db=cfg.signal_tilt_db,
        spacing_hz=cfg.channel_spacing_hz,
        symbol_rate_hz=cfg.symbol_rate_hz,
        transceiver_snr_db=cfg.transmitter_snr_db,
    )
    return rows, []


# ---------------------------------------------------------------------------
# orchestration


def _config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# glibc mallopt parameters (malloc.h) and the values run_experiment sets.
# Left to itself, glibc raises both thresholds only after a large block is
# freed; until then each FFT buffer or GH table above 128 kB is faulted in
# afresh.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64-bit
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def _settle_allocator() -> None:
    """Set glibc's mmap and trim thresholds once; a no-op off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str | None = None, workers: int = 1
) -> MetricsReport:
    """Validate, run, and persist one experiment, serially in this process.

    ``out_dir`` overrides the config.  ``workers`` must be 1; it stays only
    until ``perfbench/workload.py`` and ``make_references.py`` stop passing
    it.  Raises :class:`ConfigurationError` on diagnostics (before anything
    is written) and re-raises runtime failures after writing a failed
    manifest and removing partial tables.

    Side effect: on glibc, the first call fixes malloc's mmap and trim
    thresholds (32 and 64 MiB) for the rest of the process, so a run's
    speed does not depend on which arrays the process happened to free
    first.  Results do not change, and importing the package leaves the
    allocator alone.
    """
    _settle_allocator()
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, output_dir=out_dir)
    if workers != 1:
        raise ConfigurationError("workers must be 1: every experiment runs serially")
    diags = validate_config(cfg)
    if diags:
        raise ConfigurationError("\n".join(diags))

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    manifest_path = os.path.join(out, "manifest.json")
    csv_path = os.path.join(out, f"{cfg.mode}.csv")
    tmp_path = csv_path + ".tmp"
    started = time.time()
    outputs: list = []
    status, error = "ok", None
    try:
        if cfg.mode == "shape":
            records, extra = _run_shape(cfg, out)
        elif cfg.mode == "gap_sweep":
            records, extra = _run_gap_sweep(cfg)
        elif cfg.mode == "awgn_e2e":
            records, extra = _run_awgn_e2e(cfg)
        elif cfg.mode == "fiber_e2e":
            records, extra = _run_fiber_e2e(cfg)
        else:
            records, extra = _run_linkbudget(cfg)
        # every row of a mode has the same keys, in column order
        columns = tuple(records[0])
        rows = tuple(tuple(r.values()) for r in records)
        _write_csv(tmp_path, columns, rows)
        os.replace(tmp_path, csv_path)
        outputs = [csv_path] + extra
    except BaseException as exc:
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    finally:
        manifest = {
            "mode": cfg.mode,
            "seed": cfg.seed,
            "config_sha256": _config_hash(cfg),
            "package_version": __version__,
            "wall_time_s": round(time.time() - started, 3),
            "status": status,
            "error": error,
            "outputs": [os.path.basename(p) for p in outputs],
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return MetricsReport(
        columns=columns,
        rows=rows,
        outputs=tuple(outputs + [manifest_path]),
        manifest_path=manifest_path,
    )
