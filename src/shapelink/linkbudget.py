"""Waveform-free SNR prediction for amplified multi-span links.

Three noise contributions are modeled separately and combined by
reciprocal addition (:func:`combine_snr`): accumulated amplifier noise
(:func:`ase_snr`), a closed-form nonlinear-interference estimate
(:func:`gn_nli_estimate`), and a flat transceiver figure.
:func:`band_budget` evaluates all three for every channel of a
wavelength grid with linear-in-dB tilts on noise figure and launch
power; it is the whole of the ``linkbudget`` experiment mode.

Everything here is arithmetic on link parameters; the split-step
simulator in :mod:`shapelink.channel` is the ground truth this module
approximates, and the two are cross-checked against each other in the
acceptance tests.  The speed of light and Planck's constant come from
:mod:`shapelink.channel`, which holds their exact 2019 SI values.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _C0, _PLANCK, SpanSpec
from .constellation import _from_db
from .errors import DegenerateInputError, ModelDomainError

__all__ = [
    "SNR_CAP_DB",
    "ase_snr",
    "combine_snr",
    "gn_nli_estimate",
    "band_budget",
]

# headroom cap: predictions above this are reported as "noise-free"
SNR_CAP_DB = 60.0


def _capped_db(signal_w: float, noise_w: float, quantity: str) -> float:
    """10 log10(signal/noise) capped at ``SNR_CAP_DB``; zero noise reads as the cap."""
    ratio = signal_w / noise_w if noise_w else math.inf
    if ratio == 0.0:
        raise DegenerateInputError(f"{quantity} underflows to 0 on the linear scale")
    return min(SNR_CAP_DB, 10.0 * math.log10(ratio))


def ase_snr(
    span_count: int,
    span_loss_db: float,
    nf_db: float,
    power_dbm: float,
    bandwidth_hz: float,
    frequency_hz: float,
) -> float:
    """Amplifier-noise-limited SNR of a transparent multi-span link, dB.

    Each span's amplifier exactly offsets the span loss G and
    contributes noise power F G h nu B in the signal bandwidth (F the
    linear noise figure); contributions from identical spans add.  The
    result is capped at ``SNR_CAP_DB``.

    Doubling ``span_count`` lowers the result by exactly 3.01 dB (until
    the cap engages).
    """
    if span_count < 1:
        raise ValueError("span_count must be at least 1")
    if not (bandwidth_hz > 0 and frequency_hz > 0):
        raise ValueError("bandwidth and frequency must be positive")
    f_lin = _from_db(nf_db, f"noise figure of {nf_db!r} dB")
    g_lin = _from_db(span_loss_db, f"span gain of {span_loss_db!r} dB")
    noise_w = span_count * f_lin * g_lin * _PLANCK * frequency_hz * bandwidth_hz
    power_w = _from_db(power_dbm - 30.0, f"channel power of {power_dbm!r} dBm")
    return _capped_db(power_w, noise_w, "the amplifier-noise SNR")


def combine_snr(contributions_db) -> float:
    """Total SNR of independent noise contributions, dB.

    Reciprocal addition on the linear scale: 1/SNR = sum of 1/SNR_i.
    Infinite entries contribute nothing; the result never exceeds the
    smallest contribution and is capped at ``SNR_CAP_DB``.  A NaN entry
    raises ``ValueError``.
    """
    values = list(contributions_db)
    if not values:
        raise ValueError("need at least one contribution")
    if any(math.isnan(v) for v in values):
        raise ValueError("contributions must not be NaN")
    try:
        inv = sum(10.0 ** (-v / 10.0) for v in values)
    except OverflowError:
        raise DegenerateInputError(f"SNR (dB) of {min(values)!r} is inf on the linear scale") from None
    if inv == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, -10.0 * math.log10(inv))


def gn_nli_estimate(
    span: SpanSpec,
    per_channel_power_dbm: float,
    channel_count: int = 1,
    spacing_hz: float = 35e9,
    symbol_rate_hz: float = 35e9,
    span_count: int = 1,
) -> float:
    """Nonlinear-interference-limited SNR from the incoherent
    Gaussian-noise closed form, dB.

    Per segment, with flat launch spectral density G scaled by the power
    remaining at the segment input, the interference density at band
    center is

        (8/27) gamma^2 G^3 L_eff^2 asinh(pi^2/2 |beta2| L_a B^2)
                                               / (pi |beta2| L_a)

    with L_eff the effective length, L_a its lossless-limit counterpart
    (1/alpha, or the physical length for a lossless segment), and B the
    occupied bandwidth.  Segments and spans add incoherently; the
    interference power in one channel is the density times the symbol
    rate.  Raising launch power by 1 dB therefore lowers the result by
    exactly 2 dB.
    """
    if channel_count < 1 or span_count < 1:
        raise ValueError("channel_count and span_count must be at least 1")
    if not (symbol_rate_hz > 0 and spacing_hz > 0):
        raise ValueError("symbol_rate and spacing must be positive")
    power_w = _from_db(per_channel_power_dbm - 30.0, f"channel power of {per_channel_power_dbm!r} dBm")
    band_hz = symbol_rate_hz + (channel_count - 1) * spacing_hz
    psd = power_w * channel_count / band_hz

    density = 0.0
    remaining = 1.0  # fraction of launch power at the segment input
    for seg in span.segments:
        beta2 = abs(seg.beta2_s2_m)
        gamma = seg.gamma_per_w_m
        alpha = seg.alpha_per_m
        if gamma > 0.0 and beta2 == 0.0:
            raise ModelDomainError(
                "closed-form interference estimate needs nonzero dispersion"
            )
        if gamma > 0.0:
            l_asym = 1.0 / alpha if alpha > 0.0 else seg.length_m
            try:
                density += (
                    (8.0 / 27.0)
                    * gamma**2
                    * (psd * remaining) ** 3
                    * seg.effective_length_m**2
                    * math.asinh(0.5 * math.pi**2 * beta2 * l_asym * band_hz**2)
                    / (math.pi * beta2 * l_asym)
                )
            except OverflowError:  # the cube of a launch density above ~5e102 W/Hz
                density = math.inf
        remaining *= math.exp(-seg.alpha_per_m * seg.length_m)

    nli_w = span_count * density * symbol_rate_hz
    return _capped_db(power_w, nli_w, "the interference-limited SNR")


# ---------------------------------------------------------------------------
# band budget


def band_budget(
    span: SpanSpec,
    span_count: int,
    *,
    channels: int,
    start_nm: float,
    stop_nm: float,
    mean_nf_db: float,
    nf_tilt_db: float,
    mean_power_dbm: float,
    signal_tilt_db: float,
    spacing_hz: float,
    symbol_rate_hz: float,
    transceiver_snr_db: float,
) -> list:
    """Per-channel SNR across a tilted band: one dict per channel with
    keys ``wavelength`` (nm), ``ase_snr``, ``nli_snr`` and ``total_snr``
    (dB), in that order.

    ``channels`` wavelengths run evenly from ``start_nm`` to ``stop_nm``;
    noise figure and launch power are linear in dB across them, with
    means ``mean_nf_db`` and ``mean_power_dbm`` and end-to-end changes
    ``nf_tilt_db`` and ``signal_tilt_db`` toward longer wavelengths.  ASE
    is :func:`ase_snr` in ``symbol_rate_hz`` at the band-center photon
    energy, so a flat band gives every row the same value; NLI is
    :func:`gn_nli_estimate` over all ``channels``; the total adds
    ``transceiver_snr_db`` (+inf for none) by :func:`combine_snr`.
    """
    if channels < 1:
        raise ValueError("channels must be at least 1")
    if not (math.isfinite(start_nm) and math.isfinite(stop_nm)):
        raise ValueError("band edges must be finite")
    if channels > 1 and not stop_nm > start_nm:
        raise ValueError("stop_nm must exceed start_nm")
    grid = np.linspace(start_nm, stop_nm, channels).tolist()
    x = np.linspace(-0.5, 0.5, channels) if channels > 1 else np.zeros(1)
    nf_curve = (mean_nf_db + nf_tilt_db * x).tolist()
    power_curve = (mean_power_dbm + signal_tilt_db * x).tolist()
    nu_ref = _C0 / (0.5 * (grid[0] + grid[-1]) * 1e-9)
    rows = []
    for wl, nf, power in zip(grid, nf_curve, power_curve):
        ase = ase_snr(span_count, span.loss_db, nf, power, symbol_rate_hz, nu_ref)
        nli = gn_nli_estimate(
            span,
            power,
            channel_count=channels,
            spacing_hz=spacing_hz,
            symbol_rate_hz=symbol_rate_hz,
            span_count=span_count,
        )
        total = combine_snr([ase, nli, transceiver_snr_db])
        rows.append({"wavelength": wl, "ase_snr": ase, "nli_snr": nli, "total_snr": total})
    return rows
