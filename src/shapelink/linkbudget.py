"""Waveform-free SNR prediction for amplified multi-span links.

Three noise contributions are modeled separately and combined by
reciprocal addition: accumulated amplifier noise (:func:`ase_snr`), a
closed-form nonlinear-interference estimate (:func:`gn_nli_estimate`),
and a flat transceiver figure.  :class:`BandModel` sweeps the first
across a wavelength grid with linear-in-dB tilts on noise figure and
launch power.

Everything here is arithmetic on link parameters; the split-step
simulator in :mod:`shapelink.channel` is the ground truth this module
approximates, and the two are cross-checked against each other in the
acceptance tests.  The speed of light and Planck's constant come from
:mod:`shapelink.channel`, which holds their exact 2019 SI values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _C0, _PLANCK, SpanSpec
from .errors import ModelDomainError

__all__ = [
    "SNR_CAP_DB",
    "BandModel",
    "ase_snr",
    "combine_snr",
    "gn_nli_estimate",
    "band_snr_profile",
    "default_band_model",
]

# headroom cap: predictions above this are reported as "noise-free"
SNR_CAP_DB = 60.0


def _dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


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
    if bandwidth_hz <= 0 or frequency_hz <= 0:
        raise ValueError("bandwidth and frequency must be positive")
    if not all(map(math.isfinite, (span_loss_db, nf_db, power_dbm))):
        raise ValueError("span loss, noise figure and power must be finite")
    f_lin = 10.0 ** (nf_db / 10.0)
    g_lin = 10.0 ** (span_loss_db / 10.0)
    noise_w = span_count * f_lin * g_lin * _PLANCK * frequency_hz * bandwidth_hz
    return min(SNR_CAP_DB, 10.0 * math.log10(_dbm_to_w(power_dbm) / noise_w))


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
    inv = sum(10.0 ** (-v / 10.0) for v in values)
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
    if symbol_rate_hz <= 0 or spacing_hz <= 0:
        raise ValueError("symbol_rate and spacing must be positive")
    if not math.isfinite(per_channel_power_dbm):
        raise ValueError("per-channel power must be finite")
    power_w = _dbm_to_w(per_channel_power_dbm)
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
            density += (
                (8.0 / 27.0)
                * gamma**2
                * (psd * remaining) ** 3
                * seg.effective_length_m**2
                * math.asinh(0.5 * math.pi**2 * beta2 * l_asym * band_hz**2)
                / (math.pi * beta2 * l_asym)
            )
        remaining *= math.exp(-seg.alpha_per_m * seg.length_m)

    nli_w = span_count * density * symbol_rate_hz
    if nli_w == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * math.log10(power_w / nli_w))


# ---------------------------------------------------------------------------
# band sweep


@dataclass(frozen=True)
class BandModel:
    """Per-wavelength launch and amplifier-noise description.

    ``wavelength_grid`` in nm, ascending; ``nf_curve`` is the effective
    noise figure at each wavelength in dB; ``per_channel_power_dbm``
    the launch power at each wavelength.
    """

    wavelength_grid: tuple
    nf_curve: tuple
    per_channel_power_dbm: tuple

    def __post_init__(self):
        grid = tuple(float(w) for w in self.wavelength_grid)
        nf = tuple(float(v) for v in self.nf_curve)
        power = tuple(float(p) for p in self.per_channel_power_dbm)
        if len(grid) < 1:
            raise ValueError("wavelength grid must be nonempty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("wavelength grid must be strictly ascending")
        if len(nf) != len(grid) or len(power) != len(grid):
            raise ValueError("curve lengths must match the wavelength grid")
        object.__setattr__(self, "wavelength_grid", grid)
        object.__setattr__(self, "nf_curve", nf)
        object.__setattr__(self, "per_channel_power_dbm", power)

    @property
    def channel_count(self) -> int:
        return len(self.wavelength_grid)


def default_band_model(
    channels: int = 92,
    mean_nf_db: float = 1.4,
    nf_tilt_db: float = -5.7,
    signal_tilt_db: float = -2.0,
    mean_power_dbm: float = -2.9,
    start_nm: float = 1525.0,
    stop_nm: float = 1616.0,
) -> BandModel:
    """Linear-in-dB tilted band: noise figure averages ``mean_nf_db``
    with ``nf_tilt_db`` end-to-end change toward longer wavelengths
    (negative = quieter amplification at the red edge), launch power
    likewise around ``mean_power_dbm``."""
    if channels < 1:
        raise ValueError("channels must be at least 1")
    grid = np.linspace(start_nm, stop_nm, channels)
    x = np.linspace(-0.5, 0.5, channels) if channels > 1 else np.zeros(1)
    return BandModel(
        wavelength_grid=tuple(grid),
        nf_curve=tuple(mean_nf_db + nf_tilt_db * x),
        per_channel_power_dbm=tuple(mean_power_dbm + signal_tilt_db * x),
    )


def band_snr_profile(
    model: BandModel,
    span_count: int,
    span: SpanSpec,
    bandwidth_hz: float = 35e9,
) -> list:
    """Amplifier-noise-limited SNR at each wavelength: list of
    ``(wavelength_nm, snr_db)``.

    The photon energy is evaluated once at the band-center wavelength,
    so a model with flat curves produces an exactly flat profile equal
    to the scalar :func:`ase_snr` broadcast across the grid.
    """
    center_nm = 0.5 * (model.wavelength_grid[0] + model.wavelength_grid[-1])
    nu_ref = _C0 / (center_nm * 1e-9)
    return [
        (
            wl,
            ase_snr(span_count, span.loss_db, nf, p, bandwidth_hz, nu_ref),
        )
        for wl, nf, p in zip(
            model.wavelength_grid, model.nf_curve, model.per_channel_power_dbm
        )
    ]
