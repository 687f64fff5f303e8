"""Waveform-level physical layer: fiber propagation and amplification.

The signal lives in :class:`WaveformFrame` objects, dual-polarization
complex baseband at ``sample_rate``.  Propagation over a
:class:`FiberSegment` uses the symmetric split-step Fourier method with
loss folded into the linear half-steps and a Manakov (8/9) Kerr rotation
at the step midpoint, taken over the step's lossy length
2 sinh(alpha h / 2) / alpha so that a continuous wave's Kerr phase is
exact at any step count.  One engine runs a chain of segments, a span's
fiber forward or a whole link backwards in DBP, and it alone maps a
segment to its beta2, alpha and Manakov gamma, negated when it runs
backwards; the dispersion compensator of :mod:`shapelink.dsp` reads the
same per-segment beta2.  The field stays in the frequency domain between
Kerr rotations, so a step costs two FFTs rather than four, and at a
segment boundary the exit half-step, any gain and the next segment's
entry half-step are one spectral multiply.  Each distinct half-step
operator is built once per chain.  Steps are uniform within a segment,
as many as :func:`split_steps` plans.  A
:class:`SpanSpec` chains segments and ends in a transparent lumped
amplifier: its gain equals the span loss, so the launch power repeats at
every span output, and its ASE is set by its noise figure.

Conventions: optical power is the sum over both polarizations of the
time-averaged |field|^2, in watts.  Spectra follow the numpy FFT sign
(fields synthesized as sum of exp(+i 2 pi f t) components), which fixes
the dispersion operator to exp(+i 2 pi^2 beta2 h f^2).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

_C0 = 299_792_458.0  # speed of light in vacuum, m/s; exact by the 2019 SI definition
_PLANCK = 6.62607015e-34  # Planck constant, J s; exact by the 2019 SI definition
_CARRIER_HZ = 193.4e12  # optical carrier of every frame, Hz: sets the ASE photon energy

__all__ = [
    "WaveformFrame",
    "FiberSegment",
    "SpanSpec",
    "split_steps",
    "ssfm_propagate",
    "amplify",
    "propagate_link",
    "hybrid_span",
    "with_power",
    "add_transmitter_noise",
    "wiener_phase_walk",
    "apply_phase",
    "apply_frequency_shift",
    "apply_jones_rotation",
]


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def _frame_field(values, name: str) -> np.ndarray:
    """``values`` as a frame's field: a finite (2, N >= 1) complex128 array,
    C-contiguous and read-only.  An array that already is one is frozen in
    place, not copied, so a later write into it raises; a view of memory
    that another owner may still write is copied."""
    a = np.ascontiguousarray(values, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != 2 or a.shape[1] < 1:
        raise ValueError(f"{name} must have shape (2, N) with N >= 1")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError(f"{name} must be finite")
    if a.base is not None and (not isinstance(a.base, np.ndarray) or a.base.flags.writeable):
        a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WaveformFrame:
    """Dual-polarization sampled field.

    ``samples`` has shape (2, N) in sqrt(W), baseband about the carrier
    ``_CARRIER_HZ``, and is read-only (:func:`_frame_field`).  ``symbol_rate``
    rides along as metadata so receivers know the oversampling factor.
    """

    samples: np.ndarray
    sample_rate: float
    symbol_rate: float = 35e9

    def __post_init__(self):
        object.__setattr__(self, "samples", _frame_field(self.samples, "samples"))
        if not (0 < self.sample_rate < math.inf and 0 < self.symbol_rate < math.inf):
            raise ValueError("rates must be positive and finite")
        if self.sample_rate < 2 * self.symbol_rate - 1e-6:
            raise ValueError("sample_rate must be >= 2 x symbol_rate")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def power(self) -> float:
        """Total optical power, W: sum over polarizations of mean |s|^2."""
        return float(np.mean(np.abs(self.samples) ** 2) * 2.0)

    def with_samples(self, samples: np.ndarray) -> "WaveformFrame":
        return replace(self, samples=samples)


def with_power(frame: WaveformFrame, power_dbm: float) -> WaveformFrame:
    """Rescale the field to the requested total power.

    An all-zero frame has no power to rescale and raises
    :class:`DegenerateInputError`.
    """
    power = frame.power
    if power == 0.0:
        raise DegenerateInputError("cannot rescale an all-zero frame")
    target = 10.0 ** (power_dbm / 10.0) * 1e-3
    scale = math.sqrt(target / power)
    return frame.with_samples(frame.samples * scale)


# ---------------------------------------------------------------------------
# fiber and span descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberSegment:
    """One homogeneous stretch of fiber.

    Attenuation in dB/km, dispersion D in ps/nm/km at
    ``reference_wavelength`` (nm), effective area in um^2.  ``n2`` may be
    zero to switch the Kerr term off (linear fiber).
    """

    length_m: float
    attenuation_db_km: float
    dispersion_ps_nm_km: float
    effective_area_um2: float
    nonlinear_index_n2: float = 2.6e-20
    reference_wavelength_nm: float = 1550.0

    def __post_init__(self):
        if not 0 < self.length_m < math.inf:
            raise ValueError("length must be positive and finite")
        if not 0 <= self.attenuation_db_km < math.inf:
            raise ValueError("attenuation must be >= 0 and finite")
        if not math.isfinite(self.dispersion_ps_nm_km):
            raise ValueError("dispersion must be finite")
        if not 0 < self.effective_area_um2 < math.inf:
            raise ValueError("effective area must be positive and finite")
        if not 0 <= self.nonlinear_index_n2 < math.inf:
            raise ValueError("n2 must be >= 0 and finite")
        if not 0 < self.reference_wavelength_nm < math.inf:
            raise ValueError("reference wavelength must be positive and finite")

    @property
    def loss_db(self) -> float:
        return self.attenuation_db_km * self.length_m / 1e3

    @property
    def alpha_per_m(self) -> float:
        """Power attenuation coefficient, 1/m."""
        return self.attenuation_db_km / 1e3 * math.log(10.0) / 10.0

    @property
    def effective_length_m(self) -> float:
        """Nonlinear effective length (1 - exp(-alpha L)) / alpha, m; L when lossless."""
        alpha = self.alpha_per_m
        return -math.expm1(-alpha * self.length_m) / alpha if alpha else self.length_m

    @property
    def beta2_s2_m(self) -> float:
        """GVD parameter beta2 = -D lambda^2 / (2 pi c) at the reference
        wavelength, s^2/m."""
        lam = self.reference_wavelength_nm * 1e-9
        return -self.dispersion_ps_nm_km * 1e-6 * lam**2 / (2.0 * math.pi * _C0)

    @property
    def gamma_per_w_m(self) -> float:
        """Kerr coefficient gamma = 2 pi n2 / (lambda A_eff), 1/(W m)."""
        lam = self.reference_wavelength_nm * 1e-9
        return 2.0 * math.pi * self.nonlinear_index_n2 / (lam * self.effective_area_um2 * 1e-12)


@dataclass(frozen=True)
class SpanSpec:
    """Fiber segments followed by one transparent lumped amplifier.

    The amplifier gain exactly offsets the summed segment loss
    (:attr:`loss_db`); ``amp_noise_figure_db`` sets its ASE.
    """

    segments: tuple
    amp_noise_figure_db: float = 1.4

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("span needs at least one segment")
        if not math.isfinite(self.amp_noise_figure_db):
            raise ValueError("amplifier noise figure must be finite")

    @property
    def loss_db(self) -> float:
        return sum(seg.loss_db for seg in self.segments)

    @property
    def length_m(self) -> float:
        return sum(seg.length_m for seg in self.segments)


def hybrid_span() -> SpanSpec:
    """The 70 km two-fiber span used throughout: 40 km of large-area
    low-loss fiber (0.148 dB/km, 20.5 ps/nm/km, 149 um^2) plus 30 km of
    standard fiber (0.16 dB/km, 17 ps/nm/km, 81 um^2), total loss
    10.72 dB, transparent amplifier."""
    return SpanSpec(
        segments=(
            FiberSegment(40e3, 0.148, 20.5, 149.0),
            FiberSegment(30e3, 0.16, 17.0, 81.0),
        )
    )


# ---------------------------------------------------------------------------
# split-step propagation
# ---------------------------------------------------------------------------


#: Manakov average of the Kerr term over the Poincare sphere
_MANAKOV = 8.0 / 9.0


def _half_step(freqs: np.ndarray, h: float, beta2_s2_m: float, alpha_per_m: float) -> np.ndarray:
    """Linear operator of half a step of length ``h``: dispersion and loss."""
    phase = 2.0 * math.pi**2 * beta2_s2_m * h * freqs**2
    return np.exp(0.5j * phase) * math.exp(-alpha_per_m * h / 4.0)


def _split_step(
    samples: np.ndarray,
    sample_rate: float,
    plan: Sequence[tuple[FiberSegment, int, float]],
    backward: bool = False,
) -> np.ndarray:
    """Symmetric split-step engine shared by forward propagation and DBP.

    Runs the ``(segment, steps, gain)`` triples of ``plan`` in order:
    ``steps`` uniform steps over the :class:`FiberSegment`, whose field
    amplitude is scaled by ``gain`` where it begins.  A segment runs with
    its beta2, its loss alpha and the Manakov (8/9) gamma; ``backward``
    negates all three, which turns loss into gain (back-propagation).
    Each step of length h is linear half (dispersion + loss), Kerr phase
    on the midpoint field over the lossy length h_nl = 2 sinh(alpha h / 2)
    / alpha (h when lossless), linear half again: the midpoint power times
    h_nl is the exact integral of a continuous wave's decaying power over
    the step.  The field stays in the frequency domain between Kerr
    rotations: the two linear halves that meet between steps multiply it
    back to back, and at a segment boundary the exit half of one segment,
    the next one's gain and its entry half are a single multiply.  The field is transformed once on entry and once
    on exit, and each step costs one inverse and one forward FFT:

        fft, gain * half, [ifft, Kerr, fft, half, half] x (steps - 1),
        ifft, Kerr, fft, half * next gain * next half, ..., half, ifft

    Each distinct half-step operator is built once per call.  Within a
    segment the sequence is palindromic and h_nl is even in alpha, so run
    ``backward`` with the same step count it is its own exact algebraic
    inverse (the phase operator preserves the modulus it reads).  With
    gamma zero the per-step transform pair is skipped and only the
    operators multiply.
    """
    if not plan:
        raise ValueError("need at least one segment")
    sign = -1.0 if backward else 1.0
    freqs = np.fft.fftfreq(samples.shape[1], d=1.0 / sample_rate)
    halves = {}
    mag = np.empty(samples.shape)
    rot = np.empty(samples.shape[1], dtype=np.complex128)
    spec = np.fft.fft(samples, axis=1)
    exit_half = None
    for seg, steps, gain in plan:
        h = seg.length_m / steps
        key = (h, sign * seg.beta2_s2_m, sign * seg.alpha_per_m)
        half = halves.get(key)
        if half is None:
            half = halves[key] = _half_step(freqs, *key)
        # the Kerr phase integrates the power over the lossy step:
        # |A_mid|^2 2 sinh(alpha h / 2) / alpha, even in alpha
        alpha = seg.alpha_per_m
        h_nl = 2.0 * math.sinh(alpha * h / 2.0) / alpha if alpha else h
        kerr = sign * seg.gamma_per_w_m * _MANAKOV * h_nl
        entry = half if gain == 1.0 else half * gain
        spec *= entry if exit_half is None else exit_half * entry
        for k in range(steps):
            if k:
                spec *= half
                spec *= half
            if kerr:
                a = np.fft.ifft(spec, axis=1)
                del spec
                # Kerr rotation exp(i gamma h_nl (|Ax|^2 + |Ay|^2)) as cos + i sin
                np.abs(a, out=mag)
                np.square(mag, out=mag)
                phi = np.add(mag[0], mag[1], out=mag[0])
                phi *= kerr
                np.cos(phi, out=rot.real)
                np.sin(phi, out=rot.imag)
                a *= rot
                spec = np.fft.fft(a, axis=1)
                del a
        exit_half = half
    spec *= exit_half
    return np.fft.ifft(spec, axis=1)


_MAX_STEPS = 10**7
#: mean Kerr phase per step when no step length is given (Sinkin et al.,
#: JLT 21(1), 2003): a 9- or 90-span link's CDC and DBP SNRs at -3 to +2
#: dBm stay within 0.01 dB of 100 m steps
_PHI_MAX_RAD = 3.3e-3


def _step_count(n: float) -> int:
    """Whole split steps for a segment that needs ``n``: at least one, and
    a :class:`ConfigurationError` above 1e7 (NaN included)."""
    if not n <= _MAX_STEPS:
        raise ConfigurationError(f"{n:.4g} split steps exceed the 1e7 limit")
    return max(1, math.ceil(n))


def split_steps(
    segments: Sequence[FiberSegment], power_w: float, max_step_m: float | None = None
) -> list[int]:
    """Uniform split-step count of each segment of a chain entered at
    ``power_w``, the plan :func:`ssfm_propagate` runs.

    With ``max_step_m`` None a segment has max(1, ceil(gamma_eff P_in
    L_eff / phi_max)) steps: gamma_eff = (8/9) gamma, L_eff =
    (1 - exp(-alpha L)) / alpha (L when lossless), phi_max =
    ``_PHI_MAX_RAD`` = 3.3e-3 rad, so a step adds at most phi_max of mean
    Kerr phase: 4 + 2 steps over a hybrid span at -0.5 dBm.  P_in is ``power_w``
    for the first segment and exp(-sum alpha L) of it over the segments
    before for a later one: every split-step operator is unitary apart
    from loss.  An explicit ``max_step_m`` gives ceil(L / max_step_m)
    steps.  A count above 1e7 raises :class:`ConfigurationError`.
    """
    if max_step_m is not None and not 0 < max_step_m < math.inf:
        raise ValueError("max_step_m must be positive and finite")
    counts = []
    for seg in segments:
        if max_step_m is None:
            n = seg.gamma_per_w_m * _MANAKOV * power_w * seg.effective_length_m / _PHI_MAX_RAD
        else:
            n = seg.length_m / max_step_m
        counts.append(_step_count(n))
        power_w *= math.exp(-seg.alpha_per_m * seg.length_m)
    return counts


def ssfm_propagate(
    frame: WaveformFrame,
    segments: Sequence[FiberSegment],
    max_step_m: float | None = None,
) -> WaveformFrame:
    """Propagate through a sequence of fiber segments (a span's
    ``segments``) as one symmetric split-step chain.

    Loss and dispersion ride in the linear half-steps, the Manakov
    nonlinear phase (8/9) gamma (|Ax|^2 + |Ay|^2) h_nl rotates both
    polarizations at the midpoint, where h_nl = 2 sinh(alpha h / 2) /
    alpha integrates the power decay over the step of length h, so a
    continuous wave picks up its exact Kerr phase at any step count.
    Steps are uniform within a segment, as many as :func:`split_steps`
    plans at the frame's power.  Every count is checked before the first
    step runs.
    """
    plan = [
        (seg, n, 1.0) for seg, n in zip(segments, split_steps(segments, frame.power, max_step_m))
    ]
    return frame.with_samples(_split_step(frame.samples, frame.sample_rate, plan))


# ---------------------------------------------------------------------------
# amplification
# ---------------------------------------------------------------------------


def amplify(
    frame: WaveformFrame,
    gain_db: float,
    noise_figure_db: float,
    seed: int | None,
) -> WaveformFrame:
    """Flat gain plus lumped ASE.

    The field is scaled by 10^(gain/20); each polarization then receives
    circular complex Gaussian noise of PSD (F G - 1) h nu / 2 over the
    simulation bandwidth (= sample_rate), nu being the optical carrier.
    ``seed`` None skips the noise entirely (noiseless instrument).
    """
    if gain_db < 0:
        raise ValueError("gain must be >= 0 dB")
    a = frame.samples * 10.0 ** (gain_db / 20.0)
    if seed is not None:
        f_lin = 10.0 ** (noise_figure_db / 10.0)
        g_lin = 10.0 ** (gain_db / 10.0)
        psd = (f_lin * g_lin - 1.0) * _PLANCK * _CARRIER_HZ / 2.0
        var = psd * frame.sample_rate  # per polarization
        if var < 0:
            var = 0.0
        rng = np.random.default_rng(seed)
        noise = np.empty(a.shape, dtype=np.complex128)
        draw = np.empty(a.shape)
        for part in (noise.real, noise.imag):  # all real parts are drawn first
            part[...] = rng.standard_normal(out=draw)
        noise *= math.sqrt(var / 2.0)
        a += noise
    return frame.with_samples(a)


def propagate_link(
    frame: WaveformFrame,
    spans,
    seed: int | None,
    max_step_m: float | None = None,
) -> WaveformFrame:
    """Run the frame through consecutive spans (fiber segments + amplifier).

    Every amplifier recovers its span's exact loss, so the launch power
    repeats at every span output.
    ``seed`` None makes the whole link noiseless; otherwise per-span noise
    seeds are derived deterministically from ``seed``.  Each span's fiber
    runs as one :func:`ssfm_propagate` chain, its segments split as
    :func:`split_steps` plans at the power entering the span.  The ASE is
    added in the time domain at every span output.
    """
    spans = tuple(spans)
    if not spans:
        raise ValueError("need at least one span")
    if seed is None:
        span_seeds = [None] * len(spans)
    else:
        span_seeds = list(np.random.SeedSequence(seed).generate_state(len(spans)))
    out = frame
    for span, span_seed in zip(spans, span_seeds):
        out = ssfm_propagate(out, span.segments, max_step_m=max_step_m)
        out = amplify(
            out,
            span.loss_db,
            span.amp_noise_figure_db,
            None if span_seed is None else int(span_seed),
        )
    return out


# ---------------------------------------------------------------------------
# impairment helpers (transmitter noise loading, phase walk, offsets)
# ---------------------------------------------------------------------------


def add_transmitter_noise(frame: WaveformFrame, snr_db: float, seed: int) -> WaveformFrame:
    """Additive Gaussian noise loading at the transmitter.

    Each polarization receives circular noise of variance
    (per-polarization signal power) / 10^(snr/10), white over the whole
    sample rate.  The matched filter passes only the signal band of it,
    so after :func:`shapelink.dsp.matched_filter` and
    :func:`shapelink.dsp.decimate` the symbol SNR is ``snr_db`` +
    10 log10(samples per symbol): 3.01 dB more at 2, 6.02 dB more at 4.
    """
    rng = np.random.default_rng(seed)
    p_pol = np.mean(np.abs(frame.samples) ** 2, axis=1)
    var = p_pol / 10.0 ** (snr_db / 10.0)
    noise = rng.standard_normal(frame.samples.shape) + 1j * rng.standard_normal(frame.samples.shape)
    return frame.with_samples(frame.samples + noise * np.sqrt(var / 2.0)[:, None])


def wiener_phase_walk(n: int, linewidth_hz: float, rate_hz: float, seed: int) -> np.ndarray:
    """Cumulative laser phase walk: increments N(0, 2 pi linewidth / rate).

    Returns the phase track (radians, length n) so tests can use it as a
    known oracle; multiply the signal by exp(1j * track) to apply it.
    """
    rng = np.random.default_rng(seed)
    var = 2.0 * math.pi * linewidth_hz / rate_hz
    if not var < math.inf:
        raise DegenerateInputError(f"a {linewidth_hz:g} Hz linewidth overflows the walk variance")
    steps = rng.standard_normal(n) * math.sqrt(var)
    steps[0] = 0.0
    return np.cumsum(steps)


def apply_phase(frame: WaveformFrame, phase: np.ndarray) -> WaveformFrame:
    """Rotate both polarizations by a per-sample phase track (radians)."""
    return frame.with_samples(frame.samples * np.exp(1j * np.asarray(phase))[None, :])


def apply_frequency_shift(frame: WaveformFrame, offset_hz: float) -> WaveformFrame:
    """Multiply by exp(+i 2 pi offset t): a carrier frequency offset."""
    t = np.arange(frame.n_samples) / frame.sample_rate
    return frame.with_samples(frame.samples * np.exp(2j * math.pi * offset_hz * t)[None, :])


def apply_jones_rotation(frame: WaveformFrame, theta: float) -> WaveformFrame:
    """Static polarization rotation by ``theta`` (unitary, real Jones)."""
    j = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]],
        dtype=np.complex128,
    )
    return frame.with_samples(j @ frame.samples)
