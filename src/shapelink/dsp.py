"""Transmitter pulse shaping and the coherent receiver chain.

The receiver stages mirror a conventional dual-polarization coherent DSP
stack: matched filtering, spectral resampling, chromatic dispersion
compensation or digital back-propagation (both undo a span list, reading
each fiber segment's parameters from :mod:`shapelink.channel`), a
radius-directed 2x2 butterfly equalizer at two samples per symbol, blind
frequency offset estimation from the 4th-power spectrum, block-wise
4th-power carrier phase estimation keyed to the constellation's marker
ring, and bitwise LLR demapping.

All operations are pure functions of their inputs; the adaptive equalizer
is sequential over samples by definition but deterministic for a fixed
input frame and keyword values.

Conventions
-----------
- Pulse shaping applies ``H_tx = sqrt(L * H_rc)`` on the FFT grid at
  ``L`` samples per symbol (unit-energy impulse response); the matched
  filter is the unit-peak ``H_rx = sqrt(H_rc)``, a passive filter that
  never increases energy and passes flat in-band content untouched; and
  :func:`decimate` restores the rate-conversion gain ``sqrt(L)``, making
  matched-filter-plus-decimation the exact adjoint of the shaping
  isometry.  shape -> matched -> decimate recovers the symbols exactly
  (to rounding).
- Frames are treated as periodic (FFT filtering), consistent with the
  channel module.
- LLR sign convention: positive LLR means bit 0 is the more likely,
  matching :func:`shapelink.constellation.bitwise_llrs`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import SpanSpec, WaveformFrame, _frame_field, _split_step, _step_count
from .constellation import Constellation, _auto_noise_variance, _from_db, bitwise_llrs
from .errors import AlignmentError, DegenerateInputError, EstimationFailure

__all__ = [
    "SymbolFrame",
    "LlrFrame",
    "CpeResult",
    "EqualizerState",
    "random_symbols",
    "rrc_shape",
    "matched_filter",
    "decimate",
    "resample",
    "cd_compensate",
    "rde_equalize",
    "frequency_offset_compensate",
    "vv_cpe",
    "dbp_steps",
    "dbp",
    "llr_demap",
    "align",
    "evm_db",
    "blind_receive",
]


# ---------------------------------------------------------------------------
# frame types


@dataclass(frozen=True)
class SymbolFrame:
    """Dual-polarization symbol-rate frame.

    ``symbols`` is a (2, M) complex array at one sample per symbol,
    read-only as a :class:`~shapelink.channel.WaveformFrame`'s samples are.
    """

    symbols: np.ndarray
    symbol_rate: float = 35e9

    def __post_init__(self):
        object.__setattr__(self, "symbols", _frame_field(self.symbols, "symbols"))
        if not 0 < self.symbol_rate < math.inf:
            raise ValueError("symbol_rate must be positive and finite")

    @property
    def n_symbols(self) -> int:
        return self.symbols.shape[1]

    def with_symbols(self, symbols: np.ndarray) -> "SymbolFrame":
        return replace(self, symbols=symbols)


@dataclass(frozen=True)
class LlrFrame:
    """Bitwise LLRs for a dual-polarization symbol frame.

    ``llrs`` has shape (2, M, bits_per_symbol); positive values favor
    bit 0.  ``noise_variance`` records the blind estimate the demapper used.
    """

    llrs: np.ndarray
    noise_variance: float

    def __post_init__(self):
        llrs = np.asarray(self.llrs, dtype=np.float64)
        if llrs.ndim != 3 or llrs.shape[0] != 2:
            raise ValueError("llrs must have shape (2, M, bits)")
        object.__setattr__(self, "llrs", llrs)


@dataclass(frozen=True)
class CpeResult:
    """Carrier-phase-estimation output.

    ``phase_track`` is the per-symbol estimate (radians, block-wise
    constant); ``empty_blocks`` counts blocks that contained no
    marker-classified symbol and inherited their predecessor's estimate.
    """

    frame: SymbolFrame
    phase_track: np.ndarray
    empty_blocks: int


@dataclass(frozen=True)
class EqualizerState:
    """Converged butterfly taps plus the divergence-restart count."""

    taps: np.ndarray  # (2, 2, K): [out_pol, in_pol, tap]
    restarts: int
    step_used: float


def random_symbols(c: Constellation, count: int, seed: int) -> tuple[SymbolFrame, np.ndarray]:
    """Draw uniform random symbols on both polarizations.

    Returns the frame and the (2, count) point-index array; transmitted
    bits are ``c.bit_matrix[indices]``.
    """
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(c.points), size=(2, count))
    return SymbolFrame(symbols=c.points[idx]), idx


# ---------------------------------------------------------------------------
# pulse shaping


def _rc_spectrum(f: np.ndarray, symbol_rate: float, rolloff: float) -> np.ndarray:
    """Raised-cosine magnitude response (peak 1) on the given frequencies."""
    af = np.abs(f)
    f1 = 0.5 * (1.0 - rolloff) * symbol_rate
    f2 = 0.5 * (1.0 + rolloff) * symbol_rate
    h = np.zeros_like(af)
    h[af <= f1] = 1.0
    band = (af > f1) & (af <= f2)
    h[band] = 0.5 * (1.0 + np.cos(math.pi * (af[band] - f1) / (rolloff * symbol_rate)))
    return h


def _rrc_filter(
    n: int, sample_rate: float, symbol_rate: float, rolloff: float, gain: float = 1.0
) -> np.ndarray:
    if not 0.0 < rolloff <= 1.0:
        raise ValueError("rolloff must be in (0, 1]")
    f = np.fft.fftfreq(n, d=1.0 / sample_rate)
    return np.sqrt(gain * _rc_spectrum(f, symbol_rate, rolloff))


def _filter_in_place(spec: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Multiply the spectra ``spec`` (one per row) by ``response`` and
    inverse-transform them, both in ``spec``'s own buffer, which is returned."""
    spec *= response
    return np.fft.ifft(spec, axis=1, out=spec)


def rrc_shape(frame: SymbolFrame, oversampling: int, rolloff: float = 0.01) -> WaveformFrame:
    """Upsample and root-raised-cosine shape a symbol frame.

    Zero-stuffs to ``oversampling`` samples per symbol and applies
    ``sqrt(L * H_rc)`` on the FFT grid, so the shaping impulse response
    has unit energy and the cascade with :func:`matched_filter` and
    :func:`decimate` is a unit-gain Nyquist raised cosine (exact symbol
    recovery).
    """
    if oversampling < 2:
        raise ValueError("oversampling must be at least 2")
    sym = frame.symbols
    yield_rate = frame.symbol_rate * oversampling
    up = np.zeros((2, sym.shape[1] * oversampling), dtype=np.complex128)
    up[:, ::oversampling] = sym
    h = _rrc_filter(
        up.shape[1], yield_rate, frame.symbol_rate, rolloff, gain=float(oversampling)
    )
    return WaveformFrame(
        samples=_filter_in_place(np.fft.fft(up, axis=1, out=up), h),
        sample_rate=yield_rate,
        symbol_rate=frame.symbol_rate,
    )


def matched_filter(frame: WaveformFrame, rolloff: float = 0.01) -> WaveformFrame:
    """Apply the receive root-raised-cosine filter.

    Unit peak gain (``sqrt(H_rc)``): flat in-band content passes
    untouched, out-of-band components are removed, and no input can gain
    energy.  The rate-conversion gain lives in :func:`decimate`.
    """
    h = _rrc_filter(frame.n_samples, frame.sample_rate, frame.symbol_rate, rolloff)
    return frame.with_samples(_filter_in_place(np.fft.fft(frame.samples, axis=1), h))


def decimate(frame: WaveformFrame) -> SymbolFrame:
    """Take one sample per symbol, the first of each symbol period, scaled
    by sqrt(L).

    The sqrt(oversampling) gain restores the symbol-domain scale: the
    unit-energy shaping pulse spreads each symbol's energy over L
    samples, and matched-filter-plus-scaled-decimation is the adjoint of
    that isometry, so the shape -> matched -> decimate cascade has unit
    gain.
    """
    ratio = frame.sample_rate / frame.symbol_rate
    step = round(ratio)
    if abs(ratio - step) > 1e-9 or step < 1:
        raise ValueError("sample rate must be an integer multiple of the symbol rate")
    return SymbolFrame(
        symbols=math.sqrt(step) * frame.samples[:, ::step],
        symbol_rate=frame.symbol_rate,
    )


def resample(frame: WaveformFrame, samples_per_symbol: int) -> WaveformFrame:
    """Resample a waveform down to ``samples_per_symbol`` samples per symbol.

    One FFT, the bins inside +-samples_per_symbol * Rs / 2 kept (at an
    even output length its Nyquist bin is the input's bin at
    -samples_per_symbol * Rs / 2), and one inverse FFT at the lower rate,
    scaled by n_out / n_in so that sample values in sqrt(W) are
    preserved: content inside the kept band passes untouched, and with it
    the field a nonlinear stage such as :func:`dbp` works on.  A frame
    already at that rate is returned as is; a higher rate raises
    ``ValueError``, as does a rate below 2 samples per symbol, which
    :class:`~shapelink.channel.WaveformFrame` rejects.
    """
    n_in = frame.n_samples
    n_out = n_in * samples_per_symbol * frame.symbol_rate / frame.sample_rate
    if abs(n_out - n_in) <= 1e-9 * n_in:
        return frame
    if n_out > n_in:
        raise ValueError(
            f"cannot resample {frame.sample_rate / frame.symbol_rate:g} samples per "
            f"symbol up to {samples_per_symbol}"
        )
    if abs(n_out - round(n_out)) > 1e-6:
        raise ValueError("the frame must resample to a whole number of samples")
    n_out = round(n_out)
    pos = (n_out + 1) // 2  # bins 0 .. pos - 1, then -(n_out - pos) .. -1
    spec = np.fft.fft(frame.samples, axis=1)
    out = np.concatenate((spec[:, :pos], spec[:, n_in - n_out + pos :]), axis=1)
    out *= n_out / n_in
    return WaveformFrame(
        samples=np.fft.ifft(out, axis=1, out=out),
        sample_rate=frame.symbol_rate * samples_per_symbol,
        symbol_rate=frame.symbol_rate,
    )


# ---------------------------------------------------------------------------
# linear compensation

def cd_compensate(frame: WaveformFrame, spans: list[SpanSpec]) -> WaveformFrame:
    """Remove the chromatic dispersion of a link with an all-pass spectral phase.

    ``spans`` is the link being undone, as :func:`dbp` takes it: the
    operator removes sum(beta2 L) over every segment of every span, each
    segment's beta2 at its own reference wavelength.  It is the exact
    inverse of the split-step linear stages, so compensating a
    linear-only link is an identity round trip.  An empty ``spans``
    raises ``ValueError``, as it does for :func:`dbp`.
    """
    if not spans:
        raise ValueError("need at least one span")
    beta2_l = sum(seg.beta2_s2_m * seg.length_m for span in spans for seg in span.segments)
    f = np.fft.fftfreq(frame.n_samples, d=1.0 / frame.sample_rate)
    op = np.exp(-2j * math.pi**2 * beta2_l * f**2)
    return frame.with_samples(_filter_in_place(np.fft.fft(frame.samples, axis=1), op))


# ---------------------------------------------------------------------------
# adaptive equalization


def _nearest_radius_sq(radii_sq: list, power: float) -> float:
    """Entry of the ascending list ``radii_sq`` nearest to ``power``.

    A bisection between the two neighbours; a tie goes to the smaller
    one, so for every finite power the equalizer keeps (below its 1e4
    divergence limit, where the float distances to distinct radii stay
    distinct) this is the entry ``argmin(|radii_sq - power|)`` picks.
    """
    i = bisect.bisect_left(radii_sq, power)
    if i == 0:
        return radii_sq[0]
    if i == len(radii_sq):
        return radii_sq[-1]
    lo, hi = radii_sq[i - 1], radii_sq[i]
    return lo if power - lo <= hi - power else hi


#: symbols per group of the equalizer recursion: one output product and
#: one tap update per group.  It divides ``_RDE_BLOCK`` and the 128-symbol
#: divergence check; 8 ran faster than 4 or 16 on a 16384-symbol frame
_RDE_GROUP = 8

#: symbols per block of stacked equalizer windows (1024 x 2K complex) and
#: of their group Gram matrices (128 x 8 x 8 complex)
_RDE_BLOCK = 1024


def _window_blocks(pad, k, n_sym, passes):
    """``(start, groups)`` for each block of up to ``_RDE_BLOCK`` symbols
    from symbol ``start``, over the frame ``passes`` times.  ``groups``
    yields ``(u, conj(u), gram)`` for each group of ``_RDE_GROUP``
    consecutive symbols of the block, in order (the frame's last group
    may be shorter).  Row i of u is the x window then the y window of
    length ``k`` centered on sample 2(s + i) of ``pad`` (the frame padded
    by k // 2 on both sides) for a group starting at symbol s, and
    ``gram`` iterates over the Python complex u_i . conj(u_m) for m < i in
    row order: (1, 0), (2, 0), (2, 1), ...

    Every block of every pass is written into the same two window
    buffers, never the whole frame, so a block's groups must be used
    before the next block is drawn."""
    views = [np.lib.stride_tricks.sliding_window_view(pad[p], k)[::2][:n_sym] for p in range(2)]
    win = np.empty((min(_RDE_BLOCK, -(-n_sym // _RDE_GROUP) * _RDE_GROUP), 2 * k), dtype=np.complex128)
    win_conj = np.empty_like(win)
    lower_n, lower_m = np.tril_indices(_RDE_GROUP, -1)  # every m < n, in row order
    for _ in range(passes):
        for start in range(0, n_sym, _RDE_BLOCK):
            rows = min(_RDE_BLOCK, n_sym - start)
            used = -(-rows // _RDE_GROUP) * _RDE_GROUP
            win[:rows, :k] = views[0][start : start + rows]
            win[:rows, k:] = views[1][start : start + rows]
            # zero rows complete a short last group and add nothing to its Gram
            win[rows:used] = 0.0
            np.conjugate(win, out=win_conj)
            groups = win[:used].reshape(-1, _RDE_GROUP, 2 * k)
            grams = groups @ win_conj[:used].reshape(groups.shape).transpose(0, 2, 1)
            lower = grams[:, lower_n, lower_m].tolist()
            yield start, (
                (win[j : min(j + _RDE_GROUP, rows)], win_conj[j : min(j + _RDE_GROUP, rows)], iter(gram))
                for j, gram in zip(range(0, rows, _RDE_GROUP), lower)
            )


def rde_equalize(
    frame: WaveformFrame,
    c: Constellation,
    *,
    taps: int = 19,
    step: float = 1e-3,
    passes: int = 2,
    return_state: bool = False,
):
    """Radius-directed 2x2 butterfly equalizer at two samples per symbol.

    Blind LMS with error ``(r_nearest^2 - |y|^2) * y`` against the
    constellation's radius set, center-spike initialization, symmetric
    (centered) tap windows so the converged identity channel introduces
    no delay.  The input is first scaled to unit per-polarization power,
    matching the unit-power constellation; an all-zero frame has none and
    raises :class:`DegenerateInputError`.  ``taps`` is the butterfly FIR
    length per branch (positive and odd, for the center spike), ``step``
    the LMS step size (positive and finite) and ``passes`` the number of
    adaptation passes over the frame (at least 1); taps persist between
    passes and the returned symbols come from the final pass.

    The adaptation is the per-symbol LMS recursion, with u_n the stacked
    x/y input window of symbol n (length 2K) and W_n the stacked
    ``(2, 2K)`` taps before symbol n::

        y_n     = W_n u_n
        g_n     = mu * (r_nearest^2(|y_n|^2) - |y_n|^2) * y_n   (per output)
        W_{n+1} = W_n + g_n conj(u_n)^T

    evaluated exactly (not as block LMS) over groups of ``_RDE_GROUP``
    consecutive symbols.  For a group starting at symbol s, W_n = W_s +
    sum_{s<=m<n} g_m conj(u_m)^T, so with the group's Gram matrix
    G[n, m] = u_n . conj(u_m)::

        y_n         = W_s u_n + sum_{s<=m<n} g_m G[n, m]
        W_{s+L}     = W_s + [g_s ... g_{s+L-1}] conj(U)

    where U stacks the group's L windows as rows.  One product gives W_s
    u_n for the whole group, the sums run on Python complex scalars, and
    the taps are updated once per group.  Windows and Gram matrices are
    built ``_RDE_BLOCK`` symbols at a time.

    If the output power of a recent block exceeds 10x the input power the
    run is flagged as diverged and restarted from scratch with the step
    halved.  Returns the symbol-rate output, plus an
    :class:`EqualizerState` when ``return_state`` is true.
    """
    # written so that NaN fails every check
    if not (taps >= 1 and taps % 2 == 1):
        raise ValueError("taps must be a positive odd integer")
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if not passes >= 1:
        raise ValueError("passes must be at least 1")
    ratio = frame.sample_rate / frame.symbol_rate
    if abs(ratio - 2.0) > 1e-9:
        raise ValueError("rde_equalize expects exactly 2 samples per symbol")
    k = taps
    half = (k - 1) // 2

    a = np.array(frame.samples)
    power = np.mean(np.abs(a) ** 2)
    if power == 0.0:
        raise DegenerateInputError("cannot equalize an all-zero frame")
    # unit average power per polarization (the radius set assumes it)
    a *= math.sqrt(1.0 / power)

    radii_sq = (np.asarray(c.radius_set()) ** 2).tolist()
    n_sym = a.shape[1] // 2
    pad = np.pad(a, ((0, 0), (half, half)))

    check_every = 128
    max_restarts = 12
    restarts = 0
    mu = step

    while True:
        w = np.zeros((2, 2, k), dtype=np.complex128)
        w[0, 0, half] = 1.0
        w[1, 1, half] = 1.0
        stacked = w.reshape(2, 2 * k)  # a view: [out_pol, x taps | y taps]
        out = np.empty((2, n_sym), dtype=np.complex128)
        diverged = False
        block_acc = 0.0

        for start, groups in _window_blocks(pad, k, n_sym, passes):
            out_x, out_y = [], []  # y of this block's symbols, into out
            for u, u_conj, gram in groups:
                gx, gy = [], []  # g_m of each output over the group
                for yx, yy in (u @ stacked.T).tolist():  # W_s u_n
                    # zip stops on the exhausted gx before drawing from
                    # gram, so symbol n draws exactly its n Gram entries
                    for gx_m, gy_m, g in zip(gx, gy, gram):
                        yx += gx_m * g
                        yy += gy_m * g
                    px = yx.real * yx.real + yx.imag * yx.imag
                    py = yy.real * yy.real + yy.imag * yy.imag
                    gx.append(mu * (_nearest_radius_sq(radii_sq, px) - px) * yx)
                    gy.append(mu * (_nearest_radius_sq(radii_sq, py) - py) * yy)
                    out_x.append(yx)
                    out_y.append(yy)
                    block_acc += px + py
                    # catch runaway outputs before they overflow to inf/nan,
                    # where the block average comparison would go silent
                    if px + py > 1e4:
                        diverged = True
                        break
                if diverged:
                    break
                # groups start at multiples of _RDE_GROUP, which divides
                # check_every, so every check falls on a group's last symbol
                if (start + len(out_x)) % check_every == 0:
                    if not math.isfinite(block_acc) or block_acc / (2 * check_every) > 10.0:
                        diverged = True
                        break
                    block_acc = 0.0
                stacked += np.array((gx, gy)) @ u_conj
            if diverged:
                break
            out[:, start : start + len(out_x)] = out_x, out_y
        if not diverged:
            break
        restarts += 1
        if restarts > max_restarts:
            raise EstimationFailure("equalizer diverged at the minimum step size")
        mu *= 0.5

    result = SymbolFrame(symbols=out, symbol_rate=frame.symbol_rate)
    if return_state:
        return result, EqualizerState(taps=w, restarts=restarts, step_used=mu)
    return result


# ---------------------------------------------------------------------------
# carrier recovery


def _even_median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array of even length, bit for bit, without
    the ``numpy.ma`` import ``np.median`` brings: the mean of the two
    middle elements."""
    half = values.size // 2
    lo, hi = np.partition(values, (half - 1, half))[half - 1 : half + 1]
    return 0.5 * (lo + hi)


def frequency_offset_compensate(
    frame: SymbolFrame, c: Constellation
) -> tuple[SymbolFrame, float]:
    """Estimate and remove a carrier frequency offset.

    The estimator locates the spectral line of the 4th-power signal
    (present whenever the constellation's 4th moment is nonzero, which
    holds for the square grid and the shaped designs alike), refines the
    peak with parabolic interpolation, and derotates.  Reliable for
    offsets below symbol_rate / 8; the 4th-power line aliases beyond
    that.

    Raises
    ------
    EstimationFailure
        If no spectral line stands above the noise floor.
    """
    s = frame.symbols
    m = s.shape[1]
    nfft = 1 << max(10, int(math.ceil(math.log2(4 * m))))
    mag = (np.abs(np.fft.fft(s**4, nfft, axis=1)) ** 2).sum(axis=0)
    peak = int(np.argmax(mag))
    floor = _even_median(mag)
    if not mag[peak] > 8.0 * floor:
        raise EstimationFailure("no 4th-power spectral line above threshold")
    # parabolic refinement on the log-magnitude of the three bins at the peak
    trio = np.log(mag[[(peak - 1) % nfft, peak, (peak + 1) % nfft]])
    denom = trio[0] - 2.0 * trio[1] + trio[2]
    delta = 0.0 if denom == 0.0 else 0.5 * (trio[0] - trio[2]) / denom
    bin_hz = frame.symbol_rate / nfft
    f4 = np.fft.fftfreq(nfft, d=1.0 / frame.symbol_rate)[peak] + delta * bin_hz
    offset = f4 / 4.0
    n = np.arange(m)
    out = s * np.exp(-2j * math.pi * offset * n / frame.symbol_rate)[None, :]
    return frame.with_symbols(out), float(offset)


def _marker_threshold(c: Constellation) -> float:
    radii = np.abs(c.points)
    others = np.delete(radii, sorted(c.marker_indices))
    return 0.5 * (c.marker_radius() + float(others.max()))


def vv_cpe(frame: SymbolFrame, c: Constellation, block_length: int = 64) -> CpeResult:
    """Block-wise 4th-power carrier phase estimation over blocks of
    ``block_length`` symbols (at least 1).

    When the constellation carries ring markers, only symbols whose
    magnitude exceeds the midpoint between the marker radius and the
    largest non-marker radius enter the estimate; the markers' common
    radius makes their 4th power a clean line at 4x the carrier phase
    plus a constellation constant.  Without markers every symbol
    contributes (plain 4th-power partitioning).

    Per block the 4th-power phasors of both polarizations are summed,
    smoothed over a 3-block window, and the angle referenced against the
    constellation constant.  The pi/2 ambiguity is resolved by block-to-
    block continuity; the first block lands on the branch nearest zero.
    Blocks with no classified symbol inherit the previous estimate and
    are counted in ``empty_blocks``.  An all-zero frame has no phase to
    track and raises :class:`DegenerateInputError`.
    """
    if not block_length >= 1:
        raise ValueError("block_length must be at least 1")
    s = frame.symbols
    if not s.any():
        raise DegenerateInputError("cannot track the phase of an all-zero frame")
    m = s.shape[1]
    b = block_length
    n_blocks = (m + b - 1) // b

    if c.marker_indices:
        thr = _marker_threshold(c)
        mask = np.abs(s) >= thr
        ref_pts = c.points[sorted(c.marker_indices)]
    else:
        mask = np.ones_like(s, dtype=bool)
        ref_pts = c.points
    psi = float(np.angle((ref_pts**4).sum()))

    quad = np.where(mask, s, 0.0) ** 4
    padded = np.zeros((2, n_blocks * b), dtype=np.complex128)
    padded[:, :m] = quad
    z = padded.reshape(2, n_blocks, b).sum(axis=(0, 2))
    counts = np.zeros(n_blocks * b, dtype=np.int64)
    counts[:m] = mask.sum(axis=0)
    n_in_block = counts.reshape(n_blocks, b).sum(axis=1)

    # blocks i-1..i+1 for each i: "same" mode would misalign two blocks
    z_sm = np.convolve(z, np.ones(3))[1:-1]

    theta = np.zeros(n_blocks)
    empty = 0
    prev = 0.0
    for i in range(n_blocks):
        if n_in_block[i] == 0:
            theta[i] = prev
            empty += 1
            continue
        raw = (np.angle(z_sm[i]) - psi) / 4.0
        # fold to the principal branch, then unwrap against the previous block
        raw = (raw + math.pi / 4.0) % (math.pi / 2.0) - math.pi / 4.0
        raw += (math.pi / 2.0) * round((prev - raw) / (math.pi / 2.0))
        theta[i] = raw
        prev = raw
    track = np.repeat(theta, b)[:m]
    out = s * np.exp(-1j * track)[None, :]
    return CpeResult(
        frame=frame.with_symbols(out), phase_track=track, empty_blocks=empty
    )


# ---------------------------------------------------------------------------
# digital back-propagation


def dbp_steps(span: SpanSpec, steps_per_span: int) -> list[int]:
    """Steps :func:`dbp` runs on each segment of ``span``, in forward order.

    ``steps_per_span`` is allocated to segments proportionally to length
    and rounded up per segment, at least one each, so the total can
    exceed it: the default 4 runs as 3 + 2 over a hybrid span.  A count
    above 1e7 raises :class:`ConfigurationError`.
    """
    if steps_per_span < 1:
        raise ValueError("steps_per_span must be at least 1")
    return [_step_count(steps_per_span * seg.length_m / span.length_m) for seg in span.segments]


def dbp(frame: WaveformFrame, spans: list[SpanSpec], steps_per_span: int) -> WaveformFrame:
    """Digitally back-propagate through the link, spans in reverse order.

    The whole reversed link runs as one split-step chain: every segment
    backwards (the engine negates its dispersion and nonlinearity and
    turns its loss into gain), and each span's transparent amplifier gain (its loss)
    divided out at the entry of its first reversed segment.  No boundary
    sees the time domain, so the field is transformed once on entry and
    once on exit besides the two FFTs of each step.  Each segment runs the
    steps :func:`dbp_steps` allocates, and all of them are checked before
    the first step runs.  With the forward fine-step counts
    reproduced exactly and a noiseless channel this inverts
    :func:`shapelink.channel.propagate_link` to numerical precision; at a
    few steps per span it is the conventional low-complexity
    nonlinearity compensator.
    """
    plan = []
    for span in reversed(spans):
        gain = _from_db(-span.loss_db / 2.0, f"the field scale of a {span.loss_db!r} dB span loss")
        for seg, n in reversed(list(zip(span.segments, dbp_steps(span, steps_per_span)))):
            plan.append((seg, n, gain))
            gain = 1.0
    return frame.with_samples(
        _split_step(frame.samples, frame.sample_rate, plan, backward=True)
    )


# ---------------------------------------------------------------------------
# demapping and quality metrics


def llr_demap(frame: SymbolFrame, c: Constellation) -> LlrFrame:
    """Blind bitwise LLRs for both polarizations under a circular Gaussian
    metric.  The total (2D) noise variance is estimated from the frame:
    radial residuals about the marker ring when ``c`` has one, else
    nearest-point residuals; :class:`LlrFrame` records it.  An all-zero
    frame raises :class:`DegenerateInputError`.  Positive LLR favors bit
    0.  For LLRs at a known variance, call
    :func:`shapelink.constellation.bitwise_llrs` per polarization.
    """
    noise_variance = _auto_noise_variance(frame.symbols, c)
    out = np.empty((2, frame.n_symbols, c.bit_matrix.shape[1]))
    for p in range(2):
        out[p] = bitwise_llrs(c, frame.symbols[p], noise_variance)
    return LlrFrame(llrs=out, noise_variance=noise_variance)


def _fields(x) -> np.ndarray:
    if isinstance(x, WaveformFrame):
        return x.samples
    if isinstance(x, SymbolFrame):
        return x.symbols
    raise TypeError(f"expected a WaveformFrame or a SymbolFrame, got {type(x).__name__}")


def evm_db(frame, reference) -> float:
    """Error vector magnitude in dB: 10 log10(P(frame - ref) / P(ref)) of
    two waveform or two symbol frames.

    Raw difference, no gain alignment: on a frame from :func:`align` its
    negative is the data-aided SNR; on its own it suits inversion checks
    where the scales are physically identical.  An all-zero reference has
    no power to compare against and raises :class:`DegenerateInputError`.
    """
    a = _fields(frame)
    r = _fields(reference)
    if a.shape != r.shape:
        raise AlignmentError("frames must have identical shapes")
    p_ref = np.mean(np.abs(r) ** 2)
    if p_ref == 0.0:
        raise DegenerateInputError("an all-zero reference has no EVM")
    p_err = np.mean(np.abs(a - r) ** 2)
    if p_err == 0.0:
        return -math.inf
    return float(10.0 * math.log10(p_err / p_ref))


#: normalized correlation below which align calls frames misaligned
_MIN_CORRELATION = 0.2


def align(frame: SymbolFrame, reference: SymbolFrame) -> SymbolFrame:
    """Remove each polarization's complex gain, fitted by least squares
    against the reference (data-aided alignment, not blind DSP).  A blind
    butterfly may swap its two outputs, so the polarization order
    (identity or swapped) with the smaller residual is kept, a tie
    keeping identity.

    Raises
    ------
    AlignmentError
        If shapes differ, a polarization of either frame is all zero, or
        the normalized correlation in the kept order falls below 0.2
        (frames not sample-aligned).
    """
    a = frame.symbols
    r = reference.symbols
    if a.shape != r.shape:
        raise AlignmentError("frames must have identical shapes")
    pr = [np.vdot(x, x).real for x in r]
    pa = [np.vdot(x, x).real for x in a]
    if 0.0 in pr + pa:
        raise AlignmentError("cannot align an all-zero polarization")
    cross = [[np.vdot(rp, aq) for aq in a] for rp in r]

    def residual(p, q):  # of reference p fitted by output q: pr_p (1/rho_pq^2 - 1)
        c2 = float(abs(cross[p][q])) ** 2
        return float(pr[p]) * (float(pr[p] * pa[q]) / c2 - 1.0) if c2 > 0.0 else math.inf

    order = min(((0, 1), (1, 0)), key=lambda o: residual(0, o[0]) + residual(1, o[1]))
    out = np.empty_like(a)
    for p, q in enumerate(order):
        rho = abs(cross[p][q]) / math.sqrt(pr[p] * pa[q])
        if rho < _MIN_CORRELATION:
            raise AlignmentError(f"correlation {rho:.3f} below threshold {_MIN_CORRELATION}")
        out[p] = a[q] / (cross[p][q] / pr[p])
    return frame.with_symbols(out)


def blind_receive(
    frame: WaveformFrame, c: Constellation, reference: SymbolFrame
) -> tuple[SymbolFrame, LlrFrame, float]:
    """The blind chain at two samples per symbol: :func:`matched_filter`,
    :func:`rde_equalize`, :func:`frequency_offset_compensate` and
    :func:`vv_cpe` at their defaults, then :func:`align` against the
    reference's first n symbols, n as many as the equalizer returns, and
    :func:`llr_demap`.  Returns the aligned frame, its LLRs and the
    frequency offset estimate in Hz.
    """
    eq = rde_equalize(matched_filter(frame), c)
    foc, offset_hz = frequency_offset_compensate(eq, c)
    rx = vv_cpe(foc, c).frame
    aligned = align(rx, reference.with_symbols(reference.symbols[:, : rx.n_symbols]))
    return aligned, llr_demap(aligned, c), offset_hz
