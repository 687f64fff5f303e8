"""Fiber propagation, amplifier ASE and impairments."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.constants import h as PLANCK, c as C0

from shapelink import dsp, linkbudget
from shapelink.channel import (
    _C0,
    _CARRIER_HZ,
    _PHI_MAX_RAD,
    _PLANCK,
    _half_step,
    _split_step,
    FiberSegment,
    SpanSpec,
    WaveformFrame,
    add_transmitter_noise,
    amplify,
    apply_frequency_shift,
    apply_jones_rotation,
    hybrid_span,
    propagate_link,
    ssfm_propagate,
    wiener_phase_walk,
    with_power,
)
from shapelink.constellation import square64
from shapelink.errors import ConfigurationError, DegenerateInputError


def _noise_frame(seed, n=4096, fs=70e9, rs=35e9, power_w=1e-3):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    f = WaveformFrame(samples=s, sample_rate=fs, symbol_rate=rs)
    return f.with_samples(f.samples * math.sqrt(power_w / f.power))


def _gaussian_pulse_frame(n=8192, fs=70e9, t0=30e-12, peak_w=2e-3):
    # normalized by PEAK power: a mean-power normalization over a mostly
    # empty window would put watts of peak power into the fiber
    t = (np.arange(n) - n / 2) / fs
    env = np.exp(-(t**2) / (2 * t0**2))
    s = np.vstack([env, 0.5 * env]).astype(np.complex128)
    peak = np.max(np.sum(np.abs(s) ** 2, axis=0))
    return WaveformFrame(samples=s * math.sqrt(peak_w / peak), sample_rate=fs)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frame_validation():
    with pytest.raises(ValueError):
        WaveformFrame(samples=np.zeros((3, 8), complex), sample_rate=70e9)
    with pytest.raises(ValueError):
        WaveformFrame(samples=np.zeros((2, 0), complex), sample_rate=70e9)
    with pytest.raises(ValueError):
        WaveformFrame(samples=np.zeros((2, 8), complex), sample_rate=40e9, symbol_rate=35e9)


@pytest.mark.parametrize(
    "rates", [(math.inf, 35e9), (math.nan, 35e9), (70e9, math.inf), (70e9, math.nan), (0.0, 35e9)]
)
def test_frame_rejects_rates_that_are_not_positive_and_finite(rates):
    sample_rate, symbol_rate = rates
    with pytest.raises(ValueError, match="rates must be positive and finite"):
        WaveformFrame(np.zeros((2, 8), complex), sample_rate=sample_rate, symbol_rate=symbol_rate)


def test_power_accounting():
    f = _noise_frame(0, power_w=2e-3)
    assert f.power == pytest.approx(2e-3, rel=1e-12)
    assert 10 * math.log10(f.power * 1e3) == pytest.approx(10 * math.log10(2.0), abs=1e-9)
    g = with_power(f, -2.9)
    assert 10 * math.log10(g.power * 1e3) == pytest.approx(-2.9, abs=1e-9)


def test_with_power_rejects_silent_frame():
    silent = WaveformFrame(samples=np.zeros((2, 16), complex), sample_rate=70e9)
    with pytest.raises(DegenerateInputError):
        with_power(silent, 0.0)


@pytest.mark.parametrize("power_dbm, linear", [(-4000.0, "0.0"), (4000.0, "inf")])
def test_with_power_rejects_a_power_that_is_no_watts(power_dbm, linear):
    # unchecked, -4000 dBm would scale the field to all zeros
    with pytest.raises(DegenerateInputError, match=f"launch power of {power_dbm} dBm is {linear}"):
        with_power(_noise_frame(2, n=64), power_dbm)


# ---------------------------------------------------------------------------
# split-step propagation
# ---------------------------------------------------------------------------


def test_identity_channel():
    f = _noise_frame(1)
    seg = FiberSegment(50e3, 0.0, 0.0, 100.0, nonlinear_index_n2=0.0)
    out = ssfm_propagate(f, [seg], max_step_m=5e3)
    np.testing.assert_allclose(out.samples, f.samples, rtol=1e-12, atol=1e-15)


def test_dispersion_matches_analytic_operator():
    f = _gaussian_pulse_frame()
    seg = FiberSegment(80e3, 0.0, 17.0, 80.0, nonlinear_index_n2=0.0)
    out = ssfm_propagate(f, [seg], max_step_m=1e3)
    # independent oracle: single quadratic-phase multiplication
    lam = seg.reference_wavelength_nm * 1e-9
    beta2 = -(seg.dispersion_ps_nm_km * 1e-6) * lam**2 / (2 * math.pi * C0)
    freqs = np.fft.fftfreq(f.n_samples, 1 / f.sample_rate)
    op = np.exp(2j * math.pi**2 * beta2 * seg.length_m * freqs**2)
    ref = np.fft.ifft(np.fft.fft(f.samples, axis=1) * op, axis=1)
    err = np.linalg.norm(out.samples - ref) / np.linalg.norm(ref)
    assert err < 1e-10


def test_cw_nonlinear_phase_exact():
    n = 1024
    p_total = 3e-3
    # all power in one polarization; CW so dispersion is inert anyway
    s = np.vstack([np.full(n, math.sqrt(p_total)), np.zeros(n)]).astype(complex)
    f = WaveformFrame(samples=s, sample_rate=70e9)
    seg = FiberSegment(70e3, 0.0, 0.0, 149.0)
    out = ssfm_propagate(f, [seg], max_step_m=700.0)
    phi = (8.0 / 9.0) * seg.gamma_per_w_m * p_total * seg.length_m
    ref = f.samples * np.exp(1j * phi)
    np.testing.assert_allclose(out.samples, ref, rtol=0, atol=1e-8 * math.sqrt(p_total))


@pytest.mark.parametrize("steps", [1, 3, 10])
def test_cw_kerr_phase_exact_over_lossy_steps(steps):
    # a continuous wave leaves P exp(-alpha L) rotated by (8/9) gamma P L_eff
    # at any step count: each step's Kerr phase integrates the decaying power
    p_total = 3e-3
    s = np.vstack([np.full(64, math.sqrt(0.6 * p_total)), np.full(64, math.sqrt(0.4 * p_total))])
    f = WaveformFrame(samples=s.astype(complex), sample_rate=70e9)
    seg = hybrid_span().segments[0]
    out = _split_step(f.samples, f.sample_rate, [(seg, steps, 1.0)])
    power = np.sum(np.mean(np.abs(out) ** 2, axis=1))
    assert power == pytest.approx(p_total * math.exp(-seg.alpha_per_m * seg.length_m), rel=1e-12)
    phi = (8.0 / 9.0) * seg.gamma_per_w_m * p_total * seg.effective_length_m
    np.testing.assert_allclose(np.angle(out / f.samples), phi, rtol=0, atol=1e-12)


def test_loss_is_exact_with_nonlinearity_on():
    f = _noise_frame(2, power_w=5e-3)
    seg = FiberSegment(40e3, 0.148, 20.5, 149.0)
    out = ssfm_propagate(f, [seg], max_step_m=500.0)
    expected = f.power * 10 ** (-seg.loss_db / 10)
    assert out.power == pytest.approx(expected, rel=1e-12)


def test_energy_conserved_without_loss():
    f = _gaussian_pulse_frame(peak_w=4e-3)
    seg = FiberSegment(60e3, 0.0, 20.5, 149.0)
    out = ssfm_propagate(f, [seg], max_step_m=300.0)
    assert out.power == pytest.approx(f.power, rel=1e-10)


def test_step_halving_second_order():
    f = _gaussian_pulse_frame(peak_w=20e-3)
    seg = FiberSegment(50e3, 0.2, 17.0, 80.0)
    ref = ssfm_propagate(f, [seg], max_step_m=50.0)
    errs = []
    for h in (2500.0, 1250.0, 625.0):  # exact divisors: steps truly halve
        out = ssfm_propagate(f, [seg], max_step_m=h)
        errs.append(np.linalg.norm(out.samples - ref.samples))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert order1 > 1.8
    assert order2 > 1.8


def _four_fft_reference(samples, fs, seg, steps, gain=1.0, backward=False):
    """Textbook symmetric split-step over one FiberSegment: its gain in
    the time domain, then an FFT pair around each linear half step, the
    Kerr phase taken over the lossy step length 2 sinh(alpha h / 2) / alpha.
    Backwards, dispersion, loss and the Manakov Kerr term change sign."""
    sign = -1.0 if backward else 1.0
    h = seg.length_m / steps
    f = np.fft.fftfreq(samples.shape[1], d=1.0 / fs)
    half = np.exp(sign * 1j * math.pi**2 * seg.beta2_s2_m * h * f**2)
    half *= math.exp(-sign * seg.alpha_per_m * h / 4.0)
    alpha = seg.alpha_per_m
    h_nl = 2.0 * math.sinh(alpha * h / 2.0) / alpha if alpha else h
    kerr = sign * (8.0 / 9.0) * seg.gamma_per_w_m * h_nl
    a = np.array(samples) * gain
    for _ in range(steps):
        a = np.fft.ifft(np.fft.fft(a, axis=1) * half, axis=1)
        a = a * np.exp(1j * kerr * np.sum(np.abs(a) ** 2, axis=0))
        a = np.fft.ifft(np.fft.fft(a, axis=1) * half, axis=1)
    return a


def _chain_reference(samples, fs, plan, backward=False):
    """Segment by segment, back in the time domain at every boundary."""
    for seg, steps, gain in plan:
        samples = _four_fft_reference(samples, fs, seg, steps, gain, backward)
    return samples


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _phase_rule_steps(power_w, segments):
    """Default step counts written out: ceil((8/9) gamma P_in L_eff / phi_max)
    per segment, P_in the power left after the segments before."""
    counts = []
    for seg in segments:
        phase = (8.0 / 9.0) * seg.gamma_per_w_m * power_w * seg.effective_length_m
        counts.append(max(1, math.ceil(phase / _PHI_MAX_RAD)))
        power_w *= 10.0 ** (-seg.loss_db / 10.0)
    return counts


#: the hybrid span's default counts at -0.5 dBm: 4 + 2 at 3.3e-3 rad per step
_HYBRID_STEPS = _phase_rule_steps(10.0 ** (-0.05) * 1e-3, hybrid_span().segments)


def test_merged_half_steps_match_four_fft_reference():
    f = _noise_frame(20, n=4096, power_w=10e-3)
    seg = FiberSegment(20e3, 0.2, 17.0, 80.0)
    out = _split_step(f.samples, f.sample_rate, [(seg, 10, 1.0)])
    ref = _four_fft_reference(f.samples, f.sample_rate, seg, 10)
    # the Kerr term must matter, or the comparison says nothing about it
    linear_seg = dataclasses.replace(seg, nonlinear_index_n2=0.0)
    linear = _split_step(f.samples, f.sample_rate, [(linear_seg, 10, 1.0)])
    assert _rel(linear, ref) > 1e-3
    assert _rel(out, ref) <= 1e-12


def test_merged_span_matches_round_trip_reference():
    # the 40 km segment's exit half, the 30 km segment's entry half and a
    # gain meet in one multiply; the reference transforms back between them
    f = with_power(_noise_frame(23, n=4096), 3.0)
    big, small = hybrid_span().segments
    plan = [(big, 7, 1.0), (small, 3, 1.25)]
    out = _split_step(f.samples, f.sample_rate, plan)
    assert _rel(out, _chain_reference(f.samples, f.sample_rate, plan)) <= 1e-12
    # a span through ssfm_propagate is that chain at its default counts
    f = with_power(f, -0.5)
    out = ssfm_propagate(f, [big, small]).samples
    plan = [(seg, n, 1.0) for seg, n in zip([big, small], _HYBRID_STEPS)]
    ref = _chain_reference(f.samples, f.sample_rate, plan)
    assert _rel(out, ref) <= 1e-12


def test_merged_dbp_chain_matches_round_trip_reference():
    f = with_power(_noise_frame(24, n=4096), 3.0)
    spans = [hybrid_span()] * 3
    out = dsp.dbp(f, spans, steps_per_span=4).samples
    # written out: per span, its gain divided out in the time domain, then
    # the 30 km segment (2 steps) and the 40 km segment (3 steps) backwards
    big, small = hybrid_span().segments
    backwards = [(small, 2, 1.0), (big, 3, 1.0)]
    ref = f.samples
    for span in spans:
        ref = ref / 10.0 ** (span.loss_db / 20.0)
        ref = _chain_reference(ref, f.sample_rate, backwards, backward=True)
    assert _rel(out, ref) <= 1e-12


def _count_transforms(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counted(*a, _real=real, **kw):
            calls.append(1)
            return _real(*a, **kw)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_segment_uses_two_transforms_per_step(monkeypatch, steps):
    calls = _count_transforms(monkeypatch)
    f = _noise_frame(21, n=256)
    seg = FiberSegment(7e3, 0.2, 17.0, 80.0)
    ssfm_propagate(f, [seg], max_step_m=seg.length_m / steps)
    assert len(calls) == 2 * steps + 2


def test_chains_transform_only_at_their_ends(monkeypatch):
    calls = _count_transforms(monkeypatch)
    frame = with_power(_noise_frame(25, n=256), -0.5)
    spans = [hybrid_span()] * 9
    # 9 spans of 4 + 2 steps, one chain per span: 9 x (2 x 6 + 2)
    propagate_link(frame, spans, seed=None)
    assert len(calls) == 9 * (2 * sum(_HYBRID_STEPS) + 2)
    calls.clear()
    # 3 + 2 steps per span, one chain for the whole link: 2 x 45 + 2
    dsp.dbp(frame, spans, steps_per_span=4)
    assert len(calls) == 92


def test_half_step_operators_built_once_per_distinct_segment(monkeypatch):
    builds = []

    def counted(freqs, *key):
        builds.append(key)
        return _half_step(freqs, *key)

    monkeypatch.setattr("shapelink.channel._half_step", counted)
    frame = with_power(_noise_frame(26, n=256), -0.5)
    spans = [hybrid_span()] * 3
    propagate_link(frame, spans, seed=None)
    assert len(builds) == 6  # one chain per span, two segments each
    builds.clear()
    dsp.dbp(frame, spans, steps_per_span=4)
    assert len(builds) == 2


def test_core_negated_parameters_invert_exactly():
    f = _noise_frame(22, n=4096, power_w=10e-3)
    seg = FiberSegment(30e3, 0.2, 17.0, 80.0)
    fwd = _split_step(f.samples, f.sample_rate, [(seg, 3, 1.0)])
    back = _split_step(fwd, f.sample_rate, [(seg, 3, 1.0)], backward=True)
    assert _rel(back, f.samples) <= 1e-12


def test_step_overflow_rejected():
    f = _noise_frame(3, n=64)
    seg = FiberSegment(1e9, 0.2, 17.0, 80.0)
    with pytest.raises(ConfigurationError):
        ssfm_propagate(f, [seg], max_step_m=0.01)


def _spy_steps(monkeypatch):
    """Record the step count of every segment the engine runs, in order."""
    steps = []

    def spy(samples, sample_rate, plan, backward=False):
        steps.extend(n for _, n, _ in plan)
        return _split_step(samples, sample_rate, plan, backward)

    monkeypatch.setattr("shapelink.channel._split_step", spy)
    monkeypatch.setattr("shapelink.dsp._split_step", spy)
    return steps


# default: at -0.5 dBm the 40 km large-area segment picks up 0.0122 rad of
# Kerr phase and the 30 km standard segment, entered 5.92 dB lower, 0.0048
# rad, so 4 + 2 steps of at most 3.3e-3 rad; an explicit 1 km step keeps
# ceil(L / h)
@pytest.mark.parametrize("max_step_m, want", [(None, _HYBRID_STEPS), (1000.0, [40, 30])])
def test_hybrid_span_step_counts(monkeypatch, max_step_m, want):
    steps = _spy_steps(monkeypatch)
    frame = with_power(_noise_frame(30, n=256), -0.5)
    propagate_link(frame, [hybrid_span()], seed=None, max_step_m=max_step_m)
    assert steps == want


def test_dbp_step_counts_per_span(monkeypatch):
    steps = _spy_steps(monkeypatch)
    frame = with_power(_noise_frame(34, n=256), -0.5)
    # 4 steps over 70 km: ceil(2.29) = 3 on 40 km, ceil(1.71) = 2 on 30 km,
    # run span by span from the last segment back
    dsp.dbp(frame, [hybrid_span()] * 2, steps_per_span=4)
    assert steps == [2, 3, 2, 3]


def test_default_steps_linear_and_lossless_segments(monkeypatch):
    steps = _spy_steps(monkeypatch)
    f = _noise_frame(31, n=256, power_w=3e-3)
    ssfm_propagate(f, [FiberSegment(80e3, 0.2, 17.0, 80.0, nonlinear_index_n2=0.0)])
    # lossless: L_eff is L, so (8/9) gamma P L / 3.3e-3 = 53.2 steps
    lossless = FiberSegment(50e3, 0.0, 17.0, 80.0)
    ssfm_propagate(f, [lossless])
    assert steps == [1] + _phase_rule_steps(3e-3, [lossless])


def test_empty_chain_rejected():
    with pytest.raises(ValueError, match="at least one segment"):
        ssfm_propagate(_noise_frame(35, n=64), [])


def test_default_step_overflow_rejected():
    f = _noise_frame(32, n=64, power_w=1e4)
    with pytest.raises(ConfigurationError):
        ssfm_propagate(f, [FiberSegment(1e6, 0.0, 17.0, 80.0)])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_step_length_must_be_positive_and_finite(bad):
    f = _noise_frame(33, n=64)
    with pytest.raises(ValueError, match="max_step_m"):
        ssfm_propagate(f, [FiberSegment(1e3, 0.2, 17.0, 80.0)], max_step_m=bad)
    with pytest.raises(ValueError, match="max_step_m"):
        propagate_link(f, [hybrid_span()], seed=None, max_step_m=bad)


# ---------------------------------------------------------------------------
# amplifier
# ---------------------------------------------------------------------------


def test_transparent_amplifier_adds_nothing():
    f = _noise_frame(4)
    out = amplify(f, 0.0, 0.0, seed=9)
    np.testing.assert_allclose(out.samples, f.samples, rtol=0, atol=1e-18)


@pytest.mark.parametrize(
    "gain_db, nf_db, message",
    [
        (4000.0, 1.4, "a gain of 4000.0 dB is inf"),
        # F G < 1 would be a negative ASE power, not a noiseless amplifier
        (0.0, -0.1, "F G < 1 at NF -0.1 dB, G 0.0 dB"),
        (10.72, -10.73, "F G < 1 at NF -10.73 dB, G 10.72 dB"),
    ],
)
def test_amplifier_rejects_a_degenerate_gain_or_noise_figure(gain_db, nf_db, message):
    with pytest.raises(DegenerateInputError, match=message):
        amplify(_noise_frame(4, n=64), gain_db, nf_db, seed=9)


def test_ase_power_matches_hand_calculation():
    # (F G - 1) h nu B with F = 1.4 dB, G = 10.72 dB, B = 35 GHz at
    # 193.4 THz: 15.2936 x 4.48512e-9 W x 1e-9 = 6.859e-8 W (-41.64 dBm)
    fs = 35e9
    f = WaveformFrame(samples=np.zeros((2, 50_000), complex), sample_rate=fs, symbol_rate=17.5e9)
    fg = 10 ** (1.4 / 10) * 10 ** (10.72 / 10)
    expected = (fg - 1.0) * PLANCK * 193.4e12 * fs
    powers = []
    for seed in range(100):
        out = amplify(f, 10.72, 1.4, seed=seed)
        powers.append(out.power)
    mean = np.mean(powers)
    sigma = np.std(powers) / math.sqrt(len(powers))
    assert abs(mean - expected) < 3 * sigma + 1e-12
    assert 10 * math.log10(mean * 1e3) == pytest.approx(-41.64, abs=0.05)


def test_ase_white_and_circular():
    f = WaveformFrame(samples=np.zeros((2, 100_000), complex), sample_rate=70e9)
    out = amplify(f, 10.0, 5.0, seed=12)
    for pol in out.samples:
        vi, vq = np.var(pol.real), np.var(pol.imag)
        assert abs(vi - vq) / vi < 0.05
        corr = np.mean(pol.real * pol.imag) / math.sqrt(vi * vq)
        assert abs(corr) < 0.02
        # whiteness: lag-1 autocorrelation is tiny
        lag1 = np.mean(pol[1:] * np.conj(pol[:-1])) / np.var(pol)
        assert abs(lag1) < 0.02


def test_independent_noise_adds_linearly():
    f = WaveformFrame(samples=np.zeros((2, 20_000), complex), sample_rate=70e9)
    singles, doubles = [], []
    for seed in range(100):
        once = amplify(f, 8.0, 4.0, seed=seed)
        twice = amplify(once, 0.0, 4.0, seed=seed + 1000)
        singles.append(once.power)
        doubles.append(twice.power)
    # the 0 dB second stage adds (F-1) h nu B on top
    fg1 = 10 ** (4 / 10) * 10 ** (8 / 10) - 1
    fg2 = 10 ** (4 / 10) - 1
    expected_ratio = (fg1 + fg2) / fg1
    ratio = np.mean(doubles) / np.mean(singles)
    assert ratio == pytest.approx(expected_ratio, rel=0.05)


def test_ase_draws_match_the_two_array_expression():
    f = _noise_frame(10)
    out = amplify(f, 10.72, 1.4, seed=11)
    psd = (10.0 ** (1.4 / 10.0) * 10.0 ** (10.72 / 10.0) - 1.0) * _PLANCK * _CARRIER_HZ / 2.0
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((2, f.n_samples)) + 1j * rng.standard_normal((2, f.n_samples))
    ref = f.samples * 10.0 ** (10.72 / 20.0) + noise * math.sqrt(psd * f.sample_rate / 2.0)
    np.testing.assert_array_equal(out.samples, ref)


def test_amplifier_deterministic_given_seed():
    f = _noise_frame(5)
    a = amplify(f, 3.0, 4.0, seed=7)
    b = amplify(f, 3.0, 4.0, seed=7)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_amplifier_adds_the_ase_into_its_output_in_place():
    # the scaled field (2 MiB) and one real draw (1 MiB); a separate
    # complex noise array took the traced peak to 5.25 MiB
    f = _noise_frame(5, n=65536)
    amplify(f, 10.72, 1.4, seed=7)
    tracemalloc.start()
    try:
        amplify(f, 10.72, 1.4, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.25 * 2**20


# ---------------------------------------------------------------------------
# link
# ---------------------------------------------------------------------------


def test_transparent_linear_link_preserves_power():
    f = _noise_frame(6, power_w=1e-3)
    seg = FiberSegment(70e3, 0.2, 17.0, 80.0, nonlinear_index_n2=0.0)
    span = SpanSpec(segments=(seg,))
    out = propagate_link(f, [span], seed=None, max_step_m=7e3)
    assert out.power == pytest.approx(f.power, rel=1e-9)


@pytest.mark.parametrize("nf_db", [math.nan, math.inf, -math.inf])
def test_span_rejects_non_finite_noise_figure(nf_db):
    # unchecked, a NaN would fail only later, in amplify, as "samples must be finite"
    with pytest.raises(ValueError, match="noise figure must be finite"):
        SpanSpec(hybrid_span().segments, amp_noise_figure_db=nf_db)


def test_span_rejects_an_amplifier_with_f_g_below_one():
    # amplify would raise only at the first span's output, after its
    # split-step; F G = 1 exactly (a zero ASE power) stays legal
    with pytest.raises(DegenerateInputError, match="F G < 1"):
        SpanSpec(hybrid_span().segments, amp_noise_figure_db=-20)
    ten_db = (FiberSegment(50e3, 0.2, 17.0, 80.0),)
    with pytest.raises(DegenerateInputError, match="F G < 1"):
        SpanSpec(ten_db, amp_noise_figure_db=-10.000001)
    span = SpanSpec(ten_db, amp_noise_figure_db=-10.0)
    f = _noise_frame(6)
    noisy = amplify(f, span.loss_db, span.amp_noise_figure_db, seed=1)
    noiseless = amplify(f, span.loss_db, span.amp_noise_figure_db, seed=None)
    np.testing.assert_array_equal(noisy.samples, noiseless.samples)


def test_hybrid_span_has_paper_loss():
    span = hybrid_span()
    assert span.loss_db == pytest.approx(10.72, abs=1e-12)
    assert span.length_m == pytest.approx(70e3)


def test_link_noise_reproducible():
    f = _noise_frame(8)
    spans = [hybrid_span()] * 2
    a = propagate_link(f, spans, seed=42, max_step_m=7e3)
    b = propagate_link(f, spans, seed=42, max_step_m=7e3)
    np.testing.assert_array_equal(a.samples, b.samples)


_SPANS = [hybrid_span()] * 2


def _symbol_frame(seed):
    return dsp.random_symbols(square64(), 2048, seed)[0]


@pytest.mark.parametrize(
    "make, kernel",
    [
        (_noise_frame, lambda f: ssfm_propagate(f, _SPANS[0].segments, max_step_m=7e3)),
        (_noise_frame, lambda f: propagate_link(f, _SPANS, seed=3, max_step_m=7e3)),
        (_noise_frame, lambda f: amplify(f, 10.72, 1.4, seed=3)),
        (_noise_frame, lambda f: amplify(f, 0.0, 1.4, seed=None)),
        (_noise_frame, lambda f: dsp.dbp(f, _SPANS, 4)),
        (_noise_frame, lambda f: dsp.cd_compensate(f, _SPANS)),
        (_noise_frame, dsp.matched_filter),
        (_symbol_frame, lambda s: dsp.rrc_shape(s, 4)),
    ],
    ids=[
        "ssfm_propagate",
        "propagate_link",
        "amplify",
        "amplify_noiseless",
        "dbp",
        "cd_compensate",
        "matched_filter",
        "rrc_shape",
    ],
)
def test_kernels_return_a_fresh_frozen_field_and_leave_their_input_alone(make, kernel):
    # the spectral kernels transform one buffer of their own in place;
    # the input field must come through untouched and unshared
    frame = make(9)
    field = frame.symbols if hasattr(frame, "symbols") else frame.samples
    before = field.tobytes()
    out = kernel(frame).samples
    assert field.tobytes() == before
    assert not out.flags.writeable
    assert not np.shares_memory(out, field)


# ---------------------------------------------------------------------------
# impairments
# ---------------------------------------------------------------------------


def test_transmitter_noise_sets_snr():
    f = _noise_frame(16, n=200_000)
    noisy = add_transmitter_noise(f, 20.0, seed=3)
    delta = noisy.samples - f.samples
    snr = f.power / (np.mean(np.abs(delta) ** 2) * 2)
    assert 10 * math.log10(snr) == pytest.approx(20.0, abs=0.1)


def test_transmitter_noise_rejects_an_snr_of_zero_on_the_linear_scale():
    with pytest.raises(DegenerateInputError, match="transmitter SNR of -4000.0 dB is 0.0"):
        add_transmitter_noise(_noise_frame(16, n=64), -4000.0, seed=3)


@pytest.mark.parametrize("oversampling", [2, 4])
def test_transmitter_noise_gains_the_oversampling_after_the_matched_filter(oversampling):
    # the noise is white over the sample rate and the matched filter keeps
    # one symbol rate of it: the symbol SNR is snr_db + 10 log10(L)
    tx, _ = dsp.random_symbols(square64(), 20_000, seed=5)
    wf = add_transmitter_noise(dsp.rrc_shape(tx, oversampling), 20.0, seed=6)
    rx = dsp.decimate(dsp.matched_filter(wf))
    expected = 20.0 + 10 * math.log10(oversampling)
    assert -dsp.evm_db(dsp.align(rx, tx), tx) == pytest.approx(expected, abs=0.1)


def test_wiener_walk_variance_scales():
    track = wiener_phase_walk(200_000, 200e3, 35e9, seed=4)
    increments = np.diff(track)
    assert np.var(increments) == pytest.approx(2 * math.pi * 200e3 / 35e9, rel=0.05)
    assert track[0] == 0.0


def test_wiener_walk_variance_that_overflows_is_degenerate():
    # 2 pi x the largest float gave inf increments and a NaN walk
    with pytest.raises(DegenerateInputError, match="linewidth"):
        wiener_phase_walk(16, 1.7976931348623157e308, 70e9, seed=0)


def test_frequency_shift_and_jones_rotation():
    f = _noise_frame(17, n=1024)
    shifted = apply_frequency_shift(f, 500e6)
    assert shifted.power == pytest.approx(f.power, rel=1e-12)
    rot = apply_jones_rotation(f, math.pi / 2)
    np.testing.assert_allclose(rot.samples[0], f.samples[1], atol=1e-15)
    np.testing.assert_allclose(rot.samples[1], -f.samples[0], atol=1e-15)


def test_si_constants_match_scipy():
    assert _C0 == C0
    assert _PLANCK == PLANCK
    assert linkbudget._C0 is _C0
