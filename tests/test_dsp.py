"""Receiver-chain tests.

Expected values fall in three groups: closed-form anchors (impulse
energy, the two-point LLR formula), inject-and-recover oracles where the
truth is the injected impairment (frequency offset, phase walks, Jones
rotations, ISI taps), and cross-module oracles where an independent
implementation provides the reference (split-step fiber for dispersion,
the quadrature GMI estimator for demapper quality).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from point_sets import natural_constellation

import shapelink.channel as ch
import shapelink.constellation as cn
import shapelink.dsp as dsp
import shapelink.experiments as ex
from shapelink import linkbudget
from shapelink.errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateInputError,
    EstimationFailure,
)


@pytest.fixture(scope="module")
def square():
    return cn.square64()


@pytest.fixture(scope="module")
def system12():
    return cn.load_builtin("system12")


def _aligned_evm_db(out: np.ndarray, ref: np.ndarray) -> float:
    """EVM after :func:`dsp.align` settles the blind equalizer's
    polarization swap and each polarization's complex gain."""
    reference = dsp.SymbolFrame(symbols=ref)
    return dsp.evm_db(dsp.align(reference.with_symbols(out), reference), reference)


# ---------------------------------------------------------------------------
# config and frame validation


def test_config_validation(square):
    _, mf = _matched_2sps(square, 256, seed=1)
    bad = [
        ("taps", 20),
        ("taps", 0),
        ("taps", math.nan),
        ("step", 0.0),
        ("step", math.nan),
        ("step", math.inf),
        ("passes", 0),
        ("passes", math.nan),
    ]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            dsp.rde_equalize(mf, square, **{name: value})


@pytest.mark.parametrize("block_length", [0, -1, math.nan])
def test_cpe_block_length_validation(square, block_length):
    frame, _ = dsp.random_symbols(square, 64, seed=1)
    with pytest.raises(ValueError, match="block_length"):
        dsp.vv_cpe(frame, square, block_length)


def test_symbol_frame_validation():
    with pytest.raises(ValueError):
        dsp.SymbolFrame(symbols=np.zeros((3, 10), complex))
    with pytest.raises(ValueError):
        dsp.SymbolFrame(symbols=np.zeros((2, 0), complex))
    bad = np.zeros((2, 4), complex)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        dsp.SymbolFrame(symbols=bad)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda a: ch.WaveformFrame(a, sample_rate=70e9), "samples"),
        (lambda a: dsp.SymbolFrame(a), "symbols"),
    ],
    ids=["WaveformFrame", "SymbolFrame"],
)
def test_frames_check_and_freeze_their_field(make, name):
    for shape in ((2, 0), (3, 8), (8,)):
        with pytest.raises(ValueError, match=f"{name} must have shape"):
            make(np.ones(shape, complex))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        values = np.ones((2, 8), complex)
        values[1, 3] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(values)
    values = np.ones((2, 8), complex)
    field = getattr(make(values), name)
    assert field.dtype == np.complex128 and field.flags.c_contiguous
    assert np.shares_memory(field, values)  # frozen, not copied
    with pytest.raises(ValueError, match="read-only"):
        field[0, 0] = 5.0
    # a WaveformFrame kept the caller's array writable: this write moved
    # the frame's samples[0, 0] to 5
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 5.0
    owner = np.ones((4, 8), complex)
    field = getattr(make(owner[:2]), name)
    owner[0, 0] = 5.0  # a view into a writable array is copied
    assert field[0, 0] == 1.0


@pytest.mark.parametrize("rate", [0.0, -35e9, math.inf, math.nan])
def test_symbol_frame_rejects_a_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ValueError, match="symbol_rate must be positive and finite"):
        dsp.SymbolFrame(symbols=np.zeros((2, 4), complex), symbol_rate=rate)


# ---------------------------------------------------------------------------
# pulse shaping


def test_rrc_impulse_unit_energy(square):
    s = np.zeros((2, 512), complex)
    s[:, 0] = 1.0
    wf = dsp.rrc_shape(dsp.SymbolFrame(symbols=s), 8, 0.01)
    energy = np.sum(np.abs(wf.samples[0]) ** 2)
    assert abs(energy - 1.0) < 1e-9


def test_rrc_matched_decimate_loopback(square):
    frame, _ = dsp.random_symbols(square, 4096, seed=1)
    wf = dsp.rrc_shape(frame, 4, 0.01)
    back = dsp.decimate(dsp.matched_filter(wf, 0.01))
    rel = np.max(np.abs(back.symbols - frame.symbols)) / np.max(np.abs(frame.symbols))
    assert rel < 1e-6


def test_rrc_bandwidth():
    s = np.zeros((2, 512), complex)
    s[:, 0] = 1.0
    wf = dsp.rrc_shape(dsp.SymbolFrame(symbols=s), 8, 0.01)
    spec = np.abs(np.fft.fft(wf.samples[0])) ** 2
    f = np.fft.fftfreq(wf.n_samples, 1.0 / wf.sample_rate)
    bw = np.ptp(f[spec >= spec.max() / 2.0])
    assert abs(bw - wf.symbol_rate) / wf.symbol_rate < 0.02


def test_rrc_rejects_bad_arguments(square):
    frame, _ = dsp.random_symbols(square, 16, seed=0)
    with pytest.raises(ValueError):
        dsp.rrc_shape(frame, 1, 0.01)
    with pytest.raises(ValueError):
        dsp.rrc_shape(frame, 4, 0.0)
    with pytest.raises(ValueError):
        dsp.rrc_shape(frame, 4, 1.5)


def test_matched_filter_energy_non_increasing():
    rng = np.random.default_rng(4)
    n = 4096
    noise = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    wf = ch.WaveformFrame(samples=noise, sample_rate=70e9, symbol_rate=35e9)
    out = dsp.matched_filter(wf, 0.01)
    # unit-peak passive filter: no realization can gain energy
    assert out.power <= wf.power * (1.0 + 1e-12)
    # spectrum is reshaped: out-of-band bins are annihilated
    spec = np.abs(np.fft.fft(out.samples[0]))
    f = np.fft.fftfreq(n, 1.0 / wf.sample_rate)
    assert spec[np.abs(f) > 0.51 * wf.symbol_rate].max() < 1e-10 * spec.max()


def test_matched_filter_identity_on_bandlimited_noise():
    # white noise already limited to the flat part of the passband goes
    # through the unit-gain region untouched
    rng = np.random.default_rng(8)
    n = 4096
    fs, rs = 70e9, 35e9
    spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = np.fft.fftfreq(n, 1.0 / fs)
    spec[np.abs(f) > 0.45 * rs] = 0.0
    noise = np.fft.ifft(spec)
    wf = ch.WaveformFrame(samples=np.stack([noise, noise]), sample_rate=fs, symbol_rate=rs)
    out = dsp.matched_filter(wf, 0.01)
    np.testing.assert_allclose(out.samples, wf.samples, rtol=0, atol=1e-12)


def test_decimate_phase_and_rate(square):
    frame, _ = dsp.random_symbols(square, 256, seed=2)
    wf = dsp.rrc_shape(frame, 4, 0.2)
    out = dsp.decimate(wf)
    assert out.n_symbols == 256
    assert out.symbol_rate == frame.symbol_rate
    # the first sample of each symbol period, times sqrt(4)
    assert np.array_equal(out.symbols, 2.0 * wf.samples[:, ::4])
    odd = ch.WaveformFrame(samples=np.ones((2, 90), complex), sample_rate=87.5e9, symbol_rate=35e9)
    with pytest.raises(ValueError):
        dsp.decimate(odd)  # 2.5 samples per symbol


def _wide_field():
    rng = np.random.default_rng(6)
    noise = rng.standard_normal((2, 65536)) + 1j * rng.standard_normal((2, 65536))
    return ch.WaveformFrame(samples=noise, sample_rate=140e9, symbol_rate=35e9)


def _wide_symbols():
    return dsp.random_symbols(cn.square64(), 16384, seed=6)[0]


@pytest.mark.parametrize(
    "make, kernel, bound_mib",
    [
        (_wide_field, lambda f: dsp.matched_filter(f, 0.01), 3.75),
        (_wide_field, lambda f: dsp.cd_compensate(f, [ch.hybrid_span()]), 4.6),
        (_wide_symbols, lambda s: dsp.rrc_shape(s, 4), 5.5),  # 4 sps: a (2, 65536) field
    ],
    ids=["matched_filter", "cd_compensate", "rrc_shape"],
)
def test_filters_transform_one_buffer_in_place(make, kernel, bound_mib):
    # a (2, 65536) output field is 2 MiB: fft -> multiply -> ifft in one
    # buffer keeps the filter's response and frequency grid beside it,
    # where three field copies at once took 4.63, 5.50 and 6.63 MiB
    frame = make()
    kernel(frame)  # warm-up
    tracemalloc.start()
    try:
        kernel(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


# ---------------------------------------------------------------------------
# chromatic dispersion


def _linear_span(length_m, dispersion_ps_nm_km, wavelength_nm=1550.0):
    # one lossless, Kerr-free segment
    seg = ch.FiberSegment(
        length_m=length_m,
        attenuation_db_km=0.0,
        dispersion_ps_nm_km=dispersion_ps_nm_km,
        effective_area_um2=80.0,
        nonlinear_index_n2=0.0,
        reference_wavelength_nm=wavelength_nm,
    )
    return ch.SpanSpec(segments=(seg,))


def test_cd_compensate_identity_at_zero(square):
    frame, _ = dsp.random_symbols(square, 512, seed=3)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    out = dsp.cd_compensate(wf, [_linear_span(80e3, 0.0)])
    np.testing.assert_allclose(out.samples, wf.samples, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dl_ps_nm", [17.0 * 80.0, 2e4, 2e5])
def test_cd_compensate_inverts_linear_fiber(square, dl_ps_nm):
    frame, _ = dsp.random_symbols(square, 2048, seed=5)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    length = 80_000.0
    span = _linear_span(length, dl_ps_nm / (length / 1000.0))
    prop = ch.ssfm_propagate(wf, span.segments, max_step_m=length)
    out = dsp.cd_compensate(prop, [span])
    rel = np.max(np.abs(out.samples - wf.samples)) / np.max(np.abs(wf.samples))
    assert rel < 1e-9


def test_cd_compensate_reads_each_segment_reference_wavelength(square):
    # D is given at 1310 nm: the fiber and the compensator must both take
    # beta2 there, not at 1550 nm
    frame, _ = dsp.random_symbols(square, 2048, seed=5)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    span = _linear_span(80e3, 17.0, wavelength_nm=1310.0)
    prop = ch.ssfm_propagate(wf, span.segments, max_step_m=80e3)
    out = dsp.cd_compensate(prop, [span])
    rel = np.max(np.abs(out.samples - wf.samples)) / np.max(np.abs(wf.samples))
    assert rel <= 1e-9


def test_cd_compensate_unitary(square):
    frame, _ = dsp.random_symbols(square, 512, seed=6)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    out = dsp.cd_compensate(wf, [_linear_span(100e3, 123.45)])  # 12345 ps/nm
    assert abs(out.power - wf.power) < 1e-12 * wf.power


# ---------------------------------------------------------------------------
# adaptive equalization (input is the matched-filtered 2 sps signal)


def _matched_2sps(c, n, seed, rolloff=0.01):
    frame, idx = dsp.random_symbols(c, n, seed=seed)
    wf = dsp.rrc_shape(frame, 2, rolloff)
    return frame, dsp.matched_filter(wf, rolloff)


def test_rde_identity_channel(square):
    frame, mf = _matched_2sps(square, 4096, seed=5)
    eq = dsp.rde_equalize(mf, square)
    evm = _aligned_evm_db(eq.symbols[:, 100:-100], frame.symbols[:, 100:-100])
    assert evm < -30.0


def test_rde_radius_classification(square):
    frame, mf = _matched_2sps(square, 4096, seed=7)
    eq = dsp.rde_equalize(mf, square)
    radii = square.radius_set()

    def classify(x):
        return np.argmin(np.abs(np.abs(x)[..., None] - radii[None, :]), axis=-1)

    gain = math.sqrt(np.mean(np.abs(eq.symbols) ** 2))
    err = np.mean(
        classify(eq.symbols[:, 100:-100] / gain) != classify(frame.symbols[:, 100:-100])
    )
    assert err < 0.01


def test_rde_recovers_jones_rotation(square):
    frame, mf = _matched_2sps(square, 4096, seed=9)
    rot = ch.apply_jones_rotation(mf, math.pi / 2.0)
    eq, state = dsp.rde_equalize(rot, square, return_state=True)
    evm = _aligned_evm_db(eq.symbols[:, 100:-100], frame.symbols[:, 100:-100])
    assert evm < -30.0
    assert state.restarts == 0


def test_rde_suppresses_isi(square):
    # mild 3-tap channel at T/2: input ISI about -19.6 dB, which pure
    # radius-directed adaptation genuinely removes; stronger ISI parks a
    # radius-directed equalizer at a biased stationary point
    frame, mf = _matched_2sps(square, 4096, seed=5)
    taps = np.array([0.06 + 0.03j, 1.0, -0.08j])
    conv = np.stack([np.convolve(mf.samples[p], taps, "same") for p in range(2)])
    isi_wf = mf.with_samples(conv)
    ref = frame.symbols[:, 100:-100]
    before = _aligned_evm_db(dsp.decimate(isi_wf).symbols[:, 100:-100], ref)
    eq = dsp.rde_equalize(isi_wf, square)
    after = _aligned_evm_db(eq.symbols[:, 100:-100], ref)
    assert before > -22.0  # the channel really is dirty
    assert after < -20.0
    assert after < before - 15.0


def test_rde_divergence_restarts(square):
    frame, mf = _matched_2sps(square, 2048, seed=11)
    eq, state = dsp.rde_equalize(mf, square, step=0.5, return_state=True)
    assert state.restarts >= 1
    assert state.step_used < 0.5
    assert np.all(np.isfinite(eq.symbols))


def _reference_rde(frame, c, taps=19, step=1e-3, passes=2):
    """The per-symbol equalizer written out plainly: four dot products and a
    full argmin over the radius set per symbol, same checks and restarts."""
    k = taps
    half = (k - 1) // 2
    a = np.array(frame.samples)
    a *= math.sqrt(1.0 / np.mean(np.abs(a) ** 2))
    radii_sq = np.asarray(c.radius_set()) ** 2
    n_sym = a.shape[1] // 2
    pad = np.pad(a, ((0, 0), (half, half)))
    win_x = np.lib.stride_tricks.sliding_window_view(pad[0], k)[::2][:n_sym]
    win_y = np.lib.stride_tricks.sliding_window_view(pad[1], k)[::2][:n_sym]

    def nearest(power):
        return float(radii_sq[np.argmin(np.abs(radii_sq - power))])

    restarts = 0
    mu = step
    while True:
        w = np.zeros((2, 2, k), dtype=np.complex128)
        w[0, 0, half] = 1.0
        w[1, 1, half] = 1.0
        out = np.empty((2, n_sym), dtype=np.complex128)
        diverged = False
        block_acc = 0.0
        for _ in range(passes):
            for n in range(n_sym):
                ux = win_x[n]
                uy = win_y[n]
                yx = np.dot(w[0, 0], ux) + np.dot(w[0, 1], uy)
                yy = np.dot(w[1, 0], ux) + np.dot(w[1, 1], uy)
                px = yx.real * yx.real + yx.imag * yx.imag
                py = yy.real * yy.real + yy.imag * yy.imag
                gx = mu * (nearest(px) - px) * yx
                gy = mu * (nearest(py) - py) * yy
                w[0, 0] += gx * ux.conj()
                w[0, 1] += gx * uy.conj()
                w[1, 0] += gy * ux.conj()
                w[1, 1] += gy * uy.conj()
                out[0, n] = yx
                out[1, n] = yy
                block_acc += px + py
                if px + py > 1e4:
                    diverged = True
                    break
                if (n + 1) % 128 == 0:
                    if not math.isfinite(block_acc) or block_acc / 256 > 10.0:
                        diverged = True
                        break
                    block_acc = 0.0
            if diverged:
                break
        if not diverged:
            return out, w, restarts, mu
        restarts += 1
        mu *= 0.5


@pytest.mark.parametrize("case", ["jones", "divergence", "short", "ragged", "partial_group"])
def test_rde_matches_per_symbol_reference(square, case):
    if case == "divergence":
        _, wf = _matched_2sps(square, 2048, seed=11)
        kwargs = dict(step=0.5)
    elif case == "partial_group":
        # 2051 symbols end in a 3-symbol group, and four of the five
        # restarts at step 0.5 are triggered before a group's last symbol.
        # Seed 17 settles at a step where the recursion does not amplify
        # rounding; seeds 11 and 13 settle at 1/32, where it does, and a
        # per-symbol product order other than the reference's drifts
        # 1e-11 and 6e-7 from it
        _, wf = _matched_2sps(square, 2051, seed=17)
        kwargs = dict(step=0.5)
    elif case == "ragged":
        # 2500 symbols: two full blocks of equalizer windows and a short one
        _, mf = _matched_2sps(square, 2500, seed=13)
        wf = ch.apply_jones_rotation(mf, math.pi / 2.0)
        kwargs = {}
    else:
        _, mf = _matched_2sps(square, 4096, seed=9)
        wf = ch.apply_jones_rotation(mf, math.pi / 2.0)
        kwargs = dict(taps=7, passes=1) if case == "short" else {}
    eq, state = dsp.rde_equalize(wf, square, return_state=True, **kwargs)
    out, taps, restarts, mu = _reference_rde(wf, square, **kwargs)
    assert state.restarts == restarts
    assert state.step_used == mu
    if case in ("divergence", "partial_group"):
        assert restarts >= 1
    assert np.linalg.norm(eq.symbols - out) / np.linalg.norm(out) <= 1e-12
    assert np.linalg.norm(state.taps - taps) / np.linalg.norm(taps) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["square64", "awgn12", "papr12", "system12"]),
    st.floats(min_value=0.0, max_value=1e4),
)
def test_nearest_radius_bisect_matches_argmin(name, power):
    radii_sq = np.asarray(cn.load_builtin(name).radius_set()) ** 2
    want = float(radii_sq[np.argmin(np.abs(radii_sq - power))])
    assert dsp._nearest_radius_sq(radii_sq.tolist(), power) == want


@pytest.mark.parametrize("name", ["square64", "system12"])
def test_nearest_radius_ties_and_hits(name):
    radii_sq = (np.asarray(cn.load_builtin(name).radius_set()) ** 2).tolist()
    for lo, hi in zip(radii_sq, radii_sq[1:]):
        for power in (lo, hi, 0.5 * (lo + hi), np.nextafter(0.5 * (lo + hi), hi)):
            want = radii_sq[int(np.argmin(np.abs(np.asarray(radii_sq) - power)))]
            assert dsp._nearest_radius_sq(radii_sq, power) == want


def test_rde_rejects_wrong_rate(square):
    frame, _ = dsp.random_symbols(square, 256, seed=1)
    wf = dsp.rrc_shape(frame, 4, 0.01)
    with pytest.raises(ValueError):
        dsp.rde_equalize(wf, square)


# ---------------------------------------------------------------------------
# frequency offset


def test_foc_zero_offset(square):
    frame, _ = dsp.random_symbols(square, 20000, seed=2)
    _, f_hat = dsp.frequency_offset_compensate(frame, square)
    assert abs(f_hat) < 100e3


def test_foc_recovers_500mhz(square):
    m = 20000
    frame, _ = dsp.random_symbols(square, m, seed=2)
    n = np.arange(m)
    rot = frame.with_symbols(
        frame.symbols * np.exp(2j * np.pi * 500e6 * n / frame.symbol_rate)
    )
    out, f_hat = dsp.frequency_offset_compensate(rot, square)
    assert abs(f_hat - 500e6) < 1e6
    # residual rotation across the frame is small after derotation
    _, f_res = dsp.frequency_offset_compensate(out, square)
    assert abs(f_res) < 100e3


def test_foc_global_phase_invariant(square):
    m = 20000
    frame, _ = dsp.random_symbols(square, m, seed=2)
    n = np.arange(m)
    rot = frame.with_symbols(
        frame.symbols * np.exp(2j * np.pi * 500e6 * n / frame.symbol_rate)
    )
    _, f1 = dsp.frequency_offset_compensate(rot, square)
    _, f2 = dsp.frequency_offset_compensate(
        rot.with_symbols(rot.symbols * np.exp(0.7j)), square
    )
    assert f1 == f2


def test_foc_failure_on_noise(square):
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((2, 4096)) + 1j * rng.standard_normal((2, 4096))
    with pytest.raises(EstimationFailure):
        dsp.frequency_offset_compensate(dsp.SymbolFrame(symbols=noise), square)


def test_silent_frame_fails_loudly(square):
    frame, _ = dsp.random_symbols(square, 512, seed=5)
    silent = frame.with_symbols(np.zeros_like(frame.symbols))
    wf = dsp.rrc_shape(frame, 2, 0.01)
    silent_wf = wf.with_samples(np.zeros_like(wf.samples))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationFailure):
            dsp.frequency_offset_compensate(silent, square)
        with pytest.raises(DegenerateInputError):
            dsp.rde_equalize(silent_wf, square)


def test_foc_works_on_shaped_constellation(system12):
    m = 20000
    frame, _ = dsp.random_symbols(system12, m, seed=4)
    n = np.arange(m)
    rot = frame.with_symbols(
        frame.symbols * np.exp(2j * np.pi * 200e6 * n / frame.symbol_rate)
    )
    _, f_hat = dsp.frequency_offset_compensate(rot, system12)
    assert abs(f_hat - 200e6) < 1e6


# ---------------------------------------------------------------------------
# carrier phase estimation


def test_cpe_constant_offset(system12):
    frame, _ = dsp.random_symbols(system12, 8192, seed=7)
    rot = frame.with_symbols(frame.symbols * np.exp(1j * np.pi / 16.0))
    res = dsp.vv_cpe(rot, system12)
    err = np.abs(
        (res.phase_track - np.pi / 16.0 + np.pi / 4.0) % (np.pi / 2.0) - np.pi / 4.0
    )
    assert err.max() < 1e-3
    assert res.empty_blocks == 0


def test_cpe_unbiased_on_markers(system12):
    # noiseless input, no offset: the marker ring's 4th power is a single
    # constant, so the estimate is exactly zero up to rounding
    frame, _ = dsp.random_symbols(system12, 8192, seed=8)
    res = dsp.vv_cpe(frame, system12)
    assert np.abs(res.phase_track).max() < 1e-6


def test_cpe_equivariance(system12):
    frame, _ = dsp.random_symbols(system12, 4096, seed=9)
    base = dsp.vv_cpe(frame, system12)
    theta = 0.31
    rot = dsp.vv_cpe(frame.with_symbols(frame.symbols * np.exp(1j * theta)), system12)
    dev = (rot.phase_track - base.phase_track - theta + np.pi / 4.0) % (
        np.pi / 2.0
    ) - np.pi / 4.0
    assert np.abs(dev).max() < 1e-9


def test_cpe_wiener_cycle_slip_free(system12):
    m = 100_000
    frame, _ = dsp.random_symbols(system12, m, seed=11)
    track = ch.wiener_phase_walk(m, linewidth_hz=200e3, rate_hz=35e9, seed=3)
    rng = np.random.default_rng(13)
    nv = 10.0 ** (-12.0 / 10.0)
    noise = (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))) * math.sqrt(
        nv / 2.0
    )
    rx = frame.with_symbols(frame.symbols * np.exp(1j * track)[None, :] + noise)
    res = dsp.vv_cpe(rx, system12)
    resid = res.phase_track - track
    # genie quarter-turn reference at frame start; afterwards the residual
    # must never wander across a pi/4 boundary (no cycle slips)
    branch = np.pi / 2.0 * round(float(np.mean(resid[:64])) / (np.pi / 2.0))
    resid -= branch
    assert np.abs(resid).max() < np.pi / 4.0


def test_cpe_empty_block_inherits(system12):
    frame, _ = dsp.random_symbols(system12, 256, seed=12)
    sym = np.array(frame.symbols)
    thr_block = slice(64, 128)
    mags = np.abs(sym[:, thr_block])
    ring = mags >= 0.5 * (
        system12.marker_radius()
        + np.abs(np.delete(system12.points, sorted(system12.marker_indices))).max()
    )
    scale = np.where(ring, 0.3 / np.maximum(mags, 1e-12), 1.0)
    sym[:, thr_block] = sym[:, thr_block] * scale
    res = dsp.vv_cpe(dsp.SymbolFrame(symbols=sym), system12)
    assert res.empty_blocks == 1


def test_cpe_window_covers_both_blocks_of_a_two_block_frame(square):
    # a 3-block window over two blocks sums both of them for each block
    frame, _ = dsp.random_symbols(square, 128, seed=14)
    s = frame.symbols * np.exp(1j * np.repeat([0.05, 0.15], 64))[None, :]
    res = dsp.vv_cpe(frame.with_symbols(s), square, block_length=64)
    window = (s[:, :64] ** 4).sum() + (s[:, 64:] ** 4).sum()
    psi = np.angle((square.points**4).sum())
    raw = (np.angle(window) - psi) / 4.0
    want = (raw + np.pi / 4.0) % (np.pi / 2.0) - np.pi / 4.0
    np.testing.assert_allclose(res.phase_track, np.full(128, want), rtol=0, atol=1e-12)


def test_cpe_falls_back_without_markers(square):
    frame, _ = dsp.random_symbols(square, 4096, seed=13)
    rot = frame.with_symbols(frame.symbols * np.exp(1j * 0.1))
    res = dsp.vv_cpe(rot, square)
    err = np.abs((res.phase_track - 0.1 + np.pi / 4.0) % (np.pi / 2.0) - np.pi / 4.0)
    # all-symbol 4th-power partitioning carries data-induced angle noise
    # (the symbol 4th moments scatter) so it is far noisier than marker
    # mode, but block medians must still land on the offset
    assert np.median(err) < 0.05


@pytest.mark.parametrize("name", ["square64", "system12"])
def test_cpe_all_zero_frame_is_degenerate(name):
    # square64 (no markers) would track a constant -pi/4 with no empty
    # block; system12 would classify nothing and inherit through every block
    with pytest.raises(DegenerateInputError):
        dsp.vv_cpe(dsp.SymbolFrame(np.zeros((2, 256), complex)), cn.load_builtin(name))


# ---------------------------------------------------------------------------
# digital back-propagation


def _nonlinear_link(power_dbm=3.0, n_spans=2, n_sym=2048, seed=None):
    c = cn.square64()
    frame, _ = dsp.random_symbols(c, n_sym, seed=17)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    wf = ch.with_power(wf, power_dbm)
    spans = [ch.hybrid_span() for _ in range(n_spans)]
    rx = ch.propagate_link(wf, spans, seed=seed, max_step_m=500.0)
    return wf, rx, spans


def test_dbp_linear_reduces_to_cdc(square):
    frame, _ = dsp.random_symbols(square, 2048, seed=15)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    seg = ch.FiberSegment(
        length_m=70_000.0,
        attenuation_db_km=0.18,
        dispersion_ps_nm_km=18.0,
        effective_area_um2=80.0,
        nonlinear_index_n2=0.0,
    )
    span = ch.SpanSpec(segments=(seg,))
    rx = ch.propagate_link(wf, [span], seed=None, max_step_m=1000.0)
    via_dbp = dsp.dbp(rx, [span], steps_per_span=4)
    via_cdc = dsp.cd_compensate(rx, [span])
    rel = np.max(np.abs(via_dbp.samples - via_cdc.samples)) / np.max(
        np.abs(via_cdc.samples)
    )
    assert rel < 1e-9


def test_dbp_fine_steps_invert_noiseless_link():
    wf, rx, spans = _nonlinear_link(power_dbm=3.0, n_spans=2, seed=None)
    # forward ran 500 m steps: 80 + 60 per hybrid span; 140 steps per span
    # reproduces them exactly through the proportional allocation
    out = dsp.dbp(rx, spans, steps_per_span=140)
    assert dsp.evm_db(out, wf) < -40.0


def test_dbp_four_steps_beats_cdc_on_nonlinear_link():
    wf, rx, spans = _nonlinear_link(power_dbm=6.0, n_spans=2, seed=None)
    coarse = dsp.dbp(rx, spans, steps_per_span=4)
    cdc = dsp.cd_compensate(rx, spans)
    assert dsp.evm_db(coarse, wf) < dsp.evm_db(cdc, wf) - 3.0


def test_dbp_shares_the_split_step_limit(square):
    frame, _ = dsp.random_symbols(square, 64, seed=16)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    span = ch.SpanSpec(segments=ch.hybrid_span().segments[:1])
    with pytest.raises(ConfigurationError, match="1e7 limit"):
        dsp.dbp(wf, [span], steps_per_span=ch._MAX_STEPS + 1)


def test_dbp_rejects_a_span_loss_whose_field_scale_is_zero(square):
    frame, _ = dsp.random_symbols(square, 64, seed=16)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    # 10^(-7000/20) underflows to 0, which would null the field
    span = ch.SpanSpec(segments=(ch.FiberSegment(10e3, 700.0, 17.0, 80.0),))
    with pytest.raises(DegenerateInputError, match="7000.0 dB span loss is 0.0"):
        dsp.dbp(wf, [span], steps_per_span=1)


def test_dbp_rejects_zero_steps_and_no_spans(square):
    frame, _ = dsp.random_symbols(square, 64, seed=16)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    with pytest.raises(ValueError, match="steps_per_span"):
        dsp.dbp(wf, [ch.hybrid_span()], steps_per_span=0)
    with pytest.raises(ValueError, match="at least one segment"):
        dsp.dbp(wf, [], steps_per_span=4)


def test_both_receivers_reject_an_empty_link(square):
    # an empty span list has no dispersion to undo; CDC must not return
    # the frame as if it had compensated a link
    frame, _ = dsp.random_symbols(square, 64, seed=16)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    with pytest.raises(ValueError, match="at least one span"):
        dsp.cd_compensate(wf, [])
    with pytest.raises(ValueError, match="at least one"):
        dsp.dbp(wf, [], steps_per_span=4)


@pytest.mark.parametrize("steps_per_span", [2 * 10**7, math.nan])
def test_dbp_checks_every_segment_before_the_first_step(square, monkeypatch, steps_per_span):
    # the 30 km segment runs first and alone stays under the limit; the
    # 40 km segment's count must be rejected before any step is taken
    calls = []

    def stub(a, *args, **kwargs):
        calls.append(args)
        return a

    monkeypatch.setattr(dsp, "_split_step", stub)
    frame, _ = dsp.random_symbols(square, 64, seed=16)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    with pytest.raises(ConfigurationError, match="1e7 limit"):
        dsp.dbp(wf, [ch.hybrid_span()], steps_per_span=steps_per_span)
    assert calls == []


# ---------------------------------------------------------------------------
# demapping


def test_llr_two_point_closed_form():
    c = natural_constellation([1.0 + 0j, -1.0 + 0j])
    rng = np.random.default_rng(21)
    y = rng.standard_normal(64) * 0.6 + 0.2
    nv = 0.5
    llr = cn.bitwise_llrs(c, y, nv)
    np.testing.assert_allclose(llr[:, 0], 4.0 * y / nv, rtol=1e-12)


def _llrs_at(frame, c, noise_variance):
    """(2, M, m) LLRs of a symbol frame at a known noise variance: the
    per-polarization call that replaces a known-variance llr_demap."""
    return np.stack([cn.bitwise_llrs(c, y, noise_variance) for y in frame.symbols])


def test_llr_demap_noiseless_signs(square):
    frame, idx = dsp.random_symbols(square, 512, seed=19)
    bits = square.bit_matrix[idx]  # (2, M, 6)
    hard = (_llrs_at(frame, square, 1e-4) < 0).astype(np.uint8)
    assert np.array_equal(hard, bits)


_BUILTINS = cn.builtin_names()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_BUILTINS), data=st.data())
def test_llr_demap_is_bitwise_llrs_per_polarization(name, data):
    c = cn.load_builtin(name)
    m = data.draw(st.integers(1, 32))
    values = data.draw(st.lists(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=2 * m, max_size=2 * m,
    ))
    assume(any(values))  # an all-zero frame has no blind estimate
    frame = dsp.SymbolFrame(symbols=np.array(values).reshape(2, m))
    out = dsp.llr_demap(frame, c)
    for p in range(2):
        want = cn.bitwise_llrs(c, frame.symbols[p], out.noise_variance)
        assert np.array_equal(out.llrs[p], want)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(_BUILTINS),
    snr_db=st.floats(12.0, 60.0),
)
def test_noiseless_llr_sign_is_one_minus_twice_the_bit(name, snr_db):
    # the full-sum LLR at a shaped point can favor the other label below
    # ~10 dB (system12 does at 9.5 dB)
    c = cn.load_builtin(name)
    frame = dsp.SymbolFrame(symbols=np.stack([c.points, c.points[::-1]]))
    llrs = _llrs_at(frame, c, 10.0 ** (-snr_db / 10.0))
    bits = np.stack([c.bit_matrix, c.bit_matrix[::-1]]).astype(int)
    assert np.array_equal(np.sign(llrs), 1 - 2 * bits)


@pytest.mark.parametrize("name", ["square64", "system12"])
def test_auto_noise_variance_rejects_all_zero_frame(name):
    # the nearest-point fallback read 0.0476 on square64 and gave |LLR|
    # up to 12 for a frame that holds no signal
    c = cn.load_builtin(name)
    frame = dsp.SymbolFrame(symbols=np.zeros((2, 64), complex))
    with pytest.raises(DegenerateInputError, match="all-zero"):
        dsp.llr_demap(frame, c)


@pytest.mark.parametrize("frame_scale", [1.0, 0.0])
def test_evm_rejects_all_zero_reference(square, frame_scale):
    # an all-zero reference read +inf dB (-inf with an all-zero frame
    # too) after a divide-by-zero RuntimeWarning
    frame, _ = dsp.random_symbols(square, 16, seed=1)
    zero = frame.with_symbols(np.zeros_like(frame.symbols))
    with pytest.raises(DegenerateInputError, match="all-zero reference"):
        dsp.evm_db(frame.with_symbols(frame_scale * frame.symbols), zero)


def test_llr_demap_auto_noise_variance(system12):
    m = 100_000
    frame, _ = dsp.random_symbols(system12, m, seed=23)
    nv = 10.0 ** (-12.0 / 10.0)
    rng = np.random.default_rng(29)
    noise = (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))) * math.sqrt(
        nv / 2.0
    )
    rx = frame.with_symbols(frame.symbols + noise)
    out = dsp.llr_demap(rx, system12)
    assert 0.85 * nv < out.noise_variance < 1.15 * nv


def test_auto_noise_variance_without_markers_is_nearest_point_residual(square):
    # square64 has no markers: the estimate is the mean squared distance to
    # the nearest point, here written with complex distances
    frame, _ = dsp.random_symbols(square, 70_000, seed=31)
    rng = np.random.default_rng(37)
    noise = (rng.standard_normal((2, 70_000)) + 1j * rng.standard_normal((2, 70_000))) * 0.05
    y = (frame.symbols + noise).ravel()
    want = np.mean(np.min(np.abs(y[:, None] - square.points[None, :]) ** 2, axis=1))
    got = dsp.llr_demap(frame.with_symbols(frame.symbols + noise), square).noise_variance
    assert got == pytest.approx(want, rel=1e-12)


def test_receiver_kernels_hold_no_frame_sized_temporaries(square):
    # traced peaks: the blind llr_demap built (32768, 64) and (16384, 64)
    # float pairs (33.7 MB) and the RDE held (16384, 38) complex windows
    # and their conjugate (23.1 MB); in blocks they take 5.4 and 5.1 MB
    frame, _ = dsp.random_symbols(square, 16384, seed=3)
    rng = np.random.default_rng(4)
    noise = rng.standard_normal((2, 16384)) + 1j * rng.standard_normal((2, 16384))
    rx = frame.with_symbols(frame.symbols + 0.05 * noise)
    wf = dsp.matched_filter(dsp.rrc_shape(frame, 2, 0.01), 0.01)
    tracemalloc.start()
    try:
        dsp.llr_demap(rx, square)
        llr_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dsp.rde_equalize(wf, square, passes=1)
        rde_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert llr_peak < 6e6
    assert rde_peak < 8e6


def test_llr_demap_gmi_cross_validation(square):
    # LLR-based Monte Carlo GMI against the quadrature estimator
    m = 500_000
    snr_db = 11.0
    nv = 10.0 ** (-snr_db / 10.0)
    frame, idx = dsp.random_symbols(square, m, seed=31)
    rng = np.random.default_rng(37)
    noise = (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))) * math.sqrt(
        nv / 2.0
    )
    rx = frame.with_symbols(frame.symbols + noise)
    bits = square.bit_matrix[idx].reshape(-1, 6)
    gmi = cn.gmi_from_llrs(_llrs_at(rx, square, nv).reshape(-1, 6), bits)
    ref = cn.gmi_estimate(square, snr_db, estimator="gh")
    assert abs(gmi - ref) < 1e-2


def test_demapper_consistency_invariant(square):
    # hardened-LLR binary entropies upper-bound the GMI loss
    m = 200_000
    snr_db = 11.0
    nv = 10.0 ** (-snr_db / 10.0)
    frame, idx = dsp.random_symbols(square, m, seed=41)
    rng = np.random.default_rng(43)
    noise = (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))) * math.sqrt(
        nv / 2.0
    )
    rx = frame.with_symbols(frame.symbols + noise)
    bits = square.bit_matrix[idx].reshape(-1, 6)
    llrs = _llrs_at(rx, square, nv).reshape(-1, 6)
    gmi = cn.gmi_from_llrs(llrs, bits)
    hard = (llrs < 0).astype(np.uint8)
    pe = np.mean(hard != bits, axis=0)
    pe = np.clip(pe, 1e-12, 1 - 1e-12)
    h2 = -(pe * np.log2(pe) + (1 - pe) * np.log2(1 - pe))
    assert h2.sum() >= (6.0 - gmi) - 0.05


# ---------------------------------------------------------------------------
# quality metrics


def test_align_removes_a_different_gain_per_polarization(square):
    frame, _ = dsp.random_symbols(square, 1024, seed=41)
    gains = np.array([[0.3 - 1.2j], [2.5 + 0.4j]])
    # identity order, and the butterfly's swapped outputs
    for rows in ((0, 1), (1, 0)):
        out = dsp.align(frame.with_symbols(gains * frame.symbols[list(rows)]), frame)
        np.testing.assert_allclose(out.symbols, frame.symbols, rtol=0, atol=1e-12)
        assert out.symbol_rate == frame.symbol_rate


def test_align_rejects_unalignable_frames(square):
    frame, _ = dsp.random_symbols(square, 1024, seed=43)
    short = frame.with_symbols(frame.symbols[:, :512])
    with pytest.raises(AlignmentError, match="identical shapes"):
        dsp.align(short, frame)
    silent = np.array(frame.symbols)
    silent[1] = 0.0
    with pytest.raises(AlignmentError, match="all-zero"):
        dsp.align(frame.with_symbols(silent), frame)
    with pytest.raises(AlignmentError, match="all-zero"):
        dsp.align(frame, frame.with_symbols(silent))
    rolled = frame.with_symbols(np.roll(frame.symbols, 97, axis=1))
    # both outputs on one reference polarization: the butterfly's singular
    # solution fits neither order
    doubled = frame.with_symbols(frame.symbols[[0, 0]])
    # disjoint supports: every cross product is exactly 0
    early, late = np.array(frame.symbols), np.array(frame.symbols)
    early[:, 512:] = 0.0
    late[:, :512] = 0.0
    cases = [
        (rolled, frame, "below threshold 0.2"),
        (doubled, frame, "below threshold 0.2"),
        (frame.with_symbols(late), frame.with_symbols(early), "correlation 0.000 below threshold 0.2"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad, ref, message in cases:
            with pytest.raises(AlignmentError, match=message):
                dsp.align(bad, ref)


# The data-aided SNR of a received frame is experiments._symbol_metrics's
# first figure: -evm_db of the frame after align, capped at SNR_CAP_DB.


def test_snr_estimate_constructed(square):
    m = 100_000
    frame, idx = dsp.random_symbols(square, m, seed=47)
    rng = np.random.default_rng(53)
    noise = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    noise *= math.sqrt(
        np.mean(np.abs(frame.symbols) ** 2) * 0.1 / np.mean(np.abs(noise) ** 2)
    )
    noisy = frame.with_symbols(frame.symbols + noise)
    snr_db, _, _ = ex._symbol_metrics(noisy, frame, square, square.bit_matrix[idx])
    assert abs(snr_db - 10.0) < 0.1


def test_snr_estimate_cap_and_scale(square):
    frame, idx = dsp.random_symbols(square, 4096, seed=59)
    bits = square.bit_matrix[idx]
    assert ex._symbol_metrics(frame, frame, square, bits)[0] == linkbudget.SNR_CAP_DB == 60.0
    rng = np.random.default_rng(61)
    noise = (rng.standard_normal((2, 4096)) + 1j * rng.standard_normal((2, 4096))) * 0.1
    noisy = frame.with_symbols(frame.symbols + noise)
    a = -dsp.evm_db(dsp.align(noisy, frame), frame)
    doubled = frame.with_symbols(2.0 * frame.symbols)
    b = -dsp.evm_db(dsp.align(noisy.with_symbols(2.0 * noisy.symbols), doubled), doubled)
    assert abs(a - b) < 1e-9


def test_snr_estimate_misalignment(square):
    frame, idx = dsp.random_symbols(square, 4096, seed=67)
    rolled = frame.with_symbols(np.roll(frame.symbols, 97, axis=1))
    with pytest.raises(AlignmentError):
        ex._symbol_metrics(rolled, frame, square, square.bit_matrix[idx])


# ---------------------------------------------------------------------------
# chain transparency


def test_chain_transparent_at_30db(square):
    # shape -> identity channel -> matched filter -> decimate -> demap:
    # zero bit errors over 1e5 symbols at 30 dB.  Runs on the square grid:
    # the shaped designs intentionally allow near-coincident points, whose
    # label confusions are a constellation property, not a chain defect.
    m = 100_000
    frame, idx = dsp.random_symbols(square, m, seed=71)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    wf = ch.add_transmitter_noise(wf, 30.0, seed=73)
    rx = dsp.decimate(dsp.matched_filter(wf, 0.01))
    hard = (_llrs_at(rx, square, 1e-3) < 0).astype(np.uint8)
    bits = square.bit_matrix[idx]
    assert np.array_equal(hard, bits)


# ---------------------------------------------------------------------------
# the blind receiver (act one of demos/dsp_pipeline.py)


def _blind_rx(square, s, rotation_rad):
    """BER and frequency estimate of the blind chain on input s: 16384
    square-grid symbols (seed 1000 + s) at 2 samples/symbol, a Jones
    rotation, a 200 MHz offset and 26 dB noise (seed 2000 + s), then
    dsp.blind_receive."""
    tx, idx = dsp.random_symbols(square, 16384, seed=1000 + s)
    wf = dsp.rrc_shape(tx, 2, 0.01)
    wf = ch.apply_jones_rotation(wf, rotation_rad)
    wf = ch.apply_frequency_shift(wf, 200e6)
    wf = ch.add_transmitter_noise(wf, 26.0, seed=2000 + s)
    _, llrs, offset_hz = dsp.blind_receive(wf, square, tx)
    bits = square.bit_matrix[idx][:, : llrs.llrs.shape[1]]
    return float(np.mean((llrs.llrs < 0) != bits)), offset_hz


_LOW_GAIN_RING = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: RDE picks rings on the un-normalized output, "
    "so one polarization locks onto the next ring in",
)


@pytest.mark.parametrize(
    "s, rotation_rad",
    [
        pytest.param(0, 0.1, id="input0"),  # BER 7.6e-5
        # a pure swap, which the equalizer passes through: BER 9.2e-5
        pytest.param(0, math.pi / 2, id="input0-swapped"),
        pytest.param(2, 0.1, id="input2", marks=_LOW_GAIN_RING),  # BER 3.881e-2
        pytest.param(27, 0.1, id="input27", marks=_LOW_GAIN_RING),  # BER 3.770e-2
        pytest.param(32, 0.1, id="input32", marks=_LOW_GAIN_RING),  # BER 2.856e-2
    ],
)
def test_blind_receiver_bit_error_rate(square, s, rotation_rad):
    ber, offset_hz = _blind_rx(square, s, rotation_rad)
    assert abs(offset_hz - 200e6) <= 0.1e6
    assert ber <= 1e-3
