"""End-to-end acceptance suite: one test per shipped capability claim.

Each test is self-contained and states its tolerance inline; run with
``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion.  The slow shared piece (a full shaping run) is computed once
per module.
"""

import itertools
import math

import numpy as np
import pytest

from shapelink import channel as ch
from shapelink import constellation as cst
from shapelink import dsp, fec, linkbudget, shaping
from shapelink import experiments as ex


def _mc_gap(c, snr_db, seed=0):
    return cst.gap_to_capacity(
        c, snr_db, estimator="mc", samples=1_000_000, seed=seed
    )


@pytest.fixture(scope="module")
def shaped11():
    """Full GMI-shaping run from square 64QAM at the 11 dB design point."""
    cfg = shaping.ShapingConfig(target_snr_db=11.0)
    return shaping.optimize(cst.load_builtin("square64"), cfg)


# ---------------------------------------------------------------------------
# 1. capacity-gap reproduction: square grid vs fully shaped design


def test_criterion_01_gap_reproduction_square_and_shaped(shaped11):
    square = cst.load_builtin("square64")
    gap_square = _mc_gap(square, 11.0)
    gap_shaped = _mc_gap(shaped11.constellation, 11.0, seed=1)
    assert abs(gap_square - 0.577) <= 0.03, f"square gap {gap_square:.4f}"
    assert gap_shaped <= 0.36, f"shaped gap {gap_shaped:.4f}"
    assert gap_square - gap_shaped >= 0.2, (
        f"improvement {gap_square - gap_shaped:.4f}"
    )


# ---------------------------------------------------------------------------
# 2. shaping monotonicity and idempotence


def test_criterion_02_shaping_monotone_and_idempotent(shaped11):
    square = cst.load_builtin("square64")
    cfg = shaping.ShapingConfig(target_snr_db=11.0, max_iterations=50)
    short = shaping.optimize(square, cfg)
    # exact: the accepted-step history never decreases, and the result is
    # never below the starting GMI
    assert np.all(np.diff(short.history) >= 0)
    assert cst.gmi_estimate(short.constellation, 11.0) >= cst.gmi_estimate(square, 11.0)
    # converged output is a fixed point to < 1e-3 bit/4D
    again = shaping.optimize(
        shaped11.constellation, shaping.ShapingConfig(target_snr_db=11.0)
    )
    g_first = cst.gmi_estimate(shaped11.constellation, 11.0)
    g_again = cst.gmi_estimate(again.constellation, 11.0)
    assert 2.0 * (g_again - g_first) < 1e-3, f"re-run gained {2 * (g_again - g_first):.2e}"


# ---------------------------------------------------------------------------
# 3. per-dimension PAPR: enumeration oracle and optimizer direction


def test_criterion_03_papr_oracle_and_reduction():
    square = cst.load_builtin("square64")
    papr_i, papr_q = cst.papr(square)
    # enumeration: per-dim levels {1,3,5,7}^2 -> peak 49, mean 21
    assert papr_i == pytest.approx(49.0 / 21.0, rel=1e-12)
    assert papr_q == pytest.approx(49.0 / 21.0, rel=1e-12)
    res = shaping.optimize(square, shaping.ShapingConfig(papr_penalty_weight=0.5))
    low_i, low_q = cst.papr(res.constellation)
    assert low_i < 49.0 / 21.0
    assert low_q < 49.0 / 21.0


# ---------------------------------------------------------------------------
# 4. split-step solver correctness


def _gaussian_pulse_frame(n=4096, rate=70e9, peak_w=1e-3):
    t = (np.arange(n) - n / 2) / rate
    env = math.sqrt(peak_w) * np.exp(-((t / 50e-12) ** 2))
    return ch.WaveformFrame(samples=np.vstack([env, 0.7 * env]).astype(complex), sample_rate=rate)


def test_criterion_04_ssfm_dispersion_cw_and_convergence():
    # dispersion-only vs the analytic quadratic spectral phase
    f = _gaussian_pulse_frame()
    seg = ch.FiberSegment(80e3, 0.0, 17.0, 80.0, nonlinear_index_n2=0.0)
    out = ch.ssfm_propagate(f, [seg], max_step_m=1e3)
    lam = seg.reference_wavelength_nm * 1e-9
    c0 = 299792458.0
    beta2 = -(seg.dispersion_ps_nm_km * 1e-6) * lam**2 / (2 * math.pi * c0)
    freqs = np.fft.fftfreq(f.n_samples, 1 / f.sample_rate)
    op = np.exp(2j * math.pi**2 * beta2 * seg.length_m * freqs**2)
    ref = np.fft.ifft(np.fft.fft(f.samples, axis=1) * op, axis=1)
    assert np.linalg.norm(out.samples - ref) / np.linalg.norm(ref) < 1e-10

    # CW nonlinear phase (8/9 dual-polarization factor), lossless
    p_total = 3e-3
    s = np.vstack([np.full(1024, math.sqrt(p_total)), np.zeros(1024)]).astype(complex)
    cw = ch.WaveformFrame(samples=s, sample_rate=70e9)
    seg_nl = ch.FiberSegment(70e3, 0.0, 0.0, 149.0)
    out_nl = ch.ssfm_propagate(cw, [seg_nl], max_step_m=700.0)
    phi = (8.0 / 9.0) * seg_nl.gamma_per_w_m * p_total * seg_nl.length_m
    np.testing.assert_allclose(
        out_nl.samples, cw.samples * np.exp(1j * phi), rtol=0, atol=1e-8 * math.sqrt(p_total)
    )

    # global error halves by ~4x when the step halves (2nd order)
    g = _gaussian_pulse_frame(peak_w=20e-3)
    seg_full = ch.FiberSegment(50e3, 0.2, 17.0, 80.0)
    ref_fine = ch.ssfm_propagate(g, [seg_full], max_step_m=50.0)
    errs = [
        np.linalg.norm(ch.ssfm_propagate(g, [seg_full], max_step_m=h).samples - ref_fine.samples)
        for h in (2500.0, 1250.0, 625.0)
    ]
    assert math.log2(errs[0] / errs[1]) > 1.8
    assert math.log2(errs[1] / errs[2]) > 1.8


# ---------------------------------------------------------------------------
# 5. digital back-propagation inversion


def test_criterion_05_dbp_inverts_and_beats_cdc():
    c = cst.load_builtin("system12")
    spans = [ch.hybrid_span()] * 9

    # (a) noiseless link, fine-step DBP: forward ran 500 m steps (80 + 60
    # per hybrid span), 140 steps/span reproduces them exactly
    ref, _ = dsp.random_symbols(c, 2048, seed=5)
    wf = ch.with_power(dsp.rrc_shape(ref, 2, 0.01), 0.0)
    rx = ch.propagate_link(wf, spans, seed=None, max_step_m=500.0)
    inverted = dsp.dbp(rx, spans, steps_per_span=140)
    assert dsp.evm_db(inverted, wf) < -40.0

    # (b) noisy link at the optimal launch power: coarse 4-step DBP never
    # loses to CD compensation alone, checked across 10 seeds
    for seed in range(10):
        sym_ref, idx = dsp.random_symbols(c, 4096, seed=seed)
        bits = c.bit_matrix[idx].reshape(-1, 6)
        launch = ch.with_power(dsp.rrc_shape(sym_ref, 4, 0.01), -0.5)
        noisy = ch.propagate_link(launch, spans, seed=seed + 1000)
        gmi = {}
        for name, comp in (
            ("cdc", dsp.cd_compensate(noisy, spans)),
            ("dbp", dsp.dbp(noisy, spans, steps_per_span=4)),
        ):
            aligned = dsp.align(dsp.decimate(dsp.matched_filter(comp, 0.01)), sym_ref)
            llrs = dsp.llr_demap(aligned, c).llrs.reshape(-1, 6)
            gmi[name] = cst.gmi_from_llrs(llrs, bits)
        assert gmi["dbp"] >= gmi["cdc"], (
            f"seed {seed}: dbp {gmi['dbp']:.4f} < cdc {gmi['cdc']:.4f}"
        )


# ---------------------------------------------------------------------------
# 6. analytical link budget anchors


def test_criterion_06_link_budget_consistency():
    ase = linkbudget.ase_snr(90, 10.72, 1.4, -2.9, 35e9, 193.4e12)
    assert 18.7 <= ase <= 19.1, f"ase {ase:.4f}"
    total = linkbudget.combine_snr([ase, 20.0])
    assert 16.3 <= total <= 16.5, f"combined {total:.4f}"
    # budget without nonlinearity upper-bounds any measured link SNR
    assert total > 11.09


# ---------------------------------------------------------------------------
# 7. measured fiber SNR vs analytical budget


def _fiber_cfg(tmp, power_dbm, **kw):
    base = dict(
        mode="fiber_e2e",
        output_dir=str(tmp),
        source="square64",
        span_count=9,
        launch_power_dbm=power_dbm,
        symbols=8192,
        oversampling=4,
    )
    base.update(kw)
    return ex.ExperimentConfig(**base)


def _budget_prediction(power_dbm, transceiver_db=None):
    span = ch.hybrid_span()
    parts = [
        linkbudget.ase_snr(9, span.loss_db, 1.4, power_dbm, 35e9, 193.4e12),
        linkbudget.gn_nli_estimate(span, power_dbm, span_count=9),
    ]
    if transceiver_db is not None:
        parts.append(transceiver_db)
    return linkbudget.combine_snr(parts)


def test_criterion_07_ssfm_matches_budget_at_three_powers(tmp_path):
    for power in (-3.0, 0.0, 3.0):
        rep = ex.run_experiment(_fiber_cfg(tmp_path / f"p{power}", power))
        measured = rep.rows[0][0]  # linear-compensation receiver SNR
        predicted = _budget_prediction(power, transceiver_db=20.0)
        assert abs(measured - predicted) <= 1.0, (
            f"{power:+.0f} dBm: measured {measured:.2f}, predicted {predicted:.2f}"
        )


def test_crosscheck_gn_predicted_optimum_on_common_grid(tmp_path):
    # optimal launch power: analytic prediction vs split-step measurement,
    # both taken as the argmax over the same 1 dB grid, agreeing to 1.5 dB
    grid = np.arange(-5.0, 2.5, 1.0)
    measured = []
    for power in grid:
        cfg = _fiber_cfg(
            tmp_path / f"g{power}", float(power), transmitter_snr_db=float("inf")
        )
        measured.append(ex.run_experiment(cfg).rows[0][0])
    predicted = [_budget_prediction(float(p)) for p in grid]
    best_measured = float(grid[int(np.argmax(measured))])
    best_predicted = float(grid[int(np.argmax(predicted))])
    assert abs(best_measured - best_predicted) <= 1.5, (
        f"measured optimum {best_measured:+.1f} dBm, "
        f"predicted {best_predicted:+.1f} dBm"
    )


# ---------------------------------------------------------------------------
# 8. throughput arithmetic


def test_criterion_08_net_throughput_anchor_and_band_total():
    per, total = fec.net_throughput([6.93], 35e9, bch_overhead=0.0)
    assert per[0] == pytest.approx(242.55, abs=1e-9)
    assert abs(per[0] - 242.6) <= 0.1
    per306, total306 = fec.net_throughput([6.93] * 306, 35e9, bch_overhead=0.0)
    assert total306 == pytest.approx(74.2203, rel=1e-9)
    # the per-channel figure rounded to one decimal and re-multiplied gives
    # 74.24 Tb/s, not the flat-grid 74.22; see README for the rounding note
    assert round(per[0], 1) * 306 / 1000 == pytest.approx(74.2356, abs=1e-9)


# ---------------------------------------------------------------------------
# 9. FEC behavior


def test_criterion_09_fec_decoding_and_gate():
    # (a) >= 10x BER reduction vs hard decision, 1e6 bits at Eb/N0 = 3 dB
    h = fec.make_regular_ldpc(1000, row_weight=6, col_weight=3, seed=0)
    n_words = 1000
    rng = np.random.default_rng(42)
    sigma2 = 1.0 / (10.0 ** 0.3)  # rate 1/2, Eb/N0 3 dB
    noise = rng.normal(scale=math.sqrt(sigma2), size=(n_words, h.cols))
    llrs = 2.0 * (1.0 + noise) / sigma2  # all-zero codeword, BPSK +1
    hard_ber = float(np.mean(llrs < 0))
    res = fec.ldpc_decode(llrs, h)
    post_ber = float(np.mean(res.bits))
    assert hard_ber > 0.05
    assert post_ber <= hard_ber / 10.0, f"hard {hard_ber:.5f}, post {post_ber:.5f}"

    # (b) ML agreement on every single-error pattern of the (7,4) code
    h74 = fec.hamming74()
    enc = fec.systematic_encoder(h74)
    words = enc.encode(np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8))
    signs = 1.0 - 2.0 * words.astype(float)
    for word in words:
        for pos in range(7):
            llr = 6.0 * (1.0 - 2.0 * word.astype(float))
            llr[pos] = -llr[pos]
            ml = words[int(np.argmax(signs @ llr))]
            decoded = fec.ldpc_decode(llr[None], h74)
            assert np.array_equal(decoded.bits[0], ml)
            assert np.array_equal(decoded.bits[0], word)

    # (c) gate threshold is strict at exactly 3e-4
    assert fec.post_fec_gate(2.9999e-4, 3e-4)
    assert not fec.post_fec_gate(3e-4, 3e-4)
    assert not fec.post_fec_gate(3.0001e-4, 3e-4)


# ---------------------------------------------------------------------------
# 10. DSP chain transparency and carrier phase tracking


def test_criterion_10_chain_transparency_and_cpe_tracking():
    square = cst.load_builtin("square64")
    m = 100_000
    frame, idx = dsp.random_symbols(square, m, seed=71)
    wf = dsp.rrc_shape(frame, 2, 0.01)
    wf = ch.add_transmitter_noise(wf, 30.0, seed=73)
    rx = dsp.decimate(dsp.matched_filter(wf, 0.01))
    hard = (dsp.llr_demap(rx, square, noise_variance=1e-3).llrs < 0).astype(np.uint8)
    n_errors = int(np.sum(hard != square.bit_matrix[idx]))
    assert n_errors == 0, f"{n_errors} bit errors through the identity channel"

    system = cst.load_builtin("system12")
    sym, _ = dsp.random_symbols(system, m, seed=11)
    track = ch.wiener_phase_walk(m, linewidth_hz=200e3, rate_hz=35e9, seed=3)
    rng = np.random.default_rng(13)
    nv = 10.0 ** (-12.0 / 10.0)
    noise = (rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))) * math.sqrt(nv / 2.0)
    noisy = sym.with_symbols(sym.symbols * np.exp(1j * track)[None, :] + noise)
    res = dsp.vv_cpe(noisy, system)
    resid = res.phase_track - track
    # quarter-turn reference fixed at frame start; afterwards the residual
    # must never cross a pi/4 boundary (cycle-slip-free)
    branch = np.pi / 2.0 * round(float(np.mean(resid[:64])) / (np.pi / 2.0))
    assert np.abs(resid - branch).max() < np.pi / 4.0
