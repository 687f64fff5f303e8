"""Constellation container, GMI estimators, PAPR, markers, file format."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from point_sets import natural_constellation

from shapelink import constellation as cn
from shapelink.constellation import (
    Constellation,
    add_ring_markers,
    bitwise_llrs,
    builtin_names,
    gap_to_capacity,
    gmi_estimate,
    gmi_from_llrs,
    load_builtin,
    load_constellation,
    normalized,
    papr,
    save_constellation,
    square64,
)
from shapelink.constellation import _auto_noise_variance
from shapelink.errors import DegenerateInputError


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------


def test_square64_is_valid_and_unit_power():
    c = square64()
    assert len(c.points) == 64
    assert len(set(c.labels)) == 64
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    # levels are +/-{1,3,5,7}/sqrt(42) on each axis
    levels = np.unique(np.round(c.points.real * math.sqrt(42)))
    assert list(levels) == [-7, -5, -3, -1, 1, 3, 5, 7]


def test_square64_gray_labels_adjacent_levels_differ_in_one_bit():
    c = square64()
    # group by quadrature level, walk the in-phase axis
    pts = np.asarray(c.points)
    bits = c.bit_matrix
    for q in np.unique(np.round(pts.imag * math.sqrt(42))):
        sel = np.round(pts.imag * math.sqrt(42)) == q
        order = np.argsort(pts.real[sel])
        rows = bits[sel][order]
        flips = (rows[1:] != rows[:-1]).sum(axis=1)
        assert (flips == 1).all()


def test_bit_matrix_is_built_once_and_read_only():
    c = load_builtin("system12")
    bits = c.bit_matrix
    assert bits is c.bit_matrix
    assert bits.dtype == np.uint8 and not bits.flags.writeable
    assert ["".join(map(str, row)) for row in bits] == list(c.labels)
    with pytest.raises(ValueError):
        bits[0, 0] = 1
    # a replaced labeling gets its own matrix
    swapped = dataclasses.replace(c, labels=c.labels[1:] + c.labels[:1])
    assert np.array_equal(swapped.bit_matrix, np.roll(bits, -1, axis=0))


def test_wrong_point_count_rejected():
    c = square64()
    with pytest.raises(ValueError, match="2\\^m points"):
        Constellation(points=c.points[:63], labels=c.labels[:63])


def _unit_circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 128])
def test_any_power_of_two_point_count_constructs(n):
    c = natural_constellation(_unit_circle(n))
    assert c.bit_matrix.shape == (n, n.bit_length() - 1)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_point_count_not_a_power_of_two_above_one_rejected(n):
    labels = tuple(format(i, "06b") for i in range(n))
    with pytest.raises(ValueError, match="2\\^m points"):
        Constellation(points=np.ones(n, complex), labels=labels)


@pytest.mark.parametrize("width", [1, 3])
def test_labels_of_the_wrong_width_rejected(width):
    # four points carry 2-bit labels
    labels = ("0", "1", "00", "11") if width == 1 else ("000", "001", "010", "011")
    with pytest.raises(ValueError, match="bad 2-bit label"):
        Constellation(points=_unit_circle(4), labels=labels)


def test_duplicate_labels_rejected():
    c = square64()
    labels = list(c.labels)
    labels[1] = labels[0]
    with pytest.raises(ValueError):
        Constellation(points=c.points, labels=tuple(labels))


def test_non_unit_power_rejected():
    c = square64()
    with pytest.raises(ValueError):
        Constellation(points=c.points * 1.01, labels=c.labels)


def test_marker_radius_must_dominate():
    c = square64()
    # index 0 is an inner point, cannot be a marker on its own ring
    with pytest.raises(ValueError):
        Constellation(points=c.points, labels=c.labels, marker_indices=frozenset({0}))


# ---------------------------------------------------------------------------
# GMI
# ---------------------------------------------------------------------------


def test_square64_gap_at_11db_gauss_hermite():
    # frozen oracle: Gauss-Hermite order 10, BICM GMI of Gray square 64QAM
    gap = gap_to_capacity(square64(), 11.0)
    assert gap == pytest.approx(0.57722, abs=2e-4)


def test_monte_carlo_matches_gauss_hermite():
    c = square64()
    gh = gmi_estimate(c, 11.0)
    mc = gmi_estimate(c, 11.0, estimator="mc", samples=200_000, seed=3)
    assert mc == pytest.approx(gh, abs=5e-3)


def test_monte_carlo_gmi_is_pinned():
    # 300001 samples cross both the RNG chunk (2**17) and the distance
    # block (_ROW_BLOCK).  Pinned from the kernel on |y - c|^2 itself: the
    # seeded draw order is the same, so only rounding may differ
    for name, want in (("square64", 3.471981638130892), ("system12", 3.5921661822776603)):
        got = gmi_estimate(load_builtin(name), 11.0, estimator="mc", samples=300_001, seed=5)
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("samples", [-5, 0, math.nan])
def test_monte_carlo_rejects_too_few_samples(samples):
    # -5 gave a perfect 6.0 and 0 a ZeroDivisionError
    with pytest.raises(ValueError, match="samples"):
        gmi_estimate(square64(), 10.0, estimator="mc", samples=samples)


@pytest.mark.parametrize("name", ["gauss_hermite", "monte_carlo"])
def test_gmi_estimate_takes_only_the_ini_estimator_names(name):
    with pytest.raises(ValueError, match="unknown estimator"):
        gmi_estimate(square64(), 10.0, estimator=name)


def test_gmi_monotone_in_snr():
    c = square64()
    vals = [gmi_estimate(c, s) for s in (0.0, 6.0, 12.0, 18.0, 24.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 6.0  # never exceeds the bit count


@pytest.mark.parametrize("estimator", ["gh", "mc"])
def test_gmi_beyond_the_snr_limit_fails_loudly(estimator):
    # the noise variance or its reciprocal would pass 1e300; at -3080 and
    # +3100 dB the metrics overflow to NaN.  The same bound rejects NaN and inf
    c = load_builtin("system12")
    for snr_db in (-3080.0, -3000.5, 3000.5, 3100.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DegenerateInputError, match=f"SNR of {snr_db!r} dB"):
            gmi_estimate(c, snr_db, estimator=estimator, samples=1000)
    low, high = (gmi_estimate(c, s, estimator=estimator, samples=1000) for s in (-3000.0, 3000.0))
    assert 0.0 <= low < 1e-9 and high == pytest.approx(6.0)


def test_gap_is_definitional():
    c = square64()
    snr = 9.0
    cap = math.log2(1.0 + 10 ** (snr / 10))
    assert gap_to_capacity(c, snr) == pytest.approx(2 * (cap - gmi_estimate(c, snr)), abs=1e-12)


def test_two_point_llr_matches_binary_formula():
    # antipodal 2-point set: LLR for the single bit is 4 Re(y) / nu
    c = natural_constellation([1.0 + 0j, -1.0 + 0j])
    y = np.array([0.3 + 0.1j, -1.2 + 0.4j, 0.05 - 0.9j])
    nu = 0.5
    llrs = bitwise_llrs(c, y, nu)
    assert llrs.shape == (3, 1)
    np.testing.assert_allclose(llrs[:, 0], 4 * y.real / nu, rtol=1e-12)


def test_llr_sign_convention_and_gmi_consistency():
    # positive LLR must mean bit 0; GMI reconstructed from LLRs agrees with
    # the direct estimator on the same constellation
    c = square64()
    rng = np.random.default_rng(11)
    snr_db = 11.0
    nu = 10 ** (-snr_db / 10)
    n = 200_000
    idx = rng.integers(0, 64, n)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(nu / 2)
    y = c.points[idx] + noise
    llrs = bitwise_llrs(c, y, nu)
    tx_bits = c.bit_matrix[idx]
    # hard decisions from LLR signs recover most bits (pre-FEC BER at this
    # operating point is on the order of 0.13)
    hard = (llrs < 0).astype(np.uint8)
    assert (hard == tx_bits).mean() > 0.82
    g = gmi_from_llrs(llrs, tx_bits)
    assert g == pytest.approx(gmi_estimate(c, snr_db), abs=5e-3)


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan, math.inf])
def test_llrs_reject_bad_noise_variance(nu):
    # NaN gave all-NaN LLRs and inf all-zero ones
    with pytest.raises(ValueError, match="noise_variance"):
        bitwise_llrs(square64(), np.array([0.1 + 0.2j]), nu)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
def test_llrs_reject_non_finite_symbols(bad):
    # a NaN or inf symbol gave all-NaN LLRs with a RuntimeWarning
    with pytest.raises(ValueError, match="symbols must be finite"):
        bitwise_llrs(square64(), np.array([0.1 + 0.2j, bad]), 0.1)


def test_gmi_from_llrs_rejects_zero_rows():
    # the mean over no rows was nan, with two RuntimeWarnings
    with pytest.raises(ValueError, match="zero LLR rows"):
        gmi_from_llrs(np.empty((0, 6)), np.empty((0, 6), dtype=np.uint8))


def _reference_llrs(c, y, nu):
    # the plain formula, one bit at a time: complex distances and, per
    # coset of the points whose label bit k is 0 (and those where it is
    # 1), the log-sum-exp of the metrics taken from the coset's own
    # nearest point
    d2 = np.abs(y[:, None] - c.points[None, :]) ** 2
    out = np.empty((y.size, 6))
    for k in range(6):
        zero = np.flatnonzero(c.bit_matrix[:, k] == 0)
        one = np.flatnonzero(c.bit_matrix[:, k] == 1)
        out[:, k] = _log_coset_sum(d2[:, zero], nu) - _log_coset_sum(d2[:, one], nu)
    return out


def _log_coset_sum(d2, nu):
    # log sum_j exp(-d2_j / nu), from the coset's own minimum
    dmin = d2.min(axis=1)
    return np.log(np.exp(-(d2 - dmin[:, None]) / nu).sum(axis=1)) - dmin / nu


@pytest.mark.parametrize("name", builtin_names())
def test_llr_kernel_matches_reference_formula(name):
    c = load_builtin(name)
    rng = np.random.default_rng(21)
    for snr_db in (0.0, 11.0, 20.0, 30.0):
        nu = 10 ** (-snr_db / 10)
        idx = rng.integers(0, 64, 3000)
        noise = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        y = c.points[idx] + noise * math.sqrt(nu / 2)
        want = _reference_llrs(c, y, nu)
        got = bitwise_llrs(c, y, nu)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_full_sum_llrs_do_not_clip_far_from_a_coset():
    # at noise variance 1e-3 the corner's far cosets lie ~1524 noise
    # variances beyond its own point; shifted by the row's nearest point
    # their sums underflow, and a floored sum read 690.78 for bit 0
    c = square64()
    nu = 1e-3
    corner = c.points[np.argmax(np.abs(c.points))]
    got = bitwise_llrs(c, np.array([corner]), nu)
    want = _reference_llrs(c, np.array([corner]), nu)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert abs(got[0, 0]) == pytest.approx(1523.8095238, rel=1e-9)


def test_recomputed_coset_sums_leave_other_rows_bit_identical():
    # only the rows with an underflowed coset sum are recomputed; a
    # block's other rows keep the one-product arithmetic bit for bit
    c = square64()
    nu = 1e-3
    rng = np.random.default_rng(8)
    # inner points (levels +-1, +-3): every coset lies within 381 noise
    # variances of the nearest point, so no sum of these rows underflows
    inner = np.flatnonzero(np.maximum(abs(c.points.real), abs(c.points.imag)) < 0.5)
    noise = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    y = c.points[rng.choice(inner, 500)] + noise * math.sqrt(nu / 2)
    corner = c.points[np.argmax(np.abs(c.points))]
    alone = bitwise_llrs(c, y, nu)
    mixed = bitwise_llrs(c, np.concatenate([y, [corner]]), nu)
    assert np.array_equal(mixed[:-1], alone)
    assert abs(mixed[-1, 0]) > 691.0


@pytest.mark.parametrize("n", [1, 16383, 16384, 16385, 40000])
def test_receiver_kernels_match_written_out_distances(n):
    # the blocked kernels work on |y - c|^2 - |y|^2, _ROW_BLOCK rows at
    # a time; LLRs and the nearest-point noise estimate must match the
    # formulas on |y - c|^2 itself on both sides of a block edge
    # (markers dropped, so the noise estimate takes its nearest-point path)
    rng = np.random.default_rng(n)
    c = dataclasses.replace(load_builtin("system12"), marker_indices=frozenset())
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        nu = 10 ** (-snr_db / 10)
        idx = rng.integers(0, 64, n)
        y = c.points[idx] + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(nu / 2)
        want = _reference_llrs(c, y, nu)
        np.testing.assert_allclose(bitwise_llrs(c, y, nu), want, rtol=1e-9, atol=1e-9)
        nearest = np.mean(np.min(np.abs(y[:, None] - c.points[None, :]) ** 2, axis=1))
        assert _auto_noise_variance(y, c) == pytest.approx(max(nearest, 1e-12), rel=1e-9)


@pytest.mark.parametrize("snr_db", [5.0, 20.0, 30.0])
def test_demapper_output_does_not_depend_on_the_block_size(monkeypatch, snr_db):
    # blocks cut the demapper's working set, not its arithmetic: the 4096
    # rows in use give the bits of 16384-row blocks, and the blind noise
    # estimate sums one array of nearest distances whatever the blocks.
    # One-column and odd-width blocks agree to rounding only: BLAS takes
    # a single column (gemv) and an odd block's last column through
    # other kernels, which round the products differently
    rng = np.random.default_rng(int(snr_db))
    c = square64()
    n = 40001
    nu = 10 ** (-snr_db / 10)
    y = c.points[rng.integers(0, 64, n)] + (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(nu / 2)
    relogs = []
    relog = cn._relog_low_sums
    monkeypatch.setattr(cn, "_relog_low_sums", lambda *a: relogs.append(1) or relog(*a))

    def demap(rows):
        monkeypatch.setattr(cn, "_ROW_BLOCK", rows)
        return bitwise_llrs(c, y, nu), _auto_noise_variance(y, c)

    want, want_nv = demap(16384)
    got, got_nv = demap(4096)
    assert np.array_equal(got, want) and got_nv == want_nv
    for rows in (7, 1):
        got, got_nv = demap(rows)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert got_nv == pytest.approx(want_nv, rel=1e-15, abs=0)
    # at 30 dB far coset sums underflow and are recomputed in log form
    assert relogs or snr_db < 30.0


# ---------------------------------------------------------------------------
# PAPR
# ---------------------------------------------------------------------------


def test_square64_papr_exact():
    pi, pq = papr(square64())
    assert pi == pytest.approx(49.0 / 21.0, rel=1e-12)
    assert pq == pytest.approx(49.0 / 21.0, rel=1e-12)


def test_four_point_constant_magnitude_papr_is_one():
    c = natural_constellation([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    pi, pq = papr(c)
    assert pi == pytest.approx(1.0, rel=1e-12)
    assert pq == pytest.approx(1.0, rel=1e-12)


def test_outlier_increases_papr():
    base = square64()
    fat = np.array(base.points)
    outer = np.argmax(np.abs(fat))
    fat[outer] *= 2.0
    fat = natural_constellation(fat)
    assert papr(fat)[0] > papr(base)[0]
    assert papr(fat)[1] > papr(base)[1]


def test_degenerate_dimension_rejected():
    with pytest.raises(DegenerateInputError):
        papr(natural_constellation([1.0, -1.0, 2.0, -2.0]))  # zero quadrature everywhere


# ---------------------------------------------------------------------------
# ring markers
# ---------------------------------------------------------------------------


def test_ring_markers_on_square_are_corners():
    c = add_ring_markers(square64(), ring_gain=1.2)
    corners = {i for i, p in enumerate(square64().points) if abs(abs(p.real) * math.sqrt(42) - 7) < 1e-9 and abs(abs(p.imag) * math.sqrt(42) - 7) < 1e-9}
    assert c.marker_indices == frozenset(corners)
    mk = sorted(c.marker_indices)
    radii = np.abs(c.points)
    others = np.delete(radii, mk)
    assert radii[mk].min() > others.max()
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_ring_gain_close_to_one_is_identity_within_tolerance():
    c = square64()
    out = add_ring_markers(c, ring_gain=1 + 1e-9)
    # the four outermost points already share the max radius, so the move
    # is O(1e-9) and renormalization O(1e-10)
    np.testing.assert_allclose(out.points, c.points, atol=1e-6)


def test_ring_markers_tie_break_is_deterministic():
    c = square64()
    a = add_ring_markers(c, 1.2)
    b = add_ring_markers(c, 1.2)
    assert a.marker_indices == b.marker_indices
    np.testing.assert_array_equal(a.points, b.points)


@pytest.mark.parametrize("gain", [5.050525516683189e153, 1e200, np.finfo(float).max])
def test_ring_markers_accept_any_finite_gain(gain):
    # ring radii whose squares overflow must still give a unit-power set
    c = add_ring_markers(square64(), gain)
    mk = sorted(c.marker_indices)
    radii = np.abs(c.points)
    assert radii[mk].min() > np.delete(radii, mk).max()
    assert np.mean(radii**2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gain", [0.9, 1.0, math.inf, math.nan])
def test_ring_markers_reject_gain_not_finite_above_one(gain):
    with pytest.raises(ValueError, match="ring_gain"):
        add_ring_markers(square64(), gain)


@pytest.mark.parametrize("n", [2, 4])
def test_ring_markers_need_more_than_four_points(n):
    # with no point left inside the ring, the ring radius has no reference
    with pytest.raises(ValueError, match=f"more than 4 points, got {n}"):
        add_ring_markers(natural_constellation(_unit_circle(n)))


def test_non_marker_points_only_rescaled():
    c = square64()
    out = add_ring_markers(c, 1.3)
    mk = sorted(out.marker_indices)
    keep = np.delete(np.arange(64), mk)
    ratio = out.points[keep] / c.points[keep]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# file format and builtins
# ---------------------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    c = add_ring_markers(square64(), 1.2)
    path = tmp_path / "c.txt"
    save_constellation(c, path)
    back = load_constellation(path)
    np.testing.assert_array_equal(back.points, c.points)
    assert back.labels == c.labels
    assert back.marker_indices == c.marker_indices
    assert back.design_snr_db == c.design_snr_db


def test_sixteen_point_file_round_trips_with_its_point_count(tmp_path):
    c = dataclasses.replace(natural_constellation(_unit_circle(16)), design_snr_db=8.0)
    path = tmp_path / "c16.txt"
    save_constellation(c, path)
    assert path.read_text().splitlines()[0] == (
        "# shapelink constellation, 16 points, unit average power"
    )
    back = load_constellation(path)
    assert back.points.tobytes() == c.points.tobytes()
    assert back.labels == c.labels
    assert back.design_snr_db == 8.0


def test_design_snr_from_a_numpy_float_loads_back(tmp_path):
    # a design SNR taken from a loop over np.arange is a numpy scalar; the
    # file must still carry a plain number
    from shapelink.shaping import ShapingConfig, optimize

    cfg = ShapingConfig(target_snr_db=np.float64(11.0), max_iterations=2)
    shaped = optimize(square64(), cfg).constellation
    assert type(shaped.design_snr_db) is float
    save_constellation(shaped, tmp_path / "c.txt")
    assert load_constellation(tmp_path / "c.txt").design_snr_db == 11.0


@pytest.mark.parametrize("design", [math.nan, math.inf, -math.inf])
def test_design_snr_must_be_finite(design):
    with pytest.raises(ValueError, match="design_snr_db must be finite"):
        dataclasses.replace(square64(), design_snr_db=design)


def _square64_with_signed_zero() -> Constellation:
    # one point turned onto the positive imaginary axis at its own radius
    # (so the power is unchanged), with real part -0.0
    base = square64()
    pts = np.array(base.points)
    pts[0] = complex(-0.0, abs(pts[0]))
    return dataclasses.replace(base, points=pts)


@st.composite
def _constellations(draw):
    base = square64()
    # kicks well below half the gap between square64's outer radii, so the
    # four outermost points stay distinct and markers stay valid
    kick = draw(arrays(np.float64, (64, 2), elements=st.floats(-0.03, 0.03)))
    order = draw(st.permutations(range(64)))
    c = Constellation(
        points=normalized(base.points + kick.view(np.complex128)[:, 0]),
        labels=tuple(base.labels[i] for i in order),
        design_snr_db=draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)),
    )
    if draw(st.booleans()):
        c = add_ring_markers(c, draw(st.floats(1.0, 2.0, exclude_min=True)))
    return c


@settings(max_examples=60, deadline=None)
@given(_constellations())
@example(_square64_with_signed_zero())
def test_constellation_text_round_trip_is_bit_exact(c):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        save_constellation(c, path)
        back = load_constellation(path)
    # byte comparison: signed zeros must survive too
    assert back.points.tobytes() == c.points.tobytes()
    assert back.labels == c.labels
    assert back.marker_indices == c.marker_indices
    assert back.design_snr_db == c.design_snr_db


def test_loader_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("000000 0.1\n")
    with pytest.raises(ValueError):
        load_constellation(path)


def test_loader_validates_invariants(tmp_path):
    c = square64()
    path = tmp_path / "scaled.txt"
    lines = [f"{lab} {p.real * 2:.17g} {p.imag * 2:.17g}" for lab, p in zip(c.labels, c.points)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_constellation(path)


def test_builtins_load_and_satisfy_invariants():
    names = builtin_names()
    assert set(names) == {"square64", "awgn12", "papr12", "system12"}
    for name in names:
        c = load_builtin(name)
        assert len(c.points) == 64
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-9)
    assert len(load_builtin("system12").marker_indices) == 4
    with pytest.raises(ValueError):
        load_builtin("nonexistent")


def test_shipped_shaping_stages_order_correctly():
    # the AWGN-tailored stage beats square at its design point, the
    # PAPR-constrained stage trades some of that back for lower peaks
    sq, awgn, papr12 = (load_builtin(n) for n in ("square64", "awgn12", "papr12"))
    assert gap_to_capacity(awgn, 11.0) < gap_to_capacity(sq, 11.0) - 0.2
    assert max(papr(papr12)) < max(papr(sq)) < max(papr(awgn))
