"""Shaping ascent: gradients, penalty, monotonicity, toy-problem oracle."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from point_sets import natural_constellation

from shapelink import shaping
from shapelink.constellation import (
    Constellation,
    _EXP_FLOOR,
    _GH_T,
    _gh_blocks,
    _gh_nodes,
    _label_agreement,
    _row_loss,
    _shifted_metrics,
    builtin_names,
    gmi_estimate,
    load_builtin,
    normalized,
    papr,
    square64,
)
from shapelink.shaping import (
    ShapingConfig,
    gh_gmi_value,
    gh_gmi_value_and_gradient,
    optimize,
    papr_smooth,
    papr_smooth_gradient,
)


def _random_points(rng, n=16):
    return normalized(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def finite_difference_gradient(fun, points: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite differences over the 2M real coordinates."""
    grad = np.zeros(points.size, dtype=np.complex128)
    for r in range(points.size):
        for comp in (1.0, 1.0j):
            plus = points.copy()
            minus = points.copy()
            plus[r] += step * comp
            minus[r] -= step * comp
            grad[r] += comp * (fun(plus) - fun(minus)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    nu = 10 ** (-1.0)
    worst = 0.0
    for _ in range(10):
        c = natural_constellation(_random_points(rng))
        pts, bits = c.points, c.bit_matrix
        _, grad = gh_gmi_value_and_gradient(pts, bits, nu)
        fd = finite_difference_gradient(lambda p: gh_gmi_value(p, bits, nu), pts, step=1e-5)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    assert worst < 1e-4


def test_analytic_gradient_matches_finite_differences_64_points():
    c = square64()
    rng = np.random.default_rng(3)
    pts = normalized(c.points + 0.05 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)))
    nu = 10 ** (-11.0 / 10)
    _, grad = gh_gmi_value_and_gradient(pts, c.bit_matrix, nu)
    fd = finite_difference_gradient(lambda p: gh_gmi_value(p, c.bit_matrix, nu), pts, step=1e-5)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4


def _reference_gh_gmi(points, bits, noise_var):
    # the GH GMI written out over the full (point, node, point) metric
    # tensor, with no row shift and no matrix-product coset sums
    m = bits.shape[1]
    nodes, weights = _gh_nodes(noise_var)
    y = points[:, None] + nodes[None, :]
    q = np.exp(-np.abs(y[:, :, None] - points[None, None, :]) ** 2 / noise_var)
    same = bits[:, None, :] == bits[None, :, :]  # (tx i, point j, bit k)
    s_same = np.einsum("iqj,ijk->iqk", q, same)
    loss = np.log2(q.sum(axis=-1))[..., None] - np.log2(s_same)
    return m - float((loss.sum(axis=-1) @ weights).mean())


def test_gh_value_agrees_with_estimator():
    for name, snr_db in itertools.product(builtin_names(), (0.0, 11.0, 20.0)):
        c = load_builtin(name)
        nu = 10 ** (-snr_db / 10)
        v = gh_gmi_value(np.asarray(c.points), c.bit_matrix, nu)
        fused, _ = gh_gmi_value_and_gradient(np.asarray(c.points), c.bit_matrix, nu)
        assert v == fused
        assert v == pytest.approx(gmi_estimate(c, snr_db), abs=1e-12)
        assert v == pytest.approx(_reference_gh_gmi(c.points, c.bit_matrix, nu), abs=1e-12)


def _written_out_axis_metrics(coord, st, noise_var):
    # (M, Q1, M) one-axis metrics, candidate j last; the kernel shifts and
    # exponentiates in place over its first axis, so it runs on a j-first
    # view
    d = np.square((coord[:, None] + st)[:, :, None] - coord)
    _shifted_metrics(np.moveaxis(d, -1, 0), noise_var, _EXP_FLOOR / 2)
    return d


def _full_grid_gh_forward(points, bits, noise_var):
    # the unblocked kernel in its separable form: every (point, node) row
    # of the (M*Q, M) metric tensor at once, as the product of the two
    # per-axis exponentials
    big_m, m = bits.shape
    nodes, weights = _gh_nodes(noise_var)
    y = (points[:, None] + nodes[None, :]).ravel()
    st = math.sqrt(noise_var) * _GH_T
    ex = _written_out_axis_metrics(points.real, st, noise_var)
    ey = _written_out_axis_metrics(points.imag, st, noise_var)
    p = (ex[:, :, None, :] * ey[:, None, :, :]).reshape(big_m, nodes.size, big_m)
    # every row of point i shares its label: one product per point against
    # the agreement rows A[i] gives S_same and S_all
    agree = _label_agreement(bits)
    s = (p @ agree).reshape(-1, m + 1)
    s_same, s_all = s[:, :m], s[:, m]
    loss = _row_loss(s_all, s_same).reshape(big_m, nodes.size) @ weights
    value = m - float(loss.mean()) / math.log(2.0)
    return value, (y, weights, agree, p, s_all, s_same)


def _gradient_from_g(points, y, weights, g, noise_var):
    # the two contractions of the softmax ratios G(i,n,j), rows (i, n)
    big_m = points.size
    w_rows = np.tile(weights, big_m)
    wy = w_rows * y
    a1_re, a1_im, sg = np.stack([wy.real, wy.imag, w_rows]) @ g
    gc = g @ np.stack([points.real, points.imag], axis=1)
    b2 = weights @ gc.reshape(big_m, weights.size, 2)
    d_loss = (2.0 / noise_var) * (
        a1_re + 1j * a1_im - points * sg + b2[:, 0] + 1j * b2[:, 1]
    )
    return -d_loss / (big_m * math.log(2.0))


def _full_grid_value_and_gradient(points, bits, noise_var):
    value, (y, weights, agree, p, s_all, s_same) = _full_grid_gh_forward(
        points, bits, noise_var
    )
    big_m, m = bits.shape
    coef = np.hstack([-1.0 / s_same, (m / s_all)[:, None]])
    agree_t = np.ascontiguousarray(agree.transpose(0, 2, 1))
    g = coef.reshape(big_m, weights.size, m + 1) @ agree_t
    g *= p
    g = g.reshape(-1, big_m)  # G(i,n,j), rows (i, n)
    return value, _gradient_from_g(points, y, weights, g, noise_var)


def _per_candidate_value_and_gradient(points, bits, noise_var):
    # the former kernel, written out as an independent reference: the
    # (M*Q, M) squared distances, each row shifted by its own minimum and
    # exponentiated per (node pair, candidate), then two label products
    big_m, m = bits.shape
    nodes, weights = _gh_nodes(noise_var)
    y = (points[:, None] + nodes[None, :]).ravel()
    d2 = np.square(y.real[:, None] - points.real) + np.square(y.imag[:, None] - points.imag)
    p = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / noise_var)
    tx_bits = np.repeat(bits, nodes.size, axis=0)
    s_all = p.sum(axis=1)
    s0 = p @ (bits == 0).astype(np.float64)
    s_same = np.maximum(np.where(tx_bits == 0, s0, s_all[:, None] - s0), 1e-300)
    loss = m * np.log(s_all) - np.log(s_same).sum(axis=1)
    value = m - float((loss.reshape(big_m, nodes.size) @ weights).mean()) / math.log(2.0)
    inv = 1.0 / s_same
    ones = bits.astype(np.float64)
    g = (tx_bits * inv) @ ones.T
    g += ((1 - tx_bits) * inv) @ (1.0 - ones).T
    g = ((m / s_all)[:, None] - g) * p
    return value, _gradient_from_g(points, y, weights, g, noise_var)


def _bit_identity_cases():
    for name in builtin_names():
        c = load_builtin(name)
        yield name, c, c.points, c.bit_matrix
    rng = np.random.default_rng(5)
    for n in (2, 4, 16):
        c = natural_constellation(_random_points(rng, n))
        yield f"natural{n}", c, c.points, c.bit_matrix


def test_blocked_kernel_is_bit_identical_to_full_grid():
    # blocks of transmitted points must reproduce the full-grid value,
    # gradient and estimator bits, not just come close
    for name, c, pts, bits in _bit_identity_cases():
        for snr_db in (0.0, 5.5, 11.0, 20.0):
            nu = 10 ** (-snr_db / 10)
            want, want_grad = _full_grid_value_and_gradient(pts, bits, nu)
            value, grad = gh_gmi_value_and_gradient(pts, bits, nu)
            case = (name, snr_db)
            assert value == want, case
            assert np.array_equal(grad, want_grad), case
            assert gh_gmi_value(pts, bits, nu) == want, case
            # the estimator scales the noise by the measured point power
            nu_est = 10.0 ** (-snr_db / 10.0) * float(np.mean(np.abs(pts) ** 2))
            want_est = _full_grid_gh_forward(pts, bits, nu_est)[0]
            assert gmi_estimate(c, snr_db) == want_est, case


def test_separable_metrics_match_per_candidate_exponential():
    # the per-axis product shifts each row by min dx + min dy instead of
    # its own minimum; value and gradient must stay within rounding of
    # the per-candidate form from -5 to 40 dB
    for name, c, pts, bits in _bit_identity_cases():
        for snr_db in (-5.0, 0.0, 5.0, 11.0, 20.0, 30.0, 40.0):
            nu = 10 ** (-snr_db / 10)
            want, want_grad = _per_candidate_value_and_gradient(pts, bits, nu)
            value, grad = gh_gmi_value_and_gradient(pts, bits, nu)
            case = (name, snr_db)
            assert abs(value - want) <= 1e-13, case
            assert np.max(np.abs(grad - want_grad)) <= 1e-12, case


def test_gh_rows_keep_a_metric_above_the_shift_bound():
    # each row's largest metric is at least that of its own transmitted
    # point, exp(-(t_a^2 + t_b^2)) >= exp(-2 t_max^2), so no coset sum
    # underflows at any SNR
    bound = math.exp(-2.0 * float(np.max(_GH_T)) ** 2)
    for name, c, pts, bits in _bit_identity_cases():
        for snr_db in (-20.0, 0.0, 11.0, 30.0, 60.0):
            nu = 10 ** (-snr_db / 10)
            for _, _, p, _, s_same, _ in _gh_blocks(pts, bits, nu):
                assert np.all(p.max(axis=1) >= bound), (name, snr_db)
                assert np.all(s_same >= bound), (name, snr_db)
    for name in builtin_names():
        for snr_db in (-20.0, 60.0):
            gmi = gmi_estimate(load_builtin(name), snr_db)
            assert math.isfinite(gmi) and 0.0 <= gmi <= 6.0, (name, snr_db)


def test_gh_coset_sums_match_extended_precision_direct_sums():
    # each row's S_same and S_all are sums of the row's own metrics over
    # the points that share the transmitted bit, and over every point;
    # a same-bit coset far below S_all must keep its relative accuracy
    q = len(_GH_T) ** 2
    for name in builtin_names():
        c = load_builtin(name)
        bits = c.bit_matrix
        for snr_db in (-5.0, 0.0, 5.0, 11.0, 20.0, 30.0):
            nu = 10 ** (-snr_db / 10)
            worst = 0.0
            for rows, _, p, s_all, s_same, _ in _gh_blocks(c.points, bits, nu):
                tx = bits[np.arange(rows.start, rows.stop) // q]
                p_ld = p.astype(np.longdouble)
                want_all = p_ld.sum(axis=1)
                worst = max(worst, float(np.max(np.abs(s_all - want_all) / want_all)))
                for k in range(bits.shape[1]):
                    same = bits[None, :, k] == tx[:, k, None]
                    want = np.where(same, p_ld, 0).sum(axis=1)
                    worst = max(worst, float(np.max(np.abs(s_same[:, k] - want) / want)))
            assert worst <= 1e-14, (name, snr_db, worst)


@pytest.mark.parametrize("nu", [0.0, -1.0, math.nan])
def test_gh_objective_rejects_bad_noise_variance(nu):
    c = square64()
    with pytest.raises(ValueError, match="noise_var must be positive and finite"):
        gh_gmi_value(c.points, c.bit_matrix, nu)
    with pytest.raises(ValueError, match="noise_var must be positive and finite"):
        gh_gmi_value_and_gradient(c.points, c.bit_matrix, nu)


def test_papr_smooth_upper_bounds_true_max(monkeypatch):
    rng = np.random.default_rng(1)
    points = [_random_points(rng, 32) for _ in range(5)]
    for pts in points:
        assert papr_smooth(pts) >= max(papr(natural_constellation(pts))) - 1e-9
    # the bound tightens onto the true max as the sharpness grows
    monkeypatch.setattr(shaping, "_PAPR_SHARPNESS", 300.0)
    for pts in points:
        assert papr_smooth(pts) == pytest.approx(max(papr(natural_constellation(pts))), rel=0.02)


def test_papr_smooth_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    pts = _random_points(rng, 16)
    g = papr_smooth_gradient(pts)
    fd = finite_difference_gradient(papr_smooth, pts, 1e-6)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ShapingConfig(step_size=0.0)
    with pytest.raises(ValueError):
        ShapingConfig(papr_penalty_weight=-0.1)
    with pytest.raises(ValueError):
        ShapingConfig(init_jitter=-1.0)


@pytest.mark.parametrize(
    "field",
    ["target_snr_db", "papr_penalty_weight", "step_size", "init_jitter"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_nan_and_inf(field, value):
    # a NaN or infinite objective or step never accepts a step, and the
    # jittered start it returns can score below the input
    with pytest.raises(ValueError, match=field):
        ShapingConfig(**{field: value})


# ---------------------------------------------------------------------------
# ascent behavior
# ---------------------------------------------------------------------------

_FAST = ShapingConfig(max_iterations=60, step_size=0.4)


def test_history_monotone_and_result_not_worse():
    res = optimize(square64(), _FAST)
    assert res.iterations == len(res.history) - 1
    assert np.all(np.diff(res.history) > 0)
    out = gmi_estimate(res.constellation, 12.0)
    assert out >= gmi_estimate(square64(), 12.0)
    assert res.constellation.labels == square64().labels


def test_jitter_fallback_never_regresses():
    # a huge jitter throws the start far off; the clean rerun guard still
    # guarantees the result is at least as good as the input
    cfg = ShapingConfig(max_iterations=3, step_size=0.05, init_jitter=5.0)
    res = optimize(square64(), cfg)
    assert gmi_estimate(res.constellation, 12.0) >= gmi_estimate(square64(), 12.0)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs tens of MB and a sizeable import time; the
    # package must not pull it in
    code = "import sys, shapelink; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shaping.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_huge_weight_drives_papr_to_one():
    cfg = ShapingConfig(papr_penalty_weight=1000.0, max_iterations=400, step_size=0.2)
    res = optimize(square64(), cfg)
    assert max(papr(res.constellation)) < 1.1


def test_default_papr_run_beats_square():
    res = optimize(square64(), ShapingConfig(papr_penalty_weight=0.5))
    pi, pq = papr(res.constellation)
    assert pi < 49.0 / 21.0
    assert pq < 49.0 / 21.0


def test_papr_stage_regression_from_awgn_stage():
    # the weight-0.5 stage applied to the shipped AWGN-stage output must
    # not raise either per-dimension PAPR
    awgn = load_builtin("awgn12")
    res = optimize(awgn, ShapingConfig(papr_penalty_weight=0.5))
    pi0, pq0 = papr(awgn)
    pi, pq = papr(res.constellation)
    assert pi <= pi0 and pq <= pq0


# ---------------------------------------------------------------------------
# toy oracle: 8 real points vs. exhaustive symmetric grid
# ---------------------------------------------------------------------------


def test_toy_8point_reaches_grid_optimum():
    # symmetric 8-point real constellations {+/-a, +/-b, +/-c, +/-d}: grid
    # over quantized magnitudes gives a brute-force reference optimum
    nu = 10 ** (-10.0 / 10)
    start = natural_constellation([m * s for m in (0.25, 0.5, 0.75, 1.0) for s in (1.0, -1.0)])
    bits = start.bit_matrix
    best = -np.inf
    mags = np.arange(0.1, 1.9, 0.1)
    for combo in itertools.combinations(mags, 4):
        pts = normalized(np.array([m * s for m in combo for s in (1.0, -1.0)], dtype=complex))
        best = max(best, gh_gmi_value(pts, bits, nu))

    cfg = ShapingConfig(
        target_snr_db=10.0,
        max_iterations=2000,
        step_size=0.2,
        improvement_tol=1e-7,
        init_jitter=0.0,  # keep the problem on the real axis
    )
    res = optimize(start, cfg)
    found = gh_gmi_value(res.constellation.points, bits, nu)
    assert found >= best - 0.02
    # negligible imaginary drift: a real start has a real gradient up to
    # floating-point roundoff in the quadrature sums
    assert np.max(np.abs(res.constellation.points.imag)) < 1e-8
