"""Gradient-ascent geometric shaping of labeled constellations.

:func:`optimize` takes and returns a :class:`Constellation` of any M = 2^m
points; the paper's designs have 64.  Three-stage procedure; stages 1 and
2 are one :func:`optimize` at two settings of ``papr_penalty_weight``:

1. weight 0 - maximize GMI at the design SNR (default 12 dB) by a
   quasi-Newton ascent: L-BFGS (Liu & Nocedal, Math. Prog. 45, 1989) over
   the 2M raw coordinates x of the objective f(normalized(x)), with an
   Armijo backtracking line search, so every accepted step strictly
   improves the unit-power design.  Labels never move; only coordinates do.
2. weight > 0 - same ascent on the penalized objective
   GMI - weight * smoothmax(papr_i, papr_q), trading a little mutual
   information for lower per-dimension peak power.
3. :func:`constellation.add_ring_markers` - move the four outermost points
   onto a distinct outer ring for blind phase estimation.

The objective is the Gauss-Hermite GMI (order 10).  :mod:`.constellation`
owns that value and its analytic gradient, computed in softmax form from
the same blocks of quadrature rows as the value, so a line-search
candidate that is accepted already carries the gradient of the next
iteration; this module owns the ascent.  The gradient tests check the
gradient against central finite differences over the 2M real
coordinates.  The objective functions below take raw coordinates and a
bit matrix, so that they are plain functions of the coordinates.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, _gh_gmi, _gh_gmi_and_gradient, _noise_variance, normalized
from .errors import DegenerateInputError

__all__ = [
    "ShapingConfig",
    "ShapingResult",
    "optimize",
    "gh_gmi_value",
    "gh_gmi_value_and_gradient",
    "papr_smooth",
]

@dataclass(frozen=True)
class ShapingConfig:
    """Shaping stage configuration.

    The objective is the order-10 Gauss-Hermite GMI at ``target_snr_db``,
    minus ``papr_penalty_weight`` times a smooth max of the per-dimension
    PAPRs.  With weight 0 the GMI term rewards growing the outer points, so
    a run from square 64QAM can exceed the 49/21 peak-to-average ratio it
    started with; a weight of 0.5 brings it near 1.8 per dimension, and
    large weights drive both dimensions toward constant magnitude.  The
    ascent is L-BFGS with an Armijo backtracking line search.
    ``step_size`` is the length, on the unit-power coordinate scale, of the
    first trial step along a plain gradient direction (the first iteration,
    and the retry after a curvature step fails); L-BFGS directions are first
    tried at their own unit step.  Backtracking halves the step up to 20
    times per iteration.  The ascent stops after ``max_iterations`` accepted
    steps or when one accepted step improves the objective by less than
    ``improvement_tol`` bit.

    ``init_jitter`` perturbs the starting point by complex Gaussian noise,
    drawn from ``jitter_seed``, before the climb: ``init_jitter`` is its
    standard deviation per real coordinate, so its RMS amplitude per point
    is sqrt(2) * ``init_jitter``.
    Gradient flow preserves whatever point-group symmetry the initial layout
    has, so a perfectly symmetric start (square QAM) gets trapped on a
    symmetric submanifold well short of the reachable optimum; a small
    asymmetric kick escapes it.  If the jittered climb somehow ends below
    the initial objective, the ascent silently reruns from the unperturbed
    start, so the monotone guarantee versus the input is kept exactly.  Set
    0 to disable.
    """

    target_snr_db: float = 12.0
    papr_penalty_weight: float = 0.0
    max_iterations: int = 2000
    step_size: float = 0.2
    improvement_tol: float = 1e-5
    init_jitter: float = 0.02
    jitter_seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not math.isfinite(self.target_snr_db):
            raise ValueError("target_snr_db must be finite")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be positive and finite")
        if not 0 <= self.papr_penalty_weight < math.inf:
            raise ValueError("papr_penalty_weight must be >= 0 and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 <= self.init_jitter < math.inf:
            raise ValueError("init_jitter must be >= 0 and finite")


@dataclass(frozen=True)
class ShapingResult:
    """Ascent outcome.

    ``constellation`` is the shaped design: the input's labels at new
    coordinates, with no ring markers and ``design_snr_db`` set to the
    target SNR.  ``converged`` is True only when the stop was triggered by
    the improvement tolerance; a line-search failure or hitting
    max_iterations returns the best-so-far with ``converged`` False.
    ``history`` holds the objective after the initial point and each
    accepted step (strictly increasing by construction).
    """

    constellation: Constellation
    converged: bool
    history: np.ndarray

    @property
    def iterations(self) -> int:
        """Accepted steps: ``len(history) - 1``."""
        return len(self.history) - 1


# ---------------------------------------------------------------------------
# Objective and analytic gradient
# ---------------------------------------------------------------------------


def _check_noise_var(noise_var: float) -> None:
    # written so that NaN fails the check
    if not 0 < noise_var < math.inf:
        raise ValueError("noise_var must be positive and finite")


def gh_gmi_value(points: np.ndarray, bits: np.ndarray, noise_var: float) -> float:
    """Gauss-Hermite GMI (bit/2D) of an arbitrary point set.

    Unlike :func:`constellation.gmi_estimate` this does not renormalize and
    takes the noise variance directly, so it is a plain smooth function of
    the coordinates, suitable for gradient checks.  ``noise_var`` must be
    positive and finite.
    """
    _check_noise_var(noise_var)
    return _gh_gmi(points, bits, noise_var)


def gh_gmi_value_and_gradient(points: np.ndarray, bits: np.ndarray, noise_var: float):
    """GMI and its analytic gradient, from one pass over the Gauss-Hermite
    blocks; gradient entry r is d GMI / d Re(c_r) + 1j d GMI / d Im(c_r).
    ``noise_var`` must be positive and finite.
    """
    _check_noise_var(noise_var)
    return _gh_gmi_and_gradient(points, bits, noise_var)


# ---------------------------------------------------------------------------
# Smooth PAPR penalty
# ---------------------------------------------------------------------------


#: sharpness of the log-sum-exp stand-in for max(papr_i, papr_q)
_PAPR_SHARPNESS = 30.0


def papr_smooth(points: np.ndarray) -> tuple[float, np.ndarray]:
    """Differentiable stand-in for max(papr_i, papr_q), and its analytic
    gradient (complex convention of :func:`gh_gmi_value_and_gradient`),
    from one softmax pass.

    Log-sum-exp over the per-dimension normalized squared values
    Re(p)^2/mean(Re^2) and Im(p)^2/mean(Im^2); upper-bounds the true max
    and converges to it as ``_PAPR_SHARPNESS`` grows.  Reported PAPR
    always uses the true max (:func:`constellation.papr`).
    """
    a, b = points.real, points.imag
    big_m = points.size
    ma, mb = np.mean(a**2), np.mean(b**2)
    ua, ub = a**2 / ma, b**2 / mb
    z = _PAPR_SHARPNESS * np.concatenate([ua, ub])
    zmax = z.max()
    w = np.exp(z - zmax)
    total = w.sum()
    value = float(zmax + np.log(total)) / _PAPR_SHARPNESS
    w /= total
    wa, wb = w[:big_m], w[big_m:]
    da = wa * 2.0 * a / ma - float(wa @ ua) * 2.0 * a / (big_m * ma)
    db = wb * 2.0 * b / mb - float(wb @ ub) * 2.0 * b / (big_m * mb)
    return value, da + 1.0j * db


# ---------------------------------------------------------------------------
# Ascent
# ---------------------------------------------------------------------------


#: curvature pairs kept by the L-BFGS two-loop recursion
_MEMORY = 8
#: Armijo sufficient-increase fraction of the predicted first-order gain
_ARMIJO = 1e-4
#: step halvings tried per iteration before the line search gives up
_MAX_BACKTRACKS = 20


def _make_objective(bits, noise_var, cfg: ShapingConfig):
    """Objective on unit-power points as two callables.

    ``value(pts)`` scores a point.  ``trial(pts)`` scores a line-search
    candidate and returns ``(value, gradient)`` from one forward pass.
    """
    weight = cfg.papr_penalty_weight

    def penalty(pts):
        # the weighted smooth PAPR and its gradient; a weight so large that
        # either overflows leaves no objective to climb
        pv, pg = papr_smooth(pts)
        if not weight * max(pv, float(np.abs(pg).max())) < math.inf:
            raise DegenerateInputError(f"papr_penalty_weight {weight:g} overflows the penalty")
        return weight * pv, weight * pg

    def value(pts):
        v = gh_gmi_value(pts, bits, noise_var)
        return v - penalty(pts)[0] if weight else v

    def trial(pts):
        v, g = gh_gmi_value_and_gradient(pts, bits, noise_var)
        if weight:
            pv, pg = penalty(pts)
            v, g = v - pv, g - pg
        return v, g

    return value, trial


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # inner product over the 2M real coordinates
    return float(np.vdot(a, b).real)


def _raw_gradient(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of f(normalized(x)) with respect to x, given the gradient
    ``g`` of f at normalized(x): the component along x is removed (f is
    scale invariant) and the rest divided by the RMS amplitude of x."""
    scale = math.sqrt(_dot(x, x) / x.size)
    u = x / scale
    return (g - (_dot(g, u) / x.size) * u) / scale


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """Two-loop recursion: the inverse-curvature estimate applied to g."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * _dot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = pairs[-1]
    q *= _dot(s, y) / _dot(y, y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * _dot(y, q)) * s
    return q


def _climb(start: np.ndarray, trial, cfg: ShapingConfig):
    """Monotone L-BFGS ascent of f(normalized(x)) over the raw coordinates x.

    Candidates are accepted only on a strict Armijo increase, so the
    history of accepted values is strictly increasing.  The first trial
    along a plain gradient direction (the first iteration, or after a
    failed curvature step) has length ``cfg.step_size``; an L-BFGS
    direction is tried at unit step.  Each failed trial halves the step,
    at most ``_MAX_BACKTRACKS`` times.
    """
    x = start
    best, g_pts = trial(normalized(x))
    g = _raw_gradient(g_pts, x)
    history = [best]
    pairs = collections.deque(maxlen=_MEMORY)
    converged = False
    while True:
        d = _lbfgs_direction(g, pairs) if pairs else g
        slope = _dot(g, d)
        if slope <= 0.0:
            pairs.clear()
            d, slope = g, _dot(g, g)
        if slope == 0.0:
            converged = True
            break
        step = 1.0 if pairs else cfg.step_size / math.sqrt(slope)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = x + step * d
            cand_val, cand_g = trial(normalized(cand))
            if cand_val > best and cand_val - best >= _ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if pairs:
                # the curvature model misled; retry along the gradient
                pairs.clear()
                continue
            # a fixed point only counts as converged when the last
            # accepted step was already below tolerance
            last = history[-1] - history[-2] if len(history) > 1 else math.inf
            converged = last < cfg.improvement_tol or math.sqrt(slope) < 1e-7
            break
        improvement = cand_val - best
        s = cand - x
        x, best = cand, cand_val
        history.append(best)
        if improvement < cfg.improvement_tol:
            converged = True
            break
        if len(history) > cfg.max_iterations:
            break
        g_new = _raw_gradient(cand_g, x)
        y = g - g_new
        g = g_new
        sy = _dot(s, y)
        # keep only pairs of positive curvature (of -f), as L-BFGS needs
        if sy > 1e-12 * math.sqrt(_dot(s, s) * _dot(y, y)):
            pairs.append((s, y, 1.0 / sy))
    return normalized(x), np.asarray(history), converged


def _ascend(points0: np.ndarray, bits: np.ndarray, cfg: ShapingConfig):
    noise_var = _noise_variance(cfg.target_snr_db)
    value, trial = _make_objective(bits, noise_var, cfg)
    clean = normalized(points0)
    start = clean
    if cfg.init_jitter > 0.0:
        rng = np.random.default_rng(cfg.jitter_seed)
        kick = rng.standard_normal(clean.size) + 1.0j * rng.standard_normal(clean.size)
        start = normalized(clean + cfg.init_jitter * kick)
    pts, history, converged = _climb(start, trial, cfg)
    if cfg.init_jitter > 0.0 and history[-1] < value(clean):
        # the kick landed in a worse basin; keep the exact monotone
        # guarantee against the caller's input by climbing unperturbed
        pts, history, converged = _climb(clean, trial, cfg)
    return pts, history, converged


def optimize(initial: Constellation, cfg: ShapingConfig = ShapingConfig()) -> ShapingResult:
    """Maximize GMI - ``cfg.papr_penalty_weight`` * smoothmax PAPR of
    ``initial``'s coordinates.

    Acceptance is monotone: the objective history never decreases, and the
    returned design's objective at ``cfg.target_snr_db`` is >= the
    initial one (with weight 0, its GMI).  Labels are carried through
    unchanged; ring markers are dropped, since the ascent moves them off
    their ring.
    """
    pts, history, converged = _ascend(initial.points, initial.bit_matrix, cfg)
    return ShapingResult(
        constellation=Constellation(
            points=pts,
            labels=initial.labels,
            design_snr_db=cfg.target_snr_db,
        ),
        converged=converged,
        history=history,
    )
