"""Labeled constellations, GMI/PAPR metrics, and ring markers.

The central design object, which every metric below takes, is a
:class:`Constellation`: 2^m complex points (64 in the paper's designs) with
distinct m-bit labels, normalized to unit average power.  The module provides

* builders (:func:`square64`, :func:`load_builtin`) and text-file I/O,
* bit-interleaved GMI estimation over the complex AWGN channel, via
  Gauss-Hermite quadrature (deterministic, fast) or seeded Monte Carlo
  (for reported figures), the latter the mean of :func:`gmi_from_llrs`
  over the LLRs of drawn samples,
* full-sum bitwise LLR demapping; the LLRs and the blind noise estimate
  of :mod:`shapelink.dsp` take every squared distance |y - c|^2 from one
  kernel over blocks of received samples,
* per-dimension peak-to-average power ratio,
* :func:`add_ring_markers`, which moves the four outermost points onto a
  common outer ring so blind phase estimation can key on them.

The GMI of a bit-interleaved system with uniform input is

    GMI = m - sum_k E[ log2(1 + exp(-(1 - 2 b_k) * LLR_k)) ]

with LLR_k = log(P(y|b_k=0) / P(y|b_k=1)) computed from circular Gaussian
metrics.  Both estimators evaluate exactly this quantity; they differ only in
how the expectation over noise is taken.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DegenerateInputError

__all__ = [
    "Constellation",
    "square64",
    "load_builtin",
    "builtin_names",
    "load_constellation",
    "save_constellation",
    "gmi_estimate",
    "gap_to_capacity",
    "gap_from_gmi",
    "gmi_from_llrs",
    "bitwise_llrs",
    "papr",
    "add_ring_markers",
    "normalized",
]

#: floor of the scaled exponents of the received-sample metrics (the
#: Gauss-Hermite axes take half of it each).  numpy's exp runs ~20x slower
#: from -708, where its results turn subnormal, and up to ~170x slower
#: below; e^-700 ~ 9.9e-305 is a term no kept sum can see.
_EXP_FLOOR = -700.0
#: coset sums below this are recomputed in log form (see
#: :func:`bitwise_llrs`).  The <= M e^_EXP_FLOOR that the floor adds to a
#: sum of M points (~6.3e-303 at M = 64) lies below half an ulp of every
#: sum at or above it for M < ~6e7.
_TINY = 1e-280


def normalized(points: np.ndarray) -> np.ndarray:
    """Scale a complex point set to unit average power."""
    points = np.asarray(points, dtype=np.complex128)
    power = np.mean(np.abs(points) ** 2)
    if power <= 0.0:
        raise ValueError("cannot normalize an all-zero point set")
    return points / np.sqrt(power)


@dataclass(frozen=True)
class Constellation:
    """M = 2^m labeled complex points (m >= 1) at unit average power.

    Parameters
    ----------
    points : ndarray of complex, shape (M,)
        Point coordinates.  Mean of ``|p|**2`` must equal 1 within 1e-12.
    labels : tuple of str
        M distinct m-character bit strings, parallel to ``points``.
        Coincident points with distinct labels are permitted.
    marker_indices : frozenset of int
        Indices of points designated as ring markers (possibly empty).  If
        nonempty, all markers must share one common radius strictly greater
        than the radius of every non-marker point.
    design_snr_db : float or None
        SNR the constellation was shaped for, if any.
    """

    points: np.ndarray
    labels: tuple
    marker_indices: frozenset = field(default_factory=frozenset)
    design_snr_db: float | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.complex128)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "marker_indices", frozenset(self.marker_indices))
        if self.design_snr_db is not None:  # a numpy scalar would not load back
            object.__setattr__(self, "design_snr_db", float(self.design_snr_db))
        n = pts.size
        if pts.ndim != 1 or n < 2 or n & (n - 1):
            raise ValueError(f"a Constellation has 2^m points (m >= 1), got shape {pts.shape}")
        m = n.bit_length() - 1
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise ValueError(f"labels must be {n} distinct bit strings")
        for lab in self.labels:
            if len(lab) != m or any(ch not in "01" for ch in lab):
                raise ValueError(f"bad {m}-bit label: {lab!r}")
        if not np.all(np.isfinite(pts.view(np.float64))):
            raise ValueError("points must be finite")
        power = np.mean(np.abs(pts) ** 2)
        if abs(power - 1.0) > 1e-12:
            raise ValueError(f"mean power {power!r} is not 1 within 1e-12")
        if self.marker_indices:
            idx = sorted(self.marker_indices)
            if min(idx) < 0 or max(idx) >= n:
                raise ValueError("marker index out of range")
            radii = np.abs(pts)
            r_mark = radii[idx]
            others = np.delete(radii, idx)
            if not np.allclose(r_mark, r_mark[0], rtol=1e-9, atol=1e-12):
                raise ValueError("marker points must share a common radius")
            if others.size and r_mark.min() <= others.max():
                raise ValueError("marker radius must exceed all non-marker radii")

    @functools.cached_property
    def bit_matrix(self) -> np.ndarray:
        """(M, m) read-only uint8 array of label bits; bit k is character k
        of the label.  Built once per instance."""
        bits = np.array([[int(ch) for ch in lab] for lab in self.labels], dtype=np.uint8)
        bits.setflags(write=False)
        return bits

    def radius_set(self) -> np.ndarray:
        """Distinct point radii (ascending), merged within 1e-6 (used by
        the radius-directed equalizer)."""
        radii = np.sort(np.abs(self.points))
        keep = [radii[0]]
        for r in radii[1:]:
            if r - keep[-1] > 1e-6:
                keep.append(r)
        return np.asarray(keep)

    def marker_radius(self) -> float:
        """Common radius of the marker ring."""
        if not self.marker_indices:
            raise ValueError("constellation has no ring markers")
        return float(np.abs(self.points[sorted(self.marker_indices)]).mean())

    def replace(self, **kw) -> "Constellation":
        return dataclasses.replace(self, **kw)


def _gray3(i: int) -> str:
    return format(i ^ (i >> 1), "03b")


def square64() -> Constellation:
    """Gray-labeled square 64QAM at unit average power.

    Levels are -7, -5, ..., +7 before normalization; the first three label
    bits select the I level and the last three the Q level, each axis
    Gray-coded.  Mean power of the integer grid is 42 (21 per dimension), so
    the normalization factor is 1/sqrt(42).
    """
    levels = np.arange(-7, 8, 2, dtype=np.float64)
    pts = []
    labs = []
    for i, li in enumerate(levels):
        for q, lq in enumerate(levels):
            pts.append(li + 1j * lq)
            labs.append(_gray3(i) + _gray3(q))
    pts = np.asarray(pts) / math.sqrt(42.0)
    return Constellation(points=pts, labels=tuple(labs))


# ---------------------------------------------------------------------------
# GMI estimation
# ---------------------------------------------------------------------------


def _coset_matrix(bits: np.ndarray) -> np.ndarray:
    # (2m, M) [c0; c1]: row k selects the points whose bit k is 0, row
    # m + k those whose bit k is 1
    c0 = (bits.T == 0).astype(np.float64)
    return np.vstack([c0, 1.0 - c0])


def _label_agreement(bits: np.ndarray) -> np.ndarray:
    """(M, M, m + 1) 0/1 matrix A[i, j, k] = [b_ik == b_jk], whose last
    column is all ones: ``p @ A[i]`` gives the coset sums S_same (first m
    columns) and S_all (last column) of rows that transmit point i."""
    big_m, m = bits.shape
    agree = np.ones((big_m, big_m, m + 1), dtype=bool)
    np.equal(bits[:, None, :], bits[None, :, :], out=agree[:, :, :m])
    return agree.astype(np.float64)


def gmi_estimate(
    c: Constellation,
    snr_db: float,
    estimator: str = "gh",
    samples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Bit-interleaved GMI of ``c`` on the complex AWGN channel, bit/2D.

    Parameters
    ----------
    c : Constellation
        The labeled point set; the noise is scaled by its measured power.
    snr_db : float
        Es/N0 in dB for the unit-power constellation.
    estimator : {"gh", "mc"}
        Deterministic Gauss-Hermite quadrature, at the module's one order
        of 10 nodes per real dimension, or seeded Monte Carlo; the names
        of the INI's ``[sweep] estimator``.
    samples, seed : int
        Monte Carlo sample count (>= 1) and RNG seed.

    Returns
    -------
    float
        GMI in [0, m] bit per 2D symbol (m = log2(point count)).
    """
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite")
    noise_var = 10.0 ** (-snr_db / 10.0) * float(np.mean(np.abs(c.points) ** 2))
    if estimator == "gh":
        return _gh_gmi(c.points, c.bit_matrix, noise_var)
    if estimator == "mc":
        if not samples >= 1:
            raise ValueError("Monte Carlo samples must be >= 1")
        return _gmi_monte_carlo(c, noise_var, samples, seed)
    raise ValueError(f"unknown estimator {estimator!r}")


#: received samples per distance block.  One block's (64, rows) float64
#: distances take 8 MB.  Keep it at least this large: numpy's large
#: temporaries are mmapped by glibc, whose mmap and trim thresholds rise
#: to the largest mmapped chunk freed, and these blocks are what raise
#: them above a (2, 65536) complex FFT.  With 2048-row blocks every later
#: FFT of that size page-faults afresh and a link pass takes ~45% longer.
_ROW_BLOCK = 1 << 14


def _point_rows(points):
    # (M, 3) rows [-2 Re c, -2 Im c, |c|^2]: times the columns of
    # _sample_columns they give |y - c|^2 - |y|^2
    c2 = points.real * points.real + points.imag * points.imag
    return np.stack([-2.0 * points.real, -2.0 * points.imag, c2], axis=1)


def _sample_columns(y):
    # (3, n) columns [Re y; Im y; 1]
    return np.stack([y.real, y.imag, np.ones(y.size)])


def _distance_blocks(y: np.ndarray, points: np.ndarray):
    """Squared distances of every point to received samples, offset by
    |y|^2, ``_ROW_BLOCK`` samples at a time, candidates first.

    Yields ``(rows, e)`` per block: ``rows`` the block's slice of ``y``
    and ``e`` (M, rows) = |y - c_j|^2 - |y|^2, built as
    [-2 Re c, -2 Im c, |c|^2] @ [Re y; Im y; 1] with one small matrix
    product.  Each column is one sample, so a reduction over the points
    runs over contiguous rows.  The offset cancels in a column shift by
    min_j and in a difference of two column minima; add |y|^2 back for
    the distance itself.  Every block is written into one array, so use
    ``e`` (which callers may overwrite) before asking for the next block.
    """
    y = np.asarray(y, dtype=np.complex128)
    coef = _point_rows(points)
    block = np.empty(points.size * min(y.size, _ROW_BLOCK))
    for start in range(0, y.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        cols = _sample_columns(y[rows])
        out = block[: points.size * cols.shape[1]].reshape(points.size, -1)
        yield rows, np.matmul(coef, cols, out=out)


def _shifted_metrics(d2, noise_var, floor):
    # overwrite squared distances (or any offset of them that is constant
    # along the first axis) with exp(-(d2 - min d2) / noise_var), the
    # minimum taken over the candidate points of the first axis and the
    # exponent clamped at floor; returns the metrics and the minima
    shift = d2.min(axis=0)
    d2 -= shift
    d2 *= -1.0 / noise_var
    np.maximum(d2, floor, out=d2)
    return np.exp(d2, out=d2), shift


def _row_loss(s_all, s_same):
    """Sum over bits of ln(S_all) - ln(S_same), per row.

    S_all (n,) sums a row's Gaussian metrics over every point and S_same
    (n, m) over the points that share the transmitted label's bit k.  The
    metrics may carry any positive factor per row (a row shift), which
    cancels here.
    """
    return s_same.shape[1] * np.log(s_all) - np.log(s_same).sum(axis=1)


#: Gauss-Hermite order per real dimension of every quadrature GMI
_GH_ORDER = 10
# its 1-D nodes and weights, built once and shared read-only
_GH_T, _GH_W = hermgauss(_GH_ORDER)
_GH_T.setflags(write=False)
_GH_W.setflags(write=False)


def _gh_nodes(noise_var: float):
    t, w = _GH_T, _GH_W
    nodes = math.sqrt(noise_var) * (t[:, None] + 1j * t[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel() / math.pi
    return nodes, weights


#: transmitted points per Gauss-Hermite block: at order 10 a block's
#: (800, 64) metrics take 400 kB and stay in cache.  The coset sums and
#: the gradient's G fill are one matrix product per transmitted point, of
#: the same shape whatever the block size, so the size changes no bit.
_GH_BLOCK = 8


def _axis_metrics(coord, st, noise_var):
    # (M, Q1, M) exp(-(d - min_j d) / noise_var) of the one-axis squared
    # distances d = (coord_i + st_a - coord_j)^2, built candidates first
    # as (M, M * Q1) and returned contiguous with the candidate j last.
    # Each axis is clamped at half the floor, so that no product of two
    # axes is subnormal: at 30 dB, subnormal products made a system12
    # gmi_estimate take 6.5 ms against 2.8 ms
    d = (coord[:, None] + st).ravel() - coord[:, None]
    np.square(d, out=d)
    p, _ = _shifted_metrics(d, noise_var, _EXP_FLOOR / 2)
    return np.ascontiguousarray(p.T).reshape(coord.size, st.size, coord.size)


def _gh_blocks(points, bits, noise_var):
    """Gauss-Hermite rows of raw points at total noise variance
    ``noise_var``, ``_GH_BLOCK`` transmitted points at a time.

    Rows pair transmitted point i with quadrature node q = a * _GH_ORDER
    + b, i-major, so the received sample is y = c_i + s (t_a + j t_b) with
    s = sqrt(noise_var) on the product grid of the 1-D nodes t.  Then
    |y - c_j|^2 = dx + dy with dx = (Re c_i + s t_a - Re c_j)^2 and
    dy = (Im c_i + s t_b - Im c_j)^2, so the Gaussian metric is the
    product exp(-dx / noise_var) exp(-dy / noise_var).  Each axis is
    shifted by its minimum over the candidates j and exponentiated once
    per call, (M, _GH_ORDER, M) values each with exponents clamped at
    ``_EXP_FLOOR / 2``, and one broadcast multiply gives a block's
    metrics, none of them subnormal.

    Every row of point i has the same transmitted label, so the points
    that agree with it on bit k are fixed: the coset sums of a block are
    one batched product of its (points, Q, M) metrics with the rows
    ``A[blk]`` of :func:`_label_agreement`, S_same and S_all together.
    Each sum adds only its own terms; no sum is a difference of two.

    The row shift is then min dx + min dy rather than the row minimum;
    it cancels in every ratio of coset sums.  The largest metric of a row
    is at least that of c_i itself, exp(-(t_a^2 + t_b^2)), since
    |y - c_i|^2 = s^2 (t_a^2 + t_b^2) and the shift is >= 0: at order 10
    every row has a metric >= exp(-2 t_max^2) ~ 5.6e-11.  Every S_same
    contains c_i's own metric, so no coset sum underflows and none needs
    the log-form recomputation of :func:`bitwise_llrs`.

    Yields ``(rows, agree, p, s_all, s_same, loss)`` per block: ``rows``
    the block's slice of the M*Q rows, ``agree`` its (points, M, m + 1)
    rows of the agreement matrix, ``p`` its (rows, M) metrics, ``s_all``
    (rows,) and ``s_same`` (rows, m) its coset sums and ``loss`` its
    :func:`_row_loss`.  Every block's metrics are written into one array,
    so use ``p`` before asking for the next block.
    """
    big_m, m = bits.shape
    st = math.sqrt(noise_var) * _GH_T
    ex = _axis_metrics(points.real, st, noise_var)
    ey = _axis_metrics(points.imag, st, noise_var)
    agree_all = _label_agreement(bits)
    q = _GH_ORDER * _GH_ORDER
    buf = np.empty((min(big_m, _GH_BLOCK), _GH_ORDER, _GH_ORDER, big_m))
    for i in range(0, big_m, _GH_BLOCK):
        blk = slice(i, i + _GH_BLOCK)
        agree = agree_all[blk]
        p = np.multiply(ex[blk, :, None, :], ey[blk, None, :, :], out=buf[: agree.shape[0]])
        p = p.reshape(-1, q, big_m)
        s = (p @ agree).reshape(-1, m + 1)
        s_same, s_all = s[:, :m], s[:, m]
        rows = slice(i * q, i * q + s.shape[0])
        yield rows, agree, p.reshape(-1, big_m), s_all, s_same, _row_loss(s_all, s_same)


def _gh_value(losses, weights, m: int) -> float:
    """GMI (bit/2D) from the per-block row losses of :func:`_gh_blocks`
    and the (Q,) node weights."""
    loss = np.concatenate(losses).reshape(-1, weights.size) @ weights
    return m - float(loss.mean()) / math.log(2.0)


def _gh_gmi(points, bits, noise_var) -> float:
    """Gauss-Hermite GMI (bit/2D) of raw points at total noise variance
    ``noise_var``: the value :func:`gmi_estimate` and the shaping
    objective report."""
    losses = [loss for *_, loss in _gh_blocks(points, bits, noise_var)]
    return _gh_value(losses, _gh_nodes(noise_var)[1], bits.shape[1])


def _gmi_monte_carlo(c, noise_var, samples, seed) -> float:
    """Seeded Monte Carlo GMI (bit/2D) of ``c`` at total noise variance
    ``noise_var``: the sample-weighted mean of :func:`gmi_from_llrs` over
    the LLRs of :func:`bitwise_llrs`, drawn ``2**17`` samples at a time."""
    points, bits = c.points, c.bit_matrix
    rng = np.random.default_rng(seed)
    chunk = 1 << 17
    total = 0.0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        idx = rng.integers(0, bits.shape[0], size=n)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = points[idx] + noise * math.sqrt(noise_var / 2.0)
        total += n * gmi_from_llrs(bitwise_llrs(c, y, noise_var), bits[idx])
        done += n
    return total / samples


def bitwise_llrs(c: Constellation, symbols: np.ndarray, noise_variance: float) -> np.ndarray:
    """Per-bit LLRs log(P(b=0)/P(b=1)) under a circular Gaussian metric.

    Positive LLR means bit 0 is more likely.  ``noise_variance`` is the total
    (2D) complex noise variance.  Returns an (n, m) array aligned to the
    label bits of ``c``.

    Works on ``_ROW_BLOCK`` symbols at a time, on the (M, rows) squared
    distances less |y|^2 of :func:`_distance_blocks`.  Each column is
    shifted by its nearest point and exponentiated in place (exponents
    clamped at ``_EXP_FLOOR``), and both coset sums come from one
    ``[c0; c1] @ p`` product; |y|^2 cancels.  A coset sum below
    ``_TINY`` after the shift (a coset more than ~644 ``noise_variance``
    farther than the nearest point) is recomputed in log form from its
    own coset minimum, so the LLRs do not clip.
    """
    points, bits = c.points, c.bit_matrix
    if not 0 < noise_variance < math.inf:
        raise ValueError("noise_variance must be positive and finite")
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(symbols)):
        raise ValueError("symbols must be finite")
    m = bits.shape[1]
    out = np.empty((symbols.size, m))
    cosets = _coset_matrix(bits)
    for rows, e in _distance_blocks(symbols, points):
        p, nearest = _shifted_metrics(e, noise_variance, _EXP_FLOOR)
        s = cosets @ p
        # a reduction, not a mask, on the common path where none is low;
        # every sum is at least e^_EXP_FLOOR, so none is 0 to the log
        low = s < _TINY if s.min() < _TINY else None
        np.log(s, out=s)
        if low is not None:
            _relog_low_sums(s, low, symbols[rows], nearest, points, cosets, noise_variance)
        np.subtract(s[:m], s[m:], out=out[rows].T)
    return out


def _relog_low_sums(log_s, low, y, nearest, points, cosets, noise_var):
    """Overwrite the log coset sums of ``log_s`` (2m, n) flagged in ``low``
    with log-sum-exps taken from each coset's own minimum.

    ``log_s`` holds log sums of metrics shifted by ``nearest``, each
    sample's least distance less |y|^2; the flagged sums underflowed
    there.  Per coset c, the distances less |y|^2 of its flagged samples
    to c's points are computed afresh, and each flagged sum becomes
    -(min_c - nearest) / noise_var + log sum_{j in c} exp(-(e_j - min_c) /
    noise_var), the same sum in the same shifted frame.
    """
    coef = _point_rows(points)
    for k in np.flatnonzero(low.any(axis=1)):
        cols = np.flatnonzero(low[k])
        ek = coef[cosets[k] > 0] @ _sample_columns(y[cols])
        p, coset_min = _shifted_metrics(ek, noise_var, _EXP_FLOOR)
        log_s[k, cols] = np.log(p.sum(axis=0)) - (coset_min - nearest[cols]) / noise_var


def gmi_from_llrs(llrs: np.ndarray, tx_bits: np.ndarray) -> float:
    """GMI (bit/2D) from demapper LLRs and the transmitted bits.

    Evaluates m - sum_k mean(log2(1 + exp(-(1-2b) L))) with the stable
    log1p-exp form; this is the Monte Carlo GMI of whatever produced the
    LLRs, so mismatched LLRs yield a lower (achievable) rate.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    tx_bits = np.asarray(tx_bits)
    if llrs.shape != tx_bits.shape:
        raise ValueError("llrs and tx_bits must have matching shapes")
    if llrs.shape[0] == 0:
        raise ValueError("GMI of zero LLR rows is undefined")
    # x = -(1 - 2b) L; log(1 + exp(x)) = log1p(exp(-|x|)) + max(x, 0)
    x = (2.0 * tx_bits - 1.0) * llrs
    loss = np.maximum(x, 0.0)
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.log1p(x, out=x)
    loss += x
    m = llrs.shape[1]
    return m - float(loss.mean(axis=0).sum()) / math.log(2.0)


def gap_to_capacity(c, snr_db: float, **estimator_kw) -> float:
    """Gap of ``c`` to the Gaussian capacity at ``snr_db``, bit per 4D symbol.

    Defined as 2 * (log2(1 + SNR) - GMI_2D); both polarizations carry the
    same constellation, hence the factor 2.
    """
    return gap_from_gmi(gmi_estimate(c, snr_db, **estimator_kw), snr_db)


def gap_from_gmi(gmi_2d: float, snr_db: float) -> float:
    """Gap to the Gaussian capacity at ``snr_db`` of a known 2D GMI, bit per
    4D symbol: 2 * (log2(1 + SNR) - ``gmi_2d``)."""
    cap = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    return 2.0 * (cap - gmi_2d)


# ---------------------------------------------------------------------------
# PAPR
# ---------------------------------------------------------------------------


def papr(c: Constellation) -> tuple[float, float]:
    """Per-dimension peak-to-average power ratio (papr_i, papr_q) of ``c``.

    papr_i = max(Re(p)^2) / mean(Re(p)^2) over the points, and likewise for
    the quadrature dimension.  Gray-coded square 64QAM gives exactly 49/21
    in both dimensions (levels +/-1..7: peak 49, mean 21).
    """
    out = []
    for comp in (c.points.real, c.points.imag):
        mean_sq = np.mean(comp**2)
        if mean_sq == 0.0:
            raise DegenerateInputError("all-zero dimension has no PAPR")
        out.append(float(np.max(comp**2) / mean_sq))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Ring markers
# ---------------------------------------------------------------------------


def _marker_candidates(points: np.ndarray) -> np.ndarray:
    # four outermost points; ties broken by radius descending then angle
    # ascending so the choice is deterministic
    radii = np.abs(points)
    angles = np.mod(np.angle(points), 2.0 * math.pi)
    order = np.lexsort((angles, -radii))
    return order[:4]


def _marker_target(points: np.ndarray, markers: np.ndarray, ring_gain: float) -> float:
    # outward move only: the common ring sits at ring_gain times the largest
    # non-marker radius, but never below where the outermost point already is
    # (a near-unity gain on square QAM must leave the corners untouched)
    radii = np.abs(points)
    return max(ring_gain * np.delete(radii, markers).max(), radii[markers].max())


def _marker_ring(points: np.ndarray, markers: np.ndarray, target: float) -> np.ndarray:
    # markers land on an exactly 4-fold-symmetric ring: the pi/2-spaced
    # angle lattice nearest their current angles, so every marker's 4th
    # power carries the same constant and blind phase estimation on the
    # ring is unbiased.  Points already symmetric (square QAM corners)
    # are left on their own angles.
    ang = np.angle(points[markers])
    base = np.angle(np.exp(4j * ang).sum()) / 4.0
    order = np.argsort(np.mod(ang - base, 2.0 * math.pi))
    slots = base + 0.5 * math.pi * np.arange(4)
    ring = points[markers].copy()
    ring[order] = target * np.exp(1j * slots)
    return ring


def add_ring_markers(c: Constellation, ring_gain: float = 1.15) -> Constellation:
    """Return ``c`` with its four outermost points moved onto a marker ring.

    The ring radius is ``ring_gain`` (finite, > 1) times the largest
    non-marker radius (measured before the move), or the current outermost
    radius if that is already larger, so markers only ever move outward.
    Marker angles are snapped to the nearest exactly quarter-turn-symmetric
    set (identity for square QAM corners), which makes the ring's 4th power
    carry a single label-independent constant.  The whole constellation is
    then renormalized to unit power, which scales every point uniformly.
    Labels and ``design_snr_db`` are kept; the four marker indices replace
    any that ``c`` carried.  ``c`` needs more than four points, so that some
    point stays inside the ring.
    """
    if not 1.0 < ring_gain < math.inf:
        raise ValueError("ring_gain must be finite and > 1")
    if c.points.size <= 4:
        raise ValueError(f"ring markers need more than 4 points, got {c.points.size}")
    markers = _marker_candidates(c.points)
    # move with the outermost point at radius 1 (so the target is at most
    # ring_gain) and renormalize with the ring at radius 1 (so no squared
    # radius overflows): every finite ring_gain gives finite points
    points = c.points / np.abs(c.points).max()
    target = _marker_target(points, markers, ring_gain)
    points[markers] = _marker_ring(points, markers, target)
    return c.replace(
        points=normalized(points / target),
        marker_indices=frozenset(int(i) for i in markers),
    )


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def save_constellation(c: Constellation, path) -> None:
    """Write ``c`` in the text interchange format.

    One point per line, ``<m-bit label> <I> <Q>``, with I and Q in decimal
    at 17 significant digits (enough for an exact round trip).  Lines
    starting with ``#`` are comments; the first names the point count,
    and header comments carry the metadata::

        # shapelink constellation, 64 points, unit average power
        # design_snr_db: 12.0
        # marker_indices: 3 17 42 60

    The point set is at unit average power; :func:`load_constellation`
    validates every :class:`Constellation` invariant on reading.
    """
    lines = [f"# shapelink constellation, {c.points.size} points, unit average power"]
    if c.design_snr_db is not None:
        lines.append(f"# design_snr_db: {c.design_snr_db!r}")
    if c.marker_indices:
        lines.append("# marker_indices: " + " ".join(str(i) for i in sorted(c.marker_indices)))
    for lab, p in zip(c.labels, c.points):
        lines.append(f"{lab} {p.real:.17g} {p.imag:.17g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_constellation(path) -> Constellation:
    """Read the text interchange format and validate all invariants."""
    labels = []
    pts = []
    design = None
    markers: frozenset = frozenset()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("design_snr_db:"):
                    design = float(body.split(":", 1)[1])
                elif body.startswith("marker_indices:"):
                    markers = frozenset(int(t) for t in body.split(":", 1)[1].split())
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected '<label> <I> <Q>'")
            labels.append(parts[0])
            pts.append(complex(float(parts[1]), float(parts[2])))
    return Constellation(
        points=np.asarray(pts),
        labels=tuple(labels),
        marker_indices=markers,
        design_snr_db=design,
    )


_BUILTIN_FILES = {
    "awgn12": "awgn12.txt",
    "papr12": "papr12.txt",
    "system12": "system12.txt",
}


def builtin_names() -> tuple:
    """Names accepted by :func:`load_builtin`."""
    return ("square64",) + tuple(sorted(_BUILTIN_FILES))


def load_builtin(name: str) -> Constellation:
    """Load one of the shipped constellations.

    ``square64`` is constructed exactly; ``awgn12``, ``papr12`` and
    ``system12`` are the three shaping stages tailored at 12 dB, shipped as
    package data (regenerable with the `shape` CLI verb).
    """
    if name == "square64":
        return square64()
    try:
        fname = _BUILTIN_FILES[name]
    except KeyError:
        raise ValueError(f"unknown builtin constellation {name!r}") from None
    from importlib.resources import files

    return load_constellation(files("shapelink.data").joinpath(fname))
