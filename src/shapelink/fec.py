"""Soft-decision LDPC decoding and throughput accounting.

Each :class:`ParityCheckMatrix` builds one padded Tanner-graph layout
when it is made (every check's columns, every column's edge slots); the
syndrome, the dense form and the decoder all read it.

The decoder is a flooding-schedule normalized min-sum (factor 0.75, up
to 50 iterations by default) operating on batches of codewords at once;
check-to-variable messages stay in the (batch, checks, row degree)
layout across iterations, and codewords whose syndrome reaches zero are
frozen immediately.  Parity-check matrices travel in a plain-text
adjacency format (see :func:`save_alist` / :func:`load_alist`) rather
than being embedded.

The outer hard-decision code is modeled, not implemented: a pre-FEC BER
threshold gate plus a fixed rate deduction (:func:`post_fec_gate`,
:func:`net_throughput`).

LLR sign convention matches the demapper: positive means bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ParityCheckMatrix",
    "DecodeResult",
    "SystematicEncoder",
    "ldpc_decode",
    "systematic_encoder",
    "make_regular_ldpc",
    "hamming74",
    "load_alist",
    "save_alist",
    "select_rate",
    "net_throughput",
    "ber_measure",
    "post_fec_gate",
]


# ---------------------------------------------------------------------------
# matrix type and I/O


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary parity-check matrix as per-row column index lists.

    ``row_cols[r]`` holds the sorted column positions of the ones in
    check r.  Duplicate entries within a row are invalid (they would
    cancel over GF(2)); every check must involve at least one column,
    every column must participate in at least one check, and there must
    be more columns than rows (a code with nonzero-rate systematic form).
    """

    rows: int
    cols: int
    row_cols: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols <= self.rows:
            raise ValueError("need cols > rows >= 1")
        if len(self.row_cols) != self.rows:
            raise ValueError("row_cols length must equal rows")
        seen = np.zeros(self.cols, dtype=bool)
        canon = []
        for r, entries in enumerate(self.row_cols):
            entries = tuple(int(c) for c in entries)
            if not entries:
                raise ValueError(f"row {r} is an empty check")
            if len(set(entries)) != len(entries):
                raise ValueError(f"duplicate column in row {r}")
            if not all(0 <= c < self.cols for c in entries):
                raise ValueError(f"column index out of range in row {r}")
            seen[list(entries)] = True
            canon.append(tuple(sorted(entries)))
        if not seen.all():
            raise ValueError("every column must appear in at least one check")
        object.__setattr__(self, "row_cols", tuple(canon))
        # the Tanner-graph layout: _row_ix[r] lists check r's columns padded
        # with `cols`, a column that always reads as zero; _col_slot[c] lists
        # the flat _row_ix slots of column c's edges in row order, padded with
        # _row_ix.size, a slot that always reads as zero
        row_deg = np.array([len(r) for r in canon])
        row_ix = np.full((self.rows, row_deg.max()), self.cols, dtype=np.intp)
        row_ix[np.arange(row_deg.max()) < row_deg[:, None]] = np.concatenate(canon)
        slots = np.flatnonzero(row_ix < self.cols)
        slot_col = row_ix.ravel()[slots]
        col_deg = np.bincount(slot_col, minlength=self.cols)
        col_slot = np.full((self.cols, col_deg.max()), row_ix.size, dtype=np.intp)
        col_slot[np.arange(col_deg.max()) < col_deg[:, None]] = slots[
            np.argsort(slot_col, kind="stable")
        ]
        row_ix.flags.writeable = col_slot.flags.writeable = False
        object.__setattr__(self, "_row_ix", row_ix)
        object.__setattr__(self, "_col_slot", col_slot)

    @property
    def n_edges(self) -> int:
        return sum(len(r) for r in self.row_cols)

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.rows, self.cols + 1), dtype=np.uint8)
        h[np.arange(self.rows)[:, None], self._row_ix] = 1
        return np.ascontiguousarray(h[:, :-1])

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """H x mod 2 of (batch, cols) words: a (batch, rows) array."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.cols:
            raise ValueError(f"bits must have shape (batch, {self.cols}), got {bits.shape}")
        padded = np.zeros((bits.shape[0], self.cols + 1), dtype=np.uint8)
        padded[:, :-1] = bits
        return np.bitwise_xor.reduce(padded[:, self._row_ix], axis=2) & 1


def save_alist(h: ParityCheckMatrix, path) -> None:
    """Write the adjacency text format.

    Line 1: ``cols rows``; line 2: ``max_col_degree max_row_degree``;
    line 3: per-column degrees; line 4: per-row degrees; then one line
    per column with its 1-based row positions, then one line per row
    with its 1-based column positions.  (Degenerate zero entries are not
    padded; lines may be shorter than the maxima.)
    """
    width, pad = h._row_ix.shape[1], h._row_ix.size
    col_rows = [[s // width + 1 for s in slots if s < pad] for slots in h._col_slot.tolist()]
    row_cols = [[c + 1 for c in r] for r in h.row_cols]
    lines = [
        f"{h.cols} {h.rows}",
        f"{max(len(c) for c in col_rows)} {max(len(r) for r in row_cols)}",
        " ".join(str(len(c)) for c in col_rows),
        " ".join(str(len(r)) for r in row_cols),
    ]
    lines += [" ".join(map(str, c)) for c in col_rows]
    lines += [" ".join(map(str, r)) for r in row_cols]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_alist(path) -> ParityCheckMatrix:
    """Parse the adjacency text format written by :func:`save_alist`."""
    with open(path, "r", encoding="ascii") as fh:
        chunks = [line.split() for line in fh if line.strip()]
    try:
        cols, rows = int(chunks[0][0]), int(chunks[0][1])
        col_deg = [int(x) for x in chunks[2]]
        row_deg = [int(x) for x in chunks[3]]
        if len(col_deg) != cols or len(row_deg) != rows:
            raise IndexError
        col_lines = chunks[4 : 4 + cols]
        row_lines = chunks[4 + cols : 4 + cols + rows]
        if len(row_lines) != rows:
            raise IndexError
        row_cols = []
        for r, line in enumerate(row_lines):
            entries = [int(x) - 1 for x in line]
            if len(entries) != row_deg[r]:
                raise ValueError(f"row {r} degree mismatch")
            row_cols.append(tuple(entries))
        # cross-check the column adjacency against the row adjacency: a
        # column line must hold its degree's count of distinct rows, and
        # those rows must be the column's ones in the dense matrix
        h = ParityCheckMatrix(rows=rows, cols=cols, row_cols=tuple(row_cols))
        dense = h.to_dense()
        lengths = np.array([len(line) for line in col_lines])
        col_of = np.repeat(np.arange(cols), lengths)
        row_of = np.array([int(x) - 1 for line in col_lines for x in line], dtype=np.intp)
        inside = (row_of >= 0) & (row_of < rows)
        named = np.zeros_like(dense)
        named[row_of[inside], col_of[inside]] = 1
        bad = (named != dense).any(axis=0)
        bad |= (lengths != col_deg) | (lengths != dense.sum(axis=0))
        bad[col_of[~inside]] = True
        if bad.any():
            raise ValueError(f"column {np.argmax(bad)} adjacency mismatch")
        return h
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed parity-check file: {exc}") from exc


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class DecodeResult:
    """Hard decisions plus convergence data.

    ``iterations`` counts syndrome checks: 1 means the channel decisions
    were already a codeword.  Every field carries the leading batch axis
    of the input (``syndrome_ok`` per codeword).
    """

    bits: np.ndarray
    iterations: np.ndarray
    syndrome_ok: np.ndarray


def ldpc_decode(
    llrs: np.ndarray,
    h: ParityCheckMatrix,
    max_iters: int = 50,
) -> DecodeResult:
    """Normalized min-sum decoding, flooding schedule, batched.

    ``llrs`` is (batch, cols), one row per codeword (``llr[None]`` for
    one); positive LLR means bit 0.  Each iteration starts with a
    syndrome check (so an already-valid word returns after 1 iteration
    with no message passing); codewords that reach a zero syndrome are
    frozen and reported with the iteration count at which they converged.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != h.cols:
        raise ValueError(f"LLRs must have shape (batch, {h.cols}), got {llrs.shape}")
    if not np.all(np.isfinite(llrs)):
        raise ValueError("LLRs must be finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    b = llrs.shape[0]
    row_ix, col_slot = h._row_ix, h._col_slot

    # the padding column is a bit known to be 0: its LLR of +inf never sets
    # a check's smallest magnitude and never flips its sign
    total = np.concatenate([llrs, np.full((b, 1), np.inf)], axis=1)
    c2v = np.zeros((b,) + row_ix.shape)
    done = np.zeros(b, dtype=bool)
    iters = np.full(b, max_iters, dtype=np.int64)
    final_bits = np.zeros((b, h.cols), dtype=np.uint8)
    scale, clip = 0.75, 1e3

    for it in range(1, max_iters + 1):
        act = np.flatnonzero(~done)
        bits = (total[act, :-1] < 0).astype(np.uint8)
        ok = ~h.syndrome(bits).any(axis=1)
        hit = act[ok]
        if hit.size:
            final_bits[hit] = bits[ok]
            iters[hit] = it
            done[hit] = True
        if done.all() or it == max_iters:
            break
        act = np.flatnonzero(~done)

        v2c = total[act][:, row_ix] - c2v[act]
        mag = np.abs(v2c)
        # the layout is at least two slots wide: with one column per check,
        # some column would sit outside every check, as cols > rows
        least = np.partition(mag, 1, axis=2)
        min1, min2 = least[..., :1], least[..., 1:2]
        neg = v2c < 0
        others_neg = np.bitwise_xor.reduce(neg, axis=2, keepdims=True) ^ neg
        msg = np.where(others_neg, -scale, scale) * np.where(mag == min1, min2, min1)
        np.clip(msg, -clip, clip, out=msg)
        c2v[act] = msg
        # one trailing zero slot for col_slot's padding
        slot_msg = np.concatenate([msg.reshape(act.size, -1), np.zeros((act.size, 1))], axis=1)
        # one slot at a time, in row order: np.sum may reassociate the adds
        acc = slot_msg[:, col_slot[:, 0]]
        for slot in col_slot.T[1:]:
            acc += slot_msg[:, slot]
        total[act, :-1] = llrs[act] + acc

    undone = ~done
    if undone.any():
        final_bits[undone] = (total[undone, :-1] < 0).astype(np.uint8)
    return DecodeResult(bits=final_bits, iterations=iters, syndrome_ok=done)


# ---------------------------------------------------------------------------
# encoding


@dataclass(frozen=True)
class SystematicEncoder:
    """GF(2) systematic encoder for a loaded parity-check matrix.

    ``info_positions`` are the codeword columns that carry information
    bits (the non-pivot columns of the row-reduced matrix); the
    remaining ``parity_positions`` are solved from the checks.  ``rank``
    may be below the row count for redundant matrices, in which case the
    information length exceeds cols - rows.

    Parity bits come from one float32 (BLAS) product of the information
    bits with the 0/1 solver; its parity is the low bit of the integer
    sum.  Every partial sum is an integer of at most k, so the product is
    exact while k < 2**24, which :func:`systematic_encoder` enforces.
    """

    h: ParityCheckMatrix
    info_positions: np.ndarray
    parity_positions: np.ndarray
    _solver_t: np.ndarray  # (k, n_parity) float32 0/1, GF(2) solver transposed

    @property
    def k(self) -> int:
        return self.info_positions.size

    @property
    def rank(self) -> int:
        return self.parity_positions.size

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """(batch, k) information bits -> (batch, cols) codewords."""
        info = np.asarray(info_bits, dtype=np.uint8)
        if info.ndim != 2 or info.shape[1] != self.k:
            raise ValueError(f"info bits must have shape (batch, {self.k}), got {info.shape}")
        out = np.zeros((info.shape[0], self.h.cols), dtype=np.uint8)
        out[:, self.info_positions] = info
        out[:, self.parity_positions] = (info.astype(np.float32) @ self._solver_t).astype(np.int64) & 1
        return out


#: information lengths from here on can round the float32 parity product
_MAX_FLOAT32_EXACT_K = 2**24


def systematic_encoder(h: ParityCheckMatrix) -> SystematicEncoder:
    """Row-reduce H over GF(2) and return the systematic encoder.

    Raises :class:`ConfigurationError` when the information length k
    reaches 2**24, where the float32 parity product is no longer exact.
    """
    m = h.to_dense().astype(np.uint8)
    rows, cols = m.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hot = np.flatnonzero(m[r:, c]) + r
        if hot.size == 0:
            continue
        if hot[0] != r:
            m[[r, hot[0]]] = m[[hot[0], r]]
        elim = np.flatnonzero(m[:, c])
        elim = elim[elim != r]
        m[elim] ^= m[r]
        pivot_cols.append(c)
        r += 1
    pivots = np.array(pivot_cols, dtype=np.int64)
    info = np.setdiff1d(np.arange(cols), pivots)
    if info.size >= _MAX_FLOAT32_EXACT_K:
        raise ConfigurationError(
            f"{info.size} information bits reach the float32 encoder's exact limit "
            f"of {_MAX_FLOAT32_EXACT_K}"
        )
    # reduced rows: pivot_bit = sum of that row's info-column bits
    solver_t = np.ascontiguousarray(m[: pivots.size][:, info].T, dtype=np.float32)
    return SystematicEncoder(
        h=h, info_positions=info, parity_positions=pivots, _solver_t=solver_t
    )


# ---------------------------------------------------------------------------
# code construction


def make_regular_ldpc(
    n: int, row_weight: int = 6, col_weight: int = 3, seed: int = 0
) -> ParityCheckMatrix:
    """Random regular code from the socket-matching ensemble.

    Every column gets exactly ``col_weight`` checks and rows average
    ``row_weight`` entries; column assignments that would duplicate a
    row entry are resampled.  Deterministic for a fixed seed.
    """
    if n * col_weight % row_weight:
        raise ValueError("n * col_weight must be divisible by row_weight")
    rows = n * col_weight // row_weight
    if rows >= n:
        raise ValueError("the configuration has a nonpositive code rate")
    rng = np.random.default_rng(seed)
    sockets = np.repeat(np.arange(rows), row_weight)
    rng.shuffle(sockets)
    cols = sockets.reshape(n, col_weight)
    # repair duplicate row entries within a column by swapping one of the
    # clashing sockets with a random socket from another column
    for _ in range(100 * n):
        dup = [j for j in range(n) if len(set(cols[j])) != col_weight]
        if not dup:
            break
        for j in dup:
            vals, counts = np.unique(cols[j], return_counts=True)
            bad = int(np.flatnonzero(cols[j] == vals[np.argmax(counts)])[0])
            k = int(rng.integers(n))
            s = int(rng.integers(col_weight))
            if k == j or cols[k, s] in cols[j]:
                continue
            if cols[j, bad] in np.delete(cols[k], s):
                continue
            cols[j, bad], cols[k, s] = cols[k, s], cols[j, bad]
    else:
        raise RuntimeError("could not repair the regular matrix draw")
    row_cols = [[] for _ in range(rows)]
    for j in range(n):
        for r in cols[j]:
            row_cols[r].append(j)
    return ParityCheckMatrix(
        rows=rows, cols=n, row_cols=tuple(tuple(r) for r in row_cols)
    )


def hamming74() -> ParityCheckMatrix:
    """The (7,4) single-error-correcting code with one redundant check.

    Rows 0..2 are the positional parity checks; row 3 is their GF(2)
    sum.  The extra row leaves the codebook unchanged (rank stays 3)
    but breaks the message-passing oscillation that otherwise traps
    min-sum on errors in the position shared by all three checks, so
    iterative decoding matches maximum-likelihood on every single-error
    pattern.
    """
    return ParityCheckMatrix(
        rows=4,
        cols=7,
        row_cols=((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6), (0, 1, 3, 6)),
    )


# ---------------------------------------------------------------------------
# rate and throughput arithmetic


def select_rate(
    gmi_per_4d: float,
    available_rates,
    bits_per_4d: float,
) -> tuple[Fraction, bool]:
    """Largest code rate supported by the measured information rate.

    Returns ``(rate, feasible)`` where feasibility means
    rate x bits_per_4d <= gmi_per_4d (``bits_per_4d`` is 2m for a
    2^m-point constellation, and must be positive and finite); with no
    feasible entry the lowest rate is returned flagged infeasible.
    """
    if not 0 < bits_per_4d < math.inf:
        raise ValueError(f"bits_per_4d must be positive and finite, got {bits_per_4d!r}")
    rates = sorted(Fraction(r) for r in available_rates)
    if not rates:
        raise ValueError("available_rates must be nonempty")
    feasible = [r for r in rates if float(r) * bits_per_4d <= gmi_per_4d]
    if feasible:
        return feasible[-1], True
    return rates[0], False


def net_throughput(
    per_channel_info_bits_per_symbol,
    symbol_rate: float,
    bch_overhead: float,
) -> tuple[list, float]:
    """Per-channel net bit rates (Gb/s) and the total (Tb/s).

    The outer-code ``bch_overhead`` is always deducted: rate = bits x
    symbol_rate x (1 - bch_overhead), with the overhead in [0, 1).  Pass 0
    for information rates that are already net of all coding.
    """
    if symbol_rate <= 0:
        raise ValueError("symbol_rate must be positive")
    if not 0 <= bch_overhead < 1:
        raise ValueError(f"bch_overhead must be in [0, 1), got {bch_overhead!r}")
    factor = 1.0 - bch_overhead
    per_channel = [
        float(bits) * symbol_rate * factor / 1e9
        for bits in per_channel_info_bits_per_symbol
    ]
    return per_channel, sum(per_channel) / 1e3


def ber_measure(decided_bits: np.ndarray, reference_bits: np.ndarray) -> float:
    """Bit error ratio between two equal-length bit arrays."""
    a = np.asarray(decided_bits, dtype=np.uint8).ravel()
    b = np.asarray(reference_bits, dtype=np.uint8).ravel()
    if a.size != b.size:
        raise ValueError("bit sequences must have equal length")
    if a.size == 0:
        raise ValueError("bit sequences must be nonempty")
    return float(np.mean(a != b))


def post_fec_gate(ber: float, threshold: float = 3e-4) -> bool:
    """True iff the pre-FEC BER is strictly below the outer-code threshold.

    Strict: a BER exactly at the threshold fails the gate.
    """
    if ber < 0 or threshold <= 0:
        raise ValueError("ber must be >= 0 and threshold > 0")
    return ber < threshold
