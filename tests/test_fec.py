"""Decoder, encoder, matrix I/O, and throughput accounting tests."""

import itertools
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapelink import fec
from shapelink.errors import ConfigurationError


def _hamming_codebook():
    enc = fec.systematic_encoder(fec.hamming74())
    words = [
        enc.encode(np.array(bits, dtype=np.uint8)[None])[0]
        for bits in itertools.product([0, 1], repeat=4)
    ]
    return np.array(words)


# ---------------------------------------------------------------------------
# parity-check matrix type


def test_matrix_rejects_duplicate_row_entry():
    with pytest.raises(ValueError):
        fec.ParityCheckMatrix(1, 4, ((0, 0, 1),))


def test_matrix_requires_more_cols_than_rows():
    with pytest.raises(ValueError):
        fec.ParityCheckMatrix(4, 4, ((0,), (1,), (2,), (3,)))


def test_matrix_requires_full_column_coverage():
    with pytest.raises(ValueError):
        fec.ParityCheckMatrix(1, 3, ((0, 1),))


def test_matrix_rejects_empty_check():
    with pytest.raises(ValueError, match="row 1"):
        fec.ParityCheckMatrix(rows=2, cols=3, row_cols=((0, 1, 2), ()))


def test_matrix_dense_matches_rows():
    h = fec.hamming74()
    dense = h.to_dense()
    assert dense.shape == (4, 7)
    for r, cols in enumerate(h.row_cols):
        assert set(np.flatnonzero(dense[r])) == set(cols)
    assert h.n_edges == dense.sum()


def test_syndrome_flags_single_flip():
    h = fec.hamming74()
    word = np.zeros(7, dtype=np.uint8)
    assert not h.syndrome(word[None]).any()
    word[2] = 1
    syn = h.syndrome(word[None])[0]
    assert set(np.flatnonzero(syn)) == {0, 1}


# ---------------------------------------------------------------------------
# alist text round trip


def test_alist_round_trip(tmp_path):
    for h in (fec.hamming74(), fec.make_regular_ldpc(48, 6, 3, seed=3)):
        path = tmp_path / "h.alist"
        fec.save_alist(h, path)
        back = fec.load_alist(path)
        assert back.rows == h.rows and back.cols == h.cols
        assert back.row_cols == h.row_cols


def test_alist_bytes_match_a_dense_reference(tmp_path):
    # the column lines come from the Tanner layout; a writer that reads them
    # off the dense matrix must produce the same file
    for h in (fec.hamming74(), fec.make_regular_ldpc(1200, row_weight=6, col_weight=3, seed=0)):
        dense = h.to_dense()
        col_rows = [np.flatnonzero(dense[:, c]) + 1 for c in range(h.cols)]
        row_cols = [np.flatnonzero(dense[r]) + 1 for r in range(h.rows)]
        lines = [
            f"{h.cols} {h.rows}",
            f"{max(map(len, col_rows))} {max(map(len, row_cols))}",
            " ".join(str(len(c)) for c in col_rows),
            " ".join(str(len(r)) for r in row_cols),
        ]
        lines += [" ".join(map(str, c)) for c in col_rows + row_cols]
        path = tmp_path / "h.alist"
        fec.save_alist(h, path)
        assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"


@st.composite
def _row_lists(draw):
    """(rows, cols, row_cols) meeting every matrix rule but the nonempty
    check rule: each column in some check, no duplicates, cols > rows."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(rows + 1, rows + 10))
    row_cols = [
        draw(st.lists(st.integers(0, cols - 1), max_size=cols, unique=True))
        for _ in range(rows)
    ]
    covered = set().union(*row_cols)
    for c in range(cols):
        if c not in covered:
            row_cols[draw(st.integers(0, rows - 1))].append(c)
    return rows, cols, tuple(map(tuple, row_cols))


@settings(max_examples=200, deadline=None)
@given(spec=_row_lists())
def test_alist_round_trip_holds_for_every_valid_matrix(spec):
    rows, cols, row_cols = spec
    try:
        h = fec.ParityCheckMatrix(rows, cols, row_cols)
    except ValueError:
        assert not all(row_cols)  # an empty check, which alist cannot carry
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.alist")
        fec.save_alist(h, path)
        assert fec.load_alist(path) == h
    # the padded layout against a per-row loop
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for r, entries in enumerate(row_cols):
        dense[r, list(entries)] = 1
    words = np.random.default_rng(rows * 16 + cols).integers(0, 2, size=(5, cols))
    assert np.array_equal(h.to_dense(), dense)
    assert np.array_equal(h.syndrome(words), words @ dense.T % 2)


def test_alist_rejects_truncated(tmp_path):
    path = tmp_path / "h.alist"
    fec.save_alist(fec.hamming74(), path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-2]))
    with pytest.raises(ValueError):
        fec.load_alist(path)


def test_alist_rejects_degree_mismatch(tmp_path):
    path = tmp_path / "h.alist"
    fec.save_alist(fec.hamming74(), path)
    lines = path.read_text().splitlines()
    lines[3] = "4 4 4 3"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError):
        fec.load_alist(path)


@pytest.mark.parametrize("corrupt", ["max_degrees", "one_max_degree", "line_after_rows", "size"])
def test_alist_rejects_header_and_trailing_lines_that_disagree(tmp_path, corrupt):
    # hamming74's file: "7 4", then its maximum degrees "4 4"
    path = tmp_path / "h.alist"
    fec.save_alist(fec.hamming74(), path)
    lines = path.read_text().splitlines()
    lines = {
        "max_degrees": lines[:1] + ["9 9"] + lines[2:],
        "one_max_degree": lines[:1] + ["4"] + lines[2:],
        "line_after_rows": lines + ["1 2 3"],
        "size": ["7 4 1"] + lines[1:],
    }[corrupt]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="malformed parity-check file"):
        fec.load_alist(path)


@pytest.mark.parametrize("corrupt", ["wrong_row", "repeated_row", "row_zero", "row_past_end"])
def test_alist_rejects_column_line_that_disagrees_with_rows(tmp_path, corrupt):
    # the column lines are checked against the row lines; the first
    # column whose line names a row it is not in is reported
    h = fec.make_regular_ldpc(48, 6, 3, seed=3)
    path = tmp_path / "h.alist"
    fec.save_alist(h, path)
    lines = path.read_text().splitlines()
    for c in (5, 9):
        named = [int(x) for x in lines[4 + c].split()]
        outside = min(set(range(1, h.rows + 1)) - set(named))
        named[0] = {
            "wrong_row": outside,
            "repeated_row": named[1],
            "row_zero": 0,
            "row_past_end": h.rows + 1,
        }[corrupt]
        lines[4 + c] = " ".join(map(str, named))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="column 5 adjacency mismatch"):
        fec.load_alist(path)


def test_alist_column_lines_may_list_rows_in_any_order(tmp_path):
    h = fec.make_regular_ldpc(48, 6, 3, seed=3)
    path = tmp_path / "h.alist"
    fec.save_alist(h, path)
    lines = path.read_text().splitlines()
    for c in range(h.cols):
        lines[4 + c] = " ".join(reversed(lines[4 + c].split()))
    path.write_text("\n".join(lines) + "\n")
    assert fec.load_alist(path) == h


# ---------------------------------------------------------------------------
# systematic encoder


def test_hamming_codebook_structure():
    words = _hamming_codebook()
    assert len({tuple(w) for w in words}) == 16
    h = fec.hamming74()
    assert not h.syndrome(words).any()
    dmin = min(
        int(np.sum(a != b)) for i, a in enumerate(words) for b in words[i + 1 :]
    )
    assert dmin == 3


def test_encoder_redundant_row_keeps_k():
    # the fourth check row is dependent, so rank 3 and four info bits
    enc = fec.systematic_encoder(fec.hamming74())
    assert enc.k == 4
    assert enc.rank == 3


def test_encoder_batch_and_single_shapes():
    enc = fec.systematic_encoder(fec.hamming74())
    one = enc.encode(np.array([1, 0, 1, 1], dtype=np.uint8)[None])[0]
    assert one.shape == (7,)
    many = enc.encode(np.tile([1, 0, 1, 1], (5, 1)))
    assert many.shape == (5, 7)
    assert np.array_equal(many[0], one)


def test_encoder_rejects_wrong_length():
    enc = fec.systematic_encoder(fec.hamming74())
    with pytest.raises(ValueError):
        enc.encode(np.zeros(5, dtype=np.uint8)[None])


def test_encoder_valid_on_random_regular_code():
    h = fec.make_regular_ldpc(120, 6, 3, seed=5)
    enc = fec.systematic_encoder(h)
    assert enc.k == h.cols - enc.rank
    rng = np.random.default_rng(0)
    cws = enc.encode(rng.integers(0, 2, size=(16, enc.k)).astype(np.uint8))
    assert not h.syndrome(cws).any()


def test_float_encoder_matches_uint8_product():
    # the float32 BLAS product must reproduce the GF(2) uint8 product
    # (info @ S.T) % 2 bit for bit (its partial sums are integers <= k = 600,
    # exact in float32); uint8 sums wrap modulo 256, which keeps their
    # parity, so the uint8 form is a valid reference at k = 600
    h = fec.make_regular_ldpc(1200, 6, 3, seed=2)
    enc = fec.systematic_encoder(h)
    solver = enc._solver_t.T.astype(np.uint8)
    assert set(np.unique(enc._solver_t)) <= {0.0, 1.0}
    info = np.random.default_rng(4).integers(0, 2, size=(81, enc.k)).astype(np.uint8)
    want = np.zeros((81, h.cols), dtype=np.uint8)
    want[:, enc.info_positions] = info
    want[:, enc.parity_positions] = (info @ solver.T) % 2
    got = enc.encode(info)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)
    assert not h.syndrome(got).any()


def test_encoder_parity_matches_fmod_form():
    # the low bit of the encoder's integer-valued float32 product is its
    # remainder mod 2, so the parity columns equal the np.fmod(..., 2.0)
    # form, taken here in float64
    h = fec.make_regular_ldpc(1200, 6, 3, seed=2)
    enc = fec.systematic_encoder(h)
    info = np.random.default_rng(7).integers(0, 2, size=(81, enc.k)).astype(np.uint8)
    want = np.fmod(info.astype(np.float64) @ enc._solver_t, 2.0).astype(np.uint8)
    assert np.array_equal(enc.encode(info)[:, enc.parity_positions], want)


def test_encoder_rejects_k_at_the_float32_exact_limit(monkeypatch):
    # the limit is 2**24; lowered here so that no huge code is built
    h = fec.make_regular_ldpc(120, 6, 3, seed=5)
    k = fec.systematic_encoder(h).k
    monkeypatch.setattr(fec, "_MAX_FLOAT32_EXACT_K", k + 1)
    assert fec.systematic_encoder(h).k == k
    monkeypatch.setattr(fec, "_MAX_FLOAT32_EXACT_K", k)
    with pytest.raises(ConfigurationError, match="exact limit"):
        fec.systematic_encoder(h)


# ---------------------------------------------------------------------------
# decoding


def test_decode_valid_word_single_iteration():
    res = fec.ldpc_decode(np.full(7, 20.0)[None], fec.hamming74())
    assert np.array_equal(res.bits[0], np.zeros(7, dtype=np.uint8))
    assert res.iterations[0] == 1
    assert res.syndrome_ok[0]


def test_decode_input_validation():
    h = fec.hamming74()
    with pytest.raises(ValueError):
        fec.ldpc_decode(np.zeros((1, 6)), h)
    with pytest.raises(ValueError):
        fec.ldpc_decode(np.full((1, 7), np.nan), h)
    with pytest.raises(ValueError):
        fec.ldpc_decode(np.zeros((1, 7)), h, max_iters=0)


@pytest.mark.parametrize("shape", [(7,), (2, 3, 7)], ids=["1d", "3d"])
def test_decode_takes_only_batch_by_cols(shape):
    with pytest.raises(ValueError, match=r"shape \(batch, 7\)"):
        fec.ldpc_decode(np.zeros(shape), fec.hamming74())


@pytest.mark.parametrize("shape", [(4,), (2, 3, 4)], ids=["1d", "3d"])
def test_encode_takes_only_batch_by_k(shape):
    with pytest.raises(ValueError, match=r"shape \(batch, 4\)"):
        fec.systematic_encoder(fec.hamming74()).encode(np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("shape", [(7,), (2, 3, 7)], ids=["1d", "3d"])
def test_syndrome_takes_only_batch_by_cols(shape):
    with pytest.raises(ValueError, match=r"shape \(batch, 7\)"):
        fec.hamming74().syndrome(np.zeros(shape, dtype=np.uint8))


def test_single_flip_matches_exhaustive_ml():
    # oracle: maximize sum(llr * (1 - 2b)) over all 16 codewords
    h = fec.hamming74()
    words = _hamming_codebook()
    signs = 1.0 - 2.0 * words.astype(float)
    for flip_mag in (6.0, 3.0):
        for w in words:
            base = 6.0 * (1.0 - 2.0 * w.astype(float))
            for pos in range(7):
                llr = base.copy()
                llr[pos] = -np.sign(base[pos]) * flip_mag
                out = fec.ldpc_decode(llr[None], h)
                ml = words[int(np.argmax(signs @ llr))]
                assert out.syndrome_ok[0]
                assert np.array_equal(out.bits[0], ml)
                assert np.array_equal(out.bits[0], w)


def test_random_llrs_do_not_false_converge():
    h = fec.make_regular_ldpc(1000, 6, 3, seed=1)
    rng = np.random.default_rng(7)
    res = fec.ldpc_decode((rng.normal(size=1000) * 0.5)[None], h, max_iters=25)
    assert not res.syndrome_ok[0]
    assert res.iterations[0] == 25
    assert h.syndrome(res.bits[0][None]).any()


def test_converged_output_is_valid_codeword():
    h = fec.make_regular_ldpc(600, 6, 3, seed=2)
    enc = fec.systematic_encoder(h)
    rng = np.random.default_rng(11)
    cw = enc.encode(rng.integers(0, 2, size=(40, enc.k)).astype(np.uint8))
    x = 1.0 - 2.0 * cw.astype(float)
    y = x + 0.7 * rng.normal(size=x.shape)
    res = fec.ldpc_decode(2.0 * y / 0.49, h)
    ok = np.asarray(res.syndrome_ok)
    assert ok.any()
    assert not h.syndrome(res.bits[ok]).any()


def test_batched_decode_matches_single():
    h = fec.hamming74()
    rng = np.random.default_rng(3)
    llrs = rng.normal(size=(12, 7)) * 3.0
    batch = fec.ldpc_decode(llrs, h, max_iters=20)
    for i in range(12):
        one = fec.ldpc_decode(llrs[i][None], h, max_iters=20)
        assert np.array_equal(batch.bits[i], one.bits[0])
        assert batch.iterations[i] == one.iterations[0]
        assert batch.syndrome_ok[i] == one.syndrome_ok[0]


def _reference_edge_layout(h):
    edge_col = np.concatenate([np.array(r, dtype=np.int64) for r in h.row_cols])
    degrees = np.array([len(r) for r in h.row_cols])
    max_deg = degrees.max()
    row_edge = np.full((h.rows, max_deg), -1, dtype=np.int64)
    e = 0
    for r, d in enumerate(degrees):
        row_edge[r, :d] = np.arange(e, e + d)
        e += d
    return edge_col, row_edge


def _reference_decode(llrs, h, max_iters=50, normalization=0.75):
    """The per-edge decoder that the padded-layout decoder replaced, kept
    verbatim as the reference its output must equal bit for bit."""
    llrs = np.asarray(llrs, dtype=np.float64)
    single = llrs.ndim == 1
    llrs = np.atleast_2d(llrs)
    b = llrs.shape[0]

    edge_col, row_edge = _reference_edge_layout(h)
    n_edges = edge_col.size
    pad = row_edge < 0
    live_slots = ~pad
    # row_edge flattened over real slots visits every edge exactly once
    slot_to_edge = row_edge[live_slots]
    row_edge_safe = np.where(pad, 0, row_edge)
    deg_ix = np.arange(row_edge.shape[1])

    c2v = np.zeros((b, n_edges))
    total = llrs.copy()
    done = np.zeros(b, dtype=bool)
    iters = np.full(b, max_iters, dtype=np.int64)
    final_bits = np.zeros((b, h.cols), dtype=np.uint8)
    clip = 1e3

    for it in range(1, max_iters + 1):
        act = np.flatnonzero(~done)
        bits = (total[act] < 0).astype(np.uint8)
        par = bits[:, edge_col][:, row_edge_safe]
        par[:, pad] = 0
        ok = ~np.any(par.sum(axis=2) % 2, axis=1)
        hit = act[ok]
        if hit.size:
            final_bits[hit] = bits[ok]
            iters[hit] = it
            done[hit] = True
        if done.all() or it == max_iters:
            break
        act = np.flatnonzero(~done)

        v2c = total[act][:, edge_col] - c2v[act]
        ve = v2c[:, row_edge_safe]
        av = np.abs(ve)
        av[:, pad] = np.inf
        arg1 = av.argmin(axis=2)
        min1 = np.take_along_axis(av, arg1[..., None], axis=2)[..., 0]
        av2 = av.copy()
        np.put_along_axis(av2, arg1[..., None], np.inf, axis=2)
        min2 = av2.min(axis=2)
        sgn = np.where(ve < 0, -1.0, 1.0)
        sgn[:, pad] = 1.0
        row_sign = sgn.prod(axis=2)
        excl_min = np.where(
            deg_ix[None, None, :] == arg1[..., None], min2[..., None], min1[..., None]
        )
        msg = normalization * row_sign[..., None] * sgn * excl_min
        np.clip(msg, -clip, clip, out=msg)
        upd = np.empty((act.size, n_edges))
        upd[:, slot_to_edge] = msg[:, live_slots]
        c2v[act] = upd
        flat = (np.arange(act.size)[:, None] * h.cols + edge_col[None, :]).ravel()
        acc = np.bincount(flat, weights=upd.ravel(), minlength=act.size * h.cols)
        total[act] = llrs[act] + acc.reshape(act.size, h.cols)

    undone = ~done
    if undone.any():
        final_bits[undone] = (total[undone] < 0).astype(np.uint8)
    if single:
        return fec.DecodeResult(
            bits=final_bits[0], iterations=int(iters[0]), syndrome_ok=bool(done[0])
        )
    return fec.DecodeResult(bits=final_bits, iterations=iters, syndrome_ok=done)


def test_decoder_matches_per_edge_reference_bit_for_bit():
    codes = {n: fec.make_regular_ldpc(n, 6, 3, seed=seed) for n, seed in ((1200, 0), (240, 3))}
    batches = []
    for n, h in codes.items():
        enc = fec.systematic_encoder(h)
        rng = np.random.default_rng(n)
        for sigma in (0.5, 0.7, 0.9, 1.1, 1.3):
            cw = enc.encode(rng.integers(0, 2, size=(12, enc.k)).astype(np.uint8))
            y = 1.0 - 2.0 * cw + sigma * rng.normal(size=cw.shape)
            batches.append((h, 2.0 * y / sigma**2, 50))
    # hamming74 has column degrees 1 to 4, so its column layout is padded
    rng = np.random.default_rng(1)
    for max_iters in (1, 2, 5, 50):
        batches.append((fec.hamming74(), 3.0 * rng.normal(size=(40, 7)), max_iters))
    batches.append((codes[240], 2.0 * rng.normal(size=(1, 240)) + 1.0, 30))  # one word
    mean_iters = []
    for h, llrs, max_iters in batches:
        got = fec.ldpc_decode(llrs, h, max_iters)
        want = _reference_decode(llrs, h, max_iters)
        assert np.array_equal(got.bits, want.bits)
        assert np.array_equal(got.iterations, want.iterations)
        assert np.array_equal(got.syndrome_ok, want.syndrome_ok)
        mean_iters.append(np.mean(got.iterations))
    # the noisy batches span quick convergence to the iteration cap
    assert min(mean_iters[:10]) < 4 and max(mean_iters[:10]) == 50


def test_min_sum_beats_hard_decision_at_3db():
    # BPSK, Eb/N0 = 3 dB, rate 1/2: hard-decision BER sits near the
    # Q-function value 0.0789 while the decoded BER collapses
    h = fec.make_regular_ldpc(1000, 6, 3, seed=1)
    enc = fec.systematic_encoder(h)
    rate = enc.k / h.cols
    assert rate == 0.5
    esn0 = 10 ** (3.0 / 10.0) * rate
    sigma2 = 1.0 / (2.0 * esn0)
    rng = np.random.default_rng(42)
    cw = enc.encode(rng.integers(0, 2, size=(200, enc.k)).astype(np.uint8))
    x = 1.0 - 2.0 * cw.astype(float)
    y = x + math.sqrt(sigma2) * rng.normal(size=x.shape)
    pre = fec.ber_measure((y < 0).astype(np.uint8), cw)
    res = fec.ldpc_decode(2.0 * y / sigma2, h)
    post = fec.ber_measure(res.bits, cw)
    assert 0.06 < pre < 0.095
    assert post < pre / 10.0


# ---------------------------------------------------------------------------
# regular code construction


def test_regular_code_degrees():
    h = fec.make_regular_ldpc(1000, 6, 3, seed=1)
    assert (h.rows, h.cols) == (500, 1000)
    assert all(len(r) == 6 for r in h.row_cols)
    col_deg = np.zeros(1000, dtype=int)
    for r in h.row_cols:
        col_deg[list(r)] += 1
    assert (col_deg == 3).all()


def test_regular_code_seed_determinism():
    a = fec.make_regular_ldpc(240, 6, 3, seed=9)
    b = fec.make_regular_ldpc(240, 6, 3, seed=9)
    c = fec.make_regular_ldpc(240, 6, 3, seed=10)
    assert a.row_cols == b.row_cols
    assert a.row_cols != c.row_cols


def test_regular_code_rejects_bad_shape():
    with pytest.raises(ValueError):
        fec.make_regular_ldpc(1001, 6, 3, seed=0)
    with pytest.raises(ValueError):
        fec.make_regular_ldpc(12, 3, 3, seed=0)


# ---------------------------------------------------------------------------
# rate selection and throughput


def test_select_rate_perfect_gmi():
    rate, ok = fec.select_rate(12.0, [Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)], bits_per_4d=12.0)
    assert rate == Fraction(9, 10)
    assert ok


def test_select_rate_zero_gmi_flags_infeasible():
    rate, ok = fec.select_rate(0.0, [Fraction(1, 2), Fraction(3, 4)], bits_per_4d=12.0)
    assert rate == Fraction(1, 2)
    assert not ok


def test_select_rate_boundary_equality_feasible():
    # 5/6 x 12 = 10 exactly: equality counts as feasible
    rate, ok = fec.select_rate(10.0, [Fraction(1, 2), Fraction(5, 6), Fraction(8, 9)], bits_per_4d=12.0)
    assert rate == Fraction(5, 6)
    assert ok


def test_select_rate_requires_rates():
    with pytest.raises(ValueError):
        fec.select_rate(5.0, [], bits_per_4d=12.0)


@pytest.mark.parametrize("bits_per_4d", [0.0, -12.0, math.nan, math.inf])
def test_select_rate_rejects_bits_per_4d_not_positive_and_finite(bits_per_4d):
    # a NaN read every rate as infeasible instead of failing
    with pytest.raises(ValueError, match="bits_per_4d must be positive and finite"):
        fec.select_rate(10.0, ["1/2"], bits_per_4d)


@pytest.mark.parametrize("gmi_per_4d", [math.nan, math.inf, -math.inf])
def test_select_rate_rejects_non_finite_gmi(gmi_per_4d):
    # a NaN GMI read as "lowest rate, infeasible" instead of failing
    with pytest.raises(ValueError, match="gmi_per_4d must be finite"):
        fec.select_rate(gmi_per_4d, ["1/2", "3/4"], 12.0)


def test_net_throughput_anchor_values():
    per, total = fec.net_throughput([6.93], 35e9, bch_overhead=0.0)
    assert per[0] == pytest.approx(242.55, rel=1e-12)
    per306, total306 = fec.net_throughput([6.93] * 306, 35e9, bch_overhead=0.0)
    assert total306 == pytest.approx(74.2203, rel=1e-9)


def test_net_throughput_zero_channels():
    per, total = fec.net_throughput([], 35e9, bch_overhead=0.0)
    assert per == []
    assert total == 0.0


def test_net_throughput_linear_and_additive():
    a, ta = fec.net_throughput([5.0, 6.0], 20e9, bch_overhead=0.0)
    b, tb = fec.net_throughput([7.5], 20e9, bch_overhead=0.0)
    both, tboth = fec.net_throughput([5.0, 6.0, 7.5], 20e9, bch_overhead=0.0)
    assert both == a + b
    assert tboth == pytest.approx(ta + tb, rel=1e-15)
    doubled, tdouble = fec.net_throughput([5.0, 6.0], 40e9, bch_overhead=0.0)
    assert tdouble == pytest.approx(2.0 * ta, rel=1e-15)


def test_net_throughput_always_deducts_the_given_overhead():
    for overhead in (0.0, 0.005, 0.07):
        per, total = fec.net_throughput([8.0, 6.5], 35e9, overhead)
        assert per == [8.0 * 35e9 * (1.0 - overhead) / 1e9, 6.5 * 35e9 * (1.0 - overhead) / 1e9]
        assert total == sum(per) / 1e3


def test_net_throughput_rejects_bad_rate():
    with pytest.raises(ValueError):
        fec.net_throughput([1.0], 0.0, bch_overhead=0.0)


@pytest.mark.parametrize("symbol_rate", [math.nan, math.inf])
def test_net_throughput_rejects_rate_not_positive_and_finite(symbol_rate):
    # a NaN or infinite symbol rate gave NaN or infinite throughput
    with pytest.raises(ValueError, match="symbol_rate must be positive and finite"):
        fec.net_throughput([8.0], symbol_rate, 0.0)


@pytest.mark.parametrize("bits", [math.nan, math.inf, -math.inf])
def test_net_throughput_rejects_non_finite_bits(bits):
    with pytest.raises(ValueError, match="per-channel bits must be finite"):
        fec.net_throughput([6.93, bits], 35e9, 0.0)


@pytest.mark.parametrize("overhead", [-0.01, 1.0, 1.5, math.nan, math.inf])
def test_net_throughput_rejects_overhead_outside_unit_interval(overhead):
    # an overhead of 1.5 gave negative rates, a NaN gave NaN rates
    with pytest.raises(ValueError, match=r"bch_overhead must be in \[0, 1\)"):
        fec.net_throughput([8.0], 35e9, overhead)


# ---------------------------------------------------------------------------
# BER and the outer-code gate


def test_ber_identical_is_zero_and_gate_true():
    bits = np.ones(1000, dtype=np.uint8)
    assert fec.ber_measure(bits, bits) == 0.0
    assert fec.post_fec_gate(0.0)


def test_gate_strict_at_threshold():
    n = 100_000
    ref = np.zeros(n, dtype=np.uint8)
    dec = ref.copy()
    dec[:30] = 1
    ber = fec.ber_measure(dec, ref)
    assert ber == 3e-4
    assert not fec.post_fec_gate(ber)
    dec[29] = 0
    assert fec.post_fec_gate(fec.ber_measure(dec, ref))


@pytest.mark.parametrize("ber, threshold", [(math.nan, 3e-4), (1e-5, math.nan)])
def test_gate_rejects_nan(ber, threshold):
    # both read as a failed gate instead of failing
    with pytest.raises(ValueError, match="ber must be >= 0 and threshold > 0"):
        fec.post_fec_gate(ber, threshold)


def test_ber_rejects_length_mismatch():
    with pytest.raises(ValueError):
        fec.ber_measure(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        fec.ber_measure(np.array([], dtype=np.uint8), np.array([], dtype=np.uint8))
